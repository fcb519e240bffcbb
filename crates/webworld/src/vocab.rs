//! Domain vocabularies for the synthetic web.
//!
//! Everything is generated deterministically (no embedded data files): city
//! names are built combinatorially from real-sounding morphemes, zip codes are
//! sampled from a seeded RNG, per-language filler lexicons are pseudo-words
//! derived from the language code. What matters for the experiments is the
//! *shape* of the data — formats, cardinalities, co-occurrences — not whether
//! "Oakville" exists (DESIGN.md §2).

use deepweb_common::derive_rng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Car makes with their models — the canonical correlated pair (paper §4.2).
pub fn car_makes() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        ("honda", vec!["civic", "accord", "pilot", "odyssey"]),
        (
            "ford",
            vec!["focus", "fiesta", "mustang", "explorer", "taurus"],
        ),
        ("toyota", vec!["corolla", "camry", "prius", "tacoma"]),
        ("bmw", vec!["320", "325", "530", "x5"]),
        ("chevrolet", vec!["malibu", "impala", "tahoe", "cavalier"]),
        ("nissan", vec!["altima", "sentra", "maxima", "pathfinder"]),
        ("volkswagen", vec!["jetta", "passat", "golf", "beetle"]),
        ("subaru", vec!["outback", "impreza", "forester", "legacy"]),
        ("dodge", vec!["neon", "caravan", "durango", "stratus"]),
        ("mazda", vec!["protege", "miata", "tribute", "626"]),
        ("audi", vec!["a4", "a6", "tt", "allroad"]),
        ("hyundai", vec!["elantra", "sonata", "accent", "santafe"]),
        ("saturn", vec!["ion", "vue", "sl2", "lw300"]),
        ("volvo", vec!["s40", "s60", "v70", "xc90"]),
        ("jeep", vec!["wrangler", "cherokee", "liberty", "patriot"]),
    ]
}

/// Cuisines for restaurant-style sites.
pub fn cuisines() -> Vec<&'static str> {
    vec![
        "italian",
        "mexican",
        "chinese",
        "thai",
        "indian",
        "french",
        "japanese",
        "greek",
        "vietnamese",
        "korean",
        "ethiopian",
        "spanish",
        "turkish",
        "lebanese",
        "peruvian",
    ]
}

/// Job categories for employment sites.
pub(crate) fn job_titles() -> Vec<&'static str> {
    vec![
        "engineer",
        "nurse",
        "teacher",
        "accountant",
        "electrician",
        "plumber",
        "analyst",
        "designer",
        "manager",
        "technician",
        "librarian",
        "chef",
        "mechanic",
        "pharmacist",
        "paralegal",
        "surveyor",
    ]
}

/// Book genres for library sites.
pub(crate) fn book_genres() -> Vec<&'static str> {
    vec![
        "mystery",
        "romance",
        "biography",
        "history",
        "fantasy",
        "poetry",
        "thriller",
        "science",
        "travel",
        "cooking",
        "philosophy",
        "economics",
    ]
}

/// Media categories for database-selection sites (paper §4.2: "movies, music,
/// software, or games") with category-specific keyword pools.
pub(crate) fn media_categories() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            "movies",
            vec![
                "noir",
                "western",
                "matinee",
                "premiere",
                "documentary",
                "trilogy",
                "sequel",
            ],
        ),
        (
            "music",
            vec![
                "sonata", "quartet", "remix", "ballad", "symphony", "acoustic", "chorale",
            ],
        ),
        (
            "software",
            vec![
                "compiler",
                "debugger",
                "spreadsheet",
                "firewall",
                "antivirus",
                "editor",
                "kernel",
            ],
        ),
        (
            "games",
            vec![
                "arcade",
                "puzzle",
                "platformer",
                "strategy",
                "roguelike",
                "simulation",
                "pinball",
            ],
        ),
    ]
}

/// Government document types (the paper's motivating long-tail content:
/// "rules and regulations, survey results" on portals with no SEO budget).
pub(crate) fn gov_doc_types() -> Vec<&'static str> {
    vec![
        "regulation",
        "ordinance",
        "statute",
        "permit",
        "census",
        "survey",
        "bulletin",
        "advisory",
        "assessment",
        "resolution",
    ]
}

/// University departments (for the fortuitous-query scenario, paper §3.2).
pub(crate) fn departments() -> Vec<&'static str> {
    vec![
        "csail",
        "mathematics",
        "physics",
        "chemistry",
        "biology",
        "economics",
        "linguistics",
        "history",
        "architecture",
        "aeronautics",
    ]
}

/// Morpheme-combinatorial US-style city names (~deterministic, ~200 distinct).
pub fn us_cities() -> Vec<String> {
    let prefixes = [
        "spring", "oak", "maple", "river", "lake", "cedar", "pine", "fair", "green", "west",
        "east", "north", "clay", "mill", "stone", "bridge", "ash", "elm", "fox", "deer",
    ];
    let suffixes = [
        "field", "ville", "ton", "wood", "port", "burg", "dale", "view", "ford", "haven",
    ];
    let mut out = Vec::with_capacity(prefixes.len() * suffixes.len());
    for p in prefixes {
        for s in suffixes {
            out.push(format!("{p}{s}"));
        }
    }
    out
}

/// Deterministic set of `n` distinct 5-digit zip codes under `seed`.
pub fn us_zipcodes(seed: u64, n: usize) -> Vec<String> {
    let mut rng = derive_rng(seed, "vocab-zips");
    let mut set = std::collections::BTreeSet::new();
    while set.len() < n {
        let z: u32 = rng.gen_range(10000..99999);
        set.insert(format!("{z:05}"));
    }
    set.into_iter().collect()
}

/// Street-name parts for address text.
pub(crate) fn streets() -> Vec<&'static str> {
    vec![
        "main",
        "oak",
        "elm",
        "park",
        "washington",
        "lincoln",
        "market",
        "church",
        "walnut",
        "cherry",
    ]
}

/// Surnames for person names (professors, sellers, authors).
pub(crate) fn surnames() -> Vec<&'static str> {
    vec![
        "stonebraker",
        "codd",
        "gray",
        "ullman",
        "widom",
        "halevy",
        "madhavan",
        "chang",
        "florescu",
        "ives",
        "doan",
        "franklin",
        "hellerstein",
        "dewitt",
        "bernstein",
        "abiteboul",
        "naughton",
        "ramakrishnan",
        "garcia",
        "molina",
        "suciu",
        "tannen",
        "vianu",
        "chaudhuri",
    ]
}

/// 45 language codes (the paper: content surfaced "in over 45 languages").
pub fn languages() -> Vec<&'static str> {
    vec![
        "en", "es", "fr", "de", "it", "pt", "nl", "sv", "no", "da", "fi", "pl", "cs", "sk", "hu",
        "ro", "bg", "el", "tr", "ru", "uk", "sr", "hr", "sl", "lt", "lv", "et", "he", "ar", "fa",
        "hi", "bn", "ta", "te", "ml", "th", "vi", "id", "ms", "tl", "zh", "ja", "ko", "sw", "af",
    ]
}

/// A deterministic pseudo-word lexicon for `lang`.
///
/// Words are CV-syllable constructions seeded by the language code, so
/// different languages have (almost surely) disjoint vocabularies — which is
/// what makes per-language content distinguishable to the index without
/// shipping 45 dictionaries.
pub fn lexicon(lang: &str, size: usize, seed: u64) -> Vec<String> {
    let consonants = b"bcdfghjklmnprstvz";
    let vowels = b"aeiou";
    let mut rng = derive_rng(seed, &format!("lexicon-{lang}"));
    let mut words = std::collections::BTreeSet::new();
    while words.len() < size {
        let syllables = rng.gen_range(2..=4);
        let mut w = String::new();
        for _ in 0..syllables {
            w.push(consonants[rng.gen_range(0..consonants.len())] as char);
            w.push(vowels[rng.gen_range(0..vowels.len())] as char);
        }
        words.insert(w);
    }
    words.into_iter().collect()
}

/// Build a sentence of `n` words from `lexicon` (used for descriptions and
/// filler paragraphs).
pub fn sentence<R: Rng + ?Sized>(lexicon: &[String], n: usize, rng: &mut R) -> String {
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        parts.push(lexicon.choose(rng).map(String::as_str).unwrap_or("lorem"));
    }
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cities_are_distinct_and_plentiful() {
        let c = us_cities();
        let mut d = c.clone();
        d.sort();
        d.dedup();
        assert_eq!(c.len(), d.len());
        assert!(c.len() >= 150);
    }

    #[test]
    fn zips_are_valid_and_deterministic() {
        let a = us_zipcodes(7, 100);
        let b = us_zipcodes(7, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a
            .iter()
            .all(|z| z.len() == 5 && z.bytes().all(|c| c.is_ascii_digit())));
    }

    #[test]
    fn at_least_45_languages() {
        assert!(languages().len() >= 45);
    }

    #[test]
    fn lexicons_differ_by_language() {
        let en = lexicon("en", 50, 1);
        let fr = lexicon("fr", 50, 1);
        assert_ne!(en, fr);
        let overlap = en.iter().filter(|w| fr.contains(w)).count();
        assert!(
            overlap < 10,
            "languages should be nearly disjoint, overlap={overlap}"
        );
    }

    #[test]
    fn lexicon_deterministic() {
        assert_eq!(lexicon("de", 30, 5), lexicon("de", 30, 5));
    }

    #[test]
    fn sentence_uses_lexicon() {
        let lex = lexicon("en", 20, 1);
        let mut rng = deepweb_common::derive_rng(1, "sent");
        let s = sentence(&lex, 5, &mut rng);
        assert_eq!(s.split(' ').count(), 5);
        assert!(s.split(' ').all(|w| lex.contains(&w.to_string())));
    }

    #[test]
    fn media_categories_have_distinct_keywords() {
        let cats = media_categories();
        assert_eq!(cats.len(), 4);
        let movies: Vec<_> = cats[0].1.clone();
        let software: Vec<_> = cats[2].1.clone();
        assert!(movies.iter().all(|k| !software.contains(k)));
    }
}
