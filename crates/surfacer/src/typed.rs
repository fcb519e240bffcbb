//! Typed-input recognition (paper §4.1).
//!
//! "All we need to know is that the text box accepts zip code values" — type
//! recognition is domain-independent: a store locator and a used-car site
//! both get zip values without the crawler knowing what either sells.
//!
//! Recognition = name/label pattern hints, confirmed by probing: sample
//! values of the candidate type must produce results on some probe while a
//! junk token must not; the verdict is the confirmed [`TypeClass`], or
//! nothing. The value *libraries* are the standard dictionaries a
//! search-engine crawler ships (zip lists, city gazetteers, price/date
//! ladders).

use crate::formmodel::{CrawledForm, CrawledInput};
use crate::probe::Prober;
use deepweb_common::DEFAULT_SEED;
use deepweb_webworld::vocab;

/// The common input data types of paper §4.1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TypeClass {
    /// 5-digit US zip codes.
    Zip,
    /// Prices / salaries (dollar amounts).
    Price,
    /// Calendar dates (`YYYY-MM-DD`).
    DateT,
    /// City names.
    City,
    /// 4-digit years.
    Year,
}

impl TypeClass {
    /// All classes, in the order they are tried.
    pub fn all() -> &'static [TypeClass] {
        &[
            TypeClass::Zip,
            TypeClass::Price,
            TypeClass::DateT,
            TypeClass::City,
            TypeClass::Year,
        ]
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TypeClass::Zip => "zip",
            TypeClass::Price => "price",
            TypeClass::DateT => "date",
            TypeClass::City => "city",
            TypeClass::Year => "year",
        }
    }
}

/// The value dictionaries the surfacer ships.
#[derive(Clone, Debug)]
pub struct TypedValueLibrary {
    zips: Vec<String>,
    cities: Vec<String>,
    prices: Vec<String>,
    dates: Vec<String>,
    years: Vec<String>,
}

impl TypedValueLibrary {
    /// The standard library. Its zips are drawn at [`DEFAULT_SEED`]; a
    /// generated world draws its zips under its own seed, so the generator
    /// and the crawler hold the same zip list only when the world's seed is
    /// `DEFAULT_SEED` too (DESIGN.md §2).
    pub fn standard() -> Self {
        TypedValueLibrary {
            zips: vocab::us_zipcodes(DEFAULT_SEED, 300),
            cities: vocab::us_cities(),
            prices: (1..=20).map(|i| (i * 2500).to_string()).collect(),
            dates: (1995..=2008)
                .flat_map(|y| [format!("{y}-01-01"), format!("{y}-07-01")])
                .collect(),
            years: (1985..=2009).map(|y| y.to_string()).collect(),
        }
    }

    /// Values of a class.
    pub fn values(&self, ty: TypeClass) -> &[String] {
        match ty {
            TypeClass::Zip => &self.zips,
            TypeClass::Price => &self.prices,
            TypeClass::DateT => &self.dates,
            TypeClass::City => &self.cities,
            TypeClass::Year => &self.years,
        }
    }

    /// An evenly spaced sample of `k` values of a class.
    pub fn sample(&self, ty: TypeClass, k: usize) -> Vec<String> {
        let vals = self.values(ty);
        if vals.is_empty() || k == 0 {
            return Vec::new();
        }
        let step = (vals.len() / k.min(vals.len())).max(1);
        vals.iter().step_by(step).take(k).cloned().collect()
    }
}

/// A type class's widest plausible `(lo, hi)` window — the fallback when a
/// sampled window misses a site's value distribution entirely (e.g. salaries
/// living above a car-price ladder). "Even simple strategies for picking
/// value pairs" (paper §4.2) include trying the full domain.
pub(crate) fn wide_window(class: TypeClass) -> (String, String) {
    match class {
        TypeClass::Zip => ("00000".into(), "99999".into()),
        TypeClass::Price => ("1".into(), "10000000".into()),
        TypeClass::DateT => ("1900-01-01".into(), "2100-12-31".into()),
        TypeClass::City => ("a".into(), "zzzz".into()),
        TypeClass::Year => ("1900".into(), "2100".into()),
    }
}

/// Name/label pattern hints per class. Returns candidate classes in
/// descending hint strength; empty when nothing matches.
pub fn pattern_hints(input: &CrawledInput) -> Vec<TypeClass> {
    let hay = format!("{} {}", input.name, input.label).to_ascii_lowercase();
    let mut scored: Vec<(i32, TypeClass)> = Vec::new();
    let contains_any = |words: &[&str]| words.iter().any(|w| hay.contains(w));
    if contains_any(&["zip", "postal"]) {
        scored.push((3, TypeClass::Zip));
    }
    if contains_any(&["price", "cost", "salary", "pay"]) {
        scored.push((3, TypeClass::Price));
    }
    if contains_any(&["date", "yyyy", "listed", "posted", "after", "before"]) {
        scored.push((2, TypeClass::DateT));
    }
    if contains_any(&["city", "town", "location"]) {
        scored.push((2, TypeClass::City));
    }
    if contains_any(&["year"]) {
        scored.push((2, TypeClass::Year));
    }
    scored.sort_by_key(|&(s, _)| std::cmp::Reverse(s));
    scored.into_iter().map(|(_, t)| t).collect()
}

/// Classify a text input by pattern hints confirmed with probes.
///
/// Probes per candidate class: `samples_per_class` library values plus one
/// junk token. Confirmed iff ≥1 sample is productive and the junk token is
/// not (paper: "one can identify such typed inputs with high accuracy").
pub fn classify_typed(
    prober: &Prober<'_>,
    form: &CrawledForm,
    input: &CrawledInput,
    lib: &TypedValueLibrary,
    samples_per_class: usize,
) -> Option<TypeClass> {
    if !input.is_text() {
        return None;
    }
    let junk = prober.submit(form, &[(input.name.clone(), "zzqqxv".into())]);
    if junk.ok && junk.has_results() {
        // Accepts garbage: that is a search box, not a typed input.
        return None;
    }
    for class in pattern_hints(input) {
        let mut productive = 0;
        for v in lib.sample(class, samples_per_class) {
            let out = prober.submit(form, &[(input.name.clone(), v)]);
            if out.ok && out.has_results() {
                productive += 1;
            }
        }
        if productive > 0 {
            return Some(class);
        }
    }
    None
}

/// Site words a search-box test submits, at most: the first ones given.
pub(crate) const SEARCH_BOX_PROBES: usize = 5;

/// Search-box detection: the input accepts arbitrary site-ish words. Probes
/// the first [`SEARCH_BOX_PROBES`] characteristic site words; a search box is
/// confirmed when at least one produces results (typed inputs reject words;
/// exact-match untyped inputs almost never hit).
pub(crate) fn is_search_box(
    prober: &Prober<'_>,
    form: &CrawledForm,
    input: &CrawledInput,
    site_words: &[String],
) -> bool {
    if !input.is_text() {
        return false;
    }
    let mut hits = 0;
    for w in site_words.iter().take(SEARCH_BOX_PROBES) {
        let out = prober.submit(form, &[(input.name.clone(), w.clone())]);
        if out.ok && out.has_results() {
            hits += 1;
        }
    }
    hits >= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::form_of;
    use deepweb_store::ValueType;
    use deepweb_webworld::InputTruth;

    fn world() -> deepweb_webworld::World {
        crate::fixtures::world(40)
    }

    #[test]
    fn zip_inputs_classified_as_zip() {
        let w = world();
        let lib = TypedValueLibrary::standard();
        let mut checked = 0;
        for t in &w.truth.sites {
            if t.post {
                continue;
            }
            for (name, truth) in &t.inputs {
                if matches!(truth, InputTruth::Typed(ValueType::Zip)) {
                    let form = form_of(&w, &t.host);
                    let input = form.input(name).unwrap().clone();
                    let prober = Prober::new(&w.server);
                    let verdict = classify_typed(&prober, &form, &input, &lib, 8);
                    assert_eq!(
                        verdict,
                        Some(TypeClass::Zip),
                        "input {name} on {} misclassified",
                        t.host
                    );
                    checked += 1;
                }
            }
            if checked >= 3 {
                break;
            }
        }
        assert!(checked > 0, "world should contain zip inputs");
    }

    #[test]
    fn search_boxes_not_typed() {
        let w = world();
        let lib = TypedValueLibrary::standard();
        for t in &w.truth.sites {
            if t.post {
                continue;
            }
            if let Some((name, _)) = t
                .inputs
                .iter()
                .find(|(_, tr)| matches!(tr, InputTruth::Search))
            {
                let form = form_of(&w, &t.host);
                let input = form.input(name).unwrap().clone();
                let prober = Prober::new(&w.server);
                // Search boxes accept junk (full-text may match nothing, but
                // junk returns 0 results and the verdict must be None anyway
                // because pattern hints for q/query/keywords are empty).
                let verdict = classify_typed(&prober, &form, &input, &lib, 4);
                assert!(verdict.is_none(), "search box {name} wrongly typed");
                return;
            }
        }
    }

    #[test]
    fn search_box_detection_positive() {
        let w = world();
        for t in &w.truth.sites {
            if t.post {
                continue;
            }
            if let Some((name, _)) = t
                .inputs
                .iter()
                .find(|(_, tr)| matches!(tr, InputTruth::Search))
            {
                let form = form_of(&w, &t.host);
                let input = form.input(name).unwrap().clone();
                // Words straight from the site's own records are productive.
                let site = w.server.site_by_host(&t.host).unwrap();
                let words: Vec<String> = site.table.row_tokens(deepweb_common::RecordId(0))
                    [..3.min(site.table.row_tokens(deepweb_common::RecordId(0)).len())]
                    .to_vec();
                let prober = Prober::new(&w.server);
                assert!(is_search_box(&prober, &form, &input, &words));
                return;
            }
        }
    }

    #[test]
    fn library_sampling_even() {
        let lib = TypedValueLibrary::standard();
        let s = lib.sample(TypeClass::Year, 5);
        assert_eq!(s.len(), 5);
        assert!(s[0] < s[4]);
        assert!(lib.sample(TypeClass::Zip, 0).is_empty());
    }

    #[test]
    fn pattern_hints_ranked() {
        let input = CrawledInput {
            name: "zip_code".into(),
            label: "enter zip:".into(),
            kind: deepweb_html::WidgetKind::TextBox,
            threat: None,
        };
        assert_eq!(pattern_hints(&input)[0], TypeClass::Zip);
        let none = CrawledInput {
            name: "q".into(),
            label: "keywords:".into(),
            kind: deepweb_html::WidgetKind::TextBox,
            threat: None,
        };
        assert!(pattern_hints(&none).is_empty());
    }
}
