//! Per-domain data and form generation.
//!
//! Each builder returns a backing [`Table`] and the [`FormSpec`] of the
//! site's search form. Input *names* and *labels* are drawn from realistic
//! variant pools (`min_price` vs `price_from` vs `lowprice`...) so that the
//! surfacer's pattern mining (paper §4.2: "large collections of forms can be
//! mined to identify patterns") faces genuine variety.
//!
//! Every input and form is made by one of a few constructors: `select` over a
//! column, `typed_box` for a zip or city column, `keyword_box`,
//! `hidden_lang`, `push_range` for a min/max pair, `input` for the one-off
//! rest, and `form` for the [`FormSpec`]. A box draws its name and then its
//! label from its pool (`ZIP`, `CITY`, `KEYWORD`) through `pool_draw`. A
//! typed box, a range bound and a select carry only the column they filter:
//! the values they accept are those of the column's schema type (see
//! [`Binding`]).

use crate::site::{Binding, DependentOptions, FormSpec, InputSpec};
use crate::vocab;
use deepweb_store::{Date, Schema, Table, Value, ValueType};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Shared generation context for one site.
pub(crate) struct GenCtx<'a> {
    /// Site-specific RNG stream.
    pub rng: &'a mut StdRng,
    /// Language code.
    pub lang: &'a str,
    /// Filler lexicon for the language.
    pub lexicon: &'a [String],
    /// Zip pool shared across the web.
    pub zips: &'a [String],
    /// City pool shared across the web.
    pub cities: &'a [String],
    /// Number of records to generate.
    pub n_records: usize,
}

impl GenCtx<'_> {
    fn filler(&mut self, n: usize) -> String {
        vocab::sentence(self.lexicon, n, self.rng)
    }

    fn zip(&mut self) -> String {
        self.zips
            .choose(self.rng)
            .cloned()
            .unwrap_or_else(|| "00000".into())
    }

    fn city(&mut self) -> String {
        self.cities
            .choose(self.rng)
            .cloned()
            .unwrap_or_else(|| "springfield".into())
    }

    fn date(&mut self) -> Date {
        Date::new(
            self.rng.gen_range(1995..=2008),
            self.rng.gen_range(1..=12),
            self.rng.gen_range(1..=28),
        )
        .expect("generated date valid")
    }

    fn flip(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }
}

/// A table over `columns` holding `n` rows, row `i` made by `row(i)`.
fn table(
    columns: Vec<(&str, ValueType)>,
    n: usize,
    mut row: impl FnMut(usize) -> Vec<Value>,
) -> Table {
    let mut t = Table::new(Schema::new(columns).expect("schema"));
    for i in 0..n {
        t.insert(row(i)).expect("row matches schema");
    }
    t
}

/// A GET form over `inputs`; the generator sets `post` afterwards.
fn form(inputs: Vec<InputSpec>, dependent: Option<DependentOptions>) -> FormSpec {
    FormSpec {
        post: false,
        inputs,
        dependent,
    }
}

/// One input.
fn input(name: impl Into<String>, label: impl Into<String>, binding: Binding) -> InputSpec {
    InputSpec {
        name: name.into(),
        label: label.into(),
        binding,
    }
}

/// A select menu over column `col`.
fn select(name: &str, label: &str, col: usize) -> InputSpec {
    input(name, label, Binding::Select { col })
}

/// The hidden interface-language input.
fn hidden_lang(lang: &str) -> InputSpec {
    input("lang", "", Binding::Hidden { value: lang.into() })
}

/// `(names, labels)` a text box draws its submission name and label from.
type Pool = (&'static [&'static str], &'static [&'static str]);

const ZIP: Pool = (
    &["zip", "zipcode", "zip_code", "postalcode"],
    &["zip code:", "zip:", "postal code:", "enter zip:"],
);
const CITY: Pool = (
    &["city", "town", "location"],
    &["city:", "city name:", "location:"],
);
const KEYWORD: Pool = (
    &["q", "query", "keywords", "search", "terms"],
    &["keywords:", "search:", "find:", "search for:"],
);

/// An input named, then labelled, from `pool`.
fn pool_draw(rng: &mut StdRng, (names, labels): Pool, binding: Binding) -> InputSpec {
    let name = *names.choose(rng).expect("nonempty");
    let label = *labels.choose(rng).expect("nonempty");
    input(name, label, binding)
}

/// A typed text box over column `col`, named from `pool` (`ZIP` or `CITY`).
fn typed_box(rng: &mut StdRng, pool: Pool, col: usize) -> InputSpec {
    pool_draw(rng, pool, Binding::TypedText { col })
}

/// A free-keyword search box.
fn keyword_box(rng: &mut StdRng) -> InputSpec {
    pool_draw(rng, KEYWORD, Binding::KeywordSearch)
}

/// Range-pair name variants: `(min_name, max_name)`.
fn range_names(rng: &mut StdRng, stem: &str) -> (String, String) {
    let variants = [
        (format!("min_{stem}"), format!("max_{stem}")),
        (format!("{stem}_min"), format!("{stem}_max")),
        (format!("min{stem}"), format!("max{stem}")),
        (format!("{stem}_from"), format!("{stem}_to")),
        (format!("low_{stem}"), format!("high_{stem}")),
    ];
    variants.choose(rng).cloned().expect("non-empty variants")
}

/// A min box and a max box bounding column `col`.
fn push_range(inputs: &mut Vec<InputSpec>, rng: &mut StdRng, stem: &str, col: usize) {
    let (min_n, max_n) = range_names(rng, stem);
    inputs.push(input(
        min_n,
        format!("min {stem}:"),
        Binding::RangeMin { col },
    ));
    inputs.push(input(
        max_n,
        format!("max {stem}:"),
        Binding::RangeMax { col },
    ));
}

/// Used-car classifieds.
pub(crate) fn used_cars(ctx: &mut GenCtx<'_>) -> (Table, FormSpec) {
    let makes = vocab::car_makes();
    // The last make never appears as an actual listing — only in cross-make
    // remarks and surface review pages. This reproduces the scarcity that
    // makes the paper's §5.1 false-positive scenario possible ("used ford
    // focus 1993" finding a Honda page).
    let listed_makes = &makes[..makes.len() - 1];
    let columns = vec![
        ("make", ValueType::Text),
        ("model", ValueType::Text),
        ("year", ValueType::Int),
        ("price", ValueType::Money),
        ("mileage", ValueType::Int),
        ("city", ValueType::Text),
        ("zip", ValueType::Zip),
        ("description", ValueType::Text),
    ];
    let t = table(columns, ctx.n_records, |_| {
        let (make, models) = listed_makes.choose(ctx.rng).expect("nonempty");
        let model = models.choose(ctx.rng).expect("nonempty");
        let year = ctx.rng.gen_range(1988..=2008);
        let price = ctx.rng.gen_range(5..=500) * 100; // dollars
        let mileage = ctx.rng.gen_range(10..=200) * 1000;
        let city = ctx.city();
        let zip = ctx.zip();
        let filler = ctx.filler(6);
        let mut desc = format!("used {make} {model} {year} in {city} {filler}");
        // Occasionally mention a competitor — the paper's §5.1 confounder
        // ("has better mileage than the Ford Focus" on a Honda page).
        if ctx.flip(0.2) {
            let (other_make, other_models) = makes.choose(ctx.rng).expect("nonempty");
            let other_model = other_models.choose(ctx.rng).expect("nonempty");
            if other_make != make {
                desc.push_str(&format!(
                    " better mileage than the {other_make} {other_model}"
                ));
            }
        }
        vec![
            Value::Text((*make).to_string()),
            Value::Text((*model).to_string()),
            Value::Int(year),
            Value::Money(price * 100),
            Value::Int(mileage),
            Value::Text(city),
            Value::Zip(zip),
            Value::Text(desc),
        ]
    });

    let mut inputs = vec![select("make", "make:", 0)];
    let mut dependent = None;
    if ctx.flip(0.4) {
        inputs.push(select("model", "model:", 1));
        dependent = Some(DependentOptions {
            controller: "make".into(),
            dependent: "model".into(),
            map: makes
                .iter()
                .map(|(m, ms)| {
                    (
                        (*m).to_string(),
                        ms.iter().map(|s| (*s).to_string()).collect(),
                    )
                })
                .collect(),
        });
    }
    if ctx.flip(0.8) {
        push_range(&mut inputs, ctx.rng, "price", 3);
    }
    if ctx.flip(0.4) {
        push_range(&mut inputs, ctx.rng, "year", 2);
    }
    if ctx.flip(0.5) {
        inputs.push(typed_box(ctx.rng, ZIP, 6));
    }
    if ctx.flip(0.3) {
        inputs.push(typed_box(ctx.rng, CITY, 5));
    }
    if ctx.flip(0.8) {
        inputs.push(keyword_box(ctx.rng));
    }
    inputs.push(hidden_lang(ctx.lang));
    (t, form(inputs, dependent))
}

/// Real-estate listings.
pub(crate) fn real_estate(ctx: &mut GenCtx<'_>) -> (Table, FormSpec) {
    let columns = vec![
        ("type", ValueType::Text),
        ("bedrooms", ValueType::Int),
        ("price", ValueType::Money),
        ("city", ValueType::Text),
        ("zip", ValueType::Zip),
        ("listed", ValueType::Date),
        ("description", ValueType::Text),
    ];
    let types = ["house", "condo", "apartment", "studio", "loft", "townhouse"];
    let t = table(columns, ctx.n_records, |_| {
        let ty = types.choose(ctx.rng).expect("nonempty");
        let beds = ctx.rng.gen_range(1..=6);
        let price = ctx.rng.gen_range(500..=20_000) * 100;
        let city = ctx.city();
        let zip = ctx.zip();
        let listed = ctx.date();
        let filler = ctx.filler(6);
        let desc = format!("{beds} bedroom {ty} in {city} {filler}");
        vec![
            Value::Text((*ty).to_string()),
            Value::Int(beds),
            Value::Money(price * 100),
            Value::Text(city),
            Value::Zip(zip),
            Value::Date(listed),
            Value::Text(desc),
        ]
    });
    let mut inputs = vec![select("type", "property type:", 0)];
    if ctx.flip(0.6) {
        inputs.push(select("bedrooms", "bedrooms:", 1));
    }
    if ctx.flip(0.8) {
        push_range(&mut inputs, ctx.rng, "price", 2);
    }
    if ctx.flip(0.6) {
        inputs.push(typed_box(ctx.rng, ZIP, 4));
    }
    if ctx.flip(0.4) {
        inputs.push(typed_box(ctx.rng, CITY, 3));
    }
    if ctx.flip(0.3) {
        let label = "listed after (yyyy-mm-dd):";
        inputs.push(input("listed_after", label, Binding::RangeMin { col: 5 }));
    }
    if ctx.flip(0.7) {
        inputs.push(keyword_box(ctx.rng));
    }
    (t, form(inputs, None))
}

/// Job listings.
pub(crate) fn jobs(ctx: &mut GenCtx<'_>) -> (Table, FormSpec) {
    let columns = vec![
        ("category", ValueType::Text),
        ("title", ValueType::Text),
        ("city", ValueType::Text),
        ("salary", ValueType::Money),
        ("posted", ValueType::Date),
        ("description", ValueType::Text),
    ];
    let cats = vocab::job_titles();
    let t = table(columns, ctx.n_records, |_| {
        let cat = cats.choose(ctx.rng).expect("nonempty");
        let seniority = ["junior", "senior", "lead", "staff"]
            .choose(ctx.rng)
            .expect("nonempty");
        let title = format!("{seniority} {cat}");
        let city = ctx.city();
        let salary = ctx.rng.gen_range(250..=1800) * 10_000; // cents
        let posted = ctx.date();
        let filler = ctx.filler(7);
        let desc = format!("{title} position in {city} {filler}");
        vec![
            Value::Text((*cat).to_string()),
            Value::Text(title),
            Value::Text(city),
            Value::Money(salary),
            Value::Date(posted),
            Value::Text(desc),
        ]
    });
    let mut inputs = vec![select("category", "job category:", 0)];
    if ctx.flip(0.6) {
        push_range(&mut inputs, ctx.rng, "salary", 3);
    }
    if ctx.flip(0.5) {
        inputs.push(typed_box(ctx.rng, CITY, 2));
    }
    inputs.push(keyword_box(ctx.rng));
    (t, form(inputs, None))
}

/// Restaurant guides.
pub(crate) fn restaurants(ctx: &mut GenCtx<'_>) -> (Table, FormSpec) {
    let columns = vec![
        ("name", ValueType::Text),
        ("cuisine", ValueType::Text),
        ("city", ValueType::Text),
        ("zip", ValueType::Zip),
        ("price_level", ValueType::Int),
        ("description", ValueType::Text),
    ];
    let cuisines = vocab::cuisines();
    let t = table(columns, ctx.n_records, |i| {
        let cuisine = cuisines.choose(ctx.rng).expect("nonempty");
        let name = format!(
            "{} {}",
            ctx.filler(1),
            ["kitchen", "bistro", "cafe", "grill", "house"]
                .choose(ctx.rng)
                .expect("nonempty")
        );
        let city = ctx.city();
        let zip = ctx.zip();
        let level = ctx.rng.gen_range(1..=4);
        let filler = ctx.filler(5);
        let desc = format!("{cuisine} restaurant number {i} in {city} {filler}");
        vec![
            Value::Text(name),
            Value::Text((*cuisine).to_string()),
            Value::Text(city),
            Value::Zip(zip),
            Value::Int(level),
            Value::Text(desc),
        ]
    });
    let mut inputs = vec![select("cuisine", "cuisine:", 1)];
    if ctx.flip(0.6) {
        inputs.push(typed_box(ctx.rng, ZIP, 3));
    }
    if ctx.flip(0.5) {
        inputs.push(select("price_level", "price level:", 4));
    }
    if ctx.flip(0.8) {
        inputs.push(keyword_box(ctx.rng));
    }
    (t, form(inputs, None))
}

/// Store locators: the pure typed-input site (paper §4.1: "we do not need to
/// know what the form is about ... all we need to know is that the text box
/// accepts zip code values").
pub(crate) fn store_locator(ctx: &mut GenCtx<'_>) -> (Table, FormSpec) {
    let columns = vec![
        ("store", ValueType::Text),
        ("street", ValueType::Text),
        ("city", ValueType::Text),
        ("zip", ValueType::Zip),
        ("opened", ValueType::Date),
    ];
    let streets = vocab::streets();
    let t = table(columns, ctx.n_records, |i| {
        let street = streets.choose(ctx.rng).expect("nonempty");
        let number = ctx.rng.gen_range(1..=999);
        let city = ctx.city();
        let zip = ctx.zip();
        vec![
            Value::Text(format!("store {i}")),
            Value::Text(format!("{number} {street} street")),
            Value::Text(city),
            Value::Zip(zip),
            Value::Date(ctx.date()),
        ]
    });
    let mut inputs = vec![typed_box(ctx.rng, ZIP, 3)];
    if ctx.flip(0.8) {
        let options = vec!["10".into(), "25".into(), "50".into()];
        inputs.push(input(
            "radius",
            "radius (miles):",
            Binding::Ignored { options },
        ));
    }
    (t, form(inputs, None))
}

/// Government / NGO portals: keyword-searchable document stores.
pub(crate) fn government(ctx: &mut GenCtx<'_>) -> (Table, FormSpec) {
    let columns = vec![
        ("doc_type", ValueType::Text),
        ("year", ValueType::Int),
        ("title", ValueType::Text),
        ("body", ValueType::Text),
    ];
    let types = vocab::gov_doc_types();
    let t = table(columns, ctx.n_records, |i| {
        let ty = types.choose(ctx.rng).expect("nonempty");
        let year = ctx.rng.gen_range(1990..=2008);
        let subject = ctx.filler(2);
        let title = format!("{ty} {i} concerning {subject}");
        let body = format!("{} {}", subject, ctx.filler(12));
        vec![
            Value::Text((*ty).to_string()),
            Value::Int(year),
            Value::Text(title),
            Value::Text(body),
        ]
    });
    let mut inputs = vec![keyword_box(ctx.rng)];
    if ctx.flip(0.7) {
        inputs.push(select("doc_type", "document type:", 0));
    }
    if ctx.flip(0.5) {
        inputs.push(select("year", "year:", 1));
    }
    (t, form(inputs, None))
}

/// Library catalogues: keyword box plus an exact-match author text box (an
/// *untyped* large-domain input, paper §4.1: "people names, ISBN values").
pub(crate) fn library(ctx: &mut GenCtx<'_>) -> (Table, FormSpec) {
    let columns = vec![
        ("title", ValueType::Text),
        ("author", ValueType::Text),
        ("genre", ValueType::Text),
        ("year", ValueType::Int),
    ];
    let genres = vocab::book_genres();
    let authors = vocab::surnames();
    let t = table(columns, ctx.n_records, |_| {
        let genre = genres.choose(ctx.rng).expect("nonempty");
        let author = authors.choose(ctx.rng).expect("nonempty");
        let subject = ctx.filler(3);
        let title = format!("the {subject} {genre}");
        vec![
            Value::Text(title),
            Value::Text((*author).to_string()),
            Value::Text((*genre).to_string()),
            Value::Int(ctx.rng.gen_range(1950..=2008)),
        ]
    });
    let mut inputs = vec![keyword_box(ctx.rng)];
    if ctx.flip(0.8) {
        inputs.push(select("genre", "genre:", 2));
    }
    if ctx.flip(0.3) {
        inputs.push(input(
            "author",
            "author surname:",
            Binding::TypedText { col: 1 },
        ));
    }
    (t, form(inputs, None))
}

/// Media search: the database-selection correlation (paper §4.2) — one select
/// menu chooses the underlying database, one text box takes keywords, and the
/// productive keyword pools per category are disjoint.
pub(crate) fn media_search(ctx: &mut GenCtx<'_>) -> (Table, FormSpec) {
    let columns = vec![
        ("category", ValueType::Text),
        ("title", ValueType::Text),
        ("year", ValueType::Int),
        ("description", ValueType::Text),
    ];
    let cats = vocab::media_categories();
    let t = table(columns, ctx.n_records, |_| {
        let (cat, kws) = cats.choose(ctx.rng).expect("nonempty");
        let k1 = kws.choose(ctx.rng).expect("nonempty");
        let k2 = kws.choose(ctx.rng).expect("nonempty");
        let filler = ctx.filler(3);
        let title = format!("{k1} {filler}");
        let desc = format!("a {cat} item featuring {k1} and {k2}");
        vec![
            Value::Text((*cat).to_string()),
            Value::Text(title),
            Value::Int(ctx.rng.gen_range(1980..=2008)),
            Value::Text(desc),
        ]
    });
    let inputs = vec![select("category", "search in:", 0), keyword_box(ctx.rng)];
    (t, form(inputs, None))
}

/// Faculty directories: the fortuitous-query substrate (paper §3.2). Exactly
/// one select input (department); one biography mentions the SIGMOD
/// Innovations Award.
pub(crate) fn faculty(ctx: &mut GenCtx<'_>, plant_award: bool) -> (Table, FormSpec) {
    let columns = vec![
        ("department", ValueType::Text),
        ("name", ValueType::Text),
        ("bio", ValueType::Text),
    ];
    let depts = vocab::departments();
    let names = vocab::surnames();
    // The planted biography, when there is one, is record 0.
    let planted = usize::from(plant_award);
    let t = table(columns, planted + ctx.n_records, |i| {
        if i < planted {
            return vec![
                Value::Text("csail".into()),
                Value::Text("stonebraker".into()),
                Value::Text(
                    "professor stonebraker is an mit professor in the csail department \
                     and winner of the sigmod innovations award for database systems"
                        .into(),
                ),
            ];
        }
        let dept = depts.choose(ctx.rng).expect("nonempty");
        let name = names.choose(ctx.rng).expect("nonempty");
        let filler = ctx.filler(8);
        let bio = format!("professor {name} of the {dept} department studies {filler}");
        vec![
            Value::Text((*dept).to_string()),
            Value::Text((*name).to_string()),
            Value::Text(bio),
        ]
    });
    (t, form(vec![select("department", "department:", 0)], None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Binding;
    use deepweb_common::derive_rng;

    fn ctx_fixture(rng: &mut StdRng) -> (Vec<String>, Vec<String>, Vec<String>) {
        let lex = vocab::lexicon("en", 40, 1);
        let zips = vocab::us_zipcodes(1, 50);
        let cities = vocab::us_cities();
        let _ = rng;
        (lex, zips, cities)
    }

    fn make_ctx<'a>(
        rng: &'a mut StdRng,
        lex: &'a [String],
        zips: &'a [String],
        cities: &'a [String],
        n: usize,
    ) -> GenCtx<'a> {
        GenCtx {
            rng,
            lang: "en",
            lexicon: lex,
            zips,
            cities,
            n_records: n,
        }
    }

    #[test]
    fn used_cars_builds_consistent_site() {
        let mut rng = derive_rng(1, "dg-cars");
        let (lex, zips, cities) = ctx_fixture(&mut rng);
        let mut ctx = make_ctx(&mut rng, &lex, &zips, &cities, 30);
        let (t, form) = used_cars(&mut ctx);
        assert_eq!(t.len(), 30);
        assert!(!form.post);
        // Always has a make select.
        assert!(form
            .inputs
            .iter()
            .any(|i| i.name == "make" && matches!(i.binding, Binding::Select { col: 0 })));
    }

    #[test]
    fn all_domains_generate_without_panic() {
        let mut rng = derive_rng(2, "dg-all");
        let (lex, zips, cities) = ctx_fixture(&mut rng);
        for i in 0..8u64 {
            let mut r = derive_rng(i, "dg-domain");
            let mut ctx = make_ctx(&mut r, &lex, &zips, &cities, 20);
            let _ = used_cars(&mut ctx);
            let mut ctx = make_ctx(&mut r, &lex, &zips, &cities, 20);
            let _ = real_estate(&mut ctx);
            let mut ctx = make_ctx(&mut r, &lex, &zips, &cities, 20);
            let _ = jobs(&mut ctx);
            let mut ctx = make_ctx(&mut r, &lex, &zips, &cities, 20);
            let _ = restaurants(&mut ctx);
            let mut ctx = make_ctx(&mut r, &lex, &zips, &cities, 20);
            let _ = store_locator(&mut ctx);
            let mut ctx = make_ctx(&mut r, &lex, &zips, &cities, 20);
            let _ = government(&mut ctx);
            let mut ctx = make_ctx(&mut r, &lex, &zips, &cities, 20);
            let _ = library(&mut ctx);
            let mut ctx = make_ctx(&mut r, &lex, &zips, &cities, 20);
            let _ = media_search(&mut ctx);
            let mut ctx = make_ctx(&mut r, &lex, &zips, &cities, 20);
            let _ = faculty(&mut ctx, false);
        }
    }

    #[test]
    fn faculty_plants_award_bio() {
        let mut rng = derive_rng(3, "dg-fac");
        let (lex, zips, cities) = ctx_fixture(&mut rng);
        let mut ctx = make_ctx(&mut rng, &lex, &zips, &cities, 10);
        let (t, form) = faculty(&mut ctx, true);
        assert_eq!(t.len(), 11);
        let bio = t.row(deepweb_common::RecordId(0))[2].render();
        assert!(bio.contains("sigmod innovations award"));
        assert_eq!(form.inputs.len(), 1);
    }

    #[test]
    fn media_categories_are_separable() {
        let mut rng = derive_rng(4, "dg-media");
        let (lex, zips, cities) = ctx_fixture(&mut rng);
        let mut ctx = make_ctx(&mut rng, &lex, &zips, &cities, 200);
        let (t, _) = media_search(&mut ctx);
        // Software rows should mention software keywords, not movie keywords.
        let mut sw_rows = 0;
        for (_, row) in t.iter() {
            if row[0].render() == "software" {
                sw_rows += 1;
                let desc = row[3].render();
                assert!(
                    !desc.contains("noir") && !desc.contains("western"),
                    "desc={desc}"
                );
            }
        }
        assert!(sw_rows > 10);
    }

    #[test]
    fn store_locator_has_ignored_radius_sometimes() {
        let mut hit = false;
        for seed in 0..20u64 {
            let mut rng = derive_rng(seed, "dg-store");
            let (lex, zips, cities) = ctx_fixture(&mut rng);
            let mut ctx = make_ctx(&mut rng, &lex, &zips, &cities, 10);
            let (_, form) = store_locator(&mut ctx);
            if form
                .inputs
                .iter()
                .any(|i| matches!(i.binding, Binding::Ignored { .. }))
            {
                hit = true;
                break;
            }
        }
        assert!(hit, "radius input should appear within 20 seeds");
    }

    #[test]
    fn range_name_variants_pair_up() {
        for seed in 0..10u64 {
            let mut rng = derive_rng(seed, "dg-range");
            let (a, b) = range_names(&mut rng, "price");
            assert_ne!(a, b);
            assert!(a.contains("price") && b.contains("price"));
        }
    }
}
