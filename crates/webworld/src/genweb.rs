//! Whole-web generation: sites, surface pages, directory, ground truth.
//!
//! One [`WebConfig`] describes a web; [`generate`] deterministically expands
//! it into a [`World`]. Benches scale `num_sites` up; unit tests keep it
//! small. Ground truth captures everything the experiments need to score
//! against (true record counts, true input semantics, true range pairs).

use crate::datagen::{self, GenCtx};
use crate::server::WebServer;
use crate::site::{Binding, DomainKind, FormSpec, RenderStyle, Site};
use crate::surface;
use crate::vocab;
use deepweb_common::ids::SiteId;
use deepweb_common::{derive_rng, derive_rng_n};
use deepweb_store::{Table, ValueType};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Skew of the site-size distribution (`size ∝ 1/rank^skew`).
const SIZE_SKEW: f64 = 0.7;

/// Page sizes sites choose from.
const PAGE_SIZES: [usize; 4] = [5, 10, 10, 20];

/// Configuration of a generated web.
#[derive(Clone, Debug)]
pub struct WebConfig {
    /// Master seed; same seed ⇒ byte-identical web.
    pub seed: u64,
    /// Number of deep-web sites.
    pub num_sites: usize,
    /// Number of SEO'd popular-content surface hosts.
    pub popular_hosts: usize,
    /// Number of data-table surface hosts (WebTables input).
    pub table_hosts: usize,
    /// Smallest site size in records.
    pub min_records: usize,
    /// Largest site size in records.
    pub max_records: usize,
    /// Fraction of forms using POST (not surfaceable).
    pub post_fraction: f64,
    /// Fraction of sites exposing a `/browse` page.
    pub browse_fraction: f64,
    /// Fraction of sites in English (rest spread over 44 other languages).
    pub english_fraction: f64,
    /// Relative weights of content domains.
    pub domain_weights: Vec<(DomainKind, f64)>,
    /// Fraction of sites generated in hostile mode: broken markup plus junk
    /// form widgets (hidden token, password-named text box, client-side-only
    /// validation, inline handlers, absolute form action). Backends stay
    /// honest, so hostile sites are still surfaceable minus the junk.
    pub hostile_fraction: f64,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            seed: deepweb_common::DEFAULT_SEED,
            num_sites: 40,
            popular_hosts: 8,
            table_hosts: 6,
            min_records: 30,
            max_records: 800,
            post_fraction: 0.08,
            browse_fraction: 0.15,
            english_fraction: 0.75,
            domain_weights: vec![
                (DomainKind::UsedCars, 2.0),
                (DomainKind::RealEstate, 1.5),
                (DomainKind::Jobs, 1.5),
                (DomainKind::Restaurants, 1.2),
                (DomainKind::StoreLocator, 1.0),
                (DomainKind::Government, 2.0),
                (DomainKind::Library, 1.5),
                (DomainKind::MediaSearch, 1.0),
                (DomainKind::Faculty, 0.8),
            ],
            hostile_fraction: 0.0,
        }
    }
}

/// Ground truth about one input (what the surfacer should discover).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InputTruth {
    /// A free-keyword search box.
    Search,
    /// A typed text box.
    Typed(ValueType),
    /// A select menu bound to a column.
    Select,
    /// Lower bound of a range; the payload is the partner (max) input name.
    RangeMin(String),
    /// Upper bound of a range; the payload is the partner (min) input name.
    RangeMax(String),
    /// Hidden constant.
    Hidden,
    /// Backend ignores it.
    Ignored,
}

/// Ground truth for a whole site.
#[derive(Clone, Debug)]
pub struct SiteTruth {
    /// Host name.
    pub host: String,
    /// Content domain.
    pub domain: DomainKind,
    /// Language code.
    pub language: String,
    /// True record count.
    pub records: usize,
    /// True POST-ness.
    pub post: bool,
    /// Per-input truth, in form order: `(name, truth)`.
    pub inputs: Vec<(String, InputTruth)>,
    /// True (min,max) range pairs.
    pub range_pairs: Vec<(String, String)>,
    /// True for hostile-mode sites (broken markup + junk widgets).
    pub hostile: bool,
}

impl SiteTruth {
    /// True if the form has any "common typed" input (zip/city/price/date in
    /// a *text box* — the paper's 6.7% statistic, §4.1). Text-typed boxes
    /// count only for the city concept (author boxes are the paper's example
    /// of an *untyped* large-domain input).
    pub fn has_common_typed_input(&self) -> bool {
        self.inputs.iter().any(|(name, t)| match t {
            InputTruth::Typed(ValueType::Zip)
            | InputTruth::Typed(ValueType::Date)
            | InputTruth::Typed(ValueType::Money) => true,
            InputTruth::Typed(ValueType::Text) => {
                matches!(name.as_str(), "city" | "town" | "location")
            }
            _ => false,
        })
    }
}

/// Ground truth for the generated web.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    /// Per-site truths, indexed by `SiteId`.
    pub sites: Vec<SiteTruth>,
    /// Popular surface hosts.
    pub popular_hosts: Vec<String>,
    /// Data-table surface hosts.
    pub table_hosts: Vec<String>,
}

impl GroundTruth {
    /// Total records across all sites.
    pub fn total_records(&self) -> usize {
        self.sites.iter().map(|s| s.records).sum()
    }

    /// Distinct languages present.
    pub fn languages(&self) -> Vec<String> {
        let mut langs: Vec<String> = self.sites.iter().map(|s| s.language.clone()).collect();
        langs.sort();
        langs.dedup();
        langs
    }
}

/// A generated world: the server plus ground truth.
pub struct World {
    /// The servable web.
    pub server: WebServer,
    /// What is actually true about it.
    pub truth: GroundTruth,
}

/// `(per-input truths, (min,max) range pairs)` for a site's form.
type FormTruth = (Vec<(String, InputTruth)>, Vec<(String, String)>);

/// Derive per-input truth from a form spec (+ range pairs).
fn truth_for(site: &Site) -> FormTruth {
    let mut inputs = Vec::new();
    let mut mins: Vec<(usize, String)> = Vec::new(); // col -> name
    let mut pairs = Vec::new();
    for i in &site.form.inputs {
        let t = match &i.binding {
            Binding::KeywordSearch => InputTruth::Search,
            Binding::TypedText { col } => InputTruth::Typed(site.table.schema().column(*col).ty),
            Binding::Select { .. } => InputTruth::Select,
            Binding::RangeMin { col } => {
                mins.push((*col, i.name.clone()));
                InputTruth::RangeMin(String::new()) // partner patched below
            }
            Binding::RangeMax { col } => {
                let partner = mins
                    .iter()
                    .find(|(c, _)| c == col)
                    .map(|(_, n)| n.clone())
                    .unwrap_or_default();
                if !partner.is_empty() {
                    pairs.push((partner.clone(), i.name.clone()));
                }
                InputTruth::RangeMax(partner)
            }
            Binding::Hidden { .. } => InputTruth::Hidden,
            Binding::Ignored { .. } => InputTruth::Ignored,
        };
        inputs.push((i.name.clone(), t));
    }
    // Patch RangeMin partners now that pairs are known.
    for (name, t) in &mut inputs {
        if let InputTruth::RangeMin(p) = t {
            if let Some((_, max_n)) = pairs.iter().find(|(min_n, _)| min_n == name) {
                *p = max_n.clone();
            }
        }
    }
    (inputs, pairs)
}

/// The zip and city pools every site of a web draws from.
struct Pools {
    zips: Vec<String>,
    cities: Vec<String>,
}

impl Pools {
    fn new(seed: u64) -> Self {
        Pools {
            zips: vocab::us_zipcodes(seed, 300),
            cities: vocab::us_cities(),
        }
    }
}

/// Rows and form of one site of `domain`: the one place a domain picks its
/// builder. Only a Faculty site reads `plant_award`.
fn build_site(
    domain: DomainKind,
    pools: &Pools,
    rng: &mut StdRng,
    lang: &str,
    lexicon: &[String],
    n_records: usize,
    plant_award: bool,
) -> (Table, FormSpec) {
    let mut ctx = GenCtx {
        rng,
        lang,
        lexicon,
        zips: &pools.zips,
        cities: &pools.cities,
        n_records,
    };
    match domain {
        DomainKind::UsedCars => datagen::used_cars(&mut ctx),
        DomainKind::RealEstate => datagen::real_estate(&mut ctx),
        DomainKind::Jobs => datagen::jobs(&mut ctx),
        DomainKind::Restaurants => datagen::restaurants(&mut ctx),
        DomainKind::StoreLocator => datagen::store_locator(&mut ctx),
        DomainKind::Government => datagen::government(&mut ctx),
        DomainKind::Library => datagen::library(&mut ctx),
        DomainKind::MediaSearch => datagen::media_search(&mut ctx),
        DomainKind::Faculty => datagen::faculty(&mut ctx, plant_award),
    }
}

/// Exactly `round(n * fraction)` of `n` flags set (at least one for any
/// nonzero fraction), placed by a shuffle on the `stream` of `seed`, and
/// their count. `what` names the fraction in the panic for one outside
/// `[0, 1]`.
fn stratified(n: usize, fraction: f64, seed: u64, stream: &str, what: &str) -> (Vec<bool>, usize) {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "{what} must be in [0, 1], got {fraction}"
    );
    let set = (((n as f64) * fraction).round() as usize).max((fraction > 0.0 && n > 0) as usize);
    let mut flags: Vec<bool> = (0..n).map(|i| i < set).collect();
    flags.shuffle(&mut derive_rng(seed, stream));
    (flags, set)
}

/// Generate a world from a config.
pub fn generate(config: &WebConfig) -> World {
    let seed = config.seed;
    let pools = Pools::new(seed);
    let languages = vocab::languages();
    let weights: Vec<f64> = config.domain_weights.iter().map(|(_, w)| *w).collect();
    let total_w: f64 = weights.iter().sum();

    // Shuffle size ranks so big sites are spread across domains.
    let mut size_ranks: Vec<usize> = (0..config.num_sites).collect();
    size_ranks.shuffle(&mut derive_rng(seed, "genweb-sizes"));

    let mut sites = Vec::with_capacity(config.num_sites);
    let mut truths = Vec::with_capacity(config.num_sites);
    let mut planted_award = false;

    // POST status is stratified, not independently Bernoulli per site.
    // Independent draws can produce zero POST forms in small webs, which
    // breaks the configured fraction's contract (and the POST exclusion
    // experiment that relies on POST forms existing).
    let (mut post_flags, n_post) = stratified(
        config.num_sites,
        config.post_fraction,
        seed,
        "genweb-post",
        "post_fraction",
    );
    // Hostile status is stratified the same way. Backends stay honest, so
    // the flag changes presentation only, never ground truth.
    let (hostile_flags, _) = stratified(
        config.num_sites,
        config.hostile_fraction,
        seed,
        "genweb-hostile",
        "hostile_fraction",
    );

    for (i, &rank) in size_ranks.iter().enumerate() {
        let mut rng = derive_rng_n(seed, "genweb-site", i as u64);
        // Domain by weight.
        let mut pick = rng.gen_range(0.0..total_w);
        let mut domain = config.domain_weights[0].0;
        for (d, w) in &config.domain_weights {
            if pick < *w {
                domain = *d;
                break;
            }
            pick -= w;
        }
        // Language.
        let language = if rng.gen_bool(config.english_fraction) {
            "en".to_string()
        } else {
            (*languages[1..].choose(&mut rng).expect("nonempty")).to_string()
        };
        let lexicon = vocab::lexicon(&language, 120, seed);
        // Size: zipf-ish over shuffled rank.
        let raw = config.max_records as f64 / ((rank + 1) as f64).powf(SIZE_SKEW);
        let n_records = (raw as usize).clamp(config.min_records, config.max_records);

        let plant = domain == DomainKind::Faculty && language == "en" && !planted_award;
        planted_award |= plant;
        let (table, mut form) = build_site(
            domain, &pools, &mut rng, &language, &lexicon, n_records, plant,
        );
        // The planted award-bio site should stay GET (the paper's fortuitous
        // query walkthrough depends on it being surfaceable), so hand its
        // POST flag to a later site — or surrender it (one fewer POST form)
        // when only earlier sites are GET. The plant keeps its flag when
        // giving it up would empty the POST set (lone flag, or all-POST
        // web): the at-least-one-POST contract outranks the walkthrough.
        if plant && post_flags[i] {
            if let Some(j) = (i + 1..config.num_sites).find(|&j| !post_flags[j]) {
                post_flags.swap(i, j);
            } else if n_post > 1 && n_post < config.num_sites {
                post_flags[i] = false;
            }
        }
        form.post = post_flags[i];
        let page_size = *PAGE_SIZES.choose(&mut rng).expect("PAGE_SIZES non-empty");
        let style = if rng.gen_bool(0.5) {
            RenderStyle::Table
        } else {
            RenderStyle::List
        };
        let browse_links = if rng.gen_bool(config.browse_fraction) {
            (table.len() / 10).clamp(1, 10)
        } else {
            0
        };
        let site = Site {
            id: SiteId(i as u32),
            host: format!("{}-{:03}.sim", domain.name(), i),
            domain,
            language: language.clone(),
            lexicon,
            table,
            form,
            page_size,
            style,
            browse_links,
            hostile: hostile_flags[i],
        };
        let (input_truth, range_pairs) = truth_for(&site);
        truths.push(SiteTruth {
            host: site.host.clone(),
            domain,
            language,
            records: site.table.len(),
            post: site.form.post,
            inputs: input_truth,
            range_pairs,
            hostile: site.hostile,
        });
        sites.push(site);
    }

    // Surface web.
    let mut pages = surface::popular_pages(seed, config.popular_hosts);
    pages.extend(surface::table_pages(seed, config.table_hosts));
    let popular_hosts: Vec<String> = (0..config.popular_hosts)
        .map(surface::popular_host)
        .collect();
    let table_hosts: Vec<String> = (0..config.table_hosts).map(surface::table_host).collect();
    let mut all_hosts: Vec<String> = sites.iter().map(|s| s.host.clone()).collect();
    all_hosts.extend(popular_hosts.iter().cloned());
    all_hosts.extend(table_hosts.iter().cloned());
    pages.push(surface::directory_page(&all_hosts));

    World {
        server: WebServer::new(sites, pages),
        truth: GroundTruth {
            sites: truths,
            popular_hosts,
            table_hosts,
        },
    }
}

/// Grow one site's backend by `extra` records, deterministically.
///
/// Fresh rows come from the site's own domain generator (same schema) on a
/// new RNG stream derived from `seed`, the site index and the current record
/// count — so repeated growth steps never replay rows, and the same
/// `(seed, site, size)` state always grows identically. Rows are inserted
/// into the backing table in place, and ground truth is updated. Site home
/// pages advertise their record count, so a re-prober observes growth as a
/// content-hash delta on `/` without crawling the whole site.
///
/// Returns the site's new record count.
pub fn grow_site(world: &mut World, site_idx: usize, extra: usize, seed: u64) -> usize {
    let site = world.server.site(SiteId(site_idx as u32));
    let current = site.table.len();
    if extra == 0 {
        return current;
    }
    let mut rng = derive_rng_n(
        seed,
        "genweb-grow",
        ((site_idx as u64) << 32) | current as u64,
    );
    // The generator also produces a form spec; the site keeps its existing
    // one (forms don't change when content grows), only the rows are taken.
    let (fresh, _form) = build_site(
        site.domain,
        &Pools::new(seed),
        &mut rng,
        &site.language,
        &site.lexicon,
        extra,
        false,
    );
    let site = world.server.site_mut(site_idx);
    for (_, row) in fresh.iter() {
        site.table
            .insert(row.to_vec())
            .expect("grown rows match the site schema");
    }
    let grown = site.table.len();
    world.truth.sites[site_idx].records = grown;
    grown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::Fetcher;
    use deepweb_common::Url;

    fn small_world() -> World {
        generate(&WebConfig {
            num_sites: 25,
            ..WebConfig::default()
        })
    }

    #[test]
    fn post_fraction_is_stratified_and_plant_stays_get() {
        for (n, frac) in [(6usize, 0.08f64), (20, 0.15), (40, 0.15), (5, 0.1)] {
            let w = generate(&WebConfig {
                num_sites: n,
                post_fraction: frac,
                ..WebConfig::default()
            });
            let posts = w.truth.sites.iter().filter(|t| t.post).count();
            let expect = (((n as f64) * frac).round() as usize).max(1);
            // The plant may surrender one flag back to GET; never more.
            assert!(
                posts == expect || posts == expect.saturating_sub(1).max(1),
                "n={n} frac={frac}: got {posts} POST sites, expected ~{expect}"
            );
            assert!(
                posts > 0,
                "nonzero fraction must yield at least one POST form"
            );
        }
        // The planted award-bio site stays GET whenever another POST site can
        // take its flag.
        let w = generate(&WebConfig {
            num_sites: 20,
            post_fraction: 0.15,
            ..WebConfig::default()
        });
        let plant = w
            .truth
            .sites
            .iter()
            .find(|t| t.domain == DomainKind::Faculty && t.language == "en");
        if let Some(plant) = plant {
            let other_posts = w
                .truth
                .sites
                .iter()
                .filter(|t| t.post && t.host != plant.host)
                .count();
            if other_posts > 0 {
                assert!(!plant.post, "plant {} must stay GET", plant.host);
            }
        }
        // All-POST webs keep every site POST (no swap target exists).
        let w = generate(&WebConfig {
            num_sites: 6,
            post_fraction: 1.0,
            ..WebConfig::default()
        });
        assert!(w.truth.sites.iter().all(|t| t.post));
    }

    #[test]
    fn hostile_fraction_is_stratified_and_default_off() {
        // Default webs contain no hostile sites: existing experiments keep
        // their honest corpus byte-for-byte.
        let w = small_world();
        assert!(w.truth.sites.iter().all(|t| !t.hostile));
        for (n, frac) in [(6usize, 0.05f64), (20, 0.3), (40, 0.25)] {
            let w = generate(&WebConfig {
                num_sites: n,
                hostile_fraction: frac,
                ..WebConfig::default()
            });
            let hostile = w.truth.sites.iter().filter(|t| t.hostile).count();
            let expect = (((n as f64) * frac).round() as usize).max(1);
            assert_eq!(
                hostile, expect,
                "n={n} frac={frac}: got {hostile} hostile sites"
            );
            // Truth and server agree, and hostile search pages really are
            // mangled (the unclosed analytics comment is unconditional).
            for t in &w.truth.sites {
                let site = w.server.site_by_host(&t.host).expect("site exists");
                assert_eq!(site.hostile, t.hostile);
                let page = w
                    .server
                    .fetch(&Url::new(t.host.clone(), "/search"))
                    .expect("search page serves");
                assert_eq!(
                    page.html.contains("<!-- analytics beacon "),
                    t.hostile,
                    "{}: mangling must track the hostile flag",
                    t.host
                );
            }
        }
        // Everything-hostile still generates and serves.
        let w = generate(&WebConfig {
            num_sites: 5,
            hostile_fraction: 1.0,
            ..WebConfig::default()
        });
        assert!(w.truth.sites.iter().all(|t| t.hostile));
    }

    #[test]
    fn generates_requested_site_count() {
        let w = small_world();
        assert_eq!(w.server.sites().len(), 25);
        assert_eq!(w.truth.sites.len(), 25);
    }

    #[test]
    fn deterministic_generation() {
        let a = small_world();
        let b = small_world();
        for (x, y) in a.truth.sites.iter().zip(&b.truth.sites) {
            assert_eq!(x.host, y.host);
            assert_eq!(x.records, y.records);
            assert_eq!(x.inputs, y.inputs);
        }
    }

    #[test]
    fn all_home_pages_serve() {
        let w = small_world();
        for host in w.server.hosts() {
            let r = w.server.fetch(&Url::new(host.clone(), "/"));
            assert!(r.is_ok(), "home of {host} failed: {r:?}");
        }
    }

    #[test]
    fn truth_matches_server() {
        let w = small_world();
        for t in &w.truth.sites {
            let site = w.server.site_by_host(&t.host).expect("site exists");
            assert_eq!(site.table.len(), t.records);
            assert_eq!(site.form.post, t.post);
        }
    }

    #[test]
    fn directory_links_all_sites() {
        let w = small_world();
        let dir = w.server.fetch(&Url::new("dir.sim", "/")).unwrap();
        for t in &w.truth.sites {
            assert!(dir.html.contains(&t.host), "directory missing {}", t.host);
        }
    }

    #[test]
    fn range_pairs_recorded_for_some_sites() {
        let w = generate(&WebConfig {
            num_sites: 60,
            ..WebConfig::default()
        });
        let with_pair = w.truth.sites.iter().filter(|t| !t.range_pairs.is_empty());
        assert!(
            with_pair.count() > 3,
            "over 5% of the 60 forms pair a range"
        );
        for t in &w.truth.sites {
            for (min_n, max_n) in &t.range_pairs {
                assert!(t.inputs.iter().any(|(n, _)| n == min_n));
                assert!(t.inputs.iter().any(|(n, _)| n == max_n));
            }
        }
    }

    #[test]
    fn award_bio_planted_exactly_once() {
        let w = generate(&WebConfig {
            num_sites: 80,
            ..WebConfig::default()
        });
        let mut hits = 0;
        for s in w.server.sites() {
            for (_, row) in s.table.iter() {
                if row
                    .iter()
                    .any(|v| v.render().contains("sigmod innovations award"))
                {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 1, "exactly one award biography expected");
    }

    #[test]
    fn multiple_languages_present() {
        let w = generate(&WebConfig {
            num_sites: 80,
            ..WebConfig::default()
        });
        assert!(w.truth.languages().len() > 5);
        assert!(w.truth.languages().contains(&"en".to_string()));
    }

    #[test]
    fn grow_site_appends_rows_and_changes_home_page() {
        let mut w = small_world();
        let host = w.truth.sites[0].host.clone();
        let before = w.truth.sites[0].records;
        let home_before = w.server.fetch(&Url::new(host.clone(), "/")).unwrap().html;
        let grown = grow_site(&mut w, 0, 7, 42);
        assert_eq!(grown, before + 7);
        assert_eq!(w.truth.sites[0].records, grown);
        let site = w.server.site_by_host(&host).unwrap();
        assert_eq!(site.table.len(), grown);
        // Existing rows are untouched (append-only growth)...
        let fresh = generate(&WebConfig {
            num_sites: 25,
            ..WebConfig::default()
        });
        let orig = fresh.server.site_by_host(&host).unwrap();
        for i in 0..before {
            let id = deepweb_common::ids::RecordId(i as u32);
            assert_eq!(site.table.row(id), orig.table.row(id));
        }
        // ...and the home page observably changed.
        let home_after = w.server.fetch(&Url::new(host.clone(), "/")).unwrap().html;
        assert_ne!(home_before, home_after);
        // New rows serve as detail pages and still match the schema.
        let r = w
            .server
            .fetch(&Url::parse(&format!("http://{}/item?id={}", host, grown - 1)).unwrap());
        assert!(r.is_ok());
    }

    #[test]
    fn grow_site_is_deterministic_and_stream_splits() {
        let grow_twice = |a: usize, b: usize| {
            let mut w = small_world();
            grow_site(&mut w, 1, a, 7);
            grow_site(&mut w, 1, b, 7);
            let site = &w.server.sites()[1];
            (0..site.table.len())
                .map(|i| {
                    format!(
                        "{:?}",
                        site.table.row(deepweb_common::ids::RecordId(i as u32))
                    )
                })
                .collect::<Vec<_>>()
        };
        // Same growth schedule ⇒ byte-identical tables.
        assert_eq!(grow_twice(4, 3), grow_twice(4, 3));
        // The stream is keyed by current size: 4+3 and 7+0 diverge (different
        // split points draw different rows), but both are deterministic.
        assert_eq!(grow_twice(7, 0).len(), grow_twice(4, 3).len());
        // Zero growth is a no-op.
        let mut w = small_world();
        let before = w.truth.sites[2].records;
        assert_eq!(grow_site(&mut w, 2, 0, 7), before);
    }

    #[test]
    fn site_sizes_are_skewed() {
        let w = generate(&WebConfig {
            num_sites: 50,
            ..WebConfig::default()
        });
        let sizes: Vec<usize> = w.truth.sites.iter().map(|s| s.records).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max >= min * 4, "expect heavy skew, got min={min} max={max}");
    }
}
