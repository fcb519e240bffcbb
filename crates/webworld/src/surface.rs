//! Surface-web generation.
//!
//! Three kinds of surface content, each serving a paper argument:
//!
//! 1. **SEO'd popular pages** — review/fan pages about head topics (popular
//!    car models, cuisines). These are why deep-web content adds little for
//!    head queries (§3.2): the surface web already covers them.
//! 2. **Data-table pages** — pages carrying relational HTML tables, the raw
//!    input of the WebTables/ACSDb pipeline (§6). Headers use synonymous
//!    attribute variants so the synonym service has something to learn.
//! 3. **The directory** — `dir.sim`, a hub linking every host: the crawler's
//!    seed.

use crate::server::SurfacePage;
use crate::vocab;
use deepweb_common::derive_rng_n;
use deepweb_html::PageBuilder;
use rand::seq::SliceRandom;
use rand::Rng;

/// Attribute-name variants per concept: the ground truth for the synonym
/// service (E10). Each generated table picks one variant per concept.
pub fn attribute_synonym_pools() -> Vec<Vec<&'static str>> {
    vec![
        vec!["make", "manufacturer", "brand"],
        vec!["model", "car model"],
        vec!["price", "cost", "asking price"],
        vec!["year", "model year"],
        vec!["mileage", "miles", "odometer"],
        vec!["city", "town", "location"],
        vec!["zip", "zipcode", "postal code"],
        vec!["author", "writer"],
        vec!["title", "name"],
        vec!["genre", "category"],
        vec!["salary", "pay", "compensation"],
        vec!["cuisine", "food type"],
        vec!["bedrooms", "beds"],
    ]
}

/// Schema templates (as indexes into [`attribute_synonym_pools`]) that data
/// tables instantiate; co-occurrence of these concepts is what the ACSDb's
/// auto-complete learns.
const SCHEMA_TEMPLATES: &[&[usize]] = &[
    &[0, 1, 2, 3],  // make, model, price, year     (cars)
    &[0, 1, 2, 4],  // make, model, price, mileage
    &[0, 1, 3],     // make, model, year
    &[8, 7, 9],     // title, author, genre          (books)
    &[8, 7, 9, 3],  // title, author, genre, year
    &[5, 6],        // city, zip                     (geo)
    &[5, 6, 2],     // city, zip, price
    &[8, 10, 5],    // title, salary, city           (jobs)
    &[8, 11, 5],    // title, cuisine, city          (restaurants)
    &[12, 2, 5, 6], // bedrooms, price, city, zip    (real estate)
];

/// Host name of popular surface host `k`.
pub(crate) fn popular_host(k: usize) -> String {
    format!("web-{k:03}.sim")
}

/// Host name of data-table surface host `k`.
pub(crate) fn table_host(k: usize) -> String {
    format!("data-{k:03}.sim")
}

/// Generate the SEO'd popular-topic pages for head queries.
pub(crate) fn popular_pages(seed: u64, num_hosts: usize) -> Vec<SurfacePage> {
    let mut pages = Vec::new();
    let makes = vocab::car_makes();
    let cuisines = vocab::cuisines();
    let cities = vocab::us_cities();
    let lex = vocab::lexicon("en", 300, seed);
    for k in 0..num_hosts {
        let host = popular_host(k);
        let mut rng = derive_rng_n(seed, "surface-popular", k as u64);
        let n_pages = rng.gen_range(3..=8);
        let mut links = Vec::new();
        for p in 0..n_pages {
            let path = format!("/p{p}");
            // Head-topic content: reviews of popular makes/models, cuisine
            // guides — redundant with deep-web head content by design.
            let (make, models) = makes.choose(&mut rng).expect("nonempty");
            let model = models.choose(&mut rng).expect("nonempty");
            let cuisine = cuisines.choose(&mut rng).expect("nonempty");
            let city = cities.choose(&mut rng).expect("nonempty");
            let filler = vocab::sentence(&lex, 20, &mut rng);
            let mut pb = PageBuilder::new(&format!("{make} {model} review"));
            pb.h1(&format!("{make} {model} review and buying guide"));
            pb.p(&format!(
                "everything about the {make} {model}: pricing, reliability, \
                 and where to find one in {city}. also try {cuisine} restaurants. {filler}"
            ));
            pb.link("/", "home");
            pages.push(SurfacePage {
                host: host.clone(),
                path: path.clone(),
                html: pb.build(),
            });
            links.push((path, format!("{make} {model} review")));
        }
        let mut pb = PageBuilder::new(&format!("{host} reviews"));
        pb.h1("reviews and guides");
        pb.link_list(&links);
        pages.push(SurfacePage {
            host,
            path: "/".into(),
            html: pb.build(),
        });
    }
    pages
}

/// Generate data-table pages for the WebTables pipeline.
pub(crate) fn table_pages(seed: u64, num_hosts: usize) -> Vec<SurfacePage> {
    let mut pages = Vec::new();
    let pools = attribute_synonym_pools();
    let makes = vocab::car_makes();
    let cities = vocab::us_cities();
    let lex = vocab::lexicon("en", 200, seed);
    for k in 0..num_hosts {
        let host = table_host(k);
        let mut rng = derive_rng_n(seed, "surface-tables", k as u64);
        let n_pages = rng.gen_range(2..=5);
        let mut links = Vec::new();
        for p in 0..n_pages {
            let path = format!("/t{p}");
            let template = SCHEMA_TEMPLATES.choose(&mut rng).expect("nonempty");
            // One synonym variant per concept for this table.
            let header: Vec<String> = template
                .iter()
                .map(|&ci| (*pools[ci].choose(&mut rng).expect("nonempty")).to_string())
                .collect();
            let n_rows = rng.gen_range(4..=15);
            let rows: Vec<Vec<String>> = (0..n_rows)
                .map(|_| {
                    template
                        .iter()
                        .map(|&ci| cell_value(ci, &makes, &cities, &mut rng))
                        .collect()
                })
                .collect();
            let mut pb = PageBuilder::new(&format!("dataset {p} on {host}"));
            pb.h1(&format!("dataset {p}"));
            pb.p(&vocab::sentence(&lex, 10, &mut rng));
            let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
            pb.table(&header_refs, &rows);
            pages.push(SurfacePage {
                host: host.clone(),
                path: path.clone(),
                html: pb.build(),
            });
            links.push((path, format!("dataset {p}")));
        }
        let mut pb = PageBuilder::new(&format!("{host} datasets"));
        pb.h1("open datasets");
        pb.link_list(&links);
        pages.push(SurfacePage {
            host,
            path: "/".into(),
            html: pb.build(),
        });
    }
    pages
}

/// Plausible cell value for concept index `ci` in [`attribute_synonym_pools`].
fn cell_value(
    ci: usize,
    makes: &[(&'static str, Vec<&'static str>)],
    cities: &[String],
    rng: &mut rand::rngs::StdRng,
) -> String {
    match ci {
        0 => makes.choose(rng).expect("nonempty").0.to_string(),
        1 => {
            let (_, models) = makes.choose(rng).expect("nonempty");
            (*models.choose(rng).expect("nonempty")).to_string()
        }
        2 => format!("${}", rng.gen_range(5..=500) * 100),
        3 => rng.gen_range(1985..=2008).to_string(),
        4 => (rng.gen_range(10..=200) * 1000).to_string(),
        5 => cities.choose(rng).cloned().unwrap_or_default(),
        6 => format!("{:05}", rng.gen_range(10000..99999)),
        7 => (*vocab::surnames().choose(rng).expect("nonempty")).to_string(),
        8 => format!("item {}", rng.gen_range(0..10_000)),
        9 => (*vocab::book_genres().choose(rng).expect("nonempty")).to_string(),
        10 => format!("${}", rng.gen_range(25_000..=180_000)),
        11 => (*vocab::cuisines().choose(rng).expect("nonempty")).to_string(),
        12 => rng.gen_range(1..=6).to_string(),
        _ => String::new(),
    }
}

/// Build the `dir.sim` hub page linking every host's home page.
pub(crate) fn directory_page(hosts: &[String]) -> SurfacePage {
    let mut pb = PageBuilder::new("web directory");
    pb.h1("directory of sites");
    let links: Vec<(String, String)> = hosts
        .iter()
        .map(|h| (format!("http://{h}/"), h.clone()))
        .collect();
    pb.link_list(&links);
    SurfacePage {
        host: "dir.sim".into(),
        path: "/".into(),
        html: pb.build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepweb_html::{extract_tables, Document};

    #[test]
    fn popular_pages_have_home_and_content() {
        let pages = popular_pages(1, 3);
        let homes: Vec<_> = pages.iter().filter(|p| p.path == "/").collect();
        assert_eq!(homes.len(), 3);
        assert!(pages.len() > 6);
        assert!(pages.iter().any(|p| p.html.contains("review")));
    }

    #[test]
    fn table_pages_contain_extractable_tables() {
        let pages = table_pages(1, 2);
        let with_tables: Vec<_> = pages.iter().filter(|p| p.path != "/").collect();
        assert!(!with_tables.is_empty());
        for p in with_tables {
            let doc = Document::parse(&p.html);
            let tables = extract_tables(&doc);
            assert_eq!(tables.len(), 1);
            assert!(!tables[0].header.is_empty());
            assert!(tables[0].is_rectangular());
        }
    }

    #[test]
    fn synonym_variants_actually_vary() {
        let pages = table_pages(1, 6);
        let mut price_like = std::collections::BTreeSet::new();
        for p in &pages {
            for t in extract_tables(&Document::parse(&p.html)) {
                for h in &t.header {
                    if h == "price" || h == "cost" || h == "asking price" {
                        price_like.insert(h.clone());
                    }
                }
            }
        }
        assert!(
            price_like.len() >= 2,
            "want ≥2 price synonyms in corpus, got {price_like:?}"
        );
    }

    #[test]
    fn directory_links_everything() {
        let d = directory_page(&["a.sim".into(), "b.sim".into()]);
        assert!(d.html.contains("http://a.sim/"));
        assert!(d.html.contains("http://b.sim/"));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = popular_pages(9, 2);
        let b = popular_pages(9, 2);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.html == y.html));
    }
}
