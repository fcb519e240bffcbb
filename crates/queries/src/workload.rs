//! Query-workload generation: a power-law (Zipf) stream over head and tail
//! queries (paper §3.2: "the distribution of queries in search engines takes
//! the form of a power law with a heavy tail").
//!
//! Head queries name popular topics that SEO'd surface pages also cover
//! (popular car models, cuisines); tail queries quote specific deep-web
//! record content (a government bulletin's subject, one faculty biography)
//! that exists nowhere on the surface web.

use deepweb_common::ids::{QueryId, SiteId};
use deepweb_common::{derive_rng, Zipf};
use deepweb_webworld::{vocab, World};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// One distinct query.
#[derive(Clone, Debug)]
pub struct Query {
    /// Id (rank order: lower id = more popular).
    pub id: QueryId,
    /// Query text.
    pub text: String,
    /// The deep-web site whose content the query targets, when tail.
    pub target_site: Option<SiteId>,
    /// True for tail (rare, deep-web-specific) queries.
    pub is_tail: bool,
}

/// A generated workload: distinct queries ranked by popularity plus the
/// Zipf sampler over them.
pub struct Workload {
    /// Distinct queries; index = popularity rank.
    pub queries: Vec<Query>,
    zipf: Zipf,
}

impl Workload {
    /// Sample a stream of `n` query ids.
    pub fn stream(&self, n: usize, rng: &mut StdRng) -> Vec<QueryId> {
        (0..n)
            .map(|_| QueryId(self.zipf.sample(rng) as u32))
            .collect()
    }

    /// Sample one serving batch: the texts of `size` Zipf-drawn queries, in
    /// arrival order — the unit of work a front end hands a serving tier.
    pub fn sample_batch(&self, size: usize, rng: &mut StdRng) -> Vec<String> {
        self.stream(size, rng)
            .into_iter()
            .map(|id| self.query(id).text.clone())
            .collect()
    }

    /// Sample `count` consecutive serving batches of `size` queries each
    /// from one continuous Zipf stream (so head queries repeat across
    /// batches, as they would in production traffic).
    pub fn sample_batches(&self, count: usize, size: usize, rng: &mut StdRng) -> Vec<Vec<String>> {
        (0..count).map(|_| self.sample_batch(size, rng)).collect()
    }

    /// Query by id.
    pub fn query(&self, id: QueryId) -> &Query {
        &self.queries[id.as_usize()]
    }

    /// Number of distinct queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Workload configuration.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Number of distinct queries.
    pub distinct: usize,
    /// Zipf exponent of the popularity distribution.
    pub zipf_s: f64,
    /// Fraction of distinct queries that are head (popular-topic) queries.
    /// Head queries occupy the top popularity ranks.
    pub head_fraction: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            distinct: 400,
            zipf_s: 1.07,
            head_fraction: 0.2,
            seed: 17,
        }
    }
}

/// Generate a workload against a world.
pub fn generate_workload(world: &World, cfg: &WorkloadConfig) -> Workload {
    let mut rng = derive_rng(cfg.seed, "workload");
    let n_head = ((cfg.distinct as f64) * cfg.head_fraction) as usize;
    let mut queries = Vec::with_capacity(cfg.distinct);

    // Head queries: popular topics mirrored on the surface web.
    let makes = vocab::car_makes();
    let cuisines = vocab::cuisines();
    let cities = vocab::us_cities();
    for i in 0..n_head {
        let text = match i % 3 {
            0 => {
                let (make, models) = makes.choose(&mut rng).expect("nonempty");
                let model = models.choose(&mut rng).expect("nonempty");
                format!("{make} {model} review")
            }
            1 => {
                let cuisine = cuisines.choose(&mut rng).expect("nonempty");
                let city = cities.choose(&mut rng).expect("nonempty");
                format!("{cuisine} restaurants {city}")
            }
            _ => {
                let (make, models) = makes.choose(&mut rng).expect("nonempty");
                let model = models.choose(&mut rng).expect("nonempty");
                format!("used {make} {model}")
            }
        };
        queries.push(Query {
            id: QueryId(queries.len() as u32),
            text,
            target_site: None,
            is_tail: false,
        });
    }

    // Tail queries: quote actual record content from randomly chosen sites.
    let sites = world.server.sites();
    while queries.len() < cfg.distinct && !sites.is_empty() {
        let site = sites.choose(&mut rng).expect("nonempty sites");
        let table = site.table.table();
        if table.is_empty() {
            continue;
        }
        let rid = deepweb_common::RecordId(rng.gen_range(0..table.len()) as u32);
        let toks = table.row_tokens(rid);
        if toks.len() < 3 {
            continue;
        }
        // 3-4 tokens sampled from the record (sorted-dedup token cache), so
        // a conjunctive match finds this record.
        let k = rng.gen_range(3..=4.min(toks.len()));
        let mut chosen: Vec<String> = toks.choose_multiple(&mut rng, k).cloned().collect();
        chosen.sort();
        queries.push(Query {
            id: QueryId(queries.len() as u32),
            text: chosen.join(" "),
            target_site: Some(site.id),
            is_tail: true,
        });
    }
    let zipf = Zipf::new(queries.len().max(1), cfg.zipf_s);
    Workload { queries, zipf }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepweb_webworld::{generate, WebConfig};

    fn world() -> World {
        generate(&WebConfig {
            num_sites: 15,
            ..WebConfig::default()
        })
    }

    #[test]
    fn workload_shape() {
        let w = world();
        let wl = generate_workload(
            &w,
            &WorkloadConfig {
                distinct: 100,
                ..Default::default()
            },
        );
        assert_eq!(wl.len(), 100);
        let heads = wl.queries.iter().filter(|q| !q.is_tail).count();
        assert_eq!(heads, 20);
        // Head queries occupy the top ranks.
        assert!(!wl.queries[0].is_tail);
        assert!(wl.queries[99].is_tail);
        assert!(wl.queries[99].target_site.is_some());
    }

    #[test]
    fn stream_is_head_heavy() {
        let w = world();
        let wl = generate_workload(
            &w,
            &WorkloadConfig {
                distinct: 200,
                ..Default::default()
            },
        );
        let mut rng = derive_rng(3, "stream");
        let stream = wl.stream(5000, &mut rng);
        let head_hits = stream.iter().filter(|id| !wl.query(**id).is_tail).count();
        // 20% of distinct queries are head but they draw far more than 20%
        // of the stream.
        assert!(
            head_hits as f64 / 5000.0 > 0.4,
            "head share {}",
            head_hits as f64 / 5000.0
        );
    }

    #[test]
    fn sample_batches_draw_real_queries_from_one_stream() {
        let w = world();
        let wl = generate_workload(
            &w,
            &WorkloadConfig {
                distinct: 80,
                ..Default::default()
            },
        );
        let mut rng = derive_rng(9, "batches");
        let batches = wl.sample_batches(5, 16, &mut rng);
        assert_eq!(batches.len(), 5);
        assert!(batches.iter().all(|b| b.len() == 16));
        let known: std::collections::BTreeSet<&str> =
            wl.queries.iter().map(|q| q.text.as_str()).collect();
        for text in batches.iter().flatten() {
            assert!(known.contains(text.as_str()), "unknown query {text:?}");
        }
        // Same seed replays the same batches; continuing the stream differs.
        let mut rng2 = derive_rng(9, "batches");
        assert_eq!(wl.sample_batches(5, 16, &mut rng2), batches);
        assert_ne!(wl.sample_batch(16, &mut rng2), batches[0]);
    }

    #[test]
    fn deterministic_workload() {
        let w = world();
        let cfg = WorkloadConfig::default();
        let a = generate_workload(&w, &cfg);
        let b = generate_workload(&w, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.text, y.text);
        }
    }

    #[test]
    fn tail_queries_quote_real_records() {
        let w = world();
        let wl = generate_workload(
            &w,
            &WorkloadConfig {
                distinct: 60,
                ..Default::default()
            },
        );
        for q in wl.queries.iter().filter(|q| q.is_tail).take(10) {
            let site = w.server.site(q.target_site.unwrap());
            let found = site.table.table().iter().any(|(id, _)| {
                let toks = site.table.table().row_tokens(id);
                q.text.split(' ').all(|t| toks.iter().any(|x| x == t))
            });
            assert!(
                found,
                "query {:?} should match a record on its target site",
                q.text
            );
        }
    }
}
