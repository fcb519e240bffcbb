//! An oracle that shares no code with `crates/index`, and the one model test
//! every serving tier answers to (ROADMAP item 2).
//!
//! A test that compares an optimised path with `search()` runs the same
//! kernel, the same `bm25_contribution` and the same top-k selection on both
//! sides, so a bug in the shared code is invisible to it. This file
//! re-derives a ranking from the raw strings the index stores (`title`,
//! `text`, `annotations`) and the form vocabulary the crawler reported, with
//! brute force and `std` collections, sharing only
//! `common::text::{tokenize, is_stopword}` and the documented fold order,
//! and demands the same doc ids and the same score bits.
//!
//! `model_serves_the_oracle_in_every_state` drives a built system through a
//! sequence of `grow_site`, `refresh`, `apply` and `merge_fresh` operations
//! and, in every state it reaches, serves a query set through every serving
//! tier under every `(pruning, annotations)` pair, each against the oracle
//! over the docs that tier serves. The hand-built corpora after it reach
//! what a webworld build does not: a term known only as a facet value, dense
//! posting lists, more than 64 query terms, and annotation adjustments at
//! the top-k threshold.
//!
//! The fold order the oracle re-states (DESIGN.md §10, §12):
//!
//! * a document is `tokenize(title) ++ tokenize(text)`, stopwords kept;
//!   `N` docs, `df` docs containing a term,
//!   `avg = max(total tokens / N, 1.0)`;
//! * `idf = ln((N − df + 0.5) / (df + 0.5) + 1)`, one posting contributes
//!   `idf · tf · (k1 + 1) / (tf + k1 · (1 − b + b · dl / avg))` at
//!   `k1 = 1.2`, `b = 0.75` — written here as literals, not read from the
//!   index crate;
//! * a query is its distinct non-stopword tokens in first-occurrence order;
//!   a document's score is those contributions folded in that order from
//!   `0.0`, and the candidates are the documents with at least one posting;
//! * with annotations on, each annotation whose analysed value (1–64
//!   non-stopword tokens) the query names in full adds `1.5`; otherwise one
//!   whose facet knows some *other* query token as a value subtracts `8.0`;
//!   the adjustments are summed from `0.0` and added to the score once. A
//!   facet's vocabulary is every annotation value token under that key plus
//!   the form's own options (`SiteReport::facet_values`);
//! * hits are ordered score descending, doc id ascending, cut at `k`.

use deepweb::common::text::{is_stopword, tokenize};
use deepweb::common::{derive_rng, ThreadPool, Url, Zipf};
use deepweb::index::{
    search, search_with_scratch, Annotation, BatchDoc, CacheConfig, ClusterConfig, DocKind,
    Generation, Hit, PruningMode, QueryBroker, QueryScratch, SearchIndex, SearchOptions,
    SearchService, SegmentedIndex,
};
use deepweb::queries::{generate_workload, WorkloadConfig};
use deepweb::webworld::{grow_site, FaultConfig, WebConfig};
use deepweb::{quick_config, DeepWebSystem};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One document as the oracle reads it: term → tf, token count, and each
/// annotation as `(facet key, analysed value tokens)`.
struct OracleDoc {
    tf: BTreeMap<String, u32>,
    len: usize,
    annotations: Vec<(String, Vec<String>)>,
}

/// Every candidate of a query as `(doc id, score)`, best first.
type Ranking = Rc<[(u32, f64)]>;

struct Oracle {
    docs: Vec<OracleDoc>,
    /// Term → the ids of the docs containing it, ascending; its length is
    /// the term's `df`.
    containing: BTreeMap<String, Vec<u32>>,
    avg_len: f64,
    /// Facet key → every token known as a value of that facet.
    vocabulary: BTreeMap<String, BTreeSet<String>>,
    /// Per annotation mode, query → its whole ranking, once ranked.
    ranked: [RefCell<BTreeMap<String, Ranking>>; 2],
}

/// Query-side analysis, also applied to annotation and facet values.
fn analysed(value: &str) -> Vec<String> {
    tokenize(value).filter(|t| !is_stopword(t)).collect()
}

impl Oracle {
    /// The oracle over the documents `sys.index` stores.
    fn read(sys: &DeepWebSystem) -> Oracle {
        Oracle::over(sys, sys.index.docs().iter())
    }

    /// The oracle over `raw` documents — stored or pending, the index keeps
    /// both as `BatchDoc`s — in doc-id order, plus the form vocabulary `sys`'
    /// build reported.
    fn over<'a>(sys: &DeepWebSystem, raw: impl Iterator<Item = &'a BatchDoc>) -> Oracle {
        let mut oracle = Oracle::of_docs(raw);
        for report in &sys.outcome.reports {
            for (key, values) in &report.facet_values {
                let known = oracle.vocabulary.entry(key.clone()).or_default();
                known.extend(values.iter().flat_map(|v| analysed(v)));
            }
        }
        oracle
    }

    /// The oracle over `raw` documents alone, in doc-id order: the only
    /// facet vocabulary is their own annotation values.
    fn of_docs<'a>(raw: impl Iterator<Item = &'a BatchDoc>) -> Oracle {
        let mut docs = Vec::new();
        let mut containing: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        let mut vocabulary: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut total_len = 0usize;
        for doc in raw {
            let mut tf: BTreeMap<String, u32> = BTreeMap::new();
            let mut len = 0;
            for token in tokenize(&doc.title).chain(tokenize(&doc.text)) {
                *tf.entry(token).or_default() += 1;
                len += 1;
            }
            for term in tf.keys() {
                let id = docs.len() as u32;
                containing.entry(term.clone()).or_default().push(id);
            }
            total_len += len;
            let annotations: Vec<(String, Vec<String>)> = doc
                .annotations
                .iter()
                .map(|a| (a.key.clone(), analysed(&a.value)))
                .collect();
            for (key, tokens) in &annotations {
                let known = vocabulary.entry(key.clone()).or_default();
                known.extend(tokens.iter().cloned());
            }
            docs.push(OracleDoc {
                tf,
                len,
                annotations,
            });
        }
        let avg_len = match docs.len() {
            0 => 1.0,
            n => (total_len as f64 / n as f64).max(1.0),
        };
        Oracle {
            docs,
            containing,
            avg_len,
            vocabulary,
            ranked: Default::default(),
        }
    }

    /// `(doc id, score)` of the top `k`, best first.
    fn search(&self, query: &str, k: usize, annotations: bool) -> Vec<(u32, f64)> {
        let ranking = self.ranking(query, annotations);
        ranking[..k.min(ranking.len())].to_vec()
    }

    /// Every candidate of `query`, best first — ranked once per annotation
    /// mode, however many tiers are checked against it.
    fn ranking(&self, query: &str, annotations: bool) -> Ranking {
        let ranked = &self.ranked[usize::from(annotations)];
        if let Some(ranking) = ranked.borrow().get(query) {
            return Rc::clone(ranking);
        }
        let ranking: Ranking = self.rank(query, annotations).into();
        ranked
            .borrow_mut()
            .insert(query.to_string(), Rc::clone(&ranking));
        ranking
    }

    /// The documents holding some term of `query`, each scored by folding
    /// its terms in query order.
    fn rank(&self, query: &str, annotations: bool) -> Vec<(u32, f64)> {
        let terms = self.terms(query);
        let n = self.docs.len() as f64;
        let (k1, b) = (1.2, 0.75);
        let candidates: BTreeSet<u32> = (terms.iter())
            .flat_map(|t| self.containing.get(t).into_iter().flatten().copied())
            .collect();
        let mut hits: Vec<(u32, f64)> = Vec::new();
        for id in candidates {
            let doc = &self.docs[id as usize];
            let dl = doc.len as f64;
            let mut score = 0.0;
            for term in &terms {
                let Some(&tf) = doc.tf.get(term) else {
                    continue;
                };
                let tf = f64::from(tf);
                let df = self.df(term) as f64;
                let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
                score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / self.avg_len));
            }
            if annotations {
                let mut adjustment = 0.0;
                for (key, value) in &doc.annotations {
                    if value.is_empty() || value.len() > 64 {
                        continue;
                    }
                    let named = value.iter().all(|v| terms.contains(v));
                    let conflict = terms.iter().any(|t| {
                        !value.contains(t)
                            && self.vocabulary.get(key).is_some_and(|v| v.contains(t))
                    });
                    if named {
                        adjustment += 1.5;
                    } else if conflict {
                        adjustment -= 8.0;
                    }
                }
                score += adjustment;
            }
            hits.push((id, score));
        }
        hits.sort_by(|a, b| {
            let by_score = b.1.partial_cmp(&a.1).expect("scores are finite");
            by_score.then(a.0.cmp(&b.0))
        });
        hits
    }

    /// A query's distinct non-stopword tokens in first-occurrence order.
    fn terms(&self, query: &str) -> Vec<String> {
        let mut terms: Vec<String> = Vec::new();
        for t in analysed(query) {
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        terms
    }

    /// The number of documents containing `term`.
    fn df(&self, term: &str) -> usize {
        self.containing.get(term).map_or(0, Vec::len)
    }

    /// The postings `query` reads: the sum of its terms' `df`.
    fn postings_read(&self, query: &str) -> usize {
        self.terms(query).iter().map(|t| self.df(t)).sum()
    }

    /// How many of `queries` retrieve something, and how many the
    /// annotation pass re-ranks or re-scores.
    fn counts(&self, queries: &[String]) -> (usize, usize) {
        let (mut nonempty, mut adjusted) = (0, 0);
        for q in queries {
            let (plain, annotated) = (self.ranking(q, false), self.ranking(q, true));
            nonempty += usize::from(!plain.is_empty());
            adjusted += usize::from(bits(&plain) != bits(&annotated));
        }
        (nonempty, adjusted)
    }
}

fn bits(hits: &[(u32, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// The contract every check goes through: `served` answers `queries` in
/// order under `opts` at `k`, and each answer is the oracle's top `k` — its
/// doc ids and score bits.
fn assert_serves_the_oracle(
    oracle: &Oracle,
    queries: &[String],
    (opts, k): (SearchOptions, usize),
    served: &[Vec<Hit>],
    tier: &str,
) {
    assert_eq!(served.len(), queries.len(), "{tier}: one answer per query");
    for (q, hits) in queries.iter().zip(served) {
        let got: Vec<(u32, u64)> = hits.iter().map(|h| (h.doc.0, h.score.to_bits())).collect();
        let want = bits(&oracle.search(q, k, opts.use_annotations));
        assert_eq!(got, want, "{tier}: query {q:?} k={k} {opts:?}");
    }
}

/// Every `(pruning, annotations)` pair a tier can serve with.
fn every_option() -> Vec<SearchOptions> {
    let modes = [PruningMode::Exhaustive, PruningMode::BlockMax];
    let pairs = modes.map(|pruning| {
        [false, true].map(|use_annotations| SearchOptions {
            use_annotations,
            pruning,
        })
    });
    pairs.concat()
}

/// The `k`s `search` and a reused scratch serve at: a prefix of one hit,
/// of ten, and of the whole ranking.
const EVERY_K: [usize; 3] = [1, 10, 1000];

/// [`assert_serves_the_oracle`] at every `(pruning, annotations, k)` cell,
/// `serve` answering one query at a time. Returns [`Oracle::counts`].
fn assert_every_cell(
    oracle: &Oracle,
    queries: &[String],
    mut serve: impl FnMut(&str, usize, SearchOptions) -> Vec<Hit>,
) -> (usize, usize) {
    for opts in every_option() {
        for k in EVERY_K {
            let served: Vec<Vec<Hit>> = queries.iter().map(|q| serve(q, k, opts)).collect();
            assert_serves_the_oracle(oracle, queries, (opts, k), &served, "search");
        }
    }
    oracle.counts(queries)
}

/// A query that reads more postings than this over the view takes the
/// windowed block-max kernel instead of the fold: 32 windows of 256 docs.
const MAX_FOLDED_POSTINGS: usize = 8_192;

/// Docs of the model's fixed tail: 30 Zipf(1.1) tokens over 300 terms each,
/// enough that [`DENSE_QUERIES`]' first reads past [`MAX_FOLDED_POSTINGS`].
const DENSE_DOCS: usize = 2_000;

/// Queries over the dense docs' terms. Until the tail applies them they name
/// only unknown terms.
const DENSE_QUERIES: [&str; 2] = ["tok0 tok1 tok2 tok3 tok4 tok5 tok6", "tok9 tok2"];

/// The two `k`s every tier instance serves at, in this order: an instance
/// whose cache ignored `k` would answer the second from the first.
const TIER_KS: [usize; 2] = [10, 3];

/// One step of the model.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// `grow_site` by `rows` rows on the `site`-th site that surfaced at
    /// build (modulo how many did).
    Grow { site: usize, rows: usize },
    /// One `refresh` round probing the next `batch` sites.
    Refresh { batch: usize },
    /// `merge_fresh`.
    Merge,
    /// `fresh_index().apply` of `fresh` annotated copies of stored pages
    /// under new URLs ([`copies_of`]), and of `known` stored pages as they
    /// are, whose URLs dedup must drop. The pages are spread evenly from doc
    /// `from`.
    Apply {
        from: usize,
        fresh: usize,
        known: usize,
    },
    /// The fixed tail's apply: [`DENSE_DOCS`] docs of Zipf tokens.
    Dense,
}

/// One model run: the system to build and the ops to drive it through.
#[derive(Debug)]
struct Case {
    seed: u64,
    sites: usize,
    workers: usize,
    faults: bool,
    /// Drawn ops; the fixed tail `[Dense, Merge]` follows them.
    ops: Vec<Op>,
    /// A fixed case also shows that its checks are not vacuous.
    fixed: bool,
}

/// The model's drawn cases; the two fixed ones are tests of their own.
struct ModelCases {
    drawn: AtomicUsize,
}

static MODEL_CASES: ModelCases = ModelCases {
    drawn: AtomicUsize::new(0),
};

impl Strategy for ModelCases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let n = self.drawn.fetch_add(1, Ordering::Relaxed);
        let sites = rng.usize_inclusive(3, 6);
        let ops = (0..rng.usize_inclusive(3, 6))
            .map(|_| match rng.below(4) {
                0 => Op::Grow {
                    site: rng.usize_inclusive(0, 7),
                    rows: rng.usize_inclusive(10, 40),
                },
                1 => Op::Refresh {
                    batch: rng.usize_inclusive(1, sites + 2),
                },
                2 => Op::Merge,
                _ => Op::Apply {
                    from: rng.usize_inclusive(0, 999),
                    fresh: rng.usize_inclusive(1, 12),
                    known: rng.usize_inclusive(1, 4),
                },
            })
            .collect();
        Case {
            seed: rng.usize_inclusive(1, 9_999) as u64,
            sites,
            workers: [1, 2, 4][rng.below(3) as usize],
            // Alternate, so that two drawn cases cover both.
            faults: n.is_multiple_of(2),
            ops,
            fixed: false,
        }
    }
}

/// A fixed model case: the default world seed, one worker, no faults.
fn fixed_case(sites: usize, ops: Vec<Op>) -> Case {
    Case {
        seed: WebConfig::default().seed,
        sites,
        workers: 1,
        faults: false,
        ops,
        fixed: true,
    }
}

/// The model's first fixed case: a ten-site build, served as built, then
/// through the fixed tail.
#[test]
fn search_equals_the_brute_force_oracle_bit_for_bit() {
    run_model(&fixed_case(10, vec![]));
}

/// The model's second fixed case: grow a site that surfaced, re-surface it
/// into a pending segment and merge it.
#[test]
fn pending_segments_and_the_merged_base_serve_the_oracle() {
    let grow = Op::Grow { site: 0, rows: 30 };
    let refresh = Op::Refresh { batch: usize::MAX };
    run_model(&fixed_case(6, vec![grow, refresh, Op::Merge]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Every tier, in every state a build, growth, refresh, apply and merge
    /// sequence reaches, serves the oracle's bits over the docs it serves.
    #[test]
    fn model_serves_the_oracle_in_every_state(case in &MODEL_CASES) {
        run_model(&case);
    }
}

fn run_model(case: &Case) {
    let mut cfg = quick_config(case.sites);
    cfg.web.seed = case.seed;
    cfg.surfacer.num_workers = case.workers;
    cfg.faults = case.faults.then(|| FaultConfig::transient(case.seed, 0.25));
    let mut sys = DeepWebSystem::build(&cfg);
    let queries = workload_and_edge_queries(&sys);
    let sites = sys.world.server.sites();
    let surfaced: Vec<usize> = (sys.outcome.reports.iter())
        .filter(|r| r.pages_surfaced > 0)
        .filter_map(|r| sites.iter().position(|s| s.host == r.host))
        .collect();
    // What the index must hold: docs in `sys.index`, docs pending, segments.
    let (mut sealed, mut pending, mut segments) = (sys.index.len(), 0, 0);
    let (mut last, mut dense) = (None, false);
    let ops = case.ops.iter().chain(&[Op::Dense, Op::Merge]).copied();
    for op in std::iter::once(None).chain(ops.map(Some)) {
        match op {
            None => {}
            Some(Op::Grow { site, rows }) => {
                let at = match surfaced.len() {
                    0 => site % sys.world.server.sites().len(),
                    n => surfaced[site % n],
                };
                grow_site(&mut sys.world, at, rows, case.seed);
            }
            Some(Op::Refresh { batch }) => {
                let new = sys.refresh(batch).new_docs;
                assert!(new > 0 || !case.fixed, "the refresh found no growth");
                (pending, segments) = (pending + new, segments + usize::from(new > 0));
            }
            Some(Op::Merge) => {
                assert_eq!(sys.merge_fresh(), pending);
                (sealed, pending, segments) = (sealed + pending, 0, 0);
            }
            Some(Op::Apply { from, fresh, known }) => {
                let batch = copies_of(&sys, from, fresh, known);
                assert_eq!(sys.fresh_index().apply(batch), fresh, "dedup");
                (pending, segments) = (pending + fresh, segments + 1);
            }
            Some(Op::Dense) => {
                assert_eq!(sys.fresh_index().apply(dense_docs(case.seed)), DENSE_DOCS);
                (pending, segments, dense) = (pending + DENSE_DOCS, segments + 1, true);
            }
        }
        let fresh = sys.fresh_index();
        let base = sys.index.len();
        let held = (base, fresh.num_docs() - base, fresh.num_segments());
        assert_eq!(held, (sealed, pending, segments), "after {op:?}");
        // An op that left the index as it was — a growth not yet refreshed,
        // a refresh that found nothing new, a merge of nothing — reached the
        // state checked last.
        if last.replace(held) == Some(held) {
            continue;
        }
        let (served, oracle) = check_state(&mut sys, &queries);
        let pending_first = served.iter().any(|q| {
            let top = oracle.ranking(q, false);
            top.first().is_some_and(|&(doc, _)| doc as usize >= sealed)
        });
        if case.fixed {
            // Not vacuous: most queries retrieve something, the annotation
            // pass moves more than ten, and some query ranks a pending doc
            // first.
            let (nonempty, adjusted) = oracle.counts(&served);
            assert!(nonempty > served.len() / 2, "non-empty results {nonempty}");
            assert!(
                adjusted > 10,
                "queries the annotation pass moved: {adjusted}"
            );
            assert!(pending == 0 || pending_first, "no pending doc ranks first");
        }
        // From the dense apply on, some query reads past the cutoff, so the
        // windowed kernel serves it: with the dense docs pending, and over
        // the base the merge extends.
        let most_read = served.iter().map(|q| oracle.postings_read(q)).max();
        assert!(
            !dense || most_read > Some(MAX_FOLDED_POSTINGS),
            "{most_read:?}"
        );
        assert!(
            op != Some(Op::Dense) || pending_first,
            "no dense doc ranks first"
        );
    }
}

/// `fresh` copies of stored pages under new URLs, each carrying the
/// annotations of a stored page that has some and one under a new facet
/// key, then `known` stored pages as they are.
fn copies_of(sys: &DeepWebSystem, from: usize, fresh: usize, known: usize) -> Vec<BatchDoc> {
    let stored: Vec<&BatchDoc> = sys.index.docs().iter().collect();
    let annotated: Vec<&BatchDoc> = (stored.iter().copied())
        .filter(|d| !d.annotations.is_empty())
        .collect();
    let step = (stored.len() / (fresh + known)).max(1);
    let page = |i: usize| stored[(from + i * step) % stored.len()].clone();
    // Numbered past every doc the view holds, so no two copies share a URL.
    let next = sys.fresh_index().num_docs();
    let mut batch: Vec<BatchDoc> = (0..fresh)
        .map(|i| {
            let mut copy = page(i);
            copy.url = Url::new(copy.url.host.clone(), format!("/model-copy/{}", next + i));
            if let Some(donor) = annotated.get((from + i) % annotated.len().max(1)) {
                copy.annotations = donor.annotations.clone();
            }
            // A facet key no build produced, which the segment must intern.
            copy.annotations.push(Annotation {
                key: format!("copied{}", i % 2),
                value: copy.text.split_whitespace().nth(i).unwrap_or("").into(),
            });
            copy
        })
        .collect();
    batch.extend((fresh..fresh + known).map(page));
    batch
}

/// [`DENSE_DOCS`] docs of 30 Zipf(1.1) tokens over 300 terms.
fn dense_docs(seed: u64) -> Vec<BatchDoc> {
    let zipf = Zipf::new(300, 1.1);
    let mut rng = derive_rng(seed, "model-dense");
    (0..DENSE_DOCS)
        .map(|i| {
            let words: Vec<String> = (0..30)
                .map(|_| format!("tok{}", zipf.sample(&mut rng)))
                .collect();
            BatchDoc {
                url: Url::new("dense.sim", format!("/d{i}")),
                title: String::new(),
                text: words.join(" "),
                kind: DocKind::Surface,
                site: None,
                annotations: vec![],
            }
        })
        .collect()
}

/// Serve `queries` and the titles of some pending docs through every tier
/// in `sys`' current state, under every option pair. Returns the queries
/// served and the oracle over every doc the view holds, pending ones too.
fn check_state(sys: &mut DeepWebSystem, queries: &[String]) -> (Vec<String>, Oracle) {
    let gen = sys.fresh_index().snapshot();
    let pending: Vec<&BatchDoc> = gen.segments().iter().flat_map(|s| s.docs()).collect();
    let titled: Vec<&BatchDoc> = (pending.iter().copied())
        .filter(|d| !d.title.is_empty())
        .collect();
    let mut queries = queries.to_vec();
    let step = titled.len().div_ceil(8).max(1);
    queries.extend(titled.iter().step_by(step).map(|d| d.title.clone()));
    let sealed = Oracle::read(sys);
    let docs = gen.base().docs().iter().chain(pending.iter().copied());
    let fresh = (!pending.is_empty()).then(|| Oracle::over(sys, docs));
    let options = sys.options;
    for opts in every_option() {
        sys.options = opts;
        let oracles = (&sealed, fresh.as_ref().unwrap_or(&sealed));
        serve_every_tier(sys, &gen, oracles, &queries);
    }
    sys.options = options;
    let fresh = fresh.unwrap_or(sealed);
    assert_eq!(fresh.docs.len(), gen.num_docs());
    (queries, fresh)
}

/// Every tier of `sys` under `sys.options`: the ones over `sys.index`
/// against the `sealed` oracle, the freshness tier's against `fresh`.
fn serve_every_tier(
    sys: &DeepWebSystem,
    gen: &Generation,
    (sealed, fresh): (&Oracle, &Oracle),
    queries: &[String],
) {
    let opts = sys.options;
    let index = &sys.index;
    let mut scratch = QueryScratch::new();
    for k in EVERY_K {
        let cell = (opts, k);
        let served: Vec<Vec<Hit>> = queries.iter().map(|q| search(index, q, k, opts)).collect();
        assert_serves_the_oracle(sealed, queries, cell, &served, "search");
        let served: Vec<Vec<Hit>> = queries
            .iter()
            .map(|q| search_with_scratch(index, q, k, opts, &mut scratch))
            .collect();
        assert_serves_the_oracle(sealed, queries, cell, &served, "reused scratch");
    }
    for k in TIER_KS {
        let served: Vec<Vec<Hit>> = queries.iter().map(|q| sys.search(q, k)).collect();
        assert_serves_the_oracle(sealed, queries, (opts, k), &served, "sys.search");
        for workers in [1, 2, 4, 8] {
            let served = sys.search_batch(queries, k, workers);
            let tier = format!("search_batch w={workers}");
            assert_serves_the_oracle(sealed, queries, (opts, k), &served, &tier);
        }
        let served: Vec<Vec<Hit>> = queries.iter().map(|q| gen.search(q, k, opts)).collect();
        assert_serves_the_oracle(fresh, queries, (opts, k), &served, "Generation::search");
    }
    assert_tier_serves(sealed, queries, opts, &sys.service(), "IndexSearcher");
    for workers in [1, 2, 4] {
        let broker = QueryBroker::new(index, ThreadPool::new(workers), opts);
        let tier = format!("broker w={workers}");
        assert_tier_serves(sealed, queries, opts, &broker, &tier);
        for capacity in [None, Some(4), Some(64)] {
            let cluster = sys.cluster(ClusterConfig {
                workers,
                cache: capacity.map(CacheConfig::with_capacity),
                ..Default::default()
            });
            let tier = format!("cluster w={workers} cache={capacity:?}");
            assert_tier_serves(sealed, queries, opts, &cluster, &tier);
            let served = 2 * TIER_KS.len() * queries.len();
            assert_eq!(cluster.stats().queries, served as u64, "{tier}");
            if capacity == Some(4) {
                let cache = cluster.cache_stats().expect("cache is configured");
                assert!(cache.hits > 0 && cache.evictions > 0, "{tier}: {cache:?}");
            }
        }
    }
    let segmented = sys.fresh_index().searcher(opts);
    assert_tier_serves(fresh, queries, opts, &segmented, "SegmentedSearcher");
}

/// `tier` answers `queries` one at a time and then as one batch, at each
/// of [`TIER_KS`] in turn, under the options it was built with.
fn assert_tier_serves(
    oracle: &Oracle,
    queries: &[String],
    opts: SearchOptions,
    tier: &dyn SearchService,
    name: &str,
) {
    for k in TIER_KS {
        let single: Vec<Vec<Hit>> = queries.iter().map(|q| tier.search(q, k)).collect();
        let batched = tier.search_batch(queries, k);
        for (served, how) in [(single, "single"), (batched, "batched")] {
            let tier = format!("{name} {how}");
            assert_serves_the_oracle(oracle, queries, (opts, k), &served, &tier);
        }
    }
}

/// Workload head and tail queries — the distinct ones, then a Zipf stream
/// over them whose repeats a cache can hit — plus the edge cases every
/// serving suite carries (empty, stopwords only, unknown terms, a repeated
/// term, case folding, the paper's flagship query) and [`DENSE_QUERIES`].
fn workload_and_edge_queries(sys: &DeepWebSystem) -> Vec<String> {
    let workload = generate_workload(
        &sys.world,
        &WorkloadConfig {
            distinct: 50,
            ..Default::default()
        },
    );
    let tail = workload.queries.iter().filter(|q| q.is_tail).count();
    assert!(
        tail >= 10 && workload.queries.len() - tail >= 10,
        "both classes"
    );
    let mut queries: Vec<String> = workload.queries.iter().map(|q| q.text.clone()).collect();
    queries.extend(workload.sample_batch(25, &mut derive_rng(101, "oracle-model")));
    queries.extend(
        [
            "",
            "the of and",
            "zzzzzz qqqqqq",
            "honda honda civic honda",
            "HONDA honda HoNdA",
            "used ford focus 1993",
        ]
        .map(String::from),
    );
    queries.extend(DENSE_QUERIES.map(String::from));
    queries
}

/// A form option that no indexed page mentions resolves in the index's
/// dictionary, owns no posting, and still raises a facet conflict. Honest
/// default worlds have none (a form's options are drawn from its data, and
/// the popular-topic hosts review every model), so this world is used-car
/// sites only, small, with no review hosts: the make → model table the "JS
/// emulator" recovers then lists models no listing mentions.
#[test]
fn a_term_known_only_as_a_facet_value_scores_like_the_oracle() {
    let mut cfg = quick_config(8);
    cfg.web.domain_weights = vec![(deepweb::webworld::DomainKind::UsedCars, 1.0)];
    cfg.web.popular_hosts = 0;
    cfg.web.table_hosts = 0;
    cfg.web.min_records = 10;
    cfg.web.max_records = 30;
    let sys = DeepWebSystem::build(&cfg);
    let oracle = Oracle::read(&sys);
    let facet_only = oracle.vocabulary["model"]
        .iter()
        .find(|t| oracle.df(t) == 0)
        .expect("a model the form offers and no page mentions");
    assert!(sys.index.facet_value_known("model", facet_only));
    let queries = [
        facet_only.clone(),
        format!("honda {facet_only}"),
        format!("used {facet_only} honda civic"),
    ];
    let (nonempty, adjusted) =
        assert_every_cell(&oracle, &queries, |q, k, o| search(&sys.index, q, k, o));
    // Alone it retrieves nothing; beside real terms it costs annotated pages
    // of another model their rank.
    assert!(oracle.search(facet_only, 10, true).is_empty());
    assert_eq!((nonempty, adjusted), (2, 2));
}

/// Webworld pages give almost every term a short posting list, so the
/// corpora above barely leave the kernel's sparse path, and a query that
/// reads at most 8 192 postings — the sum of its terms' document
/// frequencies, 32 windows of 256 docs — is folded, not windowed. Here docs
/// of 30 Zipf(1.1) tokens over 300 terms put the head terms in nearly every
/// doc and every doc at one length, so exact score ties are everywhere. At
/// 4 000 docs only the queries naming several head terms read past the
/// cutoff. At 12 000 every query names one of the three head terms and
/// reads past it, so every query walks the block-max kernel's windows,
/// drops the dense terms as non-essential and seeks them per candidate —
/// against brute force, bit for bit. The 12 000 docs are served once more
/// through the freshness tier, the first 10 000 sealed and the rest applied
/// as two deltas: with segments pending every base block is bounded from
/// `(max_tf, min_dl)` under the generation's statistics, and every query
/// still windows the base. Then again over the base the merge extends.
#[test]
fn dense_posting_lists_serve_the_oracle() {
    let zipf = Zipf::new(300, 1.1);
    for (docs, every_query_windowed) in [(4_000, false), (12_000, true)] {
        let mut rng = derive_rng(17, "oracle-dense");
        let mut draw = |tokens: usize| -> String {
            let words: Vec<String> = (0..tokens)
                .map(|_| format!("tok{}", zipf.sample(&mut rng)))
                .collect();
            words.join(" ")
        };
        let corpus: Vec<BatchDoc> = (0..docs)
            .map(|i| BatchDoc {
                url: Url::new("dense.sim", format!("/d{i}")),
                title: String::new(),
                text: draw(30),
                kind: DocKind::Surface,
                site: None,
                annotations: vec![],
            })
            .collect();
        let queries: Vec<String> = (0..60)
            .map(|i| match every_query_windowed {
                false => draw(2 + i % 3),
                true => format!("tok{} {}", i % 3, draw(1 + i % 3)),
            })
            .collect();
        let oracle = Oracle::of_docs(corpus.iter());
        assert!(oracle.df("tok0") * 10 > docs * 9 && oracle.df("tok9") * 10 > docs);
        if every_query_windowed {
            for q in &queries {
                let read = oracle.postings_read(q);
                assert!(read > MAX_FOLDED_POSTINGS, "{q:?} reads {read} postings");
            }
        }
        let build = |docs: &[BatchDoc]| {
            let mut index = SearchIndex::new();
            index.add_batch(&ThreadPool::new(2), docs.to_vec());
            index
        };
        let index = build(&corpus);
        let serve = |q: &str, k: usize, opts: SearchOptions| search(&index, q, k, opts);
        let (nonempty, adjusted) = assert_every_cell(&oracle, &queries, serve);
        assert_eq!((nonempty, adjusted), (queries.len(), 0), "{docs} docs");
        if every_query_windowed {
            let fresh = SegmentedIndex::new(build(&corpus[..10_000]));
            for delta in corpus[10_000..].chunks(1_000) {
                assert_eq!(fresh.apply(delta.to_vec()), delta.len());
            }
            let gen = fresh.snapshot();
            assert_eq!(gen.segments().len(), 2);
            let pending = assert_every_cell(&oracle, &queries, |q, k, o| gen.search(q, k, o));
            assert_eq!(pending, (nonempty, adjusted), "pending");
            assert_eq!(fresh.merge(), 2_000);
            let gen = fresh.snapshot();
            assert!(gen.segments().is_empty());
            let merged = assert_every_cell(&oracle, &queries, |q, k, o| gen.search(q, k, o));
            assert_eq!(merged, (nonempty, adjusted), "merged");
        }
    }
}

/// Facet conflicts past the 64th query term. The scoring pass keeps one mask
/// word per 64 signature positions, so a facet value at position 70 must
/// boost and conflict exactly as one at position 3. Every query here names
/// at least 70 distinct known terms, with its facet values after the 64th;
/// one city value repeats a token (`walla walla`), which a single query
/// token names in full. Both pruning modes must return the oracle's bits,
/// and every query must demote some page on a conflict.
#[test]
fn queries_past_64_terms_keep_every_facet_conflict() {
    const DOCS: usize = 300;
    let makes = ["honda", "ford", "toyota"];
    let cities = ["walla walla", "new york", "Walla-Walla", ""];
    let docs: Vec<BatchDoc> = (0..DOCS)
        .map(|i| {
            let mut words: Vec<String> =
                (0..25).map(|j| format!("f{}", (i * 7 + j) % 100)).collect();
            words.push(makes[i % 3].to_string());
            let mut annotations = vec![Annotation {
                key: "make".into(),
                value: makes[i % 3].into(),
            }];
            if !cities[i % 4].is_empty() {
                annotations.push(Annotation {
                    key: "city".into(),
                    value: cities[i % 4].into(),
                });
            }
            BatchDoc {
                url: Url::new("long.sim", format!("/d{i}")),
                title: String::new(),
                text: words.join(" "),
                kind: DocKind::Surfaced,
                site: None,
                annotations,
            }
        })
        .collect();
    let oracle = Oracle::of_docs(docs.iter());
    let fillers =
        |range: std::ops::Range<usize>| -> Vec<String> { range.map(|j| format!("f{j}")).collect() };
    let tail = |values: &[&str]| -> String {
        let mut words = fillers(0..70);
        words.extend(values.iter().map(|v| v.to_string()));
        words.join(" ")
    };
    let mut queries: Vec<String> = [
        &["honda"][..],
        &["walla"],
        &["new"],
        &["new", "york", "ford"],
        &["toyota", "walla"],
    ]
    .iter()
    .map(|values| tail(values))
    .collect();
    // One value before position 64 and one well past it.
    let mut split = vec!["ford".to_string()];
    split.extend(fillers(0..80));
    split.push("york".to_string());
    queries.push(split.join(" "));
    let mut index = SearchIndex::new();
    index.add_batch(&ThreadPool::new(2), docs);
    for q in &queries {
        let distinct: BTreeSet<String> = analysed(q).into_iter().collect();
        let known = |t: &String| index.postings().term_id(t).is_some();
        assert!(distinct.len() >= 70 && distinct.iter().all(known), "{q:?}");
    }
    let serve = |q: &str, k: usize, opts: SearchOptions| search(&index, q, k, opts);
    let (nonempty, adjusted) = assert_every_cell(&oracle, &queries, serve);
    assert_eq!((nonempty, adjusted), (queries.len(), queries.len()));
    for q in &queries {
        let plain: BTreeMap<u32, f64> = oracle.search(q, usize::MAX, false).into_iter().collect();
        let demoted = oracle
            .search(q, usize::MAX, true)
            .iter()
            .any(|&(doc, score)| score < plain[&doc]);
        assert!(demoted, "no facet conflict for {q:?}");
    }
}

/// The annotation adjustment at the top-k threshold. 600 docs of one text
/// shape (`honda ford civic red listing d{i}`: every query term once, six
/// tokens each) tie on BM25, so only the annotation adjustment orders them:
/// no annotation, one or two keys, two annotations of one key, an empty
/// value, a value of 65 tokens. The last doc carries four annotations — the
/// most any doc holds — and two tokens more text, so its BM25 sum sits just
/// below everyone else's and only its adjustment lifts it to the top. The
/// queries name one value, two values of one key (a conflict), a value
/// beside an unknown term, a value only the facet vocabulary knows, and the
/// last doc's four values. Served sealed, and through a generation whose
/// pending segment holds the last docs: there the annotation bound a doc
/// is measured against must come from the segment, not the base, or the
/// last doc is passed over. Against brute force, bit for bit.
#[test]
fn annotation_adjustments_at_the_threshold_serve_the_oracle() {
    const DOCS: usize = 600;
    let ann = |key: &str, value: &str| Annotation {
        key: key.into(),
        value: value.into(),
    };
    let long: Vec<String> = (0..65).map(|t| format!("shade{t}")).collect();
    let long = long.join(" ");
    let corpus: Vec<BatchDoc> = (0..DOCS)
        .map(|i| {
            let (text, annotations) = if i == DOCS - 1 {
                let anns = vec![
                    ann("make", "honda"),
                    ann("model", "civic"),
                    ann("colour", "red"),
                    ann("year", "1993"),
                ];
                (format!("honda ford civic red listing d{i} two more"), anns)
            } else {
                let anns = match i % 8 {
                    0 => vec![],
                    1 => vec![ann("make", "honda")],
                    2 => vec![ann("make", "ford"), ann("model", "civic")],
                    3 => vec![ann("make", "honda"), ann("model", "civic")],
                    4 => vec![ann("make", "honda"), ann("make", "ford")],
                    5 => vec![ann("make", ""), ann("model", "civic")],
                    6 => vec![ann("colour", &long), ann("make", "ford")],
                    _ => vec![ann("colour", "red"), ann("make", "honda")],
                };
                (format!("honda ford civic red listing d{i}"), anns)
            };
            BatchDoc {
                url: Url::new("tie.sim", format!("/d{i}")),
                title: String::new(),
                text,
                kind: DocKind::Surfaced,
                site: None,
                annotations,
            }
        })
        .collect();
    let mut oracle = Oracle::of_docs(corpus.iter());
    let make = oracle.vocabulary.get_mut("make").expect("make annotated");
    make.insert("tesla".to_string());
    let queries: Vec<String> = [
        "honda",
        "honda ford",
        "honda zzzunknown",
        "tesla listing",
        "honda civic red 1993",
    ]
    .map(String::from)
    .to_vec();
    let build = |docs: &[BatchDoc]| {
        let mut index = SearchIndex::new();
        index.add_batch(&ThreadPool::new(2), docs.to_vec());
        index.add_facet_values("make", ["Tesla".to_string()]);
        index
    };
    let sealed = build(&corpus);
    let serve = |q: &str, k: usize, opts: SearchOptions| search(&sealed, q, k, opts);
    let counts = assert_every_cell(&oracle, &queries, serve);
    assert_eq!(counts, (queries.len(), queries.len()));
    // Not vacuous: the last doc ranks last on BM25 and first once adjusted.
    let last = (DOCS - 1) as u32;
    let plain = oracle.search("honda civic red 1993", usize::MAX, false);
    assert_eq!(plain.last().map(|h| h.0), Some(last));
    let annotated = oracle.search("honda civic red 1993", 1, true);
    assert_eq!(annotated[0].0, last);

    let fresh = SegmentedIndex::new(build(&corpus[..DOCS - 20]));
    assert_eq!(fresh.apply(corpus[DOCS - 20..].to_vec()), 20);
    let gen = fresh.snapshot();
    assert_eq!(gen.segments().len(), 1);
    let served = assert_every_cell(&oracle, &queries, |q, k, o| gen.search(q, k, o));
    assert_eq!(served, counts);
}
