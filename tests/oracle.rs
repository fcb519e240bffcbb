//! An oracle that shares no code with `crates/index` (ROADMAP open item 1,
//! first half).
//!
//! Every other equality suite compares an optimised path with `search()`,
//! which runs the same kernel, the same `bm25_contribution` and the same
//! top-k selection as the path under test — a bug in the shared code is
//! invisible to all of them. This file re-derives a ranking from the raw
//! strings the index stores (`title`, `text`, `annotations`) and the form
//! vocabulary the crawler reported, with brute force and `std` collections,
//! sharing only `common::text::{tokenize, is_stopword}` and the documented
//! fold order, and demands the same doc ids and the same score bits.
//!
//! The fold order it re-states (DESIGN.md §10, §12):
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
    search, Annotation, BatchDoc, DocKind, Hit, PruningMode, SearchIndex, SearchOptions,
    SegmentedIndex,
};
use deepweb::queries::{generate_workload, WorkloadConfig};
use deepweb::webworld::grow_site;
use deepweb::{quick_config, DeepWebSystem};
use std::collections::{BTreeMap, BTreeSet};

/// One document as the oracle reads it: term → tf, token count, and each
/// annotation as `(facet key, analysed value tokens)`.
struct OracleDoc {
    tf: BTreeMap<String, u32>,
    len: usize,
    annotations: Vec<(String, Vec<String>)>,
}

struct Oracle {
    docs: Vec<OracleDoc>,
    df: BTreeMap<String, usize>,
    avg_len: f64,
    /// Facet key → every token known as a value of that facet.
    vocabulary: BTreeMap<String, BTreeSet<String>>,
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
        let mut df: BTreeMap<String, usize> = BTreeMap::new();
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
                *df.entry(term.clone()).or_default() += 1;
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
            df,
            avg_len,
            vocabulary,
        }
    }

    /// `(doc id, score)` of the top `k`, best first.
    fn search(&self, query: &str, k: usize, annotations: bool) -> Vec<(u32, f64)> {
        let mut terms: Vec<String> = Vec::new();
        for t in analysed(query) {
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        let n = self.docs.len() as f64;
        let (k1, b) = (1.2, 0.75);
        let mut hits: Vec<(u32, f64)> = Vec::new();
        for (id, doc) in self.docs.iter().enumerate() {
            let dl = doc.len as f64;
            let mut score = 0.0;
            let mut matched = false;
            for term in &terms {
                let Some(&tf) = doc.tf.get(term) else {
                    continue;
                };
                matched = true;
                let tf = f64::from(tf);
                let df = self.df[term] as f64;
                let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
                score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / self.avg_len));
            }
            if !matched {
                continue;
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
            hits.push((id as u32, score));
        }
        hits.sort_by(|a, b| {
            let by_score = b.1.partial_cmp(&a.1).expect("scores are finite");
            by_score.then(a.0.cmp(&b.0))
        });
        hits.truncate(k);
        hits
    }
}

/// [`assert_serves_the_oracle`] for `search` over `sys.index`.
fn assert_search_equals_oracle(
    sys: &DeepWebSystem,
    oracle: &Oracle,
    queries: &[String],
) -> (usize, usize) {
    let serve = |q: &str, k: usize, opts: SearchOptions| search(&sys.index, q, k, opts);
    assert_serves_the_oracle(serve, oracle, queries)
}

/// Every `(pruning, annotations, k)` cell of the contract: `serve` returns
/// the oracle's doc ids and score bits. The oracle ranks once per query and
/// annotation mode; each `k` must be a prefix of that ranking. Returns how
/// many queries retrieved something and how many the annotation pass moved.
fn assert_serves_the_oracle(
    serve: impl Fn(&str, usize, SearchOptions) -> Vec<Hit>,
    oracle: &Oracle,
    queries: &[String],
) -> (usize, usize) {
    let bits = |hits: &[(u32, f64)]| -> Vec<(u32, u64)> {
        hits.iter().map(|&(d, s)| (d, s.to_bits())).collect()
    };
    let (mut nonempty, mut adjusted) = (0, 0);
    for q in queries {
        let plain = oracle.search(q, usize::MAX, false);
        let annotated = oracle.search(q, usize::MAX, true);
        nonempty += usize::from(!plain.is_empty());
        adjusted += usize::from(bits(&plain) != bits(&annotated));
        for (use_annotations, want) in [(false, &plain), (true, &annotated)] {
            for pruning in [PruningMode::Exhaustive, PruningMode::BlockMax] {
                let opts = SearchOptions {
                    use_annotations,
                    pruning,
                };
                for k in [1, 10, 1000] {
                    let got: Vec<(u32, u64)> = serve(q, k, opts)
                        .iter()
                        .map(|h| (h.doc.0, h.score.to_bits()))
                        .collect();
                    assert_eq!(
                        got,
                        bits(&want[..k.min(want.len())]),
                        "query {q:?} k={k} {pruning:?} annotations={use_annotations}"
                    );
                }
            }
        }
    }
    (nonempty, adjusted)
}

/// Workload head and tail queries plus the edge cases every serving suite
/// carries: empty, stopwords only, unknown terms, a repeated term, case
/// folding, the paper's flagship query.
fn workload_and_edge_queries(sys: &DeepWebSystem) -> Vec<String> {
    let workload = generate_workload(
        &sys.world,
        &WorkloadConfig {
            distinct: 120,
            ..Default::default()
        },
    );
    let tail = workload.queries.iter().filter(|q| q.is_tail).count();
    assert!(
        tail >= 10 && workload.queries.len() - tail >= 10,
        "both classes"
    );
    let mut queries: Vec<String> = workload.queries.iter().map(|q| q.text.clone()).collect();
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
    queries
}

#[test]
fn search_equals_the_brute_force_oracle_bit_for_bit() {
    let sys = DeepWebSystem::build(&quick_config(10));
    assert!(sys.index.pruning().is_some(), "block index built");
    let oracle = Oracle::read(&sys);
    let queries = workload_and_edge_queries(&sys);
    let (nonempty, adjusted) = assert_search_equals_oracle(&sys, &oracle, &queries);
    // Not vacuous: most queries retrieve something, and the annotation pass
    // re-scores a good share of them on this corpus.
    assert!(nonempty > queries.len() / 2, "non-empty results {nonempty}");
    assert!(
        adjusted > 10,
        "queries the annotation pass moved: {adjusted}"
    );
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
        .find(|t| !oracle.df.contains_key(*t))
        .expect("a model the form offers and no page mentions");
    assert!(sys.index.facet_value_known("model", facet_only));
    let queries = [
        facet_only.clone(),
        format!("honda {facet_only}"),
        format!("used {facet_only} honda civic"),
    ];
    let (nonempty, adjusted) = assert_search_equals_oracle(&sys, &oracle, &queries);
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
    const MAX_FOLDED_POSTINGS: usize = 8_192;
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
        assert!(oracle.df["tok0"] * 10 > docs * 9 && oracle.df["tok9"] * 10 > docs);
        if every_query_windowed {
            for q in &queries {
                let mut terms = analysed(q);
                terms.sort();
                terms.dedup();
                let read: usize = terms.iter().filter_map(|t| oracle.df.get(t)).sum();
                assert!(read > MAX_FOLDED_POSTINGS, "{q:?} reads {read} postings");
            }
        }
        let build = |docs: &[BatchDoc]| {
            let mut index = SearchIndex::new();
            index.add_batch(&ThreadPool::new(2), docs.to_vec());
            index.enable_pruning();
            index
        };
        let index = build(&corpus);
        let serve = |q: &str, k: usize, opts: SearchOptions| search(&index, q, k, opts);
        let (nonempty, adjusted) = assert_serves_the_oracle(serve, &oracle, &queries);
        assert_eq!((nonempty, adjusted), (queries.len(), 0), "{docs} docs");
        if every_query_windowed {
            let fresh = SegmentedIndex::new(build(&corpus[..10_000]));
            for delta in corpus[10_000..].chunks(1_000) {
                assert_eq!(fresh.apply(delta.to_vec()), delta.len());
            }
            let gen = fresh.snapshot();
            assert_eq!(gen.segments().len(), 2);
            let pending =
                assert_serves_the_oracle(|q, k, o| gen.search(q, k, o), &oracle, &queries);
            assert_eq!(pending, (nonempty, adjusted), "pending");
            assert_eq!(fresh.merge(), 2_000);
            let gen = fresh.snapshot();
            assert!(gen.segments().is_empty() && gen.base().pruning().is_some());
            let merged = assert_serves_the_oracle(|q, k, o| gen.search(q, k, o), &oracle, &queries);
            assert_eq!(merged, (nonempty, adjusted), "merged");
        }
    }
}

/// The freshness tier against the oracle, not against `search()`: with
/// segments pending the block-max path bounds every base block from
/// `(max_tf, min_dl)` under the generation's statistics and folds the
/// segments' postings beside it; after the merge the extended block index
/// serves stored maxima again. Both must return the ranking brute force
/// derives from the raw strings of the base docs plus every pending doc.
#[test]
fn pending_segments_and_the_merged_base_serve_the_oracle() {
    let mut sys = DeepWebSystem::build(&quick_config(6));
    let mut surfaced = sys.outcome.reports.iter().filter(|r| r.pages_surfaced > 0);
    let grown_host = &surfaced.next().expect("some site surfaced").host;
    let sites = sys.world.server.sites();
    let site_idx = sites.iter().position(|s| &s.host == grown_host);
    let site_idx = site_idx.expect("site exists");
    let base_len = sys.index.len();
    grow_site(&mut sys.world, site_idx, 30, 99);
    let out = sys.refresh(sys.world.server.sites().len());
    assert!(out.new_docs > 0, "{out:?}");
    let gen = sys.fresh_index().snapshot();
    assert!(!gen.segments().is_empty() && gen.base().pruning().is_some());
    assert_eq!(gen.num_docs(), base_len + out.new_docs);

    let segment_docs = || gen.segments().iter().flat_map(|seg| seg.docs());
    let oracle = Oracle::over(&sys, gen.base().docs().iter().chain(segment_docs()));
    assert_eq!(oracle.docs.len(), gen.num_docs());
    // The workload, the edge cases, and the title of every fifth pending
    // doc — queries whose best hits live in a segment.
    let mut queries = workload_and_edge_queries(&sys);
    queries.extend(segment_docs().step_by(5).map(|d| d.title.clone()));
    let (nonempty, adjusted) =
        assert_serves_the_oracle(|q, k, opts| gen.search(q, k, opts), &oracle, &queries);
    assert!(nonempty > queries.len() / 2, "non-empty results {nonempty}");
    assert!(
        adjusted > 10,
        "queries the annotation pass moved: {adjusted}"
    );
    let served_from_a_segment = queries.iter().any(|q| {
        let top = gen.search(q, 1, SearchOptions::default());
        top.first().is_some_and(|h| h.doc.as_usize() >= base_len)
    });
    assert!(served_from_a_segment, "no query ranks a pending doc first");

    assert_eq!(sys.merge_fresh(), out.new_docs);
    assert_eq!(sys.index.len(), oracle.docs.len());
    assert_eq!(sys.fresh_index().num_segments(), 0);
    let merged = assert_search_equals_oracle(&sys, &oracle, &queries);
    assert_eq!(merged, (nonempty, adjusted));
    for q in &queries {
        let want = oracle.search(q, 10, sys.options.use_annotations);
        let got: Vec<(u32, u64)> = sys
            .search(q, 10)
            .iter()
            .map(|h| (h.doc.0, h.score.to_bits()))
            .collect();
        let want: Vec<(u32, u64)> = want.iter().map(|&(d, s)| (d, s.to_bits())).collect();
        assert_eq!(got, want, "sys.search {q:?}");
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
    index.enable_pruning();
    for q in &queries {
        let distinct: BTreeSet<String> = analysed(q).into_iter().collect();
        let known = |t: &String| index.postings().term_id(t).is_some();
        assert!(distinct.len() >= 70 && distinct.iter().all(known), "{q:?}");
    }
    let serve = |q: &str, k: usize, opts: SearchOptions| search(&index, q, k, opts);
    let (nonempty, adjusted) = assert_serves_the_oracle(serve, &oracle, &queries);
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
        index.enable_pruning();
        index
    };
    let sealed = build(&corpus);
    let serve = |q: &str, k: usize, opts: SearchOptions| search(&sealed, q, k, opts);
    let counts = assert_serves_the_oracle(serve, &oracle, &queries);
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
    let served = assert_serves_the_oracle(|q, k, opts| gen.search(q, k, opts), &oracle, &queries);
    assert_eq!(served, counts);
}
