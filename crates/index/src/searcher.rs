//! BM25 top-k retrieval, optionally annotation-aware (paper §5.1).
//!
//! Annotation-aware mode models "the search engine were able to exploit such
//! annotations": a hit whose structured facet values appear in the query gets
//! boosted, and a hit whose facet value *conflicts* with a query token that
//! is a known value of the same facet gets demoted. This is exactly what
//! rescues the "used ford focus 1993" example from the Honda Civic page whose
//! free text merely mentions the Ford Focus.
//!
//! ## The zero-allocation kernel
//!
//! The scoring kernel runs against a reusable [`QueryScratch`]: lowercased
//! query terms are written into recycled `String` buffers, scores accumulate
//! in a dense `Vec<f64>` indexed by doc id (with a touched-list for sparse
//! reset), and top-k selection reuses one bounded heap. In steady state a
//! query allocates nothing but its result `Vec<Hit>`. The plain [`search`]
//! entry point keeps one scratch per thread; a batch keeps one per pool
//! worker (DESIGN.md §10). Scratch reuse can never change results — the
//! scratch is fully reset between queries and equality with fresh-scratch
//! calls is enforced by unit and property tests.

use crate::index::SearchIndex;
use crate::postings::bm25_contribution;
use crate::view::{doc_bound, IndexView};
use deepweb_common::ids::{DocId, TermId};
use deepweb_common::text::{is_stopword, lower_into, raw_tokens};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// BM25 parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation.
    pub k1: f64,
    /// Length normalisation.
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// Top-k evaluation strategy (DESIGN.md §14). Every mode returns
/// byte-identical hits; they differ only in how much work they skip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PruningMode {
    /// Score every posting of every query term — the reference oracle.
    #[default]
    Exhaustive,
    /// Windowed block-max MaxScore steered by the block index: skip doc
    /// regions, terms and candidates whose guarded score upper bound cannot
    /// reach the running top-k threshold. Falls back to exhaustive scoring when the index has no
    /// block index built ([`SearchIndex::enable_pruning`]).
    ///
    /// [`SearchIndex::enable_pruning`]: crate::index::SearchIndex::enable_pruning
    BlockMax,
}

/// Scoring options.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchOptions {
    /// BM25 parameters.
    pub bm25: Bm25Params,
    /// Enable annotation boosting/penalties.
    pub use_annotations: bool,
    /// Top-k evaluation strategy (result bytes are mode-independent).
    pub pruning: PruningMode,
}

impl SearchOptions {
    /// Check the BM25 parameters: `k1` finite and > 0, `b` finite in
    /// `[0, 1]`. The literal is unchecked (it stays `Copy` and free to build
    /// on the hot path); a front end that takes parameters from outside
    /// calls this once, before a non-finite `k1` or an out-of-range `b` can
    /// poison every score a serving tier returns.
    pub fn validate(&self) -> deepweb_common::Result<()> {
        let Bm25Params { k1, b } = self.bm25;
        if !k1.is_finite() || k1 <= 0.0 {
            return Err(deepweb_common::Error::Config(format!(
                "bm25 k1 must be finite and > 0, got {k1}"
            )));
        }
        if !b.is_finite() || !(0.0..=1.0).contains(&b) {
            return Err(deepweb_common::Error::Config(format!(
                "bm25 b must lie in [0, 1], got {b}"
            )));
        }
        Ok(())
    }
}

/// One search hit.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Hit {
    /// Document.
    pub doc: DocId,
    /// Final score.
    pub score: f64,
}

#[derive(PartialEq)]
pub(crate) struct HeapEntry(pub(crate) f64, pub(crate) u32);

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on score (then max doc id) so the heap root is the worst
        // kept hit.
        other
            .0
            .partial_cmp(&self.0)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.1.cmp(&other.1))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Annotation score adjustments.
pub(crate) const ANNOTATION_BOOST: f64 = 1.5;
const ANNOTATION_CONFLICT_PENALTY: f64 = 8.0;

/// Reusable per-worker state for the query kernel: recycled term buffers, a
/// dense score accumulator with sparse reset, and the top-k heap.
///
/// One scratch serves any number of queries over any number of indexes; it
/// is fully reset by the top-k selection (or the early-exit paths), and
/// results are byte-identical to using a fresh scratch per query.
/// `Default`/`new` give an empty scratch that sizes itself lazily on first
/// use.
#[derive(Default)]
pub struct QueryScratch {
    /// Recycled token buffers; `terms[..n_terms]` are the query's distinct
    /// lowercased non-stopword terms in first-occurrence order — the
    /// canonical scoring order every serving path folds contributions in.
    terms: Vec<String>,
    n_terms: usize,
    /// The query's resolved-id signature, filled by [`QueryScratch::resolve`]:
    /// the ids of the terms the index knows, in the same distinct-term order
    /// — one dictionary hash per term per query, shared by scoring and the
    /// annotation pass. Unknown terms contribute nothing to either, so this
    /// sequence fully determines the result for a fixed `(k, SearchOptions)`
    /// — it is the cluster tier's cache key (DESIGN.md §13). Order matters:
    /// f64 accumulation folds in exactly this sequence, so the signature is
    /// never sorted or canonicalised.
    pub(crate) sig: Vec<TermId>,
    /// Dense score accumulator indexed by doc id. Invariant between queries:
    /// all zeros (only entries listed in `touched` are ever non-zero, and
    /// top-k selection zeroes them while draining).
    scores: Vec<f64>,
    /// Docs with a non-zero accumulated score, in first-touch order.
    touched: Vec<DocId>,
    /// Bounded top-k heap (root = worst kept hit).
    pub(crate) heap: BinaryHeap<HeapEntry>,
    /// Recycled window state for the block-max pruned kernel.
    pub(crate) pruned: crate::pruned::PrunedScratch,
}

impl QueryScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenise `text` into the scratch: distinct lowercased non-stopword
    /// terms in first-occurrence order, written into recycled buffers.
    /// Duplicate skipping is a linear scan — queries have a handful of terms,
    /// and it avoids a hash set entirely.
    pub(crate) fn analyze(&mut self, text: &str) {
        self.n_terms = 0;
        for raw in raw_tokens(text) {
            if self.n_terms == self.terms.len() {
                self.terms.push(String::new());
            }
            lower_into(&mut self.terms[self.n_terms], raw);
            let tok = &self.terms[self.n_terms];
            if is_stopword(tok) || self.terms[..self.n_terms].iter().any(|t| t == tok) {
                continue;
            }
            self.n_terms += 1;
        }
    }

    /// Resolve every analysed term against the view's dictionary into the
    /// recycled signature — the query's single string-hash pass. Unknown
    /// terms have no postings and drop out without disturbing the
    /// accumulation order. (Annotation-only terms resolve but own empty
    /// posting lists.)
    pub(crate) fn resolve(&mut self, view: &IndexView<'_>) {
        self.sig.clear();
        self.sig.extend(
            self.terms[..self.n_terms]
                .iter()
                .filter_map(|t| view.term_id(t)),
        );
    }

    /// Accumulate one contribution for `doc` — the `scores[doc] += c` fold.
    /// BM25 contributions are strictly positive, so 0.0 doubles as the
    /// "untouched" marker.
    #[inline]
    fn add(&mut self, doc: DocId, c: f64) {
        let s = &mut self.scores[doc.as_usize()];
        if *s == 0.0 {
            self.touched.push(doc);
        }
        *s += c;
    }
}

/// Fold accumulated scores down to the top `k` hits and reset the scratch
/// for the next query: score descending, doc id ascending on ties. The
/// tie-break is explicit at both stages — the bounded heap's eviction order
/// and the final sort — so the result never depends on accumulation order,
/// and every serving path returns byte-identical hits.
fn top_k_hits(scratch: &mut QueryScratch, k: usize) -> Vec<Hit> {
    let QueryScratch {
        scores,
        touched,
        heap,
        ..
    } = scratch;
    heap.clear();
    for &doc in touched.iter() {
        // Zero the entry while draining: the scratch's between-queries
        // invariant (all scores zero) is restored exactly here.
        let score = std::mem::replace(&mut scores[doc.as_usize()], 0.0);
        admit(heap, k, HeapEntry(score, doc.0));
    }
    touched.clear();
    drain_heap_topk(heap)
}

/// Offer one scored doc to the bounded top-k heap: a full heap takes it only
/// in place of a root it beats — push-then-pop's result, minus a loser's sifts.
#[inline]
pub(crate) fn admit(heap: &mut BinaryHeap<HeapEntry>, k: usize, entry: HeapEntry) {
    if heap.len() < k {
        heap.push(entry);
    } else if let Some(mut root) = heap.peek_mut() {
        if entry < *root {
            *root = entry;
        }
    }
}

/// Drain a bounded top-k heap into the final sorted hit list — the selection
/// tail shared by the exhaustive fold ([`top_k_hits`]) and the pruned
/// kernel, so both stages apply the one strict total order.
pub(crate) fn drain_heap_topk(heap: &mut BinaryHeap<HeapEntry>) -> Vec<Hit> {
    let mut hits: Vec<Hit> = heap
        .drain()
        .map(|HeapEntry(s, d)| Hit {
            doc: DocId(d),
            score: s,
        })
        .collect();
    hits.sort_by(hit_order);
    hits
}

/// The one total order on hits: score descending, doc id ascending on ties.
/// Doc ids are unique, so this is strict — which is what makes
/// [`merge_topk`] exact.
fn hit_order(a: &Hit, b: &Hit) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.doc.0.cmp(&b.doc.0))
}

/// Merge the exact top-k lists of disjoint doc ranges into the top-k of
/// their union: concatenate, sort under the strict total order, truncate.
/// Each list holds its range's true top-≤k, so the union's top-k is a subset
/// of the concatenation and the strict order places it first —
/// byte-identical to selecting over the whole range at once. The kernel
/// joins a generation's base and segment parts with it (DESIGN.md §9).
pub(crate) fn merge_topk(lists: &[Vec<Hit>], k: usize) -> Vec<Hit> {
    let mut all = lists.concat();
    all.sort_by(hit_order);
    all.truncate(k);
    all
}

thread_local! {
    /// Per-thread scratch backing the plain [`search`] entry point, so the
    /// reference path is itself allocation-free in steady state without
    /// threading a scratch through every caller.
    static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// Run `f` against this thread's scratch (shared with [`search`]; never
/// held across a call that could re-enter the searcher).
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Execute `query` over `index`, returning the top `k` hits (score desc,
/// doc id asc for ties). This is the sequential reference path every
/// concurrent serving mode is tested against. Uses a per-thread
/// [`QueryScratch`]; callers that manage their own workers pass one
/// explicitly via [`search_with_scratch`].
pub fn search(index: &SearchIndex, query: &str, k: usize, opts: SearchOptions) -> Vec<Hit> {
    with_thread_scratch(|s| search_with_scratch(index, query, k, opts, s))
}

/// [`search`] against a caller-provided scratch. Reusing one scratch across
/// any mix of queries, k values and indexes is byte-identical to fresh
/// scratches (enforced by `tests/serving.rs` and the serving proptests).
pub fn search_with_scratch(
    index: &SearchIndex,
    query: &str,
    k: usize,
    opts: SearchOptions,
    scratch: &mut QueryScratch,
) -> Vec<Hit> {
    search_view(&IndexView::sealed(index), query, k, opts, scratch)
}

/// Analyse, resolve and score `query` over the whole of `view` — the
/// sequential tier of a sealed index and of a freshness-tier generation.
pub(crate) fn search_view(
    view: &IndexView<'_>,
    query: &str,
    k: usize,
    opts: SearchOptions,
    scratch: &mut QueryScratch,
) -> Vec<Hit> {
    scratch.analyze(query);
    if scratch.n_terms == 0 || k == 0 {
        return Vec::new();
    }
    scratch.resolve(view);
    // The signature is moved out so the kernel can borrow the rest of the
    // scratch mutably; it is restored before returning.
    let sig = std::mem::take(&mut scratch.sig);
    let hits = top_k_range(view, &sig, k, opts, 0, doc_bound(view.num_docs()), scratch);
    scratch.sig = sig;
    hits
}

/// The one scoring kernel: top `k` of `view`'s global docs `[lo, hi)` for the
/// resolved signature `sig`. Every doc's postings for every query term lie
/// inside the one range that owns the doc, so a range's top-k is exact and
/// per-range lists merge under [`hit_order`] into the full-range result.
///
/// [`PruningMode::BlockMax`] uses that composition when the base has pruning
/// structures: block-max over the part of the range inside the base, a fold
/// of any segment docs past `base.len()`, one merge. Otherwise — and always
/// in [`PruningMode::Exhaustive`], block-max's reference — every posting is
/// folded: terms in signature order, each term's runs in ascending doc
/// order, then one annotation pass over the touched docs. Same bytes.
pub(crate) fn top_k_range(
    view: &IndexView<'_>,
    sig: &[TermId],
    k: usize,
    opts: SearchOptions,
    lo: u32,
    hi: u32,
    scratch: &mut QueryScratch,
) -> Vec<Hit> {
    if sig.is_empty() || k == 0 || lo >= hi {
        return Vec::new();
    }
    if opts.pruning == PruningMode::BlockMax {
        if let Some(pr) = view.pruning() {
            // The base's blocks cover docs `[0, base.len())`; a base too long
            // for a `u32` saturates and so owns the whole range.
            let cut = doc_bound(view.base.len()).clamp(lo, hi);
            let hits = crate::pruned::pruned_topk_range(view, pr, sig, k, opts, lo, cut, scratch);
            if cut == hi {
                return hits;
            }
            let fold = SearchOptions {
                pruning: PruningMode::Exhaustive,
                ..opts
            };
            let tail = top_k_range(view, sig, k, fold, cut, hi, scratch);
            return merge_topk(&[hits, tail], k);
        }
    }
    if scratch.scores.len() < view.num_docs() {
        // Newly exposed entries are zero, preserving the all-zeros invariant.
        scratch.scores.resize(view.num_docs(), 0.0);
    }
    let avg_len = view.avg_doc_len();
    for &id in sig {
        let idf = view.idf(id);
        for (offset, list, lens) in view.runs(id, lo, hi) {
            for p in list {
                let dl = f64::from(lens.doc_len(p.doc));
                let tf = f64::from(p.tf);
                scratch.add(
                    DocId(offset + p.doc.0),
                    bm25_contribution(idf, tf, dl, avg_len, opts.bm25.k1, opts.bm25.b),
                );
            }
        }
    }
    if opts.use_annotations {
        // Per-doc adjustments are independent, so iteration order cannot
        // affect the result.
        for &doc in &scratch.touched {
            scratch.scores[doc.as_usize()] += annotation_boost(view, sig, doc);
        }
    }
    top_k_hits(scratch, k)
}

/// The annotation adjustment for one document: +[`ANNOTATION_BOOST`] per
/// facet value the query names in full, -[`ANNOTATION_CONFLICT_PENALTY`] per
/// facet where a query token is a *known value* of that facet but this page
/// is annotated with a different one.
///
/// Everything here is interned: annotation values are pre-tokenised
/// [`TermId`] slices, the facet vocabulary is an id-set keyed by facet-key
/// id, and `qids` is the query's resolved-id signature — so one query id
/// compares against annotation tokens by `u32` equality and probes the
/// vocabulary with one integer hash. Each annotation takes a single pass
/// over the resolved ids (no `terms × values` string rescans): a bitmask
/// tracks which value tokens the query covers while the same pass flags
/// conflicting ids. Unknown terms are absent from the signature; they could
/// never cover a value token or probe the vocabulary, so dropping them
/// changes nothing.
pub(crate) fn annotation_boost(view: &IndexView<'_>, qids: &[TermId], doc: DocId) -> f64 {
    let mut boost = 0.0;
    for ann in view.annotations(doc) {
        let value_ids = &ann.terms;
        if value_ids.is_empty() || value_ids.len() > 64 {
            // Empty: nothing to match (and nothing to conflict with, since a
            // conflict is "a different value of *this* facet"). >64 tokens
            // cannot happen for form-input values; skip rather than score a
            // facet we cannot track exactly.
            continue;
        }
        let full: u64 = u64::MAX >> (64 - value_ids.len());
        let mut covered: u64 = 0;
        let mut conflict = false;
        for &qid in qids {
            let mut is_value_token = false;
            for (vi, &v) in value_ids.iter().enumerate() {
                if v == qid {
                    covered |= 1 << vi;
                    is_value_token = true;
                }
            }
            // Conflict candidate: a query id that is a known value of this
            // facet but not one of this annotation's own tokens.
            if !is_value_token && !conflict {
                conflict = view.facet_has(ann.key, qid);
            }
        }
        if covered == full {
            // Query explicitly names this facet value: structured match.
            boost += ANNOTATION_BOOST;
        } else if conflict {
            boost -= ANNOTATION_CONFLICT_PENALTY;
        }
    }
    boost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::{Annotation, DocKind};
    use crate::index::SearchIndex;
    use deepweb_common::Url;

    fn build() -> SearchIndex {
        let mut idx = SearchIndex::new();
        idx.add(
            Url::new("a.sim", "/1"),
            "honda civics for sale".into(),
            "1993 honda civic has better mileage than the ford focus".into(),
            DocKind::Surfaced,
            None,
            vec![
                Annotation {
                    key: "make".into(),
                    value: "honda".into(),
                },
                Annotation {
                    key: "model".into(),
                    value: "civic".into(),
                },
            ],
        );
        idx.add(
            Url::new("b.sim", "/2"),
            "ford focus listings".into(),
            "used ford focus 1993 low price".into(),
            DocKind::Surfaced,
            None,
            vec![
                Annotation {
                    key: "make".into(),
                    value: "ford".into(),
                },
                Annotation {
                    key: "model".into(),
                    value: "focus".into(),
                },
            ],
        );
        idx.add(
            Url::new("c.sim", "/3"),
            "cooking blog".into(),
            "recipes and stories".into(),
            DocKind::Surface,
            None,
            vec![],
        );
        idx
    }

    #[test]
    fn bm25_ranks_relevant_first() {
        let idx = build();
        let hits = search(&idx, "ford focus", 10, SearchOptions::default());
        assert_eq!(hits[0].doc, DocId(1));
        assert!(hits.len() >= 2); // honda page also mentions ford focus
    }

    #[test]
    fn top_k_bounds_results() {
        let idx = build();
        let hits = search(&idx, "ford focus honda civic", 1, SearchOptions::default());
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn annotations_fix_false_positive() {
        let idx = build();
        // With annotations, the honda page is penalised for the make
        // conflict and the ford page is boosted.
        let opts = SearchOptions {
            use_annotations: true,
            ..Default::default()
        };
        let hits = search(&idx, "used ford focus 1993", 10, opts);
        assert_eq!(hits[0].doc, DocId(1));
        let ford = hits.iter().find(|h| h.doc == DocId(1)).unwrap().score;
        let honda = hits.iter().find(|h| h.doc == DocId(0)).map(|h| h.score);
        if let Some(h) = honda {
            assert!(ford > h + 1.0, "annotation gap should be decisive");
        }
    }

    /// Regression for the per-query re-tokenisation bug: a facet value that
    /// was surfaced with mixed case or punctuation ("Honda", "new-york")
    /// used to be matched raw against lowercased analysed query terms, so
    /// its boost silently never fired. Values are now analysed at ingest.
    #[test]
    fn mixed_case_and_punctuated_facet_values_boost() {
        let mut idx = SearchIndex::new();
        idx.add(
            Url::new("a.sim", "/1"),
            "honda civics".into(),
            "used honda civic listing in new york".into(),
            DocKind::Surfaced,
            None,
            vec![
                Annotation {
                    key: "make".into(),
                    value: "Honda".into(),
                },
                Annotation {
                    key: "city".into(),
                    value: "new-york".into(),
                },
            ],
        );
        idx.add(
            Url::new("b.sim", "/2"),
            "ford listing".into(),
            "used ford focus listing in new york".into(),
            DocKind::Surfaced,
            None,
            vec![Annotation {
                key: "make".into(),
                value: "Ford".into(),
            }],
        );
        let plain = SearchOptions::default();
        let ann = SearchOptions {
            use_annotations: true,
            ..Default::default()
        };
        let q = "used honda new york";
        let base = search(&idx, q, 10, plain);
        let boosted = search(&idx, q, 10, ann);
        let score_of =
            |hits: &[Hit], d: u32| hits.iter().find(|h| h.doc == DocId(d)).unwrap().score;
        // Both the mixed-case make and the hyphenated city boost fire, and
        // the conflicting Ford page is penalised ("honda" is a known make).
        let delta_honda = score_of(&boosted, 0) - score_of(&base, 0);
        assert!(
            (delta_honda - 2.0 * ANNOTATION_BOOST).abs() < 1e-12,
            "expected make + city boosts, got {delta_honda}"
        );
        let delta_ford = score_of(&boosted, 1) - score_of(&base, 1);
        assert!(
            (delta_ford + ANNOTATION_CONFLICT_PENALTY).abs() < 1e-12,
            "expected make conflict penalty, got {delta_ford}"
        );
        assert_eq!(boosted[0].doc, DocId(0));
    }

    #[test]
    fn stopword_bearing_facet_values_still_boost() {
        // Query analysis drops stopwords, so a value like "Out of Stock"
        // must shed its "of" at ingest too — otherwise its boost could
        // never fire (the same silently-dead-boost class as mixed case).
        let mut idx = SearchIndex::new();
        idx.add(
            Url::new("a.sim", "/1"),
            "widget listing".into(),
            "blue widget currently out stock".into(),
            DocKind::Surfaced,
            None,
            vec![Annotation {
                key: "status".into(),
                value: "Out of Stock".into(),
            }],
        );
        let plain = SearchOptions::default();
        let ann = SearchOptions {
            use_annotations: true,
            ..Default::default()
        };
        let q = "out stock widget";
        let base = search(&idx, q, 10, plain)[0].score;
        let boosted = search(&idx, q, 10, ann)[0].score;
        assert!(
            (boosted - base - ANNOTATION_BOOST).abs() < 1e-12,
            "stopword-bearing value must still boost: {base} -> {boosted}"
        );
    }

    #[test]
    fn partial_value_match_does_not_boost() {
        // A multi-token value boosts only when the query names it in full.
        let mut idx = SearchIndex::new();
        idx.add(
            Url::new("a.sim", "/1"),
            "listing".into(),
            "apartment in new york city".into(),
            DocKind::Surfaced,
            None,
            vec![Annotation {
                key: "city".into(),
                value: "New-York".into(),
            }],
        );
        let plain = SearchOptions::default();
        let ann = SearchOptions {
            use_annotations: true,
            ..Default::default()
        };
        // "new" alone covers only half the value: no boost, and no conflict
        // either ("new" is one of this annotation's own tokens).
        let q = "new apartment";
        let base = search(&idx, q, 10, plain);
        let with = search(&idx, q, 10, ann);
        assert_eq!(base, with);
    }

    #[test]
    fn empty_query_no_hits() {
        let idx = build();
        assert!(search(&idx, "", 10, SearchOptions::default()).is_empty());
        assert!(search(&idx, "the of and", 10, SearchOptions::default()).is_empty());
    }

    #[test]
    fn unknown_terms_no_hits() {
        let idx = build();
        assert!(search(&idx, "zzzzz", 10, SearchOptions::default()).is_empty());
    }

    #[test]
    fn scratch_analyze_dedups_in_first_occurrence_order() {
        let mut s = QueryScratch::new();
        s.analyze("The Ford ford FOCUS focus 1993 ford");
        assert_eq!(s.terms[..s.n_terms], ["ford", "focus", "1993"]);
        // Reuse shrinks as well as grows.
        s.analyze("honda");
        assert_eq!(s.terms[..s.n_terms], ["honda"]);
        s.analyze("");
        assert_eq!(s.n_terms, 0);
    }

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh() {
        let idx = build();
        let mut reused = QueryScratch::new();
        let queries = [
            "ford focus",
            "honda civic",
            "used ford focus 1993",
            "",
            "zzzzz",
            "recipes stories",
        ];
        for opts in [
            SearchOptions::default(),
            SearchOptions {
                use_annotations: true,
                ..Default::default()
            },
        ] {
            for k in [0, 1, 2, 10] {
                for q in queries {
                    let a = search_with_scratch(&idx, q, k, opts, &mut reused);
                    let b = search_with_scratch(&idx, q, k, opts, &mut QueryScratch::new());
                    assert_eq!(a, b, "q={q:?} k={k}");
                    assert_eq!(a, search(&idx, q, k, opts), "q={q:?} k={k}");
                }
            }
        }
    }

    /// The kernel's range contract, which the block-max path's base ⊕
    /// segment cut leans on: the exact top-k lists of equal doc ranges that
    /// tile the index merge into the whole index's top-k.
    #[test]
    fn partition_topk_union_contains_global_topk() {
        let mut idx = SearchIndex::new();
        let texts = [
            "honda civic mileage",
            "used ford focus",
            "honda accord review",
            "ford truck listing",
            "civic and focus compared",
            "cooking recipes",
            "honda focus hybrid rumour",
        ];
        for (i, text) in texts.iter().enumerate() {
            idx.add(
                Url::new("p.sim", format!("/d{i}")),
                String::new(),
                (*text).into(),
                DocKind::Surface,
                None,
                vec![],
            );
        }
        let opts = SearchOptions::default();
        let view = IndexView::sealed(&idx);
        let (n, k) = (doc_bound(idx.len()), 3);
        for parts in [1u32, 2, 3, 7] {
            for q in ["honda", "ford focus", "honda civic focus"] {
                let global = search(&idx, q, k, opts);
                let mut scratch = QueryScratch::new();
                scratch.analyze(q);
                scratch.resolve(&view);
                let sig = scratch.sig.clone();
                let lists: Vec<Vec<Hit>> = (0..parts)
                    .map(|p| (n * p / parts, n * (p + 1) / parts))
                    .map(|(lo, hi)| top_k_range(&view, &sig, k, opts, lo, hi, &mut scratch))
                    .collect();
                assert_eq!(merge_topk(&lists, k), global, "parts={parts} q={q:?}");
            }
        }
    }

    #[test]
    fn scratch_invariant_restored_between_queries() {
        let idx = build();
        let mut s = QueryScratch::new();
        let _ = search_with_scratch(
            &idx,
            "ford focus honda",
            10,
            SearchOptions::default(),
            &mut s,
        );
        assert!(s.touched.is_empty(), "touched list must be drained");
        assert!(
            s.scores.iter().all(|&x| x == 0.0),
            "dense scores must be re-zeroed"
        );
    }
}
