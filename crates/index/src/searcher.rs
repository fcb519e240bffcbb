//! BM25 top-k retrieval, optionally annotation-aware (paper §5.1).
//!
//! Annotation-aware mode models "the search engine were able to exploit such
//! annotations": a hit whose structured facet values appear in the query gets
//! boosted, and a hit whose facet value *conflicts* with a query token that
//! is a known value of the same facet gets demoted. This is exactly what
//! rescues the "used ford focus 1993" example from the Honda Civic page whose
//! free text merely mentions the Ford Focus.
//!
//! The facet vocabulary is resolved once per query, not once per doc: after
//! the signature is resolved, `FacetMasks` records for each facet key the
//! query names a value of which signature positions those values sit at.
//! The pass over a scored doc then reads its annotations from a flat column
//! and tests each against its key's mask — an annotation of a facet the
//! query never names costs one load; a doc that cannot rank even with the
//! view's annotation bound added is never read. A query that names no facet
//! value skips the pass (and its bound) outright (DESIGN.md §12).
//!
//! ## Picking the kernel
//!
//! `top_k` scores a query one of two ways, with the same bytes. Under
//! [`PruningMode::BlockMax`] it sums the view-wide `df` of the signature's
//! terms — exactly the postings the exhaustive fold would read — and above
//! `pruned::MAX_FOLDED_POSTINGS` (32 windows) runs the windowed block-max
//! kernel over the base, folding any pending segments beside it; at or
//! below it, and always under [`PruningMode::Exhaustive`], it folds every
//! posting. Short lists leave windows nothing to skip that pays for their
//! bookkeeping (DESIGN.md §14).
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
use crate::pruned::guard_ub;
use crate::view::IndexView;
use deepweb_common::ids::{DocId, FacetKeyId, TermId};
use deepweb_common::text::{is_stopword, lower_into, raw_tokens};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Top-k evaluation strategy (DESIGN.md §14). Every mode returns
/// byte-identical hits; they differ only in how much work they skip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PruningMode {
    /// Score every posting of every query term — block-max's reference
    /// fold (the independent oracle is `tests/oracle.rs`).
    #[default]
    Exhaustive,
    /// Windowed where the lists are long enough to skip: a query whose
    /// terms hold more than 8 192 postings over the whole view (32 windows
    /// of 256 docs) runs windowed block-max MaxScore steered by the block
    /// index, skipping doc regions, terms and candidates whose guarded score
    /// upper bound cannot reach the running top-k threshold; a shorter one
    /// is folded exhaustively, which is cheaper there. Every index carries
    /// a block index over all its documents (the fold that adds them
    /// extends it), so the windowed kernel never lacks one.
    BlockMax,
}

/// Scoring options.
#[derive(Clone, Copy, Debug, Default)]
pub struct SearchOptions {
    /// Enable annotation boosting/penalties.
    pub use_annotations: bool,
    /// Top-k evaluation strategy (result bytes are mode-independent).
    pub pruning: PruningMode,
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
    /// The signature's facet-key masks, filled by [`top_k`] when annotations
    /// score.
    pub(crate) masks: FacetMasks,
    /// Docs whose annotations the last query read (0 when none were scored).
    pub(crate) annotations_read: usize,
}

/// Which signature positions are known values of which facet key, filled
/// once per query so the annotation pass never probes the vocabulary. One
/// mask word per 64 positions, so a signature of any length is covered.
#[derive(Default)]
pub(crate) struct FacetMasks {
    /// `words` mask words per facet key id: bit `i % 64` of word
    /// `key * words + i / 64` is set when signature position `i` is a known
    /// value of `key`. All zeros outside the keys in `named`.
    table: Vec<u64>,
    words: usize,
    /// The keys with a non-empty mask: what the next fill zeroes.
    named: Vec<FacetKeyId>,
}

impl FacetMasks {
    /// Record, for `sig` over `view`, each position under every facet key
    /// its id is a known value of — one vocabulary lookup per position.
    pub(crate) fn fill(&mut self, view: &IndexView<'_>, sig: &[TermId]) {
        for key in self.named.drain(..) {
            if let Some(mask) = self.table.get_mut(mask_span(key, self.words)) {
                mask.fill(0);
            }
        }
        self.words = sig.len().div_ceil(64);
        let len = view.num_facet_keys() * self.words;
        if self.table.len() < len {
            // Newly exposed words are zero, preserving the invariant.
            self.table.resize(len, 0);
        }
        for (pos, &id) in sig.iter().enumerate() {
            for key in view.value_keys(id) {
                let Some(mask) = self.table.get_mut(mask_span(key, self.words)) else {
                    continue;
                };
                if mask.iter().all(|&w| w == 0) {
                    self.named.push(key);
                }
                if let Some(word) = mask.get_mut(pos / 64) {
                    *word |= 1 << (pos % 64);
                }
            }
        }
    }

    /// True when no position is a known value of any facet: no annotation
    /// can boost or conflict, so every adjustment is `0.0`.
    pub(crate) fn is_empty(&self) -> bool {
        self.named.is_empty()
    }

    /// The mask of `key`: the positions that are its known values.
    #[inline]
    fn of(&self, key: FacetKeyId) -> &[u64] {
        self.table
            .get(mask_span(key, self.words))
            .unwrap_or_default()
    }
}

/// Where `key`'s mask of `words` words sits in [`FacetMasks`]' table.
fn mask_span(key: FacetKeyId, words: usize) -> std::ops::Range<usize> {
    let lo = key.as_usize() * words;
    lo..lo + words
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
            let (seen, rest) = self.terms.split_at_mut(self.n_terms);
            let Some(tok) = rest.first_mut() else {
                continue;
            };
            lower_into(tok, raw);
            if is_stopword(tok) || seen.iter().any(|t| t == tok) {
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
        let terms = self.terms.iter().take(self.n_terms);
        self.sig.extend(terms.filter_map(|t| view.term_id(t)));
    }

    /// Accumulate one contribution for `doc` — the `scores[doc] += c` fold.
    /// BM25 contributions are strictly positive, so 0.0 doubles as the
    /// "untouched" marker.
    #[inline]
    fn add(&mut self, doc: DocId, c: f64) {
        let Some(s) = self.scores.get_mut(doc.as_usize()) else {
            return;
        };
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
        let score = scores.get_mut(doc.as_usize()).map_or(0.0, std::mem::take);
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

/// Merge the exact top-k lists of disjoint doc sets into the top-k of their
/// union: concatenate, sort under the strict total order, truncate. Each
/// list holds its set's true top-≤k, so the union's top-k is a subset of the
/// concatenation and the strict order places it first — byte-identical to
/// selecting over the union at once. The kernel joins a generation's base
/// and segment parts with it (DESIGN.md §9).
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
/// held across a call that could re-enter the searcher, nor across a pool
/// dispatch: the calling thread runs pool tasks itself, and a task that
/// reaches [`search`] would borrow this scratch again).
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
    let hits = top_k(view, &sig, k, opts, scratch);
    scratch.sig = sig;
    hits
}

/// The one scoring kernel: top `k` of `view`'s docs for the resolved
/// signature `sig`, by the kernel the query's input size calls for.
///
/// Under [`PruningMode::BlockMax`] it sums the view-wide `df` of the
/// signature's terms — base plus pending segments, exactly the postings the
/// exhaustive fold reads. A query reading more than
/// [`MAX_FOLDED_POSTINGS`] takes [`windowed_top_k`]; any other — and every
/// query in [`PruningMode::Exhaustive`], block-max's reference — folds every
/// posting: terms in signature order, each term's runs in ascending doc
/// order, then one selection pass reading only rankable docs' annotations.
/// On lists that short the windows' bookkeeping costs more than they can
/// skip (DESIGN.md §14). Same bytes either way.
///
/// With annotations on, the signature's [`FacetMasks`] are filled first. A
/// query naming no facet value scores as if annotations were off: every
/// adjustment would be `0.0`, and `x + 0.0 == x`.
///
/// [`MAX_FOLDED_POSTINGS`]: crate::pruned::MAX_FOLDED_POSTINGS
pub(crate) fn top_k(
    view: &IndexView<'_>,
    sig: &[TermId],
    k: usize,
    opts: SearchOptions,
    scratch: &mut QueryScratch,
) -> Vec<Hit> {
    match opts.pruning {
        PruningMode::BlockMax
            if sig.iter().map(|&id| view.df(id)).sum::<usize>()
                > crate::pruned::MAX_FOLDED_POSTINGS =>
        {
            windowed_top_k(view, sig, k, opts, scratch)
        }
        _ => match prepare(view, sig, k, opts, scratch) {
            Some(opts) => fold(view, sig, k, opts, false, scratch),
            None => Vec::new(),
        },
    }
}

/// The branch [`top_k`] takes above the cutoff, whatever the query reads: a
/// composition over the base and its block index, which covers every base
/// doc whatever is pending (segments move the statistics a stored
/// `max_contrib` was computed under, never a block's `(max_tf, min_dl)`, so
/// the kernel re-bounds the base from that pair). Block-max scores the
/// base's docs, the fold scores any segment docs, and [`merge_topk`] joins
/// the two lists — a doc's postings for every query term lie on one side of
/// that cut, so both lists are exact. The windowed kernel's own tests come
/// in here.
pub(crate) fn windowed_top_k(
    view: &IndexView<'_>,
    sig: &[TermId],
    k: usize,
    opts: SearchOptions,
    scratch: &mut QueryScratch,
) -> Vec<Hit> {
    let Some(opts) = prepare(view, sig, k, opts, scratch) else {
        return Vec::new();
    };
    let blocks = view.base.block_index();
    let base = crate::pruned::pruned_topk(view, blocks, sig, k, opts, scratch);
    if view.segments.is_empty() {
        return base;
    }
    let segments = fold(view, sig, k, opts, true, scratch);
    merge_topk(&[base, segments], k)
}

/// Set a query up for either kernel: zero the last query's counters, fill
/// the facet masks when annotations score, and turn annotations off for a
/// query naming no facet value. `None` when there is nothing to score.
fn prepare(
    view: &IndexView<'_>,
    sig: &[TermId],
    k: usize,
    opts: SearchOptions,
    scratch: &mut QueryScratch,
) -> Option<SearchOptions> {
    scratch.pruned.clear_counts();
    scratch.annotations_read = 0;
    if sig.is_empty() || k == 0 {
        return None;
    }
    if !opts.use_annotations {
        return Some(opts);
    }
    scratch.masks.fill(view, sig);
    Some(SearchOptions {
        use_annotations: !scratch.masks.is_empty(),
        ..opts
    })
}

/// The exhaustive fold of `sig` over `view` — of the pending segments'
/// runs only when `segments_only` (block-max scored the base) — and its
/// top `k`, through [`annotated_top_k_hits`] when annotations score.
fn fold(
    view: &IndexView<'_>,
    sig: &[TermId],
    k: usize,
    opts: SearchOptions,
    segments_only: bool,
    scratch: &mut QueryScratch,
) -> Vec<Hit> {
    if scratch.scores.len() < view.num_docs() {
        // Newly exposed entries are zero, preserving the all-zeros invariant.
        scratch.scores.resize(view.num_docs(), 0.0);
    }
    let avg_len = view.avg_doc_len();
    for &id in sig {
        let idf = view.idf(id);
        for (offset, list, lens) in view.runs(id).skip(usize::from(segments_only)) {
            for p in list {
                let dl = f64::from(lens.doc_len(p.doc));
                let tf = f64::from(p.tf);
                scratch.add(
                    DocId(offset + p.doc.0),
                    bm25_contribution(idf, tf, dl, avg_len),
                );
            }
        }
    }
    if opts.use_annotations {
        return annotated_top_k_hits(view, sig, k, scratch);
    }
    top_k_hits(scratch, k)
}

/// [`top_k_hits`] plus [`annotation_boost`], read only for a doc whose sum
/// plus [`IndexView::annotation_bound`] can still rank (DESIGN.md §12). Out
/// of line: inlined, it slowed `offline_build`'s short folds 6–7%.
#[inline(never)]
fn annotated_top_k_hits(
    view: &IndexView<'_>,
    sig: &[TermId],
    k: usize,
    scratch: &mut QueryScratch,
) -> Vec<Hit> {
    let bound = view.annotation_bound();
    let heap = &mut scratch.heap;
    heap.clear();
    for &doc in &scratch.touched {
        let sum = (scratch.scores.get_mut(doc.as_usize())).map_or(0.0, std::mem::take);
        if heap.len() == k && heap.peek().is_some_and(|kth| guard_ub(sum + bound) < kth.0) {
            continue;
        }
        scratch.annotations_read += 1;
        let score = sum + annotation_boost(view, sig, &scratch.masks, doc);
        admit(heap, k, HeapEntry(score, doc.0));
    }
    scratch.touched.clear();
    drain_heap_topk(heap)
}

/// The annotation adjustment for one document: +[`ANNOTATION_BOOST`] per
/// facet value the query names in full, -[`ANNOTATION_CONFLICT_PENALTY`] per
/// facet where a query token is a *known value* of that facet but this page
/// is annotated with a different one.
///
/// Everything here is interned and resolved per query: the doc's
/// annotations are `(key, value tokens)` entries of the annotation column,
/// and `masks` holds, per facet key, the positions of `sig` that are its
/// known values. An annotation's own value tokens are known values of its
/// facet, so only a masked position can cover one of them or conflict: a key
/// with an empty mask is skipped on one load, and otherwise one pass over
/// the masked positions marks, in a bitmask over the value tokens, those a
/// query id equals, and flags a conflict at any position whose id is none of
/// them. The same decisions, in the same order, as a test of every query id
/// against the vocabulary; unknown terms are absent from the signature and
/// could never cover a value token or be a facet value.
pub(crate) fn annotation_boost(
    view: &IndexView<'_>,
    sig: &[TermId],
    masks: &FacetMasks,
    doc: DocId,
) -> f64 {
    let mut boost = 0.0;
    for (key, value_ids) in view.annotations(doc) {
        let mask = masks.of(key);
        if mask.iter().all(|&w| w == 0) || value_ids.is_empty() || value_ids.len() > 64 {
            // Empty value: nothing to match (and nothing to conflict with,
            // since a conflict is "a different value of *this* facet"). >64
            // tokens cannot happen for form-input values; skip rather than
            // score a facet we cannot track exactly.
            continue;
        }
        let full: u64 = u64::MAX >> (64 - value_ids.len());
        let mut covered: u64 = 0;
        let mut conflict = false;
        for (wi, &word) in mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let pos = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let Some(&qid) = sig.get(pos) else {
                    continue;
                };
                let mut is_value_token = false;
                for (vi, &v) in value_ids.iter().enumerate() {
                    if v == qid {
                        covered |= 1 << vi;
                        is_value_token = true;
                    }
                }
                // A known value of this facet that is not one of this
                // annotation's own tokens.
                conflict |= !is_value_token;
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

/// [`search_view`] through [`windowed_top_k`] whatever the query reads: how
/// the windowed kernel's tests reach it on corpora below the cutoff.
#[cfg(test)]
pub(crate) fn search_windowed(
    view: &IndexView<'_>,
    query: &str,
    k: usize,
    opts: SearchOptions,
    scratch: &mut QueryScratch,
) -> Vec<Hit> {
    scratch.analyze(query);
    scratch.resolve(view);
    let sig = std::mem::take(&mut scratch.sig);
    let hits = windowed_top_k(view, &sig, k, opts, scratch);
    scratch.sig = sig;
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::BatchDoc;
    use crate::index::SearchIndex;
    use deepweb_common::{ThreadPool, Url};

    fn index_of(docs: Vec<BatchDoc>) -> SearchIndex {
        let mut idx = SearchIndex::new();
        idx.add_batch(&ThreadPool::new(1), docs);
        idx
    }

    fn build() -> SearchIndex {
        index_of(vec![
            BatchDoc::surfaced(
                Url::new("a.sim", "/1"),
                "honda civics for sale",
                "1993 honda civic has better mileage than the ford focus",
                &[("make", "honda"), ("model", "civic")],
            ),
            BatchDoc::surfaced(
                Url::new("b.sim", "/2"),
                "ford focus listings",
                "used ford focus 1993 low price",
                &[("make", "ford"), ("model", "focus")],
            ),
            BatchDoc::page(
                Url::new("c.sim", "/3"),
                "cooking blog",
                "recipes and stories",
            ),
        ])
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
        let idx = index_of(vec![
            BatchDoc::surfaced(
                Url::new("a.sim", "/1"),
                "honda civics",
                "used honda civic listing in new york",
                &[("make", "Honda"), ("city", "new-york")],
            ),
            BatchDoc::surfaced(
                Url::new("b.sim", "/2"),
                "ford listing",
                "used ford focus listing in new york",
                &[("make", "Ford")],
            ),
        ]);
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
        let idx = index_of(vec![BatchDoc::surfaced(
            Url::new("a.sim", "/1"),
            "widget listing",
            "blue widget currently out stock",
            &[("status", "Out of Stock")],
        )]);
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
        let idx = index_of(vec![BatchDoc::surfaced(
            Url::new("a.sim", "/1"),
            "listing",
            "apartment in new york city",
            &[("city", "New-York")],
        )]);
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

    /// One doc in eight says `honda civic` 1 to 6 times and is annotated
    /// `make: honda`, the rest `make: ford`: the BM25 sums of the docs a
    /// `honda` query touches lie further apart than the 1.5 annotation
    /// bound, so a full heap lets the selection pass over some unread.
    fn graded(n: usize) -> SearchIndex {
        let docs = (0..n).map(|i| {
            let (make, text) = match i % 8 {
                0 => ("honda", vec!["honda civic"; 1 + (i / 8) % 6].join(" ")),
                _ => ("ford", format!("ford focus {i}")),
            };
            let url = Url::new("g.sim", format!("/{i}"));
            BatchDoc::surfaced(url, "", &(text + " listing"), &[("make", make)])
        });
        index_of(docs.collect())
    }

    /// `annotations_read` counts the docs whose annotations the last query
    /// read, in both kernels: fewer than the docs it touched at `k = 1`,
    /// all of them once `k` admits them all, none with annotations off or
    /// no facet value named — and the same at 1 and 3 workers.
    #[test]
    fn the_selection_pass_reads_only_docs_that_can_still_rank() {
        let idx = graded(400);
        let touched = idx.postings().df("honda");
        assert_eq!((touched, idx.postings().df("civic")), (50, 50));
        let ann = SearchOptions {
            use_annotations: true,
            ..Default::default()
        };
        // (query, k, annotations on, windowed kernel)
        let cases = [
            ("honda civic", 1, true, false),
            ("honda civic", 1, true, true),
            ("honda civic", 1000, true, false),
            ("honda civic", 1000, true, true),
            ("honda civic", 1, false, false),
            ("civic listing", 1, true, false),
            ("civic listing", 1, true, true),
        ];
        let run = |workers: usize| -> Vec<usize> {
            deepweb_common::ThreadPool::new(workers).map_indices_init(
                cases.len(),
                QueryScratch::new,
                |scratch, ci| {
                    let (q, k, use_annotations, windowed) = cases[ci];
                    let opts = SearchOptions {
                        use_annotations,
                        ..ann
                    };
                    let view = IndexView::sealed(&idx);
                    let hits = match windowed {
                        false => search_view(&view, q, k, opts, scratch),
                        true => search_windowed(&view, q, k, opts, scratch),
                    };
                    let read = scratch.annotations_read;
                    assert_eq!(hits, search(&idx, q, k, opts), "{:?}", cases[ci]);
                    read
                },
            )
        };
        let one = run(1);
        assert!(0 < one[0] && one[0] < touched, "fold: {one:?}");
        assert!(0 < one[1] && one[1] < touched, "windowed: {one:?}");
        assert_eq!(one[2..4], [touched, touched]);
        assert_eq!(one[4..], [0, 0, 0]);
        assert_eq!(run(3), one);
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
