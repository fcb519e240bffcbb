//! Block-max pruned top-k (DESIGN.md §14): a WAND-style document-at-a-time
//! kernel over the raw posting lists, steered by the [`BlockPostings`]
//! describing them, that skips doc regions whose guarded score upper bound
//! provably cannot reach the running top-k threshold — and still returns
//! **byte-identical** hits to the exhaustive reference.
//!
//! Why pruning preserves the determinism contract:
//!
//! - **Scored docs get the exact exhaustive score.** A doc is only scored
//!   when every query-term cursor that contains it sits exactly on it, and
//!   its contributions are folded in query-term (signature) order — the same
//!   floating-point sequence the exhaustive `scores[doc] += c` fold runs,
//!   starting from the same `0.0`. The annotation boost is added after the
//!   term sum, exactly like the exhaustive pass.
//! - **Skipped docs could never be kept.** Every skip tests a *guarded*
//!   upper bound: `guard_ub` inflates a bound by a relative `1e-9` plus an
//!   absolute `1e-12` before comparing — orders of magnitude more than the
//!   few-ulp wiggle floating-point reordering can introduce — and the test
//!   is strict (`<` the threshold), so a doc that ties the current k-th hit
//!   is always scored and the heap's explicit tie-break decides, exactly as
//!   in the exhaustive path.
//! - **The heap is insertion-order independent.** The bounded top-k heap
//!   evicts under the same strict total order (score desc, doc id asc) as
//!   the final sort, so feeding it the surviving docs in doc-id order (this
//!   kernel) or in first-touch order (the exhaustive fold) keeps the same k
//!   entries bit-for-bit.

use crate::docstore::AnnotationIds;
use crate::index::SearchIndex;
use crate::postings::{
    bm25_contribution, BlockPostings, Posting, PostingBlock, Postings, POSTINGS_BLOCK_SIZE,
};
use crate::searcher::{
    admit, annotation_boost, drain_heap_topk, Bm25Params, HeapEntry, Hit, QueryScratch,
    SearchOptions, ANNOTATION_BOOST,
};
use crate::view::{doc_bound, IndexView};
use deepweb_common::ids::{DocId, TermId};

/// Doc-id sentinel for an exhausted cursor (beyond any real doc id).
const EXHAUSTED: u32 = u32::MAX;

/// Inflate a computed score upper bound before comparing it against the
/// running threshold. Real-arithmetic bounds dominate real scores by
/// construction; floating-point evaluation can wiggle either side by a few
/// ulps (~1e-15 relative), so the margin — 1e-9 relative plus 1e-12 absolute
/// — keeps every skip decision safe with six orders of magnitude to spare.
#[inline]
pub(crate) fn guard_ub(x: f64) -> f64 {
    x * (1.0 + 1e-9) + 1e-12
}

/// What one query's cursors walk (the raw `lists`, as `bp` describes them)
/// and its block bounds are computed from, fixed for the query.
struct Bounds<'a> {
    bp: &'a BlockPostings,
    lists: &'a Postings,
    avg_len: f64,
    bm25: Bm25Params,
    /// The stored maxima hold for this query: it runs the build `(k1, b)`
    /// and no pending segment has moved `idf` or `avg_len` since the build.
    stored_exact: bool,
}

impl Bounds<'_> {
    /// One block's score upper bound: the stored exact maximum when it holds,
    /// else recomputed from the block's `(max_tf, min_dl)` — contributions
    /// grow with tf and shrink with doc length, so the pair bounds every
    /// posting at any `idf ≥ 0`, `avg_len > 0` and `(k1 > 0, 0 ≤ b ≤ 1)`.
    #[inline]
    fn block_ub(&self, block: &PostingBlock, idf: f64) -> f64 {
        if self.stored_exact {
            block.max_contrib
        } else {
            bm25_contribution(
                idf,
                f64::from(block.max_tf),
                f64::from(block.min_dl),
                self.avg_len,
                self.bm25.k1,
                self.bm25.b,
            )
        }
    }
}

/// The serving-side pruning structures built over a finished index: the
/// block index plus the index-wide annotation-boost upper bound.
/// Built once by [`SearchIndex::enable_pruning`]; any later mutation of the
/// index drops it (stale bounds could unsafely skip). The freshness tier's
/// merge instead *extends* the sealed base's structures over the docs it
/// folds in (`PruningIndex::extended`).
///
/// [`SearchIndex::enable_pruning`]: crate::index::SearchIndex::enable_pruning
#[derive(Clone, Debug)]
pub struct PruningIndex {
    blocks: BlockPostings,
    /// Upper bound on any doc's annotation *boost*: [`ANNOTATION_BOOST`] per
    /// trackable annotation (1–64 value tokens) of the most-annotated doc.
    /// Penalties only lower scores, so they never enter a bound.
    ann_ub: f64,
    /// Docs of the index these structures cover.
    docs: usize,
}

impl PruningIndex {
    /// Build the block index (with [`POSTINGS_BLOCK_SIZE`]-posting blocks
    /// bounded at the default BM25 parameters) and the annotation bound:
    /// `PruningIndex::extended` from the structures of the empty index.
    pub fn build(index: &SearchIndex) -> Self {
        Self::empty(POSTINGS_BLOCK_SIZE).extended(index)
    }

    /// The structures of the empty index, its blocks `block_size` postings
    /// each (tests build other sizes: the kernel serves what it is handed).
    fn empty(block_size: usize) -> Self {
        let Bm25Params { k1, b } = Bm25Params::default();
        PruningIndex {
            blocks: BlockPostings::empty(block_size, k1, b),
            ann_ub: 0.0,
            docs: 0,
        }
    }

    /// The structures over all of `index`, given `self` over its first
    /// `self.docs` documents — equal to [`PruningIndex::build`] of `index`,
    /// at the cost of what was appended ([`BlockPostings::extended`]) plus
    /// one pass of exact block maxima. The annotation bound folds only the
    /// new docs into the stored maximum.
    pub(crate) fn extended(&self, index: &SearchIndex) -> Self {
        let trackable = |anns: &[AnnotationIds]| {
            let boostable = |a: &&AnnotationIds| (1..=64).contains(&a.terms.len());
            anns.iter().filter(boostable).count()
        };
        let max_anns = (doc_bound(self.docs)..doc_bound(index.len()))
            .map(|id| trackable(&index.doc(DocId(id)).annotation_ids))
            .max()
            .unwrap_or(0);
        PruningIndex {
            blocks: self.blocks.extended(index.postings()),
            ann_ub: self.ann_ub.max(ANNOTATION_BOOST * max_anns as f64),
            docs: index.len(),
        }
    }

    /// The block index.
    pub fn blocks(&self) -> &BlockPostings {
        &self.blocks
    }

    /// Upper bound on any single doc's annotation boost.
    pub fn annotation_upper_bound(&self) -> f64 {
        self.ann_ub
    }
}

/// One query term's position: which block of the block index and which
/// posting of the term's raw list it currently sits on, plus the term-level
/// bound. It holds positions, never postings, so [`PrunedScratch`] recycles
/// it across queries and indexes.
pub(crate) struct PrunedCursor {
    id: TermId,
    idf: f64,
    /// Max block bound over this term's in-range blocks.
    term_ub: f64,
    /// End of the in-range block window within the term's block slice.
    blocks_hi: usize,
    /// Current block (absolute index into the term's block slice).
    cur_block: usize,
    /// Which block `block_end` and `block_ub` hold (`usize::MAX` = none).
    entered_block: usize,
    /// The entered block's bound ([`Bounds::block_ub`]).
    block_ub: f64,
    /// Position within the term's raw list.
    pos: usize,
    /// Where the entered block ends in the term's raw list.
    block_end: usize,
    /// Current doc id ([`EXHAUSTED`] when past the range).
    cur_doc: u32,
    /// Term frequency of the current posting.
    cur_tf: u32,
}

impl Default for PrunedCursor {
    fn default() -> Self {
        PrunedCursor {
            id: TermId(0),
            idf: 0.0,
            term_ub: 0.0,
            blocks_hi: 0,
            cur_block: 0,
            entered_block: usize::MAX,
            block_ub: 0.0,
            pos: 0,
            block_end: 0,
            cur_doc: EXHAUSTED,
            cur_tf: 0,
        }
    }
}

impl PrunedCursor {
    /// Point the cursor at term `id`'s first posting with doc ≥ `lo` inside
    /// `[lo, hi)`, computing the in-range block window and term bound.
    fn init(&mut self, id: TermId, idf: f64, cx: &Bounds<'_>, lo: u32, hi: u32) {
        self.id = id;
        self.idf = idf;
        let blocks = cx.bp.term_blocks(id);
        self.cur_block = blocks.partition_point(|b| b.last_doc < lo);
        self.blocks_hi =
            self.cur_block + blocks[self.cur_block..].partition_point(|b| b.first_doc < hi);
        self.term_ub = blocks[self.cur_block..self.blocks_hi]
            .iter()
            .map(|b| cx.block_ub(b, idf))
            .fold(0.0, f64::max);
        self.entered_block = usize::MAX;
        self.cur_doc = EXHAUSTED;
        self.position(cx, lo, hi);
    }

    fn exhausted(&self) -> bool {
        self.cur_doc == EXHAUSTED
    }

    /// Find the current block in a raw list of `df` postings and bound it —
    /// once per block entered, so no pivot test re-evaluates a bound.
    fn enter_block(&mut self, cx: &Bounds<'_>, df: usize) {
        let block = &cx.bp.term_blocks(self.id)[self.cur_block];
        let span = cx.bp.block_span(df, self.cur_block);
        self.block_ub = cx.block_ub(block, self.idf);
        self.entered_block = self.cur_block;
        self.pos = span.start;
        self.block_end = span.end;
    }

    /// Land on the first posting with doc ≥ `target` (from the current
    /// position forward), entering at most the block it lives in.
    fn position(&mut self, cx: &Bounds<'_>, target: u32, hi: u32) {
        let blocks = cx.bp.term_blocks(self.id);
        while self.cur_block < self.blocks_hi && blocks[self.cur_block].last_doc < target {
            self.cur_block += 1;
        }
        if self.cur_block >= self.blocks_hi {
            self.cur_doc = EXHAUSTED;
            return;
        }
        let list = cx.lists.postings_id(self.id);
        if self.entered_block != self.cur_block {
            self.enter_block(cx, list.len());
        }
        // Safe: this block's last_doc ≥ target, so a qualifying posting
        // exists at or after `pos`.
        while list[self.pos].doc.0 < target {
            self.pos += 1;
        }
        self.land(list, hi);
    }

    /// Advance to the first posting with doc ≥ `target` (no-op if already
    /// there).
    fn seek_ge(&mut self, cx: &Bounds<'_>, target: u32, hi: u32) {
        if self.exhausted() || self.cur_doc >= target {
            return;
        }
        self.position(cx, target, hi);
    }

    /// Step to the next posting.
    fn advance_one(&mut self, cx: &Bounds<'_>, hi: u32) {
        let list = cx.lists.postings_id(self.id);
        self.pos += 1;
        if self.pos >= self.block_end {
            self.cur_block += 1;
            if self.cur_block >= self.blocks_hi {
                self.cur_doc = EXHAUSTED;
                return;
            }
            self.enter_block(cx, list.len());
        }
        self.land(list, hi);
    }

    /// Sit on `list[pos]`, or past the range if it lies at or beyond `hi`.
    fn land(&mut self, list: &[Posting], hi: u32) {
        let Posting { doc, tf } = list[self.pos];
        self.cur_doc = if doc.0 >= hi { EXHAUSTED } else { doc.0 };
        self.cur_tf = tf;
    }

    /// Doc id of the current block's last posting (the skip pointer).
    fn cur_block_last(&self, cx: &Bounds<'_>) -> u32 {
        cx.bp.term_blocks(self.id)[self.cur_block].last_doc
    }
}

/// Recycled state for the pruned kernel: the cursors and the doc-order
/// index, reused across queries like every other scratch buffer.
#[derive(Default)]
pub(crate) struct PrunedScratch {
    cursors: Vec<PrunedCursor>,
    order: Vec<usize>,
    /// Docs the last query scored in full (pruning saved the rest of its
    /// postings): a pure function of (view, query, k, options).
    pub(crate) docs_scored: usize,
}

/// Block-max WAND over `[lo, hi)`: the pruned equivalent of scoring every
/// sig term's postings in that doc range and selecting top-k — byte-identical
/// to that exhaustive fold (see module docs for the argument). Runs on the
/// scratch's recycled heap and cursor buffers; the dense score accumulator
/// is untouched. `pr` indexes the base's postings only, so a non-empty range
/// must lie inside the base; idf and the average doc length are the *view's*,
/// and with a segment pending every bound is recomputed under them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pruned_topk_range(
    view: &IndexView<'_>,
    pr: &PruningIndex,
    sig: &[TermId],
    k: usize,
    opts: SearchOptions,
    lo: u32,
    hi: u32,
    scratch: &mut QueryScratch,
) -> Vec<Hit> {
    debug_assert!(lo >= hi || hi as usize <= view.base.len());
    let postings = view.base.postings();
    let bp = pr.blocks();
    let cx = Bounds {
        bp,
        lists: postings,
        avg_len: view.avg_doc_len(),
        bm25: opts.bm25,
        stored_exact: view.segments.is_empty() && opts.bm25.k1 == bp.k1() && opts.bm25.b == bp.b(),
    };
    let ann_ub = if opts.use_annotations {
        pr.annotation_upper_bound()
    } else {
        0.0
    };
    let mut state = std::mem::take(&mut scratch.pruned);
    if state.cursors.len() < sig.len() {
        state.cursors.resize_with(sig.len(), Default::default);
    }
    // One cursor per signature term, in signature (scoring) order; terms
    // with no postings in range drop out immediately.
    let mut n = 0usize;
    for &id in sig {
        let c = &mut state.cursors[n];
        c.init(id, view.idf(id), &cx, lo, hi);
        if !c.exhausted() {
            n += 1;
        }
    }
    scratch.heap.clear();
    let PrunedScratch { cursors, order, .. } = &mut state;
    let mut docs_scored = 0usize;
    order.clear();
    order.extend(0..n);
    while !order.is_empty() {
        order.sort_unstable_by_key(|&ci| cursors[ci].cur_doc);
        let threshold = if scratch.heap.len() == k {
            scratch.heap.peek().map_or(f64::NEG_INFINITY, |e| e.0)
        } else {
            f64::NEG_INFINITY
        };
        // Pivot: the shortest prefix (in doc order) whose guarded term-bound
        // sum could reach the threshold. No pivot → nothing left can.
        let mut acc = ann_ub;
        let mut pivot = None;
        for (oi, &ci) in order.iter().enumerate() {
            acc += cursors[ci].term_ub;
            if guard_ub(acc) >= threshold {
                pivot = Some(oi);
                break;
            }
        }
        let Some(p) = pivot else {
            break;
        };
        let d_p = cursors[order[p]].cur_doc;
        // detlint:allow(panic-in-serving): `order` is non-empty (loop guard) so index 0 exists
        if cursors[order[0]].cur_doc < d_p {
            // Docs below the pivot doc live only in the lagging prefix,
            // whose bound sum cannot reach the threshold: skip them all.
            for &ci in &order[..p] {
                cursors[ci].seek_ge(&cx, d_p, hi);
            }
        } else {
            // Every cursor containing d_p sits exactly on it (the run).
            let run_end = order
                .iter()
                .position(|&ci| cursors[ci].cur_doc != d_p)
                .unwrap_or(order.len());
            // Block-max refinement: if even the current blocks' maxima
            // cannot reach the threshold, jump past the whole region the
            // run's blocks (and the next term's doc) pin down.
            let mut bacc = ann_ub;
            for &ci in &order[..run_end] {
                bacc += cursors[ci].block_ub;
            }
            if guard_ub(bacc) < threshold {
                let mut skip_to = hi;
                for &ci in &order[..run_end] {
                    let last = cursors[ci].cur_block_last(&cx);
                    skip_to = skip_to.min(last.saturating_add(1));
                }
                if run_end < order.len() {
                    skip_to = skip_to.min(cursors[order[run_end]].cur_doc);
                }
                for &ci in &order[..run_end] {
                    cursors[ci].seek_ge(&cx, skip_to, hi);
                }
            } else {
                // Score d_p exactly: contributions in signature order (the
                // cursors vector is built in that order), then the
                // annotation boost — the exhaustive fold's f64 sequence.
                let dl = f64::from(postings.doc_len(DocId(d_p)));
                let mut score = 0.0f64;
                for c in cursors[..n].iter() {
                    if c.cur_doc == d_p {
                        score += bm25_contribution(
                            c.idf,
                            f64::from(c.cur_tf),
                            dl,
                            cx.avg_len,
                            opts.bm25.k1,
                            opts.bm25.b,
                        );
                    }
                }
                if opts.use_annotations {
                    score += annotation_boost(view, sig, DocId(d_p));
                }
                docs_scored += 1;
                admit(&mut scratch.heap, k, HeapEntry(score, d_p));
                for &ci in &order[..run_end] {
                    cursors[ci].advance_one(&cx, hi);
                }
            }
        }
        order.retain(|&ci| !cursors[ci].exhausted());
    }
    state.docs_scored = docs_scored;
    scratch.pruned = state;
    drain_heap_topk(&mut scratch.heap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::{Annotation, DocKind};
    use crate::searcher::{search, top_k_range, PruningMode};
    use deepweb_common::Url;

    /// A corpus big enough to span many blocks for the common terms, with
    /// annotations on a slice of docs.
    fn build(n: usize) -> SearchIndex {
        let mut idx = SearchIndex::new();
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let makes = ["honda", "ford", "toyota", "bmw"];
        for i in 0..n {
            let make = makes[(next() % 4) as usize];
            let mut text = format!("{make} listing number {i}");
            for _ in 0..(next() % 6) {
                text.push_str(" common");
            }
            if next() % 11 == 0 {
                text.push_str(" rareterm");
            }
            let anns = if next() % 3 == 0 {
                vec![Annotation {
                    key: "make".into(),
                    value: make.to_string(),
                }]
            } else {
                vec![]
            };
            idx.add(
                Url::new("x.sim", format!("/d{i}")),
                String::new(),
                text,
                DocKind::Surfaced,
                None,
                anns,
            );
        }
        idx.enable_pruning();
        idx
    }

    const QUERIES: [&str; 8] = [
        "honda listing",
        "common",
        "rareterm common",
        "ford toyota bmw honda",
        "rareterm",
        "listing number common honda",
        "zzz-unknown common",
        "",
    ];

    #[test]
    fn k_zero_returns_empty_without_panic() {
        // Regression: the block-max threshold once `expect`ed a non-empty
        // heap whenever it was "full" — which an empty heap trivially is at
        // k = 0, so any matching query panicked instead of returning nothing.
        let idx = build(50);
        let pruned = SearchOptions {
            pruning: PruningMode::BlockMax,
            ..Default::default()
        };
        for q in QUERIES {
            assert!(search(&idx, q, 0, pruned).is_empty(), "q={q:?}");
        }
    }

    #[test]
    fn pruned_equals_exhaustive_sequential() {
        let idx = build(400);
        for use_annotations in [false, true] {
            let exhaustive = SearchOptions {
                use_annotations,
                ..Default::default()
            };
            let pruned = SearchOptions {
                pruning: PruningMode::BlockMax,
                ..exhaustive
            };
            for k in [1usize, 3, 10, 100, 1000] {
                for q in QUERIES {
                    assert_eq!(
                        search(&idx, q, k, pruned),
                        search(&idx, q, k, exhaustive),
                        "q={q:?} k={k} ann={use_annotations}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_equals_exhaustive_per_partition_range() {
        let idx = build(300);
        let view = IndexView::sealed(&idx);
        let mut scratch = QueryScratch::new();
        let exhaustive = SearchOptions::default();
        let pruned = SearchOptions {
            pruning: PruningMode::BlockMax,
            ..exhaustive
        };
        for q in ["honda listing", "common rareterm", "ford common"] {
            scratch.analyze(q);
            scratch.resolve(&view);
            let sig = scratch.resolved_sig().to_vec();
            for (lo, hi) in [(0u32, 300u32), (0, 77), (77, 150), (150, 300), (299, 300)] {
                let want = top_k_range(&view, &sig, 5, exhaustive, lo, hi, &mut scratch);
                let got = top_k_range(&view, &sig, 5, pruned, lo, hi, &mut scratch);
                assert_eq!(got, want, "q={q:?} range={lo}..{hi}");
            }
        }
    }

    /// The kernel asks the index where a block sits; it never assumes
    /// [`POSTINGS_BLOCK_SIZE`]. Block indexes of one posting, three, the
    /// serving size and one block per term must all return the exhaustive
    /// fold's bytes, over the full range and over partition ranges.
    #[test]
    fn pruned_equals_exhaustive_at_every_block_size() {
        let idx = build(300);
        let view = IndexView::sealed(&idx);
        let mut scratch = QueryScratch::new();
        for block_size in [1usize, 3, POSTINGS_BLOCK_SIZE, 1000] {
            let pr = PruningIndex::empty(block_size).extended(&idx);
            let common = idx.postings().term_id("common").unwrap();
            assert_eq!(
                pr.blocks().term_blocks(common).len(),
                idx.postings().df_id(common).div_ceil(block_size)
            );
            for use_annotations in [false, true] {
                let opts = SearchOptions {
                    use_annotations,
                    ..Default::default()
                };
                for q in QUERIES {
                    scratch.analyze(q);
                    scratch.resolve(&view);
                    let sig = scratch.resolved_sig().to_vec();
                    for (lo, hi) in [(0u32, 300u32), (0, 77), (77, 150), (150, 300), (299, 300)] {
                        for k in [1usize, 5, 1000] {
                            let want = top_k_range(&view, &sig, k, opts, lo, hi, &mut scratch);
                            let got =
                                pruned_topk_range(&view, &pr, &sig, k, opts, lo, hi, &mut scratch);
                            assert_eq!(
                                got, want,
                                "size={block_size} q={q:?} k={k} range={lo}..{hi} ann={use_annotations}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_default_bm25_params_recompute_bounds_and_stay_exact() {
        let idx = build(250);
        let base = SearchOptions {
            bm25: Bm25Params { k1: 0.4, b: 0.2 },
            ..Default::default()
        };
        let pruned = SearchOptions {
            pruning: PruningMode::BlockMax,
            ..base
        };
        for q in QUERIES {
            assert_eq!(
                search(&idx, q, 10, pruned),
                search(&idx, q, 10, base),
                "q={q:?}"
            );
        }
    }

    #[test]
    fn blockmax_without_built_index_falls_back_to_exhaustive() {
        let mut idx = build(50);
        // Mutating the index drops the pruning structures.
        idx.add(
            Url::new("late.sim", "/new"),
            String::new(),
            "honda listing late addition".into(),
            DocKind::Surface,
            None,
            vec![],
        );
        assert!(idx.pruning().is_none(), "mutation must invalidate");
        let pruned = SearchOptions {
            pruning: PruningMode::BlockMax,
            ..Default::default()
        };
        for q in QUERIES {
            assert_eq!(
                search(&idx, q, 10, pruned),
                search(&idx, q, 10, SearchOptions::default()),
                "q={q:?}"
            );
        }
    }

    #[test]
    fn guards_are_conservative() {
        for x in [0.0f64, 1e-300, 1.0, 123.456, 1e12] {
            assert!(guard_ub(x) > x);
        }
        assert!(guard_ub(f64::NEG_INFINITY) == f64::NEG_INFINITY || guard_ub(0.0) > 0.0);
    }
}
