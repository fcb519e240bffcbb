//! Block-max pruned top-k (DESIGN.md §14): windowed MaxScore over the raw
//! posting lists, steered by the [`BlockPostings`] describing them. The doc
//! range is walked in windows of `WINDOW` docs; per window the terms whose
//! block bounds together cannot reach the running top-k threshold are set
//! aside as *non-essential*, the rest are folded in bulk, and only docs that
//! hold a folded term and could still reach the threshold are scored — and
//! the hits are still **byte-identical** to the exhaustive reference's.
//!
//! Why pruning preserves the determinism contract:
//!
//! - **Scored docs get the exact exhaustive score.** A doc is only scored
//!   once the contribution of every query term that contains it is known —
//!   folded into its window lane, or sought in a non-essential list — and
//!   the contributions are folded in query-term (signature) order, an absent
//!   term as `+ 0.0` (and `x + 0.0 == x` bit for bit) — the same
//!   floating-point sequence the exhaustive `scores[doc] += c` fold runs,
//!   starting from the same `0.0`. The annotation boost is added after the
//!   term sum, exactly like the exhaustive pass.
//! - **Skipped docs could never be kept.** Every skip — a whole window, a
//!   doc holding dropped terms only, a candidate discarded on what it is
//!   known to hold — tests a *guarded* upper bound: `guard_ub` inflates a
//!   bound by a relative `1e-9` plus an absolute `1e-12` before comparing —
//!   orders of magnitude more than the few-ulp wiggle floating-point
//!   reordering can introduce — and the test is strict (`<` the threshold,
//!   which is `-∞` until the heap holds `k`), so a doc that ties the current
//!   k-th hit is always scored and the heap's explicit tie-break decides,
//!   exactly as in the exhaustive path.
//! - **The heap is insertion-order independent.** The bounded top-k heap
//!   evicts under the same strict total order (score desc, doc id asc) as
//!   the final sort, so feeding it the surviving docs in doc-id order (this
//!   kernel) or in first-touch order (the exhaustive fold) keeps the same k
//!   entries bit-for-bit.

use crate::docstore::AnnotationIds;
use crate::index::SearchIndex;
use crate::postings::{
    bm25_contribution, BlockPostings, Posting, PostingBlock, POSTINGS_BLOCK_SIZE,
};
use crate::searcher::{
    admit, annotation_boost, drain_heap_topk, Bm25Params, HeapEntry, Hit, QueryScratch,
    SearchOptions, ANNOTATION_BOOST,
};
use crate::view::{doc_bound, IndexView};
use deepweb_common::ids::{DocId, TermId};
use std::collections::BinaryHeap;

/// Inflate a computed score upper bound before comparing it against the
/// running threshold. Real-arithmetic bounds dominate real scores by
/// construction; floating-point evaluation can wiggle either side by a few
/// ulps (~1e-15 relative), so the margin — 1e-9 relative plus 1e-12 absolute
/// — keeps every skip decision safe with six orders of magnitude to spare.
#[inline]
pub(crate) fn guard_ub(x: f64) -> f64 {
    x * (1.0 + 1e-9) + 1e-12
}

/// What one query's block bounds are computed from, fixed for the query.
struct Bounds {
    avg_len: f64,
    bm25: Bm25Params,
    /// The stored maxima hold for this query: it runs the default `(k1, b)`
    /// and no pending segment has moved `idf` or `avg_len` since the build.
    stored_exact: bool,
}

impl Bounds {
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
/// Built once by [`SearchIndex::enable_pruning`]; a document added later
/// drops it (stale bounds could unsafely skip). The freshness tier's
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
        PruningIndex {
            blocks: BlockPostings::empty(block_size),
            ann_ub: 0.0,
        }
    }

    /// The structures over all of `index`, given `self` over its first
    /// `self.blocks.docs` documents — equal to [`PruningIndex::build`] of
    /// `index`, at the cost of what was appended ([`BlockPostings::extended`])
    /// plus one pass of exact block maxima. The annotation bound folds only the
    /// new docs into the stored maximum.
    pub(crate) fn extended(&self, index: &SearchIndex) -> Self {
        let trackable = |anns: &[AnnotationIds]| {
            let boostable = |a: &&AnnotationIds| (1..=64).contains(&a.terms.len());
            anns.iter().filter(boostable).count()
        };
        let max_anns = (self.blocks.docs..doc_bound(index.len()))
            .map(|id| trackable(&index.doc(DocId(id)).annotation_ids))
            .max()
            .unwrap_or(0);
        PruningIndex {
            blocks: self.blocks.extended(index.postings()),
            ann_ub: self.ann_ub.max(ANNOTATION_BOOST * max_anns as f64),
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

/// Docs per scoring window. A constant, not a knob. A window's essential
/// slices are folded whole under the threshold it *starts* with — the first
/// under none at all — so an index saves fold work only if it spans several
/// windows: 256 keeps that true of the 700-doc bases the freshness tests seal
/// (`tests::every_skip_site_engages_and_counts_do_not_depend_on_workers`
/// pins it). Wider buys per-window set-up only (DESIGN.md §14 has the
/// probe's readings). A multiple of 64: the window bitmap is whole words.
const WINDOW: usize = 256;

/// One query term's place in its raw list, fixed for the query (`id`, `idf`,
/// `range_end`) or for the current window (the rest). Positions, never
/// postings, so [`PrunedScratch`] recycles it across queries and indexes.
struct TermWindow {
    id: TermId,
    idf: f64,
    /// First posting not yet behind a window or a candidate.
    pos: usize,
    /// Doc of the first posting not yet behind a window, while one is left
    /// in range.
    next_doc: Option<u32>,
    /// End of the window's slice `list[pos..win_end]`.
    win_end: usize,
    /// First posting at or beyond the query's `hi`.
    range_end: usize,
    /// Max [`Bounds::block_ub`] over the blocks the window's slice falls in.
    ub: f64,
    /// Folded into its lane this window (else sought for surviving
    /// candidates only).
    essential: bool,
    /// Dropped: what the dropped terms after this one in the signature can
    /// add to a doc, annotation bound included.
    rest_ub: f64,
    /// Contribution to the candidate being scored (0.0 where absent).
    contrib: f64,
}

impl TermWindow {
    /// Leave the window behind: the doc of the next posting in range, if any.
    fn step_over(&mut self, list: &[Posting]) -> Option<u32> {
        self.pos = self.win_end;
        self.next_doc = list[..self.range_end].get(self.pos).map(|p| p.doc.0);
        self.next_doc
    }
}

/// Recycled state for the pruned kernel, reused across queries like every
/// other scratch buffer, and the last query's deterministic counters — each
/// a pure function of (view, query, k, options), identical at any worker
/// count.
#[derive(Default)]
pub(crate) struct PrunedScratch {
    /// The signature terms with a posting in range, in signature order.
    terms: Vec<TermWindow>,
    /// `WINDOW` rows of one `f64` per term: row `doc - window start` holds
    /// that doc's contributions in signature order. All zeros between
    /// windows (a scored or discarded candidate's row is zeroed on the spot).
    lanes: Vec<f64>,
    /// Docs the last query scored in full (pruning saved the rest of its
    /// postings).
    pub(crate) docs_scored: usize,
    /// Windows stepped over whole: no posting in them was read.
    pub(crate) windows_skipped: usize,
    /// Candidates discarded on what they were known to hold, before every
    /// dropped term had been consulted.
    pub(crate) candidates_dropped: usize,
    /// Postings whose contribution was computed: the essential slices, plus
    /// each non-essential posting a surviving candidate landed on.
    pub(crate) postings_folded: usize,
}

/// First index in `list[from..to]` whose doc is ≥ `doc`, by doubling steps
/// and then a binary search between the last two: logarithmic in the
/// distance moved, not in the slice.
fn gallop(list: &[Posting], from: usize, to: usize, doc: u32) -> usize {
    let (mut lo, mut step) = (from, 1);
    while lo + step <= to && list[lo + step - 1].doc.0 < doc {
        lo += step;
        step *= 2;
    }
    lo + list[lo..to.min(lo + step)].partition_point(|p| p.doc.0 < doc)
}

/// Windowed block-max MaxScore over `[lo, hi)`: the pruned equivalent of
/// scoring every sig term's postings in that doc range and selecting top-k —
/// byte-identical to that exhaustive fold (see module docs for the argument).
/// Runs on the scratch's recycled heap and window buffers; the dense score
/// accumulator is untouched. `pr` indexes the base's postings only, so a
/// non-empty range must lie inside the base; idf and the average doc length
/// are the *view's*, and with a segment pending every bound is recomputed
/// under them.
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
        avg_len: view.avg_doc_len(),
        bm25: opts.bm25,
        stored_exact: view.segments.is_empty() && opts.bm25 == Bm25Params::default(),
    };
    let ann_ub = if opts.use_annotations {
        pr.annotation_upper_bound()
    } else {
        0.0
    };
    let contribution = |idf: f64, p: &Posting| {
        let dl = f64::from(postings.doc_len(p.doc));
        bm25_contribution(idf, f64::from(p.tf), dl, cx.avg_len, cx.bm25.k1, cx.bm25.b)
    };
    let PrunedScratch { terms, lanes, .. } = &mut scratch.pruned;
    // One entry per signature term with a posting in range, in signature
    // (scoring) order. A term the base never saw (an overlay id) has no
    // blocks and no list here.
    terms.clear();
    for &id in sig {
        if bp.term_blocks(id).is_empty() {
            continue;
        }
        let list = postings.postings_id(id);
        let pos = list.partition_point(|p| p.doc.0 < lo);
        let range_end = pos + list[pos..].partition_point(|p| p.doc.0 < hi);
        if pos < range_end {
            terms.push(TermWindow {
                id,
                idf: view.idf(id),
                pos,
                next_doc: None,
                win_end: pos,
                range_end,
                ub: 0.0,
                essential: true,
                rest_ub: 0.0,
                contrib: 0.0,
            });
        }
    }
    let n = terms.len();
    if lanes.len() < n * WINDOW {
        lanes.resize(n * WINDOW, 0.0);
    }
    let heap = &mut scratch.heap;
    heap.clear();
    // The k-th best score so far; −∞ (nothing is ever skipped) until the
    // heap holds k.
    let kth = |heap: &BinaryHeap<HeapEntry>| match heap.peek() {
        Some(worst) if heap.len() == k => worst.0,
        _ => f64::NEG_INFINITY,
    };
    let mut threshold = kth(heap);
    let (mut docs_scored, mut windows_skipped) = (0usize, 0usize);
    let (mut candidates_dropped, mut postings_folded) = (0usize, 0usize);
    let mut marked = [0u64; WINDOW / 64];
    // Each window starts at the lowest doc any term holds beyond the last.
    while let Some(win_lo) = terms
        .iter_mut()
        .filter_map(|t| t.step_over(postings.postings_id(t.id)))
        .min()
    {
        let win_hi = hi.min(win_lo.saturating_add(WINDOW as u32));
        let mut window_ub = ann_ub;
        for t in terms.iter_mut() {
            t.essential = true;
            t.win_end = t.pos;
            t.ub = 0.0;
            if t.next_doc.is_some_and(|doc| doc < win_hi) {
                let list = postings.postings_id(t.id);
                // Doc ids are distinct: the slice holds at most WINDOW postings.
                let reach = t.range_end.min(t.pos + WINDOW);
                t.win_end = gallop(list, t.pos, reach, win_hi);
                for block in bp.blocks_over(t.id, t.pos..t.win_end) {
                    t.ub = t.ub.max(cx.block_ub(block, t.idf));
                }
                window_ub += t.ub;
            }
        }
        if guard_ub(window_ub) < threshold {
            // No doc of the window can reach the threshold: step over it.
            windows_skipped += 1;
            continue;
        }
        // Essential split: drop the lowest-bound terms while a doc holding
        // only what is dropped still could not reach the threshold.
        let mut dropped_ub = ann_ub;
        while let Some(t) = terms
            .iter_mut()
            .filter(|t| t.essential)
            .min_by(|a, b| a.ub.total_cmp(&b.ub))
        {
            if guard_ub(dropped_ub + t.ub) < threshold {
                dropped_ub += t.ub;
                t.essential = false;
            } else {
                break;
            }
        }
        // What the dropped terms after each one (in signature order, the
        // order candidates consult them in) can still add.
        let mut rest_ub = ann_ub;
        for t in terms.iter_mut().rev().filter(|t| !t.essential) {
            t.rest_ub = rest_ub;
            rest_ub += t.ub;
        }
        // Fold the essential slices: one store per posting into the term's
        // lane of the doc's row, one bit in the window bitmap.
        for (ti, t) in terms.iter_mut().enumerate().filter(|(_, t)| t.essential) {
            for p in &postings.postings_id(t.id)[t.pos..t.win_end] {
                let off = (p.doc.0 - win_lo) as usize;
                lanes[off * n + ti] = contribution(t.idf, p);
                marked[off / 64] |= 1 << (off % 64);
            }
            postings_folded += t.win_end - t.pos;
        }
        // Candidates — docs holding an essential term — in doc order.
        for (wi, word) in marked.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let off = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let doc = win_lo + off as u32;
                // Taking the lanes leaves the row zeroed for the next window.
                let mut partial = 0.0f64;
                for (t, lane) in terms.iter_mut().zip(&mut lanes[off * n..][..n]) {
                    t.contrib = std::mem::take(lane);
                    partial += t.contrib;
                }
                // Discard the candidate as soon as what it is known to hold,
                // plus all the dropped terms not yet consulted could add,
                // cannot reach the threshold.
                let mut rest_ub = dropped_ub;
                for t in terms.iter_mut().filter(|t| !t.essential) {
                    if guard_ub(partial + rest_ub) < threshold {
                        break;
                    }
                    let list = postings.postings_id(t.id);
                    t.pos = gallop(list, t.pos, t.win_end, doc);
                    if t.pos < t.win_end && list[t.pos].doc.0 == doc {
                        t.contrib = contribution(t.idf, &list[t.pos]);
                        partial += t.contrib;
                        postings_folded += 1;
                    }
                    rest_ub = t.rest_ub;
                }
                if guard_ub(partial + rest_ub) < threshold {
                    candidates_dropped += 1;
                    continue;
                }
                // Contributions fold in signature order from 0.0, an absent
                // one as `+ 0.0`: the exhaustive `scores[doc] += c` sequence.
                let mut score = terms.iter().fold(0.0, |s, t| s + t.contrib);
                if opts.use_annotations {
                    score += annotation_boost(view, sig, DocId(doc));
                }
                docs_scored += 1;
                admit(heap, k, HeapEntry(score, doc));
                threshold = kth(heap);
            }
        }
    }
    scratch.pruned.docs_scored = docs_scored;
    scratch.pruned.windows_skipped = windows_skipped;
    scratch.pruned.candidates_dropped = candidates_dropped;
    scratch.pruned.postings_folded = postings_folded;
    drain_heap_topk(heap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::{Annotation, DocKind};
    use crate::index::BatchDoc;
    use crate::searcher::{merge_topk, search, top_k_range, PruningMode};
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
            let sig = scratch.sig.clone();
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
                    let sig = scratch.sig.clone();
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

    /// Facet vocabulary added after `enable_pruning` — a known key, a new
    /// key, a value token that is a new term — moves no block maximum, no
    /// idf and no annotation bound, so the block index stays and the pruned
    /// kernel keeps serving the exhaustive bytes, conflict penalty included.
    #[test]
    fn facet_values_added_after_pruning_keep_the_block_index() {
        let mut idx = build(300);
        idx.add_facet_values("make", ["Tesla".to_string(), "honda".to_string()]);
        idx.add_facet_values("colour", ["red".to_string()]);
        assert!(idx.pruning().is_some());
        let tesla = idx.postings().term_id("tesla").unwrap();
        assert!(idx.postings().postings_id(tesla).is_empty());
        let queries = QUERIES
            .iter()
            .chain(&["tesla listing", "red honda tesla", "tesla"]);
        for bm25 in [Bm25Params::default(), Bm25Params { k1: 0.4, b: 0.2 }] {
            let exhaustive = SearchOptions {
                bm25,
                use_annotations: true,
                ..Default::default()
            };
            let pruned = SearchOptions {
                pruning: PruningMode::BlockMax,
                ..exhaustive
            };
            for q in queries.clone() {
                for k in [1usize, 10, 1000] {
                    let want = search(&idx, q, k, exhaustive);
                    assert_eq!(search(&idx, q, k, pruned), want, "{bm25:?} q={q:?} k={k}");
                }
            }
            // A doc annotated with another make pays the conflict penalty
            // for the value only the vocabulary knows.
            let unannotated = SearchOptions {
                use_annotations: false,
                ..pruned
            };
            let plain = search(&idx, "tesla listing", 1000, unannotated);
            let annotated = search(&idx, "tesla listing", 1000, pruned);
            let doc = (0..idx.len())
                .map(|d| DocId(d as u32))
                .find(|&d| !idx.doc(d).annotation_ids.is_empty())
                .unwrap();
            let score = |hits: &[Hit]| hits.iter().find(|h| h.doc == doc).map(|h| h.score).unwrap();
            assert!(score(&annotated) < score(&plain), "{bm25:?} doc {doc:?}");
        }
    }

    /// The two facts every skip site leans on: a guarded bound is strictly
    /// above the bound, and nothing finite — guarded or not — is below the
    /// `-∞` threshold of a heap not yet holding `k`, so an unfilled heap
    /// never skips.
    #[test]
    fn guards_are_conservative() {
        for x in [0.0f64, 1e-300, 1.0, 123.456, 1e12] {
            assert!(guard_ub(x) > x);
            let skips_before_the_heap_holds_k = guard_ub(x) < f64::NEG_INFINITY;
            assert!(!skips_before_the_heap_holds_k);
        }
        assert_eq!(guard_ub(f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    /// The four deterministic counts of the last query on `scratch`.
    fn counts(scratch: &QueryScratch) -> [usize; 4] {
        let p = &scratch.pruned;
        [
            p.docs_scored,
            p.windows_skipped,
            p.candidates_dropped,
            p.postings_folded,
        ]
    }

    /// Every doc names `dense` once and the docs that name `rare` (one in
    /// 41) name it once — except a few docs of the first window, which name
    /// them five and three times: after one window the threshold is above
    /// anything a later `tf = 1` posting can reach.
    fn planted(n: usize) -> SearchIndex {
        let mut idx = SearchIndex::new();
        for i in 0..n {
            let (dense, rare) = match i {
                0..=4 => (5, 3),
                _ => (1, usize::from(i % 41 == 7)),
            };
            let mut words = vec!["dense"; dense];
            words.extend(vec!["rare"; rare]);
            words.extend(["alpha", "beta", "gamma"].iter().take(1 + i % 3));
            idx.add(
                Url::new("p.sim", format!("/d{i}")),
                String::new(),
                words.join(" "),
                DocKind::Surface,
                None,
                vec![],
            );
        }
        idx.enable_pruning();
        idx
    }

    /// Equality cannot tell which of the three skip sites ran; the counts
    /// can, and they are a pure function of (view, query, k, options):
    /// identical at 1 and 3 workers.
    #[test]
    fn every_skip_site_engages_and_counts_do_not_depend_on_workers() {
        let n = 12 * WINDOW + 50;
        let idx = planted(n);
        let opts = SearchOptions {
            pruning: PruningMode::BlockMax,
            ..Default::default()
        };
        let queries = [("dense", 1usize), ("rare dense", 10), ("dense rare", 10)];
        let run = |workers: usize| -> Vec<[usize; 4]> {
            deepweb_common::ThreadPool::new(workers).map_indices_init(
                queries.len(),
                QueryScratch::new,
                |scratch, qi| {
                    let (q, k) = queries[qi];
                    let hits = crate::searcher::search_with_scratch(&idx, q, k, opts, scratch);
                    assert_eq!(
                        hits,
                        search(&idx, q, k, SearchOptions::default()),
                        "q={q:?}"
                    );
                    counts(scratch)
                },
            )
        };
        let one = run(1);
        let [scored, windows_skipped, _, folded] = one[0];
        assert!(windows_skipped > 0, "single term, k = 1: {:?}", one[0]);
        assert!(0 < scored && scored < n && folded < n, "{:?}", one[0]);
        let dfs = idx.postings().df("rare") + idx.postings().df("dense");
        for pair in &one[1..] {
            let [scored, _, candidates_dropped, folded] = *pair;
            assert!(candidates_dropped > 0, "rare + dense: {pair:?}");
            assert!(
                0 < scored && folded < dfs,
                "rare + dense: {pair:?} of {dfs}"
            );
        }
        assert_eq!(run(3), one);
        // What bounds `WINDOW`: a window's essential slices are folded whole
        // under the threshold the window starts with, so an index of a few
        // hundred docs — the 700-doc base the freshness tests seal — saves
        // fold work only if it spans several windows.
        let small = planted(700);
        let mut scratch = QueryScratch::new();
        crate::searcher::search_with_scratch(&small, "dense", 1, opts, &mut scratch);
        assert!(
            scratch.pruned.postings_folded < 700 / 2,
            "{:?}",
            counts(&scratch)
        );
    }

    /// Window geometry and fold order. `listing` sits in every doc and
    /// `common` in most, `rareterm` in one of eleven: ranges cut at and
    /// around window edges (widths 1 and `WINDOW ± 1` included), at every
    /// block size, must return the exhaustive fold's bytes whether the dense
    /// term precedes the rare ones in the signature or follows them — a
    /// non-essential term folded before an essential one is the case a wrong
    /// fold order gets wrong in the low bits. And the property that makes
    /// "never worse than the fold" checkable: the kernel scores at most the
    /// docs of the range that hold a signature term, and exactly those when
    /// `k` admits them all.
    #[test]
    fn window_edges_and_signature_order_equal_the_fold() {
        let w = doc_bound(WINDOW);
        let n = 8 * w + 37;
        let idx = build(n as usize);
        let view = IndexView::sealed(&idx);
        let mut scratch = QueryScratch::new();
        let mut sigs: Vec<Vec<TermId>> = [
            "listing rareterm honda",
            "rareterm honda listing",
            "common rareterm",
            "rareterm common",
            "zzz-unknown common bmw rareterm",
        ]
        .iter()
        .map(|q| {
            scratch.analyze(q);
            scratch.resolve(&view);
            scratch.sig.clone()
        })
        .collect();
        // A repeated term, which query analysis would have deduplicated.
        let (common, rare) = (sigs[2][0], sigs[2][1]);
        sigs.push(vec![common, rare, common]);
        let ranges = [
            (0, n),
            (0, 1),
            (0, w - 1),
            (0, w),
            (0, w + 1),
            (1, w + 1),
            (1, w + 2),
            (w - 1, w),
            (w - 1, 2 * w - 2),
            (w, 2 * w + 1),
            (w + 1, n),
            (w + 100, 3 * w + 50),
            (n - 1, n),
            (700, 700),
        ];
        for block_size in [1usize, 3, POSTINGS_BLOCK_SIZE, 1000] {
            let pr = PruningIndex::empty(block_size).extended(&idx);
            for bm25 in [Bm25Params::default(), Bm25Params { k1: 0.4, b: 0.2 }] {
                for use_annotations in [false, true] {
                    let opts = SearchOptions {
                        bm25,
                        use_annotations,
                        ..Default::default()
                    };
                    for sig in &sigs {
                        for (lo, hi) in ranges {
                            let holding: std::collections::BTreeSet<u32> = sig
                                .iter()
                                .flat_map(|&id| idx.postings().postings_id(id))
                                .map(|p| p.doc.0)
                                .filter(|d| (lo..hi).contains(d))
                                .collect();
                            for k in [1usize, 10, 1000] {
                                let ctx = format!(
                                    "size={block_size} {bm25:?} ann={use_annotations} \
                                     sig={sig:?} range={lo}..{hi} k={k}"
                                );
                                let want = top_k_range(&view, sig, k, opts, lo, hi, &mut scratch);
                                let got = pruned_topk_range(
                                    &view,
                                    &pr,
                                    sig,
                                    k,
                                    opts,
                                    lo,
                                    hi,
                                    &mut scratch,
                                );
                                assert_eq!(got, want, "{ctx}");
                                let scored = scratch.pruned.docs_scored;
                                assert!(scored <= holding.len(), "{ctx}: {scored}");
                                if k >= holding.len() {
                                    assert_eq!(scored, holding.len(), "{ctx}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The count behind the cluster's one kernel call per query (DESIGN.md
    /// §13). Cut into equal doc ranges, a query returns the same bytes but
    /// folds more postings and scores more docs than one pass over `[0, n)`:
    /// each range warms its own threshold from `-∞`. Summed over a fixed
    /// query set on a dense Zipf corpus at k = 10, at 2, 4 and 7 ranges.
    #[test]
    fn one_pass_folds_less_than_any_doc_range_split() {
        const DOCS: u32 = 4_000;
        let zipf = deepweb_common::Zipf::new(300, 1.1);
        let mut rng = deepweb_common::derive_rng(17, "one-pass");
        let mut draw = |tokens: usize| -> String {
            let words: Vec<String> = (0..tokens)
                .map(|_| format!("tok{}", zipf.sample(&mut rng)))
                .collect();
            words.join(" ")
        };
        let docs: Vec<BatchDoc> = (0..DOCS)
            .map(|i| BatchDoc {
                url: Url::new("dense.sim", format!("/d{i}")),
                title: String::new(),
                text: draw(30),
                kind: DocKind::Surface,
                site: None,
                annotations: vec![],
            })
            .collect();
        let mut idx = SearchIndex::new();
        idx.add_batch(&deepweb_common::ThreadPool::new(1), docs);
        idx.enable_pruning();
        let view = IndexView::sealed(&idx);
        let opts = SearchOptions {
            pruning: PruningMode::BlockMax,
            ..Default::default()
        };
        let k = 10;
        let mut scratch = QueryScratch::new();
        let sigs: Vec<Vec<TermId>> = (0..100)
            .map(|i| {
                scratch.analyze(&draw(2 + i % 3));
                scratch.resolve(&view);
                scratch.sig.clone()
            })
            .collect();
        assert!(sigs.iter().all(|sig| !sig.is_empty()));
        // [postings folded, docs scored] summed over the queries, each
        // query's `[0, n)` cut into `parts` equal ranges.
        let mut work = |parts: u32| {
            let mut sum = [0usize; 2];
            for sig in &sigs {
                let whole = top_k_range(&view, sig, k, opts, 0, DOCS, &mut scratch);
                let mut lists = Vec::new();
                for p in 0..parts {
                    let (lo, hi) = (DOCS * p / parts, DOCS * (p + 1) / parts);
                    lists.push(top_k_range(&view, sig, k, opts, lo, hi, &mut scratch));
                    sum[0] += scratch.pruned.postings_folded;
                    sum[1] += scratch.pruned.docs_scored;
                }
                assert_eq!(merge_topk(&lists, k), whole, "parts={parts} sig={sig:?}");
            }
            sum
        };
        let one = work(1);
        for parts in [2, 4, 7] {
            let split = work(parts);
            assert!(
                split[0] > one[0] && split[1] > one[1],
                "{parts} ranges {split:?} against one pass {one:?}"
            );
        }
    }
}
