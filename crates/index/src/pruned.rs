//! Block-max pruned top-k (DESIGN.md §14): windowed MaxScore over the raw
//! posting lists, steered by the [`BlockPostings`] describing them. The base
//! is walked in windows of `WINDOW` docs; per window the terms whose
//! block bounds together cannot reach the running top-k threshold are set
//! aside as *non-essential*, the rest are folded in bulk, and only docs that
//! hold a folded term and could still reach the threshold are scored — and
//! the hits are still **byte-identical** to the exhaustive reference's. A
//! window whose split leaves one essential term walks that term's slice in
//! doc order, each posting a candidate on the spot; per-doc lanes and a
//! window bitmap gather the candidates of a window with two or more.
//!
//! The kernel runs only for a query that reads more than
//! `MAX_FOLDED_POSTINGS` postings over the whole view: at or below that,
//! `searcher::top_k` folds, because windows over short lists cost more in
//! set-up than they skip. Its tests reach it through
//! `searcher::windowed_top_k`, the branch `top_k` takes above the cutoff,
//! whatever their corpora read.
//!
//! Why pruning preserves the determinism contract:
//!
//! - **Scored docs get the exact exhaustive score.** A doc is only scored
//!   once the contribution of every query term that contains it is known —
//!   read off the walked slice or its window lane, or sought in a
//!   non-essential list — and
//!   the contributions are folded in query-term (signature) order, an absent
//!   term as `+ 0.0` (and `x + 0.0 == x` bit for bit) — the same
//!   floating-point sequence the exhaustive `scores[doc] += c` fold runs,
//!   starting from the same `0.0`. The annotation boost is added after the
//!   term sum, exactly like the exhaustive pass, from the same per-query
//!   facet masks.
//! - **The annotation bound is the query's.** A window's bound adds the
//!   view's annotation bound (`IndexView::annotation_bound`, the largest of
//!   its annotation columns' — the number the fold's selection pass reads
//!   too) only when the query names some facet value (its facet masks are
//!   not all empty); otherwise every doc's boost is `0.0`, the bound is `0`,
//!   and the kernel prunes exactly as with annotations off.
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

use crate::postings::{
    bm25_contribution, BlockPostings, Posting, PostingBlock, Postings, POSTINGS_BLOCK_SIZE,
};
use crate::searcher::{
    admit, annotation_boost, drain_heap_topk, HeapEntry, Hit, QueryScratch, SearchOptions,
};
use crate::view::IndexView;
use deepweb_common::ids::{DocId, TermId};
use deepweb_common::ThreadPool;
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
    /// The stored maxima hold for this query: no segment is pending, so
    /// nothing has moved `idf` or `avg_len` since the build.
    stored_exact: bool,
}

impl Bounds {
    /// One block's score upper bound: the stored exact maximum when it holds,
    /// else recomputed from the block's `(max_tf, min_dl)` — contributions
    /// grow with tf and shrink with doc length, so the pair bounds every
    /// posting at any `idf ≥ 0` and `avg_len > 0`.
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
            )
        }
    }
}

/// The serving-side pruning structures of an index: the block index, its
/// blocks `POSTINGS_BLOCK_SIZE` postings each, bounded at the default BM25
/// parameters. Every index carries one over all its documents: the fold
/// that adds documents (`SearchIndex::merged`, for a batch and for the
/// freshness tier's merge alike) *extends* it over the docs it folds in
/// (`PruningIndex::extended`), so no block bound is ever stale. The
/// annotation bound lives with the annotations, in each part's
/// `AnnotationColumn`.
#[derive(Clone, Debug)]
pub struct PruningIndex {
    blocks: BlockPostings,
}

impl Default for PruningIndex {
    /// The structures of the empty index.
    fn default() -> Self {
        PruningIndex {
            blocks: BlockPostings::empty(POSTINGS_BLOCK_SIZE),
        }
    }
}

impl PruningIndex {
    /// The structures over all of `postings`, given `self` over its first
    /// `self.blocks.docs` documents — equal to extending the empty index's,
    /// at the cost of what was appended ([`BlockPostings::extended`]) plus
    /// one pass of exact block maxima, both run on `pool`.
    pub(crate) fn extended(&self, postings: &Postings, pool: &ThreadPool) -> Self {
        PruningIndex {
            blocks: self.blocks.extended(postings, pool),
        }
    }

    /// The block index.
    pub fn blocks(&self) -> &BlockPostings {
        &self.blocks
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

/// The most postings a [`PruningMode::BlockMax`] query folds instead of
/// windowing: 32 windows' worth. A constant, not a knob. At or below it the
/// sum of the signature's view-wide `df` — every posting the exhaustive fold
/// reads — is too short for windows to pay: on 811 distinct `offline_build`
/// queries block-max took 20.6 ms against the fold's 14.2, and on 60 000-
/// and 40 000-doc corpora choosing by this rule beat always windowing
/// (232.0 against 237.6 ms, 160.6 against 165.7) while folding 11% and 14%
/// of the queries. Cutoffs of 4 096 and 16 384 came within 1% of it on all
/// four probes, 1 024 kept only 28% of the offline gain (DESIGN.md §14).
///
/// [`PruningMode::BlockMax`]: crate::searcher::PruningMode::BlockMax
pub(crate) const MAX_FOLDED_POSTINGS: usize = 32 * WINDOW;

/// One query term's place in its raw list, fixed for the query (`id`, `idf`)
/// or for the current window (the rest). Positions, never postings, so
/// [`PrunedScratch`] recycles it across queries and indexes.
struct TermWindow {
    id: TermId,
    idf: f64,
    /// First posting not yet behind a window or a candidate.
    pos: usize,
    /// Doc of the first posting not yet behind a window, while one is left.
    next_doc: Option<u32>,
    /// End of the window's slice `list[pos..win_end]`.
    win_end: usize,
    /// Max [`Bounds::block_ub`] over the blocks the window's slice falls in.
    ub: f64,
    /// Walked or folded into its lane this window (else sought for
    /// surviving candidates only).
    essential: bool,
    /// Dropped: what the dropped terms after this one in the signature can
    /// add to a doc, annotation bound included.
    rest_ub: f64,
    /// Contribution to the candidate being scored (0.0 where absent).
    contrib: f64,
}

impl TermWindow {
    /// Leave the window behind: the doc of the next posting, if any.
    fn step_over(&mut self, list: &[Posting]) -> Option<u32> {
        self.pos = self.win_end;
        self.next_doc = list.get(self.pos).map(|p| p.doc.0);
        self.next_doc
    }
}

/// Recycled state for the pruned kernel, reused across queries like every
/// other scratch buffer, and the last query's deterministic counters — each
/// a pure function of (view, query, k, options), identical at any worker
/// count, and all 0 when the query was folded.
#[derive(Default)]
pub(crate) struct PrunedScratch {
    /// The signature terms the base holds, in signature order.
    terms: Vec<TermWindow>,
    /// `WINDOW` rows of one `f64` per term: row `doc - window start` holds
    /// that doc's contributions in signature order, for a window with two or
    /// more essential terms (one essential term is walked, not staged). All
    /// zeros between windows (a scored or discarded candidate's row is
    /// zeroed on the spot).
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
    /// Windows not stepped over whose essential split left one term: their
    /// slice was walked in doc order, without lanes or bitmap.
    pub(crate) windows_walked: usize,
}

impl PrunedScratch {
    /// Zero the counters: a query the windowed kernel does not run reads 0.
    pub(crate) fn clear_counts(&mut self) {
        self.docs_scored = 0;
        self.windows_skipped = 0;
        self.candidates_dropped = 0;
        self.postings_folded = 0;
        self.windows_walked = 0;
    }
}

/// What scoring a query's candidates moves: the top-k heap, its threshold
/// and the counts [`PrunedScratch`] reports.
struct Tally<'h> {
    heap: &'h mut BinaryHeap<HeapEntry>,
    /// The heap's k-th best score, re-read after every admission.
    threshold: f64,
    docs_scored: usize,
    candidates_dropped: usize,
    postings_folded: usize,
    annotations_read: usize,
}

/// First index in `list[from..to]` whose doc is ≥ `doc`, by doubling steps
/// and then a binary search between the last two: logarithmic in the
/// distance moved, not in the slice.
fn gallop(list: &[Posting], from: usize, to: usize, doc: u32) -> usize {
    let (mut lo, mut step) = (from, 1);
    let below = |at: usize| list.get(at).is_some_and(|p| p.doc.0 < doc);
    while lo + step <= to && below(lo + step - 1) {
        lo += step;
        step *= 2;
    }
    let last = list.get(lo..to.min(lo + step)).unwrap_or_default();
    lo + last.partition_point(|p| p.doc.0 < doc)
}

/// Windowed block-max MaxScore over the base: the pruned equivalent of
/// scoring every sig term's base postings and selecting top-k —
/// byte-identical to that exhaustive fold (see module docs for the
/// argument). Runs on the scratch's recycled heap and window buffers; the
/// dense score accumulator is untouched. `pr` indexes the base's postings
/// only; idf and the average doc length are the *view's*, and with a
/// segment pending every bound is recomputed under them. With annotations
/// on, the scratch's facet masks must be `sig`'s: [`top_k`] fills them, and
/// turns annotations off for a query they show names no facet value; each
/// doc scored then counts toward `annotations_read`.
///
/// [`top_k`]: crate::searcher::top_k
pub(crate) fn pruned_topk(
    view: &IndexView<'_>,
    pr: &PruningIndex,
    sig: &[TermId],
    k: usize,
    opts: SearchOptions,
    scratch: &mut QueryScratch,
) -> Vec<Hit> {
    let postings = view.base.postings();
    let bp = pr.blocks();
    let cx = Bounds {
        avg_len: view.avg_doc_len(),
        stored_exact: view.segments.is_empty(),
    };
    let ann_ub = if opts.use_annotations {
        view.annotation_bound()
    } else {
        0.0
    };
    let contribution = |idf: f64, p: &Posting| {
        let dl = f64::from(postings.doc_len(p.doc));
        bm25_contribution(idf, f64::from(p.tf), dl, cx.avg_len)
    };
    let PrunedScratch { terms, lanes, .. } = &mut scratch.pruned;
    let masks = &scratch.masks;
    // One entry per signature term the base holds, in signature (scoring)
    // order. A term the base never saw (an overlay id) has no blocks and no
    // list here; a term with blocks has postings.
    terms.clear();
    for &id in sig {
        if !bp.term_blocks(id).is_empty() {
            terms.push(TermWindow {
                id,
                idf: view.idf(id),
                pos: 0,
                next_doc: None,
                win_end: 0,
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
    let mut tally = Tally {
        threshold: kth(heap),
        heap,
        docs_scored: 0,
        candidates_dropped: 0,
        postings_folded: 0,
        annotations_read: 0,
    };
    // One candidate, a doc holding an essential term: `partial` sums the
    // essential terms' contributions, each already in its term's `contrib`.
    // Consult the dropped terms in signature order, discarding the
    // candidate as soon as what it is known to hold, plus all the dropped
    // terms not yet consulted could add, cannot reach the threshold; else
    // score and admit it.
    let candidate = |terms: &mut [TermWindow],
                     doc: u32,
                     mut partial: f64,
                     dropped_ub: f64,
                     tally: &mut Tally<'_>| {
        let mut rest_ub = dropped_ub;
        for t in terms.iter_mut().filter(|t| !t.essential) {
            if guard_ub(partial + rest_ub) < tally.threshold {
                break;
            }
            let list = postings.postings_id(t.id);
            t.pos = gallop(list, t.pos, t.win_end, doc);
            t.contrib = 0.0;
            let held = list
                .get(t.pos)
                .filter(|p| t.pos < t.win_end && p.doc.0 == doc);
            if let Some(p) = held {
                t.contrib = contribution(t.idf, p);
                partial += t.contrib;
                tally.postings_folded += 1;
            }
            rest_ub = t.rest_ub;
        }
        if guard_ub(partial + rest_ub) < tally.threshold {
            tally.candidates_dropped += 1;
            return;
        }
        // Contributions fold in signature order from 0.0, an absent one as
        // `+ 0.0`: the exhaustive `scores[doc] += c` sequence.
        let mut score = terms.iter().fold(0.0, |s, t| s + t.contrib);
        if opts.use_annotations {
            score += annotation_boost(view, sig, masks, DocId(doc));
            tally.annotations_read += 1;
        }
        tally.docs_scored += 1;
        admit(tally.heap, k, HeapEntry(score, doc));
        tally.threshold = kth(tally.heap);
    };
    let (mut windows_skipped, mut windows_walked) = (0usize, 0usize);
    let mut marked = [0u64; WINDOW / 64];
    // Each window starts at the lowest doc any term holds beyond the last.
    while let Some(win_lo) = terms
        .iter_mut()
        .filter_map(|t| t.step_over(postings.postings_id(t.id)))
        .min()
    {
        let win_hi = win_lo.saturating_add(WINDOW as u32);
        let mut window_ub = ann_ub;
        for t in terms.iter_mut() {
            t.essential = true;
            t.win_end = t.pos;
            t.ub = 0.0;
            if t.next_doc.is_some_and(|doc| doc < win_hi) {
                let list = postings.postings_id(t.id);
                // Doc ids are distinct: the slice holds at most WINDOW postings.
                let reach = list.len().min(t.pos + WINDOW);
                t.win_end = gallop(list, t.pos, reach, win_hi);
                for block in bp.blocks_over(t.id, t.pos..t.win_end) {
                    t.ub = t.ub.max(cx.block_ub(block, t.idf));
                }
                window_ub += t.ub;
            }
        }
        if guard_ub(window_ub) < tally.threshold {
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
            if guard_ub(dropped_ub + t.ub) < tally.threshold {
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
        let mut essential = terms.iter().enumerate().filter(|(_, t)| t.essential);
        if let (Some((ei, one)), None) = (essential.next(), essential.next()) {
            // One essential term: its slice, in doc order, is the window's
            // candidates, each with the one contribution it is known to
            // hold. A doc that cannot reach the threshold with every dropped
            // term added is discarded before it is stored anywhere.
            windows_walked += 1;
            let TermWindow {
                id,
                idf,
                pos,
                win_end,
                ..
            } = *one;
            let slice = postings
                .postings_id(id)
                .get(pos..win_end)
                .unwrap_or_default();
            for p in slice {
                let c = contribution(idf, p);
                if guard_ub(c + dropped_ub) < tally.threshold {
                    tally.candidates_dropped += 1;
                    continue;
                }
                if let Some(t) = terms.get_mut(ei) {
                    t.contrib = c;
                }
                candidate(terms, p.doc.0, c, dropped_ub, &mut tally);
            }
            tally.postings_folded += slice.len();
            continue;
        }
        // Two or more: fold the essential slices, one store per posting into
        // the term's lane of the doc's row and one bit in the window bitmap.
        for (ti, t) in terms.iter_mut().enumerate().filter(|(_, t)| t.essential) {
            let slice = postings.postings_id(t.id).get(t.pos..t.win_end);
            for p in slice.unwrap_or_default() {
                let off = (p.doc.0 - win_lo) as usize;
                if let (Some(lane), Some(word)) =
                    (lanes.get_mut(off * n + ti), marked.get_mut(off / 64))
                {
                    *lane = contribution(t.idf, p);
                    *word |= 1 << (off % 64);
                }
            }
            tally.postings_folded += t.win_end - t.pos;
        }
        // Candidates — docs holding an essential term — in doc order.
        for (wi, word) in marked.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let off = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // Taking the lanes leaves the row zeroed for the next window.
                let mut partial = 0.0f64;
                let row = lanes.get_mut(off * n..off * n + n).unwrap_or_default();
                for (t, lane) in terms.iter_mut().zip(row) {
                    t.contrib = std::mem::take(lane);
                    partial += t.contrib;
                }
                candidate(terms, win_lo + off as u32, partial, dropped_ub, &mut tally);
            }
        }
    }
    scratch.pruned.docs_scored = tally.docs_scored;
    scratch.pruned.windows_skipped = windows_skipped;
    scratch.pruned.candidates_dropped = tally.candidates_dropped;
    scratch.pruned.postings_folded = tally.postings_folded;
    scratch.pruned.windows_walked = windows_walked;
    scratch.annotations_read += tally.annotations_read;
    drain_heap_topk(tally.heap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::{Annotation, BatchDoc, DocKind};
    use crate::index::SearchIndex;
    use crate::searcher::{search, search_windowed, top_k, PruningMode};
    use deepweb_common::{ThreadPool, Url};

    /// The block index of `idx`, its blocks `block_size` postings each: the
    /// kernel serves whatever block index it is handed.
    fn blocks_of(idx: &SearchIndex, block_size: usize) -> PruningIndex {
        let empty = PruningIndex {
            blocks: BlockPostings::empty(block_size),
        };
        empty.extended(idx.postings(), &ThreadPool::new(2))
    }

    /// [`search`] through the windowed kernel whatever the query reads: the
    /// corpora here sit below [`MAX_FOLDED_POSTINGS`], where [`top_k`]
    /// would fold.
    fn windowed(
        idx: &SearchIndex,
        q: &str,
        k: usize,
        opts: SearchOptions,
        scratch: &mut QueryScratch,
    ) -> Vec<Hit> {
        search_windowed(&IndexView::sealed(idx), q, k, opts, scratch)
    }

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
        let mut docs = Vec::with_capacity(n);
        for i in 0..n {
            let make = makes[(next() % 4) as usize];
            let mut text = format!("{make} listing number {i}");
            for _ in 0..(next() % 6) {
                text.push_str(" common");
            }
            if next() % 11 == 0 {
                text.push_str(" rareterm");
            }
            let anns: &[_] = if next() % 3 == 0 {
                &[("make", make)]
            } else {
                &[]
            };
            docs.push(BatchDoc::surfaced(
                Url::new("x.sim", format!("/d{i}")),
                "",
                &text,
                anns,
            ));
        }
        idx.add_batch(&ThreadPool::new(1), docs);
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
        let mut scratch = QueryScratch::new();
        for q in QUERIES {
            assert!(
                windowed(&idx, q, 0, pruned, &mut scratch).is_empty(),
                "q={q:?}"
            );
        }
    }

    #[test]
    fn pruned_equals_exhaustive_sequential() {
        let idx = build(400);
        let mut scratch = QueryScratch::new();
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
                        windowed(&idx, q, k, pruned, &mut scratch),
                        search(&idx, q, k, exhaustive),
                        "q={q:?} k={k} ann={use_annotations}"
                    );
                }
            }
        }
    }

    /// The kernel asks the index where a block sits; it never assumes
    /// [`POSTINGS_BLOCK_SIZE`]. Block indexes of one posting, three, the
    /// serving size and one block per term must all return the exhaustive
    /// fold's bytes.
    #[test]
    fn pruned_equals_exhaustive_at_every_block_size() {
        let idx = build(300);
        let view = IndexView::sealed(&idx);
        let mut scratch = QueryScratch::new();
        for block_size in [1usize, 3, POSTINGS_BLOCK_SIZE, 1000] {
            let pr = blocks_of(&idx, block_size);
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
                    for k in [1usize, 5, 1000] {
                        let want = top_k(&view, &sig, k, opts, &mut scratch);
                        let got = pruned_topk(&view, &pr, &sig, k, opts, &mut scratch);
                        assert_eq!(
                            got, want,
                            "size={block_size} q={q:?} k={k} ann={use_annotations}"
                        );
                    }
                }
            }
        }
    }

    /// A batch added to a built index — a new doc naming known and new
    /// terms, and a repeated URL — leaves a block index over every doc,
    /// equal to a one-batch build's, and the windowed kernel over it returns
    /// the exhaustive fold's bytes, the late doc among them.
    #[test]
    fn a_late_batch_extends_the_block_index_and_blockmax_equals_exhaustive() {
        let mut idx = build(50);
        let late = BatchDoc::page(
            Url::new("late.sim", "/new"),
            "",
            "honda listing late addition",
        );
        let again = idx.doc(DocId(3)).unwrap().clone();
        idx.add_batch(&ThreadPool::new(3), vec![late, again]);
        assert_eq!(idx.len(), 51);
        let mut once = SearchIndex::new();
        once.add_batch(&ThreadPool::new(1), idx.docs().iter().cloned().collect());
        idx.assert_same_as(&once, "late batch");
        let late_term = idx.postings().term_id("late").unwrap();
        assert_eq!(idx.block_index().blocks().term_blocks(late_term).len(), 1);
        let pruned = SearchOptions {
            pruning: PruningMode::BlockMax,
            ..Default::default()
        };
        let mut scratch = QueryScratch::new();
        for q in QUERIES.iter().chain(&["late addition", "honda late"]) {
            assert_eq!(
                windowed(&idx, q, 10, pruned, &mut scratch),
                search(&idx, q, 10, SearchOptions::default()),
                "q={q:?}"
            );
        }
        let hits = windowed(&idx, "late addition", 1, pruned, &mut scratch);
        assert_eq!(hits[0].doc, DocId(50));
    }

    /// Facet vocabulary added to a built index — a known key, a new key, a
    /// value token that is a new term — moves no block maximum, no idf and
    /// no annotation bound, so the block index stays as it is and the
    /// pruned kernel keeps serving the exhaustive bytes, conflict penalty
    /// included.
    #[test]
    fn facet_values_added_after_pruning_keep_the_block_index() {
        let mut idx = build(300);
        let blocks = format!("{:?}", idx.block_index());
        idx.add_facet_values("make", ["Tesla".to_string(), "honda".to_string()]);
        idx.add_facet_values("colour", ["red".to_string()]);
        assert_eq!(format!("{:?}", idx.block_index()), blocks);
        let tesla = idx.postings().term_id("tesla").unwrap();
        assert!(idx.postings().postings_id(tesla).is_empty());
        let queries = QUERIES
            .iter()
            .chain(&["tesla listing", "red honda tesla", "tesla"]);
        let exhaustive = SearchOptions {
            use_annotations: true,
            ..Default::default()
        };
        let pruned = SearchOptions {
            pruning: PruningMode::BlockMax,
            ..exhaustive
        };
        let mut scratch = QueryScratch::new();
        for q in queries {
            for k in [1usize, 10, 1000] {
                let want = search(&idx, q, k, exhaustive);
                let got = windowed(&idx, q, k, pruned, &mut scratch);
                assert_eq!(got, want, "q={q:?} k={k}");
            }
        }
        // A doc annotated with another make pays the conflict penalty for the
        // value only the vocabulary knows.
        let unannotated = SearchOptions {
            use_annotations: false,
            ..pruned
        };
        let plain = windowed(&idx, "tesla listing", 1000, unannotated, &mut scratch);
        let annotated = windowed(&idx, "tesla listing", 1000, pruned, &mut scratch);
        let doc = (0..idx.len())
            .map(|d| DocId(d as u32))
            .find(|&d| idx.annotation_column().doc(d).next().is_some())
            .unwrap();
        let score = |hits: &[Hit]| hits.iter().find(|h| h.doc == doc).map(|h| h.score).unwrap();
        assert!(score(&annotated) < score(&plain), "doc {doc:?}");
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

    /// The five deterministic counts of the last query on `scratch`.
    fn counts(scratch: &QueryScratch) -> [usize; 5] {
        let p = &scratch.pruned;
        [
            p.docs_scored,
            p.windows_skipped,
            p.candidates_dropped,
            p.postings_folded,
            p.windows_walked,
        ]
    }

    /// A query whose ids are no facet's value gets a `0.0` adjustment on
    /// every doc, so the annotation bound its windows add is `0`: with
    /// annotations on it scores, skips, drops and folds exactly what it does
    /// with them off. A bound of [`ANNOTATION_BOOST`] per annotation on every
    /// window would score more and skip less.
    #[test]
    fn a_query_naming_no_facet_value_prunes_as_if_annotations_were_off() {
        let idx = build(12 * WINDOW + 50);
        assert!(idx.annotation_column().boost_bound() > 0.0);
        let mut scratch = QueryScratch::new();
        let mut run = |q: &str, k: usize, use_annotations: bool| {
            let opts = SearchOptions {
                use_annotations,
                pruning: PruningMode::BlockMax,
            };
            let hits = windowed(&idx, q, k, opts, &mut scratch);
            (hits, counts(&scratch))
        };
        let mut skipped = 0;
        for q in [
            "listing",
            "common",
            "rareterm common",
            "listing number common",
        ] {
            for value in q.split(' ') {
                assert!(!idx.facet_value_known("make", value), "{value}");
            }
            for k in [1usize, 10] {
                let off = run(q, k, false);
                assert_eq!(run(q, k, true), off, "q={q:?} k={k}");
                skipped += off.1[1] + off.1[2];
            }
        }
        assert!(skipped > 0, "no window skipped and no candidate dropped");
    }

    /// Every doc names `dense` once and the docs that name `rare` (one in
    /// 41) name it once — except a few docs of the first window, which name
    /// them five and three times: after one window the threshold is above
    /// anything a later `tf = 1` posting can reach.
    fn planted(n: usize) -> SearchIndex {
        let mut idx = SearchIndex::new();
        let mut docs = Vec::with_capacity(n);
        for i in 0..n {
            let (dense, rare) = match i {
                0..=4 => (5, 3),
                _ => (1, usize::from(i % 41 == 7)),
            };
            let mut words = vec!["dense"; dense];
            words.extend(vec!["rare"; rare]);
            words.extend(["alpha", "beta", "gamma"].iter().take(1 + i % 3));
            let url = Url::new("p.sim", format!("/d{i}"));
            docs.push(BatchDoc::page(url, "", &words.join(" ")));
        }
        idx.add_batch(&ThreadPool::new(1), docs);
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
        let run = |workers: usize| -> Vec<[usize; 5]> {
            deepweb_common::ThreadPool::new(workers).map_indices_init(
                queries.len(),
                QueryScratch::new,
                |scratch, qi| {
                    let (q, k) = queries[qi];
                    let hits = windowed(&idx, q, k, opts, scratch);
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
        let [scored, windows_skipped, _, folded, walked] = one[0];
        assert!(windows_skipped > 0, "single term, k = 1: {:?}", one[0]);
        assert!(0 < scored && scored < n && folded < n, "{:?}", one[0]);
        assert!(walked > 0, "single term, k = 1: {:?}", one[0]);
        let dfs = idx.postings().df("rare") + idx.postings().df("dense");
        for pair in &one[1..] {
            let [scored, _, candidates_dropped, folded, walked] = *pair;
            assert!(candidates_dropped > 0, "rare + dense: {pair:?}");
            assert!(
                0 < scored && folded < dfs && walked > 0,
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
        windowed(&small, "dense", 1, opts, &mut scratch);
        assert!(
            scratch.pruned.postings_folded < 700 / 2,
            "{:?}",
            counts(&scratch)
        );
    }

    /// Docs `range` of a corpus of three frequency tiers over one to three
    /// filler words: `dense` in every doc, `mid` in one in seven and `rare`
    /// in one in 41 but in no doc of every fourth window (windows 2, 6, 10:
    /// a `rare` query steps over them). The first five docs name `dense`
    /// five times and `mid` twice. One doc in thirteen carries the
    /// annotation `tier: rare` and the next `tier: mid`, so a query naming
    /// `rare` boosts the first and demotes the second.
    fn tiered(range: std::ops::Range<usize>) -> Vec<BatchDoc> {
        range
            .map(|i| {
                let (dense, mid, rare) = match i {
                    0..=4 => (5, 2, 0),
                    _ => {
                        let rare = i % 41 == 7 && i / WINDOW % 4 != 2;
                        (1, usize::from(i % 7 == 3), usize::from(rare))
                    }
                };
                let mut words = vec!["dense"; dense];
                words.extend(vec!["mid"; mid]);
                words.extend(vec!["rare"; rare]);
                words.extend(["alpha", "beta", "gamma"].iter().take(1 + i % 3));
                let tier = match i % 13 {
                    0 => vec!["rare"],
                    1 => vec!["mid"],
                    _ => vec![],
                };
                BatchDoc {
                    url: Url::new("t.sim", format!("/d{i}")),
                    title: String::new(),
                    text: words.join(" "),
                    kind: DocKind::Surfaced,
                    site: None,
                    annotations: tier
                        .into_iter()
                        .map(|value| Annotation {
                            key: "tier".into(),
                            value: value.into(),
                        })
                        .collect(),
                }
            })
            .collect()
    }

    /// The five counts of every query pinned, sealed and with a segment
    /// pending, annotations off and on: what the kernel skips, drops and
    /// folds is a function of its bounds and the order it meets candidates
    /// in, so a kernel that reaches the same hits another way reads other
    /// counts here. `rare dense` leaves `rare` alone essential in most live
    /// windows, `rare mid dense` two terms, and at `k` past the doc count
    /// the threshold never rises and every term stays essential.
    #[test]
    fn counts_are_pinned_on_three_tiers() {
        use crate::searcher::search_view;
        use crate::segments::SegmentedIndex;
        let n = 12 * WINDOW + 50;
        let pending = 60;
        let index_of = |docs: Vec<BatchDoc>| {
            let mut idx = SearchIndex::new();
            idx.add_batch(&deepweb_common::ThreadPool::new(1), docs);
            idx
        };
        let sealed = index_of(tiered(0..n));
        let fresh = SegmentedIndex::new(index_of(tiered(0..n - pending)));
        assert_eq!(fresh.apply(tiered(n - pending..n)), pending);
        let gen = fresh.snapshot();
        let queries = [
            ("rare dense", 1usize),
            ("rare dense", 10),
            ("rare mid dense", 100),
            ("rare mid dense", n),
        ];
        let mut scratch = QueryScratch::new();
        let mut got = Vec::new();
        for (vi, view) in [IndexView::sealed(&sealed), gen.view()].iter().enumerate() {
            for use_annotations in [false, true] {
                for (q, k) in queries {
                    let fold = SearchOptions {
                        use_annotations,
                        pruning: PruningMode::Exhaustive,
                    };
                    let opts = SearchOptions {
                        pruning: PruningMode::BlockMax,
                        ..fold
                    };
                    let hits = search_windowed(view, q, k, opts, &mut scratch);
                    let c = counts(&scratch);
                    let ctx = format!("view {vi} ann={use_annotations} q={q:?} k={k}: {c:?}");
                    assert_eq!(hits, search_view(view, q, k, fold, &mut scratch), "{ctx}");
                    let [.., walked] = c;
                    match (q, k) {
                        (_, k) if k >= n => assert_eq!(walked, 0, "{ctx}"),
                        ("rare dense", _) => assert!(walked > 0, "{ctx}"),
                        _ => {}
                    }
                    got.push(c);
                }
            }
        }
        // `[docs_scored, windows_skipped, candidates_dropped,
        // postings_folded, windows_walked]` per query, in loop order.
        let pinned: [[usize; 5]; 16] = [
            // sealed, annotations off
            [19, 3, 288, 329, 9],
            [92, 3, 215, 342, 9],
            [576, 0, 567, 1467, 2],
            [3122, 0, 0, 3630, 0],
            // sealed, annotations on
            [37, 3, 270, 343, 9],
            [253, 3, 304, 615, 8],
            [893, 0, 250, 1645, 2],
            [3122, 0, 0, 3630, 0],
            // one segment pending, annotations off
            [19, 3, 287, 328, 8],
            [92, 3, 214, 341, 8],
            [572, 0, 561, 1453, 2],
            [3062, 0, 0, 3560, 0],
            // one segment pending, annotations on
            [37, 3, 269, 342, 8],
            [252, 3, 304, 613, 7],
            [886, 0, 247, 1628, 2],
            [3062, 0, 0, 3560, 0],
        ];
        assert_eq!(got, pinned);
    }

    /// The kernel is picked by the postings a query reads — the sum of its
    /// terms' view-wide `df` — not by the mode alone. `dense` is in every
    /// doc: at [`MAX_FOLDED_POSTINGS`] docs it is folded and no window runs,
    /// one doc more and block-max windows it. A pending segment counts: a
    /// base below the cutoff is windowed once the segments over it push the
    /// sum past. Every side returns the fold's bytes, with the same counts
    /// at 1 and 3 workers (a scratch that just windowed reads 0 after a
    /// folded query).
    #[test]
    fn the_kernel_is_chosen_by_the_postings_a_query_reads() {
        use crate::searcher::search_view;
        use crate::segments::SegmentedIndex;
        let at = planted(MAX_FOLDED_POSTINGS);
        let above = planted(MAX_FOLDED_POSTINGS + 1);
        assert_eq!(at.postings().df("dense"), MAX_FOLDED_POSTINGS);
        let seg = SegmentedIndex::new(planted(MAX_FOLDED_POSTINGS - 100));
        let dense_docs = |from: usize| -> Vec<BatchDoc> {
            (from..from + 60)
                .map(|i| BatchDoc {
                    url: Url::new("p.sim", format!("/s{i}")),
                    title: String::new(),
                    text: "dense alpha".into(),
                    kind: DocKind::Surface,
                    site: None,
                    annotations: vec![],
                })
                .collect()
        };
        seg.apply(dense_docs(0));
        let below_with_pending = seg.snapshot();
        seg.apply(dense_docs(60));
        let above_with_pending = seg.snapshot();
        let views = [
            IndexView::sealed(&above),
            IndexView::sealed(&at),
            above_with_pending.view(),
            below_with_pending.view(),
        ];
        let sums: Vec<usize> = views
            .iter()
            .map(|v| v.df(v.term_id("dense").unwrap()))
            .collect();
        let cut = MAX_FOLDED_POSTINGS;
        assert_eq!(sums, [cut + 1, cut, cut + 20, cut - 40]);
        let opts = SearchOptions {
            pruning: PruningMode::BlockMax,
            ..Default::default()
        };
        let run = |workers: usize| -> Vec<[usize; 5]> {
            deepweb_common::ThreadPool::new(workers).map_indices_init(
                views.len(),
                QueryScratch::new,
                |scratch, vi| {
                    let view = &views[vi];
                    let hits = search_view(view, "dense", 1, opts, scratch);
                    let got = counts(scratch);
                    let fold = search_view(view, "dense", 1, SearchOptions::default(), scratch);
                    assert_eq!(hits, fold, "view {vi}");
                    got
                },
            )
        };
        let one = run(1);
        for (vi, c) in one.iter().enumerate() {
            if sums[vi] > cut {
                assert!(c[1] > 0, "view {vi} of {} postings: {c:?}", sums[vi]);
            } else {
                assert_eq!(*c, [0; 5], "view {vi} of {} postings", sums[vi]);
            }
        }
        // The pending docs decide: the base alone would be folded.
        assert!(above_with_pending.base().postings().df("dense") <= cut);
        assert_eq!(run(3), one);
    }

    /// Window geometry and fold order. `listing` sits in every doc and
    /// `common` in most, `rareterm` in one of eleven: indexes sized at and
    /// around window edges (one doc and `WINDOW ± 1` included), at every
    /// block size, must return the exhaustive fold's bytes whether the dense
    /// term precedes the rare ones in the signature or follows them — a
    /// non-essential term folded before an essential one is the case a wrong
    /// fold order gets wrong in the low bits. And the property that makes
    /// "never worse than the fold" checkable: the kernel scores at most the
    /// docs that hold a signature term, and exactly those when `k` admits
    /// them all.
    #[test]
    fn window_edges_and_signature_order_equal_the_fold() {
        let w = WINDOW;
        let sizes = [
            1,
            w - 1,
            w,
            w + 1,
            w + 2,
            2 * w - 2,
            2 * w + 1,
            3 * w + 50,
            8 * w + 37,
        ];
        for n in sizes {
            let idx = build(n);
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
            // A repeated term, which query analysis would have deduplicated:
            // `common, rareterm, common` wherever both occur.
            let mut repeated = sigs[2].clone();
            repeated.extend(sigs[2].first());
            sigs.push(repeated);
            for block_size in [1usize, 3, POSTINGS_BLOCK_SIZE, 1000] {
                let pr = blocks_of(&idx, block_size);
                for use_annotations in [false, true] {
                    let opts = SearchOptions {
                        use_annotations,
                        ..Default::default()
                    };
                    for sig in &sigs {
                        let holding: std::collections::BTreeSet<u32> = sig
                            .iter()
                            .flat_map(|&id| idx.postings().postings_id(id))
                            .map(|p| p.doc.0)
                            .collect();
                        for k in [1usize, 10, 1000] {
                            let ctx = format!(
                                "n={n} size={block_size} ann={use_annotations} \
                                 sig={sig:?} k={k}"
                            );
                            let want = top_k(&view, sig, k, opts, &mut scratch);
                            let got = pruned_topk(&view, &pr, sig, k, opts, &mut scratch);
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
