//! Doc-range index partitions — the bottom layer of the cluster serving
//! tier (DESIGN.md §13).
//!
//! A partition is a contiguous doc-id range `[lo, hi)` over one shared,
//! immutable [`SearchIndex`]. Splitting by *document* rather than by term
//! keeps every per-doc score whole inside exactly one partition: a partition
//! hands its range to the one kernel ([`top_k_range`]), which folds
//! contributions in query-term order — the same floating-point sequence,
//! over the same *global* BM25 statistics (N, df, avg doc length), as the
//! sequential searcher. Per-partition top-k is therefore **exact**, and the
//! aggregator's merge of exact top-k lists under the strict
//! score-desc/doc-id-asc order reproduces the global top-k byte-for-byte.
//!
//! Each partition owns its serving state: a pool of reusable
//! [`QueryScratch`]es (the per-partition broker in miniature) and a served
//! counter, so the aggregator can fan a query out without any cross-partition
//! shared mutable state.

use crate::index::SearchIndex;
use crate::searcher::{top_k_range, Hit, QueryScratch, SearchOptions};
use crate::view::IndexView;
use deepweb_common::ids::TermId;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Contiguous doc-id ranges covering `num_docs` documents in `parts` slices,
/// sized as evenly as possible (first `num_docs % parts` slices get the
/// extra doc). Pure and deterministic: the layout is a function of the two
/// counts alone, never of build order or hashing.
pub fn partition_ranges(num_docs: usize, parts: usize) -> Vec<(u32, u32)> {
    let parts = parts.max(1);
    let base = num_docs / parts;
    let extra = num_docs % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut lo = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        ranges.push((lo as u32, (lo + len) as u32));
        lo += len;
    }
    ranges
}

/// One doc-range slice of the index: the unit the [`ClusterServer`]
/// aggregator fans queries across.
///
/// [`ClusterServer`]: crate::cluster::ClusterServer
pub struct IndexPartition {
    ordinal: usize,
    lo: u32,
    hi: u32,
    /// Recycled scratches for the parallel single-query fan-out, where
    /// several partitions of the same query score concurrently. (Batch mode
    /// reuses one worker scratch across a query's whole partition scan
    /// instead — the scratch is fully reset between partitions either way.)
    scratch: Mutex<Vec<QueryScratch>>,
    served: AtomicU64,
}

impl std::fmt::Debug for IndexPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexPartition")
            .field("ordinal", &self.ordinal)
            .field("doc_range", &self.doc_range())
            .field("served", &self.served())
            .finish()
    }
}

impl IndexPartition {
    /// Build `parts` partitions covering every doc of `index`.
    pub fn layout(index: &SearchIndex, parts: usize) -> Vec<IndexPartition> {
        partition_ranges(index.postings().num_docs(), parts)
            .into_iter()
            .enumerate()
            .map(|(ordinal, (lo, hi))| IndexPartition {
                ordinal,
                lo,
                hi,
                scratch: Mutex::new(Vec::new()),
                served: AtomicU64::new(0),
            })
            .collect()
    }

    /// Position of this partition in the cluster layout.
    pub fn ordinal(&self) -> usize {
        self.ordinal
    }

    /// The doc-id range this partition owns.
    pub fn doc_range(&self) -> Range<u32> {
        self.lo..self.hi
    }

    /// Documents owned by this partition.
    pub fn num_docs(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Queries this partition has scored.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Run `f` against a scratch from this partition's pool (allocating one
    /// only when every pooled scratch is in use by a concurrent query).
    pub(crate) fn with_pooled_scratch<R>(&self, f: impl FnOnce(&mut QueryScratch) -> R) -> R {
        let mut scratch = self.scratch.lock().pop().unwrap_or_default();
        let out = f(&mut scratch);
        self.scratch.lock().push(scratch);
        out
    }

    /// Score the resolved query signature against this partition's doc range
    /// and return the partition-local top `k` — exact, because every touched
    /// doc's score is complete (all of its postings for every query term lie
    /// inside this range).
    pub(crate) fn search_sig(
        &self,
        index: &SearchIndex,
        sig: &[TermId],
        k: usize,
        opts: SearchOptions,
        scratch: &mut QueryScratch,
    ) -> Vec<Hit> {
        self.served.fetch_add(1, Ordering::Relaxed);
        let view = IndexView::sealed(index);
        top_k_range(&view, sig, k, opts, self.lo, self.hi, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::DocKind;
    use crate::searcher::search;
    use deepweb_common::Url;

    #[test]
    fn ranges_cover_exactly_once() {
        for num_docs in [0usize, 1, 2, 7, 64, 65, 100] {
            for parts in [1usize, 2, 3, 4, 7, 13] {
                let ranges = partition_ranges(num_docs, parts);
                assert_eq!(ranges.len(), parts);
                let mut expect_lo = 0u32;
                for &(lo, hi) in &ranges {
                    assert_eq!(lo, expect_lo, "gap or overlap at {lo}");
                    assert!(hi >= lo);
                    expect_lo = hi;
                }
                assert_eq!(expect_lo as usize, num_docs, "ranges must cover all docs");
                let sizes: Vec<u32> = ranges.iter().map(|&(lo, hi)| hi - lo).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "ranges must be balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn zero_parts_clamps_to_one() {
        assert_eq!(partition_ranges(5, 0), vec![(0, 5)]);
    }

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
        let k = 3;
        for parts in [1usize, 2, 3, 7] {
            let partitions = IndexPartition::layout(&idx, parts);
            for q in ["honda", "ford focus", "honda civic focus"] {
                let global = search(&idx, q, k, opts);
                let mut scratch = QueryScratch::new();
                scratch.analyze(q);
                scratch.resolve(&IndexView::sealed(&idx));
                let sig = scratch.resolved_sig().to_vec();
                let mut merged: Vec<Hit> = partitions
                    .iter()
                    .flat_map(|p| p.search_sig(&idx, &sig, k, opts, &mut scratch))
                    .collect();
                merged.sort_by(crate::searcher::hit_order);
                merged.truncate(k);
                assert_eq!(merged, global, "parts={parts} q={q:?}");
            }
        }
    }
}
