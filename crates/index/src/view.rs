//! The one read-side view of an index (DESIGN.md §9): a sealed base
//! [`SearchIndex`] plus the pending delta segments and overlay of a
//! freshness-tier generation. A sealed index is simply the view with no
//! segments. Every serving tier reads terms, statistics, postings and
//! annotations through this struct, so there is one kernel
//! ([`top_k`](crate::searcher::top_k)) and the tiers differ only in which
//! view they hand it.
//!
//! Byte-identity of a segmented view to a from-scratch rebuild rests on the
//! three invariants argued in [`segments`](crate::segments): overlay ids
//! replay the merge's interning order, statistics are exact integer totals
//! over base + segments, and a term's runs come back in ascending global doc
//! order — the merged posting list's order.

use crate::index::SearchIndex;
use crate::postings::{bm25_idf, Posting, Postings};
use crate::segments::{Overlay, SealedSegment};
use deepweb_common::ids::{DocId, FacetKeyId, TermId};
use std::sync::Arc;

/// One contiguous run of a term's postings: the global doc id of the run's
/// local doc 0, the postings (doc ids local to the run's owner), and the
/// owner's doc lengths (indexed by the same local ids).
pub(crate) type PostingRun<'a> = (u32, &'a [Posting], &'a Postings);

/// See the module docs.
#[derive(Clone, Copy)]
pub(crate) struct IndexView<'a> {
    pub(crate) base: &'a SearchIndex,
    pub(crate) segments: &'a [Arc<SealedSegment>],
    /// What the segments lay over the base; `None` for a sealed index.
    pub(crate) overlay: Option<&'a Overlay>,
}

/// A document count as a doc-id bound. Doc ids are `u32`, so a count past
/// `u32::MAX` saturates: ranges built from it stay monotone and
/// non-overlapping (the tail is unreachable, never aliased onto low ids as
/// a wrapping `as u32` would).
pub(crate) fn doc_bound(count: usize) -> u32 {
    u32::try_from(count).unwrap_or(u32::MAX)
}

/// The id a dense id space (docs, terms, facet keys) assigns next — its
/// current size — saturating like [`doc_bound`]: past `u32::MAX` entries the
/// id sticks at the top instead of wrapping onto a live low id. Every other
/// count stored in 32 bits (a term frequency, a document's length, a block's
/// postings) is narrowed here too: it is the size of a dense run.
pub(crate) fn next_id(len: usize) -> u32 {
    doc_bound(len)
}

impl<'a> IndexView<'a> {
    /// The view of a sealed index: no segments, no overlay.
    pub(crate) fn sealed(base: &'a SearchIndex) -> Self {
        IndexView {
            base,
            segments: &[],
            overlay: None,
        }
    }

    /// Total documents (base + segments).
    pub(crate) fn num_docs(&self) -> usize {
        self.overlay
            .map_or(self.base.postings().num_docs(), |o| o.num_docs)
    }

    /// Mean document length over base + segments from the exact integer
    /// totals, floored at 1.0 (the BM25 normaliser every kernel divides by).
    pub(crate) fn avg_doc_len(&self) -> f64 {
        let total = self
            .overlay
            .map_or(self.base.postings().total_doc_len(), |o| o.total_len);
        match self.num_docs() {
            0 => 1.0,
            n => (total as f64 / n as f64).max(1.0),
        }
    }

    /// Resolve a term against the base dictionary extended by the overlay —
    /// the query's single string hash.
    pub(crate) fn term_id(&self, term: &str) -> Option<TermId> {
        self.base
            .postings()
            .term_id(term)
            .or_else(|| self.overlay?.terms.get(term).copied())
    }

    /// Document frequency: base df (for base-dictionary ids) plus each
    /// segment's — the integer the merged list's length would be.
    pub(crate) fn df(&self, id: TermId) -> usize {
        let base = self.base.postings();
        let mut df = if id.as_usize() < base.num_terms() {
            base.df_id(id)
        } else {
            0
        };
        for seg in self.segments {
            if let Some(&local) = seg.inv.get(&id) {
                df += seg.postings.df_id(local);
            }
        }
        df
    }

    /// BM25 inverse document frequency over the view-wide statistics.
    pub(crate) fn idf(&self, id: TermId) -> f64 {
        bm25_idf(self.num_docs() as f64, self.df(id) as f64)
    }

    /// The posting runs of `id`: the base's list first (empty for a term
    /// only the overlay knows), then each segment holding the term, in
    /// segment order — ascending global doc id, i.e. the merged posting
    /// list.
    pub(crate) fn runs(&self, id: TermId) -> impl Iterator<Item = PostingRun<'a>> + 'a {
        let base = self.base.postings();
        let base_list = if id.as_usize() < base.num_terms() {
            base.postings_id(id)
        } else {
            &[]
        };
        let seg_runs = self.segments.iter().filter_map(move |seg| {
            let &local = seg.inv.get(&id)?;
            Some((seg.base_doc, seg.postings.postings_id(local), &seg.postings))
        });
        std::iter::once((0, base_list, base)).chain(seg_runs)
    }

    /// A doc's interned annotations, `(key, value tokens)` each, read from
    /// the annotation column of whichever part holds the doc.
    pub(crate) fn annotations(
        &self,
        doc: DocId,
    ) -> impl Iterator<Item = (FacetKeyId, &'a [TermId])> + 'a {
        if doc.as_usize() < self.base.len() {
            return self.base.annotation_column().doc(doc);
        }
        let si = self
            .segments
            .partition_point(|s| s.base_doc <= doc.0)
            .saturating_sub(1);
        let seg = &self.segments[si];
        seg.annotations.doc(DocId(doc.0 - seg.base_doc))
    }

    /// Upper bound on any doc's annotation adjustment: the max over its parts.
    pub(crate) fn annotation_bound(&self) -> f64 {
        let parts = self.segments.iter().map(|s| s.annotations.boost_bound());
        parts.fold(self.base.annotation_column().boost_bound(), f64::max)
    }

    /// Interned facet keys over base + overlay: every key id is below it.
    pub(crate) fn num_facet_keys(&self) -> usize {
        self.base.num_facet_keys() + self.overlay.map_or(0, |o| o.num_facet_keys())
    }

    /// The facet keys `id` is a known value of, over the base ∪ overlay
    /// vocabulary — the merged index's vocabulary, by construction. A key
    /// may come back twice (once from each side).
    pub(crate) fn value_keys(&self, id: TermId) -> impl Iterator<Item = FacetKeyId> + 'a {
        let overlay = self.overlay.map_or(&[][..], |o| o.value_keys(id));
        self.base.value_keys(id).iter().chain(overlay).copied()
    }
}
