//! Inverted index: interned terms → postings (doc id, term frequency).
//!
//! Postings are kept sorted by doc id (documents are appended in id order, so
//! this is free) and term frequencies are u32. No positions — snippets re-scan
//! stored text, which is cheaper than positional postings at this scale.
//!
//! Postings are keyed by an interned [`TermId`] out of a single
//! [`TermDict`]: a query term is hashed exactly once (the dictionary lookup)
//! and every structure after that — posting lists, document frequencies —
//! is a flat `Vec` index. [`Postings`] is at once the index's resident raw
//! format (the only one: every kernel reads these lists), the doc-local
//! build unit the parallel index builder and the freshness tier produce per
//! doc range, and what [`BlockPostings`] describes — block maxima that hold
//! no postings, and no doc ids, of their own (DESIGN.md §10, §14).
//!
//! Both structures grow by a doc-range suffix without redoing the prefix.
//! `Postings::absorbed` appends shards onto a copy made *after* the id
//! walk, so each list is allocated once at its final length.
//! `BlockPostings::extended` carries every full block of the index it
//! extends over as is and describes only the partial tails and the new
//! postings; an index's first blocks are that extension from the empty
//! index, so blocks are made in one place. Both run on the index's pool,
//! per term.

use crate::view::{doc_bound, next_id};
use deepweb_common::ids::{DocId, TermId};
use deepweb_common::text::{is_stopword, lower_into, raw_tokens};
use deepweb_common::{TermDict, ThreadPool};

/// BM25 inverse document frequency — one copy of the formula, evaluated by
/// the index view against base-plus-segment statistics, so a segmented
/// generation's scores stay bit-identical to a merged rebuild.
pub(crate) fn bm25_idf(num_docs: f64, df: f64) -> f64 {
    ((num_docs - df + 0.5) / (df + 0.5) + 1.0).ln()
}

/// One posting's BM25 contribution — the single scoring expression every
/// serving path (exhaustive accumulation, the pruned block-max kernel, and
/// the per-block upper bounds) evaluates, so a bound and the value it bounds
/// can never drift apart. The expression is written exactly as the original
/// kernel computed it; reordering the operations would change low bits and
/// break the byte-identity contract.
///
/// It is spelled in two halves so that a pass over every posting of an index
/// ([`BlockPostings::extended`]'s exact block maxima) can evaluate the first
/// half — which depends on the document alone — once per document instead of
/// once per posting; composing the halves performs the same operations in
/// the same order as the one-line form.
#[inline]
pub(crate) fn bm25_contribution(idf: f64, tf: f64, dl: f64, avg_len: f64) -> f64 {
    bm25_normalised(idf, tf, bm25_length_norm(dl, avg_len))
}

/// BM25 term-frequency saturation. Every query scores under the one pair
/// `(K1, B)`, so the block maxima stored at build hold until a pending
/// segment moves `idf` or the average document length (DESIGN.md §14).
const K1: f64 = 1.2;
/// BM25 document-length normalisation.
const B: f64 = 0.75;

/// The document-length term of [`bm25_contribution`]'s denominator.
#[inline]
fn bm25_length_norm(dl: f64, avg_len: f64) -> f64 {
    K1 * (1.0 - B + B * dl / avg_len)
}

/// [`bm25_contribution`] given its document's [`bm25_length_norm`].
#[inline]
fn bm25_normalised(idf: f64, tf: f64, length_norm: f64) -> f64 {
    let denom = tf + length_norm;
    idf * tf * (K1 + 1.0) / denom
}

/// One posting: a document and the term's frequency in it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Posting {
    /// Document id.
    pub doc: DocId,
    /// Term frequency.
    pub tf: u32,
}

/// The postings lists plus document lengths, keyed by [`TermId`].
#[derive(Default, Clone, Debug)]
pub struct Postings {
    dict: TermDict,
    lists: Vec<Vec<Posting>>,
    doc_len: Vec<u32>,
    total_len: u64,
    /// Per-document interning scratch and the recycled lowercase token
    /// buffer; both always empty between calls (so two structurally equal
    /// indexes also compare equal via `Debug`).
    scratch: Vec<TermId>,
    buf: String,
}

impl Postings {
    /// Create empty postings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a document from its raw token slices, in order, as
    /// [`raw_tokens`] yields them. `doc` must be the next id in sequence
    /// (enforced so postings stay sorted).
    ///
    /// This is the **single** indexing kernel — a parallel build shard and a
    /// delta segment both run it. Each slice is lowercased into one recycled
    /// buffer and interned from there, so only a term's first appearance
    /// allocates (inside the dictionary). Ids are assigned in
    /// first-appearance order over the token stream (the discipline the
    /// parallel build's deterministic id remap replays), then tf is
    /// aggregated by sorting the small id buffer and run-length counting —
    /// no string-keyed map, no per-document allocation in steady state.
    pub fn add_document<'a>(&mut self, doc: DocId, tokens: impl IntoIterator<Item = &'a str>) {
        assert_eq!(
            doc.as_usize(),
            self.doc_len.len(),
            "documents must be added in id order"
        );
        let ids = &mut self.scratch;
        ids.clear();
        for raw in tokens {
            lower_into(&mut self.buf, raw);
            ids.push(self.dict.intern(&self.buf));
        }
        self.buf.clear();
        self.doc_len.push(next_id(ids.len()));
        self.total_len += ids.len() as u64;
        self.lists.resize_with(self.dict.len(), Vec::new);
        ids.sort_unstable();
        let mut i = 0;
        while i < ids.len() {
            let id = ids[i];
            let mut j = i + 1;
            while j < ids.len() && ids[j] == id {
                j += 1;
            }
            self.lists[id.as_usize()].push(Posting {
                doc,
                tf: next_id(j - i),
            });
            i = j;
        }
        ids.clear();
    }

    /// The term dictionary.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Intern a term into the dictionary without attaching postings (used
    /// for annotation/facet value tokens, which must live in the same id
    /// space as body terms so the query kernel resolves a term once for
    /// both scoring and facet matching). Keeps the lists vector sized to
    /// the dictionary, so a later `Postings::absorbed` walk stays in step.
    pub(crate) fn intern_term(&mut self, term: &str) -> TermId {
        let id = self.dict.intern(term);
        if self.lists.len() < self.dict.len() {
            self.lists.resize_with(self.dict.len(), Vec::new);
        }
        id
    }

    /// Intern an annotation or facet value's analysed tokens — lowercased
    /// through the recycled buffer, stopwords dropped (a value token must be
    /// *matchable* by an analysed query term, so "Out-of Stock" becomes
    /// `[out, stock]`) — returning their ids in value order.
    pub(crate) fn intern_value(&mut self, value: &str) -> Vec<TermId> {
        let mut buf = std::mem::take(&mut self.buf);
        let ids = raw_tokens(value)
            .filter_map(|raw| {
                lower_into(&mut buf, raw);
                (!is_stopword(&buf)).then(|| self.intern_term(&buf))
            })
            .collect();
        buf.clear();
        self.buf = buf;
        ids
    }

    /// Id of a term, if it has been indexed.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.dict.get(term)
    }

    /// Postings for an interned term.
    pub fn postings_id(&self, id: TermId) -> &[Posting] {
        &self.lists[id.as_usize()]
    }

    /// Postings for a term (empty if unseen).
    pub fn postings(&self, term: &str) -> &[Posting] {
        match self.dict.get(term) {
            Some(id) => self.postings_id(id),
            None => &[],
        }
    }

    /// Document frequency of an interned term.
    pub(crate) fn df_id(&self, id: TermId) -> usize {
        self.lists[id.as_usize()].len()
    }

    /// Document frequency of a term.
    pub fn df(&self, term: &str) -> usize {
        self.postings(term).len()
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.doc_len.len()
    }

    /// Number of distinct terms.
    pub(crate) fn num_terms(&self) -> usize {
        self.dict.len()
    }

    /// Length (token count) of a document.
    pub fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_len[doc.as_usize()]
    }

    /// Total token count across all documents — the exact integer numerator
    /// of `Postings::avg_doc_len`, exposed so a segmented reader can
    /// recompute the merged average from per-segment totals bit-for-bit.
    pub fn total_doc_len(&self) -> u64 {
        self.total_len
    }

    /// Mean document length.
    pub(crate) fn avg_doc_len(&self) -> f64 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.doc_len.len() as f64
        }
    }

    /// Total number of postings entries (index size proxy).
    pub(crate) fn num_postings(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// BM25 inverse document frequency of an interned term.
    pub(crate) fn idf_id(&self, id: TermId) -> f64 {
        bm25_idf(self.num_docs() as f64, self.df_id(id) as f64)
    }

    /// BM25 inverse document frequency of `term`.
    pub fn idf(&self, term: &str) -> f64 {
        bm25_idf(self.num_docs() as f64, self.df(term) as f64)
    }

    /// `self` with every shard's postings appended in order, as a new
    /// `Postings` — `self` is only read. A shard is built over doc-local ids
    /// `0..shard.num_docs()`; its documents become the ids after those of
    /// `self` and of the shards before it.
    ///
    /// Merge discipline (determinism argument, DESIGN.md §8/§10): shards hold
    /// *contiguous* document ranges, and shards are appended in range order.
    /// A shard's dictionary records terms in first-appearance order within the
    /// shard (documents in order, tokens in document order — exactly what
    /// [`Postings::add_document`] does), so re-interning shard dictionaries in
    /// shard order reproduces the sequential build's id assignment, and
    /// concatenating each term's per-shard lists reproduces its doc-sorted
    /// postings. The result is identical to adding every document
    /// sequentially onto `self`.
    ///
    /// The copy is made after that id walk, when every list's final length
    /// (its length here plus each shard's) is known: a list is allocated
    /// once, on the calling thread, and carries no slack; `pool` fills runs
    /// of terms holding about equal postings (`term_runs`).
    ///
    /// Returns beside it one remap table per shard, `remap[local_id] =
    /// global_id` for every term of the shard's dictionary: the index
    /// rewrites the shard's pre-tokenised annotation ids through it, so the
    /// annotation layer replays the sequential interning order exactly like
    /// postings do (DESIGN.md §12).
    pub(crate) fn absorbed(
        &self,
        shards: &[&Postings],
        pool: &ThreadPool,
    ) -> (Postings, Vec<Vec<TermId>>) {
        let mut out = Postings {
            dict: self.dict.clone(),
            total_len: self.total_len,
            ..Postings::default()
        };
        let remaps: Vec<Vec<TermId>> = shards
            .iter()
            .map(|shard| {
                let terms = shard.dict.iter();
                terms.map(|(_, term)| out.dict.intern(term)).collect()
            })
            .collect();
        let mut final_len: Vec<usize> = self.lists.iter().map(Vec::len).collect();
        final_len.resize(out.dict.len(), 0);
        for (shard, remap) in shards.iter().zip(&remaps) {
            for (list, id) in shard.lists.iter().zip(remap) {
                final_len[id.as_usize()] += list.len();
            }
        }
        out.lists = final_len
            .iter()
            .map(|&len| Vec::with_capacity(len))
            .collect();
        let docs = shards.iter().map(|s| s.doc_len.len()).sum::<usize>();
        out.doc_len = Vec::with_capacity(self.doc_len.len() + docs);
        out.doc_len.extend_from_slice(&self.doc_len);
        let mut offsets = Vec::with_capacity(shards.len());
        for shard in shards {
            offsets.push(doc_bound(out.doc_len.len()));
            out.total_len += shard.total_len;
            out.doc_len.extend_from_slice(&shard.doc_len);
        }
        let runs = term_runs(&mut out.lists, &final_len, pool.workers(), |t| t);
        pool.map(runs, |_, (run, lists)| {
            for (list, t) in lists.iter_mut().zip(run.clone()) {
                list.extend_from_slice(self.lists.get(t).map_or(&[][..], Vec::as_slice));
            }
            for ((shard, remap), &offset) in shards.iter().zip(&remaps).zip(&offsets) {
                for (list, id) in shard.lists.iter().zip(remap) {
                    if run.contains(&id.as_usize()) {
                        lists[id.as_usize() - run.start].extend(list.iter().map(|p| Posting {
                            doc: DocId(p.doc.0 + offset),
                            tf: p.tf,
                        }));
                    }
                }
            }
        });
        (out, remaps)
    }

    /// Bytes the posting lists hold allocated (capacity, not length).
    #[cfg(test)]
    pub(crate) fn list_bytes(&self) -> usize {
        let slots: usize = self.lists.iter().map(Vec::capacity).sum();
        slots * std::mem::size_of::<Posting>()
    }
}

/// `items`, laid out term by term (term `t`'s from `start(t)`), cut at term
/// boundaries into at most `parts` runs of about equal postings (`df`): the
/// tasks of a per-term pass on a pool, each with the terms it covers.
fn term_runs<'a, T>(
    mut items: &'a mut [T],
    df: &[usize],
    parts: usize,
    start: impl Fn(usize) -> usize,
) -> Vec<(std::ops::Range<usize>, &'a mut [T])> {
    let share = df.iter().sum::<usize>().div_ceil(parts).max(1);
    let mut runs = Vec::with_capacity(parts);
    let (mut first, mut held) = (0, 0);
    for (t, &n) in df.iter().enumerate() {
        held += n;
        if (held >= share && runs.len() + 1 < parts) || t + 1 == df.len() {
            let (run, rest) = std::mem::take(&mut items).split_at_mut(start(t + 1) - start(first));
            items = rest;
            runs.push((first..t + 1, run));
            (first, held) = (t + 1, 0);
        }
    }
    runs
}

/// Postings per block (DESIGN.md §14). 64 keeps the per-block metadata at
/// half a byte per posting of a long list while a block stays small enough
/// for its maximum to be a useful skip bound.
pub(crate) const POSTINGS_BLOCK_SIZE: usize = 64;

/// What the block index knows about one fixed-size run of a term's raw
/// posting list: the three numbers the pruned kernel bounds it by (DESIGN.md
/// §14). Neither the postings nor where they sit are stored — see
/// [`BlockPostings`] for which slice of the list a block describes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct PostingBlock {
    /// Max term frequency in the block.
    pub max_tf: u32,
    /// Min document length over the block's docs — with `max_tf`, enough to
    /// recompute a safe upper bound under *any* corpus statistics.
    pub min_dl: u32,
    /// Max BM25 contribution over the block's postings under the index's own
    /// statistics, via `bm25_contribution` — exact (it *is* one posting's
    /// contribution), so the bound is as tight as possible.
    pub max_contrib: f64,
}

const _: () = assert!(std::mem::size_of::<PostingBlock>() == 16);

/// Describe one block's postings (a non-empty run of one term's list) in one
/// pass: `length_norm` is every doc's BM25 length norm and `idf` the term's,
/// under the index's own statistics.
fn describe_block(
    postings: &Postings,
    chunk: &[Posting],
    length_norm: &[f64],
    idf: f64,
) -> PostingBlock {
    let mut block = PostingBlock {
        max_tf: 0,
        min_dl: u32::MAX,
        max_contrib: 0.0,
    };
    for p in chunk {
        block.max_tf = block.max_tf.max(p.tf);
        block.min_dl = block.min_dl.min(postings.doc_len(p.doc));
        block.max_contrib = block.max_contrib.max(contribution(p, length_norm, idf));
    }
    block
}

/// One posting's BM25 contribution, its doc's length norm precomputed.
#[inline]
fn contribution(p: &Posting, length_norm: &[f64], idf: f64) -> f64 {
    bm25_normalised(idf, f64::from(p.tf), length_norm[p.doc.as_usize()])
}

/// The largest [`contribution`] over `chunk` (0 if empty), folded in four
/// independent lanes: contributions are finite and non-negative, so the
/// maximum has the same bits in any order.
fn max_contribution(chunk: &[Posting], length_norm: &[f64], idf: f64) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut quads = chunk.chunks_exact(4);
    for quad in quads.by_ref() {
        for (lane, p) in lanes.iter_mut().zip(quad) {
            *lane = lane.max(contribution(p, length_norm, idf));
        }
    }
    for (lane, p) in lanes.iter_mut().zip(quads.remainder()) {
        *lane = lane.max(contribution(p, length_norm, idf));
    }
    lanes.into_iter().fold(0.0, f64::max)
}

/// Per-term block maxima over finished [`Postings`] (DESIGN.md §14):
/// metadata *describing* the raw lists, not a second copy of them.
///
/// Layout: per term, its sorted posting list is cut into runs of
/// `block_size` postings (only the last may be shorter), one
/// `PostingBlock` each. Block `j` of a term describes
/// `list[j · block_size ..]` of that term's raw list, up to `block_size`
/// postings — the one data-format decision here, spelled once in
/// `BlockPostings::block_span` — so a score computed through the block index
/// reads the very `(doc, tf)` pairs the exhaustive fold reads.
///
/// Blocks are append-only once full: a full block's `(max_tf, min_dl)` is a
/// fact about postings that appending documents never touches, so
/// `BlockPostings::extended` carries it over verbatim. Only `max_contrib`
/// moves — it bakes in `N`, the term's `df` and the average doc length — and
/// is recomputed for every block.
#[derive(Clone, Debug)]
pub struct BlockPostings {
    /// Prefix offsets into `blocks`: term `t` owns
    /// `blocks[term_start[t] .. term_start[t + 1]]`.
    term_start: Vec<u32>,
    blocks: Vec<PostingBlock>,
    /// Postings per full block; only a term's last block may hold fewer.
    block_size: usize,
    /// Documents of the postings the blocks describe: a term's list over
    /// them is the postings with a lower doc id.
    pub(crate) docs: u32,
}

impl BlockPostings {
    /// The block index of no postings, for [`BlockPostings::extended`] to
    /// start from.
    pub(crate) fn empty(block_size: usize) -> Self {
        BlockPostings {
            term_start: Vec::new(),
            blocks: Vec::new(),
            block_size: block_size.max(1),
            docs: 0,
        }
    }

    /// Where block `j` of a term sits in the term's raw list of `df`
    /// postings — the block ↔ list mapping, which nothing else spells.
    #[inline]
    pub(crate) fn block_span(&self, df: usize, j: usize) -> std::ops::Range<usize> {
        let start = j * self.block_size;
        start..df.min(start + self.block_size)
    }

    /// [`BlockPostings::block_span`] read the other way: the blocks of term
    /// `id` that postings `span` (not empty) of its raw list fall in.
    #[inline]
    pub(crate) fn blocks_over(&self, id: TermId, span: std::ops::Range<usize>) -> &[PostingBlock] {
        &self.term_blocks(id)[span.start / self.block_size..span.end.div_ceil(self.block_size)]
    }

    /// The block index over all of `postings`, given `self` over its first
    /// `self.docs` documents (every list there is the part of the list here
    /// below that doc id — what `Postings::absorbed` guarantees). Identical
    /// to building over `postings` from empty.
    ///
    /// Per term, the blocks that stay as they are — all of them if the term
    /// gained no posting, else the full ones — are carried over, and only
    /// their `max_contrib` is recomputed, from the raw list under
    /// `postings`' statistics (the pair `(max_tf, min_dl)` alone would bound
    /// safely but loosely — see DESIGN.md §14 for what that cost). The
    /// partial tail and the new postings are described behind them in one
    /// pass that takes all three numbers, so a build from empty reads each
    /// posting once.
    /// `pool` fills the blocks, allocated here, by runs of terms (`term_runs`).
    pub(crate) fn extended(&self, postings: &Postings, pool: &ThreadPool) -> Self {
        let size = self.block_size;
        let avg_len = postings.avg_doc_len().max(1.0);
        let df: Vec<usize> = postings.lists.iter().map(Vec::len).collect();
        let mut term_start = Vec::with_capacity(df.len() + 1);
        term_start.push(0u32);
        for &n in &df {
            term_start.push(term_start[term_start.len() - 1] + next_id(n.div_ceil(size)));
        }
        let length_norm: Vec<f64> = postings
            .doc_len
            .iter()
            .map(|&dl| bm25_length_norm(f64::from(dl), avg_len))
            .collect();
        let mut blocks = vec![PostingBlock::default(); term_start[df.len()] as usize];
        let start = |t: usize| term_start[t] as usize;
        let runs = term_runs(&mut blocks, &df, pool.workers(), start);
        pool.map(runs, |_, (run, slice)| {
            let first = start(run.start);
            for t in run {
                let id = TermId(next_id(t));
                let list = postings.postings_id(id);
                let old = self.term_blocks(id);
                let old_len = list.partition_point(|p| p.doc.0 < self.docs);
                // Blocks that stay as they are: all of them if the term
                // gained no posting, else the full ones.
                let carried = if list.len() == old_len {
                    old.len()
                } else {
                    old_len / size
                };
                let idf = postings.idf_id(id);
                let own = &mut slice[start(t) - first..start(t + 1) - first];
                for (j, block) in own.iter_mut().enumerate() {
                    let chunk = &list[self.block_span(list.len(), j)];
                    *block = match old[..carried].get(j) {
                        Some(&kept) => PostingBlock {
                            max_contrib: max_contribution(chunk, &length_norm, idf),
                            ..kept
                        },
                        None => describe_block(postings, chunk, &length_norm, idf),
                    };
                }
            }
        });
        BlockPostings {
            term_start,
            blocks,
            block_size: size,
            docs: doc_bound(postings.num_docs()),
        }
    }

    /// The blocks of an interned term, in doc-id order. Terms interned after
    /// the build (or annotation-only terms) own no blocks — which is exact,
    /// since they own no postings either.
    pub(crate) fn term_blocks(&self, id: TermId) -> &[PostingBlock] {
        let t = id.as_usize();
        match (self.term_start.get(t), self.term_start.get(t + 1)) {
            (Some(&lo), Some(&hi)) => &self.blocks[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Total blocks.
    #[cfg(test)]
    fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Always 0: the block index describes the raw lists and holds no
    /// payload. Kept only for the benchmark package's
    /// `index.blocks.packed_bytes` row; goes when that row does (ROADMAP).
    pub fn packed_bytes(&self) -> usize {
        0
    }

    /// Bytes of block metadata.
    pub fn meta_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<PostingBlock>()
            + self.term_start.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Postings {
        let mut p = Postings::new();
        p.add_document(DocId(0), ["honda", "civic", "honda"]);
        p.add_document(DocId(1), ["ford", "focus"]);
        p.add_document(DocId(2), ["honda", "accord"]);
        p
    }

    #[test]
    fn postings_sorted_with_tf() {
        let p = sample();
        let honda = p.postings("honda");
        assert_eq!(honda.len(), 2);
        assert_eq!(
            honda[0],
            Posting {
                doc: DocId(0),
                tf: 2
            }
        );
        assert_eq!(
            honda[1],
            Posting {
                doc: DocId(2),
                tf: 1
            }
        );
        assert!(p.postings("tesla").is_empty());
    }

    #[test]
    fn term_ids_assigned_in_first_appearance_order() {
        let p = sample();
        assert_eq!(p.term_id("honda"), Some(TermId(0)));
        assert_eq!(p.term_id("civic"), Some(TermId(1)));
        assert_eq!(p.term_id("ford"), Some(TermId(2)));
        assert_eq!(p.term_id("tesla"), None);
        assert_eq!(p.postings_id(TermId(0)), p.postings("honda"));
        assert_eq!(p.dict().resolve(TermId(1)), "civic");
    }

    #[test]
    fn stats() {
        let p = sample();
        assert_eq!(p.num_docs(), 3);
        assert_eq!(p.df("honda"), 2);
        assert_eq!(p.doc_len(DocId(0)), 3);
        assert!((p.avg_doc_len() - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.num_postings(), 6);
    }

    #[test]
    fn idf_orders_rarity() {
        let p = sample();
        assert!(p.idf("focus") > p.idf("honda"));
    }

    #[test]
    #[should_panic]
    fn out_of_order_docs_rejected() {
        let mut p = Postings::new();
        p.add_document(DocId(1), ["x"]);
    }

    /// Postings over `docs`, one `add_document` each, doc ids following
    /// those already in `p`.
    fn add_all(p: &mut Postings, docs: &[Vec<String>]) {
        for terms in docs {
            let doc = DocId(doc_bound(p.num_docs()));
            p.add_document(doc, terms.iter().map(String::as_str));
        }
    }

    fn words(docs: &[&[&str]]) -> Vec<Vec<String>> {
        let doc = |terms: &&[&str]| terms.iter().map(|t| t.to_string()).collect();
        docs.iter().map(doc).collect()
    }

    #[test]
    fn shard_merge_equals_sequential_build() {
        let docs = words(&[
            &["honda", "civic", "honda"],
            &["ford", "focus"],
            &["honda", "accord"],
            &["zip", "ford"],
            &["accord"],
        ]);
        let mut sequential = Postings::new();
        add_all(&mut sequential, &docs);
        // Shards over contiguous ranges [0..2), [2..3), [3..5).
        let shards: Vec<Postings> = [0..2, 2..3, 3..5]
            .into_iter()
            .map(|range| {
                let mut shard = Postings::new();
                add_all(&mut shard, &docs[range]);
                shard
            })
            .collect();
        let (merged, _) =
            Postings::new().absorbed(&shards.iter().collect::<Vec<_>>(), &ThreadPool::new(2));
        assert_eq!(format!("{sequential:?}"), format!("{merged:?}"));
        assert_eq!(merged.postings("honda"), sequential.postings("honda"));
        assert_eq!(merged.num_postings(), sequential.num_postings());
        assert_eq!(merged.doc_len(DocId(4)), 1);
    }

    #[test]
    fn absorb_into_nonempty_base() {
        let base = sample();
        let mut shard = Postings::new();
        shard.add_document(DocId(0), ["honda", "tesla"]);
        let (got, remaps) = base.absorbed(&[&shard], &ThreadPool::new(2));
        let mut sequential = sample();
        sequential.add_document(DocId(3), ["honda", "tesla"]);
        assert_eq!(format!("{got:?}"), format!("{sequential:?}"));
        assert_eq!(remaps, [vec![TermId(0), TermId(5)]]);
        assert_eq!(got.num_docs(), 4);
        assert_eq!(got.df("honda"), 3);
        assert_eq!(
            got.postings("tesla"),
            &[Posting {
                doc: DocId(3),
                tf: 1
            }]
        );
    }

    #[test]
    fn empty_postings_answer_lookups() {
        let e = Postings::new();
        assert_eq!(e.num_docs(), 0);
        assert_eq!(e.avg_doc_len(), 0.0);
        assert!(e.postings("x").is_empty());
        assert_eq!(e.df("x"), 0);
    }

    // --- BlockPostings ---

    /// A deterministic synthetic corpus with skewed doc gaps and tfs, so
    /// block spans and maxima actually vary block to block.
    fn block_corpus() -> Postings {
        let mut p = Postings::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for doc in 0..500u32 {
            let mut terms: Vec<String> = Vec::new();
            // "common" appears in most docs with varying tf; "rare" in a few;
            // plus per-doc filler so doc lengths differ.
            if doc % 3 != 0 {
                for _ in 0..(next() % 5 + 1) {
                    terms.push("common".into());
                }
            }
            if next() % 37 == 0 {
                terms.push("rare".into());
            }
            for f in 0..(next() % 7) {
                terms.push(format!("filler{}", (doc as u64 + f) % 23));
            }
            terms.push("anchor".into());
            p.add_document(DocId(doc), terms.iter().map(String::as_str));
        }
        p
    }

    /// The block index over `postings`, `block_size` postings a block: the
    /// extension of the empty one.
    fn blocks_of(postings: &Postings, block_size: usize) -> BlockPostings {
        BlockPostings::empty(block_size).extended(postings, &ThreadPool::new(1))
    }

    #[test]
    fn block_roundtrip_is_exact_for_every_term() {
        let p = block_corpus();
        for block_size in [1usize, 3, 64, 1000] {
            let bp = blocks_of(&p, block_size);
            for t in 0..p.num_terms() {
                let id = TermId(t as u32);
                let raw = p.postings_id(id);
                let mut tiled: Vec<Posting> = Vec::new();
                for (j, block) in bp.term_blocks(id).iter().enumerate() {
                    let slice = &raw[bp.block_span(raw.len(), j)];
                    let max_tf = slice.iter().map(|q| q.tf).max();
                    let min_dl = slice.iter().map(|q| p.doc_len(q.doc)).min();
                    assert_eq!((max_tf, min_dl), (Some(block.max_tf), Some(block.min_dl)));
                    tiled.extend_from_slice(slice);
                }
                assert_eq!(tiled, raw, "term {t} block_size {block_size}");
            }
        }
    }

    #[test]
    fn block_max_dominates_every_contribution() {
        let p = block_corpus();
        let bp = blocks_of(&p, POSTINGS_BLOCK_SIZE);
        let avg_len = p.avg_doc_len().max(1.0);
        let mut saw_exact = 0usize;
        for t in 0..p.num_terms() {
            let id = TermId(t as u32);
            let idf = p.idf_id(id);
            let raw = p.postings_id(id);
            for (j, block) in bp.term_blocks(id).iter().enumerate() {
                let mut block_best = 0.0f64;
                for posting in &raw[bp.block_span(raw.len(), j)] {
                    let c = bm25_contribution(
                        idf,
                        f64::from(posting.tf),
                        f64::from(p.doc_len(posting.doc)),
                        avg_len,
                    );
                    assert!(
                        c <= block.max_contrib,
                        "term {t}: {c} > {}",
                        block.max_contrib
                    );
                    assert!(posting.tf <= block.max_tf);
                    assert!(p.doc_len(posting.doc) >= block.min_dl);
                    block_best = block_best.max(c);
                }
                // The stored bound is exact: it IS the best posting's value.
                assert_eq!(block_best, block.max_contrib, "term {t}");
                saw_exact += 1;
            }
        }
        assert!(saw_exact > 0);
    }

    /// A block is the three numbers the kernel reads, 16 bytes: the next
    /// field added to one is a decision, not drift.
    #[test]
    fn meta_bytes_are_sixteen_per_block_plus_term_offsets() {
        let p = block_corpus();
        let bp = blocks_of(&p, POSTINGS_BLOCK_SIZE);
        assert!(bp.num_blocks() > p.num_terms());
        assert_eq!(
            bp.meta_bytes(),
            bp.num_blocks() * 16 + (p.num_terms() + 1) * 4
        );
    }

    #[test]
    fn blocks_built_after_absorb_match_sequential_build() {
        let docs: Vec<Vec<String>> = (0..40)
            .map(|i| {
                vec![
                    "shared".to_string(),
                    format!("term{}", i % 7),
                    format!("term{}", i % 3),
                ]
            })
            .collect();
        let mut sequential = Postings::new();
        add_all(&mut sequential, &docs);
        let builds: Vec<Postings> = [0..13, 13..25, 25..40]
            .into_iter()
            .map(|range| {
                let mut build = Postings::new();
                add_all(&mut build, &docs[range]);
                build
            })
            .collect();
        let (absorbed, _) =
            Postings::new().absorbed(&builds.iter().collect::<Vec<_>>(), &ThreadPool::new(2));
        let a = blocks_of(&sequential, 8);
        let b = blocks_of(&absorbed, 8);
        for t in 0..sequential.num_terms() {
            let id = TermId(t as u32);
            assert_eq!(a.term_blocks(id), b.term_blocks(id), "term {t}");
        }
        assert_eq!(a.num_blocks(), b.num_blocks());
        assert!(a.packed_bytes() == 0 && a.meta_bytes() > 0);
    }

    /// `absorbed` onto a base equals the sequential `add_document` build
    /// of the same docs (and the same annotation-only terms, interned in
    /// the same order), field for field — the dictionary's table layout
    /// included, `Debug` prints it — with every list allocated at its final
    /// length; the base is only read.
    #[test]
    fn absorbed_equals_a_sequential_build_without_slack() {
        let mut base = sample();
        base.intern_term("annotation-only");
        let shard_docs = [
            words(&[&["honda", "tesla"], &["tesla", "tesla", "zip"]]),
            vec![],
            words(&[&["ford"], &["novel", "honda"]]),
        ];
        let mut want = base.clone();
        let mut want_remaps = Vec::new();
        let mut shards = Vec::new();
        for docs in &shard_docs {
            let mut shard = Postings::new();
            add_all(&mut shard, docs);
            shard.intern_term("shard-annotation-only");
            add_all(&mut want, docs);
            want.intern_term("shard-annotation-only");
            let remap = shard.dict().iter().map(|(_, t)| want.term_id(t));
            want_remaps.push(remap.collect::<Option<Vec<TermId>>>().expect("interned"));
            shards.push(shard);
        }
        let before = format!("{base:?}");
        let (got, remaps) = base.absorbed(&shards.iter().collect::<Vec<_>>(), &ThreadPool::new(2));
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(remaps, want_remaps);
        assert_eq!(format!("{base:?}"), before);
        assert_eq!(got.num_docs(), 7);
        assert_eq!(
            got.list_bytes(),
            got.num_postings() * std::mem::size_of::<Posting>()
        );
    }

    /// One step of [`extension_in_any_steps_equals_one_build`]: the docs it
    /// appends (each a list of small term numbers) and how many terms it
    /// interns without postings, as an annotation value would.
    type Step = (Vec<Vec<u8>>, usize);

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// Extending a block index step by step over any split of a corpus
        /// into doc ranges — steps that add nothing, steps that only intern
        /// terms, terms that first appear late, lists that end exactly on a
        /// block boundary (sizes 1–4 make that common) or in a partial tail —
        /// equals one build over the whole corpus: every block, `max_contrib`
        /// included, and `term_start` (all through `Debug`).
        #[test]
        fn extension_in_any_steps_equals_one_build(
            steps in proptest::collection::vec(
                (
                    proptest::collection::vec(proptest::collection::vec(0u8..12, 0..6), 0..40),
                    0usize..3,
                ),
                1..7,
            ),
            block_size in 1usize..5,
            wide in 0usize..2,
        ) {
            let steps: Vec<Step> = steps;
            let block_size = if wide == 1 { 64 } else { block_size };
            let mut postings = Postings::new();
            let mut extended = BlockPostings::empty(block_size);
            for (si, (docs, interned)) in steps.iter().enumerate() {
                for doc in docs {
                    // Later steps shift their vocabulary, so terms novel to
                    // the index keep arriving.
                    let terms: Vec<String> =
                        doc.iter().map(|t| format!("t{}", usize::from(*t) + 3 * si)).collect();
                    postings.add_document(DocId(doc_bound(postings.num_docs())), terms.iter().map(String::as_str));
                }
                for i in 0..*interned {
                    postings.intern_term(&format!("annotation-only-{si}-{i}"));
                }
                extended = extended.extended(&postings, &ThreadPool::new(2));
                let rebuilt = blocks_of(&postings, block_size);
                proptest::prop_assert_eq!(format!("{extended:?}"), format!("{rebuilt:?}"));
            }
        }
    }

    /// Both per-term passes give the same bytes through pools of 1 and 4
    /// workers: every list (each with no room to spare), the remaps, and
    /// every block — `term_start` and the `max_contrib` bits included — of
    /// an extension that carries blocks over and describes new ones.
    #[test]
    fn per_term_passes_do_not_depend_on_the_worker_count() {
        let base = block_corpus();
        let shards: Vec<Postings> = (0..3)
            .map(|s| {
                let docs: Vec<Vec<String>> = (0..40)
                    .map(|i| {
                        let fresh = format!("fresh{}", i % 5 + 10 * s);
                        vec!["common".into(), format!("filler{}", i % 23), fresh]
                    })
                    .collect();
                let mut shard = Postings::new();
                add_all(&mut shard, &docs);
                shard
            })
            .collect();
        let shards: Vec<&Postings> = shards.iter().collect();
        let sealed = BlockPostings::empty(4).extended(&base, &ThreadPool::new(1));
        let mut seen = Vec::new();
        for workers in [1, 4] {
            let pool = ThreadPool::new(workers);
            let (absorbed, remaps) = base.absorbed(&shards, &pool);
            assert!(absorbed.lists.iter().all(|l| l.capacity() == l.len()));
            let blocks = sealed.extended(&absorbed, &pool);
            let bits: Vec<u64> = blocks
                .blocks
                .iter()
                .map(|b| b.max_contrib.to_bits())
                .collect();
            seen.push((format!("{absorbed:?}"), remaps, format!("{blocks:?}"), bits));
        }
        assert_eq!(seen[0], seen[1]);
    }

    /// The four-lane maximum equals the serial fold on chunks of 1–9 and 64
    /// postings, every remainder path included.
    #[test]
    fn lane_split_maximum_equals_the_serial_fold() {
        let p = block_corpus();
        let avg_len = p.avg_doc_len();
        let norm: Vec<f64> = p
            .doc_len
            .iter()
            .map(|&dl| bm25_length_norm(f64::from(dl), avg_len))
            .collect();
        let idf = p.idf("common");
        for len in (1..=9).chain([64]) {
            for chunk in p.postings("common").chunks_exact(len).take(8) {
                let serial = chunk.iter().map(|q| contribution(q, &norm, idf));
                let serial = serial.fold(0.0, f64::max);
                let lanes = max_contribution(chunk, &norm, idf);
                assert_eq!(lanes.to_bits(), serial.to_bits(), "{len} postings");
            }
        }
    }

    #[test]
    fn unbuilt_and_postingless_terms_own_no_blocks() {
        let mut p = Postings::new();
        p.add_document(DocId(0), ["alpha"]);
        let bp = blocks_of(&p, 64);
        // Interned after the build: out of range, empty.
        let late = p.intern_term("late");
        assert!(bp.term_blocks(late).is_empty());
        // Annotation-only terms (interned, no postings) own zero blocks.
        let mut q = Postings::new();
        q.add_document(DocId(0), ["alpha"]);
        let ann = q.intern_term("annotation-only");
        let bq = blocks_of(&q, 64);
        assert!(bq.term_blocks(ann).is_empty());
        assert_eq!(bq.term_blocks(TermId(0)).len(), 1);
        // An empty postings builds an empty (but valid) structure.
        let be = blocks_of(&Postings::new(), 64);
        assert_eq!(be.num_blocks(), 0);
        assert!(be.term_blocks(TermId(0)).is_empty());
    }
}
