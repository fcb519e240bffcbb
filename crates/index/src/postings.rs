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
//! format, the doc-local build unit the parallel index builder and the
//! freshness tier produce per doc range, and the input [`BlockPostings`] is
//! built from (DESIGN.md §10, §14).

use deepweb_common::ids::{DocId, TermId};
use deepweb_common::TermDict;

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
#[inline]
pub(crate) fn bm25_contribution(idf: f64, tf: f64, dl: f64, avg_len: f64, k1: f64, b: f64) -> f64 {
    let denom = tf + k1 * (1.0 - b + b * dl / avg_len);
    idf * tf * (k1 + 1.0) / denom
}

/// One posting: a document and the term's frequency in it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Posting {
    /// Document id.
    pub doc: DocId,
    /// Term frequency.
    pub tf: u32,
}

/// Intern one document's tokens and append its per-term postings: ids are
/// assigned in first-appearance order over the raw token stream (the
/// discipline the parallel build's deterministic id remap replays), then tf
/// is aggregated by sorting the small id buffer and run-length counting —
/// no string-keyed map, no per-document allocation in steady state.
///
/// This is the **single** indexing kernel: the sequential build, a parallel
/// build shard and a delta segment all run it.
fn index_document(
    dict: &mut TermDict,
    lists: &mut Vec<Vec<Posting>>,
    scratch: &mut Vec<TermId>,
    doc: DocId,
    terms: &[String],
) {
    scratch.clear();
    for t in terms {
        scratch.push(dict.intern(t));
    }
    lists.resize_with(dict.len(), Vec::new);
    scratch.sort_unstable();
    let mut i = 0;
    while i < scratch.len() {
        let id = scratch[i];
        let mut j = i + 1;
        while j < scratch.len() && scratch[j] == id {
            j += 1;
        }
        lists[id.as_usize()].push(Posting {
            doc,
            tf: (j - i) as u32,
        });
        i = j;
    }
    scratch.clear();
}

/// The postings lists plus document lengths, keyed by [`TermId`].
#[derive(Default, Clone, Debug)]
pub struct Postings {
    dict: TermDict,
    lists: Vec<Vec<Posting>>,
    doc_len: Vec<u32>,
    total_len: u64,
    /// Per-document interning scratch; always empty between calls (so two
    /// structurally equal indexes also compare equal via `Debug`).
    scratch: Vec<TermId>,
}

impl Postings {
    /// Create empty postings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a document's term multiset. `doc` must be the next id in sequence
    /// (enforced so postings stay sorted).
    pub fn add_document(&mut self, doc: DocId, terms: &[String]) {
        assert_eq!(
            doc.as_usize(),
            self.doc_len.len(),
            "documents must be added in id order"
        );
        self.doc_len.push(terms.len() as u32);
        self.total_len += terms.len() as u64;
        index_document(
            &mut self.dict,
            &mut self.lists,
            &mut self.scratch,
            doc,
            terms,
        );
    }

    /// The term dictionary.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Intern a term into the dictionary without attaching postings (used
    /// for annotation/facet value tokens, which must live in the same id
    /// space as body terms so the query kernel resolves a term once for
    /// both scoring and facet matching). Keeps the lists vector sized to
    /// the dictionary, so a later [`Postings::absorb`] walk stays in step.
    pub(crate) fn intern_term(&mut self, term: &str) -> TermId {
        let id = self.dict.intern(term);
        if self.lists.len() < self.dict.len() {
            self.lists.resize_with(self.dict.len(), Vec::new);
        }
        id
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
    pub fn df_id(&self, id: TermId) -> usize {
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
    pub fn num_terms(&self) -> usize {
        self.dict.len()
    }

    /// Length (token count) of a document.
    pub fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_len[doc.as_usize()]
    }

    /// Total token count across all documents — the exact integer numerator
    /// of [`Postings::avg_doc_len`], exposed so a segmented reader can
    /// recompute the merged average from per-segment totals bit-for-bit.
    pub fn total_doc_len(&self) -> u64 {
        self.total_len
    }

    /// Mean document length.
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.doc_len.len() as f64
        }
    }

    /// Total number of postings entries (index size proxy).
    pub fn num_postings(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// BM25 inverse document frequency of an interned term.
    pub fn idf_id(&self, id: TermId) -> f64 {
        bm25_idf(self.num_docs() as f64, self.df_id(id) as f64)
    }

    /// BM25 inverse document frequency of `term`.
    pub fn idf(&self, term: &str) -> f64 {
        bm25_idf(self.num_docs() as f64, self.df(term) as f64)
    }

    /// Append a shard's postings built over doc-local ids `0..shard.num_docs()`:
    /// the shard's documents become ids `self.num_docs()..` here.
    ///
    /// Merge discipline (determinism argument, DESIGN.md §8/§10): shards hold
    /// *contiguous* document ranges, and shards are absorbed in range order.
    /// A shard's dictionary records terms in first-appearance order within the
    /// shard (documents in order, tokens in document order — exactly what
    /// [`Postings::add_document`] does), so re-interning shard dictionaries in
    /// shard order reproduces the sequential build's id assignment, and
    /// concatenating each term's per-shard lists reproduces its doc-sorted
    /// postings. The result is identical to adding every document
    /// sequentially.
    ///
    /// Returns the remap table, `remap[local_id] = global_id` for every term
    /// of the shard's dictionary: the index build rewrites the shard's
    /// pre-tokenised annotation ids through it, so the annotation layer
    /// replays the sequential interning order exactly like postings do
    /// (DESIGN.md §12).
    pub fn absorb(&mut self, shard: &Postings) -> Vec<TermId> {
        let offset = self.doc_len.len() as u32;
        self.total_len += shard.total_len;
        self.doc_len.extend_from_slice(&shard.doc_len);
        let mut remap = Vec::with_capacity(shard.dict.len());
        for (local_id, term) in shard.dict.iter() {
            let id = self.intern_term(term);
            self.lists[id.as_usize()].extend(shard.lists[local_id.as_usize()].iter().map(|p| {
                Posting {
                    doc: DocId(p.doc.0 + offset),
                    tf: p.tf,
                }
            }));
            remap.push(id);
        }
        remap
    }
}

/// Postings per compressed block (DESIGN.md §14). 64 keeps the per-block
/// metadata overhead near one bit per posting while leaving enough postings
/// per block for the delta/tf bit widths to amortise.
pub const POSTINGS_BLOCK_SIZE: usize = 64;

/// Bit widths needed to represent `max` (0 for 0 — a run of equal values
/// packs to zero bits).
fn bits_for(max: u64) -> u8 {
    (64 - max.leading_zeros()) as u8
}

/// Append-only bit packer over a shared `Vec<u64>` word buffer.
struct BitWriter {
    words: Vec<u64>,
    bit_len: u64,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            words: Vec::new(),
            bit_len: 0,
        }
    }

    /// Append the low `bits` bits of `value`. Zero-width fields are free.
    fn push(&mut self, value: u64, bits: u8) {
        if bits == 0 {
            return;
        }
        let word = (self.bit_len >> 6) as usize;
        let off = (self.bit_len & 63) as u32;
        if self.words.len() <= word {
            self.words.push(0);
        }
        self.words[word] |= value << off;
        if off + u32::from(bits) > 64 {
            self.words.push(value >> (64 - off));
        }
        self.bit_len += u64::from(bits);
    }
}

/// Read `bits` bits at `bit_pos` from a packed word buffer.
#[inline]
fn read_bits(words: &[u64], bit_pos: u64, bits: u8) -> u64 {
    if bits == 0 {
        return 0;
    }
    let word = (bit_pos >> 6) as usize;
    let off = (bit_pos & 63) as u32;
    let mask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let mut v = words[word] >> off;
    if off + u32::from(bits) > 64 {
        v |= words[word + 1] << (64 - off);
    }
    v & mask
}

/// Metadata for one fixed-size run of a term's postings: the doc-id span,
/// the bit-packed payload location, and the block-max statistics the pruned
/// kernel skips on (DESIGN.md §14).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PostingBlock {
    /// Doc id of the block's first posting (stored raw; deltas hang off it).
    pub first_doc: u32,
    /// Doc id of the block's last posting (skip pointer).
    pub last_doc: u32,
    /// Postings in the block (1..=block size).
    pub count: u32,
    /// Max term frequency in the block.
    pub max_tf: u32,
    /// Min document length over the block's docs — with `max_tf`, enough to
    /// recompute a safe upper bound under *any* BM25 parameters.
    pub min_dl: u32,
    /// Max BM25 contribution over the block's postings, computed with the
    /// build-time parameters via `bm25_contribution` — exact (it *is* one
    /// posting's contribution), so the bound is as tight as possible.
    pub max_contrib: f64,
    /// Bit width of each packed doc-id delta (`delta - 1`).
    pub doc_bits: u8,
    /// Bit width of each packed term frequency (`tf - 1`).
    pub tf_bits: u8,
    /// Bit offset of the block's payload in the shared packed buffer.
    pub bit_offset: u64,
}

/// Delta-encoded, bit-packed posting blocks with per-block max-score
/// metadata, built over finished [`Postings`] (DESIGN.md §14).
///
/// Layout: per term, its sorted posting list is chunked into
/// [`POSTINGS_BLOCK_SIZE`]-posting blocks. Each block stores `first_doc`
/// raw in metadata; the payload packs, per posting, the doc-id delta to the
/// previous posting minus one (doc ids are strictly increasing within a
/// term's list) and the term frequency minus one, each at the narrowest bit
/// width that fits the block's maxima. All payloads share one `Vec<u64>`.
///
/// The structure is a *pure view* over the postings it was built from:
/// [`BlockPostings::decode_block`] reproduces the exact `(doc, tf)` pairs of
/// the raw list, so any score computed from decoded blocks is bit-identical
/// to one computed from the raw list.
#[derive(Clone, Debug, Default)]
pub struct BlockPostings {
    /// Prefix offsets into `blocks`: term `t` owns
    /// `blocks[term_start[t] .. term_start[t + 1]]`.
    term_start: Vec<u32>,
    blocks: Vec<PostingBlock>,
    packed: Vec<u64>,
    k1: f64,
    b: f64,
}

impl BlockPostings {
    /// Build blocks over every term of `postings`, bounding contributions
    /// with BM25 parameters `(k1, b)` — the parameters the stored
    /// `max_contrib` is exact for ([`PostingBlock::max_contrib`]).
    pub fn build(postings: &Postings, block_size: usize, k1: f64, b: f64) -> Self {
        let block_size = block_size.max(1);
        let avg_len = postings.avg_doc_len().max(1.0);
        let num_terms = postings.num_terms();
        let mut term_start = Vec::with_capacity(num_terms + 1);
        let mut blocks = Vec::new();
        let mut writer = BitWriter::new();
        term_start.push(0u32);
        for t in 0..num_terms {
            let id = TermId(t as u32);
            let list = postings.postings_id(id);
            let idf = postings.idf_id(id);
            for chunk in list.chunks(block_size) {
                let (Some(first), Some(last)) = (chunk.first(), chunk.last()) else {
                    continue; // chunks() never yields an empty slice
                };
                let first_doc = first.doc.0;
                let last_doc = last.doc.0;
                let mut max_delta_m1 = 0u64;
                let mut max_tf = 0u32;
                let mut min_dl = u32::MAX;
                let mut max_contrib = 0.0f64;
                let mut prev = first_doc;
                for (i, p) in chunk.iter().enumerate() {
                    if i > 0 {
                        max_delta_m1 = max_delta_m1.max(u64::from(p.doc.0 - prev - 1));
                        prev = p.doc.0;
                    }
                    max_tf = max_tf.max(p.tf);
                    let dl = postings.doc_len(p.doc);
                    min_dl = min_dl.min(dl);
                    let c = bm25_contribution(idf, f64::from(p.tf), f64::from(dl), avg_len, k1, b);
                    max_contrib = max_contrib.max(c);
                }
                let doc_bits = bits_for(max_delta_m1);
                let tf_bits = bits_for(u64::from(max_tf - 1));
                let bit_offset = writer.bit_len;
                let mut prev = first_doc;
                for (i, p) in chunk.iter().enumerate() {
                    if i > 0 {
                        writer.push(u64::from(p.doc.0 - prev - 1), doc_bits);
                        prev = p.doc.0;
                    }
                    writer.push(u64::from(p.tf - 1), tf_bits);
                }
                blocks.push(PostingBlock {
                    first_doc,
                    last_doc,
                    count: chunk.len() as u32,
                    max_tf,
                    min_dl,
                    max_contrib,
                    doc_bits,
                    tf_bits,
                    bit_offset,
                });
            }
            term_start.push(blocks.len() as u32);
        }
        BlockPostings {
            term_start,
            blocks,
            packed: writer.words,
            k1,
            b,
        }
    }

    /// The blocks of an interned term, in doc-id order. Terms interned after
    /// the build (or annotation-only terms) own no blocks — which is exact,
    /// since they own no postings either.
    pub fn term_blocks(&self, id: TermId) -> &[PostingBlock] {
        let t = id.as_usize();
        match (self.term_start.get(t), self.term_start.get(t + 1)) {
            (Some(&lo), Some(&hi)) => &self.blocks[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Decode one block's exact `(doc, tf)` postings into `out` (cleared
    /// first). Bit-identical to the raw list slice the block was built from.
    pub fn decode_block(&self, block: &PostingBlock, out: &mut Vec<Posting>) {
        out.clear();
        out.reserve(block.count as usize);
        let mut pos = block.bit_offset;
        let mut doc = block.first_doc;
        for i in 0..block.count {
            if i > 0 {
                doc += read_bits(&self.packed, pos, block.doc_bits) as u32 + 1;
                pos += u64::from(block.doc_bits);
            }
            let tf = read_bits(&self.packed, pos, block.tf_bits) as u32 + 1;
            pos += u64::from(block.tf_bits);
            out.push(Posting {
                doc: DocId(doc),
                tf,
            });
        }
    }

    /// BM25 `k1` the stored block maxima are exact for.
    pub fn k1(&self) -> f64 {
        self.k1
    }

    /// BM25 `b` the stored block maxima are exact for.
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Total blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Bytes of bit-packed posting payload.
    pub fn packed_bytes(&self) -> usize {
        self.packed.len() * std::mem::size_of::<u64>()
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
        p.add_document(DocId(0), &["honda".into(), "civic".into(), "honda".into()]);
        p.add_document(DocId(1), &["ford".into(), "focus".into()]);
        p.add_document(DocId(2), &["honda".into(), "accord".into()]);
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
        p.add_document(DocId(1), &["x".into()]);
    }

    #[test]
    fn shard_merge_equals_sequential_build() {
        let docs: Vec<Vec<String>> = vec![
            vec!["honda".into(), "civic".into(), "honda".into()],
            vec!["ford".into(), "focus".into()],
            vec!["honda".into(), "accord".into()],
            vec!["zip".into(), "ford".into()],
            vec!["accord".into()],
        ];
        let mut sequential = Postings::new();
        for (i, terms) in docs.iter().enumerate() {
            sequential.add_document(DocId(i as u32), terms);
        }
        // Shards over contiguous ranges [0..2), [2..3), [3..5).
        let mut shards = Vec::new();
        for range in [0..2, 2..3, 3..5] {
            let mut shard = Postings::new();
            for (local, terms) in docs[range].iter().enumerate() {
                shard.add_document(DocId(local as u32), terms);
            }
            shards.push(shard);
        }
        let mut merged = Postings::new();
        for shard in &shards {
            merged.absorb(shard);
        }
        assert_eq!(format!("{sequential:?}"), format!("{merged:?}"));
        assert_eq!(merged.postings("honda"), sequential.postings("honda"));
        assert_eq!(merged.num_postings(), sequential.num_postings());
        assert_eq!(merged.doc_len(DocId(4)), 1);
    }

    #[test]
    fn absorb_into_nonempty_base() {
        let mut base = sample();
        let mut shard = Postings::new();
        shard.add_document(DocId(0), &["honda".into(), "tesla".into()]);
        base.absorb(&shard);
        assert_eq!(base.num_docs(), 4);
        assert_eq!(base.df("honda"), 3);
        assert_eq!(
            base.postings("tesla"),
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

    /// A deterministic synthetic corpus with skewed doc gaps and tfs, so the
    /// packed widths actually vary block to block.
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
            p.add_document(DocId(doc), &terms);
        }
        p
    }

    #[test]
    fn block_roundtrip_is_exact_for_every_term() {
        let p = block_corpus();
        for block_size in [1usize, 3, 64, 1000] {
            let bp = BlockPostings::build(&p, block_size, 1.2, 0.75);
            let mut decoded = Vec::new();
            for t in 0..p.num_terms() {
                let id = TermId(t as u32);
                let raw = p.postings_id(id);
                let mut rebuilt: Vec<Posting> = Vec::new();
                for block in bp.term_blocks(id) {
                    bp.decode_block(block, &mut decoded);
                    assert_eq!(decoded.len(), block.count as usize);
                    assert_eq!(decoded[0].doc.0, block.first_doc);
                    assert_eq!(decoded[decoded.len() - 1].doc.0, block.last_doc);
                    rebuilt.extend_from_slice(&decoded);
                }
                assert_eq!(rebuilt, raw, "term {t} block_size {block_size}");
            }
        }
    }

    #[test]
    fn block_max_dominates_every_contribution() {
        let p = block_corpus();
        let (k1, b) = (1.2, 0.75);
        let bp = BlockPostings::build(&p, POSTINGS_BLOCK_SIZE, k1, b);
        let avg_len = p.avg_doc_len().max(1.0);
        let mut decoded = Vec::new();
        let mut saw_exact = 0usize;
        for t in 0..p.num_terms() {
            let id = TermId(t as u32);
            let idf = p.idf_id(id);
            for block in bp.term_blocks(id) {
                bp.decode_block(block, &mut decoded);
                let mut block_best = 0.0f64;
                for posting in &decoded {
                    let c = bm25_contribution(
                        idf,
                        f64::from(posting.tf),
                        f64::from(p.doc_len(posting.doc)),
                        avg_len,
                        k1,
                        b,
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
        for (i, terms) in docs.iter().enumerate() {
            sequential.add_document(DocId(i as u32), terms);
        }
        let mut absorbed = Postings::new();
        for range in [0..13, 13..25, 25..40] {
            let mut build = Postings::new();
            for (local, terms) in docs[range].iter().enumerate() {
                build.add_document(DocId(local as u32), terms);
            }
            absorbed.absorb(&build);
        }
        let a = BlockPostings::build(&sequential, 8, 1.2, 0.75);
        let b = BlockPostings::build(&absorbed, 8, 1.2, 0.75);
        for t in 0..sequential.num_terms() {
            let id = TermId(t as u32);
            assert_eq!(a.term_blocks(id), b.term_blocks(id), "term {t}");
        }
        assert_eq!(a.num_blocks(), b.num_blocks());
        assert!(a.packed_bytes() > 0 && a.meta_bytes() > 0);
    }

    #[test]
    fn unbuilt_and_postingless_terms_own_no_blocks() {
        let mut p = Postings::new();
        p.add_document(DocId(0), &["alpha".into()]);
        let bp = BlockPostings::build(&p, 64, 1.2, 0.75);
        // Interned after the build: out of range, empty.
        let late = p.intern_term("late");
        assert!(bp.term_blocks(late).is_empty());
        // Annotation-only terms (interned, no postings) own zero blocks.
        let mut q = Postings::new();
        q.add_document(DocId(0), &["alpha".into()]);
        let ann = q.intern_term("annotation-only");
        let bq = BlockPostings::build(&q, 64, 1.2, 0.75);
        assert!(bq.term_blocks(ann).is_empty());
        assert_eq!(bq.term_blocks(TermId(0)).len(), 1);
        // An empty postings builds an empty (but valid) structure.
        let be = BlockPostings::build(&Postings::new(), 64, 1.2, 0.75);
        assert_eq!(be.num_blocks(), 0);
        assert!(be.term_blocks(TermId(0)).is_empty());
    }

    #[test]
    fn bit_packer_roundtrips_edge_widths() {
        let mut w = BitWriter::new();
        let values: Vec<(u64, u8)> = vec![
            (0, 0),
            (1, 1),
            (u64::MAX, 64),
            (0x1234, 13),
            (1, 1),
            (u64::MAX >> 1, 63),
            (0, 7),
            (u64::MAX, 64),
        ];
        for &(v, bits) in &values {
            w.push(v, bits);
        }
        let mut pos = 0u64;
        for &(v, bits) in &values {
            assert_eq!(read_bits(&w.words, pos, bits), v, "bits={bits}");
            pos += u64::from(bits);
        }
        assert_eq!(pos, w.bit_len);
    }
}
