//! The search index: document store + postings + facet vocabulary, with URL
//! deduplication (a crawler inserts the same URL only once — URL identity is
//! the dedup key, as in real surfacing).

use crate::docstore::{AnnotationColumn, BatchDoc, DocStore};
use crate::postings::{Postings, Tally};
use crate::pruned::PruningIndex;
use crate::searcher::SearchOptions;
use crate::urls::{dedup, url_hash, url_hashes, UrlMap};
use crate::view::next_id;
use deepweb_common::ids::{DocId, FacetKeyId, TermId};
use deepweb_common::text::raw_tokens;
use deepweb_common::{FxHashMap, TermDict, ThreadPool, Url};
use std::borrow::Borrow;
use std::sync::Arc;

/// The facet vocabulary: each analysed value token → the facet keys it is a
/// known value of, in first-appearance order. Keyed by token because a
/// query resolves tokens: one lookup per signature position tells it every
/// facet the position names a value of (DESIGN.md §12).
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct FacetVocabulary(FxHashMap<TermId, Vec<FacetKeyId>>);

impl FacetVocabulary {
    /// Record `term` as a known value of facet `key`.
    pub(crate) fn know(&mut self, term: TermId, key: FacetKeyId) {
        let keys = self.0.entry(term).or_default();
        if !keys.contains(&key) {
            keys.push(key);
        }
    }

    /// The facet keys `term` is a known value of (empty for most terms).
    pub(crate) fn keys_of(&self, term: TermId) -> &[FacetKeyId] {
        self.0.get(&term).map_or(&[], Vec::as_slice)
    }

    /// This vocabulary with `more`'s pairs recorded after its own, each
    /// term's keys in `more`'s order: what one walk over both makes.
    fn union(&self, more: FacetVocabulary) -> Self {
        let mut out = self.clone();
        let mut more: Vec<_> = more.0.into_iter().collect();
        more.sort_unstable_by_key(|&(term, _)| term);
        for (term, keys) in more {
            for key in keys {
                out.know(term, key);
            }
        }
        out
    }
}

/// What a write adds to the index it extends: the terms and the facet keys
/// it does not know, each a dictionary whose ids follow the index's own (an
/// index id is the index's count plus the id here), and the `(value token,
/// key)` pairs of the new annotations. [`SearchIndex::seal`] fills it and
/// [`SearchIndex::merged`] replays it (DESIGN.md §15).
#[derive(Clone, Debug, Default)]
pub(crate) struct Extension {
    pub(crate) terms: TermDict,
    pub(crate) facet_keys: TermDict,
    pub(crate) vocabulary: FacetVocabulary,
}

/// A run of documents indexed for a write: doc-local postings, its facet
/// keys and its annotation column, every id local to the run as
/// [`build_shard`] makes it. [`SearchIndex::seal`] gives each term its
/// index id (`remap[local]`) and rewrites the column into index ids: what
/// [`SearchIndex::merged`] folds as it is.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub(crate) postings: Postings,
    /// Facet keys in first-appearance order, until the seal takes them.
    keys: TermDict,
    pub(crate) remap: Vec<TermId>,
    pub(crate) annotations: AnnotationColumn,
}

/// The seal's id walk: each of `local`'s terms in id order, as the id
/// `known` gives it or else `known.len()` plus its id in `new`, where it is
/// filed on first sight.
pub(crate) fn index_ids(known: &TermDict, new: &mut TermDict, local: &TermDict) -> Vec<TermId> {
    let id = |term: &str, new: &mut TermDict| match known.get(term) {
        Some(id) => id,
        None => TermId(next_id(known.len() + new.intern(term).as_usize())),
    };
    local.iter().map(|(_, term)| id(term, new)).collect()
}

/// `known` followed by `new`'s terms in id order: each lands on the id
/// [`index_ids`] gave it.
pub(crate) fn appended(known: &TermDict, new: TermDict) -> TermDict {
    if known.is_empty() {
        return new;
    }
    let mut dict = known.clone();
    for (_, term) in new.iter() {
        dict.intern(term);
    }
    dict
}

/// An in-memory search index.
///
/// Annotations ride the same interned dictionary as body text (DESIGN.md
/// §12): facet keys intern to [`FacetKeyId`]s, annotation values are
/// analysed through the `text` pipeline at ingest and kept as
/// pre-tokenised [`TermId`] ranges in a flat [`AnnotationColumn`], and the
/// facet vocabulary maps a value token to its facet keys — a query resolves
/// it once, and the annotation-aware scoring pass is a column read and mask
/// tests with zero per-query string work.
#[derive(Default, Clone, Debug)]
pub struct SearchIndex {
    docs: DocStore,
    postings: Postings,
    /// Rendered URL → doc id, its entries `Copy`: a copy of the map (one
    /// per merge of the freshness tier) is a flat copy.
    by_url: UrlMap,
    /// Per doc, its annotations as `(key, value-token range)` entries.
    annotations: AnnotationColumn,
    /// Facet key text → [`FacetKeyId`], first-appearance order.
    facet_keys: TermDict,
    /// Value token → the facet keys it is a known value of.
    vocabulary: FacetVocabulary,
    /// The block index (DESIGN.md §14), always over every document: the
    /// one fold that adds documents ([`SearchIndex::merged`]) extends it, so
    /// no block bound is ever stale.
    pruning: PruningIndex,
    /// The pool the owner last passed to [`SearchIndex::add_batch`]: the
    /// fold, the freshness tier's merge and its batched reads run on it, so
    /// this crate never sizes a pool of its own (DESIGN.md §8).
    pool: ThreadPool,
}

impl SearchIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a batch of documents with URL hashing, tokenisation and postings
    /// construction fanned out over `pool`, returning one id per batch entry
    /// (the existing id for an already-indexed URL). The one way a document
    /// enters an index. `pool` becomes the index's own: everything the index
    /// runs in parallel from now on runs on it.
    ///
    /// Every URL is rendered and hashed on the pool (`urls::url_hashes`); the
    /// dedup then probes and files those hashes table by table (URL
    /// identity, first occurrence wins, ids in batch order), rendering a URL
    /// only to confirm a hash hit. The fresh documents stay in the batch,
    /// which is split into contiguous shards, each analysed and indexed into
    /// doc-local postings in parallel (`build_shard`), sealed in shard order
    /// into one fresh `Extension` (`SearchIndex::seal`), then folded by the
    /// one fold, `SearchIndex::merged` — so the resulting index, block index
    /// included, is identical to the sequential loop for any worker count.
    /// The fold copies this index's posting lists once; on an empty index it
    /// allocates each list once, at its final length. The deduplicated
    /// batch itself becomes one docstore chunk: no document is copied.
    pub fn add_batch(&mut self, pool: &ThreadPool, mut batch: Vec<BatchDoc>) -> Vec<DocId> {
        self.pool = *pool;
        // 1. Dedup + id assignment in batch order over the pool's hashes,
        // into the URL map the folded index takes over.
        let mut hashes = url_hashes(pool, &batch);
        let mut by_url = std::mem::take(&mut self.by_url);
        let (docs, stored) = (&self.docs, self.docs.len());
        let filed = |id| docs.get(id).map(|doc| &doc.url);
        let ids = dedup(
            &mut batch,
            &mut hashes,
            &mut by_url,
            stored,
            |_, _| None,
            filed,
        );
        if batch.is_empty() {
            self.by_url = by_url;
            return ids;
        }
        // 2. Contiguous shards (≈4 per worker for load-balancing headroom),
        // each analysed into a doc-local shard in parallel; a worker counts
        // every shard it takes into one tally.
        let shard_len = batch.len().div_ceil(pool.workers().max(1) * 4).max(1);
        let built = pool.map_init(
            batch.chunks(shard_len).collect(),
            Tally::default,
            |tally, _, shard| build_shard(shard, tally),
        );
        // 3. The seal, in shard order, then the one fold; it frees the
        // shards before its block pass.
        let mut ext = Extension::default();
        let shards: Vec<Shard> = built.into_iter().map(|b| self.seal(&mut ext, b)).collect();
        *self = self.merged(by_url, ext, shards, [Arc::new(batch)]);
        ids
    }

    /// The seal: the one place a shard-local term or facet key gets its
    /// index id. Walks `shard`'s dictionary, then its facet keys, in local
    /// (first-appearance) order against this index extended by `ext`
    /// ([`index_ids`]), then rewrites its column into those ids, recording
    /// each `(value token, key)` pair in `ext`'s vocabulary in column order.
    /// Sealing shards in document order into one extension is one sequential
    /// walk over their documents (DESIGN.md §12).
    pub(crate) fn seal(&self, ext: &mut Extension, mut shard: Shard) -> Shard {
        shard.remap = index_ids(self.postings.dict(), &mut ext.terms, shard.postings.dict());
        let keys = std::mem::take(&mut shard.keys);
        let keys = index_ids(&self.facet_keys, &mut ext.facet_keys, &keys);
        let keys: Vec<FacetKeyId> = keys.into_iter().map(|key| FacetKeyId(key.0)).collect();
        let know = |term, key| ext.vocabulary.know(term, key);
        shard.annotations.remap(&keys, &shard.remap, know);
        shard
    }

    /// This index with `ext` and the `shards` sealed into it, owned (a
    /// batch's) or borrowed (a pending segment's), folded in as a new index:
    /// the one fold, which [`SearchIndex::add_batch`] and the freshness
    /// merge (DESIGN.md §15) run. `docs` are the shards' documents, in
    /// order, as docstore chunks the result appends without copying;
    /// `by_url` is the result's URL map, `docs` already filed in it.
    /// No id is given or looked up here: `ext` is appended in id order
    /// ([`appended`]), each list copied through the remaps once, at its
    /// final length ([`Postings::absorbed`]), and each sealed column
    /// appended. `self` is only read; the result shares every docstore
    /// chunk and dictionary string, and its block index is `self`'s
    /// extended ([`PruningIndex::extended`]) once owned shards are freed.
    /// Both passes run on the index's pool; the result does not depend on it.
    pub(crate) fn merged<S: Borrow<Shard>>(
        &self,
        by_url: UrlMap,
        ext: Extension,
        shards: Vec<S>,
        docs: impl IntoIterator<Item = Arc<Vec<BatchDoc>>>,
    ) -> SearchIndex {
        let lists: Vec<(&Postings, &[TermId])> = (shards.iter())
            .map(|s| (&s.borrow().postings, &s.borrow().remap[..]))
            .collect();
        let dict = appended(self.postings.dict(), ext.terms);
        let mut next = SearchIndex {
            docs: self.docs.clone(),
            pruning: PruningIndex::default(),
            postings: self.postings.absorbed(dict, &lists, &self.pool),
            by_url,
            annotations: self.annotations.clone(),
            facet_keys: appended(&self.facet_keys, ext.facet_keys),
            vocabulary: self.vocabulary.union(ext.vocabulary),
            pool: self.pool,
        };
        for shard in &shards {
            next.annotations.append(&shard.borrow().annotations);
        }
        for chunk in docs {
            next.docs.append(chunk);
        }
        debug_assert_eq!(next.docs.len(), next.postings.num_docs());
        drop(shards);
        next.pruning = self.pruning.extended(&next.postings, &self.pool);
        next
    }

    /// Extend the facet vocabulary with externally observed values (e.g.
    /// the select options and JS dependency maps the crawler saw on forms).
    /// Conflict detection in annotation-aware scoring can then recognise a
    /// facet value even when no surfaced page was annotated with it. Values
    /// go through the same analysis as annotation values at ingest
    /// (lowercase, punctuation-split, stopwords dropped), so mixed-case or
    /// punctuated vocabulary still matches analysed query terms.
    ///
    /// The block index stays as it is: a term interned here owns no
    /// postings (so no blocks) and moves no df. The annotation bound counts
    /// per-doc annotations only, so it does not move either.
    pub fn add_facet_values<I: IntoIterator<Item = String>>(&mut self, key: &str, values: I) {
        let key = FacetKeyId(self.facet_keys.intern(key).0);
        for v in values {
            for term in self.postings.intern_value(&v) {
                self.vocabulary.know(term, key);
            }
        }
    }

    /// True if the URL is already indexed.
    pub fn contains_url(&self, url: &Url) -> bool {
        self.url_id(url_hash(url, &mut String::new()), url)
            .is_some()
    }

    /// The id of an indexed URL whose rendered form hashes to `hash`.
    pub(crate) fn url_id(&self, hash: u64, url: &Url) -> Option<DocId> {
        self.by_url
            .find(hash, url, |id| self.docs.get(id).map(|doc| &doc.url))
    }

    /// Rendered URL → doc id over every document.
    pub(crate) fn url_map(&self) -> &UrlMap {
        &self.by_url
    }

    /// Document metadata store.
    pub fn docs(&self) -> &DocStore {
        &self.docs
    }

    /// Document by id (`None` past the last one).
    pub fn doc(&self, id: DocId) -> Option<&BatchDoc> {
        self.docs.get(id)
    }

    /// The raw postings: dictionary, per-term lists and doc lengths.
    pub fn postings(&self) -> &Postings {
        &self.postings
    }

    /// Does nothing: the block index is always current, built by the fold
    /// that adds documents. Kept only for the benchmark package's build
    /// steps; goes when they drop it (ROADMAP).
    pub fn enable_pruning(&mut self) {}

    /// The block index, always `Some`. The `Option` is kept only for the
    /// benchmark package, which reads it as one; goes when it does
    /// (ROADMAP).
    pub fn pruning(&self) -> Option<&PruningIndex> {
        Some(&self.pruning)
    }

    /// The block index over every document (DESIGN.md §14).
    pub(crate) fn block_index(&self) -> &PruningIndex {
        &self.pruning
    }

    /// The pool the owner last passed to [`SearchIndex::add_batch`].
    pub(crate) fn pool(&self) -> ThreadPool {
        self.pool
    }

    /// This index as a [`SearchService`](crate::service::SearchService): the
    /// sequential tier with fixed serving options.
    pub fn searcher(&self, opts: SearchOptions) -> crate::service::IndexSearcher<'_> {
        crate::service::IndexSearcher { index: self, opts }
    }

    /// Every document's interned annotations, in doc-id order.
    pub fn annotation_column(&self) -> &AnnotationColumn {
        &self.annotations
    }

    /// The facet keys `id` is a known value of (empty for most terms).
    pub(crate) fn value_keys(&self, id: TermId) -> &[FacetKeyId] {
        self.vocabulary.keys_of(id)
    }

    /// Id of a facet key, if any annotation or facet vocabulary used it.
    pub(crate) fn facet_key_id(&self, key: &str) -> Option<FacetKeyId> {
        self.facet_keys.get(key).map(|id| FacetKeyId(id.0))
    }

    /// Number of interned facet keys: every key id is below it.
    pub(crate) fn num_facet_keys(&self) -> usize {
        self.facet_keys.len()
    }

    /// True if `value_token` (one analysed token) is a known value of facet
    /// `key` — the string-level view of the interned facet vocabulary, for
    /// tests and reports.
    pub fn facet_value_known(&self, key: &str, value_token: &str) -> bool {
        let Some(key) = self.facet_key_id(key) else {
            return false;
        };
        let Some(id) = self.postings.term_id(value_token) else {
            return false;
        };
        self.value_keys(id).contains(&key)
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

/// Index a run of documents into a [`Shard`], every id local to it.
/// Two passes over the shard: the first counts every document — title then
/// body token slices stream from `raw_tokens` into
/// [`Postings::count_document`], one dictionary probe per token, then each
/// annotation's key into the key dictionary and its value into
/// `Postings::intern_value` (stopwords dropped) — no token is a `String` of
/// its own; the second, [`Postings::fill`], writes every list at the length
/// the count found, so no list ever regrows. `tally` is the worker's
/// counting scratch, left empty. The per-document interning order — title
/// and body terms, then annotation keys and value tokens — is the canonical
/// one, spelled only here (DESIGN.md §12), so sealing shards in order
/// replays one sequential walk over the docs. Shared by
/// [`SearchIndex::add_batch`]'s parallel shards and the delta-segment build
/// of [`segments`](crate::segments).
pub(crate) fn build_shard(docs: &[BatchDoc], tally: &mut Tally) -> Shard {
    let mut shard = Shard::default();
    for doc in docs {
        let tokens = raw_tokens(&doc.title).chain(raw_tokens(&doc.text));
        shard.postings.count_document(tally, tokens);
        for ann in &doc.annotations {
            let key = FacetKeyId(shard.keys.intern(&ann.key).0);
            let terms = shard.postings.intern_value(&ann.value);
            shard.annotations.push(key, &terms);
        }
        shard.annotations.end_doc();
    }
    shard.postings.fill(tally);
    shard
}

/// Index-wide statistics for reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexStats {
    /// Total documents.
    pub docs: usize,
    /// Distinct terms.
    pub terms: usize,
    /// Total postings entries.
    pub postings: usize,
    /// Mean document length in tokens.
    pub avg_doc_len: f64,
}

impl SearchIndex {
    /// Compute summary statistics.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            docs: self.docs.len(),
            terms: self.postings.num_terms(),
            postings: self.postings.num_postings(),
            avg_doc_len: self.postings.avg_doc_len(),
        }
    }
}

#[cfg(test)]
impl SearchIndex {
    /// Structural identity, field for field — what "merged == rebuilt" means
    /// below ranking. Hash maps compare by content; everything ordered
    /// compares through `Debug`, which prints every private field of
    /// `Postings`, `BlockPostings` (`term_start`, each block
    /// with its `max_contrib` at round-trip precision) and `PruningIndex`.
    /// The pool is not compared: it never changes what a fold makes.
    pub(crate) fn assert_same_as(&self, want: &SearchIndex, ctx: &str) {
        let dbg = |x: &dyn std::fmt::Debug| format!("{x:?}");
        assert_eq!(dbg(&self.postings), dbg(&want.postings), "{ctx}: postings");
        assert_eq!(dbg(&self.docs), dbg(&want.docs), "{ctx}: docstore");
        assert_eq!(self.by_url, want.by_url, "{ctx}: by_url");
        assert_eq!(
            dbg(&self.facet_keys),
            dbg(&want.facet_keys),
            "{ctx}: facet keys"
        );
        assert_eq!(self.annotations, want.annotations, "{ctx}: annotations");
        assert_eq!(
            self.annotations.boost_bound().to_bits(),
            self.annotations.brute_boost_bound().to_bits(),
            "{ctx}: annotation bound"
        );
        assert_eq!(self.vocabulary, want.vocabulary, "{ctx}: vocabulary");
        assert_eq!(dbg(&self.pruning), dbg(&want.pruning), "{ctx}: pruning");
        for (id, term) in self.postings.dict().iter() {
            let (a, b) = (self.pruning.blocks(), want.pruning.blocks());
            let (a, b) = (a.term_blocks(id), b.term_blocks(id));
            assert_eq!(a, b, "{ctx}: blocks of {term:?}");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(
                    x.max_contrib.to_bits(),
                    y.max_contrib.to_bits(),
                    "{ctx}: {term:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::{Annotation, DocKind};
    use deepweb_common::ids::SiteId;

    fn add_batch(idx: &mut SearchIndex, docs: Vec<BatchDoc>) -> Vec<DocId> {
        idx.add_batch(&ThreadPool::new(1), docs)
    }

    /// A surfaced page annotated with `(key, value)` pairs.
    fn surfaced(path: &str, anns: &[(&str, &str)]) -> BatchDoc {
        BatchDoc::surfaced(Url::new("a.sim", path), "t", "x", anns)
    }

    #[test]
    fn url_dedup() {
        let mut idx = SearchIndex::new();
        let u = Url::new("a.sim", "/p");
        let docs = vec![
            BatchDoc::page(u.clone(), "t", "x"),
            BatchDoc::page(u.clone(), "other", "y"),
        ];
        assert_eq!(add_batch(&mut idx, docs), [DocId(0), DocId(0)]);
        assert_eq!(idx.len(), 1);
        assert!(idx.contains_url(&u));
    }

    #[test]
    fn title_terms_indexed() {
        let mut idx = SearchIndex::new();
        let doc = BatchDoc::page(Url::new("a.sim", "/p"), "rare sigmod award", "body text");
        add_batch(&mut idx, vec![doc]);
        assert_eq!(idx.postings().df("sigmod"), 1);
        assert_eq!(idx.postings().df("body"), 1);
    }

    #[test]
    fn facet_vocabulary_accumulates() {
        let mut idx = SearchIndex::new();
        let docs = vec![
            surfaced("/1", &[("make", "honda")]),
            surfaced("/2", &[("make", "ford")]),
        ];
        add_batch(&mut idx, docs);
        assert!(idx.facet_value_known("make", "honda"));
        assert!(idx.facet_value_known("make", "ford"));
        assert!(!idx.facet_value_known("make", "tesla"));
        assert!(!idx.facet_value_known("model", "honda"));
        let key = idx.facet_key_id("make").expect("make interned");
        for (doc, value) in [(0, "honda"), (1, "ford")] {
            let id = idx.postings().term_id(value).expect("value interned");
            let anns: Vec<_> = idx.annotation_column().doc(DocId(doc)).collect();
            assert_eq!(anns, vec![(key, &[id][..])]);
            assert_eq!(idx.value_keys(id), [key]);
        }
    }

    #[test]
    fn mixed_case_and_punctuated_facet_values_are_analysed() {
        // Regression: raw values used to enter the vocabulary unanalysed, so
        // "Honda" or "new-york" could never match a lowercased query term.
        let mut idx = SearchIndex::new();
        let doc = surfaced("/1", &[("make", "Honda"), ("city", "New-York")]);
        add_batch(&mut idx, vec![doc]);
        assert!(idx.facet_value_known("make", "honda"));
        assert!(idx.facet_value_known("city", "new"));
        assert!(idx.facet_value_known("city", "york"));
        // The column's id ranges resolve back to the analysed tokens.
        let resolved: Vec<(FacetKeyId, Vec<&str>)> = idx
            .annotation_column()
            .doc(DocId(0))
            .map(|(key, terms)| {
                let terms = terms.iter().map(|&t| idx.postings().dict().resolve(t));
                (key, terms.collect())
            })
            .collect();
        let key = |k: &str| idx.facet_key_id(k).expect("key interned");
        assert_eq!(
            resolved,
            vec![
                (key("make"), vec!["honda"]),
                (key("city"), vec!["new", "york"])
            ]
        );
    }

    /// One way in, field for field: a document sequence (repeated URLs,
    /// annotations whose value tokens later turn up as body terms) cut into
    /// runs any way, each run entering one document per `add_batch` or by
    /// one `add_batch` at 1 or 3 workers, equals one `add_batch` of the
    /// whole sequence — postings, docstore, `by_url`, both dictionaries,
    /// facet values, the annotation column and its bound (a brute-force max over docs: an empty value and one of 65
    /// tokens do not count), every block — and hands back the same ids.
    #[test]
    fn add_batch_in_any_split_equals_one_batch() {
        let long: Vec<String> = (0..65).map(|t| format!("w{t}")).collect();
        let long = long.join(" ");
        let docs: Vec<BatchDoc> = (0..40usize)
            .map(|i| BatchDoc {
                url: Url::new("a.sim", format!("/p{}", i % 31)),
                title: format!("title {i}"),
                text: format!("honda civic doc {i} zip {} value{}", 90000 + i % 7, i % 5),
                kind: DocKind::Surfaced,
                site: Some(SiteId(0)),
                annotations: (0..if i == 17 { 5 } else { i % 3 })
                    .map(|a| Annotation {
                        key: format!("key{a}"),
                        value: match (i, a) {
                            (8, 1) => "Out-of Stock".to_string(),
                            (10, 0) => String::new(),
                            (11, 1) | (17, 4) => long.clone(),
                            _ => format!("Value{} of the lot{i}", (i + 2) % 6),
                        },
                    })
                    .collect(),
            })
            .collect();
        let mut want = SearchIndex::new();
        let want_ids = want.add_batch(&ThreadPool::new(1), docs.clone());
        let bound = want.annotation_column().boost_bound();
        assert_eq!(bound, 4.0 * crate::searcher::ANNOTATION_BOOST);
        let splits: Vec<Vec<usize>> = vec![
            vec![],
            vec![1],
            vec![5, 6, 7, 20],
            vec![13, 14, 39],
            (1..40).collect(),
        ];
        for cuts in &splits {
            for workers in [1, 3] {
                for first_by_one in [false, true] {
                    let mut got = SearchIndex::new();
                    let mut ids = Vec::new();
                    let mut bounds = vec![0];
                    bounds.extend_from_slice(cuts);
                    bounds.push(docs.len());
                    for (run, w) in bounds.windows(2).enumerate() {
                        let run_docs = docs[w[0]..w[1]].to_vec();
                        let pool = ThreadPool::new(workers);
                        if (run % 2 == 0) == first_by_one {
                            for d in run_docs {
                                ids.extend(got.add_batch(&pool, vec![d]));
                            }
                        } else {
                            ids.extend(got.add_batch(&pool, run_docs));
                        }
                    }
                    let ctx = format!("cuts={cuts:?} workers={workers} one first={first_by_one}");
                    assert_eq!(ids, want_ids, "{ctx}");
                    got.assert_same_as(&want, &ctx);
                }
            }
        }
    }

    /// The dedup at any width: onto a base, a batch repeating base URLs,
    /// repeating its own (a URL with an encoded parameter among them) and
    /// adding new ones, at 1, 2 and 4 workers, hands back the ids of the
    /// 1-worker build — first occurrence wins, base URLs keep their ids —
    /// and builds the same index, field for field.
    #[test]
    fn add_batch_dedups_alike_at_any_width() {
        let url = |i: usize| match i % 4 {
            0 => Url::new("a.sim", format!("/{i}")),
            1 => Url::new("a.sim", "/q").with_param("make", format!("Ford {i}")),
            2 => Url::new(format!("h{i}.sim"), "/"),
            _ => Url::new("b.sim", format!("/{i}")).with_param("p", "1&2"),
        };
        let doc = |i: usize, text: &str| BatchDoc::page(url(i), "title", text);
        let base: Vec<BatchDoc> = (0..20).map(|i| doc(i, &format!("base {i}"))).collect();
        let picks = [25, 3, 25, 21, 0, 40, 21, 19, 33, 33, 7, 40, 22, 25];
        let batch: Vec<BatchDoc> = (picks.iter().enumerate())
            .map(|(n, &i)| doc(i, &format!("offer {n}")))
            .collect();
        let mut one = SearchIndex::new();
        one.add_batch(&ThreadPool::new(1), base.clone());
        let onto = one.clone();
        let want_ids = one.add_batch(&ThreadPool::new(1), batch.clone());
        let fresh =
            |i| DocId(20 + [25, 21, 40, 33, 22].iter().position(|&p| p == i).unwrap() as u32);
        let model: Vec<DocId> = (picks.iter())
            .map(|&i| if i < 20 { DocId(i as u32) } else { fresh(i) })
            .collect();
        assert_eq!(want_ids, model);
        assert_eq!(
            one.doc(DocId(20)).unwrap().text,
            "offer 0",
            "first occurrence wins"
        );
        for workers in [1, 2, 4] {
            let mut got = onto.clone();
            let ids = got.add_batch(&ThreadPool::new(workers), batch.clone());
            assert_eq!(ids, want_ids, "{workers} workers");
            got.assert_same_as(&one, &format!("{workers} workers"));
            assert!(batch.iter().all(|d| got.contains_url(&d.url)));
        }
    }

    /// `add_batch` allocates each posting list once, at its final length:
    /// a batch cut into three shards, with a term in every doc and terms in
    /// one doc each, leaves no list with room to spare.
    #[test]
    fn add_batch_leaves_no_slack_in_posting_lists() {
        let doc = |i| {
            BatchDoc::page(
                Url::new("a.sim", format!("/{i}")),
                "shared",
                &format!("doc{i}"),
            )
        };
        let mut idx = SearchIndex::new();
        add_batch(&mut idx, (0..9).map(doc).collect());
        let p = idx.postings();
        assert_eq!((p.df("shared"), p.df("doc8")), (9, 1));
        let slots = p.num_postings() * std::mem::size_of::<crate::postings::Posting>();
        assert_eq!(p.list_bytes(), slots);
    }

    #[test]
    fn stats_reflect_content() {
        let mut idx = SearchIndex::new();
        let doc = BatchDoc::page(Url::new("a.sim", "/1"), "alpha", "beta gamma");
        add_batch(&mut idx, vec![doc]);
        let s = idx.stats();
        assert_eq!(s.docs, 1);
        assert_eq!(s.terms, 3);
        assert_eq!(s.postings, 3);
        assert!((s.avg_doc_len - 3.0).abs() < 1e-12);
    }
}
