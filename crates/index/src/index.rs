//! The search index: document store + postings + facet vocabulary, with URL
//! deduplication (a crawler inserts the same URL only once — URL identity is
//! the dedup key, as in real surfacing).

use crate::docstore::{AnnotationColumn, BatchDoc, DocStore};
use crate::postings::Postings;
use crate::pruned::PruningIndex;
use crate::searcher::SearchOptions;
use crate::urls::UrlMap;
use crate::view::next_id;
use deepweb_common::ids::{DocId, FacetKeyId, TermId};
use deepweb_common::text::raw_tokens;
use deepweb_common::{FxHashMap, TermDict, ThreadPool, Url};
use std::borrow::Borrow;

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

    /// The bookkeeping of one annotation, run in document order by the
    /// store/facet fold: intern the facet key, feed the analysed value-token
    /// ids into the vocabulary, and append the pair to the column.
    fn record_annotation(&mut self, key: &str, terms: &[TermId]) {
        let key = self.intern_facet_key(key);
        for &term in terms {
            self.vocabulary.know(term, key);
        }
        self.annotations.push(key, terms);
    }

    fn intern_facet_key(&mut self, key: &str) -> FacetKeyId {
        FacetKeyId(self.facet_keys.intern(key).0)
    }

    /// Add a batch of documents with tokenisation and postings construction
    /// fanned out over `pool`, returning one id per batch entry (the existing
    /// id for an already-indexed URL). The one way a document enters an
    /// index. `pool` becomes the index's own: everything the index runs in
    /// parallel from now on runs on it.
    ///
    /// The batch is deduplicated sequentially (URL identity, first occurrence
    /// wins; each fresh URL rendered and registered once, here), split into
    /// contiguous shards of fresh documents, analysed and indexed into
    /// per-shard postings in parallel, then folded in shard order by the one
    /// fold, `SearchIndex::merged` — so the resulting index, block index
    /// included, is identical to the sequential loop for any worker count.
    /// The fold copies this index's posting lists once; on an empty index it
    /// allocates each list once, at its final length.
    pub fn add_batch(&mut self, pool: &ThreadPool, batch: Vec<BatchDoc>) -> Vec<DocId> {
        self.pool = *pool;
        // 1. Sequential dedup + id assignment in batch order, into the URL
        // map the folded index takes over.
        let mut by_url = std::mem::take(&mut self.by_url);
        let mut ids = Vec::with_capacity(batch.len());
        let mut fresh: Vec<BatchDoc> = Vec::new();
        let stored = self.docs.len();
        for doc in batch {
            let key = doc.url.key();
            let url_of = |id: DocId| match id.as_usize().checked_sub(stored) {
                Some(i) => &fresh[i].url,
                None => &self.docs.get(id).url,
            };
            if let Some(id) = by_url.get(&key, url_of) {
                ids.push(id);
                continue;
            }
            let id = DocId(next_id(stored + fresh.len()));
            by_url.insert(&key, id);
            ids.push(id);
            fresh.push(doc);
        }
        if fresh.is_empty() {
            self.by_url = by_url;
            return ids;
        }
        // 2. Contiguous shards (≈4 per worker for load-balancing headroom),
        // each analysed into a doc-local postings shard in parallel.
        let shard_len = fresh.len().div_ceil(pool.workers().max(1) * 4).max(1);
        let built = pool.map(fresh.chunks(shard_len).collect(), |_, shard| {
            build_shard(shard)
        });
        // 3. The one fold, in shard order; it frees the shards before its
        // block pass.
        *self = self.merged(by_url, built, fresh);
        ids
    }

    /// This index with `shards` and their `docs` folded in, in order, as a
    /// new index — the one fold: [`SearchIndex::add_batch`] runs it over a
    /// batch's fresh documents, the freshness tier's merge (DESIGN.md §15)
    /// over its pending segments. Each shard is what [`build_shard`] made of
    /// its documents — doc-local postings and, per doc and annotation, the
    /// value tokens as shard-local term ids — owned (a batch's) or borrowed
    /// (a pending segment's). `self` is only read, and what a fold does
    /// not change is shared or carried over, not rebuilt: the result shares
    /// every full docstore chunk and every dictionary string; each posting
    /// list is copied once at its final length ([`Postings::absorbed`]); the
    /// block index is extended over the new docs ([`PruningIndex::extended`]:
    /// full blocks carried over, every block maximum recomputed) once the
    /// shards are dropped, so owned shards are freed before it. Both passes
    /// run on the index's pool. Each annotation value of `docs` (every
    /// shard's documents, in order) is rewritten from shard-local into global
    /// term ids through its shard's remap for the store/facet bookkeeping.
    /// `by_url` is the result's URL map, `docs` already registered in it by
    /// whoever deduplicated them: no URL is rendered here. The result does
    /// not depend on the pool.
    pub(crate) fn merged<P: Borrow<Postings>, A: Borrow<[Vec<Vec<TermId>>]>>(
        &self,
        by_url: UrlMap,
        shards: Vec<(P, A)>,
        docs: impl IntoIterator<Item = BatchDoc>,
    ) -> SearchIndex {
        let shard_postings: Vec<&Postings> = shards.iter().map(|s| s.0.borrow()).collect();
        let (postings, remaps) = self.postings.absorbed(&shard_postings, &self.pool);
        let mut next = SearchIndex {
            docs: self.docs.clone(),
            pruning: PruningIndex::default(),
            postings,
            by_url,
            annotations: self.annotations.clone(),
            facet_keys: self.facet_keys.clone(),
            vocabulary: self.vocabulary.clone(),
            pool: self.pool,
        };
        let mut docs = docs.into_iter();
        let mut terms: Vec<TermId> = Vec::new();
        for ((_, shard_ann_local), remap) in shards.iter().zip(&remaps) {
            for (ann_local, doc) in shard_ann_local.borrow().iter().zip(&mut docs) {
                for (ann, local_ids) in doc.annotations.iter().zip(ann_local) {
                    terms.clear();
                    terms.extend(local_ids.iter().map(|local| remap[local.as_usize()]));
                    next.record_annotation(&ann.key, &terms);
                }
                next.annotations.end_doc();
                next.docs.push(doc);
            }
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
        let key = self.intern_facet_key(key);
        for v in values {
            for term in self.postings.intern_value(&v) {
                self.vocabulary.know(term, key);
            }
        }
    }

    /// True if the URL is already indexed.
    pub fn contains_url(&self, url: &Url) -> bool {
        self.url_id(&url.key()).is_some()
    }

    /// The id of an indexed URL, for a caller that has rendered it already.
    pub(crate) fn url_id(&self, rendered_url: &str) -> Option<DocId> {
        self.by_url.get(rendered_url, |id| &self.docs.get(id).url)
    }

    /// Rendered URL → doc id over every document.
    pub(crate) fn url_map(&self) -> &UrlMap {
        &self.by_url
    }

    /// Document metadata store.
    pub fn docs(&self) -> &DocStore {
        &self.docs
    }

    /// Document by id.
    pub fn doc(&self, id: DocId) -> &BatchDoc {
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

    /// Number of interned facet keys — the id a segment overlay assigns to
    /// its first novel facet key, so the overlay's id assignment replays
    /// what a merged rebuild would intern.
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

/// Index a run of documents into a doc-local [`Postings`] plus, per doc and
/// per annotation, the value's analysed tokens as shard-local term ids.
/// Title then body token slices stream from `raw_tokens` straight into
/// [`Postings::add_document`], and each value into `Postings::intern_value`
/// (stopwords dropped) — no token is a `String` of its own. The per-document
/// interning order — title and body terms, then annotation value tokens — is
/// the canonical one, spelled only here (DESIGN.md §12), so folding shards
/// in order replays one sequential walk over the docs. Shared by
/// [`SearchIndex::add_batch`]'s parallel shards and the delta-segment build
/// of [`segments`](crate::segments).
pub(crate) fn build_shard(shard: &[BatchDoc]) -> (Postings, Vec<Vec<Vec<TermId>>>) {
    let mut postings = Postings::new();
    let mut ann_local: Vec<Vec<Vec<TermId>>> = Vec::with_capacity(shard.len());
    for (local, doc) in shard.iter().enumerate() {
        let tokens = raw_tokens(&doc.title).chain(raw_tokens(&doc.text));
        postings.add_document(DocId(next_id(local)), tokens);
        ann_local.push(
            doc.annotations
                .iter()
                .map(|ann| postings.intern_value(&ann.value))
                .collect(),
        );
    }
    (postings, ann_local)
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
