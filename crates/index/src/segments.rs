//! The freshness tier: LSM-style delta segments over a sealed base index
//! (DESIGN.md §15).
//!
//! A [`SegmentedIndex`] serves queries over a *generation*: an immutable
//! base [`SearchIndex`] plus zero or more sealed delta segments, each a
//! contiguous doc range with its own doc-local [`Postings`] and docstore
//! slice. Readers take an `Arc` snapshot of the current generation and are
//! never blocked: [`SegmentedIndex::apply`] seals new deltas and
//! [`SegmentedIndex::merge`] folds every segment into a fresh base entirely
//! off the read path, publishing the result with one pointer swap.
//!
//! ## Byte-identity (the load-bearing contract)
//!
//! A segmented generation must rank **byte-identically** to a from-scratch
//! rebuild over the same documents, at every serving tier, both before and
//! after a merge. The argument composes three existing invariants:
//!
//! 1. **One seal.** A segment is built by the same kernel as a build shard
//!    (`build_shard`) and sealed by the same step (`SearchIndex::seal`)
//!    into the generation's [`Extension`], which a merge appends in id
//!    order: the generation's ids — each segment's remap and annotation
//!    column — *are* the merged base's, by construction.
//! 2. **Global statistics.** The one kernel evaluates the one BM25
//!    expression against the generation's `IndexView`: `N` and the average
//!    doc length are recomputed from exact integer totals (base +
//!    per-segment `Postings::total_doc_len`), and `df` is the base
//!    document frequency plus each segment's — the same integers the merged
//!    index derives, so `idf` and every contribution are bit-identical.
//! 3. **Fold order.** Contributions fold per doc in query-term order (terms
//!    outer, postings inner), and within a term the view yields the base
//!    list before each segment's list in segment order — ascending global
//!    doc id, i.e. the merged posting list's order.
//!
//! A generation has no kernel of its own: [`Generation::search`] is the
//! sequential searcher's `search_view` over "view with segments".
//!
//! ## Pruning-structure invalidation
//!
//! What pending segments invalidate is a block's stored `max_contrib`, not
//! its `(max_tf, min_dl)`: the maximum bakes in the sealed base's `idf` and
//! average doc length, which a segment moves (long fresh docs lacking a term
//! lift every base contribution for it past the stored value); the pair
//! describes the block's own postings, which no segment touches. So a
//! pending generation still prunes its base: the kernel runs block-max over
//! the base with bounds recomputed from that pair under the generation's
//! statistics, folds the segments' few hundred docs, and merges the two
//! exact lists under the one hit order.
//! Segments get no block index (it would tax every `apply`), and
//! [`SegmentedIndex::merge`] runs the fold every index grows by
//! (`SearchIndex::merged`), which extends the base's over the folded docs,
//! recomputing every block's maximum so the stored maxima are exact again.
//!
//! ## What a merge costs
//!
//! A merge builds the next base *from* the sealed base and the segments; it
//! never clones the base and mutates the copy. What no merge changes is
//! shared between the two generations (docstore chunks, each pending
//! segment's documents among them, and dictionary strings) or carried over
//! as is (the block index's full blocks — the
//! `(max_tf, min_dl)` of postings no merge touches); each raw posting list is
//! copied once at its final length, through the remaps `apply` sealed; only
//! the delta gets new blocks; the pending URLs enter the URL map as the
//! hashes `apply` filed them under, not rendered again. What still scales
//! with the base is that one copy of the raw lists and the exact-maxima pass
//! over them (both on the base's pool, the one its owner passed to
//! `add_batch`), plus flat copies of the URL map and the annotation column.

use crate::docstore::BatchDoc;
use crate::index::{build_shard, Extension, SearchIndex, Shard};
use crate::postings::Tally;
use crate::searcher::{search_view, with_thread_scratch, Hit, QueryScratch, SearchOptions};
use crate::service::SearchService;
use crate::urls::{dedup, url_hash, url_hashes, UrlMap};
use crate::view::{doc_bound, next_id, IndexView};
use deepweb_common::ids::{DocId, TermId};
use deepweb_common::{FxHashMap, Url};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// One sealed delta segment: a contiguous run of fresh documents starting at
/// global doc id `base_doc`, sealed into the generation's extension.
#[derive(Debug)]
pub struct SealedSegment {
    /// Global doc id of the segment's first document.
    pub(crate) base_doc: u32,
    /// Doc-local (ids `0..num_docs`), term-local postings, each term's
    /// generation id (the id the merged base gives it) and the annotation
    /// column in generation ids — what a merge folds as it is.
    pub(crate) shard: Shard,
    /// The raw documents, one docstore chunk: a merge appends it to the
    /// next base's store as it is.
    docs: Arc<Vec<BatchDoc>>,
    /// Each document's URL hash ([`url_hash`]), which a merge files the
    /// next base's URL map by, in id order.
    hashes: Vec<u64>,
    /// Generation-global term id → segment-local id, for query-time posting
    /// lookups.
    pub(crate) inv: FxHashMap<TermId, TermId>,
}

impl SealedSegment {
    /// Documents in this segment.
    pub fn num_docs(&self) -> usize {
        self.shard.postings.num_docs()
    }

    /// The raw documents, in segment-local order (= global, offset by the
    /// segment's first doc id).
    pub fn docs(&self) -> &[BatchDoc] {
        &self.docs
    }
}

/// The segment of `segments` holding pending doc `id` and the doc's id
/// within it (`None` before the first segment's first doc).
pub(crate) fn segment_of(
    segments: &[Arc<SealedSegment>],
    id: DocId,
) -> Option<(&SealedSegment, DocId)> {
    let at = segments.partition_point(|s| s.base_doc <= id.0);
    let seg = segments.get(at.checked_sub(1)?)?;
    Some((seg, DocId(id.0 - seg.base_doc)))
}

/// The cumulative delta a generation's segments lay over the base index:
/// what they add to it, the fresh URLs, and exact global totals for BM25
/// statistics.
#[derive(Clone, Debug, Default)]
pub(crate) struct Overlay {
    /// The terms, facet keys and vocabulary pairs the segments add to the
    /// base: every apply seals its segment into it, and a merge appends it.
    pub(crate) ext: Extension,
    /// Rendered URL → global doc id of every segment doc (the base's
    /// `by_url` covers the rest).
    urls: UrlMap,
    /// Total documents across base + segments.
    pub(crate) num_docs: usize,
    /// Total tokens across base + segments (integer numerator of the merged
    /// average doc length).
    pub(crate) total_len: u64,
}

/// One immutable snapshot of the freshness tier: a base index plus sealed
/// segments and their overlay. Everything a query reads lives here, so a
/// reader holding the `Arc` is isolated from concurrent applies and merges.
#[derive(Debug)]
pub struct Generation {
    base: Arc<SearchIndex>,
    segments: Vec<Arc<SealedSegment>>,
    overlay: Overlay,
}

impl Generation {
    fn from_base(base: Arc<SearchIndex>) -> Self {
        let overlay = Overlay {
            num_docs: base.len(),
            total_len: base.postings().total_doc_len(),
            ..Overlay::default()
        };
        Generation {
            base,
            segments: Vec::new(),
            overlay,
        }
    }

    /// The sealed base index under this generation.
    pub fn base(&self) -> &SearchIndex {
        &self.base
    }

    /// A shared handle on the base, for a caller that keeps serving it
    /// beside this generation (one allocation, not a clone).
    pub fn shared_base(&self) -> Arc<SearchIndex> {
        Arc::clone(&self.base)
    }

    /// Sealed segments, in doc-range order.
    pub fn segments(&self) -> &[Arc<SealedSegment>] {
        &self.segments
    }

    /// Total documents (base + segments).
    pub fn num_docs(&self) -> usize {
        self.overlay.num_docs
    }

    /// Documents waiting in segments (not yet folded into the base).
    pub fn pending_docs(&self) -> usize {
        self.overlay.num_docs - self.base.len()
    }

    /// True if `url` is indexed in the base or any segment.
    pub fn contains_url(&self, url: &Url) -> bool {
        self.url_id(url_hash(url, &mut String::new()), url)
            .is_some()
    }

    /// The pending document `id` (one past the base), from its segment.
    fn pending_doc(&self, id: DocId) -> Option<&BatchDoc> {
        let (seg, local) = segment_of(&self.segments, id)?;
        seg.docs.get(local.as_usize())
    }

    /// The id of `url`, whose rendered form hashes to `hash`, in the base or
    /// a segment.
    fn url_id(&self, hash: u64, url: &Url) -> Option<DocId> {
        let pending = |id| self.pending_doc(id).map(|doc| &doc.url);
        let base = self.base.url_id(hash, url);
        base.or_else(|| self.overlay.urls.find(hash, url, pending))
    }

    /// The read-side view of this generation: base ⊕ segments ⊕ overlay.
    pub(crate) fn view(&self) -> IndexView<'_> {
        IndexView {
            base: &self.base,
            segments: &self.segments,
            overlay: Some(&self.overlay),
        }
    }

    /// Top-`k` hits over this pinned snapshot (per-thread scratch): the one
    /// kernel over this generation's view, which carries the base's pruning
    /// structures whether or not segments are pending (module docs).
    pub fn search(&self, query: &str, k: usize, opts: SearchOptions) -> Vec<Hit> {
        with_thread_scratch(|s| search_view(&self.view(), query, k, opts, s))
    }
}

/// The concurrently-served freshness tier: an atomically swappable current
/// [`Generation`] plus a single-writer lock serialising [`apply`] and
/// [`merge`]. Readers never block writers and writers never block readers —
/// both sides only contend on the brief pointer read/swap.
///
/// [`apply`]: SegmentedIndex::apply
/// [`merge`]: SegmentedIndex::merge
#[derive(Debug)]
pub struct SegmentedIndex {
    current: RwLock<Arc<Generation>>,
    writer: Mutex<()>,
}

impl SegmentedIndex {
    /// Wrap a built base index as generation zero (no segments).
    pub fn new(base: SearchIndex) -> Self {
        Self::from_shared(Arc::new(base))
    }

    /// [`SegmentedIndex::new`] over a base the caller keeps sharing: the
    /// tier reads the one allocation instead of serving a clone of it.
    pub fn from_shared(base: Arc<SearchIndex>) -> Self {
        SegmentedIndex {
            current: RwLock::new(Arc::new(Generation::from_base(base))),
            writer: Mutex::new(()),
        }
    }

    /// The current generation. The returned snapshot is immutable: queries
    /// against it are unaffected by concurrent applies or merges.
    pub fn snapshot(&self) -> Arc<Generation> {
        Arc::clone(&self.current.read())
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the guard is a temporary of this one assignment: no dispatch or other lock runs under it"
    )]
    fn publish(&self, gen: Generation) {
        *self.current.write() = Arc::new(gen);
    }

    /// Seal `batch` into one new delta segment and publish the next
    /// generation. URLs already indexed (base, earlier segments, or earlier
    /// in the batch — first occurrence wins, like [`SearchIndex::add_batch`])
    /// are skipped, by the same dedup: every URL hashed on the base's pool,
    /// the hashes probed and filed in batch order, the fresh documents kept
    /// in the batch. Returns the number of fresh documents indexed.
    pub fn apply(&self, mut batch: Vec<BatchDoc>) -> usize {
        let _writer = self.writer.lock();
        let gen = self.snapshot();
        let mut hashes = url_hashes(&gen.base.pool(), &batch);
        let mut overlay = gen.overlay.clone();
        let (base, next) = (&gen.base, overlay.num_docs);
        let known = |hash, url: &Url| base.url_id(hash, url);
        let pending = |id| gen.pending_doc(id).map(|doc| &doc.url);
        dedup(
            &mut batch,
            &mut hashes,
            &mut overlay.urls,
            next,
            known,
            pending,
        );
        if batch.is_empty() {
            return 0;
        }
        let shard = build_shard(&batch, &mut Tally::default());
        let shard = gen.base.seal(&mut overlay.ext, shard);
        let inv = shard.remap.iter().enumerate();
        let segment = SealedSegment {
            base_doc: doc_bound(overlay.num_docs),
            inv: inv
                .map(|(local, &id)| (id, TermId(next_id(local))))
                .collect(),
            shard,
            docs: Arc::new(batch),
            hashes,
        };
        let added = segment.num_docs();
        overlay.num_docs += segment.num_docs();
        overlay.total_len += segment.shard.postings.total_doc_len();
        let mut segments = gen.segments.clone();
        segments.push(Arc::new(segment));
        self.publish(Generation {
            base: Arc::clone(&gen.base),
            segments,
            overlay,
        });
        added
    }

    /// Fold every pending segment into a fresh base — the deterministic
    /// background merge. The fold is computed entirely off the read lock
    /// (readers keep serving the old generation from their snapshots) and
    /// published with one pointer swap. The next base is built from the
    /// sealed one by the fold `add_batch` runs (`SearchIndex::merged`, on
    /// the base's pool), sharing what no merge changes (module docs) and
    /// each segment's documents, whose chunk the next base's store appends;
    /// its block index is the sealed base's extended over the folded docs,
    /// every stored block maximum exact again.
    ///
    /// Returns the number of documents folded out of segments (0 = nothing
    /// to merge).
    pub fn merge(&self) -> usize {
        let _writer = self.writer.lock();
        let gen = self.snapshot();
        if gen.segments.is_empty() {
            return 0;
        }
        let folded = gen.pending_docs();
        let shards: Vec<&Shard> = gen.segments.iter().map(|seg| &seg.shard).collect();
        let docs = gen.segments.iter().map(|seg| Arc::clone(&seg.docs));
        let mut by_url = gen.base.url_map().clone();
        for seg in &gen.segments {
            let ids = (seg.base_doc..).map(DocId);
            for ((doc, &hash), id) in seg.docs.iter().zip(&seg.hashes).zip(ids) {
                by_url.file(hash, &doc.url, id);
            }
        }
        let ext = gen.overlay.ext.clone();
        let merged = gen.base.merged(by_url, ext, shards, docs);
        self.publish(Generation::from_base(Arc::new(merged)));
        folded
    }

    /// Total documents in the current generation.
    pub fn num_docs(&self) -> usize {
        self.snapshot().num_docs()
    }

    /// Segments pending merge in the current generation.
    pub fn num_segments(&self) -> usize {
        self.snapshot().segments.len()
    }

    /// This tier as a [`SearchService`] with fixed serving options.
    pub fn searcher(&self, opts: SearchOptions) -> SegmentedSearcher<'_> {
        SegmentedSearcher { index: self, opts }
    }
}

/// [`SegmentedIndex`] behind the unified serving API: fixed options, every
/// query served against the then-current generation.
#[derive(Clone, Copy, Debug)]
pub struct SegmentedSearcher<'a> {
    index: &'a SegmentedIndex,
    opts: SearchOptions,
}

impl SearchService for SegmentedSearcher<'_> {
    fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        self.index.snapshot().search(query, k, self.opts)
    }

    /// The tier's one batched read: one snapshot for the whole batch (a
    /// mid-batch apply or merge must not split it across generations),
    /// served over the base's pool with one scratch per worker —
    /// byte-identical to serving each query against that snapshot.
    fn search_batch(&self, queries: &[String], k: usize) -> Vec<Vec<Hit>> {
        let gen = self.index.snapshot();
        let view = gen.view();
        let pool = gen.base.pool();
        pool.map_indices_init(queries.len(), QueryScratch::new, |scratch, qi| {
            let query = queries.get(qi).map_or("", String::as_str);
            search_view(&view, query, k, self.opts, scratch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docstore::{Annotation, DocKind};
    use crate::postings::{bm25_contribution, Posting};
    use crate::searcher::{search, search_windowed, PruningMode, ANNOTATION_BOOST};
    use deepweb_common::ids::SiteId;
    use deepweb_common::{fxhash64, ThreadPool, Url};

    fn doc(host: &str, path: &str, title: &str, text: &str, anns: &[(&str, &str)]) -> BatchDoc {
        BatchDoc {
            url: Url::new(host, path),
            title: title.into(),
            text: text.into(),
            kind: DocKind::Surfaced,
            site: Some(SiteId(0)),
            annotations: anns
                .iter()
                .map(|(k, v)| Annotation {
                    key: (*k).into(),
                    value: (*v).into(),
                })
                .collect(),
        }
    }

    fn corpus() -> (Vec<BatchDoc>, Vec<BatchDoc>) {
        let base = vec![
            doc(
                "a.sim",
                "/1",
                "honda civics",
                "1993 honda civic better mileage than the ford focus",
                &[("make", "honda"), ("model", "civic")],
            ),
            doc(
                "a.sim",
                "/2",
                "ford focus listings",
                "used ford focus 1993 low price",
                &[("make", "ford"), ("model", "focus")],
            ),
            doc("b.sim", "/3", "cooking blog", "recipes and stories", &[]),
        ];
        let delta = vec![
            doc(
                "c.sim",
                "/1",
                "tesla model three",
                "new tesla sedan listing with great mileage",
                &[("make", "tesla")],
            ),
            doc(
                "a.sim",
                "/4",
                "honda accord",
                "used honda accord 1997 listing",
                &[("make", "honda"), ("model", "accord")],
            ),
            // Duplicate of a base URL: must be skipped.
            doc("a.sim", "/1", "dupe", "dupe", &[]),
        ];
        (base, delta)
    }

    fn build_base(docs: &[BatchDoc]) -> SearchIndex {
        let mut idx = SearchIndex::new();
        idx.add_batch(&ThreadPool::new(2), docs.to_vec());
        idx
    }

    fn rebuild(base: &[BatchDoc], delta: &[BatchDoc]) -> SearchIndex {
        let mut all = base.to_vec();
        all.extend(delta.iter().cloned());
        build_base(&all)
    }

    const QUERIES: &[&str] = &[
        "honda",
        "used ford focus 1993",
        "tesla mileage",
        "accord listing",
        "recipes",
        "zzz-unknown",
        "",
    ];

    fn all_opts() -> Vec<SearchOptions> {
        vec![
            SearchOptions::default(),
            SearchOptions {
                use_annotations: true,
                ..Default::default()
            },
            SearchOptions {
                use_annotations: true,
                pruning: PruningMode::BlockMax,
            },
        ]
    }

    /// [`IndexView::annotation_bound`] by brute force: every doc of the view
    /// counted afresh through whichever part holds it.
    fn brute_view_bound(view: &IndexView<'_>) -> f64 {
        let per_doc = (0..view.num_docs()).map(|d| {
            let anns = view.annotations(DocId(next_id(d)));
            anns.filter(|(_, v)| (1..=64).contains(&v.len())).count()
        });
        ANNOTATION_BOOST * per_doc.max().unwrap_or(0) as f64
    }

    /// The annotation bound lives with each part's column: a segment's is
    /// the brute-force max over its own docs, a generation's view reads the
    /// largest of its parts' — here a segment's, above the base's — and the
    /// merged base's column, bound included, equals a rebuild's.
    #[test]
    fn each_part_bounds_its_own_annotations() {
        let (base, mut delta) = corpus();
        let seg = SegmentedIndex::new(build_base(&base));
        let richer = doc(
            "d.sim",
            "/1",
            "tesla sedan",
            "red tesla sedan listing",
            &[
                ("make", "tesla"),
                ("model", "three"),
                ("colour", "red"),
                ("trim", ""),
            ],
        );
        seg.apply(delta.clone());
        seg.apply(vec![richer.clone()]);
        let gen = seg.snapshot();
        assert_eq!(gen.segments.len(), 2);
        for part in &gen.segments {
            let column = &part.shard.annotations;
            assert_eq!(column.boost_bound(), column.brute_boost_bound());
        }
        let view = gen.view();
        assert_eq!(view.annotation_bound(), brute_view_bound(&view));
        assert_eq!(view.annotation_bound(), 3.0 * ANNOTATION_BOOST);
        let base_bound = gen.base().annotation_column().boost_bound();
        assert_eq!(base_bound, 2.0 * ANNOTATION_BOOST);
        assert_eq!(seg.merge(), 3);
        delta.push(richer);
        let merged = seg.snapshot();
        merged
            .base()
            .assert_same_as(&rebuild(&base, &delta), "merged");
        assert_eq!(merged.view().annotation_bound(), 3.0 * ANNOTATION_BOOST);
    }

    #[test]
    fn segmented_matches_rebuild_before_and_after_merge() {
        let (base, delta) = corpus();
        let seg = SegmentedIndex::new(build_base(&base));
        assert_eq!(seg.apply(delta.clone()), 2, "one duplicate URL skipped");
        let full = rebuild(&base, &delta);
        for opts in all_opts() {
            for q in QUERIES {
                for k in [1, 3, 10] {
                    let want = search(&full, q, k, opts);
                    assert_eq!(seg.snapshot().search(q, k, opts), want, "pre-merge q={q:?}");
                }
            }
        }
        assert_eq!(seg.num_segments(), 1);
        assert_eq!(seg.merge(), 2);
        assert_eq!(seg.num_segments(), 0);
        for opts in all_opts() {
            for q in QUERIES {
                let want = search(&full, q, 10, opts);
                assert_eq!(
                    seg.snapshot().search(q, 10, opts),
                    want,
                    "post-merge q={q:?}"
                );
            }
        }
    }

    /// A base whose stored block maxima a segment makes stale: 700 docs all
    /// naming `tee` (six 128-posting blocks), doc lengths 8..=20, with two
    /// planted docs — 0 (`tf` 2, length 5) leads the sealed ranking, 600
    /// (`tf` 4, length 40) leads once long fresh docs lift the average
    /// length, so a kernel trusting block 4's stored maximum would skip the
    /// new winner. The 60 delta docs are ~1 800 tokens each and lack `tee`;
    /// `novelterm` and the `pad*` words exist only in them.
    fn stale_corpus() -> (Vec<BatchDoc>, Vec<BatchDoc>) {
        let makes = ["honda", "ford", "bmw"];
        let base = (0..700usize)
            .map(|i| {
                let (tf, len) = match i {
                    0 => (2, 5),
                    600 => (4, 40),
                    _ => (1, 8 + i % 13),
                };
                let mut words = vec!["tee".to_string(); tf];
                words.push(makes[i % 3].to_string());
                words.extend((words.len()..len).map(|j| format!("filler{}", (i + j) % 7)));
                let anns: &[(&str, &str)] = if i % 4 == 1 {
                    &[("make", makes[i % 3])]
                } else {
                    &[]
                };
                doc("s.sim", &format!("/b{i}"), "", &words.join(" "), anns)
            })
            .collect();
        let delta = (0..60usize)
            .map(|j| {
                let mut words = vec!["novelterm".to_string(); 1 + j % 3];
                words.extend((0..1800).map(|p| format!("pad{}", (p * 7 + j) % 50)));
                let anns: &[(&str, &str)] = if j % 2 == 0 {
                    words.push("filler3 honda".to_string());
                    &[("make", "honda"), ("era", "novelterm")]
                } else {
                    &[]
                };
                doc("s.sim", &format!("/d{j}"), "", &words.join(" "), anns)
            })
            .collect();
        (base, delta)
    }

    const STALE_QUERIES: &[&str] = &[
        "tee",
        "tee filler3",
        "honda tee",
        "novelterm",
        "tee novelterm",
        "pad7 filler3",
        "zzz-unknown tee",
    ];

    fn blockmax(opts: SearchOptions) -> SearchOptions {
        SearchOptions {
            pruning: PruningMode::BlockMax,
            ..opts
        }
    }

    /// `gen.search` through the windowed kernel whatever the query reads:
    /// these corpora sit below the postings cutoff, where the kernel folds.
    fn windowed(gen: &Generation, q: &str, k: usize, opts: SearchOptions) -> Vec<Hit> {
        search_windowed(&gen.view(), q, k, opts, &mut QueryScratch::new())
    }

    #[test]
    fn pending_segments_make_stored_block_maxima_stale() {
        let (base, delta) = stale_corpus();
        let full = rebuild(&base, &delta);
        for parts in [1usize, 3] {
            let seg = SegmentedIndex::new(build_base(&base));
            for chunk in delta.chunks(delta.len() / parts) {
                assert_eq!(seg.apply(chunk.to_vec()), chunk.len());
            }
            assert_eq!(seg.num_segments(), parts);
            let gen = seg.snapshot();
            let view = gen.view();
            // The premise, asserted directly: under the generation's
            // statistics every block of `tee` holds a posting whose
            // contribution exceeds the block's stored maximum.
            let tee = view.term_id("tee").unwrap();
            let (idf, avg_len) = (view.idf(tee), view.avg_doc_len());
            let blocks = gen.base().block_index().blocks();
            assert!(blocks.term_blocks(tee).len() >= 4);
            let list = gen.base().postings().postings_id(tee);
            for (j, block) in blocks.term_blocks(tee).iter().enumerate() {
                let best = list[blocks.block_span(list.len(), j)]
                    .iter()
                    .map(|p| {
                        let dl = f64::from(gen.base().postings().doc_len(p.doc));
                        bm25_contribution(idf, f64::from(p.tf), dl, avg_len)
                    })
                    .fold(0.0, f64::max);
                assert!(best > block.max_contrib, "block {j}");
            }
            // A novel overlay term has no blocks at all: segment postings only.
            let novel = view.term_id("novelterm").unwrap();
            assert!(novel.as_usize() >= gen.base().postings().num_terms());
            assert!(blocks.term_blocks(novel).is_empty());
            let top = windowed(&gen, "novelterm", 10, blockmax(SearchOptions::default()));
            assert!(top.len() == 10 && top.iter().all(|h| h.doc.as_usize() >= base.len()));
            // The planted doc a stale bound would skip is the new winner.
            let top = windowed(&gen, "tee", 1, blockmax(SearchOptions::default()));
            assert_eq!(top[0].doc.0, 600);
            for phase in ["pending", "merged"] {
                for use_annotations in [false, true] {
                    let exhaustive = SearchOptions {
                        use_annotations,
                        ..Default::default()
                    };
                    for q in STALE_QUERIES {
                        for k in [1, 10, 100] {
                            let want = search(&full, q, k, exhaustive);
                            let ctx = format!("{phase} parts={parts} q={q:?} k={k}");
                            assert_eq!(seg.snapshot().search(q, k, exhaustive), want, "{ctx}");
                            let got = windowed(&seg.snapshot(), q, k, blockmax(exhaustive));
                            assert_eq!(got, want, "{ctx}");
                        }
                    }
                }
                if phase == "pending" {
                    assert_eq!(seg.merge(), delta.len());
                }
            }
        }
    }

    /// Equality alone cannot tell block-max from a silent exhaustive
    /// fallback; the scored-doc count can. Sealed, `tee` at k = 1 scores
    /// fewer docs than its df — and so it must with segments pending, on a
    /// fresh scratch (a kernel that never ran would leave the count at 0),
    /// identically at any worker count.
    #[test]
    fn pruning_engages_with_segments_pending() {
        let (base, delta) = stale_corpus();
        let seg = SegmentedIndex::new(build_base(&base));
        let opts = blockmax(SearchOptions::default());
        let scored = |workers: usize| -> Vec<usize> {
            let gen = seg.snapshot();
            ThreadPool::new(workers).map_indices_init(
                STALE_QUERIES.len(),
                QueryScratch::new,
                |scratch, qi| {
                    search_windowed(&gen.view(), STALE_QUERIES[qi], 1, opts, scratch);
                    scratch.pruned.docs_scored
                },
            )
        };
        let df = base.len();
        let sealed = scored(1);
        assert!(0 < sealed[0] && sealed[0] < df, "sealed: {}", sealed[0]);
        for chunk in delta.chunks(20) {
            seg.apply(chunk.to_vec());
        }
        assert_eq!(seg.num_segments(), 3);
        let pending = scored(1);
        assert!(0 < pending[0] && pending[0] < df, "pending: {}", pending[0]);
        assert_eq!(scored(3), pending);
    }

    #[test]
    fn merged_base_is_byte_identical_to_rebuild() {
        let (base, delta) = corpus();
        let seg = SegmentedIndex::new(build_base(&base));
        seg.apply(delta.clone());
        // Two applies stack two segments; merge folds both in order.
        seg.apply(vec![doc(
            "d.sim",
            "/x",
            "library catalog",
            "rare books and maps",
            &[("subject", "maps")],
        )]);
        assert_eq!(seg.num_segments(), 2);
        seg.merge();
        let mut all = delta.clone();
        all.push(doc(
            "d.sim",
            "/x",
            "library catalog",
            "rare books and maps",
            &[("subject", "maps")],
        ));
        let full = rebuild(&base, &all);
        let gen = seg.snapshot();
        // Structural identity, not just ranking identity: same stats, same
        // facet layer, same per-doc interned annotations.
        assert_eq!(gen.base().stats(), full.stats());
        assert_eq!(gen.base().annotation_column(), full.annotation_column());
        for (a, b) in gen.base().docs().iter().zip(full.docs().iter()) {
            assert_eq!(a.url, b.url);
            // Every value here is one token: each is a known value of its
            // facet on both sides.
            for ann in &a.annotations {
                let known = |idx: &SearchIndex| idx.facet_value_known(&ann.key, &ann.value);
                assert!(known(gen.base()) && known(&full), "doc {}: {ann:?}", a.url);
            }
        }
        gen.base().assert_same_as(&full, "two segments");
    }

    /// A random apply/merge sequence over a corpus that exercises what the
    /// merge carries over: terms crossing several 64-posting blocks, partial
    /// tails, terms and facet keys no earlier doc used, annotation-only
    /// terms, duplicate URLs, a base of 1 324 docs. After every
    /// `merge()` the base equals a from-scratch `add_batch` over the same
    /// docs **field for field** — raw lists, every block and its exact
    /// maximum, `by_url`, both dictionaries — and holds no slack. After every
    /// apply and every merge, every indexed URL resolves to its doc id, and
    /// one never indexed does not. The sequence runs on bases built at 1 and
    /// at 3 workers, whose pools every merge then runs on.
    #[test]
    fn every_merge_of_a_random_sequence_equals_a_rebuild_field_for_field() {
        let make = |i: usize, below: &mut dyn FnMut(usize) -> usize| {
            let mut words = vec!["shared".to_string()];
            for _ in 0..below(6) {
                words.push(format!("w{}", below(9)));
            }
            if below(4) == 0 {
                words.push(format!("novel{i}"));
            }
            let anns: Vec<(String, String)> = (0..below(3))
                .map(|a| match below(5) {
                    0 => (format!("key{i}"), format!("annonly{i} w{a}")),
                    1 => ("make".to_string(), String::new()),
                    _ => ("make".to_string(), format!("w{}", below(9))),
                })
                .collect();
            let anns: Vec<(&str, &str)> = anns.iter().map(|(k, v)| (&**k, &**v)).collect();
            // One URL in eight repeats an earlier one: skipped by `apply`.
            let path = if below(8) == 0 { below(i + 1) } else { i };
            doc("r.sim", &format!("/{path}"), "", &words.join(" "), &anns)
        };
        let resolves = |gen: &Generation, ctx: &str| {
            let base = gen.base();
            for (i, doc) in base.docs().iter().enumerate() {
                assert_eq!(
                    base.url_id(fxhash64(doc.url.key().as_str()), &doc.url),
                    Some(DocId(next_id(i))),
                    "{ctx}"
                );
                assert!(gen.contains_url(&doc.url), "{ctx}");
            }
            let pending = gen.segments.iter().flat_map(|seg| seg.docs());
            for (doc, i) in pending.zip(base.len()..) {
                let id = gen.url_id(fxhash64(doc.url.key().as_str()), &doc.url);
                assert_eq!(id, Some(DocId(next_id(i))), "{ctx}");
                assert!(gen.contains_url(&doc.url), "{ctx}");
            }
            let never = Url::new("r.sim", "/never");
            let hash = fxhash64(never.key().as_str());
            assert!(!gen.contains_url(&never) && base.url_id(hash, &never).is_none());
        };
        for workers in [1, 3] {
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            let mut below = move |n: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as usize
            };
            let base_len = 1324;
            let mut all: Vec<BatchDoc> = (0..base_len).map(|i| make(i, &mut below)).collect();
            let mut base = SearchIndex::new();
            base.add_batch(&ThreadPool::new(workers), all.clone());
            let seg = SegmentedIndex::new(base);
            assert!(
                seg.num_docs() > 1024,
                "doc 0 sits in the base's one chunk of 1 324 docs"
            );
            let mut merges = 0;
            for step in 0..24 {
                if below(3) == 0 {
                    let before = seg.snapshot();
                    if seg.merge() == 0 {
                        continue;
                    }
                    merges += 1;
                    let after = seg.snapshot();
                    let ctx = format!("workers {workers}, step {step}, {} docs", after.num_docs());
                    after.base().assert_same_as(&rebuild(&all, &[]), &ctx);
                    resolves(&after, &ctx);
                    let postings = after.base().postings();
                    assert_eq!(
                        postings.list_bytes(),
                        postings.num_postings() * std::mem::size_of::<Posting>(),
                        "{ctx}: a merged list is allocated at its final length"
                    );
                    // No base document was copied: a base doc is the same
                    // allocation in both generations.
                    let first = DocId(0);
                    assert!(std::ptr::eq(
                        before.base().doc(first).unwrap(),
                        after.base().doc(first).unwrap()
                    ));
                } else {
                    let batch: Vec<BatchDoc> = (0..below(90))
                        .map(|j| make(all.len() + j, &mut below))
                        .collect();
                    all.extend(batch.iter().cloned());
                    seg.apply(batch);
                    let gen = seg.snapshot();
                    let bound = gen.view().annotation_bound();
                    assert_eq!(
                        bound,
                        brute_view_bound(&gen.view()),
                        "workers {workers}, step {step}"
                    );
                    resolves(&gen, &format!("workers {workers}, step {step}, pending"));
                }
            }
            assert!(
                merges >= 3,
                "the sequence must merge pending docs: {merges}"
            );
        }
    }

    /// A merge moves no document: the next base's store appends each
    /// pending segment's chunk (the same allocation, starting at the
    /// segment's first id) after the sealed base's chunks, which it shares.
    #[test]
    fn a_merge_shares_each_pending_chunk_with_the_next_base() {
        let (base, delta) = corpus();
        let seg = SegmentedIndex::new(build_base(&base));
        seg.apply(delta);
        seg.apply(vec![doc("d.sim", "/x", "library", "rare maps", &[])]);
        let pending = seg.snapshot();
        assert_eq!(seg.merge(), 3);
        let merged = seg.snapshot();
        let chunk = |gen: &Generation, id: u32| gen.base().docs().chunk(DocId(id)).clone();
        let (_, sealed) = chunk(&pending, 0);
        assert!(Arc::ptr_eq(&chunk(&merged, 0).1, &sealed));
        assert_eq!(pending.segments().len(), 2);
        for part in pending.segments() {
            let (first, docs) = chunk(&merged, part.base_doc);
            assert_eq!(first, part.base_doc as usize);
            assert!(Arc::ptr_eq(&docs, &part.docs), "segment at {first}");
        }
    }

    /// `apply`'s dedup at any width of the base's pool: two batches, the
    /// second repeating base URLs, URLs pending from the first and its own,
    /// seal the same segments at 1, 2 and 4 workers, and the merge equals a
    /// one-batch rebuild of the first occurrences.
    #[test]
    fn apply_dedups_alike_at_any_width() {
        let url = |i: usize| match i % 3 {
            0 => format!("/{i}"),
            1 => format!("/q?i={i}"),
            _ => format!("/x%20{i}"),
        };
        let offer = |i: usize, n: usize| doc("d.sim", &url(i), "t", &format!("w{i} n{n}"), &[]);
        let base: Vec<BatchDoc> = (0..10).map(|i| offer(i, 0)).collect();
        let first: Vec<BatchDoc> = [12, 3, 12, 15, 11].iter().map(|&i| offer(i, 1)).collect();
        let second: Vec<BatchDoc> = [15, 9, 16, 11, 16, 17, 0]
            .iter()
            .map(|&i| offer(i, 2))
            .collect();
        let firsts: Vec<BatchDoc> = [12, 15, 11].iter().map(|&i| offer(i, 1)).collect();
        let thens: Vec<BatchDoc> = [16, 17].iter().map(|&i| offer(i, 2)).collect();
        let want = rebuild(&base, &[firsts, thens].concat());
        for workers in [1, 2, 4] {
            let mut idx = SearchIndex::new();
            idx.add_batch(&ThreadPool::new(workers), base.clone());
            let seg = SegmentedIndex::new(idx);
            assert_eq!(seg.apply(first.clone()), 3, "{workers} workers");
            assert_eq!(seg.apply(second.clone()), 2, "{workers} workers");
            let gen = seg.snapshot();
            let pending: Vec<&str> = (gen.segments().iter())
                .flat_map(|s| s.docs().iter().map(|d| d.text.as_str()))
                .collect();
            assert_eq!(pending, ["w12 n1", "w15 n1", "w11 n1", "w16 n2", "w17 n2"]);
            assert!(first
                .iter()
                .chain(&second)
                .all(|d| gen.contains_url(&d.url)));
            assert_eq!(seg.merge(), 5);
            seg.snapshot()
                .base()
                .assert_same_as(&want, &format!("{workers} workers"));
        }
    }

    #[test]
    fn batched_reads_match_sequential() {
        let (base, delta) = corpus();
        let seg = SegmentedIndex::new(build_base(&base));
        seg.apply(delta);
        let queries: Vec<String> = QUERIES.iter().map(|s| s.to_string()).collect();
        let opts = SearchOptions {
            use_annotations: true,
            ..Default::default()
        };
        let svc = seg.searcher(opts);
        let via_service = SearchService::search_batch(&svc, &queries, 5);
        for (qi, q) in queries.iter().enumerate() {
            let want = seg.snapshot().search(q, 5, opts);
            assert_eq!(via_service[qi], want, "service batch q={q:?}");
            assert_eq!(SearchService::search(&svc, q, 5), want);
        }
    }

    #[test]
    fn snapshot_isolation_spans_apply_and_merge() {
        let (base, delta) = corpus();
        let seg = SegmentedIndex::new(build_base(&base));
        let before = seg.snapshot();
        let opts = SearchOptions::default();
        let q = "honda";
        let old_hits = before.search(q, 10, opts);
        seg.apply(delta);
        // The old snapshot still serves the old corpus.
        assert_eq!(before.search(q, 10, opts), old_hits);
        let pending = seg.snapshot();
        let pending_hits = pending.search(q, 10, opts);
        seg.merge();
        // The pending snapshot keeps serving base+segments after the merge
        // swapped the current generation, and agrees with the merged result.
        assert_eq!(pending.search(q, 10, opts), pending_hits);
        assert_eq!(seg.snapshot().search(q, 10, opts), pending_hits);
        assert_ne!(old_hits, pending_hits, "delta must change this query");
        // Generations share document chunks and dictionary strings, so
        // isolation has to survive a second merge (which appends a chunk to
        // a copy of the store the first one made) and the tier itself going
        // away: the first snapshot still serves its hits and its docs' own
        // strings.
        seg.apply(vec![doc("e.sim", "/9", "honda dealer", "honda", &[])]);
        seg.merge();
        let merged_twice = seg.snapshot();
        drop(seg);
        assert_eq!(before.search(q, 10, opts), old_hits);
        assert_eq!(pending.search(q, 10, opts), pending_hits);
        assert_eq!(before.num_docs(), base.len());
        for (stored, original) in before.base().docs().iter().zip(&base) {
            assert_eq!(
                (&stored.url, &stored.title, &stored.text),
                (&original.url, &original.title, &original.text)
            );
            assert_eq!(stored.annotations, original.annotations);
        }
        assert!(!before.contains_url(&Url::new("c.sim", "/1")));
        assert!(pending.contains_url(&Url::new("c.sim", "/1")));
        assert!(!pending.contains_url(&Url::new("e.sim", "/9")));
        assert!(merged_twice.contains_url(&Url::new("e.sim", "/9")));
        assert_eq!(merged_twice.base().postings().df("honda"), 3);
        assert_eq!(before.base().postings().df("honda"), 1);
    }

    #[test]
    fn empty_and_noop_paths() {
        let (base, _) = corpus();
        let seg = SegmentedIndex::new(build_base(&base));
        assert_eq!(seg.merge(), 0, "nothing pending");
        assert_eq!(seg.apply(Vec::new()), 0);
        assert_eq!(
            seg.apply(vec![doc("a.sim", "/1", "dupe", "dupe", &[])]),
            0,
            "all-duplicate batch publishes nothing"
        );
        assert_eq!(seg.num_segments(), 0);
        let gen = seg.snapshot();
        assert_eq!(gen.pending_docs(), 0);
        assert!(gen.contains_url(&Url::new("a.sim", "/1")));
        assert!(!gen.contains_url(&Url::new("a.sim", "/nope")));
    }
}
