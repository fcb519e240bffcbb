//! Stored documents: everything the serving layer needs to render a hit.
//!
//! The store is append-only and its documents never change, so it keeps them
//! as a list of shared chunks of any length, each behind `Arc`: a batch
//! enters as one chunk, moved in whole, and a copy of the store shares every
//! chunk. That is what lets the freshness tier's merge (DESIGN.md §15) hand
//! the next base the sealed base's documents and each pending segment's,
//! instead of a copy of their text.

use crate::searcher::ANNOTATION_BOOST;
use crate::view::next_id;
use deepweb_common::ids::{DocId, FacetKeyId, SiteId, TermId};
use deepweb_common::Url;
use std::sync::Arc;

/// How a document entered the index (the paper's key distinction: surfaced
/// deep-web pages are served "like any other page" but we must attribute
/// impact back to forms, §3.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DocKind {
    /// An ordinary surface-web page.
    Surface,
    /// A page surfaced from a deep-web form submission.
    Surfaced,
    /// A detail page reached by following links from surfaced pages.
    Discovered,
}

/// A structured annotation attached to a surfaced page (paper §5.1): the
/// input values that generated the page, e.g. `("make", "honda")`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Annotation {
    /// Facet name.
    pub key: String,
    /// Facet value, as surfaced (display form; matching runs on the
    /// analysed tokens the index keeps in its [`AnnotationColumn`]).
    pub value: String,
}

/// One annotation in an [`AnnotationColumn`]: its facet key and where its
/// analysed value tokens sit in the column's token array.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ColumnEntry {
    key: FacetKeyId,
    lo: u32,
    hi: u32,
}

/// The interned form of every document's annotations, computed once at
/// index time and kept flat beside the doc lengths: per annotation, the
/// facet key as a [`FacetKeyId`] and the value analysed through the shared
/// `text` query pipeline (lowercased, punctuation-split, stopwords dropped —
/// queries drop stopwords, so a value token kept here must be matchable)
/// into global [`TermId`]s. This is what the annotation-aware scoring pass
/// reads for a scored doc (DESIGN.md §12): two offsets, then one
/// `(key, value-token range)` entry per annotation — no pointer into the
/// store of whole documents, no tokenisation, no allocation at serve time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AnnotationColumn {
    /// Doc `d`'s entries are `entries[starts[d]..starts[d + 1]]`; one more
    /// offset than documents.
    starts: Vec<u32>,
    entries: Vec<ColumnEntry>,
    /// Every entry's value tokens, in document then annotation order.
    tokens: Vec<TermId>,
    /// The most boostable entries (1 to 64 value tokens) any document holds.
    max_boostable: usize,
}

impl Default for AnnotationColumn {
    fn default() -> Self {
        AnnotationColumn {
            starts: vec![0],
            entries: Vec::new(),
            tokens: Vec::new(),
            max_boostable: 0,
        }
    }
}

impl AnnotationColumn {
    /// Document `doc`'s annotations in stored order, each as its facet key
    /// and its value tokens (doc ids local to the column's owner); none for
    /// a doc the column does not hold.
    pub fn doc(&self, doc: DocId) -> impl Iterator<Item = (FacetKeyId, &[TermId])> + '_ {
        let bounds = self.starts.get(doc.as_usize()..doc.as_usize() + 2);
        let entries = match bounds {
            Some(&[lo, hi]) => self.entries.get(lo as usize..hi as usize),
            _ => None,
        };
        let tokens = |e: &ColumnEntry| self.tokens.get(e.lo as usize..e.hi as usize);
        (entries.unwrap_or_default().iter()).map(move |e| (e.key, tokens(e).unwrap_or_default()))
    }

    /// Append one annotation to the document being written.
    pub(crate) fn push(&mut self, key: FacetKeyId, terms: &[TermId]) {
        let lo = next_id(self.tokens.len());
        self.tokens.extend_from_slice(terms);
        let hi = next_id(self.tokens.len());
        self.entries.push(ColumnEntry { key, lo, hi });
    }

    /// Close the document being written: its entries are the ones pushed
    /// since the last call.
    pub(crate) fn end_doc(&mut self) {
        let lo = self.starts.last().map_or(0, |&lo| lo as usize);
        let boostable = |e: &&ColumnEntry| (1..=64).contains(&(e.hi - e.lo));
        let n = self.entries.iter().skip(lo).filter(boostable).count();
        self.max_boostable = self.max_boostable.max(n);
        self.starts.push(next_id(self.entries.len()));
    }

    /// Rewrite every key through `keys` and every value token through
    /// `terms` (local id → index id), handing each `(token, key)` pair to
    /// `know` in column order.
    pub(crate) fn remap(
        &mut self,
        keys: &[FacetKeyId],
        terms: &[TermId],
        mut know: impl FnMut(TermId, FacetKeyId),
    ) {
        // The entries' token ranges tile `tokens` in order (`push`).
        let mut tokens = self.tokens.iter_mut();
        for entry in &mut self.entries {
            entry.key = keys.get(entry.key.as_usize()).copied().unwrap_or(entry.key);
            for token in tokens.by_ref().take((entry.hi - entry.lo) as usize) {
                *token = terms.get(token.as_usize()).copied().unwrap_or(*token);
                know(*token, entry.key);
            }
        }
    }

    /// Append every document of `more` after this column's.
    pub(crate) fn append(&mut self, more: &AnnotationColumn) {
        let (at, tokens) = (self.entries.len(), next_id(self.tokens.len()));
        let starts = more.starts.iter().skip(1).map(|&s| s + next_id(at));
        self.starts.extend(starts);
        self.entries.extend_from_slice(&more.entries);
        for entry in self.entries.iter_mut().skip(at) {
            (entry.lo, entry.hi) = (entry.lo + tokens, entry.hi + tokens);
        }
        self.tokens.extend_from_slice(&more.tokens);
        self.max_boostable = self.max_boostable.max(more.max_boostable);
    }

    /// Upper bound on any document's annotation adjustment: one
    /// [`ANNOTATION_BOOST`] per boostable annotation of the one holding most.
    pub(crate) fn boost_bound(&self) -> f64 {
        ANNOTATION_BOOST * self.max_boostable as f64
    }
}

/// One document, from the batch that brings it in to the store that keeps
/// it: surfaced pages enter the index "like any other page" (paper §3.2),
/// so this one record carries every page. A batch is a `Vec` of them (it
/// crosses thread boundaries whole); in the [`DocStore`] a document's id is
/// its position.
#[derive(Clone, Debug)]
pub struct BatchDoc {
    /// Source URL (the dedup key).
    pub url: Url,
    /// Page title.
    pub title: String,
    /// Visible text (what is indexed).
    pub text: String,
    /// Provenance.
    pub kind: DocKind,
    /// Originating deep-web site, if any.
    pub site: Option<SiteId>,
    /// Structured annotations (empty for surface pages).
    pub annotations: Vec<Annotation>,
}

/// Append-only document store: shared chunks, each with the id of its
/// first document. `clone()` shares every chunk (module docs).
#[derive(Default, Clone)]
pub struct DocStore {
    chunks: Vec<(usize, Arc<Vec<BatchDoc>>)>,
}

impl DocStore {
    /// Append `chunk`'s documents, in order: the first gets the next id.
    /// The chunk is shared, not copied.
    pub(crate) fn append(&mut self, chunk: Arc<Vec<BatchDoc>>) {
        if !chunk.is_empty() {
            self.chunks.push((self.len(), chunk));
        }
    }

    /// Document by id (`None` past the last one).
    pub fn get(&self, id: DocId) -> Option<&BatchDoc> {
        let i = id.as_usize();
        let at = self.chunks.partition_point(|&(first, _)| first <= i);
        let (first, chunk) = self.chunks.get(at.checked_sub(1)?)?;
        chunk.get(i - first)
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |(first, chunk)| first + chunk.len())
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Iterate all documents, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &BatchDoc> {
        self.chunks.iter().flat_map(|(_, chunk)| chunk.iter())
    }
}

/// The documents in id order, whatever chunks hold them.
impl std::fmt::Debug for DocStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
impl BatchDoc {
    /// A surface page with no site and no annotations.
    pub(crate) fn page(url: Url, title: &str, text: &str) -> BatchDoc {
        BatchDoc {
            url,
            title: title.into(),
            text: text.into(),
            kind: DocKind::Surface,
            site: None,
            annotations: Vec::new(),
        }
    }

    /// A surfaced page with no site, annotated with `(key, value)` pairs.
    pub(crate) fn surfaced(url: Url, title: &str, text: &str, anns: &[(&str, &str)]) -> BatchDoc {
        let annotation = |&(key, value): &(&str, &str)| Annotation {
            key: key.into(),
            value: value.into(),
        };
        BatchDoc {
            kind: DocKind::Surfaced,
            annotations: anns.iter().map(annotation).collect(),
            ..BatchDoc::page(url, title, text)
        }
    }
}

#[cfg(test)]
impl DocStore {
    /// The chunk holding `id`, with its first document's id.
    pub(crate) fn chunk(&self, id: DocId) -> &(usize, Arc<Vec<BatchDoc>>) {
        let holds = |(first, chunk): &&(usize, Arc<Vec<BatchDoc>>)| {
            (*first..first + chunk.len()).contains(&id.as_usize())
        };
        self.chunks
            .iter()
            .find(holds)
            .expect("an id the store holds")
    }
}

#[cfg(test)]
impl AnnotationColumn {
    /// [`AnnotationColumn::boost_bound`] by brute force: every document's
    /// annotations counted afresh, those of 1 to 64 value tokens kept.
    pub(crate) fn brute_boost_bound(&self) -> f64 {
        let docs = 0..self.starts.len() - 1;
        let per_doc = docs.map(|d| {
            let anns = self.doc(DocId(next_id(d)));
            anns.filter(|(_, v)| (1..=64).contains(&v.len())).count()
        });
        ANNOTATION_BOOST * per_doc.max().unwrap_or(0) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` pages, titled by their position from `from`.
    fn pages(from: usize, n: usize) -> Vec<BatchDoc> {
        let page = |i: usize| {
            let path = format!("/{i}");
            BatchDoc::page(Url::new("x.sim", &*path), &path, "body")
        };
        (from..from + n).map(page).collect()
    }

    /// A store of `sizes` appended batches, pages numbered on.
    fn appended(sizes: &[usize]) -> DocStore {
        let mut ds = DocStore::default();
        for &n in sizes {
            ds.append(Arc::new(pages(ds.len(), n)));
        }
        ds
    }

    /// Any split of the same pages into appended batches (empty ones
    /// included) gives the same `get`, `iter`, `len` and `Debug`; a clone
    /// shares every chunk, and appending to the clone leaves the original
    /// unchanged.
    #[test]
    fn appending_to_a_copy_leaves_the_original_untouched() {
        let splits: [&[usize]; 5] = [&[9], &[1, 8], &[4, 0, 5], &[3, 3, 3], &[0, 1, 1, 7, 0]];
        let want = format!("{:?}", pages(0, 9));
        for sizes in splits {
            let original = appended(sizes);
            assert_eq!(
                (original.len(), original.is_empty()),
                (9, false),
                "{sizes:?}"
            );
            assert_eq!(format!("{original:?}"), want, "{sizes:?}");
            for (i, doc) in original.iter().enumerate() {
                assert_eq!(doc.title, format!("/{i}"), "{sizes:?}");
                assert!(std::ptr::eq(original.get(DocId(next_id(i))).unwrap(), doc));
            }
            let mut copy = original.clone();
            copy.append(Arc::new(pages(9, 3)));
            assert_eq!((original.len(), copy.len()), (9, 12), "{sizes:?}");
            assert_eq!(format!("{original:?}"), want, "{sizes:?}");
            assert_eq!(copy.get(DocId(11)).unwrap().title, "/11");
            for (a, b) in original.iter().zip(copy.iter()) {
                assert!(std::ptr::eq(a, b), "{sizes:?}: a copy shares every chunk");
            }
        }
        assert!(appended(&[0, 0]).is_empty());
    }

    /// The store keeps an annotation as surfaced; its interned form lives
    /// in the column, one `(key, value-token range)` entry per annotation,
    /// documents with none included.
    #[test]
    fn annotations_stored_with_interned_form() {
        let mut ds = DocStore::default();
        let mut column = AnnotationColumn::default();
        ds.append(Arc::new(vec![BatchDoc {
            site: Some(SiteId(3)),
            ..BatchDoc::surfaced(Url::new("x.sim", "/r"), "t", "body", &[("make", "honda")])
        }]));
        let id = DocId(0);
        column.push(FacetKeyId(0), &[TermId(7)]);
        column.end_doc();
        column.end_doc();
        column.push(FacetKeyId(1), &[TermId(2), TermId(9), TermId(2)]);
        column.push(FacetKeyId(0), &[]);
        column.end_doc();
        assert_eq!(ds.get(id).unwrap().annotations[0].value, "honda");
        assert_eq!(ds.get(id).unwrap().site, Some(SiteId(3)));
        let doc = |d: u32| -> Vec<(FacetKeyId, Vec<TermId>)> {
            column.doc(DocId(d)).map(|(k, v)| (k, v.to_vec())).collect()
        };
        assert_eq!(doc(id.0), vec![(FacetKeyId(0), vec![TermId(7)])]);
        assert_eq!(doc(1), vec![]);
        assert_eq!(
            doc(2),
            vec![
                (FacetKeyId(1), vec![TermId(2), TermId(9), TermId(2)]),
                (FacetKeyId(0), vec![])
            ]
        );
        // Two annotations, but the empty value cannot boost.
        assert_eq!(column.boost_bound(), ANNOTATION_BOOST);
        column.push(FacetKeyId(0), &[TermId(7); 65]);
        column.push(FacetKeyId(1), &[TermId(2)]);
        column.push(FacetKeyId(2), &[TermId(9); 64]);
        column.end_doc();
        assert_eq!(column.boost_bound(), 2.0 * ANNOTATION_BOOST);
        assert_eq!(column.boost_bound(), column.brute_boost_bound());
    }
}
