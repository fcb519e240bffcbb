//! Rendered URL → doc id: the dedup map of an index and of the freshness
//! tier's overlay (DESIGN.md §15).

use crate::docstore::BatchDoc;
use crate::view::next_id;
use deepweb_common::ids::DocId;
use deepweb_common::{fxhash64, FxHashMap, ThreadPool, Url};
use std::collections::hash_map::Entry;
use std::fmt::Write;

/// Keyed by the rendered URL's [`fxhash64`], so an entry is `Copy`: a copy
/// of the map (one per merge) is a flat copy, and dropping it frees one
/// table. A hash hit is confirmed against the URL of the doc it names; a
/// URL whose hash an earlier URL holds goes to a small exact spill map.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct UrlMap {
    by_hash: FxHashMap<u64, DocId>,
    spill: FxHashMap<Box<str>, DocId>,
}

/// The fewest URLs one hashing task takes: rendering and hashing fewer
/// costs less than a spawned thread (a freshness-tier `apply` of a few
/// dozen docs stays on the calling thread).
const HASH_RUN: usize = 1024;

/// The hash a [`UrlMap`] files each of `docs`' URLs under, in order: every
/// URL rendered and hashed on `pool`, each worker rendering into one reused
/// buffer — the part of deduplication that costs, taken off the serial
/// path that files the hashes.
pub(crate) fn url_hashes(pool: &ThreadPool, docs: &[BatchDoc]) -> Vec<u64> {
    let run = docs.len().div_ceil(pool.workers()).max(HASH_RUN);
    let runs = pool.map_init(docs.chunks(run).collect(), String::new, |key, _, docs| {
        let hash = |doc: &BatchDoc| {
            key.clear();
            // Writing into a `String` cannot fail.
            let _ = write!(key, "{}", doc.url);
            fxhash64(key.as_str())
        };
        docs.iter().map(hash).collect::<Vec<u64>>()
    });
    runs.concat()
}

/// Deduplicate `batch` into `map` by URL identity, first occurrence wins,
/// returning each entry's id. `hashes` are its URLs' ([`url_hashes`]); in
/// batch order, a URL that `earlier` knows or `map` holds gets that id, and
/// any other the next id from `next` and is filed into `map` — this serial
/// pass only probes and files hashes. The fresh documents stay in `batch`,
/// in order. `filed` resolves an id below `next` that `map` holds to its
/// doc's URL.
pub(crate) fn dedup<'a>(
    batch: &mut Vec<BatchDoc>,
    hashes: &[u64],
    map: &mut UrlMap,
    next: usize,
    earlier: impl Fn(u64, &Url) -> Option<DocId>,
    filed: impl Fn(DocId) -> &'a Url,
) -> Vec<DocId> {
    map.by_hash.reserve(batch.len());
    let mut ids = Vec::with_capacity(batch.len());
    // The batch position of each fresh document, in id order.
    let mut fresh: Vec<usize> = Vec::new();
    for (i, (doc, &hash)) in batch.iter().zip(hashes).enumerate() {
        let url_of = |id: DocId| match id.as_usize().checked_sub(next) {
            Some(f) => &batch[fresh[f]].url,
            None => filed(id),
        };
        if let Some(id) = earlier(hash, &doc.url).or_else(|| map.find(hash, &doc.url, url_of)) {
            ids.push(id);
            continue;
        }
        let id = DocId(next_id(next + fresh.len()));
        map.file(hash, &doc.url, id);
        ids.push(id);
        fresh.push(i);
    }
    let (mut fresh, mut at) = (fresh.into_iter().peekable(), 0);
    batch.retain(|_| {
        at += 1;
        fresh.next_if_eq(&(at - 1)).is_some()
    });
    ids
}

impl UrlMap {
    /// The id of `url`, whose rendered form hashes to `hash`
    /// ([`url_hashes`]); `url_of` resolves an indexed id to its doc's URL.
    /// Only a hash hit renders anything, and only when the doc it names has
    /// another URL.
    pub(crate) fn find<'a>(
        &self,
        hash: u64,
        url: &Url,
        url_of: impl FnOnce(DocId) -> &'a Url,
    ) -> Option<DocId> {
        let &id = self.by_hash.get(&hash)?;
        let filed = url_of(id);
        if filed == url {
            return Some(id);
        }
        let key = url.key();
        if filed.key() == key {
            return Some(id);
        }
        self.spill.get(key.as_str()).copied()
    }

    /// Index `url` (this map does not hold it), whose rendered form hashes
    /// to `hash`, as `id`. Rendered only when an earlier URL holds the hash.
    pub(crate) fn file(&mut self, hash: u64, url: &Url, id: DocId) {
        if let Entry::Vacant(slot) = self.by_hash.entry(hash) {
            slot.insert(id);
        } else {
            self.spill.insert(url.key().into(), id);
        }
    }

    /// Take in `later`, the map of docs after all of this one's, as if each
    /// of its URLs were inserted here in id order. Only a URL whose hash this
    /// map holds already is rendered again (`url` resolves a doc of `later`).
    pub(crate) fn absorb<'a>(&mut self, later: &UrlMap, url: impl Fn(DocId) -> &'a Url) {
        for (&hash, &id) in &later.by_hash {
            if let Entry::Vacant(slot) = self.by_hash.entry(hash) {
                slot.insert(id);
            } else {
                self.spill.insert(url(id).key().into(), id);
            }
        }
        self.spill
            .extend(later.spill.iter().map(|(key, &id)| (key.clone(), id)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three URLs forced onto one hash: the first two indexed resolve to
    /// their own ids (one through the spill map), the third is absent, and
    /// a clone compares equal.
    #[test]
    fn colliding_urls_resolve_exactly() {
        let urls = [
            Url::new("a.sim", "/1"),
            Url::new("a.sim", "/2").with_param("q", "x y"),
            Url::new("b.sim", "/3"),
        ];
        let url_of = |id: DocId| &urls[id.as_usize()];
        let mut map = UrlMap::default();
        map.file(7, &urls[0], DocId(0));
        map.file(7, &urls[1], DocId(1));
        assert_eq!(map.spill.len(), 1);
        assert_eq!(map.find(7, &urls[0], url_of), Some(DocId(0)));
        assert_eq!(map.find(7, &urls[1], url_of), Some(DocId(1)));
        assert_eq!(map.find(7, &urls[2], url_of), None);
        let hash = fxhash64(urls[0].key().as_str());
        assert_eq!(
            map.find(hash, &urls[0], url_of),
            None,
            "filed under hash 7 only"
        );
        assert_eq!(map.clone(), map);
    }

    /// [`url_hashes`] at any width, over more URLs than a task takes, is
    /// `fxhash64` of each rendered URL, in order — the hash a rendered URL
    /// is looked up by.
    #[test]
    fn url_hashes_are_the_hashes_of_the_rendered_urls() {
        let docs: Vec<BatchDoc> = (0..2 * HASH_RUN + 9)
            .map(|i| {
                let url = Url::new("a.sim", format!("/{i}")).with_param("q", "x y&z");
                BatchDoc::page(url, "t", "x")
            })
            .collect();
        let want: Vec<u64> = docs
            .iter()
            .map(|d| fxhash64(d.url.key().as_str()))
            .collect();
        for workers in [1, 2, 4] {
            assert_eq!(url_hashes(&ThreadPool::new(workers), &docs), want);
        }
        assert!(url_hashes(&ThreadPool::new(2), &[]).is_empty());
    }

    /// The dedup's serial pass under forced hashes — every URL on one of
    /// two, so nearly every probe is a hash hit and every other URL spills —
    /// gives what deduplicating the rendered URLs gives: first occurrence
    /// wins over earlier ids (a map of its own, as the freshness tier's
    /// base is, or none), over the ids already in the map and within the
    /// batch; the fresh documents stay in order; each URL then resolves to
    /// its id under its forced hash.
    #[test]
    fn dedup_under_forced_collisions_equals_deduplicating_rendered_urls() {
        let url = |i: usize| match i % 3 {
            0 => Url::new("a.sim", format!("/{i}")),
            1 => Url::new("a.sim", "/p").with_param("q", format!("x {i}")),
            _ => Url::new(format!("h{i}.sim"), "/"),
        };
        let forced = |u: &Url| 7 + fxhash64(u.key().as_str()) % 2;
        let docs: Vec<BatchDoc> = (0..12).map(|i| BatchDoc::page(url(i), "t", "x")).collect();
        // Ids 0..4 in `earlier`, 4..8 already filed in `map`.
        let (mut earlier, mut map) = (UrlMap::default(), UrlMap::default());
        for (i, doc) in docs[..8].iter().enumerate() {
            let into = if i < 4 { &mut earlier } else { &mut map };
            into.file(forced(&doc.url), &doc.url, DocId(i as u32));
        }
        let picks = [9, 2, 9, 5, 10, 0, 8, 10, 11, 7, 8, 9];
        let batch: Vec<BatchDoc> = picks.iter().map(|&i| docs[i].clone()).collect();
        let hashes: Vec<u64> = batch.iter().map(|d| forced(&d.url)).collect();
        for with_earlier in [true, false] {
            let mut model: FxHashMap<String, DocId> = FxHashMap::default();
            let known = if with_earlier { 0..8 } else { 4..8 };
            for i in known {
                model.insert(docs[i].url.key(), DocId(i as u32));
            }
            let mut want_fresh = Vec::new();
            let want: Vec<DocId> = batch
                .iter()
                .map(|d| {
                    let next = DocId(8 + want_fresh.len() as u32);
                    *model.entry(d.url.key()).or_insert_with(|| {
                        want_fresh.push(d.url.clone());
                        next
                    })
                })
                .collect();
            let (mut got, mut into) = (batch.clone(), map.clone());
            let known = |hash, u: &Url| {
                let first = |id: DocId| &docs[id.as_usize()].url;
                with_earlier.then(|| earlier.find(hash, u, first)).flatten()
            };
            let filed = |id: DocId| &docs[id.as_usize()].url;
            let ids = dedup(&mut got, &hashes, &mut into, 8, known, filed);
            assert_eq!(ids, want, "earlier: {with_earlier}");
            let fresh: Vec<Url> = got.iter().map(|d| d.url.clone()).collect();
            assert_eq!(fresh, want_fresh, "earlier: {with_earlier}");
            let all: Vec<&Url> = docs[..8].iter().map(|d| &d.url).chain(&fresh).collect();
            for (doc, &id) in batch.iter().zip(&ids) {
                let hit = into.find(forced(&doc.url), &doc.url, |id| all[id.as_usize()]);
                let hit = hit.or_else(|| known(forced(&doc.url), &doc.url));
                assert_eq!(hit, Some(id), "earlier: {with_earlier}");
            }
            assert!(into.spill.len() >= 4, "earlier: {with_earlier}");
        }
    }

    /// A map taking in a later one equals the map every URL was filed into
    /// in id order: a later URL colliding with an earlier one spills, two
    /// colliding later URLs keep their own order, a free hash stays put.
    #[test]
    fn absorbing_a_later_map_equals_filing_in_id_order() {
        let urls: Vec<Url> = (0..5).map(|i| Url::new("a.sim", format!("/{i}"))).collect();
        let url_of = |id: DocId| &urls[id.as_usize()];
        let hashes = [7, 8, 7, 9, 9];
        let mut want = UrlMap::default();
        for (i, &hash) in hashes.iter().enumerate() {
            want.file(hash, &urls[i], DocId(i as u32));
        }
        let (mut earlier, mut later) = (UrlMap::default(), UrlMap::default());
        for (i, &hash) in hashes.iter().enumerate() {
            let map = if i < 2 { &mut earlier } else { &mut later };
            map.file(hash, &urls[i], DocId(i as u32));
        }
        earlier.absorb(&later, url_of);
        assert_eq!(earlier, want);
        assert_eq!(want.spill.len(), 2);
    }
}
