//! Rendered URL → doc id: the dedup map of an index and of the freshness
//! tier's overlay (DESIGN.md §15), split into [`PARTS`] tables so [`dedup`]
//! files a batch table by table, each small enough to stay in cache.

use crate::docstore::BatchDoc;
use crate::view::next_id;
use deepweb_common::ids::DocId;
use deepweb_common::{fxhash64, FxHashMap, ThreadPool, Url};
use std::collections::hash_map::Entry;

/// Tables a [`UrlMap`] is split into, chosen by a hash's top bits.
const PARTS: usize = 64;

/// The table of `hash`: its top `log2(PARTS)` bits.
fn part(hash: u64) -> usize {
    (hash >> (64 - PARTS.trailing_zeros())) as usize
}

/// Keyed by the rendered URL's [`url_hash`], so an entry is `Copy`: a copy
/// of the map (one per merge) is a flat copy of its tables. A hash hit is
/// confirmed against the URL of the doc it names; a URL whose hash an
/// earlier URL holds goes to a small exact spill map.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct UrlMap {
    by_hash: Vec<FxHashMap<u64, DocId>>,
    spill: FxHashMap<Box<str>, DocId>,
}

impl Default for UrlMap {
    fn default() -> Self {
        let (by_hash, spill) = (vec![FxHashMap::default(); PARTS], FxHashMap::default());
        UrlMap { by_hash, spill }
    }
}

/// The fewest URLs one hashing task takes: rendering and hashing fewer
/// costs less than a spawned thread (a freshness-tier `apply` of a few
/// dozen docs stays on the calling thread).
const HASH_RUN: usize = 1024;

/// The hash a [`UrlMap`] files `url` under: `fxhash64` of its rendered
/// form, written into `key`, a buffer the caller reuses.
pub(crate) fn url_hash(url: &Url, key: &mut String) -> u64 {
    key.clear();
    url.write_key(key);
    fxhash64(key.as_str())
}

/// [`url_hash`] of each of `docs`' URLs, in order, on `pool`: each worker
/// renders into one reused buffer — the part of deduplication that costs,
/// taken off the path that files the hashes.
pub(crate) fn url_hashes(pool: &ThreadPool, docs: &[BatchDoc]) -> Vec<u64> {
    let run = docs.len().div_ceil(pool.workers()).max(HASH_RUN);
    let runs: Vec<Vec<u64>> =
        pool.map_init(docs.chunks(run).collect(), String::new, |key, _, docs| {
            docs.iter().map(|doc| url_hash(&doc.url, key)).collect()
        });
    runs.concat()
}

/// Deduplicate `batch` into `map` by URL identity, first occurrence wins,
/// returning each entry's id. `hashes` are its URLs' ([`url_hashes`]); a
/// URL that `earlier` knows or `map` holds gets that id, any other the next
/// id from `next` in batch order, filed into `map`. The fresh docs stay in
/// `batch` and their hashes in `hashes`, in order. `filed` resolves an id
/// below `next` that `map` holds to its doc's URL. Positions are probed and
/// filed table by table, each table's in batch order while it stays in
/// cache, a fresh URL under `next` plus its position; one prefix count then
/// numbers the fresh docs, re-filing each one a dropped URL moved down.
pub(crate) fn dedup<'a>(
    batch: &mut Vec<BatchDoc>,
    hashes: &mut Vec<u64>,
    map: &mut UrlMap,
    next: usize,
    earlier: impl Fn(u64, &Url) -> Option<DocId>,
    filed: impl Fn(DocId) -> Option<&'a Url>,
) -> Vec<DocId> {
    let mut groups = vec![Vec::new(); PARTS];
    for (i, (doc, &hash)) in batch.iter().zip(&*hashes).enumerate() {
        if let Some(group) = groups.get_mut(part(hash)) {
            group.push((i, hash, &doc.url));
        }
    }
    for (group, table) in groups.iter().zip(&mut map.by_hash) {
        table.reserve(group.len());
    }
    let url_of = |id: DocId| match id.as_usize().checked_sub(next) {
        Some(at) => batch.get(at).map(|doc| &doc.url),
        None => filed(id),
    };
    let mut staged = vec![DocId(0); batch.len()];
    for &(i, hash, url) in groups.iter().flatten() {
        let known = earlier(hash, url).or_else(|| map.find(hash, url, url_of));
        let id = known.unwrap_or(DocId(next_id(next + i)));
        if known.is_none() {
            map.file(hash, url, id);
        }
        if let Some(slot) = staged.get_mut(i) {
            *slot = id;
        }
    }
    // A fresh doc takes the next number; a repeat its first occurrence's.
    let (mut ids, mut keep) = (
        Vec::with_capacity(batch.len()),
        Vec::with_capacity(batch.len()),
    );
    let mut fresh = 0;
    for (i, ((&id, &hash), doc)) in staged.iter().zip(&*hashes).zip(&*batch).enumerate() {
        let first = id.as_usize().checked_sub(next);
        ids.push(match first {
            None => id,
            Some(first) if first == i => {
                let number = DocId(next_id(next + fresh));
                if number != id {
                    map.refile(hash, &doc.url, id, number);
                }
                fresh += 1;
                number
            }
            Some(first) => ids.get(first).copied().unwrap_or(id),
        });
        keep.push(first == Some(i));
    }
    let mut kept = keep.iter();
    batch.retain(|_| kept.next() == Some(&true));
    let mut kept = keep.iter();
    hashes.retain(|_| kept.next() == Some(&true));
    // The batch becomes a docstore chunk: it keeps no slack.
    batch.shrink_to_fit();
    ids
}

impl UrlMap {
    /// The id of `url`, whose rendered form hashes to `hash`
    /// ([`url_hash`]); `url_of` resolves an indexed id to its doc's URL.
    /// Only a hash hit renders anything, and only when the doc it names has
    /// another URL.
    pub(crate) fn find<'a>(
        &self,
        hash: u64,
        url: &Url,
        url_of: impl FnOnce(DocId) -> Option<&'a Url>,
    ) -> Option<DocId> {
        let &id = self.by_hash.get(part(hash))?.get(&hash)?;
        let filed = url_of(id);
        if filed == Some(url) {
            return Some(id);
        }
        let key = url.key();
        if filed.is_some_and(|filed| filed.key() == key) {
            return Some(id);
        }
        self.spill.get(key.as_str()).copied()
    }

    /// Index `url` (this map does not hold it), whose rendered form hashes
    /// to `hash`, as `id`. Rendered only when an earlier URL holds the hash.
    pub(crate) fn file(&mut self, hash: u64, url: &Url, id: DocId) {
        let Some(table) = self.by_hash.get_mut(part(hash)) else {
            return;
        };
        if let Entry::Vacant(slot) = table.entry(hash) {
            slot.insert(id);
        } else {
            self.spill.insert(url.key().into(), id);
        }
    }

    /// Index `url`, filed under `hash` as `staged`, as `id` instead.
    /// Rendered only when it went to the spill map.
    fn refile(&mut self, hash: u64, url: &Url, staged: DocId, id: DocId) {
        let table = self.by_hash.get_mut(part(hash));
        match table.and_then(|table| table.get_mut(&hash)) {
            Some(slot) if *slot == staged => *slot = id,
            _ => {
                if let Some(slot) = self.spill.get_mut(url.key().as_str()) {
                    *slot = id;
                }
            }
        }
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
        let url_of = |id: DocId| urls.get(id.as_usize());
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
    /// `fxhash64` of each URL's `Display` spelling, in order — the hash a
    /// rendered URL is looked up by.
    #[test]
    fn url_hashes_are_the_hashes_of_the_rendered_urls() {
        let docs: Vec<BatchDoc> = (0..2 * HASH_RUN + 9)
            .map(|i| {
                let url = Url::new("a.sim", format!("/{i}")).with_param("q", "x y&z");
                BatchDoc::page(url, "t", "x")
            })
            .collect();
        let want: Vec<u64> = docs.iter().map(|d| fxhash64(&d.url.to_string())).collect();
        for workers in [1, 2, 4] {
            assert_eq!(url_hashes(&ThreadPool::new(workers), &docs), want);
        }
        assert!(url_hashes(&ThreadPool::new(2), &[]).is_empty());
    }

    /// The dedup against a model that deduplicates rendered URLs, first
    /// occurrence wins: repeats inside the batch, hits on ids `earlier`
    /// knows (a map of its own, as the freshness tier's base is, or none)
    /// and on ids already in `map`. First under hashes forced into two
    /// tables, four per table, so URLs collide inside each table and the
    /// two tables share low bits; then under the real hashes, rendered at
    /// 1, 2 and 4 workers. The fresh documents and their hashes stay in
    /// order, every URL resolves to its id, and `map` is what filing each
    /// fresh URL in batch order makes.
    #[test]
    fn dedup_equals_deduplicating_rendered_urls() {
        let url = |i: usize| match i % 3 {
            0 => Url::new("a.sim", format!("/{i}")),
            1 => Url::new("a.sim", "/p").with_param("q", format!("x {i}")),
            _ => Url::new(format!("h{i}.sim"), "/"),
        };
        let docs: Vec<BatchDoc> = (0..24).map(|i| BatchDoc::page(url(i), "t", "x")).collect();
        let real = |u: &Url| fxhash64(&u.to_string());
        let forced = |u: &Url| ((real(u) % 2 * 63) << 58) | ((real(u) >> 8) & 3);
        assert_eq!(part(forced(&docs[0].url)) % 63, 0);
        let picks = [
            9, 2, 9, 5, 10, 0, 8, 10, 11, 7, 8, 9, 20, 17, 23, 20, 14, 13, 17, 22,
        ];
        let batch: Vec<BatchDoc> = picks.iter().map(|&i| docs[i].clone()).collect();
        for workers in [0, 1, 2, 4] {
            let hash = |u: &Url| if workers == 0 { forced(u) } else { real(u) };
            // Ids 0..4 in `earlier`, 4..8 already filed in `map`.
            let (mut earlier, mut map) = (UrlMap::default(), UrlMap::default());
            for (i, doc) in docs[..8].iter().enumerate() {
                let into = if i < 4 { &mut earlier } else { &mut map };
                into.file(hash(&doc.url), &doc.url, DocId(i as u32));
            }
            let hashes: Vec<u64> = match workers {
                0 => batch.iter().map(|d| forced(&d.url)).collect(),
                _ => url_hashes(&ThreadPool::new(workers), &batch),
            };
            for with_earlier in [true, false] {
                let ctx = format!("workers {workers}, earlier: {with_earlier}");
                let mut model: FxHashMap<String, DocId> = FxHashMap::default();
                let known = if with_earlier { 0..8 } else { 4..8 };
                for i in known {
                    model.insert(docs[i].url.to_string(), DocId(i as u32));
                }
                let (mut want_fresh, mut want_map) = (Vec::new(), map.clone());
                let want: Vec<DocId> = (batch.iter())
                    .map(|d| {
                        let next = DocId(8 + want_fresh.len() as u32);
                        *model.entry(d.url.to_string()).or_insert_with(|| {
                            want_map.file(hash(&d.url), &d.url, next);
                            want_fresh.push(d.url.clone());
                            next
                        })
                    })
                    .collect();
                let (mut got, mut into) = (batch.clone(), map.clone());
                let known = |hash, u: &Url| {
                    let first = |id: DocId| docs.get(id.as_usize()).map(|d| &d.url);
                    with_earlier.then(|| earlier.find(hash, u, first)).flatten()
                };
                let filed = |id: DocId| docs.get(id.as_usize()).map(|d| &d.url);
                let mut kept = hashes.clone();
                let ids = dedup(&mut got, &mut kept, &mut into, 8, known, filed);
                assert_eq!(ids, want, "{ctx}");
                let fresh: Vec<Url> = got.iter().map(|d| d.url.clone()).collect();
                assert_eq!(fresh, want_fresh, "{ctx}");
                let fresh_hashes: Vec<u64> = fresh.iter().map(hash).collect();
                assert_eq!(kept, fresh_hashes, "{ctx}: the fresh docs' hashes stay");
                assert_eq!(into, want_map, "{ctx}");
                let all: Vec<&Url> = docs[..8].iter().map(|d| &d.url).chain(&fresh).collect();
                for (doc, &id) in batch.iter().zip(&ids) {
                    let hit = into.find(hash(&doc.url), &doc.url, |id| {
                        all.get(id.as_usize()).copied()
                    });
                    let hit = hit.or_else(|| known(hash(&doc.url), &doc.url));
                    assert_eq!(hit, Some(id), "{ctx}");
                }
                if workers == 0 {
                    assert!(into.spill.len() >= 4, "{ctx}: URLs collide");
                }
            }
        }
    }
}
