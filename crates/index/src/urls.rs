//! Rendered URL → doc id: the dedup map of an index and of the freshness
//! tier's overlay (DESIGN.md §15).

use deepweb_common::ids::DocId;
use deepweb_common::{fxhash64, FxHashMap, Url};
use std::collections::hash_map::Entry;

/// Keyed by the rendered URL's [`fxhash64`], so an entry is `Copy`: a copy
/// of the map (one per merge) is a flat copy, and dropping it frees one
/// table. A hash hit is confirmed against the URL of the doc it names; a
/// URL whose hash an earlier URL holds goes to a small exact spill map.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct UrlMap {
    by_hash: FxHashMap<u64, DocId>,
    spill: FxHashMap<Box<str>, DocId>,
}

impl UrlMap {
    /// The id of `key` (a rendered URL); `url` resolves an indexed id to its
    /// doc's URL.
    pub(crate) fn get<'a>(&self, key: &str, url: impl FnOnce(DocId) -> &'a Url) -> Option<DocId> {
        self.find(fxhash64(key), key, url)
    }

    /// [`UrlMap::get`] of a URL whose hash is `hash`.
    fn find<'a>(&self, hash: u64, key: &str, url: impl FnOnce(DocId) -> &'a Url) -> Option<DocId> {
        let &id = self.by_hash.get(&hash)?;
        if url(id).key() == key {
            return Some(id);
        }
        self.spill.get(key).copied()
    }

    /// Index `key` (a rendered URL this map does not hold) as `id`.
    pub(crate) fn insert(&mut self, key: &str, id: DocId) {
        self.file(fxhash64(key), key, id);
    }

    /// [`UrlMap::insert`] of a URL whose hash is `hash`.
    fn file(&mut self, hash: u64, key: &str, id: DocId) {
        if let Entry::Vacant(slot) = self.by_hash.entry(hash) {
            slot.insert(id);
        } else {
            self.spill.insert(key.into(), id);
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
        let key = |i: usize| urls[i].key();
        let mut map = UrlMap::default();
        map.file(7, &key(0), DocId(0));
        map.file(7, &key(1), DocId(1));
        assert_eq!(map.spill.len(), 1);
        assert_eq!(map.find(7, &key(0), url_of), Some(DocId(0)));
        assert_eq!(map.find(7, &key(1), url_of), Some(DocId(1)));
        assert_eq!(map.find(7, &key(2), url_of), None);
        assert_eq!(map.get(&key(0), url_of), None, "filed under hash 7 only");
        assert_eq!(map.clone(), map);
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
            want.file(hash, &urls[i].key(), DocId(i as u32));
        }
        let (mut earlier, mut later) = (UrlMap::default(), UrlMap::default());
        for (i, &hash) in hashes.iter().enumerate() {
            let map = if i < 2 { &mut earlier } else { &mut later };
            map.file(hash, &urls[i].key(), DocId(i as u32));
        }
        earlier.absorb(&later, url_of);
        assert_eq!(earlier, want);
        assert_eq!(want.spill.len(), 2);
    }
}
