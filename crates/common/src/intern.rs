//! String interning.
//!
//! The index holds millions of repeated strings (terms, facet keys).
//! Interning turns them into `u32` ids: smaller postings, faster hashing,
//! and cheap equality.
//!
//! Each term's text is one shared `Arc<str>` — the map key and the id → text
//! entry are the same allocation — so a copy of the dictionary (the
//! freshness tier makes one per merge, DESIGN.md §15) bumps a reference
//! count per term and allocates no string.

use crate::fxhash::FxHashMap;
use crate::ids::TermId;
use std::sync::Arc;

/// The index's term dictionary: an append-only map from term text to a dense
/// [`TermId`], plus a sorted-dictionary view for whole-dictionary reads.
///
/// This is the one place term strings are stored; everything downstream of it
/// (postings lists, shard routing, the query kernel) keys by `TermId`, so the
/// serving hot path hashes a query term exactly once and then works with
/// `u32` indices. Ids are assigned in first-appearance order, which is what
/// makes the parallel index build's id remapping deterministic (absorbing
/// doc-range shards in range order replays the sequential interning order —
/// DESIGN.md §10).
#[derive(Default, Clone, Debug)]
pub struct TermDict {
    by_name: FxHashMap<Arc<str>, TermId>,
    names: Vec<Arc<str>>,
}

impl TermDict {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `term`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.by_name.get(term) {
            return id;
        }
        let id = TermId(self.names.len() as u32);
        let name: Arc<str> = Arc::from(term);
        self.names.push(Arc::clone(&name));
        self.by_name.insert(name, id);
        id
    }

    /// Look up a term without interning.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.by_name.get(term).copied()
    }

    /// Resolve an id back to its term text.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    pub fn resolve(&self, id: TermId) -> &str {
        &self.names[id.as_usize()]
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(TermId, term)` pairs in id (first-appearance) order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (TermId(i as u32), &**s))
    }

    /// The sorted-dictionary view: `(TermId, term)` pairs in lexicographic
    /// term order — the shard-count- and interning-order-independent sequence
    /// whole-dictionary scans iterate.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (TermId, &str)> {
        let mut ids: Vec<u32> = (0..self.names.len() as u32).collect();
        ids.sort_unstable_by_key(|&i| &*self.names[i as usize]);
        ids.into_iter()
            .map(|i| (TermId(i), &*self.names[i as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn termdict_roundtrip_and_idempotence() {
        let mut d = TermDict::new();
        let a = d.intern("honda");
        let b = d.intern("honda");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
        assert_eq!(d.resolve(a), "honda");
        assert_eq!(d.get("honda"), Some(a));
        assert!(d.get("ford").is_none());
    }

    #[test]
    fn a_copy_shares_every_term_allocation_and_stays_independent() {
        let mut d = TermDict::new();
        let honda = d.intern("honda");
        let mut copy = d.clone();
        assert!(std::ptr::eq(d.resolve(honda), copy.resolve(honda)));
        let ford = copy.intern("ford");
        assert_eq!(copy.resolve(ford), "ford");
        assert_eq!((d.len(), d.get("ford")), (1, None));
    }

    #[test]
    fn termdict_ids_are_first_appearance_order() {
        let mut d = TermDict::new();
        assert_eq!(d.intern("zebra"), TermId(0));
        assert_eq!(d.intern("apple"), TermId(1));
        assert_eq!(d.intern("zebra"), TermId(0));
        let in_id_order: Vec<&str> = d.iter().map(|(_, t)| t).collect();
        assert_eq!(in_id_order, vec!["zebra", "apple"]);
    }

    #[test]
    fn termdict_sorted_view_is_lexicographic() {
        let mut d = TermDict::new();
        for t in ["zip", "accord", "ford", "civic"] {
            d.intern(t);
        }
        let sorted: Vec<&str> = d.iter_sorted().map(|(_, t)| t).collect();
        assert_eq!(sorted, vec!["accord", "civic", "ford", "zip"]);
        // Ids in the sorted view still resolve to the right strings.
        for (id, t) in d.iter_sorted() {
            assert_eq!(d.resolve(id), t);
        }
        assert_eq!(TermDict::new().iter_sorted().count(), 0);
    }
}
