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
///
/// The table is its own: open addressing over the ids, so a term is found
/// or filed by one probe sequence under one hash, and the index build's
/// [`TermDict::intern_lowercase`] computes that hash while it lowercases a
/// raw token, without writing the lowercase form anywhere unless the term is
/// new. A term of at most eight bytes is one hashed word, and the hash of
/// one word is a bijection of it, so such a term is told apart from every
/// other by its hash and length alone: its probe never reads a string.
#[derive(Default, Clone)]
pub struct TermDict {
    /// Linear probing over a power-of-two table at most half full (empty
    /// until the first term).
    slots: Vec<Slot>,
    names: Vec<Arc<str>>,
}

/// One place of the table: free (`id == 0`) or a term's.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// The term's `term_hash`.
    hash: u64,
    /// The term's id + 1.
    id: u32,
    /// The term's length in bytes.
    len: u32,
}

/// The longest term whose hash and length alone identify it: its bytes
/// are its one word (with their count, when fewer than eight), which the
/// Fx mix maps one to one.
const ONE_WORD: usize = 8;

impl std::fmt::Debug for TermDict {
    /// The terms in id order: two dictionaries that interned the same terms
    /// in the same order print the same, whatever their table's history.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TermDict")
            .field("names", &self.names)
            .finish()
    }
}

/// The multiplier of [`crate::fxhash::FxHasher`]'s mix.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// A byte repeated in every lane of a word.
const LANES: u64 = 0x0101_0101_0101_0101;

/// `word` with every ASCII uppercase byte lowercased and every other byte
/// as it is, eight lanes at once.
#[inline]
fn lower_word(word: u64) -> u64 {
    let low7 = word & (0x7f * LANES);
    let from_a = low7 + (0x80 - u64::from(b'A')) * LANES;
    let past_z = low7 + (0x80 - u64::from(b'Z') - 1) * LANES;
    let upper = from_a & !past_z & !word & (0x80 * LANES);
    word | (upper >> 2)
}

/// The little-endian word of `rest` (at most 7 bytes): zero-padded, its
/// length in the top byte.
#[inline]
fn tail_word(rest: &[u8]) -> u64 {
    let bytes = rest.iter().enumerate();
    bytes.fold((rest.len() as u64) << 56, |word, (i, &b)| {
        word | u64::from(b) << (8 * i)
    })
}

/// The table's hash of `bytes` with `fold` applied to each of its words —
/// each full 8 bytes little-endian, then the [`tail_word`] of the rest —
/// mixed as [`crate::fxhash::FxHasher`] mixes them.
#[inline]
fn term_hash(bytes: &[u8], fold: impl Fn(u64) -> u64) -> u64 {
    let mix = |hash: u64, word: u64| (hash.rotate_left(5) ^ fold(word)).wrapping_mul(SEED);
    let mut chunks = bytes.chunks_exact(8);
    let mut hash = 0;
    for chunk in &mut chunks {
        hash = mix(hash, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    match chunks.remainder() {
        [] => hash,
        rest => mix(hash, tail_word(rest)),
    }
}

/// The first slot a probe for `hash` tries in a table of `len` slots (a
/// power of two): the hash's top bits, the best mixed of the Fx product.
#[inline]
fn home(hash: u64, len: usize) -> usize {
    (hash >> (64 - len.trailing_zeros())) as usize
}

impl TermDict {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `term`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, term: &str) -> TermId {
        let hash = term_hash(term.as_bytes(), |word| word);
        match self.find(hash, term.len(), |name| name == term) {
            Ok(id) => id,
            Err(slot) => self.file(slot, hash, Arc::from(term)),
        }
    }

    /// Intern the ASCII-lowercase form of `raw` — what `intern` of
    /// `raw.to_ascii_lowercase()` returns — with its hash computed as the
    /// bytes are lowercased and one probe sequence under it. Only a new
    /// term is written out (into the dictionary's own string).
    pub fn intern_lowercase(&mut self, raw: &str) -> TermId {
        let hash = term_hash(raw.as_bytes(), lower_word);
        let lowers = |name: &str| {
            let mut pairs = name.bytes().zip(raw.bytes());
            pairs.all(|(n, r)| n == r.to_ascii_lowercase())
        };
        match self.find(hash, raw.len(), lowers) {
            Ok(id) => id,
            Err(slot) => self.file(slot, hash, Arc::from(raw.to_ascii_lowercase())),
        }
    }

    /// Look up a term without interning.
    pub fn get(&self, term: &str) -> Option<TermId> {
        let hash = term_hash(term.as_bytes(), |word| word);
        self.find(hash, term.len(), |name| name == term).ok()
    }

    /// The id of the term of `len` bytes hashing to `hash` that `is`
    /// accepts (asked only of a term of `len` bytes longer than
    /// [`ONE_WORD`]), or else the free slot its probe sequence ended at
    /// (none in an empty table).
    #[inline]
    fn find(&self, hash: u64, len: usize, is: impl Fn(&str) -> bool) -> Result<TermId, usize> {
        let Some(mask) = self.slots.len().checked_sub(1) else {
            return Err(0);
        };
        let mut at = home(hash, self.slots.len());
        loop {
            let slot = self.slots[at];
            if slot.id == 0 {
                return Err(at);
            }
            let id = slot.id - 1;
            if slot.hash == hash
                && slot.len as usize == len
                && (len <= ONE_WORD || is(&self.names[id as usize]))
            {
                return Ok(TermId(id));
            }
            at = (at + 1) & mask;
        }
    }

    /// Assign the next id to `name`, a term absent from the table whose
    /// probe sequence under `hash` ended at free slot `at`.
    fn file(&mut self, at: usize, hash: u64, name: Arc<str>) -> TermId {
        let id = TermId(self.names.len() as u32);
        let len = name.len() as u32;
        self.names.push(name);
        if 2 * self.names.len() > self.slots.len() {
            self.grow();
        } else {
            self.slots[at] = Slot {
                hash,
                id: id.0 + 1,
                len,
            };
        }
        id
    }

    /// Double the table (sixteen slots at first) and file every term again,
    /// in id order.
    fn grow(&mut self) {
        let mut slots = vec![Slot::default(); (2 * self.slots.len()).max(16)];
        let mask = slots.len() - 1;
        for (id, name) in self.names.iter().enumerate() {
            let hash = term_hash(name.as_bytes(), |word| word);
            let mut at = home(hash, slots.len());
            while slots[at].id != 0 {
                at = (at + 1) & mask;
            }
            slots[at] = Slot {
                hash,
                id: id as u32 + 1,
                len: name.len() as u32,
            };
        }
        self.slots = slots;
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

    /// Every byte in every lane: ASCII uppercase lowercases, nothing else
    /// moves, and lanes do not disturb each other.
    #[test]
    fn lower_word_lowercases_each_lane_alone() {
        for b in 0..=255u8 {
            let lowered = u64::from(b.to_ascii_lowercase());
            assert_eq!(lower_word(u64::from(b) * LANES), lowered * LANES, "{b:#x}");
            let mixed = u64::from_le_bytes([b, b'Z', 0xff, b'@', b, b'[', b'A', 0]);
            let want = [
                b.to_ascii_lowercase(),
                b'z',
                0xff,
                b'@',
                b.to_ascii_lowercase(),
                b'[',
                b'a',
                0,
            ];
            assert_eq!(lower_word(mixed), u64::from_le_bytes(want), "{b:#x}");
        }
    }

    /// `intern_lowercase` finds only the lowercase form: a term interned
    /// verbatim with capitals is another term, and a new lowercase term is
    /// stored lowercased, across the table's growth.
    #[test]
    fn intern_lowercase_finds_only_the_lowercase_form() {
        let mut d = TermDict::new();
        // One word with its length, one full word, and two words.
        for term in ["HONDA", "HONDACRV", "HONDACRV9"] {
            let upper = d.intern(term);
            let lower = d.intern_lowercase(term);
            assert_ne!(upper, lower);
            assert_eq!(d.resolve(lower), term.to_ascii_lowercase());
            assert_eq!(d.intern_lowercase(&term.to_ascii_lowercase()), lower);
            assert_eq!(d.intern(&term.to_ascii_lowercase()), lower);
            assert_eq!(d.get(term), Some(upper));
        }
        let (upper, lower) = (TermId(0), TermId(1));
        for i in 0..1000 {
            let id = d.intern_lowercase(&format!("Term{i}With_A_Longer_Tail"));
            assert_eq!(d.get(&format!("term{i}with_a_longer_tail")), Some(id));
        }
        assert_eq!((d.get("HONDA"), d.get("honda")), (Some(upper), Some(lower)));
        assert_eq!(d.len(), 1006);
    }
}
