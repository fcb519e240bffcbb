//! Sharded query-result cache for the cluster serving tier (DESIGN.md §13).
//!
//! The key is the analysed query's resolved [`TermId`] signature — the exact
//! `Some` ids in distinct-term first-occurrence order, produced by
//! `QueryScratch::resolve` — which fully determines the result for a fixed
//! `(k, SearchOptions)`: scoring folds contributions in that id order, and
//! unknown terms (absent from the signature) contribute nothing. The
//! signature is deliberately **not** sorted or deduplicated further: f64
//! addition is non-associative, so a canonicalised key could alias two
//! queries whose accumulation orders differ. Two query strings that share a
//! signature ("honda civic" / "honda honda civic") provably share a result,
//! so a hit returns byte-identical hits to recomputing.
//!
//! One of eight fixed shards is picked by hashing the signature with
//! [`fxhash64`]; each shard is an independent mutex-guarded map holding an
//! exact share of the capacity, so concurrent workers contend only when
//! their queries collide on a shard.
//!
//! **Admission is frequency-aware** (TinyLFU's rule: Einziger, Friedman &
//! Manes, ACM TOS 2017). Every resident entry counts its uses; every shard
//! counts the misses of signatures it does not hold, keyed by their
//! `fxhash64` (a collision can only mis-rank an admission). A full shard's
//! victim is its entry with the lowest `(uses, last use)`, found by scanning
//! the shard's ranks — one contiguous array of those pairs, 16 bytes an
//! entry, beside the map from signature to slot — on every insert a full
//! shard is offered, and a newcomer displaces it only
//! if the newcomer has missed strictly more often than the victim has been
//! used; an admitted entry starts with its miss count as its use count. Every `10 ×` the shard's capacity lookups the shard halves
//! every count and forgets the zeros, so a new head gets in once the old one
//! stops being asked, and the miss table never holds more than `20 ×` the
//! shard's capacity signatures (the counts sum to less than that).
//!
//! Why not least-recently-used: a stream that cycles over more signatures
//! than a shard holds — the Zipf body replayed round after round — evicts
//! each signature just before it is asked again, so LRU hits none of it;
//! this rule keeps the most-asked part resident and turns the rest away.
//! `serve_zipf` reads a hit ratio of 0.8535 under LRU and 0.9034 under this
//! rule (EXPERIMENTS.md E15).
//!
//! The rule is deterministic under single-threaded access and *never*
//! result-changing under any access pattern: the cache only ever returns
//! values it computed through the one deterministic serving kernel.
//!
//! Hit/miss/eviction/insertion/rejection counters make cache-size vs
//! hit-rate a measurable curve under the Zipf workload (EXPERIMENTS.md E15).

use crate::searcher::Hit;
use deepweb_common::fxhash::fxhash64;
use deepweb_common::ids::TermId;
use deepweb_common::FxHashMap;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Result-cache sizing.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total cached entries across all shards; 0 disables storage (every
    /// lookup misses, nothing is ever inserted).
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::with_capacity(1024)
    }
}

impl CacheConfig {
    /// A cache with `capacity` total entries.
    pub fn with_capacity(capacity: usize) -> Self {
        CacheConfig { capacity }
    }
}

/// Counter snapshot for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the serving kernel.
    pub misses: u64,
    /// Entries displaced to admit a more often missed signature.
    pub evictions: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Inserts refused because the shard was full and its victim had been
    /// used at least as often as the newcomer had missed.
    pub rejected: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One stored result, in its slot.
struct Entry {
    /// The signature it answers (the map's key, kept to evict it by).
    sig: Vec<TermId>,
    k: usize,
    hits: Vec<Hit>,
}

/// What a slot's entry is ranked by for eviction, lowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Rank {
    /// Hits since admission, seeded with the miss count that admitted it;
    /// halved at every aging.
    uses: u32,
    /// Last-touched tick of the owning shard's logical clock: among equally
    /// used entries the least recent is the victim. Unique within a shard,
    /// so the victim is too.
    stamp: u64,
}

const _: () = assert!(std::mem::size_of::<Rank>() == 16);

/// Lookups between two agings, per entry a shard holds.
const AGING_PERIOD: usize = 10;

struct Shard {
    /// Signature → the slot of its entry.
    map: FxHashMap<Vec<TermId>, usize>,
    /// Per slot, its entry.
    entries: Vec<Entry>,
    /// Per slot, its entry's rank: the array a victim scan reads.
    ranks: Vec<Rank>,
    /// Misses per signature not resident, keyed by its `fxhash64`.
    misses: FxHashMap<u64, u32>,
    /// Entries this shard may hold.
    cap: usize,
    clock: u64,
    /// Lookups since the last aging.
    lookups: usize,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Shard {
            map: FxHashMap::default(),
            entries: Vec::new(),
            ranks: Vec::new(),
            misses: FxHashMap::default(),
            cap,
            clock: 0,
            lookups: 0,
        }
    }

    /// Count one lookup; every `AGING_PERIOD × cap` of them, halve every
    /// count and forget the misses that reach zero.
    fn count_lookup(&mut self) {
        self.lookups += 1;
        if self.lookups >= AGING_PERIOD * self.cap {
            self.lookups = 0;
            for rank in &mut self.ranks {
                rank.uses /= 2;
            }
            self.misses.retain(|_, n| {
                *n /= 2;
                *n > 0
            });
        }
    }

    /// [`ResultCache::get`] on this shard: the stored hits of `(sig, k)`,
    /// whose `fxhash64` is `hash`, counting a hit as one use of its entry
    /// and a miss of a signature not held toward its admission.
    fn lookup(&mut self, sig: &[TermId], k: usize, hash: u64) -> Option<Vec<Hit>> {
        if self.cap == 0 {
            return None;
        }
        self.count_lookup();
        let Some(&slot) = self.map.get(sig) else {
            let n = self.misses.entry(hash).or_insert(0);
            *n = n.saturating_add(1);
            return None;
        };
        let (entry, rank) = (self.entries.get(slot)?, self.ranks.get_mut(slot)?);
        if entry.k != k {
            return None;
        }
        self.clock += 1;
        rank.uses = rank.uses.saturating_add(1);
        rank.stamp = self.clock;
        Some(entry.hits.clone())
    }
}

/// A sharded, signature-keyed result cache whose full shards admit a
/// newcomer only if it has missed more often than their least-used entry
/// has been used (module docs). `Sync`: shards are independently locked and
/// counters are atomic.
pub(crate) struct ResultCache {
    /// Shard `i` holds at most `capacity / SHARDS`, plus one if
    /// `i < capacity % SHARDS`: the capacity split exactly.
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    rejected: AtomicU64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Independent mutex-guarded shards of every cache.
const SHARDS: usize = 8;

impl ResultCache {
    /// An empty cache sized by `cfg`: it never holds more than
    /// `cfg.capacity` entries.
    pub(crate) fn new(cfg: CacheConfig) -> Self {
        let cap = |i: usize| cfg.capacity / SHARDS + usize::from(i < cfg.capacity % SHARDS);
        ResultCache {
            shards: (0..SHARDS)
                .map(|i| Mutex::new(Shard::new(cap(i))))
                .collect(),
            capacity: cfg.capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The shard of a signature whose `fxhash64` is `hash`.
    fn shard(&self, hash: u64) -> Option<&Mutex<Shard>> {
        self.shards.get((hash % SHARDS as u64) as usize)
    }

    /// Look up `(sig, k)`. A hit counts one use of the entry, refreshes its
    /// stamp and returns a byte-identical copy of the stored hits; a miss of
    /// a signature the shard does not hold counts toward its admission. A
    /// stored signature with a different `k` is a miss (the next insert
    /// overwrites it).
    pub(crate) fn get(&self, sig: &[TermId], k: usize) -> Option<Vec<Hit>> {
        let hash = fxhash64(sig);
        let hit = (self.shard(hash)).and_then(|shard| shard.lock().lookup(sig, k, hash));
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Offer the served result for `(sig, k)`, copied only if it is stored.
    /// A resident signature is overwritten; a shard with room admits it; a
    /// full shard admits it only if its miss count (from [`ResultCache::get`])
    /// exceeds the uses of the least-used, least-recent entry, which it then
    /// evicts, and otherwise counts a rejection. Neither eviction nor
    /// rejection can do more than cause future *misses* (recomputation
    /// through the deterministic kernel), never different results.
    pub(crate) fn insert(&self, sig: &[TermId], k: usize, hits: &[Hit]) {
        let hash = fxhash64(sig);
        let Some(shard) = self.shard(hash) else {
            return;
        };
        let mut shard = shard.lock();
        let shard = &mut *shard;
        if shard.cap == 0 {
            return;
        }
        shard.clock += 1;
        let stamp = shard.clock;
        if let Some(&slot) = shard.map.get(sig) {
            if let (Some(entry), Some(rank)) =
                (shard.entries.get_mut(slot), shard.ranks.get_mut(slot))
            {
                entry.k = k;
                entry.hits = hits.to_vec();
                rank.stamp = stamp;
            }
            self.insertions.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let uses = shard.misses.get(&hash).copied().unwrap_or(0);
        let rank = Rank { uses, stamp };
        let entry = || Entry {
            sig: sig.to_vec(),
            k,
            hits: hits.to_vec(),
        };
        let slot = if shard.entries.len() < shard.cap {
            shard.entries.push(entry());
            shard.ranks.push(rank);
            shard.entries.len() - 1
        } else {
            let slots = shard.ranks.iter_mut().zip(&mut shard.entries).enumerate();
            let victim = slots.min_by_key(|(_, (rank, _))| **rank);
            let Some((slot, (victim_rank, victim))) = victim.filter(|(_, (r, _))| uses > r.uses)
            else {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let evicted = std::mem::replace(victim, entry());
            *victim_rank = rank;
            shard.map.remove(&evicted.sig);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            slot
        };
        shard.misses.remove(&hash);
        shard.map.insert(sig.to_vec(), slot);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// The most miss counts any shard holds.
    #[cfg(test)]
    fn miss_table_max(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().misses.len())
            .max()
            .unwrap_or(0)
    }

    /// The shard of `sig`: every resident signature with its rank, in slot
    /// order, and the miss count of `sig`.
    #[cfg(test)]
    fn shard_state(&self, sig: &[TermId]) -> (Vec<(Vec<TermId>, Rank)>, u32) {
        let hash = fxhash64(sig);
        let shard = self.shard(hash).unwrap().lock();
        let residents = shard.entries.iter().zip(&shard.ranks);
        let residents = residents.map(|(entry, &rank)| (entry.sig.clone(), rank));
        let misses = shard.misses.get(&hash).copied().unwrap_or(0);
        (residents.collect(), misses)
    }

    /// Entries currently stored.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::next_id;
    use deepweb_common::ids::DocId;

    fn sig(ids: &[u32]) -> Vec<TermId> {
        ids.iter().map(|&i| TermId(i)).collect()
    }

    fn hits(pairs: &[(u32, f64)]) -> Vec<Hit> {
        pairs
            .iter()
            .map(|&(d, score)| Hit {
                doc: DocId(d),
                score,
            })
            .collect()
    }

    /// `n` one-term signatures that share a shard.
    fn same_shard(n: usize) -> Vec<Vec<TermId>> {
        let shard = |s: &Vec<TermId>| fxhash64(s.as_slice()) % SHARDS as u64;
        let first = shard(&sig(&[1]));
        (1..)
            .map(|i| sig(&[i]))
            .filter(|s| shard(s) == first)
            .take(n)
            .collect()
    }

    /// What `ClusterServer::serve` does: look up, and on a miss offer the
    /// result (here, one hit naming the signature's first term). True on a
    /// hit.
    fn serve(cache: &ResultCache, sig: &[TermId]) -> bool {
        if cache.get(sig, 5).is_some() {
            return true;
        }
        cache.insert(sig, 5, &hits(&[(sig[0].0, 1.0)]));
        false
    }

    #[test]
    fn hit_returns_byte_identical_hits() {
        let cache = ResultCache::new(CacheConfig::default());
        let stored = hits(&[(3, 2.5), (1, 2.5), (9, 0.125)]);
        cache.insert(&sig(&[7, 2]), 10, &stored);
        assert_eq!(cache.get(&sig(&[7, 2]), 10), Some(stored));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 0, 1));
        assert!((s.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn signature_order_is_significant() {
        // [a, b] and [b, a] accumulate f64 contributions in different
        // orders; the cache must never alias them.
        let cache = ResultCache::new(CacheConfig::default());
        cache.insert(&sig(&[1, 2]), 10, &hits(&[(0, 1.0)]));
        assert_eq!(cache.get(&sig(&[2, 1]), 10), None);
        assert_eq!(cache.get(&sig(&[1, 2]), 10), Some(hits(&[(0, 1.0)])));
    }

    #[test]
    fn k_mismatch_is_a_miss_and_insert_overwrites() {
        let cache = ResultCache::new(CacheConfig::default());
        cache.insert(&sig(&[5]), 10, &hits(&[(0, 1.0), (1, 0.5)]));
        assert_eq!(cache.get(&sig(&[5]), 1), None, "different k must miss");
        cache.insert(&sig(&[5]), 1, &hits(&[(0, 1.0)]));
        assert_eq!(cache.get(&sig(&[5]), 1), Some(hits(&[(0, 1.0)])));
    }

    #[test]
    fn a_full_shard_evicts_its_least_used_least_recent_entry() {
        // Three entries a shard, stored unasked (no uses): use A, then ask
        // for C once and offer it, as `ClusterServer::serve` does. C's one
        // miss beats B and D's zero uses, and B is the older of the two.
        let cache = ResultCache::new(CacheConfig::with_capacity(3 * SHARDS));
        let [a, b, d, c] = <[_; 4]>::try_from(same_shard(4)).unwrap();
        cache.insert(&a, 5, &hits(&[(1, 1.0)]));
        cache.insert(&b, 5, &hits(&[(2, 1.0)]));
        cache.insert(&d, 5, &hits(&[(4, 1.0)]));
        assert_eq!(cache.get(&a, 5), Some(hits(&[(1, 1.0)])));
        assert_eq!(cache.get(&c, 5), None);
        cache.insert(&c, 5, &hits(&[(3, 1.0)]));
        assert_eq!(cache.len(), 3);
        assert_eq!(
            cache.get(&b, 5),
            None,
            "the least-used, least-recent entry must be gone"
        );
        assert_eq!(cache.get(&a, 5), Some(hits(&[(1, 1.0)])));
        assert_eq!(cache.get(&d, 5), Some(hits(&[(4, 1.0)])));
        assert_eq!(cache.get(&c, 5), Some(hits(&[(3, 1.0)])));
        let s = cache.stats();
        assert_eq!((s.evictions, s.rejected), (1, 0));
    }

    /// Three signatures asked in turn through a shard of two: LRU evicts
    /// each one just before it is asked again and never hits; admission
    /// keeps two resident and turns the third away. An aging can leave the
    /// third one ahead of a resident, so now and then one round swaps it in.
    #[test]
    fn a_loop_wider_than_a_shard_keeps_hitting() {
        let cache = ResultCache::new(CacheConfig::with_capacity(2 * SHARDS));
        let ring = same_shard(3);
        let rounds = 300;
        for _ in 0..rounds {
            for s in &ring {
                serve(&cache, s);
            }
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 3 * rounds);
        assert!(s.hits >= 3 * rounds * 3 / 5, "most lookups must hit: {s:?}");
        assert!(s.evictions <= rounds / 10, "{s:?}");
        assert_eq!(s.insertions + s.rejected, s.misses);
    }

    #[test]
    fn a_one_off_miss_never_displaces_a_reused_entry() {
        let cache = ResultCache::new(CacheConfig::with_capacity(2 * SHARDS));
        let sigs = same_shard(1002);
        let (reused, one_offs) = sigs.split_at(2);
        for s in reused {
            serve(&cache, s);
        }
        for one_off in one_offs {
            for s in reused {
                assert!(serve(&cache, s), "a reused entry was displaced");
            }
            assert!(!serve(&cache, one_off));
        }
        let s = cache.stats();
        assert_eq!((s.insertions, s.evictions), (2, 0));
        assert_eq!(s.rejected, one_offs.len() as u64);
    }

    /// A and B were each used a thousand times; C, asked alone from then on,
    /// gets in within two agings, not after a thousand misses.
    #[test]
    fn a_new_head_gets_in_after_aging() {
        let cap = 2;
        let cache = ResultCache::new(CacheConfig::with_capacity(cap * SHARDS));
        let [a, b, c] = <[_; 3]>::try_from(same_shard(3)).unwrap();
        serve(&cache, &a);
        serve(&cache, &b);
        for _ in 0..1000 {
            assert!(serve(&cache, &a) && serve(&cache, &b));
        }
        assert!(!serve(&cache, &c));
        assert_eq!(
            cache.stats().rejected,
            1,
            "one miss must not displace a head"
        );
        let asks = (2..=1000)
            .find(|_| serve(&cache, &c))
            .expect("C never got in");
        assert!(asks <= 2 * AGING_PERIOD * cap, "C got in after {asks} asks");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn the_miss_table_stays_bounded() {
        let cap = 4;
        let cache = ResultCache::new(CacheConfig::with_capacity(cap * SHARDS));
        for i in 0..100_000u32 {
            serve(&cache, &sig(&[i]));
            if i % 1_000 == 0 {
                assert!(cache.miss_table_max() <= 2 * AGING_PERIOD * cap);
            }
        }
        let most = cache.miss_table_max();
        assert!(most > 0 && most <= 2 * AGING_PERIOD * cap, "{most}");
    }

    /// `capacity` is the total across shards: split exactly, never rounded
    /// up per shard.
    #[test]
    fn never_holds_more_than_capacity() {
        for capacity in [1usize, 7, 9, 100, 1024] {
            let cache = ResultCache::new(CacheConfig::with_capacity(capacity));
            for i in 0..20 * capacity {
                serve(&cache, &sig(&[next_id(i % (3 * capacity))]));
            }
            assert!(
                cache.len() <= capacity,
                "capacity {capacity}: {}",
                cache.len()
            );
        }
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ResultCache::new(CacheConfig::with_capacity(0));
        cache.insert(&sig(&[1]), 5, &hits(&[(1, 1.0)]));
        assert!(cache.is_empty());
        assert_eq!(cache.get(&sig(&[1]), 5), None);
        let s = cache.stats();
        assert_eq!((s.insertions, s.misses), (0, 1));
        assert_eq!(cache.miss_table_max(), 0);
    }

    /// A random sequence of lookups and offers over three times the
    /// signatures a shard holds: every eviction takes the resident entry
    /// whose `(uses, stamp)` is the brute-force minimum over the shard's map
    /// and admits the newcomer, and every rejection turns away a newcomer
    /// that missed no more often than that entry was used.
    #[test]
    fn the_victim_is_always_the_brute_force_minimum() {
        let cap = 4;
        let cache = ResultCache::new(CacheConfig::with_capacity(cap * SHARDS));
        let sigs = same_shard(3 * cap);
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let (mut evicted, mut rejected) = (0, 0);
        for _ in 0..20_000 {
            // Skewed picks: the low signatures are asked far more often.
            let below = draw(sigs.len()) + 1;
            let sig = &sigs[draw(below)];
            if cache.get(sig, 5).is_some() || draw(4) == 0 {
                continue;
            }
            let (residents, misses) = cache.shard_state(sig);
            let before = cache.stats();
            cache.insert(sig, 5, &hits(&[(sig[0].0, 1.0)]));
            let after = cache.stats();
            if residents.len() < cap {
                assert_eq!(after.insertions, before.insertions + 1);
                continue;
            }
            let (victim, rank) = residents.iter().min_by_key(|(_, rank)| *rank).unwrap();
            let (now, _) = cache.shard_state(sig);
            let resident = |s: &[TermId]| now.iter().any(|(key, _)| key == s);
            if after.evictions > before.evictions {
                assert!(misses > rank.uses && !resident(victim) && resident(sig));
                assert_eq!(now.len(), cap);
                evicted += 1;
            } else {
                assert_eq!(after.rejected, before.rejected + 1);
                assert!(misses <= rank.uses && resident(victim) && !resident(sig));
                rejected += 1;
            }
        }
        assert!(evicted > 50 && rejected > 50, "{evicted} {rejected}");
    }
}
