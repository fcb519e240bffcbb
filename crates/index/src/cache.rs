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
//! One of eight fixed shards is picked by hashing the signature (the same
//! [`fxhash64`] the rest of the system routes with); each shard is an
//! independent mutex-guarded LRU map holding an exact share of the capacity,
//! so concurrent workers contend only when their queries collide on a shard.
//! Eviction is least-recently-used via a per-shard logical clock —
//! deterministic under single-threaded access, and *never* result-changing
//! under any access pattern: the cache only ever returns values it computed
//! through the one deterministic serving kernel.
//!
//! Hit/miss/eviction/insertion counters make cache-size vs hit-rate a
//! measurable curve under the Zipf workload (EXPERIMENTS.md E15).

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
    /// Entries displaced by LRU eviction.
    pub evictions: u64,
    /// Entries stored.
    pub insertions: u64,
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

struct Entry {
    k: usize,
    hits: Vec<Hit>,
    /// Last-touched tick of the owning shard's logical clock (LRU stamp).
    stamp: u64,
}

#[derive(Default)]
struct Shard {
    map: FxHashMap<Vec<TermId>, Entry>,
    clock: u64,
}

/// A sharded, LRU, signature-keyed result cache. `Sync`: shards are
/// independently locked and counters are atomic.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Total entries across the shards, split exactly: shard `i` holds at
    /// most `capacity / SHARDS`, plus one if `i < capacity % SHARDS`.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
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

/// The shard a signature lives in.
fn shard_index(sig: &[TermId]) -> usize {
    (fxhash64(sig) % SHARDS as u64) as usize
}

impl ResultCache {
    /// An empty cache sized by `cfg`: it never holds more than
    /// `cfg.capacity` entries.
    pub fn new(cfg: CacheConfig) -> Self {
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            capacity: cfg.capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    /// Look up `(sig, k)`; a hit refreshes the entry's LRU stamp and returns
    /// a byte-identical copy of the stored hits. A stored signature with a
    /// different `k` is a miss (the next insert overwrites it).
    pub fn get(&self, sig: &[TermId], k: usize) -> Option<Vec<Hit>> {
        let mut shard = self.shards[shard_index(sig)].lock();
        let shard = &mut *shard;
        if let Some(entry) = shard.map.get_mut(sig) {
            if entry.k == k {
                shard.clock += 1;
                entry.stamp = shard.clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(entry.hits.clone());
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Store the served result for `(sig, k)`, evicting the shard's
    /// least-recently-used entry when the shard is full. Eviction can only
    /// ever cause future *misses* (recomputation through the deterministic
    /// kernel), never different results.
    pub fn insert(&self, sig: Vec<TermId>, k: usize, hits: Vec<Hit>) {
        let i = shard_index(&sig);
        let cap = self.capacity / SHARDS + usize::from(i < self.capacity % SHARDS);
        if cap == 0 {
            return;
        }
        let mut shard = self.shards[i].lock();
        let shard = &mut *shard;
        if shard.map.len() >= cap && !shard.map.contains_key(&sig) {
            if let Some(lru) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(key, _)| key.clone())
            {
                shard.map.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.clock += 1;
        let stamp = shard.clock;
        shard.map.insert(sig, Entry { k, hits, stamp });
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
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

    #[test]
    fn hit_returns_byte_identical_hits() {
        let cache = ResultCache::new(CacheConfig::default());
        let stored = hits(&[(3, 2.5), (1, 2.5), (9, 0.125)]);
        cache.insert(sig(&[7, 2]), 10, stored.clone());
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
        cache.insert(sig(&[1, 2]), 10, hits(&[(0, 1.0)]));
        assert_eq!(cache.get(&sig(&[2, 1]), 10), None);
        assert_eq!(cache.get(&sig(&[1, 2]), 10), Some(hits(&[(0, 1.0)])));
    }

    #[test]
    fn k_mismatch_is_a_miss_and_insert_overwrites() {
        let cache = ResultCache::new(CacheConfig::default());
        cache.insert(sig(&[5]), 10, hits(&[(0, 1.0), (1, 0.5)]));
        assert_eq!(cache.get(&sig(&[5]), 1), None, "different k must miss");
        cache.insert(sig(&[5]), 1, hits(&[(0, 1.0)]));
        assert_eq!(cache.get(&sig(&[5]), 1), Some(hits(&[(0, 1.0)])));
    }

    #[test]
    fn lru_evicts_least_recently_used_within_shard() {
        // Three signatures of one shard, two entries a shard: touch A,
        // insert C → B (LRU) evicted.
        let cache = ResultCache::new(CacheConfig::with_capacity(2 * SHARDS));
        let shard = shard_index(&sig(&[1]));
        let ids: Vec<u32> = (1..)
            .filter(|&i| shard_index(&sig(&[i])) == shard)
            .take(3)
            .collect();
        let (a, b, c) = (sig(&ids[..1]), sig(&ids[1..2]), sig(&ids[2..]));
        cache.insert(a.clone(), 5, hits(&[(1, 1.0)]));
        cache.insert(b.clone(), 5, hits(&[(2, 1.0)]));
        assert_eq!(cache.get(&a, 5), Some(hits(&[(1, 1.0)])));
        cache.insert(c.clone(), 5, hits(&[(3, 1.0)]));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&b, 5), None, "LRU entry must be gone");
        assert_eq!(cache.get(&a, 5), Some(hits(&[(1, 1.0)])));
        assert_eq!(cache.get(&c, 5), Some(hits(&[(3, 1.0)])));
        assert_eq!(cache.stats().evictions, 1);
    }

    /// `capacity` is the total across shards: split exactly, never rounded
    /// up per shard.
    #[test]
    fn never_holds_more_than_capacity() {
        for capacity in [1usize, 7, 9, 100, 1024] {
            let cache = ResultCache::new(CacheConfig::with_capacity(capacity));
            for i in 0..20 * capacity {
                cache.insert(sig(&[next_id(i)]), 5, hits(&[(1, 1.0)]));
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
        cache.insert(sig(&[1]), 5, hits(&[(1, 1.0)]));
        assert!(cache.is_empty());
        assert_eq!(cache.get(&sig(&[1]), 5), None);
        let s = cache.stats();
        assert_eq!((s.insertions, s.misses), (0, 1));
    }
}
