//! A sharded, deterministic LRU cache.
//!
//! The engine keeps three of these: materialized bitmaps (store key →
//! [`originscan_store::ScanSet`]), membership-signature tables
//! (`proto/trial` → [`originscan_store::SignatureCounts`]) and memoized
//! responses (canonical plan → JSON body). All are keyed by strings and
//! sharded by FNV-1a hash so concurrent workers contend on `shards`
//! locks instead of one.
//!
//! Recency is a per-shard logical tick — a counter bumped on every
//! access — not a wall clock, so eviction order is a pure function of
//! the access sequence and the cache obeys the workspace determinism
//! rules without an audit escape.

use crate::query::fnv1a64;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cumulative cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub(crate) evictions: u64,
    /// Entries currently resident.
    pub(crate) len: u64,
}

#[derive(Debug)]
struct Shard<V> {
    /// key → (value, last-access tick).
    map: BTreeMap<String, (V, u64)>,
    tick: u64,
    capacity: usize,
}

impl<V> Shard<V> {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// The cache proper: `shard_count` independently locked LRU maps.
#[derive(Debug)]
pub(crate) struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> ShardedLru<V> {
    /// A cache of `shard_count` shards holding at most `capacity_per_shard`
    /// entries each. Both are clamped to at least 1.
    pub(crate) fn new(shard_count: usize, capacity_per_shard: usize) -> ShardedLru<V> {
        let shards = (0..shard_count.max(1))
            .map(|_| {
                Mutex::new(Shard {
                    map: BTreeMap::new(),
                    tick: 0,
                    capacity: capacity_per_shard.max(1),
                })
            })
            .collect();
        ShardedLru {
            shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`idx = h % shards.len()` and `new` builds `shard_count.max(1)` shards"
    )]
    fn shard(&self, key: &str) -> &Mutex<Shard<V>> {
        let h = fnv1a64(key.as_bytes());
        let idx = h % self.shards.len() as u64;
        &self.shards[usize::try_from(idx).unwrap_or(0)]
    }

    /// Recover from a poisoned shard lock: a panicking reader leaves the
    /// map structurally intact (no partial inserts), so the cache keeps
    /// serving.
    fn lock<'a>(&self, m: &'a Mutex<Shard<V>>) -> std::sync::MutexGuard<'a, Shard<V>> {
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Look up `key`, refreshing its recency on hit.
    pub(crate) fn get(&self, key: &str) -> Option<V> {
        let mut shard = self.lock(self.shard(key));
        let tick = shard.touch();
        match shard.map.get_mut(key) {
            Some((v, last)) => {
                *last = tick;
                let v = v.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used entry
    /// of its shard when the shard is full.
    pub(crate) fn insert(&self, key: String, value: V) {
        let mut shard = self.lock(self.shard(&key));
        let tick = shard.touch();
        if !shard.map.contains_key(&key) && shard.map.len() >= shard.capacity {
            // Evict the entry with the smallest last-access tick; ties
            // cannot happen (ticks are unique per shard).
            if let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(key, (value, tick));
    }

    /// Drop every entry (counters are preserved).
    pub(crate) fn clear(&self) {
        for m in &self.shards {
            self.lock(m).map.clear();
        }
    }

    /// Cumulative counters plus current residency.
    pub(crate) fn stats(&self) -> CacheStats {
        let len = self
            .shards
            .iter()
            .map(|m| self.lock(m).map.len() as u64)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_residency() {
        let c: ShardedLru<u32> = ShardedLru::new(4, 8);
        assert_eq!(c.get("a"), None);
        c.insert("a".into(), 1);
        assert_eq!(c.get("a"), Some(1));
        c.insert("a".into(), 2);
        assert_eq!(c.get("a"), Some(2), "re-insert replaces");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (2, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One shard so eviction order is fully observable.
        let c: ShardedLru<u32> = ShardedLru::new(1, 2);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        assert_eq!(c.get("a"), Some(1)); // refresh a; b is now LRU
        c.insert("c".into(), 3); // evicts b
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.get("c"), Some(3));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().len, 2);
    }

    #[test]
    fn clear_keeps_counters() {
        let c: ShardedLru<u32> = ShardedLru::new(2, 4);
        c.insert("x".into(), 9);
        assert_eq!(c.get("x"), Some(9));
        c.clear();
        assert_eq!(c.get("x"), None);
        let s = c.stats();
        assert_eq!(s.len, 0);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn sharding_is_deterministic() {
        let a: ShardedLru<u32> = ShardedLru::new(8, 2);
        let b: ShardedLru<u32> = ShardedLru::new(8, 2);
        for i in 0..64u32 {
            let k = format!("key-{i}");
            a.insert(k.clone(), i);
            b.insert(k, i);
        }
        for i in 0..64u32 {
            let k = format!("key-{i}");
            assert_eq!(
                a.get(&k),
                b.get(&k),
                "{k}: same access sequence, same state"
            );
        }
    }

    #[test]
    fn zero_sizes_clamp_to_one() {
        let c: ShardedLru<u32> = ShardedLru::new(0, 0);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        assert_eq!(c.get("b"), Some(2), "capacity 1 keeps the newest");
        assert_eq!(c.stats().len, 1);
    }
}
