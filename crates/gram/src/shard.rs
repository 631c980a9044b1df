//! A sharded concurrent hash map for the server's per-job state.
//!
//! `GramServer` is shared across worker threads in the concurrency
//! experiments (T5); a single `RwLock<HashMap>` over all jobs serializes
//! every submit against every status poll. Sharding by key hash keeps
//! lock contention proportional to *colliding* keys rather than total
//! throughput, without changing any observable map semantics.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use parking_lot::RwLock;

/// Number of independent lock domains. A small power of two: enough to
/// spread a simulation's worker threads, cheap enough to iterate for the
/// rare whole-map operations.
const SHARDS: usize = 16;

/// A `HashMap` split into `SHARDS` independently locked shards.
///
/// Point operations (`insert`, `get_cloned`, `update`) lock exactly one
/// shard. Whole-map reads ([`ShardedMap::for_each`], [`ShardedMap::len`])
/// visit shards one at a time and therefore observe each shard at a
/// slightly different instant — the same weak-snapshot semantics
/// concurrent callers of the old single-lock map already had to assume.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// An empty map.
    pub fn new() -> ShardedMap<K, V> {
        ShardedMap { shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect() }
    }

    fn shard_for<Q>(&self, key: &Q) -> &RwLock<HashMap<K, V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Inserts `value` under `key`, returning any previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard_for(&key).write().insert(key, value)
    }

    /// Removes `key`, returning its value when present.
    pub fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard_for(key).write().remove(key)
    }

    /// A clone of the value under `key`.
    pub fn get_cloned<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        self.shard_for(key).read().get(key).cloned()
    }

    /// Applies `f` to the value under `key` in place, returning its
    /// result; `None` when the key is absent.
    pub fn update<Q, R>(&self, key: &Q, f: impl FnOnce(&mut V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard_for(key).write().get_mut(key).map(f)
    }

    /// Visits every entry, shard by shard (weak snapshot; see the type
    /// docs).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in &self.shards {
            for (k, v) in shard.read().iter() {
                f(k, v);
            }
        }
    }

    /// Total number of entries across all shards (weak snapshot).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no shard holds an entry (weak snapshot).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }
}

impl<K: Hash + Eq, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_operations_round_trip() {
        let map: ShardedMap<String, u32> = ShardedMap::new();
        assert!(map.is_empty());
        assert_eq!(map.insert("a".into(), 1), None);
        assert_eq!(map.insert("a".into(), 2), Some(1));
        map.insert("b".into(), 3);
        // Borrowed-key lookups (&str against String keys).
        assert_eq!(map.get_cloned("a"), Some(2));
        assert_eq!(map.get_cloned("missing"), None);
        assert_eq!(map.update("b", |v| std::mem::replace(v, 9)), Some(3));
        assert_eq!(map.get_cloned("b"), Some(9));
        assert_eq!(map.len(), 2);
        assert_eq!(map.remove("a"), Some(2));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn for_each_sees_every_entry() {
        let map: ShardedMap<u64, u64> = ShardedMap::new();
        // Enough keys to land in multiple shards.
        for i in 0..100 {
            map.insert(i, i * 2);
        }
        let mut sum = 0;
        map.for_each(|k, v| {
            assert_eq!(*v, k * 2);
            sum += v;
        });
        assert_eq!(sum, (0..100).map(|i| i * 2).sum::<u64>());
        assert_eq!(map.len(), 100);
    }

    #[test]
    fn concurrent_writers_do_not_lose_entries() {
        let map = std::sync::Arc::new(ShardedMap::<u64, u64>::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let map = std::sync::Arc::clone(&map);
                scope.spawn(move || {
                    for i in 0..250u64 {
                        map.insert(t * 1000 + i, i);
                    }
                });
            }
        });
        assert_eq!(map.len(), 1000);
    }
}
