//! Fixed-shard concurrent maps: [`ShardedMap`], the substrate of the
//! runtime's registries, and [`EpochCache`], the epoch-invalidated bounded
//! cache behind the VM's decision cache and the lazy per-user grant store.
//!
//! [`ShardedMap`] splits the key space over [`SHARDS`] independent
//! `RwLock<HashMap>`s chosen by key hash, so that a 10k-application storm
//! or a million-user grant store never queues on one lock:
//!
//! * point operations (`get`/`insert`/`remove`) touch exactly one shard;
//! * whole-map reads (`values`, `keys`, `len`) iterate shard by shard, so a
//!   `ps` sweep never holds a lock that blocks a spawn on another shard;
//! * check-then-act sequences on one key ([`ShardedMap::with_shard_mut`])
//!   stay atomic because a key maps to exactly one shard.
//!
//! The trade-off is deliberate and identical to `java.util.concurrent`'s
//! striped maps: cross-shard reads are *not* a consistent snapshot.
//!
//! The map is generic over its hasher: the registries and the grant store
//! keep SipHash (their keys can come from outside), the decision cache a
//! cheap multiply-xor hash. One hash serves both levels — the shard index
//! is taken from bits 32..36, which the inner `HashMap` neither buckets by
//! (it masks the low bits) nor tags slots with (the top seven), so keys
//! that share a shard still spread over its whole table.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

/// Shard count. A power of two so the hash folds with a mask; 16 is plenty
/// to make lock collisions rare at the concurrency the VM supports while
/// keeping whole-map sweeps cheap.
pub const SHARDS: usize = 16;

/// Where the shard index sits in a key's hash (see the module docs).
const SHARD_SHIFT: u32 = 32;

/// Per-shard entry cap of an [`EpochCache`]. A full shard is cleared rather
/// than evicted entry by entry: cached values are cheap and exact to
/// re-derive, so resident entries stay bounded at `SHARDS * EPOCH_SHARD_CAP`
/// however many distinct keys pass through.
pub const EPOCH_SHARD_CAP: usize = 4096;

/// A `HashMap` split over [`SHARDS`] rwlocks, keyed by key hash.
pub struct ShardedMap<K, V, S = RandomState> {
    shards: [RwLock<HashMap<K, V, S>>; SHARDS],
    hasher: S,
}

/// An empty map; every shard's table shares the one hasher, so the shard
/// pick and the table lookup read the same hash.
impl<K, V, S: Default + Clone> Default for ShardedMap<K, V, S> {
    fn default() -> ShardedMap<K, V, S> {
        let hasher = S::default();
        ShardedMap {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::with_hasher(hasher.clone()))),
            hasher,
        }
    }
}

impl<K: Hash + Eq, V, S: BuildHasher> ShardedMap<K, V, S> {
    fn shard<Q>(&self, key: &Q) -> &RwLock<HashMap<K, V, S>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = self.hasher.hash_one(key);
        &self.shards[(hash >> SHARD_SHIFT) as usize & (SHARDS - 1)]
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard(&key).write().insert(key, value)
    }

    /// Removes and returns the value under `key`.
    pub fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard(key).write().remove(key)
    }

    /// A clone of the value under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        self.shard(key).read().get(key).cloned()
    }

    /// Total entries, summed shard by shard (not a consistent snapshot).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.read().len()).sum()
    }

    /// `true` if every shard is empty (not a consistent snapshot).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.read().is_empty())
    }

    /// Every value, collected shard by shard — the `ps` sweep. No lock is
    /// held across shards, so concurrent inserts on other shards proceed.
    pub fn values(&self) -> Vec<V>
    where
        V: Clone,
    {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.read().values().cloned());
        }
        out
    }

    /// Every key, collected shard by shard.
    pub fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.read().keys().cloned());
        }
        out
    }

    /// Runs `f` with the write-locked shard holding `key` — for
    /// check-then-act sequences (publish's ownership test + insert) that
    /// must be atomic per key.
    pub fn with_shard_mut<Q, R>(&self, key: &Q, f: impl FnOnce(&mut HashMap<K, V, S>) -> R) -> R
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        f(&mut self.shard(key).write())
    }

    /// Keeps only entries satisfying the predicate, one shard at a time;
    /// returns how many entries were removed.
    pub fn retain(&self, mut keep: impl FnMut(&K, &mut V) -> bool) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut guard = shard.write();
            let before = guard.len();
            guard.retain(|k, v| keep(k, v));
            removed += before - guard.len();
        }
        removed
    }
}

/// A cached value and the epoch it was derived under.
struct Stamped<V> {
    epoch: u64,
    value: V,
}

/// A bounded [`ShardedMap`] whose entries are invalidated wholesale by an
/// epoch counter.
///
/// The protocol that keeps a pre-reload value from serving a post-reload
/// read:
///
/// 1. a deriver captures [`EpochCache::epoch`] **before** consulting
///    anything the epoch guards (policy, security manager, grant source);
/// 2. it inserts the derived value at that captured epoch
///    ([`EpochCache::insert`]);
/// 3. [`EpochCache::invalidate`] bumps the epoch, and reads
///    ([`EpochCache::get_with`]) serve only entries stamped with the
///    current one.
///
/// A reload racing a derivation therefore makes the in-flight insert stale
/// on arrival: it is stored but never served. Nothing is swept; stale
/// entries are overwritten on re-derivation or dropped when their shard
/// reaches [`EPOCH_SHARD_CAP`] and is cleared.
pub struct EpochCache<K, V, S = RandomState> {
    epoch: AtomicU64,
    map: ShardedMap<K, Stamped<V>, S>,
}

impl<K, V, S: Default + Clone> Default for EpochCache<K, V, S> {
    fn default() -> EpochCache<K, V, S> {
        EpochCache {
            epoch: AtomicU64::new(0),
            map: ShardedMap::default(),
        }
    }
}

impl<K, V, S> fmt::Debug for EpochCache<K, V, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochCache")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<K: Hash + Eq, V, S: BuildHasher> EpochCache<K, V, S> {
    /// The current epoch. Capture it **before** deriving a value, and pass
    /// the captured value to [`EpochCache::insert`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Bumps the epoch, logically discarding every cached value.
    pub fn invalidate(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Runs `f` on the value cached under `key` if it was derived under the
    /// current epoch, while the shard's read guard is held — so a caller
    /// can act on a shared handle inside the value (bump a counter) without
    /// cloning it out. `None` on a miss or a stale entry.
    pub fn get_with<Q, R>(&self, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let current = self.epoch();
        let shard = self.map.shard(key).read();
        let entry = shard.get(key)?;
        (entry.epoch == current).then(|| f(&entry.value))
    }

    /// Stores `value` as derived under `derived_epoch` (captured before the
    /// derivation began). A stale insert is stored but never served. A
    /// shard at [`EPOCH_SHARD_CAP`] is cleared before a new key goes in.
    pub fn insert(&self, key: K, derived_epoch: u64, value: V) {
        let mut shard = self.map.shard(&key).write();
        if shard.len() >= EPOCH_SHARD_CAP && !shard.contains_key(&key) {
            shard.clear();
        }
        shard.insert(
            key,
            Stamped {
                epoch: derived_epoch,
                value,
            },
        );
    }

    /// Entries currently resident, stale ones included until they are
    /// overwritten or their shard is cleared.
    pub fn resident(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn point_operations_roundtrip() {
        let map: ShardedMap<u64, String> = ShardedMap::default();
        assert_eq!(map.len(), 0);
        assert!(map.is_empty());
        for i in 0..100u64 {
            assert!(map.insert(i, format!("v{i}")).is_none());
        }
        assert_eq!(map.len(), 100);
        assert_eq!(map.get(&42), Some("v42".to_string()));
        assert_eq!(map.remove(&42), Some("v42".to_string()));
        assert_eq!(map.get(&42), None);
        assert_eq!(map.len(), 99);
        let mut values = map.values();
        values.sort();
        assert_eq!(values.len(), 99);
    }

    #[test]
    fn borrowed_key_lookups_hit_the_same_shard() {
        let map: ShardedMap<String, u32> = ShardedMap::default();
        map.insert("alpha".to_string(), 1);
        // &str lookups must hash onto the same shard as the owned String.
        assert_eq!(map.get("alpha"), Some(1));
        assert_eq!(map.remove("alpha"), Some(1));
        assert_eq!(map.get("alpha"), None);
    }

    #[test]
    fn with_shard_mut_is_atomic_per_key() {
        let map: ShardedMap<String, u32> = ShardedMap::default();
        let insert_if_absent = |value: u32| {
            map.with_shard_mut("n", |table| {
                if table.contains_key("n") {
                    false
                } else {
                    table.insert("n".to_string(), value);
                    true
                }
            })
        };
        assert!(insert_if_absent(7));
        assert!(!insert_if_absent(8));
        assert_eq!(map.get("n"), Some(7));
    }

    #[test]
    fn retain_counts_removals_across_shards() {
        let map: ShardedMap<u64, u64> = ShardedMap::default();
        for i in 0..64u64 {
            map.insert(i, i);
        }
        let removed = map.retain(|_, v| *v % 2 == 0);
        assert_eq!(removed, 32);
        assert_eq!(map.len(), 32);
        let mut keys = map.keys();
        keys.sort_unstable();
        assert!(keys.iter().all(|k| k % 2 == 0));
    }

    #[test]
    fn concurrent_inserts_and_sweeps_do_not_lose_entries() {
        let map = Arc::new(ShardedMap::<u64, u64>::default());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let map = Arc::clone(&map);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    map.insert(t * 1_000 + i, i);
                    if i % 64 == 0 {
                        // Sweeps interleave with inserts without blocking them.
                        let _ = map.values().len();
                    }
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(map.len(), 4_000);
    }

    /// splitmix64: a seeded step stream with no dependency.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// The epoch invariant both the decision cache and the grant store rely
    /// on, checked over generated interleavings of several logical
    /// derivers: a lookup hits exactly when the key's latest insert carries
    /// the current epoch. Covers current-epoch hits, stale inserts (a
    /// deriver whose capture predates an invalidate), and a stale insert
    /// overwriting a fresh one.
    #[test]
    fn lookups_serve_only_latest_inserts_of_the_current_epoch() {
        const DERIVERS: usize = 4;
        const KEYS: u64 = 5;
        let (mut hits, mut stale_inserts) = (0, 0);
        for seed in 0..200u64 {
            let cache: EpochCache<u64, u64> = EpochCache::default();
            let mut rng = SplitMix(seed);
            let mut model_epoch = 0u64;
            let mut captured: [Option<u64>; DERIVERS] = [None; DERIVERS];
            // Per key: (epoch, value) of its latest insert.
            let mut latest: HashMap<u64, (u64, u64)> = HashMap::new();
            for step in 0..400u64 {
                let r = rng.next();
                let deriver = (r >> 8) as usize % DERIVERS;
                let key = (r >> 16) % KEYS;
                match r % 4 {
                    0 => {
                        let epoch = cache.epoch();
                        assert_eq!(epoch, model_epoch, "seed {seed} step {step}");
                        captured[deriver] = Some(epoch);
                    }
                    1 => {
                        if let Some(epoch) = captured[deriver].take() {
                            stale_inserts += usize::from(epoch != model_epoch);
                            cache.insert(key, epoch, step);
                            latest.insert(key, (epoch, step));
                        }
                    }
                    2 => {
                        cache.invalidate();
                        model_epoch += 1;
                    }
                    _ => {
                        let want = latest
                            .get(&key)
                            .filter(|(epoch, _)| *epoch == model_epoch)
                            .map(|(_, value)| *value);
                        hits += usize::from(want.is_some());
                        assert_eq!(
                            cache.get_with(&key, |value| *value),
                            want,
                            "seed {seed} step {step} key {key}"
                        );
                    }
                }
            }
        }
        assert!(
            hits > 100 && stale_inserts > 100,
            "{hits} hits, {stale_inserts} stale"
        );
    }

    /// The race the protocol exists for, forced with real threads: a
    /// deriver captures the epoch, a reload invalidates, then the deriver
    /// inserts. The insert must never serve; a post-reload derivation does.
    #[test]
    fn an_invalidate_between_capture_and_insert_kills_the_insert() {
        let cache: EpochCache<&str, u32> = EpochCache::default();
        let captured = Barrier::new(2);
        let invalidated = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let epoch = cache.epoch();
                captured.wait();
                invalidated.wait();
                cache.insert("k", epoch, 1);
            });
            scope.spawn(|| {
                captured.wait();
                cache.invalidate();
                invalidated.wait();
            });
        });
        assert_eq!(cache.resident(), 1, "the stale insert is stored");
        assert_eq!(cache.get_with("k", |v| *v), None, "but never served");
        cache.insert("k", cache.epoch(), 2);
        assert_eq!(cache.get_with("k", |v| *v), Some(2));
    }
}
