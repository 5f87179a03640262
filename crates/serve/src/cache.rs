//! The content-addressed result cache.
//!
//! Allocation is a pure function of (function text, allocator
//! configuration), so results can be cached under a stable hash of both —
//! see [`cache_key`]. A compiler re-running over a mostly-unchanged module
//! re-submits mostly-identical functions, and every one of those is served
//! from here without touching the Build–Simplify–Color machinery.
//!
//! The store is a **sharded LRU**: `shards` independently-locked segments,
//! each bounded at `capacity / shards` entries, so concurrent connections
//! rarely contend on the same mutex. Recency is tracked with a global
//! logical clock (one atomic increment per touch); eviction drops the
//! least-recently-used entry of the full shard.

use optimist_ir::{write_canonical, Function};
use optimist_regalloc::AllocatorConfig;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A running 64-bit FNV-1a hash: what `optimist_regalloc::fnv1a` computes
/// over all the bytes fed to it, in order. Text written to it through
/// [`fmt::Write`] is hashed as it is rendered, with no string built.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// The cache key of one (function, configuration) pair: FNV-1a over the
/// function's canonical text ([`write_canonical`]: names stripped, so
/// α-renaming a function does not change its key) extended with the
/// configuration's [`fingerprint`](AllocatorConfig::fingerprint). The
/// text is streamed into the hash, never built.
///
/// Stable across processes and runs: persisted store records and store
/// peers are addressed by it.
pub fn cache_key(func: &Function, config: &AllocatorConfig) -> u64 {
    let mut h = Fnv::new();
    write_canonical(&mut h, func).expect("hashing never fails");
    h.bytes(&config.fingerprint().to_le_bytes()).0
}

/// The memo key of one *raw request text* under a configuration: FNV-1a
/// over the submitted IR bytes extended with the configuration's
/// [`fingerprint`](AllocatorConfig::fingerprint) **and** its `max_passes`
/// bound.
///
/// Unlike [`cache_key`] this is not canonical — an α-renamed resubmission
/// gets a different text key — and it must fold in `max_passes` (which the
/// fingerprint deliberately excludes) because the bound decides whether a
/// cached result is servable at all. The payoff is that a byte-identical
/// resubmission is answered without parsing the IR or canonicalizing any
/// function: the editor-loop warm path costs one hash of the text.
pub fn text_key(ir: &str, config: &AllocatorConfig) -> u64 {
    Fnv::new()
        .bytes(ir.as_bytes())
        .bytes(&config.fingerprint().to_le_bytes())
        .bytes(&(config.max_passes as u64).to_le_bytes())
        .0
}

/// A sharded, bounded, least-recently-used map from [`cache_key`]s to
/// shared values.
#[derive(Debug)]
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard: usize,
    clock: AtomicU64,
}

#[derive(Debug)]
struct Shard<V> {
    entries: HashMap<u64, (Arc<V>, u64)>,
}

impl<V> ShardedLru<V> {
    /// A cache holding at most `capacity` entries across `shards` locks.
    /// Both are clamped to at least 1; per-shard capacity is rounded up so
    /// the total is never below `capacity`.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.max(1).div_ceil(shards);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                    })
                })
                .collect(),
            per_shard,
            clock: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        // Spread with a multiplicative mix so nearby keys land apart.
        let i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.shards.len();
        &self.shards[i]
    }

    /// Fetch `key`, refreshing its recency.
    pub fn get(&self, key: u64) -> Option<Arc<V>> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let (value, last_used) = shard.entries.get_mut(&key)?;
        *last_used = tick;
        Some(Arc::clone(value))
    }

    /// Insert `key → value`, evicting the shard's least-recently-used entry
    /// if it is full. Returns true if an entry was evicted.
    pub fn insert(&self, key: u64, value: Arc<V>) -> bool {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let fresh = !shard.entries.contains_key(&key);
        let mut evicted = false;
        if fresh && shard.entries.len() >= self.per_shard {
            if let Some((&victim, _)) = shard.entries.iter().min_by_key(|(_, (_, t))| *t) {
                shard.entries.remove(&victim);
                evicted = true;
            }
        }
        shard.entries.insert(key, (value, tick));
        evicted
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry capacity (per-shard bound × shard count).
    pub fn capacity(&self) -> usize {
        self.per_shard * self.shards.len()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_refreshes_recency() {
        // Single shard, capacity 2: touching `a` makes `b` the LRU victim.
        let lru: ShardedLru<&str> = ShardedLru::new(2, 1);
        let (a, b, c) = (1u64, 2u64, 3u64);
        lru.insert(a, Arc::new("a"));
        lru.insert(b, Arc::new("b"));
        assert!(lru.get(a).is_some());
        assert!(lru.insert(c, Arc::new("c")), "full shard must evict");
        assert!(lru.get(a).is_some(), "recently used survives");
        assert!(lru.get(b).is_none(), "least recently used is gone");
        assert!(lru.get(c).is_some());
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn reinserting_same_key_never_evicts() {
        let lru: ShardedLru<u32> = ShardedLru::new(2, 1);
        lru.insert(7, Arc::new(1));
        lru.insert(8, Arc::new(2));
        assert!(!lru.insert(7, Arc::new(3)), "overwrite is not an eviction");
        assert_eq!(*lru.get(7).unwrap(), 3);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn capacity_spreads_over_shards() {
        let lru: ShardedLru<u32> = ShardedLru::new(64, 8);
        assert_eq!(lru.capacity(), 64);
        assert_eq!(lru.num_shards(), 8);
        for k in 0..64u64 {
            lru.insert(k, Arc::new(k as u32));
        }
        // Unlucky sharding may evict within a hot shard, but the total can
        // never exceed the configured capacity.
        assert!(lru.len() <= 64);
        assert!(lru.len() > 32, "mixing should spread keys across shards");
    }
}
