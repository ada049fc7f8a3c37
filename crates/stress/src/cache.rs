//! Per-shard result cache: fingerprinted memoization of the scattered
//! partials of analytics requests.
//!
//! One [`ResultCache`] exists per shard and is shared by every replica
//! core serving that shard. [`CacheKey`] is **replica-agnostic** — it
//! captures `(workload, fingerprint, seed, scope)` and nothing about which
//! replica computed or looked up the entry — so an answer inserted via one
//! replica is a hit no matter where the routing policy sends the repeat,
//! and the hit/miss counters count each shard-level lookup exactly once.
//!
//! Every serving-path answer is a pure function of
//! `(workload, graph, seed)` (see [`vcgp_core::service::run_workload`]) and
//! a scattered leg's partial additionally of the shard's owned slice — both
//! captured by a [`CacheKey`] built on the stable
//! [`vcgp_core::fingerprint::graph_fingerprint`]. Repeated analytics
//! queries in a stress mix therefore never need to re-run the Pregel
//! engine: every replica core consults its shard's [`ResultCache`] at submit
//! time and answers hits without enqueueing, and executors insert every
//! freshly computed answer on the way out.
//!
//! **Eviction is a segmented LRU** (probation + protected), strictly
//! capacity-bounded in entries — the memory-efficiency posture iPregel
//! argues for, rather than an unbounded memo table:
//!
//! * a first-time key enters *probation*;
//! * a hit promotes the key to the *protected* segment (capped at
//!   `PROTECTED_NUM`/`PROTECTED_DEN` = 4/5 of capacity; overflow demotes the
//!   protected LRU back to probation rather than evicting it);
//! * at capacity, the probation LRU is evicted first, so a one-shot scan of
//!   fresh keys cannot flush the re-referenced working set.
//!
//! Recency is a logical access counter, **never a wall clock**: the same
//! request sequence produces the same hit/miss/eviction trace on any
//! machine at any speed, which is what lets `scripts/verify.sh` gate on
//! cache behaviour deterministically.
//!
//! Invalidation: [`ResultCache::invalidate_all`] drops every entry while
//! keeping the monotone counters. The serving layer calls it through
//! [`crate::shard::ShardedGraphService::invalidate_cache`], and the epoch
//! writer (see [`crate::epoch`]) now fires it after every snapshot swap.
//! Correctness never depended on it: cache keys derive from the request's
//! *pinned epoch* fingerprint (whole-graph and per-leg), so entries from
//! an older epoch can never be confused for current ones — the hook
//! reclaims their memory so dead fingerprints don't pin capacity.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vcgp_core::service::Partial;
use vcgp_core::Workload;

/// Protected-segment share of capacity: `PROTECTED_NUM / PROTECTED_DEN`
/// (the classic SLRU split — most of the cache is reserved for keys that
/// have proven a second reference).
const PROTECTED_NUM: usize = 4;
/// See [`PROTECTED_NUM`].
const PROTECTED_DEN: usize = 5;

/// What a cached value answers. Every analytics request reaches a shard
/// as a scattered leg (at one shard too), so a leg is the only scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheScope {
    /// One shard's owned-slice partial of a scattered workload. The
    /// fingerprint in the key is the
    /// [`leg_fingerprint`](vcgp_core::fingerprint::leg_fingerprint) of the
    /// full graph and the shard slice.
    Leg,
}

/// The identity of one memoizable serving-path computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The Table 1 workload.
    pub workload: Workload,
    /// What the value answers ([`CacheScope::Leg`]).
    pub scope: CacheScope,
    /// Graph identity: the leg fingerprint (full ⊕ slice).
    pub fingerprint: u64,
    /// The request seed (source-parameterized workloads derive their source
    /// from it, so it is part of the answer's identity).
    pub seed: u64,
}

/// A memoized serving-path result, cheap to clone (all scalars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CachedAnswer {
    /// A whole workload answer plus its run costs (the costs are part of
    /// the response contract, so they are memoized alongside the answer).
    /// The service itself caches only legs; this is for callers that use a
    /// [`ResultCache`] on its own.
    Whole {
        /// The workload's scalar answer.
        answer: u64,
        /// Supersteps of the (memoized) run.
        supersteps: u64,
        /// Messages of the (memoized) run.
        messages: u64,
    },
    /// One shard's owned-slice partial plus its run costs.
    Leg {
        /// The owned-slice partial.
        partial: Partial,
        /// Supersteps of the (memoized) run.
        supersteps: u64,
        /// Messages of the (memoized) run.
        messages: u64,
    },
}

/// Monotone cache counters plus the resident-size gauges, snapshot by
/// [`ResultCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (only *cacheable* requests count — point
    /// lookups never consult the cache).
    pub misses: u64,
    /// Entries inserted (first-time keys; re-inserting an existing key
    /// refreshes it without counting again).
    pub insertions: u64,
    /// Entries evicted at capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Approximate bytes held by resident entries (entry count times the
    /// fixed per-entry footprint — answers are scalars, so this is exact up
    /// to map overhead).
    pub resident_bytes: u64,
}

/// Fixed per-entry footprint estimate: key + value + recency bookkeeping +
/// a constant for the two index entries (hash map slot and recency-order
/// node). Values are scalar-only, so entries are genuinely fixed-size.
const fn entry_bytes() -> u64 {
    (std::mem::size_of::<CacheKey>()
        + std::mem::size_of::<Slot>()
        + std::mem::size_of::<(u64, CacheKey)>()
        + 48) as u64
}

/// One resident entry: the value plus its recency bookkeeping.
struct Slot {
    value: CachedAnswer,
    /// Logical access stamp; also the entry's key in its segment's
    /// recency order.
    tick: u64,
    /// Which segment the entry currently lives in.
    protected: bool,
}

struct Inner {
    map: HashMap<CacheKey, Slot>,
    /// Probation recency order: logical tick → key, oldest first.
    probation: BTreeMap<u64, CacheKey>,
    /// Protected recency order.
    protected: BTreeMap<u64, CacheKey>,
    /// Logical clock: bumped on every insert/touch, so recency is
    /// deterministic and wall-clock-free.
    tick: u64,
}

/// A capacity-bounded, segmented-LRU memo table for serving-path answers.
///
/// Thread-safe: lookups and inserts take one internal mutex (the critical
/// sections are a hash probe plus O(log capacity) order maintenance —
/// negligible next to the engine runs being memoized). Counters are atomic
/// and readable without the lock.
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
    protected_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache bounded to `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a disabled cache is expressed by not
    /// constructing one (see `ServiceConfig::cache_capacity`).
    pub fn new(capacity: usize) -> ResultCache {
        assert!(capacity >= 1, "cache capacity must be positive");
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                probation: BTreeMap::new(),
                protected: BTreeMap::new(),
                tick: 0,
            }),
            capacity,
            // At least one protected slot so tiny caches still promote.
            protected_capacity: (capacity * PROTECTED_NUM / PROTECTED_DEN).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks `key` up, counting a hit or miss. A hit refreshes the entry's
    /// recency and promotes it to the protected segment.
    pub fn get(&self, key: &CacheKey) -> Option<CachedAnswer> {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let Some(slot) = inner.map.get_mut(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let value = slot.value;
        // Detach from the current segment, restamp, re-attach as the
        // protected MRU.
        let old_tick = slot.tick;
        if slot.protected {
            inner.protected.remove(&old_tick);
        } else {
            inner.probation.remove(&old_tick);
        }
        inner.tick += 1;
        slot.tick = inner.tick;
        slot.protected = true;
        inner.protected.insert(inner.tick, *key);
        // Protected overflow demotes its LRU back to probation (keeping its
        // stamp, so it ages ahead of genuinely fresh probation entries).
        if inner.protected.len() > self.protected_capacity {
            let (&lru_tick, &lru_key) = inner.protected.iter().next().unwrap();
            inner.protected.remove(&lru_tick);
            inner.probation.insert(lru_tick, lru_key);
            inner.map.get_mut(&lru_key).unwrap().protected = false;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Inserts (or refreshes) `key`, evicting the probation LRU — or, when
    /// probation is empty, the protected LRU — once past capacity.
    pub fn insert(&self, key: CacheKey, value: CachedAnswer) {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.map.get_mut(&key) {
            // Refresh in place: same segment, new recency stamp. (The
            // deterministic engine recomputes identical values, so this is
            // a recency touch, not a data change.)
            let seg = if slot.protected {
                &mut inner.protected
            } else {
                &mut inner.probation
            };
            seg.remove(&slot.tick);
            seg.insert(tick, key);
            slot.tick = tick;
            slot.value = value;
            return;
        }
        inner.map.insert(
            key,
            Slot {
                value,
                tick,
                protected: false,
            },
        );
        inner.probation.insert(tick, key);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if inner.map.len() > self.capacity {
            let victim = inner
                .probation
                .iter()
                .next()
                .or_else(|| inner.protected.iter().next())
                .map(|(&t, &k)| (t, k))
                .expect("over-capacity cache cannot be empty");
            let slot = inner.map.remove(&victim.1).unwrap();
            if slot.protected {
                inner.protected.remove(&victim.0);
            } else {
                inner.probation.remove(&victim.0);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every entry (graph swap / re-shard hook). Monotone counters
    /// are kept; the resident gauges fall to zero.
    pub fn invalidate_all(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.probation.clear();
        inner.protected.clear();
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time snapshot of counters and resident gauges.
    pub fn stats(&self) -> CacheStats {
        let entries = self.len() as u64;
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            resident_bytes: entries * entry_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> CacheKey {
        CacheKey {
            workload: Workload::Sssp,
            scope: CacheScope::Leg,
            fingerprint: 0xF00D,
            seed,
        }
    }

    fn answer(x: u64) -> CachedAnswer {
        CachedAnswer::Whole {
            answer: x,
            supersteps: 3,
            messages: 17,
        }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = ResultCache::new(8);
        assert_eq!(c.get(&key(1)), None);
        c.insert(key(1), answer(42));
        assert_eq!(c.get(&key(1)), Some(answer(42)));
        assert_eq!(c.get(&key(2)), None, "different seed is a different key");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 2, 1, 0));
        assert_eq!(s.entries, 1);
        assert_eq!(s.resident_bytes, entry_bytes());
    }

    #[test]
    fn workload_and_fingerprint_separate_keys() {
        let c = ResultCache::new(8);
        let leg = key(7);
        let other_workload = CacheKey {
            workload: Workload::PageRank,
            ..leg
        };
        let other_graph = CacheKey {
            fingerprint: 0xBEEF,
            ..leg
        };
        c.insert(leg, answer(1));
        assert_eq!(c.get(&other_workload), None);
        assert_eq!(c.get(&other_graph), None);
        assert_eq!(c.get(&leg), Some(answer(1)));
    }

    #[test]
    fn capacity_is_a_hard_bound_and_eviction_is_lru() {
        let c = ResultCache::new(4);
        for i in 0..10 {
            c.insert(key(i), answer(i));
            assert!(c.len() <= 4, "resident {} exceeds capacity", c.len());
        }
        let s = c.stats();
        assert_eq!(s.insertions, 10);
        assert_eq!(s.evictions, 6);
        // The four youngest probation entries survive.
        for i in 0..6 {
            assert_eq!(c.get(&key(i)), None, "key {i} should have been evicted");
        }
        for i in 6..10 {
            assert_eq!(c.get(&key(i)), Some(answer(i)), "key {i} should survive");
        }
    }

    #[test]
    fn protected_segment_resists_a_one_shot_scan() {
        let c = ResultCache::new(4);
        // Establish a re-referenced working set of 2 (promoted to
        // protected by the hit).
        c.insert(key(100), answer(100));
        c.insert(key(101), answer(101));
        assert!(c.get(&key(100)).is_some());
        assert!(c.get(&key(101)).is_some());
        // A scan of 6 one-shot keys churns through probation only.
        for i in 0..6 {
            c.insert(key(i), answer(i));
        }
        assert_eq!(
            c.get(&key(100)),
            Some(answer(100)),
            "protected survived the scan"
        );
        assert_eq!(
            c.get(&key(101)),
            Some(answer(101)),
            "protected survived the scan"
        );
        assert!(c.len() <= 4);
    }

    #[test]
    fn eviction_trace_is_deterministic() {
        let run = || {
            let c = ResultCache::new(3);
            for i in 0..20u64 {
                if i % 3 == 0 {
                    let _ = c.get(&key(i % 7));
                }
                c.insert(key(i % 7), answer(i));
            }
            let resident: Vec<u64> = (0..7).filter(|&s| c.get(&key(s)).is_some()).collect();
            let st = c.stats();
            (resident, st.hits, st.misses, st.insertions, st.evictions)
        };
        assert_eq!(
            run(),
            run(),
            "same sequence, same trace — no wall clock involved"
        );
    }

    #[test]
    fn invalidate_all_empties_but_keeps_counters() {
        let c = ResultCache::new(8);
        c.insert(key(1), answer(1));
        assert!(c.get(&key(1)).is_some());
        c.invalidate_all();
        assert!(c.is_empty());
        assert_eq!(c.get(&key(1)), None, "invalidated entry is gone");
        let s = c.stats();
        assert_eq!(s.hits, 1, "monotone counters survive invalidation");
        assert_eq!(s.resident_bytes, 0);
        // The cache keeps working after invalidation.
        c.insert(key(2), answer(2));
        assert_eq!(c.get(&key(2)), Some(answer(2)));
    }

    #[test]
    fn refresh_does_not_double_count_insertions() {
        let c = ResultCache::new(4);
        c.insert(key(1), answer(1));
        c.insert(key(1), answer(1));
        let s = c.stats();
        assert_eq!(s.insertions, 1);
        assert_eq!(s.entries, 1);
    }
}
