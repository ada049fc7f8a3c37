//! The service's result cache: fingerprinted memoization of whole
//! analytics answers.
//!
//! One [`ResultCache`] exists per service. The router probes it **once per
//! analytics request**, on the submitting thread, before any leg is
//! fanned out; a hit is the whole answer and enqueues nothing. The leader
//! of the request's shared engine run (see [`crate::shard`]) fills it
//! **once**, with the gathered answer, before it answers any leg. The
//! [`CacheKey`] is `(workload, full epoch fingerprint, seed)` under
//! [`CacheScope::Whole`], so it names no shard and no replica: an answer
//! computed through any core serves every later request for the key, and
//! the hit/miss counters count each request exactly once.
//!
//! Every serving-path answer is a pure function of `(workload, graph,
//! seed)` (see [`vcgp_core::service::run_workload`]), and the scattered
//! legs of one request gather to exactly that answer at every shard count
//! (see [`vcgp_core::service::Partial`]), so the key needs no shard
//! identity. Repeated analytics queries in a stress mix therefore never
//! re-run the Pregel engine.
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
//! **The hit path is O(1) for a protected entry.** Entries live in a slab
//! (`Vec` plus free list) addressed by `u32` indices; the key map is a
//! `HashMap` with a multiply-xorshift hasher over the all-scalar key (it
//! never holds more than `capacity + 1` entries, so even colliding keys
//! cost O(capacity) probes). Every entry enters the protected segment with
//! the newest stamp, so protected recency is insertion order and lives in
//! an intrusive doubly-linked list through the slab: a hit is one hash
//! probe and a list splice. Probation keeps a `BTreeMap` from stamp to
//! slab index, because a demoted entry re-enters probation under its *old*
//! stamp and must age ahead of fresher probation entries. The counters sit
//! in the state the mutex guards, so a call writes nothing outside the
//! locked state, and [`ResultCache::stats`] is one consistent snapshot.
//!
//! Invalidation: [`ResultCache::invalidate_all`] drops every entry while
//! keeping the monotone counters. The serving layer calls it through
//! [`crate::shard::ShardedGraphService::invalidate_cache`], and the epoch
//! writer (see [`crate::epoch`]) fires it after every snapshot swap.
//! Correctness never depended on it: cache keys derive from the request's
//! *pinned epoch* fingerprint, so entries from an older epoch can never be
//! confused for current ones — the hook reclaims their memory so dead
//! fingerprints don't pin capacity.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;
use vcgp_core::Workload;

/// Protected-segment share of capacity: `PROTECTED_NUM / PROTECTED_DEN`
/// (the classic SLRU split — most of the cache is reserved for keys that
/// have proven a second reference).
const PROTECTED_NUM: usize = 4;
/// See [`PROTECTED_NUM`].
const PROTECTED_DEN: usize = 5;

/// What a cached value answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheScope {
    /// A whole workload answer, as the router returns it — the only scope
    /// the service keys with. The fingerprint in the key is the full
    /// graph's [`graph_fingerprint`](vcgp_core::fingerprint::graph_fingerprint)
    /// in the request's pinned epoch.
    Whole,
    /// One shard's slice of a scattered answer. The service does not
    /// cache per leg; the variant is kept only because the repo
    /// benchmark's cache probe (`benchmark/src/probes.rs`) keys with it.
    Leg,
}

/// The identity of one memoizable serving-path computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The Table 1 workload.
    pub workload: Workload,
    /// What the value answers ([`CacheScope::Whole`] in the service).
    pub scope: CacheScope,
    /// Graph identity: the full graph's fingerprint in the pinned epoch.
    pub fingerprint: u64,
    /// The request seed (source-parameterized workloads derive their source
    /// from it, so it is part of the answer's identity).
    pub seed: u64,
}

/// A memoized serving-path result, cheap to clone (all scalars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CachedAnswer {
    /// A whole workload answer plus its run costs (the costs are part of
    /// the response contract, so they are memoized alongside the answer):
    /// field for field the gathered [`crate::request::QueryOutput::Workload`].
    Whole {
        /// The workload's scalar answer.
        answer: u64,
        /// Supersteps of the (memoized) run.
        supersteps: u64,
        /// Messages of the (memoized) run, as the gather sums them.
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

/// Fixed per-entry footprint estimate: the slab entry (key, value, stamp,
/// list links), the hash-map slot (key, slab index and its one control
/// byte), a probation-order element (stamp and slab index; charged to every
/// entry, since any entry may sit in probation) and 16 bytes of map and
/// tree slack. Values are scalar-only, so entries are genuinely fixed-size.
const fn entry_bytes() -> u64 {
    (std::mem::size_of::<Entry>()
        + std::mem::size_of::<(CacheKey, u32)>()
        + 1
        + std::mem::size_of::<(u64, u32)>()
        + 16) as u64
}

/// Slab index meaning "no entry" (list ends).
const NIL: u32 = u32::MAX;

/// One resident entry: key, value and recency bookkeeping.
struct Entry {
    /// The entry's key, so eviction can remove it from the map.
    key: CacheKey,
    value: CachedAnswer,
    /// Logical access stamp; a probation entry's key in the probation order.
    tick: u64,
    /// Protected-list neighbours toward the LRU (`prev`) and the MRU
    /// (`next`); [`NIL`] at the ends and while in probation.
    prev: u32,
    next: u32,
    /// Which segment the entry currently lives in.
    protected: bool,
}

/// Multiply-xorshift hasher for [`CacheKey`]: every field is a scalar, so
/// each write folds one word in with a rotate and a multiply, and
/// `finish` spreads the bits over the whole word (the map takes its bucket
/// from the low bits and its tag from the high ones).
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.fold(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.fold(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^ (h >> 33)
    }
}

struct Inner {
    map: HashMap<CacheKey, u32, BuildHasherDefault<KeyHasher>>,
    slab: Vec<Entry>,
    /// Vacant slab indices.
    free: Vec<u32>,
    /// Probation recency order: logical tick → slab index, oldest first.
    probation: BTreeMap<u64, u32>,
    /// Protected recency order: the list's LRU and MRU ends.
    lru: u32,
    mru: u32,
    protected_len: usize,
    /// Logical clock: bumped on every insert/touch, so recency is
    /// deterministic and wall-clock-free.
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Inner {
    /// Detaches protected entry `i` from the list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let e = &self.slab[i as usize];
            (e.prev, e.next)
        };
        match prev {
            NIL => self.lru = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.mru = prev,
            n => self.slab[n as usize].prev = prev,
        }
        self.protected_len -= 1;
    }

    /// Attaches entry `i` as the protected MRU.
    fn push_mru(&mut self, i: u32) {
        let mru = self.mru;
        let e = &mut self.slab[i as usize];
        e.prev = mru;
        e.next = NIL;
        e.protected = true;
        match mru {
            NIL => self.lru = i,
            m => self.slab[m as usize].next = i,
        }
        self.mru = i;
        self.protected_len += 1;
    }

    /// Stores `entry` in a vacant slab slot.
    fn alloc(&mut self, entry: Entry) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = entry;
                i
            }
            None => {
                let i = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&i| i != NIL)
                    .expect("cache slab exceeds u32 indices");
                self.slab.push(entry);
                i
            }
        }
    }

    /// Removes entry `i` from its segment, the map and the slab.
    fn remove(&mut self, i: u32) {
        let (key, tick, protected) = {
            let e = &self.slab[i as usize];
            (e.key, e.tick, e.protected)
        };
        if protected {
            self.unlink(i);
        } else {
            self.probation.remove(&tick);
        }
        self.map.remove(&key);
        self.free.push(i);
    }
}

/// A capacity-bounded, segmented-LRU memo table for serving-path answers.
///
/// Thread-safe: every call takes one internal mutex. Under it a hit on a
/// protected entry is a hash probe plus an O(1) list splice; a probation
/// hit, an insert and an eviction add O(log capacity) probation-order edits
/// — negligible next to the engine runs being memoized. The counters live
/// under the same lock.
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
    protected_capacity: usize,
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
                map: HashMap::default(),
                slab: Vec::new(),
                free: Vec::new(),
                probation: BTreeMap::new(),
                lru: NIL,
                mru: NIL,
                protected_len: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
            }),
            capacity,
            // At least one protected slot so tiny caches still promote.
            protected_capacity: (capacity * PROTECTED_NUM / PROTECTED_DEN).max(1),
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
        let Some(&i) = inner.map.get(key) else {
            inner.misses += 1;
            return None;
        };
        inner.hits += 1;
        inner.tick += 1;
        let tick = inner.tick;
        let e = &mut inner.slab[i as usize];
        let value = e.value;
        let old_tick = std::mem::replace(&mut e.tick, tick);
        if e.protected {
            // Restamp and re-attach as the protected MRU.
            if inner.mru != i {
                inner.unlink(i);
                inner.push_mru(i);
            }
            return Some(value);
        }
        inner.probation.remove(&old_tick);
        inner.push_mru(i);
        // Protected overflow demotes its LRU back to probation (keeping its
        // stamp, so it ages ahead of genuinely fresh probation entries).
        if inner.protected_len > self.protected_capacity {
            let lru = inner.lru;
            inner.unlink(lru);
            let e = &mut inner.slab[lru as usize];
            e.protected = false;
            inner.probation.insert(e.tick, lru);
        }
        Some(value)
    }

    /// Inserts (or refreshes) `key`, evicting the probation LRU — or, when
    /// probation is empty, the protected LRU — once past capacity.
    pub fn insert(&self, key: CacheKey, value: CachedAnswer) {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(&i) = inner.map.get(&key) {
            // Refresh in place: same segment, new recency stamp. (The
            // deterministic engine recomputes identical values, so this is
            // a recency touch, not a data change.)
            let e = &mut inner.slab[i as usize];
            e.value = value;
            let old_tick = std::mem::replace(&mut e.tick, tick);
            if e.protected {
                inner.unlink(i);
                inner.push_mru(i);
            } else {
                inner.probation.remove(&old_tick);
                inner.probation.insert(tick, i);
            }
            return;
        }
        let i = inner.alloc(Entry {
            key,
            value,
            tick,
            prev: NIL,
            next: NIL,
            protected: false,
        });
        inner.map.insert(key, i);
        inner.probation.insert(tick, i);
        inner.insertions += 1;
        if inner.map.len() > self.capacity {
            let victim = match inner.probation.first_key_value() {
                Some((_, &v)) => v,
                None => inner.lru,
            };
            inner.remove(victim);
            inner.evictions += 1;
        }
    }

    /// Drops every entry (graph swap / re-shard hook). Monotone counters
    /// are kept; the resident gauges fall to zero.
    pub fn invalidate_all(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.slab.clear();
        inner.free.clear();
        inner.probation.clear();
        inner.lru = NIL;
        inner.mru = NIL;
        inner.protected_len = 0;
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time snapshot of counters and resident gauges, read under
    /// one lock.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        let entries = inner.map.len() as u64;
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            entries,
            resident_bytes: entries * entry_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vcgp_testkit::prop::{Source, Strategy};
    use vcgp_testkit::{prop_assert_eq, vcgp_props};

    fn key(seed: u64) -> CacheKey {
        CacheKey {
            workload: Workload::Sssp,
            scope: CacheScope::Whole,
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

    /// The reference SLRU: the same policy held as two `BTreeMap`
    /// recency orders (tick → key), one per segment, with the O(log n)
    /// edits the slab and list replace.
    struct Model {
        map: HashMap<CacheKey, (CachedAnswer, u64, bool)>,
        probation: BTreeMap<u64, CacheKey>,
        protected: BTreeMap<u64, CacheKey>,
        tick: u64,
        capacity: usize,
        protected_capacity: usize,
        stats: CacheStats,
    }

    impl Model {
        fn new(capacity: usize) -> Model {
            Model {
                map: HashMap::new(),
                probation: BTreeMap::new(),
                protected: BTreeMap::new(),
                tick: 0,
                capacity,
                protected_capacity: (capacity * PROTECTED_NUM / PROTECTED_DEN).max(1),
                stats: CacheStats::default(),
            }
        }

        fn get(&mut self, key: &CacheKey) -> Option<CachedAnswer> {
            let Some(&(value, old_tick, protected)) = self.map.get(key) else {
                self.stats.misses += 1;
                return None;
            };
            if protected {
                self.protected.remove(&old_tick);
            } else {
                self.probation.remove(&old_tick);
            }
            self.tick += 1;
            self.map.insert(*key, (value, self.tick, true));
            self.protected.insert(self.tick, *key);
            if self.protected.len() > self.protected_capacity {
                let (lru_tick, lru_key) = self.protected.pop_first().unwrap();
                self.probation.insert(lru_tick, lru_key);
                self.map.get_mut(&lru_key).unwrap().2 = false;
            }
            self.stats.hits += 1;
            Some(value)
        }

        fn insert(&mut self, key: CacheKey, value: CachedAnswer) {
            self.tick += 1;
            let tick = self.tick;
            if let Some(slot) = self.map.get_mut(&key) {
                let seg = if slot.2 {
                    &mut self.protected
                } else {
                    &mut self.probation
                };
                seg.remove(&slot.1);
                seg.insert(tick, key);
                *slot = (value, tick, slot.2);
                return;
            }
            self.map.insert(key, (value, tick, false));
            self.probation.insert(tick, key);
            self.stats.insertions += 1;
            if self.map.len() > self.capacity {
                let (_, victim) = self
                    .probation
                    .pop_first()
                    .or_else(|| self.protected.pop_first())
                    .unwrap();
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
        }

        fn invalidate_all(&mut self) {
            self.map.clear();
            self.probation.clear();
            self.protected.clear();
        }

        fn stats(&self) -> CacheStats {
            let entries = self.map.len() as u64;
            CacheStats {
                entries,
                resident_bytes: entries * entry_bytes(),
                ..self.stats
            }
        }

        fn resident_seeds(&self) -> Vec<u64> {
            let mut seeds: Vec<u64> = self.map.keys().map(|k| k.seed).collect();
            seeds.sort_unstable();
            seeds
        }
    }

    fn resident_seeds(c: &ResultCache) -> Vec<u64> {
        let mut seeds: Vec<u64> = c.inner.lock().unwrap().map.keys().map(|k| k.seed).collect();
        seeds.sort_unstable();
        seeds
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Insert key `.0` (fresh or a refresh) with answer `.1`.
        Insert(u64, u64),
        Get(u64),
        InvalidateAll,
    }

    /// A capacity in 1..=8 and up to 96 operations over 16 keys; one draw
    /// in 32 is an `invalidate_all`, the rest split between gets and
    /// inserts.
    struct Script;

    impl Strategy for Script {
        type Value = (usize, Vec<Op>);
        fn generate(&self, src: &mut Source) -> Self::Value {
            let capacity = 1 + src.next_below(8) as usize;
            let len = src.next_below(97) as usize;
            let ops = (0..len as u64)
                .map(|step| match src.next_below(32) {
                    0 => Op::InvalidateAll,
                    1..=15 => Op::Get(src.next_below(16)),
                    _ => Op::Insert(src.next_below(16), step),
                })
                .collect();
            (capacity, ops)
        }
    }

    vcgp_props! {
        #![cases(256)]

        // The slab-and-list cache replays the reference SLRU exactly:
        // every lookup, every counter and the resident set after every
        // step.
        fn matches_the_reference_slru(script in Script) {
            let (capacity, ops) = script;
            let cache = ResultCache::new(capacity);
            let mut model = Model::new(capacity);
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    Op::Insert(k, x) => {
                        cache.insert(key(k), answer(x));
                        model.insert(key(k), answer(x));
                    }
                    Op::Get(k) => {
                        prop_assert_eq!(cache.get(&key(k)), model.get(&key(k)), "step {step}: {op:?}");
                    }
                    Op::InvalidateAll => {
                        cache.invalidate_all();
                        model.invalidate_all();
                    }
                }
                prop_assert_eq!(cache.stats(), model.stats(), "step {step}: {op:?}");
                prop_assert_eq!(resident_seeds(&cache), model.resident_seeds(), "step {step}: {op:?}");
            }
        }
    }

    #[test]
    fn concurrent_use_keeps_the_counter_identities() {
        const THREADS: u64 = 4;
        const CALLS: u64 = 20_000;
        let c = Arc::new(ResultCache::new(8));
        let gets: u64 = (0..THREADS)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut src = Source::new(t);
                    let mut gets = 0;
                    for _ in 0..CALLS {
                        let k = key(src.next_below(24));
                        if src.next_below(2) == 0 {
                            let _ = c.get(&k);
                            gets += 1;
                        } else {
                            c.insert(k, answer(k.seed));
                        }
                    }
                    gets
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        let s = c.stats();
        assert!(s.entries <= 8, "resident {} exceeds capacity", s.entries);
        assert_eq!(s.hits + s.misses, gets);
        assert_eq!(s.insertions - s.evictions, s.entries);
    }
}
