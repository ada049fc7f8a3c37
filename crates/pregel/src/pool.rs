//! Message-plane buffer recycling and sender-side combining support.
//!
//! The engine's hot path moves three kinds of buffers every superstep:
//! per-destination-worker outgoing lanes, the outbox slots they are shipped
//! through, and per-vertex inboxes. Before this module existed, every one
//! of them was reallocated from zero capacity each superstep. The recycling
//! scheme is a degenerate free-list with exactly one parked buffer per
//! outbox slot, circulated by `mem::swap`:
//!
//! 1. the sender swaps its full lane into the outbox slot and keeps the
//!    empty (but capacity-carrying) vector the receiver left there;
//! 2. the receiver drains the slot in place, so the emptied vector keeps
//!    its capacity where it is, for the sender's next flush — each lane
//!    alternates between two buffers;
//! 3. a worker's lane to itself is never shipped: the worker's delivery
//!    drains it in place, at its own position in sender order, and the
//!    one buffer is refilled next superstep (at one worker, every message
//!    lives in that one buffer);
//! 4. inboxes are `clear()`ed after `compute` instead of being dropped, so
//!    their capacity survives into the next delivery phase.
//!
//! After the first superstep the cycle is closed: no message-path buffer
//! is allocated again. [`BufferCounters`] observes the invariant (and the
//! warmup) and is surfaced per superstep as
//! [`crate::metrics::BufferStats`]; the own lane counts as recycled
//! whenever it carries mail.
//!
//! The sender-side combining index maps a destination vertex to its
//! position in the sender's lane, generation-stamped so clearing between
//! supersteps is O(1). Two variants share that contract: [`DirectTable`]
//! (one slot per graph vertex — a single indexed load per send, used up to
//! [`DIRECT_INDEX_MAX_VERTICES`]) and [`DestTable`] (open addressing,
//! memory proportional to distinct destinations, for graphs beyond the
//! direct limit). Lookups resolve in lane push order, so combining folds
//! messages in exactly the order they were sent — keeping the engine's
//! documented determinism.

use vcgp_graph::VertexId;

/// One `outboxes[sender][receiver]` slot: the shipped messages plus how
/// many algorithm-level sends were folded into them at the sender (so the
/// receiver can report `r_i` pre-combine, per its documented meaning).
pub(crate) struct OutboxSlot<M> {
    pub(crate) msgs: Vec<(VertexId, M)>,
    pub(crate) folded: u64,
}

impl<M> Default for OutboxSlot<M> {
    fn default() -> Self {
        OutboxSlot {
            msgs: Vec::new(),
            folded: 0,
        }
    }
}

/// Counts message-path buffer acquisitions: `recycled` when a buffer with
/// live capacity came back through the swap cycle, `allocated` when a
/// fresh zero-capacity vector had to enter circulation (startup, or a lane
/// used for the first time).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BufferCounters {
    pub(crate) allocated: u64,
    pub(crate) recycled: u64,
}

impl BufferCounters {
    /// Records one buffer entering service with `capacity` message slots.
    #[inline]
    pub(crate) fn note(&mut self, capacity: usize) {
        if capacity > 0 {
            self.recycled += 1;
        } else {
            self.allocated += 1;
        }
    }
}

/// Largest vertex count for which sender-side combining uses the
/// direct-mapped [`DirectTable`] (8 MiB of index per worker at the limit);
/// larger graphs fall back to the open-addressing [`DestTable`] per lane.
pub(crate) const DIRECT_INDEX_MAX_VERTICES: usize = 1 << 20;

/// Direct-mapped variant of [`DestTable`]: one generation-stamped slot per
/// *graph vertex*, so a lookup is a single indexed load with no hashing,
/// probing, or growth checks. One instance serves all of a worker's lanes
/// (a destination vertex determines its lane uniquely), allocated once at
/// startup — the memory is what [`DIRECT_INDEX_MAX_VERTICES`] bounds.
pub(crate) struct DirectTable {
    /// `generation << 32 | lane_index`; a slot whose generation differs
    /// from [`DirectTable::gen`] is empty this superstep.
    slots: Vec<u64>,
    gen: u64,
}

impl DirectTable {
    pub(crate) fn new(num_vertices: usize) -> Self {
        DirectTable {
            slots: vec![0; num_vertices],
            gen: 1,
        }
    }

    /// Starts a new superstep: every slot becomes logically empty.
    #[inline]
    pub(crate) fn advance(&mut self) {
        self.gen += 1;
        if self.gen >= u32::MAX as u64 {
            self.reset();
        }
    }

    /// Re-zeroes the backing store when the 32-bit generation space is
    /// exhausted (once every ~4 billion supersteps).
    #[cold]
    fn reset(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = 0);
        self.gen = 1;
    }

    /// Returns the lane index recorded for `key` this superstep, or
    /// records `next` (the position the caller is about to push) and
    /// returns `None`.
    #[inline]
    pub(crate) fn find_or_insert(&mut self, key: VertexId, next: usize) -> Option<usize> {
        debug_assert!(next < u32::MAX as usize, "lane overflows direct table");
        let s = &mut self.slots[key as usize];
        if *s >> 32 == self.gen {
            Some((*s & 0xFFFF_FFFF) as usize)
        } else {
            *s = (self.gen << 32) | next as u64;
            None
        }
    }
}

/// Number of lane entries per occupied table slot above which the table
/// grows (load factor 7/8).
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

/// Open-addressing map from destination vertex id to an index in the
/// owning lane's message buffer. Slots are stamped with a generation so
/// starting a new superstep is a counter bump, not a table clear; the
/// backing storage is retained for the whole run.
pub(crate) struct DestTable {
    /// `generation << 32 | (lane_index + 1)`; a slot whose generation
    /// differs from [`DestTable::gen`] is empty this superstep.
    slots: Vec<u64>,
    /// `slots.len() - 1`, cached: the probe sequence runs once per send.
    mask: usize,
    /// Entry count at which the table grows (load factor 7/8), cached so
    /// the per-send check is one comparison instead of two multiplies.
    grow_at: usize,
    gen: u64,
    /// Entries recorded this superstep.
    len: usize,
}

impl DestTable {
    pub(crate) fn new() -> Self {
        DestTable {
            slots: Vec::new(),
            mask: 0,
            grow_at: 0,
            gen: 0,
            len: 0,
        }
    }

    /// Starts a new superstep: every slot becomes logically empty.
    #[inline]
    pub(crate) fn advance(&mut self) {
        self.gen += 1;
        self.len = 0;
    }

    #[inline]
    fn hash(&self, key: VertexId) -> usize {
        // Fibonacci hashing; the high bits are the well-mixed ones.
        let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.mask
    }

    /// Looks up `key` among this superstep's entries of `lane`. Returns the
    /// lane index of an existing entry, or records `lane.len()` as the
    /// position the caller is about to push and returns `None`.
    #[inline]
    pub(crate) fn find_or_insert<M>(
        &mut self,
        key: VertexId,
        lane: &[(VertexId, M)],
    ) -> Option<usize> {
        if self.len >= self.grow_at {
            self.grow(lane);
        }
        let tag = self.gen << 32;
        let mut i = self.hash(key);
        loop {
            let s = self.slots[i];
            if s >> 32 != self.gen {
                debug_assert!(lane.len() < u32::MAX as usize, "lane overflows dest table");
                self.slots[i] = tag | (lane.len() as u64 + 1);
                self.len += 1;
                return None;
            }
            let idx = (s & 0xFFFF_FFFF) as usize - 1;
            if lane[idx].0 == key {
                return Some(idx);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Doubles the table (min 64 slots) and re-indexes this superstep's
    /// lane entries; their keys are unique by construction.
    #[cold]
    fn grow<M>(&mut self, lane: &[(VertexId, M)]) {
        let new_len = (self.slots.len() * 2).max(64);
        self.slots.clear();
        self.slots.resize(new_len, 0);
        self.mask = new_len - 1;
        self.grow_at = new_len / LOAD_DEN * LOAD_NUM;
        // Re-stamp under a fresh generation so stale pre-grow slots (all
        // zero now) can never alias.
        self.gen += 1;
        let tag = self.gen << 32;
        for (idx, (key, _)) in lane.iter().enumerate() {
            let mut i = self.hash(*key);
            while self.slots[i] >> 32 == self.gen {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = tag | (idx as u64 + 1);
        }
    }
}

/// One per-destination-worker outgoing buffer: the addressed messages, the
/// sender-side combining index over them, and the fold count shipped to
/// the receiver alongside the messages.
pub(crate) struct Lane<M> {
    pub(crate) buf: Vec<(VertexId, M)>,
    pub(crate) folded: u64,
    pub(crate) table: DestTable,
}

impl<M> Lane<M> {
    pub(crate) fn new() -> Self {
        Lane {
            buf: Vec::new(),
            folded: 0,
            table: DestTable::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_table_finds_duplicates_in_push_order() {
        let mut t = DestTable::new();
        let mut lane: Vec<(VertexId, u64)> = Vec::new();
        for &(key, val) in &[(5, 10), (9, 20), (5, 30), (1, 40), (9, 50), (5, 60)] {
            match t.find_or_insert(key, &lane) {
                Some(i) => lane[i].1 += val,
                None => lane.push((key, val)),
            }
        }
        assert_eq!(lane, vec![(5, 100), (9, 70), (1, 40)]);
    }

    #[test]
    fn dest_table_advance_empties_logically() {
        let mut t = DestTable::new();
        let mut lane: Vec<(VertexId, u32)> = Vec::new();
        assert!(t.find_or_insert(3, &lane).is_none());
        lane.push((3, 1));
        assert_eq!(t.find_or_insert(3, &lane), Some(0));
        t.advance();
        lane.clear();
        // Same key is unknown again in the new superstep.
        assert!(t.find_or_insert(3, &lane).is_none());
        lane.push((3, 2));
        assert_eq!(t.find_or_insert(3, &lane), Some(0));
    }

    #[test]
    fn dest_table_survives_growth() {
        let mut t = DestTable::new();
        let mut lane: Vec<(VertexId, u64)> = Vec::new();
        // Insert enough distinct keys to force several growths, then check
        // every key still resolves to its own slot.
        for key in 0..500u32 {
            assert!(t.find_or_insert(key, &lane).is_none(), "key {key} fresh");
            lane.push((key, key as u64));
        }
        for key in 0..500u32 {
            assert_eq!(t.find_or_insert(key, &lane), Some(key as usize));
        }
    }

    #[test]
    fn direct_table_roundtrip_and_advance() {
        let mut t = DirectTable::new(8);
        assert!(t.find_or_insert(3, 0).is_none());
        assert!(t.find_or_insert(5, 1).is_none());
        assert_eq!(t.find_or_insert(3, 99), Some(0));
        assert_eq!(t.find_or_insert(5, 99), Some(1));
        t.advance();
        // All slots are logically empty again in the new superstep.
        assert!(t.find_or_insert(3, 7).is_none());
        assert_eq!(t.find_or_insert(3, 99), Some(7));
    }

    #[test]
    fn direct_table_generation_wrap_resets() {
        let mut t = DirectTable::new(4);
        t.gen = u32::MAX as u64 - 1;
        assert!(t.find_or_insert(2, 5).is_none());
        assert_eq!(t.find_or_insert(2, 0), Some(5));
        t.advance(); // crosses the wrap threshold and re-zeroes
        assert_eq!(t.gen, 1);
        assert!(t.find_or_insert(2, 1).is_none());
        assert_eq!(t.find_or_insert(2, 0), Some(1));
    }

    #[test]
    fn buffer_counters_classify_by_capacity() {
        let mut c = BufferCounters::default();
        c.note(0);
        c.note(16);
        c.note(8);
        assert_eq!(c.allocated, 1);
        assert_eq!(c.recycled, 2);
    }
}
