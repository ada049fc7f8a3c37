//! Epoch-versioned graph snapshots: the live-mutation subsystem.
//!
//! Production graphs are not static. This module turns the frozen serving
//! stack into a *multi-version* one: the resident graph becomes a sequence
//! of immutable [`EpochSnapshot`]s with monotonically increasing epoch ids.
//! Queries pin the current snapshot at submission and run against it to
//! completion — even while a writer is already installing the next epoch —
//! so every answer is internally consistent with exactly one version of the
//! graph (*snapshot isolation*), and scattered analytics legs all see the
//! same version because the router stamps one snapshot across the fan-out.
//!
//! Writes flow through the [`EpochManager`]:
//!
//! * [`EpochManager::accept`] appends a [`Mutation`] to a **bounded write
//!   buffer** (backpressure when full, like the query queue under
//!   [`crate::service::QueueFullPolicy::Block`]);
//! * a dedicated writer thread drains the buffer in batches (at most
//!   [`MutationConfig::max_batch`] per epoch), builds epoch *N+1* off the
//!   serving path via the service's `EpochRebuild` backend (incremental CSR splice —
//!   see [`vcgp_graph::apply_batch`] / [`vcgp_graph::splice_slice`] — not a
//!   from-scratch rebuild when the delta is small), then **swaps
//!   atomically** and fires the result-cache invalidation hook;
//! * in-flight queries keep serving from their pinned epoch; new
//!   submissions pick up the fresh one. The serving epoch is held once per
//!   submit stripe (an [`EpochPin`] each): a submitter pins through its own
//!   stripe, so pinning is not a write two clients share; a swap replaces
//!   every stripe's pin, and an old snapshot dies when the last request
//!   pinned to it is dropped.
//!
//! Replicated shards change nothing about versioning: every replica core of
//! a shard serves the same `Arc<EpochSnapshot>` and shard slice, a swap
//! installs the new snapshot once per *shard* (replicas observe it through
//! the shared pointer, never one replica at a time), and the invalidation
//! hook clears the service's one result cache once — no shard or replica
//! has a cache of its own, so there is no per-replica staleness window for
//! the routing policy to expose.
//!
//! Cache correctness is belt *and* suspenders: every epoch recomputes the
//! order-independent graph fingerprint, so a stale entry can never
//! alias a new epoch's answer even without invalidation — the invalidation
//! at swap (the hook `cache.rs` reserved for exactly this) just stops dead
//! entries from pinning capacity.
//!
//! Freshness is measured, not assumed: the manager keeps mergeable
//! log-bucketed histograms of the **swap pause** (the serving-visible
//! window: pointer swap + cache invalidation; the rebuild itself happens
//! before, off the serving path), the **write-apply latency** (accept →
//! installed, per mutation), and the **freshness lag** (how stale the
//! serving epoch is relative to the newest accepted mutation, sampled at
//! each swap). [`EpochManager::writer_baseline`] snapshots the counters and
//! resets the histograms atomically, so the stress driver's `--repeat`
//! passes each report exactly their own run.
//!
//! The seeded mutation stream ([`mutation_op`]) is a pure
//! `(seed, index) → Mutation` function like the query mix, so a fixed seed
//! reproduces the exact write sequence regardless of client interleaving.

use crate::service::SubmitError;
use crate::stripe::{submit_stripe, SUBMIT_STRIPES};
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vcgp_graph::rng::mix3;
use vcgp_graph::{ApplyStats, Graph, Mutation, SplitMix64, VertexId};
use vcgp_testkit::LogHistogram;

/// Domain separator for the mutation stream.
pub const MUT_STREAM: u64 = 0x4D55_5453; // "MUTS"

/// One shard's slice of an epoch: the local subgraph the shard answers
/// point lookups from. Immutable once built, shared via [`Arc`].
#[derive(Debug)]
pub struct ShardSlice {
    /// The shard-local directed CSR slice (owned out-adjacency over the
    /// full vertex-id space).
    pub local: Graph,
    /// Vertices this shard owns in this epoch.
    pub owned: usize,
}

/// One immutable version of the resident graph. Queries pin the snapshot
/// current at submission; the writer installs successors with `id + 1`.
#[derive(Debug)]
pub struct EpochSnapshot {
    /// Monotone epoch id (0 = the initially loaded graph).
    pub id: u64,
    /// The full structural graph of this epoch.
    pub graph: Arc<Graph>,
    /// Order-independent structural fingerprint of `graph`: the epoch's
    /// part of every run and result-cache key.
    pub fingerprint: u64,
    /// Per-shard slices, one per shard of the service (index = shard).
    pub locals: Vec<Arc<ShardSlice>>,
}

/// A request's hold on the epoch it was submitted under: what
/// [`EpochManager::pin`] hands out and [`QueryRequest::epoch`] carries, one
/// per request, shared by all legs of a scatter. It dereferences to the
/// pinned [`EpochSnapshot`].
///
/// The indirection exists for its **refcount**. Every stripe of the
/// manager owns its *own* `Arc<EpochPin>` allocation per installed epoch,
/// and a submitting thread clones (and, for a request answered at submit,
/// drops) the one of its stripe — so the counter a client bumps twice per
/// request is its stripe's, on a cache line no other stripe writes, while
/// the `Arc<EpochSnapshot>` inside, shared by every stripe, is counted
/// once per stripe per epoch instead of once per request. The snapshot is
/// freed when the last pin on it goes: the slots' pins at the next swap,
/// a request's when the request is answered and dropped.
///
/// Aligned to 128 bytes (the spatial-prefetcher pair of 64-byte lines on
/// x86) so that the counts of two stripes' pins, allocated back to back at
/// a swap, never share a line.
///
/// [`QueryRequest::epoch`]: crate::request::QueryRequest::epoch
#[derive(Debug)]
#[repr(align(128))]
pub struct EpochPin {
    snapshot: Arc<EpochSnapshot>,
}

impl EpochPin {
    /// A fresh pin allocation on `snapshot` (one per stripe per epoch).
    fn new(snapshot: &Arc<EpochSnapshot>) -> Arc<EpochPin> {
        Arc::new(EpochPin {
            snapshot: Arc::clone(snapshot),
        })
    }

    /// The pinned snapshot, as the shared handle (clone it to keep the
    /// epoch alive beyond the request).
    pub fn snapshot(&self) -> &Arc<EpochSnapshot> {
        &self.snapshot
    }
}

impl Deref for EpochPin {
    type Target = EpochSnapshot;

    fn deref(&self) -> &EpochSnapshot {
        &self.snapshot
    }
}

/// One stripe of the serving epoch: the pin the submitting threads of this
/// stripe clone. Padded like [`EpochPin`], so taking one stripe's lock
/// writes no line another stripe's submitters read.
#[repr(align(128))]
struct PinSlot(Mutex<Arc<EpochPin>>);

impl PinSlot {
    fn lock(&self) -> MutexGuard<'_, Arc<EpochPin>> {
        self.0
            .lock()
            .expect("no holder of a pin slot can panic: it clones or swaps a pointer")
    }
}

/// Tuning knobs of the mutation subsystem. Present in
/// [`crate::service::ServiceConfig::mutations`] — `None` keeps the service
/// read-only (the pre-epoch behavior, with zero write-path overhead beyond
/// an `Arc` clone per submit).
#[derive(Debug, Clone)]
pub struct MutationConfig {
    /// Write-buffer capacity; at this many pending mutations
    /// [`EpochManager::accept`] blocks the writer client (backpressure).
    pub write_buffer: usize,
    /// Most mutations drained into a single epoch rebuild. Small batches
    /// bound freshness lag; large ones amortize the rebuild.
    pub max_batch: usize,
    /// Retain every installed snapshot (epoch 0 included) for
    /// [`EpochManager::history`]. Test instrumentation — unbounded, so
    /// keep it off outside tests.
    pub keep_history: bool,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            write_buffer: 1024,
            max_batch: 64,
            keep_history: false,
        }
    }
}

/// Writer-side counters (monotone except the gauges; read with
/// [`EpochManager::writer_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Id of the epoch currently serving (a gauge).
    pub epoch: u64,
    /// Epoch swaps installed.
    pub swaps: u64,
    /// Mutations accepted into the write buffer.
    pub accepted: u64,
    /// Mutations that changed the graph when applied.
    pub applied: u64,
    /// Mutations that were guard-rejected no-ops (duplicate insert,
    /// delete-of-missing, self-loop, reweight on an unweighted graph, …).
    pub noops: u64,
    /// Accepted mutations not yet installed in a serving epoch (a gauge:
    /// buffer backlog plus any batch mid-rebuild).
    pub pending: u64,
}

impl WriterStats {
    /// The counters accumulated *since* `earlier` (monotone counters
    /// subtract; the `epoch` and `pending` gauges keep their current
    /// values). The writer-side analogue of
    /// [`crate::service::ServiceStats::delta_since`], so `--repeat` passes
    /// don't double-count mutations.
    pub fn delta_since(&self, earlier: &WriterStats) -> WriterStats {
        WriterStats {
            epoch: self.epoch,
            swaps: self.swaps - earlier.swaps,
            accepted: self.accepted - earlier.accepted,
            applied: self.applied - earlier.applied,
            noops: self.noops - earlier.noops,
            pending: self.pending,
        }
    }
}

/// Counters plus the freshness histograms, as reported to the stress
/// driver. Histogram counts tie to the counters by construction:
/// `swap_pause.count() == stats.swaps == freshness_lag.count()` and
/// `write_apply.count() == stats.applied + stats.noops` (both are updated
/// under one lock, and [`EpochManager::writer_baseline`] resets them under
/// the same lock).
#[derive(Debug, Clone, Default)]
pub struct WriterReport {
    /// The counter snapshot.
    pub stats: WriterStats,
    /// Serving-visible pause per swap in nanoseconds: atomic pointer swap
    /// plus cache invalidation (the rebuild runs before, off the serving
    /// path).
    pub swap_pause: LogHistogram,
    /// Accept → installed latency per mutation, in nanoseconds.
    pub write_apply: LogHistogram,
    /// Staleness of the just-installed epoch at each swap, in nanoseconds:
    /// age of the oldest still-pending accept if a backlog remains, else
    /// age of the newest mutation the swap installed.
    pub freshness_lag: LogHistogram,
}

/// A mutation waiting in the write buffer, stamped with its accept time so
/// apply latency and freshness lag are measurable.
struct PendingWrite {
    mutation: Mutation,
    accepted_at: Instant,
}

struct WriteQueue {
    pending: VecDeque<PendingWrite>,
    closed: bool,
}

/// Counters and histograms that must move together: updated and reset
/// under one lock so the histogram-count identities in [`WriterReport`]
/// hold at every observable instant.
#[derive(Default)]
struct WriterProgress {
    swaps: u64,
    applied: u64,
    noops: u64,
    swap_pause: LogHistogram,
    write_apply: LogHistogram,
    freshness_lag: LogHistogram,
}

/// The multi-version state of a service: the current [`EpochSnapshot`]
/// plus, when mutations are enabled, the bounded write buffer the writer
/// thread drains. Shared between submitters (pin + accept), executors
/// (through pinned requests), and the writer (drain + swap).
pub struct EpochManager {
    /// The serving epoch, once per submit stripe (index =
    /// [`submit_stripe`]). Only the writer stores, every slot at each swap;
    /// between swaps all slots pin the same snapshot.
    slots: [PinSlot; SUBMIT_STRIPES],
    /// The serving epoch's id mirrored outside the slots, stored after the
    /// last slot: stats never nest a slot lock under the progress lock, and
    /// reading `k` here means every slot already serves an epoch `≥ k`.
    epoch_id: AtomicU64,
    writable: bool,
    queue: Mutex<WriteQueue>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    max_batch: usize,
    accepted: AtomicU64,
    progress: Mutex<WriterProgress>,
    /// Every installed snapshot, oldest first (epoch 0 included), when
    /// [`MutationConfig::keep_history`] is set.
    history: Option<Mutex<Vec<Arc<EpochSnapshot>>>>,
}

impl EpochManager {
    /// Wraps `initial` as the serving epoch. With `mutations: None` the
    /// manager is read-only: [`EpochManager::accept`] fails with
    /// [`SubmitError::ReadOnly`] and no write buffer exists.
    pub(crate) fn new(initial: EpochSnapshot, mutations: Option<&MutationConfig>) -> EpochManager {
        let initial = Arc::new(initial);
        let history = mutations
            .filter(|m| m.keep_history)
            .map(|_| Mutex::new(vec![Arc::clone(&initial)]));
        EpochManager {
            epoch_id: AtomicU64::new(initial.id),
            slots: std::array::from_fn(|_| PinSlot(Mutex::new(EpochPin::new(&initial)))),
            writable: mutations.is_some(),
            queue: Mutex::new(WriteQueue {
                pending: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: mutations.map_or(0, |m| m.write_buffer.max(1)),
            max_batch: mutations.map_or(1, |m| m.max_batch.max(1)),
            accepted: AtomicU64::new(0),
            progress: Mutex::new(WriterProgress::default()),
            history,
        }
    }

    /// Pins the serving epoch for one request: a clone of the calling
    /// thread's stripe's [`EpochPin`]. The lock taken and the count bumped
    /// are that stripe's alone, so concurrent submitters on different
    /// stripes write no common cache line.
    ///
    /// **Ordering.** Pins on one thread never go back an epoch. Pins on
    /// *different* threads are not linearizable against a swap: while
    /// `install` walks the slots, a thread on an early stripe can pin
    /// epoch k + 1 and a thread on a late stripe pin k afterwards — even
    /// one that learned of k + 1 from the first thread's answer (the
    /// single mutex this replaced made every pin globally monotone). What
    /// orders threads is [`EpochManager::epoch_id`] and
    /// [`EpochManager::writer_stats`], both published after the last slot:
    /// a pin taken after either shows epoch k is at k or later, on any
    /// thread. A thread that must read no older than an epoch another
    /// thread's answer came from waits for `epoch_id()` to reach that
    /// epoch's id (a few stores away) before it pins.
    pub fn pin(&self) -> Arc<EpochPin> {
        Arc::clone(&self.slots[submit_stripe()].lock())
    }

    /// The serving snapshot, read through the calling thread's stripe like
    /// [`EpochManager::pin`] — so what one thread reads here never runs
    /// behind a pin it took earlier, and once a write is reported applied
    /// ([`EpochManager::writer_stats`]) every thread reads an epoch that
    /// has it. Clones the snapshot handle all stripes share: for
    /// inspection, stats and the writer's rebuild base, not for the
    /// per-request path.
    pub fn current(&self) -> Arc<EpochSnapshot> {
        Arc::clone(self.slots[submit_stripe()].lock().snapshot())
    }

    /// The serving epoch id (lock-free).
    pub fn epoch_id(&self) -> u64 {
        self.epoch_id.load(Ordering::Acquire)
    }

    /// Every installed snapshot, oldest first — `None` unless
    /// [`MutationConfig::keep_history`] was set.
    pub fn history(&self) -> Option<Vec<Arc<EpochSnapshot>>> {
        self.history.as_ref().map(|h| h.lock().unwrap().clone())
    }

    /// Appends one mutation to the write buffer, blocking while it is at
    /// capacity (write backpressure). Returns the mutation's 1-based
    /// accept sequence number. Fails with [`SubmitError::ReadOnly`] when
    /// the service was started without a [`MutationConfig`], and
    /// [`SubmitError::Closed`] once the service is shut down.
    pub fn accept(&self, mutation: Mutation) -> Result<u64, SubmitError> {
        if !self.writable {
            return Err(SubmitError::ReadOnly);
        }
        let mut queue = self.queue.lock().unwrap();
        loop {
            if queue.closed {
                return Err(SubmitError::Closed);
            }
            if queue.pending.len() < self.capacity {
                queue.pending.push_back(PendingWrite {
                    mutation,
                    accepted_at: Instant::now(),
                });
                drop(queue);
                let seq = self.accepted.fetch_add(1, Ordering::Relaxed) + 1;
                self.not_empty.notify_one();
                return Ok(seq);
            }
            queue = self.not_full.wait(queue).unwrap();
        }
    }

    /// Stops accepting mutations. The writer thread drains what was
    /// already accepted (installing final epochs) and then exits.
    pub fn close(&self) {
        let mut queue = self.queue.lock().unwrap();
        queue.closed = true;
        drop(queue);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// A snapshot of the writer counters.
    pub fn writer_stats(&self) -> WriterStats {
        let progress = self.progress.lock().unwrap();
        self.stats_locked(&progress)
    }

    /// Counters plus the freshness histograms.
    pub fn writer_report(&self) -> WriterReport {
        let progress = self.progress.lock().unwrap();
        WriterReport {
            stats: self.stats_locked(&progress),
            swap_pause: progress.swap_pause.clone(),
            write_apply: progress.write_apply.clone(),
            freshness_lag: progress.freshness_lag.clone(),
        }
    }

    /// Snapshots the counters **and resets the histograms** in one atomic
    /// step, so a driver run that starts from this baseline reports
    /// exactly its own swaps/applies in both the counter deltas and the
    /// histograms (log-bucketed histograms merge but cannot subtract).
    pub fn writer_baseline(&self) -> WriterStats {
        let mut progress = self.progress.lock().unwrap();
        let stats = self.stats_locked(&progress);
        progress.swap_pause = LogHistogram::new();
        progress.write_apply = LogHistogram::new();
        progress.freshness_lag = LogHistogram::new();
        stats
    }

    fn stats_locked(&self, progress: &WriterProgress) -> WriterStats {
        let accepted = self.accepted.load(Ordering::Relaxed);
        let processed = progress.applied + progress.noops;
        WriterStats {
            epoch: self.epoch_id(),
            swaps: progress.swaps,
            accepted,
            applied: progress.applied,
            noops: progress.noops,
            // Backlog gauge; `accepted` is read after the progress lock is
            // held, so a racing accept can only make this larger, never
            // negative.
            pending: accepted.saturating_sub(processed),
        }
    }

    /// Blocks until at least one mutation is buffered, then drains up to
    /// `max_batch` of them. `None` once the queue is closed *and* empty —
    /// the writer's exit signal (close-then-drain, like the query queues).
    fn drain_batch(&self) -> Option<Vec<PendingWrite>> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if !queue.pending.is_empty() {
                let take = queue.pending.len().min(self.max_batch);
                let batch: Vec<PendingWrite> = queue.pending.drain(..take).collect();
                drop(queue);
                self.not_full.notify_all();
                return Some(batch);
            }
            if queue.closed {
                return None;
            }
            queue = self.not_empty.wait(queue).unwrap();
        }
    }

    /// Installs `snap` as the serving epoch and records the swap metrics.
    fn install(&self, snap: Arc<EpochSnapshot>, stats: ApplyStats, batch: &[PendingWrite]) {
        // The serving-visible pause: everything between "epoch N answers
        // submissions" and "epoch N+1 answers submissions with a cold
        // cache". The rebuild already happened, off the serving path.
        //
        // Order matters: every slot, then the id mirror, then (below) the
        // writer progress. Each store is released by a lock or a `Release`
        // store and each reader acquires the same way, so whoever observes
        // the new id or the write counted as applied pins, on any stripe,
        // an epoch that has it.
        //
        // The new pins are allocated before the window opens and the old
        // ones freed after it closes (`pins` holds them from the swap on):
        // inside it there is nothing but eight locked pointer swaps.
        let mut pins: [Arc<EpochPin>; SUBMIT_STRIPES] =
            std::array::from_fn(|_| EpochPin::new(&snap));
        let t0 = Instant::now();
        for (slot, pin) in self.slots.iter().zip(&mut pins) {
            std::mem::swap(&mut *slot.lock(), pin);
        }
        self.epoch_id.store(snap.id, Ordering::Release);
        let pause = t0.elapsed();
        drop(pins);
        let now = Instant::now();
        // Freshness lag of the new epoch: if a backlog remains, the oldest
        // still-pending accept bounds how stale serving still is; else the
        // newest mutation this swap installed.
        let lag = {
            let queue = self.queue.lock().unwrap();
            match queue.pending.front() {
                Some(w) => now.saturating_duration_since(w.accepted_at),
                None => batch.last().map_or(Duration::ZERO, |w| {
                    now.saturating_duration_since(w.accepted_at)
                }),
            }
        };
        {
            let mut progress = self.progress.lock().unwrap();
            progress.swaps += 1;
            progress.applied += stats.applied;
            progress.noops += stats.noops;
            progress.swap_pause.record(pause.as_nanos() as u64);
            progress.freshness_lag.record(lag.as_nanos() as u64);
            for w in batch {
                progress
                    .write_apply
                    .record(now.saturating_duration_since(w.accepted_at).as_nanos() as u64);
            }
        }
        if let Some(history) = &self.history {
            history.lock().unwrap().push(snap);
        }
    }
}

/// How the writer thread turns (base epoch, mutation batch) into the next
/// epoch. Implemented with incremental per-shard slice rebuilds by
/// [`crate::shard::ShardedGraphService`]; a trait so the unit tests below
/// can substitute fakes.
pub(crate) trait EpochRebuild: Send + 'static {
    /// Builds epoch `base.id + 1` (graph, fingerprints, shard slices) from
    /// `base` with `batch` applied. Runs off the serving path.
    fn rebuild(&self, base: &EpochSnapshot, batch: &[Mutation]) -> (EpochSnapshot, ApplyStats);
    /// Clears the service's result cache, after the swap.
    fn invalidate(&self);
}

/// Spawns the writer thread: drain a batch, rebuild the next epoch, swap,
/// invalidate caches, repeat; exits once the manager is closed and the
/// buffer is drained (so no accepted mutation is ever lost).
pub(crate) fn spawn_writer(
    manager: Arc<EpochManager>,
    rebuild: Box<dyn EpochRebuild>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("vcgp-epoch-writer".to_string())
        .spawn(move || {
            while let Some(batch) = manager.drain_batch() {
                let base = manager.current();
                let mutations: Vec<Mutation> = batch.iter().map(|w| w.mutation).collect();
                let (mut snap, stats) = rebuild.rebuild(&base, &mutations);
                snap.id = base.id + 1;
                manager.install(Arc::new(snap), stats, &batch);
                // Invalidate *after* the swap: entries inserted for the old
                // epoch between swap and invalidation are keyed by the old
                // fingerprint and unreachable from new submissions anyway.
                rebuild.invalidate();
            }
        })
        .expect("spawn epoch writer")
}

/// The seeded mutation stream: the operation at `index` in the write run
/// seeded by `seed`, as a pure function (the write-side analogue of
/// [`crate::scenario::PhaseMix::op`]). Vertex ids are drawn from
/// `[0, base_n)` — the *initial* vertex-id space, so the stream is
/// independent of how many vertices earlier mutations added.
///
/// The mix: 45 % edge inserts (unit weight, never a self-loop), 25 %
/// rank-addressed edge deletes ([`Mutation::DeleteEdgeAt`] resolves the
/// rank against the live adjacency, so deletes hit existing edges instead
/// of missing ~everything on a sparse graph), 15 % rank-addressed
/// reweights (guard-rejected no-ops on unweighted graphs), 10 % vertex
/// adds, 5 % vertex removals (detach: the id space never shrinks, so
/// pinned epochs and the frozen partitioner stay valid).
pub fn mutation_op(seed: u64, index: u64, base_n: usize) -> Mutation {
    assert!(base_n >= 2, "mutation stream needs at least two vertices");
    let mut rng = SplitMix64::new(mix3(seed, index, MUT_STREAM));
    let roll = rng.next_below(100);
    let u = rng.next_index(base_n) as VertexId;
    if roll < 45 {
        let v = ((u as usize + 1 + rng.next_index(base_n - 1)) % base_n) as VertexId;
        Mutation::InsertEdge { u, v, w: 1.0 }
    } else if roll < 70 {
        Mutation::DeleteEdgeAt {
            u,
            rank: rng.next_below(1 << 20) as u32,
        }
    } else if roll < 85 {
        Mutation::ReweightAt {
            u,
            rank: rng.next_below(1 << 20) as u32,
            w: 0.5 + rng.next_f64() * 4.0,
        }
    } else if roll < 95 {
        Mutation::AddVertex {
            label: rng.next_below(8) as u32,
        }
    } else {
        Mutation::RemoveVertex { v: u }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    fn snapshot(graph: Graph, id: u64) -> EpochSnapshot {
        let fingerprint = vcgp_core::fingerprint::graph_fingerprint(&graph);
        EpochSnapshot {
            id,
            graph: Arc::new(graph),
            fingerprint,
            locals: Vec::new(),
        }
    }

    /// The rebuild the writer-thread tests run: apply the batch, nothing
    /// sharded, no cache to invalidate.
    struct Rebuild;
    impl EpochRebuild for Rebuild {
        fn rebuild(&self, base: &EpochSnapshot, batch: &[Mutation]) -> (EpochSnapshot, ApplyStats) {
            let (g, delta) = vcgp_graph::apply_batch(&base.graph, batch);
            (snapshot(g, base.id + 1), delta.stats)
        }
        fn invalidate(&self) {}
    }

    /// A writable manager over a small graph, with its writer running.
    fn manager_with_writer(cfg: &MutationConfig) -> (Arc<EpochManager>, JoinHandle<()>) {
        let g = generators::gnm_connected(16, 30, 5);
        let mgr = Arc::new(EpochManager::new(snapshot(g, 0), Some(cfg)));
        let writer = spawn_writer(Arc::clone(&mgr), Box::new(Rebuild));
        (mgr, writer)
    }

    #[test]
    fn mutation_op_is_a_pure_function() {
        for i in 0..200 {
            assert_eq!(mutation_op(7, i, 64), mutation_op(7, i, 64), "index {i}");
        }
        let a: Vec<Mutation> = (0..64).map(|i| mutation_op(1, i, 64)).collect();
        let b: Vec<Mutation> = (0..64).map(|i| mutation_op(2, i, 64)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn mutation_op_never_emits_a_self_loop_insert() {
        for i in 0..2000 {
            if let Mutation::InsertEdge { u, v, .. } = mutation_op(11, i, 16) {
                assert_ne!(u, v, "index {i}");
                assert!((u as usize) < 16 && (v as usize) < 16);
            }
        }
    }

    #[test]
    fn manager_without_a_writer_rejects_writes() {
        let g = generators::gnm_connected(8, 10, 3);
        let mgr = EpochManager::new(snapshot(g, 0), None);
        assert_eq!(
            mgr.accept(Mutation::AddVertex { label: 0 }),
            Err(SubmitError::ReadOnly)
        );
        assert_eq!(mgr.epoch_id(), 0);
        assert_eq!(mgr.writer_stats(), WriterStats::default());
        assert!(mgr.history().is_none());
    }

    #[test]
    fn accept_sequences_and_close_rejects() {
        let g = generators::gnm_connected(8, 10, 3);
        let mgr = EpochManager::new(snapshot(g, 0), Some(&MutationConfig::default()));
        assert_eq!(mgr.accept(Mutation::AddVertex { label: 0 }), Ok(1));
        assert_eq!(mgr.accept(Mutation::AddVertex { label: 1 }), Ok(2));
        let stats = mgr.writer_stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.pending, 2);
        mgr.close();
        assert_eq!(
            mgr.accept(Mutation::AddVertex { label: 2 }),
            Err(SubmitError::Closed)
        );
    }

    #[test]
    fn writer_thread_installs_monotone_epochs_and_drains_on_close() {
        let (mgr, writer) = manager_with_writer(&MutationConfig {
            max_batch: 2,
            keep_history: true,
            ..MutationConfig::default()
        });
        for i in 0..5 {
            mgr.accept(Mutation::AddVertex { label: i }).unwrap();
        }
        mgr.close();
        writer.join().unwrap();
        let stats = mgr.writer_stats();
        assert_eq!(stats.accepted, 5);
        assert_eq!(stats.applied, 5);
        assert_eq!(stats.noops, 0);
        assert_eq!(stats.pending, 0);
        assert!(stats.swaps >= 3, "max_batch 2 needs ≥ 3 swaps for 5 writes");
        assert_eq!(stats.epoch, stats.swaps);
        assert_eq!(mgr.current().graph.num_vertices(), 16 + 5);
        // History: monotone ids from 0, one entry per installed epoch.
        let history = mgr.history().unwrap();
        assert_eq!(history.len() as u64, stats.swaps + 1);
        for (i, snap) in history.iter().enumerate() {
            assert_eq!(snap.id, i as u64);
        }
        // Histogram counts tie to the counters (recorded under one lock).
        let report = mgr.writer_report();
        assert_eq!(report.swap_pause.count(), stats.swaps);
        assert_eq!(report.freshness_lag.count(), stats.swaps);
        assert_eq!(report.write_apply.count(), stats.applied + stats.noops);
    }

    #[test]
    fn baseline_scopes_counters_and_resets_histograms() {
        let (mgr, writer) = manager_with_writer(&MutationConfig::default());
        mgr.accept(Mutation::AddVertex { label: 0 }).unwrap();
        // Wait for the first run's write to be installed.
        while mgr.writer_stats().pending > 0 {
            std::thread::yield_now();
        }
        let base = mgr.writer_baseline();
        assert_eq!(base.accepted, 1);
        assert!(
            mgr.writer_report().write_apply.is_empty(),
            "baseline resets"
        );
        mgr.accept(Mutation::AddVertex { label: 1 }).unwrap();
        mgr.accept(Mutation::AddVertex { label: 2 }).unwrap();
        mgr.close();
        writer.join().unwrap();
        let delta = mgr.writer_stats().delta_since(&base);
        assert_eq!(delta.accepted, 2, "second run scoped to its own writes");
        assert_eq!(delta.applied, 2);
        let report = mgr.writer_report();
        assert_eq!(report.write_apply.count(), delta.applied + delta.noops);
        assert_eq!(report.swap_pause.count(), delta.swaps);
    }

    /// Each stripe hands out its own pin allocation — that is what keeps
    /// two clients off one refcount line — and all of them pin the one
    /// serving snapshot.
    #[test]
    fn stripes_pin_one_snapshot_through_their_own_allocations() {
        let g = generators::gnm_connected(8, 10, 3);
        let mgr = EpochManager::new(snapshot(g, 0), None);
        let serving = mgr.current();
        // More threads than stripes: some share one, none gets a pin that
        // is not a slot's.
        let pins: Vec<(Arc<EpochPin>, Arc<EpochPin>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2 * SUBMIT_STRIPES)
                .map(|_| scope.spawn(|| (mgr.pin(), mgr.pin())))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let slot_pins: Vec<Arc<EpochPin>> = mgr
            .slots
            .iter()
            .map(|slot| Arc::clone(&slot.lock()))
            .collect();
        for (i, a) in slot_pins.iter().enumerate() {
            assert_eq!(
                Arc::as_ptr(a) as usize % 128,
                0,
                "pin counts start their own line"
            );
            assert!(
                slot_pins[i + 1..].iter().all(|b| !Arc::ptr_eq(a, b)),
                "slot {i} is shared"
            );
        }
        for (first, second) in &pins {
            assert!(Arc::ptr_eq(first, second), "a thread keeps its stripe");
            assert!(slot_pins.iter().any(|slot| Arc::ptr_eq(slot, first)));
            assert!(Arc::ptr_eq(first.snapshot(), &serving));
            assert_eq!(first.id, 0, "a pin dereferences to its snapshot");
        }
    }

    /// No retention: a swap replaces every stripe's pin, so the previous
    /// epoch lives exactly as long as the requests still pinned to it.
    #[test]
    fn a_swap_frees_the_previous_epoch_once_its_pins_are_dropped() {
        let (mgr, writer) = manager_with_writer(&MutationConfig {
            max_batch: 1,
            ..MutationConfig::default()
        });
        let wait_for_epoch = |id: u64| {
            while mgr.epoch_id() < id {
                std::thread::yield_now();
            }
        };
        mgr.accept(Mutation::AddVertex { label: 0 }).unwrap();
        wait_for_epoch(1);
        // Pins on epoch 1 from several stripes, one kept "in flight".
        let in_flight = std::thread::scope(|scope| {
            let pins: Vec<_> = (0..SUBMIT_STRIPES + 1)
                .map(|_| scope.spawn(|| mgr.pin()))
                .collect();
            pins.into_iter()
                .map(|h| h.join().unwrap())
                .next_back()
                .unwrap()
        });
        assert_eq!(in_flight.id, 1);
        let previous = Arc::downgrade(in_flight.snapshot());
        mgr.accept(Mutation::AddVertex { label: 1 }).unwrap();
        mgr.close();
        // Joined: the writer's own handle on its rebuild base is gone too.
        writer.join().unwrap();
        assert_eq!(mgr.epoch_id(), 2);
        assert_eq!(
            previous.upgrade().map(|snap| snap.id),
            Some(1),
            "pinned: still alive"
        );
        drop(in_flight);
        assert!(
            previous.upgrade().is_none(),
            "no stripe, cache or thread-local kept epoch 1"
        );
    }

    /// `install` stores every slot before the id mirror: reading `k` from
    /// `epoch_id()` means no stripe still serves an epoch below `k`.
    #[test]
    fn epoch_id_never_runs_ahead_of_any_slot() {
        let (mgr, writer) = manager_with_writer(&MutationConfig {
            max_batch: 1,
            ..MutationConfig::default()
        });
        std::thread::scope(|scope| {
            let checker = scope.spawn(|| {
                let mut seen = 0;
                while seen < 200 {
                    seen = mgr.epoch_id();
                    for (i, slot) in mgr.slots.iter().enumerate() {
                        let serving = slot.lock().id;
                        assert!(serving >= seen, "slot {i} serves {serving} after id {seen}");
                    }
                }
            });
            for i in 0..200 {
                mgr.accept(Mutation::AddVertex { label: i }).unwrap();
            }
            checker.join().unwrap();
        });
        mgr.close();
        writer.join().unwrap();
    }
}
