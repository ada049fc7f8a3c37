//! The BSP execution engine.
//!
//! Vertices are partitioned over `W` logical workers (the partitioning and
//! determinism domain: per-worker worklists, message lanes, and statistics
//! are all defined in terms of `W`). *Execution* happens on `T` OS threads,
//! a separate setting: `T = min(W, machine cores)` by default, set in code
//! through [`PregelConfig::num_threads`]. Decoupling the two is
//! what fixed the negative multi-worker scaling this module used to show —
//! on a machine with fewer cores than workers, oversubscribed threads spent
//! more time context-switching through per-superstep barriers than
//! computing.
//!
//! **One driver** runs every `T`: `T - 1` threads are spawned once per run
//! (none at `T = 1`) and the calling thread joins them as thread 0, each
//! thread the home of a contiguous block of workers. They synchronize on a
//! sense-reversing spin-then-park `PhaseBarrier` (the private `barrier`
//! module) — two crossings per superstep (compute and delivery; the serial
//! master phase runs inside the delivery barrier's leader closure). At
//! `T = 1` the barrier has one party, and a crossing is a call to the
//! leader closure. Cross-worker message handoff goes through lock-free
//! outbox slots sequenced by those barriers instead of a `W x W` mutex
//! matrix; each slot is drained where it lies, so a lane alternates
//! between two buffers (the private `pool` module). A worker's mail to
//! itself never enters an outbox: its delivery drains its own lane in
//! place, at its own position in sender order, so at `W = 1` every message
//! lives in one buffer. A panic on any thread poisons the barrier, so the
//! others unwind instead of waiting, and the run re-raises the original
//! payload.
//!
//! The driver load-balances with **deterministic work stealing**: each
//! worker's sorted worklist is split into fixed-size chunks
//! ([`PregelConfig::steal_chunk`]; `0` makes the whole list one chunk no
//! thief takes, and so does a run on one thread, which has no thief to
//! take one). The worker's home thread claims chunks from the front and
//! runs them *in place*, straight into the worker's own outgoing buffers
//! and next worklist; thieves claim from the back of the same packed
//! `(front, back)` span, so the home thread's chunks are always a prefix.
//! Only a stolen chunk is buffered — every send as made, survivors,
//! aggregator partial — and whoever completes the worker's last chunk
//! replays the stolen suffix *in chunk order* behind the prefix. The
//! worker's buffers thus see the exact push sequence single-threaded
//! execution produces, so vertex values, lane order, combining folds and
//! delivered counts are bit-identical regardless of which thread executed
//! which chunk. Each chunk's aggregator partial starts from the identity
//! and is folded in chunk order, so `F64` aggregators are grouped by chunk
//! size, never by schedule (and may differ from a one-chunk-per-worker run
//! in the last ulp — the usual caveat of any parallel fold; integer and
//! bool aggregators are exact).
//!
//! Superstep phases:
//!
//! 1. **compute** — every worker runs `compute` on its runnable vertices
//!    and buckets outgoing messages by destination worker, folding them per
//!    destination vertex when the program has a combiner;
//! 2. **delivery** — every worker drains the buffers addressed to it *in
//!    fixed sender order*, so message delivery order is deterministic
//!    regardless of thread scheduling, and puts the next worklist in order;
//! 3. **master** — aggregators and statistics are merged in worker order,
//!    the program's master-compute hook runs, and the run stops or
//!    continues.
//!
//! **What a superstep costs.** The runnable vertices are a sorted
//! per-worker worklist: the vertices that did not vote to halt plus the
//! halted ones that received mail. Compute, delivery and the ordering of
//! the next worklist are `O(active + messages)`, not `O(n)` — a halted
//! vertex without mail costs nothing. That holds only as far as the
//! *program* lets vertices halt: [`MasterContext::reactivate_all`] puts all
//! `n` vertices back on the worklist, so a program that calls it every
//! superstep pays `O(n)` invocations per superstep whatever its frontier
//! (and a third barrier crossing). [`SuperstepStats::quiet`] counts the
//! invocations that found nothing to do. The per-superstep fixed cost is
//! `O(W^2)` — every worker looks at its row and its column of the outbox
//! matrix — and one log entry (per-worker stats and the aggregator values)
//! is the only allocation of a steady-state superstep.
//!
//! The engine's two mutexes, a worker's stolen-chunk list and the
//! chunk-buffer pool, are taken only when stealing is on, and never across
//! a barrier. Everything else a superstep shares is handed from thread to
//! thread by the barriers and the per-worker hand-off counter, so a run on
//! one thread takes no lock at all.

use crate::aggregate::{AggValue, AggregatorDef};
use crate::barrier::{PhaseBarrier, Poisoned};
use crate::metrics::{
    BufferStats, HaltReason, PerVertexStats, RunStats, SuperstepStats, WorkerStats,
};
use crate::partition::{Partitioner, Partitioning};
use crate::pool::{BufferCounters, OutboxSlot};
use crate::program::{Combiner, Context, MasterContext, Outgoing, VertexProgram};
use crate::state_size::StateSize;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vcgp_graph::{Graph, VertexId};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct PregelConfig {
    /// Number of logical workers `p` (the processor count of the BSP cost
    /// model): the partitioning, worklist, and statistics domain. Defaults
    /// to the machine parallelism, capped at 8; set it in code with
    /// [`PregelConfig::with_workers`].
    pub num_workers: usize,
    /// Number of OS threads executing those workers. `0` (the default)
    /// resolves to `min(num_workers, machine cores)` — workers beyond the
    /// core count are multiplexed instead of oversubscribing the scheduler,
    /// which is what used to make W=4 *slower* than W=1 on small machines.
    /// Results are identical for every thread count.
    pub num_threads: usize,
    /// Hard cap on supersteps (a safety net; converging algorithms never
    /// reach it).
    pub max_supersteps: u64,
    /// Seed for the deterministic per-vertex RNG ([`Context::rng`]).
    pub seed: u64,
    /// Record per-vertex maxima (messages, work, state bytes) for the BPPA
    /// checker. Adds O(n) bookkeeping per superstep and disables
    /// *sender-side* combining (per-message receive counts must stay
    /// exact) as well as work stealing; off by default.
    pub track_per_vertex: bool,
    /// Vertex-to-worker assignment strategy. Defaults to hash; set it in
    /// code with [`PregelConfig::with_partitioning`].
    pub partitioning: Partitioning,
    /// Work-stealing granularity, in worklist entries per chunk; `0`
    /// disables stealing (each worker's list runs entirely on its home
    /// thread). Ignored on one thread, which has no thief: every worklist
    /// is one chunk there. Defaults to [`DEFAULT_STEAL_CHUNK`]. Results
    /// are identical either way.
    pub steal_chunk: usize,
}

/// Default work-stealing chunk size: big enough that claim/merge overhead
/// amortizes to noise, small enough that a skewed worklist splits across
/// threads.
pub const DEFAULT_STEAL_CHUNK: usize = 1024;

/// The machine's core count, resolved once per process.
fn machine_parallelism() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

impl Default for PregelConfig {
    fn default() -> Self {
        PregelConfig {
            num_workers: machine_parallelism().min(8),
            num_threads: 0,
            max_supersteps: 1_000_000,
            seed: 0x5653_4750,
            track_per_vertex: false,
            partitioning: Partitioning::Hash,
            steal_chunk: DEFAULT_STEAL_CHUNK,
        }
    }
}

impl PregelConfig {
    /// The OS thread count this configuration actually runs with: the
    /// explicit `num_threads` if set, else the machine's core count, never
    /// more than the worker count and never less than one.
    pub fn resolved_threads(&self) -> usize {
        let w = self.num_workers.max(1);
        let t = if self.num_threads == 0 {
            machine_parallelism()
        } else {
            self.num_threads
        };
        t.min(w).max(1)
    }

    /// A single-worker configuration (serial BSP; useful for debugging and
    /// microbenchmarks).
    pub fn single_worker() -> Self {
        PregelConfig {
            num_workers: 1,
            ..Default::default()
        }
    }

    /// Sets the logical worker count.
    pub fn with_workers(mut self, w: usize) -> Self {
        assert!(w >= 1, "at least one worker required");
        self.num_workers = w;
        self
    }

    /// Sets the OS thread count (`0` = auto: `min(workers, cores)`).
    pub fn with_threads(mut self, t: usize) -> Self {
        self.num_threads = t;
        self
    }

    /// Sets the work-stealing chunk size (`0` disables stealing).
    pub fn with_steal_chunk(mut self, c: usize) -> Self {
        self.steal_chunk = c;
        self
    }

    /// Sets the superstep cap.
    pub fn with_max_supersteps(mut self, cap: u64) -> Self {
        self.max_supersteps = cap;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables per-vertex tracking.
    pub fn with_per_vertex_tracking(mut self) -> Self {
        self.track_per_vertex = true;
        self
    }

    /// Sets the vertex-to-worker partitioning strategy.
    pub fn with_partitioning(mut self, partitioning: Partitioning) -> Self {
        self.partitioning = partitioning;
        self
    }
}

/// Runs `program` on `graph` starting from `P::Value::default()` at every
/// vertex.
pub fn run<P>(program: &P, graph: &Graph, config: &PregelConfig) -> (Vec<P::Value>, RunStats)
where
    P: VertexProgram,
    P::Value: Default,
{
    let values = (0..graph.num_vertices())
        .map(|_| P::Value::default())
        .collect();
    run_with_values(program, graph, values, config)
}

/// Per-worker mutable state. During a run exactly one thread touches it at
/// a time (which thread rotates with the phase protocol); afterwards it is
/// reassembled into the caller's result.
struct WorkerState<V, M> {
    /// Global vertex ids owned by this worker (`me`, `me + W`, ...).
    ids: Vec<VertexId>,
    values: Vec<V>,
    active: Vec<bool>,
    inbox: Vec<Vec<M>>,
    /// Sorted local indices to run this superstep.
    run_list: Vec<u32>,
    /// Local indices collected for the next superstep (phase A survivors +
    /// phase B reactivations), sorted at the end of delivery.
    next_run: Vec<u32>,
    pv: Option<PerVertexLocal>,
}

/// Per-vertex tracking arrays local to one worker (indexed like `ids`).
struct PerVertexLocal {
    max_sent: Vec<u64>,
    max_received: Vec<u64>,
    max_work: Vec<u64>,
    max_state_bytes: Vec<u64>,
    recv_cur: Vec<u64>,
}

impl PerVertexLocal {
    fn new(k: usize) -> Self {
        PerVertexLocal {
            max_sent: vec![0; k],
            max_received: vec![0; k],
            max_work: vec![0; k],
            max_state_bytes: vec![0; k],
            recv_cur: vec![0; k],
        }
    }
}

/// Runs `program` on `graph` with explicit initial vertex values.
///
/// Returns the final vertex values (indexed by vertex id) and the run's
/// instrumentation.
///
/// # Panics
/// Panics if `values.len() != graph.num_vertices()`.
pub fn run_with_values<P>(
    program: &P,
    graph: &Graph,
    values: Vec<P::Value>,
    config: &PregelConfig,
) -> (Vec<P::Value>, RunStats)
where
    P: VertexProgram,
{
    let n = graph.num_vertices();
    assert_eq!(values.len(), n, "one initial value per vertex required");
    let w = config.num_workers.max(1);
    let t = config.resolved_threads();
    let partitioner = Partitioner::new(config.partitioning, n, w);
    let started = Instant::now();

    let agg_defs = program.aggregators();
    let identities: Vec<AggValue> = agg_defs.iter().map(|d| d.op.identity()).collect();

    // Distribute vertices and their values round-robin over workers.
    let mut states: Vec<WorkerState<P::Value, P::Message>> = (0..w)
        .map(|_| WorkerState {
            ids: Vec::new(),
            values: Vec::new(),
            active: Vec::new(),
            inbox: Vec::new(),
            run_list: Vec::new(),
            next_run: Vec::new(),
            pv: None,
        })
        .collect();
    for (v, value) in values.into_iter().enumerate() {
        let st = &mut states[partitioner.owner(v as VertexId)];
        st.ids.push(v as VertexId);
        st.values.push(value);
    }
    for st in states.iter_mut() {
        let k = st.ids.len();
        st.active = vec![true; k];
        st.inbox = (0..k).map(|_| Vec::new()).collect();
        st.run_list = (0..k as u32).collect();
        st.next_run = Vec::with_capacity(k);
        if config.track_per_vertex {
            st.pv = Some(PerVertexLocal::new(k));
        }
    }

    let (states, reason, log) = run_pool(
        program,
        graph,
        config,
        t,
        partitioner,
        &agg_defs,
        &identities,
        states,
    );

    // Reassemble results by vertex id.
    let mut out_values: Vec<Option<P::Value>> = (0..n).map(|_| None).collect();
    let mut per_vertex = if config.track_per_vertex {
        Some(PerVertexStats::new(n))
    } else {
        None
    };
    for st in states {
        let pv_local = st.pv;
        for (li, (id, value)) in st.ids.iter().zip(st.values).enumerate() {
            let gi = *id as usize;
            out_values[gi] = Some(value);
            if let (Some(pv_out), Some(pv)) = (per_vertex.as_mut(), pv_local.as_ref()) {
                pv_out.max_sent[gi] = pv.max_sent[li];
                pv_out.max_received[gi] = pv.max_received[li];
                pv_out.max_work[gi] = pv.max_work[li];
                pv_out.max_state_bytes[gi] = pv.max_state_bytes[li];
            }
        }
    }
    let final_values: Vec<P::Value> = out_values
        .into_iter()
        .map(|v| v.expect("every vertex assigned to exactly one worker"))
        .collect();

    let stats = RunStats {
        superstep_stats: log,
        num_workers: w,
        halt_reason: reason,
        per_vertex,
        wall: started.elapsed(),
    };
    (final_values, stats)
}

/// Drains one sender-ordered lane of `(dest, msg)` pairs addressed to `st`
/// into its per-vertex inboxes, applying the receiver-side combining
/// backstop, counting per-vertex receipts when tracking, and scheduling
/// reactivated vertices onto `st.next_run`. Returns the delivered count.
fn deliver_lane<V, M>(
    st: &mut WorkerState<V, M>,
    partitioner: Partitioner,
    combiner: Option<Combiner<M>>,
    buf: &mut Vec<(VertexId, M)>,
) -> u64 {
    let mut delivered = 0u64;
    // One pass per lane, combiner branch hoisted out of the loop.
    match combiner {
        Some(combine) => {
            for (to, msg) in buf.drain(..) {
                let li = partitioner.local_index(to);
                if let Some(pv) = st.pv.as_mut() {
                    pv.recv_cur[li] += 1;
                }
                let inbox = &mut st.inbox[li];
                if inbox.is_empty() {
                    inbox.push(msg);
                    delivered += 1;
                    // First message: schedule a halted vertex.
                    if !st.active[li] {
                        st.next_run.push(li as u32);
                    }
                } else {
                    combine(&mut inbox[0], msg);
                }
            }
        }
        None => {
            for (to, msg) in buf.drain(..) {
                let li = partitioner.local_index(to);
                if let Some(pv) = st.pv.as_mut() {
                    pv.recv_cur[li] += 1;
                }
                let inbox = &mut st.inbox[li];
                inbox.push(msg);
                delivered += 1;
                if inbox.len() == 1 && !st.active[li] {
                    st.next_run.push(li as u32);
                }
            }
        }
    }
    delivered
}

/// Puts `st.next_run` in ascending order at the end of delivery. The list
/// is exactly the set a full scan would find: the compute phase pushed the
/// still-active vertices (in order), delivery the halted ones that just
/// received mail (in arrival order) — disjoint by the `active` check, so no
/// vertex appears twice. A sparse list is sorted; once an eighth of the
/// worker's vertices are on it, that scan is the cheaper way to order it
/// (any switch point from 1/4 to 1/64 measures the same, sorting always
/// costs the mail-driven programs 6-21 %, scanning always breaks
/// `O(active)`: EXPERIMENTS.md, "Vote-to-halt methodology").
fn sort_next_run<V, M>(st: &mut WorkerState<V, M>) {
    if st.next_run.len() < st.ids.len() / 8 {
        st.next_run.sort_unstable();
    } else if !st.next_run.is_sorted() {
        st.next_run.clear();
        let runnable = st.active.iter().zip(&st.inbox).enumerate();
        st.next_run.extend(
            runnable
                .filter(|(_, (&active, inbox))| active || !inbox.is_empty())
                .map(|(li, _)| li as u32),
        );
    }
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// What every `expect` on an engine mutex guards against: a poisoned lock
/// means a pool thread panicked while holding it.
const LOCK: &str = "engine mutex poisoned by a panicking pool thread";

/// An `UnsafeCell` that is `Sync`. Exclusive access is enforced by the
/// engine's phase protocol — barriers and atomic claim counters — not by
/// the type system; every dereference site documents which protocol rule
/// makes it data-race free.
#[repr(transparent)]
struct SyncCell<T>(UnsafeCell<T>);

// SAFETY: the phase protocol (documented at each `get()` dereference)
// guarantees that a mutable reference never coexists with any other
// reference, with barrier-ordered handoffs between phases. Several threads
// hold a shared reference at once only to read plain data that nobody
// mutates meanwhile: a worker's `StateView` and the master state.
unsafe impl<T: Send> Sync for SyncCell<T> {}

impl<T> SyncCell<T> {
    fn new(v: T) -> Self {
        SyncCell(UnsafeCell::new(v))
    }
    fn get(&self) -> *mut T {
        self.0.get()
    }
    fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

/// Raw element pointers into one worker's state arrays, published by the
/// worker's home thread so chunk executors — the home thread itself and
/// thieves — can write provably disjoint vertices without materializing
/// aliasing `&mut` references to whole arrays. The array pointers stay
/// valid for the whole run — those Vecs never reallocate after
/// construction; `run`/`run_len`/`chunk_len` are republished each
/// superstep because the worklists ping-pong.
struct StateView<V, M> {
    ids: *const VertexId,
    values: *mut V,
    active: *mut bool,
    inbox: *mut Vec<M>,
    run: *const u32,
    run_len: usize,
    /// Worklist entries per chunk: the steal chunk, or the whole list when
    /// stealing is off.
    chunk_len: usize,
}

// SAFETY: the pointers target heap buffers owned by `WorkerState<V, M>`,
// whose element types are `Send`; the view is only a capability to reach
// them, gated by the same phase protocol as `SyncCell`.
unsafe impl<V: Send, M: Send> Send for StateView<V, M> {}

impl<V, M> StateView<V, M> {
    /// Worklist positions of chunk `c`.
    fn chunk(&self, c: usize) -> std::ops::Range<usize> {
        let lo = c * self.chunk_len;
        lo..(lo + self.chunk_len).min(self.run_len)
    }
}

/// What one or more chunk executions add to a worker's compute counters.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    chunks: u64,
    ran: usize,
    quiet: usize,
    work: u64,
    sent: u64,
    inbox_capacity: u64,
    wall: Duration,
}

impl Tally {
    fn add(&mut self, o: Tally) {
        self.chunks += o.chunks;
        self.ran += o.ran;
        self.quiet += o.quiet;
        self.work += o.work;
        self.sent += o.sent;
        self.inbox_capacity += o.inbox_capacity;
        self.wall += o.wall;
    }
}

/// A stolen chunk's buffered outputs: its own lane set (so `Context::send`
/// works unchanged), the survivors, the aggregator partial, and the
/// counters. Pooled and recycled across supersteps.
struct ChunkBuf<M> {
    chunk: usize,
    out: Outgoing<M>,
    next: Vec<u32>,
    agg: Vec<AggValue>,
    tally: Tally,
    /// Newly constructed this acquisition (an allocation event) rather than
    /// recycled from the pool.
    fresh: bool,
}

impl<M> ChunkBuf<M> {
    fn new(w: usize, identities: &[AggValue], fresh: bool) -> Self {
        ChunkBuf {
            chunk: 0,
            // No combiner: a stolen chunk buffers every send as it was made,
            // and the merge replays them one by one through the worker's
            // own buffers, which combine in sequential order.
            out: Outgoing::new(w, 0, None),
            next: Vec::new(),
            agg: identities.to_vec(),
            tally: Tally::default(),
            fresh,
        }
    }
}

/// Everything shared between the threads of one run.
struct ParShared<'a, P: VertexProgram> {
    program: &'a P,
    graph: &'a Graph,
    cfg: &'a PregelConfig,
    w: usize,
    /// Resolved steal chunk size; 0 = stealing disabled (one chunk per
    /// worker, run by its home thread).
    steal_chunk: usize,
    partitioner: Partitioner,
    agg_defs: &'a [AggregatorDef],
    identities: &'a [AggValue],
    workers: Vec<ParWorker<P::Value, P::Message>>,
    /// thread -> contiguous owned worker range.
    blocks: Vec<std::ops::Range<usize>>,
    /// `outboxes[sender][receiver]`: written by the thread that merges the
    /// sender's compute, read by the receiver's home thread after the
    /// compute barrier. The barrier's release/acquire edge replaces the
    /// per-slot mutex the engine used to take `W^2` times per superstep.
    /// The diagonal stays empty: a worker's mail to itself never leaves its
    /// own lane.
    outboxes: Vec<Vec<SyncCell<OutboxSlot<P::Message>>>>,
    /// Free list of chunk buffers, shared so the pool stabilizes regardless
    /// of which thread steals which chunk.
    chunk_pool: Mutex<Vec<ChunkBuf<P::Message>>>,
    barrier: PhaseBarrier,
    /// Written only by the master phase, inside the delivery barrier's
    /// leader closure; read by every thread between that barrier and its
    /// next arrival there.
    master: SyncCell<Master>,
    /// Each thread's barrier waits since the last master phase, which reads
    /// them; the barriers order every access, so Relaxed suffices.
    thread_waits: Vec<AtomicU64>,
}

/// What the master phase writes and every thread reads once per superstep.
struct Master {
    /// The aggregators the vertices read next superstep.
    aggregates: Vec<AggValue>,
    globals: Vec<AggValue>,
    stop: bool,
    reason: HaltReason,
    reactivate: bool,
    log: Vec<SuperstepStats>,
}

/// Per-worker shared harness for the driver.
struct ParWorker<V, M> {
    state: SyncCell<WorkerState<V, M>>,
    view: SyncCell<StateView<V, M>>,
    /// The worker's own outgoing buffers (lanes + combining tables): the
    /// home thread runs its chunks straight into them, the merge replays
    /// the stolen ones behind, and the home thread's delivery drains the
    /// lane addressed to the worker itself.
    out: SyncCell<Outgoing<M>>,
    /// The unclaimed chunks `front..back`, packed `back << 32 | front`: the
    /// home thread claims from the front, thieves from the back, so the
    /// home thread's chunks are always a prefix of the worklist.
    span: AtomicU64,
    /// Units not yet completed: one per chunk plus one for the home
    /// thread's hand-off. Whoever brings it to zero merges and flushes.
    outstanding: AtomicUsize,
    /// Stolen chunk outputs awaiting the ordered merge.
    done: Mutex<Vec<ChunkBuf<M>>>,
    /// Handed along like the outgoing buffers: from the home thread's
    /// compute to the merge, the home thread's delivery, the master phase.
    scratch: SyncCell<Scratch>,
}

impl<V, M> ParWorker<V, M> {
    /// Claims the lowest unclaimed chunk (home thread) or the highest
    /// (`thief`). Relaxed: a claim publishes nothing — the view it indexes
    /// was published before the compute barrier.
    fn claim(&self, thief: bool) -> Option<usize> {
        const FRONT: u64 = 0xFFFF_FFFF;
        let prev = self
            .span
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                (s & FRONT < s >> 32).then(|| if thief { s - (1 << 32) } else { s + 1 })
            })
            .ok()?;
        let c = if thief {
            (prev >> 32) - 1
        } else {
            prev & FRONT
        };
        Some(c as usize)
    }
}

/// Scratch slot written by one worker's compute, merge and delivery each
/// superstep and read by the master phase.
#[derive(Default)]
struct Scratch {
    /// The worker's aggregator partial, folded chunk by chunk.
    agg: Vec<AggValue>,
    /// The home thread's in-place prefix plus every stolen chunk merged
    /// behind it.
    compute: Tally,
    chunks_stolen: u64,
    combined_sender: u64,
    buffers: BufferCounters,
    received: u64,
    delivered: u64,
    next_active: usize,
}

/// What every chunk of one superstep's compute phase reads.
struct Step<'s, 'a, P: VertexProgram> {
    sh: &'s ParShared<'a, P>,
    superstep: u64,
    agg_prev: &'s [AggValue],
    globals: &'s [AggValue],
}

/// Runs the superstep loop on `t` threads over contiguous worker blocks:
/// `t - 1` spawned (none at `t = 1`), and the caller as thread 0 — its
/// caches already hold the worker states it just built. Returns the states
/// (for reassembly), the halt reason, and the superstep log.
///
/// A panic on any thread poisons the barrier, so the others unwind instead
/// of waiting for it; the run then re-raises the original payload.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn run_pool<P: VertexProgram>(
    program: &P,
    graph: &Graph,
    cfg: &PregelConfig,
    t: usize,
    partitioner: Partitioner,
    agg_defs: &[AggregatorDef],
    identities: &[AggValue],
    states: Vec<WorkerState<P::Value, P::Message>>,
) -> (
    Vec<WorkerState<P::Value, P::Message>>,
    HaltReason,
    Vec<SuperstepStats>,
) {
    let w = states.len();
    let combiner = program.combiner();
    let sender_combiner = if cfg.track_per_vertex { None } else { combiner };
    // One chunk per worker wherever no thief may run one: on one thread,
    // and under per-vertex tracking, whose maxima only the home thread
    // keeps.
    let steal_chunk = if t == 1 || cfg.track_per_vertex {
        0
    } else {
        cfg.steal_chunk
    };
    let workers: Vec<ParWorker<P::Value, P::Message>> = states
        .into_iter()
        .map(|mut st| {
            let view = StateView {
                ids: st.ids.as_ptr(),
                values: st.values.as_mut_ptr(),
                active: st.active.as_mut_ptr(),
                inbox: st.inbox.as_mut_ptr(),
                run: st.run_list.as_ptr(),
                run_len: 0,
                chunk_len: 1,
            };
            ParWorker {
                // Moving `st` into the cell moves the Vec headers, not
                // their heap buffers, so the view's pointers stay valid.
                state: SyncCell::new(st),
                view: SyncCell::new(view),
                out: SyncCell::new(Outgoing::new(w, graph.num_vertices(), sender_combiner)),
                span: AtomicU64::new(0),
                outstanding: AtomicUsize::new(0),
                done: Mutex::new(Vec::new()),
                scratch: SyncCell::new(Scratch {
                    agg: identities.to_vec(),
                    ..Scratch::default()
                }),
            }
        })
        .collect();
    for pw in &workers {
        publish_schedule(pw, steal_chunk);
    }
    let blocks: Vec<std::ops::Range<usize>> =
        (0..t).map(|i| (i * w / t)..((i + 1) * w / t)).collect();
    let sh = ParShared::<P> {
        program,
        graph,
        cfg,
        w,
        steal_chunk,
        partitioner,
        agg_defs,
        identities,
        workers,
        blocks,
        outboxes: (0..w)
            .map(|_| {
                (0..w)
                    .map(|_| SyncCell::new(OutboxSlot::default()))
                    .collect()
            })
            .collect(),
        chunk_pool: Mutex::new(Vec::new()),
        // Spinning at the barrier only helps when every thread can own a
        // core; otherwise it burns the timeslice the straggler needs.
        barrier: PhaseBarrier::new(t, t <= machine_parallelism()),
        master: SyncCell::new(Master {
            aggregates: identities.to_vec(),
            globals: program.globals(),
            stop: false,
            reason: HaltReason::Converged,
            reactivate: false,
            log: Vec::new(),
        }),
        thread_waits: (0..t).map(|_| AtomicU64::new(0)).collect(),
    };

    // Prefill the chunk-buffer pool with superstep 0's chunk count — every
    // chunk a superstep can have, and so every chunk thieves can take.
    // With the pool full up front, stealing never allocates a buffer,
    // deterministically: the steady-state invariant can't depend on how
    // the scheduler interleaved earlier merges and releases.
    if steal_chunk > 0 {
        let total: u64 = sh
            .workers
            .iter()
            .map(|pw| pw.span.load(Ordering::Relaxed) >> 32)
            .sum();
        let mut pool = sh.chunk_pool.lock().expect(LOCK);
        // Startup infrastructure, like the outgoing lanes: not a
        // per-superstep allocation event.
        pool.extend((0..total).map(|_| ChunkBuf::new(w, identities, false)));
    }

    std::thread::scope(|scope| {
        let sh = &sh;
        let helpers: Vec<_> = (1..t)
            .map(|t_id| scope.spawn(move || par_thread(t_id, sh)))
            .collect();
        let mine = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| par_thread(0, sh)));
        // Every thread has finished or unwound (a panic poisons the
        // barrier). Re-raise the panic that started it, not the `Poisoned`
        // exits it caused on the other threads.
        let outcomes = std::iter::once(mine).chain(helpers.into_iter().map(|h| h.join()));
        let mut panics: Vec<_> = outcomes.filter_map(Result::err).collect();
        if !panics.is_empty() {
            let cause = panics.iter().position(|p| !p.is::<Poisoned>());
            std::panic::resume_unwind(panics.swap_remove(cause.unwrap_or(0)));
        }
    });

    let master = sh.master.into_inner();
    let states = sh
        .workers
        .into_iter()
        .map(|pw| pw.state.into_inner())
        .collect();
    (states, master.reason, master.log)
}

/// The per-thread superstep loop: compute (own workers in place, then
/// stealing), compute barrier, delivery + next-superstep setup for owned
/// workers, delivery barrier with the master phase in the leader closure.
fn par_thread<P: VertexProgram>(t_id: usize, sh: &ParShared<'_, P>) {
    let _poison = sh.barrier.poison_on_unwind();
    let my = sh.blocks[t_id].clone();
    let combiner = sh.program.combiner();
    let mut acc = sh.identities.to_vec();
    let mut chunk_agg = sh.identities.to_vec();
    let mut superstep: u64 = 0;
    let mut wait_ns: u64 = 0;
    loop {
        // ---- Phase A: compute -------------------------------------------
        {
            // SAFETY (shared read): the master state's one writer runs
            // inside the delivery barrier, which this thread reaches only
            // after the compute phase.
            let master = unsafe { &*sh.master.get() };
            let step = Step {
                sh,
                superstep,
                agg_prev: &master.aggregates,
                globals: &master.globals,
            };
            for wi in my.clone() {
                compute_home(wi, &step, &mut acc, &mut chunk_agg);
            }
            if sh.steal_chunk > 0 {
                // Then one sweep over the other workers, from the back.
                // After it every span is empty, so nothing claimable
                // remains.
                for off in 0..sh.w {
                    let wi = (my.end + off) % sh.w;
                    if !my.contains(&wi) {
                        steal_from(wi, &step);
                    }
                }
            }
        }
        wait_ns += sh.barrier.wait();

        // ---- Phase B: delivery + next-superstep setup (owned workers) ---
        for wi in my.clone() {
            deliver_worker(wi, sh, combiner);
        }
        // Publish this thread's barrier waits before the master (inside the
        // next barrier) reads them; the wait at that barrier itself is
        // only known afterwards and lands in the next superstep's entry.
        sh.thread_waits[t_id].store(wait_ns, Ordering::Relaxed);
        wait_ns = 0;

        // ---- Phase C: master, inside the delivery barrier ---------------
        let (_, b2_wait) = sh.barrier.wait_leader(|| master_phase(sh, superstep));
        wait_ns += b2_wait;
        // SAFETY (shared read): the next write waits for this thread's next
        // arrival at the delivery barrier.
        let (stop, reactivate) = unsafe {
            let master = &*sh.master.get();
            (master.stop, master.reactivate)
        };
        if reactivate {
            for wi in my.clone() {
                // SAFETY: between the master barrier and the reactivation
                // barrier below, only the home thread (us) touches its
                // workers' state.
                let st = unsafe { &mut *sh.workers[wi].state.get() };
                st.active.iter_mut().for_each(|a| *a = true);
                st.run_list.clear();
                st.run_list.extend(0..st.ids.len() as u32);
                publish_schedule(&sh.workers[wi], sh.steal_chunk);
            }
            // Extra barrier only on reactivation supersteps: the rebuilt
            // worklists must be republished before anyone computes.
            wait_ns += sh.barrier.wait();
        }
        if stop {
            break;
        }
        superstep += 1;
    }
}

/// Republishes a worker's worklist view and resets its chunk schedule.
/// Called only while the home thread has exclusive access (before the
/// threads start, at the end of delivery, or in the reactivation window),
/// so the next compute phase — on the far side of a barrier — sees a
/// consistent schedule; the stores are Relaxed because that barrier orders
/// them.
fn publish_schedule<V, M>(pw: &ParWorker<V, M>, steal_chunk: usize) {
    // SAFETY: exclusive home-thread access per the contract above; readers
    // are released by a later barrier.
    let chunks = unsafe {
        let st = &*pw.state.get();
        let view = &mut *pw.view.get();
        view.run = st.run_list.as_ptr();
        view.run_len = st.run_list.len();
        view.chunk_len = if steal_chunk == 0 {
            view.run_len.max(1)
        } else {
            steal_chunk
        };
        view.run_len.div_ceil(view.chunk_len)
    };
    pw.span.store((chunks as u64) << 32, Ordering::Relaxed);
    pw.outstanding.store(chunks + 1, Ordering::Relaxed);
}

/// Worker `wi`'s compute on its home thread: claims chunks from the front
/// and runs them in place — messages straight into the worker's own
/// outgoing buffers, survivors onto its next worklist, each chunk's
/// aggregator partial folded into the worker's accumulator in chunk order.
/// Then hands off: whoever completes the worker's last unit merges the
/// stolen suffix behind this prefix.
fn compute_home<P: VertexProgram>(
    wi: usize,
    step: &Step<'_, '_, P>,
    acc: &mut [AggValue],
    chunk_agg: &mut [AggValue],
) {
    let sh = step.sh;
    let pw = &sh.workers[wi];
    // SAFETY: compute phase. The view is written only outside it, ordered
    // before this read by a barrier. Until the hand-off below, the outgoing
    // buffers, `next_run`, the per-vertex maxima and the scratch slot are
    // touched by no thread but this one: thieves reach the worker only
    // through the view, and only the vertices of chunks they claimed.
    let (view, out, next, mut pv, sc) = unsafe {
        let st = pw.state.get();
        (
            &*pw.view.get(),
            &mut *pw.out.get(),
            &mut *std::ptr::addr_of_mut!((*st).next_run),
            (*std::ptr::addr_of_mut!((*st).pv)).as_mut(),
            &mut *pw.scratch.get(),
        )
    };
    acc.copy_from_slice(sh.identities);
    let mut tally = Tally::default();
    while let Some(c) = pw.claim(false) {
        chunk_agg.copy_from_slice(sh.identities);
        tally.add(step.run_chunk(view, c, out, next, chunk_agg, pv.as_deref_mut()));
        fold_aggregates(sh.agg_defs, acc, chunk_agg);
    }
    // The merge and the delivery set the other fields.
    sc.agg.copy_from_slice(acc);
    sc.compute = tally;
    sc.chunks_stolen = 0;
    let units = tally.chunks as usize + 1;
    // AcqRel: the merger, on whichever thread, must see every write above.
    if pw.outstanding.fetch_sub(units, Ordering::AcqRel) == units {
        merge_worker(wi, sh);
    }
}

/// Steals chunks of worker `wi` from the back until its span is empty. Each
/// runs into a pooled chunk buffer; whoever completes the worker's last
/// unit merges.
fn steal_from<P: VertexProgram>(wi: usize, step: &Step<'_, '_, P>) {
    let sh = step.sh;
    let pw = &sh.workers[wi];
    // SAFETY (shared read): the view is written only outside the compute
    // phase, ordered before this read by a barrier.
    let view = unsafe { &*pw.view.get() };
    while let Some(c) = pw.claim(true) {
        let mut buf = acquire_chunk_buf(sh);
        buf.chunk = c;
        buf.tally = step.run_chunk(view, c, &mut buf.out, &mut buf.next, &mut buf.agg, None);
        pw.done.lock().expect(LOCK).push(buf);
        // AcqRel: the merger must see this chunk's output and vertex writes.
        if pw.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            merge_worker(wi, sh);
        }
    }
}

impl<P: VertexProgram> Step<'_, '_, P> {
    /// Runs `compute` on chunk `c` of a worker's worklist — the pooled
    /// driver's one vertex loop. Messages go to `out`, survivors to `next`,
    /// aggregates to `agg`: the worker's own buffers when its home thread
    /// runs the chunk in place, a chunk buffer's when a thief does.
    fn run_chunk(
        &self,
        view: &StateView<P::Value, P::Message>,
        c: usize,
        out: &mut Outgoing<P::Message>,
        next: &mut Vec<u32>,
        agg: &mut [AggValue],
        mut pv: Option<&mut PerVertexLocal>,
    ) -> Tally {
        let sh = self.sh;
        let t0 = Instant::now();
        let mut tally = Tally {
            chunks: 1,
            ..Tally::default()
        };
        for i in view.chunk(c) {
            // SAFETY: `run` holds unique sorted local indices, the chunks
            // partition it and each chunk is claimed once, so each `li`
            // below is visited by exactly one thread this phase; the
            // references formed from the element pointers are therefore
            // unaliased. The arrays themselves never reallocate during a run.
            let li = unsafe { *view.run.add(i) } as usize;
            let id = unsafe { *view.ids.add(li) };
            let inbox: &mut Vec<P::Message> = unsafe { &mut *view.inbox.add(li) };
            let value: &mut P::Value = unsafe { &mut *view.values.add(li) };
            // One unit for the invocation plus one per message processed.
            let mut vwork = 1 + inbox.len() as u64;
            let mut vsent = 0u64;
            let mut halted = false;
            {
                let mut ctx = Context::<P> {
                    id,
                    superstep: self.superstep,
                    graph: sh.graph,
                    value,
                    halted: &mut halted,
                    out,
                    partitioner: sh.partitioner,
                    agg_prev: self.agg_prev,
                    agg_partial: agg,
                    agg_defs: sh.agg_defs,
                    globals: self.globals,
                    work: &mut vwork,
                    sent: &mut vsent,
                    seed: sh.cfg.seed,
                };
                sh.program.compute(&mut ctx, inbox);
            }
            // Clear instead of dropping: the inbox keeps its capacity for
            // the next delivery phase. Vecs of zero-sized messages report
            // usize::MAX capacity; count those as zero instead.
            if std::mem::size_of::<P::Message>() > 0 {
                tally.inbox_capacity += inbox.capacity() as u64;
            }
            inbox.clear();
            // SAFETY: disjoint element, as above.
            unsafe { *view.active.add(li) = !halted };
            if !halted {
                next.push(li as u32);
            }
            tally.ran += 1;
            tally.work += vwork;
            tally.sent += vsent;
            tally.quiet += usize::from(vwork == 1);
            if let Some(pv) = pv.as_deref_mut() {
                pv.max_sent[li] = pv.max_sent[li].max(vsent);
                pv.max_work[li] = pv.max_work[li].max(vwork);
                pv.max_state_bytes[li] = pv.max_state_bytes[li].max(value.state_bytes() as u64);
            }
        }
        tally.wall = t0.elapsed();
        tally
    }
}

/// Folds `partial` into `acc`, aggregator by aggregator.
fn fold_aggregates(defs: &[AggregatorDef], acc: &mut [AggValue], partial: &[AggValue]) {
    for ((def, a), v) in defs.iter().zip(acc).zip(partial) {
        def.op.fold(a, *v);
    }
}

/// Ships `out`'s nonempty lanes into worker `wi`'s outbox row and resets
/// the combining tables for the next superstep. Returns this flush's
/// buffer-recycling events.
///
/// The lane to `wi` itself is not shipped: it stays where it is, and
/// `wi`'s delivery drains it in place at sender position `wi`. Its buffer
/// never changes hands, so it counts as recycled whenever it carries mail.
fn flush_out<P: VertexProgram>(
    wi: usize,
    sh: &ParShared<'_, P>,
    out: &mut Outgoing<P::Message>,
) -> BufferCounters {
    let mut counters = BufferCounters::default();
    for (dw, lane) in out.lanes.iter_mut().enumerate() {
        if lane.buf.is_empty() {
            debug_assert_eq!(lane.folded, 0, "folds without buffered messages");
            continue;
        }
        if dw == wi {
            counters.note(lane.buf.capacity());
            continue;
        }
        // SAFETY: compute phase — row `wi` is written only by the single
        // thread that merges `wi`'s compute (us); receivers read their
        // column only after the compute barrier.
        let slot = unsafe { &mut *sh.outboxes[wi][dw].get() };
        debug_assert!(slot.msgs.is_empty(), "outbox not drained");
        std::mem::swap(&mut slot.msgs, &mut lane.buf);
        slot.folded = std::mem::take(&mut lane.folded);
        // The lane now holds whatever empty buffer the receiver parked in
        // the slot last superstep (fresh only at startup).
        counters.note(lane.buf.capacity());
    }
    out.begin_superstep();
    counters
}

/// Pops a recycled chunk buffer from the shared pool, or builds a fresh
/// one (counted as an allocation event by the merge).
fn acquire_chunk_buf<P: VertexProgram>(sh: &ParShared<'_, P>) -> ChunkBuf<P::Message> {
    let recycled = sh.chunk_pool.lock().expect(LOCK).pop();
    match recycled {
        Some(mut b) => {
            b.fresh = false;
            b.agg.copy_from_slice(sh.identities);
            b
        }
        None => ChunkBuf::new(sh.w, sh.identities, true),
    }
}

/// Merges worker `wi`'s stolen chunks — in chunk order, behind the prefix
/// its home thread ran in place — into its outgoing buffers, next worklist,
/// aggregator and counters, then flushes the buffers to the outbox row.
/// Runs on the one thread that completes the worker's last unit.
fn merge_worker<P: VertexProgram>(wi: usize, sh: &ParShared<'_, P>) {
    let pw = &sh.workers[wi];
    // SAFETY: the home thread has handed off and every thief has finished
    // (`outstanding` reached zero with AcqRel ordering), and exactly one
    // thread — us — runs the merge; nothing else touches the outgoing
    // buffers, `next_run` or the scratch slot until the delivery phase, on
    // the far side of the compute barrier.
    let (out, next_run, sc) = unsafe {
        (
            &mut *pw.out.get(),
            &mut *std::ptr::addr_of_mut!((*pw.state.get()).next_run),
            &mut *pw.scratch.get(),
        )
    };
    let mut counters = BufferCounters::default();
    // Without stealing no chunk is ever stolen: skip the lock.
    if sh.steal_chunk > 0 {
        let mut done = pw.done.lock().expect(LOCK);
        done.sort_unstable_by_key(|b| b.chunk);
        for mut b in done.drain(..) {
            // Replay the chunk's sends one by one: behind the in-place
            // prefix this is the push sequence sequential execution
            // produces, so lane order and combining folds are
            // schedule-independent.
            for (dw, lane) in b.out.lanes.iter_mut().enumerate() {
                for (to, msg) in lane.buf.drain(..) {
                    out.push(dw, to, msg);
                }
            }
            next_run.extend_from_slice(&b.next);
            fold_aggregates(sh.agg_defs, &mut sc.agg, &b.agg);
            sc.compute.add(b.tally);
            sc.chunks_stolen += 1;
            if b.fresh {
                counters.allocated += 1;
            } else {
                counters.recycled += 1;
            }
            b.next.clear();
            b.out.begin_superstep();
            sh.chunk_pool.lock().expect(LOCK).push(b);
        }
    }
    sc.combined_sender = out.combined;
    let flush = flush_out(wi, sh, out);
    sc.buffers = BufferCounters {
        allocated: counters.allocated + flush.allocated,
        recycled: counters.recycled + flush.recycled,
    };
}

/// Delivery phase for one worker, on its home thread: drain the outbox
/// column in sender order — the worker's own lane in place at its own
/// position — finalize the next worklist, republish the chunk schedule.
fn deliver_worker<P: VertexProgram>(
    wi: usize,
    sh: &ParShared<'_, P>,
    combiner: Option<Combiner<P::Message>>,
) {
    let pw = &sh.workers[wi];
    // SAFETY: delivery phase — after the compute barrier every outbox slot
    // addressed to `wi` is fully written, every chunk executor is done, and
    // only `wi`'s home thread (us) touches its state and its outgoing
    // buffers until the next compute phase, and its scratch slot until the
    // master phase reads it inside the next barrier.
    let (st, out, sc) = unsafe {
        (
            &mut *pw.state.get(),
            &mut *pw.out.get(),
            &mut *pw.scratch.get(),
        )
    };
    if let Some(pv) = st.pv.as_mut() {
        pv.recv_cur.iter_mut().for_each(|c| *c = 0);
    }
    let mut received = 0u64;
    let mut delivered = 0u64;
    for sender in 0..sh.w {
        // Drain where the messages lie, so the emptied buffer keeps its
        // capacity there: the outbox slot's for the sender's next flush to
        // swap against, the own lane's for the next compute to fill.
        let (msgs, folded) = if sender == wi {
            let lane = &mut out.lanes[wi];
            (&mut lane.buf, &mut lane.folded)
        } else {
            // SAFETY: column `wi` is read only by us this phase; the
            // sender's write happened before the compute barrier.
            let slot = unsafe { &mut *sh.outboxes[sender][wi].get() };
            (&mut slot.msgs, &mut slot.folded)
        };
        // `r_i` keeps its algorithm-level meaning: sends folded at the
        // sender still count as received here.
        received += msgs.len() as u64 + std::mem::take(folded);
        delivered += deliver_lane(st, sh.partitioner, combiner, msgs);
    }
    if let Some(pv) = st.pv.as_mut() {
        for li in 0..pv.recv_cur.len() {
            pv.max_received[li] = pv.max_received[li].max(pv.recv_cur[li]);
        }
    }
    sort_next_run(st);
    let next_active = st.next_run.len();
    std::mem::swap(&mut st.run_list, &mut st.next_run);
    st.next_run.clear();
    sc.received = received;
    sc.delivered = delivered;
    sc.next_active = next_active;
    publish_schedule(pw, sh.steal_chunk);
}

/// The serial master phase, run by the last thread to arrive at the
/// delivery barrier (inside its leader closure, before anyone is
/// released): merge aggregators and statistics in worker order, run the
/// master hook, decide whether to stop.
fn master_phase<P: VertexProgram>(sh: &ParShared<'_, P>, superstep: u64) {
    // SAFETY: every other thread is parked at this barrier, past its last
    // read of the master state and its last write to a scratch slot.
    let m = unsafe { &mut *sh.master.get() };
    m.aggregates.copy_from_slice(sh.identities);
    let mut workers = Vec::with_capacity(sh.w);
    let mut active_next_total = 0usize;
    let mut ran_total = 0usize;
    let mut quiet_total = 0usize;
    let mut sent = 0u64;
    let mut delivered_total = 0u64;
    let mut combined_total = 0u64;
    let mut chunks_total = 0u64;
    let mut chunks_stolen = 0u64;
    let mut buffers = BufferStats::default();
    for pw in &sh.workers {
        // SAFETY: as above.
        let sc = unsafe { &*pw.scratch.get() };
        fold_aggregates(sh.agg_defs, &mut m.aggregates, &sc.agg);
        workers.push(WorkerStats {
            work: sc.compute.work,
            sent: sc.compute.sent,
            received: sc.received,
            wall: sc.compute.wall,
            stolen_chunks: sc.chunks_stolen,
        });
        active_next_total += sc.next_active;
        ran_total += sc.compute.ran;
        quiet_total += sc.compute.quiet;
        sent += sc.compute.sent;
        delivered_total += sc.delivered;
        combined_total += sc.combined_sender;
        chunks_total += sc.compute.chunks;
        chunks_stolen += sc.chunks_stolen;
        buffers.allocated += sc.buffers.allocated;
        buffers.recycled += sc.buffers.recycled;
        buffers.inbox_capacity += sc.compute.inbox_capacity;
    }
    let mut wait_total = 0u64;
    let mut wait_max = 0u64;
    for tw in &sh.thread_waits {
        let v = tw.load(Ordering::Relaxed);
        wait_total += v;
        wait_max = wait_max.max(v);
    }
    m.log.push(SuperstepStats {
        workers,
        active: ran_total,
        quiet: quiet_total,
        messages_sent: sent,
        messages_delivered: delivered_total,
        messages_combined_sender: combined_total,
        buffers,
        aggregates: m.aggregates.clone(),
        barrier_wait_ns: wait_total,
        barrier_wait_max_ns: wait_max,
        chunks: chunks_total,
        chunks_stolen,
    });
    let mut mc = MasterContext {
        superstep,
        num_vertices: sh.graph.num_vertices(),
        active: active_next_total,
        aggregates: &m.aggregates,
        globals: &mut m.globals,
        halt: false,
        reactivate_all: false,
    };
    sh.program.master_compute(&mut mc);
    let (halt, reactivate) = (mc.halt, mc.reactivate_all);
    (m.stop, m.reason) = if halt {
        (true, HaltReason::MasterHalted)
    } else if active_next_total == 0 && !reactivate {
        (true, HaltReason::Converged)
    } else if superstep + 1 >= sh.cfg.max_supersteps {
        (true, HaltReason::MaxSupersteps)
    } else {
        (false, HaltReason::Converged)
    };
    m.reactivate = reactivate;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggOp, AggregatorDef};
    use vcgp_graph::generators;

    /// Halts immediately; sanity-checks convergence in one superstep.
    struct Noop;
    impl VertexProgram for Noop {
        type Value = u32;
        type Message = ();
        fn compute(&self, ctx: &mut Context<'_, Self>, _msgs: &[()]) {
            ctx.vote_to_halt();
        }
    }

    /// Each vertex floods its id for `rounds` supersteps; exercises message
    /// delivery, reactivation, and counters.
    struct Flood {
        rounds: u64,
    }
    impl VertexProgram for Flood {
        type Value = u64;
        type Message = u64;
        fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u64]) {
            *ctx.value_mut() += msgs.iter().sum::<u64>();
            if ctx.superstep() < self.rounds {
                ctx.send_to_all_out_neighbors(1);
            }
            ctx.vote_to_halt();
        }
    }

    #[test]
    fn noop_converges_in_one_superstep() {
        let g = generators::path(10);
        let (_, stats) = run(&Noop, &g, &PregelConfig::single_worker());
        assert_eq!(stats.supersteps(), 1);
        assert_eq!(stats.halt_reason, HaltReason::Converged);
        assert_eq!(stats.total_messages(), 0);
    }

    #[test]
    fn flood_counts_messages_per_degree() {
        let g = generators::star(5); // center 0 with 4 leaves
        let (values, stats) = run(&Flood { rounds: 1 }, &g, &PregelConfig::single_worker());
        // Superstep 0: everyone sends 1 along each edge; superstep 1:
        // everyone sums. Center receives 4, leaves receive 1 each.
        assert_eq!(values[0], 4);
        assert_eq!(values[1], 1);
        assert_eq!(stats.total_messages(), 8);
        assert_eq!(stats.supersteps(), 2);
    }

    #[test]
    fn results_identical_across_worker_and_thread_counts() {
        let g = generators::gnm_connected(101, 300, 9);
        let base = run(&Flood { rounds: 3 }, &g, &PregelConfig::single_worker());
        for workers in [2usize, 3, 5, 8] {
            // threads = 1 multiplexes every worker on the caller, one
            // chunk each; 2 and 3 split worklists into tiny steal chunks;
            // stats and values must not move.
            for threads in [1usize, 2, 3] {
                let cfg = PregelConfig::default()
                    .with_workers(workers)
                    .with_threads(threads)
                    .with_steal_chunk(2);
                let other = run(&Flood { rounds: 3 }, &g, &cfg);
                assert_eq!(base.0, other.0, "values differ at W={workers} T={threads}");
                assert_eq!(
                    base.1.total_messages(),
                    other.1.total_messages(),
                    "message totals differ at W={workers} T={threads}"
                );
                assert_eq!(base.1.supersteps(), other.1.supersteps());
                for (a, b) in base.1.superstep_stats.iter().zip(&other.1.superstep_stats) {
                    assert_eq!(
                        a.messages_delivered, b.messages_delivered,
                        "delivered differ at W={workers} T={threads}"
                    );
                    assert_eq!(
                        a.active, b.active,
                        "active differ at W={workers} T={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn stealing_disabled_matches_stealing_enabled() {
        let g = generators::gnm_connected(101, 300, 9);
        let on = PregelConfig::default()
            .with_workers(4)
            .with_threads(2)
            .with_steal_chunk(3);
        let off = PregelConfig::default()
            .with_workers(4)
            .with_threads(2)
            .with_steal_chunk(0);
        // One thread has no thief, whatever the steal chunk says.
        let alone = on.clone().with_threads(1);
        let a = run(&Flood { rounds: 3 }, &g, &on);
        let b = run(&Flood { rounds: 3 }, &g, &off);
        let c = run(&Flood { rounds: 3 }, &g, &alone);
        assert_eq!(a.0, b.0);
        assert_eq!(a.0, c.0);
        assert_eq!(a.1.total_messages(), b.1.total_messages());
        assert_eq!(a.1.total_messages(), c.1.total_messages());
        // Without stealing each nonempty worklist is one chunk, and only
        // its home thread runs it.
        assert!(a.1.superstep_stats[0].chunks > 4);
        for unstolen in [&b.1, &c.1] {
            assert_eq!(unstolen.superstep_stats[0].chunks, 4);
            assert!(unstolen
                .superstep_stats
                .iter()
                .all(|s| s.chunks_stolen == 0));
        }
    }

    /// Min-propagation with a combiner: messages to the same vertex collapse.
    struct MinProp;
    impl VertexProgram for MinProp {
        type Value = u32;
        type Message = u32;
        fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u32]) {
            let incoming = msgs.iter().copied().min();
            let current = *ctx.value();
            let candidate = if ctx.superstep() == 0 {
                ctx.id()
            } else {
                current
            };
            let best = incoming.map_or(candidate, |m| m.min(candidate));
            if ctx.superstep() == 0 || best < current {
                *ctx.value_mut() = best;
                ctx.send_to_all_out_neighbors(best);
            }
            ctx.vote_to_halt();
        }
        fn combiner(&self) -> Option<fn(&mut u32, u32)> {
            Some(|acc, m| *acc = (*acc).min(m))
        }
    }

    #[test]
    fn combiner_reduces_delivered_not_sent() {
        let g = generators::complete(6);
        let cfg = PregelConfig::single_worker();
        let (values, stats) = run(&MinProp, &g, &cfg);
        assert!(values.iter().all(|&v| v == 0));
        let s0 = &stats.superstep_stats[0];
        assert_eq!(s0.messages_sent, 30); // 6 vertices x 5 neighbors
        assert_eq!(s0.messages_delivered, 6); // combined to one per vertex
                                              // With one worker every send after the first per destination folds
                                              // at the sender: 30 sends - 6 destinations = 24 folds, leaving the
                                              // receiver backstop nothing to do.
        assert_eq!(s0.messages_combined_sender, 24);
    }

    #[test]
    fn sender_combining_depends_on_worker_count() {
        let g = generators::complete(6);
        for (workers, threads, expect_combined) in [(1usize, 1, 24u64), (2, 1, 18), (2, 2, 18)] {
            let at = format!("W={workers} T={threads}");
            let cfg = PregelConfig::default()
                .with_workers(workers)
                .with_threads(threads);
            let (values, stats) = run(&MinProp, &g, &cfg);
            assert!(values.iter().all(|&v| v == 0), "{at}");
            let s0 = &stats.superstep_stats[0];
            // sent and delivered are worker-count independent by design...
            assert_eq!(s0.messages_sent, 30, "{at}");
            assert_eq!(s0.messages_delivered, 6, "{at}");
            // ...while the sender-side fold count is a transport observable:
            // each sender worker buffers separately, on any thread count, so
            // a destination receives one shipped message per sender worker
            // and at W=2 only 30 - 6*2 = 18 sends fold at the sender.
            assert_eq!(s0.messages_combined_sender, expect_combined, "{at}");
        }
    }

    #[test]
    fn per_vertex_tracking_disables_sender_combining() {
        let g = generators::complete(6);
        for threads in [1usize, 2] {
            let cfg = PregelConfig::default()
                .with_workers(2)
                .with_threads(threads)
                .with_per_vertex_tracking();
            let (values, stats) = run(&MinProp, &g, &cfg);
            assert!(values.iter().all(|&v| v == 0), "T={threads}");
            let s0 = &stats.superstep_stats[0];
            // The receiver backstop still combines down to one per inbox, but
            // no send folds at the sender, so per-message receive counts stay
            // exact for the BPPA observables.
            assert_eq!(s0.messages_sent, 30, "T={threads}");
            assert_eq!(s0.messages_delivered, 6, "T={threads}");
            assert_eq!(s0.messages_combined_sender, 0, "T={threads}");
            let pv = stats.per_vertex.unwrap();
            assert!(pv.max_received.iter().all(|&r| r == 5), "T={threads}");
        }
    }

    #[test]
    fn steady_state_supersteps_allocate_no_message_buffers() {
        let g = generators::gnm_connected(64, 200, 7);
        // One worker, three multiplexed on one thread, three on two.
        for (workers, threads) in [(1usize, 1usize), (3, 1), (3, 2)] {
            let at = format!("W={workers} T={threads}");
            let cfg = PregelConfig::default()
                .with_workers(workers)
                .with_threads(threads);
            let (_, stats) = run(&Flood { rounds: 6 }, &g, &cfg);
            assert!(stats.supersteps() >= 6, "{at}");
            for (i, s) in stats.superstep_stats.iter().enumerate().skip(1) {
                // After the first superstep the lane/outbox swap cycle is
                // closed: nothing on the message path is allocated again.
                assert_eq!(s.buffers.allocated, 0, "superstep {i} allocated at {at}");
                if i < stats.superstep_stats.len() - 1 {
                    assert!(
                        s.buffers.recycled > 0,
                        "superstep {i} recycled nothing at {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn threaded_stealing_steady_state_allocation_free() {
        // Same invariant on two threads with aggressive chunking:
        // lane handoff recycles through the outbox swap cycle and stolen
        // chunks' buffers through the prefilled pool, so steady-state
        // supersteps allocate nothing no matter how chunks were scheduled.
        // Home threads run their chunks in place, without a buffer, so a
        // superstep recycles one buffer per stolen chunk plus one per
        // nonempty (sender, receiver) lane: at most W^2 = 9, at least one
        // while Flood still sends.
        let g = generators::gnm_connected(64, 200, 7);
        let cfg = PregelConfig::default()
            .with_workers(3)
            .with_threads(2)
            .with_steal_chunk(4);
        let (_, stats) = run(&Flood { rounds: 6 }, &g, &cfg);
        assert!(stats.supersteps() >= 6);
        for (i, s) in stats.superstep_stats.iter().enumerate().skip(1) {
            assert_eq!(s.buffers.allocated, 0, "superstep {i} allocated");
            let lanes = s.buffers.recycled - s.chunks_stolen;
            assert!(lanes <= 9, "superstep {i} recycled {lanes} lanes");
            if i < stats.superstep_stats.len() - 1 {
                assert!(lanes > 0, "superstep {i} recycled no lane");
            }
        }
    }

    #[test]
    fn inbox_capacity_retained_across_supersteps() {
        let g = generators::gnm_connected(64, 200, 7);
        let cfg = PregelConfig::single_worker();
        let (_, stats) = run(&Flood { rounds: 6 }, &g, &cfg);
        let caps: Vec<u64> = stats
            .superstep_stats
            .iter()
            .map(|s| s.buffers.inbox_capacity)
            .collect();
        // Superstep 0 runs before any delivery, so inboxes hold no
        // capacity yet; afterwards every vertex keeps the allocation its
        // busiest superstep needed (Flood has constant traffic, so the
        // retained total is stable — the regression this guards against is
        // the old `mem::take` dropping capacity every superstep).
        assert_eq!(caps[0], 0);
        assert!(caps[2] > 0);
        assert_eq!(caps[2], caps[3]);
        assert_eq!(caps[3], caps[4]);
    }

    #[test]
    fn resolved_threads_caps_at_workers() {
        let cfg = PregelConfig::default().with_workers(4).with_threads(9);
        assert_eq!(cfg.resolved_threads(), 4);
        let cfg = PregelConfig::default().with_workers(4).with_threads(2);
        assert_eq!(cfg.resolved_threads(), 2);
        // Auto never exceeds the worker count either.
        let auto = PregelConfig::default().with_workers(1).with_threads(0);
        assert_eq!(auto.resolved_threads(), 1);
    }

    /// Aggregator test: sums vertex ids in superstep 0, master halts after
    /// verifying the total.
    struct SumIds;
    impl VertexProgram for SumIds {
        type Value = i64;
        type Message = ();
        fn compute(&self, ctx: &mut Context<'_, Self>, _msgs: &[()]) {
            if ctx.superstep() == 0 {
                ctx.aggregate(0, AggValue::I64(ctx.id() as i64));
            } else {
                *ctx.value_mut() = ctx.read_aggregate(0).as_i64();
                ctx.vote_to_halt();
            }
        }
        fn aggregators(&self) -> Vec<AggregatorDef> {
            vec![AggregatorDef::new("sum", AggOp::SumI64)]
        }
    }

    #[test]
    fn aggregator_visible_next_superstep() {
        let g = generators::path(10);
        for (workers, threads) in [(1usize, 1usize), (4, 1), (4, 2)] {
            let cfg = PregelConfig::default()
                .with_workers(workers)
                .with_threads(threads)
                .with_steal_chunk(2);
            let (values, stats) = run(&SumIds, &g, &cfg);
            assert!(values.iter().all(|&v| v == 45), "W={workers} T={threads}");
            // The merged trajectory is part of the superstep log.
            assert_eq!(
                stats.superstep_stats[0].aggregates,
                vec![AggValue::I64(45)],
                "W={workers} T={threads}"
            );
        }
    }

    /// Master drives three phases via a global slot, reactivating everyone.
    struct Phased;
    impl VertexProgram for Phased {
        type Value = i64;
        type Message = ();
        fn compute(&self, ctx: &mut Context<'_, Self>, _msgs: &[()]) {
            *ctx.value_mut() = ctx.global(0).as_i64();
            ctx.vote_to_halt();
        }
        fn globals(&self) -> Vec<AggValue> {
            vec![AggValue::I64(0)]
        }
        fn master_compute(&self, master: &mut MasterContext<'_>) {
            let phase = master.global(0).as_i64();
            if phase < 2 {
                master.set_global(0, AggValue::I64(phase + 1));
                master.reactivate_all();
            } else {
                master.halt();
            }
        }
    }

    #[test]
    fn master_phases_and_halt() {
        let g = generators::path(5);
        // The reactivation barrier with two parties and with one.
        for threads in [1usize, 2] {
            let cfg = PregelConfig::default()
                .with_workers(3)
                .with_threads(threads);
            let (values, stats) = run(&Phased, &g, &cfg);
            assert_eq!(stats.halt_reason, HaltReason::MasterHalted, "T={threads}");
            assert_eq!(stats.supersteps(), 3, "T={threads}");
            assert!(values.iter().all(|&v| v == 2), "T={threads}");
        }
    }

    /// Never halts: exercises the superstep cap.
    struct Forever;
    impl VertexProgram for Forever {
        type Value = u32;
        type Message = ();
        fn compute(&self, _ctx: &mut Context<'_, Self>, _msgs: &[()]) {}
    }

    #[test]
    fn max_supersteps_cap() {
        let g = generators::path(3);
        let cfg = PregelConfig::single_worker().with_max_supersteps(7);
        let (_, stats) = run(&Forever, &g, &cfg);
        assert_eq!(stats.supersteps(), 7);
        assert_eq!(stats.halt_reason, HaltReason::MaxSupersteps);
    }

    #[test]
    fn per_vertex_tracking_reflects_degree() {
        let g = generators::star(6);
        let cfg = PregelConfig::single_worker().with_per_vertex_tracking();
        let (_, stats) = run(&Flood { rounds: 1 }, &g, &cfg);
        let pv = stats.per_vertex.unwrap();
        assert_eq!(pv.max_sent[0], 5); // center sends to 5 leaves
        assert_eq!(pv.max_sent[1], 1);
        assert_eq!(pv.max_received[0], 5);
        assert_eq!(pv.max_received[2], 1);
        assert!(pv.max_work[0] >= 6); // 1 invocation + 5 sends
        assert!(pv.max_state_bytes[0] >= 8);
    }

    #[test]
    fn deterministic_rng_across_workers() {
        struct RngProbe;
        impl VertexProgram for RngProbe {
            type Value = u64;
            type Message = ();
            fn compute(&self, ctx: &mut Context<'_, Self>, _msgs: &[()]) {
                *ctx.value_mut() = ctx.rng().next_u64();
                ctx.vote_to_halt();
            }
        }
        let g = generators::path(37);
        let a = run(&RngProbe, &g, &PregelConfig::single_worker().with_seed(5)).0;
        let b = run(
            &RngProbe,
            &g,
            &PregelConfig::default()
                .with_workers(4)
                .with_threads(2)
                .with_seed(5),
        )
        .0;
        let c = run(&RngProbe, &g, &PregelConfig::single_worker().with_seed(6)).0;
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn message_reactivates_halted_vertex() {
        /// Vertex 0 sends one message to vertex 2 in superstep 1 only.
        struct LateSend;
        impl VertexProgram for LateSend {
            type Value = u32;
            type Message = u32;
            fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u32]) {
                if ctx.superstep() == 0 && ctx.id() == 0 {
                    ctx.send(2, 99);
                }
                if let Some(&m) = msgs.first() {
                    *ctx.value_mut() = m;
                }
                ctx.vote_to_halt();
            }
        }
        let g = generators::path(4);
        // threads = 2 also exercises the empty-worklist worker path: in
        // superstep 1 only vertex 2's worker has anything to run.
        for threads in [1usize, 2] {
            let cfg = PregelConfig::default()
                .with_workers(2)
                .with_threads(threads);
            let (values, stats) = run(&LateSend, &g, &cfg);
            assert_eq!(values[2], 99, "T={threads}");
            assert_eq!(stats.supersteps(), 2, "T={threads}");
        }
    }

    #[test]
    fn chunk_accounting_counts_worklist_chunks() {
        let g = generators::path(10);
        let cfg = PregelConfig::default()
            .with_workers(2)
            .with_threads(2)
            .with_steal_chunk(1);
        let (_, stats) = run(&Flood { rounds: 1 }, &g, &cfg);
        let s0 = &stats.superstep_stats[0];
        // Chunk size 1: one chunk per active vertex.
        assert_eq!(s0.chunks, 10);
        assert!(s0.chunks_stolen <= s0.chunks);
        let stolen_sum: u64 = s0.workers.iter().map(|w| w.stolen_chunks).sum();
        assert_eq!(stolen_sum, s0.chunks_stolen);
    }

    #[test]
    fn work_accounting_charges() {
        struct Charger;
        impl VertexProgram for Charger {
            type Value = u32;
            type Message = ();
            fn compute(&self, ctx: &mut Context<'_, Self>, _msgs: &[()]) {
                ctx.charge(10);
                ctx.vote_to_halt();
            }
        }
        let g = generators::path(4);
        let (_, stats) = run(&Charger, &g, &PregelConfig::single_worker());
        // 4 vertices x (1 invocation + 10 charged).
        assert_eq!(stats.total_work(), 44);
    }

    #[test]
    #[should_panic(expected = "one initial value per vertex")]
    fn wrong_value_count_panics() {
        let g = generators::path(3);
        run_with_values(&Noop, &g, vec![0u32; 2], &PregelConfig::single_worker());
    }

    #[test]
    fn range_partitioning_matches_hash() {
        let g = generators::gnm_connected(123, 350, 4);
        let hash_cfg = PregelConfig::default()
            .with_workers(4)
            .with_threads(2)
            .with_steal_chunk(3);
        let range_cfg = PregelConfig::default()
            .with_workers(4)
            .with_threads(2)
            .with_steal_chunk(3)
            .with_partitioning(crate::partition::Partitioning::Range);
        let a = run(&Flood { rounds: 3 }, &g, &hash_cfg);
        let b = run(&Flood { rounds: 3 }, &g, &range_cfg);
        assert_eq!(a.0, b.0, "results must not depend on partitioning");
        assert_eq!(a.1.total_messages(), b.1.total_messages());
        assert_eq!(a.1.supersteps(), b.1.supersteps());
    }

    #[test]
    fn sort_next_run_scan_and_sort_give_the_same_list() {
        // The list as the engine builds it: survivors of the compute phase
        // in ascending order, then halted vertices in mail-arrival order.
        // Sizes below 8 always take the scan; the shares straddle the 1/8
        // switch on the larger ones.
        let mut rng = vcgp_graph::rng::SplitMix64::new(7);
        for k in [0usize, 1, 3, 7, 8, 9, 64, 1000] {
            for percent in [0u64, 5, 12, 13, 50, 100] {
                let mut st: WorkerState<(), u8> = WorkerState {
                    ids: (0..k as VertexId).collect(),
                    values: vec![(); k],
                    active: (0..k).map(|_| rng.next_u64() % 100 < percent).collect(),
                    inbox: (0..k).map(|_| Vec::new()).collect(),
                    run_list: Vec::new(),
                    next_run: Vec::new(),
                    pv: None,
                };
                let mut mailed: Vec<u32> = Vec::new();
                for li in 0..k {
                    if st.active[li] {
                        st.next_run.push(li as u32);
                    }
                    if rng.next_u64() % 100 < percent {
                        st.inbox[li].push(0);
                        if !st.active[li] {
                            mailed.push(li as u32);
                        }
                    }
                }
                mailed.reverse();
                st.next_run.extend(mailed);
                let mut want = st.next_run.clone();
                want.sort_unstable();
                sort_next_run(&mut st);
                assert_eq!(st.next_run, want, "k={k} share={percent}%");
            }
        }
    }

    #[test]
    fn empty_graph_runs() {
        let g = vcgp_graph::GraphBuilder::new(0).build();
        for threads in [1usize, 2] {
            let cfg = PregelConfig::default()
                .with_workers(2)
                .with_threads(threads);
            let (values, stats) = run(&Noop, &g, &cfg);
            assert!(values.is_empty(), "T={threads}");
            assert_eq!(stats.supersteps(), 1, "T={threads}");
        }
    }
}
