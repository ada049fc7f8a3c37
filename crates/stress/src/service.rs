//! The replica core of the graph-query service: a bounded job queue
//! drained by a pool of OS-thread executors, plus the service's config,
//! counters and tickets.
//!
//! The service itself is [`crate::shard::ShardedGraphService`] — the one
//! service type, for any shard count `S ≥ 1`. It loads the graph once
//! behind an [`Arc`] and runs `R ≥ 1` replica cores per shard, each over
//! the same vertex slice (see [`ServiceConfig::replicas`]); the queue +
//! executor machinery of one such core is the crate-internal `Core` here.
//! Callers submit [`QueryRequest`]s and wait on a ticket for the
//! [`QueryResponse`] ([`Ticket::wait`] for one core's answer).
//!
//! **Answered at submit.** A request whose answer needs no executor is
//! answered on the submitting thread and comes back as a ready ticket — no
//! queue lock, no channel, no thread hand-off: a request already past its
//! deadline (an early drop), a point lookup (degree / neighbors), which is
//! a pure read of the request's pinned, immutable epoch snapshot — whether
//! or not a writer ([`ServiceConfig::mutations`]) is installing newer
//! epochs meanwhile — and, one layer up in the router, a result-cache hit
//! (see [`crate::router`]), which reaches no core at all.
//! Such a request takes no queue slot and is never shed or throttled;
//! the queue and everything below governs *executor-bound* work only —
//! analytics and the debug hooks.
//!
//! The queue is bounded — what happens at capacity is the
//! [`QueueFullPolicy`]: [`QueueFullPolicy::Block`] applies backpressure to
//! submitters, [`QueueFullPolicy::Reject`] sheds the request immediately
//! with [`QueryError::Rejected`]. The queue itself is the multi-tenant
//! admission stage of [`crate::qos`] — per-tenant lanes with token
//! buckets, weighted-fair dequeue and per-tenant full policies — which
//! degenerates to a plain FIFO under the default single-tenant
//! [`ServiceConfig::qos`].
//!
//! Failure handling:
//! * every request is executed at most once: one whose execution exceeds
//!   its timeout fails with [`QueryError::Timeout`] (checked post-hoc: the
//!   engine cannot be interrupted mid-superstep). A late shared run still
//!   memoizes its whole answer, so the identical request again is a cache
//!   hit; [`crate::shard`] says how a late shared run answers its legs;
//! * panics inside a workload are caught per request: the executor survives
//!   and the caller gets [`QueryError::Panicked`] — as does every scattered
//!   leg parked on the run that panicked (see [`crate::shard`]; the same
//!   holds for a shared run of an unsupported workload);
//! * requests whose absolute deadline has already passed — at submission,
//!   or by the time an executor dequeues them — are answered
//!   [`QueryError::DeadlineExceeded`] without running (an *early drop*,
//!   counted separately from timeouts);
//! * shutdown is graceful: [`crate::shard::ShardedGraphService::close`]
//!   stops admissions, then executors drain everything already accepted,
//!   so no accepted request loses its response.
//!
//! Result caching is the service's, not a core's: the router probes the
//! one [`crate::cache::ResultCache`] per request before any leg reaches a
//! core, and the leader of a shared run fills it (see [`crate::shard`]).
//! A core's counters therefore never include a cache hit.

use crate::epoch::MutationConfig;
use crate::interval::IntervalSeries;
use crate::qos::{Pop, QosConfig, TenantLaneStats, TenantQueue};
use crate::request::{QueryError, QueryKind, QueryOutput, QueryRequest, QueryResponse, Route};
use crate::router::RoutingPolicy;
use crate::shard::ShardBackend;
use crate::stripe::{submit_stripe, SUBMIT_STRIPES};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vcgp_pregel::PregelConfig;
use vcgp_testkit::LogHistogram;

/// What a submission does when the replica core's queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueFullPolicy {
    /// Block the submitter until a slot frees up (backpressure).
    #[default]
    Block,
    /// Shed the request: the returned ticket resolves immediately to
    /// [`QueryError::Rejected`] and the reject is counted in
    /// [`ServiceStats::rejected`].
    Reject,
}

impl QueueFullPolicy {
    /// Parses a policy name (`block` / `reject`, case-insensitive).
    pub fn parse(s: &str) -> Result<QueueFullPolicy, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "block" => Ok(QueueFullPolicy::Block),
            "reject" => Ok(QueueFullPolicy::Reject),
            other => Err(format!(
                "unknown queue policy {other:?} (expected block or reject)"
            )),
        }
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Executor threads draining each replica core's queue.
    pub executors: usize,
    /// Queue capacity of each replica core; at this many pending requests
    /// the [`QueueFullPolicy`] decides between backpressure and shedding.
    pub queue_capacity: usize,
    /// What to do when the queue is full.
    pub queue_policy: QueueFullPolicy,
    /// Seed of each shard's round-robin replica cursor (mixed with the
    /// shard index), so the dispatch sequence is reproducible.
    pub seed: u64,
    /// Result-cache capacity in entries, for the whole service (one entry
    /// per cached analytics answer, at any shard or replica count).
    /// Zero disables caching entirely. Entries are scalar-sized, so the
    /// resident bound is a few hundred bytes per entry (see
    /// [`crate::cache::CacheStats::resident_bytes`]).
    pub cache_capacity: usize,
    /// Engine configuration for workload execution. Defaults to a single
    /// worker per executor — concurrency comes from running many requests
    /// at once, not from parallelizing each one. Its `partitioning` field
    /// doubles as the shard-placement strategy of the service.
    pub engine: PregelConfig,
    /// Live-mutation settings. `None` (the default) keeps the service
    /// read-only:
    /// [`submit_mutation`](crate::shard::ShardedGraphService::submit_mutation)
    /// fails with [`SubmitError::ReadOnly`], no writer thread is spawned,
    /// and queries always serve epoch 0.
    pub mutations: Option<MutationConfig>,
    /// Replica cores per shard. Each replica is a full
    /// queue-plus-executor-pool core over the *same* epoch-pinned
    /// snapshot and shard slice, so replicating a hot shard costs queue
    /// state, not graph copies.
    pub replicas: usize,
    /// How the router picks a replica within a shard. See
    /// [`RoutingPolicy`].
    pub routing: RoutingPolicy,
    /// Multi-tenant QoS shape: one spec per tenant (weight, optional
    /// service-side token bucket, per-tenant queue-full policy). The
    /// default single-tenant config keeps every core a plain FIFO —
    /// bit-identical to the pre-QoS service. See [`crate::qos`].
    pub qos: QosConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            executors: std::thread::available_parallelism()
                .map(|p| p.get().min(4))
                .unwrap_or(2),
            queue_capacity: 128,
            queue_policy: QueueFullPolicy::Block,
            seed: 0x5354_5253, // "STRS"
            cache_capacity: 256,
            engine: PregelConfig::single_worker(),
            mutations: None,
            replicas: 1,
            routing: RoutingPolicy::RoundRobin,
            qos: QosConfig::default(),
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The service has been closed; no new work is admitted.
    Closed,
    /// A mutation was submitted to a service started without a
    /// [`MutationConfig`] — the graph is frozen.
    ReadOnly,
    /// A [`QueryKind::WorkloadPartial`] was submitted: partials are the
    /// legs the router fans a [`QueryKind::Workload`] out into, not
    /// requests of their own.
    InternalLeg,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "service closed"),
            SubmitError::ReadOnly => {
                write!(f, "service is read-only (no mutation stream configured)")
            }
            SubmitError::InternalLeg => {
                write!(
                    f,
                    "workload partials are internal scatter legs; submit the workload"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Cumulative service counters (monotone; read with
/// [`ShardedGraphService::stats`](crate::shard::ShardedGraphService::stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests answered successfully by a core: point lookups, scattered
    /// legs and debug hooks. A result-cache hit is answered by the router
    /// and counted in `cache_hits` only.
    pub completed: u64,
    /// Requests answered with an error (includes rejects and early drops).
    pub failed: u64,
    /// Always zero: a request is executed at most once. Kept only because
    /// the repo benchmark reads it (`benchmark/src/serving.rs`, metric
    /// `stress.service.retries`).
    pub retries: u64,
    /// Requests (or scattered legs) whose execution exceeded their timeout.
    pub timeouts: u64,
    /// Panics contained by executors.
    pub panics: u64,
    /// Requests shed at submission under [`QueueFullPolicy::Reject`].
    pub rejected: u64,
    /// Requests whose deadline had already expired at submission or at
    /// dequeue, answered without running (distinct from `timeouts`, which
    /// count executions that ran too long).
    pub early_drops: u64,
    /// High-water mark of the queue depth (pending requests) since start —
    /// the occupancy gauge behind the stress report's per-shard column.
    pub queue_hwm: u64,
    /// Nanoseconds executors spent executing requests (queueing
    /// excluded), summed across the core's executor threads. Answers given
    /// at submit add nothing here.
    pub busy_ns: u64,
    /// Engine executions this core's executors completed for workload
    /// requests: the shared runs they *led*, late ones included. With the
    /// service-wide run table a scattered request costs one of these, not
    /// one per shard.
    pub engine_runs: u64,
    /// Scattered legs answered from a run another leg led: parked on a
    /// running entry, taken from a finished one, or taken out of a queue by
    /// the run's leader (see [`crate::shard`]). Every leg a finished run
    /// answered — in time or late — is exactly one of an engine run it led
    /// or a coalesced leg.
    pub coalesced_legs: u64,
    /// Point lookups (degree / neighbors) answered on the submitting thread
    /// from the request's pinned epoch: counted in `completed` / `failed`
    /// like any answer, but never queued and in no executor's service log.
    pub lookups_at_submit: u64,
    /// Analytics requests the router answered from the service's result
    /// cache, without a leg. The cache fields are the service's: they are
    /// zero in every shard and replica row.
    pub cache_hits: u64,
    /// Analytics requests the cache probe did not answer (each then
    /// scatters one leg to every shard).
    pub cache_misses: u64,
    /// Entries inserted into the result cache.
    pub cache_insertions: u64,
    /// Entries evicted from the result cache at capacity.
    pub cache_evictions: u64,
    /// Bytes currently resident in the result cache (a gauge, not a
    /// monotone counter).
    pub cache_bytes: u64,
}

impl ServiceStats {
    /// Folds another core's counters into this one (high-water marks take
    /// the maximum, everything else adds).
    pub fn absorb(&mut self, other: &ServiceStats) {
        self.completed += other.completed;
        self.failed += other.failed;
        self.timeouts += other.timeouts;
        self.panics += other.panics;
        self.rejected += other.rejected;
        self.early_drops += other.early_drops;
        self.queue_hwm = self.queue_hwm.max(other.queue_hwm);
        self.busy_ns += other.busy_ns;
        self.engine_runs += other.engine_runs;
        self.coalesced_legs += other.coalesced_legs;
        self.lookups_at_submit += other.lookups_at_submit;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_insertions += other.cache_insertions;
        self.cache_evictions += other.cache_evictions;
        self.cache_bytes += other.cache_bytes;
    }

    /// The counters accumulated *since* `earlier` (monotone counters
    /// subtract; the gauges — queue high-water mark and cache resident
    /// bytes — keep their current value). Used by the driver to scope a
    /// report to one run when several runs share a service process.
    pub fn delta_since(&self, earlier: &ServiceStats) -> ServiceStats {
        ServiceStats {
            completed: self.completed - earlier.completed,
            failed: self.failed - earlier.failed,
            retries: 0,
            timeouts: self.timeouts - earlier.timeouts,
            panics: self.panics - earlier.panics,
            rejected: self.rejected - earlier.rejected,
            early_drops: self.early_drops - earlier.early_drops,
            queue_hwm: self.queue_hwm,
            busy_ns: self.busy_ns - earlier.busy_ns,
            engine_runs: self.engine_runs - earlier.engine_runs,
            coalesced_legs: self.coalesced_legs - earlier.coalesced_legs,
            lookups_at_submit: self.lookups_at_submit - earlier.lookups_at_submit,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_insertions: self.cache_insertions - earlier.cache_insertions,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            cache_bytes: self.cache_bytes,
        }
    }
}

/// One replica core's measured service times: the run-total histogram plus
/// the per-interval series, merged across the core's executor threads.
/// The two are recorded by the same call, so the series' slots fold
/// *exactly* to `service` — the identity `--validate-report` checks per
/// replica.
#[derive(Debug, Clone)]
pub struct ReplicaSeries {
    /// Every executed request's service time since the last reset.
    pub service: LogHistogram,
    /// The same samples bucketed by completion interval.
    pub intervals: IntervalSeries,
}

/// One executor thread's service-time recorder. Each executor owns its own
/// mutex-guarded log (uncontended except during driver resets/reads), so
/// recording never crosses threads on the hot path.
struct ServiceLog {
    /// The instant interval indices are measured from (a phase start).
    origin: Instant,
    total: LogHistogram,
    series: IntervalSeries,
}

impl ServiceLog {
    fn new() -> ServiceLog {
        ServiceLog {
            origin: Instant::now(),
            total: LogHistogram::new(),
            series: IntervalSeries::new(1_000_000_000),
        }
    }

    fn record(&mut self, completed_at: Instant, service_time: Duration, ok: bool) {
        let at = completed_at
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let v = service_time.as_nanos() as u64;
        self.total.record(v);
        self.series.record(at, v, ok);
    }

    fn reset(&mut self, origin: Instant, interval_ns: u64) {
        self.origin = origin;
        self.total.clear();
        if self.series.interval_ns() == interval_ns {
            self.series.clear();
        } else {
            self.series = IntervalSeries::new(interval_ns);
        }
    }
}

/// One replica core's identity and counters within a shard. The cache
/// fields of `stats` are always zero here: the result cache is the
/// service's, probed by the router before any core sees the request.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaSnapshot {
    /// Replica index within the shard.
    pub replica: usize,
    /// The replica core's counters.
    pub stats: ServiceStats,
}

/// One shard's identity and counters, as reported to the stress driver.
/// `stats` folds every replica core (sums; queue high-water marks take the
/// maximum); its cache fields are zero, as in every replica row.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Vertices this shard owns.
    pub owned: usize,
    /// The shard's counters, folded across replicas.
    pub stats: ServiceStats,
    /// Per-replica counters (one entry even when unreplicated).
    pub replicas: Vec<ReplicaSnapshot>,
}

/// One cache-line-padded stripe of the hot service counters. 128 bytes
/// covers the spatial-prefetcher pair of 64-byte lines on x86.
#[derive(Default)]
#[repr(align(128))]
struct CounterSlot {
    completed: AtomicU64,
    failed: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
    rejected: AtomicU64,
    early_drops: AtomicU64,
    busy_ns: AtomicU64,
    engine_runs: AtomicU64,
    coalesced_legs: AtomicU64,
    lookups_at_submit: AtomicU64,
}

/// The hot counters, striped so executor threads never share a cache line:
/// executor `i` writes `slots[i]` exclusively, submit-side paths write one
/// of the trailing [`SUBMIT_STRIPES`] slots — the submitting thread's
/// [`submit_stripe`], so client threads bumping lookup/early-drop/reject
/// counters contend neither with executors nor with each other — and reads
/// sum every stripe.
struct Counters {
    slots: Box<[CounterSlot]>,
}

impl Counters {
    fn new(executors: usize) -> Counters {
        Counters {
            slots: (0..executors + SUBMIT_STRIPES)
                .map(|_| CounterSlot::default())
                .collect(),
        }
    }

    /// The executor thread `i`'s private stripe.
    fn executor_slot(&self, i: usize) -> &CounterSlot {
        &self.slots[i]
    }

    /// The calling (submitting) thread's stripe.
    fn submit_slot(&self) -> &CounterSlot {
        let first = self.slots.len() - SUBMIT_STRIPES;
        &self.slots[first + submit_stripe()]
    }

    fn sum(&self, field: impl Fn(&CounterSlot) -> &AtomicU64) -> u64 {
        self.slots
            .iter()
            .map(|s| field(s).load(Ordering::Relaxed))
            .sum()
    }
}

struct Job {
    req: QueryRequest,
    enqueued_at: Instant,
    tx: mpsc::Sender<QueryResponse>,
}

struct QueueState {
    /// The per-tenant admission stage (a plain FIFO when single-tenant).
    queue: TenantQueue<Job>,
    /// Deepest the queue (all lanes) has been (updated under the lock at
    /// enqueue).
    depth_hwm: usize,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Set once by [`Core::close`], while it holds `state`: the paths that
    /// answer at submit read it without the lock, and a submitter blocked on
    /// `not_full` re-reads it under the lock it is woken with.
    closed: AtomicBool,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// The instant lane-bucket timestamps are measured from (core start);
    /// [`TenantQueue::pop`] is a pure state machine over these.
    origin: Instant,
    counters: Counters,
    /// Jobs an executor has dequeued and not yet answered or parked.
    /// Raised under `state`'s lock at dequeue, so a reader holding that
    /// lock never misses a job between the queue and its executor; lowered
    /// just before the answer is sent.
    in_service: AtomicUsize,
    /// One service-time recorder per executor thread (executor `i` locks
    /// only `logs[i]`).
    logs: Box<[Mutex<ServiceLog>]>,
}

/// Books one leg's partial of a finished shared run on `slot`: counted
/// under `source` even when `late` (the run's leader memoized the whole
/// answer either way), then timed against the request.
fn settle(
    slot: &CounterSlot,
    source: &AtomicU64,
    output: QueryOutput,
    late: bool,
) -> Result<QueryOutput, QueryError> {
    source.fetch_add(1, Ordering::Relaxed);
    in_time(slot, Ok(output), late)
}

impl Shared {
    /// Books a finished request on executor `executor`'s service log and
    /// counter stripe, then answers the caller (who may have dropped its
    /// ticket; that is fine).
    fn answer(&self, executor: usize, tx: &mpsc::Sender<QueryResponse>, response: QueryResponse) {
        let ok = response.result.is_ok();
        self.logs[executor].lock().unwrap().record(
            response.completed_at,
            response.service_time,
            ok,
        );
        let slot = self.counters.executor_slot(executor);
        let counter = if ok { &slot.completed } else { &slot.failed };
        counter.fetch_add(1, Ordering::Relaxed);
        let _ = tx.send(response);
    }
}

/// What executing a request made of it.
pub(crate) enum Outcome {
    /// A debug hook's result, or the failure of a shared run this leg led.
    Done(Result<QueryOutput, QueryError>),
    /// This leg led a shared run and gets its partial of it; `late` when
    /// the run outlived the request's timeout, as every leg of the request
    /// attached to the run was told.
    Led { output: QueryOutput, late: bool },
    /// A scattered leg answered from a shared run that had already
    /// finished (see [`crate::runs`]).
    Shared(QueryOutput),
    /// A scattered leg parked on a running shared run: its [`ParkedLeg`]
    /// now sits in the run table and the run's leader will answer it. The
    /// executor drops the job and goes back to its queue.
    Parked,
}

/// One dequeued job as its executor lends it to the backend: the request,
/// plus what [`Seat::park`] needs to let another thread answer it.
pub(crate) struct Seat<'a> {
    pub(crate) req: &'a QueryRequest,
    tx: &'a mpsc::Sender<QueryResponse>,
    core: &'a Arc<Shared>,
    executor: usize,
    queue_wait: Duration,
}

impl Seat<'_> {
    /// Detaches the job from its executor: the record a shared run's
    /// leader answers the leg from.
    pub(crate) fn park(&self) -> ParkedLeg {
        ParkedLeg {
            id: self.req.id,
            tx: self.tx.clone(),
            core: Arc::clone(self.core),
            executor: self.executor,
            queue_wait: self.queue_wait,
            timeout: self.req.timeout,
        }
    }
}

/// Another core's view of one core's queue, for the leaders of shared runs:
/// a leg of the run that is still *queued* when the run ends needs no
/// executor either (see [`CoreHandle::take_queued_legs`]).
pub(crate) struct CoreHandle(Arc<Shared>);

impl CoreHandle {
    /// Takes the queued jobs `wanted` picks out of the core's queue and
    /// hands each back as a [`ParkedLeg`] for the caller to answer.
    /// The queue lock decides between this and the core's own executors:
    /// a job is popped by one of them or taken here, never both.
    pub(crate) fn take_queued_legs(
        &self,
        wanted: impl Fn(&QueryRequest) -> bool,
    ) -> Vec<ParkedLeg> {
        let taken = {
            let mut state = self.0.state.lock().unwrap();
            state.queue.take_where(|job| wanted(&job.req))
        };
        if taken.is_empty() {
            return Vec::new();
        }
        self.0.not_full.notify_all();
        let now = Instant::now();
        taken
            .into_iter()
            .map(|job| ParkedLeg {
                id: job.req.id,
                tx: job.tx,
                core: Arc::clone(&self.0),
                // No executor of the core ever held the job; it is booked
                // on the first one's stripe and log.
                executor: 0,
                queue_wait: now.duration_since(job.enqueued_at),
                timeout: job.req.timeout,
            })
            .collect()
    }
}

/// A scattered leg waiting on another leg's engine run: its reply channel,
/// its core (counters, service log) and how long it queued —
/// everything its executor would have needed to answer it, so the leader
/// can do so from its own thread.
pub(crate) struct ParkedLeg {
    id: u64,
    tx: mpsc::Sender<QueryResponse>,
    core: Arc<Shared>,
    /// The executor that parked the leg; its counter stripe and service
    /// log book the answer.
    executor: usize,
    queue_wait: Duration,
    /// The leg's own request's timeout: a leg of another request for the
    /// same run is judged by its own budget, not the leader's.
    timeout: Duration,
}

impl ParkedLeg {
    /// Answers the leg from the leader's thread, exactly as its own
    /// executor would have. A partial of the finished run is counted as a
    /// coalesced leg and sent as
    /// [`QueryError::Timeout`] when the run, which took `ran`, outlived
    /// the leg's timeout; a failure is counted under its class. The leg's
    /// service time is the time spent here — it ran no engine.
    pub(crate) fn complete(self, result: Result<QueryOutput, QueryError>, ran: Duration) {
        let late = ran > self.timeout;
        let t0 = Instant::now();
        let slot = self.core.counters.executor_slot(self.executor);
        if let Err(QueryError::Panicked(_)) = result {
            slot.panics.fetch_add(1, Ordering::Relaxed);
        }
        let result = result.and_then(|output| settle(slot, &slot.coalesced_legs, output, late));
        let service_time = t0.elapsed();
        slot.busy_ns
            .fetch_add(service_time.as_nanos() as u64, Ordering::Relaxed);
        self.core.answer(
            self.executor,
            &self.tx,
            QueryResponse {
                id: self.id,
                result,
                attempts: 1,
                queue_wait: self.queue_wait,
                service_time,
                backoff: Duration::ZERO,
                route: Route::Direct,
                gather_wait: Duration::ZERO,
                completed_at: Instant::now(),
            },
        );
    }
}

/// `result`, unless it is an output that came `late`: that is a
/// [`QueryError::Timeout`], counted once on `slot`.
fn in_time(
    slot: &CounterSlot,
    result: Result<QueryOutput, QueryError>,
    late: bool,
) -> Result<QueryOutput, QueryError> {
    match result {
        Ok(_) if late => {
            slot.timeouts.fetch_add(1, Ordering::Relaxed);
            Err(QueryError::Timeout)
        }
        other => other,
    }
}

/// A response, pending or already there. Dropping a pending ticket abandons
/// the response (the executor's send is simply discarded); the request
/// still runs.
pub struct Ticket {
    id: u64,
    reply: Reply,
}

enum Reply {
    /// Answered on the submitting thread (cache hit, point lookup, reject,
    /// expired deadline): the response travels in the ticket, no channel.
    Ready(QueryResponse),
    /// Queued for an executor, which sends the response here.
    Pending(mpsc::Receiver<QueryResponse>),
}

impl Ticket {
    /// A ticket that already holds its response.
    pub(crate) fn ready(response: QueryResponse) -> Ticket {
        Ticket {
            id: response.id,
            reply: Reply::Ready(response),
        }
    }

    /// The submitted request's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Returns the response, blocking until an executor sends it unless the
    /// request was answered at submission. If the service is torn down
    /// non-gracefully (executor channel dropped), returns a
    /// [`QueryError::ShuttingDown`] response rather than panicking.
    pub fn wait(self) -> QueryResponse {
        match self.reply {
            Reply::Ready(response) => response,
            Reply::Pending(rx) => rx
                .recv()
                .unwrap_or_else(|_| unexecuted_response(self.id, Err(QueryError::ShuttingDown))),
        }
    }
}

/// A zero-cost response, completed now, for a request no executor ran.
pub(crate) fn unexecuted_response(
    id: u64,
    result: Result<QueryOutput, QueryError>,
) -> QueryResponse {
    QueryResponse {
        id,
        result,
        attempts: 0,
        queue_wait: Duration::ZERO,
        service_time: Duration::ZERO,
        backoff: Duration::ZERO,
        route: Route::Direct,
        gather_wait: Duration::ZERO,
        completed_at: Instant::now(),
    }
}

/// One bounded queue + executor pool over a shard's execution backend:
/// one replica of one shard of the service.
pub(crate) struct Core {
    shared: Arc<Shared>,
    backend: Arc<ShardBackend>,
    workers: Vec<JoinHandle<()>>,
    /// Per-tenant queue-full policy (index = tenant id), each resolved
    /// from its [`crate::qos::TenantSpec`] with the service-wide policy as
    /// the default — one tenant's backlog sheds only that tenant.
    policies: Box<[QueueFullPolicy]>,
}

impl Core {
    /// Spawns the executor pool over `backend`.
    pub(crate) fn start(
        backend: Arc<ShardBackend>,
        config: &ServiceConfig,
        thread_label: &str,
    ) -> Core {
        assert!(config.executors >= 1, "need at least one executor");
        assert!(
            config.queue_capacity >= 1,
            "queue capacity must be positive"
        );
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: TenantQueue::new(&config.qos.tenants, config.queue_capacity),
                depth_hwm: 0,
            }),
            closed: AtomicBool::new(false),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: config.queue_capacity,
            origin: Instant::now(),
            counters: Counters::new(config.executors),
            in_service: AtomicUsize::new(0),
            logs: (0..config.executors)
                .map(|_| Mutex::new(ServiceLog::new()))
                .collect(),
        });
        let workers = (0..config.executors)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let backend = Arc::clone(&backend);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("vcgp-stress-{thread_label}-{i}"))
                    .spawn(move || executor_loop(&backend, &shared, &config, i))
                    .expect("spawn executor")
            })
            .collect();
        Core {
            shared,
            backend,
            workers,
            policies: config
                .qos
                .tenants
                .iter()
                .map(|t| t.policy.unwrap_or(config.queue_policy))
                .collect(),
        }
    }

    /// Answers a point lookup on the submitting thread: a read of the
    /// request's pinned, immutable epoch needs no executor. `None` for
    /// every other kind.
    fn lookup_response(&self, req: &QueryRequest) -> Option<Ticket> {
        let t0 = Instant::now();
        let mut response = unexecuted_response(req.id, self.backend.lookup(req)?);
        response.attempts = 1;
        response.service_time = response.completed_at.duration_since(t0);
        let slot = self.shared.counters.submit_slot();
        slot.lookups_at_submit.fetch_add(1, Ordering::Relaxed);
        let counter = if response.is_ok() {
            &slot.completed
        } else {
            &slot.failed
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Some(Ticket::ready(response))
    }

    /// Submits a request. One that needs no executor is answered here, on
    /// the submitting thread, and comes back as a ready ticket: a request
    /// whose deadline has already passed (an early drop) or a point
    /// lookup. Neither takes the queue lock, costs a
    /// queue slot or is shed. Everything else is enqueued under its
    /// tenant's [`QueueFullPolicy`]: the submitter blocks while the tenant's
    /// lane is full (`Block`), or the request is shed with an immediate
    /// [`QueryError::Rejected`] response (`Reject`) — only that tenant's
    /// backlog counts against it. Errs only when closed.
    pub(crate) fn submit(&self, req: QueryRequest) -> Result<Ticket, SubmitError> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(SubmitError::Closed);
        }
        if req.deadline.is_some_and(|d| Instant::now() >= d) {
            let slot = self.shared.counters.submit_slot();
            slot.early_drops.fetch_add(1, Ordering::Relaxed);
            slot.failed.fetch_add(1, Ordering::Relaxed);
            let dropped = unexecuted_response(req.id, Err(QueryError::DeadlineExceeded));
            return Ok(Ticket::ready(dropped));
        }
        if let Some(ticket) = self.lookup_response(&req) {
            return Ok(ticket);
        }
        // The request's tenant lane, clamped to the configured count.
        let tenant = (req.tenant as usize).min(self.policies.len() - 1);
        let mut state = self.shared.state.lock().unwrap();
        loop {
            if self.shared.closed.load(Ordering::SeqCst) {
                return Err(SubmitError::Closed);
            }
            if state.queue.lane_len(tenant) < self.shared.capacity {
                return Ok(self.enqueue(state, req, tenant));
            }
            match self.policies[tenant] {
                QueueFullPolicy::Block => {
                    state = self.shared.not_full.wait(state).unwrap();
                }
                QueueFullPolicy::Reject => {
                    state.queue.note_reject(tenant);
                    drop(state);
                    let slot = self.shared.counters.submit_slot();
                    slot.rejected.fetch_add(1, Ordering::Relaxed);
                    slot.failed.fetch_add(1, Ordering::Relaxed);
                    let shed = unexecuted_response(req.id, Err(QueryError::Rejected));
                    return Ok(Ticket::ready(shed));
                }
            }
        }
    }

    fn enqueue(
        &self,
        mut state: std::sync::MutexGuard<'_, QueueState>,
        req: QueryRequest,
        tenant: usize,
    ) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let id = req.id;
        let job = Job {
            req,
            enqueued_at: Instant::now(),
            tx,
        };
        // Lane capacity was checked under this same lock.
        state
            .queue
            .push(tenant, false, job)
            .unwrap_or_else(|_| unreachable!("lane filled while the lock was held"));
        state.depth_hwm = state.depth_hwm.max(state.queue.len());
        drop(state);
        self.shared.not_empty.notify_one();
        Ticket {
            id,
            reply: Reply::Pending(rx),
        }
    }

    /// Whether [`Core::close`] has run: admissions are refused.
    pub(crate) fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::SeqCst)
    }

    pub(crate) fn close(&self) {
        let state = self.shared.state.lock().unwrap();
        self.shared.closed.store(true, Ordering::SeqCst);
        drop(state);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Blocks until the executors have drained every accepted request.
    /// Call [`Core::close`] first.
    pub(crate) fn join(&mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// The core's counters, summed across stripes. The cache fields are
    /// always zero here: the result cache is the service's (see
    /// [`ShardedGraphService::stats`](crate::shard::ShardedGraphService::stats)).
    pub(crate) fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        let hwm = self.shared.state.lock().unwrap().depth_hwm;
        ServiceStats {
            completed: c.sum(|s| &s.completed),
            failed: c.sum(|s| &s.failed),
            timeouts: c.sum(|s| &s.timeouts),
            panics: c.sum(|s| &s.panics),
            rejected: c.sum(|s| &s.rejected),
            early_drops: c.sum(|s| &s.early_drops),
            queue_hwm: hwm as u64,
            busy_ns: c.sum(|s| &s.busy_ns),
            engine_runs: c.sum(|s| &s.engine_runs),
            coalesced_legs: c.sum(|s| &s.coalesced_legs),
            lookups_at_submit: c.sum(|s| &s.lookups_at_submit),
            ..ServiceStats::default()
        }
    }

    /// A handle on this core's queue for the other cores' run leaders.
    pub(crate) fn handle(&self) -> CoreHandle {
        CoreHandle(Arc::clone(&self.shared))
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Jobs queued plus jobs in service: what least-loaded routing
    /// compares, so a replica whose executors are all busy does not tie
    /// with an idle one.
    pub(crate) fn load(&self) -> usize {
        let state = self.shared.state.lock().unwrap();
        state.queue.len() + self.shared.in_service.load(Ordering::Relaxed)
    }

    /// Per-tenant lane counters (enqueued/rejected/throttled/hwm), tenant
    /// order.
    pub(crate) fn qos_stats(&self) -> Vec<TenantLaneStats> {
        self.shared.state.lock().unwrap().queue.stats()
    }

    /// Resets every executor's service-time recorder to a fresh log whose
    /// intervals are measured from `origin` with the given width — how the
    /// driver scopes the per-replica series to one run (or phase).
    pub(crate) fn reset_service_log(&self, origin: Instant, interval_ns: u64) {
        for log in self.shared.logs.iter() {
            log.lock().unwrap().reset(origin, interval_ns);
        }
    }

    /// The core's service times since the last reset, merged across its
    /// executor threads (histogram merges are exact, so the fold identity
    /// between `service` and `intervals` survives the merge).
    pub(crate) fn service_series(&self) -> ReplicaSeries {
        let mut logs = self.shared.logs.iter();
        let first = logs.next().expect("core has at least one executor");
        let first = first.lock().unwrap();
        let mut out = ReplicaSeries {
            service: first.total.clone(),
            intervals: first.series.clone(),
        };
        drop(first);
        for log in logs {
            let log = log.lock().unwrap();
            out.service.merge(&log.total);
            out.intervals.merge(&log.series);
        }
        out
    }
}

impl Drop for Core {
    fn drop(&mut self) {
        self.close();
        self.join();
    }
}

fn executor_loop(
    backend: &ShardBackend,
    shared: &Arc<Shared>,
    config: &ServiceConfig,
    index: usize,
) {
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap();
            loop {
                // A closing service drains every lane regardless of its
                // token bucket — accepted work is never stranded.
                let drain = shared.closed.load(Ordering::SeqCst);
                let now_ns = shared.origin.elapsed().as_nanos() as u64;
                match state.queue.pop(now_ns, drain) {
                    Pop::Job(_, job) => {
                        shared.in_service.fetch_add(1, Ordering::Relaxed);
                        break job;
                    }
                    Pop::Throttled(wait_ns) => {
                        // Every queued lane is bucket-throttled: sleep
                        // until the earliest becomes conforming (a push
                        // into an unthrottled lane wakes us sooner).
                        let (s, _) = shared
                            .not_empty
                            .wait_timeout(state, Duration::from_nanos(wait_ns))
                            .unwrap();
                        state = s;
                    }
                    Pop::Empty => {
                        if drain {
                            return;
                        }
                        state = shared.not_empty.wait(state).unwrap();
                    }
                }
            }
        };
        shared.not_full.notify_all();
        let response = serve(backend, shared, config, &job, index);
        // Out of service before the caller can see the answer, so its next
        // request finds this executor free.
        shared.in_service.fetch_sub(1, Ordering::Relaxed);
        if let Some(response) = response {
            shared.answer(index, &job.tx, response);
        }
    }
}

/// Runs one request once: deadline check at dequeue, execution, post-hoc
/// timeout check. `None` when the request parked on a shared run — its
/// leader answers it, this executor is done with it.
fn serve(
    backend: &ShardBackend,
    shared: &Arc<Shared>,
    config: &ServiceConfig,
    job: &Job,
    executor: usize,
) -> Option<QueryResponse> {
    let req = &job.req;
    let slot = shared.counters.executor_slot(executor);
    let started = Instant::now();
    let queue_wait = started.duration_since(job.enqueued_at);
    if req.deadline.is_some_and(|d| started >= d) {
        // Dead on arrival: dropped without consuming an execution slot —
        // counted apart from timeouts, which ran and lost.
        slot.early_drops.fetch_add(1, Ordering::Relaxed);
        let mut dropped = unexecuted_response(req.id, Err(QueryError::DeadlineExceeded));
        dropped.queue_wait = queue_wait;
        return Some(dropped);
    }
    let seat = Seat {
        req,
        tx: &job.tx,
        core: shared,
        executor,
        queue_wait,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| backend.execute(&seat, &config.engine)));
    let service_time = started.elapsed();
    let late = service_time > req.timeout;
    let result = match outcome {
        Err(payload) => {
            slot.panics.fetch_add(1, Ordering::Relaxed);
            Err(QueryError::Panicked(panic_message(&*payload)))
        }
        Ok(Outcome::Parked) => return None,
        Ok(Outcome::Done(result)) => in_time(slot, result, late),
        // The leader's verdict, not this clock's: every leg of this request
        // attached to the run got the same one.
        Ok(Outcome::Led { output, late }) => settle(slot, &slot.engine_runs, output, late),
        Ok(Outcome::Shared(output)) => settle(slot, &slot.coalesced_legs, output, late),
    };
    slot.busy_ns
        .fetch_add(service_time.as_nanos() as u64, Ordering::Relaxed);
    Some(QueryResponse {
        id: req.id,
        result,
        attempts: 1,
        queue_wait,
        service_time,
        backoff: Duration::ZERO,
        route: Route::Direct,
        gather_wait: Duration::ZERO,
        completed_at: Instant::now(),
    })
}

/// Executes a debug hook — the one request kind an executor runs outside
/// the shared-run table.
pub(crate) fn execute_debug_hook(kind: &QueryKind) -> Result<QueryOutput, QueryError> {
    match *kind {
        QueryKind::DebugSleep(d) => {
            std::thread::sleep(d);
            Ok(QueryOutput::Slept)
        }
        QueryKind::DebugPanic => panic!("debug panic requested"),
        // Lookups are answered at submit and workloads reach executors only
        // as scattered legs; a misroute is an error response, not an
        // executor unwind.
        QueryKind::Degree(_)
        | QueryKind::Neighbors(_)
        | QueryKind::Workload(_)
        | QueryKind::WorkloadPartial(_) => Err(QueryError::Unsupported(format!(
            "{} reached an executor outside a shared run",
            kind.label()
        ))),
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
