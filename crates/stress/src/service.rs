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
//! deadline (an early drop), a result-cache hit, and a point lookup
//! (degree / neighbors), which is a pure read of the request's pinned,
//! immutable epoch snapshot — whether or not a writer
//! ([`ServiceConfig::mutations`]) is installing newer epochs meanwhile.
//! Such a request takes no queue slot and is never shed, throttled or
//! retried; the queue and everything below governs *executor-bound* work
//! only — analytics and the debug hooks.
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
//! * attempts whose execution exceeds the request's per-attempt timeout are
//!   retried with exponential backoff plus deterministic jitter (seeded via
//!   the workspace `SplitMix64`), up to a configured attempt cap — the
//!   Pregel engine cannot be interrupted mid-superstep, so the timeout is
//!   enforced post-hoc;
//! * panics inside a workload are caught per request: the executor survives
//!   and the caller gets [`QueryError::Panicked`] — as does every scattered
//!   leg parked on the run that panicked (see [`crate::shard`]; the same
//!   holds for a shared run that is unsupported or outlives its leader's
//!   timeout);
//! * requests whose absolute deadline has already passed — at submission,
//!   or by the time an executor dequeues them — are answered
//!   [`QueryError::DeadlineExceeded`] without running (an *early drop*,
//!   counted separately from timeouts);
//! * shutdown is graceful: [`crate::shard::ShardedGraphService::close`]
//!   stops admissions, then executors drain everything already accepted,
//!   so no accepted request loses its response.
//!
//! Result caching: each shard shares one [`ResultCache`] across its
//! replica cores (unless [`ServiceConfig::cache_capacity`] is zero).
//! Submission consults it *before* enqueueing — a hit is answered
//! immediately from the memoized `(workload, graph fingerprint, seed)`
//! entry without consuming a queue slot or an executor — and executors
//! insert every freshly computed workload answer (whole or scattered leg,
//! whichever leg's run computed it) on completion. Keys carry no replica
//! identity, so an answer computed on any replica serves every replica of
//! the shard.

use crate::cache::{CacheKey, CachedAnswer, ResultCache};
use crate::epoch::MutationConfig;
use crate::interval::IntervalSeries;
use crate::qos::{Pop, QosConfig, TenantLaneStats, TenantQueue};
use crate::request::{QueryError, QueryKind, QueryOutput, QueryRequest, QueryResponse, Route};
use crate::router::RoutingPolicy;
use crate::shard::ShardBackend;
use crate::stripe::{submit_stripe, SUBMIT_STRIPES};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vcgp_graph::rng::mix3;
use vcgp_graph::SplitMix64;
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
    /// Maximum execution attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) is
    /// `min(backoff_base · 2^(k-1), backoff_cap)`, halved and then extended
    /// by deterministic jitter up to the same amount.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff pause.
    pub backoff_cap: Duration,
    /// Seed of the retry-jitter stream (mixed with request id and attempt).
    pub seed: u64,
    /// Result-cache capacity in entries, per shard.
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
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
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
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error (includes rejects and early drops).
    pub failed: u64,
    /// Execution attempts beyond each request's first.
    pub retries: u64,
    /// Attempts that exceeded their per-attempt timeout.
    pub timeouts: u64,
    /// Panics contained by executors.
    pub panics: u64,
    /// Requests shed at submission under [`QueueFullPolicy::Reject`].
    pub rejected: u64,
    /// Requests whose deadline had already expired at submission or at
    /// dequeue, answered without running (distinct from `timeouts`, which
    /// count attempts that ran too long).
    pub early_drops: u64,
    /// High-water mark of the queue depth (pending requests) since start —
    /// the occupancy gauge behind the stress report's per-shard column.
    pub queue_hwm: u64,
    /// Nanoseconds executors spent inside attempts (queueing and backoff
    /// excluded), summed across the core's executor threads. Answers given
    /// at submit add nothing here.
    pub busy_ns: u64,
    /// Engine executions this core's executors completed for workload
    /// requests: the shared runs they *led* (every attempt
    /// counts, so a retried request adds one per attempt). With the
    /// service-wide run table a scattered request costs one of these, not
    /// one per shard.
    pub engine_runs: u64,
    /// Scattered legs answered from a run another leg led: parked on a
    /// running entry, or taken from a finished one (see [`crate::shard`]).
    /// Every successfully answered leg is exactly one of a cache hit, an
    /// engine run it led, or a coalesced leg.
    pub coalesced_legs: u64,
    /// Point lookups (degree / neighbors) answered on the submitting thread
    /// from the request's pinned epoch: counted in `completed` / `failed`
    /// like any answer, but never queued and in no executor's service log.
    pub lookups_at_submit: u64,
    /// Result-cache lookups answered without running the engine.
    pub cache_hits: u64,
    /// Result-cache lookups that found nothing (cacheable requests only).
    pub cache_misses: u64,
    /// Entries inserted into the result cache.
    pub cache_insertions: u64,
    /// Entries evicted from the result cache at capacity.
    pub cache_evictions: u64,
    /// Bytes currently resident in the result cache (a gauge, not a
    /// monotone counter; summed across cores by [`ServiceStats::absorb`]
    /// into the fleet-resident total).
    pub cache_bytes: u64,
}

impl ServiceStats {
    /// Folds another core's counters into this one (high-water marks take
    /// the maximum, everything else — including the resident-bytes gauge,
    /// which sums to the fleet total — adds).
    pub fn absorb(&mut self, other: &ServiceStats) {
        self.completed += other.completed;
        self.failed += other.failed;
        self.retries += other.retries;
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
            retries: self.retries - earlier.retries,
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
/// fields of `stats` are always zero here: the result cache is shared by
/// every replica of a shard (a hit on any replica serves the shard), so
/// its counters appear once at the shard level, never per replica.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaSnapshot {
    /// Replica index within the shard.
    pub replica: usize,
    /// The replica core's counters.
    pub stats: ServiceStats,
}

/// One shard's identity and counters, as reported to the stress driver.
/// `stats` folds every replica core (sums; queue high-water marks take the
/// maximum) plus the shard-shared result cache's counters.
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
    retries: AtomicU64,
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
/// [`submit_stripe`], so client threads bumping lookup/cache-hit/reject
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
    /// The core's result cache; `None` when caching is disabled. Shared
    /// (`Arc`) across every replica core of a shard, so keys stay
    /// replica-agnostic and a hit on any replica serves the shard.
    cache: Option<Arc<ResultCache>>,
    /// One service-time recorder per executor thread (executor `i` locks
    /// only `logs[i]`).
    logs: Box<[Mutex<ServiceLog>]>,
}

impl Shared {
    /// Inserts a freshly computed workload answer into the result cache
    /// (a no-op for uncacheable outputs, or with caching disabled).
    fn memoize(&self, key: Option<CacheKey>, output: &QueryOutput) {
        if let (Some(cache), Some(key), Some(value)) = (&self.cache, key, cacheable_output(output))
        {
            cache.insert(key, value);
        }
    }

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

/// What one execution attempt made of a request.
pub(crate) enum Attempt {
    /// The backend computed the result itself.
    Done(Result<QueryOutput, QueryError>),
    /// A scattered leg answered from a shared run that had already
    /// finished (see [`crate::runs`]).
    Shared(QueryOutput),
    /// A scattered leg parked on a running shared run: its [`ParkedLeg`]
    /// now sits in the run table and the run's leader will answer it. The
    /// executor drops the job and goes back to its queue.
    Parked,
}

/// One dequeued job as its executor lends it to the backend for an attempt:
/// the request, plus what [`Seat::park`] needs to let another thread answer
/// it.
pub(crate) struct Seat<'a> {
    pub(crate) req: &'a QueryRequest,
    tx: &'a mpsc::Sender<QueryResponse>,
    core: &'a Arc<Shared>,
    executor: usize,
    queue_wait: Duration,
    attempts: u32,
    service_time: Duration,
    backoff: Duration,
}

impl Seat<'_> {
    /// Detaches the job from its executor: the record a shared run's
    /// leader answers the leg from. `cache_key` is the leg's identity in
    /// its own shard's result cache.
    pub(crate) fn park(&self, cache_key: Option<CacheKey>) -> ParkedLeg {
        ParkedLeg {
            id: self.req.id,
            tx: self.tx.clone(),
            core: Arc::clone(self.core),
            executor: self.executor,
            cache_key,
            queue_wait: self.queue_wait,
            attempts: self.attempts,
            service_time: self.service_time,
            backoff: self.backoff,
        }
    }
}

/// Another core's view of one core's queue, for the leaders of shared runs:
/// a leg of the run that is still *queued* when the run ends needs no
/// executor either (see [`CoreHandle::take_queued_legs`]).
pub(crate) struct CoreHandle(Arc<Shared>);

impl CoreHandle {
    /// Takes the queued jobs `wanted` picks out of the core's queue and
    /// hands each back as a [`ParkedLeg`] for the caller to answer;
    /// `cache_key` is each leg's identity in this core's result cache.
    /// The queue lock decides between this and the core's own executors:
    /// a job is popped by one of them or taken here, never both.
    pub(crate) fn take_queued_legs(
        &self,
        wanted: impl Fn(&QueryRequest) -> bool,
        cache_key: impl Fn(&QueryRequest) -> Option<CacheKey>,
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
                cache_key: cache_key(&job.req),
                tx: job.tx,
                core: Arc::clone(&self.0),
                // No executor of the core ever held the job; it is booked
                // on the first one's stripe and log.
                executor: 0,
                queue_wait: now.duration_since(job.enqueued_at),
                attempts: 0,
                service_time: Duration::ZERO,
                backoff: Duration::ZERO,
            })
            .collect()
    }
}

/// A scattered leg waiting on another leg's engine run: its reply channel,
/// its core (counters, service log, result cache) and what it had consumed
/// when it parked — everything its executor would have needed to answer it,
/// so the leader can do so from its own thread.
pub(crate) struct ParkedLeg {
    id: u64,
    tx: mpsc::Sender<QueryResponse>,
    core: Arc<Shared>,
    /// The executor that parked the leg; its counter stripe and service
    /// log book the answer.
    executor: usize,
    cache_key: Option<CacheKey>,
    queue_wait: Duration,
    attempts: u32,
    service_time: Duration,
    backoff: Duration,
}

impl ParkedLeg {
    /// Answers the leg from the leader's thread, exactly as its own
    /// executor would have: memoizes a result under the leg's key, counts
    /// a failure under its class, books the response on the leg's core and
    /// sends it. The leg's service time is the time spent here — it ran no
    /// engine.
    pub(crate) fn complete(self, mut result: Result<QueryOutput, QueryError>) {
        let t0 = Instant::now();
        let slot = self.core.counters.executor_slot(self.executor);
        match &mut result {
            Ok(output) => {
                slot.coalesced_legs.fetch_add(1, Ordering::Relaxed);
                self.core.memoize(self.cache_key, output);
            }
            Err(QueryError::Panicked(_)) => {
                slot.panics.fetch_add(1, Ordering::Relaxed);
            }
            Err(QueryError::Timeout { attempts }) => {
                // The run timed out for every leg on it; how many attempts
                // that exhausted is the leg's own count.
                *attempts = self.attempts;
                slot.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
        let service_time = self.service_time + t0.elapsed();
        slot.busy_ns
            .fetch_add(service_time.as_nanos() as u64, Ordering::Relaxed);
        self.core.answer(
            self.executor,
            &self.tx,
            QueryResponse {
                id: self.id,
                result,
                attempts: self.attempts,
                queue_wait: self.queue_wait,
                service_time,
                backoff: self.backoff,
                route: Route::Direct,
                gather_wait: Duration::ZERO,
                completed_at: Instant::now(),
            },
        );
    }
}

/// The memoizable payload of an output, if any (only scattered legs reach
/// an executor and are cached; point-lookup and debug payloads never are).
fn cacheable_output(output: &QueryOutput) -> Option<CachedAnswer> {
    match *output {
        QueryOutput::WorkloadPartial {
            partial,
            supersteps,
            messages,
        } => Some(CachedAnswer::Leg {
            partial,
            supersteps,
            messages,
        }),
        _ => None,
    }
}

/// Rehydrates a memoized answer into the response payload it was cached
/// from.
fn cached_output(value: CachedAnswer) -> QueryOutput {
    match value {
        CachedAnswer::Whole {
            answer,
            supersteps,
            messages,
        } => QueryOutput::Workload {
            answer,
            supersteps,
            messages,
        },
        CachedAnswer::Leg {
            partial,
            supersteps,
            messages,
        } => QueryOutput::WorkloadPartial {
            partial,
            supersteps,
            messages,
        },
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
    fn ready(response: QueryResponse) -> Ticket {
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
fn unexecuted_response(id: u64, result: Result<QueryOutput, QueryError>) -> QueryResponse {
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
    /// Spawns the executor pool over `backend`. `cache` is the result
    /// cache this core consults and fills — pass the *same* [`Arc`] to
    /// every replica core of a shard so the cache is shard-scoped (build
    /// it with [`service_cache`]).
    pub(crate) fn start(
        backend: Arc<ShardBackend>,
        config: &ServiceConfig,
        thread_label: &str,
        cache: Option<Arc<ResultCache>>,
    ) -> Core {
        assert!(config.executors >= 1, "need at least one executor");
        assert!(
            config.queue_capacity >= 1,
            "queue capacity must be positive"
        );
        assert!(config.max_attempts >= 1, "need at least one attempt");
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
            cache,
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

    /// Consults the result cache for `req`; a hit is answered immediately
    /// (counted as completed) without touching the queue. `None` means the
    /// request must execute: uncacheable kind, caching disabled, or a miss.
    fn cached_response(&self, req: &QueryRequest) -> Option<Ticket> {
        let cache = self.shared.cache.as_ref()?;
        let key = self.backend.cache_key(req)?;
        let value = cache.get(&key)?;
        self.shared
            .counters
            .submit_slot()
            .completed
            .fetch_add(1, Ordering::Relaxed);
        Some(Ticket::ready(unexecuted_response(
            req.id,
            Ok(cached_output(value)),
        )))
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
    /// whose deadline has already passed (an early drop), a result-cache
    /// hit, a point lookup. None of these takes the queue lock, costs a
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
        if let Some(ticket) = self
            .cached_response(&req)
            .or_else(|| self.lookup_response(&req))
        {
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
    /// always zero here: the result cache is shared across a shard's
    /// replicas, so its counters are overlaid once per shard with
    /// [`overlay_cache`] — never per core, which would multiply them by
    /// the replica count.
    pub(crate) fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        let hwm = self.shared.state.lock().unwrap().depth_hwm;
        ServiceStats {
            completed: c.sum(|s| &s.completed),
            failed: c.sum(|s| &s.failed),
            retries: c.sum(|s| &s.retries),
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

/// Builds the result cache a [`Core`] (or a shard's set of replica cores)
/// will share; `None` when `cache_capacity` is zero.
pub(crate) fn service_cache(config: &ServiceConfig) -> Option<Arc<ResultCache>> {
    (config.cache_capacity > 0).then(|| Arc::new(ResultCache::new(config.cache_capacity)))
}

/// Copies a shared cache's counters into `stats`'s cache fields (see
/// [`Core::stats`] for why they live apart from the core counters).
pub(crate) fn overlay_cache(stats: &mut ServiceStats, cache: Option<&ResultCache>) {
    let c = cache.map(ResultCache::stats).unwrap_or_default();
    stats.cache_hits = c.hits;
    stats.cache_misses = c.misses;
    stats.cache_insertions = c.insertions;
    stats.cache_evictions = c.evictions;
    stats.cache_bytes = c.resident_bytes;
}

/// An owned handle to one result cache's invalidation hook, so the epoch
/// writer thread can fire it at each swap without holding a reference to
/// any core. One per shard — the cache is shared by the shard's replicas.
pub(crate) struct CacheInvalidator {
    cache: Option<Arc<ResultCache>>,
}

impl CacheInvalidator {
    pub(crate) fn new(cache: Option<Arc<ResultCache>>) -> CacheInvalidator {
        CacheInvalidator { cache }
    }

    pub(crate) fn invalidate(&self) {
        if let Some(cache) = &self.cache {
            cache.invalidate_all();
        }
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
                    Pop::Job(_, job) => break job,
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
        if let Some(response) = serve(backend, shared, config, &job, index) {
            shared.answer(index, &job.tx, response);
        }
    }
}

/// Runs one request to completion: attempt, post-hoc timeout check, backoff,
/// retry, deadline enforcement. `None` when an attempt parked the request
/// on a shared run — its leader answers it, this executor is done with it.
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
    let mut service_time = Duration::ZERO;
    let mut backoff_total = Duration::ZERO;
    let mut attempts = 0u32;
    let result = loop {
        if req.deadline.is_some_and(|d| Instant::now() >= d) {
            if attempts == 0 {
                // Dead on arrival: dropped without consuming an execution
                // slot — counted apart from timeouts, which ran and lost.
                slot.early_drops.fetch_add(1, Ordering::Relaxed);
            }
            break Err(QueryError::DeadlineExceeded);
        }
        attempts += 1;
        if attempts > 1 {
            slot.retries.fetch_add(1, Ordering::Relaxed);
        }
        let seat = Seat {
            req,
            tx: &job.tx,
            core: shared,
            executor,
            queue_wait,
            attempts,
            service_time,
            backoff: backoff_total,
        };
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| backend.execute(&seat, &config.engine)));
        let elapsed = t0.elapsed();
        service_time += elapsed;
        let (output, ran) = match outcome {
            Err(payload) => {
                slot.panics.fetch_add(1, Ordering::Relaxed);
                break Err(QueryError::Panicked(panic_message(&*payload)));
            }
            Ok(Attempt::Parked) => return None,
            Ok(Attempt::Done(Err(e))) => break Err(e), // permanent: retrying cannot help
            Ok(Attempt::Done(Ok(output))) => (output, true),
            Ok(Attempt::Shared(output)) => (output, false),
        };
        if cacheable_output(&output).is_some() {
            // A workload answer: this executor ran the engine for it, or
            // took it from a run another leg led. Memoize it even when the
            // attempt blew its timeout — the value is correct and
            // deterministic, so a later identical request (or this one's
            // retry path, via a fresh submit) gets it for free.
            let counter = if ran {
                &slot.engine_runs
            } else {
                &slot.coalesced_legs
            };
            counter.fetch_add(1, Ordering::Relaxed);
            shared.memoize(backend.cache_key(req), &output);
        }
        if elapsed <= req.timeout {
            break Ok(output);
        }
        slot.timeouts.fetch_add(1, Ordering::Relaxed);
        if attempts >= config.max_attempts {
            break Err(QueryError::Timeout { attempts });
        }
        let pause = backoff_with_jitter(config, req.id, attempts);
        let pause = match req.deadline {
            Some(d) => pause.min(d.saturating_duration_since(Instant::now())),
            None => pause,
        };
        backoff_total += pause;
        std::thread::sleep(pause);
    };
    slot.busy_ns
        .fetch_add(service_time.as_nanos() as u64, Ordering::Relaxed);
    Some(QueryResponse {
        id: req.id,
        result,
        attempts,
        queue_wait,
        service_time,
        backoff: backoff_total,
        route: Route::Direct,
        gather_wait: Duration::ZERO,
        completed_at: Instant::now(),
    })
}

/// Backoff before retry `attempt + 1`: exponential in the attempt number,
/// capped, then jittered deterministically into `[base/2, base)` so
/// simultaneous retries de-synchronize but a fixed seed reproduces exactly.
fn backoff_with_jitter(config: &ServiceConfig, req_id: u64, attempt: u32) -> Duration {
    let exp = config
        .backoff_base
        .saturating_mul(1u32 << (attempt - 1).min(16))
        .min(config.backoff_cap);
    let ns = exp.as_nanos() as u64;
    if ns < 2 {
        return exp;
    }
    let mut rng = SplitMix64::new(mix3(config.seed, req_id, u64::from(attempt)));
    Duration::from_nanos(ns / 2 + rng.next_below(ns / 2))
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
