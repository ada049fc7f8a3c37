//! Typed requests and responses of the graph-query service.

use crate::epoch::EpochPin;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcgp_core::service::Partial;
use vcgp_core::Workload;
use vcgp_graph::VertexId;

/// What a request asks the service to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Run one Table 1 workload end to end on the resident graph.
    Workload(Workload),
    /// One scattered leg of a workload: compute the executing shard's
    /// owned-slice partial. Internal: only the shard router makes legs, when
    /// it fans a [`QueryKind::Workload`] out to every shard; submitted
    /// directly it is refused with
    /// [`SubmitError::InternalLeg`](crate::service::SubmitError::InternalLeg).
    WorkloadPartial(Workload),
    /// Out-degree of a vertex (point lookup).
    Degree(VertexId),
    /// Out-neighbor list of a vertex (point lookup).
    Neighbors(VertexId),
    /// Test hook: hold an executor for the given duration, then succeed.
    /// Lets tests drive the timeout path deterministically without
    /// depending on a workload being slow on the test machine.
    DebugSleep(Duration),
    /// Test hook: panic inside the executor. Lets tests verify panic
    /// containment (the executor must survive and answer
    /// [`QueryError::Panicked`]).
    DebugPanic,
}

impl QueryKind {
    /// Short label for reports and logs.
    pub fn label(&self) -> String {
        match self {
            QueryKind::Workload(w) => format!("{w:?}"),
            QueryKind::WorkloadPartial(w) => format!("partial:{w:?}"),
            QueryKind::Degree(_) => "degree".to_string(),
            QueryKind::Neighbors(_) => "neighbors".to_string(),
            QueryKind::DebugSleep(_) => "debug-sleep".to_string(),
            QueryKind::DebugPanic => "debug-panic".to_string(),
        }
    }
}

/// One unit of work submitted to the service.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Caller-chosen identifier, echoed in the response.
    pub id: u64,
    /// The computation to run.
    pub kind: QueryKind,
    /// Seed for source-parameterized workloads (forwarded to
    /// [`vcgp_core::service::run_workload`]).
    pub seed: u64,
    /// Latency budget of the request's one execution. A request whose
    /// execution exceeds it fails with [`QueryError::Timeout`] (the engine
    /// cannot be interrupted mid-superstep, so the check is post-hoc).
    pub timeout: Duration,
    /// Optional absolute deadline for the whole request. Expired requests
    /// fail fast — at submission, or at dequeue — without consuming an
    /// execution slot.
    pub deadline: Option<Instant>,
    /// The epoch this request is pinned to, stamped by the service at
    /// submission (snapshot isolation: the request serves this version of
    /// the graph even if the writer swaps in a newer epoch mid-flight).
    /// It is the submitting thread's stripe's [`EpochPin`]
    /// ([`crate::epoch::EpochManager::pin`]), which dereferences to the
    /// snapshot: holding it keeps the epoch alive, dropping the request
    /// releases it, and the legs of a scatter clone this one pin, so all
    /// of them serve the same version. `None` only before submission;
    /// backends fall back to epoch 0.
    pub epoch: Option<Arc<EpochPin>>,
    /// Tenant id for the QoS admission stage (see [`crate::qos`]): picks
    /// the lane, token bucket, and queue-full policy the request falls
    /// under. Clamped to the configured tenant count at submission;
    /// scattered legs inherit the parent's tenant. Default 0.
    pub tenant: u32,
}

impl QueryRequest {
    /// A request with the given id and kind and no deadline; the timeout
    /// defaults to five seconds.
    pub fn new(id: u64, kind: QueryKind) -> Self {
        QueryRequest {
            id,
            kind,
            seed: id,
            timeout: Duration::from_secs(5),
            deadline: None,
            epoch: None,
            tenant: 0,
        }
    }

    /// Sets the timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the tenant id.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }
}

/// Successful payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Workload result: the scalar answer plus run costs.
    Workload {
        /// Workload-specific scalar (component count, matched edges, …).
        answer: u64,
        /// Supersteps the run took.
        supersteps: u64,
        /// Algorithm-level messages the run sent.
        messages: u64,
    },
    /// One shard's contribution to a scattered workload (merged by the
    /// router's gather step into a [`QueryOutput::Workload`]).
    WorkloadPartial {
        /// The owned-slice partial.
        partial: Partial,
        /// Supersteps of this shard's run.
        supersteps: u64,
        /// Messages of this shard's run.
        messages: u64,
    },
    /// Out-degree.
    Degree(usize),
    /// Out-neighbor list.
    Neighbors(Vec<VertexId>),
    /// The debug sleep completed.
    Slept,
}

/// Why a request failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The workload's preconditions do not hold on the resident graph.
    Unsupported(String),
    /// A vertex id outside the graph.
    NoSuchVertex(VertexId),
    /// The execution exceeded the request's timeout. A request runs once:
    /// every engine run is deterministic, so a second one would compute the
    /// same answer again — which a late workload leg has memoized anyway.
    Timeout,
    /// The absolute deadline passed before the request could run.
    DeadlineExceeded,
    /// The queue was full and the service's admission policy is
    /// [`QueueFullPolicy::Reject`](crate::service::QueueFullPolicy::Reject):
    /// the request was shed at submission instead of blocking the producer.
    Rejected,
    /// The execution panicked; the message is the panic payload. The
    /// executor survives — panics are contained per request.
    Panicked(String),
    /// The service was shut down before the request could run.
    ShuttingDown,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Unsupported(m) => write!(f, "unsupported: {m}"),
            QueryError::NoSuchVertex(v) => write!(f, "no such vertex: {v}"),
            QueryError::Timeout => write!(f, "timed out"),
            QueryError::DeadlineExceeded => write!(f, "deadline exceeded"),
            QueryError::Rejected => write!(f, "rejected: queue full"),
            QueryError::Panicked(m) => write!(f, "execution panicked: {m}"),
            QueryError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl std::error::Error for QueryError {}

/// How a sharded front-end dispatched a request (echoed in the response so
/// load drivers can count routed-vs-scattered traffic without asking the
/// service).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Route {
    /// Not dispatched by the router: the unstamped default of core-level
    /// responses. No public submit returns it —
    /// [`ShardedGraphService::submit`](crate::shard::ShardedGraphService::submit)
    /// stamps every response [`Route::Routed`] or [`Route::Scattered`] —
    /// so a load driver that sees it has an op it cannot account for
    /// (`--validate-report` then fails `routed + scattered == ops`).
    #[default]
    Direct,
    /// Owner-routed to exactly one shard (and one replica core within it).
    Routed {
        /// The shard that served the request.
        shard: u32,
        /// The replica core within the shard the routing policy picked
        /// (always 0 when the shard is unreplicated).
        replica: u32,
    },
    /// Scattered to every shard and gather-merged.
    Scattered {
        /// Number of shard legs fanned out.
        shards: u32,
    },
}

/// The service's answer to one request, with per-request cost metrics.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Echo of [`QueryRequest::id`].
    pub id: u64,
    /// The payload or the failure.
    pub result: Result<QueryOutput, QueryError>,
    /// 1 when the request was executed — by an executor, by the shared run
    /// that answered its leg, or as a point lookup at submit — and 0 when
    /// it never was (cache hit, expired deadline, reject, shutdown). For
    /// scattered requests, the maximum across legs.
    pub attempts: u32,
    /// Time spent waiting in the service queue before execution (maximum
    /// across legs when scattered; zero for a request answered at submit,
    /// which never queues).
    pub queue_wait: Duration,
    /// Execution time (excludes queueing) — for a point lookup answered at
    /// submit, the read itself as timed on the submitting thread. For
    /// scattered requests, the *sum* across legs — the aggregate compute
    /// the request burned on the fleet.
    pub service_time: Duration,
    /// Always zero: a request is executed at most once and never backs
    /// off. Kept only because the repo benchmark reads it
    /// (`benchmark/src/load.rs`, span `stress.backoff`).
    pub backoff: Duration,
    /// How the request was dispatched.
    pub route: Route,
    /// Straggler penalty of a scattered request: the time between its
    /// first and its last leg completing (`completed_at` of the legs), in
    /// whatever order the gatherer collected them. Zero for non-scattered
    /// requests. Legs that share one engine run complete together, so this
    /// collapses toward the time it takes to answer the parked legs; it
    /// grows again when a leg misses the run and leads one of its own.
    pub gather_wait: Duration,
    /// When the response was produced, stamped by the thread that sent it
    /// (the executor, the submitter on a cache hit, point lookup, early
    /// drop or reject, or a shared run's leader answering a parked leg).
    /// For a scattered request, the last leg's completion.
    pub completed_at: Instant,
}

impl QueryResponse {
    /// True when the request produced a payload.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}
