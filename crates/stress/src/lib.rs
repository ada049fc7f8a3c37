//! `vcgp-stress` — a graph-query service layer plus a concurrent,
//! rate-limited workload driver.
//!
//! The batch harness (`vcgp-core`) answers the paper's question for one
//! workload at a time on purpose-built inputs. This crate asks the
//! *production* question the roadmap points at: what does a vertex-centric
//! engine look like as a resident service under concurrent, heavy traffic?
//!
//! * [`request`] — typed [`request::QueryRequest`]s (any Table 1 workload,
//!   plus point lookups) with timeouts and absolute deadlines,
//!   answered by [`request::QueryResponse`]s carrying per-request cost
//!   metrics;
//! * [`service`] — the replica core every shard runs: requests that need
//!   no executor (cache hits, point lookups) answered at submit, and for
//!   the rest a bounded MPMC job queue, OS-thread executors that run
//!   each request once, post-hoc timeouts, contained panics,
//!   queue-full admission policies (block / reject), deadline early drops,
//!   and graceful draining shutdown — plus its config and counters;
//! * [`shard`] + [`router`] — the one service type:
//!   [`shard::ShardedGraphService`] loads the graph once behind an
//!   [`std::sync::Arc`] and splits vertex ownership across `S ≥ 1`
//!   shards (one shard is just `S = 1`), each running `R ≥ 1` replica
//!   cores over the same slice (placement via the engine's partitioner)
//!   and the router owner-routes point lookups, scatters analytics at
//!   every shard count with typed partial merges — the legs of a request
//!   sharing one engine run through the
//!   service-wide run table — and picks replicas by a pluggable policy
//!   (seeded round-robin, or least-loaded by queued plus in-service jobs);
//! * [`cache`] — the service's one result cache: a capacity-bounded,
//!   segmented LRU memoizing `(workload, epoch fingerprint, seed) → whole
//!   answer`, probed once per analytics request by the router and filled
//!   once per engine run by its leader, with deterministic
//!   (wall-clock-free) eviction and an invalidation hook for graph swaps;
//! * [`epoch`] — live mutations: a bounded write buffer drained by a
//!   writer thread that applies seeded mutation batches off the serving
//!   path and installs immutable epoch snapshots (monotone ids, atomic
//!   swap, incremental shard-slice rebuild); queries pin their epoch at
//!   submission — through the submitting thread's own stripe of the
//!   serving epoch, so pinning is no write two clients share — and reads
//!   are snapshot-isolated while the graph evolves;
//! * [`rate`] — a GCRA token bucket over integer nanoseconds, exactly
//!   testable because it never reads a clock;
//! * [`qos`] — multi-tenant QoS: per-tenant lanes in front of every
//!   replica core's queue with per-tenant token buckets, weighted-fair
//!   (deficit-round-robin) dequeue, per-tenant queue-full policies, and
//!   per-tenant counters that fold exactly into the run totals;
//! * [`scenario`] + [`dist`] + [`interval`] — the scenario engine, the one
//!   load model: declarative load specs (ordered warmup/measure/cooldown
//!   phases, each with its own stop criterion, rate, client count, and
//!   weighted op mix over per-op seeded key distributions) parsed from a
//!   dependency-free line format, resolved against the resident graph into
//!   op mixes that are pure functions `(seed, index) → operation` — a fixed
//!   seed reproduces the exact sequence regardless of client interleaving
//!   — and logged as per-interval latency histograms whose sums fold
//!   *exactly* to the end-of-run totals; the `--mix` presets are a
//!   built-in table of scenario `op` lines;
//! * [`driver`] — the load generator: client threads, token-bucket pacing
//!   (or unthrottled), coordinated-omission-corrected latency plus pure
//!   service time in mergeable log-bucketed histograms;
//! * [`report`] — what a run measured, as one typed tree: its JSON form
//!   (a [`json::Value`] the `vcgp-testkit` writer renders), its markdown
//!   form, and [`report::validate`], the one list of the fold identities a
//!   report must satisfy;
//! * [`json`] — a minimal JSON reader and writer (hosted in `vcgp-testkit`
//!   so bench binaries can gate on their own reports too).
//!
//! Run the driver with `cargo run --release -p vcgp-stress --bin stress`.

pub mod cache;
pub mod dist;
pub mod driver;
pub mod epoch;
pub mod interval;
pub use vcgp_testkit::json;
pub mod qos;
pub mod rate;
pub mod report;
pub mod request;
pub mod router;
mod runs;
pub mod scenario;
pub mod service;
pub mod shard;
mod stripe;

pub use cache::{CacheKey, CacheScope, CacheStats, CachedAnswer, ResultCache};
pub use dist::{DistSpec, KeySampler, Zipf};
pub use driver::run_scenario;
pub use epoch::{
    mutation_op, EpochPin, EpochSnapshot, MutationConfig, ShardSlice, WriterReport, WriterStats,
};
pub use interval::{IntervalSeries, IntervalSlot};
pub use qos::{Pop, QosConfig, TenantLaneStats, TenantQueue, TenantSpec};
pub use rate::TokenBucket;
pub use report::{PhaseReport, StressReport, TenantReport};
pub use request::{QueryError, QueryKind, QueryOutput, QueryRequest, QueryResponse, Route};
pub use router::{AnyTicket, GatherTicket, RoutingPolicy};
pub use scenario::{
    OpClass, OpSpec, Phase, PhaseMix, PhaseSpec, RateSpec, Scenario, ScenarioSpec, SloStop,
    SpanSpec,
};
pub use service::{
    QueueFullPolicy, ReplicaSeries, ReplicaSnapshot, ServiceConfig, ServiceStats, ShardSnapshot,
    SubmitError, Ticket,
};
pub use shard::ShardedGraphService;
