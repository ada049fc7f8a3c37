//! Shard-local slices of the resident graph and the service built from
//! them — the crate's one service type.
//!
//! A [`ShardedGraphService`] splits serving across `S ≥ 1` shards at load
//! time; one shard is just `S = 1`, the same code path as any other count.
//! Vertex *ownership* is assigned by the same
//! [`vcgp_pregel::partition::Partitioner`] the engine uses for workers, so
//! the hash/range strategies of
//! [`ServiceConfig::engine`](crate::service::ServiceConfig::engine) apply
//! to shard placement too.
//!
//! Each shard materializes a **local subgraph**: the out-adjacency of its
//! owned vertices over the full vertex-id space (a directed CSR slice).
//! Owner-routed point lookups (degree / neighbors) are answered from this
//! slice alone, never touching the full graph's CSR — and on the
//! submitting thread, never touching a queue or an executor either. The
//! *structural* full graph is additionally retained behind the
//! shared [`Arc`] — the single-process stand-in for the
//! partitioned-plus-replicated storage a distributed deployment would use
//! — because a scattered analytics answer
//! is a reduction of the full deterministic algorithm's per-vertex output
//! over each shard's owned slice (see [`vcgp_core::service::Partial`]
//! for why that is what makes a scatter/gather merge *exactly* equal to
//! the whole-graph answer).
//!
//! That algorithm runs **once per scattered request**, not once per leg.
//! Every shard's backend shares one service-wide run table (the
//! crate-private `runs` module), keyed by `(epoch fingerprint, workload,
//! seed)`. The first leg of a key an executor dequeues becomes the run's
//! *leader*: it executes the engine on its pinned epoch's graph and slices
//! the output into all `S` partials in one pass
//! ([`vcgp_core::service::run_workload_sliced`]). A leg dequeued while its
//! key is running is *parked*: its reply channel, timings and core move
//! into the table entry and its executor returns to its queue at once —
//! it never blocks on another shard. When the run ends the leader first
//! folds the `S` partials into the whole answer and inserts it into the
//! service's one result cache — once per run, under the request's
//! `(workload, full epoch fingerprint, seed)`. Then it answers every
//! parked leg on that leg's own core (its `completed` counter, its service
//! log) and, the same way, every leg of the run still *queued* on some core
//! behind other work, which it takes out of that queue: a finished request
//! never waits for a busy executor just to be handed a finished slice. A
//! leg that arrives later still takes its partial from the *finished*
//! entry, which is dropped once all `S` shards were served. A run that
//! outlives its leader's timeout is answered the same way, except that
//! every leg of the leader's request — its own, the parked and the queued
//! ones — fails as a timeout, counted once on its own core. The whole
//! answer was memoized all the same, so an identical request submitted
//! afterwards is a cache hit at the router and no leg runs the engine
//! again. (A leg of another request for the same run is judged by its own
//! request's timeout.) A run that fails — panic or unsupported workload —
//! fails every parked leg with the same class of error, each counted once
//! on its own core, memoizes nothing and leaves no entry behind. Answers,
//! routes and epoch pinning are what they were when every leg ran for
//! itself; [`ServiceStats::engine_runs`] and
//! [`ServiceStats::coalesced_legs`] count the difference.
//!
//! Under live mutations the slices are **per-epoch**: every
//! [`EpochSnapshot`] carries one [`ShardSlice`] per shard, and the epoch
//! writer rebuilds them *incrementally* — [`vcgp_graph::splice_slice`]
//! patches only the touched rows of the previous epoch's slice (falling
//! back to a from-scratch rebuild when the delta is large), and the owned
//! count is extended rather than recounted when the id space grows.
//! Ownership itself is **frozen at start**: the partitioner is
//! total over the whole `u32` id space, so vertices added later still get
//! a deterministic owner and the routing of pinned in-flight requests is
//! never invalidated (vertex removal detaches but never shrinks the id
//! space for the same reason).
//!
//! Each shard runs `R ≥ 1` **replica cores** (`Core`: bounded queue,
//! executor pool, striped counters, queue-depth high-water mark) over the
//! *same* epoch-pinned snapshot and shard slice — replicating a hot shard
//! costs queue/executor state, not graph copies. The router picks a
//! replica per dispatch via the configured [`RoutingPolicy`], and
//! teardown drains then joins every replica core. The result cache is not
//! a shard's or a replica's: the service holds exactly one, the router
//! probes it once per analytics request, the run leaders fill it, and an
//! epoch swap clears it once. Per-shard *and*
//! per-replica occupancy is observable
//! ([`ShardedGraphService::shard_snapshots`]).

use crate::cache::ResultCache;
use crate::epoch::{
    spawn_writer, EpochManager, EpochRebuild, EpochSnapshot, ShardSlice, WriterReport, WriterStats,
};
use crate::request::{QueryError, QueryKind, QueryOutput, QueryRequest};
use crate::router::RoutingPolicy;
use crate::runs::{Join, RunKey, RunTable, SlicedAnswer};
use crate::service::{
    execute_debug_hook, panic_message, Core, CoreHandle, Outcome, ParkedLeg, ReplicaSeries,
    ReplicaSnapshot, Seat, ServiceConfig, ServiceStats, ShardSnapshot, SubmitError, Ticket,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vcgp_core::fingerprint::graph_fingerprint;
use vcgp_graph::rng::mix3;
use vcgp_graph::{
    apply_batch, splice_slice, ApplyDelta, ApplyStats, Graph, GraphBuilder, Mutation, VertexId,
};
use vcgp_pregel::partition::Partitioner;
use vcgp_pregel::PregelConfig;

/// Domain separator seeding each shard's round-robin replica cursor.
const RR_STREAM: u64 = 0x5252_4F54; // "RROT"

/// Builds shard `shard`'s [`ShardSlice`] from scratch: a directed graph
/// over the full vertex-id space containing exactly the out-arcs of owned
/// vertices (with weights and labels preserved), so owned point lookups
/// answer identically to the full graph, plus the owned count.
fn build_shard_slice(full: &Graph, partitioner: &Partitioner, shard: usize) -> ShardSlice {
    let n = full.num_vertices();
    let mut b = GraphBuilder::directed(n);
    let mut owned = 0;
    for v in 0..n as VertexId {
        if partitioner.owner(v) == shard {
            owned += 1;
            for (t, w) in full.out_edges(v) {
                b.add_weighted_edge(v, t, w);
            }
        }
    }
    if let Some(labels) = full.labels() {
        b.set_labels(labels.to_vec());
    }
    ShardSlice {
        local: b.build(),
        owned,
    }
}

/// Rebuilds one shard's slice for the next epoch, incrementally: count the
/// owned vertices among any the batch added (ownership of existing ids is
/// frozen) and splice only the touched rows of the previous slice. Falls
/// back to a from-scratch rebuild when the delta covers more than a
/// quarter of the graph — at that point the splice's row bookkeeping costs
/// more than it saves.
fn rebuild_slice(
    old: &ShardSlice,
    full: &Arc<Graph>,
    delta: &ApplyDelta,
    partitioner: &Partitioner,
    shard: usize,
    old_n: usize,
) -> ShardSlice {
    if delta.touched.len() * 4 > full.num_vertices() {
        return build_shard_slice(full, partitioner, shard);
    }
    let owns = |v: VertexId| partitioner.owner(v) == shard;
    ShardSlice {
        local: splice_slice(&old.local, full, &delta.touched, &owns),
        owned: old.owned
            + (old_n..delta.new_n)
                .filter(|&v| owns(v as VertexId))
                .count(),
    }
}

/// The epoch-rebuild backend of the sharded service: apply the batch to
/// the full graph (incremental CSR splice), then rebuild each shard's
/// slice incrementally from the previous epoch's.
struct ShardedRebuild {
    partitioner: Partitioner,
    /// The service's result cache, cleared at every swap.
    cache: Option<Arc<ResultCache>>,
}

impl EpochRebuild for ShardedRebuild {
    fn rebuild(&self, base: &EpochSnapshot, batch: &[Mutation]) -> (EpochSnapshot, ApplyStats) {
        let old_n = base.graph.num_vertices();
        let (graph, delta) = apply_batch(&base.graph, batch);
        let graph = Arc::new(graph);
        let whole_fp = graph_fingerprint(&graph);
        let locals = base
            .locals
            .iter()
            .enumerate()
            .map(|(s, old)| {
                Arc::new(rebuild_slice(
                    old,
                    &graph,
                    &delta,
                    &self.partitioner,
                    s,
                    old_n,
                ))
            })
            .collect();
        (
            EpochSnapshot {
                id: base.id + 1,
                graph,
                fingerprint: whole_fp,
                locals,
            },
            delta.stats,
        )
    }

    fn invalidate(&self) {
        if let Some(cache) = &self.cache {
            cache.invalidate_all();
        }
    }
}

/// Finished shared runs the run table keeps per executor thread of the
/// fleet while their sibling legs are still queued. Only legs of abandoned
/// scatters ever stay that long, and evicting an entry early costs its
/// straggler one engine run, never an answer.
const FINISHED_RUNS_PER_EXECUTOR: usize = 4;

/// One shard's execution backend — how a request becomes an output: the
/// pinned epoch's local slice for point lookups (read by the submitting
/// thread), and the service-wide run table for the scattered analytics legs
/// its executors dequeue.
/// Requests are served from their pinned [`EpochSnapshot`] (stamped at
/// submission), so a request keeps serving its epoch even after the writer
/// swaps in a newer one.
pub(crate) struct ShardBackend {
    shard: usize,
    num_shards: usize,
    partitioner: Partitioner,
    /// Epoch-0 fallback for requests without a pinned snapshot (none in
    /// practice: the router stamps every submission).
    base: Arc<EpochSnapshot>,
    /// Where this shard's legs meet the other shards' legs of the same
    /// request (one table per service).
    runs: Arc<RunTable<ParkedLeg>>,
    /// Every core of the service (outer index = shard, inner = replica),
    /// set once they all run: a leader answers the legs of its run that
    /// are still queued anywhere.
    fleet: Arc<OnceLock<Vec<Vec<CoreHandle>>>>,
    /// The service's result cache, which the leader of a run fills with
    /// the whole answer; `None` when caching is disabled.
    cache: Option<Arc<ResultCache>>,
    /// Test hook (see [`ShardedGraphService::debug_panic_next_run`]).
    panic_next_run: Arc<AtomicBool>,
}

/// The shared run `req` is a leg of on its pinned epoch `snap`, if it is a
/// scattered leg at all.
fn run_key(req: &QueryRequest, snap: &EpochSnapshot) -> Option<RunKey> {
    match req.kind {
        QueryKind::WorkloadPartial(workload) => Some(RunKey {
            fingerprint: snap.fingerprint,
            workload,
            seed: req.seed,
        }),
        _ => None,
    }
}

impl ShardBackend {
    fn owns(&self, v: VertexId) -> bool {
        self.partitioner.owner(v) == self.shard
    }

    /// The snapshot `req` serves: its pinned epoch, or epoch 0 for a
    /// request nobody stamped.
    fn pinned<'a>(&'a self, req: &'a QueryRequest) -> &'a EpochSnapshot {
        match &req.epoch {
            Some(pin) => pin,
            None => &self.base,
        }
    }

    /// Takes every leg of run `key` that is still waiting in a queue
    /// somewhere in the fleet (its deadline, if any, not yet passed — a
    /// dead leg is its own executor's to drop). Such a leg would only pick
    /// its slice up from the finished entry once dequeued, and until then
    /// it holds its whole request back behind whatever that executor is
    /// running; the leader answering it costs no one anything.
    fn take_queued(&self, key: RunKey) -> Vec<(usize, ParkedLeg)> {
        let now = Instant::now();
        let wanted = |req: &QueryRequest| {
            req.epoch
                .as_deref()
                .is_some_and(|snap| run_key(req, snap) == Some(key))
                && req.deadline.is_none_or(|d| now < d)
        };
        let mut legs = Vec::new();
        for (shard, cores) in self.fleet.get().into_iter().flatten().enumerate() {
            for core in cores {
                let taken = core.take_queued_legs(wanted);
                legs.extend(taken.into_iter().map(|leg| (shard, leg)));
            }
        }
        legs
    }

    /// Leads the shared run of `key`: one engine execution on the pinned
    /// epoch's full graph, sliced by shard ownership. Its whole answer goes
    /// into the service's result cache before any leg is answered — late
    /// or not, so the identical request again is a hit — and then it
    /// answers this leg, every leg parked on the entry meanwhile, and every
    /// leg of the run still queued when it ends. A leg whose request's
    /// timeout the run outlived — every leg of this request, when it
    /// outlived this leg's — fails as a timeout. A failed run — panic or
    /// unsupported workload — is delivered to the parked legs as the same
    /// class of failure, memoizes nothing and leaves no entry behind.
    fn lead(
        &self,
        key: RunKey,
        snap: &EpochSnapshot,
        req: &QueryRequest,
        engine: &PregelConfig,
    ) -> Outcome {
        let fail = |error: &QueryError| {
            for (_, leg) in self.runs.abandon(key) {
                leg.complete(Err(error.clone()), Duration::ZERO);
            }
        };
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let run = vcgp_core::service::run_workload_sliced(
                key.workload,
                &snap.graph,
                engine,
                key.seed,
                self.num_shards,
                &|v| self.partitioner.owner(v),
            );
            if self.panic_next_run.swap(false, Ordering::Relaxed) {
                panic!("debug panic requested in a shared run");
            }
            run
        }));
        let run = match run {
            Ok(Ok(run)) => run,
            Ok(Err(unsupported)) => {
                let error = QueryError::Unsupported(unsupported.to_string());
                fail(&error);
                return Outcome::Done(Err(error));
            }
            Err(payload) => {
                fail(&QueryError::Panicked(panic_message(&*payload)));
                // The leader's own failure is its executor's to contain.
                resume_unwind(payload);
            }
        };
        let answer = Arc::new(SlicedAnswer {
            partials: run.partials,
            supersteps: run.stats.supersteps(),
            messages: run.stats.total_messages(),
        });
        let ran = t0.elapsed();
        if let Some(cache) = &self.cache {
            cache.insert(key.cache_key(), answer.whole());
        }
        let queued = self.take_queued(key);
        let served = queued.iter().map(|&(shard, _)| shard).chain([self.shard]);
        let parked = self.runs.finish(key, served, &answer);
        for (shard, leg) in parked.into_iter().chain(queued) {
            leg.complete(Ok(answer.leg(shard)), ran);
        }
        Outcome::Led {
            output: answer.leg(self.shard),
            late: ran > req.timeout,
        }
    }

    /// Executes the request in `seat`.
    pub(crate) fn execute(&self, seat: &Seat<'_>, engine: &PregelConfig) -> Outcome {
        let req = seat.req;
        let snap = self.pinned(req);
        if let Some(key) = run_key(req, snap) {
            return match self.runs.join(key, self.shard, || seat.park()) {
                Join::Parked => Outcome::Parked,
                Join::Finished(answer) => Outcome::Shared(answer.leg(self.shard)),
                Join::Lead => self.lead(key, snap, req, engine),
            };
        }
        Outcome::Done(execute_debug_hook(&req.kind))
    }

    /// Answers a point lookup (degree / neighbors) from the request's pinned
    /// epoch; `None` for every kind that needs an executor. A pure read of
    /// an immutable snapshot, so the submitting thread makes it (see
    /// `Core::submit`) while a writer installs newer epochs.
    pub(crate) fn lookup(&self, req: &QueryRequest) -> Option<Result<QueryOutput, QueryError>> {
        let (QueryKind::Degree(v) | QueryKind::Neighbors(v)) = req.kind else {
            return None;
        };
        let snap = self.pinned(req);
        let local = &snap.locals[self.shard].local;
        if (v as usize) >= local.num_vertices() {
            return Some(Err(QueryError::NoSuchVertex(v)));
        }
        // The router owner-routes lookups, so these normally hit the local
        // slice. A misrouted (e.g. directly submitted) lookup of a
        // non-owned vertex falls back to the full graph so the answer stays
        // correct either way.
        let graph = if self.owns(v) { local } else { &*snap.graph };
        Some(Ok(match req.kind {
            QueryKind::Degree(_) => QueryOutput::Degree(graph.out_degree(v)),
            _ => QueryOutput::Neighbors(graph.out_neighbors(v).to_vec()),
        }))
    }
}

/// One shard: `R ≥ 1` replica cores over the same slice and the
/// round-robin replica cursor.
pub(crate) struct Shard {
    pub(crate) replicas: Vec<Core>,
    /// Round-robin cursor, seeded per shard so the dispatch sequence is
    /// deterministic for a fixed [`ServiceConfig::seed`].
    next_rr: AtomicU64,
}

impl Shard {
    /// Picks a replica for the next dispatch under `policy`.
    fn pick(&self, policy: RoutingPolicy) -> usize {
        if self.replicas.len() == 1 {
            return 0;
        }
        match policy {
            RoutingPolicy::RoundRobin => {
                (self.next_rr.fetch_add(1, Ordering::Relaxed) % self.replicas.len() as u64) as usize
            }
            // The first replica of the least load: ties go to the lowest id.
            RoutingPolicy::LeastLoaded => (0..self.replicas.len())
                .min_by_key(|&r| self.replicas[r].load())
                .unwrap_or(0),
        }
    }

    /// Picks a replica and submits, returning the ticket plus the pick
    /// (echoed in [`crate::request::Route::Routed`]).
    pub(crate) fn submit(
        &self,
        policy: RoutingPolicy,
        req: QueryRequest,
    ) -> Result<(Ticket, u32), SubmitError> {
        let replica = self.pick(policy);
        Ok((self.replicas[replica].submit(req)?, replica as u32))
    }

    /// The shard's report row: folded counters plus one row per replica.
    fn snapshot(&self, shard: usize, owned: usize) -> ShardSnapshot {
        let replicas: Vec<ReplicaSnapshot> = self
            .replicas
            .iter()
            .enumerate()
            .map(|(r, core)| ReplicaSnapshot {
                replica: r,
                stats: core.stats(),
            })
            .collect();
        let mut stats = ServiceStats::default();
        for rs in &replicas {
            stats.absorb(&rs.stats);
        }
        ShardSnapshot {
            shard,
            owned,
            stats,
            replicas,
        }
    }
}

/// The resident graph served by `S` independent shard cores behind an
/// owner-routing / scatter-gather front-end (the routing itself lives in
/// [`crate::router`]), with an optional live-mutation stream installing
/// epoch-versioned snapshots (graph + per-shard slices swap together).
pub struct ShardedGraphService {
    pub(crate) graph: Arc<Graph>,
    pub(crate) partitioner: Partitioner,
    pub(crate) shards: Vec<Shard>,
    /// How the router picks a replica within a shard.
    pub(crate) routing: RoutingPolicy,
    /// The one result cache, probed by the router once per analytics
    /// request; `None` when caching is disabled.
    pub(crate) cache: Option<Arc<ResultCache>>,
    pub(crate) epochs: Arc<EpochManager>,
    /// The epoch writer thread; `None` when the service is read-only.
    writer: Option<JoinHandle<()>>,
    panic_next_run: Arc<AtomicBool>,
}

impl ShardedGraphService {
    /// Splits `graph` into `num_shards` slices — placement strategy is
    /// `config.engine.partitioning` — and spawns
    /// [`ServiceConfig::replicas`] replica cores (queue + executor
    /// pool, sized per `config`) per shard, plus the epoch writer thread
    /// when [`ServiceConfig::mutations`] is set.
    pub fn start(
        graph: Arc<Graph>,
        config: ServiceConfig,
        num_shards: usize,
    ) -> ShardedGraphService {
        assert!(num_shards >= 1, "need at least one shard");
        assert!(config.replicas >= 1, "need at least one replica per shard");
        let n = graph.num_vertices();
        let partitioner = Partitioner::new(config.engine.partitioning, n, num_shards);
        let locals: Vec<Arc<ShardSlice>> = (0..num_shards)
            .map(|s| Arc::new(build_shard_slice(&graph, &partitioner, s)))
            .collect();
        let epochs = Arc::new(EpochManager::new(
            EpochSnapshot {
                id: 0,
                graph: Arc::clone(&graph),
                fingerprint: graph_fingerprint(&graph),
                locals,
            },
            config.mutations.as_ref(),
        ));
        let base = epochs.current();
        // ONE run table per service, shared by every shard's backend: it
        // is where the legs of one scattered request find each other.
        let runs = Arc::new(RunTable::new(
            num_shards,
            FINISHED_RUNS_PER_EXECUTOR * num_shards * config.replicas * config.executors,
        ));
        let fleet = Arc::new(OnceLock::new());
        let panic_next_run = Arc::new(AtomicBool::new(false));
        let cache =
            (config.cache_capacity > 0).then(|| Arc::new(ResultCache::new(config.cache_capacity)));
        let shards: Vec<Shard> = (0..num_shards)
            .map(|s| {
                let backend = Arc::new(ShardBackend {
                    shard: s,
                    num_shards,
                    partitioner,
                    base: Arc::clone(&base),
                    runs: Arc::clone(&runs),
                    fleet: Arc::clone(&fleet),
                    cache: cache.clone(),
                    panic_next_run: Arc::clone(&panic_next_run),
                });
                let replicas = (0..config.replicas)
                    .map(|r| Core::start(Arc::clone(&backend), &config, &format!("shard{s}r{r}")))
                    .collect();
                Shard {
                    replicas,
                    next_rr: AtomicU64::new(mix3(config.seed, s as u64, RR_STREAM)),
                }
            })
            .collect();
        let handles = shards
            .iter()
            .map(|sh| sh.replicas.iter().map(Core::handle).collect())
            .collect();
        assert!(fleet.set(handles).is_ok(), "the fleet is published once");
        let writer = config.mutations.is_some().then(|| {
            spawn_writer(
                Arc::clone(&epochs),
                Box::new(ShardedRebuild {
                    partitioner,
                    cache: cache.clone(),
                }),
            )
        });
        ShardedGraphService {
            graph,
            partitioner,
            shards,
            routing: config.routing,
            cache,
            epochs,
            writer,
            panic_next_run,
        }
    }

    /// The initially loaded (epoch 0) graph. Use
    /// [`ShardedGraphService::epoch`] for the currently serving version.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The currently serving epoch snapshot.
    pub fn epoch(&self) -> Arc<EpochSnapshot> {
        self.epochs.current()
    }

    /// Every epoch installed so far (including the initial one), when the
    /// service was started with
    /// [`MutationConfig::keep_history`](crate::epoch::MutationConfig::keep_history);
    /// `None` otherwise. Test instrumentation.
    pub fn epoch_history(&self) -> Option<Vec<Arc<EpochSnapshot>>> {
        self.epochs.history()
    }

    /// Appends one mutation to the bounded write buffer (blocking while it
    /// is full), returning its accept sequence number. The writer applies
    /// batches to the full graph and incrementally rebuilds every shard's
    /// slice into the next epoch. Fails with [`SubmitError::ReadOnly`]
    /// when the service was started without [`ServiceConfig::mutations`].
    pub fn submit_mutation(&self, mutation: Mutation) -> Result<u64, SubmitError> {
        self.epochs.accept(mutation)
    }

    /// Writer-side counters (epoch id, swaps, accepted/applied/no-op
    /// mutations, backlog).
    pub fn writer_stats(&self) -> WriterStats {
        self.epochs.writer_stats()
    }

    /// Writer counters plus the freshness histograms.
    pub fn writer_report(&self) -> WriterReport {
        self.epochs.writer_report()
    }

    /// Snapshots the writer counters and resets the freshness histograms —
    /// the run-scoping baseline.
    pub fn writer_baseline(&self) -> WriterStats {
        self.epochs.writer_baseline()
    }

    /// Test hook, the shared-run counterpart of
    /// [`QueryKind::DebugPanic`]: the next shared engine run panics inside
    /// its leader as it ends, so tests can check that every leg attached to
    /// the run fails with it and that nothing of it outlives the failure.
    pub fn debug_panic_next_run(&self) {
        self.panic_next_run.store(true, Ordering::Relaxed);
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Replica cores per shard (every shard runs the same count).
    pub fn replicas_per_shard(&self) -> usize {
        self.shards[0].replicas.len()
    }

    /// The shard that owns vertex `v` (total: out-of-range ids still map to
    /// a shard, which answers [`QueryError::NoSuchVertex`]).
    pub fn owner(&self, v: VertexId) -> usize {
        self.partitioner.owner(v)
    }

    /// Per-shard identity + counters (each with one row per replica), for
    /// the stress report's occupancy and drop columns. Owned counts come
    /// from the serving epoch (they grow when mutations add vertices).
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        let snap = self.epochs.current();
        self.shards
            .iter()
            .enumerate()
            .map(|(s, sh)| sh.snapshot(s, snap.locals[s].owned))
            .collect()
    }

    /// Counters folded across every shard and replica (high-water marks
    /// take the max), with the service's result-cache counters — which no
    /// shard or replica row carries.
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for core in self.shards.iter().flat_map(|sh| &sh.replicas) {
            total.absorb(&core.stats());
        }
        let c = self
            .cache
            .as_deref()
            .map(ResultCache::stats)
            .unwrap_or_default();
        total.cache_hits = c.hits;
        total.cache_misses = c.misses;
        total.cache_insertions = c.insertions;
        total.cache_evictions = c.evictions;
        total.cache_bytes = c.resident_bytes;
        total
    }

    /// Drops every result-cache entry. Fired by the epoch writer at every
    /// swap; also callable directly (a no-op when caching is disabled).
    pub fn invalidate_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.invalidate_all();
        }
    }

    /// Whether [`ShardedGraphService::close`] has begun: it closes every
    /// core, the first one first.
    pub(crate) fn is_closed(&self) -> bool {
        self.shards[0].replicas[0].is_closed()
    }

    /// Stops admissions (requests and mutations) on every replica of every
    /// shard; accepted requests still drain and buffered mutations are
    /// still applied.
    pub fn close(&self) {
        for sh in &self.shards {
            for core in &sh.replicas {
                core.close();
            }
        }
        self.epochs.close();
    }

    /// Closes every replica core and blocks until the writer applied every
    /// accepted mutation and all executors drained (drain-then-join across
    /// the whole replica fleet), returning the folded counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.epochs.close();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
        for sh in &self.shards {
            for core in &sh.replicas {
                core.close();
            }
        }
        // Join every core before reading any counter: a leg parked on
        // another shard's run is booked on its own core by that run's
        // leader, possibly after its own core's executors have exited.
        for sh in &mut self.shards {
            for core in &mut sh.replicas {
                core.join();
            }
        }
        self.stats()
    }

    /// Pending requests per shard (summed across the shard's replica
    /// queues).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|sh| sh.replicas.iter().map(Core::queue_depth).sum())
            .collect()
    }

    /// Pending requests per replica queue of one shard (jobs in service
    /// excluded; the least-loaded policy adds those).
    pub fn replica_queue_depths(&self, shard: usize) -> Vec<usize> {
        self.shards[shard]
            .replicas
            .iter()
            .map(Core::queue_depth)
            .collect()
    }

    /// Resets the service-time recorders of every replica core of every
    /// shard to measure from `origin` with the given interval width.
    pub fn reset_service_log(&self, origin: Instant, interval_ns: u64) {
        for sh in &self.shards {
            for core in &sh.replicas {
                core.reset_service_log(origin, interval_ns);
            }
        }
    }

    /// Per-shard, per-replica service-time series since the last reset
    /// (outer index = shard, inner = replica).
    pub fn replica_series(&self) -> Vec<Vec<ReplicaSeries>> {
        self.shards
            .iter()
            .map(|sh| sh.replicas.iter().map(Core::service_series).collect())
            .collect()
    }

    /// Per-tenant admission counters folded across every replica core of
    /// every shard: counts (enqueued/rejected/throttled) sum, queue
    /// high-water marks take the max — same conventions as
    /// [`ServiceStats::absorb`].
    pub fn qos_stats(&self) -> Vec<crate::qos::TenantLaneStats> {
        let mut folded: Vec<crate::qos::TenantLaneStats> = Vec::new();
        for sh in &self.shards {
            for core in &sh.replicas {
                for lane in core.qos_stats() {
                    if folded.len() <= lane.tenant {
                        folded.resize(lane.tenant + 1, Default::default());
                        folded[lane.tenant].tenant = lane.tenant;
                    }
                    let f = &mut folded[lane.tenant];
                    f.enqueued += lane.enqueued;
                    f.rejected += lane.rejected;
                    f.throttled += lane.throttled;
                    f.queue_hwm = f.queue_hwm.max(lane.queue_hwm);
                }
            }
        }
        folded
    }
}

impl Drop for ShardedGraphService {
    fn drop(&mut self) {
        // Stop and join the writer before the cores' own Drops close the
        // queues — a detached writer blocked on the write buffer would
        // leak its thread.
        self.epochs.close();
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::mutation_op;
    use vcgp_graph::generators;
    use vcgp_pregel::partition::Partitioning;

    #[test]
    fn local_slice_preserves_owned_adjacency() {
        let g = generators::gnm_connected(40, 90, 11);
        for strategy in [Partitioning::Hash, Partitioning::Range] {
            let p = Partitioner::new(strategy, g.num_vertices(), 3);
            for s in 0..3 {
                let local = build_shard_slice(&g, &p, s).local;
                assert_eq!(local.num_vertices(), g.num_vertices());
                for v in 0..g.num_vertices() as VertexId {
                    if p.owner(v) == s {
                        assert_eq!(local.out_neighbors(v), g.out_neighbors(v), "v={v}");
                        assert_eq!(local.out_weights(v), g.out_weights(v), "v={v}");
                    } else {
                        assert!(local.out_neighbors(v).is_empty(), "v={v} not owned");
                    }
                }
            }
        }
    }

    #[test]
    fn every_vertex_owned_by_exactly_one_shard() {
        let g = generators::gnm_connected(33, 70, 5);
        for strategy in [Partitioning::Hash, Partitioning::Range] {
            let p = Partitioner::new(strategy, g.num_vertices(), 4);
            let mut owned = vec![0usize; g.num_vertices()];
            for s in 0..4 {
                for v in 0..g.num_vertices() as VertexId {
                    if p.owner(v) == s {
                        owned[v as usize] += 1;
                    }
                }
            }
            assert!(owned.iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn incremental_slice_rebuild_matches_from_scratch() {
        let g = generators::gnm_connected(48, 100, 9);
        let old_n = g.num_vertices();
        for strategy in [Partitioning::Hash, Partitioning::Range] {
            let p = Partitioner::new(strategy, old_n, 3);
            let slices: Vec<ShardSlice> = (0..3).map(|s| build_shard_slice(&g, &p, s)).collect();
            let batch: Vec<Mutation> = (0..16).map(|i| mutation_op(13, i, old_n)).collect();
            let (new_full, delta) = apply_batch(&g, &batch);
            let new_full = Arc::new(new_full);
            for (s, old_slice) in slices.iter().enumerate() {
                let inc = rebuild_slice(old_slice, &new_full, &delta, &p, s, old_n);
                let scratch = build_shard_slice(&new_full, &p, s);
                assert_eq!(inc.local, scratch.local, "strategy {strategy:?} shard {s}");
                assert_eq!(inc.owned, scratch.owned, "strategy {strategy:?} shard {s}");
            }
        }
    }
}
