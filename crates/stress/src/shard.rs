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
//! it never blocks on another shard. When the run ends the leader answers
//! every parked leg on that leg's own core (its `completed` counter, its
//! service log, its shard's result cache under its own leg key) — and,
//! the same way, every leg of the run that is still *queued* on some core
//! behind other work, which it takes out of that queue: a finished request
//! never waits for a busy executor just to be handed a finished slice. A
//! leg that arrives later still takes its partial from the *finished*
//! entry, which is dropped once all `S` shards were served. A run that
//! fails —
//! panic, unsupported workload, or one that outlives its leader's timeout
//! — fails every parked leg with the same class of error, each counted
//! once on its own core, and leaves no entry behind. Answers, routes,
//! epoch pinning and cache identities are what they were when every leg
//! ran for itself; [`ServiceStats::engine_runs`] and
//! [`ServiceStats::coalesced_legs`] count the difference.
//!
//! Under live mutations the slices are **per-epoch**: every
//! [`EpochSnapshot`] carries one [`ShardSlice`] per shard, and the epoch
//! writer rebuilds them *incrementally* — [`vcgp_graph::splice_slice`]
//! patches only the touched rows of the previous epoch's slice (falling
//! back to a from-scratch rebuild when the delta is large), and the
//! owned-id-set hash is extended rather than recomputed when the id space
//! grows. Ownership itself is **frozen at start**: the partitioner is
//! total over the whole `u32` id space, so vertices added later still get
//! a deterministic owner and the routing of pinned in-flight requests is
//! never invalidated (vertex removal detaches but never shrinks the id
//! space for the same reason).
//!
//! Each shard runs `R ≥ 1` **replica cores** (`Core`: bounded queue,
//! executor pool, striped counters, queue-depth high-water mark) over the
//! *same* epoch-pinned snapshot and shard slice — replicating a hot shard
//! costs queue/executor state, not graph copies. The router picks a
//! replica per dispatch via the configured [`RoutingPolicy`]; all
//! replicas of a shard share one result cache (keys are
//! replica-agnostic), epoch swaps fan the invalidation out once per shard,
//! and teardown drains then joins every replica core. Per-shard *and*
//! per-replica occupancy is observable
//! ([`ShardedGraphService::shard_snapshots`]).

use crate::cache::{CacheKey, CacheScope, ResultCache};
use crate::epoch::{
    spawn_writer, EpochManager, EpochRebuild, EpochSnapshot, ShardSlice, WriterReport, WriterStats,
};
use crate::request::{QueryError, QueryKind, QueryOutput, QueryRequest};
use crate::router::RoutingPolicy;
use crate::runs::{Join, RunKey, RunTable, SlicedAnswer};
use crate::service::{
    execute_debug_hook, overlay_cache, panic_message, service_cache, Attempt, CacheInvalidator,
    Core, CoreHandle, ParkedLeg, ReplicaSeries, ReplicaSnapshot, Seat, ServiceConfig, ServiceStats,
    ShardSnapshot, SubmitError, Ticket,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;
use vcgp_core::fingerprint::{graph_fingerprint, leg_fingerprint};
use vcgp_graph::rng::mix3;
use vcgp_graph::{
    apply_batch, splice_slice, ApplyDelta, ApplyStats, Graph, GraphBuilder, Mutation, VertexId,
};
use vcgp_pregel::partition::Partitioner;
use vcgp_pregel::PregelConfig;

/// Domain separator of the owned-id-set hash.
const OWNS_STREAM: u64 = 0x4F57_4E53; // "OWNS"

/// Domain separator folding the slice fingerprint into the leg identity.
const SLICE_STREAM: u64 = 0x534C_4943; // "SLIC"

/// Domain separator seeding each shard's round-robin replica cursor.
const RR_STREAM: u64 = 0x5252_4F54; // "RROT"

/// Builds shard `shard`'s local subgraph: a directed graph over the full
/// vertex-id space containing exactly the out-arcs of owned vertices (with
/// weights and labels preserved), so owned point lookups answer identically
/// to the full graph.
fn build_local_slice(full: &Graph, partitioner: &Partitioner, shard: usize) -> Graph {
    let n = full.num_vertices();
    let mut b = GraphBuilder::directed(n);
    for v in 0..n as VertexId {
        if partitioner.owner(v) == shard {
            for (t, w) in full.out_edges(v) {
                b.add_weighted_edge(v, t, w);
            }
        }
    }
    if let Some(labels) = full.labels() {
        b.set_labels(labels.to_vec());
    }
    b.build()
}

/// Builds one shard's [`ShardSlice`] from scratch: the local subgraph plus
/// the owned-id-set hash and the leg cache fingerprint derived from it.
fn build_shard_slice(
    full: &Graph,
    partitioner: &Partitioner,
    shard: usize,
    whole_fp: u64,
) -> ShardSlice {
    let local = build_local_slice(full, partitioner, shard);
    // The slice fingerprint alone misses owned vertices with no out-arcs
    // (sinks leave no trace in the slice), so fold in an order-independent
    // hash of the owned id set — the leg identity then changes under *any*
    // ownership change.
    let mut owned = 0usize;
    let mut owned_hash = 0u64;
    for v in 0..full.num_vertices() as VertexId {
        if partitioner.owner(v) == shard {
            owned += 1;
            owned_hash = owned_hash.wrapping_add(mix3(u64::from(v), OWNS_STREAM, 0));
        }
    }
    ShardSlice {
        leg_fp: leg_fingerprint(
            whole_fp,
            mix3(graph_fingerprint(&local), owned_hash, SLICE_STREAM),
        ),
        local,
        owned,
        owned_hash,
    }
}

/// Rebuilds one shard's slice for the next epoch, incrementally: extend
/// the owned id set over any vertices the batch added (ownership of
/// existing ids is frozen), splice only the touched rows of the previous
/// slice, and refresh the leg fingerprint. Falls back to a from-scratch
/// rebuild when the delta covers more than a quarter of the graph — at
/// that point the splice's row bookkeeping costs more than it saves.
fn rebuild_slice(
    old: &ShardSlice,
    full: &Arc<Graph>,
    whole_fp: u64,
    delta: &ApplyDelta,
    partitioner: &Partitioner,
    shard: usize,
    old_n: usize,
) -> ShardSlice {
    let owns = |v: VertexId| partitioner.owner(v) == shard;
    let mut owned = old.owned;
    let mut owned_hash = old.owned_hash;
    for v in old_n..delta.new_n {
        if owns(v as VertexId) {
            owned += 1;
            owned_hash = owned_hash.wrapping_add(mix3(v as u64, OWNS_STREAM, 0));
        }
    }
    let local = if delta.touched.len() * 4 > full.num_vertices() {
        build_local_slice(full, partitioner, shard)
    } else {
        splice_slice(&old.local, full, &delta.touched, &owns)
    };
    ShardSlice {
        leg_fp: leg_fingerprint(
            whole_fp,
            mix3(graph_fingerprint(&local), owned_hash, SLICE_STREAM),
        ),
        local,
        owned,
        owned_hash,
    }
}

/// The epoch-rebuild backend of the sharded service: apply the batch to
/// the full graph (incremental CSR splice), then rebuild each shard's
/// slice incrementally from the previous epoch's.
struct ShardedRebuild {
    partitioner: Partitioner,
    invalidators: Vec<CacheInvalidator>,
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
                    whole_fp,
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
        for inv in &self.invalidators {
            inv.invalidate();
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

/// A request's identity in shard `shard`'s result cache: a scattered leg
/// by the shard's leg fingerprint in the pinned epoch. `None` for
/// everything that must not be memoized (point lookups, debug hooks).
fn cache_key_on(shard: usize, snap: &EpochSnapshot, req: &QueryRequest) -> Option<CacheKey> {
    let QueryKind::WorkloadPartial(workload) = req.kind else {
        return None;
    };
    let fingerprint = snap.locals[shard].leg_fp;
    Some(CacheKey {
        workload,
        scope: CacheScope::Leg,
        fingerprint,
        seed: req.seed,
    })
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
                let taken = core.take_queued_legs(wanted, |req| {
                    req.epoch
                        .as_deref()
                        .and_then(|snap| cache_key_on(shard, snap, req))
                });
                legs.extend(taken.into_iter().map(|leg| (shard, leg)));
            }
        }
        legs
    }

    /// Leads the shared run of `key`: one engine execution on the pinned
    /// epoch's full graph, sliced by shard ownership, answers this leg,
    /// every leg parked on the entry meanwhile, and every leg of the run
    /// still queued when it ends. A failed run — panic,
    /// unsupported workload, or one that outlived this leg's timeout — is
    /// delivered to the parked legs as the same class of failure and leaves
    /// no entry behind, so a retry starts afresh.
    fn lead(
        &self,
        key: RunKey,
        snap: &EpochSnapshot,
        req: &QueryRequest,
        engine: &PregelConfig,
    ) -> Result<QueryOutput, QueryError> {
        let fail = |error: &QueryError| {
            for (_, leg) in self.runs.abandon(key) {
                leg.complete(Err(error.clone()));
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
                return Err(error);
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
        if t0.elapsed() > req.timeout {
            // The executor is about to judge this attempt timed out (its
            // clock started before ours); the legs that waited on it waited
            // as long (each reports its own attempt count). The leader
            // keeps its value — memoized, then retried.
            fail(&QueryError::Timeout { attempts: 0 });
        } else {
            let queued = self.take_queued(key);
            let served = queued.iter().map(|&(shard, _)| shard).chain([self.shard]);
            let parked = self.runs.finish(key, served, &answer);
            for (shard, leg) in parked.into_iter().chain(queued) {
                leg.complete(Ok(answer.leg(shard)));
            }
        }
        Ok(answer.leg(self.shard))
    }

    /// One execution attempt of the request in `seat`.
    pub(crate) fn execute(&self, seat: &Seat<'_>, engine: &PregelConfig) -> Attempt {
        let req = seat.req;
        let snap = self.pinned(req);
        if let Some(key) = run_key(req, snap) {
            return match self
                .runs
                .join(key, self.shard, || seat.park(self.cache_key(req)))
            {
                Join::Parked => Attempt::Parked,
                Join::Finished(answer) => Attempt::Shared(answer.leg(self.shard)),
                Join::Lead => Attempt::Done(self.lead(key, snap, req, engine)),
            };
        }
        Attempt::Done(execute_debug_hook(&req.kind))
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

    /// The result-cache identity of the request on this shard, derived
    /// from the request's pinned epoch, so lookup and insert agree on the
    /// fingerprint even when a swap lands mid-request.
    pub(crate) fn cache_key(&self, req: &QueryRequest) -> Option<CacheKey> {
        cache_key_on(self.shard, self.pinned(req), req)
    }
}

/// One shard: `R ≥ 1` replica cores over the same slice, the shard-shared
/// result cache, and the round-robin replica cursor.
pub(crate) struct Shard {
    pub(crate) replicas: Vec<Core>,
    /// The result cache shared by every replica core (counters overlaid
    /// once per shard in [`Shard::snapshot`]).
    cache: Option<Arc<ResultCache>>,
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
            RoutingPolicy::LeastLoaded => {
                let mut best = 0usize;
                let mut best_depth = usize::MAX;
                for (r, core) in self.replicas.iter().enumerate() {
                    let depth = core.queue_depth();
                    if depth < best_depth {
                        best = r;
                        best_depth = depth;
                    }
                }
                best
            }
        }
    }

    /// Picks a replica and submits, returning the ticket plus the pick
    /// (echoed in [`crate::request::Route::Routed`]). A shared-cache hit
    /// answers from whichever replica was picked without queueing.
    pub(crate) fn submit(
        &self,
        policy: RoutingPolicy,
        req: QueryRequest,
    ) -> Result<(Ticket, u32), SubmitError> {
        let replica = self.pick(policy);
        Ok((self.replicas[replica].submit(req)?, replica as u32))
    }

    /// Counters folded across replicas (sums; queue high-water marks take
    /// the maximum) with the shard cache's counters overlaid once.
    fn folded_stats(&self) -> ServiceStats {
        let mut stats = ServiceStats::default();
        for core in &self.replicas {
            stats.absorb(&core.stats());
        }
        overlay_cache(&mut stats, self.cache.as_deref());
        stats
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
        overlay_cache(&mut stats, self.cache.as_deref());
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
        let whole_fp = graph_fingerprint(&graph);
        let locals: Vec<Arc<ShardSlice>> = (0..num_shards)
            .map(|s| Arc::new(build_shard_slice(&graph, &partitioner, s, whole_fp)))
            .collect();
        let epochs = Arc::new(EpochManager::new(
            EpochSnapshot {
                id: 0,
                graph: Arc::clone(&graph),
                fingerprint: whole_fp,
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
        let shards: Vec<Shard> = (0..num_shards)
            .map(|s| {
                let backend = Arc::new(ShardBackend {
                    shard: s,
                    num_shards,
                    partitioner,
                    base: Arc::clone(&base),
                    runs: Arc::clone(&runs),
                    fleet: Arc::clone(&fleet),
                    panic_next_run: Arc::clone(&panic_next_run),
                });
                // ONE cache per shard, shared by every replica core: keys
                // carry no replica identity, so an answer computed on any
                // replica serves the whole shard.
                let cache = service_cache(&config);
                let replicas = (0..config.replicas)
                    .map(|r| {
                        Core::start(
                            Arc::clone(&backend),
                            &config,
                            &format!("shard{s}r{r}"),
                            cache.clone(),
                        )
                    })
                    .collect();
                Shard {
                    replicas,
                    cache,
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
            // One invalidator per shard (not per replica): the cache is
            // shard-scoped, so each swap clears it exactly once.
            let invalidators = shards
                .iter()
                .map(|sh| CacheInvalidator::new(sh.cache.clone()))
                .collect();
            spawn_writer(
                Arc::clone(&epochs),
                Box::new(ShardedRebuild {
                    partitioner,
                    invalidators,
                }),
            )
        });
        ShardedGraphService {
            graph,
            partitioner,
            shards,
            routing: config.routing,
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
    /// take the max; each shard's cache counts once).
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for sh in &self.shards {
            total.absorb(&sh.folded_stats());
        }
        total
    }

    /// Drops every shard's result-cache entries (each shard's replicas
    /// share one cache, so this clears S caches). Fired by the epoch
    /// writer at every swap; also callable directly (a no-op when caching
    /// is disabled).
    pub fn invalidate_cache(&self) {
        for sh in &self.shards {
            if let Some(cache) = &sh.cache {
                cache.invalidate_all();
            }
        }
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

    /// Pending requests per replica queue of one shard (the gauge the
    /// least-loaded policy reads).
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
                let local = build_local_slice(&g, &p, s);
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
            let whole0 = graph_fingerprint(&g);
            let slices: Vec<ShardSlice> = (0..3)
                .map(|s| build_shard_slice(&g, &p, s, whole0))
                .collect();
            let batch: Vec<Mutation> = (0..16).map(|i| mutation_op(13, i, old_n)).collect();
            let (new_full, delta) = apply_batch(&g, &batch);
            let new_full = Arc::new(new_full);
            let whole1 = graph_fingerprint(&new_full);
            for (s, old_slice) in slices.iter().enumerate() {
                let inc = rebuild_slice(old_slice, &new_full, whole1, &delta, &p, s, old_n);
                let scratch = build_shard_slice(&new_full, &p, s, whole1);
                assert_eq!(inc.local, scratch.local, "strategy {strategy:?} shard {s}");
                assert_eq!(inc.owned, scratch.owned, "strategy {strategy:?} shard {s}");
                assert_eq!(inc.owned_hash, scratch.owned_hash);
                assert_eq!(
                    inc.leg_fp, scratch.leg_fp,
                    "strategy {strategy:?} shard {s}"
                );
            }
        }
    }
}
