//! Integration + property tests for shard replicas and replica routing:
//! answer identity for any replica count under both routing policies
//! (including cached hits and scattered analytics legs), exactly-one-epoch
//! answers under a concurrent mutation writer, seeded round-robin dispatch
//! order, least-loaded picks by queued plus in-service jobs, the
//! replica-agnostic shared cache, and the fold of per-replica rows into the
//! shard snapshot.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vcgp_core::service::run_workload;
use vcgp_core::Workload;
use vcgp_graph::{generators, Mutation};
use vcgp_pregel::partition::Partitioning;
use vcgp_pregel::PregelConfig;
use vcgp_stress::dist::DistSpec;
use vcgp_stress::driver;
use vcgp_stress::epoch::MutationConfig;
use vcgp_stress::request::{QueryKind, QueryOutput, QueryRequest, Route};
use vcgp_stress::router::RoutingPolicy;
use vcgp_stress::scenario::ScenarioSpec;
use vcgp_stress::service::ServiceConfig;
use vcgp_stress::shard::ShardedGraphService;
use vcgp_testkit::prop::Source;
use vcgp_testkit::{prop_assert, vcgp_props};

fn config_for(strategy: Partitioning, replicas: usize, routing: RoutingPolicy) -> ServiceConfig {
    let mut engine = PregelConfig::single_worker();
    engine.partitioning = strategy;
    ServiceConfig {
        executors: 2,
        engine,
        replicas,
        routing,
        ..ServiceConfig::default()
    }
}

fn routed_replica(route: Route) -> u32 {
    match route {
        Route::Routed { replica, .. } => replica,
        other => panic!("expected an owner-routed response, got {other:?}"),
    }
}

vcgp_props! {
    #![cases(4)]

    // The tentpole acceptance property: replicas change latency, never
    // answers. For S ∈ {1, 4} × R ∈ {1, 2, 3} × both routing policies ×
    // both placement strategies, a two-pass driver run (pass 2 replays the
    // identical seeded stream, so it exercises the shared cache; the mixed
    // preset scatters analytics legs at S=4; the zipfian key draw skews
    // the point lookups) completes the same op count with the same answer
    // hash as the R=1 baseline, with zero errors.
    fn replicated_answers_bit_identical_to_single_replica(
        graph_seed in 0u64..1_000,
        stream_seed in 0u64..1_000_000,
    ) {
        let mut src = Source::new(graph_seed ^ 0x5245_504C);
        let n = 24 + src.next_below(25) as usize;
        let m = n + src.next_below(3 * n as u64) as usize;
        let graph = Arc::new(generators::gnm_connected(n, m, graph_seed));
        let mut spec = ScenarioSpec::preset("mixed", DistSpec::Zipfian(1.1), 0.0).unwrap();
        spec.phases[0].ops = Some(96);
        spec.clients = Some(2);
        spec.seed = Some(stream_seed);
        let scenario = spec.resolve(&graph).unwrap();
        let two_passes = |replicas: usize, routing, strategy, shards| {
            let service = ShardedGraphService::start(
                Arc::clone(&graph),
                config_for(strategy, replicas, routing),
                shards,
            );
            let passes = [
                driver::run_scenario(&service, &scenario),
                driver::run_scenario(&service, &scenario),
            ];
            service.shutdown();
            passes
        };
        for strategy in [Partitioning::Hash, Partitioning::Range] {
            for shards in [1usize, 4] {
                let baseline = two_passes(1, RoutingPolicy::RoundRobin, strategy, shards);
                prop_assert!(
                    baseline[1].cache_hits > 0,
                    "{strategy:?} S={shards}: the replayed pass never hit the cache"
                );
                for replicas in [2usize, 3] {
                    for routing in [RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded] {
                        let runs = two_passes(replicas, routing, strategy, shards);
                        for (pass, (run, base)) in runs.iter().zip(&baseline).enumerate() {
                            prop_assert!(
                                run.errors == 0,
                                "{strategy:?} S={shards} R={replicas} {routing:?} pass {pass}: \
                                 {} errors",
                                run.errors
                            );
                            prop_assert!(
                                run.ops == base.ops && run.answer_hash == base.answer_hash,
                                "{strategy:?} S={shards} R={replicas} {routing:?} pass {pass}: \
                                 ops {} hash {:016x} != baseline ops {} hash {:016x}",
                                run.ops,
                                run.answer_hash,
                                base.ops,
                                base.answer_hash
                            );
                            prop_assert!(
                                run.per_shard.len() == shards
                                    && run
                                        .per_shard
                                        .iter()
                                        .all(|s| s.replicas.len() == replicas),
                                "{strategy:?} S={shards} R={replicas} {routing:?} pass {pass}: \
                                 report is missing per-replica rows"
                            );
                        }
                        prop_assert!(
                            runs[1].cache_hits > 0,
                            "{strategy:?} S={shards} R={replicas} {routing:?}: replay \
                             missed the shared cache"
                        );
                    }
                }
            }
        }
    }
}

/// Replicated shards racing a concurrent mutation writer: with
/// `keep_history`, every answer any replica produces must be bit-identical
/// to a frozen run over *some* installed epoch — replicas swap in lockstep
/// per shard, so no answer may blend graph versions.
#[test]
fn replicated_answers_under_writer_match_exactly_one_epoch() {
    let graph = Arc::new(generators::gnm_connected(20, 40, 13));
    let mut config = config_for(Partitioning::Hash, 2, RoutingPolicy::LeastLoaded);
    config.mutations = Some(MutationConfig {
        max_batch: 1, // one swap per mutation: maximal epoch churn
        keep_history: true,
        ..MutationConfig::default()
    });
    let engine = config.engine.clone();
    let service = ShardedGraphService::start(Arc::clone(&graph), config, 2);

    let muts: Vec<Mutation> = (0..12u32)
        .map(|i| match i % 4 {
            0 => Mutation::DeleteEdgeAt { u: i, rank: i },
            1 => Mutation::InsertEdge {
                u: i,
                v: (i + 7) % 20,
                w: 1.0,
            },
            2 => Mutation::RemoveVertex { v: (i * 3) % 20 },
            _ => Mutation::AddVertex { label: i },
        })
        .collect();
    let answers: Vec<u64> = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for m in &muts {
                service.submit_mutation(*m).expect("writable");
                std::thread::sleep(Duration::from_millis(3));
            }
        });
        let readers: Vec<_> = (0..3u64)
            .map(|r| {
                let service = &service;
                scope.spawn(move || {
                    (0..10u64)
                        .map(|i| {
                            let resp = service
                                .submit(
                                    QueryRequest::new(
                                        1000 + r * 100 + i,
                                        QueryKind::Workload(Workload::CcHashMin),
                                    )
                                    .with_seed(7),
                                )
                                .expect("open")
                                .wait();
                            std::thread::sleep(Duration::from_millis(2));
                            match resp.result {
                                Ok(QueryOutput::Workload { answer, .. }) => answer,
                                other => panic!("expected a workload answer, got {other:?}"),
                            }
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        writer.join().unwrap();
        readers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = service.writer_stats();
        if s.accepted == muts.len() as u64 && s.pending == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "writer never drained: {s:?}");
        std::thread::sleep(Duration::from_millis(2));
    }

    let history = service.epoch_history().expect("keep_history was set");
    assert!(
        history.len() >= 2,
        "writer installed at least one new epoch"
    );
    let frozen: Vec<u64> = history
        .iter()
        .map(|snap| {
            run_workload(Workload::CcHashMin, &snap.graph, &engine, 7)
                .expect("cc supported on every epoch")
                .answer
        })
        .collect();
    for (i, a) in answers.iter().enumerate() {
        assert!(
            frozen.contains(a),
            "answer #{i} ({a}) matches no epoch's frozen answer {frozen:?}"
        );
    }
    service.shutdown();
}

/// Round-robin dispatch is a seeded, deterministic walk: consecutive
/// owner-routed requests to the same shard land on consecutive replicas
/// (mod R), so 3k sequential lookups visit each of 3 replicas exactly k
/// times.
#[test]
fn round_robin_walks_replicas_in_order() {
    let graph = Arc::new(generators::gnm_connected(16, 32, 5));
    let service = ShardedGraphService::start(
        Arc::clone(&graph),
        config_for(Partitioning::Hash, 3, RoutingPolicy::RoundRobin),
        1,
    );
    let mut picks = Vec::new();
    for i in 0..9u64 {
        let resp = service
            .submit(QueryRequest::new(i, QueryKind::Degree(0)))
            .unwrap()
            .wait();
        assert!(resp.result.is_ok());
        picks.push(routed_replica(resp.route));
    }
    for pair in picks.windows(2) {
        assert_eq!(
            pair[1],
            (pair[0] + 1) % 3,
            "round-robin skipped a replica: {picks:?}"
        );
    }
    let snaps = service.shard_snapshots();
    for row in &snaps[0].replicas {
        assert_eq!(
            row.stats.completed, 3,
            "replica {} share of 9 lookups",
            row.replica
        );
    }
    service.shutdown();
}

/// Least-loaded routing counts the jobs a replica has queued *and* in
/// service: with every replica idle the tie-break picks the lowest replica
/// id, and a replica whose only executor is busy loses to an idle one even
/// with its queue empty, so new work splits off to replica 1.
#[test]
fn least_loaded_breaks_ties_low_and_splits_backlog() {
    let graph = Arc::new(generators::gnm_connected(16, 32, 5));
    let mut config = config_for(Partitioning::Hash, 2, RoutingPolicy::LeastLoaded);
    config.executors = 1;
    let service = ShardedGraphService::start(Arc::clone(&graph), config, 1);
    let sleep = |id, ms| QueryRequest::new(id, QueryKind::DebugSleep(Duration::from_millis(ms)));
    // Sequential submit-and-wait: every replica is idle at every pick, so
    // the tie-break sends everything to replica 0.
    for i in 0..4u64 {
        let resp = service
            .submit(QueryRequest::new(i, QueryKind::Degree(0)))
            .unwrap()
            .wait();
        assert_eq!(
            routed_replica(resp.route),
            0,
            "idle ties break to the lowest id"
        );
    }
    // Occupy replica 0's single executor until it has dequeued the job:
    // its queue is empty again, but it carries one job in service.
    let busy = service.submit(sleep(100, 600)).unwrap();
    while service.replica_queue_depths(0) != [0, 0] {
        std::thread::yield_now();
    }
    // The next scattered leg runs on the idle replica ...
    let leg = service
        .submit(QueryRequest::new(101, QueryKind::Workload(Workload::CcSv)))
        .unwrap()
        .wait();
    assert!(leg.result.is_ok(), "{:?}", leg.result);
    let runs: Vec<u64> = service.shard_snapshots()[0]
        .replicas
        .iter()
        .map(|r| r.stats.engine_runs)
        .collect();
    assert_eq!(runs, vec![0, 1], "the leg ran on the idle replica 1");
    // ... and so does the next sleep, instead of queueing behind the busy one.
    let next = service.submit(sleep(102, 1)).unwrap().wait();
    assert_eq!(
        routed_replica(next.route),
        1,
        "least-loaded skipped the busy replica"
    );
    assert_eq!(routed_replica(busy.wait().route), 0);
    service.shutdown();
}

/// The cache is the service's, not a replica's: an answer computed (and
/// inserted) through one replica is a hit for the identical request, which
/// the router answers before it picks any replica.
#[test]
fn shared_cache_hits_across_replicas() {
    let graph = Arc::new(generators::gnm_connected(24, 60, 9));
    let service = ShardedGraphService::start(
        Arc::clone(&graph),
        config_for(Partitioning::Hash, 2, RoutingPolicy::RoundRobin),
        1,
    );
    let req =
        |id: u64| QueryRequest::new(id, QueryKind::Workload(Workload::CcHashMin)).with_seed(42);
    let first = service.submit(req(1)).unwrap().wait();
    let second = service.submit(req(2)).unwrap().wait();
    assert_eq!(
        first.result, second.result,
        "the cached answer is the computed answer"
    );
    let stats = service.stats();
    assert_eq!(stats.cache_hits, 1, "the replay hit the first's insertion");
    assert_eq!(stats.cache_misses, 1);
    // The leg's route names no replica; the rows show who answered.
    let answered: Vec<u64> = service.shard_snapshots()[0]
        .replicas
        .iter()
        .map(|r| r.stats.completed)
        .collect();
    assert_eq!(
        answered.iter().sum::<u64>(),
        1,
        "one replica answered the miss's leg, none the hit: {answered:?}"
    );
    service.shutdown();
}

/// The shard snapshot is exactly the fold of its replica rows: completed
/// counts sum, queue high-water marks take the max, and the folded service
/// totals match the per-shard sums.
#[test]
fn replica_rows_fold_into_shard_snapshot() {
    let graph = Arc::new(generators::gnm_connected(32, 80, 7));
    let service = ShardedGraphService::start(
        Arc::clone(&graph),
        config_for(Partitioning::Hash, 2, RoutingPolicy::RoundRobin),
        2,
    );
    for v in 0..16u32 {
        assert!(service
            .submit(QueryRequest::new(u64::from(v), QueryKind::Degree(v)))
            .unwrap()
            .wait()
            .is_ok());
    }
    let snaps = service.shard_snapshots();
    assert_eq!(snaps.len(), 2);
    for snap in &snaps {
        assert_eq!(snap.replicas.len(), 2);
        for (r, row) in snap.replicas.iter().enumerate() {
            assert_eq!(row.replica, r, "replica rows are ordered by id");
        }
        assert_eq!(
            snap.stats.completed,
            snap.replicas.iter().map(|r| r.stats.completed).sum::<u64>(),
            "shard {} completed is the replica sum",
            snap.shard
        );
        assert_eq!(
            snap.stats.queue_hwm,
            snap.replicas
                .iter()
                .map(|r| r.stats.queue_hwm)
                .max()
                .unwrap(),
            "shard {} queue_hwm is the replica max",
            snap.shard
        );
    }
    let folded = service.stats();
    assert_eq!(folded.completed, 16);
    assert_eq!(
        folded.completed,
        snaps.iter().map(|s| s.stats.completed).sum::<u64>()
    );
    let total = service.shutdown();
    assert_eq!(total.completed, 16);
}
