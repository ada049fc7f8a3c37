//! Integration + property tests for the result cache: memoized answers are
//! bit-identical to cold computation, a replay is one hit at the router
//! that reaches no shard, eviction respects the configured capacity, and
//! invalidation restores miss behavior.

mod common;

use common::one_shard;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcgp_core::service::{run_workload, supported_workloads};
use vcgp_core::Workload;
use vcgp_graph::generators;
use vcgp_pregel::partition::Partitioning;
use vcgp_pregel::PregelConfig;
use vcgp_stress::request::{QueryError, QueryKind, QueryOutput, QueryRequest};
use vcgp_stress::service::{ServiceConfig, SubmitError};
use vcgp_stress::shard::ShardedGraphService;
use vcgp_testkit::prop::Source;
use vcgp_testkit::{prop_assert, vcgp_props};

fn config_for(strategy: Partitioning, cache_capacity: usize) -> ServiceConfig {
    let mut engine = PregelConfig::single_worker();
    engine.partitioning = strategy;
    ServiceConfig {
        executors: 2,
        engine,
        cache_capacity,
        ..ServiceConfig::default()
    }
}

/// The benchmark's analytics pool.
const POOL: [Workload; 6] = [
    Workload::CcHashMin,
    Workload::CcSv,
    Workload::SpanningTree,
    Workload::Sssp,
    Workload::PageRank,
    Workload::Coloring,
];

vcgp_props! {
    #![cases(6)]

    // A router hit is the cold miss's response, field for field — answer,
    // supersteps and the gathered messages — at every shard count and
    // placement, and it costs the shards nothing: no leg is enqueued
    // (`queue_hwm`), no engine runs (`engine_runs`) and no core answers
    // (per-shard `completed`).
    fn a_router_hit_is_the_cold_miss_and_touches_no_shard(
        graph_seed in 0u64..1_000,
        req_seed in 0u64..1_000_000,
    ) {
        let mut src = Source::new(graph_seed ^ 0x524F_5554); // "ROUT"
        let n = 12 + src.next_below(29) as usize;
        let m = n + src.next_below(2 * n as u64) as usize;
        let graph = Arc::new(generators::gnm_connected(n, m, graph_seed));
        for strategy in [Partitioning::Hash, Partitioning::Range] {
            for shards in [1usize, 2, 4] {
                let service = ShardedGraphService::start(
                    Arc::clone(&graph),
                    config_for(strategy, 256),
                    shards,
                );
                for (i, &w) in POOL.iter().enumerate() {
                    let what = format!("{w:?} S={shards} {strategy:?}");
                    let req = |round: u64| {
                        QueryRequest::new(2 * i as u64 + round, QueryKind::Workload(w))
                            .with_seed(req_seed)
                    };
                    let cold = service.submit(req(0)).expect("open").wait();
                    prop_assert!(cold.attempts >= 1, "{what}: the cold request ran");
                    let before = (service.stats(), service.shard_snapshots());
                    let hot = service.submit(req(1)).expect("open").wait();
                    let after = (service.stats(), service.shard_snapshots());
                    prop_assert!(
                        cold.is_ok() && hot.result == cold.result,
                        "{what}: hit {:?} != miss {:?}",
                        hot.result,
                        cold.result
                    );
                    prop_assert!(
                        hot.route == cold.route && hot.attempts == 0,
                        "{what}: hit routed {:?} after {} attempts",
                        hot.route,
                        hot.attempts
                    );
                    prop_assert!(
                        after.0.cache_hits == before.0.cache_hits + 1,
                        "{what}: the replay was not one hit"
                    );
                    prop_assert!(
                        (after.0.queue_hwm, after.0.engine_runs)
                            == (before.0.queue_hwm, before.0.engine_runs),
                        "{what}: the hit queued or ran something"
                    );
                    for (a, b) in after.1.iter().zip(&before.1) {
                        prop_assert!(
                            a.stats.completed == b.stats.completed,
                            "{what}: shard {} answered the hit",
                            a.shard
                        );
                    }
                }
                service.shutdown();
            }
        }
    }

    // The acceptance property: for every supported workload, both
    // partitioning strategies, and S ∈ {1, 2, 4}, submitting the same
    // request twice yields the cold `run_workload` answer both times —
    // bit-identical answer AND superstep count — and the second submission
    // is served from the cache (hit counters advance; the fresh/cached
    // merge is invisible in the payload).
    fn cached_answers_bit_identical_to_uncached(
        graph_seed in 0u64..1_000,
        req_seed in 0u64..1_000_000,
        directed in 0u64..2,
    ) {
        let mut src = Source::new(graph_seed ^ 0x4341_4348); // "CACH"
        let n = 8 + src.next_below(17) as usize;
        let m = n + src.next_below(2 * n as u64) as usize;
        let graph = Arc::new(if directed == 0 {
            generators::gnm_connected(n, m, graph_seed)
        } else {
            generators::labeled_digraph(n, m, 3, graph_seed)
        });
        let workloads = supported_workloads(&graph);
        prop_assert!(!workloads.is_empty(), "graph supports no workloads");

        for strategy in [Partitioning::Hash, Partitioning::Range] {
            let config = config_for(strategy, 256);
            for shards in [1usize, 2, 4] {
                let service =
                    ShardedGraphService::start(Arc::clone(&graph), config.clone(), shards);
                for (i, &w) in workloads.iter().enumerate() {
                    let expected = run_workload(w, &graph, &config.engine, req_seed)
                        .expect("workload passed the supported() filter");
                    let cold_hits = service.stats().cache_hits;
                    for round in 0..2 {
                        let req = QueryRequest::new(
                            (i as u64) * 2 + round,
                            QueryKind::Workload(w),
                        )
                        .with_seed(req_seed);
                        let resp = service.submit(req).expect("service open").wait();
                        match resp.result {
                            Ok(QueryOutput::Workload { answer, supersteps, .. }) => {
                                prop_assert!(
                                    answer == expected.answer,
                                    "{w:?} S={shards} {strategy:?} round {round}: \
                                     answer {answer} != {}",
                                    expected.answer
                                );
                                prop_assert!(
                                    supersteps == expected.stats.supersteps(),
                                    "{w:?} S={shards} {strategy:?} round {round}: \
                                     supersteps {supersteps} != {}",
                                    expected.stats.supersteps()
                                );
                            }
                            ref other => {
                                prop_assert!(
                                    false,
                                    "{w:?} S={shards} {strategy:?} round {round}: \
                                     unexpected {other:?}"
                                );
                            }
                        }
                    }
                    // The replay is one probe, answered at the router.
                    let hits = service.stats().cache_hits - cold_hits;
                    prop_assert!(
                        hits == 1,
                        "{w:?} S={shards} {strategy:?}: replay hit {hits} times, not once"
                    );
                }
                service.shutdown();
            }
        }
    }
}

#[test]
fn single_instance_replay_hits_without_executing() {
    let graph = Arc::new(generators::gnm_connected(32, 80, 3));
    let config = config_for(Partitioning::Hash, 64);
    let service = one_shard(Arc::clone(&graph), config);
    let req =
        |id: u64| QueryRequest::new(id, QueryKind::Workload(Workload::CcHashMin)).with_seed(42);
    let cold = service.submit(req(1)).unwrap().wait();
    let warm = service.submit(req(2)).unwrap().wait();
    assert_eq!(cold.result, warm.result, "memoized answer differs");
    assert!(cold.attempts >= 1, "cold run executed");
    assert_eq!(warm.attempts, 0, "warm run never touched an executor");
    assert_eq!(warm.service_time, Duration::ZERO);
    let stats = service.shutdown();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_insertions, 1);
    assert!(stats.cache_bytes > 0, "resident gauge reflects the entry");
}

#[test]
fn distinct_seeds_are_distinct_entries() {
    // The key includes the request seed: seed-parameterized workloads must
    // not alias (and seed-independent ones simply occupy more entries —
    // correctness over cleverness).
    let graph = Arc::new(generators::gnm_connected(24, 60, 5));
    let service = one_shard(Arc::clone(&graph), config_for(Partitioning::Hash, 64));
    for (id, seed) in [(1u64, 7u64), (2, 8), (3, 7)] {
        let resp = service
            .submit(QueryRequest::new(id, QueryKind::Workload(Workload::Sssp)).with_seed(seed))
            .unwrap()
            .wait();
        assert!(resp.is_ok(), "sssp failed: {:?}", resp.result);
    }
    let stats = service.shutdown();
    assert_eq!(stats.cache_misses, 2, "seeds 7 and 8 are separate entries");
    assert_eq!(stats.cache_hits, 1, "the third request replays seed 7");
}

#[test]
fn eviction_respects_the_configured_capacity() {
    let graph = Arc::new(generators::gnm_connected(24, 60, 5));
    let capacity = 2usize;
    let service = one_shard(Arc::clone(&graph), config_for(Partitioning::Hash, capacity));
    // Five distinct keys (same workload, distinct seeds) through a
    // two-entry cache: every one misses, every one is inserted, and the
    // overflow is evicted deterministically.
    for seed in 0..5u64 {
        let resp = service
            .submit(QueryRequest::new(seed, QueryKind::Workload(Workload::Sssp)).with_seed(seed))
            .unwrap()
            .wait();
        assert!(resp.is_ok());
    }
    let stats = service.shutdown();
    assert_eq!(stats.cache_misses, 5);
    assert_eq!(stats.cache_insertions, 5);
    assert_eq!(
        stats.cache_evictions,
        5 - capacity as u64,
        "exactly the overflow beyond capacity was evicted"
    );
}

#[test]
fn invalidate_empties_the_cache_and_restores_misses() {
    let graph = Arc::new(generators::gnm_connected(32, 80, 3));
    let service = one_shard(Arc::clone(&graph), config_for(Partitioning::Hash, 64));
    let req = |id: u64| QueryRequest::new(id, QueryKind::Workload(Workload::PageRank)).with_seed(9);
    assert!(service.submit(req(1)).unwrap().wait().is_ok());
    assert!(service.submit(req(2)).unwrap().wait().is_ok());
    assert_eq!(service.stats().cache_hits, 1);
    assert!(service.stats().cache_bytes > 0);

    // The graph-swap / re-shard hook: after invalidation the same request
    // misses (and recomputes) again.
    service.invalidate_cache();
    assert_eq!(
        service.stats().cache_bytes,
        0,
        "nothing resident after invalidation"
    );
    assert!(service.submit(req(3)).unwrap().wait().is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.cache_hits, 1, "no new hits after invalidation");
    assert_eq!(
        stats.cache_misses, 2,
        "the post-invalidation request missed"
    );
}

#[test]
fn sharded_invalidate_clears_the_service_cache() {
    let graph = Arc::new(generators::gnm_connected(40, 100, 7));
    let service =
        ShardedGraphService::start(Arc::clone(&graph), config_for(Partitioning::Hash, 64), 4);
    let resp = service
        .submit(QueryRequest::new(1, QueryKind::Workload(Workload::CcHashMin)).with_seed(5))
        .unwrap()
        .wait();
    assert!(resp.is_ok());
    assert!(
        service.stats().cache_bytes > 0,
        "the whole answer is cached"
    );
    service.invalidate_cache();
    assert_eq!(service.stats().cache_bytes, 0);
    let stats = service.shutdown();
    assert_eq!(stats.cache_hits, 0);
}

/// A cached answer keeps the checks a core makes at submit in their order:
/// a closed service refuses, a request already past its deadline is
/// dropped at its shards without a probe, and only then does the cache
/// answer.
#[test]
fn a_hit_is_refused_when_closed_and_not_probed_past_its_deadline() {
    let graph = Arc::new(generators::gnm_connected(40, 100, 7));
    let service =
        ShardedGraphService::start(Arc::clone(&graph), config_for(Partitioning::Hash, 64), 2);
    let req = |id: u64| QueryRequest::new(id, QueryKind::Workload(Workload::CcSv)).with_seed(3);
    assert!(service.submit(req(1)).unwrap().wait().is_ok());
    let late = service
        .submit(req(2).with_deadline(Instant::now()))
        .unwrap()
        .wait();
    assert_eq!(late.result, Err(QueryError::DeadlineExceeded));
    let stats = service.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1), "no probe");
    assert_eq!(stats.early_drops, 2, "one early drop per shard");
    service.close();
    assert!(matches!(service.submit(req(3)), Err(SubmitError::Closed)));
    assert_eq!(service.shutdown().cache_hits, 0);
}

#[test]
fn cache_off_never_hits() {
    let graph = Arc::new(generators::gnm_connected(32, 80, 3));
    let service = one_shard(Arc::clone(&graph), config_for(Partitioning::Hash, 0));
    let req =
        |id: u64| QueryRequest::new(id, QueryKind::Workload(Workload::CcHashMin)).with_seed(42);
    let a = service.submit(req(1)).unwrap().wait();
    let b = service.submit(req(2)).unwrap().wait();
    assert_eq!(a.result, b.result, "determinism does not need the cache");
    assert!(b.attempts >= 1, "second run executed for real");
    let stats = service.shutdown();
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 0, "disabled cache counts nothing");
    assert_eq!(stats.cache_bytes, 0);
}
