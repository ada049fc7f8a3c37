//! Integration + property tests for the sharded service: scatter/gather
//! equivalence with the whole-graph oracle, shared engine runs (one per
//! scattered request, failures delivered to every attached leg), owner
//! routing, refused direct legs, admission control, and deadline early
//! drops.

mod common;

use common::one_shard;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcgp_core::service::{run_workload, supported_workloads};
use vcgp_core::Workload;
use vcgp_graph::{generators, Mutation, VertexId};
use vcgp_pregel::partition::Partitioning;
use vcgp_pregel::PregelConfig;
use vcgp_stress::epoch::MutationConfig;
use vcgp_stress::request::{QueryError, QueryKind, QueryOutput, QueryRequest, Route};
use vcgp_stress::service::{QueueFullPolicy, ServiceConfig, ServiceStats, SubmitError};
use vcgp_stress::shard::ShardedGraphService;
use vcgp_testkit::prop::Source;
use vcgp_testkit::{prop_assert, vcgp_props};

fn config_for(strategy: Partitioning) -> ServiceConfig {
    let mut engine = PregelConfig::single_worker();
    engine.partitioning = strategy;
    ServiceConfig {
        executors: 2,
        engine,
        ..ServiceConfig::default()
    }
}

vcgp_props! {
    #![cases(8)]

    // The acceptance property: for every supported workload, both
    // partitioning strategies, and S ∈ {1, 2, 4}, the sharded service's
    // scatter/gather answer (and superstep count) is identical to running
    // the workload unsharded with the same engine config and seed.
    fn sharded_scatter_gather_equals_unsharded(
        graph_seed in 0u64..1_000,
        req_seed in 0u64..1_000_000,
        directed in 0u64..2,
    ) {
        let mut src = Source::new(graph_seed ^ 0x5348_4152);
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
            let config = config_for(strategy);
            for shards in [1usize, 2, 4] {
                let service =
                    ShardedGraphService::start(Arc::clone(&graph), config.clone(), shards);
                for (i, &w) in workloads.iter().enumerate() {
                    let expected = run_workload(w, &graph, &config.engine, req_seed)
                        .expect("workload passed the supported() filter");
                    let req = QueryRequest::new(i as u64, QueryKind::Workload(w))
                        .with_seed(req_seed);
                    let resp = service.submit(req).expect("service open").wait();
                    match resp.result {
                        Ok(QueryOutput::Workload { answer, supersteps, messages }) => {
                            prop_assert!(
                                answer == expected.answer,
                                "{w:?} S={shards} {strategy:?}: answer {answer} != {}",
                                expected.answer
                            );
                            // Every leg reports the one run's traffic and
                            // the gather sums the legs.
                            prop_assert!(
                                messages == shards as u64 * expected.stats.total_messages(),
                                "{w:?} S={shards} {strategy:?}: messages {messages} != {shards} x {}",
                                expected.stats.total_messages()
                            );
                            prop_assert!(
                                supersteps == expected.stats.supersteps(),
                                "{w:?} S={shards} {strategy:?}: supersteps {supersteps} != {}",
                                expected.stats.supersteps()
                            );
                        }
                        ref other => {
                            prop_assert!(
                                false,
                                "{w:?} S={shards} {strategy:?}: unexpected {other:?}"
                            );
                        }
                    }
                    prop_assert!(
                        resp.route == Route::Scattered { shards: shards as u32 },
                        "{w:?} should scatter, got {:?}",
                        resp.route
                    );
                }
                let stats = service.shutdown();
                prop_assert!(
                    stats.engine_runs == workloads.len() as u64,
                    "S={shards} {strategy:?}: {} engine runs for {} requests",
                    stats.engine_runs,
                    workloads.len()
                );
                prop_assert!(
                    stats.coalesced_legs == (shards as u64 - 1) * workloads.len() as u64,
                    "S={shards} {strategy:?}: {} coalesced legs",
                    stats.coalesced_legs
                );
            }
        }
    }
}

/// The scalar answer of a successful workload response.
fn workload_answer(result: &Result<QueryOutput, QueryError>) -> u64 {
    match result {
        Ok(QueryOutput::Workload { answer, .. }) => *answer,
        other => panic!("expected a workload answer, got {other:?}"),
    }
}

/// The tentpole's count: N cold scattered requests cost N engine runs, not
/// S·N, at every shard count, replica count and placement — with every
/// answer, superstep count and message count what the per-leg runs
/// gathered to — and each leg is still memoized under its own shard's key.
#[test]
fn cold_scattered_requests_cost_one_engine_run_each() {
    const N: u64 = 24;
    const CLIENTS: u64 = 4;
    let graph = Arc::new(generators::gnm_connected(96, 240, 7));
    let workloads = [
        Workload::CcHashMin,
        Workload::Sssp,
        Workload::PageRank,
        Workload::Coloring,
        Workload::SpanningTree,
    ];
    let request = |i: u64| {
        let w = workloads[i as usize % workloads.len()];
        QueryRequest::new(i, QueryKind::Workload(w)).with_seed(1000 + i)
    };
    for strategy in [Partitioning::Hash, Partitioning::Range] {
        for shards in [1usize, 2, 4] {
            for replicas in [1usize, 2] {
                let config = ServiceConfig {
                    replicas,
                    ..config_for(strategy)
                };
                let engine = config.engine.clone();
                let what = format!("{strategy:?} S={shards} R={replicas}");
                let service = ShardedGraphService::start(Arc::clone(&graph), config, shards);
                let check = |i: u64| {
                    let req = request(i);
                    let QueryKind::Workload(w) = req.kind else {
                        unreachable!()
                    };
                    let expected = run_workload(w, &graph, &engine, req.seed).unwrap();
                    let resp = service.submit(req).unwrap().wait();
                    assert_eq!(
                        resp.route,
                        Route::Scattered {
                            shards: shards as u32
                        },
                        "{what}"
                    );
                    assert_eq!(
                        resp.result,
                        Ok(QueryOutput::Workload {
                            answer: expected.answer,
                            supersteps: expected.stats.supersteps(),
                            messages: shards as u64 * expected.stats.total_messages(),
                        }),
                        "{what}: request {i} ({w:?})"
                    );
                };
                // Cold pass: overlapping in-flight requests, all distinct.
                std::thread::scope(|scope| {
                    for c in 0..CLIENTS {
                        let check = &check;
                        scope.spawn(move || (c..N).step_by(CLIENTS as usize).for_each(check));
                    }
                });
                let legs = N * shards as u64;
                let cold = service.stats();
                assert_eq!(cold.engine_runs, N, "{what}: one run per request");
                assert_eq!(cold.coalesced_legs, legs - N, "{what}");
                assert_eq!((cold.completed, cold.failed), (legs, 0), "{what}");
                assert_eq!(
                    (cold.cache_hits, cold.cache_insertions),
                    (0, legs),
                    "{what}"
                );
                // Hot pass: every leg is in its own shard's cache, under the
                // key it always had; the engine is not consulted.
                (0..N).for_each(&check);
                let hot = service.shutdown();
                assert_eq!(hot.engine_runs, N, "{what}: the hot pass ran nothing");
                assert_eq!(hot.cache_hits, legs, "{what}");
                assert_eq!(hot.completed, 2 * legs, "{what}");
            }
        }
    }
}

/// Overlapping duplicate keys from 8 clients while a writer swaps epochs
/// under them: legs of different requests share runs, and still every
/// answer is the frozen answer of exactly one installed epoch, every leg is
/// accounted for once, and nothing is left parked.
#[test]
fn duplicate_keys_under_live_mutations_match_exactly_one_epoch() {
    const SHARDS: usize = 4;
    const CLIENTS: u64 = 8;
    const PER_CLIENT: u64 = 10;
    let graph = Arc::new(generators::gnm_connected(20, 40, 11));
    let config = ServiceConfig {
        replicas: 2,
        mutations: Some(MutationConfig {
            max_batch: 1, // one swap per mutation: maximal epoch churn
            keep_history: true,
            ..MutationConfig::default()
        }),
        ..config_for(Partitioning::Hash)
    };
    let engine = config.engine.clone();
    let service = ShardedGraphService::start(Arc::clone(&graph), config, SHARDS);
    let keys = [
        (Workload::CcHashMin, 7u64),
        (Workload::Sssp, 7),
        (Workload::Sssp, 8),
        (Workload::SpanningTree, 7),
    ];
    let muts: Vec<Mutation> = (0..16u32)
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
    let answers: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for m in &muts {
                service.submit_mutation(*m).expect("writable");
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let readers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = &service;
                scope.spawn(move || {
                    (0..PER_CLIENT)
                        .map(|i| {
                            // Neighbouring clients ask for the same key at
                            // the same time.
                            let k = ((c / 2 + i) % keys.len() as u64) as usize;
                            let (w, seed) = keys[k];
                            let req = QueryRequest::new(c * 1000 + i, QueryKind::Workload(w))
                                .with_seed(seed);
                            let resp = service.submit(req).expect("open").wait();
                            (k, workload_answer(&resp.result))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        writer.join().unwrap();
        readers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let history = service.epoch_history().expect("keep_history was set");
    assert!(
        history.len() >= 2,
        "the writer installed at least one new epoch"
    );
    for (k, &(w, seed)) in keys.iter().enumerate() {
        let frozen: Vec<u64> = history
            .iter()
            .map(|snap| run_workload(w, &snap.graph, &engine, seed).unwrap().answer)
            .collect();
        for (i, &(_, a)) in answers.iter().enumerate().filter(|(_, a)| a.0 == k) {
            assert!(
                frozen.contains(&a),
                "answer #{i} ({a}) for {w:?}/{seed} matches no epoch's frozen answer {frozen:?}"
            );
        }
    }
    // Every leg was answered exactly once, by exactly one of the three
    // sources, and the per-shard rows fold to the service totals.
    let legs = CLIENTS * PER_CLIENT * SHARDS as u64;
    let stats = service.stats();
    assert_eq!((stats.completed, stats.failed), (legs, 0));
    assert_eq!(
        stats.engine_runs + stats.coalesced_legs + stats.cache_hits,
        legs
    );
    assert!(
        stats.engine_runs < legs / 2,
        "{} runs for {legs} legs",
        stats.engine_runs
    );
    let snaps = service.shard_snapshots();
    type Field = fn(&ServiceStats) -> u64;
    let fields: [(&str, Field); 3] = [
        ("completed", |s| s.completed),
        ("engine_runs", |s| s.engine_runs),
        ("coalesced_legs", |s| s.coalesced_legs),
    ];
    for (name, field) in fields {
        assert_eq!(
            field(&stats),
            snaps.iter().map(|s| field(&s.stats)).sum::<u64>(),
            "{name} folds across shards"
        );
        for s in &snaps {
            assert_eq!(
                field(&s.stats),
                s.replicas.iter().map(|r| field(&r.stats)).sum::<u64>(),
                "shard {}: {name} folds across replicas",
                s.shard
            );
        }
    }
    // (The cache fields are left out: the epoch writer may still be
    // installing the last swaps, and each one empties the caches.)
    let end = service.shutdown();
    for (name, field) in fields {
        assert_eq!(
            field(&end),
            field(&stats),
            "{name}: booked after the last answer"
        );
    }
}

/// A leader whose run panics fails every leg attached to it with the same
/// error, each counted once on its own core; nothing of the run is left
/// behind, so the next identical request runs afresh and succeeds.
#[test]
fn a_panicking_leader_fails_its_attached_legs_and_leaves_nothing_behind() {
    const SHARDS: usize = 4;
    // Large enough that the run outlasts the other executors' wake-ups by
    // orders of magnitude: they park on it before it panics.
    let graph = Arc::new(generators::gnm_connected(3000, 12_000, 3));
    let config = ServiceConfig {
        executors: 1,
        ..config_for(Partitioning::Hash)
    };
    let expected = run_workload(Workload::CcSv, &graph, &config.engine, 9).unwrap();
    let service = ShardedGraphService::start(Arc::clone(&graph), config, SHARDS);
    let request = |id| QueryRequest::new(id, QueryKind::Workload(Workload::CcSv)).with_seed(9);

    service.debug_panic_next_run();
    let resp = service.submit(request(1)).unwrap().wait();
    assert_eq!(
        resp.route,
        Route::Scattered {
            shards: SHARDS as u32
        }
    );
    assert!(
        matches!(&resp.result, Err(QueryError::Panicked(m)) if m.contains("shared run")),
        "unexpected: {:?}",
        resp.result
    );
    let failed = service.stats();
    assert_eq!(
        failed.panics, SHARDS as u64,
        "every attached leg counts its own panic"
    );
    assert_eq!((failed.completed, failed.failed), (0, SHARDS as u64));
    assert_eq!(
        (
            failed.engine_runs,
            failed.coalesced_legs,
            failed.cache_insertions
        ),
        (0, 0, 0)
    );
    for s in service.shard_snapshots() {
        assert_eq!(
            (s.stats.panics, s.stats.failed),
            (1, 1),
            "shard {}",
            s.shard
        );
    }

    let resp = service.submit(request(2)).unwrap().wait();
    assert_eq!(workload_answer(&resp.result), expected.answer);
    let stats = service.shutdown();
    assert_eq!(stats.panics, SHARDS as u64, "no new panic");
    assert_eq!(
        (stats.engine_runs, stats.coalesced_legs),
        (1, SHARDS as u64 - 1)
    );
    assert_eq!(stats.completed, SHARDS as u64);
}

/// The same containment for the other two failure classes: a run that
/// outlives its leader's timeout times every attached leg out, and an
/// unsupported workload is refused on every leg — then a sane identical
/// request succeeds.
#[test]
fn a_timed_out_or_unsupported_leader_fails_its_attached_legs_alike() {
    const SHARDS: usize = 2;
    let graph = Arc::new(generators::gnm_connected(3000, 12_000, 3));
    let config = ServiceConfig {
        executors: 1,
        max_attempts: 1,
        ..config_for(Partitioning::Hash)
    };
    let expected = run_workload(Workload::CcSv, &graph, &config.engine, 9).unwrap();
    let service = ShardedGraphService::start(Arc::clone(&graph), config, SHARDS);
    let request = |id| QueryRequest::new(id, QueryKind::Workload(Workload::CcSv)).with_seed(9);

    // No run finishes in zero time.
    let resp = service
        .submit(request(1).with_timeout(Duration::ZERO))
        .unwrap()
        .wait();
    assert_eq!(resp.result, Err(QueryError::Timeout { attempts: 1 }));
    let timed_out = service.stats();
    assert_eq!(
        timed_out.timeouts, SHARDS as u64,
        "the leader's and the parked leg's"
    );
    assert_eq!((timed_out.completed, timed_out.failed), (0, SHARDS as u64));
    assert_eq!(timed_out.engine_runs, 1, "the run did complete, too late");

    // The unweighted graph has no MST; the gather reports the refusal.
    let resp = service
        .submit(QueryRequest::new(2, QueryKind::Workload(Workload::Mst)))
        .unwrap()
        .wait();
    assert!(
        matches!(resp.result, Err(QueryError::Unsupported(_))),
        "{:?}",
        resp.result
    );

    // The timed-out leader memoized its own leg (the value was right, only
    // late); the other shard leads a fresh run.
    let resp = service.submit(request(3)).unwrap().wait();
    assert_eq!(workload_answer(&resp.result), expected.answer);
    let stats = service.shutdown();
    assert_eq!((stats.engine_runs, stats.cache_hits), (2, 1));
    assert_eq!(
        stats.failed,
        2 * SHARDS as u64,
        "two failed requests, every leg of each"
    );
    assert_eq!(stats.completed, SHARDS as u64);
}

#[test]
fn point_lookups_are_owner_routed_and_exact() {
    let graph = Arc::new(generators::gnm_connected(64, 160, 3));
    for strategy in [Partitioning::Hash, Partitioning::Range] {
        let service = ShardedGraphService::start(Arc::clone(&graph), config_for(strategy), 4);
        for v in 0..graph.num_vertices() as VertexId {
            let deg = service
                .submit(QueryRequest::new(u64::from(v), QueryKind::Degree(v)))
                .unwrap()
                .wait();
            assert_eq!(
                deg.route,
                Route::Routed {
                    shard: service.owner(v) as u32,
                    replica: 0
                },
                "v={v} routed to its owner"
            );
            assert_eq!(
                deg.result,
                Ok(QueryOutput::Degree(graph.out_degree(v))),
                "v={v} degree from the shard slice"
            );
            let nbrs = service
                .submit(QueryRequest::new(
                    1000 + u64::from(v),
                    QueryKind::Neighbors(v),
                ))
                .unwrap()
                .wait();
            assert_eq!(
                nbrs.result,
                Ok(QueryOutput::Neighbors(graph.out_neighbors(v).to_vec())),
                "v={v} neighbors from the shard slice"
            );
        }
        // Out-of-range ids still route somewhere and answer NoSuchVertex.
        let miss = service
            .submit(QueryRequest::new(9999, QueryKind::Degree(10_000)))
            .unwrap()
            .wait();
        assert_eq!(miss.result, Err(QueryError::NoSuchVertex(10_000)));
        // Only owner-routed work: nothing scattered, every shard that owns
        // vertices completed something.
        let snaps = service.shard_snapshots();
        assert_eq!(snaps.len(), 4);
        for s in &snaps {
            assert!(s.owned > 0, "shard {} owns vertices", s.shard);
            assert!(s.stats.completed > 0, "shard {} served lookups", s.shard);
        }
        service.shutdown();
    }
}

#[test]
fn bcc_scatters_and_merges_exactly() {
    // BCC gather support: each shard counts the blocks whose minimum-id
    // edge endpoint it owns, and the Sum merge reproduces the whole-graph
    // block count — every shard does work.
    let graph = Arc::new(generators::gnm_connected(24, 60, 9));
    for strategy in [Partitioning::Hash, Partitioning::Range] {
        let config = config_for(strategy);
        let expected = run_workload(Workload::Bcc, &graph, &config.engine, 42).unwrap();
        let service = ShardedGraphService::start(Arc::clone(&graph), config, 4);
        let resp = service
            .submit(QueryRequest::new(1, QueryKind::Workload(Workload::Bcc)).with_seed(42))
            .unwrap()
            .wait();
        assert_eq!(resp.route, Route::Scattered { shards: 4 }, "{strategy:?}");
        match resp.result {
            Ok(QueryOutput::Workload { answer, .. }) => {
                assert_eq!(answer, expected.answer, "{strategy:?}")
            }
            other => panic!("unexpected: {other:?}"),
        }
        let snaps = service.shard_snapshots();
        for s in &snaps {
            assert_eq!(s.stats.completed, 1, "shard {} ran its leg", s.shard);
        }
        service.shutdown();
    }
}

#[test]
fn reject_policy_sheds_when_queue_is_full() {
    let graph = Arc::new(generators::gnm_connected(8, 10, 1));
    let service = one_shard(
        Arc::clone(&graph),
        ServiceConfig {
            executors: 1,
            queue_capacity: 1,
            queue_policy: QueueFullPolicy::Reject,
            ..ServiceConfig::default()
        },
    );
    // Occupy the executor, give it time to dequeue, then fill the queue.
    let busy = service
        .submit(QueryRequest::new(
            1,
            QueryKind::DebugSleep(Duration::from_millis(300)),
        ))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let queued = service
        .submit(QueryRequest::new(
            2,
            QueryKind::DebugSleep(Duration::from_millis(1)),
        ))
        .unwrap();
    // Queue is now at capacity: the reject policy sheds instead of blocking.
    let shed = service
        .submit(QueryRequest::new(
            3,
            QueryKind::DebugSleep(Duration::from_millis(1)),
        ))
        .unwrap();
    let resp = shed.wait();
    assert_eq!(resp.result, Err(QueryError::Rejected));
    assert_eq!(resp.attempts, 0, "rejected before any attempt");
    assert!(busy.wait().is_ok());
    assert!(queued.wait().is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.failed, 1, "the reject is the only failure");
    assert_eq!(stats.completed, 2);
}

#[test]
fn expired_deadline_is_dropped_at_dequeue_without_running() {
    let graph = Arc::new(generators::gnm_connected(8, 10, 1));
    let service = one_shard(
        Arc::clone(&graph),
        ServiceConfig {
            executors: 1,
            ..ServiceConfig::default()
        },
    );
    // A deadline of "now" is already expired by the time an executor
    // dequeues the request.
    let resp = service
        .submit(QueryRequest::new(1, QueryKind::Degree(0)).with_deadline(Instant::now()))
        .unwrap()
        .wait();
    assert_eq!(resp.result, Err(QueryError::DeadlineExceeded));
    assert_eq!(resp.attempts, 0, "never ran");
    assert_eq!(resp.service_time, Duration::ZERO);
    let stats = service.shutdown();
    assert_eq!(stats.early_drops, 1);
    assert_eq!(stats.timeouts, 0, "early drops are not timeouts");
}

#[test]
fn queue_high_water_mark_tracks_depth() {
    let graph = Arc::new(generators::gnm_connected(8, 10, 1));
    let service = one_shard(
        Arc::clone(&graph),
        ServiceConfig {
            executors: 1,
            queue_capacity: 16,
            ..ServiceConfig::default()
        },
    );
    // Hold the executor so submissions pile up.
    let tickets: Vec<_> = (0..5)
        .map(|i| {
            service
                .submit(QueryRequest::new(
                    i,
                    QueryKind::DebugSleep(Duration::from_millis(50)),
                ))
                .unwrap()
        })
        .collect();
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    let stats = service.shutdown();
    // The executor held one job while at least some of the rest queued.
    assert!(
        stats.queue_hwm >= 2,
        "hwm {} should reflect queueing",
        stats.queue_hwm
    );
    assert!(stats.queue_hwm <= 5);
}

#[test]
fn sharded_stats_fold_across_shards() {
    let graph = Arc::new(generators::gnm_connected(32, 80, 5));
    let service = ShardedGraphService::start(Arc::clone(&graph), config_for(Partitioning::Hash), 2);
    for v in 0..8u32 {
        assert!(service
            .submit(QueryRequest::new(u64::from(v), QueryKind::Degree(v)))
            .unwrap()
            .wait()
            .is_ok());
    }
    let folded = service.stats();
    let snaps = service.shard_snapshots();
    assert_eq!(
        folded.completed,
        snaps.iter().map(|s| s.stats.completed).sum::<u64>()
    );
    assert_eq!(folded.completed, 8);
    assert_eq!(
        snaps.iter().map(|s| s.owned).sum::<usize>(),
        graph.num_vertices(),
        "ownership partitions the vertex set"
    );
    let total = service.shutdown();
    assert_eq!(total.completed, 8);
}

/// A leg still queued when its run ends is answered by the run's leader,
/// not by its own (busy) executor: a finished request never waits behind
/// whatever else its shards are running.
#[test]
fn a_leader_answers_the_legs_still_queued_behind_other_work() {
    let graph = Arc::new(generators::gnm_connected(32, 80, 5));
    let config = ServiceConfig {
        executors: 1,
        ..config_for(Partitioning::Hash)
    };
    let expected = run_workload(Workload::CcHashMin, &graph, &config.engine, 1).unwrap();
    let service = ShardedGraphService::start(Arc::clone(&graph), config, 2);
    // Debug hooks spread by request id: id 0 holds shard 0's only executor.
    let hold = Duration::from_millis(400);
    let busy = service
        .submit(QueryRequest::new(0, QueryKind::DebugSleep(hold)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let sent = Instant::now();
    let resp = service
        .submit(QueryRequest::new(
            1,
            QueryKind::Workload(Workload::CcHashMin),
        ))
        .unwrap()
        .wait();
    let took = sent.elapsed();
    assert_eq!(workload_answer(&resp.result), expected.answer);
    // Shard 1 led the run; shard 0's leg never reached its executor.
    assert!(
        took < hold / 2,
        "the request waited {took:?} behind a {hold:?} sleep"
    );
    assert!(resp.queue_wait < hold / 2 && resp.gather_wait < hold / 2);
    let stats = service.stats();
    assert_eq!(
        (stats.engine_runs, stats.coalesced_legs, stats.completed),
        (1, 1, 2)
    );
    assert_eq!(
        service.queue_depths(),
        vec![0, 0],
        "the leg left shard 0's queue"
    );
    // ... and was memoized there under its own key all the same.
    let again = service
        .submit(QueryRequest::new(2, QueryKind::Workload(Workload::CcHashMin)).with_seed(1))
        .unwrap()
        .wait();
    assert_eq!(workload_answer(&again.result), expected.answer);
    assert!(busy.wait().is_ok());
    let stats = service.shutdown();
    assert_eq!((stats.engine_runs, stats.cache_hits), (1, 2));
}

/// `gather_wait` is last leg completion − first leg completion, whichever
/// leg the straggler is. Here it is leg 0 — the one the gatherer collects
/// first, which a clock started at the first *collected* leg reads as zero.
/// (The run is one that fails, so that nothing can spare leg 0 its queue:
/// shard 1 refuses the workload at once, shard 0 only after its sleep.)
#[test]
fn gather_wait_measures_the_straggler_even_when_it_is_leg_zero() {
    let graph = Arc::new(generators::gnm_connected(32, 80, 5));
    let config = ServiceConfig {
        executors: 1,
        ..config_for(Partitioning::Hash)
    };
    let service = ShardedGraphService::start(Arc::clone(&graph), config, 2);
    let hold = Duration::from_millis(200);
    let busy = service
        .submit(QueryRequest::new(0, QueryKind::DebugSleep(hold)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    // The unweighted graph has no MST.
    let resp = service
        .submit(QueryRequest::new(1, QueryKind::Workload(Workload::Mst)))
        .unwrap()
        .wait();
    assert!(
        matches!(resp.result, Err(QueryError::Unsupported(_))),
        "{:?}",
        resp.result
    );
    assert!(busy.wait().is_ok());
    assert!(
        resp.gather_wait >= hold / 2,
        "gather_wait {:?} misses the {hold:?} straggler",
        resp.gather_wait
    );
    assert!(
        resp.queue_wait >= hold / 2,
        "the straggler's wait was queueing"
    );
    service.shutdown();
}

/// Legs are the router's own: a directly submitted
/// [`QueryKind::WorkloadPartial`] is refused at submit at every shard
/// count, so it can neither pass one shard's slice off as the answer nor
/// leave a run-table entry no other leg claims, and the service runs
/// nothing for it.
#[test]
fn a_directly_submitted_leg_is_refused_at_every_shard_count() {
    let graph = Arc::new(generators::gnm_connected(64, 128, 3));
    for shards in [1usize, 2, 4] {
        let service =
            ShardedGraphService::start(Arc::clone(&graph), config_for(Partitioning::Hash), shards);
        let leg = QueryRequest::new(1, QueryKind::WorkloadPartial(Workload::Sssp)).with_seed(9);
        let refused = service.submit(leg);
        assert!(
            matches!(refused, Err(SubmitError::InternalLeg)),
            "S={shards}"
        );
        let stats = service.stats();
        assert_eq!(
            (stats.engine_runs, stats.completed, stats.failed),
            (0, 0, 0),
            "S={shards}"
        );
        // The whole request still costs one run, shared by all its legs.
        let whole = QueryRequest::new(2, QueryKind::Workload(Workload::Sssp)).with_seed(9);
        let resp = service.submit(whole).unwrap().wait();
        assert_eq!(
            workload_answer(&resp.result),
            64,
            "S={shards}: every vertex reached"
        );
        assert_eq!(
            resp.route,
            Route::Scattered {
                shards: shards as u32
            }
        );
        let stats = service.shutdown();
        assert_eq!(
            (stats.engine_runs, stats.coalesced_legs),
            (1, shards as u64 - 1)
        );
    }
}

/// At one shard, as at any other count, duplicate cold requests queued
/// behind other work share one engine run: the first one dequeued leads
/// it and answers the others straight out of the queue.
#[test]
fn duplicate_queued_cold_requests_cost_one_engine_run_at_one_shard() {
    const DUPLICATES: u64 = 3;
    let graph = Arc::new(generators::gnm_connected(32, 80, 5));
    let config = ServiceConfig {
        executors: 1,
        ..config_for(Partitioning::Hash)
    };
    let expected = run_workload(Workload::CcHashMin, &graph, &config.engine, 1).unwrap();
    let service = one_shard(Arc::clone(&graph), config);
    let hold = Duration::from_millis(200);
    let busy = service
        .submit(QueryRequest::new(0, QueryKind::DebugSleep(hold)))
        .unwrap();
    while service.queue_depths() != vec![0] {
        std::thread::yield_now();
    }
    let tickets: Vec<_> = (1..=DUPLICATES)
        .map(|id| {
            let req = QueryRequest::new(id, QueryKind::Workload(Workload::CcHashMin)).with_seed(1);
            service.submit(req).unwrap()
        })
        .collect();
    assert_eq!(
        service.queue_depths(),
        vec![DUPLICATES as usize],
        "queued behind the sleep"
    );
    for ticket in tickets {
        let resp = ticket.wait();
        assert_eq!(workload_answer(&resp.result), expected.answer);
        assert_eq!(resp.route, Route::Scattered { shards: 1 });
    }
    assert!(busy.wait().is_ok());
    let stats = service.shutdown();
    assert_eq!(
        (stats.engine_runs, stats.coalesced_legs),
        (1, DUPLICATES - 1)
    );
    assert_eq!((stats.completed, stats.cache_hits), (DUPLICATES + 1, 0));
}
