//! Integration tests for the live-mutation subsystem: snapshot isolation
//! (a query observes exactly the epoch it was pinned to at submission,
//! even when the writer swaps mid-flight), cache invalidation on swap,
//! history-checked concurrent reads, and run-scoped writer deltas under
//! `--repeat`-style multi-run processes.

mod common;

use common::one_shard;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcgp_core::service::run_workload;
use vcgp_core::Workload;
use vcgp_graph::{apply_batch, generators, Mutation, VertexId};
use vcgp_pregel::partition::Partitioning;
use vcgp_pregel::PregelConfig;
use vcgp_stress::dist::DistSpec;
use vcgp_stress::driver;
use vcgp_stress::epoch::MutationConfig;
use vcgp_stress::request::{QueryKind, QueryOutput, QueryRequest};
use vcgp_stress::scenario::ScenarioSpec;
use vcgp_stress::service::{ServiceConfig, SubmitError};
use vcgp_stress::shard::ShardedGraphService;

fn config_for(strategy: Partitioning, mutations: Option<MutationConfig>) -> ServiceConfig {
    let mut engine = PregelConfig::single_worker();
    engine.partitioning = strategy;
    ServiceConfig {
        executors: 1,
        engine,
        mutations,
        ..ServiceConfig::default()
    }
}

/// A deterministic mutation batch that changes the CC structure: edge
/// deletions, a detached vertex, a fresh isolated vertex, and a new edge.
fn test_mutations() -> Vec<Mutation> {
    vec![
        Mutation::DeleteEdgeAt { u: 0, rank: 0 },
        Mutation::InsertEdge { u: 1, v: 5, w: 1.0 },
        Mutation::AddVertex { label: 0 },
        Mutation::RemoveVertex { v: 3 },
        Mutation::DeleteEdgeAt { u: 7, rank: 2 },
    ]
}

/// Polls until the writer has drained `accepted` mutations into installed
/// epochs (pending 0) or the deadline passes.
fn wait_for_drain(stats: impl Fn() -> vcgp_stress::epoch::WriterStats, accepted: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = stats();
        if s.accepted == accepted && s.pending == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "writer never drained: {s:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn workload_answer(resp: &vcgp_stress::request::QueryResponse) -> u64 {
    match resp.result {
        Ok(QueryOutput::Workload { answer, .. }) => answer,
        ref other => panic!("expected a workload answer, got {other:?}"),
    }
}

/// The snapshot-isolation acceptance property, deterministic by
/// construction: with one executor per shard, debug sleeps (one per shard,
/// spread by request id) occupy every executor; a workload submitted
/// behind them is pinned to epoch 0 at submission. The writer then swaps
/// in mutated epochs while the query is still queued — and the answer must
/// be bit-identical to a frozen run over the epoch-0 graph, never a mix. A
/// query submitted after the swap must answer exactly the mutated graph.
#[test]
fn query_pinned_at_submission_ignores_concurrent_swaps() {
    let graph = Arc::new(generators::gnm_connected(24, 48, 9));
    let muts = test_mutations();
    let (mutated, _) = apply_batch(&graph, &muts);
    let mutated = Arc::new(mutated);

    for strategy in [Partitioning::Hash, Partitioning::Range] {
        for shards in [1usize, 4] {
            let config = config_for(strategy, Some(MutationConfig::default()));
            let engine = config.engine.clone();
            let old_frozen = run_workload(Workload::CcHashMin, &graph, &engine, 7)
                .expect("cc supported")
                .answer;
            let new_frozen = run_workload(Workload::CcHashMin, &mutated, &engine, 7)
                .expect("cc supported")
                .answer;
            assert_ne!(
                old_frozen, new_frozen,
                "mutation batch must change the CC answer for the test to bite"
            );

            let service = ShardedGraphService::start(Arc::clone(&graph), config, shards);
            // Occupy every shard's single executor (debug ops spread by id).
            let sleeps: Vec<_> = (0..shards as u64)
                .map(|id| {
                    service
                        .submit(QueryRequest::new(
                            id,
                            QueryKind::DebugSleep(Duration::from_millis(150)),
                        ))
                        .expect("open")
                })
                .collect();
            // Queued behind the sleeps on every shard, pinned to epoch 0.
            let pinned = service
                .submit(
                    QueryRequest::new(100, QueryKind::Workload(Workload::CcHashMin)).with_seed(7),
                )
                .expect("open");
            // Swap while the pinned query is still waiting for an executor.
            for m in &muts {
                service.submit_mutation(*m).expect("writable");
            }
            wait_for_drain(|| service.writer_stats(), muts.len() as u64);
            assert!(service.epoch().id >= 1, "a swap was installed");

            assert_eq!(
                workload_answer(&pinned.wait()),
                old_frozen,
                "{strategy:?} S={shards}: pinned query leaked a later epoch"
            );
            for s in sleeps {
                assert!(s.wait().is_ok());
            }
            let fresh = service
                .submit(
                    QueryRequest::new(101, QueryKind::Workload(Workload::CcHashMin)).with_seed(7),
                )
                .expect("open");
            assert_eq!(
                workload_answer(&fresh.wait()),
                new_frozen,
                "{strategy:?} S={shards}: post-swap query missed the mutations"
            );
            service.shutdown();
        }
    }
}

/// Satellite: the epoch swap fires the cache invalidation hook. A warmed
/// entry stops being resident after the swap, and a replay of the same
/// request (now pinned to the new epoch, hence a new fingerprint) misses
/// instead of hitting stale state.
#[test]
fn swap_invalidates_the_result_cache() {
    let graph = Arc::new(generators::gnm_connected(32, 80, 3));
    let service = one_shard(
        Arc::clone(&graph),
        config_for(Partitioning::Hash, Some(MutationConfig::default())),
    );
    let req =
        |id: u64| QueryRequest::new(id, QueryKind::Workload(Workload::CcHashMin)).with_seed(42);
    assert!(service.submit(req(1)).unwrap().wait().is_ok());
    assert!(service.submit(req(2)).unwrap().wait().is_ok());
    assert_eq!(service.stats().cache_hits, 1, "replay warmed the cache");
    assert!(service.stats().cache_bytes > 0);

    service
        .submit_mutation(Mutation::DeleteEdgeAt { u: 0, rank: 0 })
        .unwrap();
    wait_for_drain(|| service.writer_stats(), 1);
    // Invalidation fires right after the swap installs; give it a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.stats().cache_bytes > 0 {
        assert!(
            Instant::now() < deadline,
            "swap never invalidated the cache"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    assert!(service.submit(req(3)).unwrap().wait().is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.cache_hits, 1, "the old fingerprint never hits again");
    assert_eq!(stats.cache_misses, 2, "the post-swap request recomputed");
}

/// Concurrent readers racing a writer: with `keep_history` every answer
/// produced by the service must be bit-identical to a frozen run over
/// *some* installed epoch — one graph version per answer, never a blend.
#[test]
fn concurrent_answers_match_exactly_one_epoch() {
    let graph = Arc::new(generators::gnm_connected(20, 40, 11));
    let config = config_for(
        Partitioning::Hash,
        Some(MutationConfig {
            max_batch: 1, // one swap per mutation: maximal epoch churn
            keep_history: true,
            ..MutationConfig::default()
        }),
    );
    let engine = config.engine.clone();
    let service = ShardedGraphService::start(Arc::clone(&graph), config, 2);

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
    let answers: Vec<u64> = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for m in &muts {
                service.submit_mutation(*m).expect("writable");
                std::thread::sleep(Duration::from_millis(3));
            }
        });
        let readers: Vec<_> = (0..2u64)
            .map(|r| {
                let service = &service;
                scope.spawn(move || {
                    (0..12u64)
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
                            workload_answer(&resp)
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
    wait_for_drain(|| service.writer_stats(), muts.len() as u64);

    let history = service.epoch_history().expect("keep_history was set");
    assert!(
        history.len() >= 2,
        "writer installed at least one new epoch"
    );
    // Monotone, gap-free epoch ids.
    for (i, snap) in history.iter().enumerate() {
        assert_eq!(snap.id, i as u64);
    }
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

/// The striped pin under more submitting threads than it has stripes (8),
/// with a live writer. Each thread's view only moves forward, and a write
/// counted as applied is in the epoch *every* thread pins next — whichever
/// stripe that thread reads through, whichever thread learned of the write.
/// Every mutation adds one vertex, so "epoch has the first `k` writes" is
/// "vertex `n + k - 1` exists", which a lookup answers from its pin.
#[test]
fn a_write_reported_applied_is_in_every_later_pin_on_every_thread() {
    const N: usize = 16;
    const WRITES: u64 = 150;
    const READERS: u64 = 12;
    let graph = Arc::new(generators::gnm_connected(N, 32, 1));
    let config = config_for(
        Partitioning::Hash,
        Some(MutationConfig {
            max_batch: 4,
            ..MutationConfig::default()
        }),
    );
    let service = ShardedGraphService::start(Arc::clone(&graph), config, 2);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let service = &service;
                scope.spawn(move || {
                    let (mut last_id, mut id) = (0, r << 32);
                    loop {
                        let stats = service.writer_stats();
                        let done = stats.applied + stats.noops;
                        let snap = service.epoch();
                        assert!(
                            snap.id >= last_id,
                            "reader {r}: {} after {last_id}",
                            snap.id
                        );
                        last_id = snap.id;
                        assert!(
                            snap.graph.num_vertices() as u64 >= N as u64 + done,
                            "reader {r}: epoch {} lacks one of {done} applied writes",
                            snap.id
                        );
                        if done > 0 {
                            let newest = (N as u64 + done - 1) as VertexId;
                            let resp = service
                                .submit(QueryRequest::new(id, QueryKind::Degree(newest)))
                                .expect("open")
                                .wait();
                            assert_eq!(resp.result, Ok(QueryOutput::Degree(0)), "reader {r}");
                            id += 1;
                        }
                        if done == WRITES {
                            break;
                        }
                    }
                })
            })
            .collect();
        for i in 0..WRITES {
            let seq = service
                .submit_mutation(Mutation::AddVertex { label: 0 })
                .expect("writable");
            assert_eq!(seq, i + 1);
            if i % 8 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for reader in readers {
            reader.join().unwrap();
        }
    });
    assert_eq!(
        service.epoch().graph.num_vertices() as u64,
        N as u64 + WRITES
    );
    service.shutdown();
}

/// No retention: an epoch lives as long as a request pinned to it, and no
/// longer — once the request is answered and the swap is through, nothing
/// in the service (a stripe, a cache, a thread-local) still holds it.
#[test]
fn a_replaced_epoch_is_freed_when_its_last_request_is_answered() {
    let graph = Arc::new(generators::gnm_connected(24, 48, 9));
    let service = one_shard(
        Arc::clone(&graph),
        config_for(Partitioning::Hash, Some(MutationConfig::default())),
    );
    // Epoch 0 stays referenced as the backends' fallback; watch epoch 1.
    service
        .submit_mutation(Mutation::AddVertex { label: 0 })
        .unwrap();
    wait_for_drain(|| service.writer_stats(), 1);
    // Lookups from a few threads: every stripe they use has handed out
    // (and got back) pins on epoch 1.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let service = &service;
            scope.spawn(move || {
                let req = QueryRequest::new(t, QueryKind::Degree(t as VertexId));
                assert!(service.submit(req).unwrap().wait().is_ok());
            });
        }
    });
    let previous = Arc::downgrade(&service.epoch());
    assert_eq!(previous.upgrade().map(|snap| snap.id), Some(1));
    // One request pinned to epoch 1 stays queued behind a sleep while the
    // writer installs epoch 2.
    let sleep = QueryKind::DebugSleep(Duration::from_millis(150));
    let busy = service.submit(QueryRequest::new(10, sleep)).unwrap();
    let pinned = service
        .submit(QueryRequest::new(
            11,
            QueryKind::Workload(Workload::CcHashMin),
        ))
        .unwrap();
    service
        .submit_mutation(Mutation::AddVertex { label: 1 })
        .unwrap();
    wait_for_drain(|| service.writer_stats(), 2);
    assert_eq!(service.epoch().id, 2);
    assert_eq!(
        previous.upgrade().map(|snap| snap.id),
        Some(1),
        "still pinned by a request"
    );
    assert!(busy.wait().is_ok());
    assert!(pinned.wait().is_ok());
    // The executor drops the request right after sending its response.
    let deadline = Instant::now() + Duration::from_secs(10);
    while previous.upgrade().is_some() {
        assert!(
            Instant::now() < deadline,
            "epoch 1 outlived its last request"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    service.shutdown();
}

/// Satellite: repeated driver runs against one service process scope the
/// writer counters to each run — pass 2 reports its own mutations, not the
/// cumulative process totals.
#[test]
fn repeat_runs_scope_writer_deltas() {
    let graph = Arc::new(generators::gnm_connected(32, 80, 5));
    let service = one_shard(
        Arc::clone(&graph),
        config_for(Partitioning::Hash, Some(MutationConfig::default())),
    );
    let mut spec = ScenarioSpec::preset("points", DistSpec::Uniform, 0.3).unwrap();
    spec.phases[0].ops = Some(200);
    spec.clients = Some(2);
    spec.mutation_seed = Some(13);
    let scenario = spec.resolve(&graph).unwrap();
    let pass1 = driver::run_scenario(&service, &scenario);
    let pass2 = driver::run_scenario(&service, &scenario);
    for (pass, report) in [(1, &pass1), (2, &pass2)] {
        assert!(
            report.writes > 0,
            "pass {pass}: the seeded mix wrote nothing"
        );
        assert_eq!(report.write_errors, 0, "pass {pass}: writes were refused");
        assert_eq!(
            report.epochs.stats.accepted, report.writes,
            "pass {pass}: writer accepted-delta is not scoped to the run"
        );
        // The same seeded stream issues the same write indices each pass.
        assert_eq!(pass1.writes, report.writes);
    }
    service.shutdown();
}

/// Satellite: with `--write-ratio 0` the write path is inert — the run is
/// bit-identical (same answer hash, same op count) to a run against a
/// service that has no mutation machinery at all.
#[test]
fn write_ratio_zero_is_bit_identical_to_read_only() {
    let graph = Arc::new(generators::gnm_connected(32, 80, 5));
    let mut spec = ScenarioSpec::preset("points", DistSpec::Uniform, 0.0).unwrap();
    spec.phases[0].ops = Some(150);
    spec.clients = Some(2);
    let scenario = spec.resolve(&graph).unwrap();
    let with_writer = one_shard(
        Arc::clone(&graph),
        config_for(Partitioning::Hash, Some(MutationConfig::default())),
    );
    let read_only = one_shard(Arc::clone(&graph), config_for(Partitioning::Hash, None));
    let a = driver::run_scenario(&with_writer, &scenario);
    let b = driver::run_scenario(&read_only, &scenario);
    assert_eq!(a.ops, b.ops);
    assert_eq!(
        a.answer_hash, b.answer_hash,
        "write path perturbed the reads"
    );
    assert_eq!(a.writes, 0);
    assert_eq!(a.epochs.stats.swaps, 0, "no mutations, no swaps");
    with_writer.shutdown();
    read_only.shutdown();
}

/// A service started without `ServiceConfig::mutations` refuses writes.
#[test]
fn read_only_service_refuses_mutations() {
    let graph = Arc::new(generators::gnm_connected(16, 32, 1));
    let service = one_shard(Arc::clone(&graph), config_for(Partitioning::Hash, None));
    match service.submit_mutation(Mutation::AddVertex { label: 0 }) {
        Err(SubmitError::ReadOnly) => {}
        other => panic!("expected ReadOnly, got {other:?}"),
    }
    assert_eq!(service.writer_stats().epoch, 0);
    service.shutdown();
}

/// Shutdown drains the write buffer: mutations accepted before `close`
/// land in an installed epoch even when the process tears down right away,
/// and the final epoch equals the frozen batch application.
#[test]
fn shutdown_drains_buffered_mutations() {
    let graph = Arc::new(generators::gnm_connected(16, 32, 1));
    let muts = test_mutations();
    let (mutated, _) = apply_batch(&graph, &muts);
    let service = ShardedGraphService::start(
        Arc::clone(&graph),
        config_for(Partitioning::Hash, Some(MutationConfig::default())),
        2,
    );
    for m in &muts {
        service.submit_mutation(*m).expect("writable");
    }
    let final_epoch = service.epoch_final_for_test();
    assert_eq!(final_epoch.graph.num_vertices(), mutated.num_vertices());
    assert_eq!(final_epoch.graph.num_edges(), mutated.num_edges());
}

/// Helper extension: shut the service down, then return the last installed
/// epoch (captured before teardown).
trait EpochFinal {
    fn epoch_final_for_test(self) -> Arc<vcgp_stress::epoch::EpochSnapshot>;
}

impl EpochFinal for ShardedGraphService {
    fn epoch_final_for_test(self) -> Arc<vcgp_stress::epoch::EpochSnapshot> {
        // `close` stops admission; `shutdown` joins the writer only after
        // the buffer is drained, so the current epoch afterwards is final.
        self.close();
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.writer_stats().pending > 0 {
            assert!(Instant::now() < deadline, "writer never drained on close");
            std::thread::sleep(Duration::from_millis(2));
        }
        let last = self.epoch();
        self.shutdown();
        last
    }
}
