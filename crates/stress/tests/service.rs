//! Integration tests of the graph-query service and the load driver:
//! correctness of point lookups and workload answers, seeded
//! reproducibility, the one-execution timeout path, panic containment,
//! deadlines, and graceful draining shutdown.

mod common;

use common::one_shard;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcgp_core::Workload;
use vcgp_graph::generators;
use vcgp_stress::dist::DistSpec;
use vcgp_stress::driver;
use vcgp_stress::report::{self, StressReport};
use vcgp_stress::request::{QueryError, QueryKind, QueryOutput, QueryRequest};
use vcgp_stress::scenario::{RateSpec, ScenarioSpec};
use vcgp_stress::service::{ServiceConfig, SubmitError};
use vcgp_stress::shard::ShardedGraphService;

fn service_on(graph: vcgp_graph::Graph, executors: usize) -> ShardedGraphService {
    one_shard(
        Arc::new(graph),
        ServiceConfig {
            executors,
            ..ServiceConfig::default()
        },
    )
}

#[test]
fn point_lookups_match_the_graph() {
    let g = generators::gnm_connected(48, 96, 11);
    let expected: Vec<(usize, Vec<u32>)> = (0..48u32)
        .map(|v| (g.out_degree(v), g.out_neighbors(v).to_vec()))
        .collect();
    let service = service_on(g, 2);
    for v in 0..48u32 {
        let deg = service
            .submit(QueryRequest::new(u64::from(v) * 2, QueryKind::Degree(v)))
            .unwrap()
            .wait();
        assert_eq!(deg.result, Ok(QueryOutput::Degree(expected[v as usize].0)));
        let nbrs = service
            .submit(QueryRequest::new(
                u64::from(v) * 2 + 1,
                QueryKind::Neighbors(v),
            ))
            .unwrap()
            .wait();
        assert_eq!(
            nbrs.result,
            Ok(QueryOutput::Neighbors(expected[v as usize].1.clone()))
        );
    }
    let missing = service
        .submit(QueryRequest::new(999, QueryKind::Degree(1000)))
        .unwrap()
        .wait();
    assert_eq!(missing.result, Err(QueryError::NoSuchVertex(1000)));
    let stats = service.shutdown();
    assert_eq!(stats.completed, 96);
    assert_eq!(stats.failed, 1);
}

#[test]
fn workload_queries_run_end_to_end() {
    let service = service_on(generators::gnm_connected(40, 80, 3), 1);
    let resp = service
        .submit(QueryRequest::new(
            1,
            QueryKind::Workload(Workload::CcHashMin),
        ))
        .unwrap()
        .wait();
    match resp.result {
        Ok(QueryOutput::Workload {
            answer, supersteps, ..
        }) => {
            assert_eq!(answer, 1, "connected graph has one component");
            assert!(supersteps > 0);
        }
        other => panic!("unexpected result: {other:?}"),
    }
    // A workload whose precondition fails is rejected.
    let resp = service
        .submit(QueryRequest::new(2, QueryKind::Workload(Workload::Wcc)))
        .unwrap()
        .wait();
    assert!(matches!(resp.result, Err(QueryError::Unsupported(_))));
    assert_eq!(resp.attempts, 1, "the refusal came from one execution");
    service.shutdown();
}

/// The scenario `stress --mix NAME --ops N --clients C --seed S` runs.
fn preset(name: &str, ops: u64, clients: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::preset(name, DistSpec::Uniform, 0.0).unwrap();
    spec.phases[0].ops = Some(ops);
    spec.clients = Some(clients);
    spec.seed = Some(seed);
    spec
}

/// Runs `spec` against `service` and shuts the service down.
fn run_preset(service: ShardedGraphService, spec: &ScenarioSpec) -> StressReport {
    let report = driver::run_scenario(&service, &spec.resolve(service.graph()).unwrap());
    service.shutdown();
    report
}

#[test]
fn same_seed_reproduces_the_exact_operation_sequence() {
    let g = generators::gnm_connected(64, 128, 5);
    let spec = preset("mixed", 500, 4, 7);
    let mix = spec.resolve(&g).unwrap().phases.remove(0).mix;
    let first: Vec<QueryKind> = (0..500).map(|i| mix.op(42, i)).collect();
    let second: Vec<QueryKind> = (0..500).map(|i| mix.op(42, i)).collect();
    assert_eq!(first, second);
    // A fresh mix over the same graph replays the same sequence too — the
    // stream depends only on (seed, index, graph shape).
    let remade = spec.resolve(&g).unwrap().phases.remove(0).mix;
    let third: Vec<QueryKind> = (0..500).map(|i| remade.op(42, i)).collect();
    assert_eq!(first, third);
    assert_ne!(
        first,
        (0..500).map(|i| mix.op(43, i)).collect::<Vec<_>>(),
        "different seed, different sequence"
    );
}

/// A request runs once: one that outlives its timeout fails after that one
/// execution, backs off nowhere, and frees its executor at once for the
/// request queued behind it.
#[test]
fn a_slow_request_times_out_once_and_frees_its_executor() {
    let service = one_shard(
        Arc::new(generators::path(4)),
        ServiceConfig {
            executors: 1,
            ..ServiceConfig::default()
        },
    );
    let slow = QueryRequest::new(7, QueryKind::DebugSleep(Duration::from_millis(40)))
        .with_timeout(Duration::from_millis(1));
    let slow = service.submit(slow).unwrap();
    let behind = service
        .submit(QueryRequest::new(8, QueryKind::DebugSleep(Duration::ZERO)))
        .unwrap();
    let slow = slow.wait();
    assert_eq!(slow.result, Err(QueryError::Timeout));
    assert_eq!(slow.attempts, 1);
    assert_eq!(slow.backoff, Duration::ZERO);
    assert!(
        slow.service_time >= Duration::from_millis(40),
        "one execution of >=40ms, got {:?}",
        slow.service_time
    );
    let behind = behind.wait();
    assert_eq!(behind.result, Ok(QueryOutput::Slept));
    assert!(
        behind.queue_wait < 2 * slow.service_time,
        "the request behind waited out one execution, not several: {:?} vs {:?}",
        behind.queue_wait,
        slow.service_time
    );
    let stats = service.shutdown();
    assert_eq!((stats.timeouts, stats.retries), (1, 0));
    assert_eq!((stats.completed, stats.failed), (1, 1));
}

#[test]
fn panics_are_contained_per_request() {
    let service = service_on(generators::path(8), 1);
    let resp = service
        .submit(QueryRequest::new(1, QueryKind::DebugPanic))
        .unwrap()
        .wait();
    match resp.result {
        Err(QueryError::Panicked(msg)) => {
            assert!(msg.contains("debug panic"), "unexpected payload: {msg:?}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The executor survived: the next request is answered normally.
    let resp = service
        .submit(QueryRequest::new(2, QueryKind::Degree(0)))
        .unwrap()
        .wait();
    assert_eq!(resp.result, Ok(QueryOutput::Degree(1)));
    let stats = service.shutdown();
    assert_eq!(stats.panics, 1);
}

#[test]
fn expired_deadlines_fail_fast() {
    let service = service_on(generators::path(8), 1);
    let req = QueryRequest::new(5, QueryKind::DebugSleep(Duration::from_millis(50)))
        .with_deadline(Instant::now() - Duration::from_millis(1));
    let resp = service.submit(req).unwrap().wait();
    assert_eq!(resp.result, Err(QueryError::DeadlineExceeded));
    assert_eq!(
        resp.attempts, 0,
        "expired requests must not consume an attempt"
    );
    service.shutdown();
}

#[test]
fn graceful_shutdown_loses_no_accepted_request() {
    let service = one_shard(
        Arc::new(generators::path(8)),
        ServiceConfig {
            executors: 2,
            queue_capacity: 64,
            ..ServiceConfig::default()
        },
    );
    let tickets: Vec<_> = (0..40u64)
        .map(|i| {
            service
                .submit(QueryRequest::new(
                    i,
                    QueryKind::DebugSleep(Duration::from_millis(1)),
                ))
                .unwrap()
        })
        .collect();
    // Close immediately: most requests are still queued. They must all be
    // drained and answered anyway.
    service.close();
    assert!(matches!(
        service.submit(QueryRequest::new(999, QueryKind::Degree(0))),
        Err(SubmitError::Closed)
    ));
    let stats = service.shutdown();
    assert_eq!(stats.completed, 40, "every accepted request gets an answer");
    for t in tickets {
        let resp = t.wait();
        assert_eq!(resp.result, Ok(QueryOutput::Slept));
    }
}

#[test]
fn driver_runs_a_deterministic_bounded_load() {
    let g = generators::gnm_connected(64, 160, 9);
    let service = service_on(g, 2);
    let report = run_preset(service, &preset("mixed", 80, 3, 21));
    assert_eq!(report.ops, 80);
    assert_eq!(report.ok, 80);
    assert_eq!(report.errors, 0);
    assert_eq!(report.latency.count(), 80);
    assert_eq!(report.service_time.count(), 80);
    assert!(report.throughput() > 0.0);

    // The report tree passes its own gate and carries the fields verify.sh
    // reads.
    let doc = report.to_value("test");
    report::validate(&doc).expect("a clean run's report validates");
    assert_eq!(doc.at("ops").and_then(|v| v.as_f64()), Some(80.0));
    assert_eq!(doc.at("errors").and_then(|v| v.as_f64()), Some(0.0));
    assert!(doc.at("latency_ns.p99").is_some());
    assert!(!report.to_markdown("test").is_empty());
}

/// An op cap is the index set `0..N` exactly, whatever the client count:
/// the answer hash folds every op's id with its payload, so equal hashes at
/// equal counts mean the same indices ran.
#[test]
fn an_op_cap_runs_exactly_its_indices_at_any_client_count() {
    const OPS: u64 = 333;
    let reports: Vec<StressReport> = [1, 3, 16]
        .into_iter()
        .map(|clients| {
            let service = service_on(generators::gnm_connected(64, 160, 9), 2);
            run_preset(service, &preset("points", OPS, clients, 21))
        })
        .collect();
    for report in &reports {
        assert_eq!(
            (report.ops, report.ok),
            (OPS, OPS),
            "{} clients",
            report.clients
        );
        assert_eq!(
            report.answer_hash, reports[0].answer_hash,
            "{} clients",
            report.clients
        );
    }
}

/// Under an op cap every client issues until the cap is reached: indices
/// are claimed one at a time there (block claims are for uncapped phases),
/// so a cap smaller than a block per client still gets the concurrency it
/// asked for. One executor, so the clients' requests wait in its queue:
/// all eight are outstanding at once, seven queued behind the one running.
#[test]
fn a_small_op_cap_keeps_every_client_issuing() {
    const CLIENTS: u64 = 8;
    let service = one_shard(
        Arc::new(generators::gnm_connected(1024, 4096, 9)),
        ServiceConfig {
            executors: 1,
            cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );
    let report = run_preset(service, &preset("analytics", 48, CLIENTS as usize, 21));
    assert_eq!((report.ops, report.ok), (48, 48));
    let hwm = report.per_shard[0].stats.queue_hwm;
    assert!(
        hwm >= CLIENTS - 1,
        "queue high-water mark {hwm} with {CLIENTS} clients"
    );
}

#[test]
fn driver_paced_run_respects_the_token_bucket() {
    let service = service_on(generators::gnm_connected(32, 64, 2), 2);
    let mut spec = preset("points", 50, 2, 3);
    spec.rate = Some(RateSpec::Fixed(2000.0));
    spec.burst = Some(4);
    let t0 = Instant::now();
    let report = run_preset(service, &spec);
    assert_eq!(report.ops, 50);
    assert_eq!(report.errors, 0);
    // 50 ops at 2000/s with burst 4 need at least ~23 ms of schedule.
    assert!(
        t0.elapsed() >= Duration::from_millis(20),
        "pacing must actually throttle, finished in {:?}",
        t0.elapsed()
    );
}

/// One shard × one replica is an ordinary shape of the one service: every
/// point lookup is owner-routed (none goes uncounted), and the report
/// carries the single shard row with its single replica row, both folding
/// to the run total.
#[test]
fn one_shard_one_replica_reports_one_routed_row() {
    let service = service_on(generators::gnm_connected(64, 160, 9), 2);
    let report = run_preset(service, &preset("points", 120, 3, 5));
    assert_eq!((report.shards, report.replicas), (1, 1));
    assert_eq!((report.ops, report.errors), (120, 0));
    assert_eq!(report.routed, report.ops, "every lookup was owner-routed");
    assert_eq!(report.scattered, 0);
    for p in &report.phases {
        assert_eq!(p.routed + p.scattered, p.ops, "phase {}", p.name);
    }
    assert_eq!(report.per_shard.len(), 1, "one shard row");
    let shard = &report.per_shard[0];
    assert_eq!((shard.shard, shard.owned), (0, 64));
    assert_eq!(shard.replicas.len(), 1, "one replica row");
    assert_eq!(shard.replicas[0].replica, 0);
    assert_eq!(shard.replicas[0].stats.completed, shard.stats.completed);
    assert_eq!(
        shard.stats.completed, report.ops,
        "the row folds to the run total"
    );
    assert_eq!(report.replica_series.len(), 1);
    assert_eq!(report.replica_series[0].len(), 1);
    // The replica's service log holds executor runs only; a point lookup is
    // answered at submit and counted there.
    assert_eq!(report.replica_series[0][0].service.count(), 0);
    assert_eq!(shard.replicas[0].stats.lookups_at_submit, report.ops);
    assert_eq!(report.lookups_at_submit, report.ops);
}
