//! End-to-end tests for the scenario engine: determinism of the seeded
//! op/key streams regardless of client-thread count, the interval-log
//! fold identities the reports are gated on, the preset → scenario
//! desugaring equivalence, and the checked-in example specs staying
//! parseable.

mod common;

use common::one_shard;
use std::sync::Arc;
use std::time::Duration;
use vcgp_graph::generators;
use vcgp_stress::driver::{self, DriverConfig, StressReport};
use vcgp_stress::epoch::MutationConfig;
use vcgp_stress::mix::Mix;
use vcgp_stress::scenario::{Scenario, ScenarioSpec};
use vcgp_stress::service::ServiceConfig;
use vcgp_stress::shard::ShardedGraphService;

/// An ops-bound two-phase spec exercising every op family: zipfian and
/// sequential point keys, pooled analytics, a named workload, and writes.
const SPEC: &str = "
scenario engine-test
interval 100
seed 21
mutation-seed 5

phase first
  ops 120
  clients CLIENTS
  op point 5 zipfian:1.1
  op analytics 2
  op mutate 1

phase second
  ops 80
  clients CLIENTS
  op point 3 sequential span=1/2
  op pagerank 1
";

fn scenario_from(spec: &str, clients: usize) -> Scenario {
    let graph = generators::gnm_connected(64, 160, 5);
    let text = spec.replace("CLIENTS", &clients.to_string());
    ScenarioSpec::parse(&text)
        .expect("spec parses")
        .resolve(&graph)
        .expect("spec resolves")
}

fn scenario_with_clients(clients: usize) -> Scenario {
    scenario_from(SPEC, clients)
}

fn run_spec(spec: &str, clients: usize) -> StressReport {
    let graph = Arc::new(generators::gnm_connected(64, 160, 5));
    let service = one_shard(
        Arc::clone(&graph),
        ServiceConfig {
            executors: 2,
            mutations: Some(MutationConfig::default()),
            ..ServiceConfig::default()
        },
    );
    let report = driver::run_scenario(&service, &scenario_from(spec, clients));
    service.shutdown();
    report
}

fn run_with_clients(clients: usize) -> StressReport {
    run_spec(SPEC, clients)
}

/// The acceptance property: an ops-bound scenario completes the same
/// operations no matter how many client threads interleave on the shared
/// stream, and — on a graph that holds still — with the same answers; and
/// identical reruns are identical.
///
/// The answer hash is compared on the spec *without* its `mutate` op. With
/// it, `op mutate` hands writes to the asynchronous epoch writer, so which
/// epoch a later read pins depends on when the writer gets to swap: the
/// stream of operations is client-count independent, the graph each one
/// observes is not (every answer still matches exactly one epoch — that is
/// `tests/epoch.rs`'s property).
#[test]
fn op_streams_are_client_count_independent_and_rerunnable() {
    let one = run_with_clients(1);
    let four = run_with_clients(4);
    let four_again = run_with_clients(4);
    for r in [&one, &four, &four_again] {
        assert_eq!(r.ops + r.writes, 200, "every stream index accounted for");
        assert_eq!(r.errors, 0, "clean run");
        assert!(r.writes > 0, "the mutate weight issued writes");
    }
    assert_eq!(one.ops, four.ops);
    assert_eq!(one.writes, four.writes);
    assert_eq!(four.ops, four_again.ops);
    assert_eq!(four.writes, four_again.writes);
    // Phase-level equality too: the fold is per phase, not just per run.
    for (a, b) in one.phases.iter().zip(&four.phases) {
        assert_eq!(a.ops, b.ops, "phase {}", a.name);
        assert_eq!(a.writes, b.writes, "phase {}", a.name);
    }

    let frozen = SPEC.replace("  op mutate 1\n", "");
    assert_ne!(frozen, SPEC, "the mutate op was removed");
    let one = run_spec(&frozen, 1);
    let four = run_spec(&frozen, 4);
    let four_again = run_spec(&frozen, 4);
    for r in [&one, &four, &four_again] {
        assert_eq!(r.ops, 200, "every stream index is a read");
        assert_eq!((r.errors, r.writes), (0, 0), "clean, read-only run");
    }
    assert_eq!(one.answer_hash, four.answer_hash);
    assert_eq!(four.answer_hash, four_again.answer_hash);
    for (a, b) in one.phases.iter().zip(&four.phases) {
        assert_eq!(a.ops, b.ops, "phase {}", a.name);
        assert_eq!(a.answer_hash, b.answer_hash, "phase {}", a.name);
    }
}

/// Every interval series in the report folds exactly back to its
/// aggregate histogram, and the phase counters fold exactly to the run
/// counters — the identities `--validate-report` enforces, checked here
/// at the source.
#[test]
fn interval_sums_fold_exactly_to_totals() {
    let report = run_with_clients(3);
    let mut ops = 0;
    let mut hash = 0;
    for p in &report.phases {
        let folded = p.intervals.folded();
        assert_eq!(folded.count(), p.latency.count(), "phase {}", p.name);
        assert_eq!(folded.count(), p.ops, "phase {}", p.name);
        assert_eq!(folded.min(), p.latency.min(), "phase {}", p.name);
        assert_eq!(folded.max(), p.latency.max(), "phase {}", p.name);
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(folded.quantile(q), p.latency.quantile(q), "phase {}", p.name);
        }
        let (ok, errors) = p
            .intervals
            .slots()
            .iter()
            .fold((0, 0), |(o, e), s| (o + s.ok, e + s.errors));
        assert_eq!(ok, p.ok, "phase {}", p.name);
        assert_eq!(errors, p.errors, "phase {}", p.name);
        assert!(p.intervals.completed_intervals() >= 1, "phase {}", p.name);
        ops += p.ops;
        hash ^= p.answer_hash;
    }
    assert_eq!(ops, report.ops);
    assert_eq!(hash, report.answer_hash);
}

/// Per-replica service-time series hold the same fold identity, on the
/// sharded, replicated service.
#[test]
fn replica_series_fold_on_a_replicated_service() {
    let graph = Arc::new(generators::gnm_connected(64, 160, 5));
    let service = ShardedGraphService::start(
        Arc::clone(&graph),
        ServiceConfig {
            executors: 1,
            replicas: 2,
            mutations: Some(MutationConfig::default()),
            ..ServiceConfig::default()
        },
        2,
    );
    let report = driver::run_scenario(&service, &scenario_with_clients(4));
    service.shutdown();
    assert_eq!(report.replica_series.len(), 2, "one row per shard");
    let mut recorded = 0;
    for shard in &report.replica_series {
        assert_eq!(shard.len(), 2, "one series per replica");
        for rs in shard {
            assert_eq!(rs.intervals.total_count(), rs.service.count());
            assert_eq!(rs.intervals.folded().max(), rs.service.max());
            recorded += rs.service.count();
        }
    }
    // Executions, not ops: cache hits never reach an executor while
    // scattered analytics and retries reach several, so only nonemptiness
    // is a stable cross-check here — the exact identity is per replica
    // (series vs histogram), asserted above.
    assert!(recorded > 0, "executors recorded service times");
}

/// The legacy preset entry point and the checked-in `mixed.scn` example
/// produce the same counts and answers: the desugaring is exact.
#[test]
fn preset_flags_desugar_to_the_example_scenario() {
    let graph = Arc::new(generators::gnm_connected(64, 160, 5));
    let mix = Mix::preset("mixed", &graph).unwrap();
    let cfg = DriverConfig {
        clients: 4,
        ops_limit: Some(400),
        duration: Duration::from_secs(30),
        ..DriverConfig::default()
    };
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/mixed.scn"
    ))
    .expect("checked-in example readable");
    let scenario = ScenarioSpec::parse(&text)
        .expect("checked-in example parses")
        .resolve(&graph)
        .expect("checked-in example resolves");

    let service = one_shard(Arc::clone(&graph), ServiceConfig::default());
    let legacy = driver::run(&service, &mix, &cfg);
    let scn = driver::run_scenario(&service, &scenario);
    service.shutdown();
    assert_eq!(legacy.ops, scn.ops);
    assert_eq!(legacy.ok, scn.ok);
    assert_eq!(legacy.errors, scn.errors);
    assert_eq!(legacy.answer_hash, scn.answer_hash);
}

/// The other checked-in example parses, round-trips through its canonical
/// text, and resolves into the two phases the verify smoke expects.
#[test]
fn checked_in_smoke_example_stays_valid() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/smoke.scn"
    ))
    .expect("checked-in example readable");
    let spec = ScenarioSpec::parse(&text).expect("checked-in example parses");
    assert_eq!(ScenarioSpec::parse(&spec.to_text()).unwrap(), spec);
    let graph = generators::gnm_connected(64, 160, 5);
    let scenario = spec.resolve(&graph).expect("checked-in example resolves");
    assert_eq!(scenario.phases.len(), 2);
    assert!(scenario.has_writes());
    assert_eq!(scenario.interval, Duration::from_millis(250));
}

/// Reports round-trip through the crate's own JSON reader with the phase
/// and interval sections intact.
#[test]
fn report_json_carries_phases_and_intervals() {
    let report = run_with_clients(2);
    let doc = vcgp_stress::json::parse(&report.to_json("scenario-test")).expect("valid JSON");
    let phases = match doc.get("phases") {
        Some(vcgp_stress::json::Value::Array(rows)) => rows,
        other => panic!("phases missing or not an array: {other:?}"),
    };
    assert_eq!(phases.len(), 2);
    for (row, p) in phases.iter().zip(&report.phases) {
        let got = row
            .get("ops")
            .and_then(vcgp_stress::json::Value::as_f64)
            .expect("phase ops");
        assert_eq!(got as u64, p.ops);
        let intervals = match row.get("intervals") {
            Some(vcgp_stress::json::Value::Array(rows)) => rows,
            other => panic!("intervals missing: {other:?}"),
        };
        let summed: f64 = intervals
            .iter()
            .map(|r| r.get("count").and_then(vcgp_stress::json::Value::as_f64).unwrap())
            .sum();
        assert_eq!(summed as u64, p.ops);
    }
}
