//! End-to-end tests for the scenario engine: determinism of the seeded
//! op/key streams regardless of client-thread count, the fold identities
//! the reports are gated on — held by the library's `report::validate`,
//! and shown here to reject a report that breaks any one of them — the
//! `mixed` preset being the checked-in `mixed.scn`, and the checked-in
//! example specs staying parseable.

mod common;

use common::one_shard;
use std::sync::Arc;
use std::time::Duration;
use vcgp_graph::generators;
use vcgp_stress::dist::DistSpec;
use vcgp_stress::driver;
use vcgp_stress::epoch::MutationConfig;
use vcgp_stress::json::Value;
use vcgp_stress::report::{validate, StressReport};
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

/// The report's identities hold at the source: the tree a run produces
/// passes `validate`, and beneath what JSON can carry — counts and three
/// quantiles per row — every phase's interval series folds back to the
/// phase's whole latency histogram.
#[test]
fn interval_sums_fold_exactly_to_totals() {
    let report = run_with_clients(3);
    validate(&report.to_value("scenario-test")).expect("a clean run's report validates");
    for p in &report.phases {
        let folded = p.intervals.folded();
        assert_eq!(folded.count(), p.latency.count(), "phase {}", p.name);
        assert_eq!(folded.min(), p.latency.min(), "phase {}", p.name);
        assert_eq!(folded.max(), p.latency.max(), "phase {}", p.name);
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(
                folded.quantile(q),
                p.latency.quantile(q),
                "phase {}",
                p.name
            );
        }
        assert!(p.intervals.completed_intervals() >= 1, "phase {}", p.name);
    }
}

/// `validate` rejects, not only accepts: one clean report, one identity
/// broken per row, and the error names the path that no longer folds.
#[test]
fn validate_names_the_path_of_every_broken_identity() {
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
    let clean = driver::run_scenario(&service, &scenario_with_clients(2)).to_value("clean");
    service.shutdown();
    validate(&clean).expect("the unbroken report validates");

    let bump = |v: &mut Value| *v = Value::Number(v.as_f64().expect("a number") + 1.0);
    let other_hash = |v: &mut Value| *v = "00000000deadbeef".into();
    let unhex = |v: &mut Value| *v = "not-a-hex-digest".into();
    let no_busy_ns = |v: &mut Value| match v {
        Value::Object(members) => members.retain(|(k, _)| k != "busy_ns"),
        other => panic!("not an object: {other:?}"),
    };
    // With the row's own latency count moved along, so that only the sum
    // over rows is off.
    let more_tenant_ops = |v: &mut Value| {
        for key in ["ops", "latency_ns.count"] {
            bump(v.at_mut(key).unwrap());
        }
    };
    let more_than_all_ops = |v: &mut Value| *v = Value::Number(1e15);
    type Break<'a> = &'a dyn Fn(&mut Value);
    // (what breaks, the path to break, how, what the error must name)
    let cases: [(&str, &str, Break, &str); 12] = [
        (
            "a shard's leg sources",
            "per_shard[1].coalesced_legs",
            &bump,
            "per_shard[1].engine_runs + coalesced_legs + rejects",
        ),
        (
            "one cache probe per scattered op",
            "cache.misses",
            &bump,
            "cache.hits + cache.misses",
        ),
        (
            "a per-shard sum",
            "per_shard[1].early_drops",
            &bump,
            "per_shard[*].early_drops sum",
        ),
        (
            "a replica sum",
            "per_shard[0].replicas[1].completed",
            &bump,
            "per_shard[0].completed",
        ),
        (
            "a replica queue_hwm max",
            "per_shard[0].queue_hwm",
            &bump,
            "per_shard[0].queue_hwm",
        ),
        (
            "the phase hash XOR",
            "phases[1].answer_hash",
            &other_hash,
            "phases[*].answer_hash fold",
        ),
        (
            "the tenant ops sum",
            "tenants[0]",
            &more_tenant_ops,
            "tenants[*].ops sum",
        ),
        (
            "an interval count",
            "phases[0].intervals[0].count",
            &bump,
            "phases[0].intervals[0]",
        ),
        (
            "routed + scattered",
            "phases[1].routed",
            &bump,
            "phases[1].ops",
        ),
        (
            "lookups <= routed",
            "lookups_at_submit",
            &more_than_all_ops,
            "more than routed",
        ),
        (
            "a missing field",
            "per_shard[1].replicas[0]",
            &no_busy_ns,
            "replicas[0].busy_ns",
        ),
        (
            "a non-hex hash",
            "tenants[0].answer_hash",
            &unhex,
            "tenants[0].answer_hash",
        ),
    ];
    for (what, path, break_it, needle) in cases {
        let mut doc = clean.clone();
        break_it(
            doc.at_mut(path)
                .unwrap_or_else(|| panic!("{what}: no {path} in the report")),
        );
        let err = validate(&doc).expect_err(what);
        assert!(err.contains(needle), "{what}: broke {path}, got {err:?}");
    }

    // A report with an error is refused for it, but only after every
    // identity was checked: a broken fold still names its own path.
    let mut failed = clean.clone();
    one_ok_became_an_error(&mut failed);
    let err = validate(&failed).expect_err("a report with an error");
    assert!(err.contains("errors: 1 errored"), "got {err:?}");
    bump(failed.at_mut("per_shard[1].coalesced_legs").unwrap());
    let err = validate(&failed).expect_err("errors and a broken identity");
    assert!(
        err.contains("per_shard[1].engine_runs + coalesced_legs + rejects"),
        "got {err:?}"
    );
}

/// Turns one successful operation of `report` into an errored one, in
/// every row that counts it, so that every fold still holds.
fn one_ok_became_an_error(report: &mut Value) {
    let rows = match report.at("phases[0].intervals") {
        Some(Value::Array(rows)) => rows.len(),
        other => panic!("no phases[0].intervals: {other:?}"),
    };
    let slot = (0..rows)
        .map(|i| format!("phases[0].intervals[{i}]"))
        .find(|row| report.at(&format!("{row}.ok")).and_then(Value::as_f64) > Some(0.0))
        .expect("phase 0 completed an operation");
    for row in ["", "phases[0].", &format!("{slot}."), "tenants[0]."] {
        for (key, by) in [("ok", -1.0), ("errors", 1.0)] {
            let v = report.at_mut(&format!("{row}{key}")).unwrap();
            *v = Value::Number(v.as_f64().unwrap() + by);
        }
    }
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
    // scattered analytics reach several, so only nonemptiness
    // is a stable cross-check here — the exact identity is per replica
    // (series vs histogram), asserted above.
    assert!(recorded > 0, "executors recorded service times");
}

/// The built-in `mixed` preset *is* the checked-in `mixed.scn` example:
/// `--mix mixed --ops 400` and the file fill in the same spec, so there is
/// no second load model for the two to diverge through.
#[test]
fn the_mixed_preset_is_the_example_scenario() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/mixed.scn"
    ))
    .expect("checked-in example readable");
    let example = ScenarioSpec::parse(&text).expect("checked-in example parses");
    let mut preset = ScenarioSpec::preset("mixed", DistSpec::Uniform, 0.0).unwrap();
    preset.phases[0].ops = Some(400);
    assert_eq!(preset, example);
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

/// Reports survive the trip through the JSON writer and reader whole: the
/// parsed document is the tree that was rendered, phases and intervals
/// included, and still validates.
#[test]
fn report_json_carries_phases_and_intervals() {
    let report = run_with_clients(2);
    let tree = report.to_value("scenario-test");
    let doc = vcgp_stress::json::parse(&tree.render()).expect("valid JSON");
    assert_eq!(doc, tree);
    validate(&doc).expect("the re-read report validates");
    for (i, p) in report.phases.iter().enumerate() {
        assert_eq!(
            doc.at(&format!("phases[{i}].phase"))
                .and_then(Value::as_str),
            Some(&*p.name)
        );
        assert_eq!(
            doc.at(&format!("phases[{i}].ops")).and_then(Value::as_f64),
            Some(p.ops as f64)
        );
    }
    assert!(doc.at("phases[2]").is_none(), "two phases, two rows");
}
