//! Integration + property tests for the multi-tenant QoS subsystem: the
//! weighted-fair scheduler is deterministic and work-conserving across
//! shard/replica layouts, per-tenant streams produce identical answers no
//! matter the topology, tenant report rows fold exactly into the run
//! totals, and one tenant's queue backlog rejects only that tenant.

mod common;

use common::one_shard;
use std::sync::Arc;
use std::time::Duration;
use vcgp_graph::generators;
use vcgp_stress::driver::run_scenario;
use vcgp_stress::qos::QosConfig;
use vcgp_stress::request::{QueryError, QueryKind, QueryRequest};
use vcgp_stress::scenario::ScenarioSpec;
use vcgp_stress::service::{QueueFullPolicy, ServiceConfig};
use vcgp_stress::shard::ShardedGraphService;
use vcgp_testkit::{prop_assert, vcgp_props};

const FAIR_SPEC: &str = "\
scenario fair
tenants 3
tenant 0 weight 1
tenant 1 weight 2
tenant 2 weight 1
op point 3 uniform span=full
op analytics 1

phase main
  ops 40
";

vcgp_props! {
    #![cases(4)]

    // The acceptance property of the scheduler: for S ∈ {1, 4} × R ∈ {1, 2}
    // the same three-tenant scenario (weights 1/2/1, a 40-op budget per
    // tenant stream) is work-conserving — every tenant finishes its whole
    // budget with zero rejects — and deterministic: each tenant's answer
    // hash is identical on every topology, and the tenant rows fold exactly
    // into the run totals.
    fn weighted_fair_dequeue_is_deterministic_and_work_conserving(
        seed in 0u64..1_000,
    ) {
        let graph = Arc::new(generators::gnm_connected(48, 120, 11));
        let spec_text = format!("{FAIR_SPEC}  seed {seed}\n");
        let spec = ScenarioSpec::parse(&spec_text).expect("spec parses");
        let scenario = spec.resolve(&graph).expect("spec resolves");
        let mut reference: Option<Vec<(u64, u64, u64, u64)>> = None;
        for shards in [1usize, 4] {
            for replicas in [1usize, 2] {
                let cfg = ServiceConfig {
                    executors: 2,
                    replicas,
                    qos: QosConfig { tenants: scenario.tenants.clone() },
                    ..ServiceConfig::default()
                };
                let service = ShardedGraphService::start(Arc::clone(&graph), cfg, shards);
                let report = run_scenario(&service, &scenario);
                service.shutdown();
                prop_assert!(report.errors == 0, "S={shards} R={replicas}: {} errors", report.errors);
                prop_assert!(report.tenants.len() == 3, "three tenant rows");
                let rows: Vec<(u64, u64, u64, u64)> = report
                    .tenants
                    .iter()
                    .map(|t| (t.ops, t.ok, t.rejects, t.answer_hash))
                    .collect();
                for (t, row) in rows.iter().enumerate() {
                    prop_assert!(
                        row.0 == 40 && row.1 == 40 && row.2 == 0,
                        "S={shards} R={replicas} tenant {t}: expected 40/40/0, got {row:?}"
                    );
                    prop_assert!(
                        report.tenants[t].latency.count() == row.0,
                        "tenant {t}: latency count == ops"
                    );
                }
                // Fold identities: tenant rows reproduce the run totals.
                prop_assert!(
                    rows.iter().map(|r| r.0).sum::<u64>() == report.ops,
                    "tenant ops fold to run ops"
                );
                prop_assert!(
                    rows.iter().map(|r| r.1).sum::<u64>() == report.ok,
                    "tenant ok fold to run ok"
                );
                prop_assert!(
                    rows.iter().fold(0u64, |acc, r| acc ^ r.3) == report.answer_hash,
                    "tenant hashes fold to the run hash"
                );
                // Determinism across topologies: per-tenant streams are pure
                // functions of (seed, tenant, index), so each tenant's
                // answers are bit-identical however the service is laid out.
                match &reference {
                    None => reference = Some(rows),
                    Some(want) => prop_assert!(
                        &rows == want,
                        "S={shards} R={replicas}: tenant rows {rows:?} != reference {want:?}"
                    ),
                }
            }
        }
    }
}

#[test]
fn tenant_backlog_rejects_only_that_tenant() {
    // Per-tenant admission: with one executor held busy and per-lane
    // capacity 1, tenant 0's second queued job is shed while tenant 1's
    // lane still accepts — the reject policy is lane-scoped, not global.
    let graph = Arc::new(generators::gnm_connected(8, 10, 1));
    let service = one_shard(
        Arc::clone(&graph),
        ServiceConfig {
            executors: 1,
            queue_capacity: 1,
            queue_policy: QueueFullPolicy::Reject,
            qos: QosConfig::uniform(2),
            ..ServiceConfig::default()
        },
    );
    let sleep = |ms| QueryKind::DebugSleep(Duration::from_millis(ms));
    // Occupy the executor (job leaves the queue), then fill tenant 0's lane.
    let busy = service
        .submit(QueryRequest::new(1, sleep(300)).with_tenant(0))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let queued = service
        .submit(QueryRequest::new(2, sleep(1)).with_tenant(0))
        .unwrap();
    // Tenant 0's lane is at capacity: its next submission is shed ...
    let shed = service
        .submit(QueryRequest::new(3, sleep(1)).with_tenant(0))
        .unwrap();
    assert_eq!(shed.wait().result, Err(QueryError::Rejected));
    // ... while tenant 1's lane (same core, own capacity) still accepts.
    let other = service
        .submit(QueryRequest::new(4, sleep(1)).with_tenant(1))
        .unwrap();
    assert!(busy.wait().is_ok());
    assert!(queued.wait().is_ok());
    assert!(other.wait().is_ok());
    let lanes = service.qos_stats();
    service.shutdown();
    assert_eq!(lanes.len(), 2);
    assert_eq!(lanes[0].rejected, 1, "tenant 0 took the reject");
    assert_eq!(lanes[1].rejected, 0, "tenant 1 was untouched");
    assert!(lanes[1].enqueued >= 1);
}

#[test]
fn out_of_range_tenant_is_clamped_to_the_last_lane() {
    let graph = Arc::new(generators::gnm_connected(8, 10, 1));
    let service = one_shard(
        Arc::clone(&graph),
        ServiceConfig {
            executors: 1,
            qos: QosConfig::uniform(2),
            ..ServiceConfig::default()
        },
    );
    let resp = service
        .submit(QueryRequest::new(1, QueryKind::DebugSleep(Duration::ZERO)).with_tenant(99))
        .unwrap()
        .wait();
    assert!(resp.is_ok());
    let lanes = service.qos_stats();
    service.shutdown();
    assert_eq!(lanes[1].enqueued, 1, "clamped into the last lane");
    assert_eq!(lanes[0].enqueued, 0);
}
