//! Point lookups are answered on the submitting thread, on every service:
//! they need no executor, so nothing that governs executor-bound work — a
//! full lane, the queue-full policy, a tenant's token bucket — stands
//! between a lookup and its answer, and the answer is the pinned epoch's
//! whether or not a writer is installing newer ones. Every case here runs
//! without and with a writer; the counters they assert on do not depend on
//! timing.

mod common;

use common::one_shard;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcgp_graph::{generators, Mutation, VertexId};
use vcgp_stress::epoch::MutationConfig;
use vcgp_stress::qos::{QosConfig, TenantSpec};
use vcgp_stress::request::{QueryError, QueryKind, QueryOutput, QueryRequest, Route};
use vcgp_stress::service::{QueueFullPolicy, ServiceConfig, SubmitError};
use vcgp_stress::shard::ShardedGraphService;

fn sleep_request(id: u64, ms: u64) -> QueryRequest {
    QueryRequest::new(id, QueryKind::DebugSleep(Duration::from_millis(ms)))
}

/// `config` as it is (no writer) and with a writer thread behind it.
fn without_and_with_a_writer(config: ServiceConfig) -> [(&'static str, ServiceConfig); 2] {
    let writable = ServiceConfig {
        mutations: Some(MutationConfig::default()),
        ..config.clone()
    };
    [("no writer", config), ("writer", writable)]
}

/// Polls (never sleeps out a guess) until `done`.
fn poll_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn lookup_is_answered_while_the_only_executor_sleeps_and_its_lane_is_full() {
    let graph = Arc::new(generators::gnm_connected(8, 10, 1));
    for policy in [QueueFullPolicy::Block, QueueFullPolicy::Reject] {
        let config = ServiceConfig {
            executors: 1,
            queue_capacity: 1,
            queue_policy: policy,
            ..ServiceConfig::default()
        };
        for (label, config) in without_and_with_a_writer(config) {
            let on = format!("{label}, {policy:?}");
            let service = one_shard(Arc::clone(&graph), config);
            let busy = service.submit(sleep_request(1, 300)).unwrap();
            poll_until("the executor never dequeued", || {
                service.queue_depths() == [0]
            });
            let queued = service.submit(sleep_request(2, 1)).unwrap();
            assert_eq!(
                service.stats().queue_hwm,
                1,
                "{on}: the lane is at capacity"
            );

            // Under `Block` an enqueue would park this thread until the
            // sleeper is done, under `Reject` it would be shed: a lookup
            // does neither, because it is never enqueued.
            let degree = service
                .submit(QueryRequest::new(3, QueryKind::Degree(2)))
                .unwrap()
                .wait();
            let neighbors = service
                .submit(QueryRequest::new(4, QueryKind::Neighbors(2)))
                .unwrap()
                .wait();
            assert_eq!(
                service.qos_stats()[0].enqueued,
                2,
                "{on}: only the sleeps ever queued"
            );
            assert_eq!(
                degree.result,
                Ok(QueryOutput::Degree(graph.out_degree(2))),
                "{on}"
            );
            assert_eq!(
                neighbors.result,
                Ok(QueryOutput::Neighbors(graph.out_neighbors(2).to_vec())),
                "{on}"
            );
            for resp in [&degree, &neighbors] {
                assert_eq!(resp.attempts, 1, "{on}");
                assert_eq!(resp.queue_wait, Duration::ZERO, "{on}");
                assert_eq!(
                    resp.route,
                    Route::Routed {
                        shard: 0,
                        replica: 0
                    },
                    "{on}"
                );
            }

            assert!(busy.wait().is_ok(), "{on}");
            assert!(queued.wait().is_ok(), "{on}");
            let stats = service.shutdown();
            assert_eq!(stats.rejected, 0, "{on}: a lookup is never shed");
            assert_eq!(stats.queue_hwm, 1, "{on}: a lookup takes no queue slot");
            assert_eq!(
                (stats.lookups_at_submit, stats.completed, stats.failed),
                (2, 4, 0),
                "{on}"
            );
        }
    }
}

#[test]
fn lookup_of_a_tenant_with_an_exhausted_bucket_is_answered_immediately() {
    let graph = Arc::new(generators::gnm_connected(8, 10, 1));
    // One token per 100 s: once spent, the bucket stays empty for the test.
    let throttled_tenant = TenantSpec {
        rate: Some(0.01),
        ..TenantSpec::default()
    };
    let config = ServiceConfig {
        executors: 1,
        qos: QosConfig {
            tenants: vec![throttled_tenant, TenantSpec::default()],
        },
        ..ServiceConfig::default()
    };
    for (on, config) in without_and_with_a_writer(config) {
        let service = one_shard(Arc::clone(&graph), config);
        // One dequeue spends tenant 0's only token.
        assert!(
            service.submit(sleep_request(1, 0)).unwrap().wait().is_ok(),
            "{on}"
        );
        for id in 2..10 {
            let resp = service
                .submit(QueryRequest::new(id, QueryKind::Degree(id as VertexId % 8)))
                .unwrap()
                .wait();
            assert!(resp.is_ok(), "{on}");
        }
        let lane = service.qos_stats()[0];
        assert_eq!(
            lane.throttled, 0,
            "{on}: the bucket shapes executor-bound work only"
        );
        assert_eq!(lane.enqueued, 1, "{on}: only the sleep was ever queued");
        // The bucket really is empty: the tenant's next executor-bound
        // request is held in its lane (until shutdown drains it).
        let held = service.submit(sleep_request(10, 0)).unwrap();
        poll_until("the empty bucket never throttled the lane", || {
            service.qos_stats()[0].throttled >= 1
        });
        assert_eq!(
            service.queue_depths(),
            [1],
            "{on}: the sleep is still queued"
        );
        let stats = service.shutdown();
        assert!(
            held.wait().is_ok(),
            "{on}: a closing service drains throttled lanes"
        );
        assert_eq!((stats.lookups_at_submit, stats.completed), (8, 10), "{on}");
    }
}

#[test]
fn lookup_errors_are_decided_at_submit_too() {
    let graph = Arc::new(generators::gnm_connected(8, 10, 1));
    for (on, config) in without_and_with_a_writer(ServiceConfig::default()) {
        let service = ShardedGraphService::start(Arc::clone(&graph), config, 2);
        let resp = service
            .submit(QueryRequest::new(1, QueryKind::Neighbors(8)))
            .unwrap()
            .wait();
        assert_eq!(resp.result, Err(QueryError::NoSuchVertex(8)), "{on}");
        assert_eq!(resp.attempts, 1, "{on}");
        let stats = service.stats();
        assert_eq!(
            (stats.failed, stats.completed, stats.lookups_at_submit),
            (1, 0, 1),
            "{on}"
        );

        service.close();
        assert!(
            matches!(
                service.submit(QueryRequest::new(2, QueryKind::Degree(0))),
                Err(SubmitError::Closed)
            ),
            "{on}"
        );
        assert_eq!(service.shutdown().lookups_at_submit, 1, "{on}");
    }
}

/// Readers racing a writer that swaps an epoch per mutation: a lookup is
/// pinned to the epoch serving when it was submitted, which lies between the
/// epochs the reader saw just before and just after — and its answer is that
/// epoch's adjacency, never a later one's. Every one of them is answered at
/// submit: the writer changes which epoch a lookup pins, not where it runs.
#[test]
fn lookups_under_a_live_writer_answer_from_their_pinned_epoch() {
    const N: u32 = 20;
    let graph = Arc::new(generators::gnm_connected(N as usize, 40, 11));
    let service = ShardedGraphService::start(
        Arc::clone(&graph),
        ServiceConfig {
            mutations: Some(MutationConfig {
                max_batch: 1,
                keep_history: true,
                ..MutationConfig::default()
            }),
            ..ServiceConfig::default()
        },
        2,
    );
    let muts: Vec<Mutation> = (0..48u32)
        .map(|i| match i % 3 {
            0 => Mutation::DeleteEdgeAt { u: i % N, rank: i },
            1 => Mutation::InsertEdge {
                u: i % N,
                v: (i + 7) % N,
                w: 1.0,
            },
            _ => Mutation::RemoveVertex { v: (i * 3) % N },
        })
        .collect();
    let writing = AtomicBool::new(true);
    let seen: Vec<(u64, u64, VertexId, Vec<VertexId>)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2u32)
            .map(|r| {
                let (service, writing) = (&service, &writing);
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    let mut i = 0u32;
                    while writing.load(Ordering::SeqCst) || i < 64 {
                        let v = (i * 7 + r) % N;
                        let before = service.epoch().id;
                        let resp = service
                            .submit(QueryRequest::new(u64::from(i), QueryKind::Neighbors(v)))
                            .expect("open")
                            .wait();
                        let after = service.epoch().id;
                        match resp.result {
                            Ok(QueryOutput::Neighbors(ns)) => seen.push((before, after, v, ns)),
                            other => panic!("lookup of {v} answered {other:?}"),
                        }
                        i += 1;
                    }
                    seen
                })
            })
            .collect();
        for m in &muts {
            service.submit_mutation(*m).expect("writable");
            std::thread::sleep(Duration::from_millis(1));
        }
        writing.store(false, Ordering::SeqCst);
        readers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let stats = service.stats();
    assert_eq!(stats.completed, seen.len() as u64);
    assert_eq!(stats.lookups_at_submit, seen.len() as u64);
    assert_eq!(stats.queue_hwm, 0);

    let history = service.epoch_history().expect("keep_history was set");
    assert!(
        history.len() >= 2,
        "the writer installed at least one new epoch"
    );
    for (before, after, v, neighbors) in &seen {
        let pinned = (*before..=*after)
            .any(|e| history[e as usize].graph.out_neighbors(*v) == neighbors.as_slice());
        assert!(
            pinned,
            "neighbors of {v} match no epoch in {before}..={after}: {neighbors:?}"
        );
    }
    service.shutdown();
}
