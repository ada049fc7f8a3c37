//! Integration tests for the extensions beyond Table 1: partitioning
//! strategies, the finish-serially optimization, and the
//! §3.8 demonstrators — all cross-validated against the core stack.

use vcgp::graph::generators;
use vcgp::pregel::{Partitioning, PregelConfig};

#[test]
fn all_partitionings_agree_across_algorithms() {
    let g = generators::gnm_connected(140, 400, 5);
    let weighted = generators::with_random_weights(&g, 0.0, 1.0, 5, true);
    for strategy in [Partitioning::Hash, Partitioning::Range] {
        let cfg = PregelConfig::default()
            .with_workers(4)
            .with_partitioning(strategy);
        let base = PregelConfig::single_worker();
        assert_eq!(
            vcgp::algorithms::cc_hashmin::run(&g, &cfg).components,
            vcgp::algorithms::cc_hashmin::run(&g, &base).components
        );
        assert_eq!(
            vcgp::algorithms::mst_boruvka::run(&weighted, &cfg).edges,
            vcgp::algorithms::mst_boruvka::run(&weighted, &base).edges
        );
        assert_eq!(
            vcgp::algorithms::diameter::run(&g, &cfg).eccentricities,
            vcgp::algorithms::diameter::run(&g, &base).eccentricities
        );
    }
}

#[test]
fn fcs_is_exact_across_thresholds_and_workers() {
    let g = generators::gnm(300, 420, 3);
    let reference = vcgp::sequential::connectivity::cc(&g);
    for workers in [1usize, 4] {
        for threshold in [0usize, 8, 128, 100_000] {
            let cfg = PregelConfig::default().with_workers(workers);
            let r = vcgp::algorithms::cc_hashmin::run_with_fcs(&g, threshold, &cfg);
            assert_eq!(r.components, reference.components);
        }
    }
}

#[test]
fn difficult_workloads_cross_validate() {
    let g = generators::gnm(90, 320, 11);
    let cfg = PregelConfig::default().with_workers(3);
    let vc = vcgp::algorithms::triangle_counting::run(&g, &cfg);
    let sq = vcgp::sequential::triangles::triangles(&g);
    assert_eq!(vc.total, sq.total);
    assert_eq!(vc.per_vertex, sq.per_vertex);

    let connected = generators::gnm_connected(120, 300, 2);
    for t in [1u32, 60, 119] {
        let r = vcgp::algorithms::st_reachability::run(&connected, 0, t, &cfg);
        let s = vcgp::sequential::reachability::st_reachability(&connected, 0, t);
        assert_eq!(r.distance, s.distance);
    }
}
