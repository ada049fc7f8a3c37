//! Integration tests: every vertex-centric algorithm cross-validated
//! against its sequential baseline on randomized inputs, across worker
//! counts — the workspace-level contract behind every Table 1 comparison.

use vcgp::algorithms as vc;
use vcgp::graph::{generators, Graph};
use vcgp::pregel::PregelConfig;
use vcgp::sequential as seq;

fn configs() -> Vec<PregelConfig> {
    vec![
        PregelConfig::single_worker(),
        PregelConfig::default().with_workers(3),
    ]
}

fn connected(n: usize, m: usize, seed: u64) -> Graph {
    generators::gnm_connected(n, m, seed)
}

#[test]
fn diameter_and_apsp_agree() {
    for seed in 0..3 {
        let g = connected(60, 140, seed);
        let sq = seq::diameter::diameter(&g);
        let apsp = seq::diameter::apsp(&g);
        for cfg in configs() {
            let r = vc::diameter::run(&g, &cfg);
            assert_eq!(r.diameter, sq.diameter);
            assert_eq!(r.eccentricities, sq.eccentricities);
            for u in 0..60usize {
                for v in 0..60u32 {
                    assert_eq!(r.distances[u][&v], apsp.dist[u][v as usize]);
                }
            }
        }
    }
}

#[test]
fn pagerank_agrees_with_power_iteration() {
    for seed in 0..3 {
        let g = generators::digraph_gnm(100, 500, seed);
        let sq = seq::pagerank::pagerank(&g, 0.85, 25, 0.0);
        for cfg in configs() {
            let r = vc::pagerank::run(&g, 0.85, 25, &cfg);
            for (a, b) in r.scores.iter().zip(&sq.scores) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn all_connectivity_algorithms_agree() {
    for seed in 0..3 {
        let g = generators::gnm(120, 180, seed);
        let sq = seq::connectivity::cc(&g);
        for cfg in configs() {
            assert_eq!(vc::cc_hashmin::run(&g, &cfg).components, sq.components);
            assert_eq!(vc::cc_sv::run(&g, &cfg).components, sq.components);
        }
        let d = generators::digraph_gnm(120, 200, seed);
        let sw = seq::connectivity::wcc(&d);
        for cfg in configs() {
            assert_eq!(vc::wcc::run(&d, &cfg).components, sw.components);
        }
    }
}

#[test]
fn bcc_partitions_agree() {
    for seed in 0..3 {
        let g = connected(70, 130, seed);
        let sq = seq::bcc::bcc(&g);
        for cfg in configs() {
            let r = vc::bcc::run(&g, &cfg);
            assert_eq!(r.count, sq.count);
            assert_eq!(
                seq::bcc::canonical_blocks(&r.block_of_edge),
                seq::bcc::canonical_blocks(&sq.block_of_edge)
            );
        }
    }
}

#[test]
fn scc_agrees_with_tarjan() {
    for seed in 0..3 {
        let g = generators::cyclic_digraph(90, 5, 30, seed);
        let sq = seq::scc::scc(&g);
        for cfg in configs() {
            let r = vc::scc::run(&g, &cfg);
            assert_eq!(r.components, sq.components);
        }
    }
}

#[test]
fn tree_pipelines_agree() {
    for seed in 0..3 {
        let t = generators::random_tree(80, seed);
        let tour = seq::tree::euler_tour(&t, 0);
        let order = seq::tree::tree_order(&t, 0);
        for cfg in configs() {
            assert_eq!(vc::euler_tour::run(&t, 0, &cfg).tour, tour.tour);
            let r = vc::tree_order::run(&t, 0, &cfg);
            assert_eq!(r.pre, order.pre);
            assert_eq!(r.post, order.post);
        }
    }
}

#[test]
fn spanning_tree_valid_and_complete() {
    for seed in 0..3 {
        let g = connected(90, 200, seed);
        for cfg in configs() {
            let r = vc::spanning_tree::run(&g, &cfg);
            assert_eq!(r.tree_edges.len(), 89);
            let mut b = vcgp::graph::GraphBuilder::new(90);
            for &(u, v) in &r.tree_edges {
                assert!(g.has_edge(u, v));
                b.add_edge(u, v);
            }
            assert!(vcgp::graph::traversal::is_tree(&b.build()));
        }
    }
}

#[test]
fn mst_agrees_with_kruskal_and_prim() {
    for seed in 0..3 {
        let g = generators::with_random_weights(&connected(80, 240, seed), 0.0, 1.0, seed, true);
        let kruskal = seq::mst::mst_kruskal(&g);
        let prim = seq::mst::mst_prim(&g);
        assert_eq!(kruskal.edges, prim.edges);
        for cfg in configs() {
            let r = vc::mst_boruvka::run(&g, &cfg);
            assert_eq!(r.edges, kruskal.edges);
        }
    }
}

#[test]
fn coloring_valid_mis_peeling() {
    for seed in 0..3 {
        let g = generators::gnm(80, 200, seed);
        for cfg in configs() {
            let r = vc::coloring_mis::run(&g, &cfg);
            assert!(seq::coloring::is_valid_mis_coloring(&g, &r.colors));
        }
    }
}

#[test]
fn matchings_valid_and_maximal() {
    for seed in 0..3 {
        let g =
            generators::with_random_weights(&generators::gnm(70, 160, seed), 0.0, 1.0, seed, true);
        let greedy = seq::matching::mwm_greedy(&g);
        for cfg in configs() {
            let r = vc::matching_preis::run(&g, &cfg);
            assert_eq!(r.mate, greedy.mate, "distinct weights: same matching");
        }
        let b = generators::bipartite(40, 40, 220, seed);
        for cfg in configs() {
            let r = vc::bipartite_matching::run(&b, 40, &cfg);
            assert!(seq::matching::is_maximal_matching(&b, &r.mate));
        }
    }
}

#[test]
fn betweenness_agrees_with_brandes() {
    for seed in 0..2 {
        let g = connected(45, 100, seed);
        let sq = seq::betweenness::betweenness(&g, None);
        for cfg in configs() {
            let r = vc::betweenness::run(&g, None, &cfg);
            for (a, b) in r.scores.iter().zip(&sq.scores) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn sssp_agrees_with_dijkstra() {
    for seed in 0..3 {
        let g = generators::with_random_weights(&connected(100, 320, seed), 0.1, 3.0, seed, false);
        let sq = seq::sssp::sssp(&g, 0);
        for cfg in configs() {
            let r = vc::sssp::run(&g, 0, &cfg);
            for (a, b) in r.dist.iter().zip(&sq.dist) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn simulations_agree_with_baselines() {
    for seed in 0..3 {
        let q = generators::query_pattern(4, 2, 3, seed);
        let d = generators::labeled_digraph(60, 240, 3, seed + 40);
        let gs = seq::simulation::graph_simulation(&q, &d);
        let ds = seq::simulation::dual_simulation(&q, &d);
        let ss = seq::simulation::strong_simulation(&q, &d);
        for cfg in configs() {
            assert_eq!(vc::graph_simulation::run(&q, &d, &cfg).matches, gs.matches);
            assert_eq!(vc::dual_simulation::run(&q, &d, &cfg).matches, ds.matches);
            assert_eq!(vc::strong_simulation::run(&q, &d, &cfg).centers, ss.centers);
        }
    }
}
