//! Golden differential test: `(answer, supersteps, Σ messages_sent)` of all
//! twenty Table 1 workloads on fixed small inputs, frozen from the commit
//! before the vote-to-halt conversion of the master-phased programs. A
//! scheduling change may lower how many vertices *run*; it may not move a
//! superstep (the per-vertex RNG is keyed on it), a message or an answer.
//!
//! The second half bounds what the conversion bought: invocation ceilings
//! for the converted programs, so a blanket `reactivate_all()` cannot creep
//! back in unnoticed.

use vcgp::core::service::{run_workload, supported};
use vcgp::core::Workload;
use vcgp::graph::{generators, Graph};
use vcgp::pregel::{Partitioning, PregelConfig, RunStats};

/// One input per structural family; every workload runs on the first one
/// that admits it.
fn inputs() -> Vec<Graph> {
    vec![
        generators::with_random_weights(&generators::gnm_connected(96, 288, 7), 0.0, 1.0, 7, true),
        generators::labeled_digraph(96, 384, 3, 7),
        generators::random_tree(64, 7),
        generators::bipartite(24, 12, 96, 7),
    ]
}

/// Engine seed = request seed = the golden seed.
const SEEDS: [u64; 2] = [7, 8];

/// `(answer, supersteps, Σ messages_sent, Σ invocations)` per seed, in
/// Table 1 order. The first three are exact; the parent's invocation count
/// is a ceiling.
const GOLDEN: [[(u64, u64, u64, u64); 2]; 20] = [
    [(5, 7, 55296, 610), (5, 7, 55296, 610)],         // Diameter
    [(13, 11, 5760, 1056), (13, 11, 5760, 1056)],     // PageRank
    [(1, 5, 1359, 386), (1, 5, 1359, 386)],           // CcHashMin
    [(1, 64, 8286, 6144), (1, 64, 8286, 6144)],       // CcSv
    [(1, 133, 18208, 16164), (1, 133, 18208, 16164)], // Bcc
    [(1, 5, 1755, 378), (1, 5, 1755, 378)],           // Wcc
    [(7, 21, 1604, 2016), (7, 21, 1604, 2016)],       // Scc
    [(126, 2, 126, 128), (126, 2, 126, 128)],         // EulerTour
    [(64, 49, 4782, 5663), (64, 49, 4782, 5663)],     // TreeOrder
    [(95, 64, 8286, 6144), (95, 64, 8286, 6144)],     // SpanningTree
    [(95, 41, 1333, 3936), (95, 41, 1333, 3936)],     // Mst
    [(6, 159, 621, 15264), (6, 162, 620, 15552)],     // Coloring
    [(41, 16, 575, 1536), (41, 16, 575, 1536)],       // Matching
    [(12, 10, 211, 360), (12, 10, 217, 360)],         // BipartiteMatching
    [(13, 11, 1146, 805), (13, 11, 1143, 802)],       // Betweenness
    [(96, 11, 1108, 569), (96, 9, 1021, 514)],        // Sssp
    [(5, 7, 55296, 610), (5, 7, 55296, 610)],         // Apsp
    [(20, 5, 161, 239), (62, 4, 192, 220)],           // GraphSim
    [(8, 5, 324, 287), (44, 6, 433, 287)],            // DualSim
    [(0, 7, 356, 479), (5, 8, 634, 479)],             // StrongSim
];

fn run(w: Workload, g: &Graph, cfg: &PregelConfig, seed: u64) -> (u64, RunStats) {
    let run = run_workload(w, g, &cfg.clone().with_seed(seed), seed).expect("supported input");
    (run.answer, run.stats)
}

#[test]
fn answers_supersteps_and_messages_match_the_frozen_parent() {
    let inputs = inputs();
    for (w, golden) in Workload::ALL.into_iter().zip(GOLDEN) {
        let g = inputs
            .iter()
            .find(|g| supported(w, g).is_ok())
            .unwrap_or_else(|| panic!("{w:?} is supported by none of the inputs"));
        for (seed, want) in SEEDS.into_iter().zip(golden) {
            // One thread at W ∈ {1, 4}, two at W=4: the same driver with
            // one party and with two.
            for (workers, threads) in [(1usize, 1usize), (4, 1), (4, 2)] {
                for partitioning in [Partitioning::Hash, Partitioning::Range] {
                    let cfg = PregelConfig::default()
                        .with_workers(workers)
                        .with_threads(threads)
                        .with_partitioning(partitioning);
                    let at = format!("{w:?} seed {seed} W={workers} T={threads} {partitioning:?}");
                    let (answer, stats) = run(w, g, &cfg, seed);
                    let (want_answer, supersteps, messages, parent_invocations) = want;
                    assert_eq!(answer, want_answer, "answer of {at}");
                    assert_eq!(stats.supersteps(), supersteps, "supersteps of {at}");
                    assert_eq!(stats.total_messages(), messages, "messages of {at}");
                    assert!(
                        stats.invocations() <= parent_invocations,
                        "{at}: {} invocations, the parent made {parent_invocations}",
                        stats.invocations()
                    );
                }
            }
        }
    }
}

/// The converted programs on mid-size inputs (the `analytics_cold` shape of
/// the repo benchmark): Coloring ran 3 883 008 vertices here before its
/// conversion, and Mst, Matching and Scc spent 89 %, 76 % and 67 % of their
/// invocations on vertices with nothing to do.
#[test]
fn converted_programs_stay_under_their_invocation_ceilings() {
    let cfg = PregelConfig::single_worker();
    let undirected = generators::with_random_weights(
        &generators::gnm_connected(4096, 16384, 7),
        0.0,
        1.0,
        7,
        true,
    );
    let directed = generators::labeled_digraph(4096, 16384, 4, 7);

    let (_, coloring) = run(Workload::Coloring, &undirected, &cfg, cfg.seed);
    assert!(
        coloring.invocations() <= 200_000,
        "Coloring: {} invocations",
        coloring.invocations()
    );

    for (w, g) in [
        (Workload::Mst, &undirected),
        (Workload::Matching, &undirected),
        (Workload::Scc, &directed),
    ] {
        let (_, stats) = run(w, g, &cfg, cfg.seed);
        let quiet_share = stats.quiet_invocations() as f64 / stats.invocations() as f64;
        assert!(
            quiet_share <= 0.35,
            "{w:?}: {:.1} % quiet invocations",
            100.0 * quiet_share
        );
    }
}
