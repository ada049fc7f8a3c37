//! The serving path: run any Table 1 workload against a *resident* graph.
//!
//! The sweep runners in [`crate::workload`] build each row's adversarial
//! input family themselves; a service, by contrast, loads one graph and must
//! answer whatever workload a request names. This module is that mapping:
//! [`supported`] checks a workload's structural preconditions against the
//! resident graph (cheaply — each check is at most one traversal), and
//! [`run_workload`] executes the workload with a bounded superstep budget so
//! a single request can never wedge an executor on a non-converging input.
//!
//! Requests carry a `seed`; source-parameterized workloads (SSSP,
//! betweenness, the simulation family) derive their source vertex or query
//! pattern deterministically from it, so the same request is exactly
//! reproducible.

use crate::workload::Workload;
use vcgp_graph::{traversal, Graph, GraphBuilder, SplitMix64, VertexId, INVALID_VERTEX};
use vcgp_pregel::{PregelConfig, RunStats};

/// PageRank iterations used on the serving path (convergence-grade runs use
/// the sweep's `K = 30`; a service answer trades a little precision for
/// bounded latency).
pub const SERVICE_PAGERANK_ITERS: u32 = 10;

/// Hard superstep budget per service request. Every in-tree workload
/// converges far below this on sane inputs; the cap bounds the damage of an
/// adversarial input (e.g. a matching on massive-tie weights).
pub const SERVICE_MAX_SUPERSTEPS: u64 = 10_000;

/// Why a workload cannot run against the resident graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// The workload that was requested.
    pub workload: Workload,
    /// Human-readable precondition that failed.
    pub reason: &'static str,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} unsupported on this graph: {}",
            self.workload, self.reason
        )
    }
}

impl std::error::Error for Unsupported {}

/// Result of one serving-path workload execution.
#[derive(Debug, Clone)]
pub struct ServiceRun {
    /// Engine instrumentation of the run (merged across stages for
    /// multi-stage pipelines).
    pub stats: RunStats,
    /// A small workload-specific scalar (component count, colors, diameter,
    /// matched edges, …) so responses carry a semantically meaningful
    /// answer, not just costs.
    pub answer: u64,
}

/// Returns `Ok(nl)` if the graph is "layered bipartite": some split point
/// `nl` has every edge crossing `[0, nl) × [nl, n)` — the layout the
/// bipartite-matching program requires.
fn bipartite_split(g: &Graph) -> Option<usize> {
    let mut max_min = 0u32;
    let mut min_max = u32::MAX;
    let mut any = false;
    for v in g.vertices() {
        for &u in g.out_neighbors(v) {
            if v < u {
                any = true;
                max_min = max_min.max(v);
                min_max = min_max.min(u);
            }
        }
    }
    if any && max_min < min_max {
        Some(max_min as usize + 1)
    } else {
        None
    }
}

/// Whether the graph is an undirected tree (connected, `m = n - 1`).
fn is_tree(g: &Graph) -> bool {
    if g.is_directed() || g.num_vertices() < 2 || g.num_edges() != g.num_vertices() - 1 {
        return false;
    }
    traversal::connected_components(g).1 == 1
}

/// Checks the structural preconditions of `workload` against `graph`.
///
/// The checks are deliberately at most one `O(n + m)` pass, so a service can
/// evaluate all twenty at load time ([`supported_workloads`]).
pub fn supported(workload: Workload, graph: &Graph) -> Result<(), Unsupported> {
    let fail = |reason: &'static str| Err(Unsupported { workload, reason });
    if graph.num_vertices() < 2 {
        return fail("graph has fewer than two vertices");
    }
    match workload {
        Workload::Wcc | Workload::Scc if !graph.is_directed() => fail("requires a directed graph"),
        Workload::GraphSim | Workload::DualSim | Workload::StrongSim if !graph.is_directed() => {
            fail("simulation requires a directed data graph")
        }
        Workload::Mst | Workload::Matching if !graph.is_weighted() => fail("requires edge weights"),
        Workload::EulerTour | Workload::TreeOrder if !is_tree(graph) => {
            fail("requires an undirected tree")
        }
        Workload::BipartiteMatching if graph.is_directed() || bipartite_split(graph).is_none() => {
            fail("requires a layered bipartite graph")
        }
        Workload::Diameter
        | Workload::Apsp
        | Workload::Bcc
        | Workload::SpanningTree
        | Workload::CcHashMin
        | Workload::CcSv
        | Workload::Coloring
            if graph.is_directed() =>
        {
            fail("requires an undirected graph")
        }
        _ => Ok(()),
    }
}

/// The workloads [`supported`] admits on `graph`, in Table 1 order.
pub fn supported_workloads(graph: &Graph) -> Vec<Workload> {
    Workload::ALL
        .into_iter()
        .filter(|&w| supported(w, graph).is_ok())
        .collect()
}

/// One ownership slice's contribution to a workload's scalar answer.
///
/// Every answer is a reduction over per-vertex output, so it decomposes
/// across any partition of the vertex set: a sharded deployment partitions
/// vertex *ownership* (the structural graph is replicated to every shard,
/// the single-process stand-in for the partitioned-plus-replicated storage
/// real vertex-centric systems use), the deterministic algorithm runs
/// **once** ([`run_workload_sliced`]), its per-vertex output is attributed
/// element by element to the slice that owns the vertex, and the gather
/// side folds the slices' partials back into the global answer with
/// [`Partial::merge`] and [`Partial::finish`]. The folds are exact — not
/// approximations — because the slices partition one output vector: a sum
/// over the vertex set is the sum of the per-slice sums, a maximum the
/// maximum of the per-slice maxima. [`run_workload`] is the one-slice case.
///
/// Merging is only defined between partials of the same variant (a
/// scattered request always produces same-variant legs, since they are
/// slices of one run of one workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Partial {
    /// A summable count (reached vertices, component representatives,
    /// matched edges, …).
    Sum(u64),
    /// A slice maximum (eccentricities, color counts).
    Max(u64),
    /// The owned argmax; `score` is `NEG_INFINITY` for an empty slice. The
    /// merge keeps the best score, breaking exact ties toward the higher
    /// vertex id — the same winner as a full-vector `max_by` scan.
    ArgMax {
        /// Best score in the owned slice.
        score: f64,
        /// Vertex achieving it (ties resolved toward the higher id).
        vertex: u64,
    },
}

impl Partial {
    /// Folds another shard's partial into this one.
    ///
    /// # Panics
    /// Panics if the variants differ — that is a router bug, not a data
    /// condition.
    pub fn merge(self, other: Partial) -> Partial {
        match (self, other) {
            (Partial::Sum(a), Partial::Sum(b)) => Partial::Sum(a + b),
            (Partial::Max(a), Partial::Max(b)) => Partial::Max(a.max(b)),
            (
                Partial::ArgMax {
                    score: sa,
                    vertex: va,
                },
                Partial::ArgMax {
                    score: sb,
                    vertex: vb,
                },
            ) => {
                // Higher score wins; an exact tie goes to the higher vertex
                // id, matching the last-maximum convention of the
                // single-instance `max_by` scan over ascending ids.
                if sb > sa || (sb == sa && vb > va) {
                    Partial::ArgMax {
                        score: sb,
                        vertex: vb,
                    }
                } else {
                    Partial::ArgMax {
                        score: sa,
                        vertex: va,
                    }
                }
            }
            (a, b) => panic!("cannot merge mismatched partials {a:?} and {b:?}"),
        }
    }

    /// The merged global scalar answer.
    pub fn finish(self) -> u64 {
        match self {
            Partial::Sum(x) | Partial::Max(x) => x,
            Partial::ArgMax { vertex, .. } => vertex,
        }
    }
}

/// Result of one shard-partial workload execution.
#[derive(Debug, Clone)]
pub struct PartialRun {
    /// Engine instrumentation of the (full, replicated) run.
    pub stats: RunStats,
    /// The owned slice's contribution to the answer.
    pub partial: Partial,
}

/// Result of one *sliced* workload execution: a single engine run reduced
/// to one [`Partial`] per ownership slice.
#[derive(Debug, Clone)]
pub struct SlicedRun {
    /// Engine instrumentation of the one run every slice shares.
    pub stats: RunStats,
    /// `partials[s]` is slice `s`'s contribution to the answer.
    pub partials: Vec<Partial>,
}

/// Folds per-vertex outputs into per-slice accumulators in one pass. A
/// vertex whose `owner` is not a slice index contributes to no slice.
struct Slicer<'a> {
    slices: usize,
    owner: &'a dyn Fn(VertexId) -> usize,
}

impl Slicer<'_> {
    /// How many of `vertices` each slice owns.
    fn counts(&self, vertices: impl Iterator<Item = VertexId>) -> Vec<Partial> {
        let mut acc = vec![0u64; self.slices];
        for v in vertices {
            if let Some(a) = acc.get_mut((self.owner)(v)) {
                *a += 1;
            }
        }
        acc.into_iter().map(Partial::Sum).collect()
    }

    /// Each slice's maximum over its owned `(vertex, value)` items (0 for
    /// an empty slice).
    fn maxes(&self, items: impl Iterator<Item = (VertexId, u64)>) -> Vec<Partial> {
        let mut acc = vec![0u64; self.slices];
        for (v, x) in items {
            if let Some(a) = acc.get_mut((self.owner)(v)) {
                *a = (*a).max(x);
            }
        }
        acc.into_iter().map(Partial::Max).collect()
    }

    /// Each slice's owned argmax of `scores` (indexed by vertex).
    fn argmaxes(&self, scores: &[f64]) -> Vec<Partial> {
        let mut acc = vec![
            Partial::ArgMax {
                score: f64::NEG_INFINITY,
                vertex: 0
            };
            self.slices
        ];
        for (v, &score) in ids(scores) {
            if let Some(a) = acc.get_mut((self.owner)(v)) {
                *a = a.merge(Partial::ArgMax {
                    score,
                    vertex: u64::from(v),
                });
            }
        }
        acc
    }
}

/// A per-vertex output vector as `(vertex, value)` pairs.
fn ids<T>(values: &[T]) -> impl Iterator<Item = (VertexId, &T)> {
    values.iter().enumerate().map(|(v, x)| (v as VertexId, x))
}

/// Runs `workload` **once** and reduces its per-vertex output to one
/// [`Partial`] per ownership slice: the seed picks the source vertex (or
/// query pattern) of source-parameterized workloads, the superstep cap is
/// clamped to [`SERVICE_MAX_SUPERSTEPS`], and every output element is
/// attributed to the slice `owner(vertex)` names.
///
/// `owner` maps every vertex to a slice index in `0..slices`, so the slices
/// partition the vertex set; under that contract, merging all `slices`
/// partials gives the same answer at every slice count, which is
/// [`run_workload`]'s. This is what a sharded service's shared run calls:
/// one engine execution answers every shard's scattered leg.
///
/// Returns the failed precondition for unsupported workloads.
pub fn run_workload_sliced(
    workload: Workload,
    graph: &Graph,
    config: &PregelConfig,
    seed: u64,
    slices: usize,
    owner: &dyn Fn(VertexId) -> usize,
) -> Result<SlicedRun, Unsupported> {
    supported(workload, graph)?;
    let cfg = config
        .clone()
        .with_max_supersteps(config.max_supersteps.min(SERVICE_MAX_SUPERSTEPS));
    let mut rng = SplitMix64::new(seed);
    let source = rng.next_index(graph.num_vertices()) as u32;
    let by = Slicer { slices, owner };
    // Count component representatives: labels are normalized to the
    // smallest member id, so each component is counted exactly once, by
    // whichever slice owns its representative.
    let reps = |components: &[VertexId]| {
        by.counts(ids(components).filter(|&(v, &c)| c == v).map(|(v, _)| v))
    };
    // Count matched edges at their lower endpoint so each edge is owned by
    // exactly one slice.
    let mates = |mate: &[VertexId]| {
        by.counts(
            ids(mate)
                .filter(|&(v, &m)| m != INVALID_VERTEX && v < m)
                .map(|(v, _)| v),
        )
    };
    // Match pairs `(q, v)` are attributed to the data vertex `v`'s owner.
    let matched = |matches: &[Vec<u32>]| by.counts(matches.iter().flatten().copied());
    let (partials, stats) = match workload {
        Workload::Diameter | Workload::Apsp => {
            let r = vcgp_algorithms::diameter::run(graph, &cfg);
            (
                by.maxes(ids(&r.eccentricities).map(|(v, &e)| (v, u64::from(e)))),
                r.stats,
            )
        }
        Workload::PageRank => {
            let r = vcgp_algorithms::pagerank::run(graph, 0.85, SERVICE_PAGERANK_ITERS, &cfg);
            (by.argmaxes(&r.scores), r.stats)
        }
        Workload::CcHashMin => {
            let r = vcgp_algorithms::cc_hashmin::run(graph, &cfg);
            (reps(&r.components), r.stats)
        }
        Workload::CcSv => {
            let r = vcgp_algorithms::cc_sv::run(graph, &cfg);
            (reps(&r.components), r.stats)
        }
        Workload::Wcc => {
            let r = vcgp_algorithms::wcc::run(graph, &cfg);
            (reps(&r.components), r.stats)
        }
        Workload::Scc => {
            let r = vcgp_algorithms::scc::run(graph, &cfg);
            (reps(&r.components), r.stats)
        }
        Workload::EulerTour => {
            // The tour length: each arc is attributed to its source vertex.
            let r = vcgp_algorithms::euler_tour::run(graph, 0, &cfg);
            (by.counts(r.tour.iter().map(|&(u, _)| u)), r.stats)
        }
        Workload::TreeOrder => {
            // The answer is the numbered-vertex count; each slice reports
            // its owned vertices.
            let r = vcgp_algorithms::tree_order::run(graph, 0, &cfg);
            (by.counts(ids(&r.pre).map(|(v, _)| v)), r.stats)
        }
        Workload::SpanningTree => {
            // Canonical (min, max) edges are attributed to their min
            // endpoint's owner.
            let r = vcgp_algorithms::spanning_tree::run(graph, &cfg);
            (by.counts(r.tree_edges.iter().map(|&(a, _)| a)), r.stats)
        }
        Workload::Mst => {
            let r = vcgp_algorithms::mst_boruvka::run(graph, &cfg);
            (by.counts(r.edges.iter().map(|&(u, _, _)| u)), r.stats)
        }
        Workload::Coloring => {
            // `num_colors` = max color + 1 and MIS rounds never skip a
            // color, so slice maxima of `color + 1` merge exactly.
            let r = vcgp_algorithms::coloring_mis::run(graph, &cfg);
            (
                by.maxes(ids(&r.colors).map(|(v, &c)| (v, u64::from(c) + 1))),
                r.stats,
            )
        }
        Workload::Matching => {
            let r = vcgp_algorithms::matching_preis::run(graph, &cfg);
            (mates(&r.mate), r.stats)
        }
        Workload::BipartiteMatching => {
            let nl = bipartite_split(graph).expect("checked by supported()");
            let r = vcgp_algorithms::bipartite_matching::run(graph, nl, &cfg);
            (mates(&r.mate), r.stats)
        }
        Workload::Betweenness => {
            // Single seeded source: full Brandes is Θ(nm) and belongs in the
            // batch harness, not a per-request path.
            let r = vcgp_algorithms::betweenness::run(graph, Some(&[source]), &cfg);
            (by.argmaxes(&r.scores), r.stats)
        }
        Workload::Sssp => {
            let r = vcgp_algorithms::sssp::run(graph, source, &cfg);
            (
                by.counts(ids(&r.dist).filter(|(_, d)| d.is_finite()).map(|(v, _)| v)),
                r.stats,
            )
        }
        Workload::GraphSim => {
            let q = seeded_query(graph, seed);
            let r = vcgp_algorithms::graph_simulation::run(&q, graph, &cfg);
            (matched(&r.matches), r.stats)
        }
        Workload::DualSim => {
            let q = seeded_query(graph, seed);
            let r = vcgp_algorithms::dual_simulation::run(&q, graph, &cfg);
            (matched(&r.matches), r.stats)
        }
        Workload::StrongSim => {
            let q = seeded_query(graph, seed);
            let r = vcgp_algorithms::strong_simulation::run(&q, graph, &cfg);
            (
                by.counts(
                    ids(&r.centers)
                        .filter(|(_, c)| !c.is_empty())
                        .map(|(w, _)| w),
                ),
                r.stats,
            )
        }
        Workload::Bcc => {
            // Blocks carry no per-vertex representative, but they do have a
            // canonical per-*edge* one: every block is counted exactly once,
            // by the owner of the minimum vertex id across its edges.
            let r = vcgp_algorithms::bcc::run(graph, &cfg);
            let mut rep: Vec<VertexId> = vec![INVALID_VERTEX; r.count];
            for ((u, v, _), &b) in graph.edges().zip(&r.block_of_edge) {
                let lo = u.min(v);
                let slot = &mut rep[b as usize];
                if *slot == INVALID_VERTEX || lo < *slot {
                    *slot = lo;
                }
            }
            (
                by.counts(rep.into_iter().filter(|&v| v != INVALID_VERTEX)),
                r.stats,
            )
        }
    };
    Ok(SlicedRun { stats, partials })
}

/// Runs `workload`'s scattered leg for one ownership predicate: the
/// two-slice case of [`run_workload_sliced`] (owned / not owned), keeping
/// the owned slice's [`Partial`].
///
/// The caller guarantees the ownership predicates of the legs it merges
/// partition the vertex set; under that contract, merging every leg's
/// partial reproduces [`run_workload`]'s answer exactly. Each call is a
/// full engine run — a service answering several legs of one request
/// should call [`run_workload_sliced`] once instead.
pub fn run_workload_partial(
    workload: Workload,
    graph: &Graph,
    config: &PregelConfig,
    seed: u64,
    owns: &dyn Fn(VertexId) -> bool,
) -> Result<PartialRun, Unsupported> {
    let run = run_workload_sliced(workload, graph, config, seed, 2, &|v| usize::from(!owns(v)))?;
    Ok(PartialRun {
        stats: run.stats,
        partial: run.partials[0],
    })
}

/// A deterministic 2-cycle query pattern over the label of a seeded data
/// vertex — the cheapest query that still drives every simulation variant's
/// refinement loop.
fn seeded_query(graph: &Graph, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let v = rng.next_index(graph.num_vertices()) as u32;
    let label = graph.label(v);
    let mut qb = GraphBuilder::directed(2);
    qb.add_edge(0, 1);
    qb.add_edge(1, 0);
    qb.set_labels(vec![label, label]);
    qb.build()
}

/// Runs `workload` against the resident `graph`: the one-slice case of
/// [`run_workload_sliced`].
///
/// `seed` parameterizes source-dependent workloads; `config` supplies the
/// engine settings (its superstep cap is clamped to
/// [`SERVICE_MAX_SUPERSTEPS`]). Returns the run statistics plus a
/// workload-specific scalar answer, or the failed precondition.
pub fn run_workload(
    workload: Workload,
    graph: &Graph,
    config: &PregelConfig,
    seed: u64,
) -> Result<ServiceRun, Unsupported> {
    let run = run_workload_sliced(workload, graph, config, seed, 1, &|_| 0)?;
    Ok(ServiceRun {
        answer: run.partials[0].finish(),
        stats: run.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    #[test]
    fn capability_set_on_plain_undirected_graph() {
        let g = generators::gnm_connected(64, 128, 5);
        let caps = supported_workloads(&g);
        // Unweighted undirected graph: no MST/matching (weights), no
        // WCC/SCC (direction), no tree rows, no bipartite layout.
        for w in [
            Workload::Mst,
            Workload::Matching,
            Workload::Wcc,
            Workload::Scc,
            Workload::EulerTour,
            Workload::TreeOrder,
            Workload::BipartiteMatching,
        ] {
            assert!(!caps.contains(&w), "{w:?} should be unsupported");
            assert!(supported(w, &g).is_err());
        }
        for w in [
            Workload::Diameter,
            Workload::PageRank,
            Workload::CcHashMin,
            Workload::Sssp,
        ] {
            assert!(caps.contains(&w), "{w:?} should be supported");
        }
    }

    #[test]
    fn capability_set_widens_with_structure() {
        let tree = generators::random_tree(32, 9);
        assert!(supported(Workload::EulerTour, &tree).is_ok());
        assert!(supported(Workload::TreeOrder, &tree).is_ok());

        let bip = generators::complete_bipartite(8, 4);
        assert!(supported(Workload::BipartiteMatching, &bip).is_ok());
        assert_eq!(bipartite_split(&bip), Some(8));

        let weighted = generators::with_random_weights(
            &generators::gnm_connected(24, 48, 3),
            0.0,
            1.0,
            3,
            true,
        );
        assert!(supported(Workload::Mst, &weighted).is_ok());
        assert!(supported(Workload::Matching, &weighted).is_ok());

        let digraph = generators::digraph_gnm(24, 60, 4);
        assert!(supported(Workload::Wcc, &digraph).is_ok());
        assert!(supported(Workload::Scc, &digraph).is_ok());
        assert!(supported(Workload::CcHashMin, &digraph).is_err());
    }

    #[test]
    fn tiny_graph_rejected() {
        let g = generators::path(1);
        for w in Workload::ALL {
            assert!(supported(w, &g).is_err(), "{w:?}");
        }
    }

    #[test]
    fn run_workload_answers_are_sane() {
        let g = generators::gnm_connected(48, 96, 7);
        let cfg = PregelConfig::single_worker();
        let cc = run_workload(Workload::CcHashMin, &g, &cfg, 1).unwrap();
        assert_eq!(cc.answer, 1, "connected input has one component");
        assert!(cc.stats.supersteps() > 0);

        let sssp = run_workload(Workload::Sssp, &g, &cfg, 1).unwrap();
        assert_eq!(sssp.answer, 48, "connected: every vertex reached");

        let span = run_workload(Workload::SpanningTree, &g, &cfg, 1).unwrap();
        assert_eq!(span.answer, 47, "spanning tree has n - 1 edges");

        let err = run_workload(Workload::Mst, &g, &cfg, 1).unwrap_err();
        assert_eq!(err.workload, Workload::Mst);
    }

    #[test]
    fn run_workload_is_deterministic_per_seed() {
        let g = generators::labeled_digraph(40, 120, 3, 11);
        let cfg = PregelConfig::single_worker();
        let a = run_workload(Workload::GraphSim, &g, &cfg, 42).unwrap();
        let b = run_workload(Workload::GraphSim, &g, &cfg, 42).unwrap();
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.stats.supersteps(), b.stats.supersteps());
        assert_eq!(a.stats.total_messages(), b.stats.total_messages());
    }

    /// One input per structural family, so that between them every Table 1
    /// workload is supported somewhere.
    fn one_graph_per_family() -> Vec<Graph> {
        vec![
            generators::with_random_weights(
                &generators::gnm_connected(24, 48, 3),
                0.0,
                1.0,
                3,
                true,
            ),
            generators::random_tree(20, 9),
            generators::complete_bipartite(6, 4),
            generators::labeled_digraph(24, 72, 3, 11),
        ]
    }

    /// `(family, workload, answer, supersteps, total messages)` at seed 5
    /// on [`one_graph_per_family`], frozen from the deleted whole-run
    /// `run_workload` (one match arm per workload, reducing each full
    /// output vector directly), so the sliced run is checked against an
    /// oracle it does not share code with.
    const FROZEN_WHOLE_RUNS: [(usize, Workload, u64, u64, u64); 43] = {
        use Workload as W;
        [
            (0, W::Diameter, 4, 6, 2304),
            (0, W::PageRank, 0, 11, 960),
            (0, W::CcHashMin, 1, 4, 166),
            (0, W::CcSv, 1, 48, 1240),
            (0, W::Bcc, 4, 102, 2884),
            (0, W::SpanningTree, 23, 48, 1240),
            (0, W::Mst, 23, 27, 217),
            (0, W::Coloring, 5, 51, 101),
            (0, W::Matching, 9, 10, 102),
            (0, W::Betweenness, 0, 11, 189),
            (0, W::Sssp, 24, 7, 120),
            (0, W::Apsp, 4, 6, 2304),
            (1, W::Diameter, 8, 10, 760),
            (1, W::PageRank, 4, 11, 380),
            (1, W::CcHashMin, 1, 7, 121),
            (1, W::CcSv, 1, 64, 1037),
            (1, W::Bcc, 19, 117, 2160),
            (1, W::EulerTour, 38, 2, 38),
            (1, W::TreeOrder, 20, 43, 1066),
            (1, W::SpanningTree, 19, 64, 1037),
            (1, W::Coloring, 3, 33, 39),
            (1, W::Betweenness, 4, 15, 73),
            (1, W::Sssp, 20, 8, 38),
            (1, W::Apsp, 8, 10, 760),
            (2, W::Diameter, 2, 4, 480),
            (2, W::PageRank, 9, 11, 480),
            (2, W::CcHashMin, 1, 3, 68),
            (2, W::CcSv, 1, 32, 396),
            (2, W::Bcc, 1, 77, 899),
            (2, W::SpanningTree, 9, 32, 396),
            (2, W::Coloring, 2, 78, 48),
            (2, W::BipartiteMatching, 4, 10, 53),
            (2, W::Betweenness, 9, 7, 92),
            (2, W::Sssp, 10, 4, 48),
            (2, W::Apsp, 2, 4, 480),
            (3, W::PageRank, 7, 11, 720),
            (3, W::Wcc, 1, 4, 292),
            (3, W::Scc, 3, 13, 233),
            (3, W::Betweenness, 11, 13, 134),
            (3, W::Sssp, 23, 7, 68),
            (3, W::GraphSim, 14, 3, 31),
            (3, W::DualSim, 12, 3, 60),
            (3, W::StrongSim, 4, 5, 100),
        ]
    };

    #[test]
    fn every_slice_count_merges_to_the_frozen_whole_answer_for_all_twenty_workloads() {
        let cfg = PregelConfig::single_worker();
        let graphs = one_graph_per_family();
        let mut frozen = FROZEN_WHOLE_RUNS.iter();
        for (family, g) in graphs.iter().enumerate() {
            let n = g.num_vertices();
            for w in supported_workloads(g) {
                let &(f, fw, answer, supersteps, messages) =
                    frozen.next().expect("a frozen row per supported workload");
                assert_eq!((f, fw), (family, w), "frozen rows follow Table 1 order");
                let whole = run_workload(w, g, &cfg, 5).unwrap();
                let got = (
                    whole.answer,
                    whole.stats.supersteps(),
                    whole.stats.total_messages(),
                );
                assert_eq!(
                    got,
                    (answer, supersteps, messages),
                    "{w:?} on family {family}"
                );
                for slices in 1..=4usize {
                    // Interleaved and blocked ownership.
                    let owners: [&dyn Fn(VertexId) -> usize; 2] =
                        [&|v| v as usize % slices, &|v| {
                            (v as usize * slices / n).min(slices - 1)
                        }];
                    for owner in owners {
                        let run = run_workload_sliced(w, g, &cfg, 5, slices, owner).unwrap();
                        assert_eq!(run.partials.len(), slices);
                        let merged = run.partials.iter().copied().reduce(Partial::merge).unwrap();
                        let got = (
                            merged.finish(),
                            run.stats.supersteps(),
                            run.stats.total_messages(),
                        );
                        let what = format!("{w:?} on family {family} in {slices} slices");
                        assert_eq!(got, (answer, supersteps, messages), "{what}");
                    }
                }
            }
        }
        assert!(frozen.next().is_none(), "every frozen row was checked");
        let covered: Vec<Workload> = FROZEN_WHOLE_RUNS.iter().map(|r| r.1).collect();
        for w in Workload::ALL {
            assert!(
                covered.contains(&w),
                "{w:?} is supported by none of the inputs"
            );
        }
    }

    #[test]
    fn a_leg_is_one_slice_of_the_sliced_run() {
        // `run_workload_partial` filters by an ownership predicate, as every
        // scattered leg once did for itself; slice `s` of the sliced run is
        // that leg's partial, bit for bit, for every shard of a partition.
        let cfg = PregelConfig::single_worker();
        for g in one_graph_per_family() {
            for w in supported_workloads(&g) {
                let sliced = run_workload_sliced(w, &g, &cfg, 5, 3, &|v| v as usize % 3).unwrap();
                for s in 0..3 {
                    let leg =
                        run_workload_partial(w, &g, &cfg, 5, &|v| v as usize % 3 == s).unwrap();
                    assert_eq!(leg.partial, sliced.partials[s], "{w:?} shard {s}");
                    assert_eq!(leg.stats.supersteps(), sliced.stats.supersteps(), "{w:?}");
                }
            }
        }
    }

    #[test]
    fn vertices_owned_by_no_slice_contribute_to_none() {
        let g = generators::gnm_connected(24, 48, 3);
        let cfg = PregelConfig::single_worker();
        // Odd vertices map past the last slice: only the even ones count.
        let run =
            run_workload_sliced(Workload::Sssp, &g, &cfg, 1, 1, &|v| (v % 2) as usize).unwrap();
        assert_eq!(run.partials, vec![Partial::Sum(12)]);
    }

    #[test]
    fn superstep_budget_is_clamped() {
        let g = generators::path(16);
        let cfg = PregelConfig::single_worker().with_max_supersteps(u64::MAX);
        // The clamp happens inside run_workload; the run converges long
        // before the budget, so this just must not wedge or panic.
        let r = run_workload(Workload::CcHashMin, &g, &cfg, 0).unwrap();
        assert!(r.stats.supersteps() <= SERVICE_MAX_SUPERSTEPS);
    }
}
