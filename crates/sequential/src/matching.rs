//! Rows 13 and 14: matching baselines.
//!
//! Row 13 (maximum weight matching): the paper's baseline is Preis's
//! linear-time 1/2-approximation \[16\]. We implement the standard greedy
//! heaviest-edge-first realization (`O(m log m)` from sorting); with
//! distinct edge weights its output coincides exactly with the
//! locally-dominant matching the vertex-centric algorithm computes, which
//! makes the two implementations comparable edge-for-edge.
//!
//! Row 14 (bipartite maximal matching, unweighted): greedy `O(m + n)`.

use crate::work::Work;
use vcgp_graph::{Graph, VertexId, INVALID_VERTEX};

/// Result of a matching baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchingResult {
    /// `mate[v]` is `v`'s partner, or `INVALID_VERTEX` if unmatched.
    pub mate: Vec<VertexId>,
    /// Total weight of matched edges.
    pub total_weight: f64,
    /// Number of matched edges.
    pub size: usize,
    /// Operation count.
    pub work: u64,
}

/// Greedy heaviest-edge-first matching (Preis-style 1/2-approximation).
/// Ties are broken by endpoint ids, matching the vertex-centric rule.
pub fn mwm_greedy(g: &Graph) -> MatchingResult {
    assert!(!g.is_directed(), "matching requires an undirected graph");
    let n = g.num_vertices();
    let mut work = Work::new();
    let mut edges: Vec<(VertexId, VertexId, f64)> = g.edges().filter(|&(u, v, _)| u != v).collect();
    edges.sort_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
    work.charge(Work::sort_cost(edges.len()));
    let mut mate = vec![INVALID_VERTEX; n];
    let mut total = 0.0;
    let mut size = 0usize;
    for (u, v, w) in edges {
        work.charge(1);
        if mate[u as usize] == INVALID_VERTEX && mate[v as usize] == INVALID_VERTEX {
            mate[u as usize] = v;
            mate[v as usize] = u;
            total += w;
            size += 1;
        }
    }
    MatchingResult {
        mate,
        total_weight: total,
        size,
        work: work.count(),
    }
}

/// Greedy maximal matching for a bipartite graph whose left side is
/// `0..nl`: every left vertex grabs its first free neighbor. `O(m + n)`.
pub fn bipartite_greedy(g: &Graph, nl: usize) -> MatchingResult {
    assert!(!g.is_directed(), "matching requires an undirected graph");
    let n = g.num_vertices();
    assert!(nl <= n);
    let mut work = Work::new();
    let mut mate = vec![INVALID_VERTEX; n];
    let mut size = 0usize;
    for u in 0..nl as VertexId {
        work.charge(1);
        if mate[u as usize] != INVALID_VERTEX {
            continue;
        }
        for &v in g.out_neighbors(u) {
            work.charge(1);
            if mate[v as usize] == INVALID_VERTEX {
                mate[u as usize] = v;
                mate[v as usize] = u;
                size += 1;
                break;
            }
        }
    }
    MatchingResult {
        mate,
        total_weight: size as f64,
        size,
        work: work.count(),
    }
}

/// Validates that `mate` is a matching on `g`, i.e. symmetric and along
/// real edges. Shared with the vertex-centric tests.
pub fn is_valid_matching(g: &Graph, mate: &[VertexId]) -> bool {
    if mate.len() != g.num_vertices() {
        return false;
    }
    for v in g.vertices() {
        let m = mate[v as usize];
        if m == INVALID_VERTEX {
            continue;
        }
        if m == v || mate[m as usize] != v || !g.has_edge(v, m) {
            return false;
        }
    }
    true
}

/// Validates maximality: no edge has both endpoints unmatched.
pub fn is_maximal_matching(g: &Graph, mate: &[VertexId]) -> bool {
    is_valid_matching(g, mate)
        && g.edges().all(|(u, v, _)| {
            u == v || mate[u as usize] != INVALID_VERTEX || mate[v as usize] != INVALID_VERTEX
        })
}

/// Maximum-weight matching by brute force (test oracle; exponential).
#[cfg(test)]
fn mwm_brute(g: &Graph) -> f64 {
    let edges: Vec<(VertexId, VertexId, f64)> = g.edges().filter(|&(u, v, _)| u != v).collect();
    fn recurse(edges: &[(VertexId, VertexId, f64)], used: &mut Vec<bool>) -> f64 {
        if edges.is_empty() {
            return 0.0;
        }
        let (u, v, w) = edges[0];
        let skip = recurse(&edges[1..], used);
        if used[u as usize] || used[v as usize] {
            return skip;
        }
        used[u as usize] = true;
        used[v as usize] = true;
        let take = w + recurse(&edges[1..], used);
        used[u as usize] = false;
        used[v as usize] = false;
        take.max(skip)
    }
    let mut used = vec![false; g.num_vertices()];
    recurse(&edges, &mut used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::{generators, GraphBuilder};

    fn weighted(n: usize, m: usize, seed: u64) -> Graph {
        generators::with_random_weights(&generators::gnm(n, m, seed), 0.0, 1.0, seed, true)
    }

    #[test]
    fn triangle_takes_heaviest() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(1, 2, 3.0);
        b.add_weighted_edge(0, 2, 2.0);
        let r = mwm_greedy(&b.build());
        assert_eq!(r.size, 1);
        assert_eq!(r.total_weight, 3.0);
        assert_eq!(r.mate[1], 2);
    }

    #[test]
    fn greedy_is_half_approximation() {
        for seed in 0..5 {
            let g = weighted(12, 20, seed);
            let r = mwm_greedy(&g);
            let opt = mwm_brute(&g);
            assert!(is_valid_matching(&g, &r.mate), "seed {seed}");
            assert!(
                r.total_weight * 2.0 + 1e-9 >= opt,
                "seed {seed}: {} vs opt {opt}",
                r.total_weight
            );
        }
    }

    #[test]
    fn greedy_matching_is_maximal() {
        for seed in 0..5 {
            let g = weighted(50, 120, seed);
            let r = mwm_greedy(&g);
            assert!(is_maximal_matching(&g, &r.mate), "seed {seed}");
        }
    }

    #[test]
    fn bipartite_greedy_is_maximal() {
        for seed in 0..5 {
            let g = generators::bipartite(30, 30, 120, seed);
            let r = bipartite_greedy(&g, 30);
            assert!(is_maximal_matching(&g, &r.mate), "seed {seed}");
            assert!(r.size >= 1);
        }
    }

    #[test]
    fn bipartite_perfect_on_complete() {
        let g = generators::bipartite(4, 4, 16, 1);
        let r = bipartite_greedy(&g, 4);
        assert_eq!(r.size, 4);
    }

    #[test]
    fn empty_graph_empty_matching() {
        let g = GraphBuilder::new(3).build();
        let r = mwm_greedy(&g);
        assert_eq!(r.size, 0);
        assert!(is_maximal_matching(&g, &r.mate));
    }

    #[test]
    fn validators_reject_bad_matchings() {
        let g = generators::path(4);
        // Asymmetric.
        assert!(!is_valid_matching(
            &g,
            &[1, INVALID_VERTEX, INVALID_VERTEX, INVALID_VERTEX]
        ));
        // Non-edge.
        assert!(!is_valid_matching(
            &g,
            &[2, INVALID_VERTEX, 0, INVALID_VERTEX]
        ));
        // Valid but not maximal (edge 2-3 free).
        assert!(is_valid_matching(
            &g,
            &[1, 0, INVALID_VERTEX, INVALID_VERTEX]
        ));
        assert!(!is_maximal_matching(
            &g,
            &[1, 0, INVALID_VERTEX, INVALID_VERTEX]
        ));
    }
}
