//! §3.8 demonstrator baseline: triangle counting and local clustering
//! coefficients by forward-degree ordering, `O(m^{3/2})` (Latapy/Schank-
//! Wagner style). The paper lists neighborhood-centric analytics among the
//! workloads that are *fundamentally awkward* for the vertex-centric
//! model; this baseline quantifies the gap.

use crate::work::Work;
use vcgp_graph::{Graph, VertexId};

/// Result of the triangle baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct TriangleResult {
    /// Triangles incident to each vertex.
    pub per_vertex: Vec<u64>,
    /// Total triangle count (each counted once).
    pub total: u64,
    /// Local clustering coefficient per vertex
    /// (`2·tri(v) / (d(v)(d(v)-1))`, 0 for degree < 2).
    pub clustering: Vec<f64>,
    /// Operation count.
    pub work: u64,
}

/// Forward-edge triangle counting: orient each edge toward the higher
/// `(degree, id)` endpoint and intersect forward adjacencies.
pub fn triangles(g: &Graph) -> TriangleResult {
    assert!(
        !g.is_directed(),
        "triangle counting runs on undirected graphs"
    );
    let n = g.num_vertices();
    let mut work = Work::new();
    let rank = |v: VertexId| (g.out_degree(v), v);
    // Forward adjacency: neighbors with higher rank. The lists must be
    // sorted by *rank* (not id): the pair-enumeration below relies on
    // `fv[i+1..]` holding exactly the forward neighbors above `fv[i]` in
    // the orientation order, and the intersections merge in that order.
    let mut forward: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for v in g.vertices() {
        for &u in g.out_neighbors(v) {
            work.charge(1);
            if u != v && rank(u) > rank(v) {
                forward[v as usize].push(u);
            }
        }
        forward[v as usize].sort_by_key(|&u| rank(u));
        work.charge(Work::sort_cost(forward[v as usize].len()));
    }
    let mut per_vertex = vec![0u64; n];
    let mut total = 0u64;
    for v in g.vertices() {
        let fv = &forward[v as usize];
        for (i, &u) in fv.iter().enumerate() {
            // Merge-intersect forward[v][i+1..] with forward[u], both in
            // rank order.
            let (mut a, mut b) = (i + 1, 0usize);
            let fu = &forward[u as usize];
            while a < fv.len() && b < fu.len() {
                work.charge(1);
                match rank(fv[a]).cmp(&rank(fu[b])) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        let w = fv[a];
                        per_vertex[v as usize] += 1;
                        per_vertex[u as usize] += 1;
                        per_vertex[w as usize] += 1;
                        total += 1;
                        a += 1;
                        b += 1;
                    }
                }
            }
        }
    }
    let clustering = per_vertex
        .iter()
        .enumerate()
        .map(|(v, &t)| {
            let d = g.out_degree(v as VertexId) as f64;
            if d < 2.0 {
                0.0
            } else {
                2.0 * t as f64 / (d * (d - 1.0))
            }
        })
        .collect();
    TriangleResult {
        per_vertex,
        total,
        clustering,
        work: work.count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::{generators, GraphBuilder};

    #[test]
    fn single_triangle() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        let r = triangles(&b.build());
        assert_eq!(r.total, 1);
        assert_eq!(r.per_vertex, vec![1, 1, 1]);
        assert_eq!(r.clustering, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn complete_graph_count() {
        // K_6 has C(6,3) = 20 triangles, each vertex in C(5,2) = 10.
        let r = triangles(&generators::complete(6));
        assert_eq!(r.total, 20);
        assert!(r.per_vertex.iter().all(|&t| t == 10));
        assert!(r.clustering.iter().all(|&c| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn trees_have_none() {
        let r = triangles(&generators::random_tree(50, 3));
        assert_eq!(r.total, 0);
        assert!(r.clustering.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn square_with_diagonal() {
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            b.add_edge(u, v);
        }
        let r = triangles(&b.build());
        assert_eq!(r.total, 2);
        assert_eq!(r.per_vertex, vec![2, 1, 2, 1]);
    }

    #[test]
    fn brute_force_agreement() {
        for seed in 0..4 {
            let g = generators::gnm(30, 120, seed);
            let r = triangles(&g);
            // O(n^3) oracle.
            let mut expected = 0u64;
            for a in 0..30u32 {
                for b in (a + 1)..30 {
                    for c in (b + 1)..30 {
                        if g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c) {
                            expected += 1;
                        }
                    }
                }
            }
            assert_eq!(r.total, expected, "seed {seed}");
        }
    }
}
