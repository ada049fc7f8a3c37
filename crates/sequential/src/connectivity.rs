//! Rows 3, 4, 6, 10: BFS-based connectivity baselines, all `O(m + n)`
//! (Hopcroft & Tarjan \[8\]).

use crate::work::Work;
use std::collections::VecDeque;
use vcgp_graph::{Graph, VertexId, INVALID_VERTEX};

/// Result of the connected-components baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcResult {
    /// The "color" of each vertex: the smallest vertex id in its component
    /// (the paper's convention, §3.3.1).
    pub components: Vec<VertexId>,
    /// Number of components.
    pub count: usize,
    /// Operation count.
    pub work: u64,
}

/// Connected components of an undirected graph by BFS. Row 3/4 baseline.
pub fn cc(g: &Graph) -> CcResult {
    assert!(!g.is_directed(), "cc requires an undirected graph");
    cc_impl(g)
}

fn cc_impl(g: &Graph) -> CcResult {
    let n = g.num_vertices();
    let mut comp = vec![INVALID_VERTEX; n];
    let mut work = Work::new();
    let mut count = 0usize;
    let mut queue = VecDeque::new();
    for s in 0..n as VertexId {
        work.charge(1);
        if comp[s as usize] != INVALID_VERTEX {
            continue;
        }
        count += 1;
        comp[s as usize] = s;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            work.charge(1);
            for &v in g.out_neighbors(u) {
                work.charge(1);
                if comp[v as usize] == INVALID_VERTEX {
                    comp[v as usize] = s;
                    queue.push_back(v);
                }
            }
        }
    }
    CcResult {
        components: comp,
        count,
        work: work.count(),
    }
}

/// Weakly connected components of a digraph: BFS over the underlying
/// undirected graph (edges followed in both directions). Row 6 baseline.
pub fn wcc(g: &Graph) -> CcResult {
    assert!(g.is_directed(), "wcc expects a digraph; use cc otherwise");
    let n = g.num_vertices();
    let mut comp = vec![INVALID_VERTEX; n];
    let mut work = Work::new();
    let mut count = 0usize;
    let mut queue = VecDeque::new();
    // First pass: discover components with arbitrary BFS roots.
    for s in 0..n as VertexId {
        work.charge(1);
        if comp[s as usize] != INVALID_VERTEX {
            continue;
        }
        count += 1;
        let mut members = vec![s];
        let mut min_id = s;
        comp[s as usize] = s;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            work.charge(1);
            for &v in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
                work.charge(1);
                if comp[v as usize] == INVALID_VERTEX {
                    comp[v as usize] = s;
                    min_id = min_id.min(v);
                    members.push(v);
                    queue.push_back(v);
                }
            }
        }
        // Second pass over members normalizes the color to the smallest id.
        for &v in &members {
            work.charge(1);
            comp[v as usize] = min_id;
        }
    }
    CcResult {
        components: comp,
        count,
        work: work.count(),
    }
}

/// Result of the spanning-tree baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningTreeResult {
    /// BFS parent of each vertex (`INVALID_VERTEX` for roots).
    pub parent: Vec<VertexId>,
    /// Number of tree edges (`n - #components`).
    pub tree_edges: usize,
    /// Operation count.
    pub work: u64,
}

/// Spanning forest of an undirected graph by BFS, rooted at the smallest
/// vertex of each component. Row 10 baseline.
pub fn spanning_tree(g: &Graph) -> SpanningTreeResult {
    assert!(
        !g.is_directed(),
        "spanning_tree requires an undirected graph"
    );
    let n = g.num_vertices();
    let mut parent = vec![INVALID_VERTEX; n];
    let mut seen = vec![false; n];
    let mut work = Work::new();
    let mut tree_edges = 0usize;
    let mut queue = VecDeque::new();
    for s in 0..n as VertexId {
        work.charge(1);
        if seen[s as usize] {
            continue;
        }
        seen[s as usize] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            work.charge(1);
            for &v in g.out_neighbors(u) {
                work.charge(1);
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    parent[v as usize] = u;
                    tree_edges += 1;
                    queue.push_back(v);
                }
            }
        }
    }
    SpanningTreeResult {
        parent,
        tree_edges,
        work: work.count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::{generators, GraphBuilder};

    #[test]
    fn cc_matches_traversal_module() {
        for seed in 0..4 {
            let g = generators::gnm(60, 80, seed);
            let result = cc(&g);
            let (expected, count) = vcgp_graph::traversal::connected_components(&g);
            assert_eq!(result.components, expected);
            assert_eq!(result.count, count);
        }
    }

    #[test]
    fn cc_work_is_linear() {
        let small = cc(&generators::gnm_connected(500, 1000, 1)).work;
        let large = cc(&generators::gnm_connected(2000, 4000, 1)).work;
        let ratio = large as f64 / small as f64;
        assert!((3.0..5.5).contains(&ratio), "ratio {ratio} not ~4x");
    }

    #[test]
    fn wcc_ignores_direction() {
        let mut b = GraphBuilder::directed(4);
        b.add_edge(1, 0);
        b.add_edge(2, 1);
        let g = b.build();
        let result = wcc(&g);
        assert_eq!(result.components, vec![0, 0, 0, 3]);
        assert_eq!(result.count, 2);
    }

    #[test]
    fn wcc_color_is_min_id_even_with_late_roots() {
        // Component discovered from vertex 2 must still be colored 0.
        let mut b = GraphBuilder::directed(3);
        b.add_edge(2, 0);
        b.add_edge(2, 1);
        let g = b.build();
        assert_eq!(wcc(&g).components, vec![0, 0, 0]);
    }

    #[test]
    fn spanning_tree_covers_connected_graph() {
        let g = generators::gnm_connected(100, 250, 3);
        let st = spanning_tree(&g);
        assert_eq!(st.tree_edges, 99);
        assert_eq!(st.parent[0], INVALID_VERTEX);
        // Every non-root parent edge must be a real edge.
        for v in 1..100u32 {
            let p = st.parent[v as usize];
            assert_ne!(p, INVALID_VERTEX);
            assert!(g.has_edge(p, v));
        }
    }

    #[test]
    fn spanning_forest_on_disconnected() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(3, 4);
        let st = spanning_tree(&b.build());
        assert_eq!(st.tree_edges, 2);
        assert_eq!(st.parent[2], INVALID_VERTEX);
    }
}
