//! §3.8 demonstrator baseline: ad-hoc s-t reachability by bidirectional
//! BFS with early termination. The paper's first "difficult" category is
//! online ad-hoc queries, where "the vertex-centric model usually operates
//! on the entire graph" while a sequential engine touches only the
//! frontier it needs.

use crate::work::Work;
use std::collections::VecDeque;
use vcgp_graph::{Graph, VertexId};

/// Result of the reachability baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachabilityResult {
    /// Whether `t` is reachable from `s`.
    pub reachable: bool,
    /// Hop distance when reachable.
    pub distance: Option<u32>,
    /// Vertices touched (the locality the vertex-centric model gives up).
    pub visited: usize,
    /// Operation count.
    pub work: u64,
}

/// Bidirectional BFS on an undirected graph, stopping at the first meeting
/// point.
pub fn st_reachability(g: &Graph, s: VertexId, t: VertexId) -> ReachabilityResult {
    assert!(
        !g.is_directed(),
        "bidirectional BFS shown for undirected graphs"
    );
    let n = g.num_vertices();
    let mut work = Work::new();
    if s == t {
        return ReachabilityResult {
            reachable: true,
            distance: Some(0),
            visited: 1,
            work: 1,
        };
    }
    // dist_s / dist_t in one array: side 0 from s, side 1 from t.
    let mut dist = vec![[u32::MAX; 2]; n];
    let mut queues = [VecDeque::from([s]), VecDeque::from([t])];
    dist[s as usize][0] = 0;
    dist[t as usize][1] = 0;
    let mut visited = 2usize;
    loop {
        // Expand the smaller frontier one full level.
        let side = usize::from(queues[1].len() < queues[0].len());
        if queues[side].is_empty() {
            return ReachabilityResult {
                reachable: false,
                distance: None,
                visited,
                work: work.count(),
            };
        }
        let level = dist[queues[side][0] as usize][side];
        while queues[side]
            .front()
            .is_some_and(|&v| dist[v as usize][side] == level)
        {
            let u = queues[side].pop_front().expect("checked front");
            work.charge(1);
            for &v in g.out_neighbors(u) {
                work.charge(1);
                if dist[v as usize][1 - side] != u32::MAX {
                    // Frontiers met.
                    return ReachabilityResult {
                        reachable: true,
                        distance: Some(dist[u as usize][side] + 1 + dist[v as usize][1 - side]),
                        visited,
                        work: work.count(),
                    };
                }
                if dist[v as usize][side] == u32::MAX {
                    dist[v as usize][side] = level + 1;
                    visited += 1;
                    queues[side].push_back(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::{generators, GraphBuilder};

    #[test]
    fn path_endpoints() {
        let g = generators::path(50);
        let r = st_reachability(&g, 0, 49);
        assert!(r.reachable);
        assert_eq!(r.distance, Some(49));
    }

    #[test]
    fn same_vertex() {
        let g = generators::path(5);
        let r = st_reachability(&g, 3, 3);
        assert!(r.reachable);
        assert_eq!(r.distance, Some(0));
        assert_eq!(r.visited, 1);
    }

    #[test]
    fn disconnected_pair() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1);
        b.add_edge(3, 4);
        let r = st_reachability(&b.build(), 0, 4);
        assert!(!r.reachable);
        assert_eq!(r.distance, None);
    }

    #[test]
    fn distances_match_bfs() {
        for seed in 0..5 {
            let g = generators::gnm_connected(80, 180, seed);
            let levels = vcgp_graph::traversal::bfs_levels(&g, 7);
            for t in [0u32, 19, 55, 79] {
                let r = st_reachability(&g, 7, t);
                assert!(r.reachable);
                assert_eq!(r.distance, Some(levels[t as usize]), "seed {seed}, t {t}");
            }
        }
    }

    #[test]
    fn locality_beats_full_traversal_on_near_queries() {
        // Adjacent endpoints on a long path: bidirectional BFS touches a
        // handful of vertices where a full BFS would touch all n.
        let g = generators::path(10_000);
        let r = st_reachability(&g, 5_000, 5_001);
        assert!(r.reachable);
        assert!(r.visited < 10, "visited {} vertices", r.visited);
    }
}
