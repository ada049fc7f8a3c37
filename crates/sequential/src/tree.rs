//! Rows 8 and 9: Euler tour and pre/post-order traversal of a tree, both
//! `O(n)` sequentially.
//!
//! The Euler tour follows the paper's §3.4.1 definition exactly: the
//! successor of directed arc `(u, v)` is `(v, next_v(u))`, where `next_v`
//! cycles through `v`'s *sorted* adjacency list. Pre/post-order numbers are
//! the ones induced by that tour (equivalently: DFS where the children of
//! `v` are visited in cyclic sorted order starting after `v`'s parent) — the
//! same convention the vertex-centric list-ranking pipeline computes, so the
//! two implementations are comparable element-for-element.

use crate::work::Work;
use std::collections::HashMap;
use vcgp_graph::{Graph, VertexId};

/// Result of the Euler-tour baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EulerTourResult {
    /// The tour as a sequence of `2(n-1)` directed arcs, starting at
    /// `(root, first(root))`.
    pub tour: Vec<(VertexId, VertexId)>,
    /// Operation count.
    pub work: u64,
}

/// Index of `u` within `v`'s sorted adjacency list.
fn position_maps(g: &Graph, work: &mut Work) -> HashMap<(VertexId, VertexId), usize> {
    let mut pos = HashMap::with_capacity(g.num_arcs());
    for v in g.vertices() {
        for (i, &u) in g.out_neighbors(v).iter().enumerate() {
            work.charge(1);
            pos.insert((v, u), i);
        }
    }
    pos
}

/// Euler tour of a tree from `root`. Row 8 baseline.
///
/// # Panics
/// Panics if `g` is not a tree or `root` is isolated (`n >= 2` required).
pub fn euler_tour(g: &Graph, root: VertexId) -> EulerTourResult {
    assert!(
        vcgp_graph::traversal::is_tree(g),
        "euler_tour requires a tree"
    );
    let n = g.num_vertices();
    assert!(n >= 2, "euler tour needs at least one edge");
    let mut work = Work::new();
    let pos = position_maps(g, &mut work);
    let first = g.out_neighbors(root)[0];
    let mut tour = Vec::with_capacity(2 * (n - 1));
    let (mut u, mut v) = (root, first);
    for _ in 0..2 * (n - 1) {
        work.charge(1);
        tour.push((u, v));
        // successor of (u, v) = (v, next_v(u))
        let adj = g.out_neighbors(v);
        let i = pos[&(v, u)];
        let next = adj[(i + 1) % adj.len()];
        u = v;
        v = next;
    }
    debug_assert_eq!((u, v), (root, first), "tour must close its circuit");
    EulerTourResult {
        tour,
        work: work.count(),
    }
}

/// Result of the traversal baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeOrderResult {
    /// Pre-order number of each vertex (root gets 0).
    pub pre: Vec<u32>,
    /// Post-order number of each vertex.
    pub post: Vec<u32>,
    /// Operation count.
    pub work: u64,
}

/// Pre- and post-order numbers induced by the Euler tour from `root`.
/// Row 9 baseline (`O(n)` DFS).
pub fn tree_order(g: &Graph, root: VertexId) -> TreeOrderResult {
    assert!(
        vcgp_graph::traversal::is_tree(g),
        "tree_order requires a tree"
    );
    let n = g.num_vertices();
    let mut work = Work::new();
    let mut pre = vec![u32::MAX; n];
    let mut post = vec![u32::MAX; n];
    if n == 1 {
        pre[root as usize] = 0;
        post[root as usize] = 0;
        return TreeOrderResult { pre, post, work: 1 };
    }
    let pos = position_maps(g, &mut work);
    let mut pre_t = 0u32;
    let mut post_t = 0u32;
    // Iterative DFS. Children of v are visited in cyclic sorted order
    // starting after the parent (sorted order at the root), matching the
    // Euler tour.
    struct Frame {
        v: VertexId,
        parent: Option<VertexId>,
        emitted: usize,
    }
    let mut stack = vec![Frame {
        v: root,
        parent: None,
        emitted: 0,
    }];
    pre[root as usize] = pre_t;
    pre_t += 1;
    while let Some(frame) = stack.last_mut() {
        let v = frame.v;
        let adj = g.out_neighbors(v);
        let child_count = adj.len() - usize::from(frame.parent.is_some());
        if frame.emitted < child_count {
            let start = match frame.parent {
                Some(p) => pos[&(v, p)] + 1,
                None => 0,
            };
            let child = adj[(start + frame.emitted) % adj.len()];
            frame.emitted += 1;
            work.charge(1);
            pre[child as usize] = pre_t;
            pre_t += 1;
            stack.push(Frame {
                v: child,
                parent: Some(v),
                emitted: 0,
            });
        } else {
            post[v as usize] = post_t;
            post_t += 1;
            work.charge(1);
            stack.pop();
        }
    }
    TreeOrderResult {
        pre,
        post,
        work: work.count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::{generators, GraphBuilder};

    /// The tree of the paper's Figure 4(a): root 0 with children 1, 5, 6;
    /// 1 has children 2, 3, 4.
    fn figure4_tree() -> Graph {
        let mut b = GraphBuilder::new(7);
        b.add_edge(0, 1);
        b.add_edge(0, 5);
        b.add_edge(0, 6);
        b.add_edge(1, 2);
        b.add_edge(1, 3);
        b.add_edge(1, 4);
        b.build()
    }

    #[test]
    fn tour_visits_every_arc_once() {
        let g = figure4_tree();
        let r = euler_tour(&g, 0);
        assert_eq!(r.tour.len(), 12);
        let mut arcs = r.tour.clone();
        arcs.sort_unstable();
        arcs.dedup();
        assert_eq!(arcs.len(), 12, "an arc repeated");
    }

    #[test]
    fn tour_is_a_circuit() {
        let g = figure4_tree();
        let r = euler_tour(&g, 0);
        for w in r.tour.windows(2) {
            assert_eq!(w[0].1, w[1].0, "tour must chain head-to-tail");
        }
        assert_eq!(r.tour[0].0, 0);
        assert_eq!(r.tour.last().unwrap().1, 0);
    }

    #[test]
    fn figure4_tour_matches_paper_example() {
        // first(0) = 1; next_0(1) = 5, next_0(6) = 1 (paper's example).
        let g = figure4_tree();
        let r = euler_tour(&g, 0);
        assert_eq!(
            r.tour,
            vec![
                (0, 1),
                (1, 2),
                (2, 1),
                (1, 3),
                (3, 1),
                (1, 4),
                (4, 1),
                (1, 0),
                (0, 5),
                (5, 0),
                (0, 6),
                (6, 0),
            ]
        );
    }

    #[test]
    fn tree_order_figure4() {
        let g = figure4_tree();
        let r = tree_order(&g, 0);
        assert_eq!(r.pre, vec![0, 1, 2, 3, 4, 5, 6]);
        // Post-order: 2, 3, 4 close first, then 1, then 5, 6, then 0.
        assert_eq!(r.post, vec![6, 3, 0, 1, 2, 4, 5]);
    }

    #[test]
    fn orders_are_permutations_on_random_trees() {
        for seed in 0..5 {
            let t = generators::random_tree(50, seed);
            let r = tree_order(&t, 0);
            let mut pre = r.pre.clone();
            pre.sort_unstable();
            assert_eq!(pre, (0..50).collect::<Vec<u32>>());
            let mut post = r.post.clone();
            post.sort_unstable();
            assert_eq!(post, (0..50).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn pre_of_parent_below_child() {
        let t = generators::random_tree(80, 9);
        let r = tree_order(&t, 0);
        let parents = vcgp_graph::traversal::bfs_parents(&t, 0);
        for v in 1..80u32 {
            let p = parents[v as usize];
            assert!(
                r.pre[p as usize] < r.pre[v as usize],
                "pre-order must increase along tree paths"
            );
            assert!(
                r.post[p as usize] > r.post[v as usize],
                "post-order of parent is after its subtree"
            );
        }
    }

    #[test]
    fn tour_agrees_with_tree_order_forward_edges() {
        // The k-th distinct vertex first entered by the tour has pre-order k+1.
        let t = generators::random_tree(40, 3);
        let tour = euler_tour(&t, 0).tour;
        let order = tree_order(&t, 0);
        let mut seen = [false; 40];
        seen[0] = true;
        let mut next_pre = 1u32;
        for (_, v) in tour {
            if !seen[v as usize] {
                seen[v as usize] = true;
                assert_eq!(order.pre[v as usize], next_pre);
                next_pre += 1;
            }
        }
    }

    #[test]
    fn single_edge_tree() {
        let r = euler_tour(&generators::path(2), 0);
        assert_eq!(r.tour, vec![(0, 1), (1, 0)]);
        let o = tree_order(&generators::path(2), 0);
        assert_eq!(o.pre, vec![0, 1]);
        assert_eq!(o.post, vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "requires a tree")]
    fn non_tree_rejected() {
        euler_tour(&generators::cycle(4), 0);
    }

    #[test]
    fn work_is_linear() {
        let w1 = euler_tour(&generators::random_tree(1000, 1), 0).work;
        let w2 = euler_tour(&generators::random_tree(4000, 1), 0).work;
        let ratio = w2 as f64 / w1 as f64;
        assert!((3.2..4.8).contains(&ratio), "ratio {ratio}");
    }
}
