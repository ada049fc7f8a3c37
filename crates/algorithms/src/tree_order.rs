//! Row 9: pre- and post-order tree traversal via Euler tour + list ranking
//! (§3.4.2).
//!
//! Pipeline (each stage a Pregel job; stats are merged):
//!
//! 1. Euler tour (row 8's two-superstep program);
//! 2. list ranking over the tour arcs with `val = 1` → tour positions;
//! 3. a two-superstep BPPA marking each arc forward/backward by comparing
//!    its position with its twin's;
//! 4. list ranking with `val = 1` on forward arcs → `pre(v)`;
//! 5. list ranking with `val = 1` on backward arcs → `post(v)`.
//!
//! The pipeline additionally yields each vertex's parent and subtree size
//! `nd(v)` (from the distance between the twin arcs' tour positions), which
//! the row 5 BCC pipeline consumes. BPPA throughout, but the list-ranking
//! stages do `Θ(n log n)` total work versus the sequential DFS's `O(n)` —
//! the paper's "more work: yes / BPPA: yes" row.

use crate::{euler_tour, list_ranking};
use std::collections::HashMap;
use vcgp_graph::{Graph, GraphBuilder, VertexId, INVALID_VERTEX};
use vcgp_pregel::{Context, PregelConfig, RunStats, StateSize, VertexProgram};

/// Result of the traversal pipeline.
#[derive(Debug, Clone)]
pub struct TreeOrderResult {
    /// Pre-order number per vertex (root = 0).
    pub pre: Vec<u32>,
    /// Post-order number per vertex (root = n-1).
    pub post: Vec<u32>,
    /// Subtree size per vertex (root = n).
    pub nd: Vec<u32>,
    /// Parent per vertex (`INVALID_VERTEX` at the root).
    pub parent: Vec<VertexId>,
    /// Merged instrumentation of all pipeline stages.
    pub stats: RunStats,
}

/// Arc-marking state for stage 3.
#[derive(Debug, Clone, Default)]
struct MarkState {
    /// This arc's tour position (1-based).
    rank: u64,
    /// Twin arc id.
    twin: u32,
    /// Set in superstep 1: `rank < rank(twin)`.
    forward: bool,
}

impl StateSize for MarkState {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

struct MarkForward;

impl VertexProgram for MarkForward {
    type Value = MarkState;
    type Message = u64;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[u64]) {
        if ctx.superstep() == 0 {
            let (rank, twin) = (ctx.value().rank, ctx.value().twin);
            ctx.send(twin, rank);
        } else {
            let twin_rank = messages[0];
            let state = ctx.value_mut();
            state.forward = state.rank < twin_rank;
        }
        ctx.vote_to_halt();
    }
}

/// Runs the full pre/post-order pipeline on a tree rooted at `root`.
pub fn run(graph: &Graph, root: VertexId, config: &PregelConfig) -> TreeOrderResult {
    let n = graph.num_vertices();
    assert!(
        vcgp_graph::traversal::is_tree(graph),
        "tree_order requires a tree"
    );
    if n == 1 {
        return TreeOrderResult {
            pre: vec![0],
            post: vec![0],
            nd: vec![1],
            parent: vec![INVALID_VERTEX],
            stats: RunStats::empty(config.num_workers),
        };
    }

    // Stage 1: Euler tour.
    let tour = euler_tour::run(graph, root, config);
    let mut stats = tour.stats.clone();

    // Arc indexing: enumerate all 2(n-1) directed arcs.
    let mut arc_id: HashMap<(VertexId, VertexId), u32> = HashMap::with_capacity(2 * (n - 1));
    let mut arcs: Vec<(VertexId, VertexId)> = Vec::with_capacity(2 * (n - 1));
    for u in graph.vertices() {
        for &v in graph.out_neighbors(u) {
            arc_id.insert((u, v), arcs.len() as u32);
            arcs.push((u, v));
        }
    }
    let num_arcs = arcs.len();
    // Predecessor pointers along the tour; the start arc becomes the head.
    let start = arc_id[&(root, graph.out_neighbors(root)[0])];
    let mut preds = vec![INVALID_VERTEX; num_arcs];
    for (a, &(u, v)) in arcs.iter().enumerate() {
        let next = arc_id[&(v, tour.next_of[u as usize][&v])];
        if next != start {
            preds[next as usize] = a as u32;
        }
    }

    // Stage 2: tour positions.
    let positions = list_ranking::run(&preds, &vec![1u64; num_arcs], config);
    stats.merge(positions.stats.clone());

    // Stage 3: forward/backward marking (two-superstep BPPA on an arc
    // "graph" — arcs exchange positions with their twins).
    let arc_graph = GraphBuilder::new(num_arcs).build();
    let init: Vec<MarkState> = arcs
        .iter()
        .enumerate()
        .map(|(a, &(u, v))| MarkState {
            rank: positions.sums[a],
            twin: arc_id[&(v, u)],
            forward: false,
        })
        .collect();
    let (marks, mark_stats) = vcgp_pregel::run_with_values(&MarkForward, &arc_graph, init, config);
    stats.merge(mark_stats);

    // Stages 4-5: rank forward and backward indicator values.
    let fwd_vals: Vec<u64> = marks.iter().map(|m| u64::from(m.forward)).collect();
    let bwd_vals: Vec<u64> = marks.iter().map(|m| u64::from(!m.forward)).collect();
    let pre_rank = list_ranking::run(&preds, &fwd_vals, config);
    stats.merge(pre_rank.stats.clone());
    let post_rank = list_ranking::run(&preds, &bwd_vals, config);
    stats.merge(post_rank.stats.clone());

    // Assemble per-vertex outputs.
    let mut pre = vec![u32::MAX; n];
    let mut post = vec![u32::MAX; n];
    let mut nd = vec![0u32; n];
    let mut parent = vec![INVALID_VERTEX; n];
    pre[root as usize] = 0;
    post[root as usize] = n as u32 - 1;
    nd[root as usize] = n as u32;
    for (a, &(u, v)) in arcs.iter().enumerate() {
        if marks[a].forward {
            // Forward arc (u, v): u = parent(v).
            pre[v as usize] = pre_rank.sums[a] as u32;
            parent[v as usize] = u;
            let back = arc_id[&(v, u)] as usize;
            post[v as usize] = post_rank.sums[back] as u32 - 1;
            nd[v as usize] = (positions.sums[back] - positions.sums[a]).div_ceil(2) as u32;
        }
    }
    TreeOrderResult {
        pre,
        post,
        nd,
        parent,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    #[test]
    fn matches_sequential_orders() {
        for seed in 0..6 {
            let t = generators::random_tree(60, seed);
            let vc = run(&t, 0, &PregelConfig::single_worker());
            let sq = vcgp_sequential::tree::tree_order(&t, 0);
            assert_eq!(vc.pre, sq.pre, "pre mismatch, seed {seed}");
            assert_eq!(vc.post, sq.post, "post mismatch, seed {seed}");
        }
    }

    #[test]
    fn figure4_numbers() {
        // The paper's Figure 4(a) tree.
        let mut b = vcgp_graph::GraphBuilder::new(7);
        b.add_edge(0, 1);
        b.add_edge(0, 5);
        b.add_edge(0, 6);
        b.add_edge(1, 2);
        b.add_edge(1, 3);
        b.add_edge(1, 4);
        let t = b.build();
        let r = run(&t, 0, &PregelConfig::single_worker());
        assert_eq!(r.pre, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(r.post, vec![6, 3, 0, 1, 2, 4, 5]);
        assert_eq!(r.nd, vec![7, 4, 1, 1, 1, 1, 1]);
        assert_eq!(r.parent, vec![INVALID_VERTEX, 0, 1, 1, 1, 0, 0]);
    }

    #[test]
    fn nd_is_subtree_size() {
        let t = generators::random_tree(50, 4);
        let r = run(&t, 0, &PregelConfig::single_worker());
        // Sum of nd over children + 1 = nd of parent.
        let mut children_sum = [0u32; 50];
        for v in 1..50u32 {
            children_sum[r.parent[v as usize] as usize] += r.nd[v as usize];
        }
        for v in 0..50u32 {
            assert_eq!(r.nd[v as usize], children_sum[v as usize] + 1);
        }
    }

    #[test]
    fn pre_interval_contains_subtree() {
        let t = generators::random_tree(40, 8);
        let r = run(&t, 0, &PregelConfig::single_worker());
        for v in 1..40u32 {
            let p = r.parent[v as usize];
            let (lo, len) = (r.pre[p as usize], r.nd[p as usize]);
            assert!(
                (lo..lo + len).contains(&r.pre[v as usize]),
                "child pre-order outside parent's interval"
            );
        }
    }

    #[test]
    fn logarithmic_supersteps_on_paths() {
        // A path tree is the deepest case; the pipeline must stay
        // polylogarithmic (this is what makes row 9 BPPA).
        let t = generators::path(512);
        let r = run(&t, 0, &PregelConfig::single_worker());
        assert!(
            r.stats.supersteps() <= 100,
            "{} supersteps on a 512-path",
            r.stats.supersteps()
        );
    }

    #[test]
    fn singleton_tree() {
        let t = generators::path(1);
        let r = run(&t, 0, &PregelConfig::single_worker());
        assert_eq!(r.pre, vec![0]);
        assert_eq!(r.post, vec![0]);
        assert_eq!(r.nd, vec![1]);
    }

    #[test]
    fn parallel_matches_serial() {
        let t = generators::random_tree(90, 2);
        let a = run(&t, 0, &PregelConfig::single_worker());
        let b = run(&t, 0, &PregelConfig::default().with_workers(4));
        assert_eq!(a.pre, b.pre);
        assert_eq!(a.post, b.post);
        assert_eq!(a.nd, b.nd);
    }
}
