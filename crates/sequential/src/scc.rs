//! Row 7: strongly connected components by Tarjan's algorithm \[21\],
//! `O(m + n)`, implemented iteratively so deep graphs (long directed paths)
//! cannot overflow the call stack.

use crate::work::Work;
use vcgp_graph::{Graph, VertexId};

/// Result of the SCC baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccResult {
    /// Component label per vertex, normalized to the smallest vertex id in
    /// the component (so results are comparable across algorithms).
    pub components: Vec<VertexId>,
    /// Number of strongly connected components.
    pub count: usize,
    /// Operation count.
    pub work: u64,
}

/// Tarjan's SCC algorithm (iterative).
pub fn scc(g: &Graph) -> SccResult {
    assert!(g.is_directed(), "scc requires a digraph");
    let n = g.num_vertices();
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<VertexId> = Vec::new();
    let mut comp = vec![UNSET; n];
    let mut next_index = 0u32;
    let mut count = 0usize;
    let mut work = Work::new();
    // (vertex, next out-edge offset) call frames.
    let mut frames: Vec<(VertexId, usize)> = Vec::new();

    for s in 0..n as VertexId {
        work.charge(1);
        if index[s as usize] != UNSET {
            continue;
        }
        index[s as usize] = next_index;
        low[s as usize] = next_index;
        next_index += 1;
        stack.push(s);
        on_stack[s as usize] = true;
        frames.push((s, 0));
        while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
            let neighbors = g.out_neighbors(v);
            if *ei < neighbors.len() {
                let u = neighbors[*ei];
                *ei += 1;
                work.charge(1);
                if index[u as usize] == UNSET {
                    index[u as usize] = next_index;
                    low[u as usize] = next_index;
                    next_index += 1;
                    stack.push(u);
                    on_stack[u as usize] = true;
                    frames.push((u, 0));
                } else if on_stack[u as usize] {
                    low[v as usize] = low[v as usize].min(index[u as usize]);
                }
            } else {
                frames.pop();
                work.charge(1);
                if let Some(&mut (p, _)) = frames.last_mut() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    // v is the root of an SCC: pop its members.
                    count += 1;
                    let mut members = Vec::new();
                    loop {
                        let u = stack.pop().expect("scc stack underflow");
                        on_stack[u as usize] = false;
                        members.push(u);
                        work.charge(1);
                        if u == v {
                            break;
                        }
                    }
                    let label = *members.iter().min().expect("non-empty scc");
                    for u in members {
                        comp[u as usize] = label;
                    }
                }
            }
        }
    }
    SccResult {
        components: comp,
        count,
        work: work.count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::{generators, GraphBuilder};

    #[test]
    fn directed_cycle_is_one_scc() {
        let r = scc(&generators::directed_cycle(7));
        assert_eq!(r.count, 1);
        assert!(r.components.iter().all(|&c| c == 0));
    }

    #[test]
    fn directed_path_is_all_singletons() {
        let r = scc(&generators::directed_path(6));
        assert_eq!(r.count, 6);
        assert_eq!(r.components, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn two_cycles_with_bridge() {
        // 0->1->2->0 and 3->4->3, plus 2->3.
        let mut b = GraphBuilder::directed(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(3, 4);
        b.add_edge(4, 3);
        b.add_edge(2, 3);
        let r = scc(&b.build());
        assert_eq!(r.count, 2);
        assert_eq!(r.components, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn cyclic_digraph_family_has_k_plus_singletons() {
        let g = generators::cyclic_digraph(40, 4, 10, 1);
        let r = scc(&g);
        // Each of the 4 cycles is one SCC; inter-cycle arcs only go forward.
        assert_eq!(r.count, 4);
    }

    #[test]
    fn deep_path_does_not_overflow() {
        let g = generators::directed_path(200_000);
        let r = scc(&g);
        assert_eq!(r.count, 200_000);
    }

    #[test]
    fn scc_is_equivalence_consistent() {
        // Mutual reachability check on a small random digraph against the
        // label assignment.
        let g = generators::digraph_gnm(30, 90, 5);
        let r = scc(&g);
        let reach = |s: u32| vcgp_graph::traversal::bfs_levels(&g, s);
        for u in 0..30u32 {
            let ru = reach(u);
            for v in 0..30u32 {
                let same = r.components[u as usize] == r.components[v as usize];
                let mutual = ru[v as usize] != u32::MAX && reach(v)[u as usize] != u32::MAX;
                assert_eq!(same, mutual, "vertices {u},{v}");
            }
        }
    }

    #[test]
    fn work_linear() {
        let w1 = scc(&generators::digraph_gnm(1000, 4000, 2)).work;
        let w2 = scc(&generators::digraph_gnm(2000, 8000, 2)).work;
        let ratio = w2 as f64 / w1 as f64;
        assert!((1.6..2.5).contains(&ratio), "ratio {ratio}");
    }
}
