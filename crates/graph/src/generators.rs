//! Deterministic graph generators for every family used in the experiments.
//!
//! All generators are pure functions of their arguments (including the seed),
//! so benchmark inputs are exactly reproducible. Families were chosen to
//! expose the behaviours the paper analyzes: paths maximize diameter-bound
//! superstep counts, random trees drive the tree workloads (rows 8-9),
//! `G(n, m)` and R-MAT drive the general rows, bipartite graphs drive row 14,
//! and labeled digraphs with pattern queries drive rows 18-20.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, VertexId};
use crate::rng::{mix3, SplitMix64};

/// Path graph `0 - 1 - ... - n-1`. Diameter `n - 1`: the adversarial family
/// for Hash-Min's superstep bound (§3.3.1 "e.g., for a straight-line graph").
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n as VertexId {
        b.add_edge(v - 1, v);
    }
    b.build()
}

/// Directed path `0 -> 1 -> ... -> n-1`.
pub fn directed_path(n: usize) -> Graph {
    let mut b = GraphBuilder::directed(n);
    for v in 1..n as VertexId {
        b.add_edge(v - 1, v);
    }
    b.build()
}

/// Cycle graph on `n >= 3` vertices.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle requires n >= 3");
    let mut b = GraphBuilder::new(n);
    for v in 0..n as VertexId {
        b.add_edge(v, ((v as usize + 1) % n) as VertexId);
    }
    b.build()
}

/// Directed cycle on `n >= 2` vertices.
pub fn directed_cycle(n: usize) -> Graph {
    assert!(n >= 2, "directed cycle requires n >= 2");
    let mut b = GraphBuilder::directed(n);
    for v in 0..n as VertexId {
        b.add_edge(v, ((v as usize + 1) % n) as VertexId);
    }
    b.build()
}

/// Star with center `0` and `n - 1` leaves.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::new(n);
    for v in 1..n as VertexId {
        b.add_edge(0, v);
    }
    b.build()
}

/// Complete graph `K_n` — the worst case for the coloring workload's phase
/// count K (§3.6: "K can be as large as O(n) for a complete graph").
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as VertexId {
        for v in (u + 1)..n as VertexId {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// `rows x cols` grid graph: moderate diameter `rows + cols - 2`, a middle
/// ground between paths and expanders for the diameter workload.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut b = GraphBuilder::new(n);
    let at = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(at(r, c), at(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(at(r, c), at(r + 1, c));
            }
        }
    }
    b.build()
}

/// Uniform random recursive tree: vertex `v > 0` attaches to a uniform
/// parent in `[0, v)`. Always connected, expected depth `O(log n)`.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed ^ 0x7265_6355_7273_6976);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let parent = rng.next_index(v) as VertexId;
        b.add_edge(parent, v as VertexId);
    }
    b.build()
}

/// Complete `k`-ary tree truncated to `n` vertices (vertex `v`'s parent is
/// `(v - 1) / k`). Depth `Θ(log_k n)`.
pub fn kary_tree(n: usize, k: usize) -> Graph {
    assert!(k >= 1);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_edge(((v - 1) / k) as VertexId, v as VertexId);
    }
    b.build()
}

/// Simple undirected `G(n, m)`: `m` distinct edges chosen uniformly among
/// all pairs, no self-loops. Not necessarily connected.
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 2 || m == 0, "gnm needs n >= 2 for any edge");
    let max_edges = n * (n - 1) / 2;
    assert!(m <= max_edges, "gnm: m = {m} exceeds C(n,2) = {max_edges}");
    let mut rng = SplitMix64::new(seed ^ 0x676E_6D5F_7365_6564);
    let mut b = GraphBuilder::new(n);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    while seen.len() < m {
        let u = rng.next_index(n) as VertexId;
        let v = rng.next_index(n) as VertexId;
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            b.add_edge(key.0, key.1);
        }
    }
    b.build()
}

/// Connected undirected `G(n, m)`: a uniform random spanning tree skeleton
/// (random attachment) plus `m - (n - 1)` extra distinct edges.
///
/// # Panics
/// Panics if `n == 0` or `m < n - 1`.
pub fn gnm_connected(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 1, "gnm_connected requires n >= 1");
    assert!(m >= n - 1, "gnm_connected requires m >= n - 1");
    let max_edges = if n >= 2 { n * (n - 1) / 2 } else { 0 };
    assert!(m <= max_edges || n == 1, "gnm_connected: m too large");
    let mut rng = SplitMix64::new(seed ^ 0x636F_6E6E_6563_7400);
    let mut b = GraphBuilder::new(n);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    for v in 1..n {
        let parent = rng.next_index(v) as VertexId;
        let key = (parent.min(v as VertexId), parent.max(v as VertexId));
        seen.insert(key);
        b.add_edge(key.0, key.1);
    }
    while seen.len() < m {
        let u = rng.next_index(n) as VertexId;
        let v = rng.next_index(n) as VertexId;
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            b.add_edge(key.0, key.1);
        }
    }
    b.build()
}

/// R-MAT power-law graph (Chakrabarti et al.) with the Graph500 parameters
/// `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`. Self-loops and duplicates are
/// removed, so the resulting edge count can be slightly below `m`.
pub fn rmat(scale: u32, m: usize, seed: u64) -> Graph {
    let n = 1usize << scale;
    let (a, b_p, c) = (0.57, 0.19, 0.19);
    let mut rng = SplitMix64::new(seed ^ 0x726D_6174_5F73_6565);
    let mut builder = GraphBuilder::new(n);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut attempts = 0usize;
    while seen.len() < m && attempts < m * 20 {
        attempts += 1;
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            let r = rng.next_f64();
            let (du, dv) = if r < a {
                (0, 0)
            } else if r < a + b_p {
                (0, 1)
            } else if r < a + b_p + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        if u == v {
            continue;
        }
        let key = (u.min(v) as VertexId, u.max(v) as VertexId);
        if seen.insert(key) {
            builder.add_edge(key.0, key.1);
        }
    }
    builder.build()
}

/// Simple directed `G(n, m)` (no self-loops, no duplicate arcs).
pub fn digraph_gnm(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 2 || m == 0);
    let max_arcs = n.saturating_mul(n.saturating_sub(1));
    assert!(m <= max_arcs, "digraph_gnm: m exceeds n(n-1)");
    let mut rng = SplitMix64::new(seed ^ 0x6469_6772_6170_6800);
    let mut b = GraphBuilder::directed(n);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    while seen.len() < m {
        let u = rng.next_index(n) as VertexId;
        let v = rng.next_index(n) as VertexId;
        if u == v {
            continue;
        }
        if seen.insert((u, v)) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Digraph made of `k` directed cycles of length `n / k`, plus `extra`
/// random inter-cycle arcs: a family with known non-trivial SCC structure
/// (each cycle is one SCC as long as inter-cycle arcs are acyclic across
/// cycles, which we enforce by only adding arcs from lower to higher cycle
/// index).
pub fn cyclic_digraph(n: usize, k: usize, extra: usize, seed: u64) -> Graph {
    assert!(k >= 1 && n >= 2 * k, "need cycles of length >= 2");
    let len = n / k;
    let mut b = GraphBuilder::directed(n);
    let cycle_of = |v: usize| (v / len).min(k - 1);
    // Cycle c covers [c*len, (c+1)*len) except the last which absorbs the tail.
    let mut starts = Vec::with_capacity(k + 1);
    for c in 0..k {
        starts.push(c * len);
    }
    starts.push(n);
    for c in 0..k {
        let (s, e) = (starts[c], starts[c + 1]);
        for v in s..e {
            let next = if v + 1 == e { s } else { v + 1 };
            b.add_edge(v as VertexId, next as VertexId);
        }
    }
    let mut rng = SplitMix64::new(seed ^ 0x7363_635F_6661_6D00);
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < extra && guard < extra * 50 + 100 {
        guard += 1;
        let u = rng.next_index(n);
        let v = rng.next_index(n);
        if cycle_of(u) < cycle_of(v) {
            b.add_edge(u as VertexId, v as VertexId);
            added += 1;
        }
    }
    b.dedup().build()
}

/// Random bipartite graph: left vertices `0..nl`, right `nl..nl+nr`, `m`
/// distinct cross edges. Used by the bipartite-matching workload.
pub fn bipartite(nl: usize, nr: usize, m: usize, seed: u64) -> Graph {
    assert!(m <= nl * nr, "bipartite: m exceeds nl*nr");
    let mut rng = SplitMix64::new(seed ^ 0x6269_7061_7274_6974);
    let mut b = GraphBuilder::new(nl + nr);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    while seen.len() < m {
        let u = rng.next_index(nl) as VertexId;
        let v = (nl + rng.next_index(nr)) as VertexId;
        if seen.insert((u, v)) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Complete bipartite graph `K_{nl, nr}` (left `0..nl`, right
/// `nl..nl+nr`) — the adversarial family for the randomized bipartite
/// matching's round count.
pub fn complete_bipartite(nl: usize, nr: usize) -> Graph {
    let mut b = GraphBuilder::new(nl + nr);
    for u in 0..nl as VertexId {
        for v in 0..nr as VertexId {
            b.add_edge(u, (nl as VertexId) + v);
        }
    }
    b.build()
}

/// Labeled digraph for the pattern-simulation rows: `digraph_gnm(n, m)` with
/// labels drawn uniformly from `0..num_labels`.
pub fn labeled_digraph(n: usize, m: usize, num_labels: u32, seed: u64) -> Graph {
    assert!(num_labels >= 1);
    let g = digraph_gnm(n, m, seed);
    let mut rng = SplitMix64::new(seed ^ 0x6C61_6265_6C73_0000);
    let labels: Vec<u32> = (0..n)
        .map(|_| rng.next_below(num_labels as u64) as u32)
        .collect();
    relabel(&g, labels)
}

/// Small connected labeled query pattern for rows 18-20: a random recursive
/// tree on `nq` vertices plus extra arcs, labels from `0..num_labels`.
/// Directed, as required by graph/dual/strong simulation.
pub fn query_pattern(nq: usize, mq_extra: usize, num_labels: u32, seed: u64) -> Graph {
    assert!(nq >= 1 && num_labels >= 1);
    let mut rng = SplitMix64::new(seed ^ 0x7175_6572_7970_6174);
    let mut b = GraphBuilder::directed(nq);
    for v in 1..nq {
        let parent = rng.next_index(v) as VertexId;
        // Orient tree arcs randomly so the pattern exercises both the child
        // and parent conditions of dual simulation.
        if rng.next_bool(0.5) {
            b.add_edge(parent, v as VertexId);
        } else {
            b.add_edge(v as VertexId, parent);
        }
    }
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < mq_extra && guard < mq_extra * 50 + 100 {
        guard += 1;
        let u = rng.next_index(nq) as VertexId;
        let v = rng.next_index(nq) as VertexId;
        if u != v {
            b.add_edge(u, v);
            added += 1;
        }
    }
    let labels: Vec<u32> = (0..nq)
        .map(|_| rng.next_below(num_labels as u64) as u32)
        .collect();
    let g = b.dedup().build();
    relabel(&g, labels)
}

/// Rebuilds `g` with the given vertex labels.
pub fn relabel(g: &Graph, labels: Vec<u32>) -> Graph {
    let mut b = if g.is_directed() {
        GraphBuilder::directed(g.num_vertices())
    } else {
        GraphBuilder::new(g.num_vertices())
    };
    for (u, v, w) in g.edges() {
        b.add_weighted_edge(u, v, w);
    }
    b.set_labels(labels);
    b.build()
}

/// Rebuilds `g` with deterministic pseudo-random edge weights in
/// `[lo, hi)`. The weight of an edge depends only on `(seed, min(u,v),
/// max(u,v))` for undirected graphs — consistent across both stored arcs —
/// and on `(seed, u, v)` for digraphs. With `distinct = true`, a tiny
/// edge-specific perturbation makes all weights distinct (convenient for
/// unique-MST tests).
pub fn with_random_weights(g: &Graph, lo: f64, hi: f64, seed: u64, distinct: bool) -> Graph {
    assert!(hi > lo);
    let mut b = if g.is_directed() {
        GraphBuilder::directed(g.num_vertices())
    } else {
        GraphBuilder::new(g.num_vertices())
    };
    for (u, v, _) in g.edges() {
        let (a, z) = if g.is_directed() || u <= v {
            (u, v)
        } else {
            (v, u)
        };
        let bits = mix3(seed, a as u64, z as u64);
        let mut w = lo + (bits >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo);
        if distinct {
            // A unique low-order offset per canonical pair keeps all weights
            // distinct without observably changing their distribution.
            w += (a as f64 * g.num_vertices() as f64 + z as f64 + 1.0) * 1e-9;
        }
        b.add_weighted_edge(u, v, w);
    }
    if let Some(labels) = g.labels() {
        b.set_labels(labels.to_vec());
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{bfs_levels, connected_components};

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.neighbors(4), &[3]);
    }

    #[test]
    fn cycle_every_degree_two() {
        let g = cycle(6);
        assert_eq!(g.num_edges(), 6);
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 2);
        }
    }

    #[test]
    fn star_degrees() {
        let g = star(5);
        assert_eq!(g.out_degree(0), 4);
        for v in 1..5 {
            assert_eq!(g.out_degree(v), 1);
        }
    }

    #[test]
    fn complete_edge_count() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
        // Corner has degree 2, center degree 4.
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(5), 4);
    }

    #[test]
    fn random_tree_is_tree() {
        for seed in 0..5 {
            let g = random_tree(64, seed);
            assert_eq!(g.num_edges(), 63);
            assert_eq!(connected_components(&g).1, 1);
        }
    }

    #[test]
    fn kary_tree_structure() {
        let g = kary_tree(7, 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 3, 4]);
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn gnm_exact_edge_count_simple() {
        let g = gnm(50, 120, 7);
        assert_eq!(g.num_edges(), 120);
        for v in g.vertices() {
            let nb = g.neighbors(v);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "duplicate or unsorted");
            assert!(!nb.contains(&v), "self loop");
        }
    }

    #[test]
    fn gnm_connected_is_connected() {
        for seed in 0..4 {
            let g = gnm_connected(80, 150, seed);
            assert_eq!(g.num_edges(), 150);
            assert_eq!(connected_components(&g).1, 1);
        }
    }

    #[test]
    #[should_panic(expected = "m >= n - 1")]
    fn gnm_connected_rejects_too_few_edges() {
        gnm_connected(5, 3, 1);
    }

    #[test]
    fn gnm_connected_boundary_edge_counts() {
        // Exactly m = n - 1 yields a spanning tree; n = 1, m = 0 is the
        // smallest valid input of the documented contract.
        let tree = gnm_connected(5, 4, 1);
        assert_eq!(tree.num_edges(), 4);
        assert_eq!(connected_components(&tree).1, 1);
        let single = gnm_connected(1, 0, 1);
        assert_eq!(single.num_vertices(), 1);
        assert_eq!(single.num_edges(), 0);
    }

    #[test]
    fn rmat_skewed_degrees() {
        let g = rmat(8, 1024, 5);
        assert!(g.num_edges() > 900, "rmat generated too few edges");
        // Power-law-ish: max degree far above average.
        let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(g.max_degree() as f64 > 3.0 * avg);
    }

    #[test]
    fn digraph_gnm_simple() {
        let g = digraph_gnm(40, 200, 11);
        assert!(g.is_directed());
        assert_eq!(g.num_edges(), 200);
        for v in g.vertices() {
            assert!(!g.out_neighbors(v).contains(&v));
        }
    }

    #[test]
    fn bipartite_edges_cross_only() {
        let g = bipartite(10, 15, 40, 2);
        assert_eq!(g.num_edges(), 40);
        for u in 0..10u32 {
            for &v in g.neighbors(u) {
                assert!(v >= 10, "edge within left side");
            }
        }
    }

    #[test]
    fn labeled_digraph_labels_in_range() {
        let g = labeled_digraph(30, 90, 4, 9);
        assert!(g.is_labeled());
        for v in g.vertices() {
            assert!(g.label(v) < 4);
        }
    }

    #[test]
    fn query_pattern_connected_as_undirected() {
        for seed in 0..4 {
            let q = query_pattern(6, 3, 3, seed);
            assert!(q.is_directed());
            let und = q.to_undirected();
            assert_eq!(connected_components(&und).1, 1);
        }
    }

    #[test]
    fn weights_consistent_across_directions() {
        let g = with_random_weights(&gnm_connected(30, 60, 1), 1.0, 10.0, 42, false);
        for (u, v, w) in g.edges() {
            assert_eq!(g.edge_weight(v, u), Some(w));
            assert!((1.0..10.0 + 1e-6).contains(&w));
        }
    }

    #[test]
    fn distinct_weights_are_distinct() {
        let g = with_random_weights(&gnm_connected(40, 90, 2), 0.0, 1.0, 7, true);
        let mut ws: Vec<u64> = g.edges().map(|(_, _, w)| w.to_bits()).collect();
        ws.sort_unstable();
        ws.dedup();
        assert_eq!(ws.len(), 90);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(gnm(30, 60, 5), gnm(30, 60, 5));
        assert_eq!(random_tree(30, 5), random_tree(30, 5));
        assert_eq!(rmat(6, 100, 5), rmat(6, 100, 5));
        assert_ne!(gnm(30, 60, 5), gnm(30, 60, 6));
    }

    #[test]
    fn path_diameter_is_n_minus_one() {
        let g = path(17);
        let levels = bfs_levels(&g, 0);
        assert_eq!(levels[16], 16);
    }

    #[test]
    fn cyclic_digraph_structure() {
        let g = cyclic_digraph(20, 4, 6, 3);
        assert!(g.is_directed());
        assert!(g.num_edges() >= 20);
    }
}
