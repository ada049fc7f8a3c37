//! Incremental construction of [`Graph`] values.

use crate::graph::{Graph, VertexId};
use crate::mutation::{ApplyStats, Mutation};

/// Builds a [`Graph`] from an edge list.
///
/// The builder accumulates `(u, v, w)` triples, then sorts them into CSR form
/// at [`GraphBuilder::build`]. Undirected edges are mirrored automatically.
///
/// ```
/// use vcgp_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    directed: bool,
    dedup: bool,
    edges: Vec<(VertexId, VertexId, f64)>,
    labels: Option<Vec<u32>>,
}

impl GraphBuilder {
    /// Starts an undirected graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self::with_directedness(n, false)
    }

    /// Starts a directed graph on `n` vertices.
    pub fn directed(n: usize) -> Self {
        Self::with_directedness(n, true)
    }

    fn with_directedness(n: usize, directed: bool) -> Self {
        assert!(
            n < u32::MAX as usize,
            "graphs are limited to u32::MAX - 1 vertices"
        );
        GraphBuilder {
            n,
            directed,
            dedup: false,
            edges: Vec::new(),
            labels: None,
        }
    }

    /// Requests duplicate-edge removal at build time. For weighted graphs the
    /// minimum weight among duplicates is kept (matching the edge-cleaning
    /// rule of the Borůvka workload).
    pub fn dedup(&mut self) -> &mut Self {
        self.dedup = true;
        self
    }

    /// Adds an unweighted edge (weight `1.0`).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.add_weighted_edge(u, v, 1.0)
    }

    /// Adds a weighted edge.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_weighted_edge(&mut self, u: VertexId, v: VertexId, w: f64) -> &mut Self {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for {} vertices",
            self.n
        );
        self.edges.push((u, v, w));
        self
    }

    /// Sets vertex labels (used by the pattern-simulation workloads).
    ///
    /// # Panics
    /// Panics at `build` time if the label count differs from `n`.
    pub fn set_labels(&mut self, labels: Vec<u32>) -> &mut Self {
        self.labels = Some(labels);
        self
    }

    /// A builder pre-loaded with `g`'s edges, labels, and directedness, so
    /// a mutation batch can be replayed through a from-scratch rebuild.
    /// This is the *oracle* path for [`crate::mutation::apply_batch`]'s
    /// incremental CSR splice (property-tested equal); the serving layer
    /// uses the splice, tests use this.
    pub fn from_graph(g: &Graph) -> GraphBuilder {
        let mut b = Self::with_directedness(g.num_vertices(), g.is_directed());
        b.edges = g.edges().collect();
        b.labels = g.labels().map(|l| l.to_vec());
        b
    }

    /// Applies a mutation batch to the builder's edge list, with semantics
    /// identical to [`crate::mutation::apply_batch`] (see its module docs):
    /// duplicate/self-loop/out-of-range inserts, deletes of missing edges,
    /// and reweights on unweighted graphs are counted no-ops, matching the
    /// `gnm_connected` generator guard.
    pub fn apply(&mut self, batch: &[Mutation]) -> ApplyStats {
        let mut stats = ApplyStats::default();
        // Reweights only apply once the edge set is weighted — initially or
        // via an explicit non-unit insert earlier in this batch.
        let mut weighted_gate = self.edges.iter().any(|&(_, _, w)| w != 1.0);
        for m in batch {
            let applied = match *m {
                Mutation::InsertEdge { u, v, w } => self.apply_insert(u, v, w, &mut weighted_gate),
                Mutation::DeleteEdge { u, v } => self.apply_delete(u, v),
                Mutation::DeleteEdgeAt { u, rank } => match self.resolve_rank(u, rank) {
                    Some(t) => self.apply_delete(u, t),
                    None => false,
                },
                Mutation::Reweight { u, v, w } => {
                    weighted_gate && self.apply_reweight(u, v, w, &mut weighted_gate)
                }
                Mutation::ReweightAt { u, rank, w } => {
                    weighted_gate
                        && match self.resolve_rank(u, rank) {
                            Some(t) => self.apply_reweight(u, t, w, &mut weighted_gate),
                            None => false,
                        }
                }
                Mutation::AddVertex { label } => {
                    if self.n + 1 >= u32::MAX as usize {
                        false
                    } else {
                        self.n += 1;
                        if let Some(labels) = &mut self.labels {
                            labels.push(label);
                        }
                        true
                    }
                }
                Mutation::RemoveVertex { v } => {
                    if (v as usize) >= self.n {
                        false
                    } else {
                        let before = self.edges.len();
                        self.edges.retain(|&(a, b, _)| a != v && b != v);
                        self.edges.len() != before
                    }
                }
            };
            if applied {
                stats.applied += 1;
            } else {
                stats.noops += 1;
            }
        }
        stats
    }

    /// Whether the logical edge `{u, v}` (arc `u -> v` on digraphs) exists.
    fn holds_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edges
            .iter()
            .any(|&(a, b, _)| (a, b) == (u, v) || (!self.directed && (a, b) == (v, u)))
    }

    /// The target at position `rank % out_degree(u)` of `u`'s sorted
    /// current adjacency, or `None` when `u` is out of range or isolated.
    fn resolve_rank(&self, u: VertexId, rank: u32) -> Option<VertexId> {
        if (u as usize) >= self.n {
            return None;
        }
        let mut adj: Vec<VertexId> = Vec::new();
        for &(a, b, _) in &self.edges {
            if a == u {
                adj.push(b);
            } else if !self.directed && b == u {
                adj.push(a);
            }
        }
        if adj.is_empty() {
            return None;
        }
        adj.sort_unstable();
        Some(adj[rank as usize % adj.len()])
    }

    fn apply_insert(&mut self, u: VertexId, v: VertexId, w: f64, gate: &mut bool) -> bool {
        if u == v || (u as usize) >= self.n || (v as usize) >= self.n || self.holds_edge(u, v) {
            return false;
        }
        self.edges.push((u, v, w));
        if w != 1.0 {
            *gate = true;
        }
        true
    }

    fn apply_delete(&mut self, u: VertexId, v: VertexId) -> bool {
        if (u as usize) >= self.n || (v as usize) >= self.n {
            return false;
        }
        let before = self.edges.len();
        self.edges
            .retain(|&(a, b, _)| !((a, b) == (u, v) || (!self.directed && (a, b) == (v, u))));
        self.edges.len() != before
    }

    fn apply_reweight(&mut self, u: VertexId, v: VertexId, w: f64, gate: &mut bool) -> bool {
        if (u as usize) >= self.n || (v as usize) >= self.n {
            return false;
        }
        let mut any = false;
        for e in self.edges.iter_mut() {
            if (e.0, e.1) == (u, v) || (!self.directed && (e.0, e.1) == (v, u)) {
                e.2 = w;
                any = true;
            }
        }
        if any && w != 1.0 {
            *gate = true;
        }
        any
    }

    /// Finalizes the graph.
    pub fn build(&mut self) -> Graph {
        if let Some(labels) = &self.labels {
            assert_eq!(labels.len(), self.n, "label count must equal n");
        }
        let mut arcs: Vec<(VertexId, VertexId, f64)> =
            Vec::with_capacity(self.edges.len() * if self.directed { 1 } else { 2 });
        if self.dedup {
            // Canonicalize, sort, and keep the lightest copy of each edge.
            let mut canonical: Vec<(VertexId, VertexId, f64)> = self
                .edges
                .iter()
                .map(|&(u, v, w)| {
                    if !self.directed && u > v {
                        (v, u, w)
                    } else {
                        (u, v, w)
                    }
                })
                .collect();
            canonical.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
            canonical.dedup_by_key(|e| (e.0, e.1));
            self.edges = canonical;
        }
        let num_edges = self.edges.len();
        for &(u, v, w) in &self.edges {
            arcs.push((u, v, w));
            if !self.directed && u != v {
                arcs.push((v, u, w));
            }
        }
        let weighted = arcs.iter().any(|&(_, _, w)| w != 1.0);
        let (offsets, targets, weights) = csr_from_arcs(self.n, &arcs);
        let (rev_offsets, rev_targets, rev_weights) = if self.directed {
            let reversed: Vec<(VertexId, VertexId, f64)> =
                arcs.iter().map(|&(u, v, w)| (v, u, w)).collect();
            csr_from_arcs(self.n, &reversed)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        Graph {
            directed: self.directed,
            weighted,
            num_edges,
            offsets,
            targets,
            weights,
            rev_offsets,
            rev_targets,
            rev_weights,
            labels: self.labels.clone(),
        }
    }
}

/// Counting-sorts arcs into CSR arrays with per-vertex target ordering.
fn csr_from_arcs(
    n: usize,
    arcs: &[(VertexId, VertexId, f64)],
) -> (Vec<usize>, Vec<VertexId>, Vec<f64>) {
    let mut offsets = vec![0usize; n + 1];
    for &(u, _, _) in arcs {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut targets = vec![0 as VertexId; arcs.len()];
    let mut weights = vec![0.0f64; arcs.len()];
    let mut cursor = offsets.clone();
    for &(u, v, w) in arcs {
        let slot = cursor[u as usize];
        targets[slot] = v;
        weights[slot] = w;
        cursor[u as usize] += 1;
    }
    // Sort each adjacency run by target id, keeping weights parallel.
    for v in 0..n {
        let (a, b) = (offsets[v], offsets[v + 1]);
        if b - a > 1 {
            let mut idx: Vec<usize> = (a..b).collect();
            idx.sort_by_key(|&i| targets[i]);
            let sorted_t: Vec<VertexId> = idx.iter().map(|&i| targets[i]).collect();
            let sorted_w: Vec<f64> = idx.iter().map(|&i| weights[i]).collect();
            targets[a..b].copy_from_slice(&sorted_t);
            weights[a..b].copy_from_slice(&sorted_w);
        }
    }
    (offsets, targets, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_lightest() {
        let mut b = GraphBuilder::new(2);
        b.add_weighted_edge(0, 1, 5.0);
        b.add_weighted_edge(1, 0, 2.0);
        b.add_weighted_edge(0, 1, 9.0);
        let g = b.dedup().build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
    }

    #[test]
    fn directed_dedup_preserves_antiparallel() {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        let g = b.dedup().build();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn self_loop_undirected_stored_once() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.out_degree(0), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        GraphBuilder::new(2).add_edge(0, 2);
    }

    #[test]
    #[should_panic(expected = "label count")]
    fn wrong_label_count_panics() {
        let mut b = GraphBuilder::new(3);
        b.set_labels(vec![1, 2]);
        b.build();
    }

    #[test]
    fn parallel_edges_kept_without_dedup() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1, 1]);
    }

    #[test]
    fn from_graph_roundtrips() {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 2.0);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.set_labels(vec![5, 6, 7, 8]);
        let g = b.build();
        let again = GraphBuilder::from_graph(&g).build();
        assert_eq!(again, g);

        let mut d = GraphBuilder::directed(3);
        d.add_edge(0, 1);
        d.add_edge(1, 0);
        d.add_edge(1, 2);
        let dg = d.build();
        assert_eq!(GraphBuilder::from_graph(&dg).build(), dg);
    }

    #[test]
    fn apply_reapply_is_idempotent() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let base = b.build();
        let batch = [
            Mutation::InsertEdge { u: 2, v: 3, w: 1.0 },
            Mutation::DeleteEdge { u: 0, v: 1 },
        ];
        let mut once = GraphBuilder::from_graph(&base);
        let s1 = once.apply(&batch);
        assert_eq!(
            s1,
            ApplyStats {
                applied: 2,
                noops: 0
            }
        );
        let g_once = once.build();
        // The same batch again: every mutation degenerates to a no-op and
        // the built graph is unchanged.
        let mut twice = GraphBuilder::from_graph(&g_once);
        let s2 = twice.apply(&batch);
        assert_eq!(
            s2,
            ApplyStats {
                applied: 0,
                noops: 2
            }
        );
        assert_eq!(twice.build(), g_once);
    }

    #[test]
    fn apply_delete_of_missing_is_noop() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let base = b.build();
        let mut builder = GraphBuilder::from_graph(&base);
        let stats = builder.apply(&[
            Mutation::DeleteEdge { u: 1, v: 2 },
            Mutation::DeleteEdge { u: 0, v: 9 },
            Mutation::DeleteEdgeAt { u: 2, rank: 0 },
        ]);
        assert_eq!(
            stats,
            ApplyStats {
                applied: 0,
                noops: 3
            }
        );
        assert_eq!(builder.build(), base);
    }

    #[test]
    fn apply_insert_guards_match_generator_invariants() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let base = b.build();
        let mut builder = GraphBuilder::from_graph(&base);
        let stats = builder.apply(&[
            Mutation::InsertEdge { u: 1, v: 1, w: 1.0 }, // self-loop
            Mutation::InsertEdge { u: 1, v: 0, w: 1.0 }, // mirror duplicate
            Mutation::InsertEdge { u: 0, v: 7, w: 1.0 }, // out of range
            Mutation::InsertEdge { u: 1, v: 2, w: 1.0 }, // fine
        ]);
        assert_eq!(
            stats,
            ApplyStats {
                applied: 1,
                noops: 3
            }
        );
        let g = builder.build();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 2));
    }
}
