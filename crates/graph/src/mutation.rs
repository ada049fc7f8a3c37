//! Graph mutations and incremental CSR application.
//!
//! The serving layer (`vcgp-stress`) treats the resident [`Graph`] as an
//! immutable epoch snapshot; a writer thread folds a batch of [`Mutation`]s
//! into the *next* epoch's graph. [`apply_batch`] is that fold: it edits
//! only the adjacency rows a batch touches (a sorted edit map over the old
//! CSR) and then splices edited rows with straight copies of the untouched
//! ones — no per-edge re-sorting, dedup passes, or hash probes over the
//! whole edge list the way a from-scratch [`crate::GraphBuilder`] rebuild would
//! need. [`splice_slice`] does the same for a shard's local out-adjacency
//! slice, so a sharded swap rebuilds `S` slices in time proportional to the
//! delta (plus the unavoidable array copies), not `S` full builds.
//!
//! **Semantics mirror the generator guards** (`gnm_connected` refuses
//! self-loops and duplicate edges), so a mutated graph can never leave the
//! class the generators produce:
//!
//! * inserting a self-loop, a duplicate edge, or an edge with an endpoint
//!   outside the current vertex range is a counted no-op;
//! * deleting or reweighting a missing edge is a counted no-op;
//! * reweighting is gated on the graph being weighted (initially, or made
//!   so by an explicit weighted insert in the same batch) — on an
//!   unweighted graph it is a no-op, so a mutation stream can never flip a
//!   graph's weight class implicitly and drop workloads mid-run;
//! * [`Mutation::RemoveVertex`] *detaches* (drops every incident edge) but
//!   never shrinks the id space — vertex ids stay stable across epochs,
//!   which is what keeps shard ownership a frozen pure function of the id.
//!
//! The rank-addressed forms ([`Mutation::DeleteEdgeAt`],
//! [`Mutation::ReweightAt`]) resolve a *positional* index against the
//! current sorted adjacency of `u` at apply time. A seeded mutation stream
//! needs them: on a sparse graph a random `(u, v)` pair almost never names
//! an existing edge, so plain deletes would be ~98 % no-ops; `(u, rank)`
//! always hits while remaining a deterministic function of the stream and
//! the apply order.
//!
//! [`GraphBuilder::apply`](crate::builder::GraphBuilder::apply) implements
//! the same semantics on the builder's edge list and serves as the
//! from-scratch oracle: for any base graph and batch,
//! `apply_batch(g, batch).0 == GraphBuilder::from_graph(g).apply(batch).build()`
//! (property-tested below).

use crate::graph::{Graph, VertexId};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One edit to the resident graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation {
    /// Insert the edge `{u, v}` (arc `u -> v` on digraphs) with weight `w`.
    /// No-op if it already exists, is a self-loop, or an endpoint is out of
    /// range. Weights other than `1.0` make the graph weighted.
    InsertEdge {
        /// Source endpoint.
        u: VertexId,
        /// Target endpoint.
        v: VertexId,
        /// Edge weight (`1.0` keeps the graph's weight class unchanged).
        w: f64,
    },
    /// Delete the edge `{u, v}` (arc `u -> v` on digraphs); a no-op when
    /// the edge does not exist.
    DeleteEdge {
        /// Source endpoint.
        u: VertexId,
        /// Target endpoint.
        v: VertexId,
    },
    /// Delete the edge at position `rank % out_degree(u)` in `u`'s sorted
    /// adjacency (at the time this mutation applies); a no-op when `u` is
    /// out of range or currently has no out-edges.
    DeleteEdgeAt {
        /// Vertex whose adjacency is indexed.
        u: VertexId,
        /// Positional index, reduced modulo the current out-degree.
        rank: u32,
    },
    /// Set the weight of the existing edge `{u, v}` to `w`. No-op when the
    /// edge is missing or the graph is unweighted (see the module docs).
    Reweight {
        /// Source endpoint.
        u: VertexId,
        /// Target endpoint.
        v: VertexId,
        /// New weight.
        w: f64,
    },
    /// [`Mutation::Reweight`] addressed by adjacency position, like
    /// [`Mutation::DeleteEdgeAt`].
    ReweightAt {
        /// Vertex whose adjacency is indexed.
        u: VertexId,
        /// Positional index, reduced modulo the current out-degree.
        rank: u32,
        /// New weight.
        w: f64,
    },
    /// Append a new isolated vertex (id = current `n`). The label is stored
    /// only when the graph is labeled.
    AddVertex {
        /// Label for the new vertex (ignored on unlabeled graphs).
        label: u32,
    },
    /// Detach vertex `v`: drop every incident edge. The id space never
    /// shrinks — `v` remains a valid, isolated vertex. No-op when `v` is
    /// out of range or already isolated.
    RemoveVertex {
        /// The vertex to detach.
        v: VertexId,
    },
}

/// How many mutations of a batch changed the graph vs. landed as no-ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Mutations that changed the graph.
    pub applied: u64,
    /// Mutations absorbed as no-ops (duplicate insert, delete-of-missing,
    /// self-loop, out-of-range id, reweight-on-unweighted, …).
    pub noops: u64,
}

/// The result summary of [`apply_batch`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplyDelta {
    /// Applied/no-op counts.
    pub stats: ApplyStats,
    /// Every vertex whose adjacency row (or existence) changed, sorted and
    /// deduplicated — the work-list an incremental shard-slice rebuild
    /// ([`splice_slice`]) needs.
    pub touched: Vec<VertexId>,
    /// Vertex count of the new graph (grows under [`Mutation::AddVertex`]).
    pub new_n: usize,
}

/// One adjacency row under edit: `(target, weight)` pairs sorted by target.
type Row = Vec<(VertexId, f64)>;

/// Inserts `(t, w)` into a sorted row; `false` if `t` is already present.
fn row_insert(row: &mut Row, t: VertexId, w: f64) -> bool {
    match row.binary_search_by_key(&t, |&(x, _)| x) {
        Ok(_) => false,
        Err(idx) => {
            row.insert(idx, (t, w));
            true
        }
    }
}

/// Removes every `(t, _)` entry; returns how many were removed.
fn row_remove_all(row: &mut Row, t: VertexId) -> usize {
    let before = row.len();
    row.retain(|&(x, _)| x != t);
    before - row.len()
}

/// Sets the weight of every `(t, _)` entry; returns how many were updated.
fn row_set_weight(row: &mut Row, t: VertexId, w: f64) -> usize {
    let mut updated = 0;
    for e in row.iter_mut().filter(|e| e.0 == t) {
        e.1 = w;
        updated += 1;
    }
    updated
}

/// The in-flight edit state of one batch application.
struct EditState<'g> {
    g: &'g Graph,
    base_n: usize,
    n: usize,
    directed: bool,
    /// Edited forward rows (absent = unchanged from `g`).
    fwd: BTreeMap<VertexId, Row>,
    /// Edited reverse rows (directed graphs only).
    rev: BTreeMap<VertexId, Row>,
    labels: Option<Vec<u32>>,
    touched: BTreeSet<VertexId>,
    /// Whether reweights apply: true when the base graph is weighted or an
    /// explicit non-unit weight entered during this batch.
    weighted_gate: bool,
    stats: ApplyStats,
}

impl<'g> EditState<'g> {
    fn new(g: &'g Graph) -> Self {
        EditState {
            g,
            base_n: g.num_vertices(),
            n: g.num_vertices(),
            directed: g.is_directed(),
            fwd: BTreeMap::new(),
            rev: BTreeMap::new(),
            labels: g.labels().map(|l| l.to_vec()),
            touched: BTreeSet::new(),
            weighted_gate: g.is_weighted(),
            stats: ApplyStats::default(),
        }
    }

    /// The current forward row of `v`, materializing it into the edit map.
    fn fwd_row(&mut self, v: VertexId) -> &mut Row {
        let (g, base_n) = (self.g, self.base_n);
        self.fwd.entry(v).or_insert_with(|| {
            if (v as usize) < base_n {
                g.out_edges(v).collect()
            } else {
                Vec::new()
            }
        })
    }

    /// The current reverse (in-adjacency) row of `v`; directed graphs only.
    fn rev_row(&mut self, v: VertexId) -> &mut Row {
        debug_assert!(self.directed);
        let (g, base_n) = (self.g, self.base_n);
        self.rev.entry(v).or_insert_with(|| {
            if (v as usize) < base_n {
                g.in_edges(v).collect()
            } else {
                Vec::new()
            }
        })
    }

    fn in_range(&self, v: VertexId) -> bool {
        (v as usize) < self.n
    }

    fn applied(&mut self) {
        self.stats.applied += 1;
    }

    fn noop(&mut self) {
        self.stats.noops += 1;
    }

    fn insert_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        if u == v || !self.in_range(u) || !self.in_range(v) {
            return self.noop();
        }
        if !row_insert(self.fwd_row(u), v, w) {
            return self.noop();
        }
        if self.directed {
            row_insert(self.rev_row(v), u, w);
        } else {
            row_insert(self.fwd_row(v), u, w);
        }
        self.touched.insert(u);
        self.touched.insert(v);
        if w != 1.0 {
            self.weighted_gate = true;
        }
        self.applied();
    }

    fn delete_edge(&mut self, u: VertexId, v: VertexId) {
        if !self.in_range(u) || !self.in_range(v) {
            return self.noop();
        }
        if row_remove_all(self.fwd_row(u), v) == 0 {
            return self.noop();
        }
        if self.directed {
            row_remove_all(self.rev_row(v), u);
        } else if u != v {
            row_remove_all(self.fwd_row(v), u);
        }
        self.touched.insert(u);
        self.touched.insert(v);
        self.applied();
    }

    /// Resolves `(u, rank)` to the concrete target in `u`'s current sorted
    /// adjacency, or `None` when `u` is out of range or isolated.
    fn resolve_rank(&mut self, u: VertexId, rank: u32) -> Option<VertexId> {
        if !self.in_range(u) {
            return None;
        }
        let row = self.fwd_row(u);
        if row.is_empty() {
            return None;
        }
        Some(row[rank as usize % row.len()].0)
    }

    fn reweight(&mut self, u: VertexId, v: VertexId, w: f64) {
        if !self.weighted_gate || !self.in_range(u) || !self.in_range(v) {
            return self.noop();
        }
        if row_set_weight(self.fwd_row(u), v, w) == 0 {
            return self.noop();
        }
        if self.directed {
            row_set_weight(self.rev_row(v), u, w);
        } else if u != v {
            row_set_weight(self.fwd_row(v), u, w);
        }
        self.touched.insert(u);
        self.touched.insert(v);
        if w != 1.0 {
            self.weighted_gate = true;
        }
        self.applied();
    }

    fn add_vertex(&mut self, label: u32) {
        if self.n + 1 >= u32::MAX as usize {
            return self.noop();
        }
        let id = self.n as VertexId;
        self.n += 1;
        if let Some(labels) = &mut self.labels {
            labels.push(label);
        }
        self.touched.insert(id);
        self.applied();
    }

    fn remove_vertex(&mut self, v: VertexId) {
        if !self.in_range(v) {
            return self.noop();
        }
        let out: Row = self.fwd_row(v).clone();
        let incoming: Row = if self.directed {
            self.rev_row(v).clone()
        } else {
            Vec::new()
        };
        if out.is_empty() && incoming.is_empty() {
            return self.noop();
        }
        for &(t, _) in &out {
            if t == v {
                continue; // the self-loop dies with the row clear below
            }
            if self.directed {
                row_remove_all(self.rev_row(t), v);
            } else {
                row_remove_all(self.fwd_row(t), v);
            }
            self.touched.insert(t);
        }
        for &(s, _) in &incoming {
            if s != v {
                row_remove_all(self.fwd_row(s), v);
                self.touched.insert(s);
            }
        }
        self.fwd_row(v).clear();
        if self.directed {
            self.rev_row(v).clear();
        }
        self.touched.insert(v);
        self.applied();
    }
}

/// Applies `batch` in order to `graph`, returning the new graph and a
/// summary of what changed. See the module docs for the exact semantics of
/// each [`Mutation`]; the input graph is untouched (epoch snapshots are
/// immutable).
pub fn apply_batch(graph: &Graph, batch: &[Mutation]) -> (Graph, ApplyDelta) {
    let mut st = EditState::new(graph);
    for m in batch {
        match *m {
            Mutation::InsertEdge { u, v, w } => st.insert_edge(u, v, w),
            Mutation::DeleteEdge { u, v } => st.delete_edge(u, v),
            Mutation::DeleteEdgeAt { u, rank } => match st.resolve_rank(u, rank) {
                Some(t) => st.delete_edge(u, t),
                None => st.noop(),
            },
            Mutation::Reweight { u, v, w } => st.reweight(u, v, w),
            Mutation::ReweightAt { u, rank, w } => {
                // Gate first so the no-op outcome does not depend on the
                // (irrelevant) adjacency of `u` — and matches the builder
                // oracle exactly.
                if st.weighted_gate {
                    match st.resolve_rank(u, rank) {
                        Some(t) => st.reweight(u, t, w),
                        None => st.noop(),
                    }
                } else {
                    st.noop();
                }
            }
            Mutation::AddVertex { label } => st.add_vertex(label),
            Mutation::RemoveVertex { v } => st.remove_vertex(v),
        }
    }

    let EditState {
        g,
        base_n,
        n,
        directed,
        fwd,
        rev,
        labels,
        touched,
        stats,
        ..
    } = st;

    let (offsets, targets, weights) =
        splice_csr(n, base_n, &g.offsets, &g.targets, &g.weights, &fwd);
    let (rev_offsets, rev_targets, rev_weights) = if directed {
        splice_csr(
            n,
            base_n,
            &g.rev_offsets,
            &g.rev_targets,
            &g.rev_weights,
            &rev,
        )
    } else {
        (Vec::new(), Vec::new(), Vec::new())
    };
    let weighted = weights.iter().any(|&w| w != 1.0);
    let num_edges = if directed {
        targets.len()
    } else {
        // Undirected CSR stores a non-loop edge twice and a self-loop once:
        // arcs = 2(m - loops) + loops, so m = (arcs + loops) / 2.
        let loops = (0..n)
            .map(|v| {
                targets[offsets[v]..offsets[v + 1]]
                    .iter()
                    .filter(|&&t| t as usize == v)
                    .count()
            })
            .sum::<usize>();
        (targets.len() + loops) / 2
    };
    let new_graph = Graph {
        directed,
        weighted,
        num_edges,
        offsets,
        targets,
        weights,
        rev_offsets,
        rev_targets,
        rev_weights,
        labels,
    };
    let delta = ApplyDelta {
        stats,
        touched: touched.into_iter().collect(),
        new_n: n,
    };
    (new_graph, delta)
}

/// Splices edited rows into fresh CSR arrays: untouched rows are copied
/// from the old arrays, edited rows come from the map, rows past the old
/// vertex count default to empty unless edited.
fn splice_csr(
    new_n: usize,
    old_n: usize,
    old_offsets: &[usize],
    old_targets: &[VertexId],
    old_weights: &[f64],
    edits: &BTreeMap<VertexId, Row>,
) -> (Vec<usize>, Vec<VertexId>, Vec<f64>) {
    let mut arcs = old_targets.len();
    for (&v, row) in edits {
        let old_len = if (v as usize) < old_n {
            old_offsets[v as usize + 1] - old_offsets[v as usize]
        } else {
            0
        };
        arcs = arcs + row.len() - old_len;
    }
    let mut offsets = Vec::with_capacity(new_n + 1);
    let mut targets = Vec::with_capacity(arcs);
    let mut weights = Vec::with_capacity(arcs);
    offsets.push(0);
    for v in 0..new_n {
        match edits.get(&(v as VertexId)) {
            Some(row) => {
                for &(t, w) in row {
                    targets.push(t);
                    weights.push(w);
                }
            }
            None if v < old_n => {
                let (a, b) = (old_offsets[v], old_offsets[v + 1]);
                targets.extend_from_slice(&old_targets[a..b]);
                weights.extend_from_slice(&old_weights[a..b]);
            }
            None => {}
        }
        offsets.push(targets.len());
    }
    (offsets, targets, weights)
}

/// Incrementally rebuilds one shard's local out-adjacency slice (see the
/// sharded service: a *directed* CSR over the full id space holding exactly
/// the out-arcs of owned vertices) for the new epoch graph `full_new`,
/// given the `touched` vertex list of [`apply_batch`]'s [`ApplyDelta`] and
/// the shard's ownership predicate. Only touched owned rows are re-read
/// from the new graph; everything else is spliced straight from
/// `old_slice`, including its reverse CSR (patched by multiset diff).
pub fn splice_slice(
    old_slice: &Graph,
    full_new: &Graph,
    touched: &[VertexId],
    owns: &dyn Fn(VertexId) -> bool,
) -> Graph {
    assert!(old_slice.is_directed(), "shard slices are directed CSRs");
    let old_n = old_slice.num_vertices();
    let new_n = full_new.num_vertices();
    debug_assert!(new_n >= old_n, "the id space never shrinks");

    let mut fwd: BTreeMap<VertexId, Row> = BTreeMap::new();
    for &v in touched {
        if (v as usize) < new_n && owns(v) {
            fwd.insert(v, full_new.out_edges(v).collect());
        }
    }

    // Patch the reverse CSR by diffing each edited forward row against its
    // old content: removed arcs drop their (target -> source) mirror,
    // added arcs insert one, keeping every reverse row sorted by source.
    let mut rev: BTreeMap<VertexId, Row> = BTreeMap::new();
    for (&v, new_row) in &fwd {
        let old_row: Row = if (v as usize) < old_n {
            old_slice.out_edges(v).collect()
        } else {
            Vec::new()
        };
        let mut counts: HashMap<(VertexId, u64), i64> = HashMap::new();
        for &(t, w) in new_row {
            *counts.entry((t, w.to_bits())).or_insert(0) += 1;
        }
        for &(t, w) in &old_row {
            *counts.entry((t, w.to_bits())).or_insert(0) -= 1;
        }
        for ((t, wbits), c) in counts {
            if c == 0 {
                continue;
            }
            let row = match rev.entry(t) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(if (t as usize) < old_n {
                    old_slice.in_edges(t).collect()
                } else {
                    Vec::new()
                }),
            };
            let w = f64::from_bits(wbits);
            if c > 0 {
                for _ in 0..c {
                    let idx = row.partition_point(|&(s, _)| s < v);
                    row.insert(idx, (v, w));
                }
            } else {
                for _ in 0..(-c) {
                    if let Some(idx) = row.iter().position(|&(s, rw)| s == v && rw == w) {
                        row.remove(idx);
                    } else if let Some(idx) = row.iter().position(|&(s, _)| s == v) {
                        row.remove(idx);
                    }
                }
            }
        }
    }

    let (offsets, targets, weights) = splice_csr(
        new_n,
        old_n,
        &old_slice.offsets,
        &old_slice.targets,
        &old_slice.weights,
        &fwd,
    );
    let (rev_offsets, rev_targets, rev_weights) = splice_csr(
        new_n,
        old_n,
        &old_slice.rev_offsets,
        &old_slice.rev_targets,
        &old_slice.rev_weights,
        &rev,
    );
    let weighted = weights.iter().any(|&w| w != 1.0);
    let num_edges = targets.len();
    Graph {
        directed: true,
        weighted,
        num_edges,
        offsets,
        targets,
        weights,
        rev_offsets,
        rev_targets,
        rev_weights,
        labels: full_new.labels().map(|l| l.to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators;
    use crate::rng::SplitMix64;

    fn path4() -> Graph {
        // 0-1-2-3 path, undirected, unweighted.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn insert_then_reapply_is_idempotent() {
        let g = path4();
        let batch = [Mutation::InsertEdge { u: 0, v: 3, w: 1.0 }];
        let (g1, d1) = apply_batch(&g, &batch);
        assert_eq!(
            d1.stats,
            ApplyStats {
                applied: 1,
                noops: 0
            }
        );
        assert!(g1.has_edge(0, 3) && g1.has_edge(3, 0));
        assert_eq!(g1.num_edges(), 4);
        // Re-applying the same batch is a pure no-op: same graph, no drift.
        let (g2, d2) = apply_batch(&g1, &batch);
        assert_eq!(
            d2.stats,
            ApplyStats {
                applied: 0,
                noops: 1
            }
        );
        assert_eq!(g2, g1);
        assert!(d2.touched.is_empty());
    }

    #[test]
    fn delete_of_missing_is_noop() {
        let g = path4();
        let batch = [
            Mutation::DeleteEdge { u: 0, v: 3 },  // never existed
            Mutation::DeleteEdge { u: 0, v: 99 }, // out of range
            Mutation::DeleteEdge { u: 0, v: 1 },  // exists
            Mutation::DeleteEdge { u: 1, v: 0 },  // just deleted (mirror)
        ];
        let (g1, d) = apply_batch(&g, &batch);
        assert_eq!(
            d.stats,
            ApplyStats {
                applied: 1,
                noops: 3
            }
        );
        assert!(!g1.has_edge(0, 1) && !g1.has_edge(1, 0));
        assert_eq!(g1.num_edges(), 2);
    }

    #[test]
    fn self_loop_and_duplicate_inserts_are_noops() {
        let g = path4();
        let (g1, d) = apply_batch(
            &g,
            &[
                Mutation::InsertEdge { u: 2, v: 2, w: 1.0 }, // self-loop
                Mutation::InsertEdge { u: 0, v: 1, w: 1.0 }, // duplicate
                Mutation::InsertEdge { u: 1, v: 0, w: 1.0 }, // mirror duplicate
                Mutation::InsertEdge { u: 9, v: 0, w: 1.0 }, // out of range
            ],
        );
        assert_eq!(
            d.stats,
            ApplyStats {
                applied: 0,
                noops: 4
            }
        );
        assert_eq!(g1, g);
    }

    #[test]
    fn reweight_gated_on_weighted_graphs() {
        let g = path4();
        // Unweighted graph: reweights are no-ops, positional or not.
        let (g1, d) = apply_batch(
            &g,
            &[
                Mutation::Reweight { u: 0, v: 1, w: 5.0 },
                Mutation::ReweightAt {
                    u: 1,
                    rank: 0,
                    w: 5.0,
                },
            ],
        );
        assert_eq!(
            d.stats,
            ApplyStats {
                applied: 0,
                noops: 2
            }
        );
        assert_eq!(g1, g);
        assert!(!g1.is_weighted());
        // An explicit weighted insert opens the gate within the same batch.
        let (g2, d2) = apply_batch(
            &g,
            &[
                Mutation::InsertEdge { u: 0, v: 2, w: 2.5 },
                Mutation::Reweight { u: 0, v: 1, w: 5.0 },
            ],
        );
        assert_eq!(
            d2.stats,
            ApplyStats {
                applied: 2,
                noops: 0
            }
        );
        assert!(g2.is_weighted());
        assert_eq!(g2.edge_weight(0, 1), Some(5.0));
        assert_eq!(g2.edge_weight(1, 0), Some(5.0));
    }

    #[test]
    fn rank_addressed_delete_hits_sorted_adjacency() {
        let g = path4();
        // Vertex 1's sorted adjacency is [0, 2]; rank 5 % 2 = 1 names 2.
        let (g1, d) = apply_batch(&g, &[Mutation::DeleteEdgeAt { u: 1, rank: 5 }]);
        assert_eq!(d.stats.applied, 1);
        assert!(!g1.has_edge(1, 2));
        assert!(g1.has_edge(1, 0));
        // Isolated vertex: positional delete is a no-op.
        let (g2, _) = apply_batch(&g1, &[Mutation::RemoveVertex { v: 3 }]);
        let (_, d2) = apply_batch(&g2, &[Mutation::DeleteEdgeAt { u: 3, rank: 0 }]);
        assert_eq!(
            d2.stats,
            ApplyStats {
                applied: 0,
                noops: 1
            }
        );
    }

    #[test]
    fn add_vertex_grows_id_space() {
        let g = path4();
        let (g1, d) = apply_batch(
            &g,
            &[
                Mutation::AddVertex { label: 7 },
                Mutation::InsertEdge { u: 4, v: 0, w: 1.0 },
            ],
        );
        assert_eq!(d.stats.applied, 2);
        assert_eq!(g1.num_vertices(), 5);
        assert_eq!(d.new_n, 5);
        assert!(g1.has_edge(4, 0) && g1.has_edge(0, 4));
        // Unlabeled base: the label is ignored, the graph stays unlabeled.
        assert!(!g1.is_labeled());
        assert!(d.touched.contains(&4));
    }

    #[test]
    fn add_vertex_extends_labels_on_labeled_graphs() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.set_labels(vec![3, 4]);
        let g = b.build();
        let (g1, _) = apply_batch(&g, &[Mutation::AddVertex { label: 9 }]);
        assert_eq!(g1.labels(), Some(&[3, 4, 9][..]));
    }

    #[test]
    fn remove_vertex_detaches_but_keeps_id() {
        let g = path4();
        let (g1, d) = apply_batch(&g, &[Mutation::RemoveVertex { v: 1 }]);
        assert_eq!(d.stats.applied, 1);
        assert_eq!(g1.num_vertices(), 4);
        assert!(g1.neighbors(1).is_empty());
        assert!(!g1.has_edge(0, 1) && !g1.has_edge(2, 1));
        assert_eq!(g1.num_edges(), 1);
        // Detaching an already-isolated vertex is a no-op.
        let (g2, d2) = apply_batch(&g1, &[Mutation::RemoveVertex { v: 1 }]);
        assert_eq!(
            d2.stats,
            ApplyStats {
                applied: 0,
                noops: 1
            }
        );
        assert_eq!(g2, g1);
    }

    #[test]
    fn directed_apply_maintains_reverse_csr() {
        let mut b = GraphBuilder::directed(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        let g = b.build();
        let (g1, d) = apply_batch(
            &g,
            &[
                Mutation::InsertEdge { u: 3, v: 1, w: 1.0 },
                Mutation::DeleteEdge { u: 0, v: 1 },
                Mutation::RemoveVertex { v: 2 },
            ],
        );
        assert_eq!(d.stats.applied, 3);
        assert_eq!(g1.out_neighbors(3), &[1]);
        assert_eq!(g1.in_neighbors(1), &[3]);
        assert!(g1.out_neighbors(2).is_empty());
        assert!(g1.in_neighbors(2).is_empty());
        assert!(g1.in_neighbors(0).is_empty()); // 2 -> 0 died with vertex 2
        assert_eq!(g1.num_edges(), 1);
    }

    /// Draws a random but seed-deterministic mutation batch over a graph
    /// with `n` vertices, exercising every variant.
    fn random_batch(rng: &mut SplitMix64, n: usize, len: usize) -> Vec<Mutation> {
        (0..len)
            .map(|_| {
                let u = rng.next_index(n + 2) as VertexId; // sometimes out of range
                let v = rng.next_index(n + 2) as VertexId;
                let w = if rng.next_bool(0.5) {
                    1.0
                } else {
                    (rng.next_below(8) + 1) as f64 / 2.0
                };
                match rng.next_below(7) {
                    0 => Mutation::InsertEdge { u, v, w },
                    1 => Mutation::DeleteEdge { u, v },
                    2 => Mutation::DeleteEdgeAt {
                        u,
                        rank: rng.next_below(16) as u32,
                    },
                    3 => Mutation::Reweight { u, v, w },
                    4 => Mutation::ReweightAt {
                        u,
                        rank: rng.next_below(16) as u32,
                        w,
                    },
                    5 => Mutation::AddVertex {
                        label: rng.next_below(8) as u32,
                    },
                    _ => Mutation::RemoveVertex { v },
                }
            })
            .collect()
    }

    #[test]
    fn apply_batch_equals_builder_oracle() {
        // The incremental CSR splice must agree bit-for-bit with replaying
        // the same semantics through a from-scratch GraphBuilder rebuild,
        // on directed and undirected, weighted and unweighted bases.
        for seed in 0..12u64 {
            let mut rng = SplitMix64::new(0xBA7C_0000 + seed);
            let n = 6 + rng.next_index(10);
            let m = (n - 1) + rng.next_index(n);
            let base = if seed % 2 == 0 {
                generators::gnm_connected(n, m, seed)
            } else {
                let mut b = GraphBuilder::directed(n);
                for _ in 0..m {
                    let u = rng.next_index(n) as VertexId;
                    let v = rng.next_index(n) as VertexId;
                    if u != v {
                        b.add_weighted_edge(u, v, (rng.next_below(4) + 1) as f64);
                    }
                }
                b.dedup().build()
            };
            let batch = random_batch(&mut rng, base.num_vertices(), 24);
            let (incremental, delta) = apply_batch(&base, &batch);
            let mut oracle = GraphBuilder::from_graph(&base);
            let oracle_stats = oracle.apply(&batch);
            let rebuilt = oracle.build();
            assert_eq!(incremental, rebuilt, "seed {seed}");
            assert_eq!(delta.stats, oracle_stats, "seed {seed}");
            assert_eq!(
                delta.stats.applied + delta.stats.noops,
                batch.len() as u64,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn splice_slice_equals_full_slice_rebuild() {
        let base = generators::gnm_connected(24, 60, 3);
        let owns = |shard: usize, s_total: usize| move |v: VertexId| v as usize % s_total == shard;
        let build_slice = |full: &Graph, shard: usize, s_total: usize| {
            let n = full.num_vertices();
            let mut b = GraphBuilder::directed(n);
            for v in 0..n as VertexId {
                if v as usize % s_total == shard {
                    for (t, w) in full.out_edges(v) {
                        b.add_weighted_edge(v, t, w);
                    }
                }
            }
            if let Some(labels) = full.labels() {
                b.set_labels(labels.to_vec());
            }
            b.build()
        };
        let mut rng = SplitMix64::new(0x51CE);
        let batch = random_batch(&mut rng, base.num_vertices(), 20);
        let (new_full, delta) = apply_batch(&base, &batch);
        for s in 0..3 {
            let old_slice = build_slice(&base, s, 3);
            let spliced = splice_slice(&old_slice, &new_full, &delta.touched, &owns(s, 3));
            let rebuilt = build_slice(&new_full, s, 3);
            assert_eq!(spliced, rebuilt, "shard {s}");
        }
    }

    #[test]
    fn untouched_graph_splices_to_equal_graph() {
        let g = generators::gnm_connected(16, 30, 9);
        let (g1, d) = apply_batch(&g, &[]);
        assert_eq!(g1, g);
        assert_eq!(d.stats, ApplyStats::default());
        assert!(d.touched.is_empty());
    }
}
