//! Stable 64-bit graph fingerprints for result caching.
//!
//! A serving-path answer is a pure function of `(workload, graph, seed)`
//! (see [`crate::service::run_workload`]), so memoizing it needs a compact,
//! stable identity for the graph. The fingerprint hashes the vertex/edge
//! *structure* — arc set with weights, vertex labels, directedness, and the
//! `(n, m)` shape — into one `u64`:
//!
//! * **Order-independent over arcs.** Per-arc hashes are combined with
//!   wrapping addition, so the fingerprint does not depend on the order a
//!   builder inserted edges or the CSR happens to iterate them. Two graphs
//!   with the same arc multiset fingerprint identically.
//! * **Stable across runs and platforms.** Built on the workspace's own
//!   [`mix3`] / SplitMix64 mixing — no `std::hash::Hasher` whose output can
//!   change between toolchain releases. A fingerprint persisted in a report
//!   stays comparable forever.
//! * **Cheap.** One `O(n + m)` pass, intended to run once per graph
//!   version (at load and at each epoch swap), never per request.
//!
//! This is a cache key, not a cryptographic commitment: collisions are
//! possible in principle (it is 64 bits) but need adversarial construction;
//! the serving layer only ever compares fingerprints of graphs it loaded
//! itself.

use vcgp_graph::rng::mix3;
use vcgp_graph::Graph;

/// Domain separator for arc hashes.
const ARC_STREAM: u64 = 0x4647_5052_4152_4321; // "FGPRARC!"
/// Domain separator for label hashes.
const LABEL_STREAM: u64 = 0x4647_5052_4C41_4221; // "FGPRLAB!"
/// Domain separator for the final shape fold.
const SHAPE_STREAM: u64 = 0x4647_5052_5348_5021; // "FGPRSHP!"

/// The order-independent structural fingerprint of `graph`.
///
/// Equal graphs (same directedness, arc multiset with weights, and labels)
/// always fingerprint equally; changing any edge, weight, or label changes
/// the fingerprint with overwhelming probability.
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    let mut acc: u64 = 0;
    for v in graph.vertices() {
        for (t, w) in graph.out_edges(v) {
            // Weight bits participate so re-weighting invalidates cached
            // MST/matching answers; `to_bits` keeps the hash exact (no
            // float comparison semantics involved).
            acc = acc.wrapping_add(mix3(
                u64::from(v) << 32 | u64::from(t),
                w.to_bits(),
                ARC_STREAM,
            ));
        }
    }
    if let Some(labels) = graph.labels() {
        for (v, &l) in labels.iter().enumerate() {
            acc = acc.wrapping_add(mix3(v as u64, u64::from(l), LABEL_STREAM));
        }
    }
    let shape = (graph.num_vertices() as u64) << 32
        | (graph.num_edges() as u64 & 0xFFFF_FFFF)
        | u64::from(graph.is_directed()) << 63;
    mix3(acc, shape, SHAPE_STREAM)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::{generators, GraphBuilder};

    #[test]
    fn equal_graphs_fingerprint_equally() {
        let a = generators::gnm_connected(64, 128, 7);
        let b = generators::gnm_connected(64, 128, 7);
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&b));
    }

    #[test]
    fn fingerprint_is_insertion_order_independent() {
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)];
        let mut fwd = GraphBuilder::new(4);
        for &(u, v) in &edges {
            fwd.add_edge(u, v);
        }
        let mut rev = GraphBuilder::new(4);
        for &(u, v) in edges.iter().rev() {
            rev.add_edge(u, v);
        }
        assert_eq!(
            graph_fingerprint(&fwd.build()),
            graph_fingerprint(&rev.build())
        );
    }

    #[test]
    fn structure_changes_change_the_fingerprint() {
        let base = generators::gnm_connected(48, 96, 3);
        let other_edges = generators::gnm_connected(48, 97, 3);
        let other_seed = generators::gnm_connected(48, 96, 4);
        let weighted = generators::with_random_weights(&base, 0.0, 1.0, 9, true);
        let fp = graph_fingerprint(&base);
        assert_ne!(fp, graph_fingerprint(&other_edges), "edge count");
        assert_ne!(fp, graph_fingerprint(&other_seed), "edge set");
        assert_ne!(fp, graph_fingerprint(&weighted), "weights");
    }

    #[test]
    fn direction_and_labels_matter() {
        let undirected = generators::gnm_connected(32, 60, 5);
        let directed = generators::digraph_gnm(32, 60, 5);
        assert_ne!(graph_fingerprint(&undirected), graph_fingerprint(&directed));

        let plain = generators::digraph_gnm(40, 100, 6);
        let labeled = generators::labeled_digraph(40, 100, 3, 6);
        assert_ne!(graph_fingerprint(&plain), graph_fingerprint(&labeled));
    }
}
