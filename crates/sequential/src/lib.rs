//! Best-known sequential baselines for the twenty Table 1 workloads.
//!
//! Every algorithm returns its result together with a deterministic
//! **operation count** (`work`), the sequential side of the paper's
//! time-processor-product comparison. Operation counts charge one unit per
//! elementary step actually executed — vertex visits, edge scans, heap
//! sifts, union-find parent hops — so the measured series reproduce each
//! algorithm's asymptotic behaviour without wall-clock noise.
//!
//! Substitutions relative to the paper's "best known" column (documented in
//! DESIGN.md): Chazelle's MST → Kruskal/Prim, Fibonacci-heap Dijkstra →
//! binary-heap Dijkstra, Chan's APSP → BFS-per-source. Each keeps the same
//! comparison shape at our scales.

pub mod bcc;
pub mod betweenness;
pub mod coloring;
pub mod connectivity;
pub mod diameter;
pub mod matching;
pub mod mst;
pub mod pagerank;
pub mod reachability;
pub mod scc;
pub mod simulation;
pub mod sssp;
pub mod tree;
pub mod triangles;
pub mod work;

pub use work::Work;
