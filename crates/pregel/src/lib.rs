//! An instrumented Pregel-style BSP vertex-centric graph processing engine.
//!
//! The engine executes a user [`VertexProgram`] over a [`vcgp_graph::Graph`]
//! in globally-synchronous supersteps, following the semantics of Malewicz
//! et al.'s Pregel (SIGMOD 2010):
//!
//! * in superstep 0 every vertex is active and `compute` runs with no
//!   incoming messages;
//! * messages sent in superstep `S` are delivered at the start of `S + 1`;
//! * a vertex may [`Context::vote_to_halt`]; an incoming message reactivates
//!   it; the computation converges when every vertex is halted and no
//!   message is in flight;
//! * optional message combiners, named monoid aggregators, and a
//!   master-compute hook (as in Giraph) for global phase control.
//!
//! Unlike a production system, the engine's first-class output is its
//! **instrumentation**: per-superstep, per-worker counts of local work and
//! messages sent/received — exactly the `w_i`, `s_i`, `r_i` of Valiant's BSP
//! cost model used by the paper (§2.1) — plus optional per-vertex maxima of
//! messages, work, and state bytes for the BPPA properties (§2.2).
//!
//! Work is counted in deterministic *operation units*, not wall time: one
//! unit per compute invocation, per message sent, and per message received,
//! plus whatever the program explicitly charges for adjacency scans via
//! [`Context::charge`]. This makes every cost reported by the workspace
//! exactly reproducible.
//!
//! # Example
//!
//! ```
//! use vcgp_pregel::{Context, PregelConfig, VertexProgram};
//!
//! /// Each vertex counts its neighbors by receiving one ping per edge.
//! struct CountPings;
//! impl VertexProgram for CountPings {
//!     type Value = u64;
//!     type Message = ();
//!     fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[()]) {
//!         if ctx.superstep() == 0 {
//!             ctx.send_to_all_out_neighbors(());
//!         } else {
//!             *ctx.value_mut() = msgs.len() as u64;
//!         }
//!         ctx.vote_to_halt();
//!     }
//! }
//!
//! let g = vcgp_graph::generators::star(5);
//! let (counts, stats) = vcgp_pregel::run(&CountPings, &g, &PregelConfig::single_worker());
//! assert_eq!(counts, vec![4, 1, 1, 1, 1]);
//! assert_eq!(stats.supersteps(), 2);
//! ```

pub mod aggregate;
pub(crate) mod barrier;
pub mod engine;
pub mod metrics;
pub mod partition;
pub(crate) mod pool;
pub mod program;
pub mod state_size;

pub use aggregate::{AggOp, AggTypeMismatch, AggValue, AggregatorDef};
pub use engine::{run, run_with_values, PregelConfig};
pub use metrics::{HaltReason, PerVertexStats, RunStats, SuperstepStats, WorkerStats};
pub use partition::{Partitioner, Partitioning};
pub use program::{Combiner, Context, MasterContext, VertexProgram};
pub use state_size::StateSize;

pub use vcgp_graph::{Graph, VertexId, INVALID_VERTEX};
