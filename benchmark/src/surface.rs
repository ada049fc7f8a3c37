//! The frozen API surface: every item of the program the benchmark calls.
//!
//! The benchmark reaches the program only through these public items, and
//! only this file names the program's crates. A later change that renames
//! or removes one of them breaks the build here, in one place, instead of
//! silently changing what is measured.

// The sharded service, its requests and its counters.
pub use vcgp_stress::{
    mutation_op, MutationConfig, QueryKind, QueryOutput, QueryRequest, QueryResponse,
    QueueFullPolicy, Route, ServiceConfig, ServiceStats, ShardedGraphService,
};

// Single layers, probed in isolation.
pub use vcgp_stress::{
    CacheKey, CacheScope, CachedAnswer, Pop, QosConfig, ResultCache, TenantQueue, TokenBucket,
};

// The seeded key distributions the op streams draw from.
pub use vcgp_stress::Zipf;

// The batch path (the paper's own measurement) and the oracle.
pub use vcgp_core::service::{
    run_workload, run_workload_partial, supported_workloads, SERVICE_PAGERANK_ITERS,
};
pub use vcgp_core::{graph_fingerprint, Workload};
pub use vcgp_pregel::engine::DEFAULT_STEAL_CHUNK;
pub use vcgp_pregel::{Partitioning, PregelConfig, RunStats};

// Inputs.
pub use vcgp_graph::mutation::{apply_batch, splice_slice};
pub use vcgp_graph::{generators, Graph, GraphBuilder, Mutation, SplitMix64, VertexId};

// The sequential baselines of Table 1.
pub use vcgp_sequential as sequential;

// Histogram (probed) and the JSON reader the reports are re-parsed with.
pub use vcgp_testkit::{json, LogHistogram};
