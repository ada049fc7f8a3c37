//! Shared by the integration tests that exercise one queue: the service at
//! one shard (× however many replicas `config` asks for, default one).

use std::sync::Arc;
use vcgp_graph::Graph;
use vcgp_stress::service::ServiceConfig;
use vcgp_stress::shard::ShardedGraphService;

/// Starts the service with a single shard owning every vertex.
pub fn one_shard(graph: Arc<Graph>, config: ServiceConfig) -> ShardedGraphService {
    ShardedGraphService::start(graph, config, 1)
}
