//! Writing your own vertex program against the public engine API:
//! synchronous label propagation for community detection, with combiner,
//! aggregator, and master-compute usage — the full surface a Table 1
//! algorithm uses.
//!
//! Run with: `cargo run --release --example custom_algorithm`

use vcgp::pregel::{
    AggOp, AggValue, AggregatorDef, Context, MasterContext, PregelConfig, StateSize, VertexProgram,
};

/// Per-vertex state: the current community label.
#[derive(Debug, Clone, Copy, Default)]
struct Label(u32);

impl StateSize for Label {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Synchronous label propagation: each round every vertex adopts the most
/// frequent label among its neighbors (ties to the smallest), for a fixed
/// number of rounds driven by the master.
struct LabelPropagation {
    rounds: u64,
}

impl VertexProgram for LabelPropagation {
    type Value = Label;
    type Message = u32;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[u32]) {
        if ctx.superstep() == 0 {
            *ctx.value_mut() = Label(ctx.id());
        } else {
            // Most frequent incoming label, ties to the smallest value.
            let mut counts = std::collections::HashMap::new();
            for &l in messages {
                *counts.entry(l).or_insert(0usize) += 1;
            }
            ctx.charge(messages.len() as u64);
            if let Some((&label, _)) = counts.iter().max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            {
                if label != ctx.value().0 {
                    *ctx.value_mut() = Label(label);
                    ctx.aggregate(0, AggValue::I64(1));
                }
            }
        }
        if ctx.superstep() < self.rounds {
            let label = ctx.value().0;
            ctx.send_to_all_out_neighbors(label);
        }
        ctx.vote_to_halt();
    }

    fn aggregators(&self) -> Vec<AggregatorDef> {
        vec![AggregatorDef::new("changed", AggOp::SumI64)]
    }

    fn master_compute(&self, master: &mut MasterContext<'_>) {
        if master.superstep() > 0 {
            let changed = master.read_aggregate(0).as_i64();
            if changed == 0 && master.superstep() > 1 {
                master.halt(); // converged early
                return;
            }
        }
        if master.superstep() < self.rounds {
            master.reactivate_all();
        }
    }
}

fn main() {
    // Two dense clusters joined by a single bridge edge.
    let mut builder = vcgp::graph::GraphBuilder::new(60);
    let mut rng = vcgp::graph::SplitMix64::new(5);
    for cluster in 0..2u32 {
        let base = cluster * 30;
        for _ in 0..150 {
            let u = base + rng.next_below(30) as u32;
            let v = base + rng.next_below(30) as u32;
            if u != v {
                builder.add_edge(u, v);
            }
        }
    }
    builder.add_edge(0, 30);
    let graph = builder.dedup().build();

    let config = PregelConfig::default().with_workers(4);
    let (labels, stats) = vcgp::pregel::run(&LabelPropagation { rounds: 20 }, &graph, &config);

    let mut communities = std::collections::HashMap::new();
    for l in &labels {
        *communities.entry(l.0).or_insert(0usize) += 1;
    }
    println!(
        "label propagation found {} communities in {} supersteps ({} messages)",
        communities.len(),
        stats.supersteps(),
        stats.total_messages()
    );
    let mut sizes: Vec<(u32, usize)> = communities.into_iter().collect();
    sizes.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
    for (label, size) in sizes.iter().take(4) {
        println!("  community {label}: {size} members");
    }
    // The two planted clusters should dominate.
    assert!(sizes[0].1 >= 20, "planted cluster not recovered");
}
