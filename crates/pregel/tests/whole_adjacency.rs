//! A whole-adjacency send is a per-neighbor `send` loop, observably: for
//! `send_to_all_out_neighbors` and `send_to_all_in_neighbors`, at every
//! worker and thread count, under both partitionings and with and without
//! a combiner, the run delivers the same messages in the same inbox order,
//! folds the same sends at the sender, and charges every worker the same
//! work, sends and receipts as the explicit loop.

use vcgp_graph::{generators, Graph, VertexId};
use vcgp_pregel::{run, Combiner, Context, Partitioning, PregelConfig, RunStats, VertexProgram};

/// Min-label propagation whose messages carry `label << 32 | sender`, so
/// the inbox-order trace kept beside the label tells senders apart.
struct Spread {
    /// Send through the whole-adjacency call instead of a `send` loop.
    whole: bool,
    /// Follow in-edges instead of out-edges.
    inbound: bool,
    combine: bool,
}

impl VertexProgram for Spread {
    type Value = (u32, u64);
    type Message = u64;
    fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u64]) {
        let first = ctx.superstep() == 0;
        let current = if first { ctx.id() } else { ctx.value().0 };
        let best = msgs
            .iter()
            .map(|m| (m >> 32) as u32)
            .fold(current, u32::min);
        let trace = &mut ctx.value_mut().1;
        for &m in msgs {
            *trace = trace.wrapping_mul(0x100_0000_01b3) ^ m;
        }
        if first || best < current {
            ctx.value_mut().0 = best;
            let msg = (u64::from(best) << 32) | u64::from(ctx.id());
            match (self.whole, self.inbound) {
                (true, false) => ctx.send_to_all_out_neighbors(msg),
                (true, true) => ctx.send_to_all_in_neighbors(msg),
                (false, inbound) => {
                    let targets: &[VertexId] = if inbound {
                        ctx.in_neighbors()
                    } else {
                        ctx.out_neighbors()
                    };
                    for &v in targets {
                        ctx.send(v, msg);
                    }
                }
            }
        }
        ctx.vote_to_halt();
    }
    fn combiner(&self) -> Option<Combiner<u64>> {
        self.combine
            .then_some(|acc: &mut u64, m: u64| *acc = (*acc).min(m))
    }
}

/// Everything the comparison looks at, superstep by superstep.
#[derive(Debug, PartialEq)]
struct Observed {
    /// An FNV-style digest of every vertex's final `(label, inbox-order
    /// trace)`.
    values: u64,
    sent: Vec<u64>,
    delivered: Vec<u64>,
    combined_sender: Vec<u64>,
    /// Per superstep, per worker: `(work, sent, received)`.
    workers: Vec<Vec<(u64, u64, u64)>>,
}

fn observe(values: Vec<(u32, u64)>, stats: &RunStats) -> Observed {
    let steps = &stats.superstep_stats;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for (label, trace) in values {
        for word in [u64::from(label), trace] {
            digest = (digest ^ word).wrapping_mul(0x100_0000_01b3);
        }
    }
    Observed {
        values: digest,
        sent: steps.iter().map(|s| s.messages_sent).collect(),
        delivered: steps.iter().map(|s| s.messages_delivered).collect(),
        combined_sender: steps.iter().map(|s| s.messages_combined_sender).collect(),
        workers: steps
            .iter()
            .map(|s| {
                s.workers
                    .iter()
                    .map(|w| (w.work, w.sent, w.received))
                    .collect()
            })
            .collect(),
    }
}

#[test]
fn whole_adjacency_sends_match_a_per_neighbor_send_loop() {
    // An undirected graph and a skewed digraph, whose in- and out-lists
    // differ.
    let graphs: [Graph; 2] = [
        generators::gnm_connected(200, 700, 3),
        generators::rmat(8, 1024, 5),
    ];
    for (gi, g) in graphs.iter().enumerate() {
        for workers in [1usize, 3, 4] {
            for threads in [1usize, 2] {
                for partitioning in [Partitioning::Hash, Partitioning::Range] {
                    for combine in [false, true] {
                        for inbound in [false, true] {
                            let cfg = PregelConfig::default()
                                .with_workers(workers)
                                .with_threads(threads)
                                .with_steal_chunk(16)
                                .with_partitioning(partitioning);
                            let at = format!(
                                "graph {gi} W={workers} T={threads} {partitioning:?} \
                                 combine={combine} inbound={inbound}"
                            );
                            let [whole, looped] = [true, false].map(|whole| {
                                let program = Spread {
                                    whole,
                                    inbound,
                                    combine,
                                };
                                let (values, stats) = run(&program, g, &cfg);
                                observe(values, &stats)
                            });
                            assert!(whole.sent.iter().sum::<u64>() > 0, "{at}: nothing sent");
                            assert_eq!(whole, looped, "{at}");
                        }
                    }
                }
            }
        }
    }
}
