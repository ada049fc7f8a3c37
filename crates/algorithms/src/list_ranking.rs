//! List ranking by synchronous pointer jumping (§3.4.2, Figure 4(b)).
//!
//! Each list element `v` holds `val(v)` and a predecessor pointer; the
//! algorithm computes `sum(v)` = the sum of values from `v` back to the
//! head. Each round executes the recurrence
//! `sum(v) += sum(pred(v)); pred(v) = pred(pred(v))` for every element
//! simultaneously, realized in two supersteps (request, reply).
//!
//! The predecessor function starts injective (it is a list) and composition
//! preserves injectivity, so every element sends and receives at most one
//! message per superstep — the algorithm is BPPA, terminating in
//! `O(log n)` rounds. The element at position `i` participates in
//! `O(log i)` rounds, giving the paper's `O(n log n)` time-processor
//! product (Stirling).
//!
//! This module is used standalone (tests, figures) and as a stage of the
//! row 9 pre/post-order pipeline and the row 5 BCC pipeline.

use vcgp_graph::{GraphBuilder, INVALID_VERTEX};
use vcgp_pregel::{Context, PregelConfig, RunStats, StateSize, VertexProgram};

/// Per-element state.
#[derive(Debug, Clone, Default)]
pub struct RankState {
    /// Running sum from this element back to the head.
    pub sum: u64,
    /// Current predecessor pointer (`INVALID_VERTEX` = reached the head).
    pub pred: u32,
}

impl StateSize for RankState {
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Messages: even supersteps carry requests, odd supersteps carry the
/// predecessor's `(sum, pred)` snapshot.
#[derive(Debug, Clone, Copy)]
pub enum Msg {
    /// "Send me your state" (payload: requester id).
    Req(u32),
    /// The predecessor's state at the start of this round.
    Reply {
        /// Predecessor's running sum.
        sum: u64,
        /// Predecessor's own pointer.
        pred: u32,
    },
}

struct ListRank;

impl VertexProgram for ListRank {
    type Value = RankState;
    type Message = Msg;

    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[Msg]) {
        if ctx.superstep() % 2 == 0 {
            // Jump phase: fold in the reply from the previous round, then
            // request the (possibly new) predecessor's state.
            for m in messages {
                if let Msg::Reply { sum, pred } = *m {
                    let state = ctx.value_mut();
                    state.sum += sum;
                    state.pred = pred;
                }
            }
            let pred = ctx.value().pred;
            if pred == INVALID_VERTEX {
                ctx.vote_to_halt();
            } else {
                let me = ctx.id();
                ctx.send(pred, Msg::Req(me));
            }
        } else {
            // Reply phase: answer at most one requester (pred is injective).
            let snapshot = (ctx.value().sum, ctx.value().pred);
            for m in messages {
                if let Msg::Req(requester) = *m {
                    ctx.send(
                        requester,
                        Msg::Reply {
                            sum: snapshot.0,
                            pred: snapshot.1,
                        },
                    );
                }
            }
            if ctx.value().pred == INVALID_VERTEX {
                ctx.vote_to_halt();
            }
        }
    }
}

/// Result of list ranking.
#[derive(Debug, Clone)]
pub struct ListRankingResult {
    /// `sum[v]` for every element.
    pub sums: Vec<u64>,
    /// Engine instrumentation.
    pub stats: RunStats,
}

/// Ranks a list given per-element predecessor pointers (`INVALID_VERTEX`
/// for the head) and values. Elements may appear in any order — exactly the
/// setting of §3.4.2.
///
/// # Panics
/// Panics if `preds` and `vals` lengths differ, or if `preds` is not an
/// injective pointer structure ending at a head (i.e. not a linked list).
pub fn run(preds: &[u32], vals: &[u64], config: &PregelConfig) -> ListRankingResult {
    assert_eq!(preds.len(), vals.len(), "one value per element");
    let n = preds.len();
    // Validate list shape: injective predecessors.
    let mut indegree = vec![0u8; n];
    for &p in preds {
        if p != INVALID_VERTEX {
            assert!((p as usize) < n, "pred out of range");
            indegree[p as usize] = indegree[p as usize]
                .checked_add(1)
                .expect("pred must be injective");
            assert!(indegree[p as usize] <= 1, "pred must be injective");
        }
    }
    // The engine runs over an edgeless graph: the list structure lives in
    // the element state, as in the paper's formulation.
    let graph = GraphBuilder::new(n).build();
    let init: Vec<RankState> = preds
        .iter()
        .zip(vals)
        .map(|(&pred, &val)| RankState { sum: val, pred })
        .collect();
    let (values, stats) = vcgp_pregel::run_with_values(&ListRank, &graph, init, config);
    ListRankingResult {
        sums: values.into_iter().map(|s| s.sum).collect(),
        stats,
    }
}

/// Sequential prefix sums for validation and the benchmark baseline.
pub fn sequential_sums(preds: &[u32], vals: &[u64]) -> Vec<u64> {
    let n = preds.len();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut succ = vec![INVALID_VERTEX; n];
    let mut head = INVALID_VERTEX;
    for (v, &p) in preds.iter().enumerate() {
        if p == INVALID_VERTEX {
            assert_eq!(head, INVALID_VERTEX, "multiple heads");
            head = v as u32;
        } else {
            succ[p as usize] = v as u32;
        }
    }
    let mut cur = head;
    while cur != INVALID_VERTEX {
        order.push(cur);
        cur = succ[cur as usize];
    }
    assert_eq!(order.len(), n, "pred structure is not a single list");
    let mut sums = vec![0u64; n];
    let mut acc = 0u64;
    for v in order {
        acc += vals[v as usize];
        sums[v as usize] = acc;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::SplitMix64;

    /// A list of n elements in scrambled storage order; returns
    /// (preds, vals, expected_sums).
    fn scrambled_list(n: usize, seed: u64) -> (Vec<u32>, Vec<u64>) {
        let mut order: Vec<u32> = (0..n as u32).collect();
        SplitMix64::new(seed).shuffle(&mut order);
        let mut preds = vec![INVALID_VERTEX; n];
        for w in order.windows(2) {
            preds[w[1] as usize] = w[0];
        }
        let vals: Vec<u64> = (0..n).map(|i| (i as u64 % 7) + 1).collect();
        (preds, vals)
    }

    #[test]
    fn ranks_identity_list_with_unit_values() {
        let n = 16;
        let preds: Vec<u32> = (0..n as u32)
            .map(|v| if v == 0 { INVALID_VERTEX } else { v - 1 })
            .collect();
        let vals = vec![1u64; n];
        let r = run(&preds, &vals, &PregelConfig::single_worker());
        let expected: Vec<u64> = (1..=n as u64).collect();
        assert_eq!(r.sums, expected);
    }

    #[test]
    fn matches_sequential_on_scrambled_lists() {
        for seed in 0..6 {
            let (preds, vals) = scrambled_list(100, seed);
            let r = run(&preds, &vals, &PregelConfig::single_worker());
            assert_eq!(r.sums, sequential_sums(&preds, &vals), "seed {seed}");
        }
    }

    #[test]
    fn logarithmic_supersteps() {
        let (preds, vals) = scrambled_list(1024, 3);
        let r = run(&preds, &vals, &PregelConfig::single_worker());
        // ~2 supersteps per doubling round: log2(1024) = 10 rounds.
        assert!(
            r.stats.supersteps() <= 2 * 11 + 2,
            "{} supersteps",
            r.stats.supersteps()
        );
        let (preds4, vals4) = scrambled_list(4096, 3);
        let r4 = run(&preds4, &vals4, &PregelConfig::single_worker());
        assert!(
            r4.stats.supersteps() <= r.stats.supersteps() + 6,
            "supersteps must grow logarithmically"
        );
    }

    #[test]
    fn one_message_per_element_per_superstep() {
        let (preds, vals) = scrambled_list(128, 1);
        let cfg = PregelConfig::single_worker().with_per_vertex_tracking();
        let r = run(&preds, &vals, &cfg);
        let pv = r.stats.per_vertex.as_ref().unwrap();
        for v in 0..128 {
            assert!(pv.max_sent[v] <= 1, "element {v} sent {}", pv.max_sent[v]);
            assert!(pv.max_received[v] <= 1);
        }
    }

    #[test]
    fn total_messages_n_log_n() {
        let count = |n: usize| {
            let (preds, vals) = scrambled_list(n, 5);
            run(&preds, &vals, &PregelConfig::single_worker())
                .stats
                .total_messages() as f64
        };
        let m1 = count(256);
        let m2 = count(1024);
        // n log n: 1024*10 / 256*8 = 5x; plain n would be 4x.
        let ratio = m2 / m1;
        assert!((4.2..6.0).contains(&ratio), "ratio {ratio} not ~n log n");
    }

    #[test]
    fn singleton_list() {
        let r = run(&[INVALID_VERTEX], &[42], &PregelConfig::single_worker());
        assert_eq!(r.sums, vec![42]);
    }

    #[test]
    fn parallel_matches_serial() {
        let (preds, vals) = scrambled_list(200, 9);
        let a = run(&preds, &vals, &PregelConfig::single_worker());
        let b = run(&preds, &vals, &PregelConfig::default().with_workers(4));
        assert_eq!(a.sums, b.sums);
    }

    #[test]
    #[should_panic(expected = "injective")]
    fn non_injective_pred_rejected() {
        run(
            &[INVALID_VERTEX, 0, 0],
            &[1, 1, 1],
            &PregelConfig::single_worker(),
        );
    }
}
