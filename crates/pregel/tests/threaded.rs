//! The pooled driver (T > 1) against the serial one (T = 1): bit-identical
//! under forced stealing, and a panic on any pool thread leaves `run` by
//! unwinding with its own payload instead of parking the other thread.

use std::sync::mpsc;
use std::time::Duration;
use vcgp_graph::{generators, Graph};
use vcgp_pregel::engine::DEFAULT_STEAL_CHUNK;
use vcgp_pregel::{
    run, AggOp, AggValue, AggregatorDef, Combiner, Context, MasterContext, Partitioning,
    PregelConfig, RunStats, VertexProgram,
};

/// Min-label propagation that records the order its inboxes arrived in (a
/// rolling hash beside the label) and feeds every kind of aggregator fold:
/// an integer count, an F64 sum of dyadic values (exact, so any grouping
/// gives the same bits), an F64 sum of inexact values, and a Bool.
struct Probe {
    combine: bool,
}

/// Index of the inexact F64 sum in [`Probe::aggregators`].
const INEXACT: usize = 2;

impl VertexProgram for Probe {
    type Value = (u32, u64);
    type Message = u32;
    fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u32]) {
        let first = ctx.superstep() == 0;
        let current = if first { ctx.id() } else { ctx.value().0 };
        let best = msgs.iter().copied().fold(current, u32::min);
        let trace = &mut ctx.value_mut().1;
        for &m in msgs {
            *trace = trace.wrapping_mul(0x100_0000_01b3) ^ u64::from(m);
        }
        if first || best < current {
            ctx.value_mut().0 = best;
            ctx.send_to_all_out_neighbors(best);
            ctx.aggregate(0, AggValue::I64(1));
        }
        ctx.aggregate(1, AggValue::F64(f64::from(best % 8) * 0.125));
        ctx.aggregate(INEXACT, AggValue::F64(1.0 / f64::from(best + 3)));
        ctx.aggregate(3, AggValue::Bool(best == ctx.id()));
        ctx.vote_to_halt();
    }
    fn combiner(&self) -> Option<Combiner<u32>> {
        self.combine
            .then_some(|acc: &mut u32, m: u32| *acc = (*acc).min(m))
    }
    fn aggregators(&self) -> Vec<AggregatorDef> {
        vec![
            AggregatorDef::new("changed", AggOp::SumI64),
            AggregatorDef::new("exact", AggOp::SumF64),
            AggregatorDef::new("inexact", AggOp::SumF64),
            AggregatorDef::new("roots", AggOp::Or),
        ]
    }
}

fn cfg(workers: usize, threads: usize, steal_chunk: usize) -> PregelConfig {
    PregelConfig::default()
        .with_workers(workers)
        .with_threads(threads)
        .with_steal_chunk(steal_chunk)
        .with_partitioning(Partitioning::Hash)
}

/// Asserts `got` matches the serial run `want` bit for bit in everything
/// the schedule must not move. The inexact F64 sum is compared only when
/// `same_grouping`: a chunk's aggregator partial starts from the identity,
/// so chunks of several entries group an F64 sum differently from the
/// serial driver's one partial per worker — by chunk size, never by
/// schedule.
fn assert_matches_serial(want: &RunStats, got: &RunStats, same_grouping: bool, at: &str) {
    assert_eq!(want.supersteps(), got.supersteps(), "supersteps: {at}");
    for (s, (a, b)) in want
        .superstep_stats
        .iter()
        .zip(&got.superstep_stats)
        .enumerate()
    {
        assert_eq!(
            a.messages_sent, b.messages_sent,
            "sent, superstep {s}: {at}"
        );
        assert_eq!(
            a.messages_delivered, b.messages_delivered,
            "delivered, superstep {s}: {at}"
        );
        for (wi, (x, y)) in a.workers.iter().zip(&b.workers).enumerate() {
            assert_eq!(
                (x.work, x.sent, x.received),
                (y.work, y.sent, y.received),
                "worker {wi}, superstep {s}: {at}"
            );
        }
        for (i, (x, y)) in a.aggregates.iter().zip(&b.aggregates).enumerate() {
            if i != INEXACT || same_grouping {
                // Bit equality, not float equality: -0.0 and NaN included.
                assert_eq!(
                    format!("{x:?}"),
                    format!("{y:?}"),
                    "aggregator {i}, superstep {s}: {at}"
                );
            }
        }
    }
}

#[test]
fn forced_stealing_is_bit_identical_to_the_serial_driver() {
    let graphs: [Graph; 2] = [
        generators::gnm_connected(300, 1200, 11),
        generators::rmat(8, 1024, 5),
    ];
    for (gi, g) in graphs.iter().enumerate() {
        for combine in [false, true] {
            let prog = Probe { combine };
            for workers in [2usize, 4] {
                let (serial_values, serial) = run(&prog, g, &cfg(workers, 1, DEFAULT_STEAL_CHUNK));
                // The pooled reference for the one transport observable the
                // serial driver defines differently: it folds every sender
                // worker through one shared combining table.
                let (_, unstolen) = run(&prog, g, &cfg(workers, 2, 0));
                for steal_chunk in [0, 1, 3, DEFAULT_STEAL_CHUNK] {
                    // Every worklist here is shorter than the default chunk,
                    // so it and 0 run one chunk per worker; at 1 each chunk
                    // folds one value per aggregator.
                    let same_grouping = steal_chunk != 3;
                    // Repeats: each run is another schedule.
                    for rep in 0..3 {
                        let at =
                            format!("graph {gi} ±{combine} W={workers} c={steal_chunk} #{rep}");
                        let (values, stats) = run(&prog, g, &cfg(workers, 2, steal_chunk));
                        assert_eq!(serial_values, values, "values: {at}");
                        assert_matches_serial(&serial, &stats, same_grouping, &at);
                        for (s, (a, b)) in unstolen
                            .superstep_stats
                            .iter()
                            .zip(&stats.superstep_stats)
                            .enumerate()
                        {
                            assert_eq!(
                                a.messages_combined_sender, b.messages_combined_sender,
                                "combined at the sender, superstep {s}: {at}"
                            );
                        }
                        if steal_chunk == 0 {
                            assert!(
                                stats.superstep_stats.iter().all(|s| s.chunks_stolen == 0),
                                "a thief ran an unstealable chunk: {at}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Where [`Panicky`] panics, in superstep 1.
#[derive(Debug, Clone, Copy)]
enum Site {
    Vertex(u32),
    Master,
}

/// Floods for three supersteps and panics at its [`Site`] on the way.
struct Panicky(Site);

impl VertexProgram for Panicky {
    type Value = u64;
    type Message = u64;
    fn compute(&self, ctx: &mut Context<'_, Self>, msgs: &[u64]) {
        if ctx.superstep() == 1 && matches!(self.0, Site::Vertex(v) if v == ctx.id()) {
            panic!("vertex boom");
        }
        *ctx.value_mut() += msgs.iter().sum::<u64>();
        if ctx.superstep() < 3 {
            ctx.send_to_all_out_neighbors(1);
        }
        ctx.vote_to_halt();
    }
    fn master_compute(&self, master: &mut MasterContext<'_>) {
        if master.superstep() == 1 && matches!(self.0, Site::Master) {
            panic!("master boom");
        }
    }
}

#[test]
fn a_panic_on_any_pool_thread_unwinds_out_of_run_with_its_payload() {
    let g = generators::gnm_connected(64, 256, 3);
    for workers in [2usize, 4] {
        // Hash partitioning puts vertex v on worker v mod W: worker 0 is
        // thread 0's, the calling thread's, and worker W - 1 is thread 1's.
        // Without stealing a vertex runs on its home thread; with a
        // one-vertex chunk it may run on either.
        let sites = [
            Site::Vertex(0),
            Site::Vertex(workers as u32 - 1),
            Site::Master,
        ];
        for site in sites {
            for steal_chunk in [0, 1] {
                let at = format!("W={workers} T=2 {site:?} chunk={steal_chunk}");
                let (tx, rx) = mpsc::channel();
                let (g, cfg) = (g.clone(), cfg(workers, 2, steal_chunk));
                // The run gets a thread of its own so a hang fails the test
                // instead of stalling it.
                std::thread::spawn(move || {
                    let outcome = std::panic::catch_unwind(|| run(&Panicky(site), &g, &cfg));
                    let payload = match outcome {
                        Ok(_) => "returned normally".to_string(),
                        Err(p) => p
                            .downcast_ref::<&str>()
                            .map_or("a payload other than the original".to_string(), |s| {
                                s.to_string()
                            }),
                    };
                    let _ = tx.send(payload);
                });
                let payload = rx
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("the run hung: {at}"));
                let want = match site {
                    Site::Vertex(_) => "vertex boom",
                    Site::Master => "master boom",
                };
                assert_eq!(payload, want, "{at}");
            }
        }
    }
}
