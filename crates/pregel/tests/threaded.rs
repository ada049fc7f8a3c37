//! The engine's one driver against frozen literals: at one thread and at
//! two, under every steal chunk, a run reproduces bit for bit what the
//! one-chunk-per-worker reference run recorded in [`FROZEN`]. And a panic on
//! any pool thread, the only one included, leaves `run` by unwinding with
//! its own payload instead of parking a thread.

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

fn graphs() -> [Graph; 2] {
    [
        generators::gnm_connected(300, 1200, 11),
        generators::rmat(8, 1024, 5),
    ]
}

fn cfg(workers: usize, threads: usize, steal_chunk: usize) -> PregelConfig {
    PregelConfig::default()
        .with_workers(workers)
        .with_threads(threads)
        .with_steal_chunk(steal_chunk)
        .with_partitioning(Partitioning::Hash)
}

/// FNV-1a over the little-endian bytes of `words`.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// An aggregator value's bit pattern: -0.0 and NaN payloads included.
fn bits(v: &AggValue) -> u64 {
    match *v {
        AggValue::I64(x) => x as u64,
        AggValue::F64(x) => x.to_bits(),
        AggValue::Bool(b) => u64::from(b),
    }
}

/// One reference run of [`Probe`]: `graph` indexes [`graphs`], the run
/// used hash partitioning and one chunk per worker.
struct Frozen {
    graph: usize,
    combine: bool,
    workers: usize,
    /// [`digest`] of the final `(label, inbox-order trace)` per vertex.
    values: u64,
    /// [`digest`] of every superstep's per-worker `(work, sent, received)`.
    worker_counts: u64,
    /// `messages_sent` per superstep.
    sent: &'static [u64],
    /// `messages_delivered` per superstep.
    delivered: &'static [u64],
    /// The four aggregators' [`bits`] per superstep.
    aggregates: &'static [[u64; 4]],
}

/// Recorded from the one-thread runs that were this test's oracle while a
/// serial driver served `T = 1`, before the engine had one driver.
const FROZEN: [Frozen; 8] = [
    Frozen {
        graph: 0,
        combine: false,
        workers: 2,
        values: 0x995b1b32407db554,
        worker_counts: 0xc8a9a3110ccf6d09,
        sent: &[2400, 2386, 2272, 1493, 65, 0],
        delivered: &[2400, 2386, 2272, 1493, 65, 0],
        aggregates: &[
            [0x12c, 0x4060480000000000, 0x4013283d93b7feea, 0x1],
            [0x12b, 0x405f980000000000, 0x4038a215d4fc97de, 0x1],
            [0x11d, 0x4050280000000000, 0x40516a10bbfe46a1, 0x1],
            [0xc5, 0x4002000000000000, 0x405895f15f15f169, 0x0],
            [0xe, 0x0, 0x4057aaaaaaaaaab3, 0x0],
            [0x0, 0x0, 0x4032aaaaaaaaaaaa, 0x0],
        ],
    },
    Frozen {
        graph: 0,
        combine: false,
        workers: 4,
        values: 0x9f9cb6517f990bfc,
        worker_counts: 0x28409e12b948949d,
        sent: &[2400, 2386, 2272, 1493, 65, 0],
        delivered: &[2400, 2386, 2272, 1493, 65, 0],
        aggregates: &[
            [0x12c, 0x4060480000000000, 0x4013283d93b7fee9, 0x1],
            [0x12b, 0x405f980000000000, 0x4038a215d4fc97e0, 0x1],
            [0x11d, 0x4050280000000000, 0x40516a10bbfe46a0, 0x1],
            [0xc5, 0x4002000000000000, 0x405895f15f15f15a, 0x0],
            [0xe, 0x0, 0x4057aaaaaaaaaaa6, 0x0],
            [0x0, 0x0, 0x4032aaaaaaaaaaaa, 0x0],
        ],
    },
    Frozen {
        graph: 0,
        combine: true,
        workers: 2,
        values: 0x1da17da02ab469e1,
        worker_counts: 0xc9caa58055ad20c4,
        sent: &[2400, 2386, 2272, 1493, 65, 0],
        delivered: &[300, 300, 299, 284, 56, 0],
        aggregates: &[
            [0x12c, 0x4060480000000000, 0x4013283d93b7feea, 0x1],
            [0x12b, 0x405f980000000000, 0x4038a215d4fc97de, 0x1],
            [0x11d, 0x4050280000000000, 0x40516a10bbfe46a1, 0x1],
            [0xc5, 0x4002000000000000, 0x405895f15f15f169, 0x0],
            [0xe, 0x0, 0x4057aaaaaaaaaab3, 0x0],
            [0x0, 0x0, 0x4032aaaaaaaaaaaa, 0x0],
        ],
    },
    Frozen {
        graph: 0,
        combine: true,
        workers: 4,
        values: 0x1da17da02ab469e1,
        worker_counts: 0x6eb655702dbbc568,
        sent: &[2400, 2386, 2272, 1493, 65, 0],
        delivered: &[300, 300, 299, 284, 56, 0],
        aggregates: &[
            [0x12c, 0x4060480000000000, 0x4013283d93b7fee9, 0x1],
            [0x12b, 0x405f980000000000, 0x4038a215d4fc97e0, 0x1],
            [0x11d, 0x4050280000000000, 0x40516a10bbfe46a0, 0x1],
            [0xc5, 0x4002000000000000, 0x405895f15f15f15a, 0x0],
            [0xe, 0x0, 0x4057aaaaaaaaaaa6, 0x0],
            [0x0, 0x0, 0x4032aaaaaaaaaaaa, 0x0],
        ],
    },
    Frozen {
        graph: 1,
        combine: false,
        workers: 2,
        values: 0x5afb524e42f9939d,
        worker_counts: 0x6a0e32006e710f00,
        sent: &[2048, 1932, 339, 4, 0],
        delivered: &[2048, 1932, 339, 4, 0],
        aggregates: &[
            [0x100, 0x405c000000000000, 0x401287485d0f2761, 0x1],
            [0xcb, 0x403ce00000000000, 0x4047a048e8ce9b20, 0x1],
            [0x65, 0x3fd8000000000000, 0x4050e07c1f07c1ec, 0x1],
            [0x4, 0x0, 0x4041555555555555, 0x0],
            [0x0, 0x0, 0x3ff5555555555555, 0x0],
        ],
    },
    Frozen {
        graph: 1,
        combine: false,
        workers: 4,
        values: 0xb3d41ff970cae95d,
        worker_counts: 0xea01c5854de67209,
        sent: &[2048, 1932, 339, 4, 0],
        delivered: &[2048, 1932, 339, 4, 0],
        aggregates: &[
            [0x100, 0x405c000000000000, 0x401287485d0f2762, 0x1],
            [0xcb, 0x403ce00000000000, 0x4047a048e8ce9b26, 0x1],
            [0x65, 0x3fd8000000000000, 0x4050e07c1f07c1f2, 0x1],
            [0x4, 0x0, 0x4041555555555556, 0x0],
            [0x0, 0x0, 0x3ff5555555555555, 0x0],
        ],
    },
    Frozen {
        graph: 1,
        combine: true,
        workers: 2,
        values: 0x8d966c8c6750f05e,
        worker_counts: 0x32e672903dd0e433,
        sent: &[2048, 1932, 339, 4, 0],
        delivered: &[210, 204, 104, 4, 0],
        aggregates: &[
            [0x100, 0x405c000000000000, 0x401287485d0f2761, 0x1],
            [0xcb, 0x403ce00000000000, 0x4047a048e8ce9b20, 0x1],
            [0x65, 0x3fd8000000000000, 0x4050e07c1f07c1ec, 0x1],
            [0x4, 0x0, 0x4041555555555555, 0x0],
            [0x0, 0x0, 0x3ff5555555555555, 0x0],
        ],
    },
    Frozen {
        graph: 1,
        combine: true,
        workers: 4,
        values: 0x8d966c8c6750f05e,
        worker_counts: 0x210e9442af55b27e,
        sent: &[2048, 1932, 339, 4, 0],
        delivered: &[210, 204, 104, 4, 0],
        aggregates: &[
            [0x100, 0x405c000000000000, 0x401287485d0f2762, 0x1],
            [0xcb, 0x403ce00000000000, 0x4047a048e8ce9b26, 0x1],
            [0x65, 0x3fd8000000000000, 0x4050e07c1f07c1f2, 0x1],
            [0x4, 0x0, 0x4041555555555556, 0x0],
            [0x0, 0x0, 0x3ff5555555555555, 0x0],
        ],
    },
];

/// Asserts `got` matches `want` bit for bit in everything the schedule must
/// not move. The inexact F64 sum is compared only when `same_grouping`: a
/// chunk's aggregator partial starts from the identity, so chunks of
/// several entries group an F64 sum differently from one partial per
/// worker — by chunk size, never by schedule.
fn assert_matches_frozen(
    want: &Frozen,
    values: &[(u32, u64)],
    got: &RunStats,
    same_grouping: bool,
    at: &str,
) {
    let steps = &got.superstep_stats;
    let trace = values.iter().flat_map(|&(label, t)| [u64::from(label), t]);
    assert_eq!(digest(trace), want.values, "values: {at}");
    let sent: Vec<u64> = steps.iter().map(|s| s.messages_sent).collect();
    assert_eq!(sent, want.sent, "sent per superstep: {at}");
    let delivered: Vec<u64> = steps.iter().map(|s| s.messages_delivered).collect();
    assert_eq!(delivered, want.delivered, "delivered per superstep: {at}");
    let counts = steps
        .iter()
        .flat_map(|s| &s.workers)
        .flat_map(|w| [w.work, w.sent, w.received]);
    assert_eq!(
        digest(counts),
        want.worker_counts,
        "per-worker counts: {at}"
    );
    for (s, (step, frozen)) in steps.iter().zip(want.aggregates).enumerate() {
        for (i, (x, &y)) in step.aggregates.iter().zip(frozen).enumerate() {
            if i != INEXACT || same_grouping {
                assert_eq!(bits(x), y, "aggregator {i}, superstep {s}: {at}");
            }
        }
    }
}

#[test]
fn every_thread_count_and_steal_chunk_matches_the_frozen_run() {
    let graphs = graphs();
    for want in &FROZEN {
        let g = &graphs[want.graph];
        let prog = Probe {
            combine: want.combine,
        };
        // The reference for the one transport observable the literals leave
        // out: how many sends fold at the sender, per sender worker.
        let (_, unstolen) = run(&prog, g, &cfg(want.workers, 2, 0));
        for threads in [1usize, 2] {
            for steal_chunk in [0, 1, 3, DEFAULT_STEAL_CHUNK] {
                // One thread runs one chunk per worker whatever the steal
                // chunk. So do 0 and the default here, where every worklist
                // is shorter than it; at 1 each chunk folds one value per
                // aggregator, which groups the same way.
                let same_grouping = threads == 1 || steal_chunk != 3;
                // Repeats: on two threads each run is another schedule.
                let reps = if threads == 1 { 1 } else { 3 };
                for rep in 0..reps {
                    let at = format!(
                        "graph {} ±{} W={} T={threads} c={steal_chunk} #{rep}",
                        want.graph, want.combine, want.workers
                    );
                    let (values, stats) = run(&prog, g, &cfg(want.workers, threads, steal_chunk));
                    assert_matches_frozen(want, &values, &stats, same_grouping, &at);
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
                    if threads == 1 || steal_chunk == 0 {
                        assert!(
                            stats
                                .superstep_stats
                                .iter()
                                .all(|s| s.chunks_stolen == 0 && s.chunks <= want.workers as u64),
                            "more than one chunk per worker, or a thief: {at}"
                        );
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
        // thread 0's, the calling thread's, and at T=2 worker W - 1 is
        // thread 1's; at T=1 the calling thread is the only one. Without
        // stealing a vertex runs on its home thread; with a one-vertex
        // chunk it may run on either.
        let sites = [
            Site::Vertex(0),
            Site::Vertex(workers as u32 - 1),
            Site::Master,
        ];
        for site in sites {
            for (threads, steal_chunk) in [(1usize, 0usize), (2, 0), (2, 1)] {
                let at = format!("W={workers} T={threads} {site:?} chunk={steal_chunk}");
                let (tx, rx) = mpsc::channel();
                let (g, cfg) = (g.clone(), cfg(workers, threads, steal_chunk));
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
