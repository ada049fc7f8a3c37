//! Engine-level invariants that every algorithm run must satisfy:
//! message conservation, per-superstep accounting consistency, and
//! worker-count invariance of algorithm-level statistics.

use vcgp::algorithms as vc;
use vcgp::graph::generators;
use vcgp::pregel::{PregelConfig, RunStats};

/// Messages sent by workers must equal messages received by workers in the
/// following superstep (BSP conservation), and per-superstep totals must
/// equal the per-worker sums.
fn assert_conservation(stats: &RunStats) {
    for (i, s) in stats.superstep_stats.iter().enumerate() {
        let sent: u64 = s.workers.iter().map(|w| w.sent).sum();
        assert_eq!(sent, s.messages_sent, "superstep {i}: sent total mismatch");
        // A BSP superstep's communication phase both sends and receives its
        // h-relation: per-superstep sent and received totals must agree.
        let received: u64 = s.workers.iter().map(|w| w.received).sum();
        assert_eq!(
            sent, received,
            "superstep {i}: messages lost or duplicated in flight"
        );
        assert!(
            s.messages_delivered <= s.messages_sent,
            "combining cannot create messages"
        );
    }
    // Convergence means the final superstep left nothing in flight that
    // would have reactivated a vertex.
    if let Some(last) = stats.superstep_stats.last() {
        if stats.halt_reason == vcgp::pregel::HaltReason::Converged {
            assert_eq!(last.messages_sent, 0, "messages in flight at convergence");
        }
    }
}

#[test]
fn conservation_across_algorithms() {
    let g = generators::gnm_connected(120, 300, 5);
    let cfg = PregelConfig::default().with_workers(3);
    assert_conservation(&vc::cc_hashmin::run(&g, &cfg).stats);
    assert_conservation(&vc::pagerank::run(&g.to_undirected(), 0.85, 10, &cfg).stats);
    assert_conservation(&vc::cc_sv::run(&g, &cfg).stats);
    assert_conservation(&vc::diameter::run(&g, &cfg).stats);
    let w = generators::with_random_weights(&g, 0.1, 2.0, 9, true);
    assert_conservation(&vc::mst_boruvka::run(&w, &cfg).stats);
    assert_conservation(&vc::sssp::run(&w, 0, &cfg).stats);
}

#[test]
fn first_superstep_runs_every_vertex() {
    let g = generators::gnm(64, 96, 1);
    let cfg = PregelConfig::default().with_workers(4);
    let r = vc::cc_hashmin::run(&g, &cfg);
    assert_eq!(r.stats.superstep_stats[0].active, 64);
}

#[test]
fn statistics_invariant_under_worker_count() {
    let g = generators::gnm_connected(150, 400, 7);
    let baseline = vc::cc_hashmin::run(&g, &PregelConfig::single_worker());
    for workers in [2, 4, 7] {
        let cfg = PregelConfig::default().with_workers(workers);
        let r = vc::cc_hashmin::run(&g, &cfg);
        assert_eq!(r.stats.supersteps(), baseline.stats.supersteps());
        assert_eq!(r.stats.total_messages(), baseline.stats.total_messages());
        assert_eq!(r.stats.total_work(), baseline.stats.total_work());
        // Per-superstep totals match superstep by superstep.
        for (a, b) in r
            .stats
            .superstep_stats
            .iter()
            .zip(&baseline.stats.superstep_stats)
        {
            assert_eq!(a.messages_sent, b.messages_sent);
            assert_eq!(a.active, b.active);
        }
    }
}

#[test]
fn per_vertex_totals_are_consistent_with_worker_totals() {
    let g = generators::gnm_connected(80, 200, 3);
    let cfg = PregelConfig::default()
        .with_workers(3)
        .with_per_vertex_tracking();
    let r = vc::cc_hashmin::run(&g, &cfg);
    let pv = r.stats.per_vertex.as_ref().expect("tracking enabled");
    // Max per-vertex counters cannot exceed whole-run per-superstep maxima.
    let max_superstep_sent: u64 = r
        .stats
        .superstep_stats
        .iter()
        .map(|s| s.messages_sent)
        .max()
        .unwrap_or(0);
    for v in g.vertices() {
        assert!(pv.max_sent[v as usize] <= max_superstep_sent);
        assert!(
            pv.max_work[v as usize] >= 1,
            "every vertex ran at least once"
        );
    }
}

#[test]
fn tpp_upper_bounds_average_work() {
    // p * T >= total work (the max over workers is at least the average).
    let g = generators::gnm_connected(100, 260, 2);
    for workers in [1, 2, 5] {
        let cfg = PregelConfig::default().with_workers(workers);
        let r = vc::cc_hashmin::run(&g, &cfg);
        let model = vcgp::core::BspCostModel::default();
        assert!(
            model.time_processor_product(&r.stats) + 1e-9 >= r.stats.total_work() as f64,
            "workers {workers}"
        );
    }
}

/// A master-phased toy: ANNOUNCE (every vertex acts), COLLECT (mail-driven)
/// and FINISH (every vertex acts; the master halts after it), one superstep
/// each. Nobody writes to anybody, so COLLECT has no mail and every vertex
/// has voted to halt: the engine sees `active_next == 0`.
struct EmptyMiddlePhase {
    /// Whether the master keeps the run alive through the empty phase.
    keep_alive: bool,
}

impl vcgp::pregel::VertexProgram for EmptyMiddlePhase {
    /// How often the vertex ran.
    type Value = u32;
    type Message = ();

    fn compute(&self, ctx: &mut vcgp::pregel::Context<'_, Self>, _messages: &[()]) {
        *ctx.value_mut() += 1;
        ctx.vote_to_halt();
    }

    fn master_compute(&self, master: &mut vcgp::pregel::MasterContext<'_>) {
        match master.superstep() {
            // ANNOUNCE is over; COLLECT is mail-driven, so no wake-up — but
            // a run with nobody awake and nobody woken ends here.
            0 => {
                if self.keep_alive && master.num_active() == 0 {
                    master.reactivate_all();
                }
            }
            // FINISH is a phase every (halted) vertex acts in.
            1 => master.reactivate_all(),
            _ => master.halt(),
        }
    }
}

#[test]
fn an_empty_message_driven_phase_needs_the_master_to_keep_the_run_alive() {
    use vcgp::pregel::HaltReason;
    let g = generators::gnm(40, 90, 3);
    for workers in [1usize, 4] {
        for threads in [1usize, 2] {
            let cfg = PregelConfig::default()
                .with_workers(workers)
                .with_threads(threads);
            let (ran, stats) = vcgp::pregel::run(&EmptyMiddlePhase { keep_alive: true }, &g, &cfg);
            assert_eq!(
                stats.halt_reason,
                HaltReason::MasterHalted,
                "W={workers} T={threads}"
            );
            assert_eq!(stats.supersteps(), 3, "W={workers} T={threads}");
            assert!(ran.iter().all(|&r| r == 3), "W={workers} T={threads}");
            // Every invocation of the empty phase was a quiet one.
            assert_eq!(stats.superstep_stats[1].quiet, 40);
            assert_eq!(stats.invocations(), 120);

            // Without it, `active_next == 0 && !reactivate` is convergence:
            // the run stops two phases short, with no error to show for it.
            let (ran, stats) = vcgp::pregel::run(&EmptyMiddlePhase { keep_alive: false }, &g, &cfg);
            assert_eq!(
                stats.halt_reason,
                HaltReason::Converged,
                "W={workers} T={threads}"
            );
            assert_eq!(stats.supersteps(), 1, "W={workers} T={threads}");
            assert!(ran.iter().all(|&r| r == 1), "W={workers} T={threads}");
        }
    }
}
