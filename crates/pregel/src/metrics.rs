//! Run statistics: the raw observables of the BSP cost model.

use crate::aggregate::AggValue;
use std::time::Duration;

/// Why a run terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// Every vertex voted to halt and no message was in flight.
    Converged,
    /// The configured superstep cap was reached.
    MaxSupersteps,
    /// The master requested termination.
    MasterHalted,
}

/// Per-worker observables for one superstep: exactly the `w_i`, `s_i`,
/// `r_i` of Valiant's model (§2.1 of the paper), plus wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerStats {
    /// Local work units performed by this worker (`w_i`).
    pub work: u64,
    /// Messages sent by this worker (`s_i`), counted at the algorithm
    /// level (before any combining).
    pub sent: u64,
    /// Messages received by this worker (`r_i`), counted at the algorithm
    /// level.
    pub received: u64,
    /// Wall-clock time of the compute phase on this worker.
    pub wall: Duration,
    /// Worklist chunks of this worker executed by a thread other than its
    /// home thread (zero on one thread, which has no thief, and with work
    /// stealing disabled).
    pub stolen_chunks: u64,
}

/// Message-plane buffer accounting for one superstep, summed over workers.
///
/// The engine recycles every message-path buffer (outgoing lanes, outbox
/// slots, inboxes) across supersteps; after a short warmup, steady-state
/// supersteps must report `allocated == 0`. See `crate::pool` for the
/// recycling scheme these counters observe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Message-path buffers that entered service with no capacity (a fresh
    /// allocation): startup and first-use events only, in steady state 0.
    pub allocated: u64,
    /// Buffers reused with their capacity intact via the recycling cycle.
    pub recycled: u64,
    /// Total inbox capacity (in messages) retained by the vertices that ran
    /// `compute` this superstep — stable across steady-state supersteps
    /// because cleared inboxes keep their allocation.
    pub inbox_capacity: u64,
}

/// Aggregated observables for one superstep.
///
/// The three message counters measure different layers of the plane:
/// [`messages_sent`](Self::messages_sent) is what the *algorithm* produced
/// (one per [`crate::Context::send`], before any combining — the paper's
/// message complexity); [`messages_combined_sender`](Self::messages_combined_sender)
/// is how many of those sends were folded into an already-buffered message
/// at the sender and therefore never materialized;
/// [`messages_delivered`](Self::messages_delivered) is what reached vertex
/// inboxes after the receiver-side combining backstop. Without a combiner,
/// `sent == delivered` and `combined == 0`; with one,
/// `delivered <= sent - messages_combined_sender`.
#[derive(Debug, Clone, Default)]
pub struct SuperstepStats {
    /// One entry per worker.
    pub workers: Vec<WorkerStats>,
    /// Vertices that executed `compute` this superstep.
    pub active: usize,
    /// How many of those invocations were *quiet*: `compute` returned having
    /// seen an empty inbox, sent nothing and charged nothing beyond the
    /// invocation's own work unit — a vertex that ran although it had no
    /// work. A program that honours vote-to-halt keeps this near zero; a
    /// blanket [`crate::MasterContext::reactivate_all`] shows up here.
    pub quiet: usize,
    /// Total messages sent at the algorithm level (pre-combine).
    pub messages_sent: u64,
    /// Total messages delivered to inboxes (post-combine, both stages).
    pub messages_delivered: u64,
    /// Sends folded into an existing per-destination entry inside a
    /// sender's buffers (zero without a combiner, and in per-vertex
    /// tracking mode, where the sender stage is disabled). Unlike the two
    /// counters above this is a transport observable: it depends on the
    /// worker count and partitioning, because only messages that share a
    /// sender worker can be combined there.
    pub messages_combined_sender: u64,
    /// Buffer recycling observables for this superstep.
    pub buffers: BufferStats,
    /// The merged aggregator values produced by this superstep (in
    /// declaration order) — the run's aggregator *trajectory*, recorded so
    /// determinism tests can assert it superstep by superstep instead of
    /// only observing final vertex values.
    pub aggregates: Vec<AggValue>,
    /// Nanoseconds threads spent waiting at superstep barriers, summed over
    /// threads, as observed since the previous master phase (a thread's
    /// wait at the delivery barrier is only known after the master phase
    /// embedded in it runs, so it lands in the next superstep's entry).
    /// Zero when the engine ran on one thread: the barrier's one party
    /// never waits.
    pub barrier_wait_ns: u64,
    /// The largest single-thread share of [`barrier_wait_ns`](Self::barrier_wait_ns).
    pub barrier_wait_max_ns: u64,
    /// Worklist chunks executed this superstep (on one thread, and with
    /// stealing disabled, each nonempty worklist is one chunk).
    pub chunks: u64,
    /// How many of those chunks ran on a thread other than their worker's
    /// home thread.
    pub chunks_stolen: u64,
}

impl SuperstepStats {
    /// `w = max_i w_i`.
    pub fn max_work(&self) -> u64 {
        self.workers.iter().map(|w| w.work).max().unwrap_or(0)
    }

    /// `h = max_i max(s_i, r_i)`.
    pub fn max_h(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.sent.max(w.received))
            .max()
            .unwrap_or(0)
    }

    /// Total work across workers.
    pub fn total_work(&self) -> u64 {
        self.workers.iter().map(|w| w.work).sum()
    }
}

/// Per-vertex maxima across the whole run, recorded when
/// [`crate::PregelConfig::track_per_vertex`] is set. These are the
/// observables for BPPA properties 1-3.
#[derive(Debug, Clone, Default)]
pub struct PerVertexStats {
    /// Max messages sent by each vertex in any single superstep.
    pub max_sent: Vec<u64>,
    /// Max messages received by each vertex in any single superstep.
    pub max_received: Vec<u64>,
    /// Max work units charged by each vertex in any single superstep.
    pub max_work: Vec<u64>,
    /// Max state bytes held by each vertex at any superstep boundary.
    pub max_state_bytes: Vec<u64>,
}

impl PerVertexStats {
    pub(crate) fn new(n: usize) -> Self {
        PerVertexStats {
            max_sent: vec![0; n],
            max_received: vec![0; n],
            max_work: vec![0; n],
            max_state_bytes: vec![0; n],
        }
    }

    /// Merges another run's per-vertex maxima into this one (pipelines).
    pub fn merge_max(&mut self, other: &PerVertexStats) {
        fn fold(a: &mut Vec<u64>, b: &[u64]) {
            if a.len() < b.len() {
                a.resize(b.len(), 0);
            }
            for (x, &y) in a.iter_mut().zip(b) {
                *x = (*x).max(y);
            }
        }
        fold(&mut self.max_sent, &other.max_sent);
        fold(&mut self.max_received, &other.max_received);
        fold(&mut self.max_work, &other.max_work);
        fold(&mut self.max_state_bytes, &other.max_state_bytes);
    }
}

/// Complete statistics of one Pregel run (or a pipeline of runs, after
/// [`RunStats::merge`]).
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Per-superstep observables, in execution order.
    pub superstep_stats: Vec<SuperstepStats>,
    /// Number of workers `p`.
    pub num_workers: usize,
    /// Why the computation stopped.
    pub halt_reason: HaltReason,
    /// Per-vertex maxima (when tracking was enabled).
    pub per_vertex: Option<PerVertexStats>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

impl RunStats {
    /// Number of supersteps executed.
    pub fn supersteps(&self) -> u64 {
        self.superstep_stats.len() as u64
    }

    /// Total messages sent over the run (pre-combine; the paper's message
    /// complexity).
    pub fn total_messages(&self) -> u64 {
        self.superstep_stats.iter().map(|s| s.messages_sent).sum()
    }

    /// Total work units over the run.
    pub fn total_work(&self) -> u64 {
        self.superstep_stats.iter().map(|s| s.total_work()).sum()
    }

    /// `compute` invocations over the run (Σ [`SuperstepStats::active`]).
    pub fn invocations(&self) -> u64 {
        self.superstep_stats.iter().map(|s| s.active as u64).sum()
    }

    /// Quiet invocations over the run (Σ [`SuperstepStats::quiet`]).
    pub fn quiet_invocations(&self) -> u64 {
        self.superstep_stats.iter().map(|s| s.quiet as u64).sum()
    }

    /// Concatenates another run's supersteps onto this one, merging
    /// per-vertex maxima and summing wall time. Used by multi-stage
    /// pipelines (the BCC workload chains six Pregel jobs).
    pub fn merge(&mut self, other: RunStats) {
        self.superstep_stats.extend(other.superstep_stats);
        self.num_workers = self.num_workers.max(other.num_workers);
        self.halt_reason = other.halt_reason;
        self.wall += other.wall;
        match (&mut self.per_vertex, other.per_vertex) {
            (Some(mine), Some(theirs)) => mine.merge_max(&theirs),
            (slot @ None, Some(theirs)) => *slot = Some(theirs),
            _ => {}
        }
    }

    /// An empty stats value to fold pipeline stages into.
    pub fn empty(num_workers: usize) -> RunStats {
        RunStats {
            superstep_stats: Vec::new(),
            num_workers,
            halt_reason: HaltReason::Converged,
            per_vertex: None,
            wall: Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(workers: Vec<WorkerStats>) -> SuperstepStats {
        SuperstepStats {
            workers,
            ..Default::default()
        }
    }

    #[test]
    fn superstep_maxima() {
        let s = stats_with(vec![
            WorkerStats {
                work: 10,
                sent: 3,
                received: 9,
                wall: Duration::ZERO,
                ..Default::default()
            },
            WorkerStats {
                work: 7,
                sent: 8,
                received: 2,
                wall: Duration::ZERO,
                ..Default::default()
            },
        ]);
        assert_eq!(s.max_work(), 10);
        assert_eq!(s.max_h(), 9);
        assert_eq!(s.total_work(), 17);
    }

    #[test]
    fn empty_superstep() {
        let s = stats_with(vec![]);
        assert_eq!(s.max_work(), 0);
        assert_eq!(s.max_h(), 0);
    }

    #[test]
    fn merge_concatenates_and_maxes() {
        let mut a = RunStats::empty(2);
        a.superstep_stats.push(stats_with(vec![WorkerStats {
            work: 5,
            sent: 1,
            received: 1,
            wall: Duration::ZERO,
            ..Default::default()
        }]));
        a.per_vertex = Some(PerVertexStats {
            max_sent: vec![1, 2],
            max_received: vec![0, 0],
            max_work: vec![3, 3],
            max_state_bytes: vec![8, 8],
        });
        let mut b = RunStats::empty(2);
        b.superstep_stats.push(stats_with(vec![WorkerStats {
            work: 9,
            sent: 2,
            received: 2,
            wall: Duration::ZERO,
            ..Default::default()
        }]));
        b.per_vertex = Some(PerVertexStats {
            max_sent: vec![4, 1],
            max_received: vec![1, 1],
            max_work: vec![1, 9],
            max_state_bytes: vec![16, 4],
        });
        b.halt_reason = HaltReason::MasterHalted;
        a.merge(b);
        assert_eq!(a.supersteps(), 2);
        assert_eq!(a.total_work(), 14);
        assert_eq!(a.halt_reason, HaltReason::MasterHalted);
        let pv = a.per_vertex.unwrap();
        assert_eq!(pv.max_sent, vec![4, 2]);
        assert_eq!(pv.max_work, vec![3, 9]);
        assert_eq!(pv.max_state_bytes, vec![16, 8]);
    }

    #[test]
    fn totals_over_run() {
        let mut r = RunStats::empty(1);
        for i in 0..3u64 {
            r.superstep_stats.push(SuperstepStats {
                workers: vec![WorkerStats {
                    work: i + 1,
                    sent: i,
                    received: i,
                    wall: Duration::ZERO,
                    ..Default::default()
                }],
                active: 1,
                messages_sent: i,
                messages_delivered: i,
                ..Default::default()
            });
        }
        assert_eq!(r.supersteps(), 3);
        assert_eq!(r.total_messages(), 3);
        assert_eq!(r.total_work(), 6);
    }
}
