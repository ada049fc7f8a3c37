//! The load generator: client threads that each submit one request, wait
//! for its response, check it, and record it.
//!
//! A *paced* phase is an open-loop schedule per client (request `i` of a
//! client is due at `offset + i · interval`), so latency is measured from
//! the moment a request was **due**, not from when the client got round to
//! sending it: a stall delays every later request and all of that delay is
//! counted. A *sat* phase is a closed loop: each client sends its next
//! request as soon as the previous one is answered.
//!
//! Recording is the benchmark's own tracing. With it off a request costs
//! its clock reads and one `u64` push; with it on, one more clock read and
//! a [`Span`] push, both into memory reserved before the phase starts.

use crate::spec::LATE_NS;
use crate::surface::{
    Mutation, QueryOutput, QueryRequest, QueryResponse, Route, ServiceStats, ShardedGraphService,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The requests of one workload, as a pure function of the request index,
/// and the check of each answer.
pub trait OpStream: Sync {
    /// The request with this global index.
    fn request(&self, index: u64) -> QueryRequest;
    /// Whether `resp` answers request `index` correctly.
    fn check(&self, index: u64, resp: &QueryResponse) -> bool;
    /// Keep the scalar answer of every n-th request for a re-derivation
    /// after the timed window.
    fn keep_every(&self) -> Option<u64> {
        None
    }
    /// Requests to answer once before the warm phase (cache prefill).
    fn prefill(&self) -> Vec<QueryRequest> {
        Vec::new()
    }
}

/// Request indices are unique over a run: phase, client and the client's
/// own counter each get their own bits.
pub fn pack_index(phase: u64, client: usize, i: u64) -> u64 {
    (phase << 48) | ((client as u64) << 40) | i
}

/// The client's own counter of a packed index.
pub fn index_counter(index: u64) -> u64 {
    index & ((1 << 40) - 1)
}

/// The client of a packed index.
pub fn index_client(index: u64) -> u64 {
    (index >> 40) & 0xFF
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Closed loop, unthrottled.
    Closed,
    /// Fixed rate in requests per second over all clients.
    Rate(f64),
}

/// What a phase keeps of each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// Nothing but the counts (warm-up).
    Counts,
    /// The latency.
    Latency,
    /// The latency and the spans under it.
    Spans,
}

#[derive(Debug, Clone, Copy)]
pub struct PhasePlan {
    pub name: &'static str,
    /// Distinguishes the request indices of different phases.
    pub number: u64,
    pub duration: Duration,
    pub pace: Pace,
    pub record: Record,
}

/// One traced request. Times are nanoseconds since the phase origin.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub index: u64,
    /// When the request was due (= `sent` in a closed loop).
    pub intended: u64,
    /// Entering `submit`.
    pub sent: u64,
    /// `submit` returned.
    pub submitted: u64,
    /// `wait` returned.
    pub done: u64,
    /// Children of `wait`, as the response reports them.
    pub queue_wait: u64,
    pub service: u64,
    pub backoff: u64,
    pub gather_wait: u64,
    /// Legs the router fanned out (1 when routed to one shard).
    pub legs: u32,
    pub scattered: bool,
    pub ok: bool,
}

impl Span {
    pub fn latency(&self) -> u64 {
        self.done - self.intended
    }
    pub fn sched_lag(&self) -> u64 {
        self.sent - self.intended
    }
    pub fn submit(&self) -> u64 {
        self.submitted - self.sent
    }
    pub fn wait(&self) -> u64 {
        self.done - self.submitted
    }
    /// Self time of `wait` on a routed request: what is left after queue
    /// wait, execution and backoff — the hand-off to the executor and the
    /// wake-up of the waiting client.
    pub fn wake(&self) -> u64 {
        self_time(self.wait(), &[self.queue_wait, self.service, self.backoff])
    }
    /// The identity the budget rests on: the three top-level spans tile the
    /// latency exactly.
    pub fn identity_holds(&self) -> bool {
        self.sched_lag() + self.submit() + self.wait() == self.latency()
    }
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time(duration: u64, children: &[u64]) -> u64 {
    duration.saturating_sub(children.iter().sum())
}

/// What one client thread saw in one phase.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub latencies: Vec<u64>,
    pub spans: Vec<Span>,
    /// Kept answers for the post-window re-derivation: `(index, answer)`.
    pub kept: Vec<(u64, u64)>,
    pub sent: u64,
    pub ok: u64,
    /// Responses carrying an error (rejects and timeouts included).
    pub errors: u64,
    /// Ok responses with the wrong payload.
    pub wrong: u64,
    /// Scheduled requests the phase ended before sending.
    pub unsent: u64,
    /// Sent more than [`LATE_NS`] (or a tenth of the send interval, if that
    /// is longer) after both being due and the client being free: the
    /// generator's own lateness, not the system's.
    pub late: u64,
    pub routed: u64,
    pub scattered: u64,
    pub legs: u64,
    /// When the client sent its last request's answer on.
    pub finished: Option<Instant>,
    /// What the inline writer did (client 0 of a writing workload).
    pub writer: Option<WriterLog>,
}

/// One phase's outcome over all clients.
#[derive(Debug)]
pub struct PhaseResult {
    pub plan: PhasePlan,
    pub elapsed: Duration,
    pub clients: Vec<ClientLog>,
    pub writer: Option<WriterLog>,
    /// Service counters accumulated during the phase.
    pub stats: ServiceStats,
}

impl PhaseResult {
    pub fn sum(&self, f: impl Fn(&ClientLog) -> u64) -> u64 {
        self.clients.iter().map(f).sum()
    }

    /// Everything that counts against `fail_ratio`.
    pub fn failed(&self) -> u64 {
        self.sum(|c| c.errors + c.wrong + c.unsent)
    }

    pub fn attempted(&self) -> u64 {
        self.sum(|c| c.sent + c.unsent)
    }

    /// All latencies of the phase, sorted.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut all: Vec<u64> = match self.plan.record {
            Record::Spans => self.spans().map(Span::latency).collect(),
            _ => self
                .clients
                .iter()
                .flat_map(|c| c.latencies.iter().copied())
                .collect(),
        };
        all.sort_unstable();
        all
    }

    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.clients.iter().flat_map(|c| c.spans.iter())
    }

    pub fn late_ratio(&self) -> f64 {
        let sent = self.sum(|c| c.sent);
        if sent == 0 {
            0.0
        } else {
            self.sum(|c| c.late) as f64 / sent as f64
        }
    }
}

/// The write side of `mixed_rw`: a fixed-rate mutation stream, sent by
/// client 0 between its reads (a writer thread of its own would be a third
/// generator thread on a two-core box).
pub struct WriterPlan<'a> {
    pub rate: f64,
    /// `mutation(i)` is the i-th write of the run.
    pub mutation: &'a (dyn Fn(u64) -> Mutation + Sync),
    /// Next write index; continues across phases.
    pub next: &'a AtomicU64,
}

#[derive(Debug, Default)]
pub struct WriterLog {
    pub written: u64,
    pub failed: u64,
    /// Time inside `submit_mutation`, per write.
    pub accept_ns: Vec<u64>,
    /// `submit_mutation` called → the write is in the serving epoch.
    pub visible_ns: Vec<u64>,
}

/// The writer as client 0 runs it: polled once per read.
struct InlineWriter<'a> {
    plan: &'a WriterPlan<'a>,
    interval: Duration,
    next_due: Instant,
    /// A write not yet seen in the serving epoch: its accept sequence
    /// number and when `submit_mutation` was called. Timed from the call,
    /// not from its return: the woken writer thread often takes the
    /// caller's core and has rebuilt the epoch before the call returns.
    following: Option<(u64, Instant)>,
    log: WriterLog,
}

impl<'a> InlineWriter<'a> {
    fn new(plan: &'a WriterPlan<'a>, origin: Instant) -> Self {
        InlineWriter {
            plan,
            interval: Duration::from_secs_f64(1.0 / plan.rate),
            next_due: origin,
            following: None,
            log: WriterLog::default(),
        }
    }

    /// Checks on the write being followed: it is readable once the writer
    /// counters say `applied + noops ≥ seq`.
    fn follow(&mut self, svc: &ShardedGraphService) {
        let Some((seq, submitted_at)) = self.following else {
            return;
        };
        let w = svc.writer_stats();
        if w.applied + w.noops >= seq {
            self.log.visible_ns.push(nanos(submitted_at.elapsed()));
            self.following = None;
        } else if submitted_at.elapsed() > Duration::from_secs(5) {
            self.log.failed += 1;
            self.following = None;
        }
    }

    /// Sends the write that is due, if one is, and follows it until it is
    /// readable (unless the one before is still being followed).
    fn poll(&mut self, svc: &ShardedGraphService, now: Instant) {
        self.follow(svc);
        if now < self.next_due {
            return;
        }
        self.next_due += self.interval;
        let i = self.plan.next.fetch_add(1, Ordering::SeqCst);
        let t0 = Instant::now();
        let accepted = svc.submit_mutation((self.plan.mutation)(i));
        self.log.written += 1;
        match accepted {
            Ok(seq) => {
                self.log.accept_ns.push(nanos(t0.elapsed()));
                if self.following.is_none() {
                    self.following = Some((seq, t0));
                }
            }
            Err(_) => self.log.failed += 1,
        }
    }
}

/// Waits for `due` in a yield loop, never in a sleep. A sleeping generator
/// lets its core go idle, and on the reference box (a two-vCPU VM) a core
/// that idled for milliseconds takes up to 3 ms to run the next thread
/// woken on it: latencies then measure the hypervisor, not the program.
/// Yielding keeps the core awake and still hands it to any service thread
/// that wants it.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Runs `plan` with `clients` threads — no more — and returns what they
/// recorded. Client `k` is pinned to the `k`-th core the process may use;
/// client 0 also sends the writes, if there are any.
pub fn run_phase(
    svc: &ShardedGraphService,
    stream: &dyn OpStream,
    plan: PhasePlan,
    clients: usize,
    writer: Option<&WriterPlan<'_>>,
) -> PhaseResult {
    let cores = affinity::allowed_cores();
    let before = svc.stats();
    // One origin for every client, set far enough ahead that all threads
    // are up and waiting for it: the clients' schedules interleave the
    // same way in every run.
    let origin = Instant::now() + Duration::from_millis(20);
    let mut logs = Vec::new();
    std::thread::scope(|scope| {
        let cores = &cores;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    affinity::pin_to(cores, c);
                    let mut log = reserve(&plan, clients);
                    let writer = writer
                        .filter(|_| c == 0)
                        .map(|w| InlineWriter::new(w, origin));
                    wait_until(origin);
                    client_loop(svc, stream, &plan, c, clients, origin, writer, &mut log);
                    log.finished = Some(Instant::now());
                    log
                })
            })
            .collect();
        for h in handles {
            logs.push(h.join().expect("client thread panicked"));
        }
    });
    let end = logs
        .iter()
        .filter_map(|l| l.finished)
        .max()
        .unwrap_or(origin);
    PhaseResult {
        plan,
        elapsed: end.saturating_duration_since(origin),
        writer: logs.iter_mut().find_map(|l| l.writer.take()),
        clients: logs,
        stats: svc.stats().delta_since(&before),
    }
}

/// Pinning the generator's threads, one per core. Left to the scheduler,
/// the two clients of a closed loop end up sharing a core for seconds at a
/// time and throughput halves at random; pinned, a run repeats. Only the
/// benchmark's own threads are pinned, never the program's.
mod affinity {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    /// The cores the calling thread may run on, ascending. Empty when the
    /// platform cannot say; [`pin_to`] then does nothing.
    pub fn allowed_cores() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `set` is a live, writable buffer of exactly the size
            // passed; pid 0 names the calling thread. The call writes at
            // most `size_of::<CpuSet>()` bytes into it.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
            if rc != 0 {
                return Vec::new();
            }
        }
        (0..1024)
            .filter(|i| set[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    /// Pins the calling thread to the `k`-th allowed core (wrapping). A
    /// refusal is ignored: the run then measures unpinned, which is noisier
    /// but not wrong.
    pub fn pin_to(cores: &[usize], k: usize) {
        if cores.is_empty() {
            return;
        }
        let core = cores[k % cores.len()];
        let mut set: CpuSet = [0; 16];
        set[core / 64] |= 1 << (core % 64);
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `set` is a live buffer of exactly the size passed and
            // is only read; pid 0 names the calling thread.
            let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
        }
    }
}

/// Reserves the phase's recording memory up front so no request pays for
/// a reallocation (a generous guess; pushing past it still works).
fn reserve(plan: &PhasePlan, clients: usize) -> ClientLog {
    let per_second = match plan.pace {
        Pace::Rate(r) => r / clients as f64 * 1.1,
        Pace::Closed => 400_000.0,
    };
    let cap = (per_second * plan.duration.as_secs_f64()) as usize + 1024;
    let mut log = ClientLog::default();
    match plan.record {
        Record::Counts => {}
        Record::Latency => log.latencies.reserve(cap),
        Record::Spans => log.spans.reserve(cap),
    }
    log
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    svc: &ShardedGraphService,
    stream: &dyn OpStream,
    plan: &PhasePlan,
    client: usize,
    clients: usize,
    origin: Instant,
    mut writer: Option<InlineWriter<'_>>,
    log: &mut ClientLog,
) {
    let deadline = origin + plan.duration;
    // A paced client works through its whole schedule even when it falls
    // behind, up to this much past the phase end; what is still unsent then
    // counts as failed. (The floor keeps one machine stall from failing a
    // one-second `selftest` phase.)
    let grace = (plan.duration / 2).max(Duration::from_secs(1));
    let interval = match plan.pace {
        Pace::Rate(r) => Some(Duration::from_secs_f64(clients as f64 / r)),
        Pace::Closed => None,
    };
    // Clients are staggered across one interval so arrivals are evenly
    // spaced over all of them.
    let offset = interval.map_or(Duration::ZERO, |iv| iv * client as u32 / clients as u32);
    let planned = interval.map(|iv| {
        let span = plan.duration.saturating_sub(offset);
        (span.as_nanos() / iv.as_nanos().max(1)) as u64 + 1
    });
    // Lateness that leaves the offered load as specified is not counted:
    // up to a tenth of the client's send interval, and never less than
    // `LATE_NS`.
    let late_after = interval.map_or(LATE_NS, |iv| LATE_NS.max(nanos(iv) / 10));
    let keep_every = stream.keep_every();
    let mut free_at = origin;
    let mut i = 0u64;
    loop {
        if let Some(w) = &mut writer {
            w.poll(svc, Instant::now());
        }
        let index = pack_index(plan.number, client, i);
        let req = stream.request(index);
        let intended = match interval.zip(planned) {
            Some((iv, planned)) => {
                if i >= planned {
                    break;
                }
                let due = origin + offset + iv * i as u32;
                if Instant::now() > deadline + grace {
                    log.unsent += planned - i;
                    break;
                }
                wait_until(due);
                due
            }
            None => {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                now
            }
        };
        let sent = if interval.is_some() {
            Instant::now()
        } else {
            intended
        };
        let ticket = svc.submit(req);
        let submitted = if plan.record == Record::Spans {
            Instant::now()
        } else {
            sent
        };
        let resp = match ticket {
            Ok(t) => t.wait(),
            Err(_) => {
                log.sent += 1;
                log.errors += 1;
                i += 1;
                continue;
            }
        };
        let done = Instant::now();

        log.sent += 1;
        if interval.is_some() {
            let gen_lag = nanos(sent - intended.max(free_at));
            if gen_lag > late_after {
                log.late += 1;
            }
        }
        free_at = done;
        let (scattered, legs) = match resp.route {
            Route::Scattered { shards } => (true, shards),
            _ => (false, 1),
        };
        if scattered {
            log.scattered += 1;
        } else {
            log.routed += 1;
        }
        log.legs += u64::from(legs);
        let ok = resp.is_ok();
        if !ok {
            log.errors += 1;
        } else if !stream.check(index, &resp) {
            log.wrong += 1;
        } else {
            log.ok += 1;
            if let (Some(k), Ok(QueryOutput::Workload { answer, .. })) = (keep_every, &resp.result)
            {
                if i.is_multiple_of(k) {
                    log.kept.push((index, *answer));
                }
            }
        }
        match plan.record {
            Record::Counts => {}
            Record::Latency => log.latencies.push(nanos(done - intended)),
            Record::Spans => log.spans.push(Span {
                index,
                intended: nanos(intended - origin),
                sent: nanos(sent - origin),
                submitted: nanos(submitted - origin),
                done: nanos(done - origin),
                queue_wait: nanos(resp.queue_wait),
                service: nanos(resp.service_time),
                backoff: nanos(resp.backoff),
                gather_wait: nanos(resp.gather_wait),
                legs,
                scattered,
                ok,
            }),
        }
        i += 1;
    }
    log.writer = writer.map(|w| w.log);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_time(100, &[30, 20]), 50);
        assert_eq!(self_time(100, &[]), 100);
        // Children reported by another clock may overshoot; never negative.
        assert_eq!(self_time(100, &[80, 30]), 0);
    }

    #[test]
    fn top_level_spans_tile_the_latency() {
        let s = Span {
            intended: 1_000,
            sent: 1_250,
            submitted: 1_900,
            done: 9_000,
            queue_wait: 2_000,
            service: 4_000,
            backoff: 0,
            ..Span::default()
        };
        assert_eq!(s.sched_lag(), 250);
        assert_eq!(s.submit(), 650);
        assert_eq!(s.wait(), 7_100);
        assert_eq!(s.latency(), 8_000);
        assert!(s.identity_holds());
        assert_eq!(s.wake(), 1_100);
    }
}
