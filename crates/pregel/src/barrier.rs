//! A sense-reversing phase barrier with bounded spin-then-park waiting.
//!
//! `std::sync::Barrier` takes an internal mutex and parks on a condvar on
//! every wait, so its cost grows with the worker count and with scheduler
//! round-trips — measured at tens of microseconds per superstep phase on an
//! oversubscribed machine. [`PhaseBarrier`] instead publishes phase
//! transitions through a generation counter: arrival is one `fetch_add`,
//! and waiters spin (briefly, and only when the machine actually has a core
//! per thread), then yield, then park on a condvar as a last resort. The
//! parking slow path keeps the barrier correct when threads outnumber
//! cores; the spinning fast path keeps it cheap when they don't.
//!
//! The last thread to arrive may run a closure *before* releasing the
//! others ([`PhaseBarrier::wait_leader`]). The engine uses this to fold the
//! serial master phase into the delivery barrier, so a superstep costs two
//! barrier crossings instead of three. A one-party barrier, what a run on
//! one thread gets, reduces a crossing to that closure call.
//!
//! A party that panics never arrives, so the barrier can be *poisoned*
//! ([`PhaseBarrier::poison_on_unwind`]): every waiter, and every later
//! arrival, then unwinds with [`Poisoned`] instead of waiting forever.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Spin iterations before falling back to `yield_now` (only when spinning
/// is enabled, i.e. every thread can own a core).
const SPIN_LIMIT: u32 = 1 << 14;
/// `yield_now` calls before parking on the condvar.
const YIELD_LIMIT: u32 = 64;

/// The unwind payload of a thread that left a [`PhaseBarrier`] because
/// another party panicked. Whoever joins the parties re-raises the panic
/// that caused it, not this.
pub(crate) struct Poisoned;

/// A reusable barrier for a fixed set of `parties` threads.
pub(crate) struct PhaseBarrier {
    parties: usize,
    /// Threads arrived in the current phase.
    arrived: AtomicUsize,
    /// Phase number; bumped by the last arriver to release waiters.
    generation: AtomicU64,
    /// Park support for waiters that exhaust their spin/yield budget. The
    /// leader bumps `generation` while holding the lock, so a waiter that
    /// re-checks the generation under the lock can never miss the wakeup.
    lock: Mutex<()>,
    cv: Condvar,
    /// Whether waiters busy-spin before yielding. Disabled when the caller
    /// knows threads outnumber cores (spinning would burn the timeslice the
    /// straggler needs).
    spin: bool,
    /// Set once a party panicked; never cleared.
    poisoned: AtomicBool,
}

/// Poisons its barrier when dropped by a panicking thread; see
/// [`PhaseBarrier::poison_on_unwind`].
pub(crate) struct PoisonOnUnwind<'b>(&'b PhaseBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

impl PhaseBarrier {
    pub(crate) fn new(parties: usize, spin: bool) -> Self {
        PhaseBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            spin,
            poisoned: AtomicBool::new(false),
        }
    }

    /// A guard to hold for as long as the calling thread is a party: if the
    /// thread unwinds, the guard poisons the barrier, so the other parties
    /// unwind with [`Poisoned`] rather than wait for an arrival that will
    /// never come.
    pub(crate) fn poison_on_unwind(&self) -> PoisonOnUnwind<'_> {
        PoisonOnUnwind(self)
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        // Notify under the lock, like the leader's generation bump: a waiter
        // between its check and its park cannot miss the wake-up. Runs
        // during unwinding, so it must not panic on a poisoned mutex.
        let _g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_all();
    }

    /// Leaves the barrier by unwinding with [`Poisoned`]. `resume_unwind`
    /// skips the panic hook: the cause has already been reported.
    fn leave_poisoned() -> ! {
        std::panic::resume_unwind(Box::new(Poisoned))
    }

    /// Blocks until all parties arrive. Returns the nanoseconds this thread
    /// spent waiting (zero for the last arriver).
    pub(crate) fn wait(&self) -> u64 {
        self.wait_leader(|| {}).1
    }

    /// Blocks until all parties arrive; the *last* arriver runs `leader`
    /// before any waiter is released. Returns `Some(result)` on the leader
    /// thread and `None` on the others, plus the nanoseconds spent waiting
    /// (the leader's closure time is not counted as waiting). Unwinds with
    /// [`Poisoned`] if the barrier is, or becomes, poisoned while waiting.
    pub(crate) fn wait_leader<R>(&self, leader: impl FnOnce() -> R) -> (Option<R>, u64) {
        if self.parties == 1 {
            // The only party is always the last to arrive, and nobody waits
            // to be released: no counter, no lock, no notify.
            return (Some(leader()), 0);
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            let r = leader();
            // Reset the arrival count before opening the next phase: a
            // released waiter may arrive at the next barrier immediately,
            // and its Acquire load of `generation` makes this store
            // visible.
            self.arrived.store(0, Ordering::Relaxed);
            {
                let _g = self.lock.lock().unwrap();
                self.generation.store(gen + 1, Ordering::Release);
            }
            self.cv.notify_all();
            return (Some(r), 0);
        }
        let started = Instant::now();
        let mut tries: u32 = 0;
        let spin_budget = if self.spin { SPIN_LIMIT } else { 0 };
        loop {
            if self.generation.load(Ordering::Acquire) != gen {
                return (None, started.elapsed().as_nanos() as u64);
            }
            if self.poisoned.load(Ordering::Acquire) {
                Self::leave_poisoned();
            }
            if tries < spin_budget {
                std::hint::spin_loop();
            } else if tries < spin_budget + YIELD_LIMIT {
                std::thread::yield_now();
            } else {
                let mut g = self.lock.lock().unwrap();
                while self.generation.load(Ordering::Acquire) == gen {
                    if self.poisoned.load(Ordering::Acquire) {
                        drop(g);
                        Self::leave_poisoned();
                    }
                    g = self.cv.wait(g).unwrap();
                }
                return (None, started.elapsed().as_nanos() as u64);
            }
            tries += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn releases_all_parties_repeatedly() {
        for spin in [false, true] {
            let barrier = PhaseBarrier::new(4, spin);
            let counter = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        for round in 0..50 {
                            counter.fetch_add(1, Ordering::Relaxed);
                            barrier.wait();
                            // Every thread observes all arrivals of the round.
                            assert!(counter.load(Ordering::Relaxed) >= 4 * (round + 1));
                            barrier.wait();
                        }
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), 200);
        }
    }

    #[test]
    fn exactly_one_leader_per_phase() {
        let barrier = PhaseBarrier::new(3, false);
        let leads = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..40 {
                        let (led, _) = barrier.wait_leader(|| {
                            leads.fetch_add(1, Ordering::Relaxed);
                        });
                        let _ = led;
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(leads.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn leader_runs_before_release() {
        // The leader closure's writes must be visible to every released
        // waiter: publish a value in the closure, assert it after the wait.
        let barrier = PhaseBarrier::new(2, false);
        let slot = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for round in 1..=100 {
                        barrier.wait_leader(|| slot.store(round, Ordering::Relaxed));
                        assert_eq!(slot.load(Ordering::Relaxed), round);
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_party_releases_the_others_with_poisoned() {
        // Thread 0 panics between the two barriers; the others are parked
        // at the second (or about to be) and must unwind with `Poisoned`,
        // never hang.
        for spin in [false, true] {
            let barrier = PhaseBarrier::new(3, spin);
            let outcomes: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..3)
                    .map(|i| {
                        let barrier = &barrier;
                        s.spawn(move || {
                            let _guard = barrier.poison_on_unwind();
                            barrier.wait();
                            if i == 0 {
                                panic!("boom");
                            }
                            barrier.wait();
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            for (i, outcome) in outcomes.into_iter().enumerate() {
                let payload = outcome.expect_err("every party unwinds");
                if i == 0 {
                    assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
                } else {
                    assert!(payload.is::<Poisoned>(), "party {i} (spin {spin})");
                }
            }
        }
    }

    #[test]
    fn single_party_never_blocks() {
        let barrier = PhaseBarrier::new(1, true);
        for _ in 0..10 {
            let (led, ns) = barrier.wait_leader(|| 7);
            assert_eq!(led, Some(7));
            assert_eq!(ns, 0);
        }
    }
}
