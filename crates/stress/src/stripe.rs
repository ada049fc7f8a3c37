//! The one stripe id of a submitting thread.
//!
//! Everything a client thread writes on the at-submit path is striped so
//! that two clients do not write the same cache line: the submit-side
//! service counters (`service.rs`) and the epoch pin slots
//! ([`crate::epoch::EpochManager::current`]). Both index by the id here, so
//! a thread has one stripe, claimed once, whichever structure it touches.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Stripes per striped structure: up to this many concurrent submitters
/// write disjoint cache lines; more than that share stripes round-robin.
pub(crate) const SUBMIT_STRIPES: usize = 8;

static NEXT_SUBMIT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each submitting thread claims one stripe on first use and keeps it.
    static SUBMIT_STRIPE: usize =
        NEXT_SUBMIT_STRIPE.fetch_add(1, Ordering::Relaxed) % SUBMIT_STRIPES;
}

/// The calling thread's stripe, in `0..SUBMIT_STRIPES`.
pub(crate) fn submit_stripe() -> usize {
    SUBMIT_STRIPE.with(|s| *s)
}
