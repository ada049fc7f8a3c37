//! Per-interval histogram logging (à la cql-stress's histogram log
//! writer): a [`IntervalSeries`] buckets samples by *when they completed*
//! relative to a run origin, keeping one latency [`LogHistogram`] plus
//! ok/error counters per fixed-width interval.
//!
//! The series is the time axis the end-of-run histogram flattens away:
//! warmup transients, epoch-swap stalls, and hot-shard tails show up as
//! per-interval p99 excursions that an aggregate histogram hides. Two
//! identities hold by construction and are enforced by the stress binary's
//! `--validate-report`:
//!
//! * within a slot, `hist.count() == ok + errors` (every sample is recorded
//!   under one call);
//! * across a series, the interval sums fold *exactly* to the end-of-run
//!   totals — [`LogHistogram::merge`] is exact, so merging every slot's
//!   histogram reproduces the aggregate histogram bit for bit.

use vcgp_testkit::LogHistogram;

/// One interval's samples: a latency histogram plus outcome counters.
#[derive(Debug, Clone, Default)]
pub struct IntervalSlot {
    /// Samples recorded with `ok = true`.
    pub ok: u64,
    /// Samples recorded with `ok = false`.
    pub errors: u64,
    /// Every sample of the interval (ok and errored alike).
    pub hist: LogHistogram,
}

impl IntervalSlot {
    /// True when nothing landed in this interval.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }
}

/// A run-relative series of fixed-width interval slots. Slots are grown
/// lazily on first record, so an idle tail costs nothing.
#[derive(Debug, Clone)]
pub struct IntervalSeries {
    interval_ns: u64,
    slots: Vec<IntervalSlot>,
}

impl IntervalSeries {
    /// An empty series with the given interval width.
    ///
    /// # Panics
    /// Panics when `interval_ns` is zero.
    pub fn new(interval_ns: u64) -> IntervalSeries {
        assert!(interval_ns > 0, "interval width must be positive");
        IntervalSeries {
            interval_ns,
            slots: Vec::new(),
        }
    }

    /// The interval width in nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Records one sample: `value_ns` (latency or service time) observed at
    /// `at_ns` nanoseconds past the series origin, with its outcome.
    pub fn record(&mut self, at_ns: u64, value_ns: u64, ok: bool) {
        let idx = (at_ns / self.interval_ns) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, IntervalSlot::default);
        }
        let slot = &mut self.slots[idx];
        slot.hist.record(value_ns);
        if ok {
            slot.ok += 1;
        } else {
            slot.errors += 1;
        }
    }

    /// Folds `other` into this series slot by slot. Both must have the
    /// same interval width (they describe the same time axis).
    pub fn merge(&mut self, other: &IntervalSeries) {
        assert_eq!(
            self.interval_ns, other.interval_ns,
            "cannot merge series with different interval widths"
        );
        if other.slots.len() > self.slots.len() {
            self.slots
                .resize_with(other.slots.len(), IntervalSlot::default);
        }
        for (mine, theirs) in self.slots.iter_mut().zip(&other.slots) {
            mine.ok += theirs.ok;
            mine.errors += theirs.errors;
            mine.hist.merge(&theirs.hist);
        }
    }

    /// Forgets every slot, keeping the interval width.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// All slots in time order (possibly-empty gaps included).
    pub fn slots(&self) -> &[IntervalSlot] {
        &self.slots
    }

    /// Non-empty slots as `(interval index, slot)`, in time order — the
    /// sparse view the JSON report emits.
    pub fn nonempty(&self) -> impl Iterator<Item = (usize, &IntervalSlot)> {
        self.slots.iter().enumerate().filter(|(_, s)| !s.is_empty())
    }

    /// Number of intervals that recorded at least one sample.
    pub fn completed_intervals(&self) -> usize {
        self.nonempty().count()
    }

    /// Total samples across every slot (== the aggregate histogram's count
    /// when the fold identity holds).
    pub fn total_count(&self) -> u64 {
        self.slots.iter().map(|s| s.hist.count()).sum()
    }

    /// Merges every slot's histogram into one aggregate — exactly the
    /// histogram of recording all samples without the time axis.
    pub fn folded(&self) -> LogHistogram {
        let mut all = LogHistogram::new();
        for s in &self.slots {
            all.merge(&s.hist);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_their_interval() {
        let mut s = IntervalSeries::new(1_000);
        s.record(0, 10, true);
        s.record(999, 20, true);
        s.record(1_000, 30, false);
        s.record(5_500, 40, true);
        assert_eq!(s.slots().len(), 6);
        assert_eq!(s.slots()[0].ok, 2);
        assert_eq!(s.slots()[1].errors, 1);
        assert!(s.slots()[2].is_empty());
        assert_eq!(s.slots()[5].ok, 1);
        assert_eq!(s.completed_intervals(), 3);
        assert_eq!(
            s.nonempty().map(|(i, _)| i).collect::<Vec<_>>(),
            vec![0, 1, 5]
        );
    }

    #[test]
    fn slot_counts_match_slot_histograms() {
        let mut s = IntervalSeries::new(100);
        for i in 0..500u64 {
            s.record(i * 7, i, i % 3 != 0);
        }
        for (i, slot) in s.slots().iter().enumerate() {
            assert_eq!(slot.hist.count(), slot.ok + slot.errors, "slot {i}");
        }
    }

    #[test]
    fn fold_identity_reproduces_the_aggregate() {
        let mut series = IntervalSeries::new(250);
        let mut aggregate = LogHistogram::new();
        for i in 0..1000u64 {
            let v = i * i % 7919;
            series.record(i * 13, v, true);
            aggregate.record(v);
        }
        let folded = series.folded();
        assert_eq!(folded.count(), aggregate.count());
        assert_eq!(series.total_count(), aggregate.count());
        assert_eq!(folded.min(), aggregate.min());
        assert_eq!(folded.max(), aggregate.max());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(folded.quantile(q), aggregate.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut whole = IntervalSeries::new(500);
        let mut a = IntervalSeries::new(500);
        let mut b = IntervalSeries::new(500);
        for i in 0..300u64 {
            let (at, v, ok) = (i * 31, i * 11 % 997, i % 5 != 0);
            whole.record(at, v, ok);
            if i % 2 == 0 {
                a.record(at, v, ok)
            } else {
                b.record(at, v, ok)
            }
        }
        a.merge(&b);
        assert_eq!(a.slots().len(), whole.slots().len());
        for (sa, sw) in a.slots().iter().zip(whole.slots()) {
            assert_eq!(sa.ok, sw.ok);
            assert_eq!(sa.errors, sw.errors);
            assert_eq!(sa.hist.count(), sw.hist.count());
            assert_eq!(sa.hist.quantile(0.99), sw.hist.quantile(0.99));
        }
    }

    #[test]
    #[should_panic(expected = "different interval widths")]
    fn merge_rejects_mismatched_widths() {
        let mut a = IntervalSeries::new(100);
        a.merge(&IntervalSeries::new(200));
    }

    #[test]
    fn clear_resets_the_series() {
        let mut s = IntervalSeries::new(100);
        s.record(50, 1, true);
        s.clear();
        assert_eq!(s.slots().len(), 0);
        assert_eq!(s.completed_intervals(), 0);
        s.record(150, 2, true);
        assert_eq!(s.slots().len(), 2);
    }
}
