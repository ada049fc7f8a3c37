//! The service-wide **run table**: one engine run per scattered request.
//!
//! A scattered analytics request fans one leg out to every shard, and every
//! leg needs the same thing: the per-vertex output of one deterministic
//! algorithm on the replicated graph, reduced over that shard's owned
//! vertices. Running the algorithm once per leg multiplies the engine work
//! by the shard count for nothing, so the legs of a sharded service meet
//! here instead. The table is keyed by *what the engine would compute* —
//! `(epoch fingerprint, workload, seed)`, see [`RunKey`] — and is shared by
//! every shard's backend, as the service's one result cache is.
//!
//! A leg that an executor dequeues [`join`](RunTable::join)s its key and is
//! told which of three things it is:
//!
//! * the **leader** ([`Join::Lead`]) — the first leg of the key. Its
//!   executor runs the engine once, reduces the output to all `S` partials
//!   in one pass ([`vcgp_core::service::run_workload_sliced`]), memoizes
//!   the gathered answer under [`RunKey::cache_key`] and
//!   [`finish`](RunTable::finish)es the entry (or
//!   [`abandon`](RunTable::abandon)s it when the run failed);
//! * **parked** ([`Join::Parked`]) — the key is running. What it takes to
//!   answer the leg moves into the entry and the executor goes straight
//!   back to its queue; the leader answers every parked leg when the run
//!   ends, with the run's result or with the run's failure;
//! * **late** ([`Join::Finished`]) — the run already ended. The leg takes
//!   its shard's partial from the finished entry, which is dropped once
//!   every shard has taken its own.
//!
//! A fourth kind of leg never reaches the table: one still **queued** on
//! its core when the run ends. The leader takes it out of that queue and
//! answers it with the parked ones (telling [`finish`](RunTable::finish)
//! which shards it served that way) — otherwise a finished request would
//! sit behind whatever that core's executors are running, only to pick a
//! finished slice up.
//!
//! Exactness is untouched: every leg always received the output of the same
//! deterministic run and kept its own slice of it; now the run happens once
//! and the slicing happens for all shards at once.
//!
//! Finished entries whose sibling legs never arrive (a scatter that failed
//! midway, a leg shed by admission control or dropped at its deadline) are
//! bounded by a small FIFO: evicting one early only costs the straggler a
//! run of its own, never a wrong answer.

use crate::cache::{CacheKey, CacheScope, CachedAnswer};
use crate::request::QueryOutput;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use vcgp_core::service::Partial;
use vcgp_core::Workload;

/// The identity of one shareable engine run: two legs with equal keys would
/// execute the identical deterministic computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RunKey {
    /// Fingerprint of the full graph of the leg's pinned epoch.
    pub(crate) fingerprint: u64,
    /// The Table 1 workload.
    pub(crate) workload: Workload,
    /// The request seed (source vertex / query pattern derive from it).
    pub(crate) seed: u64,
}

impl RunKey {
    /// The run's whole answer's identity in the service's result cache:
    /// the run computes exactly what a request for the key gathers to.
    pub(crate) fn cache_key(self) -> CacheKey {
        CacheKey {
            workload: self.workload,
            scope: CacheScope::Whole,
            fingerprint: self.fingerprint,
            seed: self.seed,
        }
    }
}

/// What one shared run computed: every shard's partial plus the run's
/// costs, which every leg reports unchanged.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SlicedAnswer {
    /// `partials[s]` is shard `s`'s contribution to the gathered answer.
    pub(crate) partials: Vec<Partial>,
    /// Supersteps of the run.
    pub(crate) supersteps: u64,
    /// Algorithm-level messages of the run.
    pub(crate) messages: u64,
}

impl SlicedAnswer {
    /// Shard `shard`'s leg output: its own partial, the shared run's costs.
    pub(crate) fn leg(&self, shard: usize) -> QueryOutput {
        QueryOutput::WorkloadPartial {
            partial: self.partials[shard],
            supersteps: self.supersteps,
            messages: self.messages,
        }
    }

    /// The whole answer the router gathers from every shard's
    /// [`leg`](SlicedAnswer::leg), field for field: the partials folded in
    /// shard order, the run's supersteps, and its messages once per leg.
    pub(crate) fn whole(&self) -> CachedAnswer {
        let partial = self
            .partials
            .iter()
            .copied()
            .reduce(Partial::merge)
            .expect("a run has one partial per shard");
        CachedAnswer::Whole {
            answer: partial.finish(),
            supersteps: self.supersteps,
            messages: self.messages * self.partials.len() as u64,
        }
    }
}

/// What [`RunTable::join`] made of a leg.
pub(crate) enum Join {
    /// First leg of its key: run the engine, then call
    /// [`RunTable::finish`] or [`RunTable::abandon`] — exactly one of them.
    Lead,
    /// The key is running; the leg now sits on the entry and its leader
    /// will answer it.
    Parked,
    /// The run already ended; here is what it computed.
    Finished(Arc<SlicedAnswer>),
}

enum Entry<W> {
    /// The leader is inside the engine; `(shard, leg)` pairs wait for it.
    Running(Vec<(usize, W)>),
    /// The run ended; shards that have not taken their partial yet may.
    Finished {
        answer: Arc<SlicedAnswer>,
        /// `taken[s]`: shard `s` has been answered from this run.
        taken: Vec<bool>,
    },
}

struct Inner<W> {
    entries: HashMap<RunKey, Entry<W>>,
    /// The keys of the finished entries, oldest first. Entry and record
    /// are added and removed together, so a record is never stale.
    finished: VecDeque<RunKey>,
}

/// See the [module docs](self). `W` is whatever a leader needs to answer a
/// parked leg (the service's `ParkedLeg`).
pub(crate) struct RunTable<W> {
    shards: usize,
    /// Most finished entries kept waiting for sibling legs.
    max_finished: usize,
    inner: Mutex<Inner<W>>,
}

impl<W> RunTable<W> {
    /// A table for `shards` shards keeping at most `max_finished` finished
    /// entries.
    pub(crate) fn new(shards: usize, max_finished: usize) -> RunTable<W> {
        RunTable {
            shards,
            max_finished,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                finished: VecDeque::new(),
            }),
        }
    }

    /// Classifies shard `shard`'s leg of `key`. `park` builds the record
    /// the leader will answer the leg from; it is called only when the leg
    /// is parked.
    pub(crate) fn join(&self, key: RunKey, shard: usize, park: impl FnOnce() -> W) -> Join {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        match inner.entries.get_mut(&key) {
            None => {
                inner.entries.insert(key, Entry::Running(Vec::new()));
                Join::Lead
            }
            Some(Entry::Running(parked)) => {
                parked.push((shard, park()));
                Join::Parked
            }
            Some(Entry::Finished { answer, taken }) => {
                let answer = Arc::clone(answer);
                taken[shard] = true;
                if taken.iter().all(|&t| t) {
                    inner.entries.remove(&key);
                    inner.finished.retain(|&k| k != key);
                }
                Join::Finished(answer)
            }
        }
    }

    /// The leader's run succeeded: publishes `answer` for legs still to
    /// come and returns the parked `(shard, leg)` pairs, which the leader
    /// must answer. `served` names the shards the leader answers besides
    /// those (its own, and any whose leg it took out of a queue). The
    /// entry is dropped at once when every shard is accounted for.
    pub(crate) fn finish(
        &self,
        key: RunKey,
        served: impl IntoIterator<Item = usize>,
        answer: &Arc<SlicedAnswer>,
    ) -> Vec<(usize, W)> {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        let Some(Entry::Running(parked)) = inner.entries.remove(&key) else {
            unreachable!("finish() is called once, by the leader of a running entry");
        };
        let mut taken = vec![false; self.shards];
        for shard in served
            .into_iter()
            .chain(parked.iter().map(|&(shard, _)| shard))
        {
            taken[shard] = true;
        }
        if !taken.iter().all(|&t| t) {
            inner.entries.insert(
                key,
                Entry::Finished {
                    answer: Arc::clone(answer),
                    taken,
                },
            );
            inner.finished.push_back(key);
            if inner.finished.len() > self.max_finished {
                let oldest = inner.finished.pop_front().expect("non-empty");
                inner.entries.remove(&oldest);
            }
        }
        parked
    }

    /// The leader's run failed: removes the entry, so the next leg of the
    /// key starts a fresh run, and returns the parked `(shard, leg)` pairs,
    /// which the leader must fail.
    pub(crate) fn abandon(&self, key: RunKey) -> Vec<(usize, W)> {
        match self.inner.lock().unwrap().entries.remove(&key) {
            Some(Entry::Running(parked)) => parked,
            _ => unreachable!("abandon() is called once, by the leader of a running entry"),
        }
    }

    /// Entries currently in the table (running and finished).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> RunKey {
        RunKey {
            fingerprint: 1,
            workload: Workload::Sssp,
            seed,
        }
    }

    fn answer(shards: usize) -> Arc<SlicedAnswer> {
        Arc::new(SlicedAnswer {
            partials: (0..shards as u64).map(Partial::Sum).collect(),
            supersteps: 3,
            messages: 9,
        })
    }

    fn never() -> u32 {
        panic!("this leg must not park")
    }

    #[test]
    fn first_leg_leads_later_legs_park_and_are_handed_to_the_leader() {
        let table: RunTable<u32> = RunTable::new(3, 8);
        assert!(matches!(table.join(key(1), 1, never), Join::Lead));
        assert!(matches!(table.join(key(1), 0, || 10), Join::Parked));
        assert!(matches!(table.join(key(1), 2, || 12), Join::Parked));
        // Another key is independent.
        assert!(matches!(table.join(key(2), 0, never), Join::Lead));
        let parked = table.finish(key(1), [1], &answer(3));
        assert_eq!(parked, vec![(0, 10), (2, 12)]);
        // So is it when the leader serves the missing shards itself.
        assert!(matches!(table.join(key(3), 0, never), Join::Lead));
        assert!(table.finish(key(3), [0, 1, 2], &answer(3)).is_empty());
        // Every shard is accounted for: nothing is kept.
        assert_eq!(table.len(), 1, "only key 2's running entry remains");
        assert!(
            matches!(table.join(key(1), 0, never), Join::Lead),
            "a fresh run"
        );
    }

    #[test]
    fn late_legs_take_from_the_finished_entry_until_every_shard_has() {
        let table: RunTable<u32> = RunTable::new(3, 8);
        assert!(matches!(table.join(key(1), 0, never), Join::Lead));
        let ans = answer(3);
        assert!(table.finish(key(1), [0], &ans).is_empty());
        assert_eq!(table.len(), 1);
        match table.join(key(1), 2, never) {
            Join::Finished(a) => assert_eq!(a, ans),
            _ => panic!("shard 2 arrives late"),
        }
        assert_eq!(table.len(), 1, "shard 1 has not taken its partial yet");
        assert!(matches!(table.join(key(1), 1, never), Join::Finished(_)));
        assert_eq!(table.len(), 0, "dropped once all shards were served");
    }

    #[test]
    fn abandon_hands_back_the_parked_legs_and_clears_the_key() {
        let table: RunTable<u32> = RunTable::new(2, 8);
        assert!(matches!(table.join(key(1), 0, never), Join::Lead));
        assert!(matches!(table.join(key(1), 1, || 7), Join::Parked));
        assert_eq!(table.abandon(key(1)), vec![(1, 7)]);
        assert_eq!(table.len(), 0);
        assert!(
            matches!(table.join(key(1), 1, never), Join::Lead),
            "the next leg of the key leads afresh"
        );
    }

    #[test]
    fn abandoned_scatters_are_bounded_first_in_first_out() {
        let table: RunTable<u32> = RunTable::new(2, 2);
        for seed in 0..5 {
            assert!(matches!(table.join(key(seed), 0, never), Join::Lead));
            table.finish(key(seed), [0], &answer(2));
            assert!(table.len() <= 2, "never more than the bound");
        }
        // The two youngest survive; the evicted keys lead again.
        assert!(matches!(table.join(key(4), 1, never), Join::Finished(_)));
        assert!(matches!(table.join(key(3), 1, never), Join::Finished(_)));
        assert!(matches!(table.join(key(0), 1, never), Join::Lead));
    }

    #[test]
    fn a_rerun_of_a_served_key_survives_the_fifo_turning_over() {
        let table: RunTable<u32> = RunTable::new(2, 2);
        assert!(matches!(table.join(key(1), 0, never), Join::Lead));
        table.finish(key(1), [0], &answer(2));
        // Served completely: the entry and its FIFO record go together.
        assert!(matches!(table.join(key(1), 1, never), Join::Finished(_)));
        // A second run of the same key, still running while the FIFO turns
        // over, is not what the FIFO evicts.
        assert!(matches!(table.join(key(1), 0, never), Join::Lead));
        for seed in 10..14 {
            assert!(matches!(table.join(key(seed), 0, never), Join::Lead));
            table.finish(key(seed), [0], &answer(2));
        }
        assert!(matches!(table.join(key(1), 1, || 5), Join::Parked));
        assert_eq!(table.finish(key(1), [0], &answer(2)), vec![(1, 5)]);
    }
}
