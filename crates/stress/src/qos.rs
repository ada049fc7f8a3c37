//! Multi-tenant QoS: the per-tenant admission stage in front of every
//! replica core's queue.
//!
//! Millions of users means tenants with different priorities — and the
//! paper's serving-side pathology is exactly one heavy analytics job (or
//! one hot tenant) monopolizing the worker queues so everything else
//! waits behind it. This module isolates tenants at the queue, not the
//! client: each replica core's bounded queue becomes a [`TenantQueue`] of
//! per-tenant *lanes*, and the executor dequeues by policy instead of
//! arrival order.
//!
//! The queue holds **executor-bound work only** — analytics (scattered
//! legs) and the debug hooks. Result-cache hits, requests already
//! past their deadline and point lookups are answered at submit (see
//! [`crate::service`]) and never enter a lane: no bucket is charged for
//! them, no lane capacity is spent on them, and no backlog of any tenant
//! can delay them. A tenant's `rate` / `weight` / `policy` meter its
//! analytics everywhere and its lookups nowhere.
//!
//! Two mechanisms shape what the service queues:
//!
//! * **Per-tenant token buckets** — an optional service-side GCRA bucket
//!   ([`crate::rate::TokenBucket`]) per lane. A lane whose bucket is
//!   non-conforming is *ineligible*: its queued jobs wait (counted in
//!   [`TenantLaneStats::throttled`]) while other lanes are served. Unlike
//!   the driver-side limiter this shapes *service* order, so a tenant
//!   blasting 10× its rate holds only its own lane.
//! * **Weighted-fair dequeue** — deficit-round-robin across eligible
//!   lanes at unit job cost: a lane with weight `w` gets `w` consecutive
//!   dequeues per round before the cursor advances, ties broken
//!   deterministically by tenant id. Work-conserving: while any eligible
//!   lane holds a job, *some* job is dequeued.
//!
//! Queue-full policy is per-tenant: each lane has its own capacity (the
//! configured per-core queue capacity), so one tenant's backlog rejects
//! or blocks only that tenant.
//!
//! **Single-tenant degenerate case.** With one tenant the queue is a
//! plain FIFO: DRR has a single lane, and no bucket is configured by
//! default — bit-identical behaviour and reports to the pre-QoS service,
//! gated in `scripts/verify.sh`.
//!
//! The queue is a pure state machine over caller-supplied timestamps
//! (like [`crate::rate::TokenBucket`]), which makes the scheduling
//! property-testable: replaying the same arrivals yields the identical
//! dequeue schedule.

use crate::rate::TokenBucket;
use crate::service::QueueFullPolicy;
use std::collections::VecDeque;

/// Most tenants a run may declare — lane eligibility is tracked in a
/// `u64` bitmask.
pub const MAX_TENANTS: usize = 64;

/// One tenant's declared shape: scheduling weight, optional service-side
/// rate, and driver-side offered-load knobs.
///
/// The service consumes `weight` / `rate` / `burst` / `policy`; the
/// driver consumes `pace` / `clients` / `ops`. Scenario `tenant i ...`
/// lines and `--tenants N` build these.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// DRR weight: this tenant gets `weight` consecutive dequeues per
    /// round-robin cycle. Must be ≥ 1.
    pub weight: u64,
    /// Service-side admission rate (ops/s) per replica core. `None`
    /// (default) = unthrottled lane.
    pub rate: Option<f64>,
    /// Burst allowance for the service-side bucket (ignored without
    /// `rate`).
    pub burst: u32,
    /// Driver-side offered rate (ops/s) across this tenant's clients,
    /// overriding the phase rate for this tenant.
    pub pace: Option<f64>,
    /// Explicit client count for this tenant. When any tenant sets this,
    /// all must (resolve-time validation); otherwise phase clients are
    /// dealt round-robin across tenants.
    pub clients: Option<usize>,
    /// Per-phase op budget for this tenant's stream (timing-independent
    /// op set — the isolation gate's victim uses this).
    pub ops: Option<u64>,
    /// Per-tenant queue-full policy; `None` inherits the service-wide
    /// [`crate::service::ServiceConfig::queue_policy`].
    pub policy: Option<QueueFullPolicy>,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            weight: 1,
            rate: None,
            burst: 1,
            pace: None,
            clients: None,
            ops: None,
            policy: None,
        }
    }
}

/// The QoS shape of a service: one [`TenantSpec`] per tenant, tenant id =
/// index. Defaults to a single default tenant (no QoS — plain FIFO).
#[derive(Debug, Clone, PartialEq)]
pub struct QosConfig {
    /// Tenant shapes; `tenants.len()` is the tenant count (1..=64).
    pub tenants: Vec<TenantSpec>,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            tenants: vec![TenantSpec::default()],
        }
    }
}

impl QosConfig {
    /// A config of `n` default tenants (equal weight, no buckets).
    ///
    /// # Panics
    /// Panics unless `1 <= n <= 64`.
    pub fn uniform(n: usize) -> Self {
        assert!(
            (1..=MAX_TENANTS).contains(&n),
            "tenants must be 1..={MAX_TENANTS}"
        );
        QosConfig {
            tenants: vec![TenantSpec::default(); n],
        }
    }
}

/// Per-tenant admission counters, striped per lane and folded across
/// cores by the report layer (counts sum, high-water marks max).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantLaneStats {
    /// The tenant id (lane index).
    pub tenant: usize,
    /// Jobs accepted into this lane.
    pub enqueued: u64,
    /// Jobs refused because this lane was at capacity (under
    /// [`QueueFullPolicy::Reject`]).
    pub rejected: u64,
    /// Times a dequeue pass found this lane non-empty but held back by
    /// its token bucket (counted once per pass per blocked lane).
    pub throttled: u64,
    /// High-water mark of this lane's depth.
    pub queue_hwm: u64,
}

/// One dequeue outcome from [`TenantQueue::pop`].
#[derive(Debug)]
pub enum Pop<J> {
    /// A job from the given tenant's lane.
    Job(usize, J),
    /// Jobs are queued but every non-empty lane is bucket-throttled;
    /// the earliest becomes eligible after this many nanoseconds.
    Throttled(u64),
    /// No jobs queued at all.
    Empty,
}

struct Lane<J> {
    weight: u64,
    capacity: usize,
    jobs: VecDeque<J>,
    bucket: Option<TokenBucket>,
    stats: TenantLaneStats,
}

impl<J> Lane<J> {
    fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the lane's bucket admits service at `now_ns` (`drain`
    /// ignores buckets — a closing service empties every lane).
    fn eligible(&self, now_ns: u64, drain: bool) -> bool {
        drain || self.bucket.as_ref().is_none_or(|b| b.conforms(now_ns))
    }

    fn charge(&mut self, now_ns: u64) {
        if let Some(b) = self.bucket.as_mut() {
            // Eligibility was checked; a conforming acquire cannot fail.
            let _ = b.try_acquire(now_ns);
        }
    }
}

/// A bounded multi-lane queue: one FIFO lane per tenant, weighted-fair
/// dequeue with per-lane token buckets.
///
/// Not internally synchronized — the service holds it inside the queue
/// mutex exactly where the `VecDeque` used to live.
pub struct TenantQueue<J> {
    lanes: Vec<Lane<J>>,
    /// DRR position: the lane currently spending its credit.
    cursor: usize,
    /// Dequeues remaining in the cursor lane's current round (0 = start
    /// a fresh round at the cursor).
    credit: u64,
    len: usize,
}

impl<J> TenantQueue<J> {
    /// Builds one lane per spec, each bounded at `capacity_per_lane` (the
    /// per-core queue capacity — a single tenant gets exactly the legacy
    /// bound).
    ///
    /// # Panics
    /// Panics unless `1 <= specs.len() <= 64` and every weight ≥ 1.
    pub fn new(specs: &[TenantSpec], capacity_per_lane: usize) -> Self {
        assert!(
            (1..=MAX_TENANTS).contains(&specs.len()),
            "tenants must be 1..={MAX_TENANTS}"
        );
        let lanes = specs
            .iter()
            .enumerate()
            .map(|(tenant, spec)| {
                assert!(spec.weight >= 1, "tenant {tenant}: weight must be >= 1");
                Lane {
                    weight: spec.weight,
                    capacity: capacity_per_lane,
                    jobs: VecDeque::new(),
                    bucket: spec.rate.map(|r| TokenBucket::new(r, spec.burst)),
                    stats: TenantLaneStats {
                        tenant,
                        ..TenantLaneStats::default()
                    },
                }
            })
            .collect();
        TenantQueue {
            lanes,
            cursor: 0,
            credit: 0,
            len: 0,
        }
    }

    /// Number of tenant lanes.
    pub fn tenants(&self) -> usize {
        self.lanes.len()
    }

    /// Total queued jobs across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued jobs in one tenant's lane.
    pub fn lane_len(&self, tenant: usize) -> usize {
        self.lanes[tenant].len()
    }

    /// Enqueues a job at the back of `tenant`'s lane; the job is handed
    /// back via the `Err` when the lane is at capacity. `_prio` is ignored:
    /// nothing that queues jumps a backlog (point lookups never queue), and
    /// the parameter stays only because the repo benchmark's queue probe
    /// names it in the call — ROADMAP.md item 1(c) drops it.
    #[allow(clippy::result_large_err)]
    pub fn push(&mut self, tenant: usize, _prio: bool, job: J) -> Result<(), J> {
        let lane = &mut self.lanes[tenant];
        if lane.len() >= lane.capacity {
            return Err(job);
        }
        lane.jobs.push_back(job);
        lane.stats.enqueued += 1;
        lane.stats.queue_hwm = lane.stats.queue_hwm.max(lane.len() as u64);
        self.len += 1;
        Ok(())
    }

    /// Removes and returns every queued job `wanted` picks, leaving the
    /// rest in place and in order. The taken jobs were never dequeued for
    /// service, so neither their lane's token bucket nor the fair-share
    /// round is charged for them.
    pub fn take_where(&mut self, wanted: impl Fn(&J) -> bool) -> Vec<J> {
        let mut taken = Vec::new();
        for lane in &mut self.lanes {
            if !lane.jobs.iter().any(&wanted) {
                continue;
            }
            for job in std::mem::take(&mut lane.jobs) {
                if wanted(&job) {
                    taken.push(job);
                } else {
                    lane.jobs.push_back(job);
                }
            }
        }
        self.len -= taken.len();
        taken
    }

    /// Records a shed request against `tenant` (the caller's
    /// [`QueueFullPolicy::Reject`] path).
    pub fn note_reject(&mut self, tenant: usize) {
        self.lanes[tenant].stats.rejected += 1;
    }

    /// Current per-lane counters, tenant order.
    pub fn stats(&self) -> Vec<TenantLaneStats> {
        self.lanes.iter().map(|l| l.stats).collect()
    }

    /// Dequeues the next job at `now_ns` (monotonic nanoseconds since the
    /// core started). `drain` ignores token buckets — used once the
    /// service is closing so shaped lanes still empty promptly.
    ///
    /// Schedule: deficit-round-robin over the eligible lanes — the cursor
    /// lane gets `weight` consecutive dequeues per round, ties broken by
    /// ascending tenant id. Deterministic in the arrival and timestamp
    /// sequence, and work-conserving: whenever any eligible lane holds a
    /// job, a job is returned.
    pub fn pop(&mut self, now_ns: u64, drain: bool) -> Pop<J> {
        if self.len == 0 {
            return Pop::Empty;
        }
        let n = self.lanes.len();

        // Eligibility scan: every non-empty lane either gets its bit or
        // (throttled) contributes its wait to the hint.
        let mut eligible = 0u64;
        let mut min_wait = u64::MAX;
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            if lane.len() == 0 {
                continue;
            }
            if lane.eligible(now_ns, drain) {
                eligible |= 1 << i;
            } else {
                lane.stats.throttled += 1;
                let wait = lane
                    .bucket
                    .as_ref()
                    .map_or(0, |b| b.next_conforming_ns().saturating_sub(now_ns));
                min_wait = min_wait.min(wait);
            }
        }
        if eligible == 0 {
            return Pop::Throttled(min_wait.max(1));
        }

        // DRR pass, scanning from the cursor. Skipping the cursor lane
        // (empty or throttled) forfeits its round.
        for off in 0..n {
            let i = (self.cursor + off) % n;
            if eligible & (1 << i) == 0 {
                if i == self.cursor {
                    self.credit = 0;
                }
                continue;
            }
            if i != self.cursor {
                self.cursor = i;
                self.credit = 0;
            }
            if self.credit == 0 {
                self.credit = self.lanes[i].weight;
            }
            self.credit -= 1;
            self.lanes[i].charge(now_ns);
            let job = self.lanes[i].jobs.pop_front().unwrap();
            self.len -= 1;
            if self.credit == 0 || self.lanes[i].jobs.is_empty() {
                self.cursor = (i + 1) % n;
                self.credit = 0;
            }
            return Pop::Job(i, job);
        }

        // An eligible bit implies a non-empty lane, and every lane was
        // scanned.
        unreachable!("eligible lane vanished between scan and dequeue");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(weights: &[u64]) -> Vec<TenantSpec> {
        weights
            .iter()
            .map(|&weight| TenantSpec {
                weight,
                ..TenantSpec::default()
            })
            .collect()
    }

    fn drain_order(q: &mut TenantQueue<u64>) -> Vec<usize> {
        let mut order = Vec::new();
        loop {
            match q.pop(0, false) {
                Pop::Job(t, _) => order.push(t),
                Pop::Empty => return order,
                Pop::Throttled(_) => panic!("unthrottled queue reported Throttled"),
            }
        }
    }

    #[test]
    fn single_tenant_is_fifo() {
        let mut q = TenantQueue::new(&specs(&[1]), 8);
        for i in 0..4u64 {
            q.push(0, false, i).unwrap();
        }
        let mut got = Vec::new();
        while let Pop::Job(t, j) = q.pop(0, false) {
            assert_eq!(t, 0);
            got.push(j);
        }
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn take_where_removes_the_picked_jobs_and_keeps_the_order_of_the_rest() {
        let mut q = TenantQueue::new(&specs(&[1, 1]), 8);
        for i in 0..6u64 {
            q.push((i % 2) as usize, false, i).unwrap();
        }
        assert_eq!(q.take_where(|&j| j == 9), Vec::<u64>::new());
        let mut taken = q.take_where(|&j| j == 1 || j == 4);
        taken.sort_unstable();
        assert_eq!(taken, vec![1, 4]);
        assert_eq!((q.len(), q.lane_len(0), q.lane_len(1)), (4, 2, 2));
        let mut rest = Vec::new();
        while let Pop::Job(_, j) = q.pop(0, false) {
            rest.push(j);
        }
        // Round-robin over the two equal-weight lanes, each still FIFO.
        assert_eq!(rest, vec![0, 3, 2, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn drr_round_follows_weights() {
        // Weights 3:1, both lanes saturated: each round serves 3 from
        // tenant 0 then 1 from tenant 1, starting at the cursor.
        let mut q = TenantQueue::new(&specs(&[3, 1]), 64);
        for i in 0..12 {
            q.push(0, false, i).unwrap();
        }
        for i in 0..4 {
            q.push(1, false, 100 + i).unwrap();
        }
        let order = drain_order(&mut q);
        assert_eq!(order, vec![0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn dequeue_is_deterministic_across_reruns() {
        let build = || {
            let mut q = TenantQueue::new(&specs(&[2, 1, 5]), 64);
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..60u64 {
                x = x.wrapping_mul(0xD129_0B26_4A9E_3C4D).rotate_left(17);
                let tenant = (x % 3) as usize;
                q.push(tenant, false, i).unwrap();
            }
            q
        };
        let a = drain_order(&mut build());
        let b = drain_order(&mut build());
        assert_eq!(a, b);
    }

    #[test]
    fn work_conserving_no_starvation() {
        // Even a weight-100 aggressor cannot starve a weight-1 tenant:
        // within every window of 101 dequeues the small tenant is served.
        let mut q = TenantQueue::new(&specs(&[100, 1]), 1024);
        for i in 0..500 {
            q.push(0, false, i).unwrap();
        }
        for i in 0..5 {
            q.push(1, false, 1000 + i).unwrap();
        }
        let order = drain_order(&mut q);
        assert_eq!(order.len(), 505);
        let positions: Vec<usize> = order
            .iter()
            .enumerate()
            .filter_map(|(pos, &t)| (t == 1).then_some(pos))
            .collect();
        assert_eq!(positions.len(), 5);
        for w in positions.windows(2) {
            assert!(w[1] - w[0] <= 101, "tenant 1 starved: gaps {positions:?}");
        }
    }

    #[test]
    fn throttled_lane_defers_then_drains() {
        let mut spec = specs(&[1, 1]);
        spec[0].rate = Some(1000.0); // 1 token per ms, burst 1
        let mut q = TenantQueue::new(&spec, 64);
        q.push(0, false, 0).unwrap();
        q.push(0, false, 1).unwrap();
        // First pop charges the bucket; second finds lane 0 throttled.
        assert!(matches!(q.pop(0, false), Pop::Job(0, 0)));
        match q.pop(0, false) {
            Pop::Throttled(wait) => assert_eq!(wait, 1_000_000),
            other => panic!("expected Throttled, got {other:?}"),
        }
        assert_eq!(q.stats()[0].throttled, 1);
        // While lane 0 waits, lane 1 is served (work conservation).
        q.push(1, false, 100).unwrap();
        assert!(matches!(q.pop(0, false), Pop::Job(1, 100)));
        // Time advances past the increment: lane 0 becomes eligible.
        assert!(matches!(q.pop(1_000_000, false), Pop::Job(0, 1)));
        assert!(matches!(q.pop(1_000_000, false), Pop::Empty));
    }

    #[test]
    fn drain_ignores_buckets() {
        let mut spec = specs(&[1]);
        spec[0].rate = Some(1.0);
        let mut q = TenantQueue::new(&spec, 64);
        q.push(0, false, 0).unwrap();
        q.push(0, false, 1).unwrap();
        assert!(matches!(q.pop(0, false), Pop::Job(0, 0)));
        assert!(matches!(q.pop(0, false), Pop::Throttled(_)));
        assert!(matches!(q.pop(0, true), Pop::Job(0, 1)));
    }

    #[test]
    fn per_lane_capacity_isolates_backlog() {
        let mut q = TenantQueue::new(&specs(&[1, 1]), 2);
        q.push(0, false, 0).unwrap();
        q.push(0, false, 1).unwrap();
        // Tenant 0 is full; tenant 1 still has room.
        assert!(q.push(0, false, 2).is_err());
        q.note_reject(0);
        q.push(1, false, 100).unwrap();
        let stats = q.stats();
        assert_eq!(stats[0].rejected, 1);
        assert_eq!(stats[0].enqueued, 2);
        assert_eq!(stats[0].queue_hwm, 2);
        assert_eq!(stats[1].rejected, 0);
        assert_eq!(stats[1].enqueued, 1);
        assert_eq!(q.len(), 3);
    }
}
