//! The service's routing front-end.
//!
//! Classifies each [`QueryKind`] submitted to a [`ShardedGraphService`]:
//!
//! * **Point lookups** (degree / neighbors) are *owner-routed*: exactly one
//!   shard — the one whose slice owns the vertex — sees the request. The
//!   replica core the routing policy picks there answers it inside
//!   `submit`, on the caller's thread, from the pinned epoch's slice (see
//!   [`crate::service`]): the returned ticket is already resolved.
//! * **Analytics** (every Table 1 workload, at every shard count, one shard
//!   included) first probe the service's one result cache, keyed by
//!   `(workload, full fingerprint of the pinned epoch, seed)` — **one
//!   probe per request**, on the submitting thread. A hit is the whole
//!   answer: it comes back as a ready ticket routed
//!   [`Route::Scattered`] over all `S` shards and reaches no shard — no
//!   leg, no queue, no executor. A miss is *scattered*: the router fans one
//!   [`QueryKind::WorkloadPartial`] leg per shard, each leg answers with
//!   the deterministic run's output reduced over its shard's owned slice,
//!   and the gather step merges the typed [`Partial`]s (sum / max /
//!   arg-max per workload) back into the exact whole-graph answer. The
//!   legs of one request — and of concurrent requests for the same
//!   `(epoch, workload, seed)` — share **one** engine run through the
//!   service-wide run table (see [`crate::shard`]): the first leg dequeued
//!   leads it, the others park on it (freeing their executors) or pick
//!   their slice up after it finished. The router does not know which leg
//!   led: it sees `S` ordinary leg responses. The leader memoizes the
//!   whole answer before it answers any leg, so the next identical
//!   request is a hit. Legs are internal: a
//!   [`QueryKind::WorkloadPartial`] submitted from outside is refused with
//!   [`SubmitError::InternalLeg`].
//! * **Debug hooks** are spread round-robin by request id.
//!
//! The response carries the decision ([`Route`]) plus, for scattered
//! requests, the straggler penalty ([`QueryResponse::gather_wait`]: last
//! leg completion − first leg completion), so load drivers can report
//! routed-vs-scattered traffic and gather latency without asking the
//! service.
//!
//! **Replica routing.** When a shard runs more than one replica core
//! ([`crate::service::ServiceConfig::replicas`]), every dispatch that
//! lands on a shard — owner-routed lookups (answered at submit, the pick
//! decides whose counters book the answer), each scattered leg, and the
//! debug spread — additionally picks a
//! replica by the service's [`RoutingPolicy`]: `round-robin` walks the
//! shard's replicas from a seeded offset, `least-loaded` picks the replica
//! with the fewest jobs queued or in service (ties broken by the lowest
//! replica id). Replicas serve the same epoch-pinned snapshot, so the pick
//! affects latency only, never answers.

use crate::cache::CachedAnswer;
use crate::request::{QueryError, QueryKind, QueryOutput, QueryRequest, QueryResponse, Route};
use crate::runs::RunKey;
use crate::service::{unexecuted_response, SubmitError, Ticket};
use crate::shard::ShardedGraphService;
use std::time::{Duration, Instant};
use vcgp_core::service::Partial;
use vcgp_core::Workload;

/// How the router picks a replica core within a shard. Irrelevant (and
/// unobservable beyond [`Route::Routed`]'s replica field) when every shard
/// runs a single replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Walk the shard's replicas in order from a per-shard seeded offset —
    /// deterministic dispatch *sequence* per shard, uniform in the long
    /// run, oblivious to load.
    #[default]
    RoundRobin,
    /// Pick the replica with the fewest jobs queued or in service (a job
    /// counts from dequeue until its executor has answered or parked it),
    /// ties broken by the lowest replica id — the load-aware policy that
    /// steers new work away from a replica stuck behind a slow request.
    LeastLoaded,
}

impl RoutingPolicy {
    /// Parses a policy name (`round-robin` / `least-loaded`,
    /// case-insensitive).
    pub fn parse(s: &str) -> Result<RoutingPolicy, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "round-robin" => Ok(RoutingPolicy::RoundRobin),
            "least-loaded" => Ok(RoutingPolicy::LeastLoaded),
            other => Err(format!(
                "unknown routing policy {other:?} (expected round-robin or least-loaded)"
            )),
        }
    }

    /// The canonical name, as accepted by [`RoutingPolicy::parse`].
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastLoaded => "least-loaded",
        }
    }
}

/// A pending response from either a single queue or a scattered fan-out.
pub enum AnyTicket {
    /// One underlying ticket — every owner-routed lookup and debug hook,
    /// and every analytics request the result cache answered; the route
    /// is patched into the response.
    Single {
        /// The queue ticket.
        ticket: Ticket,
        /// How the request was dispatched.
        route: Route,
    },
    /// One leg per shard, merged at wait time.
    Scattered(GatherTicket),
}

impl AnyTicket {
    /// The submitted request's id.
    pub fn id(&self) -> u64 {
        match self {
            AnyTicket::Single { ticket, .. } => ticket.id(),
            AnyTicket::Scattered(g) => g.id,
        }
    }

    /// Blocks until the response (gather-merged when scattered) arrives.
    pub fn wait(self) -> QueryResponse {
        match self {
            AnyTicket::Single { ticket, route } => {
                let mut resp = ticket.wait();
                resp.route = route;
                resp
            }
            AnyTicket::Scattered(g) => g.wait(),
        }
    }
}

/// The gather side of a scattered request: one ticket per shard leg.
pub struct GatherTicket {
    id: u64,
    legs: Vec<Ticket>,
}

impl GatherTicket {
    /// Collects every leg and merges them into one response.
    ///
    /// Cost metrics aggregate across legs: `attempts` and `queue_wait` take
    /// the maximum (the binding constraint), `service_time` sums (aggregate
    /// fleet compute burned — with shared runs, one leg's engine run plus
    /// the other legs' answer time), and `gather_wait` is
    /// the time between the first and the last leg *completing* — the
    /// straggler penalty of the fan-out, whichever leg the straggler is.
    ///
    /// On success every leg is a [`QueryOutput::WorkloadPartial`]; the
    /// merged answer is [`Partial::finish`] of the folded partials,
    /// `supersteps` is the maximum (every leg reports the same
    /// deterministic run, so this equals the whole run's count) and
    /// `messages` the sum over legs. If any leg failed, the merged
    /// response carries the first failure in shard order.
    pub fn wait(self) -> QueryResponse {
        let shards = self.legs.len() as u32;
        let responses: Vec<QueryResponse> = self.legs.into_iter().map(Ticket::wait).collect();
        let completions = || responses.iter().map(|r| r.completed_at);
        let completed_at = completions().max().unwrap_or_else(Instant::now);
        let gather_wait =
            completed_at.saturating_duration_since(completions().min().unwrap_or(completed_at));

        let mut attempts = 0u32;
        let mut queue_wait = Duration::ZERO;
        let mut service_time = Duration::ZERO;
        for r in &responses {
            attempts = attempts.max(r.attempts);
            queue_wait = queue_wait.max(r.queue_wait);
            service_time += r.service_time;
        }

        let result = merge_legs(&responses);
        QueryResponse {
            id: self.id,
            result,
            attempts,
            queue_wait,
            service_time,
            backoff: Duration::ZERO,
            route: Route::Scattered { shards },
            gather_wait,
            completed_at,
        }
    }
}

/// Folds scattered legs into the global workload output (or the first
/// per-leg failure in shard order).
fn merge_legs(responses: &[QueryResponse]) -> Result<QueryOutput, QueryError> {
    let mut merged: Option<Partial> = None;
    let mut supersteps = 0u64;
    let mut messages = 0u64;
    for r in responses {
        match &r.result {
            Err(e) => return Err(e.clone()),
            Ok(QueryOutput::WorkloadPartial {
                partial,
                supersteps: s,
                messages: m,
            }) => {
                supersteps = supersteps.max(*s);
                messages += *m;
                merged = Some(match merged {
                    None => *partial,
                    Some(acc) => acc.merge(*partial),
                });
            }
            Ok(_) => {
                return Err(QueryError::Unsupported(
                    "gather: leg returned a non-partial output".to_string(),
                ))
            }
        }
    }
    match merged {
        Some(p) => Ok(QueryOutput::Workload {
            answer: p.finish(),
            supersteps,
            messages,
        }),
        None => Err(QueryError::Unsupported("gather: no legs".to_string())),
    }
}

impl ShardedGraphService {
    /// Answers an analytics request from the result cache: the one probe
    /// of the request, made after the epoch pin. It keeps the order of
    /// checks a core makes at submit: a closed service refuses, a request
    /// already past its deadline is not probed (its legs are dropped at
    /// their cores, as early drops), and only then does the cache answer.
    /// `None` is a miss, or a request the cache must not answer.
    fn cached(
        &self,
        req: &QueryRequest,
        workload: Workload,
    ) -> Result<Option<Ticket>, SubmitError> {
        if self.is_closed() {
            return Err(SubmitError::Closed);
        }
        let Some(cache) = &self.cache else {
            return Ok(None);
        };
        if req.deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(None);
        }
        let key = RunKey {
            fingerprint: req.epoch.as_ref().expect("pinned at submit").fingerprint,
            workload,
            seed: req.seed,
        };
        let Some(CachedAnswer::Whole {
            answer,
            supersteps,
            messages,
        }) = cache.get(&key.cache_key())
        else {
            return Ok(None);
        };
        let output = QueryOutput::Workload {
            answer,
            supersteps,
            messages,
        };
        Ok(Some(Ticket::ready(unexecuted_response(req.id, Ok(output)))))
    }

    /// Routes and submits one request. Point lookups go to the owning
    /// shard; a workload is answered from the result cache or scattered
    /// to every shard; debug hooks spread by request id.
    ///
    /// Fails with [`SubmitError::InternalLeg`] for a
    /// [`QueryKind::WorkloadPartial`] (legs are the router's own), and with
    /// [`SubmitError::Closed`] once the service is closed. When
    /// a scatter fails midway, legs already accepted still execute but
    /// their responses are abandoned (dropped tickets), matching the
    /// semantics of dropping any other ticket.
    ///
    /// Every submission is pinned to the currently serving epoch — **one**
    /// pin across all legs of a scatter, so a swap landing mid-fan-out
    /// can never hand different legs different graph versions (the gather
    /// merge would silently mix epochs otherwise). The pin is the
    /// submitting thread's own stripe's
    /// ([`EpochManager::pin`](crate::epoch::EpochManager::pin)): taking it
    /// writes no cache line a client on another stripe writes.
    pub fn submit(&self, mut req: QueryRequest) -> Result<AnyTicket, SubmitError> {
        req.epoch = Some(self.epochs.pin());
        let shard = match req.kind {
            QueryKind::Degree(v) | QueryKind::Neighbors(v) => self.owner(v),
            QueryKind::Workload(w) => {
                if let Some(ticket) = self.cached(&req, w)? {
                    return Ok(AnyTicket::Single {
                        ticket,
                        route: Route::Scattered {
                            shards: self.shards.len() as u32,
                        },
                    });
                }
                let id = req.id;
                let legs = self
                    .shards
                    .iter()
                    .map(|sh| {
                        let mut leg = req.clone();
                        leg.kind = QueryKind::WorkloadPartial(w);
                        sh.submit(self.routing, leg).map(|(ticket, _)| ticket)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                return Ok(AnyTicket::Scattered(GatherTicket { id, legs }));
            }
            QueryKind::WorkloadPartial(_) => return Err(SubmitError::InternalLeg),
            QueryKind::DebugSleep(_) | QueryKind::DebugPanic => {
                (req.id % self.shards.len() as u64) as usize
            }
        };
        let (ticket, replica) = self.shards[shard].submit(self.routing, req)?;
        Ok(AnyTicket::Single {
            ticket,
            route: Route::Routed {
                shard: shard as u32,
                replica,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{EpochPin, MutationConfig};
    use crate::service::ServiceConfig;
    use std::sync::{Arc, Mutex};
    use vcgp_graph::{generators, Mutation};

    /// The fan-out clones the request, pin included: every leg holds the
    /// *same* `Arc<EpochPin>` — not merely pins on the same epoch — and a
    /// swap that lands while the legs are queued changes none of them.
    #[test]
    fn every_leg_of_a_scatter_carries_the_one_pin_of_its_request() {
        const SHARDS: usize = 3;
        let graph = Arc::new(generators::gnm_connected(24, 48, 9));
        let config = ServiceConfig {
            executors: 1,
            mutations: Some(MutationConfig::default()),
            ..ServiceConfig::default()
        };
        let service = ShardedGraphService::start(graph, config, SHARDS);
        // Hold every shard's only executor (debug ops spread by id), so the
        // legs stay where they can be looked at: in the queues.
        let sleeps: Vec<AnyTicket> = (0..SHARDS as u64)
            .map(|id| {
                let sleep = QueryKind::DebugSleep(Duration::from_millis(500));
                service.submit(QueryRequest::new(id, sleep)).expect("open")
            })
            .collect();
        while service.queue_depths().iter().any(|&depth| depth > 0) {
            std::thread::yield_now();
        }
        let scattered = service
            .submit(QueryRequest::new(
                100,
                QueryKind::Workload(Workload::CcHashMin),
            ))
            .expect("open");
        service
            .submit_mutation(Mutation::AddVertex { label: 0 })
            .expect("writable");
        while service.epochs.epoch_id() < 1 {
            std::thread::yield_now();
        }

        let pins: Mutex<Vec<Arc<EpochPin>>> = Mutex::new(Vec::new());
        for shard in &service.shards {
            let taken = shard.replicas[0].handle().take_queued_legs(|req| {
                assert_eq!(req.kind, QueryKind::WorkloadPartial(Workload::CcHashMin));
                pins.lock()
                    .unwrap()
                    .push(Arc::clone(req.epoch.as_ref().expect("stamped")));
                false
            });
            assert!(taken.is_empty(), "looked at, not taken");
        }
        let pins = pins.into_inner().unwrap();
        assert_eq!(pins.len(), SHARDS, "one queued leg per shard");
        for pin in &pins {
            assert!(Arc::ptr_eq(pin, &pins[0]));
            assert_eq!(pin.id, 0, "pinned before the swap");
        }
        assert_eq!(
            service.epochs.pin().id,
            1,
            "a later submission pins the new epoch"
        );
        drop(pins);

        assert!(scattered.wait().is_ok());
        for sleep in sleeps {
            assert!(sleep.wait().is_ok());
        }
        service.shutdown();
    }
}
