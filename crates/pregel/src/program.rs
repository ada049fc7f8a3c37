//! The vertex-program trait and its per-vertex / master execution contexts.

use crate::aggregate::{AggValue, AggregatorDef};
use crate::partition::Partitioner;
use crate::pool::{DirectTable, Lane, DIRECT_INDEX_MAX_VERTICES};
use crate::state_size::StateSize;
use vcgp_graph::rng::{mix3, SplitMix64};
use vcgp_graph::{Graph, VertexId};

/// A commutative, associative message-combining function (Pregel
/// combiners): folds the second message into the first.
pub type Combiner<M> = fn(&mut M, M);

/// A vertex-centric computation in the Pregel model.
///
/// The engine calls [`VertexProgram::compute`] for every active vertex each
/// superstep (superstep 0 runs it for all vertices with an empty message
/// slice). The program expresses everything "from the perspective of a
/// single vertex", per the think-like-a-vertex model.
pub trait VertexProgram: Sync {
    /// Per-vertex state. `StateSize` is required so BPPA property 1
    /// (per-vertex storage) can be measured.
    type Value: Clone + Send + StateSize;
    /// Message type exchanged between vertices.
    type Message: Clone + Send;

    /// The per-vertex kernel.
    fn compute(&self, ctx: &mut Context<'_, Self>, messages: &[Self::Message]);

    /// Optional message combiner: folds the second message into the first
    /// for messages addressed to the same destination vertex. Must be
    /// commutative and associative. Applied twice: once *at the sender*
    /// while messages are buffered (so each sender worker ships at most one
    /// message per destination vertex), and once at the receiver as the
    /// cross-sender backstop. With per-vertex tracking enabled the sender
    /// stage is skipped so per-message receive counts stay exact. Return
    /// `None` (the default) to deliver all messages individually.
    fn combiner(&self) -> Option<Combiner<Self::Message>> {
        None
    }

    /// Aggregators used by this program (empty by default). Values folded
    /// during superstep `S` are readable in superstep `S + 1` via
    /// [`Context::read_aggregate`] and by the master.
    fn aggregators(&self) -> Vec<AggregatorDef> {
        Vec::new()
    }

    /// Initial values for the global slots set by the master
    /// (empty by default). Readable by every vertex via [`Context::global`].
    fn globals(&self) -> Vec<AggValue> {
        Vec::new()
    }

    /// Master-compute hook, run once after each superstep (including
    /// superstep 0) with that superstep's merged aggregators. Used for
    /// phase transitions and global termination decisions.
    fn master_compute(&self, _master: &mut MasterContext<'_>) {}
}

/// Outgoing message buffers for one worker, bucketed by destination worker.
///
/// Lives for the whole run (buffers and combining tables are recycled
/// across supersteps, see [`crate::pool`]). When constructed with a
/// combiner, messages to the same destination vertex are folded *in the
/// sender's lane* as they are sent — in send order, so results stay
/// deterministic — and only one entry per (sender worker, destination
/// vertex) is ever materialized and shipped.
pub(crate) struct Outgoing<M> {
    pub(crate) lanes: Vec<Lane<M>>,
    /// Direct-mapped combining index (one slot per graph vertex, shared by
    /// every lane — a destination determines its lane uniquely). Present
    /// when combining on a graph small enough to afford it; larger graphs
    /// use the per-lane open-addressing tables instead.
    direct: Option<DirectTable>,
    combiner: Option<Combiner<M>>,
    /// Sends folded into an existing lane entry this superstep (the
    /// per-worker `combined_at_sender` observable).
    pub(crate) combined: u64,
}

impl<M> Outgoing<M> {
    /// `combiner` enables sender-side combining; pass `None` to buffer
    /// every send individually (no combiner, or per-vertex tracking mode,
    /// which needs per-message receive counts).
    pub(crate) fn new(
        num_workers: usize,
        num_vertices: usize,
        combiner: Option<Combiner<M>>,
    ) -> Self {
        let direct = if combiner.is_some() && num_vertices <= DIRECT_INDEX_MAX_VERTICES {
            Some(DirectTable::new(num_vertices))
        } else {
            None
        };
        Outgoing {
            lanes: (0..num_workers).map(|_| Lane::new()).collect(),
            direct,
            combiner,
            combined: 0,
        }
    }

    /// Buffers `msg` for vertex `to` owned by worker `owner`, folding it
    /// into an already-buffered message to the same vertex when combining.
    #[inline]
    pub(crate) fn push(&mut self, owner: usize, to: VertexId, msg: M) {
        let lane = &mut self.lanes[owner];
        if let Some(combine) = self.combiner {
            let hit = match &mut self.direct {
                Some(t) => t.find_or_insert(to, lane.buf.len()),
                None => lane.table.find_or_insert(to, &lane.buf),
            };
            if let Some(i) = hit {
                combine(&mut lane.buf[i].1, msg);
                lane.folded += 1;
                self.combined += 1;
                return;
            }
        }
        lane.buf.push((to, msg));
    }

    /// Buffers one copy of `msg` for every vertex of `targets`: the lanes,
    /// order and folds of a [`push`](Self::push) per target, in order. With
    /// one lane and no combiner that is a single `extend`.
    pub(crate) fn push_all(&mut self, partitioner: Partitioner, targets: &[VertexId], msg: &M)
    where
        M: Clone,
    {
        if let ([lane], None) = (self.lanes.as_mut_slice(), self.combiner) {
            lane.buf.extend(targets.iter().map(|&to| (to, msg.clone())));
        } else {
            for &to in targets {
                self.push(partitioner.owner(to), to, msg.clone());
            }
        }
    }

    /// Resets per-superstep state after a flush: combining indexes become
    /// logically empty, the fold counter restarts. Lane buffers are managed
    /// by the flush and the delivery (the worker's lane to itself is still
    /// full here; its receiver drains it in place).
    pub(crate) fn begin_superstep(&mut self) {
        for lane in &mut self.lanes {
            lane.table.advance();
        }
        if let Some(t) = &mut self.direct {
            t.advance();
        }
        self.combined = 0;
    }
}

/// The per-vertex execution context handed to [`VertexProgram::compute`].
pub struct Context<'a, P: VertexProgram + ?Sized> {
    pub(crate) id: VertexId,
    pub(crate) superstep: u64,
    pub(crate) graph: &'a Graph,
    pub(crate) value: &'a mut P::Value,
    pub(crate) halted: &'a mut bool,
    pub(crate) out: &'a mut Outgoing<P::Message>,
    pub(crate) partitioner: Partitioner,
    pub(crate) agg_prev: &'a [AggValue],
    pub(crate) agg_partial: &'a mut [AggValue],
    pub(crate) agg_defs: &'a [AggregatorDef],
    pub(crate) globals: &'a [AggValue],
    pub(crate) work: &'a mut u64,
    pub(crate) sent: &'a mut u64,
    pub(crate) seed: u64,
}

impl<'a, P: VertexProgram + ?Sized> Context<'a, P> {
    /// This vertex's id.
    #[inline]
    pub fn id(&self) -> VertexId {
        self.id
    }

    /// The current superstep (0-based).
    #[inline]
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// The graph being processed.
    #[inline]
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// This vertex's state.
    #[inline]
    pub fn value(&self) -> &P::Value {
        self.value
    }

    /// Mutable access to this vertex's state.
    #[inline]
    pub fn value_mut(&mut self) -> &mut P::Value {
        self.value
    }

    /// Out-neighbors of this vertex (sorted by id).
    #[inline]
    pub fn out_neighbors(&self) -> &'a [VertexId] {
        self.graph.out_neighbors(self.id)
    }

    /// In-neighbors of this vertex.
    #[inline]
    pub fn in_neighbors(&self) -> &'a [VertexId] {
        self.graph.in_neighbors(self.id)
    }

    /// Sends `msg` to vertex `to`, to be delivered next superstep.
    /// Each send is charged one work unit and one sent-message unit.
    #[inline]
    pub fn send(&mut self, to: VertexId, msg: P::Message) {
        debug_assert!(
            (to as usize) < self.graph.num_vertices(),
            "message to out-of-range vertex {to}"
        );
        let w = self.partitioner.owner(to);
        self.out.push(w, to, msg);
        *self.sent += 1;
        *self.work += 1;
    }

    /// Sends a copy of `msg` along every out-edge: the same messages, in
    /// the same order and with the same charges, as a [`send`](Self::send)
    /// per out-neighbor.
    pub fn send_to_all_out_neighbors(&mut self, msg: P::Message) {
        let neighbors = self.graph.out_neighbors(self.id);
        self.send_to_each(neighbors, &msg);
    }

    /// Sends a copy of `msg` to every in-neighbor (the "parents" of a
    /// digraph vertex — used by the simulation workloads), as a
    /// [`send`](Self::send) per in-neighbor would.
    pub fn send_to_all_in_neighbors(&mut self, msg: P::Message) {
        let neighbors = self.graph.in_neighbors(self.id);
        self.send_to_each(neighbors, &msg);
    }

    /// One whole-adjacency send: buffered in one call, charged one work
    /// unit and one sent-message unit per target.
    fn send_to_each(&mut self, targets: &[VertexId], msg: &P::Message) {
        self.out.push_all(self.partitioner, targets, msg);
        let k = targets.len() as u64;
        *self.sent += k;
        *self.work += k;
    }

    /// Votes to halt. The vertex will not run next superstep unless a
    /// message arrives for it (or the master reactivates everyone): a halted
    /// vertex costs nothing. Vote on every invocation whose follow-up work,
    /// if any, a message will bring.
    #[inline]
    pub fn vote_to_halt(&mut self) {
        *self.halted = true;
    }

    /// Charges `units` of additional local work (adjacency scans, local
    /// sorting, hash-set maintenance, ...). Programs use this to make the
    /// measured `w_i` faithful to their per-superstep time complexity.
    #[inline]
    pub fn charge(&mut self, units: u64) {
        *self.work += units;
    }

    /// Folds `v` into aggregator `idx` (as declared by
    /// [`VertexProgram::aggregators`]).
    #[inline]
    pub fn aggregate(&mut self, idx: usize, v: AggValue) {
        self.agg_defs[idx].op.fold(&mut self.agg_partial[idx], v);
    }

    /// The merged value of aggregator `idx` from the previous superstep
    /// (the identity during superstep 0).
    #[inline]
    pub fn read_aggregate(&self, idx: usize) -> AggValue {
        self.agg_prev[idx]
    }

    /// The global slot `idx`, as last set by the master.
    #[inline]
    pub fn global(&self, idx: usize) -> AggValue {
        self.globals[idx]
    }

    /// A deterministic per-(run, vertex, superstep) random generator:
    /// identical results regardless of worker count or scheduling.
    pub fn rng(&self) -> SplitMix64 {
        SplitMix64::new(mix3(self.seed, self.id as u64, self.superstep))
    }
}

/// The master's execution context, handed to
/// [`VertexProgram::master_compute`] after every superstep.
pub struct MasterContext<'a> {
    pub(crate) superstep: u64,
    pub(crate) num_vertices: usize,
    pub(crate) active: usize,
    pub(crate) aggregates: &'a [AggValue],
    pub(crate) globals: &'a mut [AggValue],
    pub(crate) halt: bool,
    pub(crate) reactivate_all: bool,
}

impl<'a> MasterContext<'a> {
    /// The superstep that just finished (0-based).
    #[inline]
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// Number of vertices in the graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of vertices that will be active next superstep (post message
    /// delivery): those that did not vote to halt plus the halted ones that
    /// just received mail.
    ///
    /// When this is `0` and the master neither [`halt`](Self::halt)s nor
    /// calls [`reactivate_all`](Self::reactivate_all), the run ends here as
    /// [`crate::HaltReason::Converged`] — also in the middle of a
    /// master-phased program whose next phase is message-driven and happens
    /// to have no mail. Such a program keeps itself alive:
    /// `if master.num_active() == 0 { master.reactivate_all() }`.
    #[inline]
    pub fn num_active(&self) -> usize {
        self.active
    }

    /// The merged value of aggregator `idx` for the superstep that just
    /// finished.
    #[inline]
    pub fn read_aggregate(&self, idx: usize) -> AggValue {
        self.aggregates[idx]
    }

    /// Reads global slot `idx`.
    #[inline]
    pub fn global(&self, idx: usize) -> AggValue {
        self.globals[idx]
    }

    /// Sets global slot `idx`, visible to all vertices from the next
    /// superstep on.
    #[inline]
    pub fn set_global(&mut self, idx: usize, v: AggValue) {
        self.globals[idx] = v;
    }

    /// Terminates the computation after this superstep.
    #[inline]
    pub fn halt(&mut self) {
        self.halt = true;
    }

    /// Forces every vertex active next superstep.
    ///
    /// This costs `O(n)` invocations — every vertex runs, finished or not —
    /// and one more barrier crossing. Call it only at a
    /// phase boundary whose next phase needs *halted* vertices to act
    /// without having been written to (or to carry the run through an empty
    /// phase, see [`num_active`](Self::num_active)); a vertex that knows it
    /// has such work simply does not vote to halt, and everything else is
    /// woken by its mail.
    #[inline]
    pub fn reactivate_all(&mut self) {
        self.reactivate_all = true;
    }
}
