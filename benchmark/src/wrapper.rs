//! A forwarding [`Overlay`] that times the calls into BATON.
//!
//! [`Timed`] forwards every trait method, the defaulted ones included, to
//! the wrapped overlay.  Calls of the six operation classes are always timed
//! (two clock reads per call) and tallied with the message costs they
//! return; that tally gives the end-to-end per-op latency.  When the calling
//! thread records a trace, every call also becomes a span named
//! `baton-core.<class or method>` (`baton-net.serve.export` for the snapshot
//! export).  The wrapper never changes an argument or a result, so a wrapped
//! run is the same simulation as a bare one (pinned by the churn self-test).

use std::time::Instant;

use baton_net::serve::RoutingSnapshot;
use baton_net::{
    ChurnCost, Histogram, LatencyModel, MessageStats, OpCost, Overlay, OverlayCapabilities,
    OverlayResult, PeerId, RepairPolicy, SimTime, TraceBuffer, TraceConfig,
};

use crate::trace;

/// The operation classes the benchmark tallies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Exact-match search.
    Exact,
    /// Range search.
    Range,
    /// Routed insert.
    Insert,
    /// Join through a random contact.
    Join,
    /// Graceful departure.
    Leave,
    /// Abrupt failure with recovery.
    Fail,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 6] = [
        Class::Exact,
        Class::Range,
        Class::Insert,
        Class::Join,
        Class::Leave,
        Class::Fail,
    ];

    /// Name used in metric names (`baton-core.<name>.calls`).
    pub fn name(self) -> &'static str {
        match self {
            Class::Exact => "exact",
            Class::Range => "range",
            Class::Insert => "insert",
            Class::Join => "join",
            Class::Leave => "leave",
            Class::Fail => "fail",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Class::Exact => "baton-core.exact",
            Class::Range => "baton-core.range",
            Class::Insert => "baton-core.insert",
            Class::Join => "baton-core.join",
            Class::Leave => "baton-core.leave",
            Class::Fail => "baton-core.fail",
        }
    }
}

/// What the wrapper saw of one class.
#[derive(Clone, Debug, Default)]
pub struct ClassTally {
    /// Calls made, failed ones included.
    pub calls: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Wall time inside the calls.
    pub busy_ns: u64,
    /// Wall time of each call, in call order.
    pub samples_ns: Vec<u64>,
    /// Messages the successful calls reported (churn: locate + update).
    pub messages: u64,
    /// Nodes visited (range queries).
    pub nodes: u64,
    /// Load-balancing messages (inserts).
    pub balance_messages: u64,
}

/// The tallies of every class, indexed like [`Class::ALL`].
pub type Tally = [ClassTally; 6];

/// Adds the tallies of `from` to `into`.
pub fn add(into: &mut Tally, from: Tally) {
    for (a, b) in into.iter_mut().zip(from) {
        a.calls += b.calls;
        a.errors += b.errors;
        a.busy_ns += b.busy_ns;
        a.samples_ns.extend(b.samples_ns);
        a.messages += b.messages;
        a.nodes += b.nodes;
        a.balance_messages += b.balance_messages;
    }
}

/// The forwarding wrapper.
pub struct Timed {
    inner: Box<dyn Overlay>,
    /// Per-class tallies since construction or the last [`take_tally`](Self::take_tally).
    pub tally: Tally,
}

impl Timed {
    /// Wraps an overlay.
    pub fn new(inner: Box<dyn Overlay>) -> Self {
        Self {
            inner,
            tally: Default::default(),
        }
    }

    /// Returns the tallies and starts new ones.
    pub fn take_tally(&mut self) -> Tally {
        std::mem::take(&mut self.tally)
    }

    fn op<T>(
        &mut self,
        class: Class,
        call: impl FnOnce(&mut dyn Overlay) -> OverlayResult<T>,
        cost: impl FnOnce(&T, &mut ClassTally),
    ) -> OverlayResult<T> {
        let inner = &mut *self.inner;
        // The clock reads sit inside the span, so the tally never includes
        // the span's own bookkeeping.
        let (result, elapsed) = trace::span(class.span(), || {
            let started = Instant::now();
            let result = call(inner);
            (result, started.elapsed().as_nanos() as u64)
        });
        let tally = &mut self.tally[class as usize];
        tally.calls += 1;
        tally.busy_ns += elapsed;
        tally.samples_ns.push(elapsed);
        match &result {
            Ok(value) => cost(value, tally),
            Err(_) => tally.errors += 1,
        }
        result
    }
}

fn churn_cost(cost: &ChurnCost, tally: &mut ClassTally) {
    tally.messages += cost.total_messages();
}

fn op_cost(cost: &OpCost, tally: &mut ClassTally) {
    tally.messages += cost.messages;
    tally.nodes += cost.nodes_visited as u64;
    tally.balance_messages += cost.balance_messages;
}

impl Overlay for Timed {
    fn name(&self) -> &'static str {
        trace::span("baton-core.name", || self.inner.name())
    }

    fn capabilities(&self) -> OverlayCapabilities {
        trace::span("baton-core.capabilities", || self.inner.capabilities())
    }

    fn node_count(&self) -> usize {
        trace::span("baton-core.node_count", || self.inner.node_count())
    }

    fn total_items(&self) -> usize {
        trace::span("baton-core.total_items", || self.inner.total_items())
    }

    fn stats(&self) -> &MessageStats {
        trace::span("baton-core.stats", || self.inner.stats())
    }

    fn stats_mut(&mut self) -> &mut MessageStats {
        trace::span("baton-core.stats_mut", || self.inner.stats_mut())
    }

    fn now(&self) -> SimTime {
        trace::span("baton-core.now", || self.inner.now())
    }

    fn advance_to(&mut self, at: SimTime) {
        // `run_phased` advances the clock once before every arrival it
        // dispatches: the arrival's spans share a fresh op id.
        trace::new_op();
        trace::span("baton-core.advance_to", || self.inner.advance_to(at))
    }

    fn set_latency_model(&mut self, model: LatencyModel) {
        trace::span("baton-core.set_latency_model", || {
            self.inner.set_latency_model(model)
        })
    }

    fn estimated_state_bytes(&self) -> u64 {
        trace::span("baton-core.estimated_state_bytes", || {
            self.inner.estimated_state_bytes()
        })
    }

    fn op_latencies(&self) -> Vec<(String, SimTime)> {
        trace::span("baton-core.op_latencies", || self.inner.op_latencies())
    }

    fn set_trace(&mut self, config: TraceConfig) {
        trace::span("baton-core.set_trace", || self.inner.set_trace(config))
    }

    fn take_trace(&mut self) -> Option<TraceBuffer> {
        trace::span("baton-core.take_trace", || self.inner.take_trace())
    }

    fn routing_snapshot(&self) -> Option<RoutingSnapshot> {
        trace::span("baton-net.serve.export", || self.inner.routing_snapshot())
    }

    fn peers(&self) -> &[PeerId] {
        trace::span("baton-core.peers", || self.inner.peers())
    }

    fn join_random(&mut self) -> OverlayResult<ChurnCost> {
        self.op(Class::Join, |o| o.join_random(), churn_cost)
    }

    fn leave_random(&mut self) -> OverlayResult<ChurnCost> {
        self.op(Class::Leave, |o| o.leave_random(), churn_cost)
    }

    fn leave_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        self.op(Class::Leave, |o| o.leave_peer(peer), churn_cost)
    }

    fn fail_random(&mut self) -> OverlayResult<ChurnCost> {
        self.op(Class::Fail, |o| o.fail_random(), churn_cost)
    }

    fn fail_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        self.op(Class::Fail, |o| o.fail_peer(peer), churn_cost)
    }

    fn replication(&self) -> usize {
        trace::span("baton-core.replication", || self.inner.replication())
    }

    fn set_replication(&mut self, k: usize) -> OverlayResult<()> {
        trace::span("baton-core.set_replication", || {
            self.inner.set_replication(k)
        })
    }

    fn peer_alive(&self, peer: PeerId) -> bool {
        trace::span("baton-core.peer_alive", || self.inner.peer_alive(peer))
    }

    fn fail_peer_deferred(
        &mut self,
        peer: PeerId,
        policy: &RepairPolicy,
    ) -> OverlayResult<SimTime> {
        self.op(
            Class::Fail,
            |o| o.fail_peer_deferred(peer, policy),
            |_, _| {},
        )
    }

    fn repair_peer(&mut self, peer: PeerId) -> OverlayResult<ChurnCost> {
        trace::span("baton-core.repair_peer", || self.inner.repair_peer(peer))
    }

    fn repair_fast_eligible(&self, peer: PeerId) -> bool {
        trace::span("baton-core.repair_fast_eligible", || {
            self.inner.repair_fast_eligible(peer)
        })
    }

    fn load_direct(&mut self, data: &[(u64, u64)]) -> bool {
        trace::span("baton-core.load_direct", || self.inner.load_direct(data))
    }

    fn insert(&mut self, key: u64, value: u64) -> OverlayResult<OpCost> {
        self.op(Class::Insert, |o| o.insert(key, value), op_cost)
    }

    fn delete(&mut self, key: u64) -> OverlayResult<OpCost> {
        trace::span("baton-core.delete", || self.inner.delete(key))
    }

    fn search_exact(&mut self, key: u64) -> OverlayResult<OpCost> {
        self.op(Class::Exact, |o| o.search_exact(key), op_cost)
    }

    fn search_range(&mut self, low: u64, high: u64) -> OverlayResult<OpCost> {
        self.op(Class::Range, |o| o.search_range(low, high), op_cost)
    }

    fn access_load_by_level(&self) -> Vec<(u32, f64)> {
        trace::span("baton-core.access_load_by_level", || {
            self.inner.access_load_by_level()
        })
    }

    fn balance_shift_histogram(&self) -> Option<&Histogram> {
        trace::span("baton-core.balance_shift_histogram", || {
            self.inner.balance_shift_histogram()
        })
    }

    fn validate(&self) -> Result<(), String> {
        trace::span("baton-core.validate", || self.inner.validate())
    }
}
