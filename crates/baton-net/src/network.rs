//! The [`SimNetwork`]: message accounting, virtual time, failure injection
//! and the route-recorder hook.
//!
//! Every overlay routes synchronously: a hop is sent and answered before the
//! protocol decides on the next one.  So there is no event queue.  One call,
//! [`SimNetwork::hop`], performs a whole hop: it counts the message, draws
//! one link latency, moves virtual time and reports whether the destination
//! was alive.  Two clocks cooperate:
//!
//! * the **arrival clock** (moved by [`SimNetwork::advance_to`]) is where
//!   newly issued operations begin — an open-loop workload advances it to
//!   each operation's arrival time, so operations *interleave* in virtual
//!   time instead of executing back-to-back;
//! * each operation's **frontier** (tracked in [`OpStats`]) is the arrival
//!   time of the latest hop in its request chain — the next hop departs from
//!   there, so an operation's latency is the sum of its own hop chain while
//!   independent operations overlap freely.
//!
//! [`SimNetwork::now`] reports the high-water mark over both, i.e. the
//! virtual instant the simulation has reached.  With the default
//! constant-zero latency model no virtual time passes and message counts
//! are bit-identical to the old count-only substrate.
//!
//! [`OpStats`]: crate::stats::OpStats

use crate::message::NetMessage;
use crate::peer::{PeerId, PeerRegistry};
use crate::stats::{MessageStats, OpScope};
use crate::time::{LatencyModel, SimTime};
use crate::trace::{HopRecord, LinkKind, TraceBuffer, TraceConfig};

/// Error returned by [`SimNetwork::hop`] when the *sender* is not a live
/// peer (sending from a dead peer indicates a protocol bug, not a simulated
/// fault, so it is an error rather than a counted failure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// The sending peer is unknown to the registry.
    UnknownSender(PeerId),
    /// The sending peer exists but is not alive.
    DeadSender(PeerId),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::UnknownSender(p) => write!(f, "unknown sender {p}"),
            SendError::DeadSender(p) => write!(f, "sender {p} is not alive"),
        }
    }
}

impl std::error::Error for SendError {}

/// A deterministic message-passing network simulator with virtual time.
///
/// Every hop is counted in [`MessageStats`] and lands at
/// `frontier(op) + latency(src, dst)`; failed deliveries (dead destination)
/// are counted separately and reported to the caller.
#[derive(Clone, Debug, Default)]
pub struct SimNetwork {
    peers: PeerRegistry,
    /// Where newly issued operations begin (moved by `advance_to`).
    arrival_clock: SimTime,
    /// High-water mark of every hop and notification arrival.
    horizon: SimTime,
    latency: LatencyModel,
    stats: MessageStats,
    /// Opt-in route recorder; `None` (the default) is a pure `is_some`
    /// check on every hot path, so disabled tracing costs nothing.
    trace: Option<Box<TraceBuffer>>,
}

impl SimNetwork {
    /// Creates an empty network with no peers and the count-only
    /// (zero-latency) model.
    pub fn new() -> Self {
        Self::with_latency(LatencyModel::zero())
    }

    /// Creates an empty network with an explicit latency model.
    pub fn with_latency(latency: LatencyModel) -> Self {
        Self {
            latency,
            ..Self::default()
        }
    }

    /// Replaces the latency model.  Typically called right after
    /// construction; later hops draw from the new model.
    pub fn set_latency_model(&mut self, latency: LatencyModel) {
        self.latency = latency;
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Draws one link-latency sample for the `from → to` link at the current
    /// virtual instant, advancing the model's latency stream.
    ///
    /// Protocols use this for delays that ride on the topology but are not
    /// messages — e.g. the failure-detection round-trip that offsets a
    /// deferred repair.  The draw comes from the same seeded streams as
    /// message hops, so runs stay deterministic.
    pub fn sample_latency(&mut self, from: PeerId, to: PeerId) -> SimTime {
        let at = self.now();
        self.latency.sample(from, to, at)
    }

    /// The virtual instant the simulation has reached: the latest of the
    /// arrival clock and every hop or notification arrival.
    pub fn now(&self) -> SimTime {
        self.horizon.max(self.arrival_clock)
    }

    /// Advances the arrival clock to `at` (no-op if it is already past it).
    ///
    /// Operations begun after this call are stamped as issued at `at`; the
    /// open-loop workload runner calls this with each operation's scheduled
    /// arrival time so that independent operations overlap in virtual time.
    pub fn advance_to(&mut self, at: SimTime) {
        self.arrival_clock = self.arrival_clock.max(at);
    }

    /// Registers a new live peer.
    pub fn add_peer(&mut self) -> PeerId {
        self.peers.register()
    }

    /// Read-only access to the peer registry.
    pub fn peers(&self) -> &PeerRegistry {
        &self.peers
    }

    /// Marks a peer as failed (abrupt departure).
    pub fn fail_peer(&mut self, peer: PeerId) -> bool {
        self.peers.mark_failed(peer)
    }

    /// Marks a peer as gracefully departed.
    pub fn depart_peer(&mut self, peer: PeerId) -> bool {
        self.peers.mark_departed(peer)
    }

    /// Brings a departed/failed peer back (e.g. a leaf re-joining during
    /// load balancing).
    pub fn revive_peer(&mut self, peer: PeerId) -> bool {
        self.peers.mark_alive(peer)
    }

    /// `true` if the peer is currently alive.
    pub fn is_alive(&self, peer: PeerId) -> bool {
        self.peers.is_alive(peer)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MessageStats {
        &self.stats
    }

    /// Mutable access to statistics (used by harnesses to reset per-peer
    /// counters between experiment phases).
    pub fn stats_mut(&mut self) -> &mut MessageStats {
        &mut self.stats
    }

    /// Opens a new operation accounting scope with the given label, issued
    /// at the current arrival clock.
    pub fn begin_op(&mut self, label: &str) -> OpScope {
        let scope = self.stats.begin_op_at(label, self.arrival_clock);
        if let Some(trace) = &mut self.trace {
            trace.begin(scope.id, label, self.arrival_clock);
        }
        scope
    }

    /// Closes an operation scope, stamping the operation's completion time
    /// (the latest of its request-chain frontier and every notification it
    /// broadcast).  The operation's virtual latency becomes readable through
    /// [`OpStats::latency`](crate::stats::OpStats::latency).
    pub fn finish_op(&mut self, scope: OpScope) {
        self.stats.finish_op(scope.id);
        if let Some(trace) = &mut self.trace {
            let at = self
                .stats
                .op(scope.id)
                .and_then(|s| s.finished_at)
                .unwrap_or(self.arrival_clock);
            trace.finish(scope.id, at);
        }
    }

    /// Installs a route recorder: every sampled operation begun from now on
    /// records a [`Span`](crate::trace::Span) of its hops, bounded by the
    /// config's ring-buffer capacity.  Tracing is pure observation — it
    /// never perturbs statistics or latency draws.
    pub fn set_trace(&mut self, config: TraceConfig) {
        self.trace = Some(Box::new(TraceBuffer::new(config)));
    }

    /// Removes and returns the route recorder, disabling tracing.
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take().map(|boxed| *boxed)
    }

    /// `true` while a route recorder is installed.  Overlays check this
    /// before doing any per-hop link classification work, keeping the
    /// disabled path zero-cost.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Read-only access to the installed route recorder, if any.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_deref()
    }

    /// Sends `message` from `from` to `to` as hop number `hop` of operation
    /// `op`, and delivers it.  Returns `Ok(true)` if the destination was
    /// alive and `Ok(false)` if the message bounced off a dead peer.
    ///
    /// The message is counted whatever its fate (the paper counts *passing
    /// messages*, i.e. transmissions).  It departs the operation's frontier
    /// and arrives one link-latency draw later; that arrival becomes the new
    /// frontier, bounce or not, because a bounce takes wire time too.
    ///
    /// `kind` is the class of the link the hop travels (BATON
    /// parent/child/adjacent/routing-table, Chord successor/finger, …); it
    /// is only read by the route recorder and never affects accounting.
    pub fn hop(
        &mut self,
        op: OpScope,
        from: PeerId,
        to: PeerId,
        hop: u32,
        kind: LinkKind,
        message: &impl NetMessage,
    ) -> Result<bool, SendError> {
        match self.peers.status(from) {
            None => return Err(SendError::UnknownSender(from)),
            Some(status) if !status.is_alive() => return Err(SendError::DeadSender(from)),
            Some(_) => {}
        }
        let label = message.kind();
        self.stats
            .record_send(op.id, label, message.approximate_size(), hop);
        let sent_at = self.stats.op_frontier(op.id).unwrap_or(self.arrival_clock);
        let arrive_at = sent_at + self.latency.sample(from, to, sent_at);
        self.horizon = self.horizon.max(arrive_at);
        self.stats.advance_op_frontier(op.id, arrive_at);
        let delivered = self.peers.is_alive(to);
        // `detour` is read before a bounce here opens the operation's
        // detour: it says whether the op was already detouring when this
        // hop left.
        let detour = self.trace.is_some() && self.stats.op(op.id).is_some_and(|s| s.in_detour());
        if delivered {
            self.stats.record_delivery(to);
        } else {
            self.stats.record_failure(op.id);
        }
        if let Some(trace) = &mut self.trace {
            trace.record_hop(
                op.id,
                HopRecord {
                    from,
                    to,
                    hop,
                    kind,
                    message: label,
                    sent_at,
                    arrive_at,
                    delivered,
                    detour,
                },
            );
        }
        Ok(delivered)
    }

    /// Counts a fire-and-forget notification.
    ///
    /// Several BATON maintenance steps are pure notifications whose replies
    /// carry no protocol state the simulation needs to model (e.g. "inform
    /// your children about the new node", paper §III-A). `count_message`
    /// charges such traffic to the operation without a payload.
    ///
    /// Notifications still take time on the wire: each draws a latency and
    /// lands at `frontier(op) + latency`, extending the operation's
    /// *completion* time — but, running in parallel with the request chain,
    /// they never push its frontier.
    pub fn count_message(&mut self, op: OpScope, kind: &'static str, from: PeerId, to: PeerId) {
        self.stats.record_send(op.id, kind, 64, 1);
        let sent_at = self.stats.op_frontier(op.id).unwrap_or(self.arrival_clock);
        let lands_at = sent_at + self.latency.sample(from, to, sent_at);
        self.horizon = self.horizon.max(lands_at);
        self.stats.extend_op_completion(op.id, lands_at);
        let delivered = self.peers.is_alive(to);
        if delivered {
            self.stats.record_delivery(to);
        } else {
            self.stats.record_failure(op.id);
        }
        if let Some(trace) = &mut self.trace {
            let detour = self.stats.op(op.id).is_some_and(|s| s.in_detour());
            trace.record_hop(
                op.id,
                HopRecord {
                    from,
                    to,
                    hop: 1,
                    kind: LinkKind::Notify,
                    message: kind,
                    sent_at,
                    arrive_at: lands_at,
                    delivered,
                    detour,
                },
            );
        }
    }

    /// Messages attributed to operation `op` so far.
    pub fn op_messages(&self, op: OpScope) -> u64 {
        self.stats.op(op.id).map(|s| s.messages).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Hello,
        World,
    }

    impl NetMessage for Msg {
        fn kind(&self) -> &'static str {
            match self {
                Msg::Hello => "hello",
                Msg::World => "world",
            }
        }
    }

    fn two_peer_net() -> (SimNetwork, PeerId, PeerId) {
        let mut net = SimNetwork::new();
        let a = net.add_peer();
        let b = net.add_peer();
        (net, a, b)
    }

    fn ten_ms_net(peers: usize) -> (SimNetwork, Vec<PeerId>) {
        let mut net = SimNetwork::with_latency(LatencyModel::constant(SimTime::from_millis(10)));
        let ids = (0..peers).map(|_| net.add_peer()).collect();
        (net, ids)
    }

    /// One hop of `op` along an untyped link.
    fn send(net: &mut SimNetwork, op: OpScope, from: PeerId, to: PeerId, hop: u32, msg: Msg) {
        net.hop(op, from, to, hop, LinkKind::Other, &msg).unwrap();
    }

    #[test]
    fn sending_from_dead_peer_is_an_error() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("test");
        net.fail_peer(a);
        let err = net
            .hop(op, a, b, 1, LinkKind::Other, &Msg::Hello)
            .unwrap_err();
        assert_eq!(err, SendError::DeadSender(a));
        assert_eq!(net.stats().total_sent(), 0);
    }

    #[test]
    fn sending_from_unknown_peer_is_an_error() {
        let (mut net, _a, b) = two_peer_net();
        let op = net.begin_op("test");
        let ghost = PeerId(999);
        let err = net
            .hop(op, ghost, b, 1, LinkKind::Other, &Msg::Hello)
            .unwrap_err();
        assert_eq!(err, SendError::UnknownSender(ghost));
    }

    #[test]
    fn delivery_to_dead_peer_is_counted_and_surfaced() {
        let (mut net, peers) = ten_ms_net(2);
        let (a, b) = (peers[0], peers[1]);
        let op = net.begin_op("test");
        net.fail_peer(b);
        assert_eq!(
            net.hop(op, a, b, 1, LinkKind::Other, &Msg::Hello),
            Ok(false)
        );
        assert_eq!(net.stats().total_failed(), 1);
        assert_eq!(net.stats().total_delivered(), 0);
        // The send itself is still counted: the paper counts transmissions.
        assert_eq!(net.stats().total_sent(), 1);
        assert_eq!(net.op_messages(op), 1);
        let stats = net.stats().op(op.id).unwrap();
        assert_eq!(stats.failed_deliveries, 1);
        // A bounce takes wire time: the frontier still advances.
        assert_eq!(stats.frontier, SimTime::from_millis(10));
    }

    #[test]
    fn count_message_charges_op_without_queueing() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("notify");
        net.count_message(op, "notify.children", a, b);
        assert_eq!(net.op_messages(op), 1);
        assert_eq!(net.stats().total_delivered(), 1);
        net.fail_peer(b);
        net.count_message(op, "notify.children", a, b);
        assert_eq!(net.stats().total_failed(), 1);
    }

    #[test]
    fn revive_peer_restores_delivery() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("test");
        net.depart_peer(b);
        assert_eq!(
            net.hop(op, a, b, 1, LinkKind::Other, &Msg::Hello),
            Ok(false)
        );
        net.revive_peer(b);
        assert_eq!(net.hop(op, a, b, 2, LinkKind::Other, &Msg::Hello), Ok(true));
    }

    #[test]
    fn hop_counts_are_preserved_and_tracked() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("walk");
        send(&mut net, op, a, b, 7, Msg::Hello);
        assert_eq!(net.stats().op(op.id).unwrap().max_hops, 7);
    }

    #[test]
    fn per_kind_counters() {
        let (mut net, a, b) = two_peer_net();
        let op = net.begin_op("test");
        send(&mut net, op, a, b, 1, Msg::Hello);
        send(&mut net, op, a, b, 1, Msg::Hello);
        send(&mut net, op, a, b, 1, Msg::World);
        assert_eq!(net.stats().kind_count("hello"), 2);
        assert_eq!(net.stats().kind_count("world"), 1);
    }

    #[test]
    fn constant_latency_accumulates_along_a_hop_chain() {
        let (mut net, peers) = ten_ms_net(3);
        let op = net.begin_op("chain");
        send(&mut net, op, peers[0], peers[1], 1, Msg::Hello);
        assert_eq!(
            net.stats().op_frontier(op.id),
            Some(SimTime::from_millis(10))
        );
        send(&mut net, op, peers[1], peers[2], 2, Msg::Hello);
        assert_eq!(
            net.stats().op_frontier(op.id),
            Some(SimTime::from_millis(20))
        );
        net.finish_op(op);
        assert_eq!(
            net.stats().op(op.id).unwrap().latency(),
            Some(SimTime::from_millis(20))
        );
        assert_eq!(net.now(), SimTime::from_millis(20));
    }

    #[test]
    fn operations_started_at_different_arrivals_overlap() {
        let (mut net, peers) = ten_ms_net(2);
        let (a, b) = (peers[0], peers[1]);
        // Op 1 arrives at t=0 and takes two 10ms hops -> finishes at 20ms.
        let op1 = net.begin_op("op1");
        // Op 2 arrives at t=5ms and takes one hop -> finishes at 15ms,
        // *before* op 1, even though it is processed afterwards.
        net.advance_to(SimTime::from_millis(5));
        let op2 = net.begin_op("op2");

        send(&mut net, op1, a, b, 1, Msg::Hello);
        send(&mut net, op1, b, a, 2, Msg::Hello);
        net.finish_op(op1);

        send(&mut net, op2, a, b, 1, Msg::World);
        net.finish_op(op2);

        let s1 = net.stats().op(op1.id).unwrap();
        let s2 = net.stats().op(op2.id).unwrap();
        assert_eq!(s1.latency(), Some(SimTime::from_millis(20)));
        assert_eq!(s2.latency(), Some(SimTime::from_millis(10)));
        assert_eq!(s2.started_at, SimTime::from_millis(5));
        assert_eq!(s2.finished_at, Some(SimTime::from_millis(15)));
        assert_eq!(net.now(), SimTime::from_millis(20));
    }

    #[test]
    fn notifications_extend_completion_but_not_the_frontier() {
        let (mut net, peers) = ten_ms_net(3);
        let op = net.begin_op("broadcast");
        send(&mut net, op, peers[0], peers[1], 1, Msg::Hello);
        // Three parallel notifications from the frontier (10ms): each lands
        // at 20ms without pushing the frontier.
        for &target in &peers {
            net.count_message(op, "notify", peers[1], target);
        }
        assert_eq!(
            net.stats().op_frontier(op.id),
            Some(SimTime::from_millis(10))
        );
        net.finish_op(op);
        assert_eq!(
            net.stats().op(op.id).unwrap().latency(),
            Some(SimTime::from_millis(20))
        );
    }

    #[test]
    fn bounced_hop_is_traced_undelivered_and_opens_the_detour() {
        let (mut net, peers) = ten_ms_net(3);
        net.set_trace(TraceConfig::new(4));
        let op = net.begin_op("detour");
        net.fail_peer(peers[1]);
        assert_eq!(
            net.hop(op, peers[0], peers[1], 1, LinkKind::Child, &Msg::Hello),
            Ok(false)
        );
        assert_eq!(
            net.hop(op, peers[0], peers[2], 2, LinkKind::Adjacent, &Msg::Hello),
            Ok(true)
        );
        net.finish_op(op);
        let span = net.trace().unwrap().spans().next().unwrap().clone();
        let (bounce, retry) = (&span.hops[0], &span.hops[1]);
        assert!(!bounce.delivered && !bounce.detour);
        assert_eq!(bounce.arrive_at, SimTime::from_millis(10));
        assert!(retry.delivered && retry.detour);
        assert_eq!(retry.sent_at, SimTime::from_millis(10));
        assert_eq!(
            span.detour_count(),
            net.stats().op(op.id).unwrap().detour_messages
        );
        assert_eq!(span.detour_count(), 2);
    }
}
