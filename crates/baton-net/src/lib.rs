//! # baton-net — deterministic message-passing P2P simulator
//!
//! This crate is the network substrate on top of which the BATON overlay
//! ([`baton-core`]), the Chord baseline ([`baton-chord`]) and the multiway
//! tree baseline ([`baton-mtree`]) are built.
//!
//! The BATON paper (Jagadish, Ooi, Rinard, Vu — VLDB 2005) evaluates every
//! mechanism by the **number of messages** exchanged between peers, not by
//! wall-clock latency on a particular testbed.  The substrate is therefore a
//! *deterministic* simulator: peers are logical entities identified by a
//! [`PeerId`], every hop of a protocol is one [`SimNetwork::hop`] call
//! carrying a [`NetMessage`] payload, and the network records per-kind,
//! per-peer and per-operation counters in [`MessageStats`].
//!
//! Beyond the paper's count-only evaluation, the network keeps **virtual
//! time** ([`time`]): each hop draws one link latency from a pluggable
//! [`LatencyModel`] and lands that long after the operation's frontier (the
//! arrival of its previous hop), operations carry start/finish timestamps,
//! and an open-loop workload can interleave operations by advancing the
//! arrival clock ([`SimNetwork::advance_to`]).  The overlays route
//! synchronously, so there is no event queue.  The default model is
//! constant-zero latency, under which message counts are bit-identical to
//! the original count-only substrate.
//!
//! ## Design
//!
//! * **Determinism.**  There is no background thread, no timer and no async
//!   runtime.  Virtual time is derived purely from seeded latency models,
//!   never from the wall clock, and latency streams are separate from
//!   protocol RNGs.  Every experiment that uses the same seed produces
//!   identical message counts and latencies, which makes the reproduction of
//!   the paper's figures repeatable and the tests meaningful.
//! * **Failure injection.**  Peers can be marked dead; sending to a dead peer
//!   is counted as a failed delivery and surfaced to the caller so protocols
//!   can exercise their fault-tolerance paths (paper §III-C/D).
//! * **Accounting scopes.**  Higher layers wrap each logical operation
//!   (join, leave, search, …) in an [`OpScope`] so the harness can report the
//!   *average messages per operation* series that every sub-figure of
//!   Figure 8 plots.
//! * **Byte accounting.**  Each hop is also charged its payload's
//!   [`NetMessage::approximate_size`] bytes, even though the paper itself
//!   only counts messages.
//!
//! ## Quick example
//!
//! ```
//! use baton_net::{LinkKind, NetMessage, SimNetwork};
//!
//! #[derive(Clone, Debug)]
//! enum Ping { Ping, Pong }
//! impl NetMessage for Ping {
//!     fn kind(&self) -> &'static str {
//!         match self { Ping::Ping => "ping", Ping::Pong => "pong" }
//!     }
//! }
//!
//! let mut net = SimNetwork::new();
//! let a = net.add_peer();
//! let b = net.add_peer();
//! let op = net.begin_op("rpc");
//! // `Ok(true)`: the message reached a live peer.
//! assert_eq!(net.hop(op, a, b, 1, LinkKind::Other, &Ping::Ping), Ok(true));
//! net.fail_peer(a);
//! // `Ok(false)`: the reply bounced off a dead peer; it is still counted.
//! assert_eq!(net.hop(op, b, a, 2, LinkKind::Other, &Ping::Pong), Ok(false));
//! net.finish_op(op);
//! assert_eq!(net.stats().total_sent(), 2);
//! assert_eq!(net.stats().total_failed(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod message;
pub mod network;
pub mod overlay;
pub mod parallel;
pub mod peer;
pub mod profiler;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod time;
pub mod trace;

pub use message::NetMessage;
pub use network::{SendError, SimNetwork};
pub use overlay::{
    ChurnCost, OpCost, Overlay, OverlayCapabilities, OverlayError, OverlayResult, RepairPolicy,
};
pub use parallel::{
    default_threads, run_indexed, run_indexed_with, set_threads, threads, with_threads,
};
pub use peer::{PeerId, PeerRegistry, PeerStatus};
pub use rng::SimRng;
pub use serve::{
    ExactPlacement, RoutingSnapshot, ServeAnswer, ServeCounters, ServeStatus, SnapshotBuilder,
    SnapshotCell, SnapshotReader,
};
pub use stats::{ClassStats, Histogram, MessageStats, OpId, OpScope, OpStats};
pub use time::{
    LatencyModel, LatencyPlan, LinkDegradation, LinkScope, RegionMap, RegionalLatency, SimTime,
};
pub use trace::{HopRecord, LinkKind, Span, TraceBuffer, TraceConfig};
