//! # simnet — simulation substrate for the CMH reproduction
//!
//! A deterministic discrete-event message-passing simulator. By default
//! it provides exactly the environment assumed by Chandy & Misra's PODC
//! 1982 deadlock-detection paper:
//!
//! * messages are received **correctly** (no loss, no corruption),
//! * messages are received **in the order sent** on each channel, and
//! * every message is received within **finite** (but arbitrary) time
//!   (process axiom P4).
//!
//! The simulator adds what a real network cannot offer: determinism (same
//! seed ⇒ same run), virtual time for latency measurements, per-kind
//! message metrics, and full event traces for the correctness checkers.
//!
//! Those assumptions can also be deliberately *broken*: a seeded
//! [`faults::FaultPlan`] injects message loss, duplication, reordering,
//! node crash/restart and network partitions, and the [`reliable`] layer
//! (sequence numbers, cumulative acks, retransmission with exponential
//! backoff) restores exactly-once ordered delivery on top of the faulty
//! wire. Experiment E12 measures both halves.
//!
//! ## Quick start
//!
//! ```
//! use simnet::prelude::*;
//!
//! #[derive(Debug, Clone)]
//! struct Hello;
//!
//! struct Node { greeted: bool }
//!
//! impl Process<Hello> for Node {
//!     fn on_start(&mut self, ctx: &mut Context<'_, Hello>) {
//!         if ctx.id() == NodeId(0) {
//!             ctx.send(NodeId(1), Hello);
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Hello>, _from: NodeId, _msg: Hello) {
//!         self.greeted = true;
//!     }
//! }
//!
//! let mut sim = SimBuilder::new().seed(7).build::<Hello, Node>();
//! sim.add_node(Node { greeted: false });
//! sim.add_node(Node { greeted: false });
//! sim.run_to_quiescence(100);
//! assert!(sim.node(NodeId(1)).greeted);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod equeue;
pub mod explore;
pub mod faults;
pub mod latency;
pub mod metrics;
pub mod reliable;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod solo;
pub mod time;
pub mod trace;
pub mod transport;

/// The commonly used names, for glob import.
pub mod prelude {
    pub use crate::faults::{DropReason, FaultPlan};
    pub use crate::latency::LatencyModel;
    pub use crate::metrics::Metrics;
    pub use crate::reliable::ReliableConfig;
    pub use crate::rng::DetRng;
    pub use crate::sim::{Context, NodeId, Process, RunOutcome, SimBuilder, Simulation, TimerId};
    pub use crate::time::SimTime;
    pub use crate::trace::{Trace, TraceEvent};
}
