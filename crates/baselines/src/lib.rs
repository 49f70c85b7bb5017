//! # baselines — comparator deadlock detectors
//!
//! The paper's introduction cites a field of "at least ten protocols for
//! deadlock detection [of which] few are correct and fewer appear to be
//! practical". This crate implements the three classic families so the
//! evaluation can compare the probe computation against them on identical
//! workloads (same substrate, same seeds, same latency model):
//!
//! * [`central`] — a coordinator periodically collects every node's local
//!   wait-for edges and searches the union for cycles. One-phase collection
//!   suffers *phantom deadlocks* (edges from different instants close
//!   cycles that never existed); the two-phase variant intersects
//!   consecutive rounds.
//! * [`pathpush`] — Obermarck-style path pushing: blocked nodes push
//!   growing paths towards the nodes they wait for; finding yourself in an
//!   incoming path means a cycle. With the origin-is-maximum optimisation
//!   each cycle is detected exactly once.
//! * [`timeout`] — waits longer than `T` are presumed deadlocks: free of
//!   messages, full of false positives under contention.
//!
//! All three embed the underlying computation `cmh_core::BasicProcess`
//! runs (`cmh_core::process::Underlying`), journal the true wait-for graph
//! through it, and classify their reports against it ([`report::classify`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod central;
pub mod pathpush;
pub mod report;
pub mod timeout;

pub use central::{CentralNet, SnapshotMode};
pub use pathpush::PathPushNet;
pub use report::{classify, BaselineReport, Classified};
pub use timeout::TimeoutNet;

#[cfg(test)]
mod tests {
    use cmh_core::process::counters::{REPLY_SENT, REPLY_STALE};
    use simnet::faults::FaultPlan;
    use simnet::metrics::Metrics;
    use simnet::sim::SimBuilder;
    use simnet::time::SimTime;
    use wfg::generators;

    use super::*;

    /// Every message is delivered twice. The first copy of each reply to
    /// arrive deletes its edge of the chain; every other copy finds no edge
    /// and must be dropped and counted, never applied.
    #[test]
    fn duplicated_replies_are_dropped_and_counted_stale() {
        let dup = || {
            SimBuilder::new()
                .seed(3)
                .faults(FaultPlan::new().duplicate(1.0))
        };
        let check = |m: &Metrics| {
            assert!(m.get(REPLY_SENT) >= 3);
            assert_eq!(m.get(REPLY_STALE), 2 * m.get(REPLY_SENT) - 3);
        };
        let mut timeout = TimeoutNet::with_builder(4, 500, 2, dup());
        timeout.request_edges(&generators::chain(4)).unwrap();
        assert!(timeout.run_to_quiescence(100_000).quiescent);
        check(timeout.metrics());
        let mut pathpush = PathPushNet::with_builder(4, 20, 2, false, dup());
        pathpush.request_edges(&generators::chain(4)).unwrap();
        assert!(pathpush.run_until(SimTime::from_ticks(100_000)).quiescent);
        check(pathpush.metrics());
    }
}
