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
//! runs (`cmh_core::process::Underlying`) and run in the same journalled
//! harness, `cmh_core::Net`: each module's `net(..)` builds one, the
//! harness drives requests and the simulation, and [`classify`] splits
//! every report into genuine and phantom against the harness's one
//! as-of-time ground truth — the one the probe computation's QRP2 check
//! reads.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod central;
pub mod pathpush;
pub mod report;
pub mod timeout;

pub use central::{CentralNet, SnapshotMode};
pub use pathpush::PathPushNet;
pub use report::{classify, reports, BaselineReport, Claims, Classified};
pub use timeout::TimeoutNet;

use std::fmt;
use std::sync::{Arc, Mutex};

use cmh_core::process::{Underlying, SERVE_TIMER};
use cmh_core::ReplyPolicy;
use simnet::sim::{Context, NodeId};
use simnet::time::SimTime;
use wfg::journal::Journal;

/// What a node that declares itself deadlocked (timeout, path pushing)
/// runs: the underlying computation, a wait-state epoch bumped whenever
/// the wait set changes (a timer armed under an older epoch is stale),
/// and the times it declared.
struct Waiter<M> {
    core: Underlying<M>,
    epoch: u64,
    declarations: Vec<SimTime>,
}

impl<M: fmt::Debug + Clone> fmt::Debug for Waiter<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Waiter")
            .field("blocked", &self.core.is_blocked())
            .field("declared", &self.declarations.len())
            .finish_non_exhaustive()
    }
}

impl<M: fmt::Debug + Clone> Waiter<M> {
    /// A node that serves a request `service_delay` after it arrives.
    fn new(service_delay: u64, journal: &Arc<Mutex<Journal>>) -> Self {
        let journal = Some(Arc::clone(journal));
        Waiter {
            core: Underlying::new(ReplyPolicy::AfterDelay { service_delay }, journal),
            epoch: 0,
            declarations: Vec::new(),
        }
    }

    /// A request went out: a new wait state, with a timer `delay` ahead.
    fn requested(&mut self, ctx: &mut Context<'_, M>, delay: u64) {
        self.epoch += 1;
        self.arm(ctx, delay);
    }

    /// Arms a timer `delay` ahead, tagged with the current wait state (bit
    /// 32 set, so never the serve timer's tag).
    fn arm(&self, ctx: &mut Context<'_, M>, delay: u64) {
        ctx.set_timer(delay, (1 << 32) | (self.epoch & 0xFFFF_FFFF));
    }

    fn on_reply(&mut self, ctx: &mut Context<'_, M>, from: NodeId) {
        if self.core.on_reply(ctx, from) {
            self.epoch += 1;
        }
    }

    /// Handles a fired timer: the serve timer sends `reply`; any other is
    /// `true` iff it was armed in the current wait, which still blocks.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, tag: u64, reply: M) -> bool {
        if tag == SERVE_TIMER {
            self.core.on_serve_timer(ctx, reply);
            return false;
        }
        self.core.is_blocked() && (self.epoch & 0xFFFF_FFFF) == tag & 0xFFFF_FFFF
    }

    /// The claims of this node, `me`: itself, at each declaration.
    fn claims(&self, me: NodeId, out: &mut Vec<BaselineReport>) {
        let claim = |&at| BaselineReport {
            detector: me,
            subject: me,
            at,
        };
        out.extend(self.declarations.iter().map(claim));
    }
}

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
        let mut timeout = timeout::net(4, 500, 2, dup());
        timeout.request_edges(&generators::chain(4)).unwrap();
        assert!(timeout.run_to_quiescence(100_000).quiescent);
        check(timeout.metrics());
        let mut pathpush = pathpush::net(4, 20, 2, false, dup());
        pathpush.request_edges(&generators::chain(4)).unwrap();
        assert!(pathpush.run_until(SimTime::from_ticks(100_000)).quiescent);
        check(pathpush.metrics());
    }
}
