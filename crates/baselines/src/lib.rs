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
//! harness drives requests and the simulation, and `Net::classify` splits
//! every claim into genuine and phantom by the test `Net::verify_soundness`
//! applies — for these detectors, was the subject on a dark cycle when
//! declared?

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod central;
pub mod pathpush;
pub mod timeout;

pub use central::{CentralNet, SnapshotMode};
pub use pathpush::PathPushNet;
pub use timeout::TimeoutNet;

use std::fmt;
use std::sync::{Arc, Mutex};

use cmh_core::process::{Underlying, SERVE_TIMER};
use cmh_core::{DeadlockReport, ReplyPolicy};
use simnet::sim::{Context, NodeId};
use simnet::time::SimTime;
use wfg::journal::Journal;
use wfg::oracle::Oracle;
use wfg::WaitForGraph;

/// The ground truth every baseline's claim asserts, read by each one's
/// `Vertex::deadlocked`: the subject `v` is on a dark cycle.
fn on_dark_cycle(g: &WaitForGraph, o: &mut Oracle, v: NodeId) -> bool {
    o.is_on_dark_cycle(g, v)
}

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
    fn claims(&self, me: NodeId, out: &mut Vec<DeadlockReport>) {
        let claim = |&at| DeadlockReport {
            detector: me,
            subject: me,
            tag: None,
            at,
        };
        out.extend(self.declarations.iter().map(claim));
    }
}

#[cfg(test)]
mod tests {
    use cmh_core::process::counters::{REPLY_SENT, REPLY_STALE};
    use cmh_core::{BasicConfig, BasicNet, Classified, Net, ValidationError, Vertex};
    use simnet::faults::FaultPlan;
    use simnet::latency::LatencyModel;
    use simnet::metrics::Metrics;
    use simnet::rng::DetRng;
    use simnet::sim::SimBuilder;
    use simnet::time::SimTime;
    use wfg::generators;

    use super::*;

    /// A 2-cycle (0, 1) and a slow wait 2 → 3: all three time out, but
    /// only the cycle's members are deadlocked.
    #[test]
    fn classify_distinguishes_genuine_from_phantom() {
        let mut net = timeout::net(4, 30, 200, SimBuilder::new().seed(1));
        net.request_edges(&[(0, 1), (1, 0), (2, 3)]).unwrap();
        net.run_until(SimTime::from_ticks(100));
        let claims = net.declarations();
        let subjects: Vec<NodeId> = claims.iter().map(|r| r.subject).collect();
        assert_eq!(subjects, [NodeId(0), NodeId(1), NodeId(2)]);
        let c = net.classify();
        assert_eq!(
            c,
            Classified {
                genuine: 2,
                phantom: 1
            }
        );
        assert!((c.phantom_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(Classified::default().phantom_rate(), 0.0);
        let phantom = claims[2];
        assert_eq!((phantom.subject, phantom.tag), (NodeId(2), None));
        assert_eq!(
            net.verify_soundness(),
            Err(ValidationError::FalseDeadlock { report: phantom })
        );
    }

    /// The same small churn through the probe computation and three
    /// baselines: every claim is judged once, and a detector passes the
    /// soundness check exactly when it made no phantom claim.
    #[test]
    fn soundness_and_classification_read_one_test() {
        fn judged<P: Vertex>(mut net: Net<P>) -> Classified {
            let mut rng = DetRng::seed_from_u64(5);
            for t in (0..1_500).step_by(9) {
                net.run_until(SimTime::from_ticks(t));
                let from = rng.next_below(6) as usize;
                let to = (from + 1 + rng.next_below(5) as usize) % 6;
                let _ = net.request(NodeId(from), NodeId(to));
            }
            net.run_until(SimTime::from_ticks(3_000));
            let c = net.classify();
            assert_eq!(c.genuine + c.phantom, net.declarations().len());
            assert_eq!(net.verify_soundness().is_ok(), c.phantom == 0);
            c
        }
        let builder = || {
            SimBuilder::new().seed(10).latency(LatencyModel::Bimodal {
                fast_lo: 1,
                fast_hi: 6,
                slow_lo: 60,
                slow_hi: 160,
                slow_prob: 0.2,
            })
        };
        let cmh = judged(BasicNet::with_builder(
            6,
            BasicConfig::on_block(30),
            builder(),
        ));
        let timeout = judged(timeout::net(6, 40, 30, builder()));
        let central = judged(central::net(6, SnapshotMode::OnePhase, 25, 30, builder()));
        let pathpush = judged(pathpush::net(6, 20, 30, true, builder()));
        // Both sides of the equivalence are exercised.
        assert!(cmh.genuine > 0 && cmh.phantom == 0 && pathpush.genuine > 0);
        assert!(timeout.phantom > 0 && central.phantom > 0);
    }

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
