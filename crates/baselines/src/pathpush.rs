//! Path-pushing deadlock detection, after Obermarck's global detection
//! algorithm (reference \[7\] of the paper).
//!
//! Blocked nodes periodically push **paths** (sequences of vertex ids) to
//! the nodes they wait for; a receiver that finds itself in an arriving
//! path has evidence of a cycle and declares. Compared with the probe
//! computation:
//!
//! * messages carry whole paths, so the bill grows with cycle length
//!   *squared* in the unoptimised variant (`k` nodes each push a path that
//!   traverses up to `k` hops);
//! * the classic optimisation — forward a path only while its *origin* has
//!   the highest id seen, so each cycle is detected exactly once, by its
//!   maximum member — cuts traffic by roughly the cycle length;
//! * paths assembled from edges observed at different times can close a
//!   cycle that never existed at any instant (phantoms), which experiment
//!   E4 measures.

use std::collections::BTreeSet;
use std::fmt;

use cmh_core::process::RequestError;
use cmh_core::{DeadlockReport, Net, Vertex};
use simnet::sim::{Context, NodeId, Process, SimBuilder, TimerId};
use wfg::oracle::Oracle;
use wfg::WaitForGraph;

use crate::Waiter;

/// Metric-counter names for the path-pushing detector.
pub mod counters {
    /// Path messages sent.
    pub const PATH_SENT: &str = "pathpush.path.sent";
    /// Total path length units sent (bytes-on-the-wire proxy).
    pub const PATH_LEN: &str = "pathpush.path.len";
    /// Deadlock declarations.
    pub const DECLARED: &str = "pathpush.declared";
    /// Path transmissions suppressed by the per-node budget.
    pub const CAPPED: &str = "pathpush.capped";
}

/// Per-node budget of distinct `(path, successor)` transmissions.
///
/// Path-pushing enumerates simple paths, which is exponential in dense
/// blocked subgraphs; every practical implementation bounds it. Hitting
/// the budget is itself a data point (counted under
/// [`counters::CAPPED`]) — the probe computation needs no such cap.
pub const PATH_BUDGET: usize = 10_000;

/// Messages: the underlying computation plus path payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathMsg {
    /// The underlying computation's request.
    Request,
    /// The underlying computation's reply.
    Reply,
    /// A wait-for path `p[0] → p[1] → … → sender → receiver`.
    Path(Vec<NodeId>),
}

/// A node running the underlying computation plus path pushing.
pub struct PathProcess {
    wait: Waiter<PathMsg>,
    /// Delay from blocking to the first push (and the re-push period while
    /// still blocked).
    push_delay: u64,
    /// Obermarck's optimisation: forward a path only to successors with a
    /// smaller id than the path's origin.
    optimized: bool,
    /// `(path, successor)` pairs already transmitted, to avoid repeats.
    sent: BTreeSet<(Vec<NodeId>, NodeId)>,
    /// Wait-state epoch of the last declaration: one report per blocking
    /// episode (re-pushed paths would otherwise re-report every period).
    last_declared_epoch: Option<u64>,
}

impl fmt::Debug for PathProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathProcess")
            .field("wait", &self.wait)
            .finish_non_exhaustive()
    }
}

impl PathProcess {
    fn push_path(&mut self, ctx: &mut Context<'_, PathMsg>, path: Vec<NodeId>) {
        if self.sent.len() >= PATH_BUDGET {
            ctx.count(counters::CAPPED);
            return;
        }
        let origin = path[0];
        for &target in self.wait.core.out_waits().iter() {
            // Optimised rule: a path survives only while its origin is the
            // largest id seen — but the hop that returns to the origin
            // itself must be allowed, or no cycle would ever close.
            if self.optimized && origin < target {
                continue;
            }
            if self.sent.insert((path.clone(), target)) {
                ctx.count(counters::PATH_SENT);
                ctx.count_n(counters::PATH_LEN, path.len() as u64);
                ctx.send(target, PathMsg::Path(path.clone()));
            }
        }
    }
}

impl Process<PathMsg> for PathProcess {
    fn on_message(&mut self, ctx: &mut Context<'_, PathMsg>, from: NodeId, msg: PathMsg) {
        match msg {
            PathMsg::Request => self.wait.core.on_request(ctx, from),
            PathMsg::Reply => self.wait.on_reply(ctx, from),
            PathMsg::Path(path) => {
                let me = ctx.id();
                if path.contains(&me) {
                    // The path closed a cycle through this node.
                    if self.last_declared_epoch != Some(self.wait.epoch) {
                        self.last_declared_epoch = Some(self.wait.epoch);
                        ctx.count(counters::DECLARED);
                        if ctx.tracing() {
                            ctx.note(format!("pathpush: {me} declares deadlock via {path:?}"));
                        }
                        self.wait.declarations.push(ctx.now());
                    }
                } else if self.wait.core.is_blocked() {
                    let mut extended = path;
                    extended.push(me);
                    self.push_path(ctx, extended);
                }
                // An active receiver drops the path: its waits are gone.
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PathMsg>, _timer: TimerId, tag: u64) {
        // A push counts only if the wait it was armed in persists.
        if self.wait.on_timer(ctx, tag, PathMsg::Reply) {
            self.push_path(ctx, vec![ctx.id()]);
            // Stay armed while blocked: new successors may appear.
            self.wait.arm(ctx, self.push_delay);
        }
    }
}

impl Vertex for PathProcess {
    type Msg = PathMsg;
    type Error = RequestError;

    /// Requests `to` and arms the first push.
    fn request(&mut self, ctx: &mut Context<'_, PathMsg>, to: NodeId) -> Result<(), RequestError> {
        self.wait.core.request(ctx, to, PathMsg::Request)?;
        self.wait.requested(ctx, self.push_delay);
        Ok(())
    }

    fn claims(&self, me: NodeId, out: &mut Vec<DeadlockReport>) {
        self.wait.claims(me, out);
    }

    fn deadlocked(g: &WaitForGraph, o: &mut Oracle, v: NodeId) -> bool {
        crate::on_dark_cycle(g, o, v)
    }
}

/// The path-pushing detector in the journalled harness (see [`net`]).
/// Push timers re-arm while a node is blocked, so under a real deadlock
/// the queue never drains: run it with `run_until`.
pub type PathPushNet = Net<PathProcess>;

/// `n` nodes that push paths `push_delay` after blocking (and every
/// `push_delay` while still blocked) and serve a request `service_delay`
/// after it arrives; `optimized` enables the origin-is-maximum rule.
pub fn net(
    n: usize,
    push_delay: u64,
    service_delay: u64,
    optimized: bool,
    builder: SimBuilder,
) -> PathPushNet {
    Net::build(builder, n, |_, journal| PathProcess {
        wait: Waiter::new(service_delay, journal),
        push_delay,
        optimized,
        sent: BTreeSet::new(),
        last_declared_epoch: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimTime;
    use wfg::generators;

    fn seeded(n: usize, push: u64, service: u64, optimized: bool, seed: u64) -> PathPushNet {
        net(n, push, service, optimized, SimBuilder::new().seed(seed))
    }

    fn deadline(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn cycle_detected_in_both_variants() {
        for optimized in [false, true] {
            let mut net = seeded(5, 20, 5, optimized, 1);
            net.request_edges(&generators::cycle(5)).unwrap();
            net.run_until(deadline(5_000));
            assert!(!net.declarations().is_empty(), "optimized={optimized}");
            assert_eq!(net.classify().phantom, 0);
        }
    }

    #[test]
    fn optimized_detects_at_max_member_only() {
        let mut net = seeded(6, 20, 5, true, 2);
        net.request_edges(&generators::cycle(6)).unwrap();
        net.run_until(deadline(5_000));
        let subjects: BTreeSet<NodeId> = net.declarations().iter().map(|r| r.subject).collect();
        assert_eq!(subjects, [NodeId(5)].into_iter().collect());
    }

    #[test]
    fn optimized_sends_fewer_messages() {
        let run = |optimized| {
            let mut net = seeded(8, 20, 5, optimized, 3);
            net.request_edges(&generators::cycle(8)).unwrap();
            net.run_until(deadline(400));
            net.metrics().get(counters::PATH_SENT)
        };
        let naive = run(false);
        let opt = run(true);
        assert!(opt < naive, "optimised {opt} should be < naive {naive}");
        assert!(opt > 0);
    }

    #[test]
    fn chain_produces_no_declarations() {
        let mut net = seeded(5, 15, 50, false, 4);
        net.request_edges(&generators::chain(5)).unwrap();
        net.run_until(deadline(5_000));
        assert!(net.declarations().is_empty());
    }
}
