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
use std::sync::{Arc, Mutex};

use cmh_core::process::{RequestError, Underlying, SERVE_TIMER};
use cmh_core::ReplyPolicy;
use simnet::metrics::Metrics;
use simnet::sim::{Context, NodeId, Process, RunOutcome, SimBuilder, Simulation, TimerId};
use simnet::time::SimTime;
use wfg::journal::Journal;

use crate::report::{classify, BaselineReport, Classified};

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

const TAG_PUSH_BASE: u64 = 1 << 32;

/// A node running the underlying computation plus path pushing.
pub struct PathProcess {
    core: Underlying<PathMsg>,
    /// Bumped whenever the wait set changes; a push timer armed under an
    /// older epoch is stale.
    epoch: u64,
    /// Delay from blocking to the first push (and the re-push period while
    /// still blocked).
    push_delay: u64,
    /// Obermarck's optimisation: forward a path only to successors with a
    /// smaller id than the path's origin.
    optimized: bool,
    /// `(path, successor)` pairs already transmitted, to avoid repeats.
    sent: BTreeSet<(Vec<NodeId>, NodeId)>,
    declarations: Vec<SimTime>,
    /// Wait-state epoch of the last declaration: one report per blocking
    /// episode (re-pushed paths would otherwise re-report every period).
    last_declared_epoch: Option<u64>,
}

impl fmt::Debug for PathProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathProcess")
            .field("blocked", &self.core.is_blocked())
            .field("declared", &self.declarations.len())
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
        for &target in self.core.out_waits().iter() {
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

    fn arm_push_timer(&self, ctx: &mut Context<'_, PathMsg>) {
        // Encode the wait-state epoch so stale timers are recognised.
        ctx.set_timer(self.push_delay, TAG_PUSH_BASE | (self.epoch & 0xFFFF_FFFF));
    }
}

impl Process<PathMsg> for PathProcess {
    fn on_message(&mut self, ctx: &mut Context<'_, PathMsg>, from: NodeId, msg: PathMsg) {
        match msg {
            PathMsg::Request => self.core.on_request(ctx, from),
            PathMsg::Reply => {
                if self.core.on_reply(ctx, from) {
                    self.epoch += 1;
                }
            }
            PathMsg::Path(path) => {
                let me = ctx.id();
                if path.contains(&me) {
                    // The path closed a cycle through this node.
                    if self.last_declared_epoch != Some(self.epoch) {
                        self.last_declared_epoch = Some(self.epoch);
                        ctx.count(counters::DECLARED);
                        if ctx.tracing() {
                            ctx.note(format!("pathpush: {me} declares deadlock via {path:?}"));
                        }
                        self.declarations.push(ctx.now());
                    }
                } else if self.core.is_blocked() {
                    let mut extended = path;
                    extended.push(me);
                    self.push_path(ctx, extended);
                }
                // An active receiver drops the path: its waits are gone.
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PathMsg>, _timer: TimerId, tag: u64) {
        if tag == SERVE_TIMER {
            self.core.on_serve_timer(ctx, PathMsg::Reply);
            return;
        }
        // Push timer: only valid if the wait state is unchanged.
        let epoch = tag & 0xFFFF_FFFF;
        if self.core.is_blocked() && (self.epoch & 0xFFFF_FFFF) == epoch {
            self.push_path(ctx, vec![ctx.id()]);
            // Stay armed while blocked: new successors may appear.
            self.arm_push_timer(ctx);
        }
    }
}

/// Harness for the path-pushing detector.
pub struct PathPushNet {
    sim: Simulation<PathMsg, PathProcess>,
    journal: Arc<Mutex<Journal>>,
}

impl fmt::Debug for PathPushNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathPushNet").finish_non_exhaustive()
    }
}

impl PathPushNet {
    /// Creates `n` nodes with the given push delay/period; `optimized`
    /// enables the origin-is-maximum forwarding rule.
    pub fn new(n: usize, push_delay: u64, service_delay: u64, optimized: bool, seed: u64) -> Self {
        Self::with_builder(
            n,
            push_delay,
            service_delay,
            optimized,
            SimBuilder::new().seed(seed),
        )
    }

    /// Full builder control.
    pub fn with_builder(
        n: usize,
        push_delay: u64,
        service_delay: u64,
        optimized: bool,
        builder: SimBuilder,
    ) -> Self {
        let mut sim = builder.build();
        let journal = Arc::new(Mutex::new(Journal::new()));
        for _ in 0..n {
            sim.add_node(PathProcess {
                core: Underlying::new(
                    ReplyPolicy::AfterDelay { service_delay },
                    Some(Arc::clone(&journal)),
                ),
                epoch: 0,
                push_delay,
                optimized,
                sent: BTreeSet::new(),
                declarations: Vec::new(),
                last_declared_epoch: None,
            });
        }
        PathPushNet { sim, journal }
    }

    /// Has node `from` request node `to`.
    ///
    /// # Errors
    ///
    /// Propagates [`RequestError`].
    pub fn request(&mut self, from: NodeId, to: NodeId) -> Result<(), RequestError> {
        self.sim.with_node(from, |p, ctx| {
            p.core.request(ctx, to, PathMsg::Request)?;
            p.epoch += 1;
            // Arm the first push.
            p.arm_push_timer(ctx);
            Ok(())
        })
    }

    /// Issues requests for a topology edge list.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RequestError`].
    pub fn request_edges(&mut self, edges: &[(usize, usize)]) -> Result<(), RequestError> {
        for &(a, b) in edges {
            self.request(NodeId(a), NodeId(b))?;
        }
        Ok(())
    }

    /// Runs until `deadline` (push timers re-arm while deadlocked, so the
    /// queue never drains under a real deadlock).
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.sim.run_until(deadline)
    }

    /// All declarations `(subject declared itself at time)`.
    pub fn reports(&self) -> Vec<BaselineReport> {
        let mut out = Vec::new();
        for i in 0..self.sim.node_count() {
            for &at in &self.sim.node(NodeId(i)).declarations {
                out.push(BaselineReport {
                    detector: NodeId(i),
                    subject: NodeId(i),
                    at,
                });
            }
        }
        out.sort_by_key(|r| (r.at, r.subject));
        out
    }

    /// Classifies all reports against the journalled ground truth.
    pub fn classify_reports(&self) -> Classified {
        classify(&self.journal.lock().expect("journal lock"), &self.reports())
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfg::generators;

    fn deadline(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn cycle_detected_in_both_variants() {
        for optimized in [false, true] {
            let mut net = PathPushNet::new(5, 20, 5, optimized, 1);
            net.request_edges(&generators::cycle(5)).unwrap();
            net.run_until(deadline(5_000));
            let reports = net.reports();
            assert!(!reports.is_empty(), "optimized={optimized}");
            assert_eq!(net.classify_reports().phantom, 0);
        }
    }

    #[test]
    fn optimized_detects_at_max_member_only() {
        let mut net = PathPushNet::new(6, 20, 5, true, 2);
        net.request_edges(&generators::cycle(6)).unwrap();
        net.run_until(deadline(5_000));
        let subjects: BTreeSet<NodeId> = net.reports().iter().map(|r| r.subject).collect();
        assert_eq!(subjects, [NodeId(5)].into_iter().collect());
    }

    #[test]
    fn optimized_sends_fewer_messages() {
        let run = |optimized| {
            let mut net = PathPushNet::new(8, 20, 5, optimized, 3);
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
        let mut net = PathPushNet::new(5, 15, 50, false, 4);
        net.request_edges(&generators::chain(5)).unwrap();
        net.run_until(deadline(5_000));
        assert!(net.reports().is_empty());
    }
}
