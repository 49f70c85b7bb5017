//! Timeout-based "detection": declare yourself deadlocked after waiting
//! too long.
//!
//! The cheapest scheme — zero detection messages — and the least precise:
//! any wait longer than the timeout is declared a deadlock, so under plain
//! contention (long queues, slow services) it aborts victims that would
//! have made progress. Experiment E4 measures that false-positive rate as
//! a function of the timeout, next to the probe computation's proved zero.

use std::fmt;
use std::sync::{Arc, Mutex};

use cmh_core::process::{RequestError, Underlying, SERVE_TIMER};
use cmh_core::ReplyPolicy;
use simnet::metrics::Metrics;
use simnet::sim::{Context, NodeId, Process, RunOutcome, SimBuilder, Simulation, TimerId};
use simnet::time::SimTime;
use wfg::journal::Journal;

use crate::report::{classify, BaselineReport, Classified};

/// Metric-counter names for the timeout detector.
pub mod counters {
    /// Presumed-deadlock declarations.
    pub const DECLARED: &str = "timeout.declared";
}

/// Messages: only the underlying computation (detection is silent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutMsg {
    /// The underlying computation's request.
    Request,
    /// The underlying computation's reply.
    Reply,
}

const TAG_TIMEOUT_BASE: u64 = 1 << 32;

/// A node that presumes deadlock after a continuous wait of `t_timeout`.
pub struct TimeoutProcess {
    core: Underlying<TimeoutMsg>,
    /// Bumped whenever the wait set changes; a timeout armed under an
    /// older epoch is stale.
    epoch: u64,
    t_timeout: u64,
    declarations: Vec<SimTime>,
}

impl fmt::Debug for TimeoutProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeoutProcess")
            .field("blocked", &self.core.is_blocked())
            .field("declared", &self.declarations.len())
            .finish_non_exhaustive()
    }
}

impl Process<TimeoutMsg> for TimeoutProcess {
    fn on_message(&mut self, ctx: &mut Context<'_, TimeoutMsg>, from: NodeId, msg: TimeoutMsg) {
        match msg {
            TimeoutMsg::Request => self.core.on_request(ctx, from),
            TimeoutMsg::Reply => {
                if self.core.on_reply(ctx, from) {
                    self.epoch += 1;
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TimeoutMsg>, _timer: TimerId, tag: u64) {
        if tag == SERVE_TIMER {
            self.core.on_serve_timer(ctx, TimeoutMsg::Reply);
            return;
        }
        // Timeout check: valid only if the wait state has not changed since
        // the timer was armed.
        let epoch = tag & 0xFFFF_FFFF;
        if self.core.is_blocked() && (self.epoch & 0xFFFF_FFFF) == epoch {
            ctx.count(counters::DECLARED);
            if ctx.tracing() {
                ctx.note(format!("timeout: {} presumes deadlock", ctx.id()));
            }
            self.declarations.push(ctx.now());
        }
    }
}

/// Harness for the timeout detector.
pub struct TimeoutNet {
    sim: Simulation<TimeoutMsg, TimeoutProcess>,
    journal: Arc<Mutex<Journal>>,
}

impl fmt::Debug for TimeoutNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeoutNet").finish_non_exhaustive()
    }
}

impl TimeoutNet {
    /// Creates `n` nodes that presume deadlock after `t_timeout` of
    /// continuous blocking.
    pub fn new(n: usize, t_timeout: u64, service_delay: u64, seed: u64) -> Self {
        Self::with_builder(n, t_timeout, service_delay, SimBuilder::new().seed(seed))
    }

    /// Full builder control.
    pub fn with_builder(n: usize, t_timeout: u64, service_delay: u64, builder: SimBuilder) -> Self {
        let mut sim = builder.build();
        let journal = Arc::new(Mutex::new(Journal::new()));
        for _ in 0..n {
            sim.add_node(TimeoutProcess {
                core: Underlying::new(
                    ReplyPolicy::AfterDelay { service_delay },
                    Some(Arc::clone(&journal)),
                ),
                epoch: 0,
                t_timeout,
                declarations: Vec::new(),
            });
        }
        TimeoutNet { sim, journal }
    }

    /// Has node `from` request node `to` (arming the timeout).
    ///
    /// # Errors
    ///
    /// Propagates [`RequestError`].
    pub fn request(&mut self, from: NodeId, to: NodeId) -> Result<(), RequestError> {
        self.sim.with_node(from, |p, ctx| {
            p.core.request(ctx, to, TimeoutMsg::Request)?;
            p.epoch += 1;
            ctx.set_timer(p.t_timeout, TAG_TIMEOUT_BASE | (p.epoch & 0xFFFF_FFFF));
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

    /// Runs until the queue drains or `max_events` is hit.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> RunOutcome {
        self.sim.run_to_quiescence(max_events)
    }

    /// Runs until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.sim.run_until(deadline)
    }

    /// All presumed-deadlock declarations.
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

    #[test]
    fn real_deadlock_is_declared_after_timeout() {
        let mut net = TimeoutNet::new(3, 100, 5, 1);
        net.request_edges(&generators::cycle(3)).unwrap();
        net.run_to_quiescence(100_000);
        let reports = net.reports();
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.at.ticks() >= 100));
        assert_eq!(net.classify_reports().phantom, 0);
    }

    #[test]
    fn slow_chain_triggers_false_positives() {
        // A chain with service slower than the timeout: node 0 waits a long
        // time but is NOT deadlocked.
        let mut net = TimeoutNet::new(4, 30, 200, 2);
        net.request_edges(&generators::chain(4)).unwrap();
        net.run_to_quiescence(100_000);
        let c = net.classify_reports();
        assert!(c.phantom >= 1, "slow waits should be misdeclared");
        assert_eq!(c.genuine, 0);
    }

    #[test]
    fn fast_service_avoids_false_positives() {
        let mut net = TimeoutNet::new(4, 500, 2, 3);
        net.request_edges(&generators::chain(4)).unwrap();
        net.run_to_quiescence(100_000);
        assert!(net.reports().is_empty());
    }

    #[test]
    fn timeout_uses_no_detection_messages() {
        let mut net = TimeoutNet::new(3, 50, 5, 4);
        net.request_edges(&generators::cycle(3)).unwrap();
        net.run_to_quiescence(100_000);
        // Only the 3 requests travelled; no probes/snapshots/paths.
        assert_eq!(
            net.metrics().get(simnet::metrics::builtin::MESSAGES_SENT),
            3
        );
    }
}
