//! Timeout-based "detection": declare yourself deadlocked after waiting
//! too long.
//!
//! The cheapest scheme — zero detection messages — and the least precise:
//! any wait longer than the timeout is declared a deadlock, so under plain
//! contention (long queues, slow services) it aborts victims that would
//! have made progress. Experiment E4 measures that false-positive rate as
//! a function of the timeout, next to the probe computation's proved zero.

use cmh_core::process::RequestError;
use cmh_core::{Net, Vertex};
use simnet::sim::{Context, NodeId, Process, SimBuilder, TimerId};

use crate::report::{BaselineReport, Claims};
use crate::Waiter;

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

/// A node that presumes deadlock after a continuous wait of `t_timeout`.
#[derive(Debug)]
pub struct TimeoutProcess {
    wait: Waiter<TimeoutMsg>,
    t_timeout: u64,
}

impl Process<TimeoutMsg> for TimeoutProcess {
    fn on_message(&mut self, ctx: &mut Context<'_, TimeoutMsg>, from: NodeId, msg: TimeoutMsg) {
        match msg {
            TimeoutMsg::Request => self.wait.core.on_request(ctx, from),
            TimeoutMsg::Reply => self.wait.on_reply(ctx, from),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, TimeoutMsg>, _timer: TimerId, tag: u64) {
        // A timeout counts only if the wait it was armed in persists.
        if self.wait.on_timer(ctx, tag, TimeoutMsg::Reply) {
            ctx.count(counters::DECLARED);
            if ctx.tracing() {
                ctx.note(format!("timeout: {} presumes deadlock", ctx.id()));
            }
            self.wait.declarations.push(ctx.now());
        }
    }
}

impl Vertex for TimeoutProcess {
    type Msg = TimeoutMsg;

    /// Requests `to` and arms the timeout.
    fn request(
        &mut self,
        ctx: &mut Context<'_, TimeoutMsg>,
        to: NodeId,
    ) -> Result<(), RequestError> {
        self.wait.core.request(ctx, to, TimeoutMsg::Request)?;
        self.wait.requested(ctx, self.t_timeout);
        Ok(())
    }
}

impl Claims for TimeoutProcess {
    fn claims(&self, me: NodeId, out: &mut Vec<BaselineReport>) {
        self.wait.claims(me, out);
    }
}

/// The timeout detector in the journalled harness (see [`net`]).
pub type TimeoutNet = Net<TimeoutProcess>;

/// `n` nodes that presume deadlock after `t_timeout` of continuous
/// blocking and serve a request `service_delay` after it arrives.
pub fn net(n: usize, t_timeout: u64, service_delay: u64, builder: SimBuilder) -> TimeoutNet {
    Net::build(builder, n, |_, journal| TimeoutProcess {
        wait: Waiter::new(service_delay, journal),
        t_timeout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, reports};
    use wfg::generators;

    fn seeded(n: usize, t_timeout: u64, service_delay: u64, seed: u64) -> TimeoutNet {
        net(n, t_timeout, service_delay, SimBuilder::new().seed(seed))
    }

    #[test]
    fn real_deadlock_is_declared_after_timeout() {
        let mut net = seeded(3, 100, 5, 1);
        net.request_edges(&generators::cycle(3)).unwrap();
        net.run_to_quiescence(100_000);
        let reports = reports(&net);
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.at.ticks() >= 100));
        assert_eq!(classify(&net).phantom, 0);
    }

    #[test]
    fn slow_chain_triggers_false_positives() {
        // A chain with service slower than the timeout: node 0 waits a long
        // time but is NOT deadlocked.
        let mut net = seeded(4, 30, 200, 2);
        net.request_edges(&generators::chain(4)).unwrap();
        net.run_to_quiescence(100_000);
        let c = classify(&net);
        assert!(c.phantom >= 1, "slow waits should be misdeclared");
        assert_eq!(c.genuine, 0);
    }

    #[test]
    fn fast_service_avoids_false_positives() {
        let mut net = seeded(4, 500, 2, 3);
        net.request_edges(&generators::chain(4)).unwrap();
        net.run_to_quiescence(100_000);
        assert!(reports(&net).is_empty());
    }

    #[test]
    fn timeout_uses_no_detection_messages() {
        let mut net = seeded(3, 50, 5, 4);
        net.request_edges(&generators::cycle(3)).unwrap();
        net.run_to_quiescence(100_000);
        // Only the 3 requests travelled; no probes/snapshots/paths.
        assert_eq!(
            net.metrics().get(simnet::metrics::builtin::MESSAGES_SENT),
            3
        );
    }
}
