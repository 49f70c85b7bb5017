//! Schedule-space exploration adapter for the DDB model.
//!
//! [`DdbRunner`] wraps a [`DdbNet`] built in explore mode behind the
//! [`simnet::explore::ScheduleRunner`] interface. Unlike the basic
//! model, a DDB run never quiesces — the periodic detectors keep the
//! event queue non-empty forever — so each schedule is bounded by a
//! virtual-time **deadline** instead: events scheduled past the deadline
//! are simply not offered to the explorer, and once nothing earlier
//! remains, the schedule completes and is verified. With a fixed
//! deadline every schedule covers the same virtual-time window, which
//! keeps exhaustive exploration finite.
//!
//! Per-schedule verdict:
//!
//! * **soundness** ([`DdbNet::verify_soundness`]) — every declaration
//!   judged on the agent graph as it stood just before its event (via
//!   [`DdbNet::step_validated`]), with or without resolution;
//! * **completeness** ([`DdbNet::verify_completeness`] on the agent
//!   reconstruction, plus [`DdbNet::verify_lock_cycles`] on the raw
//!   lock tables, which survives corrupted home-side bookkeeping) —
//!   every persisting cycle contains a declared member; only checked
//!   when the deadline leaves the detector enough time (the runner's
//!   `completeness_after` argument);
//! * **liveness** ([`DdbNet::verify_liveness`]) — no transaction is
//!   wedged, as [`cmh_core::explore::NetRunner`] checks for every other
//!   model; run after both completeness checks, so a missed deadlock is
//!   reported as one;
//! * **trace invariants** ([`simnet::explore::check_trace`]) — in
//!   prefix mode, since in-flight messages at the deadline are expected.

use simnet::explore::{ScheduleRunner, Script};
use simnet::sim::{FrontierEvent, SimBuilder};
use simnet::time::SimTime;

use crate::config::DdbConfig;
use crate::net::DdbNet;
use crate::txn::Transaction;

/// One bounded, replayable DDB run under exploration.
#[derive(Debug)]
pub struct DdbRunner {
    net: DdbNet,
    script: Script<DdbNet>,
    deadline: SimTime,
    /// Run the completeness check only if the schedule reached at least
    /// this virtual time — a freshly formed cycle needs a detection
    /// period plus probe round trips before an undeclared dark SCC is
    /// evidence of a missed deadlock rather than of an early cutoff.
    completeness_after: SimTime,
}

impl DdbRunner {
    /// Creates a runner over `n_sites` controllers. `submissions` are
    /// timed transaction submissions (the workload — a [`Script`],
    /// applied deterministically once the run's clock passes their time);
    /// `deadline` bounds every schedule's virtual-time window.
    pub fn new(
        n_sites: usize,
        cfg: DdbConfig,
        builder: SimBuilder,
        mut submissions: Vec<(SimTime, Transaction)>,
        deadline: SimTime,
        completeness_after: SimTime,
    ) -> Self {
        submissions.sort_by_key(|(at, t)| (*at, t.id()));
        let submit = |s: Script<DdbNet>, (at, txn)| s.at(at, |net| net.submit(txn));
        DdbRunner {
            net: DdbNet::with_builder(n_sites, cfg, builder.explore(true).trace(true)),
            script: submissions.into_iter().fold(Script::default(), submit),
            deadline,
            completeness_after,
        }
    }

    /// The wrapped net, e.g. to arm a mutation before the run starts.
    pub fn net_mut(&mut self) -> &mut DdbNet {
        &mut self.net
    }
}

impl ScheduleRunner for DdbRunner {
    fn frontier(&mut self) -> Vec<FrontierEvent> {
        let deadline = self.deadline;
        self.script.apply_due(&mut self.net, |net| {
            let mut frontier = net.frontier_events();
            frontier.retain(|e| e.at <= deadline);
            frontier
        })
    }

    fn execute(&mut self, seq: u64) -> bool {
        self.net.step_validated(seq)
    }

    fn verdict(&mut self, truncated: bool) -> Result<(), String> {
        self.net
            .verify_soundness()
            .map_err(|e| format!("soundness: {e}"))?;
        // Exactly-once FIFO: every DDB scope runs on a clean wire. A
        // deadline-bounded run is never complete, so delivery may lag.
        simnet::explore::check_trace(self.net.trace().events(), true, false)
            .map_err(|e| format!("trace: {e}"))?;
        if truncated {
            return Ok(());
        }
        if self.net.now() >= self.completeness_after {
            self.net
                .verify_completeness()
                .map_err(|e| format!("completeness: {e}"))?;
            self.net
                .verify_lock_cycles()
                .map_err(|e| format!("completeness (lock tables): {e}"))?;
        }
        self.net
            .verify_liveness()
            .map_err(|e| format!("liveness: {e}"))?;
        Ok(())
    }
}

/// Canned 3-site exploration workloads, shared by the unit tests and
/// the `xtask mck` driver.
pub mod configs {
    use super::*;
    use crate::ids::{ResourceId, SiteId, TransactionId};
    use crate::lock::LockMode;
    use crate::txn::LockReq;
    use simnet::latency::LatencyModel;

    /// The grant-misattribution workload (the PR 6 seed bug's habitat):
    /// T1 (home site 0) takes `s` locally, then `lock_all` of resource
    /// `r` at sites 1 **and** 2; T2 (home site 1) computes for one tick,
    /// takes `r` locally, then requests `s` at site 0. The one genuine
    /// race is at site 1 on tick 1: T1's remote request against T2's
    /// work-step timer. Request-first, T1 wins everywhere and both
    /// transactions commit; timer-first, the classic two-transaction
    /// deadlock forms and the periodic detector must declare it. Under
    /// [`DdbMutation::GrantByResourceOnly`] the timer-first branch
    /// books site 2's grant against the site-1 wait: the home keeps
    /// waiting on site 2 (already granted), probes chase the phantom
    /// wait to site 2 and die, and the reconstructed agent graph —
    /// built from the same corrupted home state — loses the cycle too.
    /// Only the lock-table check ([`DdbNet::verify_lock_cycles`]) still
    /// sees the real deadlock, as an undeclared cycle.
    ///
    /// [`DdbMutation::GrantByResourceOnly`]: crate::controller::DdbMutation::GrantByResourceOnly
    pub fn grant_misattribution(seed: u64) -> DdbRunner {
        let s = ResourceId(100);
        let r = ResourceId(7);
        let t1 = Transaction::new(TransactionId(1), SiteId(0))
            .lock(SiteId(0), s, LockMode::Exclusive)
            .lock_all([
                LockReq {
                    site: SiteId(1),
                    resource: r,
                    mode: LockMode::Exclusive,
                },
                LockReq {
                    site: SiteId(2),
                    resource: r,
                    mode: LockMode::Exclusive,
                },
            ]);
        let t2 = Transaction::new(TransactionId(2), SiteId(1))
            .work(1)
            .lock(SiteId(1), r, LockMode::Exclusive)
            .lock(SiteId(0), s, LockMode::Exclusive);
        DdbRunner::new(
            3,
            DdbConfig::detect_only(12),
            SimBuilder::new()
                .seed(seed)
                .latency(LatencyModel::Fixed { ticks: 1 }),
            vec![(SimTime::from_ticks(0), t1), (SimTime::from_ticks(0), t2)],
            SimTime::from_ticks(60),
            SimTime::from_ticks(50),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::explore::Explorer;

    /// Both branches of the one genuine race must verify: request-first
    /// commits both transactions, timer-first forms the real deadlock and
    /// the periodic detector declares it within the deadline.
    #[test]
    fn grant_misattribution_every_schedule_sound_and_complete() {
        let report = Explorer::default().explore(|| configs::grant_misattribution(7));
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert!(report.schedules >= 2, "the grant/timer race must branch");
        assert!(!report.capped);
        assert_eq!(
            report.truncated, 0,
            "the deadline must bound every schedule"
        );
    }

    /// A hand-made wedge with no fault: a forged `RemoteRequest` from
    /// T9, which its home S0 never started, gives T9's agent at S1 the
    /// lock on r3; S0 drops the grant, so the agent holds r3 for good.
    /// T1, homed at S1, then queues behind it. No cycle forms and nothing
    /// is in flight at the deadline, so the verdict fails on liveness
    /// alone (completeness is off: `completeness_after` lies past the
    /// deadline).
    #[test]
    fn verdict_reaches_the_liveness_check() {
        use crate::ids::{ResourceId, SiteId, TransactionId};
        use crate::lock::LockMode;
        use crate::msg::DdbMsg;
        use simnet::explore::run_naive;
        use simnet::sim::{NodeId, Process};

        let (r3, x) = (ResourceId(3), LockMode::Exclusive);
        let t1 = Transaction::new(TransactionId(1), SiteId(1)).lock(SiteId(1), r3, x);
        let mut runner = DdbRunner::new(
            2,
            DdbConfig::detect_only(12),
            SimBuilder::new().seed(7),
            vec![(SimTime::from_ticks(5), t1)],
            SimTime::from_ticks(40),
            SimTime::MAX,
        );
        let forged = DdbMsg::RemoteRequest {
            txn: TransactionId(9),
            resource: r3,
            mode: x,
            home: SiteId(0),
        };
        let script = std::mem::take(&mut runner.script);
        runner.script = script.at(SimTime::from_ticks(1), move |net: &mut DdbNet| {
            net.with_controller(SiteId(1), |c, ctx| c.on_message(ctx, NodeId(0), forged));
        });
        let verdict = run_naive(&mut runner, 10_000).unwrap_err();
        assert!(verdict.starts_with("liveness:"), "got: {verdict}");
        assert!(verdict.contains("TransactionId(1)"), "got: {verdict}");
        assert!(!verdict.contains("TransactionId(9)"), "got: {verdict}");
    }

    /// The model checker's path judges a declaration at its instant
    /// without resolution too: T1 (homed at S0) locks r0@S0 and then
    /// r1@S1, T2 (homed at S1) locks r1@S1, works 5 000 ticks and then
    /// locks r0@S0. A probe forged as the run passes t = 400 completes
    /// S1's own computation for T1 long before that cycle forms. By the deadline
    /// T1 is deadlocked for real, so only the instant verdict fails.
    #[test]
    fn a_forged_declaration_fails_soundness_without_resolution() {
        use crate::ids::{AgentId, DdbProbeTag, ResourceId, SiteId, TransactionId};
        use crate::lock::LockMode;
        use crate::msg::DdbMsg;
        use simnet::explore::run_naive;
        use simnet::sim::{NodeId, Process};

        let (s0, s1, x) = (SiteId(0), SiteId(1), LockMode::Exclusive);
        let (r0, r1) = (ResourceId(0), ResourceId(1));
        let t1 = Transaction::new(TransactionId(1), s0)
            .lock(s0, r0, x)
            .work(10)
            .lock(s1, r1, x);
        let t2 = Transaction::new(TransactionId(2), s1)
            .lock(s1, r1, x)
            .work(5_000)
            .lock(s0, r0, x);
        let at0 = SimTime::from_ticks(0);
        let mut runner = DdbRunner::new(
            2,
            DdbConfig::detect_only(100),
            SimBuilder::new().seed(3),
            vec![(at0, t1), (at0, t2)],
            SimTime::from_ticks(20_000),
            SimTime::MAX,
        );
        let edge = (
            AgentId::new(TransactionId(1), s0),
            AgentId::new(TransactionId(1), s1),
        );
        let script = std::mem::take(&mut runner.script);
        runner.script = script.at(SimTime::from_ticks(400), move |net: &mut DdbNet| {
            let tag = DdbProbeTag {
                initiator: s1,
                n: net.computations_initiated(),
            };
            net.with_controller(s1, |c, ctx| {
                c.on_message(ctx, NodeId(0), DdbMsg::Probe { tag, edge });
            });
        });
        let verdict = run_naive(&mut runner, 100_000).unwrap_err();
        assert!(verdict.starts_with("soundness:"), "got: {verdict}");
        assert!(verdict.contains("(T1,S1)"), "got: {verdict}");
    }

    #[cfg(feature = "mutations")]
    mod mutations {
        use super::*;
        use crate::controller::DdbMutation;
        use simnet::explore::run_naive;

        fn armed(mut r: DdbRunner) -> DdbRunner {
            r.net_mut().set_mutation(DdbMutation::GrantByResourceOnly);
            r
        }

        /// The same timer-first branch with completeness switched off:
        /// the mis-booked grant leaves T1 waiting on a site that already
        /// granted it and T2 queued behind T1, with no cycle in the agent
        /// graph and nothing in flight — the liveness check names both.
        #[test]
        fn grant_by_resource_only_wedges_both_transactions() {
            let report = Explorer::default().explore(|| {
                let mut r = armed(configs::grant_misattribution(7));
                r.completeness_after = SimTime::MAX;
                r
            });
            assert_eq!(report.violations.len(), 1, "report: {report:?}");
            let message = &report.violations[0].message;
            assert!(message.starts_with("liveness:"), "got: {message}");
        }

        /// The engine's native schedule takes the request-first branch
        /// (T1's remote requests carry earlier seqs than T2's work timer)
        /// where the misattribution is harmless — both grants arrive and
        /// the waits drain regardless of booking order. Exploration finds
        /// the timer-first branch, where the phantom booking wedges T1
        /// forever and blinds both the probes and the agent-graph
        /// reconstruction; only the lock-table oracle still sees the
        /// undeclared cycle.
        #[test]
        fn grant_by_resource_only_passes_naive_but_trips_exploration() {
            let mut naive = armed(configs::grant_misattribution(7));
            assert_eq!(run_naive(&mut naive, 10_000), Ok(()));

            let report = Explorer::default().explore(|| armed(configs::grant_misattribution(7)));
            assert_eq!(report.violations.len(), 1, "report: {report:?}");
            assert!(
                report.violations[0].message.contains("lock tables"),
                "expected a missed deadlock, got: {}",
                report.violations[0].message
            );
        }
    }
}
