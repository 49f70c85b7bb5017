//! Chaos property tests: for *arbitrary* seeded workloads crossed with
//! *arbitrary* fault plans (message loss, duplication, reordering, a node
//! crash/restart), the detector running over the reliable transport still
//! satisfies QRP1 and QRP2 — it declares exactly the oracle's deadlocks.
//!
//! This is the end-to-end statement of why the reliable layer exists: it
//! rebuilds the paper's communication axioms (P1/P2/P4) over a faulty
//! wire well enough that the proofs of §4 go through unchanged.

use cmh_core::{BasicConfig, BasicNet};
use proptest::prelude::*;
use simnet::faults::FaultPlan;
use simnet::reliable::ReliableConfig;
use simnet::sim::{NodeId, SimBuilder};
use simnet::time::SimTime;
use workloads::{drive_schedule, random_churn, ChurnConfig};

/// A randomly generated fault plan. Rates stay within what the default
/// retransmission budget comfortably covers (loss ≤ 25%); the optional
/// crash always restarts well before the end of the run so the restarted
/// node's re-initiated computations can complete.
#[derive(Debug, Clone)]
struct PlanSpec {
    loss: f64,
    duplicate: f64,
    reorder: f64,
    max_extra_delay: u64,
    crash: Option<(usize, u64, u64)>,
}

impl PlanSpec {
    fn build(&self, n: usize) -> FaultPlan {
        let mut plan = FaultPlan::new()
            .loss(self.loss)
            .duplicate(self.duplicate)
            .reorder(self.reorder, self.max_extra_delay);
        if let Some((node, at, dur)) = self.crash {
            plan = plan.crash(
                NodeId(node % n),
                SimTime::from_ticks(at),
                Some(SimTime::from_ticks(at + dur)),
            );
        }
        plan
    }
}

fn plan_spec() -> impl Strategy<Value = PlanSpec> {
    (
        0.0f64..0.25,
        0.0f64..0.15,
        0.0f64..0.20,
        1u64..60,
        (any::<bool>(), 0usize..16, 200u64..1_500),
        100u64..600,
    )
        .prop_map(
            |(loss, duplicate, reorder, max_extra_delay, (crashes, node, at), dur)| PlanSpec {
                loss,
                duplicate,
                reorder,
                max_extra_delay,
                crash: crashes.then_some((node, at, dur)),
            },
        )
}

proptest! {
    // Each case is a full chaos simulation; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary workload × arbitrary fault plan, reliable transport on:
    /// at quiescence the set of declarations equals the oracle's deadlock
    /// set — no phantom, no miss, despite every axiom being attacked.
    #[test]
    fn chaos_runs_detect_exactly_the_oracle_deadlocks(
        seed in 0u64..10_000,
        n in 4usize..12,
        mean_gap in 15u64..50,
        cycle_prob in 0.0f64..0.12,
        spec in plan_spec(),
    ) {
        let sched = random_churn(&ChurnConfig {
            n,
            duration: 3_000,
            mean_gap,
            cycle_prob,
            cycle_len: 2 + (seed % 3) as usize,
            seed,
        });
        let builder = SimBuilder::new()
            .seed(seed)
            .faults(spec.build(n))
            .reliable(ReliableConfig::default());
        let mut net = BasicNet::with_builder(n, BasicConfig::on_block(12), builder);
        drive_schedule(
            &mut net,
            &sched,
            |x, at| { x.run_until(at); },
            // A crashed node can neither issue nor accept new work.
            |x, f, t| !x.is_crashed(f) && !x.is_crashed(t) && x.request(f, t).is_ok(),
        );
        net.run_to_quiescence(50_000_000);
        net.verify_soundness().map_err(|e| TestCaseError::fail(e.to_string()))?;
        net.verify_completeness().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    /// Fault injection is a pure function of the seed: two runs with the
    /// same seed and plan produce identical metrics.
    #[test]
    fn fault_injection_is_deterministic(
        seed in 0u64..10_000,
        spec in plan_spec(),
    ) {
        let run = || {
            let sched = random_churn(&ChurnConfig {
                n: 8,
                duration: 1_500,
                mean_gap: 25,
                cycle_prob: 0.08,
                cycle_len: 3,
                seed,
            });
            let builder = SimBuilder::new()
                .seed(seed)
                .faults(spec.build(8))
                .reliable(ReliableConfig::default());
            let mut net = BasicNet::with_builder(8, BasicConfig::on_block(10), builder);
            drive_schedule(
                &mut net,
                &sched,
                |x, at| { x.run_until(at); },
                |x, f, t| !x.is_crashed(f) && !x.is_crashed(t) && x.request(f, t).is_ok(),
            );
            net.run_to_quiescence(50_000_000);
            net.metrics().to_string()
        };
        prop_assert_eq!(run(), run());
    }
}
