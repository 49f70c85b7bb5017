//! Property-based liveness tests: for *arbitrary* seeded mixed workloads
//! (including batched `lock_all` transactions, the shape behind the PR-6
//! wedge), detect-and-resolve must fully drain the system — every
//! transaction commits, the residual wait graph is empty, and
//! `verify_liveness` classifies nothing as wedged.

use cmh_ddb::{DdbConfig, DdbNet, TxnStatus};
use proptest::prelude::*;
use simnet::time::SimTime;
use workloads::DdbWorkloadConfig;

proptest! {
    // Each case is a full end-to-end simulation; keep case counts sane.
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Drain termination: under detect-and-resolve, arbitrary batched
    /// workloads terminate with every transaction committed. Deadlocks
    /// may form (and are resolved by restart); nothing may wedge.
    #[test]
    fn batched_workloads_drain_under_resolution(
        seed in 0u64..10_000,
        sites in 3usize..7,
        transactions in 6usize..13,
        write_prob in 0.5f64..1.0,
        remote_prob in 0.3f64..0.9,
        batch_prob in 0.0f64..0.5,
    ) {
        let wl = DdbWorkloadConfig {
            sites,
            transactions,
            resources_per_site: 2,
            write_prob,
            remote_prob,
            batch_prob,
            mean_arrival_gap: 15,
            seed,
            ..DdbWorkloadConfig::default()
        };
        let mut db = DdbNet::new(sites, DdbConfig::detect_and_resolve(80, 60), seed);
        for tt in workloads::random_transactions(&wl) {
            db.run_until(SimTime::from_ticks(tt.at));
            db.submit(tt.txn);
        }
        db.run_until(SimTime::from_ticks(500_000));

        let outcomes = db.outcomes();
        let committed = outcomes
            .iter()
            .filter(|o| o.status == TxnStatus::Committed)
            .count();
        prop_assert_eq!(
            committed,
            outcomes.len(),
            "resolution must drain the workload (seed {})",
            seed
        );
        let (g, _) = db.agent_graph();
        prop_assert!(g.is_empty(), "residual waits after drain (seed {})", seed);
        // A drained workload classifies as live: no non-terminal
        // transactions at all, and in particular nothing wedged.
        let report = db
            .verify_liveness()
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(report.len(), 0, "all transactions terminal");
    }
}
