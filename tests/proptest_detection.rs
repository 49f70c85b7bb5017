//! Property-based tests of the detection algorithms themselves: for
//! *arbitrary* seeded workloads, QRP1 and QRP2 hold on the basic model,
//! the DDB detector is sound and complete at quiescence, the WFGD sets
//! converge to the oracle closure, and the lock table never grants
//! conflicting locks.

use cmh_core::{BasicConfig, BasicNet};
use cmh_ddb::ids::{ResourceId, TransactionId};
use cmh_ddb::lock::{LockMode, LockTable};
use cmh_ddb::{DdbConfig, DdbNet};
use proptest::prelude::*;
use simnet::sim::NodeId;
use simnet::time::SimTime;
use workloads::{drive_schedule, random_churn, ChurnConfig, DdbWorkloadConfig};

proptest! {
    // End-to-end simulations are comparatively slow; keep case counts sane.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// QRP1 + QRP2 hold for arbitrary churn workloads with injected cycles.
    #[test]
    fn basic_model_sound_and_complete(
        seed in 0u64..10_000,
        n in 3usize..14,
        mean_gap in 10u64..60,
        cycle_prob in 0.0f64..0.15,
        service_delay in 2u64..40,
    ) {
        let sched = random_churn(&ChurnConfig {
            n,
            duration: 3_000,
            mean_gap,
            cycle_prob,
            cycle_len: 2 + (seed % (n as u64 - 1)).min(3) as usize,
            seed,
        });
        let mut net = BasicNet::new(n, BasicConfig::on_block(service_delay), seed);
        drive_schedule(
            &mut net,
            &sched,
            |x, at| { x.run_until(at); },
            |x, f, t| x.request(f, t).is_ok(),
        );
        net.run_to_quiescence(20_000_000);
        net.verify_soundness().map_err(|e| TestCaseError::fail(e.to_string()))?;
        net.verify_completeness().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    /// WFGD converges to the oracle closure on arbitrary cycle+tails
    /// shapes with a single initiator.
    #[test]
    fn wfgd_matches_oracle(
        cycle_len in 2usize..8,
        tail_len in 0usize..4,
        n_tails in 0usize..4,
        seed in 0u64..1000,
    ) {
        let edges = wfg::generators::cycle_with_tails(cycle_len, tail_len, n_tails);
        let n = cycle_len + tail_len * n_tails;
        let mut net = BasicNet::new(n, BasicConfig::manual(), seed);
        net.request_edges(&edges).unwrap();
        net.run_to_quiescence(20_000_000);
        net.with_node(NodeId(0), |p, ctx| p.initiate(ctx));
        net.run_to_quiescence(20_000_000);
        prop_assert!(net.node(NodeId(0)).deadlock().is_some());
        let g = net.current_graph().unwrap();
        for j in 0..n {
            let expected = wfg::oracle::wfgd_ground_truth(&g, NodeId(j), NodeId(0));
            prop_assert_eq!(net.node(NodeId(j)).wfgd_edges(), &expected, "S_{}", j);
        }
    }

    /// The DDB detector is sound and complete on arbitrary random
    /// transaction workloads (no resolution, quiescent validation).
    #[test]
    fn ddb_sound_and_complete(
        seed in 0u64..10_000,
        sites in 2usize..5,
        transactions in 4usize..12,
        write_prob in 0.5f64..1.0,
        remote_prob in 0.2f64..0.9,
        batch_prob in 0.0f64..1.0,
    ) {
        let wl = DdbWorkloadConfig {
            sites,
            transactions,
            resources_per_site: 2,
            write_prob,
            remote_prob,
            batch_prob,
            seed,
            ..DdbWorkloadConfig::default()
        };
        let mut db = DdbNet::new(sites, DdbConfig::detect_only(100), seed);
        for tt in workloads::random_transactions(&wl) {
            db.run_until(SimTime::from_ticks(tt.at));
            db.submit(tt.txn);
        }
        db.run_until(SimTime::from_ticks(25_000));
        db.verify_soundness().map_err(|e| TestCaseError::fail(e.to_string()))?;
        db.verify_completeness().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}

/// A random lock-table action.
#[derive(Debug, Clone, Copy)]
enum LockAction {
    Request(u32, u64, bool),
    Release(u32, u64),
    ReleaseAll(u32),
}

fn lock_action() -> impl Strategy<Value = LockAction> {
    prop_oneof![
        (0u32..6, 0u64..4, any::<bool>()).prop_map(|(t, r, x)| LockAction::Request(t, r, x)),
        (0u32..6, 0u64..4).prop_map(|(t, r)| LockAction::Release(t, r)),
        (0u32..6).prop_map(LockAction::ReleaseAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Under arbitrary action sequences, the lock table never holds two
    /// incompatible locks on the same resource and wait edges stay
    /// irreflexive.
    #[test]
    fn lock_table_invariants(actions in proptest::collection::vec(lock_action(), 0..80)) {
        let mut lt = LockTable::new();
        for a in actions {
            match a {
                LockAction::Request(t, r, excl) => {
                    let (t, r) = (TransactionId(t), ResourceId(r));
                    let mode = if excl { LockMode::Exclusive } else { LockMode::Shared };
                    // Skip illegal double-queues (the API panics on them).
                    if !lt.is_waiting(t, r) {
                        let _ = lt.request(t, r, mode);
                    }
                }
                LockAction::Release(t, r) => {
                    let _ = lt.release(TransactionId(t), ResourceId(r));
                }
                LockAction::ReleaseAll(t) => {
                    let _ = lt.release_all(TransactionId(t));
                }
            }
            // Invariant 1: a transaction that both holds and waits for the
            // same resource can only be a shared holder queued for an
            // upgrade — and a *sole* holder's upgrade is granted in place,
            // so a holding waiter implies at least one co-holder.
            for t in 0..6u32 {
                for r in 0..4u64 {
                    let (t_, r_) = (TransactionId(t), ResourceId(r));
                    if lt.holds(t_, r_) && lt.is_waiting(t_, r_) {
                        let holders = (0..6u32)
                            .filter(|&x| lt.holds(TransactionId(x), r_))
                            .count();
                        prop_assert!(holders >= 2, "sole holder left queued for {r_:?}");
                    }
                }
            }
            // Invariant 2: wait edges are irreflexive and only from
            // currently waiting transactions.
            let waiting: std::collections::BTreeSet<TransactionId> =
                lt.waiting_transactions().collect();
            for (a, b) in lt.wait_edges() {
                prop_assert_ne!(a, b);
                prop_assert!(waiting.contains(&a), "edge tail {:?} not waiting", a);
            }
        }
    }

    /// Exclusive locks are exclusive: after any sequence, if a transaction
    /// holds exclusively, nobody else holds the same resource.
    #[test]
    fn exclusive_means_sole(actions in proptest::collection::vec(lock_action(), 0..80)) {
        let mut lt = LockTable::new();
        for a in actions {
            if let LockAction::Request(t, r, excl) = a {
                let (t, r) = (TransactionId(t), ResourceId(r));
                let mode = if excl { LockMode::Exclusive } else { LockMode::Shared };
                if !lt.is_waiting(t, r) {
                    let _ = lt.request(t, r, mode);
                }
            } else if let LockAction::Release(t, r) = a {
                let _ = lt.release(TransactionId(t), ResourceId(r));
            } else if let LockAction::ReleaseAll(t) = a {
                let _ = lt.release_all(TransactionId(t));
            }
            for r in 0..4u64 {
                let r = ResourceId(r);
                let holders: Vec<TransactionId> = (0..6u32)
                    .map(TransactionId)
                    .filter(|&t| lt.holds(t, r))
                    .collect();
                // If any two hold simultaneously, both must be shared-compatible,
                // which our model expresses as: granting was only possible when
                // compatible. We can't see modes directly; assert via behaviour:
                // an upgrade attempt by one of two holders must queue, not grant.
                if holders.len() >= 2 && !lt.is_waiting(holders[0], r) {
                    let mut probe = lt.clone();
                    let outcome = probe.request(holders[0], r, LockMode::Exclusive);
                    prop_assert!(
                        matches!(outcome, cmh_ddb::lock::LockOutcome::Queued { .. }),
                        "co-held resource allowed an instant upgrade: holders are not all shared"
                    );
                }
            }
        }
    }
}
