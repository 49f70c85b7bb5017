//! Larger-scale stress scenarios: the guarantees must hold when the
//! system is big, busy, and heterogeneous — not just on toy graphs.

use cmh_core::{BasicConfig, BasicNet};
use cmh_ddb::{DdbConfig, DdbNet};
use simnet::latency::LatencyModel;
use simnet::sim::{NodeId, SimBuilder};
use simnet::time::SimTime;
use wfg::generators;
use workloads::{drive_schedule, random_churn, ChurnConfig, DdbWorkloadConfig};

#[test]
fn large_cycle_detected_and_verified() {
    let n = 512;
    let mut net = BasicNet::new(n, BasicConfig::on_block(3), 1);
    net.request_edges(&generators::cycle(n)).unwrap();
    net.run_to_quiescence(200_000_000);
    assert!(net.verify_soundness().unwrap() >= 1);
    assert_eq!(net.verify_completeness().unwrap(), n);
}

#[test]
fn big_busy_churn_stays_sound_and_complete() {
    let sched = random_churn(&ChurnConfig {
        n: 64,
        duration: 15_000,
        mean_gap: 8,
        cycle_prob: 0.02,
        cycle_len: 4,
        seed: 99,
    });
    let builder = SimBuilder::new().seed(99).latency(LatencyModel::Bimodal {
        fast_lo: 1,
        fast_hi: 5,
        slow_lo: 60,
        slow_hi: 200,
        slow_prob: 0.15,
    });
    let mut net = BasicNet::with_builder(sched.n, BasicConfig::on_block(25), builder);
    let issued = drive_schedule(
        &mut net,
        &sched,
        |x, at| {
            x.run_until(at);
        },
        |x, f, t| x.request(f, t).is_ok(),
    );
    assert!(issued > 500, "workload too small to be a stress test");
    net.run_to_quiescence(500_000_000);
    net.verify_soundness().unwrap();
    net.verify_completeness().unwrap();
}

#[test]
fn many_deep_tails_resolve_everywhere_except_the_knot() {
    // A 4-cycle with 16 tails of depth 8: 132 vertices, only 4 on the cycle.
    let edges = generators::cycle_with_tails(4, 8, 16);
    let n = 4 + 8 * 16;
    let mut net = BasicNet::new(n, BasicConfig::on_block(2), 5);
    net.request_edges(&edges).unwrap();
    net.run_to_quiescence(200_000_000);
    net.verify_soundness().unwrap();
    assert_eq!(net.verify_completeness().unwrap(), 4);
    // No tail vertex ever declares, however deep the pile-up.
    for i in 4..n {
        assert!(
            net.node(NodeId(i)).deadlock().is_none(),
            "tail {i} declared"
        );
    }
}

#[test]
fn wide_ddb_mixed_workload_with_resolution_terminates() {
    let wl = DdbWorkloadConfig {
        sites: 6,
        transactions: 48,
        resources_per_site: 3,
        remote_prob: 0.6,
        write_prob: 0.85,
        batch_prob: 0.3,
        mean_arrival_gap: 15,
        seed: 77,
        ..DdbWorkloadConfig::default()
    };
    let mut db = DdbNet::new(6, DdbConfig::detect_and_resolve(100, 80), 77);
    for tt in workloads::random_transactions(&wl) {
        db.run_until(SimTime::from_ticks(tt.at));
        db.submit(tt.txn);
    }
    db.run_until(SimTime::from_ticks(1_000_000));
    let outcomes = db.outcomes();
    let committed = outcomes
        .iter()
        .filter(|o| o.status == cmh_ddb::TxnStatus::Committed)
        .count();
    assert_eq!(
        committed,
        outcomes.len(),
        "resolution must drain the workload"
    );
    let (g, _) = db.agent_graph();
    assert!(g.is_empty(), "no residual waits");
    // Every declaration was checked against the agent graph as it stood
    // at that instant (stale echoes of concurrently-resolved deadlocks
    // are tolerated — and counted — but phantoms fail here).
    assert!(
        db.verify_soundness().unwrap() > 0,
        "no declarations checked"
    );
    // A drained workload must classify as live: nothing wedged.
    let report = db.verify_liveness().unwrap();
    assert_eq!(report.len(), 0, "all transactions terminal");
}

/// The benchmark's contended shape at twice `ddb_resolve`'s size, all
/// three verdicts. Under resolution the §5 `S` sets are never reset, so a
/// message costs what the site's whole deadlock history weighs: with
/// `BTreeSet` payloads compared whole and an agent graph rebuilt per
/// event this input took 45 s in release, with sorted vectors and a
/// persistent graph 1.7 s. Release `stress` job only — if the history
/// term comes back, the job's timeout says so.
#[test]
#[cfg_attr(debug_assertions, ignore = "release stress job only")]
fn ddb_contended_100_txns_verifies() {
    const SEED: u64 = 3;
    let wl = DdbWorkloadConfig {
        sites: 3,
        transactions: 100,
        resources_per_site: 4,
        locks_min: 2,
        locks_max: 3,
        remote_prob: 0.6,
        write_prob: 0.9,
        work_min: 100,
        work_max: 400,
        mean_arrival_gap: 20,
        ordered: false,
        batch_prob: 0.0,
        seed: SEED,
    };
    let mut db = DdbNet::new(3, DdbConfig::detect_and_resolve(2_000, 500), SEED);
    for tt in workloads::random_transactions(&wl) {
        db.run_until(SimTime::from_ticks(tt.at));
        db.submit(tt.txn);
    }
    db.run_until(SimTime::from_ticks(800_000));
    for o in db.outcomes() {
        assert_eq!(o.status, cmh_ddb::TxnStatus::Committed, "{} stuck", o.txn);
    }
    assert!(
        db.verify_soundness().unwrap() > 0,
        "no declarations checked"
    );
    db.verify_completeness().unwrap();
    db.verify_liveness().unwrap();
    let events = db.metrics().get(simnet::metrics::builtin::EVENTS);
    assert_eq!(events, 86_260, "the event stream moved");
}

#[test]
fn hundred_process_or_knot() {
    let k = 100;
    let mut net = cmh_core::ormodel::OrNet::new(k, Some(20), 3);
    for i in 0..k {
        net.block_on(NodeId(i), [NodeId((i + 1) % k), NodeId((i + 7) % k)])
            .unwrap();
    }
    net.run_to_quiescence(100_000_000);
    assert!(net.verify_soundness().unwrap() >= 1);
    assert_eq!(net.verify_completeness().unwrap(), k);
}
