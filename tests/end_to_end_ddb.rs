//! Cross-crate integration tests for the §6 DDB model: generated
//! transaction workloads, detection configurations, and resolution
//! liveness.

use cmh_ddb::controller::counters;
use cmh_ddb::{DdbConfig, DdbInitiation, DdbNet, Resolution, SiteId, TxnStatus};
use simnet::faults::FaultPlan;
use simnet::reliable::ReliableConfig;
use simnet::sim::{NodeId, SimBuilder};
use simnet::time::SimTime;
use workloads::{dining_philosophers, random_transactions, DdbWorkloadConfig};

fn submit_all(db: &mut DdbNet, txns: Vec<workloads::TimedTxn>) {
    for tt in txns {
        db.run_until(SimTime::from_ticks(tt.at));
        db.submit(tt.txn);
    }
}

#[test]
fn random_workloads_sound_and_complete_across_seeds() {
    for seed in 0..10 {
        let wl = DdbWorkloadConfig {
            sites: 4,
            transactions: 14,
            resources_per_site: 3,
            remote_prob: 0.6,
            write_prob: 0.9,
            seed,
            ..DdbWorkloadConfig::default()
        };
        let mut db = DdbNet::new(4, DdbConfig::detect_only(120), seed);
        submit_all(&mut db, random_transactions(&wl));
        db.run_until(SimTime::from_ticks(40_000));
        db.verify_soundness()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        db.verify_completeness()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn ordered_acquisition_never_deadlocks_or_declares() {
    for seed in 0..6 {
        let wl = DdbWorkloadConfig {
            sites: 3,
            transactions: 18,
            resources_per_site: 2,
            write_prob: 1.0,
            ordered: true,
            seed,
            ..DdbWorkloadConfig::default()
        };
        let mut db = DdbNet::new(3, DdbConfig::detect_only(60), seed);
        submit_all(&mut db, random_transactions(&wl));
        db.run_until(SimTime::from_ticks(300_000));
        assert!(
            db.declarations().is_empty(),
            "seed {seed}: phantom in ordered workload"
        );
        for o in db.outcomes() {
            assert_eq!(
                o.status,
                TxnStatus::Committed,
                "seed {seed}: {} wedged",
                o.txn
            );
        }
    }
}

#[test]
fn philosophers_all_eat_with_resolution_for_various_table_sizes() {
    for k in [2usize, 3, 5, 8] {
        let mut db = DdbNet::new(k, DdbConfig::detect_and_resolve(90, 70), k as u64);
        submit_all(&mut db, dining_philosophers(k, 25, 15));
        db.run_until(SimTime::from_ticks(400_000));
        for o in db.outcomes() {
            assert_eq!(o.status, TxnStatus::Committed, "k={k}: {} starved", o.txn);
        }
        // Every lock is free at the end.
        for s in 0..k {
            assert_eq!(db.controller(SiteId(s)).locks().held_count(), 0, "k={k}");
            assert_eq!(db.controller(SiteId(s)).locks().waiting_count(), 0, "k={k}");
        }
    }
}

#[test]
fn never_policy_detects_nothing_but_graph_shows_deadlock() {
    let mut db = DdbNet::new(
        3,
        DdbConfig {
            initiation: DdbInitiation::Never,
            resolution: Resolution::None,
            ..DdbConfig::default()
        },
        1,
    );
    submit_all(&mut db, dining_philosophers(3, 20, 10));
    db.run_until(SimTime::from_ticks(20_000));
    assert!(db.declarations().is_empty());
    assert_eq!(db.deadlocked_agents().len(), 6);
    // verify_completeness must now FAIL — the deadlock is undetected.
    assert!(db.verify_completeness().is_err());
}

#[test]
fn shared_locks_reduce_deadlocks() {
    // Same structure, read-only vs write-only: shared locks all coexist,
    // so the read-only variant cannot block at all, let alone deadlock.
    let run = |write_prob: f64| {
        let wl = DdbWorkloadConfig {
            sites: 3,
            transactions: 16,
            resources_per_site: 2,
            write_prob,
            remote_prob: 0.6,
            seed: 31,
            ..DdbWorkloadConfig::default()
        };
        let mut db = DdbNet::new(3, DdbConfig::detect_only(80), 31);
        submit_all(&mut db, random_transactions(&wl));
        db.run_until(SimTime::from_ticks(60_000));
        db.verify_soundness().unwrap();
        db.deadlocked_agents().len()
    };
    let read_only = run(0.0);
    let write_only = run(1.0);
    assert_eq!(read_only, 0, "all-shared locking cannot deadlock");
    assert!(
        read_only <= write_only,
        "read-only {read_only} should deadlock no more than write-only {write_only}"
    );
}

#[test]
fn probe_traffic_zero_when_no_remote_waits() {
    // Purely local transactions: all deadlocks are intra-controller, so
    // the Q-optimised rule finds them with zero probes.
    let wl = DdbWorkloadConfig {
        sites: 2,
        transactions: 12,
        resources_per_site: 2,
        remote_prob: 0.0,
        write_prob: 1.0,
        seed: 13,
        ..DdbWorkloadConfig::default()
    };
    let mut db = DdbNet::new(2, DdbConfig::detect_only(60), 13);
    submit_all(&mut db, random_transactions(&wl));
    db.run_until(SimTime::from_ticks(40_000));
    assert_eq!(db.metrics().get(counters::PROBE_SENT), 0);
    db.verify_soundness().unwrap();
    db.verify_completeness().unwrap();
}

#[test]
fn batched_and_waits_sound_and_complete_across_seeds() {
    // batch_prob 1.0: every transaction issues all its locks at once
    // (AND semantics, out-degree > 1 inter-controller edges).
    for seed in 0..8 {
        let wl = DdbWorkloadConfig {
            sites: 3,
            transactions: 12,
            resources_per_site: 2,
            remote_prob: 0.6,
            write_prob: 1.0,
            batch_prob: 1.0,
            seed,
            ..DdbWorkloadConfig::default()
        };
        let mut db = DdbNet::new(3, DdbConfig::detect_only(100), seed);
        submit_all(&mut db, random_transactions(&wl));
        db.run_until(SimTime::from_ticks(40_000));
        db.verify_soundness()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        db.verify_completeness()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn wfgd_reports_only_real_edges_on_random_workloads() {
    for seed in 0..6 {
        let wl = DdbWorkloadConfig {
            sites: 3,
            transactions: 12,
            resources_per_site: 2,
            remote_prob: 0.7,
            write_prob: 1.0,
            seed,
            ..DdbWorkloadConfig::default()
        };
        let mut db = DdbNet::new(3, DdbConfig::detect_only(100), seed);
        submit_all(&mut db, random_transactions(&wl));
        db.run_until(SimTime::from_ticks(40_000));
        db.verify_soundness().unwrap();
        // Every disseminated deadlocked-portion edge exists in the
        // reconstructed agent graph (the sets are never stale or invented).
        db.verify_wfgd_edges_exist()
            .unwrap_or_else(|e| panic!("seed {seed}: stale WFGD edge {e:?}"));
    }
}

#[test]
fn lock_all_same_resource_id_at_two_sites_is_not_misattributed() {
    // Minimal reproducer for the ISSUE 6 batching wedge. TA's `lock_all`
    // waits for the *same* resource id at two different sites; S2 grants
    // immediately while S1 queues TA behind TB. Matching the grant by
    // resource id alone booked S2's grant against the S1 entry, leaving
    // the home waiting forever on a grant S2 had already sent — and
    // hiding TA's true wait at S1 from the detector, so the ensuing
    // TA/TB cycle was never declared. Grants must be attributed to the
    // site that sent them.
    use cmh_ddb::lock::LockMode;
    use cmh_ddb::txn::{LockReq, Transaction};
    use cmh_ddb::{ResourceId, TransactionId};

    let mut db = DdbNet::new(3, DdbConfig::detect_and_resolve(60, 50), 7);
    let r = ResourceId(7);
    // TB: holds r@S1 first, then closes the cycle by requesting r@S2.
    db.submit(
        Transaction::new(TransactionId(1), SiteId(2))
            .lock(SiteId(1), r, LockMode::Exclusive)
            .work(80)
            .lock(SiteId(2), r, LockMode::Exclusive)
            .work(10),
    );
    db.run_until(SimTime::from_ticks(30));
    // TA: one AND-request for r at both sites (one wait set at home).
    db.submit(
        Transaction::new(TransactionId(2), SiteId(0))
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
            ])
            .work(10),
    );
    db.run_until(SimTime::from_ticks(30_000));
    for o in db.outcomes() {
        assert_eq!(o.status, TxnStatus::Committed, "{} wedged", o.txn);
    }
    db.verify_soundness().unwrap();
    db.verify_completeness().unwrap();
    let report = db.verify_liveness().unwrap();
    assert!(report.is_empty(), "all transactions terminal");
    // The repair sweep never had to fire: the fix is in the protocol,
    // not in after-the-fact cleanup.
    assert_eq!(db.metrics().get("ddb.wedge.repaired"), 0);
}

/// Builds the canonical two-site cross deadlock: T1 (home S0) holds r0@S0
/// and requests r1@S1; T2 (home S1) holds r1@S1 and requests r0@S0.
fn cross_site_deadlock(db: &mut DdbNet) {
    use cmh_ddb::lock::LockMode;
    use cmh_ddb::txn::Transaction;
    use cmh_ddb::{ResourceId, TransactionId};
    db.submit(
        Transaction::new(TransactionId(1), SiteId(0))
            .lock(SiteId(0), ResourceId(0), LockMode::Exclusive)
            .work(20)
            .lock(SiteId(1), ResourceId(1), LockMode::Exclusive)
            .work(10),
    );
    db.submit(
        Transaction::new(TransactionId(2), SiteId(1))
            .lock(SiteId(1), ResourceId(1), LockMode::Exclusive)
            .work(20)
            .lock(SiteId(0), ResourceId(0), LockMode::Exclusive)
            .work(10),
    );
}

#[test]
fn reprobe_rearms_while_blocked_without_phantom_declarations() {
    // A long wait that is NOT a deadlock: T2 queues behind T1 while T1
    // works for 3000 ticks. The §6.7 period re-initiates for T2's queued
    // agent every 100 ticks for as long as it stays blocked — and every
    // one of those computations must come back empty.
    use cmh_ddb::lock::LockMode;
    use cmh_ddb::txn::Transaction;
    use cmh_ddb::{ResourceId, TransactionId};

    let mut db = DdbNet::new(2, DdbConfig::detect_only(100), 3);
    db.submit(
        Transaction::new(TransactionId(1), SiteId(0))
            .lock(SiteId(0), ResourceId(0), LockMode::Exclusive)
            .work(3000),
    );
    db.run_until(SimTime::from_ticks(10));
    db.submit(
        Transaction::new(TransactionId(2), SiteId(1))
            .lock(SiteId(0), ResourceId(0), LockMode::Exclusive)
            .work(10),
    );
    db.run_until(SimTime::from_ticks(20_000));
    for o in db.outcomes() {
        assert_eq!(o.status, TxnStatus::Committed, "{} wedged", o.txn);
    }
    assert!(db.declarations().is_empty(), "phantom on a plain wait");
    db.verify_soundness().unwrap();
    db.verify_completeness().unwrap();
    let initiated = db.metrics().get(counters::INITIATED);
    assert!(
        initiated >= 10,
        "a ~3000-tick wait at period 100 should re-initiate many times, got {initiated}"
    );
}

#[test]
fn reprobe_recovers_detection_after_a_partition_eats_the_probes() {
    // Re-initiation, demonstrated end to end. The cross-site deadlock
    // forms by ~t=40; a partition between the two sites over [60, 5000)
    // swallows every probe of the first periods (no reliable layer, so
    // the drop is final) and those computations are simply dead. Each
    // period re-initiates for every Q-subject, and the first computation
    // initiated after the partition heals completes and declares.
    let builder = SimBuilder::new().seed(9).faults(FaultPlan::new().partition(
        vec![NodeId(0)],
        SimTime::from_ticks(60),
        SimTime::from_ticks(5_000),
    ));
    let mut db = DdbNet::with_builder(2, DdbConfig::detect_only(100), builder);
    cross_site_deadlock(&mut db);
    db.run_until(SimTime::from_ticks(30_000));
    db.verify_soundness().unwrap();
    assert!(
        !db.declarations().is_empty(),
        "re-initiation after the partition heals must find the cycle"
    );
    db.verify_completeness().unwrap();
    let healed = SimTime::from_ticks(5_000);
    assert!(db.declarations().iter().all(|d| d.at >= healed));
    assert!(db.metrics().get(counters::INITIATED) > 0);
}

#[test]
fn batched_workload_drains_over_a_faulty_wire() {
    // The PR-6 wedge workload shape (batched AND-requests), now crossed
    // with message loss, duplication, and reordering over the reliable
    // transport: the system must still fully drain, and the liveness
    // classifier must find nothing wedged along the way or at the end.
    let wl = DdbWorkloadConfig {
        sites: 4,
        transactions: 20,
        resources_per_site: 3,
        remote_prob: 0.6,
        write_prob: 0.9,
        batch_prob: 0.4,
        mean_arrival_gap: 25,
        seed: 21,
        ..DdbWorkloadConfig::default()
    };
    let builder = SimBuilder::new()
        .seed(21)
        .faults(
            FaultPlan::new()
                .loss(0.10)
                .duplicate(0.05)
                .reorder(0.10, 30),
        )
        .reliable(ReliableConfig::default());
    let mut db = DdbNet::with_builder(4, DdbConfig::detect_and_resolve(100, 80), builder);
    submit_all(&mut db, random_transactions(&wl));
    db.run_until(SimTime::from_ticks(2_000_000));
    let outcomes = db.outcomes();
    let committed = outcomes
        .iter()
        .filter(|o| o.status == TxnStatus::Committed)
        .count();
    assert_eq!(committed, outcomes.len(), "chaos run failed to drain");
    db.verify_soundness().unwrap();
    let report = db.verify_liveness().unwrap();
    assert!(report.is_empty(), "all transactions terminal");
}

/// The benchmark's contended transaction shape (`ddb_resolve`,
/// `svc_contended`), every field spelled out.
fn contended_shape(sites: usize, transactions: usize, seed: u64) -> DdbWorkloadConfig {
    DdbWorkloadConfig {
        sites,
        transactions,
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
        seed,
    }
}

/// The first row: scripts of single locks only.
const UNBATCHED_ROW: [u64; 7] = [8_568, 918, 4_571, 354, 354, 107, 48_473];

/// Stream pin for the §5 propagation under resolution. The constants were
/// recorded at the commit *before* `cmh_ddb::wfgd` moved from `BTreeSet`s
/// compared whole to sorted vectors compared by size: a change in how many
/// `Wfgd` messages go out moves `ddb.wfgd.sent` directly and — every send
/// draws its latency from the one RNG stream — everything else with it;
/// a change in what they carry moves the `S` sets the run ends with.
///
/// The second row (`batch_prob` 0.5: scripts that mix single locks with
/// `lock_all`) was recorded at the commit *before* a single lock became a
/// `LockAll` of one.
#[test]
fn contended_resolution_stream_is_pinned() {
    stream_is_pinned(0.0, UNBATCHED_ROW);
    stream_is_pinned(0.5, [2_429, 161, 951, 65, 65, 67, 10_514]);
}

/// The net and transactions of [`stream_is_pinned`]'s run.
fn contended_resolution(batch_prob: f64) -> (DdbNet, Vec<workloads::TimedTxn>) {
    const SEED: u64 = 1;
    let db = DdbNet::new(3, DdbConfig::detect_and_resolve(2_000, 500), SEED);
    let shape = DdbWorkloadConfig {
        batch_prob,
        ..contended_shape(3, 50, SEED)
    };
    (db, random_transactions(&shape))
}

fn stream_is_pinned(batch_prob: f64, want: [u64; 7]) {
    let (mut db, txns) = contended_resolution(batch_prob);
    submit_all(&mut db, txns);
    db.run_until(SimTime::from_ticks(400_000));
    check_stream(&db, batch_prob, want);
}

/// Asserts `db`'s end state against a [`contended_resolution_stream_is_pinned`] row.
fn check_stream(db: &DdbNet, batch_prob: f64, want: [u64; 7]) {
    for o in db.outcomes() {
        assert_eq!(o.status, TxnStatus::Committed, "{} did not drain", o.txn);
    }
    let (mut informed, mut s_edges) = (0, 0);
    for site in (0..3).map(SiteId) {
        let c = db.controller(site);
        for txn in c.wfgd_informed() {
            informed += 1;
            s_edges += c.deadlocked_portion(txn).len();
        }
    }
    let m = db.metrics();
    let got = [
        m.get(simnet::metrics::builtin::EVENTS),
        m.get(counters::WFGD_SENT),
        m.get(counters::PROBE_SENT),
        m.get(counters::DECLARED),
        m.get(counters::RESTARTED),
        informed,
        s_edges as u64,
    ];
    assert_eq!(got, want, "batch_prob {batch_prob}");
    assert_eq!(m.get(counters::WEDGE_REPAIRED), 0);
    assert_eq!(m.get(counters::GRANT_ORPHAN), 0);
}

/// The `S` sets of [`contended_resolution_stream_is_pinned`]'s first run,
/// every edge of them, in iteration order: a digest of each informed
/// transaction's `deadlocked_portion` at every site, at the end of each
/// 250-tick slice. The trace and the stream row see only a payload's head
/// and the sets' sizes. Recorded on the sorted-vector `AgentEdgeSet`,
/// before it became a block bitmap; the sliced run is the pinned one (its
/// row is checked too).
#[test]
fn contended_resolution_wfgd_sets_are_pinned_per_slice() {
    const SLICE: u64 = 250;
    const END: u64 = 400_000;
    // FNV-1a's mixing step a word at a time: the run ends with ~48k edges
    // in its sets, hashed 1 600 times.
    fn mix(h: &mut u64, words: [u64; 4]) {
        for w in words {
            *h = (*h ^ w).wrapping_mul(0x1000_0000_01b3);
        }
    }
    let (mut db, txns) = contended_resolution(0.0);
    let mut txns = txns.into_iter().peekable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for end in (SLICE..=END).step_by(SLICE as usize) {
        while let Some(tt) = txns.next_if(|tt| tt.at <= end) {
            db.run_until(SimTime::from_ticks(tt.at));
            db.submit(tt.txn);
        }
        db.run_until(SimTime::from_ticks(end));
        for site in (0..3).map(SiteId) {
            let c = db.controller(site);
            for txn in c.wfgd_informed() {
                let set = c.deadlocked_portion(txn);
                mix(&mut h, [end, site.0 as u64, txn.0.into(), set.len() as u64]);
                for e in set.iter() {
                    let (a, b) = (e.0, e.1);
                    mix(
                        &mut h,
                        [
                            a.txn.0.into(),
                            a.site.0 as u64,
                            b.txn.0.into(),
                            b.site.0 as u64,
                        ],
                    );
                }
            }
        }
    }
    check_stream(&db, 0.0, UNBATCHED_ROW);
    assert_eq!(h, 0x2d04_906f_68dd_a2ca);
}
