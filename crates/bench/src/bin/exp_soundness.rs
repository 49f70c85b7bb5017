//! E4 — Monte-Carlo soundness & completeness (QRP1/QRP2, §3.5), with the
//! baselines' phantom rates for contrast.
//!
//! The same seeded churn schedules (with injected deadlocks) drive:
//!
//! * the probe computation — every declaration is machine-checked against
//!   the journalled ground truth (QRP2) and every surviving dark cycle
//!   must have a declaring member (QRP1);
//! * the timeout detector at two timeout values;
//! * the centralised detector in one-phase and two-phase modes.
//!
//! The paper proves the probe computation reports **zero** phantoms; the
//! baselines trade that away.
//!
//! With `CMH_SHARDS=S` every detector runs on `S` shards; the table is
//! byte-identical at any `S`. Every family's independent seeds fan out
//! over a worker pool.

use baselines::{central, classify, timeout, Classified, SnapshotMode};
use cmh_bench::sweep::shards_from_env;
use cmh_bench::{drive, Table};
use cmh_core::{BasicConfig, BasicNet};
use simnet::batch::par_seeds;
use simnet::latency::LatencyModel;
use simnet::sim::SimBuilder;
use workloads::{random_churn, ChurnConfig};

const RUNS: u64 = 40;
const SERVICE_DELAY: u64 = 60; // slow services: long non-deadlock waits

/// A straggler-prone network: mostly fast, occasionally very slow. All
/// detectors run under it — the probe computation's guarantees are
/// latency-independent, the centralised snapshots are not.
fn latency() -> LatencyModel {
    LatencyModel::Bimodal {
        fast_lo: 1,
        fast_hi: 6,
        slow_lo: 120,
        slow_hi: 320,
        slow_prob: 0.2,
    }
}

fn builder(seed: u64, shards: usize) -> SimBuilder {
    SimBuilder::new()
        .seed(seed)
        .latency(latency())
        .shards(shards)
}

fn schedule_for(seed: u64) -> workloads::Schedule {
    random_churn(&ChurnConfig {
        n: 20,
        duration: 12_000,
        mean_gap: 25,
        cycle_prob: 0.04,
        cycle_len: 3,
        seed,
    })
}

/// One baseline's table row from its per-seed classifications.
/// `expect_phantoms` is the claim for that baseline: it must report some.
fn baseline_row(label: String, outs: &[Classified], expect_phantoms: bool) -> [String; 6] {
    let sum = Classified {
        genuine: outs.iter().map(|c| c.genuine).sum(),
        phantom: outs.iter().map(|c| c.phantom).sum(),
    };
    assert!(
        sum.phantom > 0 || !expect_phantoms,
        "{label} reported no phantom under this workload"
    );
    [
        label,
        (sum.genuine + sum.phantom).to_string(),
        sum.genuine.to_string(),
        sum.phantom.to_string(),
        format!("{:.3}", sum.phantom_rate()),
        "-".to_string(),
    ]
}

fn main() {
    let shards = shards_from_env();
    println!("# E4: soundness/completeness Monte-Carlo ({RUNS} seeded runs per detector)\n");
    if shards > 1 {
        println!("(CMH_SHARDS={shards}: sharded engine)\n");
    }
    let mut table = Table::new([
        "detector",
        "reports",
        "genuine",
        "phantom",
        "phantom rate",
        "missed deadlocks",
    ]);

    // --- Probe computation (CMH) ---
    let cmh = par_seeds(RUNS, |seed| {
        let sched = schedule_for(seed);
        let mut net = BasicNet::with_builder(
            sched.n,
            BasicConfig::on_block(SERVICE_DELAY),
            builder(seed, shards),
        );
        drive(&mut net, &sched);
        net.run_to_quiescence(100_000_000);
        // QRP2: every declaration checked against ground truth (panics on
        // violation — soundness is an invariant here, not a statistic).
        let reports = net.verify_soundness().expect("QRP2 violated");
        let missed = net.verify_completeness().is_err();
        (reports, missed)
    });
    let cmh_reports: usize = cmh.iter().map(|(r, _)| r).sum();
    let cmh_missed = cmh.iter().filter(|(_, missed)| *missed).count();
    assert_eq!(cmh_missed, 0, "QRP1 violated: a persisting deadlock missed");
    table.row([
        "probe computation (CMH)".to_string(),
        cmh_reports.to_string(),
        cmh_reports.to_string(),
        "0".to_string(),
        "0.000".to_string(),
        cmh_missed.to_string(),
    ]);

    // --- Timeout detector ---
    for t in [100u64, 400] {
        let outs = par_seeds(RUNS, |seed| {
            let sched = schedule_for(seed);
            let mut net = timeout::net(sched.n, t, SERVICE_DELAY, builder(seed, shards));
            drive(&mut net, &sched);
            net.run_to_quiescence(100_000_000);
            classify(&net)
        });
        table.row(baseline_row(format!("timeout (T={t})"), &outs, true));
    }

    // --- Centralised detector ---
    for (mode, label) in [
        (SnapshotMode::OnePhase, "central 1-phase"),
        (SnapshotMode::TwoPhase, "central 2-phase"),
    ] {
        let outs = par_seeds(RUNS, |seed| {
            let sched = schedule_for(seed);
            let mut net = central::net(sched.n, mode, 80, SERVICE_DELAY, builder(seed, shards));
            drive(&mut net, &sched);
            // Give the poller time to settle after the last event.
            net.run_until(net.now() + 5_000);
            classify(&net)
        });
        let one_phase = mode == SnapshotMode::OnePhase;
        table.row(baseline_row(label.to_string(), &outs, one_phase));
    }

    table.print();
    println!("claim check: the probe computation reports zero phantoms (QRP2, machine-");
    println!("verified per run) and misses zero persisting deadlocks (QRP1). Timeout and");
    println!("one-phase central detection report phantoms under the same workload. PASS");
}
