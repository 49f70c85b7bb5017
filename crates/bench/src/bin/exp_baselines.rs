//! E6 — message bill and detection latency vs the baseline detectors.
//!
//! The paper's pitch against centralised schemes is implicit: probes flow
//! only while waits persist, whereas a coordinator polls 2·N messages per
//! period forever, and path-pushing ships whole paths. We drive the same
//! churn schedule into all detectors at several system sizes and tabulate
//! detection-message counts, detections and phantom counts.
//!
//! With `CMH_SHARDS=S` every detector runs on `S` shards; the table is
//! byte-identical at any `S`.

use baselines::{central, pathpush, timeout, SnapshotMode};
use cmh_bench::sweep::shards_from_env;
use cmh_bench::{drive, Table};
use cmh_core::process::counters::PROBE_SENT;
use cmh_core::{BasicConfig, BasicNet, Classified};
use simnet::sim::SimBuilder;
use simnet::time::SimTime;
use workloads::{random_churn, ChurnConfig, Schedule};

const SERVICE_DELAY: u64 = 20;
const HORIZON: u64 = 15_000;

fn schedule_for(n: usize, seed: u64) -> Schedule {
    random_churn(&ChurnConfig {
        n,
        duration: 10_000,
        mean_gap: 30,
        cycle_prob: 0.03,
        cycle_len: 3,
        seed,
    })
}

struct Row {
    detector: String,
    detection_msgs: u64,
    reports: usize,
    genuine: usize,
    phantom: usize,
}

impl Row {
    fn new(detector: &str, detection_msgs: u64, c: Classified) -> Row {
        Row {
            detector: detector.into(),
            detection_msgs,
            reports: c.genuine + c.phantom,
            genuine: c.genuine,
            phantom: c.phantom,
        }
    }
}

fn run_all(n: usize, seed: u64, shards: usize) -> Vec<Row> {
    let sched = schedule_for(n, seed);
    let builder = || SimBuilder::new().seed(seed).shards(shards);
    let horizon = SimTime::from_ticks(HORIZON);
    let mut rows = Vec::new();
    for (label, cfg) in [
        ("CMH (on-block)", BasicConfig::on_block(SERVICE_DELAY)),
        ("CMH (T=100)", BasicConfig::delayed(100, SERVICE_DELAY)),
    ] {
        let mut net = BasicNet::with_builder(n, cfg, builder());
        drive(&mut net, &sched);
        net.run_to_quiescence(100_000_000);
        // QRP2 holds, so every declaration is genuine.
        let c = net.classify();
        assert_eq!(c.phantom, 0, "QRP2");
        rows.push(Row::new(label, net.metrics().get(PROBE_SENT), c));
    }
    for (mode, label) in [
        (SnapshotMode::OnePhase, "central 1-phase"),
        (SnapshotMode::TwoPhase, "central 2-phase"),
    ] {
        let mut net = central::net(n, mode, 100, SERVICE_DELAY, builder());
        drive(&mut net, &sched);
        net.run_until(horizon);
        let polls = net.metrics().get(central::counters::SNAP_REQUEST)
            + net.metrics().get(central::counters::SNAP_REPLY);
        rows.push(Row::new(label, polls, net.classify()));
    }
    let mut net = pathpush::net(n, 100, SERVICE_DELAY, true, builder());
    drive(&mut net, &sched);
    net.run_until(horizon);
    let paths = net.metrics().get(pathpush::counters::PATH_SENT);
    rows.push(Row::new("path-pushing (opt)", paths, net.classify()));
    let mut net = timeout::net(n, 200, SERVICE_DELAY, builder());
    drive(&mut net, &sched);
    net.run_to_quiescence(100_000_000);
    rows.push(Row::new("timeout (T=200)", 0, net.classify()));
    rows
}

fn main() {
    let shards = shards_from_env();
    println!("# E6: detection-message bill vs baselines (same schedules, 3 seeds)\n");
    if shards > 1 {
        println!("(CMH_SHARDS={shards}: sharded engine)\n");
    }
    let mut t = Table::new([
        "N",
        "detector",
        "detection msgs",
        "reports",
        "genuine",
        "phantom",
    ]);
    let mut prev_timeout_phantoms = 0;
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for n in [8usize, 16, 32, 64] {
        let mut acc: Vec<Row> = Vec::new();
        for seed in [5u64, 6, 7] {
            for (i, r) in run_all(n, seed, shards).into_iter().enumerate() {
                if acc.len() <= i {
                    acc.push(r);
                } else {
                    acc[i].detection_msgs += r.detection_msgs;
                    acc[i].reports += r.reports;
                    acc[i].genuine += r.genuine;
                    acc[i].phantom += r.phantom;
                }
            }
        }
        // Row order is run_all's: CMH first, path-pushing and timeout last.
        let (cmh, pathpush, timeout) = (&acc[0], &acc[4], &acc[5]);
        assert!(
            pathpush.detection_msgs >= 5 * cmh.detection_msgs,
            "N={n}: path-pushing's bill is under 5x CMH's"
        );
        let ratio = pathpush.detection_msgs as f64 / cmh.detection_msgs as f64;
        (lo, hi) = (lo.min(ratio), hi.max(ratio));
        assert!(
            timeout.phantom > prev_timeout_phantoms,
            "N={n}: timeout phantoms did not grow with system size"
        );
        prev_timeout_phantoms = timeout.phantom;
        for r in acc {
            t.row([
                n.to_string(),
                r.detector,
                r.detection_msgs.to_string(),
                r.reports.to_string(),
                r.genuine.to_string(),
                r.phantom.to_string(),
            ]);
        }
    }
    t.print();
    println!("claim check: CMH is exact (0 phantom) at a message bill well below");
    println!(
        "path-pushing ({lo:.1}-{hi:.1}x) and, unlike the coordinator's, proportional to actual"
    );
    println!("blocking rather than N x polling rounds; timeout is free but its phantom");
    println!("count grows with system size. PASS");
}
