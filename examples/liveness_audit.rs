//! Liveness audit over the stress-shaped batched DDB workload: drives the
//! 6-site/48-transaction mixed workload under detect-and-resolve,
//! classifies every non-terminal transaction every 500 ticks along the
//! way, and writes a machine-readable summary to
//! `target/experiments/liveness.json` (uploaded as a CI artifact by the
//! `stress` job).
//!
//! Exit status is non-zero if anything ends wedged, so the audit is
//! usable as a gate as well as a report.

use std::fmt::Write as _;

use cmh_ddb::{DdbConfig, DdbNet, TxnStatus};
use simnet::time::SimTime;
use wfg::oracle::Liveness;
use workloads::DdbWorkloadConfig;

fn main() {
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
    let mut max_deadlocked = 0usize;
    let mut max_waiting = 0usize;

    let mut txns = workloads::random_transactions(&wl).into_iter().peekable();
    let horizon = 1_000_000u64;
    let mut now = 0u64;
    while now < horizon {
        let next = (now + 500).min(horizon);
        // Submit everything that arrives inside this sampling interval.
        while let Some(tt) = txns.peek() {
            if tt.at > next {
                break;
            }
            let tt = txns.next().unwrap();
            db.run_until(SimTime::from_ticks(tt.at));
            db.submit(tt.txn);
        }
        db.run_until(SimTime::from_ticks(next));
        now = next;

        let report = db.liveness_report();
        let count = |class| report.iter().filter(|(_, c)| *c == class).count();
        max_deadlocked = max_deadlocked.max(count(Liveness::Deadlocked));
        max_waiting = max_waiting.max(count(Liveness::GenuinelyWaiting));
        // Fully drained: every submitted transaction is terminal and no
        // more arrivals are due (detector timers keep ticking forever, so
        // don't wait for an empty event queue).
        if report.is_empty()
            && txns.peek().is_none()
            && db
                .outcomes()
                .iter()
                .all(|o| o.status == TxnStatus::Committed)
        {
            break;
        }
    }

    let outcomes = db.outcomes();
    let committed = outcomes
        .iter()
        .filter(|o| o.status == TxnStatus::Committed)
        .count();
    let wedged: Vec<_> = db
        .liveness_report()
        .into_iter()
        .filter(|(_, c)| *c == Liveness::Wedged)
        .map(|(home, _)| home)
        .collect();
    let soundness = db.verify_soundness();
    let metrics = db.metrics();

    println!(
        "drained {committed}/{} by t={}, peak deadlocked {max_deadlocked}, \
         peak waiting {max_waiting}",
        outcomes.len(),
        now
    );
    println!("final wedged: {wedged:?}");
    println!(
        "soundness: {soundness:?} (stale echoes excused: {})",
        db.stale_echoes()
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"workload\": \"ddb_batched_stress\",");
    let _ = writeln!(json, "  \"seed\": {},", wl.seed);
    let _ = writeln!(json, "  \"sites\": {},", wl.sites);
    let _ = writeln!(json, "  \"transactions\": {},", outcomes.len());
    let _ = writeln!(json, "  \"committed\": {committed},");
    let _ = writeln!(json, "  \"drained_at\": {now},");
    let _ = writeln!(json, "  \"wedged\": {},", wedged.len());
    let _ = writeln!(json, "  \"peak_deadlocked\": {max_deadlocked},");
    let _ = writeln!(json, "  \"peak_genuinely_waiting\": {max_waiting},");
    let _ = writeln!(json, "  \"soundness_ok\": {},", soundness.is_ok());
    let _ = writeln!(json, "  \"stale_echoes\": {},", db.stale_echoes());
    for c in [
        "ddb.declared",
        "ddb.txn.aborted",
        "ddb.txn.restarted",
        "ddb.decl.suppressed_stale",
        "ddb.wedge.repaired",
    ] {
        let _ = writeln!(json, "  \"{c}\": {},", metrics.get(c));
    }
    let _ = writeln!(json, "  \"live\": {}", wedged.is_empty());
    json.push_str("}\n");

    let out_dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(out_dir).expect("create target/experiments");
    let path = out_dir.join("liveness.json");
    std::fs::write(&path, &json).expect("write liveness.json");
    println!("wrote {}", path.display());

    if !wedged.is_empty() || soundness.is_err() || committed != outcomes.len() {
        std::process::exit(1);
    }
}
