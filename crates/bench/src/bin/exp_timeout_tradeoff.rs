//! E2 — the §4.3 initiation-delay trade-off.
//!
//! "If T is too small too many probe computations are initiated and if T
//! is too large the time taken to detect deadlock (which is at least T) is
//! too large." The two sides are measured separately so neither is
//! confounded by the other:
//!
//! * **Part A** (cost of small T): deadlock-free churn — every wait is
//!   transient, so every computation is wasted work. We count computations
//!   initiated and initiations avoided, per T, averaged over seeds.
//! * **Part B** (cost of large T): a single request ring injected at time
//!   zero — a guaranteed deadlock. We measure detection latency from cycle
//!   formation (journal ground truth) to the first declaration, per T.

use cmh_bench::{formation_time, Table};
use cmh_core::process::counters;
use cmh_core::{BasicConfig, BasicNet, InitiationPolicy, ReplyPolicy};
use wfg::generators;
use workloads::{acyclic_churn, drive_schedule, ChurnConfig};

const SERVICE_DELAY: u64 = 25;
const SEEDS: [u64; 5] = [101, 202, 303, 404, 505];

fn policy(t: u64) -> BasicConfig {
    BasicConfig {
        initiation: if t == 0 {
            InitiationPolicy::OnBlock
        } else {
            InitiationPolicy::Delayed { t }
        },
        reply: ReplyPolicy::AfterDelay {
            service_delay: SERVICE_DELAY,
        },
        ..BasicConfig::default()
    }
}

fn part_a() {
    println!("## Part A: computations wasted on a deadlock-free workload\n");
    let mut table = Table::new([
        "T",
        "requests issued",
        "computations initiated",
        "initiations avoided",
        "probes sent",
    ]);
    let mut prev_comps = u64::MAX;
    for t in [0u64, 10, 25, 50, 100, 200, 400, 800] {
        let mut issued = 0usize;
        let mut comps = 0u64;
        let mut avoided = 0u64;
        let mut probes = 0u64;
        for seed in SEEDS {
            // Structurally acyclic requests: no deadlock can ever form.
            let sched = acyclic_churn(&ChurnConfig {
                n: 20,
                duration: 10_000,
                mean_gap: 30,
                cycle_prob: 0.0,
                cycle_len: 2,
                seed,
            });
            let mut net = BasicNet::new(sched.n, policy(t), seed);
            issued += drive_schedule(
                &mut net,
                &sched,
                |x, at| {
                    x.run_until(at);
                },
                |x, f, to| x.request(f, to).is_ok(),
            );
            let out = net.run_to_quiescence(100_000_000);
            assert!(out.quiescent, "deadlock-free run must quiesce");
            net.verify_soundness().expect("QRP2");
            assert_eq!(
                net.verify_completeness().expect("no cycles at quiescence"),
                0,
                "workload was supposed to be deadlock-free"
            );
            comps += net.metrics().get(counters::INITIATED);
            avoided += net.metrics().get(counters::INITIATION_AVOIDED);
            probes += net.metrics().get(counters::PROBE_SENT);
        }
        assert!(
            comps <= prev_comps,
            "T={t}: {comps} computations, more than {prev_comps} at the next smaller T"
        );
        prev_comps = comps;
        table.row([
            if t == 0 {
                "0 (on-block)".to_string()
            } else {
                t.to_string()
            },
            issued.to_string(),
            comps.to_string(),
            avoided.to_string(),
            probes.to_string(),
        ]);
    }
    table.print();
}

fn part_b() {
    println!("## Part B: detection latency on a guaranteed deadlock (ring of 6)\n");
    let mut table = Table::new([
        "T",
        "mean detection latency",
        "latency - T (traversal)",
        "computations",
    ]);
    for t in [0u64, 10, 25, 50, 100, 200, 400, 800] {
        let mut lat_sum = 0u64;
        let mut comp_sum = 0u64;
        for seed in SEEDS {
            let mut net = BasicNet::new(6, policy(t), seed);
            net.request_edges(&generators::cycle(6)).unwrap();
            net.run_to_quiescence(10_000_000);
            net.verify_soundness().expect("QRP2");
            let journal = net.journal_snapshot();
            let first = net
                .declarations()
                .into_iter()
                .min_by_key(|d| d.at)
                .expect("ring must be detected");
            let formed = formation_time(&journal, first.detector, first.at);
            lat_sum += first.at.ticks() - formed.ticks();
            comp_sum += net.metrics().get(counters::INITIATED);
        }
        let lat = lat_sum as f64 / SEEDS.len() as f64;
        assert!(lat >= t as f64, "T={t}: declared after {lat} ticks < T");
        table.row([
            if t == 0 {
                "0 (on-block)".to_string()
            } else {
                t.to_string()
            },
            format!("{lat:.0}"),
            format!("{:.0}", lat - t as f64),
            format!("{:.1}", comp_sum as f64 / SEEDS.len() as f64),
        ]);
    }
    table.print();
}

fn main() {
    println!("# E2: initiation-delay T trade-off (5 seeds per cell)\n");
    part_a();
    part_b();
    println!("claim check: Part A — computations initiated fall monotonically with T");
    println!("(avoided initiations rise); Part B — detection latency is T plus the");
    println!("cycle-traversal time, i.e. at least T. PASS");
}
