//! E13 — scaling sweep: 10⁴ → 10⁶ vertices through the detector.
//!
//! The paper's algorithm is fully distributed, so nothing in it bounds
//! the network size; what bounds a *reproduction* is the simulator. This
//! experiment drives the basic-model detector over wait-for graphs of
//! 10⁴, 10⁵ and 10⁶ vertices and prints raw engine throughput
//! (events/sec), detector throughput (probes/sec) and the memory
//! footprint per vertex (`VmHWM / N`) — the headline numbers for the
//! sharded one-tick-window engine (DESIGN §12) and the sparse
//! per-vertex tables that replaced the dense O(N) arrays (quadratic in
//! aggregate at this scale).
//!
//! The workload is a disjoint mix the oracle-free harness can check by
//! counting: vertices are grouped into triples; three out of four triples
//! close into a 3-cycle (a genuine deadlock — all three members block,
//! initiate, and must declare), every fourth stays a chain (its requests
//! must unwind via replies once the head serves). No journal or oracle is attached —
//! at 10⁶ vertices ground-truth replay would dominate everything; the
//! expected-declaration count is the correctness check.
//!
//! `CMH_SHARDS=S` selects the sharded engine (workers engage on windows
//! with enough backlog); `CMH_SCALE_MAX` overrides the largest N.

// cmh-lint: allow-file(D2) — the table's `sim ms` and per-second columns are wall clock.
use std::time::Instant;

use cmh_bench::sweep::shards_from_env;
use cmh_bench::Table;
use cmh_core::process::{counters as basic_counters, BasicMsg};
use cmh_core::{BasicConfig, BasicProcess};
use simnet::metrics::builtin;
use simnet::sim::{NodeId, SimBuilder, Simulation};

/// Peak resident set size of this process, in bytes, read from
/// `/proc/self/status` (`VmHWM`); 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        });
    kib.unwrap_or(0) * 1024
}

/// One sweep point: build the net, inject the triple workload, run to
/// quiescence. Returns (events, probes, declared, expected_declared,
/// wall-clock ms of inject + run).
fn run_point(n: usize, shards: usize) -> (u64, u64, usize, usize, f64) {
    let mut sim: Simulation<BasicMsg, BasicProcess> =
        SimBuilder::new().seed(4242).shards(shards).build_mt();
    for _ in 0..n {
        sim.add_node(BasicProcess::new(BasicConfig::on_block(10)));
    }

    // Triples (i, i+1, i+2): numbers 0,1,2 of each group request in a
    // ring — except every 4th triple, which leaves the closing edge out
    // (a chain that must unwind). Injection is part of sim time: it runs
    // handlers through `with_node`.
    let triples = n / 3;
    let mut expected_declared = 0usize;
    let started = Instant::now();
    for t in 0..triples {
        let base = 3 * t;
        let (a, b, c) = (NodeId(base), NodeId(base + 1), NodeId(base + 2));
        sim.with_node(a, |p, ctx| p.request(ctx, b).expect("fresh edge"));
        sim.with_node(b, |p, ctx| p.request(ctx, c).expect("fresh edge"));
        if t % 4 != 3 {
            sim.with_node(c, |p, ctx| p.request(ctx, a).expect("fresh edge"));
            // OnBlock: all three members initiate their own
            // computation, and each finds the cycle — three
            // declarations per closed triple.
            expected_declared += 3;
        }
    }
    sim.run_to_quiescence(u64::MAX);
    let sim_ms = started.elapsed().as_secs_f64() * 1_000.0;

    let declared: usize = (0..n)
        .filter(|&i| !sim.node(NodeId(i)).declarations().is_empty())
        .count();
    (
        sim.metrics().get(builtin::EVENTS),
        sim.metrics().get(basic_counters::PROBE_SENT),
        declared,
        expected_declared,
        sim_ms,
    )
}

fn main() {
    let shards = shards_from_env();
    let max_n: usize = std::env::var("CMH_SCALE_MAX")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1_000_000);
    let sizes: Vec<usize> = [10_000usize, 100_000, 1_000_000]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect();
    println!("# E13: scaling sweep to N={max_n} (shards={shards})\n");
    let mut table = Table::new([
        "N",
        "events",
        "probes",
        "sim ms",
        "events/sec",
        "probes/sec",
        "peak RSS MB",
        "bytes/vertex",
        "declared",
    ]);

    for &n in &sizes {
        let (events, probes, declared, expected, sim_ms) = run_point(n, shards);
        assert_eq!(
            declared, expected,
            "every member of every closed triple must declare (N={n})"
        );
        let rss = peak_rss_bytes();
        table.row([
            n.to_string(),
            events.to_string(),
            probes.to_string(),
            format!("{sim_ms:.0}"),
            format!("{:.0}", events as f64 / (sim_ms / 1_000.0).max(1e-9)),
            format!("{:.0}", probes as f64 / (sim_ms / 1_000.0).max(1e-9)),
            format!("{:.0}", rss as f64 / (1024.0 * 1024.0)),
            // VmHWM is a process-lifetime high-water mark; with N
            // ascending it reflects the current (largest-so-far) run.
            format!("{:.0}", rss as f64 / n as f64),
            declared.to_string(),
        ]);
    }

    table.print();
    println!("claim check: declaration count equals 3x the number of closed triples");
    println!("at every N — detection stays exact while the engine scales. PASS");
}
