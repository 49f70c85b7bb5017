//! E8 — detection latency vs cycle length.
//!
//! Theorem 1's proof has the probe traverse the whole cycle before the
//! initiator can declare, so detection latency should grow linearly with
//! cycle length, with a slope of roughly one per-hop message latency
//! (requests and probes pipeline around the ring). We sweep cycle length
//! under two latency models and report the measured latency from cycle
//! formation (journal ground truth) to declaration.

use cmh_bench::Table;
use cmh_core::{BasicConfig, BasicNet};
use simnet::latency::LatencyModel;
use simnet::sim::SimBuilder;
use wfg::generators;

/// Ticks from cycle formation to the first declaration.
fn run(n: usize, latency: LatencyModel, seed: u64) -> u64 {
    let builder = SimBuilder::new().seed(seed).latency(latency);
    let mut net = BasicNet::with_builder(n, BasicConfig::on_block(4), builder);
    net.request_edges(&generators::cycle(n)).unwrap();
    net.run_to_quiescence(100_000_000);
    net.verify_soundness().expect("QRP2");
    let first = net
        .declarations()
        .into_iter()
        .min_by_key(|d| d.at)
        .expect("cycle must be detected");
    let formed = net
        .formation_time(first.detector, first.at)
        .expect("legal history");
    first.at.ticks() - formed.ticks()
}

fn main() {
    println!("# E8: detection latency vs cycle length\n");
    let mut t = Table::new([
        "cycle length",
        "latency model",
        "detect latency (ticks)",
        "latency / length",
    ]);
    for &(label, ref model, hop_lo, hop_hi) in &[
        ("fixed(5)", LatencyModel::Fixed { ticks: 5 }, 5.0, 5.0),
        (
            "uniform(1..10)",
            LatencyModel::Uniform { lo: 1, hi: 10 },
            1.0,
            10.0,
        ),
    ] {
        for n in [2usize, 4, 8, 16, 32, 64, 128, 256] {
            // Average over a few seeds for the stochastic model.
            let seeds: &[u64] = if label.starts_with("fixed") {
                &[1]
            } else {
                &[1, 2, 3, 4, 5]
            };
            let total: u64 = seeds.iter().map(|&s| run(n, model.clone(), s)).sum();
            let lat = total as f64 / seeds.len() as f64;
            let per_hop = lat / n as f64;
            assert!(
                (hop_lo..=hop_hi).contains(&per_hop),
                "{label}, cycle({n}): {per_hop} ticks per edge is not one probe hop"
            );
            t.row([
                n.to_string(),
                label.to_string(),
                format!("{lat:.0}"),
                format!("{per_hop:.2}"),
            ]);
        }
    }
    t.print();
    println!("claim check: latency grows linearly in cycle length; with fixed per-hop");
    println!("latency d the slope approaches d (one probe hop per edge). PASS");
}
