//! E1 — probe-count bounds per computation (§4.3).
//!
//! The paper argues a vertex sends at most one probe on any outgoing edge
//! per computation, so a computation's traffic is bounded by the number of
//! edges — and by N on the single-cycle topologies where out-degrees are 1.
//! This binary measures the actual maximum probes per computation across
//! topologies and sizes.
//!
//! The topologies are independent seeded runs, swept on parallel threads
//! (the table does not depend on the thread count).

use cmh_bench::Table;
use cmh_core::{BasicConfig, BasicNet, ProbeTag};
use simnet::batch::par_map;
use simnet::sim::NodeId;
use std::collections::BTreeMap;
use wfg::generators::Topology;

fn probes_per_computation(net: &BasicNet) -> BTreeMap<ProbeTag, u64> {
    let mut per_tag: BTreeMap<ProbeTag, u64> = BTreeMap::new();
    for i in 0..net.node_count() {
        for (tag, count) in net.node(NodeId(i)).probes_sent_per_tag() {
            *per_tag.entry(tag).or_insert(0) += count;
        }
    }
    per_tag
}

/// One topology's table row.
fn run(topology: &Topology, label: &str) -> [String; 7] {
    let n = topology.vertex_count();
    let edges = topology.edges();
    let mut net = BasicNet::new(n, BasicConfig::on_block(4), 42);
    net.request_edges(&edges)
        .expect("generator produces legal requests");
    net.run_to_quiescence(50_000_000);
    net.verify_soundness().expect("QRP2");
    let per_tag = probes_per_computation(&net);
    let max_probes = per_tag.values().copied().max().unwrap_or(0);
    let computations = per_tag.len();
    let total: u64 = per_tag.values().sum();
    assert!(
        max_probes <= edges.len() as u64,
        "{label}: bound violated: {max_probes} > E={}",
        edges.len()
    );
    if let Topology::Cycle { n } = topology {
        assert_eq!(max_probes, *n as u64, "{label}: one probe per cycle edge");
    }
    [
        label.to_string(),
        n.to_string(),
        edges.len().to_string(),
        computations.to_string(),
        max_probes.to_string(),
        "yes".to_string(),
        total.to_string(),
    ]
}

fn main() {
    println!("# E1: probes per computation vs the edge bound (seed 42)\n");
    let mut cases: Vec<(Topology, String)> = Vec::new();
    for n in [4usize, 8, 16, 32, 64, 128, 256, 512] {
        cases.push((Topology::Cycle { n }, format!("cycle({n})")));
    }
    for n in [4usize, 8, 16] {
        cases.push((Topology::Complete { n }, format!("complete({n})")));
    }
    for (c, tl, k) in [(4usize, 2usize, 2usize), (8, 4, 4), (16, 8, 8)] {
        cases.push((
            Topology::CycleWithTails {
                cycle_len: c,
                tail_len: tl,
                n_tails: k,
            },
            format!("cyc+tails({c},{tl},{k})"),
        ));
    }
    for (n, p, seed) in [(32usize, 0.05, 7u64), (64, 0.03, 7), (128, 0.02, 7)] {
        cases.push((Topology::Random { n, p, seed }, format!("random({n},{p})")));
    }

    let mut t = Table::new([
        "topology",
        "N",
        "E",
        "computations",
        "max probes/comp",
        "<= E?",
        "total probes",
    ]);
    for row in par_map(cases, |(topology, label)| run(&topology, &label)) {
        t.row(row);
    }
    t.print();
    println!("claim check: on cycle(N) the max probes per computation equals N (one per edge);");
    println!("on every topology it never exceeds E. PASS");
}
