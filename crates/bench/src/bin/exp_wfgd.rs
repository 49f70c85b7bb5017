//! E7 — the §5 WFGD computation.
//!
//! After a declaration, the WFGD computation must give **every** vertex
//! `v_j` the exact set `S_j` of edges on permanent black paths leading from
//! it, and must terminate ("a vertex never sends the same message twice").
//! We run single-initiator scenarios on deadlock shapes, let the system
//! quiesce, and compare every vertex's `S_j` against the oracle closure
//! [`wfg::oracle::wfgd_ground_truth`].

use cmh_bench::Table;
use cmh_core::{BasicConfig, BasicNet};
use simnet::sim::NodeId;
use wfg::generators::Topology;

fn run(topology: &Topology, label: &str, table: &mut Table) {
    let n = topology.vertex_count();
    let edges = topology.edges();
    // Never-initiate processes: we pick vertex 0 (always on the cycle in
    // these topologies) as the single initiator so each S_j has a single
    // well-defined ground truth.
    let mut net = BasicNet::new(n, BasicConfig::manual(), 7);
    net.request_edges(&edges).unwrap();
    net.run_to_quiescence(10_000_000);
    net.with_node(NodeId(0), |p, ctx| p.initiate(ctx));
    let out = net.run_to_quiescence(10_000_000);
    assert!(out.quiescent, "{label}: WFGD computation did not terminate");
    assert!(
        net.node(NodeId(0)).deadlock().is_some(),
        "{label}: initiator failed to declare"
    );
    let g = net.current_graph().expect("legal history");
    let mut checked = 0usize;
    let mut max_set = 0usize;
    for j in 0..n {
        let expected = wfg::oracle::wfgd_ground_truth(&g, NodeId(j), NodeId(0));
        let got = net.node(NodeId(j)).wfgd_edges();
        assert_eq!(*got, expected, "{label}: S_{j} mismatch");
        checked += 1;
        max_set = max_set.max(got.len());
    }
    let wfgd_msgs = net.metrics().get(cmh_core::process::counters::WFGD_SENT);
    table.row([
        label.to_string(),
        n.to_string(),
        edges.len().to_string(),
        wfgd_msgs.to_string(),
        max_set.to_string(),
        format!("{checked}/{n}"),
    ]);
}

fn main() {
    println!("# E7: WFGD propagation vs oracle closure (single initiator: vertex 0)\n");
    let mut t = Table::new([
        "topology",
        "N",
        "E",
        "wfgd msgs",
        "max |S_j|",
        "exact matches",
    ]);
    for n in [2usize, 4, 8, 16, 32] {
        run(&Topology::Cycle { n }, &format!("cycle({n})"), &mut t);
    }
    for (c, tl, k) in [(3usize, 2usize, 2usize), (4, 4, 4), (8, 2, 8)] {
        run(
            &Topology::CycleWithTails {
                cycle_len: c,
                tail_len: tl,
                n_tails: k,
            },
            &format!("cyc+tails({c},{tl},{k})"),
            &mut t,
        );
    }
    for (a, b) in [(3usize, 3usize), (4, 7)] {
        run(
            &Topology::FigureEight { a, b },
            &format!("fig8({a},{b})"),
            &mut t,
        );
    }
    t.print();
    println!("claim check: every vertex's S_j equals the oracle's permanent-black-path");
    println!("closure, and the computation terminated (simulation quiesced). PASS");
}
