//! Cross-crate integration tests: workload generators driving the basic
//! model, with the paper's properties machine-checked on every run.

use cmh_core::{BasicConfig, BasicNet, InitiationPolicy, ReplyPolicy};
use simnet::latency::LatencyModel;
use simnet::sim::{NodeId, SimBuilder};
use wfg::generators::{self, Topology};
use workloads::{drive_schedule, random_churn, ChurnConfig};

fn drive(net: &mut BasicNet, schedule: &workloads::Schedule) -> usize {
    drive_schedule(
        net,
        schedule,
        |n, at| {
            n.run_until(at);
        },
        |n, from, to| n.request(from, to).is_ok(),
    )
}

#[test]
fn topology_matrix_detects_every_deadlock() {
    let topologies = [
        Topology::Cycle { n: 2 },
        Topology::Cycle { n: 7 },
        Topology::FigureEight { a: 3, b: 4 },
        Topology::CycleWithTails {
            cycle_len: 5,
            tail_len: 3,
            n_tails: 3,
        },
        Topology::Complete { n: 6 },
    ];
    for t in topologies {
        let mut net = BasicNet::new(t.vertex_count(), BasicConfig::on_block(3), 9);
        net.request_edges(&t.edges()).unwrap();
        net.run_to_quiescence(50_000_000);
        let sound = net
            .verify_soundness()
            .unwrap_or_else(|e| panic!("{t:?}: {e}"));
        assert!(sound >= 1, "{t:?}: nothing declared");
        net.verify_completeness()
            .unwrap_or_else(|e| panic!("{t:?}: {e}"));
    }
}

#[test]
fn churn_with_injected_cycles_is_sound_and_complete_across_seeds() {
    for seed in 0..12 {
        let sched = random_churn(&ChurnConfig {
            n: 14,
            duration: 6_000,
            mean_gap: 30,
            cycle_prob: 0.05,
            cycle_len: 3,
            seed,
        });
        let mut net = BasicNet::new(sched.n, BasicConfig::on_block(20), seed);
        drive(&mut net, &sched);
        net.run_to_quiescence(50_000_000);
        net.verify_soundness()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        net.verify_completeness()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn acyclic_churn_never_declares() {
    for seed in 0..8 {
        let sched = workloads::acyclic_churn(&ChurnConfig {
            n: 12,
            duration: 5_000,
            mean_gap: 25,
            cycle_prob: 0.0,
            cycle_len: 2,
            seed,
        });
        let mut net = BasicNet::new(sched.n, BasicConfig::on_block(40), seed);
        drive(&mut net, &sched);
        let out = net.run_to_quiescence(50_000_000);
        assert!(out.quiescent, "seed {seed}");
        assert!(net.declarations().is_empty(), "seed {seed}: phantom");
        assert!(
            net.current_graph().unwrap().is_empty(),
            "seed {seed}: residue"
        );
    }
}

#[test]
fn identical_seeds_give_identical_runs() {
    let sched = random_churn(&ChurnConfig {
        n: 10,
        duration: 4_000,
        mean_gap: 25,
        cycle_prob: 0.08,
        cycle_len: 3,
        seed: 77,
    });
    let run = || {
        let mut net = BasicNet::new(sched.n, BasicConfig::on_block(15), 77);
        drive(&mut net, &sched);
        net.run_to_quiescence(50_000_000);
        (
            net.declarations(),
            net.metrics().get(cmh_core::process::counters::PROBE_SENT),
            net.now(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn detection_works_under_every_latency_model() {
    /// Which variant a model is. The `match` is exhaustive, so a new
    /// `LatencyModel` variant does not compile until it has an arm here,
    /// and the sweep below fails until one of its models uses that arm.
    fn variant(m: &LatencyModel) -> usize {
        match m {
            LatencyModel::Fixed { .. } => 0,
            LatencyModel::Uniform { .. } => 1,
            LatencyModel::Bimodal { .. } => 2,
        }
    }
    const VARIANTS: usize = 3;
    let models = [
        LatencyModel::Fixed { ticks: 4 },
        LatencyModel::Uniform { lo: 1, hi: 30 },
        LatencyModel::Bimodal {
            fast_lo: 1,
            fast_hi: 3,
            slow_lo: 80,
            slow_hi: 160,
            slow_prob: 0.3,
        },
    ];
    let mut covered = [false; VARIANTS];
    for (i, model) in models.into_iter().enumerate() {
        covered[variant(&model)] = true;
        let builder = SimBuilder::new().seed(i as u64).latency(model.clone());
        let mut net = BasicNet::with_builder(6, BasicConfig::on_block(5), builder);
        net.request_edges(&generators::cycle(6)).unwrap();
        net.run_to_quiescence(50_000_000);
        assert!(
            net.verify_soundness().unwrap() >= 1,
            "{model:?}: not detected"
        );
        net.verify_completeness().unwrap();
    }
    assert!(covered.iter().all(|&c| c), "a latency model is not swept");
}

#[test]
fn delayed_policy_still_complete_on_permanent_deadlock() {
    for t in [30u64, 150, 600] {
        let cfg = BasicConfig {
            initiation: InitiationPolicy::Delayed { t },
            reply: ReplyPolicy::AfterDelay { service_delay: 5 },
            ..BasicConfig::default()
        };
        let mut net = BasicNet::new(5, cfg, t);
        net.request_edges(&generators::cycle(5)).unwrap();
        net.run_to_quiescence(50_000_000);
        assert!(net.verify_soundness().unwrap() >= 1, "T={t}");
        net.verify_completeness().unwrap();
        // Latency is bounded below by T.
        let first = net.declarations().into_iter().map(|d| d.at).min().unwrap();
        assert!(first.ticks() >= t, "T={t}: declared at {first}");
    }
}

#[test]
fn two_disjoint_deadlocks_both_detected() {
    // Ring over 0..4 and ring over 5..8, plus a bystander chain.
    let mut edges: Vec<(usize, usize)> = (0..4).map(|i| (i, (i + 1) % 4)).collect();
    edges.extend((0..4).map(|i| (5 + i, 5 + (i + 1) % 4)));
    edges.push((9, 0)); // bystander waiting into the first ring
    let mut net = BasicNet::new(10, BasicConfig::on_block(4), 3);
    net.request_edges(&edges).unwrap();
    net.run_to_quiescence(50_000_000);
    net.verify_soundness().unwrap();
    assert_eq!(net.verify_completeness().unwrap(), 8);
    // The bystander never declares (it is blocked but not on a cycle).
    assert!(net.node(NodeId(9)).deadlock().is_none());
}

#[test]
fn late_request_onto_existing_deadlock_is_safe() {
    let mut net = BasicNet::new(5, BasicConfig::on_block(4), 8);
    net.request_edges(&generators::cycle(3)).unwrap();
    net.run_to_quiescence(50_000_000);
    assert!(net.verify_soundness().unwrap() >= 1);
    // Two more processes chain onto the dead ring afterwards.
    net.request(NodeId(3), NodeId(0)).unwrap();
    net.request(NodeId(4), NodeId(3)).unwrap();
    net.run_to_quiescence(50_000_000);
    net.verify_soundness().unwrap();
    net.verify_completeness().unwrap();
    assert!(net.node(NodeId(3)).deadlock().is_none());
    assert!(net.node(NodeId(4)).deadlock().is_none());
}

#[test]
fn wfgd_reaches_upstream_blocked_processes() {
    // Ring 0-1-2 with tail 4 -> 3 -> 0; single initiator for a clean check.
    let mut net = BasicNet::new(5, BasicConfig::manual(), 2);
    net.request_edges(&[(0, 1), (1, 2), (2, 0), (3, 0), (4, 3)])
        .unwrap();
    net.run_to_quiescence(50_000_000);
    net.with_node(NodeId(0), |p, ctx| p.initiate(ctx));
    net.run_to_quiescence(50_000_000);
    let g = net.current_graph().unwrap();
    for j in 0..5 {
        let expected = wfg::oracle::wfgd_ground_truth(&g, NodeId(j), NodeId(0));
        assert_eq!(net.node(NodeId(j)).wfgd_edges(), &expected, "S_{j}");
    }
    // The tail vertices learned their path into the cycle.
    assert!(!net.node(NodeId(4)).wfgd_edges().is_empty());
}
