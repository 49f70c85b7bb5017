//! E9 — ablation: the ordered-channel assumption is load-bearing.
//!
//! The paper assumes only "that messages are received correctly and in
//! order"; axioms P1/P2 (a probe cannot overtake the request or reply
//! that recolours its edge) rest entirely on that order. This experiment
//! re-runs identical workloads with the simulator's FIFO discipline
//! switched off — deliberately *breaking* the model — and counts what the
//! proofs no longer protect:
//!
//! * **missed deadlocks** (QRP1 lost): a probe that overtakes its own
//!   request arrives before the edge blackens, is discarded as not
//!   meaningful, and the cycle's detection wave dies;
//! * **false deadlocks** (QRP2 lost): a probe that lags across an edge's
//!   deletion and re-creation can splice wait chains from different times.
//!
//! With FIFO on, both counts are zero by theorem; with FIFO off, misses
//! appear readily (falses need a rarer interleaving).

use cmh_bench::{drive, Table};
use cmh_core::engine::ValidationError;
use cmh_core::{BasicConfig, BasicNet};
use simnet::latency::LatencyModel;
use simnet::sim::SimBuilder;
use wfg::generators;
use workloads::{random_churn, ChurnConfig};

const SEEDS: u64 = 200;

fn builder(seed: u64, fifo: bool) -> SimBuilder {
    SimBuilder::new()
        .seed(seed)
        .fifo(fifo)
        .latency(LatencyModel::Uniform { lo: 1, hi: 200 })
}

/// Part A: a guaranteed ring; count runs that miss it.
fn ring_runs(fifo: bool) -> (u64, u64, u64) {
    let (mut detected, mut missed, mut false_pos) = (0u64, 0u64, 0u64);
    for seed in 0..SEEDS {
        let mut net = BasicNet::with_builder(6, BasicConfig::on_block(10), builder(seed, fifo));
        net.request_edges(&generators::cycle(6)).unwrap();
        net.run_to_quiescence(10_000_000);
        match net.verify_soundness() {
            Ok(_) => {}
            Err(ValidationError::FalseDeadlock { .. }) => false_pos += 1,
            Err(e) => panic!("unexpected: {e}"),
        }
        match net.verify_completeness() {
            Ok(_) => detected += 1,
            Err(ValidationError::MissedDeadlock { .. }) => missed += 1,
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    (detected, missed, false_pos)
}

/// Part A': same ring, but only vertex 0 initiates (one wave, no
/// redundancy from other members' computations masking a lost probe).
fn single_initiator_runs(fifo: bool) -> (u64, u64, u64) {
    let (mut detected, mut missed, mut false_pos) = (0u64, 0u64, 0u64);
    for seed in 0..SEEDS {
        let mut net = BasicNet::with_builder(6, BasicConfig::manual(), builder(seed, fifo));
        // Issue the ring requests, then have vertex 0 probe while the
        // requests are still in flight (greys) — exactly the P1 situation.
        net.request_edges(&generators::cycle(6)).unwrap();
        net.with_node(simnet::sim::NodeId(0), |p, ctx| p.initiate(ctx));
        net.run_to_quiescence(10_000_000);
        match net.verify_soundness() {
            Ok(_) => {}
            Err(ValidationError::FalseDeadlock { .. }) => false_pos += 1,
            Err(e) => panic!("unexpected: {e}"),
        }
        if net.node(simnet::sim::NodeId(0)).deadlock().is_some() {
            detected += 1;
        } else {
            missed += 1;
        }
    }
    (detected, missed, false_pos)
}

/// Part B: churn with injected cycles; count soundness violations.
fn churn_runs(fifo: bool) -> (usize, u64, u64) {
    let (mut reports, mut missed, mut false_pos) = (0usize, 0u64, 0u64);
    for seed in 0..SEEDS / 2 {
        let sched = random_churn(&ChurnConfig {
            n: 12,
            duration: 4_000,
            mean_gap: 25,
            cycle_prob: 0.06,
            cycle_len: 3,
            seed,
        });
        let mut net =
            BasicNet::with_builder(sched.n, BasicConfig::on_block(15), builder(seed, fifo));
        drive(&mut net, &sched);
        net.run_to_quiescence(10_000_000);
        match net.verify_soundness() {
            Ok(n) => reports += n,
            Err(ValidationError::FalseDeadlock { .. }) => false_pos += 1,
            Err(e) => panic!("unexpected: {e}"),
        }
        if net.verify_completeness().is_err() {
            missed += 1;
        }
    }
    (reports, missed, false_pos)
}

/// The claim, row by row: ordered channels are exact, and on the bare
/// rings (`must_lose`) unordered ones lose detections.
fn check_claim(fifo: bool, missed: u64, false_pos: u64, must_lose: bool) {
    if fifo {
        assert_eq!((missed, false_pos), (0, 0), "ordered channels are exact");
    } else if must_lose {
        assert!(missed > 0, "unordered channels lost no detection");
    }
}

fn main() {
    println!(
        "# E9: FIFO-channel ablation ({SEEDS} ring seeds, {} churn seeds)\n",
        SEEDS / 2
    );
    let mut t = Table::new([
        "scenario",
        "channels",
        "runs detected / reports",
        "runs with missed deadlock",
        "runs with false deadlock",
    ]);
    for fifo in [true, false] {
        let (detected, missed, false_pos) = ring_runs(fifo);
        check_claim(fifo, missed, false_pos, true);
        t.row([
            "ring(6), wide latency".to_string(),
            if fifo {
                "FIFO (model)".into()
            } else {
                "unordered (broken)".to_string()
            },
            detected.to_string(),
            missed.to_string(),
            false_pos.to_string(),
        ]);
    }
    for fifo in [true, false] {
        let (detected, missed, false_pos) = single_initiator_runs(fifo);
        check_claim(fifo, missed, false_pos, true);
        t.row([
            "ring(6), single initiator".to_string(),
            if fifo {
                "FIFO (model)".into()
            } else {
                "unordered (broken)".to_string()
            },
            detected.to_string(),
            missed.to_string(),
            false_pos.to_string(),
        ]);
    }
    for fifo in [true, false] {
        let (reports, missed, false_pos) = churn_runs(fifo);
        check_claim(fifo, missed, false_pos, false);
        t.row([
            "churn + injected cycles".to_string(),
            if fifo {
                "FIFO (model)".into()
            } else {
                "unordered (broken)".to_string()
            },
            reports.to_string(),
            missed.to_string(),
            false_pos.to_string(),
        ]);
    }
    t.print();
    println!("claim check: with ordered channels every deadlock is found and nothing");
    println!("false is reported; without them probes overtake the requests that would");
    println!("make them meaningful and detections are lost — the P1/P2 axioms are");
    println!("necessary, not decorative. PASS");
}
