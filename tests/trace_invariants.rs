//! Structural invariants of the simulator's traces — the communication
//! guarantees the paper's process axioms rest on, checked as observable
//! properties of whole runs rather than unit behaviours:
//!
//! * **reliability**: every sent message is delivered exactly once;
//! * **FIFO**: per ordered channel, delivery order equals send order;
//! * **finite delay** (P4): every delivery happens after its send;
//! * **accounting** on a faulty wire: per channel,
//!   `#Send + #Duplicate = #Deliver + #Drop`.
//!
//! Every check is `simnet::explore::check_trace`, the one the model
//! checker applies to each schedule; the tests here add whole-run
//! workloads and assert that each workload exercised what it claims to.

use cmh_core::{BasicConfig, BasicNet};
use simnet::explore::check_trace;
use simnet::faults::FaultPlan;
use simnet::reliable::ReliableConfig;
use simnet::sim::SimBuilder;
use simnet::trace::TraceEvent;
use workloads::{drive_schedule, random_churn, ChurnConfig};

/// Runs a traced churn workload of `n` processes for `duration` ticks
/// and returns its trace events.
fn run(n: usize, duration: u64, builder: SimBuilder, seed: u64) -> Vec<TraceEvent> {
    let sched = random_churn(&ChurnConfig {
        n,
        duration,
        mean_gap: 25,
        cycle_prob: 0.05,
        cycle_len: 3,
        seed,
    });
    let mut net = BasicNet::with_builder(sched.n, BasicConfig::on_block(15), builder);
    drive_schedule(
        &mut net,
        &sched,
        |x, at| {
            x.run_until(at);
        },
        |x, f, t| x.request(f, t).is_ok(),
    );
    net.run_to_quiescence(20_000_000);
    net.trace().events().to_vec()
}

/// A clean, ordered wire.
fn traced_run(seed: u64) -> Vec<TraceEvent> {
    run(10, 3_000, SimBuilder::new().seed(seed).trace(true), seed)
}

/// Loss + duplication + reordering from a seeded [`FaultPlan`],
/// optionally with the reliable transport layered on top.
fn faulty_traced_run(seed: u64, reliable: bool) -> Vec<TraceEvent> {
    let plan = FaultPlan::new()
        .loss(0.10)
        .duplicate(0.05)
        .reorder(0.10, 40);
    let mut builder = SimBuilder::new().seed(seed).trace(true).faults(plan);
    if reliable {
        builder = builder.reliable(ReliableConfig::default());
    }
    run(8, 2_000, builder, seed)
}

#[test]
fn every_send_is_delivered_exactly_once_in_fifo_order() {
    for seed in [1u64, 2, 3] {
        check_trace(&traced_run(seed), true, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn deliveries_never_precede_their_send() {
    for seed in [4u64, 5] {
        check_trace(&traced_run(seed), true, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Raw faulty channels: every send is accounted for — it is either dropped
/// or delivered, and each injected duplicate adds exactly one delivery.
/// The same run breaks the clean exactly-once FIFO contract, so the
/// checker must reject it under that contract.
#[test]
fn faulty_sends_are_all_accounted_for() {
    for seed in [21u64, 22, 23] {
        let events = faulty_traced_run(seed, false);
        let saw = |f: fn(&TraceEvent) -> bool| events.iter().any(f);
        assert!(
            saw(|e| matches!(e, TraceEvent::Drop { .. })),
            "seed {seed}: fault plan injected no losses"
        );
        assert!(
            saw(|e| matches!(e, TraceEvent::Duplicate { .. })),
            "seed {seed}: fault plan injected no duplicates"
        );
        check_trace(&events, false, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            check_trace(&events, true, true).is_err(),
            "seed {seed}: a lossy wire passed the exactly-once FIFO check"
        );
    }
}

/// The reliable layer over those same faulty channels restores the clean
/// contract at the application level, despite wire drops, duplicates and
/// retransmissions visible elsewhere in the trace.
#[test]
fn reliable_layer_restores_exactly_once_fifo_in_traces() {
    for seed in [21u64, 22] {
        let events = faulty_traced_run(seed, true);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::Retransmit { .. })),
            "seed {seed}: no retransmissions — faults inactive?"
        );
        check_trace(&events, true, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn trace_timestamps_are_monotone() {
    let events = traced_run(6);
    assert!(!events.is_empty());
    check_trace(&events, true, true).unwrap();
}

#[test]
fn declares_appear_as_notes() {
    // A guaranteed deadlock must leave a DECLARE note in the trace.
    let builder = SimBuilder::new().seed(9).trace(true);
    let mut net = BasicNet::with_builder(3, BasicConfig::on_block(5), builder);
    net.request_edges(&wfg::generators::cycle(3)).unwrap();
    net.run_to_quiescence(1_000_000);
    assert!(net.trace().notes_containing("DECLARE").count() >= 1);
    assert_eq!(
        net.trace().notes_containing("DECLARE").count(),
        net.declarations().len()
    );
}
