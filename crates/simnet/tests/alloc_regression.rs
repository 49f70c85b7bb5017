//! Allocation-regression guard for the simulator's message path.
//!
//! The send→wire→deliver hot loop is supposed to be **allocation-free in
//! steady state** when tracing is off: payloads move, the scheduler slab
//! recycles slots, metric counters are found by their name's address, and the
//! reliable layer's delivery/reorder buffers are pooled. This binary pins
//! that property with a counting global allocator:
//!
//! * clean wire — **0 allocations per delivered message** (exact);
//! * faulty wire (loss + duplication) — 0 per message as well (fault
//!   classification draws RNG, never heap; payload duplication clones a
//!   `Copy` probe);
//! * reliable transport — a small pinned budget per message. Measured 0
//!   at the recorded in-flight window (the per-channel retransmit
//!   `BTreeMap`s stay within their root node), but tree-node churn is a
//!   legal implementation detail that depends on libstd's node fan-out
//!   and the retransmit window, so the bound tolerates a few nodes per
//!   message rather than pinning 0 exactly. It still catches the ~100
//!   allocs/message this path cost before the pooled-envelope rework.
//!
//! Counter methodology: run the workload once end-to-end to warm
//! process-wide state, then build a fresh simulation of the same shape
//! and step it until it has already delivered a healthy prefix of its
//! messages — by which point every lazily-grown structure (scheduler
//! slab, event heap, metric slots, per-channel maps, pooled
//! buffers) has reached its steady size, because the in-flight
//! population peaks early in these workloads. Only then snapshot the
//! counter and charge the remaining run to its delivered messages.
//! Everything is in a single `#[test]` so parallel libtest threads
//! cannot pollute the global counter — the construction pin (what a
//! build plus 32 `add_node`s may allocate) included.
//!
//! This file is an integration test of the public API; the `unsafe` here
//! is confined to the `GlobalAlloc` wrapper (the crate-root
//! `#![forbid(unsafe_code)]` applies to `src/`, not `tests/`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use simnet::faults::FaultPlan;
use simnet::metrics::builtin;
use simnet::reliable::ReliableConfig;
use simnet::sim::{Context, NodeId, Process, SimBuilder, Simulation};

/// System allocator wrapped with an allocation counter.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is a fresh acquisition from the hot loop's viewpoint.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Fixed-size payload: what a real detector message (a probe tuple)
/// costs, with no heap of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Probe {
    hop: u64,
}

/// A ring relay: node 0 launches `seeds` independent probes; every
/// delivery forwards the probe to the next node until its hop count
/// reaches the limit. One delivery triggers one send — the tightest
/// send→deliver loop the public API can express. On a lossy wire each
/// drop kills one chain, so `seeds` sizes the workload's resilience.
struct Relay {
    next: NodeId,
    seeds: u64,
    limit: u64,
}

/// What a real run's processes add to the engine's own counters: about
/// ten kinds of their own, a few of them touched on every delivery.
const RELAY_COUNTERS: [&str; 10] = [
    "relay.hop.0",
    "relay.hop.1",
    "relay.hop.2",
    "relay.hop.3",
    "relay.hop.4",
    "relay.hop.5",
    "relay.hop.6",
    "relay.hop.7",
    "relay.hop.8",
    "relay.hop.9",
];

impl Process<Probe> for Relay {
    fn on_start(&mut self, ctx: &mut Context<'_, Probe>) {
        if ctx.id() == NodeId(0) {
            for _ in 0..self.seeds {
                ctx.send(self.next, Probe { hop: 0 });
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Probe>, _from: NodeId, msg: Probe) {
        ctx.count(RELAY_COUNTERS[msg.hop as usize % RELAY_COUNTERS.len()]);
        if msg.hop < self.limit {
            ctx.send(self.next, Probe { hop: msg.hop + 1 });
        }
    }
}

fn ring(builder: SimBuilder, nodes: usize, seeds: u64, hops: u64) -> Simulation<Probe, Relay> {
    let mut sim = builder.build();
    for i in 0..nodes {
        sim.add_node(Relay {
            next: NodeId((i + 1) % nodes),
            seeds,
            limit: hops,
        });
    }
    sim
}

/// Runs the ring workload under `mk()`'s wire and returns allocations
/// per delivered message in the post-warm-up phase. The measured window
/// opens once `warm_target` messages have been delivered and must cover
/// at least 500 more for the average to mean anything.
fn allocs_per_message(mk: impl Fn() -> SimBuilder, seeds: u64, hops: u64, warm_target: u64) -> f64 {
    // Full warm-up run for process-wide state.
    let mut warm = ring(mk(), 8, seeds, hops);
    let out = warm.run_to_quiescence(u64::MAX);
    assert!(out.quiescent, "warm-up must drain");

    // Fresh simulation: step past the population peak (all `seeds`
    // chains in flight at the start) so its own slab/heap/key growth is
    // behind us, then measure the remainder.
    let mut sim = ring(mk(), 8, seeds, hops);
    while sim.metrics().get(builtin::MESSAGES_DELIVERED) < warm_target {
        assert!(sim.step(), "workload drained during warm-up");
    }
    let delivered_before = sim.metrics().get(builtin::MESSAGES_DELIVERED);
    let live = sim.metrics().iter().count();
    assert!(
        live >= 12,
        "the pin must be taken with a real run's counter population live, not {live}"
    );
    let before = allocs();
    let out = sim.run_to_quiescence(u64::MAX);
    let after = allocs();
    assert!(out.quiescent, "measured run must drain");
    let delivered = sim.metrics().get(builtin::MESSAGES_DELIVERED) - delivered_before;
    assert!(
        delivered > 500,
        "workload too small to be meaningful ({delivered} messages measured)"
    );
    (after - before) as f64 / delivered as f64
}

/// The exact-zero pins, with one retry. The simulation is deterministic,
/// so a genuine message-path regression allocates on *every* run; but the
/// counter is process-global, and rare one-shot lazy initialisations
/// elsewhere in the process (observed: ~2 stray allocations under heavy
/// host load, once per tens of runs) can land inside the measured window.
/// Those are done by the time a second measurement runs, so requiring two
/// consecutive non-zero measurements keeps the pin exact for the hot path
/// while ignoring ambient noise.
fn assert_zero_steady_state(label: &str, measure: impl Fn() -> f64) {
    let first = measure();
    if first == 0.0 {
        return;
    }
    let second = measure();
    assert_eq!(
        second, 0.0,
        "{label} steady state must not allocate (got {first} then {second} allocs/message)"
    );
}

#[test]
fn steady_state_allocations_per_message_are_pinned() {
    // --- Construction at S = 1: a build plus 32 `add_node`s. The parent
    // of the one-engine change (its `SingleSim`) measured 4 here — the
    // process vector growing 4 → 8 → 16 → 32 — and 17 at `shards(2)`.
    // The one engine adds exactly one at S = 1, the one-element shard
    // vector itself, and nothing per node: no eager RNG fork, no
    // per-shard bookkeeping, no worker-budget lookup. ---
    let _warm = ring(SimBuilder::new().seed(1), 32, 1, 1);
    let before = allocs();
    let built = ring(SimBuilder::new().seed(1), 32, 1, 1);
    let construction = allocs() - before;
    drop(built);
    assert!(
        construction <= 5,
        "building a 32-node simulation allocated {construction} times (parent: 4, plus the shard vector)"
    );

    // --- Clean wire: exactly zero. One chain, 5000 hops. ---
    assert_zero_steady_state("clean-wire", || {
        allocs_per_message(|| SimBuilder::new().seed(7), 1, 5_000, 500)
    });

    // --- Faulty wire (loss + duplication): still zero. Each drop kills
    // one relay chain, so launch many; loss stays above the duplication
    // rate so the branching process is subcritical (expected chain
    // length ~1/(1 - 0.95·1.02) ≈ 32, times 100 chains). ---
    assert_zero_steady_state("faulty-wire", || {
        allocs_per_message(
            || {
                SimBuilder::new()
                    .seed(11)
                    .faults(FaultPlan::new().loss(0.05).duplicate(0.02))
            },
            100,
            2_000,
            500,
        )
    });

    // --- Reliable transport over a faulty wire: pinned budget. Chains
    // survive drops here (retransmission), so two chains suffice.
    // Measured 0.0 allocs/message on the recording machine, but the
    // retransmit/reorder BTreeMaps may legally churn tree nodes if the
    // in-flight window ever straddles a node boundary (libstd-version
    // dependent), so the pinned bound is loose rather than exact. It is
    // still far below a per-message `format!` (~3 allocs) plus a fresh
    // `Vec` per delivery (~2) stacked on BTree churn, which is what this
    // path cost before the rework. ---
    let reliable = allocs_per_message(
        || {
            SimBuilder::new()
                .seed(13)
                .faults(FaultPlan::new().loss(0.05).duplicate(0.02).reorder(0.1, 30))
                .reliable(ReliableConfig::default())
        },
        2,
        2_000,
        500,
    );
    assert!(
        reliable <= 8.0,
        "reliable-path allocation budget exceeded: {reliable} allocs/message > 8"
    );
}
