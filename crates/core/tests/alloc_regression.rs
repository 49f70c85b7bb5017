//! Allocation-regression guard for what `basic_scale` pays per vertex and
//! what a converged knot pays per WFGD message.
//!
//! `basic_scale`'s `setup_s` is 100 000 × `add_node(BasicProcess::new(..))`,
//! so a constructor that allocates, or a process that grows, multiplies
//! straight into a gated benchmark metric; its `work_per_s` pays for every
//! heap block a vertex acquires between its request and the WFGD fixed
//! point, so that count is pinned too. A vertex of degree one owns no
//! block for its wait sets, its §4.3 table or its sender's channel-clock
//! row — each keeps its first elements inline — so the size pins below
//! keep those types at 24 bytes and the count is what is left. And once
//! a knot's `S_j` sets have converged every further §5 message is a
//! no-op (`M ⊆ S_j`, every predecessor already sent a message of that
//! size) — that common case must touch the heap only for the `Vec` it
//! returns, which is empty and so never allocates either.
//!
//! Same counting-allocator pattern as `crates/simnet/tests/alloc_regression.rs`:
//! everything in a single `#[test]` so parallel libtest threads cannot
//! pollute the global counter; the `unsafe` is confined to the
//! `GlobalAlloc` wrapper (the crate-root `#![forbid(unsafe_code)]` applies
//! to `src/`, not `tests/`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cmh_core::vset::{VecMap, VecSet};
use cmh_core::wfgd::{EdgeSet, WfgdState};
use cmh_core::{BasicConfig, BasicMsg, BasicProcess};
use simnet::sim::{NodeId, SimBuilder, Simulation};

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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by `f`.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// Heap allocations over the whole life of `triples` closed triples of
/// `basic_scale`'s shape (three requests, three declarations, WFGD to its
/// fixed point), from the first request on: the simulation and its
/// vertices are built before the count starts.
fn triple_life_allocs(triples: usize) -> u64 {
    let mut sim: Simulation<BasicMsg, BasicProcess> = SimBuilder::new().seed(7).build();
    for _ in 0..3 * triples {
        sim.add_node(BasicProcess::new(BasicConfig::on_block(10)));
    }
    let (n, ()) = allocs_in(|| {
        for t in 0..triples {
            for k in 0..3 {
                let (from, to) = (NodeId(3 * t + k), NodeId(3 * t + (k + 1) % 3));
                sim.with_node(from, |p, ctx| p.request(ctx, to).expect("fresh edge"));
            }
        }
        assert!(sim.run_to_quiescence(u64::MAX).quiescent);
    });
    for v in 0..3 * triples {
        let p = sim.node(NodeId(v));
        assert!(p.deadlock().is_some(), "vertex {v} must declare");
        assert_eq!(p.wfgd_edges().len(), 3, "vertex {v} must learn its cycle");
    }
    n
}

/// Heap allocations of one request under `cfg`, on an engine whose own
/// tables an earlier request between two other vertices has grown.
fn request_allocs(cfg: BasicConfig) -> u64 {
    let mut sim: Simulation<BasicMsg, BasicProcess> = SimBuilder::new().seed(7).build();
    for _ in 0..4 {
        sim.add_node(BasicProcess::new(cfg));
    }
    sim.with_node(NodeId(0), |p, ctx| {
        p.request(ctx, NodeId(1)).expect("fresh edge")
    });
    allocs_in(|| {
        sim.with_node(NodeId(2), |p, ctx| {
            p.request(ctx, NodeId(3)).expect("fresh edge")
        })
    })
    .0
}

#[test]
fn construction_and_converged_wfgd_do_not_allocate() {
    // --- One vertex of `basic_scale`: no heap, no growth. ---
    let cfg = BasicConfig::on_block(4);
    let (n, process) = allocs_in(|| BasicProcess::new(cfg));
    assert_eq!(n, 0, "BasicProcess::new must not allocate");
    // An allocator-shaped pin, like `TxnStep`'s 32 bytes: `basic_scale`'s
    // 100 000 pushes end on a 131 072-slot buffer, and glibc recycles that
    // through the heap only below its 32 MiB mmap-threshold ceiling. The
    // debug build carries the probe ledger (24 bytes) on top.
    let (size, cap) = (
        std::mem::size_of::<BasicProcess>(),
        if cfg!(debug_assertions) { 272 } else { 248 },
    );
    assert!(
        size <= cap && (cfg!(debug_assertions) || 131_072 * size < 32 << 20),
        "BasicProcess is {size} bytes (cap {cap}): 131 072 of them must stay under \
         32 MiB or every basic_scale build maps and faults a fresh buffer (setup_s x2)"
    );
    assert!(std::mem::size_of::<WfgdState>() <= 48);
    println!(
        "sizes: BasicProcess {size}, WfgdState {}, VecSet<NodeId> {}, EdgeSet {}, \
         VecMap<NodeId, usize> {}, BasicMsg {}",
        std::mem::size_of::<WfgdState>(),
        std::mem::size_of::<VecSet<NodeId>>(),
        std::mem::size_of::<EdgeSet>(),
        std::mem::size_of::<VecMap<NodeId, usize>>(),
        std::mem::size_of::<BasicMsg>(),
    );
    // A set or map of zero or one element lives inside its 24 bytes, and
    // a message carrying one stays a word-triple.
    assert_eq!(std::mem::size_of::<VecSet<NodeId>>(), 24);
    assert_eq!(std::mem::size_of::<EdgeSet>(), 24);
    assert_eq!(std::mem::size_of::<VecMap<NodeId, usize>>(), 24);
    assert_eq!(std::mem::size_of::<BasicMsg>(), 24);
    drop(process);

    // --- A converged vertex: v2 of the black cycle 0 -> 1 -> 2 -> 0, with
    // black predecessor v1, has learnt the whole cycle and told v1. ---
    let (me, preds) = (NodeId(2), [NodeId(1)]);
    let cycle: EdgeSet = [(0, 1), (1, 2), (2, 0)]
        .into_iter()
        .map(|(a, b)| (NodeId(a), NodeId(b)))
        .collect();
    let mut st = WfgdState::new();
    assert_eq!(st.receive(me, &cycle, preds).len(), 1);
    let stale: EdgeSet = [(NodeId(2), NodeId(0))].into_iter().collect();
    for msg in [&cycle, &stale] {
        let (n, out) = allocs_in(|| st.receive(me, msg, preds));
        assert!(out.is_empty(), "nothing new, so nothing to send");
        assert_eq!(n, 0, "a no-news WFGD message must not allocate");
    }
    assert_eq!(st.known_edges(), &cycle);

    // --- The `Delayed` bookkeeping (its box and the timer map's leaf; the
    // epoch table's first entry is inline) is paid for by `Delayed`
    // requests only. ---
    let never = request_allocs(BasicConfig::manual());
    let on_block = request_allocs(BasicConfig::on_block(4));
    let delayed = request_allocs(BasicConfig::delayed(50, 4));
    println!("request allocs: never {never}, on_block {on_block}, delayed {delayed}");
    assert_eq!(delayed - never, 2, "box, timer-map leaf");
    let probe_side = if cfg!(debug_assertions) { 2 } else { 1 };
    assert_eq!(
        on_block - never,
        probe_side,
        "an OnBlock request adds the probe log (and in debug the ledger's leaf and edge set), \
         nothing of Delayed's"
    );

    // --- One closed triple's whole life, and what each further triple
    // adds once the engine's own tables exist: the measured counts, so
    // any new block fails here. A degree-one vertex's sets, maps and
    // channel-clock row are inline; what remains per triple is the probe
    // log, the declarations, the WFGD edge sets and messages, and the
    // engine's own queue growth. The debug build also keeps the ledger. ---
    triple_life_allocs(1);
    let (one, nine) = (triple_life_allocs(1), triple_life_allocs(9));
    println!(
        "closed triple allocs: first {one}, each further {}",
        (nine - one) / 8
    );
    let (one_cap, further_cap) = if cfg!(debug_assertions) {
        (38, 29)
    } else {
        (35, 26)
    };
    assert!(
        one <= one_cap && (nine - one) / 8 <= further_cap,
        "a closed triple's life allocated {one} times (cap {one_cap}), each further \
         triple {} (cap {further_cap})",
        (nine - one) / 8
    );
}
