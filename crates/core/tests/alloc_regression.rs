//! Allocation-regression guard for what `basic_scale` pays per vertex and
//! what a converged knot pays per WFGD message.
//!
//! `basic_scale`'s `setup_s` is 100 000 × `add_node(BasicProcess::new(..))`,
//! so a constructor that allocates, or a process that grows, multiplies
//! straight into a gated benchmark metric. And once a knot's `S_j` sets have
//! converged every further §5 message is a no-op (`M ⊆ S_j`, every
//! predecessor already sent a message of that size) — that common case must
//! touch the heap only for the `Vec` it returns, which is empty and so
//! never allocates either.
//!
//! Same counting-allocator pattern as `crates/simnet/tests/alloc_regression.rs`:
//! everything in a single `#[test]` so parallel libtest threads cannot
//! pollute the global counter; the `unsafe` is confined to the
//! `GlobalAlloc` wrapper (the crate-root `#![forbid(unsafe_code)]` applies
//! to `src/`, not `tests/`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cmh_core::wfgd::{EdgeSet, WfgdState};
use cmh_core::{BasicConfig, BasicProcess};
use simnet::sim::NodeId;

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

#[test]
fn construction_and_converged_wfgd_do_not_allocate() {
    // --- One vertex of `basic_scale`: no heap, no growth. ---
    let cfg = BasicConfig::on_block(4);
    let (n, process) = allocs_in(|| BasicProcess::new(cfg));
    assert_eq!(n, 0, "BasicProcess::new must not allocate");
    assert!(
        std::mem::size_of::<BasicProcess>() <= 312,
        "BasicProcess grew to {} bytes",
        std::mem::size_of::<BasicProcess>()
    );
    assert!(std::mem::size_of::<WfgdState>() <= 48);
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
}
