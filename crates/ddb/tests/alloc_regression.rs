//! Allocation-regression guard for what `ddb_resolve` pays to set up,
//! what a converged deadlock pays per §5 message, and what a script pays
//! per lock step that grants at once.
//!
//! `ddb_resolve`'s `setup_s` is one `DdbNet::new(3, ..)` (26 µs), so an
//! eager allocation there — the persistent agent graph, its per-site edge
//! caches — shows in a gated benchmark metric: they are built on first
//! use instead. And under resolution the `S` sets are never reset, so most
//! `Wfgd` deliveries teach nothing (`edges ⊆ S`): that case must not touch
//! the heap.
//!
//! Same counting-allocator pattern as `crates/core/tests/alloc_regression.rs`:
//! everything in a single `#[test]` so parallel libtest threads cannot
//! pollute the global counter; the `unsafe` is confined to the
//! `GlobalAlloc` wrapper (the crate-root `#![forbid(unsafe_code)]` applies
//! to `src/`, not `tests/`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use cmh_ddb::ids::{AgentId, ResourceId, SiteId, TransactionId};
use cmh_ddb::lock::{LockMode, LockTable};
use cmh_ddb::txn::{Transaction, TxnStatus};
use cmh_ddb::wfgd::{AgentEdgeSet, DdbWfgdState, LocalTopology};
use cmh_ddb::{DdbConfig, DdbNet};

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

/// What `DdbNet::new(3, ..)` allocated at the commit before the agent
/// graph became persistent.
const NEW_3_SITES_ALLOCS: u64 = 3;

/// What submitting a home transaction of four uncontended local
/// single-lock steps allocated, start to commit, at the commit before a
/// single lock became a `LockAll` of one (when `advance` could clone the
/// `Copy`-cheap step out of the script).
const FOUR_GRANTED_LOCKS_ALLOCS: u64 = 15;

#[test]
fn construction_and_no_news_wfgd_do_not_allocate_more() {
    // --- `ddb_resolve`'s build phase. ---
    let (n, db) = allocs_in(|| DdbNet::new(3, DdbConfig::detect_and_resolve(2_000, 500), 7));
    assert!(
        n <= NEW_3_SITES_ALLOCS,
        "DdbNet::new(3, ..) allocates {n} times, was {NEW_3_SITES_ALLOCS}"
    );
    drop(db);

    // --- A converged process: (T1, S0) has an incoming inter edge from
    // its home S1 (its request queued behind T9, which waits for nothing)
    // and a local waiter T2; it has learnt two edges and told both.
    // Hearing them again, whole or in part, is no news. ---
    let (t1, t2, t9) = (TransactionId(1), TransactionId(2), TransactionId(9));
    let mut locks = LockTable::new();
    locks.request(t1, ResourceId(0), LockMode::Exclusive);
    locks.request(t2, ResourceId(0), LockMode::Exclusive);
    locks.request(t9, ResourceId(9), LockMode::Exclusive);
    locks.request(t1, ResourceId(9), LockMode::Exclusive);
    let homes = BTreeMap::from([(t1, SiteId(1))]);
    let topo = LocalTopology {
        locks: &locks,
        homes: &homes,
    };
    let agent = |t, s| AgentId::new(t, SiteId(s));
    let learnt: AgentEdgeSet = [(agent(t1, 0), agent(t1, 2)), (agent(t1, 2), agent(t2, 2))]
        .into_iter()
        .collect();
    let mut st = DdbWfgdState::new();
    assert_eq!(st.receive(SiteId(0), t1, &learnt, topo).len(), 1);
    let known = st.known_edges(t2);
    assert!(learnt.iter().all(|e| known.contains(&e)));
    let part: AgentEdgeSet = learnt.iter().take(1).collect();
    for msg in [&learnt, &part] {
        let (n, out) = allocs_in(|| st.receive(SiteId(0), t1, msg, topo));
        assert!(out.is_empty(), "nothing new, so nothing to send");
        assert_eq!(n, 0, "a no-news Wfgd delivery must not allocate");
    }

    // --- The granted path: `advance` reads each step in place, so a lock
    // step that grants at once costs no more than the lock-table entry it
    // always did. (A step that *blocks* allocates its wait set — one
    // allocation per blocked wait, accepted.) ---
    let mut db = DdbNet::new(1, DdbConfig::default(), 7);
    let txn = (0..4).fold(Transaction::new(t1, SiteId(0)), |txn, r| {
        txn.lock(SiteId(0), ResourceId(r), LockMode::Exclusive)
    });
    let (n, ()) = allocs_in(|| db.submit(txn));
    assert_eq!(
        db.controller(SiteId(0))
            .script_snapshot_of(t1)
            .map(|s| s.status),
        Some(TxnStatus::Committed)
    );
    assert!(
        n <= FOUR_GRANTED_LOCKS_ALLOCS,
        "four granted lock steps allocate {n} times, was {FOUR_GRANTED_LOCKS_ALLOCS}"
    );
}
