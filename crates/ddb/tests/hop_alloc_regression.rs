//! Allocation-regression guard for the §6 detector's three per-event
//! costs on `ddb_resolve`: a meaningful probe hop at a controller that did
//! not initiate the computation, one pass of the periodic Q-optimised
//! procedure, and the stepping validator's refresh of one dirty site.
//! Each used to build trees (`BTreeSet` closures, label and sent sets, a
//! `BTreeMap` of computations, per-refresh edge sets); the caps are the
//! counts measured once they run on sorted slices, so a tree that comes
//! back fails here. A remote lock step is pinned too: its wait is kept
//! once, in the home script's wait set and the managing site's lock
//! table, so a second copy that comes back fails here as well.
//!
//! Same counting-allocator pattern as `alloc_regression.rs`, in its own
//! binary so that each holds a single `#[test]`: parallel libtest threads
//! cannot pollute the global counter. The `unsafe` is confined to the
//! `GlobalAlloc` wrapper (the crate-root `#![forbid(unsafe_code)]` applies
//! to `src/`, not `tests/`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cmh_ddb::controller::{counters, Controller};
use cmh_ddb::ids::{AgentId, DdbProbeTag, ResourceId, SiteId, TransactionId};
use cmh_ddb::lock::LockMode;
use cmh_ddb::msg::DdbMsg;
use cmh_ddb::txn::Transaction;
use cmh_ddb::{DdbConfig, DdbNet};
use simnet::sim::{NodeId, PendingEvent, Process, SimBuilder, Simulation};
use simnet::time::SimTime;

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

/// Heap blocks of the probe hop below: the computation's label set,
/// which spills at its second process (9 before the hop ran on sorted
/// slices).
const HOP_ALLOCS: u64 = 1;

/// Heap blocks of the first periodic pass at a ring site, which
/// initiates one computation (21 before the pass ran on sorted slices, 7
/// before a computation's subject and generation shared one map entry).
const PERIODIC_ALLOCS: u64 = 6;

/// Heap blocks of a home `start_txn` whose one step locks one remote
/// resource: its wait set (2 when the home kept a second copy of its
/// remote waits).
const REMOTE_HOME_ALLOCS: u64 = 1;

/// Heap blocks of the managing site queueing that request, the first
/// remote request it queues: the resource's lock queue and the request's
/// `waits_for` list (3 when the site kept a second copy of its queued
/// remote requests, whose first entry took a block).
const REMOTE_QUEUED_ALLOCS: u64 = 2;

/// Heap blocks of re-reading one dirty site whose edges did not change
/// (6 before): none, so the pin is an equality.
const REFRESH_ALLOCS: u64 = 0;

fn t(i: u32) -> TransactionId {
    TransactionId(i)
}

/// The fixed 3-site ring: `T_i`, homed at `S_i`, locks `r_i@S_i` and
/// then `r_{i+1}@S_{i+1}`, so `(T_i, S_{i+1})` queues behind `T_{i+1}`.
fn ring() -> impl Iterator<Item = Transaction> {
    (0..3).map(|i: u32| {
        let (home, next) = (SiteId(i as usize), SiteId((i as usize + 1) % 3));
        Transaction::new(t(i + 1), home)
            .lock(home, ResourceId(u64::from(i)), LockMode::Exclusive)
            .lock(
                next,
                ResourceId(u64::from((i + 1) % 3)),
                LockMode::Exclusive,
            )
    })
}

/// The probe `(S0, n)` along T1's inter edge `(T1,S0) → (T1,S1)`.
fn probe(n: u64) -> DdbMsg {
    let (t1, s0, s1) = (t(1), SiteId(0), SiteId(1));
    DdbMsg::Probe {
        tag: DdbProbeTag { initiator: s0, n },
        edge: (AgentId::new(t1, s0), AgentId::new(t1, s1)),
    }
}

#[test]
fn probe_hop_periodic_pass_and_site_refresh_build_no_trees() {
    // --- A meaningful hop at S1 of S0's computation: (T1, S1) queues
    // behind T2, whose home is S1 and whose remote wait at S2 gets the one
    // forwarded probe. The first computation warms S0's window. ---
    let mut db = DdbNet::new(3, DdbConfig::detect_only(1_000_000), 7);
    ring().for_each(|txn| db.submit(txn));
    db.run_until(SimTime::from_ticks(1_000));
    let hop = |db: &mut DdbNet, n| {
        db.with_controller(SiteId(1), |c, ctx| {
            allocs_in(|| c.on_message(ctx, NodeId(0), probe(n))).0
        })
    };
    hop(&mut db, 1);
    let sent = db.metrics().get(counters::PROBE_SENT);
    let hop_n = hop(&mut db, 2);
    assert_eq!(db.metrics().get(counters::PROBE_SENT), sent + 1);
    assert_eq!(db.metrics().get(counters::PROBE_MEANINGFUL), 2);
    assert!(
        hop_n <= HOP_ALLOCS,
        "a probe hop allocates {hop_n} times, was {HOP_ALLOCS}"
    );

    // --- The stepping validator re-reads a site marked dirty: S1 again,
    // whose two edges have not changed. The first read builds the graph,
    // the second hands S1's first list to the next read as its buffer. ---
    for _ in 0..2 {
        db.verify_wfgd_edges_exist().unwrap();
        db.with_controller(SiteId(1), |_, _| ());
    }
    let (refresh_n, checked) = allocs_in(|| db.verify_wfgd_edges_exist());
    assert_eq!(checked, Ok(0));
    assert_eq!(refresh_n, REFRESH_ALLOCS, "a site refresh allocates");

    // --- The first periodic pass after the ring closes: step the engine
    // up to the first timer (the scripts have no work steps, so under
    // periodic detection every timer is the detector's). ---
    let mut sim: Simulation<DdbMsg, Controller> = SimBuilder::new().seed(7).build();
    for s in 0..3 {
        sim.add_node(Controller::new(SiteId(s), DdbConfig::detect_only(100)));
    }
    for txn in ring() {
        sim.with_node(txn.home().node(), |c, ctx| c.start_txn(ctx, txn));
    }
    while !matches!(sim.peek_event(), Some((_, PendingEvent::Timer { .. }))) {
        assert!(sim.step(), "the detector timer is armed");
    }
    let (periodic_n, _) = allocs_in(|| sim.step());
    assert_eq!(sim.metrics().get(counters::INITIATED), 1);
    assert!(
        periodic_n <= PERIODIC_ALLOCS,
        "a periodic pass allocates {periodic_n} times, was {PERIODIC_ALLOCS}"
    );

    // --- A remote lock step on a warm pair of sites: S1 has granted a
    // remote request at once and queued a local one before, but never
    // queued a remote one. T5, homed at S0, then waits for r0@S1, which
    // T4 holds. ---
    let mut sim: Simulation<DdbMsg, Controller> = SimBuilder::new().seed(7).build();
    for s in 0..2 {
        sim.add_node(Controller::new(
            SiteId(s),
            DdbConfig::detect_only(1_000_000),
        ));
    }
    let (s0, s1) = (SiteId(0), SiteId(1));
    let lock = |id, home, r, work| {
        let txn = Transaction::new(t(id), home);
        txn.lock(s1, ResourceId(r), LockMode::Exclusive).work(work)
    };
    let warm_up = [lock(1, s0, 0, 10), lock(2, s1, 1, 50), lock(3, s1, 1, 10)];
    for round in [warm_up.to_vec(), vec![lock(4, s1, 0, 1_000_000)]] {
        for txn in round {
            sim.with_node(txn.home().node(), |c, ctx| c.start_txn(ctx, txn));
        }
        sim.run_until(sim.now() + 1_000);
    }
    let txn = lock(5, s0, 0, 10);
    let home_n = sim.with_node(s0.node(), |c, ctx| allocs_in(|| c.start_txn(ctx, txn)).0);
    assert!(
        home_n <= REMOTE_HOME_ALLOCS,
        "a remote lock step allocates {home_n} times at its home, was {REMOTE_HOME_ALLOCS}"
    );
    let request = |ev: Option<(NodeId, PendingEvent<'_, DdbMsg>)>| {
        matches!(
            ev,
            Some((_, PendingEvent::Deliver(DdbMsg::RemoteRequest { .. })))
        )
    };
    while !request(sim.peek_event()) {
        assert!(sim.step(), "the request is in flight");
    }
    let (queued_n, _) = allocs_in(|| sim.step());
    assert!(sim.node(s1.node()).locks().is_waiting(t(5), ResourceId(0)));
    assert!(
        queued_n <= REMOTE_QUEUED_ALLOCS,
        "queueing a remote request allocates {queued_n} times, was {REMOTE_QUEUED_ALLOCS}"
    );
    eprintln!(
        "blocks: hop {hop_n}, refresh {refresh_n}, periodic {periodic_n}, \
         remote step home {home_n} + queued {queued_n}"
    );
}
