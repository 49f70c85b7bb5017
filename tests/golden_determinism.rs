//! Golden determinism tests: fixed-seed runs must keep producing the
//! *byte-identical* event sequence across refactors.
//!
//! Every number in `EXPERIMENTS.md` quotes a seed; these tests pin a
//! digest of representative runs so an accidental determinism break (a
//! HashMap iteration, a reordered RNG draw, a changed tie-break) fails
//! loudly here instead of silently invalidating recorded results.
//!
//! If a change *intentionally* alters scheduling (new message kinds, a
//! different RNG consumption order), re-record the digests and note the
//! invalidation of previously recorded experiment outputs in the
//! changelog.

use cmh_core::{BasicConfig, BasicNet};
use cmh_ddb::{DdbConfig, DdbInitiation, DdbNet, Resolution, SiteId};
use simnet::faults::FaultPlan;
use simnet::latency::LatencyModel;
use simnet::reliable::ReliableConfig;
use simnet::sim::{NodeId, SimBuilder};
use simnet::time::SimTime;
use workloads::{dining_philosophers, drive_schedule, random_churn, ChurnConfig};

/// FNV-1a over the rendered trace: stable, dependency-free digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a continued from digest `h` over `bytes`.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn basic_digest(seed: u64) -> u64 {
    basic_digest_sharded(seed, 1)
}

fn basic_digest_sharded(seed: u64, shards: usize) -> u64 {
    basic_digest_opts(seed, shards, 0)
}

/// `workers == 0` leaves the worker count at its default (auto);
/// a nonzero count pins it, forcing the threaded handler phase even on
/// small configurations / single-core machines.
fn basic_digest_opts(seed: u64, shards: usize, workers: usize) -> u64 {
    let sched = random_churn(&ChurnConfig {
        n: 8,
        duration: 2_000,
        mean_gap: 25,
        cycle_prob: 0.08,
        cycle_len: 3,
        seed,
    });
    let mut builder = SimBuilder::new().seed(seed).trace(true).shards(shards);
    if workers > 0 {
        builder = builder.workers(workers);
    }
    let mut net = BasicNet::with_builder(sched.n, BasicConfig::on_block(10), builder);
    drive_schedule(
        &mut net,
        &sched,
        |x, at| {
            x.run_until(at);
        },
        |x, f, t| x.request(f, t).is_ok(),
    );
    net.run_to_quiescence(10_000_000);
    let rendered = net.trace().to_string();
    fnv1a(rendered.as_bytes())
}

/// [`basic_digest`]'s run driven one tick at a time: returns the trace
/// digest and a digest of every vertex's §5 set `S_j` (its `Debug` text)
/// after each tick, up to quiescence. The trace truncates each message to
/// 160 characters, so it pins only the head of a long `Wfgd` payload;
/// the second digest pins every edge of every `S_j` the run passes
/// through.
fn basic_wfgd_sets_digest(seed: u64) -> (u64, u64) {
    let sched = random_churn(&ChurnConfig {
        n: 8,
        duration: 2_000,
        mean_gap: 25,
        cycle_prob: 0.08,
        cycle_len: 3,
        seed,
    });
    let builder = SimBuilder::new().seed(seed).trace(true);
    let mut net = BasicNet::with_builder(sched.n, BasicConfig::on_block(10), builder);
    let mut events = sched.events.iter().peekable();
    let mut sets = fnv1a(b"");
    for tick in 0.. {
        while let Some(ev) = events.next_if(|ev| ev.at <= tick) {
            net.run_until(SimTime::from_ticks(ev.at));
            let _ = net.request(NodeId(ev.from), NodeId(ev.to));
        }
        let out = net.run_until(SimTime::from_ticks(tick));
        for v in 0..sched.n {
            let text = format!("{tick} {v} {:?}\n", net.node(NodeId(v)).wfgd_edges());
            sets = fnv1a_extend(sets, text.as_bytes());
        }
        if out.quiescent && events.peek().is_none() {
            break;
        }
    }
    (fnv1a(net.trace().to_string().as_bytes()), sets)
}

/// Pins the §5 sets themselves, not only the trace's head of each
/// `Wfgd` payload. Recorded on the sorted-vector `EdgeSet`, before it
/// became a block bitmap: the bitmap must carry the same edges in the
/// same order at every tick. The trace digest is `basic_digest(42)`'s
/// pin, so the tick-by-tick drive is the pinned run.
#[test]
fn basic_wfgd_sets_are_pinned_per_tick() {
    assert_eq!(
        basic_wfgd_sets_digest(42),
        (0x5399_b8da_2d09_5087, 0xbd60_2af9_e051_e5df)
    );
}

#[test]
fn identical_runs_have_identical_digests() {
    assert_eq!(basic_digest(42), basic_digest(42));
    assert_ne!(basic_digest(42), basic_digest(43));
}

fn ddb_digest(shards: usize) -> u64 {
    let builder = SimBuilder::new().seed(4).shards(shards);
    let mut db = DdbNet::with_builder(4, DdbConfig::detect_and_resolve(90, 70), builder);
    for tt in dining_philosophers(4, 25, 15) {
        db.submit(tt.txn);
    }
    db.run_until(SimTime::from_ticks(50_000));
    // Digest the observable outcome: declarations and outcomes.
    let mut s = String::new();
    for d in db.declarations() {
        s.push_str(&d.to_string());
        s.push('\n');
    }
    for o in db.outcomes() {
        s.push_str(&format!("{:?} {} {:?}\n", o.txn, o.attempts, o.finished_at));
    }
    fnv1a(s.as_bytes())
}

#[test]
fn ddb_runs_are_reproducible() {
    assert_eq!(ddb_digest(1), ddb_digest(1));
}

/// A batched (`lock_all`) workload under resolution: the path where a
/// transaction waits on several sites at once — per-site grant
/// attribution, holder back-edge probes, stale-completion suppression —
/// pinned so the next refactor of the grant sweep can't silently change
/// what this workload observes.
fn ddb_batched_digest(shards: usize) -> u64 {
    let wl = workloads::DdbWorkloadConfig {
        sites: 3,
        transactions: 12,
        resources_per_site: 2,
        remote_prob: 0.6,
        write_prob: 1.0,
        batch_prob: 1.0,
        seed: 6,
        ..workloads::DdbWorkloadConfig::default()
    };
    let builder = SimBuilder::new().seed(6).shards(shards);
    let mut db = DdbNet::with_builder(3, DdbConfig::detect_and_resolve(80, 60), builder);
    for tt in workloads::random_transactions(&wl) {
        db.run_until(SimTime::from_ticks(tt.at));
        db.submit(tt.txn);
    }
    db.run_until(SimTime::from_ticks(100_000));
    let mut s = String::new();
    for d in db.declarations() {
        s.push_str(&d.to_string());
        s.push('\n');
    }
    for o in db.outcomes() {
        s.push_str(&format!("{:?} {} {:?}\n", o.txn, o.attempts, o.finished_at));
    }
    fnv1a(s.as_bytes())
}

#[test]
fn batched_ddb_runs_are_reproducible() {
    assert_eq!(ddb_batched_digest(1), ddb_batched_digest(1));
}

/// A contended `random_transactions` input under the §6.7 Q-optimised
/// rule and resolution, over the reliable transport, with a crash and
/// restart of a site that holds queued remote requests: the detector
/// state lost at the crash, the timers re-armed under fresh epochs after
/// the restart, and grants that reach a home after its transaction
/// aborted. Digests the trace and the metrics, so every message, note and
/// counter counts.
fn ddb_crash_digest() -> u64 {
    // The crashing site and its crash window.
    let (site, at, back) = (1, 400, 900);
    let wl = workloads::DdbWorkloadConfig {
        sites: 3,
        transactions: 24,
        resources_per_site: 3,
        remote_prob: 0.6,
        write_prob: 0.9,
        work_min: 20,
        work_max: 80,
        mean_arrival_gap: 15,
        seed: 9,
        ..workloads::DdbWorkloadConfig::default()
    };
    let plan = FaultPlan::new().crash(
        NodeId(site),
        SimTime::from_ticks(at),
        Some(SimTime::from_ticks(back)),
    );
    let builder = SimBuilder::new()
        .seed(9)
        .trace(true)
        .faults(plan)
        .reliable(ReliableConfig::default());
    let cfg = DdbConfig {
        initiation: DdbInitiation::PeriodicQOpt { period: 60 },
        resolution: Resolution::AbortSubject {
            restart_backoff: 70,
        },
        ..DdbConfig::default()
    };
    let mut db = DdbNet::with_builder(3, cfg, builder);
    let txns = workloads::random_transactions(&wl);
    let homes: Vec<_> = txns.iter().map(|tt| (tt.txn.id(), tt.txn.home())).collect();
    for tt in txns {
        db.run_until(SimTime::from_ticks(tt.at));
        db.submit(tt.txn);
    }
    db.run_until(SimTime::from_ticks(at - 1));
    let crashing = db.controller(SiteId(site));
    let queued_remote = crashing
        .locks()
        .waiting_transactions()
        .filter(|t| homes.iter().any(|&(id, home)| id == *t && home.0 != site))
        .count();
    assert!(
        queued_remote > 0,
        "the crashing site queues remote requests"
    );
    db.run_until(SimTime::from_ticks(60_000));
    let rendered = format!("{}{}", db.trace(), db.metrics());
    fnv1a(rendered.as_bytes())
}

/// The naive §6.7 rule (one computation per blocked process, home waits
/// on remote sites included) under resolution on a contended input:
/// trace and metrics, as in [`ddb_crash_digest`].
fn ddb_naive_digest() -> u64 {
    let wl = workloads::DdbWorkloadConfig {
        sites: 3,
        transactions: 20,
        resources_per_site: 3,
        remote_prob: 0.6,
        write_prob: 0.9,
        work_min: 20,
        work_max: 80,
        mean_arrival_gap: 15,
        seed: 10,
        ..workloads::DdbWorkloadConfig::default()
    };
    let builder = SimBuilder::new().seed(10).trace(true);
    let cfg = DdbConfig {
        initiation: DdbInitiation::PeriodicNaive { period: 90 },
        ..DdbConfig::detect_and_resolve(90, 70)
    };
    let mut db = DdbNet::with_builder(3, cfg, builder);
    for tt in workloads::random_transactions(&wl) {
        db.run_until(SimTime::from_ticks(tt.at));
        db.submit(tt.txn);
    }
    db.run_until(SimTime::from_ticks(60_000));
    let rendered = format!("{}{}", db.trace(), db.metrics());
    fnv1a(rendered.as_bytes())
}

/// The two DDB paths [`ddb_digest`] and [`ddb_batched_digest`] leave
/// out: a crash and restart, and the naive rule. The naive pin was
/// recorded at the commit before the controller stopped keeping second
/// copies of its waits (outgoing remote waits, queued remote requests,
/// one map per own-computation fact); the crash pin at the commit before
/// the per-wait check timers went, which no periodic rule ever armed.
/// Each holds its change to its word: a representation change, not a
/// behaviour change.
#[test]
fn ddb_crash_and_naive_digests_are_pinned() {
    assert_eq!(ddb_crash_digest(), 0x0bf2_1a0f_c655_084d);
    assert_eq!(ddb_naive_digest(), 0x3709_9cbb_4890_a35f);
}

/// A chaos run: churn workload over a faulty network (loss + duplication +
/// reordering + a crash/restart) with the reliable transport on top.
fn chaos_digest(seed: u64) -> u64 {
    chaos_digest_sharded(seed, 1)
}

fn chaos_digest_sharded(seed: u64, shards: usize) -> u64 {
    chaos_digest_opts(seed, shards, 0)
}

fn chaos_digest_opts(seed: u64, shards: usize, workers: usize) -> u64 {
    let sched = random_churn(&ChurnConfig {
        n: 8,
        duration: 2_500,
        mean_gap: 25,
        cycle_prob: 0.06,
        cycle_len: 3,
        seed,
    });
    let plan = FaultPlan::new()
        .loss(0.10)
        .duplicate(0.05)
        .reorder(0.10, 40)
        .crash(
            NodeId(2),
            SimTime::from_ticks(900),
            Some(SimTime::from_ticks(1_400)),
        );
    let mut builder = SimBuilder::new()
        .seed(seed)
        .trace(true)
        .faults(plan)
        .reliable(ReliableConfig::default())
        .shards(shards);
    if workers > 0 {
        builder = builder.workers(workers);
    }
    let mut net = BasicNet::with_builder(sched.n, BasicConfig::on_block(12), builder);
    drive_schedule(
        &mut net,
        &sched,
        |x, at| {
            x.run_until(at);
        },
        |x, f, t| !x.is_crashed(f) && !x.is_crashed(t) && x.request(f, t).is_ok(),
    );
    net.run_to_quiescence(20_000_000);
    fnv1a(net.trace().to_string().as_bytes())
}

/// Same seed and same fault plan must reproduce the byte-identical trace:
/// every fault decision (which message is lost, duplicated, delayed, when
/// the crash lands) comes from the seeded RNG, never from ambient state.
#[test]
fn same_seed_and_fault_plan_give_identical_traces() {
    assert_eq!(chaos_digest(11), chaos_digest(11));
    assert_ne!(chaos_digest(11), chaos_digest(12));
}

fn metrics_digest(seed: u64) -> u64 {
    metrics_digest_sharded(seed, 1)
}

fn metrics_digest_sharded(seed: u64, shards: usize) -> u64 {
    let sched = random_churn(&ChurnConfig {
        n: 10,
        duration: 3_000,
        mean_gap: 30,
        cycle_prob: 0.05,
        cycle_len: 3,
        seed,
    });
    let builder = SimBuilder::new().seed(seed).shards(shards);
    let mut net = BasicNet::with_builder(sched.n, BasicConfig::on_block(12), builder);
    drive_schedule(
        &mut net,
        &sched,
        |x, at| {
            x.run_until(at);
        },
        |x, f, t| x.request(f, t).is_ok(),
    );
    net.run_to_quiescence(10_000_000);
    fnv1a(net.metrics().to_string().as_bytes())
}

#[test]
fn metrics_are_reproducible_across_runs() {
    assert_eq!(metrics_digest(7), metrics_digest(7));
    assert_ne!(metrics_digest(7), metrics_digest(8));
}

/// The digests above, pinned to their recorded values.
///
/// Recorded on the `BinaryHeap` + tombstone scheduler and the
/// `BTreeSet`-based detector state; the indexed event queue, `VecSet`
/// fields and lock-table reverse indexes that replaced them must be
/// observationally invisible, so these constants must keep holding.
/// Only a change that *intentionally* alters scheduling may re-record
/// them (and must note the invalidation in the changelog).
///
/// Per-site grant attribution (a grant matched by sending site and
/// resource, not by resource alone) is invisible to every pin but the
/// batched one: the basic-model scenarios don't touch the DDB
/// controller, and `ddb_digest`'s sequential scripts wait on one site at
/// a time, where per-site attribution is the identity. The batched pin
/// covers that path; it was recorded once, on the attributed protocol.
#[test]
fn digests_match_recorded_constants() {
    assert_eq!(basic_digest(42), 0x5399_b8da_2d09_5087);
    assert_eq!(basic_digest(43), 0x4f80_75ae_5018_59e6);
    assert_eq!(ddb_digest(1), 0xe092_e078_84b9_e85f);
    assert_eq!(ddb_batched_digest(1), 0x4347_d678_daca_905a);
    assert_eq!(chaos_digest(11), 0xaaa5_cc8c_8eed_08f5);
    assert_eq!(chaos_digest(12), 0xf1fb_088e_b31e_4c9a);
    assert_eq!(metrics_digest(7), 0x852a_fe84_4bc3_2c00);
}

/// The sharded conservative-window engine (DESIGN §12) must be
/// observationally *identical* to the sequential engine, not merely
/// self-consistent: the same pinned constants must come out at every
/// shard count — the DDB pins included: the controller's restart and
/// period jitter is drawn by the sequencer where the timer is armed, in
/// event order at any `S`.
#[test]
fn sharded_engine_reproduces_pinned_digests() {
    for shards in [2, 3, 4] {
        assert_eq!(ddb_digest(shards), 0xe092_e078_84b9_e85f, "ddb, S={shards}");
        assert_eq!(
            ddb_batched_digest(shards),
            0x4347_d678_daca_905a,
            "batched ddb, S={shards}"
        );
        assert_eq!(
            basic_digest_sharded(42, shards),
            0x5399_b8da_2d09_5087,
            "basic seed 42, S={shards}"
        );
        assert_eq!(
            basic_digest_sharded(43, shards),
            0x4f80_75ae_5018_59e6,
            "basic seed 43, S={shards}"
        );
        assert_eq!(
            chaos_digest_sharded(11, shards),
            0xaaa5_cc8c_8eed_08f5,
            "chaos seed 11, S={shards}"
        );
        assert_eq!(
            chaos_digest_sharded(12, shards),
            0xf1fb_088e_b31e_4c9a,
            "chaos seed 12, S={shards}"
        );
        assert_eq!(
            metrics_digest_sharded(7, shards),
            0x852a_fe84_4bc3_2c00,
            "metrics seed 7, S={shards}"
        );
    }
}

/// Pinning a worker count >1 forces the *threaded* handler phase on every
/// eligible window (the backlog-amortisation threshold is bypassed), so
/// this exercises the persistent worker pool for real even on a
/// single-core machine — and the digests must still match the pins:
/// observable order is set by the barrier merge, never by thread timing.
#[test]
fn threaded_execution_reproduces_pinned_digests() {
    for workers in [2, 4] {
        assert_eq!(
            basic_digest_opts(42, 4, workers),
            0x5399_b8da_2d09_5087,
            "basic seed 42, S=4, W={workers}"
        );
        assert_eq!(
            chaos_digest_opts(11, 4, workers),
            0xaaa5_cc8c_8eed_08f5,
            "chaos seed 11, S=4, W={workers}"
        );
    }
}

/// Churn under a wide latency floor (`Uniform { lo: 3, hi: 12 }`: no
/// message is faster than 3 ticks, while timers still land 1 tick out),
/// pinned across shard counts and worker counts. Recorded once on the
/// sequential engine; every sharded/threaded configuration must
/// reproduce it.
fn wide_floor_digest_opts(seed: u64, shards: usize, workers: usize) -> u64 {
    let sched = random_churn(&ChurnConfig {
        n: 8,
        duration: 2_000,
        mean_gap: 25,
        cycle_prob: 0.08,
        cycle_len: 3,
        seed,
    });
    let mut builder = SimBuilder::new()
        .seed(seed)
        .trace(true)
        .latency(LatencyModel::Uniform { lo: 3, hi: 12 })
        .shards(shards);
    if workers > 0 {
        builder = builder.workers(workers);
    }
    let mut net = BasicNet::with_builder(sched.n, BasicConfig::on_block(10), builder);
    drive_schedule(
        &mut net,
        &sched,
        |x, at| {
            x.run_until(at);
        },
        |x, f, t| x.request(f, t).is_ok(),
    );
    net.run_to_quiescence(10_000_000);
    fnv1a(net.trace().to_string().as_bytes())
}

#[test]
fn wide_latency_floor_reproduces_pinned_digest() {
    const PIN: u64 = 0xf700_0758_8b12_8b75;
    for shards in [1usize, 2, 4] {
        assert_eq!(
            wide_floor_digest_opts(77, shards, 0),
            PIN,
            "wide floor seed 77, S={shards}"
        );
    }
    for workers in [2usize, 4] {
        assert_eq!(
            wide_floor_digest_opts(77, 4, workers),
            PIN,
            "wide floor seed 77, S=4, W={workers}"
        );
    }
}
