//! The four simulator workloads: `basic_scale`, `basic_churn`,
//! `basic_faulty`, `ddb_resolve`.
//!
//! Each function runs one *unit* — one fresh simulation on one input
//! seed — and reports its set-up time, its timed wall (inject, advance,
//! verify) cut into small *pieces*, the `sim.events` it processed and
//! the exact counters that must repeat for a fixed seed. The advance is
//! sliced into many short blocking calls — the same events in the same
//! order as one long call — so that a repetition of the same input
//! repeats every piece and `run.rs` can keep each piece's undisturbed
//! time. Nothing here reads a `CMH_*` variable: the engine is always
//! the default (`SimBuilder::new()`, one shard).

use std::cell::RefCell;
use std::time::Instant;

use cmh_core::process::{counters as basic, BasicMsg};
use cmh_core::{BasicConfig, BasicNet, BasicProcess};
use cmh_ddb::controller::counters as ddb;
use cmh_ddb::{DdbConfig, DdbNet, TxnStatus};
use simnet::faults::FaultPlan;
use simnet::latency::LatencyModel;
use simnet::metrics::builtin;
use simnet::reliable::ReliableConfig;
use simnet::sim::{NodeId, SimBuilder, Simulation};
use simnet::time::SimTime;
use workloads::{
    drive_schedule, random_churn, random_transactions, ChurnConfig, DdbWorkloadConfig,
};

use crate::trace::Recorder;
use crate::{Sizes, Unit};

/// Liveness backstop for `run_to_quiescence`; no workload comes near it.
const MAX_EVENTS: u64 = 500_000_000;

/// Events per blocking call where a run is sliced by event count: a few
/// hundred microseconds of work, short enough that most calls fall
/// between two bursts of interference from the shared host.
const SLICE_EVENTS: u64 = 400;
/// Triples injected per timed piece of `basic_scale`'s inject phase.
const INJECT_BATCH: usize = 500;

/// E13 triples at N vertices, no journal: three of four triples close
/// into a 3-cycle (all three members must declare), the fourth stays a
/// chain that unwinds. The check is the declaration count.
pub fn basic_scale(seed: u64, sizes: &Sizes, rec: &mut Recorder) -> Unit {
    let n = sizes.scale_n;
    let mut unit = Unit::default();
    let (mut sim, build_s) = rec.span("build", |_| {
        let mut sim: Simulation<BasicMsg, BasicProcess> = SimBuilder::new().seed(seed).build_mt();
        for _ in 0..n {
            sim.add_node(BasicProcess::new(BasicConfig::on_block(10)));
        }
        sim
    });
    unit.setup_s = build_s;

    let (expected, _) = rec.span("inject", |_| {
        let mut expected = 0usize;
        let triples: Vec<usize> = (0..n / 3).collect();
        for batch in triples.chunks(INJECT_BATCH) {
            let t0 = Instant::now();
            for &t in batch {
                let (a, b, c) = (NodeId(3 * t), NodeId(3 * t + 1), NodeId(3 * t + 2));
                sim.with_node(a, |p, ctx| p.request(ctx, b).expect("fresh edge"));
                sim.with_node(b, |p, ctx| p.request(ctx, c).expect("fresh edge"));
                if t % 4 != 3 {
                    sim.with_node(c, |p, ctx| p.request(ctx, a).expect("fresh edge"));
                    expected += 3;
                }
            }
            unit.other(t0);
        }
        expected
    });
    rec.span("advance", |rec| {
        loop {
            let t0 = Instant::now();
            let out = sim.run_to_quiescence(SLICE_EVENTS);
            unit.call(t0, out.events);
            if out.quiescent {
                break;
            }
        }
        rec.count(builtin::EVENTS, sim.metrics().get(builtin::EVENTS));
    });
    let (declared, verify_s) = rec.span("verify.count", |_| {
        (0..n)
            .filter(|&i| !sim.node(NodeId(i)).declarations().is_empty())
            .count()
    });
    unit.other_s(verify_s);
    unit.work = sim.metrics().get(builtin::EVENTS);
    unit.check(
        declared == expected,
        format!("basic_scale: {declared} declared, expected {expected}"),
    );
    unit.counts = vec![
        ("sim.count.events", unit.work),
        ("sim.count.probes", sim.metrics().get(basic::PROBE_SENT)),
        ("sim.count.declared", declared as u64),
        (
            "sim.count.retransmissions",
            sim.metrics().get(builtin::RETRANSMISSIONS),
        ),
        ("sim.count.peak_queue_depth", sim.peak_queue_depth() as u64),
    ];
    rec.span("drop", |_| drop(sim));
    unit
}

const BIMODAL: LatencyModel = LatencyModel::Bimodal {
    fast_lo: 1,
    fast_hi: 5,
    slow_lo: 60,
    slow_hi: 200,
    slow_prob: 0.15,
};

/// Small-N verified churn on a clean wire: the tier-1 `stress` shape.
pub fn basic_churn(seed: u64, sizes: &Sizes, rec: &mut Recorder) -> Unit {
    let builder = SimBuilder::new().seed(seed).latency(BIMODAL);
    churn_unit(seed, sizes.churn_duration, builder, rec)
}

/// The same generator over a lossy, duplicating wire with the reliable
/// layer restoring exactly-once FIFO delivery.
pub fn basic_faulty(seed: u64, sizes: &Sizes, rec: &mut Recorder) -> Unit {
    let builder = SimBuilder::new()
        .seed(seed)
        .latency(BIMODAL)
        .faults(FaultPlan::new().loss(0.1).duplicate(0.05))
        .reliable(ReliableConfig::default());
    churn_unit(seed, sizes.faulty_duration, builder, rec)
}

fn churn_unit(seed: u64, duration: u64, builder: SimBuilder, rec: &mut Recorder) -> Unit {
    let mut unit = Unit::default();
    let (sched, gen_s) = rec.span("gen", |_| {
        random_churn(&ChurnConfig {
            n: 32,
            duration,
            mean_gap: 8,
            cycle_prob: 0.02,
            cycle_len: 4,
            seed,
        })
    });
    let (mut net, build_s) = rec.span("build", |_| {
        BasicNet::with_builder(sched.n, BasicConfig::on_block(25), builder)
    });
    unit.setup_s = gen_s + build_s;
    unit.extra.push(("workloads.gen_ms", gen_s * 1e3));

    // One blocking call per virtual tick while the schedule plays, then
    // one per `SLICE_EVENTS` events until the net is quiet.
    let driven = RefCell::new(unit);
    let (issued, _) = rec.span("drive", |_| {
        drive_schedule(
            &mut net,
            &sched,
            |net, at| {
                for tick in net.now().ticks() + 1..=at.ticks() {
                    let t0 = Instant::now();
                    let out = net.run_until(SimTime::from_ticks(tick));
                    driven.borrow_mut().call(t0, out.events);
                }
            },
            |net, from, to| {
                let t0 = Instant::now();
                let ok = net.request(from, to).is_ok();
                driven.borrow_mut().other(t0);
                ok
            },
        )
    });
    let mut unit = driven.into_inner();
    let (quiet, _) = rec.span("quiesce", |rec| {
        let mut budget = MAX_EVENTS;
        let quiet = loop {
            let t0 = Instant::now();
            let out = net.run_to_quiescence(SLICE_EVENTS);
            unit.call(t0, out.events);
            budget = budget.saturating_sub(SLICE_EVENTS);
            if out.quiescent || out.halted || budget == 0 {
                break out.quiescent;
            }
        };
        rec.count(builtin::EVENTS, net.metrics().get(builtin::EVENTS));
        quiet
    });
    let (sound, sound_s) = rec.span("verify.soundness", |_| net.verify_soundness());
    let (complete, complete_s) = rec.span("verify.completeness", |_| net.verify_completeness());
    let (journal_len, journal_s) = rec.span("journal_snapshot", |_| net.journal_snapshot().len());
    for s in [sound_s, complete_s, journal_s] {
        unit.other_s(s);
    }
    unit.work = net.metrics().get(builtin::EVENTS);

    unit.check(
        issued > 0 && quiet,
        format!("churn: issued {issued}, quiescent {quiet}"),
    );
    unit.check(sound.is_ok(), format!("verify_soundness: {sound:?}"));
    unit.check(
        complete.is_ok(),
        format!("verify_completeness: {complete:?}"),
    );
    let declared = net.metrics().get(basic::DECLARED);
    let probes = net.metrics().get(basic::PROBE_SENT);
    unit.counts = vec![
        ("sim.count.events", unit.work),
        ("sim.count.probes", probes),
        ("sim.count.declared", declared),
        (
            "sim.count.retransmissions",
            net.metrics().get(builtin::RETRANSMISSIONS),
        ),
        ("sim.count.peak_queue_depth", net.peak_queue_depth() as u64),
        ("sim.count.journal_len", journal_len as u64),
    ];
    unit
}

/// E14's contended transaction shape, shared by `ddb_resolve`, its twin
/// `svc_contended` and the `ddb.net.*` layer measurements. Every field is
/// spelled out so that a change of `DdbWorkloadConfig::default()` cannot
/// move the benchmark's inputs.
pub fn contended_shape(sites: usize, transactions: usize, seed: u64) -> DdbWorkloadConfig {
    DdbWorkloadConfig {
        sites,
        transactions,
        resources_per_site: 4,
        locks_min: 2,
        locks_max: 3,
        remote_prob: 0.6,
        write_prob: 0.9,
        work_min: 100,
        work_max: 400,
        mean_arrival_gap: 20,
        ordered: false,
        batch_prob: 0.0,
        seed,
    }
}

/// The §6 model on the simulator with detection *and* resolution: E14's
/// contended transaction shape, every transaction must commit inside the
/// tick bound, then all three verdicts.
pub fn ddb_resolve(seed: u64, sizes: &Sizes, rec: &mut Recorder) -> Unit {
    const SITES: usize = 3;
    /// Ticks after the last arrival by which every transaction must have
    /// committed; a run that needs more counts as failed.
    const DRAIN_BOUND: u64 = 2_000_000;
    /// The drain phase advances in slices of this many ticks: a few
    /// hundred microseconds of work each.
    const SLICE: u64 = 250;

    let mut unit = Unit::default();
    let (txns, gen_s) = rec.span("gen", |_| {
        random_transactions(&contended_shape(SITES, sizes.ddb_txns, seed))
    });
    let (mut db, build_s) = rec.span("build", |_| {
        DdbNet::new(SITES, DdbConfig::detect_and_resolve(2_000, 500), seed)
    });
    unit.setup_s = gen_s + build_s;
    unit.extra.push(("workloads.gen_ms", gen_s * 1e3));
    let n_txns = txns.len();

    rec.span("drive", |_| {
        for tt in txns {
            let t0 = Instant::now();
            let out = db.run_until(SimTime::from_ticks(tt.at));
            unit.call(t0, out.events);
            let t0 = Instant::now();
            db.submit(tt.txn);
            unit.other(t0);
        }
    });
    let committed = |db: &DdbNet| {
        db.outcomes()
            .iter()
            .filter(|o| o.status == TxnStatus::Committed)
            .count()
    };
    let (drained, _) = rec.span("drain", |rec| {
        let bound = db.now().ticks() + DRAIN_BOUND;
        while committed(&db) < n_txns && db.now().ticks() < bound {
            let t0 = Instant::now();
            let out = db.run_until(SimTime::from_ticks(db.now().ticks() + SLICE));
            unit.call(t0, out.events);
        }
        rec.count(builtin::EVENTS, db.metrics().get(builtin::EVENTS));
        committed(&db) == n_txns
    });
    let (sound, sound_s) = rec.span("verify.soundness", |_| db.verify_soundness());
    let (complete, complete_s) = rec.span("verify.completeness", |_| db.verify_completeness());
    let (live, live_s) = rec.span("verify.liveness", |_| db.verify_liveness());
    for s in [sound_s, complete_s, live_s] {
        unit.other_s(s);
    }
    unit.work = db.metrics().get(builtin::EVENTS);

    unit.check(
        drained,
        format!(
            "ddb_resolve seed {seed}: {}/{n_txns} committed inside the tick bound",
            committed(&db)
        ),
    );
    unit.check(sound.is_ok(), format!("verify_soundness: {sound:?}"));
    unit.check(
        complete.is_ok(),
        format!("verify_completeness: {complete:?}"),
    );
    unit.check(live.is_ok(), format!("verify_liveness: {:?}", live.err()));
    let declared = db.metrics().get(ddb::DECLARED);
    let probes = db.metrics().get(ddb::PROBE_SENT);
    unit.counts = vec![
        ("sim.count.events", unit.work),
        ("sim.count.probes", probes),
        ("sim.count.declared", declared),
        (
            "sim.count.retransmissions",
            db.metrics().get(builtin::RETRANSMISSIONS),
        ),
        ("sim.count.peak_queue_depth", db.peak_queue_depth() as u64),
        ("sim.count.committed", committed(&db) as u64),
        ("sim.count.restarted", db.metrics().get(ddb::RESTARTED)),
    ];
    unit.txns = n_txns as u64;
    unit
}
