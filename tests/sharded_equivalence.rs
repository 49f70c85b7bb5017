//! Property-based equivalence: for *arbitrary* seeded topologies and
//! churn workloads, the sharded engine (S > 1) must
//! produce the byte-identical event trace and metrics of the sequential
//! engine (S = 1) — not merely the same declarations. The golden tests
//! pin a handful of configurations to recorded constants; this sweep
//! covers the space between the pins.
//!
//! The comparison is strict equality of the *rendered* trace, so any
//! divergence in delivery times, RNG draws, FIFO tie-breaks, fault
//! decisions, crash handling or retransmission scheduling fails with the
//! first differing line.

use std::collections::BTreeSet;

use cmh_core::{BasicConfig, BasicNet};
use cmh_ddb::{DdbConfig, DdbNet};
use proptest::prelude::*;
use simnet::faults::FaultPlan;
use simnet::latency::LatencyModel;
use simnet::reliable::ReliableConfig;
use simnet::sim::{Context, NodeId, Process, SimBuilder, TimerId};
use simnet::time::SimTime;
use workloads::{
    drive_schedule, random_churn, random_transactions, ChurnConfig, DdbWorkloadConfig,
};

/// Runs one churn workload on `shards` shards (0 workers = auto) with a
/// latency floor of `min_delay` ticks (1 = the default model; larger
/// floors spread a run's events over more, sparser ticks) and returns
/// the rendered trace plus the rendered metrics.
fn run(
    seed: u64,
    n: usize,
    mean_gap: u64,
    cycle_prob: f64,
    faulty: bool,
    (shards, workers): (usize, usize),
    min_delay: u64,
) -> (String, String) {
    let sched = random_churn(&ChurnConfig {
        n,
        duration: 1_500,
        mean_gap,
        cycle_prob,
        cycle_len: 3,
        seed,
    });
    // `{1, 10}` is the default model.
    let mut builder = SimBuilder::new()
        .seed(seed)
        .trace(true)
        .shards(shards)
        .latency(LatencyModel::Uniform {
            lo: min_delay,
            hi: min_delay + 9,
        });
    if faulty {
        builder = builder
            .faults(
                FaultPlan::new()
                    .loss(0.08)
                    .duplicate(0.04)
                    .reorder(0.08, 30)
                    .crash(
                        NodeId(1),
                        SimTime::from_ticks(500),
                        Some(SimTime::from_ticks(900)),
                    ),
            )
            .reliable(ReliableConfig::default());
    }
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
        |x, f, t| !x.is_crashed(f) && !x.is_crashed(t) && x.request(f, t).is_ok(),
    );
    net.run_to_quiescence(10_000_000);
    (net.trace().to_string(), net.metrics().to_string())
}

/// Arms a timer, lets it fire, re-arms (reusing the released slab slot on
/// the sharded engine), then cancels with the *stale* first id. The fresh
/// timer must still fire: slot generations have to survive release/realloc,
/// or the stale cancel aliases the slot's next tenant.
struct StaleCancelProc {
    stale: Option<TimerId>,
}

impl Process<()> for StaleCancelProc {
    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        self.stale = Some(ctx.set_timer(1, 1));
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _id: TimerId, tag: u64) {
        match tag {
            1 => {
                // The fired timer's slot is free again; this re-arm reuses
                // it. The stale id must then name a dead generation.
                ctx.set_timer(1, 2);
                let stale = self.stale.take().expect("armed in on_start");
                ctx.cancel_timer(stale);
            }
            2 => ctx.count("fresh_timer_fired"),
            _ => unreachable!("unknown tag"),
        }
    }
}

/// A stale-id cancel after slot reuse is a no-op on every engine: the
/// fresh timer still fires (per node), identically at S ∈ {1, 2, 4}.
#[test]
fn stale_timer_cancel_does_not_hit_reused_slot() {
    for shards in [1usize, 2, 4] {
        let mut sim = SimBuilder::new().seed(7).shards(shards).build();
        for _ in 0..4 {
            sim.add_node(StaleCancelProc { stale: None });
        }
        let out = sim.run_to_quiescence(10_000);
        assert!(out.quiescent, "S={shards}");
        assert_eq!(
            sim.metrics().get("fresh_timer_fired"),
            4,
            "S={shards}: stale cancel must not kill the reused slot's fresh timer"
        );
    }
}

/// When the `max_events` budget binds mid-run, the sharded engine must
/// truncate at the same global `(time, seq)` prefix as the sequential
/// engine — traces, metrics, and event counts stay identical even though
/// the backstop fired.
#[test]
fn binding_event_budget_truncates_identically() {
    // Budgets chosen to land mid-tick on a busy window (many same-tick
    // probe deliveries) as well as on quiet ones.
    for budget in [37u64, 250, 900] {
        let mut results = Vec::new();
        for shards in [1usize, 4] {
            let sched = random_churn(&ChurnConfig {
                n: 8,
                duration: 800,
                mean_gap: 20,
                cycle_prob: 0.1,
                cycle_len: 3,
                seed: 13,
            });
            let builder = SimBuilder::new().seed(13).trace(true).shards(shards);
            let mut net = BasicNet::with_builder(sched.n, BasicConfig::on_block(8), builder);
            drive_schedule(
                &mut net,
                &sched,
                |x, at| {
                    x.run_until(at);
                },
                |x, f, t| x.request(f, t).is_ok(),
            );
            let out = net.run_to_quiescence(budget);
            results.push((
                out.events,
                net.trace().to_string(),
                net.metrics().to_string(),
            ));
        }
        let (seq, sharded) = (&results[0], &results[1]);
        assert_eq!(seq.0, sharded.0, "budget={budget}: event counts diverged");
        assert_eq!(seq.1, sharded.1, "budget={budget}: traces diverged");
        assert_eq!(seq.2, sharded.2, "budget={budget}: metrics diverged");
    }
}

/// Re-arms a 1-tick timer on every firing and pings a neighbour each
/// time. Under a wide latency floor every tick arms a timer that lands
/// on the next tick with a fresh post-barrier sequence number, ahead of
/// the pings in flight. Each ping also forwards once, keeping all shards
/// busy. `handled` logs the tick of every handler run.
struct TimerChainProc {
    left: u32,
    handled: Vec<SimTime>,
}

impl TimerChainProc {
    fn new(left: u32) -> Self {
        TimerChainProc {
            left,
            handled: Vec::new(),
        }
    }
}

impl Process<u64> for TimerChainProc {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.handled.push(ctx.now());
        ctx.set_timer(1, 0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
        self.handled.push(ctx.now());
        ctx.count("pings");
        if msg > 0 {
            let to = NodeId((ctx.id().0 + 1) % ctx.node_count());
            ctx.send(to, msg - 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _id: TimerId, _tag: u64) {
        self.handled.push(ctx.now());
        let to = NodeId((ctx.id().0 + 1) % ctx.node_count());
        ctx.send(to, 2);
        if self.left > 0 {
            self.left -= 1;
            ctx.set_timer(1, 0);
        }
    }
}

/// Chained 1-tick timers under a 3-tick latency floor, pinned
/// byte-identical across S ∈ {1, 2, 4} and with the threaded phase
/// forced on.
#[test]
fn chained_timers_survive_a_wide_latency_floor() {
    let run = |shards: usize, workers: usize| {
        let mut builder = SimBuilder::new()
            .seed(5)
            .trace(true)
            .shards(shards)
            .latency(LatencyModel::Uniform { lo: 3, hi: 12 });
        if workers > 0 {
            builder = builder.workers(workers);
        }
        let mut sim = builder.build_mt::<u64, TimerChainProc>();
        for _ in 0..9 {
            sim.add_node(TimerChainProc::new(40));
        }
        let out = sim.run_to_quiescence(1_000_000);
        assert!(out.quiescent, "S={shards} W={workers}");
        (sim.trace().to_string(), sim.metrics().to_string())
    };
    let sequential = run(1, 0);
    assert!(sequential.0.contains("TIMER"), "workload must chain timers");
    for (shards, workers) in [(2, 0), (4, 0), (4, 2)] {
        let sharded = run(shards, workers);
        assert_eq!(
            sequential.0, sharded.0,
            "trace diverged at S={shards}, W={workers}"
        );
        assert_eq!(
            sequential.1, sharded.1,
            "metrics diverged at S={shards}, W={workers}"
        );
    }
}

/// A sharded window is exactly the events of one tick: under a 3-tick
/// latency floor, where nothing stops a scheduler from running several
/// sparse ticks per barrier, the window count still equals the number of
/// distinct ticks at which a handler ran.
#[test]
fn a_sharded_window_is_one_tick() {
    let mut sim = SimBuilder::new()
        .seed(5)
        .shards(2)
        .latency(LatencyModel::Uniform { lo: 3, hi: 12 })
        .build::<u64, TimerChainProc>();
    for _ in 0..9 {
        sim.add_node(TimerChainProc::new(40));
    }
    assert!(sim.run_to_quiescence(1_000_000).quiescent);
    let ticks: BTreeSet<SimTime> = (0..9)
        .flat_map(|i| sim.node(NodeId(i)).handled.iter().copied())
        .collect();
    assert!(ticks.len() > 40, "the timer chain spans its ticks");
    assert_eq!(sim.window_stats().windows, ticks.len() as u64);
}

/// Every handler logs the `event_seq()` it runs under. A start or a timer
/// arms a timer and cancels it in the same handler, pings a neighbour,
/// and chains a 1-tick timer; `jittered` selects `set_timer_jittered` for
/// every arm. The armed-and-cancelled timer is the case that told the
/// engines apart: inline it takes a global seq (and, jittered, a draw)
/// before it is removed, so the barrier has to spend both as well.
struct SeqLogProc {
    jittered: bool,
    left: u32,
    seqs: Vec<u64>,
}

impl SeqLogProc {
    fn arm(&self, ctx: &mut Context<'_, u64>, delay: u64, tag: u64) -> TimerId {
        if self.jittered {
            ctx.set_timer_jittered(delay, 3, tag)
        } else {
            ctx.set_timer(delay, tag)
        }
    }

    fn round(&mut self, ctx: &mut Context<'_, u64>) {
        let dead = self.arm(ctx, 5, 1);
        ctx.cancel_timer(dead);
        let to = NodeId((ctx.id().0 + 1) % ctx.node_count());
        ctx.send(to, 1);
        if self.left > 0 {
            self.left -= 1;
            self.arm(ctx, 1, 0);
        }
    }
}

impl Process<u64> for SeqLogProc {
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.seqs.push(ctx.event_seq());
        self.round(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
        self.seqs.push(ctx.event_seq());
        if msg > 0 {
            let to = NodeId((ctx.id().0 + 1) % ctx.node_count());
            ctx.send(to, msg - 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, _id: TimerId, tag: u64) {
        assert_eq!(tag, 0, "the cancelled timer fired");
        self.seqs.push(ctx.event_seq());
        self.round(ctx);
    }
}

/// Runs three [`SeqLogProc`]s to quiescence; returns each node's
/// `event_seq()` log, the rendered trace and the rendered metrics.
fn run_seq_log(
    jittered: bool,
    (shards, workers): (usize, usize),
    latency: LatencyModel,
) -> (Vec<Vec<u64>>, String, String) {
    let mut builder = SimBuilder::new()
        .seed(9)
        .trace(true)
        .shards(shards)
        .latency(latency);
    if workers > 0 {
        builder = builder.workers(workers);
    }
    let mut sim = builder.build_mt::<u64, SeqLogProc>();
    for _ in 0..3 {
        sim.add_node(SeqLogProc {
            jittered,
            left: 12,
            seqs: Vec::new(),
        });
    }
    let out = sim.run_to_quiescence(100_000);
    assert!(out.quiescent, "S={shards} W={workers}");
    let seqs = (0..3).map(|i| sim.node(NodeId(i)).seqs.clone()).collect();
    (seqs, sim.trace().to_string(), sim.metrics().to_string())
}

/// `Context::event_seq`, the trace and the metrics are the same at every
/// shard count (and with the threaded phase forced on) after handlers
/// armed and cancelled timers, plain or jittered — chained 1-tick ones
/// under a 3-tick latency floor included. The rendered trace
/// never shows a seq, so only the seq logs see a barrier that skips one;
/// a jitter draw skipped or made out of event order shows in all three.
#[test]
fn event_seqs_and_jittered_timers_are_shard_independent() {
    for jittered in [false, true] {
        for latency in [
            LatencyModel::default(),
            LatencyModel::Uniform { lo: 3, hi: 12 },
        ] {
            let sequential = run_seq_log(jittered, (1, 0), latency.clone());
            assert!(sequential.0.iter().all(|s| s.len() > 12), "every node ran");
            for cfg in [(2, 0), (3, 0), (4, 2)] {
                assert_eq!(
                    sequential,
                    run_seq_log(jittered, cfg, latency.clone()),
                    "diverged at (S, W)={cfg:?}, jittered={jittered}, {latency:?}"
                );
            }
        }
    }
}

/// One seeded `random_transactions` workload under `detect_and_resolve`
/// on `shards` shards: rendered declarations, outcomes and metrics.
fn run_ddb(seed: u64, batch_prob: f64, shards: usize, min_delay: u64) -> String {
    let wl = DdbWorkloadConfig {
        sites: 4,
        transactions: 12,
        resources_per_site: 2,
        remote_prob: 0.6,
        write_prob: 0.9,
        batch_prob,
        seed,
        ..DdbWorkloadConfig::default()
    };
    let builder = SimBuilder::new()
        .seed(seed)
        .shards(shards)
        .latency(LatencyModel::Uniform {
            lo: min_delay,
            hi: min_delay + 9,
        });
    let mut db = DdbNet::with_builder(4, DdbConfig::detect_and_resolve(90, 70), builder);
    for tt in random_transactions(&wl) {
        db.run_until(SimTime::from_ticks(tt.at));
        db.submit(tt.txn);
    }
    db.run_until(SimTime::from_ticks(30_000));
    format!(
        "{:?}\n{:?}\n{}",
        db.declarations(),
        db.outcomes(),
        db.metrics()
    )
}

/// The validation journal is a handler side effect recorded *outside* the
/// engine, so the threaded handler phase appends under a lock in thread-
/// schedule order. `Journal::record_at` re-sorts same-tick entries by the
/// handling event's global seq, so snapshots must be identical across
/// engines and worker counts, under the default latency model and a
/// 3-tick floor alike.
#[test]
fn journal_snapshot_is_identical_across_shards_and_workers() {
    let run = |shards: usize, workers: usize, wide: bool| {
        let sched = random_churn(&ChurnConfig {
            n: 8,
            duration: 1_200,
            mean_gap: 20,
            cycle_prob: 0.1,
            cycle_len: 3,
            seed: 21,
        });
        let mut builder = SimBuilder::new().seed(21).shards(shards);
        if wide {
            builder = builder.latency(LatencyModel::Uniform { lo: 3, hi: 12 });
        }
        if workers > 0 {
            builder = builder.workers(workers);
        }
        let mut net = BasicNet::with_builder(sched.n, BasicConfig::on_block(8), builder);
        drive_schedule(
            &mut net,
            &sched,
            |x, at| {
                x.run_until(at);
            },
            |x, f, t| x.request(f, t).is_ok(),
        );
        net.run_to_quiescence(10_000_000);
        net.journal_snapshot()
    };
    for wide in [false, true] {
        let sequential = run(1, 0, wide);
        assert!(
            !sequential.is_empty(),
            "workload must journal something (wide={wide})"
        );
        for (shards, workers) in [(4, 0), (4, 2), (4, 4)] {
            let sharded = run(shards, workers, wide);
            assert_eq!(
                sequential.entries(),
                sharded.entries(),
                "journal diverged at S={shards}, W={workers}, wide={wide}"
            );
        }
    }
}

proptest! {
    // End-to-end double runs are slow; keep the case count moderate —
    // every case covers a full random topology at two shard counts.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean network: S=1 and S=4 produce byte-identical traces/metrics
    /// across latency floors 1..=4.
    #[test]
    fn sharded_trace_matches_sequential(
        seed in 0u64..100_000,
        n in 3usize..12,
        mean_gap in 10u64..50,
        cycle_prob in 0.0f64..0.12,
        min_delay in 1u64..=4,
    ) {
        let seq = run(seed, n, mean_gap, cycle_prob, false, (1, 0), min_delay);
        let sharded = run(seed, n, mean_gap, cycle_prob, false, (4, 0), min_delay);
        prop_assert_eq!(&seq.0, &sharded.0, "trace diverged (seed={}, n={}, d={})", seed, n, min_delay);
        prop_assert_eq!(&seq.1, &sharded.1, "metrics diverged (seed={}, n={}, d={})", seed, n, min_delay);
    }

    /// Faulty network (loss, duplication, reordering, crash/restart) with
    /// the reliable transport: still byte-identical — including with the
    /// threaded handler phase forced on (pinned worker count) and across
    /// latency floors 1..=4.
    #[test]
    fn sharded_trace_matches_sequential_under_faults(
        seed in 0u64..100_000,
        n in 3usize..10,
        mean_gap in 15u64..45,
        min_delay in 1u64..=4,
    ) {
        let seq = run(seed, n, mean_gap, 0.08, true, (1, 0), min_delay);
        let sharded = run(seed, n, mean_gap, 0.08, true, (4, 0), min_delay);
        prop_assert_eq!(&seq.0, &sharded.0, "trace diverged (seed={}, n={}, d={})", seed, n, min_delay);
        let threaded = run(seed, n, mean_gap, 0.08, true, (4, 2), min_delay);
        prop_assert_eq!(&seq.0, &threaded.0, "threaded trace diverged (seed={}, n={}, d={})", seed, n, min_delay);
    }

    /// §6 controllers under abort/restart resolution: the detector period
    /// stagger and every restart backoff are jittered timers, so this is
    /// the sweep behind the two DDB golden pins holding at every `S`.
    #[test]
    fn sharded_ddb_matches_sequential(
        seed in 0u64..100_000,
        batch_prob in 0.0f64..1.0,
        min_delay in 1u64..=4,
    ) {
        let seq = run_ddb(seed, batch_prob, 1, min_delay);
        let sharded = run_ddb(seed, batch_prob, 4, min_delay);
        prop_assert_eq!(seq, sharded, "ddb diverged (seed={}, d={})", seed, min_delay);
    }
}
