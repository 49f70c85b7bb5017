//! The three service workloads: `svc_local`, `svc_remote`,
//! `svc_contended`.
//!
//! Each unit starts a fresh cluster over Unix-domain sockets, pushes a
//! fixed list of jobs through `loadgen::run_load` in a closed loop (a
//! lock client is a transaction that waits for its grant), drains, reads
//! the sites' reports and shuts down. Load comes from this one process:
//! one worker thread and one connection per site, at most two.

use std::time::Duration;

use cmh_ddb::config::DdbConfig;
use cmh_ddb::ids::{ResourceId, SiteId};
use cmh_ddb::lock::LockMode;
use cmh_ddb::txn::{LockReq, TxnStep};
use cmh_service::cluster::{Cluster, ClusterConfig};
use cmh_service::loadgen::{self, Job, LoadConfig, LoadReport, Mode};
use workloads::random_transactions;

use crate::sim_workloads::contended_shape;
use crate::stats::quantile;
use crate::trace::Recorder;
use crate::{Piece, Sizes, Unit};

/// Wall microseconds per virtual tick in every service workload (the
/// `ClusterConfig` default, pinned here because `svc_contended`'s
/// detection period is stated in it).
const TICK_MICROS: u64 = 2;
/// Detection period of `svc_contended`, ticks.
const DETECTION_PERIOD: u64 = 2_000;
pub const DETECTION_PERIOD_US: f64 = (DETECTION_PERIOD * TICK_MICROS) as f64;
/// Restart backoff of `svc_contended`, ticks: a victim restarts after
/// one to two times this. Ten times `ddb_resolve`'s 500 on purpose. Every
/// member of a cycle declares itself and is aborted, and a transaction of
/// this shape holds its first lock for 100–400 ticks before it asks for
/// the next; with restarts spread over 500 ticks the victims rebuild the
/// same cycle and the bystanders queued behind them join it. On the
/// simulator that livelocks 6 % of inputs (README, "Rejected inputs").
/// Over sockets no input can be vetted, because the interleaving is a
/// race: at 500 one unit in ten held a transaction through 0.5–9 s of
/// restarts and about one in a thousand through more than the 60 s
/// deadline, which fails the run. Spread over 5000 ticks the victims
/// mostly miss each other (README, "Baseline facts" 5).
const RESTART_BACKOFF: u64 = 5_000;

/// Hard cap on one load run; work outstanding beyond it counts as lost.
const LOAD_DEADLINE: Duration = Duration::from_secs(60);

pub fn exclusive(site: usize, resource: u64) -> LockReq {
    LockReq {
        site: SiteId(site),
        resource: ResourceId(resource),
        mode: LockMode::Exclusive,
    }
}

/// How one load run is driven and cut into pieces.
struct Load {
    /// Closed-loop window per connection.
    per_site: usize,
    /// Completions per connection in one timed piece.
    stretch: usize,
    /// Whether every transaction is granted exactly once, so that the
    /// `grant_us` samples line up with the completions.
    one_grant_each: bool,
    /// Settling time before counters are read.
    drain: Duration,
    /// Whether to take the at-rest verdict.
    verdict: bool,
}

/// What one cluster run leaves behind for the unit's bookkeeping.
struct Served {
    load: LoadReport,
    /// Summed over sites after the drain.
    probe_sent: u64,
    declared: u64,
    /// At-rest soundness violations, when the verdict was asked for.
    violations: Option<usize>,
}

/// Cuts one load run into timed pieces after the fact. `run_load` reports
/// latencies, not timestamps — but a closed-loop connection always has
/// its whole window outstanding, so the latencies of consecutive
/// completions add up to window × the wall time they took (Little's
/// law). A stretch of completions therefore took the run's wall time
/// times its share of its connection's latency sum; the connections run
/// side by side, so each one's stretches are worth `1/connections` of
/// the wall. The pieces add up to `wall_s` exactly.
fn cut_into_stretches(
    report: &LoadReport,
    per_conn: &[usize],
    wall_s: f64,
    load: &Load,
    unit: &mut Unit,
) {
    let done: usize = per_conn.iter().sum();
    let grants = load.one_grant_each && report.grant_us.len() == done;
    if report.txn_us.len() != done {
        // Lost work (counted as failed by the caller): no timeline.
        unit.other_s(wall_s);
        return;
    }
    let conns = per_conn.iter().filter(|&&n| n > 0).count() as f64;
    let mut at = 0;
    for &n in per_conn.iter().filter(|&&n| n > 0) {
        let conn_sum: u64 = report.txn_us[at..at + n].iter().sum();
        for from in (at..at + n).step_by(load.stretch) {
            let to = (from + load.stretch).min(at + n);
            let sum: u64 = report.txn_us[from..to].iter().sum();
            let first = unit.waits_us.len();
            if grants {
                unit.waits_us
                    .extend(report.grant_us[from..to].iter().map(|&u| u as f64));
            }
            unit.pieces.push(Piece {
                s: wall_s / conns * sum as f64 / conn_sum.max(1) as f64,
                waits: first..unit.waits_us.len(),
                done: (to - from) as u32,
            });
        }
        at += n;
    }
}

/// Starts a cluster, runs `jobs` through it and tears it down, with a
/// span around every call into the service crate.
fn serve(
    cfg: ClusterConfig,
    make_jobs: impl FnOnce() -> Vec<Job>,
    load: Load,
    unit: &mut Unit,
    rec: &mut Recorder,
) -> Served {
    let (jobs, gen_s) = rec.span("gen", |_| make_jobs());
    let n_jobs = jobs.len();
    let mut per_conn = vec![0usize; cfg.n_sites];
    for j in &jobs {
        per_conn[j.site.0] += 1;
    }
    let (cluster, start_s) = rec.span("cluster.start", |_| Cluster::start(cfg));
    unit.setup_s = gen_s + start_s;
    unit.extra.push(("workloads.gen_ms", gen_s * 1e3));
    unit.extra.push(("service.cluster.start_ms", start_s * 1e3));

    let (report, load_s) = rec.span("load.run", |_| {
        loadgen::run_load(
            cluster.addrs(),
            jobs,
            LoadConfig {
                mode: Mode::Closed {
                    per_site: load.per_site,
                },
                deadline: LOAD_DEADLINE,
            },
        )
    });
    cut_into_stretches(&report, &per_conn, load_s, &load, unit);
    unit.work = report.committed as u64;
    unit.txns = unit.work;
    unit.attempted = n_jobs as u64;
    unit.failed = (n_jobs - report.committed.min(n_jobs)) as u64;
    if unit.failed > 0 {
        unit.failures.push(format!(
            "{n_jobs} jobs: {} committed, {} aborted, {} lost",
            report.committed, report.aborted, report.lost
        ));
    }

    // In-flight probes and peer frames settle before counters are read.
    rec.span("drain", |_| std::thread::sleep(load.drain));
    let (reports, _) = rec.span("reports", |_| cluster.reports(Duration::from_secs(5)));
    let sum = |key: &str| cluster.metric_sum(&reports, key);
    let transport = |f: fn(&(SiteId, usize, u64)) -> u64| -> u64 {
        reports.iter().flat_map(|r| r.transport.iter()).map(f).sum()
    };
    let violations = load.verdict.then(|| {
        let (snap, _) = rec.span("snapshot.capture", |_| {
            cluster.snapshot(Duration::from_secs(5))
        });
        rec.span("snapshot.verify", |_| {
            snap.verify_at_rest().soundness_violations()
        })
        .0
    });
    let served = Served {
        probe_sent: sum("ddb.probe.sent"),
        declared: sum("ddb.declared"),
        violations,
        load: report,
    };
    let abandoned = transport(|&(_, _, a)| a);
    rec.count("ddb.probe.sent", served.probe_sent);
    rec.count("ddb.declared", served.declared);
    unit.extra.extend([
        ("service.count.probe_sent", served.probe_sent as f64),
        ("service.count.declared", served.declared as f64),
        ("service.count.restarted", sum("ddb.txn.restarted") as f64),
        (
            "service.count.transport_unacked",
            transport(|&(_, u, _)| u as u64) as f64,
        ),
        ("service.count.transport_abandoned", abandoned as f64),
    ]);
    rec.span("shutdown", |_| cluster.shutdown());

    unit.check(
        abandoned == 0,
        format!("Endpoint abandoned {abandoned} packets"),
    );
    served
}

/// One site, one connection, window 16: `LockAll` of four local
/// exclusive locks, brief work, commit. Resource ranges are disjoint per
/// outstanding slot, so nothing blocks and the detector stays idle.
pub fn svc_local(seed: u64, sizes: &Sizes, rec: &mut Recorder) -> Unit {
    const BATCH: u64 = 4;
    let mut unit = Unit::default();
    let mut cfg = ClusterConfig::new(1, DdbConfig::detect_only(50_000));
    cfg.seed = seed;
    let job = |j: u64| Job {
        site: SiteId(0),
        steps: vec![
            TxnStep::LockAll(
                (0..BATCH)
                    .map(|k| exclusive(0, 1_000 + (j % 1024) * BATCH + k))
                    .collect(),
            ),
            TxnStep::Work { ticks: 5 },
        ],
        at_us: 0,
    };
    let load = Load {
        per_site: 16,
        stretch: 100,
        one_grant_each: true,
        drain: Duration::from_millis(20),
        verdict: false,
    };
    let n = sizes.local_txns as u64;
    serve(cfg, || (0..n).map(job).collect(), load, &mut unit, rec);
    unit
}

/// Two sites, two connections, window 16 each: every transaction takes
/// one local and one remote lock on resources no other outstanding
/// transaction touches, so nothing blocks but every commit crosses the
/// peer link (`RemoteRequest` → `Acquired` → `RemoteRelease`).
pub fn svc_remote(seed: u64, sizes: &Sizes, rec: &mut Recorder) -> Unit {
    let mut unit = Unit::default();
    let mut cfg = ClusterConfig::new(2, DdbConfig::detect_only(50_000));
    cfg.seed = seed;
    let job = |j: u64| {
        let home = (j % 2) as usize;
        // Namespaced by origin site: the two sites' transactions never
        // meet in either lock table.
        let r = 1_000 + home as u64 * 10_000 + (j / 2) % 1024;
        Job {
            site: SiteId(home),
            steps: vec![
                TxnStep::LockAll(vec![exclusive(home, r), exclusive(1 - home, r)]),
                TxnStep::Work { ticks: 5 },
            ],
            at_us: 0,
        }
    };
    let load = Load {
        per_site: 16,
        stretch: 50,
        one_grant_each: true,
        drain: Duration::from_millis(50),
        verdict: false,
    };
    let n = sizes.remote_txns as u64;
    serve(cfg, || (0..n).map(job).collect(), load, &mut unit, rec);
    unit
}

/// Two sites, window 4, a tiny hot pool with mostly-exclusive cross-site
/// locking under `detect_and_resolve`: real distributed deadlocks form,
/// are declared over sockets and resolved by victim restart. The at-rest
/// verdict must show zero soundness violations.
pub fn svc_contended(seed: u64, sizes: &Sizes, rec: &mut Recorder) -> Unit {
    let mut unit = Unit::default();
    let mut cfg = ClusterConfig::new(
        2,
        DdbConfig::detect_and_resolve(DETECTION_PERIOD, RESTART_BACKOFF),
    );
    cfg.seed = seed;
    cfg.tick_micros = TICK_MICROS;
    let wl = contended_shape(2, sizes.contended_txns, seed);
    let jobs = || {
        random_transactions(&wl)
            .iter()
            .map(|t| Job::from_txn(t.at, &t.txn, TICK_MICROS))
            .collect()
    };
    let load = Load {
        per_site: 4,
        stretch: 10,
        // A restarted victim is granted again.
        one_grant_each: false,
        drain: Duration::from_millis(100),
        verdict: true,
    };
    let served = serve(cfg, jobs, load, &mut unit, rec);
    unit.check(
        served.violations == Some(0),
        format!("at-rest soundness violations: {:?}", served.violations),
    );
    unit.check(
        served.declared > 0,
        "contended run declared no deadlock".to_string(),
    );
    let us = |xs: &[u64]| xs.iter().map(|&u| u as f64).collect::<Vec<f64>>();
    unit.declare_us = us(&served.load.declare_us);
    let mut grants = us(&served.load.grant_us);
    unit.extra.extend([
        ("e2e.grant_p50_us", quantile(&mut grants, 0.50, 1.0)),
        ("e2e.grant_p99_us", quantile(&mut grants, 0.99, 1.0)),
    ]);
    if served.declared > 0 {
        unit.extra.push((
            "e2e.probes_per_declared",
            served.probe_sent as f64 / served.declared as f64,
        ));
    }
    unit
}
