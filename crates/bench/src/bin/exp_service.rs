//! E14 — the networked detector service (`cmh-service`) under load.
//!
//! Everything before this experiment runs inside the deterministic
//! simulator; E14 measures the same detector deployed as real processes'
//! worth of site-server threads speaking the length-prefixed wire codec
//! over loopback sockets. Four cells:
//!
//! * **sustained** — deadlock-free batched lock traffic (closed loop),
//!   sized to push ≥ 10⁵ individual lock requests through the cluster:
//!   sustained requests/sec and request→grant tails.
//! * **contended** — random cross-site transactions over a tiny hot
//!   resource pool with `detect_and_resolve`: genuine distributed
//!   deadlocks form, get declared, victims restart. Reports
//!   request→Declare latency quantiles and probe messages per detected
//!   deadlock (the paper's overhead currency).
//! * **open** — ordered (deadlock-free) transactions submitted on a
//!   generated arrival schedule (open loop): latency under target rate
//!   rather than under saturation.
//! * **recovery** — kill a site server mid-run (volatile controller state
//!   lost, transport state survives in the stable store), measure
//!   time-to-recovery with a commit probe, then stage a ring through the
//!   restarted site and verify the at-rest snapshot oracle reports zero
//!   soundness violations (stale echoes are counted, never hidden).
//!
//! `CMH_SERVICE_SMOKE=1` shrinks every cell for CI; the acceptance
//! thresholds scale with it. Latency quantiles are nearest-rank over the
//! sorted client-side samples ([`cmh_bench::quantile`]).
//!
//! Single-core caveat: on one hardware thread the site servers, load
//! workers, and reader threads all timeshare, so absolute latencies are
//! upper bounds and throughput is a floor; cross-cell *ratios* (probe
//! overhead, closed-vs-open tails) are the portable observables.

// cmh-lint: allow-file(D2, D4) — E14 is the wall-clock benchmark of the
// real-socket service: it times actual round trips, sleeps to let the
// detectors quiesce before at-rest capture, and the service threads it
// drives are the subject under test, not a simulation.

use std::time::Duration;

use cmh_bench::{quantile, Table};
use cmh_ddb::config::DdbConfig;
use cmh_ddb::ids::{ResourceId, SiteId};
use cmh_ddb::lock::LockMode;
use cmh_ddb::txn::{LockReq, TxnStep};
use cmh_service::cluster::{Cluster, ClusterConfig, TransportKind};
use cmh_service::loadgen::{self, Job, LoadConfig, LoadReport, Mode};
use workloads::{random_transactions, DdbWorkloadConfig};

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Everything one cell contributes to the table. The report's latency
/// vectors are sorted.
struct Cell {
    name: &'static str,
    n_sites: usize,
    mode: &'static str,
    report: LoadReport,
    probe_sent: u64,
    ddb_declared: u64,
}

impl Cell {
    fn lock_reqs_per_sec(&self) -> f64 {
        if self.report.wall_ms == 0 {
            0.0
        } else {
            self.report.lock_requests as f64 * 1000.0 / self.report.wall_ms as f64
        }
    }

    fn probes_per_declared(&self) -> f64 {
        if self.ddb_declared == 0 {
            0.0
        } else {
            self.probe_sent as f64 / self.ddb_declared as f64
        }
    }
}

/// Runs one load cell against a fresh cluster and drains its metrics.
fn run_cell(
    name: &'static str,
    mode_name: &'static str,
    cfg: ClusterConfig,
    jobs: Vec<Job>,
    load: LoadConfig,
    drain: Duration,
) -> Cell {
    let n_sites = cfg.n_sites;
    let cluster = Cluster::start(cfg);
    let mut report = loadgen::run_load(cluster.addrs(), jobs, load);
    report.grant_us.sort_unstable();
    report.declare_us.sort_unstable();
    // Let in-flight probes and peer frames settle before draining counters.
    std::thread::sleep(drain);
    let reports = cluster.reports(Duration::from_secs(5));
    let probe_sent = cluster.metric_sum(&reports, "ddb.probe.sent");
    let ddb_declared = cluster.metric_sum(&reports, "ddb.declared");
    cluster.shutdown();
    Cell {
        name,
        n_sites,
        mode: mode_name,
        report,
        probe_sent,
        ddb_declared,
    }
}

/// Deadlock-free batched lock traffic: every job takes `batch` distinct
/// local resources as one AND-semantics `LockAll`, works briefly, and
/// commits. Resource ranges are disjoint per job slot, so nothing blocks.
fn sustained_jobs(n_sites: usize, per_site: usize, batch: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for s in 0..n_sites {
        for j in 0..per_site {
            let base = 1_000 + j as u64 * batch;
            jobs.push(Job {
                site: SiteId(s),
                steps: vec![
                    TxnStep::LockAll(
                        (0..batch)
                            .map(|k| LockReq {
                                site: SiteId(s),
                                resource: ResourceId(base + k),
                                mode: LockMode::Exclusive,
                            })
                            .collect(),
                    ),
                    TxnStep::Work { ticks: 5 },
                ],
                at_us: 0,
            });
        }
    }
    jobs
}

/// The e2e staged ring: txn homed at `s_i` locks `r0@s_i`, holds, then
/// requests `r0@s_{i+1}` — guaranteed deadlock once the ring closes.
fn ring_jobs(sites: &[usize], hold_ticks: u64) -> Vec<Job> {
    (0..sites.len())
        .map(|i| Job {
            site: SiteId(sites[i]),
            steps: vec![
                TxnStep::lock(SiteId(sites[i]), ResourceId(0), LockMode::Exclusive),
                TxnStep::Work { ticks: hold_ticks },
                TxnStep::lock(
                    SiteId(sites[(i + 1) % sites.len()]),
                    ResourceId(0),
                    LockMode::Exclusive,
                ),
            ],
            at_us: 0,
        })
        .collect()
}

struct Recovery {
    recovery_ms: u64,
    down_probe_committed: bool,
    post_restart_declared: usize,
    missed: usize,
    phantom: usize,
    excused_stale: usize,
    wedged: usize,
}

fn run_recovery(smoke: bool, transport: TransportKind) -> Recovery {
    let mut cfg = ClusterConfig::new(3, DdbConfig::detect_only(5_000));
    cfg.transport = transport;
    cfg.seed = 11;
    let mut cluster = Cluster::start(cfg);

    // Warm-up: healthy traffic on every site so the kill interrupts a
    // working cluster, not a cold one.
    let warm_per_site = if smoke { 2 } else { 8 };
    let warm = loadgen::run_load(
        cluster.addrs(),
        sustained_jobs(3, warm_per_site, 4),
        LoadConfig {
            mode: Mode::Closed { per_site: 2 },
            deadline: Duration::from_secs(10),
        },
    );
    assert_eq!(
        warm.committed,
        3 * warm_per_site,
        "recovery warm-up did not commit cleanly: {warm:?}"
    );

    cluster.kill(SiteId(0));
    let down_probe_committed =
        loadgen::probe_until_commit(&cluster.addrs()[0], Duration::from_millis(300)).is_some();
    cluster.restart(SiteId(0));
    let recovery_ms = loadgen::probe_until_commit(&cluster.addrs()[0], Duration::from_secs(15))
        .expect("restarted site never served a commit");

    // The restarted site must still detect: stage a ring through it.
    let staged = loadgen::run_load(
        cluster.addrs(),
        ring_jobs(&[0, 1, 2], 25_000),
        LoadConfig {
            mode: Mode::Closed { per_site: 1 },
            deadline: Duration::from_secs(8),
        },
    );
    std::thread::sleep(Duration::from_millis(200));
    let verdict = cluster.snapshot(Duration::from_secs(5)).verify_at_rest();
    cluster.shutdown();
    assert_eq!(
        verdict.soundness_violations(),
        0,
        "post-recovery soundness violated: {verdict:?}"
    );
    Recovery {
        recovery_ms,
        down_probe_committed,
        post_restart_declared: staged.declared,
        missed: verdict.missed,
        phantom: verdict.phantom,
        excused_stale: verdict.excused_stale,
        wedged: verdict.wedged,
    }
}

fn main() {
    let smoke = env_flag("CMH_SERVICE_SMOKE");
    let transport = if env_flag("CMH_SERVICE_TCP") {
        TransportKind::Tcp
    } else {
        TransportKind::Uds
    };
    // ≥ 10⁵ lock requests in the recorded profile; a fast slice in smoke.
    let sustained_target: u64 = if smoke { 4_000 } else { 110_000 };
    let batch = 8u64;
    let n_sites = 4usize;
    let per_site = (sustained_target / batch).div_ceil(n_sites as u64) as usize;

    println!(
        "# E14 — networked detector service (loopback, {})",
        match transport {
            TransportKind::Uds => "unix sockets",
            TransportKind::Tcp => "tcp",
        }
    );
    println!();

    let mut cells = Vec::new();

    // -- sustained ---------------------------------------------------------
    let mut cfg = ClusterConfig::new(n_sites, DdbConfig::detect_only(50_000));
    cfg.transport = transport;
    cfg.seed = 21;
    cells.push(run_cell(
        "sustained",
        "closed",
        cfg,
        sustained_jobs(n_sites, per_site, batch),
        LoadConfig {
            mode: Mode::Closed { per_site: 16 },
            deadline: Duration::from_secs(if smoke { 30 } else { 300 }),
        },
        Duration::from_millis(50),
    ));

    // -- contended ---------------------------------------------------------
    // A tiny hot resource pool with mostly-exclusive cross-site locking:
    // real distributed deadlocks form and are resolved by victim restart.
    let wl = DdbWorkloadConfig {
        sites: 3,
        transactions: if smoke { 80 } else { 400 },
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
        seed: 42,
    };
    let jobs: Vec<Job> = random_transactions(&wl)
        .iter()
        .map(|t| Job::from_txn(t.at, &t.txn, 2))
        .collect();
    let mut cfg = ClusterConfig::new(3, DdbConfig::detect_and_resolve(2_000, 500));
    cfg.transport = transport;
    cfg.seed = 22;
    cells.push(run_cell(
        "contended",
        "closed",
        cfg,
        jobs,
        LoadConfig {
            mode: Mode::Closed { per_site: 4 },
            deadline: Duration::from_secs(if smoke { 30 } else { 120 }),
        },
        Duration::from_millis(100),
    ));

    // -- open --------------------------------------------------------------
    // Ordered acquisition (deadlock-free control) on a generated arrival
    // schedule: latency under target rate instead of under saturation.
    let wl = DdbWorkloadConfig {
        sites: 3,
        transactions: if smoke { 200 } else { 2_000 },
        resources_per_site: 64,
        locks_min: 1,
        locks_max: 3,
        remote_prob: 0.4,
        write_prob: 0.8,
        work_min: 10,
        work_max: 100,
        mean_arrival_gap: 400,
        ordered: true,
        batch_prob: 0.0,
        seed: 43,
    };
    let tick_micros = 2;
    let jobs: Vec<Job> = random_transactions(&wl)
        .iter()
        .map(|t| Job::from_txn(t.at, &t.txn, tick_micros))
        .collect();
    let mut cfg = ClusterConfig::new(3, DdbConfig::detect_only(10_000));
    cfg.transport = transport;
    cfg.seed = 23;
    cells.push(run_cell(
        "open",
        "open",
        cfg,
        jobs,
        LoadConfig {
            mode: Mode::Open { max_inflight: 32 },
            deadline: Duration::from_secs(if smoke { 20 } else { 60 }),
        },
        Duration::from_millis(50),
    ));

    // -- recovery ----------------------------------------------------------
    let rec = run_recovery(smoke, transport);

    // -- report ------------------------------------------------------------
    let mut t = Table::new([
        "cell",
        "sites",
        "mode",
        "submitted",
        "committed",
        "declared",
        "lost",
        "lock req",
        "req/s",
        "grant p50/p99 µs",
        "declare p50/p99 µs",
        "probes/declared",
    ]);
    for c in &cells {
        t.row([
            c.name.to_string(),
            c.n_sites.to_string(),
            c.mode.to_string(),
            c.report.submitted.to_string(),
            c.report.committed.to_string(),
            c.report.declared.to_string(),
            c.report.lost.to_string(),
            c.report.lock_requests.to_string(),
            format!("{:.0}", c.lock_reqs_per_sec()),
            format!(
                "{}/{}",
                quantile(&c.report.grant_us, 0.50),
                quantile(&c.report.grant_us, 0.99)
            ),
            format!(
                "{}/{}",
                quantile(&c.report.declare_us, 0.50),
                quantile(&c.report.declare_us, 0.99)
            ),
            format!("{:.1}", c.probes_per_declared()),
        ]);
    }
    t.print();
    println!();
    println!(
        "recovery: {} ms to first post-restart commit; probe against dead \
         site committed: {}; post-restart ring declarations: {}; at-rest \
         verdict missed={} phantom={} excused_stale={} wedged={}",
        rec.recovery_ms,
        rec.down_probe_committed,
        rec.post_restart_declared,
        rec.missed,
        rec.phantom,
        rec.excused_stale,
        rec.wedged,
    );
    println!();

    // -- claim checks ------------------------------------------------------
    let sustained = &cells[0];
    assert_eq!(sustained.report.lost, 0, "sustained cell lost transactions");
    assert!(
        sustained.report.lock_requests >= sustained_target,
        "sustained cell moved only {} lock requests (target {sustained_target})",
        sustained.report.lock_requests
    );
    let contended = &cells[1];
    assert!(
        contended.ddb_declared >= 1,
        "contended cell produced no deadlock declarations: {:?}",
        contended.report
    );
    assert!(
        !contended.report.declare_us.is_empty(),
        "no request→Declare latency reached a client"
    );
    assert!(!rec.down_probe_committed, "a dead site served a commit");
    assert!(
        rec.post_restart_declared >= 1,
        "post-restart ring not declared"
    );
    println!("claim check: sustained ≥ {sustained_target} lock requests, zero lost");
    println!("claim check: contended cell declared real distributed deadlocks over sockets");
    println!(
        "claim check: restart recovered in {} ms with zero soundness violations",
        rec.recovery_ms
    );
}
