//! End-to-end tests for the networked detector service (`cmh-service`):
//! a real multi-site cluster over loopback sockets (Unix-domain and TCP),
//! driven by the load generator, verified with the at-rest snapshot
//! oracle. How fast any of it runs is `benchmark/`'s business (the `svc_*`
//! workloads and the `e2e.recovery_ms` row); these tests pin that it works.

use std::time::Duration;

use cmh_ddb::config::DdbConfig;
use cmh_ddb::ids::SiteId;
use cmh_ddb::lock::LockMode;
use cmh_ddb::snapshot::RestVerdict;
use cmh_ddb::txn::TxnStep;
use cmh_service::cluster::{Cluster, ClusterConfig, TransportKind};
use cmh_service::core::SiteReport;
use cmh_service::loadgen::{self, Job, LoadConfig, Mode};
use cmh_service::sock::Addr;
use workloads::{random_transactions, DdbWorkloadConfig};

/// The staged ring and the kill/restart run once per socket flavour.
const TRANSPORTS: [TransportKind; 2] = [TransportKind::Uds, TransportKind::Tcp];

/// Shuts `cluster` down and checks what its shells wrote: something, and
/// at most one write per frame on every site (a pass writes each
/// connection's frames at once).
fn shut_down(cluster: Cluster) {
    let count =
        |r: &SiteReport, key: &str| r.metrics.iter().find(|(k, _)| k == key).map_or(0, |m| m.1);
    let mut writes = 0;
    for r in cluster.shutdown() {
        let frames = count(&r, "service.shell.frames");
        let site_writes = count(&r, "service.shell.writes");
        assert!(
            site_writes <= frames,
            "{:?}: {site_writes} writes for {frames} frames",
            r.snapshot.site
        );
        writes += site_writes;
    }
    assert!(writes > 0, "no site wrote a frame");
}

/// A ring of single-lock-then-second-lock transactions over `sites`,
/// guaranteed to deadlock once every first lock is held: txn homed at
/// `s_i` locks `r0@s_i`, works long enough for the ring to close, then
/// requests `r0@s_{i+1}`.
fn ring_jobs(sites: &[usize], hold_ticks: u64) -> Vec<Job> {
    (0..sites.len())
        .map(|i| Job {
            site: SiteId(sites[i]),
            steps: vec![
                TxnStep::lock(
                    SiteId(sites[i]),
                    cmh_ddb::ids::ResourceId(0),
                    LockMode::Exclusive,
                ),
                TxnStep::Work { ticks: hold_ticks },
                TxnStep::lock(
                    SiteId(sites[(i + 1) % sites.len()]),
                    cmh_ddb::ids::ResourceId(0),
                    LockMode::Exclusive,
                ),
            ],
            at_us: 0,
        })
        .collect()
}

/// Deadlock-free warm-up load: each transaction takes one local lock,
/// works briefly, and commits.
fn local_jobs(n_sites: usize, per_site: usize) -> Vec<Job> {
    let mut jobs = Vec::new();
    for s in 0..n_sites {
        for k in 0..per_site {
            jobs.push(Job {
                site: SiteId(s),
                steps: vec![
                    TxnStep::lock(
                        SiteId(s),
                        cmh_ddb::ids::ResourceId(100 + k as u64),
                        LockMode::Exclusive,
                    ),
                    TxnStep::Work { ticks: 50 },
                ],
                at_us: 0,
            });
        }
    }
    jobs
}

#[test]
fn staged_ring_is_declared_over_real_sockets() {
    for transport in TRANSPORTS {
        staged_ring_is_declared(transport);
    }
}

fn staged_ring_is_declared(transport: TransportKind) {
    // 3 sites, detection every 5k ticks (= 10 ms at 2 µs/tick), report
    // only — the ring must stay dark until declared.
    let mut cfg = ClusterConfig::new(3, DdbConfig::detect_only(5_000));
    cfg.seed = 7;
    cfg.transport = transport;
    let cluster = Cluster::start(cfg);

    let report = loadgen::run_load(
        cluster.addrs(),
        ring_jobs(&[0, 1, 2], 25_000),
        LoadConfig {
            mode: Mode::Closed { per_site: 1 },
            deadline: Duration::from_secs(5),
        },
    );
    assert_eq!(report.submitted, 3);
    assert!(
        report.declared >= 1,
        "no Declared frame reached a client: {report:?}"
    );
    assert!(
        !report.declare_us.is_empty(),
        "declare latency not captured"
    );

    let snap = cluster.snapshot(Duration::from_secs(2));
    assert_eq!(snap.sites.len(), 3);
    let verdict = snap.verify_at_rest();
    assert!(
        !verdict.cycle_txns.is_empty(),
        "staged ring not visible in merged wait-for graph: {verdict:?}"
    );
    assert_eq!(
        verdict.soundness_violations(),
        0,
        "at-rest soundness violated: {verdict:?}"
    );
    assert!(!verdict.declared.is_empty());
    shut_down(cluster);
}

#[test]
fn controller_crash_and_restart_recovers_soundly() {
    for transport in TRANSPORTS {
        crash_and_restart_recovers_soundly(transport);
    }
}

fn crash_and_restart_recovers_soundly(transport: TransportKind) {
    let mut cfg = ClusterConfig::new(3, DdbConfig::detect_only(5_000));
    cfg.seed = 11;
    cfg.transport = transport;
    let mut cluster = Cluster::start(cfg);

    // Healthy warm-up traffic on every site.
    let warm = loadgen::run_load(
        cluster.addrs(),
        local_jobs(3, 4),
        LoadConfig {
            mode: Mode::Closed { per_site: 2 },
            deadline: Duration::from_secs(5),
        },
    );
    assert_eq!(warm.committed, 12, "warm-up should all commit: {warm:?}");

    // Kill site 0 mid-run, then bring it back.
    cluster.kill(SiteId(0));
    assert!(
        loadgen::probe_until_commit(&cluster.addrs()[0], Duration::from_millis(400)).is_none(),
        "probe committed against a dead site"
    );
    cluster.restart(SiteId(0));
    let recovery_ms = loadgen::probe_until_commit(&cluster.addrs()[0], Duration::from_secs(10))
        .expect("restarted site never served a commit");
    assert!(recovery_ms < 10_000);

    // The restarted site must participate in detection: stage a ring
    // through it.
    let staged = loadgen::run_load(
        cluster.addrs(),
        ring_jobs(&[0, 1, 2], 25_000),
        LoadConfig {
            mode: Mode::Closed { per_site: 1 },
            deadline: Duration::from_secs(5),
        },
    );
    assert!(
        staged.declared >= 1,
        "post-restart ring not declared: {staged:?}"
    );

    let verdict = cluster.snapshot(Duration::from_secs(2)).verify_at_rest();
    assert_eq!(
        verdict.soundness_violations(),
        0,
        "post-recovery soundness violated: {verdict:?}"
    );
    assert!(!verdict.cycle_txns.is_empty());
    shut_down(cluster);
}

/// The open loop: ordered (so deadlock-free) cross-site transactions
/// submitted on their generated arrival schedule under an admission cap.
/// Every job commits, and at rest nothing is left — no cycle, no
/// declaration, no running or wedged script.
#[test]
fn ordered_open_loop_commits_every_job() {
    let wl = DdbWorkloadConfig {
        sites: 3,
        transactions: 90,
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
    let cfg = ClusterConfig::new(3, DdbConfig::detect_only(10_000));
    let jobs: Vec<Job> = random_transactions(&wl)
        .iter()
        .map(|t| Job::from_txn(t.at, &t.txn, cfg.tick_micros))
        .collect();
    assert!(
        jobs.windows(2).any(|w| w[0].at_us < w[1].at_us),
        "the schedule must spread arrivals for the open loop to pace"
    );
    let cluster = Cluster::start(cfg);

    let report = loadgen::run_load(
        cluster.addrs(),
        jobs,
        LoadConfig {
            mode: Mode::Open { max_inflight: 8 },
            deadline: Duration::from_secs(10),
        },
    );
    assert_eq!(
        (report.submitted, report.committed, report.lost),
        (wl.transactions, wl.transactions, 0),
        "{report:?}"
    );

    let verdict = cluster.snapshot(Duration::from_secs(2)).verify_at_rest();
    assert_eq!(
        verdict,
        RestVerdict {
            committed: wl.transactions,
            ..RestVerdict::default()
        }
    );
    shut_down(cluster);
}

/// A cluster over Unix-domain sockets serves from a directory of its own
/// under the temp dir; shutting it down must leave nothing behind.
#[test]
fn shutdown_removes_the_socket_directory() {
    let cluster = Cluster::start(ClusterConfig::new(2, DdbConfig::detect_only(5_000)));
    let Addr::Uds(sock) = cluster.addrs()[0].clone() else {
        panic!("the default transport is Unix-domain sockets");
    };
    let dir = sock.parent().expect("socket path has a parent");
    // The site threads bind asynchronously; a served commit proves it.
    loadgen::probe_until_commit(&cluster.addrs()[0], Duration::from_secs(10))
        .expect("site 0 never served a commit");
    assert!(dir.is_dir());
    shut_down(cluster);
    assert!(!dir.exists(), "{} left behind", dir.display());
}
