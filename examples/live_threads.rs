//! The detector on REAL threads and sockets — no discrete-event simulator.
//!
//! Starts a [`cmh_service::cluster::Cluster`]: one site-server thread per
//! site, each hosting the unmodified §6 controller, talking the wire
//! codec over Unix-domain sockets. The load generator then stages two
//! scenes through real client connections: a ring of transactions that
//! must be declared deadlocked, and a chain that must unwind in silence.
//!
//! ```text
//! cargo run --example live_threads
//! ```

use std::time::Duration;

use cmh_ddb::config::DdbConfig;
use cmh_ddb::ids::{ResourceId, SiteId};
use cmh_ddb::lock::LockMode;
use cmh_ddb::txn::TxnStep;
use cmh_service::cluster::{Cluster, ClusterConfig};
use cmh_service::loadgen::{run_load, Job, LoadConfig, LoadReport, Mode};

const K: usize = 4;

/// The transaction homed at site `i` locks `r0@s_i`, holds it long enough
/// for every other first lock to land, then requests `r0@s_{i+1}`. With
/// `close` the last site wraps around to site 0 — a ring, a guaranteed
/// deadlock; without it the last transaction just commits and the chain
/// behind it unwinds.
fn staged_jobs(close: bool) -> Vec<Job> {
    let lock = |site: usize| TxnStep::lock(SiteId(site), ResourceId(0), LockMode::Exclusive);
    (0..K)
        .map(|i| {
            let mut steps = vec![lock(i), TxnStep::Work { ticks: 25_000 }];
            if close || i + 1 < K {
                steps.push(lock((i + 1) % K));
            }
            Job {
                site: SiteId(i),
                steps,
                at_us: 0,
            }
        })
        .collect()
}

/// Runs one scene on a fresh cluster; returns the client-side report and
/// how many transactions the at-rest snapshot finds on a cycle.
fn scene(close: bool, deadline: Duration) -> (LoadReport, usize) {
    // Detection every 5k ticks (= 10 ms at 2 µs/tick), report only.
    let cluster = Cluster::start(ClusterConfig::new(K, DdbConfig::detect_only(5_000)));
    let report = run_load(
        cluster.addrs(),
        staged_jobs(close),
        LoadConfig {
            mode: Mode::Closed { per_site: 1 },
            deadline,
        },
    );
    let verdict = cluster.snapshot(Duration::from_secs(2)).verify_at_rest();
    for r in cluster.shutdown() {
        let count = |key: &str| r.metrics.iter().find(|(k, _)| k == key).map_or(0, |m| m.1);
        println!(
            "  site {}: {} frames in {} writes",
            r.snapshot.site.0,
            count("service.shell.frames"),
            count("service.shell.writes")
        );
    }
    assert_eq!(
        verdict.soundness_violations(),
        0,
        "at-rest soundness violated: {verdict:?}"
    );
    (report, verdict.cycle_txns.len())
}

fn main() {
    println!("{K} site servers over unix sockets, transactions in a lock ring...");
    // Nothing resolves the ring, so the load run ends at its deadline.
    let (report, on_cycle) = scene(true, Duration::from_secs(1));
    println!(
        "{} declaration(s) reached a client ({on_cycle} transactions on the cycle at rest)",
        report.declared
    );
    assert!(report.declared >= 1, "the ring deadlock must be detected");
    assert_eq!(on_cycle, K, "everyone is blocked");
    assert_eq!(report.committed, 0);

    // Contrast: the same locks without the closing edge unwind and stay silent.
    println!("\nnow a chain (no deadlock):");
    let (report, on_cycle) = scene(false, Duration::from_secs(5));
    assert_eq!(report.declared, 0, "a chain is not a deadlock");
    assert_eq!(report.committed, K);
    assert_eq!(on_cycle, 0);
    println!("chain committed, nothing declared — the live path is exact too.");
}
