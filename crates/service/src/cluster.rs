//! Cluster orchestration: spawn, kill, restart, drain, verify.
//!
//! A [`Cluster`] owns one [`crate::node`] site-server thread per site plus
//! the *stable store* — the crash-surviving per-site transport state
//! (reliable-endpoint send/recv windows and the transaction-id high-water
//! mark). Killing a site loses everything else: lock table, scripts,
//! probe state. That is exactly the crash model of the simulator's fault
//! layer, transplanted onto real sockets: "stable storage" here is an
//! in-process map because the experiment measures detector recovery, not
//! disk persistence.

// cmh-lint: allow-file(D2, D4) — cluster orchestration spawns the
// wall-clock site-server threads and times recovery with real clocks;
// none of this runs inside a deterministic experiment.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cmh_ddb::config::DdbConfig;
use cmh_ddb::ids::SiteId;
use cmh_ddb::snapshot::ClusterSnapshot;
use simnet::transport::ReliableConfig;

pub use crate::core::SiteStable;
use crate::node::{spawn_site, SiteConfig, SiteHandle, SiteReport};
use crate::sock::Addr;

/// The shared crash-surviving store, keyed by site.
pub type StableStore = Arc<Mutex<BTreeMap<SiteId, SiteStable>>>;

/// Which socket flavour the cluster serves on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Unix-domain sockets under the system temp directory (default).
    Uds,
    /// TCP on 127.0.0.1 (ports reserved at startup).
    Tcp,
}

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of sites.
    pub n_sites: usize,
    /// Controller behaviour, identical on every site.
    pub ddb: DdbConfig,
    /// Base seed (each site derives its own).
    pub seed: u64,
    /// Wall microseconds per virtual tick.
    pub tick_micros: u64,
    /// Socket flavour.
    pub transport: TransportKind,
    /// Peer-link transport tuning, in milliseconds.
    pub reliable_ms: ReliableConfig,
}

impl ClusterConfig {
    /// Sensible defaults for loopback benching: UDS, 2 µs ticks,
    /// 40 ms initial RTO with a 500 ms cap.
    pub fn new(n_sites: usize, ddb: DdbConfig) -> ClusterConfig {
        ClusterConfig {
            n_sites,
            ddb,
            seed: 1,
            tick_micros: 2,
            transport: TransportKind::Uds,
            reliable_ms: ReliableConfig {
                rto_initial: 40,
                rto_cap: 500,
                max_attempts: 40,
            },
        }
    }
}

static CLUSTER_SEQ: AtomicU64 = AtomicU64::new(0);

/// A running cluster of site servers.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    addrs: Vec<Addr>,
    epoch: Instant,
    stable: StableStore,
    handles: Vec<Option<SiteHandle>>,
}

impl Cluster {
    /// Allocates addresses and spawns every site.
    pub fn start(cfg: ClusterConfig) -> Cluster {
        let addrs = alloc_addrs(cfg.n_sites, cfg.transport);
        let epoch = Instant::now();
        let stable: StableStore = Arc::new(Mutex::new(BTreeMap::new()));
        let mut cluster = Cluster {
            cfg,
            addrs,
            epoch,
            stable,
            handles: Vec::new(),
        };
        for s in 0..cluster.cfg.n_sites {
            let h = cluster.spawn(SiteId(s));
            cluster.handles.push(Some(h));
        }
        cluster
    }

    fn spawn(&self, site: SiteId) -> SiteHandle {
        spawn_site(
            SiteConfig {
                site,
                n_sites: self.cfg.n_sites,
                ddb: self.cfg.ddb,
                seed: self.cfg.seed,
                tick_micros: self.cfg.tick_micros,
                addrs: self.addrs.clone(),
                reliable_ms: self.cfg.reliable_ms,
            },
            self.epoch,
            Arc::clone(&self.stable),
        )
    }

    /// The address each site serves clients (and peers) on.
    pub fn addrs(&self) -> &[Addr] {
        &self.addrs
    }

    /// Hard-kills `site`: volatile controller state is lost; transport
    /// state parks in the stable store. No-op if already down.
    pub fn kill(&mut self, site: SiteId) {
        if let Some(h) = self.handles[site.0].take() {
            h.crash(Duration::from_secs(5));
        }
    }

    /// Restarts a previously killed site on its original address,
    /// resurrecting its transport state. No-op if it is still up.
    pub fn restart(&mut self, site: SiteId) {
        if self.handles[site.0].is_none() {
            self.handles[site.0] = Some(self.spawn(site));
        }
    }

    /// Live reports from every running site (down sites are skipped).
    pub fn reports(&self, timeout: Duration) -> Vec<SiteReport> {
        self.handles
            .iter()
            .flatten()
            .filter_map(|h| h.snapshot(timeout))
            .collect()
    }

    /// Captures an at-rest [`ClusterSnapshot`] from every running site.
    /// Only meaningful once load is drained and detectors have quiesced.
    pub fn snapshot(&self, timeout: Duration) -> ClusterSnapshot {
        ClusterSnapshot {
            sites: self
                .reports(timeout)
                .into_iter()
                .map(|r| r.snapshot)
                .collect(),
        }
    }

    /// Sums a metric counter across all running sites.
    pub fn metric_sum(&self, reports: &[SiteReport], key: &str) -> u64 {
        reports
            .iter()
            .flat_map(|r| r.metrics.iter())
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// Cleanly shuts down every site, returning their final reports (and,
    /// through `Drop`, removes the run's socket directory).
    pub fn shutdown(mut self) -> Vec<SiteReport> {
        let mut out = Vec::new();
        for h in self.handles.iter_mut() {
            if let Some(h) = h.take() {
                if let Some(r) = h.shutdown(Duration::from_secs(5)) {
                    out.push(r);
                }
            }
        }
        out
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Best-effort: don't leak site threads if a test forgot shutdown.
        for h in self.handles.iter_mut() {
            if let Some(h) = h.take() {
                h.crash(Duration::from_secs(2));
            }
        }
        // Every site has joined, so each listener has unlinked its socket:
        // the run's directory (see `alloc_addrs`) is empty. Best-effort.
        if let Some(Addr::Uds(sock)) = self.addrs.first() {
            if let Some(dir) = sock.parent() {
                let _ = std::fs::remove_dir(dir);
            }
        }
    }
}

/// Reserves one address per site: fresh UDS paths, or TCP ports learned
/// by binding port 0 and immediately releasing (the dialer's redial
/// backoff absorbs the re-bind window).
fn alloc_addrs(n: usize, kind: TransportKind) -> Vec<Addr> {
    match kind {
        TransportKind::Uds => {
            let run = CLUSTER_SEQ.fetch_add(1, Ordering::SeqCst);
            let dir: PathBuf =
                std::env::temp_dir().join(format!("cmh-svc-{}-{run}", std::process::id()));
            (0..n)
                .map(|s| Addr::Uds(dir.join(format!("site-{s}.sock"))))
                .collect()
        }
        TransportKind::Tcp => (0..n)
            .map(|_| {
                let l = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
                Addr::Tcp(l.local_addr().expect("local addr"))
            })
            .collect(),
    }
}
