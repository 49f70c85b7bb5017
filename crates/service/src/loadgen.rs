//! Load generation against a running cluster.
//!
//! One worker thread per site, each multiplexing its whole job list over
//! a single client connection (a blocking reader thread feeds decoded
//! [`ServerFrame`]s back through a channel). Two driving disciplines:
//!
//! * **closed loop** — a fixed population of outstanding transactions per
//!   site; a completion immediately admits the next job. Measures
//!   sustainable throughput at a contention level.
//! * **open loop** — jobs carry arrival times (from the workload
//!   generator's virtual schedule, scaled by the cluster tick); the
//!   worker submits on schedule regardless of completions, up to an
//!   admission cap. Measures latency under a target arrival rate.
//!
//! All latencies are recorded client-side in raw microsecond vectors
//! (request→grant, request→Declare, request→done); callers take their
//! own quantiles from them.

// cmh-lint: allow-file(D2, D4) — the load generator is the wall-clock
// measuring instrument: it times real socket round trips and drives the
// multi-thread site topology from worker threads.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use cmh_ddb::ids::SiteId;
use cmh_ddb::txn::{Transaction, TxnStep};

use crate::proto::{ClientFrame, ServerFrame};
use crate::sock::{Addr, Sock};

/// One transaction to submit.
#[derive(Debug, Clone)]
pub struct Job {
    /// Home site (index into the cluster's address table).
    pub site: SiteId,
    /// Script steps (the service assigns the cluster-unique id).
    pub steps: Vec<TxnStep>,
    /// Open-loop arrival offset from load start, in microseconds
    /// (ignored by the closed loop).
    pub at_us: u64,
}

impl Job {
    /// Converts a generated workload transaction, scheduling its virtual
    /// arrival time `at` (ticks) through the cluster tick length.
    pub fn from_txn(at: u64, txn: &Transaction, tick_micros: u64) -> Job {
        Job {
            site: txn.home(),
            steps: txn.steps().to_vec(),
            at_us: at.saturating_mul(tick_micros),
        }
    }
}

/// Driving discipline.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Keep `per_site` transactions outstanding on every site.
    Closed {
        /// Outstanding-transaction window per site.
        per_site: usize,
    },
    /// Submit on each job's `at_us` schedule, never exceeding
    /// `max_inflight` outstanding per site.
    Open {
        /// Admission cap per site.
        max_inflight: usize,
    },
}

/// Load-run parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Driving discipline.
    pub mode: Mode,
    /// Hard wall-clock cap; outstanding work beyond it is counted `lost`.
    pub deadline: Duration,
}

/// Aggregated result of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Transactions submitted.
    pub submitted: usize,
    /// Transactions that committed.
    pub committed: usize,
    /// Transactions whose `Done` said not committed — 0 against any site
    /// this crate runs, where an aborted victim always restarts.
    pub aborted: usize,
    /// Deadlock declarations observed (per declaration event).
    pub declared: usize,
    /// Submitted transactions with no final word by the deadline (or cut
    /// off by a connection loss / site crash).
    pub lost: usize,
    /// Request→grant latencies, µs (first step completed).
    pub grant_us: Vec<u64>,
    /// Request→Declare latencies, µs.
    pub declare_us: Vec<u64>,
    /// Request→final-outcome latencies, µs.
    pub txn_us: Vec<u64>,
}

impl LoadReport {
    fn absorb(&mut self, w: LoadReport) {
        self.submitted += w.submitted;
        self.committed += w.committed;
        self.aborted += w.aborted;
        self.declared += w.declared;
        self.lost += w.lost;
        self.grant_us.extend(w.grant_us);
        self.declare_us.extend(w.declare_us);
        self.txn_us.extend(w.txn_us);
    }
}

/// Runs `jobs` against the cluster at `addrs`, one worker per site.
pub fn run_load(addrs: &[Addr], jobs: Vec<Job>, cfg: LoadConfig) -> LoadReport {
    let started = Instant::now();
    let deadline_at = started + cfg.deadline;
    let mut per_site: Vec<Vec<Job>> = vec![Vec::new(); addrs.len()];
    for j in jobs {
        per_site[j.site.0].push(j);
    }
    let workers: Vec<_> = per_site
        .into_iter()
        .enumerate()
        .filter(|(_, js)| !js.is_empty())
        .map(|(s, js)| {
            let addr = addrs[s].clone();
            let mode = cfg.mode;
            thread::Builder::new()
                .name(format!("load-{s}"))
                .spawn(move || site_worker(addr, js, mode, started, deadline_at))
                .expect("spawn load worker")
        })
        .collect();
    let mut report = LoadReport::default();
    for w in workers {
        if let Ok(part) = w.join() {
            report.absorb(part);
        }
    }
    report
}

/// Repeatedly submits a trivial one-step transaction until one commits;
/// returns the elapsed milliseconds (the recovery probe). `None` if the
/// deadline passes first.
pub fn probe_until_commit(addr: &Addr, deadline: Duration) -> Option<u64> {
    let started = Instant::now();
    while started.elapsed() < deadline {
        if let Some((mut sock, rx)) = open_session(addr) {
            let submit = ClientFrame::Submit {
                req: 1,
                steps: vec![TxnStep::Work { ticks: 1 }],
            };
            if sock.send_frame(&submit.encode()).is_ok() {
                let wait =
                    Duration::from_millis(500).min(deadline.saturating_sub(started.elapsed()));
                let wait_until = Instant::now() + wait;
                loop {
                    let left = wait_until.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    match rx.recv_timeout(left) {
                        Ok(ServerFrame::Done {
                            committed: true, ..
                        }) => return Some(started.elapsed().as_millis() as u64),
                        Ok(_) => continue,
                        Err(_) => break,
                    }
                }
            }
            sock.shutdown();
        }
        thread::sleep(Duration::from_millis(20));
    }
    None
}

/// Connects, says hello, and spawns the reader thread, which feeds
/// decoded frames back until the stream ends or one fails to decode.
fn open_session(addr: &Addr) -> Option<(Sock, mpsc::Receiver<ServerFrame>)> {
    let mut sock = Sock::connect(addr).ok()?;
    sock.send_frame(&ClientFrame::Hello.encode()).ok()?;
    let mut reader = sock.try_clone().ok()?;
    let (tx, rx) = mpsc::channel();
    let on_frame = move |body: &[u8]| match ServerFrame::decode(body).map(|f| tx.send(f)) {
        Ok(Ok(())) => ControlFlow::Continue(()),
        _ => ControlFlow::Break(()),
    };
    thread::Builder::new()
        .name("load-rd".into())
        .spawn(move || reader.pump(on_frame))
        .ok()?;
    Some((sock, rx))
}

fn site_worker(
    addr: Addr,
    jobs: Vec<Job>,
    mode: Mode,
    started: Instant,
    deadline_at: Instant,
) -> LoadReport {
    let mut report = LoadReport::default();
    // Outstanding requests: req → submit time, µs since `started`.
    let mut pending: BTreeMap<u64, u64> = BTreeMap::new();
    let mut next_req: u64 = 1;
    let mut idx = 0usize;

    // Initial connect, with a grace window for a cluster still binding.
    let mut session = None;
    let connect_until = Instant::now() + Duration::from_secs(2);
    while session.is_none() && Instant::now() < connect_until {
        session = open_session(&addr);
        if session.is_none() {
            thread::sleep(Duration::from_millis(20));
        }
    }
    let Some((mut sock, mut rx)) = session else {
        report.lost = jobs.len();
        return report;
    };

    loop {
        let now = Instant::now();
        if now >= deadline_at {
            break;
        }
        let now_us = started.elapsed().as_micros() as u64;

        // Admit work.
        let window = match mode {
            Mode::Closed { per_site } => per_site,
            Mode::Open { max_inflight } => max_inflight,
        };
        let mut wrote_err = false;
        while idx < jobs.len() && pending.len() < window {
            if let Mode::Open { .. } = mode {
                if jobs[idx].at_us > now_us {
                    break;
                }
            }
            let job = &jobs[idx];
            let req = next_req;
            next_req += 1;
            let frame = ClientFrame::Submit {
                req,
                steps: job.steps.clone(),
            };
            if sock.send_frame(&frame.encode()).is_err() {
                wrote_err = true;
                break;
            }
            pending.insert(req, started.elapsed().as_micros() as u64);
            report.submitted += 1;
            idx += 1;
        }

        if !wrote_err && idx >= jobs.len() && pending.is_empty() {
            break;
        }

        // Next wake: deadline, or the next open-loop arrival.
        let mut wait = deadline_at.saturating_duration_since(Instant::now());
        if let Mode::Open { .. } = mode {
            if idx < jobs.len() {
                let until = Duration::from_micros(
                    jobs[idx]
                        .at_us
                        .saturating_sub(started.elapsed().as_micros() as u64),
                );
                wait = wait.min(until);
            }
        }
        wait = wait.clamp(Duration::from_millis(1), Duration::from_millis(100));

        let lost_conn = wrote_err
            || match rx.recv_timeout(wait) {
                Ok(f) => {
                    handle_frame(f, started, &mut pending, &mut report);
                    while let Ok(f) = rx.try_recv() {
                        handle_frame(f, started, &mut pending, &mut report);
                    }
                    false
                }
                Err(mpsc::RecvTimeoutError::Timeout) => false,
                Err(mpsc::RecvTimeoutError::Disconnected) => true,
            };

        if lost_conn {
            // The site (or our link) died: everything outstanding on this
            // connection is lost — its notifications can never reach us.
            report.lost += pending.len();
            pending.clear();
            sock.shutdown();
            let Some(session) = open_session(&addr).or_else(|| {
                thread::sleep(Duration::from_millis(50));
                open_session(&addr)
            }) else {
                break;
            };
            (sock, rx) = session;
        }
    }

    report.lost += pending.len() + (jobs.len() - idx);
    sock.shutdown();
    report
}

fn handle_frame(
    f: ServerFrame,
    started: Instant,
    pending: &mut BTreeMap<u64, u64>,
    report: &mut LoadReport,
) {
    let now_us = started.elapsed().as_micros() as u64;
    match f {
        ServerFrame::Granted { req } => {
            if let Some(submit_us) = pending.get(&req) {
                report.grant_us.push(now_us.saturating_sub(*submit_us));
            }
        }
        ServerFrame::Declared { req } => {
            if let Some(submit_us) = pending.get(&req) {
                report.declare_us.push(now_us.saturating_sub(*submit_us));
                report.declared += 1;
            }
        }
        ServerFrame::Done { req, committed, .. } => {
            if let Some(submit_us) = pending.remove(&req) {
                report.txn_us.push(now_us.saturating_sub(submit_us));
                if committed {
                    report.committed += 1;
                } else {
                    report.aborted += 1;
                }
            }
        }
    }
}
