//! Load generation against a running cluster.
//!
//! One worker thread per site multiplexes its whole job list over one
//! client connection: each round it writes every `Submit` it admits at
//! once, then reads the connection itself, under a read timeout, and
//! decodes each [`ServerFrame`] in place. Two driving disciplines:
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
use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::ops::ControlFlow;
use std::thread;
use std::time::{Duration, Instant};

use cmh_ddb::ids::SiteId;
use cmh_ddb::txn::{Transaction, TxnStep};

use crate::proto::{ClientFrame, ServerFrame};
use crate::sock::{Addr, Sock};
use crate::wire::{put_frame_with, FrameReader};

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
    let probe = Job {
        site: SiteId(0),
        steps: vec![TxnStep::Work { ticks: 1 }],
        at_us: 0,
    };
    while started.elapsed() < deadline {
        // One attempt: a window-1 run of the probe, for at most 500 ms.
        let wait = Duration::from_millis(500).min(deadline.saturating_sub(started.elapsed()));
        let one = vec![probe.clone()];
        let closed = Mode::Closed { per_site: 1 };
        if site_worker(addr.clone(), one, closed, started, Instant::now() + wait).committed > 0 {
            return Some(started.elapsed().as_millis() as u64);
        }
        thread::sleep(Duration::from_millis(20));
    }
    None
}

/// A client connection, read by the thread that writes it.
struct Session {
    sock: Sock,
    reader: FrameReader,
    /// The read timeout last set on `sock`.
    wait: Option<Duration>,
}

/// Connects and says hello.
fn open_session(addr: &Addr) -> Option<Session> {
    let mut sock = Sock::connect(addr).ok()?;
    sock.send_frame(&ClientFrame::Hello.encode()).ok()?;
    Some(Session {
        sock,
        reader: FrameReader::new(),
        wait: None,
    })
}

impl Session {
    /// Waits up to `wait` for one read and hands each frame it completed
    /// to `on_frame`. `Break` means the connection is lost: EOF, a read
    /// error or a frame that does not decode; an expired wait continues.
    fn read(&mut self, wait: Duration, mut on_frame: impl FnMut(ServerFrame)) -> ControlFlow<()> {
        if self.wait != Some(wait) {
            if self.sock.set_read_timeout(wait).is_err() {
                return ControlFlow::Break(());
            }
            self.wait = Some(wait);
        }
        let on_body = |body: &[u8]| match ServerFrame::decode(body).map(&mut on_frame) {
            Ok(()) => ControlFlow::Continue(()),
            Err(_) => ControlFlow::Break(()),
        };
        match self.sock.read_frames(&mut self.reader, on_body) {
            Ok(flow) => flow,
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => ControlFlow::Continue(()),
            Err(_) => ControlFlow::Break(()),
        }
    }
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
    let mut round = Vec::new();
    let window = match mode {
        Mode::Closed { per_site } => per_site,
        Mode::Open { max_inflight } => max_inflight,
    };

    // Initial connect, with a grace window for a cluster still binding.
    let mut session = None;
    let connect_until = deadline_at.min(Instant::now() + Duration::from_secs(2));
    while session.is_none() && Instant::now() < connect_until {
        session = open_session(&addr);
        if session.is_none() {
            thread::sleep(Duration::from_millis(20));
        }
    }
    let Some(mut session) = session else {
        report.lost = jobs.len();
        return report;
    };

    loop {
        if Instant::now() >= deadline_at {
            break;
        }
        let now_us = started.elapsed().as_micros() as u64;

        // Admit work: every job due and within the window, framed into
        // one round and written at once.
        let due = jobs[idx..]
            .iter()
            .take(window.saturating_sub(pending.len()))
            .take_while(|j| matches!(mode, Mode::Closed { .. }) || j.at_us <= now_us);
        let first = next_req;
        round.clear();
        for job in due {
            put_frame_with(&mut round, |buf| {
                ClientFrame::put_submit(buf, next_req, &job.steps)
            });
            next_req += 1;
        }
        let admitted = (next_req - first) as usize;
        idx += admitted;
        report.submitted += admitted;
        let wrote_err = admitted > 0 && session.sock.write_all(&round).is_err();
        let sent_us = started.elapsed().as_micros() as u64;
        pending.extend((first..next_req).map(|req| (req, sent_us)));

        if !wrote_err && idx >= jobs.len() && pending.is_empty() {
            break;
        }

        // Next wake: deadline, or the next open-loop arrival.
        let mut wait = deadline_at.saturating_duration_since(Instant::now());
        if let (Mode::Open { .. }, Some(next)) = (mode, jobs.get(idx)) {
            let now_us = started.elapsed().as_micros() as u64;
            wait = wait.min(Duration::from_micros(next.at_us.saturating_sub(now_us)));
        }
        wait = wait.clamp(Duration::from_millis(1), Duration::from_millis(100));

        let lost_conn = wrote_err
            || session
                .read(wait, |f| {
                    handle_frame(f, started, &mut pending, &mut report)
                })
                .is_break();

        if lost_conn {
            // The site (or our link) died: everything outstanding on this
            // connection is lost — its notifications can never reach us.
            report.lost += pending.len();
            pending.clear();
            session.sock.shutdown();
            let Some(next) = open_session(&addr).or_else(|| {
                thread::sleep(Duration::from_millis(50));
                open_session(&addr)
            }) else {
                break;
            };
            session = next;
        }
    }

    report.lost += pending.len() + (jobs.len() - idx);
    session.sock.shutdown();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::frame;
    use cmh_ddb::ids::ResourceId;
    use cmh_ddb::lock::LockMode;
    use std::io::{Read, Write};
    use std::os::unix::net::{UnixListener, UnixStream};

    /// The closed window every test runs with.
    const WINDOW: usize = 16;

    /// `n` jobs for site 0, no two scripts alike.
    fn jobs(n: usize) -> Vec<Job> {
        (0..n as u64)
            .map(|k| Job {
                site: SiteId(0),
                steps: vec![
                    TxnStep::lock(SiteId(0), ResourceId(k), LockMode::Exclusive),
                    TxnStep::Work { ticks: k },
                ],
                at_us: 0,
            })
            .collect()
    }

    /// What a site should read first from a client given `jobs`: its
    /// `Hello`, then a `Submit` per job of the first window, in `req` order.
    fn first_window(jobs: &[Job]) -> Vec<u8> {
        let submits = (1..).zip(&jobs[..WINDOW]).map(|(req, job)| {
            let steps = job.steps.clone();
            frame(&ClientFrame::Submit { req, steps }.encode())
        });
        let hello = frame(&ClientFrame::Hello.encode());
        std::iter::once(hello).chain(submits).flatten().collect()
    }

    /// Runs `jobs` against a fake site that accepts one connection, stops
    /// listening (so a reconnect is refused) and hands the connection to
    /// `site`. Returns the report, how long `run_load` took against its
    /// 60 s deadline, and what `site` returned.
    fn against_fake_site<T: Send + 'static>(
        name: &str,
        jobs: Vec<Job>,
        site: impl FnOnce(UnixStream) -> T + Send + 'static,
    ) -> (LoadReport, Duration, T) {
        let pid = std::process::id();
        let path = std::env::temp_dir().join(format!("cmh-loadgen-{pid}-{name}.sock"));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind the fake site");
        let server = thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept the client");
            drop(listener);
            site(conn)
        });
        let t0 = Instant::now();
        let cfg = LoadConfig {
            mode: Mode::Closed { per_site: WINDOW },
            deadline: Duration::from_secs(60),
        };
        let report = run_load(&[Addr::Uds(path.clone())], jobs, cfg);
        let took = t0.elapsed();
        let answer = server.join().expect("fake site");
        let _ = std::fs::remove_file(&path);
        (report, took, answer)
    }

    #[test]
    fn a_closed_window_goes_out_as_exact_submits_in_req_order() {
        let jobs = jobs(WINDOW + 4);
        let want = first_window(&jobs);
        let len = want.len();
        let (report, _, (got, more)) = against_fake_site("window", jobs, move |mut conn| {
            let mut got = vec![0; len];
            conn.read_exact(&mut got)
                .expect("hello and a window of submits");
            // Nothing else is due until a `Done` opens the window.
            conn.set_read_timeout(Some(Duration::from_millis(50)))
                .expect("read timeout");
            (got, conn.read(&mut [0]).ok())
        });
        assert!(
            got == want,
            "the first window is not the submits framed in turn"
        );
        assert_eq!(more, None, "a submit beyond the window went out");
        assert_eq!((report.submitted, report.lost), (WINDOW, WINDOW + 4));
    }

    #[test]
    fn an_undecodable_frame_or_a_close_loses_the_connection_at_once() {
        for undecodable in [true, false] {
            let jobs = jobs(WINDOW + 4);
            let len = first_window(&jobs).len();
            let (report, took, ()) = against_fake_site(
                if undecodable { "bad" } else { "close" },
                jobs,
                move |mut conn| {
                    conn.read_exact(&mut vec![0; len])
                        .expect("the first window");
                    let done = ServerFrame::Done {
                        req: 1,
                        committed: true,
                        attempts: 1,
                    };
                    let mut answer = frame(&done.encode());
                    if undecodable {
                        answer.extend(frame(&[0x7f]));
                    }
                    conn.write_all(&answer).expect("answer");
                    if undecodable {
                        // Hold the connection until the client hangs up.
                        let _ = conn.read_to_end(&mut Vec::new());
                    }
                },
            );
            // The `Done` ahead of the end still counts; the rest is lost.
            assert_eq!(
                (report.committed, report.lost),
                (1, WINDOW + 3),
                "undecodable {undecodable}: {report:?}"
            );
            assert!(took < Duration::from_secs(5), "waited {took:?}");
        }
    }
}
