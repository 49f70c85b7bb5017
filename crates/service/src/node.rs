//! The site server's socket shell: one [`SiteCore`] behind real sockets.
//!
//! Every decision a site makes lives in [`crate::core`]. This module only
//! moves bytes and time: it accepts and dials connections, decodes what
//! arrives into [`Input`]s, writes the core's [`Output`]s, reads the wall
//! clock for [`SiteCore::advance`], sleeps until the core's next wake or
//! the next redial, and answers the in-process control plane ([`Ctl`]).
//!
//! Threading (thread-per-core shape): one drive-loop thread per site owns
//! the core and every writer half; every socket gets a blocking reader
//! thread that forwards decoded frames into the drive loop's channel.
//! Nothing here is shared mutably across threads except the
//! crash-surviving stable store (see [`crate::cluster`]).

// cmh-lint: allow-file(D2, D4) — the shell is the wall-clock,
// multi-threaded half of the service by design; the protocol logic it
// hosts lives in `core.rs`, which carries no marker.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use cmh_ddb::ids::SiteId;

use crate::cluster::StableStore;
use crate::core::{Input, Output, SiteCore};
pub use crate::core::{SiteConfig, SiteReport};
use crate::proto::{ClientFrame, PeerFrame};
use crate::sock::{Listener, Sock};

/// Ingress events handled per pass before the core is advanced again:
/// bounds how far virtual time can fall behind the wall clock under a
/// flood of frames.
const INGRESS_BATCH: usize = 512;
/// Shortest sleep, µs: a pass costs about this much, so waking sooner for
/// a dense run of virtual-time events only spins.
const MIN_SLEEP_US: u64 = 300;
/// Longest sleep, µs: bounds what a wake source missing from
/// [`Shell::sleep_for`] could cost in latency.
const MAX_SLEEP_US: u64 = 20_000;
/// Wait before dialing a peer again, µs, whether the link broke or the
/// dial failed: long enough not to spin on a peer that is down, short
/// against the transport's first retransmission timeout.
const REDIAL_US: u64 = 30_000;

/// Control-plane commands (in-process; the data plane is the sockets).
#[derive(Debug)]
pub enum Ctl {
    /// Capture a [`SiteReport`] and keep serving.
    Snapshot(mpsc::Sender<SiteReport>),
    /// Simulate a hard crash: drop all volatile state and exit the
    /// thread. Transport state survives into the stable store.
    Crash(mpsc::Sender<()>),
    /// Capture a final report, then tear down cleanly.
    Shutdown(mpsc::Sender<SiteReport>),
}

/// Everything that can wake the drive loop.
enum Ingress {
    /// A client connection completed its `Hello` (writer half).
    ClientConn(u64, Sock),
    /// An inbound peer connection completed its `Hello` (writer half).
    PeerConnIn(SiteId, Sock),
    /// A decoded frame, or a client connection's end, in the core's terms.
    Input(Input),
    /// A peer connection broke.
    PeerGone(SiteId),
    /// Control plane.
    Ctl(Ctl),
}

/// A running site server's control handle.
#[derive(Debug)]
pub struct SiteHandle {
    /// The site.
    pub site: SiteId,
    ctl: mpsc::Sender<Ingress>,
    join: thread::JoinHandle<()>,
}

impl SiteHandle {
    /// Sends a control command and waits for its reply; `None` if the
    /// site thread is gone or does not answer in time.
    fn ask<T>(&self, ctl: fn(mpsc::Sender<T>) -> Ctl, timeout: Duration) -> Option<T> {
        let (tx, rx) = mpsc::channel();
        self.ctl.send(Ingress::Ctl(ctl(tx))).ok()?;
        rx.recv_timeout(timeout).ok()
    }

    /// Captures a live snapshot (None if the site is down or wedged).
    pub fn snapshot(&self, timeout: Duration) -> Option<SiteReport> {
        self.ask(Ctl::Snapshot, timeout)
    }

    /// Hard-kills the site (volatile state lost) and joins its thread.
    pub fn crash(self, timeout: Duration) {
        self.ask(Ctl::Crash, timeout);
        let _ = self.join.join();
    }

    /// Clean shutdown: final report, then join.
    pub fn shutdown(self, timeout: Duration) -> Option<SiteReport> {
        let report = self.ask(Ctl::Shutdown, timeout);
        let _ = self.join.join();
        report
    }
}

/// Spawns a site server thread. `epoch` is the cluster-wide wall-clock
/// zero (the core's clock is microseconds since then); `stable` is the
/// crash-surviving transport store.
pub fn spawn_site(cfg: SiteConfig, epoch: Instant, stable: StableStore) -> SiteHandle {
    let (tx, rx) = mpsc::channel::<Ingress>();
    let site = cfg.site;
    let tx_for_readers = tx.clone();
    let join = thread::Builder::new()
        .name(format!("site-{}", site.0))
        .spawn(move || run_site(cfg, epoch, stable, rx, tx_for_readers))
        .expect("spawn site thread");
    SiteHandle {
        site,
        ctl: tx,
        join,
    }
}

/// The (at most one) bidirectional connection to a peer. The site with
/// the lower id dials.
#[derive(Default)]
struct Link {
    conn: Option<Sock>,
    redial_at_us: u64,
}

/// The drive loop's state: the core plus the sockets it talks through.
struct Shell {
    cfg: SiteConfig,
    epoch: Instant,
    tx: mpsc::Sender<Ingress>,
    core: SiteCore,
    links: BTreeMap<SiteId, Link>,
    clients: BTreeMap<u64, Sock>,
    out: Vec<Output>,
}

fn run_site(
    cfg: SiteConfig,
    epoch: Instant,
    stable: StableStore,
    rx: mpsc::Receiver<Ingress>,
    tx: mpsc::Sender<Ingress>,
) {
    let me = cfg.site;
    let recovered = stable
        .lock()
        .expect("stable store")
        .remove(&me)
        .unwrap_or_default();
    let listener = Listener::bind(&cfg.addrs[me.0])
        .unwrap_or_else(|e| panic!("site {} cannot bind {:?}: {e}", me.0, cfg.addrs[me.0]));
    let stop = Arc::new(AtomicBool::new(false));
    let accept_join = spawn_accept_loop(listener, Arc::clone(&stop), tx.clone());

    let mut shell = Shell {
        core: SiteCore::recover(&cfg, recovered),
        links: (0..cfg.n_sites)
            .filter(|&s| s != me.0)
            .map(|s| (SiteId(s), Link::default()))
            .collect(),
        clients: BTreeMap::new(),
        out: Vec::new(),
        cfg,
        epoch,
        tx,
    };
    let exit = shell.serve(&rx);

    if let Ctl::Shutdown(reply) = &exit {
        let _ = reply.send(shell.core.report());
    }
    stop.store(true, Ordering::SeqCst);
    shell.clients.values().for_each(Sock::shutdown);
    shell
        .links
        .values()
        .flat_map(|l| &l.conn)
        .for_each(Sock::shutdown);
    stable
        .lock()
        .expect("stable store")
        .insert(me, shell.core.into_stable());
    if let Ctl::Crash(reply) = exit {
        let _ = reply.send(());
    }
    let _ = accept_join.join();
}

impl Shell {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The drive loop: sleep, ingest a batch and write what it drew,
    /// redial, advance the core to the wall clock, write what it emitted.
    /// Returns the `Crash` or `Shutdown` command that ended it.
    fn serve(&mut self, rx: &mpsc::Receiver<Ingress>) -> Ctl {
        loop {
            // A timeout is the only error: the shell itself holds a sender.
            let first = rx.recv_timeout(self.sleep_for()).ok();
            for ev in first.into_iter().chain(rx.try_iter()).take(INGRESS_BATCH) {
                if let ControlFlow::Break(exit) = self.ingest(ev) {
                    return exit;
                }
            }
            // Acks leave now: behind the advance's `Data` frames they delay every
            // probe hop by a write and a peer wake-up (svc_contended p50 +3.5 %).
            self.flush();
            let now_us = self.now_us();
            self.redial_due(now_us);
            self.core.advance(now_us, &mut self.out);
            self.flush();
        }
    }

    /// How long nothing needs doing: until the core's next wake or the
    /// next redial, within the sleep bounds.
    fn sleep_for(&mut self) -> Duration {
        let redial = self.dialable().map(|(_, l)| l.redial_at_us).min();
        let due = self.core.next_wake_us().into_iter().chain(redial).min();
        let wait = due.map_or(MAX_SLEEP_US, |d| d.saturating_sub(self.now_us()));
        Duration::from_micros(wait.clamp(MIN_SLEEP_US, MAX_SLEEP_US))
    }

    /// The links this site is responsible for bringing back up.
    fn dialable(&self) -> impl Iterator<Item = (SiteId, &Link)> {
        let me = self.cfg.site;
        self.links
            .iter()
            .filter(move |(&p, l)| p > me && l.conn.is_none())
            .map(|(&p, l)| (p, l))
    }

    /// Registers what an ingress event did to the sockets and hands the
    /// core the input it amounts to; answers the control plane.
    fn ingest(&mut self, ev: Ingress) -> ControlFlow<Ctl> {
        let input = match ev {
            Ingress::ClientConn(id, sock) => {
                self.clients.insert(id, sock);
                None
            }
            Ingress::Input(input) => {
                if let Input::ClientGone(id) = input {
                    self.clients.remove(&id);
                }
                Some(input)
            }
            Ingress::PeerConnIn(p, sock) => self.links.get_mut(&p).map(|link| {
                if let Some(old) = link.conn.replace(sock) {
                    old.shutdown();
                }
                Input::PeerUp(p)
            }),
            Ingress::PeerGone(p) => {
                self.schedule_redial(p);
                None
            }
            Ingress::Ctl(Ctl::Snapshot(reply)) => {
                let _ = reply.send(self.core.report());
                None
            }
            Ingress::Ctl(exit) => return ControlFlow::Break(exit),
        };
        if let Some(input) = input {
            self.core.handle(input, &mut self.out);
        }
        ControlFlow::Continue(())
    }

    /// Writes everything the core emitted. A failed peer write takes the
    /// link down (the endpoint keeps the payload; reconnect replays it).
    fn flush(&mut self) {
        let mut out = std::mem::take(&mut self.out);
        for o in out.drain(..) {
            match o {
                Output::ToPeer(p, body) => {
                    let conn = self.links.get_mut(&p).and_then(|l| l.conn.as_mut());
                    if conn.is_some_and(|sock| sock.send_frame(&body).is_err()) {
                        self.schedule_redial(p);
                    }
                }
                Output::ToClient(id, frame) => {
                    let conn = self.clients.get_mut(&id);
                    if conn.is_some_and(|sock| sock.send_frame(&frame.encode()).is_err()) {
                        self.clients.remove(&id);
                    }
                }
            }
        }
        out.append(&mut self.out);
        self.out = out;
    }

    /// Takes the link to `p` down, tells the core, and (if we are the
    /// dialing side) sets when to try again.
    fn schedule_redial(&mut self, p: SiteId) {
        let at = self.now_us() + REDIAL_US;
        if let Some(link) = self.links.get_mut(&p) {
            if let Some(c) = link.conn.take() {
                c.shutdown();
            }
            link.redial_at_us = at;
        }
        self.core.handle(Input::PeerDown(p), &mut self.out);
    }

    /// Dials every higher-numbered peer whose link is down and due.
    fn redial_due(&mut self, now_us: u64) {
        let due: Vec<SiteId> = self
            .dialable()
            .filter(|(_, l)| now_us >= l.redial_at_us)
            .map(|(p, _)| p)
            .collect();
        for p in due {
            let me = self.cfg.site;
            let dialed = Sock::connect(&self.cfg.addrs[p.0]).and_then(|mut sock| {
                sock.send_frame(&PeerFrame::Hello { site: me }.encode())?;
                Ok((sock.try_clone()?, sock))
            });
            let Ok((reader, sock)) = dialed else {
                self.schedule_redial(p);
                continue;
            };
            let tx = self.tx.clone();
            thread::Builder::new()
                .name(format!("peer-rd-{}-{}", me.0, p.0))
                .spawn(move || read_conn(reader, Caller::Peer(p), &tx))
                .expect("spawn peer reader");
            self.links.get_mut(&p).expect("dialable peer").conn = Some(sock);
            self.core.handle(Input::PeerUp(p), &mut self.out);
        }
    }
}

/// Accept loop: polls the listener and gives every connection a reader
/// thread, which starts with the first-frame handshake.
fn spawn_accept_loop(
    listener: Listener,
    stop: Arc<AtomicBool>,
    tx: mpsc::Sender<Ingress>,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("accept".into())
        .spawn(move || {
            let mut next_conn = 0;
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok(Some(sock)) => {
                        let tx = tx.clone();
                        next_conn += 1;
                        let id = next_conn;
                        let _ = thread::Builder::new()
                            .name("conn-rd".into())
                            .spawn(move || read_conn(sock, Caller::Unknown(id), &tx));
                    }
                    Ok(None) => thread::sleep(Duration::from_millis(2)),
                    Err(_) => break,
                }
            }
        })
        .expect("spawn accept loop")
}

/// Who is on the other end of a connection.
#[derive(Clone, Copy)]
enum Caller {
    /// Accepted, first frame not yet seen; holds the id a client would get.
    Unknown(u64),
    Peer(SiteId),
    Client(u64),
}

/// Reads one connection to its end, routing decoded frames into the
/// drive loop. A dialed connection knows its caller; an accepted one
/// learns it from the first frame (a peer or client `Hello`) and hands
/// the drive loop the writer half. Whatever ends the stream — EOF or a
/// frame that does not decode, in the same read as the `Hello` or a later
/// one — the drive loop hears `PeerGone` / `ClientGone` exactly once.
fn read_conn(mut sock: Sock, mut caller: Caller, tx: &mpsc::Sender<Ingress>) {
    let mut writer = match caller {
        Caller::Unknown(_) => sock.try_clone().ok(),
        _ => None,
    };
    sock.pump(|body| {
        let ev = match caller {
            Caller::Peer(p) => PeerFrame::decode(body)
                .ok()
                .map(|f| Ingress::Input(Input::Peer(p, f))),
            Caller::Client(c) => ClientFrame::decode(body)
                .ok()
                .map(|f| Ingress::Input(Input::Client(c, f))),
            Caller::Unknown(id) => writer.take().and_then(|w| {
                if let Ok(PeerFrame::Hello { site }) = PeerFrame::decode(body) {
                    caller = Caller::Peer(site);
                    Some(Ingress::PeerConnIn(site, w))
                } else if let Ok(ClientFrame::Hello) = ClientFrame::decode(body) {
                    caller = Caller::Client(id);
                    Some(Ingress::ClientConn(id, w))
                } else {
                    None
                }
            }),
        };
        match ev.map(|ev| tx.send(ev)) {
            Some(Ok(())) => ControlFlow::Continue(()),
            _ => ControlFlow::Break(()),
        }
    });
    let _ = match caller {
        Caller::Peer(p) => tx.send(Ingress::PeerGone(p)),
        Caller::Client(c) => tx.send(Ingress::Input(Input::ClientGone(c))),
        Caller::Unknown(_) => Ok(()),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::frame;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    /// What the drive loop hears from an accepted connection fed `writes`:
    /// one `write_all` each, then a wait for that many events — so two
    /// writes cannot share a read. The writing end stays open throughout:
    /// nothing heard is due to EOF.
    fn heard(writes: &[(Vec<u8>, usize)]) -> Vec<String> {
        let (mut ours, theirs) = UnixStream::pair().expect("socket pair");
        let (tx, rx) = mpsc::channel();
        let reader = thread::spawn(move || read_conn(Sock::Uds(theirs), Caller::Unknown(7), &tx));
        let mut heard = Vec::new();
        for (bytes, events) in writes {
            ours.write_all(bytes).expect("write");
            for _ in 0..*events {
                heard.push(match rx.recv_timeout(Duration::from_secs(5)) {
                    Ok(Ingress::PeerConnIn(p, _)) => format!("PeerConnIn({})", p.0),
                    Ok(Ingress::PeerGone(p)) => format!("PeerGone({})", p.0),
                    Ok(_) => "other".to_owned(),
                    Err(e) => e.to_string(),
                });
            }
        }
        reader.join().expect("reader thread");
        heard
    }

    #[test]
    fn undecodable_frame_tears_the_link_down_however_the_bytes_were_chunked() {
        let hello = frame(&PeerFrame::Hello { site: SiteId(3) }.encode());
        let bad_tag = frame(&[0x7f, 1, 2, 3]);
        let expected = ["PeerConnIn(3)", "PeerGone(3)"];
        let one_write = [hello.clone(), bad_tag.clone()].concat();
        assert_eq!(heard(&[(one_write, 2)]), expected);
        assert_eq!(heard(&[(hello, 1), (bad_tag, 1)]), expected);
    }
}
