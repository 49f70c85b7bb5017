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
//! thread that decodes what arrives and forwards it into the drive loop's
//! channel. Nothing here is shared mutably across threads except the
//! crash-surviving stable store (see [`crate::cluster`]).
//!
//! A `read` is the unit of reading: every frame one read completes goes
//! to the drive loop as one `Ingress::Frames` batch, in arrival order,
//! with the reader's counts of reads and frames riding along
//! (`service.shell.reads`, `service.shell.frames_in`). A drive-loop pass
//! is the unit of writing: everything the core emits in one pass is
//! framed into one buffer per connection, in emission order, and each
//! buffer goes out in one `write_all` (`service.shell.frames`,
//! `service.shell.writes`). All four counters are in [`SiteReport`].

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
use crate::core::{Input, Output, SiteCore, SiteStable};
pub use crate::core::{SiteConfig, SiteReport};
use crate::proto::{ClientFrame, PeerFrame};
use crate::sock::{Listener, Sock};
use crate::wire::{put_frame, FrameReader};

/// Inputs handled per pass before the core is advanced again: bounds how
/// far virtual time can fall behind the wall clock under a flood of
/// frames. A batch is never split, so a pass may overshoot by one read.
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
    /// An inbound peer connection completed its `Hello`: the link's new
    /// generation and the writer half.
    PeerConnIn(SiteId, u64, Sock),
    /// The frames one read completed, decoded in arrival order, and the
    /// reads and frames (a `Hello` included) the connection's reader has
    /// taken since its last batch.
    Frames {
        inputs: Vec<Input>,
        reads: u64,
        frames: u64,
    },
    /// The client connection closed.
    ClientGone(u64),
    /// The peer connection of this generation broke.
    PeerGone(SiteId, u64),
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
    /// Names the connection in `conn`, so the end of one it replaced is
    /// not taken for its own: the accept loop's number for an accepted
    /// connection, one more than the last for a dialed one. A link's
    /// connections are all accepted or all dialed, so numbers never repeat.
    gen: u64,
    redial_at_us: u64,
}

/// Where an output goes: one byte stream each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum To {
    Peer(SiteId),
    Client(u64),
}

/// One pass's outgoing bytes, a buffer per connection (kept, and their
/// capacity with them, from pass to pass), and what the shell has written.
#[derive(Default)]
struct Outbox {
    bufs: BTreeMap<To, Vec<u8>>,
    frames: u64,
    writes: u64,
}

impl Outbox {
    /// Frames each output onto its connection's buffer, in emission order.
    fn stage(&mut self, out: impl Iterator<Item = Output>) {
        for o in out {
            let (to, body) = match o {
                Output::ToPeer(p, body) => (To::Peer(p), body),
                Output::ToClient(c, frame) => (To::Client(c), frame.encode()),
            };
            put_frame(self.bufs.entry(to).or_default(), &body);
            self.frames += 1;
        }
    }
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
    outbox: Outbox,
    /// Reads the reader threads made, and frames they decoded.
    reads: u64,
    frames_in: u64,
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

    let mut shell = Shell::new(cfg, epoch, tx, recovered);
    let exit = shell.serve(&rx);

    if let Ctl::Shutdown(reply) = &exit {
        let _ = reply.send(shell.report());
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
    /// Boots the core from `recovered` with every link down.
    fn new(
        cfg: SiteConfig,
        epoch: Instant,
        tx: mpsc::Sender<Ingress>,
        recovered: SiteStable,
    ) -> Shell {
        let me = cfg.site;
        Shell {
            core: SiteCore::recover(&cfg, recovered),
            links: (0..cfg.n_sites)
                .filter(|&s| s != me.0)
                .map(|s| (SiteId(s), Link::default()))
                .collect(),
            clients: BTreeMap::new(),
            out: Vec::new(),
            outbox: Outbox::default(),
            reads: 0,
            frames_in: 0,
            cfg,
            epoch,
            tx,
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The core's report plus what the shell has read and written.
    fn report(&self) -> SiteReport {
        let mut report = self.core.report();
        report.metrics.extend([
            ("service.shell.frames".to_owned(), self.outbox.frames),
            ("service.shell.writes".to_owned(), self.outbox.writes),
            ("service.shell.reads".to_owned(), self.reads),
            ("service.shell.frames_in".to_owned(), self.frames_in),
        ]);
        report
    }

    /// The drive loop, one pass at a time: sleep, ingest up to
    /// [`INGRESS_BATCH`] inputs, redial, advance the core to the wall
    /// clock, write what the pass emitted. Returns the `Crash` or
    /// `Shutdown` command that ended it.
    fn serve(&mut self, rx: &mpsc::Receiver<Ingress>) -> Ctl {
        loop {
            // A timeout is the only error: the shell itself holds a sender.
            let first = rx.recv_timeout(self.sleep_for()).ok();
            let mut inputs = 0;
            for ev in first.into_iter().chain(rx.try_iter()) {
                inputs += match &ev {
                    Ingress::Frames { inputs, .. } => inputs.len(),
                    _ => 1,
                };
                if let ControlFlow::Break(exit) = self.ingest(ev) {
                    return exit;
                }
                if inputs >= INGRESS_BATCH {
                    break;
                }
            }
            let now_us = self.now_us();
            self.redial_due(now_us);
            self.core.advance(now_us, &mut self.out);
            self.flush();
        }
    }

    /// How long nothing needs doing: until the core's next wake or the
    /// next redial, within the sleep bounds.
    fn sleep_for(&self) -> Duration {
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
    /// core the inputs it amounts to; answers the control plane.
    fn ingest(&mut self, ev: Ingress) -> ControlFlow<Ctl> {
        let input = match ev {
            Ingress::ClientConn(id, sock) => {
                self.clients.insert(id, sock);
                None
            }
            Ingress::Frames {
                inputs,
                reads,
                frames,
            } => {
                self.reads += reads;
                self.frames_in += frames;
                for input in inputs {
                    self.core.handle(input, &mut self.out);
                }
                None
            }
            Ingress::ClientGone(id) => {
                self.clients.remove(&id);
                Some(Input::ClientGone(id))
            }
            Ingress::PeerConnIn(p, gen, sock) => self.links.get_mut(&p).map(|link| {
                link.gen = gen;
                if let Some(old) = link.conn.replace(sock) {
                    old.shutdown();
                }
                Input::PeerUp(p)
            }),
            Ingress::PeerGone(p, gen) => {
                // A replaced connection's reader reports the shutdown that
                // replacing it caused: that says nothing about the link.
                if self
                    .links
                    .get(&p)
                    .is_some_and(|l| l.conn.is_some() && l.gen == gen)
                {
                    self.schedule_redial(p);
                }
                None
            }
            Ingress::Ctl(Ctl::Snapshot(reply)) => {
                let _ = reply.send(self.report());
                None
            }
            Ingress::Ctl(exit) => return ControlFlow::Break(exit),
        };
        if let Some(input) = input {
            self.core.handle(input, &mut self.out);
        }
        ControlFlow::Continue(())
    }

    /// Writes everything the pass emitted, one `write_all` per connection.
    /// A failed peer write takes only that link down (the endpoint keeps
    /// the payloads; reconnect replays them); a failed client write drops
    /// the client. A gone client's buffer goes with it.
    fn flush(&mut self) {
        self.outbox.stage(self.out.drain(..));
        let (links, clients) = (&mut self.links, &mut self.clients);
        let writes = &mut self.outbox.writes;
        let mut broken = Vec::new();
        self.outbox.bufs.retain(|&to, buf| {
            let sock = match to {
                To::Peer(p) => links.get_mut(&p).and_then(|l| l.conn.as_mut()),
                To::Client(c) => clients.get_mut(&c),
            };
            let live = sock.is_some();
            if let Some(sock) = sock.filter(|_| !buf.is_empty()) {
                *writes += 1;
                if sock.write_all(buf).is_err() {
                    broken.push(to);
                }
            }
            buf.clear();
            live || matches!(to, To::Peer(_))
        });
        for to in broken {
            match to {
                To::Peer(p) => self.schedule_redial(p),
                To::Client(c) => {
                    self.clients.remove(&c);
                }
            }
        }
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
            // The `Hello` went out alone: it must precede the pass's frames.
            self.outbox.frames += 1;
            self.outbox.writes += 1;
            let link = self.links.get_mut(&p).expect("dialable peer");
            link.gen += 1;
            link.conn = Some(sock);
            let caller = Caller::Peer(p, link.gen);
            let tx = self.tx.clone();
            thread::Builder::new()
                .name(format!("peer-rd-{}-{}", me.0, p.0))
                .spawn(move || read_conn(reader, caller, &tx))
                .expect("spawn peer reader");
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
    /// Accepted, first frame not yet seen; holds the connection's number,
    /// which a client keeps as its id and a peer link as its generation.
    Unknown(u64),
    /// A peer, and the link generation this connection is.
    Peer(SiteId, u64),
    Client(u64),
}

/// Reads one connection to its end, handing the drive loop the frames of
/// each read as one [`Ingress::Frames`]. A dialed connection knows its
/// caller; an accepted one learns it from the first frame (a peer or
/// client `Hello`) and hands the drive loop the writer half at once,
/// ahead of the frames that follow it. Whatever ends the stream — EOF or
/// a frame that does not decode, in the same read as the `Hello` or a
/// later one — the frames decoded before it still arrive, and then the
/// drive loop hears `PeerGone` / `ClientGone` exactly once.
fn read_conn(mut sock: Sock, mut caller: Caller, tx: &mpsc::Sender<Ingress>) {
    let mut writer = match caller {
        Caller::Unknown(_) => sock.try_clone().ok(),
        _ => None,
    };
    let mut reader = FrameReader::new();
    let (mut reads, mut frames, mut inputs) = (0, 0, Vec::new());
    loop {
        let read = sock.read_frames(&mut reader, |body| {
            let decoded = match caller {
                Caller::Peer(p, _) => PeerFrame::decode(body)
                    .map(|f| inputs.push(Input::Peer(p, f)))
                    .is_ok(),
                Caller::Client(c) => ClientFrame::decode(body)
                    .map(|f| inputs.push(Input::Client(c, f)))
                    .is_ok(),
                Caller::Unknown(id) => writer
                    .take()
                    .and_then(|w| handshake(body, id, w))
                    .is_some_and(|(known, ev)| {
                        caller = known;
                        tx.send(ev).is_ok()
                    }),
            };
            frames += u64::from(decoded);
            if decoded {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        reads += 1;
        if !inputs.is_empty() {
            let inputs = std::mem::take(&mut inputs);
            if tx
                .send(Ingress::Frames {
                    inputs,
                    reads,
                    frames,
                })
                .is_err()
            {
                break;
            }
            (reads, frames) = (0, 0);
        }
        if !matches!(read, Ok(ControlFlow::Continue(()))) {
            break;
        }
    }
    let _ = match caller {
        Caller::Peer(p, gen) => tx.send(Ingress::PeerGone(p, gen)),
        Caller::Client(c) => tx.send(Ingress::ClientGone(c)),
        Caller::Unknown(_) => Ok(()),
    };
}

/// Who an accepted connection's first frame says is calling, and the
/// event that hands the drive loop its writer half; `None` if the frame
/// is no `Hello`.
fn handshake(body: &[u8], id: u64, writer: Sock) -> Option<(Caller, Ingress)> {
    if let Ok(PeerFrame::Hello { site }) = PeerFrame::decode(body) {
        Some((
            Caller::Peer(site, id),
            Ingress::PeerConnIn(site, id, writer),
        ))
    } else if let Ok(ClientFrame::Hello) = ClientFrame::decode(body) {
        Some((Caller::Client(id), Ingress::ClientConn(id, writer)))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ServerFrame;
    use crate::wire::frame;
    use cmh_ddb::config::DdbConfig;
    use cmh_ddb::ids::TransactionId;
    use cmh_ddb::msg::DdbMsg;
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
                    Ok(Ingress::PeerConnIn(p, _, _)) => format!("PeerConnIn({})", p.0),
                    Ok(Ingress::Frames { inputs, .. }) => format!("{inputs:?}"),
                    Ok(Ingress::PeerGone(p, _)) => format!("PeerGone({})", p.0),
                    Ok(_) => "other".to_owned(),
                    Err(e) => e.to_string(),
                });
            }
        }
        reader.join().expect("reader thread");
        heard
    }

    /// The frames of one write reach the drive loop as one batch, in
    /// order, after the handshake; an undecodable frame ends the link,
    /// but only after the frames decoded ahead of it in the same read.
    #[test]
    fn undecodable_frame_tears_the_link_down_however_the_bytes_were_chunked() {
        let hello = frame(&PeerFrame::Hello { site: SiteId(3) }.encode());
        let acks: Vec<u8> = (1..=3)
            .flat_map(|next| frame(&PeerFrame::Ack { next }.encode()))
            .collect();
        let bad_tag = frame(&[0x7f, 1, 2, 3]);
        let batch = (1..=3)
            .map(|next| Input::Peer(SiteId(3), PeerFrame::Ack { next }))
            .collect::<Vec<_>>();
        let expected = [
            "PeerConnIn(3)".to_owned(),
            format!("{batch:?}"),
            "PeerGone(3)".to_owned(),
        ];
        let one_write = [hello.clone(), acks.clone(), bad_tag.clone()].concat();
        assert_eq!(heard(&[(one_write, 3)]), expected);
        let acks_then_bad = [acks.clone(), bad_tag.clone()].concat();
        assert_eq!(heard(&[(hello.clone(), 1), (acks_then_bad, 2)]), expected);
        assert_eq!(
            heard(&[(hello.clone(), 1), (acks, 1), (bad_tag.clone(), 1)]),
            expected
        );
        let expected = ["PeerConnIn(3)", "PeerGone(3)"];
        assert_eq!(
            heard(&[([hello.clone(), bad_tag.clone()].concat(), 2)]),
            expected
        );
        assert_eq!(heard(&[(hello, 1), (bad_tag, 1)]), expected);
    }

    #[test]
    fn a_pass_buffers_each_connections_frames_in_emission_order() {
        let (a, b) = (SiteId(1), SiteId(2));
        let peer = |to, n: u8| Output::ToPeer(to, vec![n; n as usize]);
        let client = |req| Output::ToClient(9, ServerFrame::Granted { req });
        let pass = [
            peer(a, 1),
            client(1),
            peer(b, 2),
            peer(a, 3),
            client(2),
            peer(a, 0),
        ];
        let mut outbox = Outbox::default();
        for round in 1..=2 {
            outbox.stage(pass.iter().cloned());
            let want = |to: To| -> Vec<u8> {
                let bodies = pass.iter().filter_map(|o| match o {
                    Output::ToPeer(p, body) if to == To::Peer(*p) => Some(body.clone()),
                    Output::ToClient(c, f) if to == To::Client(*c) => Some(f.encode()),
                    _ => None,
                });
                bodies.flat_map(|body| frame(&body)).collect()
            };
            for to in [To::Peer(a), To::Peer(b), To::Client(9)] {
                assert_eq!(outbox.bufs[&to], want(to), "{to:?}");
            }
            assert_eq!(outbox.bufs.len(), 3);
            assert_eq!(outbox.frames, round * pass.len() as u64);
            // What `flush` leaves behind: empty buffers, ready for reuse.
            outbox.bufs.values_mut().for_each(Vec::clear);
        }
    }

    #[test]
    fn a_replaced_peer_connection_outlives_the_old_readers_end() {
        let peer = SiteId(0);
        let cfg = SiteConfig {
            site: SiteId(1),
            n_sites: 2,
            ddb: DdbConfig::detect_only(5_000),
            seed: 1,
            tick_micros: 2,
            addrs: Vec::new(),
            reliable_ms: Default::default(),
        };
        let (tx, rx) = mpsc::channel();
        let mut shell = Shell::new(cfg, Instant::now(), tx.clone(), SiteStable::default());
        let recv = || {
            rx.recv_timeout(Duration::from_secs(5))
                .expect("drive loop event")
        };

        // The peer dials twice — it restarted, or redialed — and the
        // second connection is accepted before the first one's end is seen.
        let mut dialers = Vec::new();
        let mut readers = Vec::new();
        for id in [7, 8] {
            let (mut ours, theirs) = UnixStream::pair().expect("socket pair");
            ours.write_all(&frame(&PeerFrame::Hello { site: peer }.encode()))
                .expect("hello");
            let tx = tx.clone();
            readers.push(thread::spawn(move || {
                read_conn(Sock::Uds(theirs), Caller::Unknown(id), &tx)
            }));
            let conn_in = recv();
            assert!(matches!(conn_in, Ingress::PeerConnIn(p, g, _) if p == peer && g == id));
            assert!(shell.ingest(conn_in).is_continue());
            dialers.push(ours);
        }
        // Swapping in the second connection shut the first: its reader ends.
        let gone = recv();
        assert!(matches!(gone, Ingress::PeerGone(p, 7) if p == peer));
        assert!(shell.ingest(gone).is_continue());

        // The link still holds the second connection, and the core still
        // has the peer up: a `Data` frame from it is acked, over that one.
        let link = &shell.links[&peer];
        assert_eq!((link.conn.is_some(), link.gen), (true, 8));
        let msg = DdbMsg::Abort {
            txn: TransactionId(99),
        };
        shell.core.handle(
            Input::Peer(peer, PeerFrame::Data { seq: 0, msg }),
            &mut shell.out,
        );
        let now_us = shell.now_us();
        shell.core.advance(now_us, &mut shell.out);
        shell.flush();
        let second = dialers.pop().expect("second dialer");
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let (mut second, mut reader) = (Sock::Uds(second), FrameReader::new());
        let mut acked = false;
        while !acked {
            let read = second.read_frames(&mut reader, |body| {
                acked |= PeerFrame::decode(body) == Ok(PeerFrame::Ack { next: 1 });
                ControlFlow::Continue(())
            });
            if !matches!(read, Ok(ControlFlow::Continue(()))) {
                break;
            }
        }
        assert!(acked, "the ack never reached the second connection");

        drop(dialers);
        shell
            .links
            .values()
            .flat_map(|l| &l.conn)
            .for_each(Sock::shutdown);
        for r in readers {
            r.join().expect("reader thread");
        }
    }
}
