//! The sans-IO site core: everything a detector site *decides*.
//!
//! [`SiteCore`] hosts the unmodified [`Controller`] as the one process of
//! a `simnet` [`Solo`] host (its timers, and its sends to other sites
//! handed back for the wire), one reliable [`Endpoint`] per peer, the
//! client-request tracking and the transaction-id high-water mark. It is
//! a plain state machine: [`SiteCore::handle`] takes one decoded
//! [`Input`], [`SiteCore::advance`] moves it to a caller-supplied
//! microsecond clock, and both append [`Output`]s — encoded peer frames
//! and client notifications — for the host to deliver.
//!
//! The core never reads a clock and owns no connection, thread or
//! channel, so it carries no `cmh-lint` allow marker: the determinism
//! lint, not this comment, is what proves it. Two hosts drive it — the
//! wall-clock shell in [`crate::node`], and `tests/sim_cluster.rs`, which
//! runs N cores as ordinary `simnet` processes under a `FaultPlan`.

use std::collections::BTreeMap;

use cmh_ddb::config::DdbConfig;
use cmh_ddb::controller::Controller;
use cmh_ddb::ids::{SiteId, TransactionId};
use cmh_ddb::msg::DdbMsg;
use cmh_ddb::snapshot::SiteSnapshot;
use cmh_ddb::txn::TxnStatus;
use simnet::sim::NodeId;
use simnet::solo::Solo;
use simnet::time::SimTime;
use simnet::transport::{Endpoint, ReliableConfig};

use crate::proto::{build_txn, ClientFrame, PeerFrame, ServerFrame};
use crate::sock::Addr;

/// Configuration of one site server.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// This site.
    pub site: SiteId,
    /// Total sites in the topology.
    pub n_sites: usize,
    /// Controller behaviour (detection / resolution knobs).
    pub ddb: DdbConfig,
    /// Seed for the site's host (the controller's timer jitter).
    pub seed: u64,
    /// Duration of one virtual tick, in microseconds of the host's
    /// clock. Virtual time is advanced to `now_us / tick_micros` on every
    /// [`SiteCore::advance`], so controller timer periods (in ticks) map
    /// to host time here.
    pub tick_micros: u64,
    /// Where every site listens; index = site. This site binds its own
    /// entry and dials every *higher* site's entry (lower sites dial us),
    /// giving exactly one bidirectional link per site pair.
    pub addrs: Vec<Addr>,
    /// Reliable-transport tuning for peer links, in **milliseconds** (the
    /// endpoint clock is `now_us / 1000`).
    pub reliable_ms: ReliableConfig,
}

/// Report drained from a site on snapshot/shutdown.
#[derive(Debug, Clone)]
pub struct SiteReport {
    /// Controller-state snapshot for cluster-level verification.
    pub snapshot: SiteSnapshot,
    /// The site host's metric counters (probe/message/txn counts).
    pub metrics: Vec<(String, u64)>,
    /// Per-peer `(peer, unacked, abandoned)` transport occupancy.
    pub transport: Vec<(SiteId, usize, u64)>,
}

/// Per-site state that survives a crash ("stable storage").
#[derive(Debug, Default)]
pub struct SiteStable {
    /// Reliable endpoints, keyed by peer.
    pub endpoints: BTreeMap<SiteId, Endpoint<DdbMsg>>,
    /// Next local transaction ordinal — persisted so a restarted site
    /// never re-issues an id that peers may still hold lock state for.
    pub next_txn: u32,
}

/// One thing that happened at the site's edge, already decoded.
#[derive(Debug)]
pub enum Input {
    /// A frame from client connection `conn`.
    Client(u64, ClientFrame),
    /// Client connection `conn` closed: it is owed nothing further.
    ClientGone(u64),
    /// The link to a peer came up (dialed or accepted): it is owed our
    /// cumulative ack and a replay of everything unacknowledged.
    PeerUp(SiteId),
    /// The link to a peer broke: frames for it stay in the endpoint.
    PeerDown(SiteId),
    /// A frame from a peer.
    Peer(SiteId, PeerFrame),
}

/// One thing the host must deliver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// An encoded [`PeerFrame`] body for the link to this peer.
    ToPeer(SiteId, Vec<u8>),
    /// A notification for client connection `conn`.
    ToClient(u64, ServerFrame),
}

/// One peer: the reliable endpoint, whether a link currently carries it,
/// and whether a `Data` frame arrived since our last ack to it. Nothing
/// is emitted for a peer whose link is down; the endpoint keeps the
/// payloads and the next [`Input::PeerUp`] replays them.
#[derive(Debug)]
struct Peer {
    ep: Endpoint<DdbMsg>,
    up: bool,
    owes_ack: bool,
}

/// A submitted transaction whose client is still owed notifications.
#[derive(Debug)]
struct Track {
    conn: u64,
    req: u64,
    granted: bool,
    declared: bool,
}

/// The site state machine. See the module docs.
#[derive(Debug)]
pub struct SiteCore {
    me: SiteId,
    n_sites: usize,
    tick_micros: u64,
    host: Solo<DdbMsg, Controller>,
    peers: BTreeMap<SiteId, Peer>,
    inflight: BTreeMap<TransactionId, Track>,
    next_txn: u32,
    decl_seen: usize,
    scratch_deliver: Vec<DdbMsg>,
    scratch_rto: Vec<(u64, DdbMsg)>,
    scratch_sent: Vec<(NodeId, DdbMsg)>,
}

impl SiteCore {
    /// Boots the site from its stable store: transport state and the
    /// transaction-id high-water mark survive, everything else (lock
    /// table, scripts, probe state) starts empty. `SiteStable::default()`
    /// is a first boot. Every link starts down.
    pub fn recover(cfg: &SiteConfig, mut stable: SiteStable) -> SiteCore {
        let me = cfg.site;
        let peers = (0..cfg.n_sites)
            .filter(|&s| s != me.0)
            .map(|s| {
                let ep = stable
                    .endpoints
                    .remove(&SiteId(s))
                    .unwrap_or_else(|| Endpoint::new(cfg.reliable_ms));
                let peer = Peer {
                    ep,
                    up: false,
                    owes_ack: false,
                };
                (SiteId(s), peer)
            })
            .collect();
        let seed = cfg.seed ^ (me.0 as u64).wrapping_mul(0x9e3779b97f4a7c15);
        let controller = Controller::new(me, cfg.ddb);
        SiteCore {
            me,
            n_sites: cfg.n_sites,
            tick_micros: cfg.tick_micros,
            host: Solo::new(NodeId(me.0), cfg.n_sites, seed, controller),
            peers,
            inflight: BTreeMap::new(),
            next_txn: stable.next_txn,
            decl_seen: 0,
            scratch_deliver: Vec::new(),
            scratch_rto: Vec::new(),
            scratch_sent: Vec::new(),
        }
    }

    /// What must survive a crash; everything else is dropped with `self`.
    pub fn into_stable(self) -> SiteStable {
        SiteStable {
            endpoints: self.peers.into_iter().map(|(p, l)| (p, l.ep)).collect(),
            next_txn: self.next_txn,
        }
    }

    /// Applies one input. Inputs carry no time: the controller sees them
    /// at the virtual time the last [`SiteCore::advance`] reached.
    pub fn handle(&mut self, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Client(conn, ClientFrame::Submit { req, steps }) => {
                let tid = TransactionId(self.me.0 as u32 + self.next_txn * self.n_sites as u32);
                self.next_txn += 1;
                let txn = build_txn(tid, self.me, &steps);
                self.inflight.insert(
                    tid,
                    Track {
                        conn,
                        req,
                        granted: false,
                        declared: false,
                    },
                );
                self.host.with(|c, ctx| c.start_txn(ctx, txn));
            }
            Input::ClientGone(conn) => self.inflight.retain(|_, t| t.conn != conn),
            Input::PeerUp(p) => {
                let Some(peer) = self.peers.get_mut(&p) else {
                    return;
                };
                peer.up = true;
                peer.owes_ack = false;
                let next = peer.ep.ack_owed();
                out.push(Output::ToPeer(p, PeerFrame::Ack { next }.encode()));
                for (seq, msg) in peer.ep.unacked() {
                    out.push(Output::ToPeer(p, PeerFrame::encode_data(seq, msg)));
                }
            }
            Input::PeerDown(p) => {
                if let Some(peer) = self.peers.get_mut(&p) {
                    peer.up = false;
                }
            }
            // The host's handshake consumed the first `Hello`; a repeat
            // says nothing new.
            Input::Client(_, ClientFrame::Hello) | Input::Peer(_, PeerFrame::Hello { .. }) => {}
            Input::Peer(p, PeerFrame::Data { seq, msg }) => {
                let Some(peer) = self.peers.get_mut(&p) else {
                    return;
                };
                // Duplicates too: a retransmission may mean our ack was lost.
                peer.ep.on_data(seq, msg, &mut self.scratch_deliver);
                peer.owes_ack = true;
                for m in self.scratch_deliver.drain(..) {
                    self.host.deliver(NodeId(p.0), m);
                }
            }
            Input::Peer(p, PeerFrame::Ack { next }) => {
                if let Some(peer) = self.peers.get_mut(&p) {
                    peer.ep.on_ack(next);
                }
            }
            // A remote controller declared one of our home transactions.
            Input::Peer(_, PeerFrame::Declare { txn }) => self.notify_declared(txn, out),
        }
    }

    /// Moves the site to `now_us`: acks every up peer that sent `Data`
    /// since its last ack — one cumulative `Ack` each, ahead of anything
    /// else this call emits for it — runs the host up to the matching
    /// virtual tick, ships what the controller sent to peers through the
    /// endpoints, polls retransmissions, and emits the client
    /// notifications and declaration forwards that fell out.
    pub fn advance(&mut self, now_us: u64, out: &mut Vec<Output>) {
        for (&p, peer) in self.peers.iter_mut() {
            if peer.up && peer.owes_ack {
                peer.owes_ack = false;
                let next = peer.ep.ack_owed();
                out.push(Output::ToPeer(p, PeerFrame::Ack { next }.encode()));
            }
        }
        let target = SimTime::from_ticks(now_us / self.tick_micros);
        self.host.run_until(target, &mut self.scratch_sent);
        let now_ms = now_us / 1000;

        for (NodeId(site), msg) in self.scratch_sent.drain(..) {
            let dest = SiteId(site);
            let peer = self.peers.get_mut(&dest).expect("sends go to peers");
            if peer.up {
                let body = PeerFrame::encode_data(peer.ep.next_seq(), &msg);
                out.push(Output::ToPeer(dest, body));
            }
            peer.ep.send(now_ms, msg);
        }

        for (&p, peer) in self.peers.iter_mut() {
            peer.ep.poll(now_ms, &mut self.scratch_rto);
            for (seq, msg) in self.scratch_rto.drain(..) {
                if peer.up {
                    out.push(Output::ToPeer(p, PeerFrame::encode_data(seq, &msg)));
                }
            }
        }

        self.route_declarations(out);
        self.notify_progress(out);
    }

    /// Marks `txn` declared and tells its client, once.
    fn notify_declared(&mut self, txn: TransactionId, out: &mut Vec<Output>) {
        if let Some(t) = self.inflight.get_mut(&txn) {
            if !t.declared {
                t.declared = true;
                out.push(Output::ToClient(
                    t.conn,
                    ServerFrame::Declared { req: t.req },
                ));
            }
        }
    }

    /// Routes the controller's new declarations. CMH declares at the site
    /// hosting the deadlocked process's agent, which need not be the
    /// victim's home; the home is recoverable from the id allocation
    /// (`id = ordinal * n_sites + home`). The forward is best-effort: it
    /// bypasses the endpoint, so a link that is down loses it.
    fn route_declarations(&mut self, out: &mut Vec<Output>) {
        let all = self.host.process().declarations();
        let new: Vec<TransactionId> = all[self.decl_seen..].iter().map(|d| d.txn).collect();
        self.decl_seen = all.len();
        for txn in new {
            let home = SiteId(txn.0 as usize % self.n_sites);
            if home == self.me {
                self.notify_declared(txn, out);
            } else if self.peers.get(&home).is_some_and(|peer| peer.up) {
                out.push(Output::ToPeer(home, PeerFrame::Declare { txn }.encode()));
            }
        }
    }

    /// Emits `Granted` / `Done` for tracked transactions that got there.
    fn notify_progress(&mut self, out: &mut Vec<Output>) {
        let c = self.host.process();
        self.inflight.retain(|&txn, t| {
            let Some(sn) = c.script_snapshot_of(txn) else {
                return true;
            };
            if !t.granted && (sn.pc >= 1 || sn.status != TxnStatus::Running) {
                t.granted = true;
                out.push(Output::ToClient(
                    t.conn,
                    ServerFrame::Granted { req: t.req },
                ));
            }
            // An aborted victim restarts, so only a commit ends the tracking.
            if sn.status != TxnStatus::Committed {
                return true;
            }
            out.push(Output::ToClient(
                t.conn,
                ServerFrame::Done {
                    req: t.req,
                    committed: true,
                    attempts: sn.attempts,
                },
            ));
            false
        });
    }

    /// When [`SiteCore::advance`] next has something to do — the host's
    /// next event or the earliest retransmission — on the `now_us` clock.
    /// `None` when only an input can change anything.
    pub fn next_wake_us(&self) -> Option<u64> {
        let sim_due = self
            .host
            .next_event_at()
            .map(|t| t.ticks().saturating_mul(self.tick_micros));
        let rto_due = self
            .peers
            .values()
            .filter_map(|peer| peer.ep.next_due())
            .min()
            .map(|ms| ms.saturating_mul(1000));
        sim_due.into_iter().chain(rto_due).min()
    }

    /// A snapshot of controller state, counters and transport occupancy.
    pub fn report(&self) -> SiteReport {
        SiteReport {
            snapshot: SiteSnapshot::capture(self.host.process()),
            metrics: self
                .host
                .metrics()
                .iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            transport: self
                .peers
                .iter()
                .map(|(&p, l)| (p, l.ep.in_flight(), l.ep.abandoned()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmh_ddb::ids::ResourceId;
    use cmh_ddb::lock::LockMode;
    use cmh_ddb::txn::TxnStep;

    /// The one peer of site 0 in a two-site topology.
    const P: SiteId = SiteId(1);

    /// Site 0 of two, its link to `P` up and the handshake taken.
    fn site0() -> SiteCore {
        let cfg = SiteConfig {
            site: SiteId(0),
            n_sites: 2,
            ddb: DdbConfig::detect_only(5_000),
            seed: 1,
            tick_micros: 2,
            addrs: Vec::new(),
            reliable_ms: ReliableConfig::default(),
        };
        let mut core = SiteCore::recover(&cfg, SiteStable::default());
        let mut out = Vec::new();
        core.handle(Input::PeerUp(P), &mut out);
        assert_eq!(out, [ack(0)]);
        core
    }

    fn ack(next: u64) -> Output {
        Output::ToPeer(P, PeerFrame::Ack { next }.encode())
    }

    fn data(seq: u64) -> Input {
        let msg = DdbMsg::Abort {
            txn: TransactionId(99),
        };
        Input::Peer(P, PeerFrame::Data { seq, msg })
    }

    fn peer_frames(out: &[Output]) -> Vec<PeerFrame> {
        out.iter()
            .filter_map(|o| match o {
                Output::ToPeer(_, body) => Some(PeerFrame::decode(body).expect("emitted frame")),
                Output::ToClient(..) => None,
            })
            .collect()
    }

    #[test]
    fn a_pass_owes_each_peer_one_ack_ahead_of_its_data() {
        let mut core = site0();
        let mut out = Vec::new();
        // A remote lock: the advance ships a `RemoteRequest` to `P`.
        let steps = vec![TxnStep::lock(P, ResourceId(5), LockMode::Exclusive)];
        core.handle(
            Input::Client(1, ClientFrame::Submit { req: 0, steps }),
            &mut out,
        );
        for seq in 0..3 {
            core.handle(data(seq), &mut out);
        }
        assert_eq!(out, [], "an arriving Data frame emits nothing by itself");
        core.advance(1_000, &mut out);
        let frames = peer_frames(&out);
        assert_eq!(frames[0], PeerFrame::Ack { next: 3 });
        assert!(frames.len() > 1, "{frames:?}");
        assert!(
            frames[1..]
                .iter()
                .all(|f| matches!(f, PeerFrame::Data { .. })),
            "{frames:?}"
        );
        // Nothing arrived since: the next pass owes no ack.
        out.clear();
        core.advance(2_000, &mut out);
        assert_eq!(out, []);
    }

    #[test]
    fn an_inbound_request_is_answered_one_tick_later() {
        let mut core = site0();
        let mut out = Vec::new();
        core.advance(1_000, &mut out);
        let (txn, resource) = (TransactionId(1), ResourceId(7));
        let msg = DdbMsg::RemoteRequest {
            txn,
            resource,
            mode: LockMode::Exclusive,
            home: P,
        };
        core.handle(Input::Peer(P, PeerFrame::Data { seq: 0, msg }), &mut out);
        // One tick is 2 µs here: the grant leaves on the next tick.
        core.advance(1_002, &mut out);
        let msg = DdbMsg::Acquired { txn, resource };
        assert_eq!(
            peer_frames(&out),
            [PeerFrame::Ack { next: 1 }, PeerFrame::Data { seq: 0, msg }]
        );
    }

    #[test]
    fn a_duplicate_data_frame_still_acks() {
        let mut core = site0();
        let mut out = Vec::new();
        core.handle(data(0), &mut out);
        core.advance(1_000, &mut out);
        assert_eq!(out, [ack(1)]);
        out.clear();
        core.handle(data(0), &mut out);
        core.advance(2_000, &mut out);
        assert_eq!(out, [ack(1)]);
    }

    #[test]
    fn a_peer_down_at_advance_is_acked_by_its_next_handshake() {
        let mut core = site0();
        let mut out = Vec::new();
        core.handle(data(0), &mut out);
        core.handle(data(1), &mut out);
        core.handle(Input::PeerDown(P), &mut out);
        core.advance(1_000, &mut out);
        assert_eq!(out, []);
        core.handle(Input::PeerUp(P), &mut out);
        assert_eq!(out, [ack(2)]);
        // The handshake carried it: the pass owes nothing more.
        out.clear();
        core.advance(2_000, &mut out);
        assert_eq!(out, []);
    }
}
