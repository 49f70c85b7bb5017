//! The service's own protocol code, run deterministically: N [`SiteCore`]s
//! hosted as ordinary `simnet` nodes.
//!
//! The host below plays the part of the socket shell in `node.rs` and
//! nothing more: it writes what the shell writes — one message per peer
//! per pass, the pass's encoded [`PeerFrame`]s framed back to back (codec
//! and framing are on the path) — and splits what arrives with the
//! shell's [`FrameReader`]; the simulation's virtual tick is the core's `now_us`,
//! and `simnet`'s own reliable layer is **off** — so loss, duplication
//! and crashes from the [`FaultPlan`] land on the service's
//! [`Endpoint`](simnet::transport::Endpoint)s, whose retransmission,
//! dedup and resequencing carry the run. A crash drops the core to its
//! [`SiteStable`] and `on_restart` recovers from it and re-announces
//! itself with `Hello`, as a restarted site redials.
//!
//! Same seed, same plan ⇒ same frame log, byte for byte.

use std::collections::{BTreeMap, BTreeSet};

use cmh_ddb::config::DdbConfig;
use cmh_ddb::ids::{ResourceId, SiteId, TransactionId};
use cmh_ddb::lock::LockMode;
use cmh_ddb::msg::DdbMsg;
use cmh_ddb::snapshot::{ClusterSnapshot, RestVerdict};
use cmh_ddb::txn::TxnStep;
use cmh_service::cluster::ClusterConfig;
use cmh_service::core::{Input, Output, SiteConfig, SiteCore, SiteReport};
use cmh_service::proto::{ClientFrame, PeerFrame, ServerFrame};
use cmh_service::wire::{frame, put_frame, FrameReader};
use simnet::faults::FaultPlan;
use simnet::latency::LatencyModel;
use simnet::sim::{Context, NodeId, Process, SimBuilder, Simulation, TimerId};
use simnet::time::SimTime;

/// The one client connection each site serves in these tests.
const CONN: u64 = 1;

/// One message put on the simulated wire: a pass's frames for one peer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Sent {
    at_us: u64,
    from: SiteId,
    to: SiteId,
    bytes: Vec<u8>,
}

/// The frames of one message, split as the shell's reader splits a stream.
fn frames(bytes: &[u8]) -> Vec<PeerFrame> {
    let mut reader = FrameReader::new();
    reader.push(bytes);
    let mut frames = Vec::new();
    while let Some(body) = reader.next_frame().expect("well-formed framing") {
        frames.push(PeerFrame::decode(body).expect("cores emit well-formed frames"));
    }
    frames
}

/// A `SiteCore` as a `simnet` process: the test-only counterpart of the
/// socket shell.
struct SiteHost {
    cfg: SiteConfig,
    /// `None` only inside `on_restart`, between `into_stable` and `recover`.
    core: Option<SiteCore>,
    timer: Option<TimerId>,
    out: Vec<Output>,
    /// Every message this site put on the wire, in order.
    sent: Vec<Sent>,
    /// Every notification this site's client was sent, in order.
    notes: Vec<ServerFrame>,
    /// `(next_txn, unacked frames)` found in the stable store at each restart.
    recovered: Vec<(u32, usize)>,
}

impl SiteHost {
    fn new(cfg: SiteConfig) -> SiteHost {
        SiteHost {
            core: Some(SiteCore::recover(&cfg, Default::default())),
            cfg,
            timer: None,
            out: Vec::new(),
            sent: Vec::new(),
            notes: Vec::new(),
            recovered: Vec::new(),
        }
    }

    fn core(&mut self) -> &mut SiteCore {
        self.core
            .as_mut()
            .expect("core is present outside on_restart")
    }

    fn peers(&self) -> impl Iterator<Item = SiteId> {
        let me = self.cfg.site.0;
        (0..self.cfg.n_sites).filter(move |&s| s != me).map(SiteId)
    }

    fn input(&mut self, ctx: &mut Context<'_, Vec<u8>>, input: Input) {
        let mut out = std::mem::take(&mut self.out);
        self.core().handle(input, &mut out);
        self.out = out;
        self.pump(ctx);
    }

    /// What the shell does every pass: advance the core to the clock,
    /// write what the pass emitted — one message per peer — and sleep
    /// until the core's next wake.
    fn pump(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
        let now_us = ctx.now().ticks();
        let mut out = std::mem::take(&mut self.out);
        self.core().advance(now_us, &mut out);
        let mut writes: BTreeMap<SiteId, Vec<u8>> = BTreeMap::new();
        for o in out.drain(..) {
            match o {
                Output::ToPeer(to, body) => put_frame(writes.entry(to).or_default(), &body),
                Output::ToClient(conn, frame) => {
                    assert_eq!(conn, CONN);
                    self.notes.push(frame);
                }
            }
        }
        for (to, bytes) in writes {
            self.sent.push(Sent {
                at_us: now_us,
                from: self.cfg.site,
                to,
                bytes: bytes.clone(),
            });
            ctx.send(NodeId(to.0), bytes);
        }
        self.out = out;
        if let Some(t) = self.timer.take() {
            ctx.cancel_timer(t);
        }
        if let Some(wake_us) = self.core().next_wake_us() {
            let delay = wake_us.saturating_sub(now_us).max(1);
            self.timer = Some(ctx.set_timer(delay, 0));
        }
    }

    fn submit(&mut self, ctx: &mut Context<'_, Vec<u8>>, req: u64, steps: Vec<TxnStep>) {
        self.input(ctx, Input::Client(CONN, ClientFrame::Submit { req, steps }));
    }
}

impl Process<Vec<u8>> for SiteHost {
    fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
        // The simulated wire is connectionless: every link is up.
        for p in self.peers().collect::<Vec<_>>() {
            self.input(ctx, Input::PeerUp(p));
        }
    }

    /// One read: every frame in it goes to the core, then one pass.
    fn on_message(&mut self, ctx: &mut Context<'_, Vec<u8>>, from: NodeId, bytes: Vec<u8>) {
        let from = SiteId(from.0);
        let mut out = std::mem::take(&mut self.out);
        for frame in frames(&bytes) {
            let input = match frame {
                // The shell's handshake: a `Hello` is a link coming up.
                PeerFrame::Hello { site } => {
                    assert_eq!(site, from);
                    Input::PeerUp(from)
                }
                frame => Input::Peer(from, frame),
            };
            self.core().handle(input, &mut out);
        }
        self.out = out;
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Vec<u8>>, _timer: TimerId, _tag: u64) {
        self.timer = None;
        self.pump(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
        let stable = self.core.take().expect("core").into_stable();
        let unacked = stable.endpoints.values().map(|ep| ep.in_flight()).sum();
        self.recovered.push((stable.next_txn, unacked));
        self.core = Some(SiteCore::recover(&self.cfg, stable));
        self.timer = None;
        self.out.clear();
        for p in self.peers().collect::<Vec<_>>() {
            // Written alone, as the shell's dial writes it.
            let hello = PeerFrame::Hello {
                site: self.cfg.site,
            }
            .encode();
            ctx.send(NodeId(p.0), frame(&hello));
            self.input(ctx, Input::PeerUp(p));
        }
    }
}

type Cluster = Simulation<Vec<u8>, SiteHost>;

/// `n` sites with the service's default tuning (2 µs ticks, 40 ms RTO),
/// detection every 5 000 ticks = 10 ms, report only; 50–400 µs wire.
fn cluster(n: usize, seed: u64, faults: FaultPlan) -> Cluster {
    let cc = ClusterConfig::new(n, DdbConfig::detect_only(5_000));
    let mut sim: Cluster = SimBuilder::new()
        .seed(seed)
        .latency(LatencyModel::Uniform { lo: 50, hi: 400 })
        .faults(faults)
        .build();
    for s in 0..n {
        sim.add_node(SiteHost::new(SiteConfig {
            site: SiteId(s),
            n_sites: n,
            ddb: cc.ddb,
            seed,
            tick_micros: cc.tick_micros,
            addrs: Vec::new(),
            reliable_ms: cc.reliable_ms,
        }));
    }
    sim
}

fn run_to_ms(sim: &mut Cluster, ms: u64) {
    let _ = sim.run_until(SimTime::from_ticks(ms * 1000));
}

fn submit(sim: &mut Cluster, site: usize, req: u64, steps: Vec<TxnStep>) {
    sim.with_node(NodeId(site), |h, ctx| h.submit(ctx, req, steps));
}

fn lock(site: usize, resource: u64) -> TxnStep {
    TxnStep::lock(SiteId(site), ResourceId(resource), LockMode::Exclusive)
}

/// Stages the ring of `tests/service_e2e.rs`: the transaction homed at
/// `s_i` locks `resource@s_i`, holds it 50 ms, then requests
/// `resource@s_{i+1}` — a guaranteed deadlock once every first lock is held.
fn stage_ring(sim: &mut Cluster, req: u64, resource: u64) {
    let n = sim.node_count();
    for s in 0..n {
        let steps = vec![
            lock(s, resource),
            TxnStep::Work { ticks: 25_000 },
            lock((s + 1) % n, resource),
        ];
        submit(sim, s, req, steps);
    }
}

fn reports(sim: &mut Cluster) -> Vec<SiteReport> {
    (0..sim.node_count())
        .map(|s| sim.with_node(NodeId(s), |h, _| h.core().report()))
        .collect()
}

fn verdict(reports: &[SiteReport]) -> RestVerdict {
    ClusterSnapshot {
        sites: reports.iter().map(|r| r.snapshot.clone()).collect(),
    }
    .verify_at_rest()
}

fn frame_log(sim: &Cluster) -> Vec<Sent> {
    let mut log: Vec<Sent> = (0..sim.node_count())
        .flat_map(|s| sim.node(NodeId(s)).sent.iter().cloned())
        .collect();
    log.sort_by_key(|f| (f.at_us, f.from, f.to));
    log
}

/// The frames of one direction with their send times, in emission order.
fn frames_sent(log: &[Sent], from: usize, to: usize) -> Vec<(u64, PeerFrame)> {
    log.iter()
        .filter(|s| s.from == SiteId(from) && s.to == SiteId(to))
        .flat_map(|s| frames(&s.bytes).into_iter().map(move |f| (s.at_us, f)))
        .collect()
}

/// The `Data` frames of one direction, in emission order.
fn data_frames(log: &[Sent], from: usize, to: usize) -> Vec<(u64, u64, DdbMsg)> {
    frames_sent(log, from, to)
        .into_iter()
        .filter_map(|(at_us, f)| match f {
            PeerFrame::Data { seq, msg } => Some((at_us, seq, msg)),
            _ => None,
        })
        .collect()
}

fn distinct_seqs(log: &[Sent], from: usize, to: usize) -> usize {
    let seqs: BTreeSet<u64> = data_frames(log, from, to).iter().map(|f| f.1).collect();
    seqs.len()
}

fn declare_forwards(log: &[Sent], from: usize, to: usize) -> usize {
    frames_sent(log, from, to)
        .iter()
        .filter(|(_, f)| matches!(f, PeerFrame::Declare { .. }))
        .count()
}

fn data_seq(o: &Output) -> u64 {
    match o {
        Output::ToPeer(_, body) => match PeerFrame::decode(body).expect("emitted frame") {
            PeerFrame::Data { seq, .. } => seq,
            other => panic!("not a Data frame: {other:?}"),
        },
        other => panic!("not a peer frame: {other:?}"),
    }
}

fn home_ids(r: &SiteReport) -> BTreeSet<TransactionId> {
    r.snapshot.scripts.iter().map(|s| s.txn).collect()
}

fn metric(r: &SiteReport, key: &str) -> u64 {
    r.metrics.iter().find(|(k, _)| k == key).map_or(0, |m| m.1)
}

/// Transmissions beyond the first of each `(from, to, seq)`.
fn retransmissions(log: &[Sent]) -> usize {
    let mut firsts = BTreeSet::new();
    log.iter()
        .flat_map(|s| frames(&s.bytes).into_iter().map(move |f| (s.from, s.to, f)))
        .filter(|(from, to, f)| match f {
            PeerFrame::Data { seq, .. } => !firsts.insert((*from, *to, *seq)),
            _ => false,
        })
        .count()
}

fn faulty_ring(seed: u64) -> (Vec<Sent>, RestVerdict, Vec<SiteReport>) {
    // `basic_faulty`'s mix, on the wire the endpoints see.
    let mut sim = cluster(3, seed, FaultPlan::new().loss(0.1).duplicate(0.05));
    run_to_ms(&mut sim, 1);
    stage_ring(&mut sim, 1, 0);
    run_to_ms(&mut sim, 2_000);
    let reports = reports(&mut sim);
    (frame_log(&sim), verdict(&reports), reports)
}

#[test]
fn faulty_wire_ring_is_declared_on_every_seed() {
    let mut retransmitted = 0;
    for seed in 1..=24 {
        let (log, verdict, reports) = faulty_ring(seed);
        assert_eq!(verdict.cycle_txns.len(), 3, "seed {seed}: {verdict:?}");
        assert!(!verdict.declared.is_empty(), "seed {seed}: {verdict:?}");
        assert_eq!(
            (verdict.missed, verdict.phantom),
            (0, 0),
            "seed {seed}: {verdict:?}"
        );
        for r in &reports {
            for &(peer, _, abandoned) in &r.transport {
                assert_eq!(abandoned, 0, "seed {seed}: {:?}→{peer:?}", r.snapshot.site);
            }
        }
        retransmitted += retransmissions(&log);
    }
    assert!(retransmitted > 0, "the fault path never ran");
}

#[test]
fn same_seed_same_frame_log_and_verdict() {
    let (log_a, verdict_a, _) = faulty_ring(7);
    let (log_b, verdict_b, _) = faulty_ring(7);
    assert!(!log_a.is_empty());
    assert_eq!(log_a, log_b);
    assert_eq!(verdict_a, verdict_b);
    let (log_c, _, _) = faulty_ring(8);
    assert_ne!(log_a, log_c, "the seed does not reach the wire");
}

#[test]
fn crash_and_restart_keeps_ids_fresh_and_streams_exactly_once() {
    // Site 0 goes down at 3.5 ms — its second round of remote lock
    // requests on the wire, unacknowledged — and comes back at 30 ms.
    let (crash_us, restart_us) = (3_500, 30_000);
    let plan = FaultPlan::new().crash(
        NodeId(0),
        SimTime::from_ticks(crash_us),
        Some(SimTime::from_ticks(restart_us)),
    );
    let mut sim = cluster(3, 11, plan);
    let remote_pair = |k: u64| {
        vec![
            lock(1, 100 + k),
            TxnStep::Work { ticks: 1_000 },
            lock(2, 200 + k),
        ]
    };
    run_to_ms(&mut sim, 1);
    for k in 0..4 {
        submit(&mut sim, 0, k, remote_pair(k));
    }
    let _ = sim.run_until(SimTime::from_ticks(crash_us - 1));
    let ids_before = home_ids(&reports(&mut sim)[0]);
    assert_eq!(ids_before.len(), 4);

    run_to_ms(&mut sim, 100);
    let (next_txn, unacked) = sim.node(NodeId(0)).recovered[0];
    assert_eq!(
        next_txn, 4,
        "the id high-water mark reached the stable store"
    );
    assert!(unacked > 0, "nothing was in flight at the crash: {unacked}");
    assert!(home_ids(&reports(&mut sim)[0]).is_empty(), "volatile state");
    for k in 4..8 {
        submit(&mut sim, 0, k, remote_pair(k));
    }
    run_to_ms(&mut sim, 200);
    stage_ring(&mut sim, 8, 0);
    run_to_ms(&mut sim, 1_500);

    // No id issued after the restart collides with one issued before.
    let reports = reports(&mut sim);
    let ids_after = home_ids(&reports[0]);
    assert_eq!(ids_after.len(), 5);
    assert!(ids_after.iter().min() > ids_before.iter().max());

    // Each direction out of site 0 is one stream across the restart.
    let log = frame_log(&sim);
    for p in [1, 2] {
        let mut stream: BTreeMap<u64, DdbMsg> = BTreeMap::new();
        let mut before = 0;
        for (at_us, seq, msg) in data_frames(&log, 0, p) {
            // A retransmission or replay carries what the seq first carried,
            // and a seq first used after the restart is past every earlier one.
            let fresh = seq == stream.len() as u64;
            assert!(fresh || stream.get(&seq) == Some(&msg), "0→{p} seq {seq}");
            stream.insert(seq, msg);
            if at_us < crash_us {
                before = stream.len();
            }
        }
        assert!(0 < before && before < stream.len(), "0→{p}: {before}");
        // The peer's endpoint accepted every seq in order, once (its
        // cumulative ack only moves that way), nothing was abandoned, and
        // its controller took exactly the messages the peers sent it.
        let acked = frames_sent(&log, p, 0)
            .into_iter()
            .filter_map(|(_, f)| match f {
                PeerFrame::Ack { next } => Some(next),
                _ => None,
            })
            .max();
        assert_eq!(acked, Some(stream.len() as u64), "0→{p}");
        assert_eq!(reports[0].transport[p - 1], (SiteId(p), 0, 0));
        let streams_in: usize = (0..3).map(|q| distinct_seqs(&log, q, p)).sum();
        let delivered = metric(&reports[p], "sim.messages_delivered") as usize;
        assert_eq!(delivered, streams_in, "controller at {p}");
    }

    // The restarted site takes part in detection.
    let verdict = verdict(&reports);
    assert_eq!(verdict.cycle_txns.len(), 3, "{verdict:?}");
    assert!(!verdict.declared.is_empty(), "{verdict:?}");
    assert_eq!(verdict.soundness_violations(), 0, "{verdict:?}");
}

#[test]
fn link_up_replays_exactly_the_unacked_frames_after_the_ack() {
    let cfg = cluster(2, 3, FaultPlan::new()).node(NodeId(0)).cfg.clone();
    let mut core = SiteCore::recover(&cfg, Default::default());
    let peer = SiteId(1);
    let mut out = Vec::new();
    let submit = |core: &mut SiteCore, req: u64, now_us: u64, out: &mut Vec<Output>| {
        let steps = vec![lock(1, req)];
        core.handle(Input::Client(CONN, ClientFrame::Submit { req, steps }), out);
        core.advance(now_us, out);
    };

    core.handle(Input::PeerUp(peer), &mut out);
    assert_eq!(
        out,
        [Output::ToPeer(peer, PeerFrame::Ack { next: 0 }.encode())]
    );
    out.clear();
    for req in 0..5 {
        submit(&mut core, req, 1_000 + req, &mut out);
    }
    let first: Vec<Output> = std::mem::take(&mut out);
    let seqs: Vec<u64> = first.iter().map(data_seq).collect();
    assert_eq!(seqs, [0, 1, 2, 3, 4]);

    // The peer acknowledges two of ours and delivers two of its own.
    core.handle(Input::Peer(peer, PeerFrame::Ack { next: 2 }), &mut out);
    for seq in 0..2 {
        let msg = DdbMsg::Abort {
            txn: TransactionId(99),
        };
        core.handle(Input::Peer(peer, PeerFrame::Data { seq, msg }), &mut out);
    }
    out.clear();

    // Down: sends buffer in the endpoint and nothing is emitted.
    core.handle(Input::PeerDown(peer), &mut out);
    for req in 5..7 {
        submit(&mut core, req, 2_000 + req, &mut out);
    }
    assert_eq!(out, []);

    // Up: the cumulative ack first, then seqs 2..=6 — the three already
    // sent once byte for byte — and nothing else.
    core.handle(Input::PeerUp(peer), &mut out);
    assert_eq!(
        out[0],
        Output::ToPeer(peer, PeerFrame::Ack { next: 2 }.encode())
    );
    assert_eq!(out[1..4], first[2..5]);
    let seqs: Vec<u64> = out[1..].iter().map(data_seq).collect();
    assert_eq!(seqs, [2, 3, 4, 5, 6]);
}

#[test]
fn remote_declaration_reaches_the_home_client_as_one_declared() {
    // Every frame arrives twice, the best-effort `Declare` forward too.
    let mut sim = cluster(3, 5, FaultPlan::new().duplicate(1.0));
    run_to_ms(&mut sim, 1);
    stage_ring(&mut sim, 1, 0);
    run_to_ms(&mut sim, 1_000);
    let log = frame_log(&sim);
    for home in 0..3 {
        // CMH declares T_home where its blocked agent lives: the next site.
        let declarer = (home + 1) % 3;
        let declared = &reports(&mut sim)[declarer].snapshot.declarations;
        assert_eq!(declared.len(), 1);
        assert_eq!(declared[0].txn, TransactionId(home as u32));
        assert_eq!(declare_forwards(&log, declarer, home), 1);
        assert_eq!(
            sim.node(NodeId(home)).notes,
            [
                ServerFrame::Granted { req: 1 },
                ServerFrame::Declared { req: 1 }
            ]
        );
    }
}

#[test]
fn declaration_forward_over_a_down_link_is_lost() {
    // DESIGN §14: the forward is best-effort. Site 1 declares T0 (homed at
    // 0) while its link to 0 is down: no frame leaves, 0's client never
    // hears, and the declaration stays readable in the at-rest snapshot.
    let mut sim = cluster(3, 5, FaultPlan::new());
    run_to_ms(&mut sim, 1);
    stage_ring(&mut sim, 1, 0);
    run_to_ms(&mut sim, 40);
    sim.with_node(NodeId(1), |h, ctx| h.input(ctx, Input::PeerDown(SiteId(0))));
    run_to_ms(&mut sim, 1_000);

    let reports = reports(&mut sim);
    assert_eq!(reports[1].snapshot.declarations[0].txn, TransactionId(0));
    assert_eq!(declare_forwards(&frame_log(&sim), 1, 0), 0);
    assert_eq!(sim.node(NodeId(0)).notes, [ServerFrame::Granted { req: 1 }]);
    assert!(sim
        .node(NodeId(1))
        .notes
        .contains(&ServerFrame::Declared { req: 1 }));
    assert!(verdict(&reports).declared.contains(&TransactionId(0)));
}
