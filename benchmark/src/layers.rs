//! The per-layer suite: each layer (crate/module) timed from outside,
//! around its public calls. It is the same on every traced run, whatever
//! the workload, so a layer's cost can be set beside any workload's
//! phase spans. Each number is the median of a few batches; `README.md`
//! says which end-to-end metric each one should move, and where.

use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

use cmh_core::process::{counters as basic, BasicMsg};
use cmh_core::{BasicConfig, BasicProcess};
use cmh_ddb::config::DdbConfig;
use cmh_ddb::ids::{ResourceId, SiteId, TransactionId};
use cmh_ddb::lock::{LockMode, LockTable};
use cmh_ddb::msg::DdbMsg;
use cmh_ddb::snapshot::{ClusterSnapshot, SiteSnapshot};
use cmh_ddb::txn::TxnStep;
use cmh_ddb::DdbNet;
use cmh_service::cluster::{Cluster, ClusterConfig};
use cmh_service::loadgen::{self, Job, LoadConfig, Mode};
use cmh_service::proto::{ClientFrame, PeerFrame, ServerFrame};
use cmh_service::sock::{Addr, Listener, Sock};
use cmh_service::wire::{frame, FrameReader};
use simnet::equeue::EventQueue;
use simnet::faults::FaultPlan;
use simnet::metrics::{builtin, Metrics};
use simnet::reliable::ReliableConfig;
use simnet::rng::DetRng;
use simnet::sim::{Context, NodeId, Process, SimBuilder, Simulation, TimerId};
use simnet::time::SimTime;
use simnet::transport::Endpoint;
use wfg::journal::{GraphOp, Journal, ReplayCursor};
use wfg::oracle::Oracle;
use wfg::WaitForGraph;
use workloads::random_transactions;

use crate::affinity::{self, CpuSet};
use crate::sim_workloads::contended_shape;
use crate::stats::median;
use crate::svc_workloads::exclusive;
use crate::Sizes;

/// Median over `reps` batches of nanoseconds per operation; `batch`
/// runs one batch and returns `(operations, seconds)` for it.
fn ns_per_op(reps: usize, mut batch: impl FnMut() -> (u64, f64)) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let (ops, s) = batch();
            s * 1e9 / ops.max(1) as f64
        })
        .collect();
    median(&xs)
}

/// Times `ops` calls of `f` as one batch.
fn timed(ops: u64, mut f: impl FnMut(u64)) -> (u64, f64) {
    let t0 = Instant::now();
    for i in 0..ops {
        f(i);
    }
    (ops, t0.elapsed().as_secs_f64())
}

// --- simnet ---------------------------------------------------------------

fn equeue_push_pop(depth: u64, ops: u64) -> f64 {
    let mut q = EventQueue::new();
    let mut seq = 0u64;
    for _ in 0..depth {
        seq += 1;
        q.push((SimTime::from_ticks(seq), seq), seq);
    }
    ns_per_op(3, || {
        timed(ops, |_| {
            seq += 1;
            // A pseudo-random offset keeps the sift path length honest.
            let at = seq + (seq.wrapping_mul(0x9E37_79B9) % depth.max(1));
            q.push((SimTime::from_ticks(at), seq), seq);
            black_box(q.pop());
        })
    })
}

#[derive(Debug, Clone, Copy)]
struct Hop(u64);

/// Two nodes bouncing `chains` messages until each has made `limit` hops.
struct PingPong {
    chains: u64,
    limit: u64,
}

impl Process<Hop> for PingPong {
    fn on_start(&mut self, ctx: &mut Context<'_, Hop>) {
        if ctx.id() == NodeId(0) {
            for _ in 0..self.chains {
                ctx.send(NodeId(1), Hop(0));
            }
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Hop>, from: NodeId, msg: Hop) {
        if msg.0 < self.limit {
            ctx.send(from, Hop(msg.0 + 1));
        }
    }
}

/// Nanoseconds per simulator event of a two-node ping-pong on `builder`'s
/// wire (lossy wires kill a chain per drop, so `chains` sizes the run).
fn deliver(builder: impl Fn() -> SimBuilder, chains: u64, limit: u64) -> f64 {
    ns_per_op(3, || {
        let mut sim = builder().build::<Hop, PingPong>();
        for _ in 0..2 {
            sim.add_node(PingPong { chains, limit });
        }
        let t0 = Instant::now();
        let events = sim.run_to_quiescence(u64::MAX).events;
        (events, t0.elapsed().as_secs_f64())
    })
}

/// Re-arms a near timer and cancels-and-replaces a far decoy each firing.
struct TimerChurn {
    decoy: Option<TimerId>,
    left: u64,
}

impl Process<Hop> for TimerChurn {
    fn on_start(&mut self, ctx: &mut Context<'_, Hop>) {
        self.decoy = Some(ctx.set_timer(1_000_000, 1));
        ctx.set_timer(1, 0);
    }
    fn on_message(&mut self, _: &mut Context<'_, Hop>, _: NodeId, _: Hop) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, Hop>, _: TimerId, tag: u64) {
        if tag == 0 && self.left > 0 {
            self.left -= 1;
            if let Some(d) = self.decoy.take() {
                ctx.cancel_timer(d);
            }
            self.decoy = Some(ctx.set_timer(1_000_000, 1));
            ctx.set_timer(1, 0);
        }
    }
}

fn timer_arm_cancel(cycles: u64) -> f64 {
    ns_per_op(3, || {
        let mut sim = SimBuilder::new().seed(5).build::<Hop, TimerChurn>();
        sim.add_node(TimerChurn {
            decoy: None,
            left: cycles,
        });
        let t0 = Instant::now();
        sim.run_to_quiescence(u64::MAX);
        (cycles, t0.elapsed().as_secs_f64())
    })
}

fn metrics_add(ops: u64) -> f64 {
    let mut m = Metrics::new();
    m.add(builtin::EVENTS, 1);
    ns_per_op(3, || timed(ops, |_| m.add(black_box(builtin::EVENTS), 1)))
}

/// `basic_scale`'s input at `n` vertices on `builder`'s engine:
/// `(add_node ns, request ns, ns per event, barrier ns per window)`.
fn scale_on(builder: SimBuilder, n: usize) -> (f64, f64, f64, f64) {
    let mut sim: Simulation<BasicMsg, BasicProcess> = builder.seed(7).build_mt();
    let (_, add_s) = timed(n as u64, |_| {
        sim.add_node(BasicProcess::new(BasicConfig::on_block(10)));
    });
    let t0 = Instant::now();
    let mut requests = 0u64;
    for t in 0..n / 3 {
        let ids = [NodeId(3 * t), NodeId(3 * t + 1), NodeId(3 * t + 2)];
        for k in 0..if t % 4 != 3 { 3 } else { 2 } {
            let to = ids[(k + 1) % 3];
            sim.with_node(ids[k], |p, ctx| p.request(ctx, to).expect("fresh edge"));
            requests += 1;
        }
    }
    let request_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let events = sim.run_to_quiescence(u64::MAX).events;
    let run_s = t0.elapsed().as_secs_f64();
    let ws = sim.window_stats();
    (
        add_s * 1e9 / n as f64,
        request_s * 1e9 / requests as f64,
        run_s * 1e9 / events.max(1) as f64,
        ws.barrier_nanos as f64 / ws.windows.max(1) as f64,
    )
}

/// Every node of a `k`-ring blocks and initiates: k computations of k
/// hops each. Nanoseconds per probe sent.
fn probe_hop(k: usize) -> f64 {
    ns_per_op(3, || {
        let mut sim: Simulation<BasicMsg, BasicProcess> = SimBuilder::new().seed(3).build();
        for _ in 0..k {
            sim.add_node(BasicProcess::new(BasicConfig::on_block(3)));
        }
        for i in 0..k {
            let to = NodeId((i + 1) % k);
            sim.with_node(NodeId(i), |p, ctx| p.request(ctx, to).expect("fresh edge"));
        }
        let t0 = Instant::now();
        sim.run_to_quiescence(u64::MAX);
        let s = t0.elapsed().as_secs_f64();
        (sim.metrics().get(basic::PROBE_SENT), s)
    })
}

fn endpoint_roundtrip(ops: u64) -> f64 {
    let cfg = ReliableConfig::default();
    let (mut a, mut b) = (Endpoint::<u64>::new(cfg), Endpoint::<u64>::new(cfg));
    let (mut delivered, mut due) = (Vec::new(), Vec::new());
    ns_per_op(3, || {
        timed(ops, |now| {
            let seq = a.send(now, now);
            let ack = b.on_data(seq, now, &mut delivered);
            a.on_ack(ack);
            a.poll(now, &mut due);
            delivered.clear();
        })
    })
}

// --- wfg ------------------------------------------------------------------

fn edge_add_remove(ops: u64) -> f64 {
    let mut g = WaitForGraph::new();
    // Resident edges so the maps are not empty.
    for i in 0..64 {
        g.create_grey(NodeId(1_000 + i), NodeId(2_000 + i))
            .expect("fresh edge");
    }
    ns_per_op(3, || {
        timed(ops, |i| {
            let (a, b) = (NodeId((i % 32) as usize), NodeId(32 + (i % 31) as usize));
            g.create_grey(a, b).expect("create");
            g.blacken(a, b).expect("blacken");
            g.whiten(a, b).expect("whiten");
            g.delete_white(a, b).expect("delete");
        })
    })
}

/// Add-only edge stream with an incremental dark-cycle query after each.
fn oracle_churn_query(n: usize) -> f64 {
    let mut rng = DetRng::seed_from_u64(13);
    let mut edges = std::collections::BTreeSet::new();
    while edges.len() < 4 * n {
        let (a, b) = (rng.next_below(n as u64), rng.next_below(n as u64));
        if a != b {
            edges.insert((a as usize, b as usize));
        }
    }
    ns_per_op(3, || {
        let mut g = WaitForGraph::new();
        let mut oracle = Oracle::new();
        let t0 = Instant::now();
        for &(a, b) in &edges {
            g.create_grey(NodeId(a), NodeId(b)).expect("fresh edge");
            black_box(oracle.dark_cycle_members(&g).len());
        }
        (edges.len() as u64, t0.elapsed().as_secs_f64())
    })
}

/// Appends whole edge lifecycles (a legal history) until `len` entries.
fn grow_journal(j: &mut Journal, len: usize) {
    let mut i = j.len() as u64 / 4;
    while j.len() < len {
        i += 1;
        let (a, b) = (NodeId((i % 50) as usize), NodeId(50 + (i % 49) as usize));
        let at = SimTime::from_ticks(i);
        for op in [
            GraphOp::CreateGrey(a, b),
            GraphOp::Blacken(a, b),
            GraphOp::Whiten(a, b),
            GraphOp::DeleteWhite(a, b),
        ] {
            j.record_at(at, i, op);
        }
    }
}

/// Nanoseconds per `record_at` once the journal already holds `len`.
fn journal_record(len: usize) -> f64 {
    ns_per_op(3, || {
        let mut j = Journal::new();
        grow_journal(&mut j, len);
        let t0 = Instant::now();
        grow_journal(&mut j, len + 2_000);
        (2_000, t0.elapsed().as_secs_f64())
    })
}

fn journal_seek(len: usize, ops: u64) -> f64 {
    let mut j = Journal::new();
    grow_journal(&mut j, len);
    let horizon = len as u64 / 4;
    let mut cursor = ReplayCursor::new();
    let mut q = 1u64;
    ns_per_op(3, || {
        timed(ops, |_| {
            q = (q * 48_271) % (horizon + 1);
            let g = cursor
                .seek(&j, SimTime::from_ticks(q))
                .expect("legal history");
            black_box(g.edge_count());
        })
    })
}

// --- ddb ------------------------------------------------------------------

fn lock_grant_release(ops: u64) -> f64 {
    let mut lt = LockTable::new();
    ns_per_op(3, || {
        timed(ops, |i| {
            let (t, r) = (TransactionId(i as u32), ResourceId(i % 64));
            lt.request(t, r, LockMode::Exclusive);
            black_box(lt.release(t, r));
        })
    })
}

fn lock_wait_edges(ops: u64) -> f64 {
    let mut lt = LockTable::new();
    for i in 0..128u32 {
        lt.request(
            TransactionId(i),
            ResourceId(u64::from(i % 8)),
            LockMode::Exclusive,
        );
    }
    ns_per_op(3, || timed(ops, |_| drop(black_box(lt.wait_edges()))))
}

/// Submits `txns` contended transactions on their schedule and runs
/// `tail` ticks past the last arrival; returns the net, its event count
/// and the seconds spent inside `run_until`.
fn ddb_run(cfg: DdbConfig, txns: usize, tail: u64) -> (DdbNet, u64, f64) {
    let mut db = DdbNet::new(3, cfg, 17);
    let mut s = 0.0;
    let mut advance = |db: &mut DdbNet, to: u64| {
        let t0 = Instant::now();
        db.run_until(SimTime::from_ticks(to));
        s += t0.elapsed().as_secs_f64();
    };
    let mut last = 0;
    for tt in random_transactions(&contended_shape(3, txns, 17)) {
        advance(&mut db, tt.at);
        db.submit(tt.txn);
        last = tt.at;
    }
    advance(&mut db, last + tail);
    let events = db.metrics().get(builtin::EVENTS);
    (db, events, s)
}

/// `(step_detect_us, step_resolve_us, agent_graph_us, verify_at_rest_ms)`.
fn ddb_net(txns: usize) -> (f64, f64, f64, f64) {
    let resolve = ns_per_op(1, || {
        let (_, events, s) = ddb_run(DdbConfig::detect_and_resolve(2_000, 500), txns / 4, 20_000);
        (events, s)
    });
    // Without resolution the deadlocked transactions stay live: this is
    // the "many live transactions" state for the two graph walks below.
    let (db, events, s) = ddb_run(DdbConfig::detect_only(2_000), txns, 20_000);
    let graph = ns_per_op(3, || timed(20, |_| drop(black_box(db.agent_graph()))));
    let snapshot = ClusterSnapshot {
        sites: (0..db.site_count())
            .map(|site| SiteSnapshot::capture(db.controller(SiteId(site))))
            .collect(),
    };
    let at_rest = ns_per_op(3, || {
        timed(5, |_| drop(black_box(snapshot.verify_at_rest())))
    });
    (
        s * 1e6 / events as f64,
        resolve / 1e3,
        graph / 1e3,
        at_rest / 1e6,
    )
}

// --- service --------------------------------------------------------------

fn lock_all_steps() -> Vec<TxnStep> {
    vec![
        TxnStep::LockAll((0..4).map(|k| exclusive(0, 1_000 + k)).collect()),
        TxnStep::Work { ticks: 5 },
    ]
}

fn wire_frame(ops: u64) -> f64 {
    let body = ClientFrame::Submit {
        req: 7,
        steps: lock_all_steps(),
    }
    .encode();
    let mut reader = FrameReader::new();
    ns_per_op(3, || {
        timed(ops, |_| {
            reader.push(&frame(black_box(&body)));
            black_box(reader.next_frame().expect("well-formed frame"));
        })
    })
}

/// `(client, server, peer)` nanoseconds per encode + decode of the
/// frames the service workloads actually exchange.
fn proto_codecs(ops: u64) -> (f64, f64, f64) {
    let submit = ClientFrame::Submit {
        req: 7,
        steps: lock_all_steps(),
    };
    let client = ns_per_op(3, || {
        timed(ops, |_| {
            black_box(ClientFrame::decode(&black_box(&submit).encode()).expect("round trip"));
        })
    });
    let done = ServerFrame::Done {
        req: 7,
        committed: true,
        attempts: 1,
    };
    let granted = ServerFrame::Granted { req: 7 };
    let server = ns_per_op(3, || {
        timed(ops, |_| {
            for f in [&granted, &done] {
                black_box(ServerFrame::decode(&black_box(f).encode()).expect("round trip"));
            }
        })
    });
    let data = PeerFrame::Data {
        seq: 41,
        msg: DdbMsg::RemoteRequest {
            txn: TransactionId(9),
            resource: ResourceId(1_001),
            mode: LockMode::Exclusive,
            home: SiteId(0),
        },
    };
    let ack = PeerFrame::Ack { next: 42 };
    let peer = ns_per_op(3, || {
        timed(ops, |_| {
            for f in [&data, &ack] {
                black_box(PeerFrame::decode(&black_box(f).encode()).expect("round trip"));
            }
        })
    });
    (client, server / 2.0, peer / 2.0)
}

/// Reads exactly one frame's worth of bytes (the echo peer sends back
/// what it got, so the length is known).
fn read_full(sock: &mut Sock, mut want: usize, buf: &mut [u8]) -> bool {
    while want > 0 {
        match sock.read_some(buf) {
            Ok(0) | Err(_) => return false,
            Ok(n) => want = want.saturating_sub(n),
        }
    }
    true
}

/// Microseconds per round trip of one small frame between two threads
/// over a Unix-domain `Sock`.
fn uds_rtt(ops: u64) -> f64 {
    let path = std::env::temp_dir().join(format!("cmh-bench-echo-{}.sock", std::process::id()));
    let addr = Addr::Uds(path);
    let listener = Listener::bind(&addr).expect("bind echo socket");
    let body = ServerFrame::Granted { req: 7 }.encode();
    let wire_len = frame(&body).len();
    let echo = std::thread::spawn(move || {
        let mut sock = loop {
            match listener.accept() {
                Ok(Some(s)) => break s,
                Ok(None) => std::thread::sleep(Duration::from_micros(200)),
                Err(e) => panic!("echo accept: {e}"),
            }
        };
        let mut buf = [0u8; 256];
        while let Ok(n) = sock.read_some(&mut buf) {
            if n == 0 {
                break;
            }
            // Raw echo: the bytes already carry their length prefix.
            let raw = match &mut sock {
                Sock::Uds(s) => s.write_all(&buf[..n]),
                Sock::Tcp(s) => s.write_all(&buf[..n]),
            };
            if raw.is_err() {
                break;
            }
        }
    });
    let mut sock = Sock::connect(&addr).expect("dial echo socket");
    let mut buf = [0u8; 256];
    let ns = ns_per_op(3, || {
        timed(ops, |_| {
            sock.send_frame(&body).expect("send");
            assert!(read_full(&mut sock, wire_len, &mut buf), "echo closed");
        })
    });
    sock.shutdown();
    echo.join().expect("echo thread");
    ns / 1e3
}

/// Median request→done of window-1 `Work{1}` transactions on an idle
/// one-site cluster: the floor under `svc_local`'s grant latency.
fn idle_rtt(txns: usize) -> f64 {
    let cluster = Cluster::start(ClusterConfig::new(1, DdbConfig::detect_only(50_000)));
    let jobs = (0..txns)
        .map(|_| Job {
            site: SiteId(0),
            steps: vec![TxnStep::Work { ticks: 1 }],
            at_us: 0,
        })
        .collect();
    let report = loadgen::run_load(
        cluster.addrs(),
        jobs,
        LoadConfig {
            mode: Mode::Closed { per_site: 1 },
            deadline: Duration::from_secs(30),
        },
    );
    cluster.shutdown();
    assert_eq!(report.committed, txns, "idle cluster lost work: {report:?}");
    median(&report.txn_us.iter().map(|&u| u as f64).collect::<Vec<_>>())
}

/// Kill → restart → first commit of site 0 on a fresh two-site cluster,
/// `rounds` times: medians of `(Cluster::restart ms, ms from the restart
/// until a probe transaction commits)`.
fn recovery(rounds: usize) -> (f64, f64) {
    let mut cluster = Cluster::start(ClusterConfig::new(2, DdbConfig::detect_only(5_000)));
    let addr = cluster.addrs()[0].clone();
    let (mut restart_ms, mut recovery_ms) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        // The kill must interrupt a serving site, not a cold one.
        loadgen::probe_until_commit(&addr, Duration::from_secs(5)).expect("site 0 serves");
        cluster.kill(SiteId(0));
        let t0 = Instant::now();
        cluster.restart(SiteId(0));
        restart_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        loadgen::probe_until_commit(&addr, Duration::from_secs(15))
            .expect("restarted site serves a commit");
        recovery_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    cluster.shutdown();
    (median(&restart_ms), median(&recovery_ms))
}

/// Runs the whole suite; a few seconds in the full profile.
pub fn suite(sizes: &Sizes, all_cpus: Option<&CpuSet>) -> Vec<(&'static str, f64)> {
    // The smoke profile checks that every layer still answers, not what
    // it costs.
    let k: u64 = if sizes.smoke { 20 } else { 1 };
    let faulty = || {
        SimBuilder::new()
            .seed(11)
            .faults(FaultPlan::new().loss(0.05).duplicate(0.02))
    };
    let s1 = scale_on(SimBuilder::new().shards(1), 30_000 / k as usize);
    // Two workers want two CPUs: off the harness's one-CPU pin for this
    // measurement alone.
    let pinned =
        all_cpus.and_then(|all| affinity::allowed().filter(|_| affinity::restrict_to(all)));
    let s2 = scale_on(SimBuilder::new().shards(2).workers(2), 30_000 / k as usize);
    if let Some(one) = pinned {
        affinity::restrict_to(&one);
    }
    let (step_detect, step_resolve, agent_graph, at_rest) = ddb_net(200 / k as usize);
    let (client, server, peer) = proto_codecs(100_000 / k);
    let (restart_ms, recovery_ms) = recovery(if sizes.smoke { 1 } else { 5 });
    vec![
        (
            "simnet.equeue.push_pop_d256_ns",
            equeue_push_pop(256, 100_000 / k),
        ),
        (
            "simnet.equeue.push_pop_d100k_ns",
            equeue_push_pop(100_000 / k, 100_000 / k),
        ),
        (
            "simnet.sim.deliver_clean_ns",
            deliver(|| SimBuilder::new().seed(7), 1, 200_000 / k),
        ),
        (
            "simnet.sim.deliver_faulty_ns",
            deliver(faulty, 2_000 / k, 400),
        ),
        (
            "simnet.sim.deliver_reliable_ns",
            deliver(
                || faulty().reliable(ReliableConfig::default()),
                2,
                30_000 / k,
            ),
        ),
        (
            "simnet.sim.timer_arm_cancel_ns",
            timer_arm_cancel(100_000 / k),
        ),
        ("simnet.sim.add_node_ns", s1.0),
        ("simnet.metrics.add_ns", metrics_add(1_000_000 / k)),
        ("simnet.shard.s1_ns_per_event", s1.2),
        ("simnet.shard.s2w2_ns_per_event", s2.2),
        ("simnet.shard.barrier_ns_per_window", s2.3),
        (
            "simnet.transport.endpoint_roundtrip_ns",
            endpoint_roundtrip(100_000 / k),
        ),
        ("wfg.graph.edge_add_remove_ns", edge_add_remove(100_000 / k)),
        (
            "wfg.oracle.churn_query_ns",
            oracle_churn_query(128 / k.min(4) as usize),
        ),
        ("wfg.journal.record_1k_ns", journal_record(1_000)),
        (
            "wfg.journal.record_100k_ns",
            journal_record(100_000 / k as usize),
        ),
        (
            "wfg.journal.seek_ns",
            journal_seek(20_000 / k as usize, 300 / k),
        ),
        ("core.process.request_ns", s1.1),
        (
            "core.process.probe_hop_ns",
            probe_hop(128 / k.min(8) as usize),
        ),
        ("ddb.lock.grant_release_ns", lock_grant_release(100_000 / k)),
        ("ddb.lock.wait_edges_ns", lock_wait_edges(400 / k)),
        ("ddb.net.step_detect_us", step_detect),
        ("ddb.net.step_resolve_us", step_resolve),
        ("ddb.net.agent_graph_us", agent_graph),
        ("ddb.snapshot.verify_at_rest_ms", at_rest),
        ("service.wire.frame_ns", wire_frame(100_000 / k)),
        ("service.proto.client_codec_ns", client),
        ("service.proto.server_codec_ns", server),
        ("service.proto.peer_codec_ns", peer),
        ("service.sock.uds_rtt_us", uds_rtt(10_000 / k)),
        ("service.node.idle_rtt_us", idle_rtt(3_000 / k as usize)),
        ("service.cluster.restart_ms", restart_ms),
        ("e2e.recovery_ms", recovery_ms),
    ]
}
