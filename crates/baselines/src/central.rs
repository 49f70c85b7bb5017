//! Centralised snapshot deadlock detection — the class of protocols the
//! paper's introduction criticises (Gligor & Shattuck \[4\] showed several
//! published ones incorrect).
//!
//! A dedicated **coordinator** node periodically polls every worker for its
//! outgoing wait-for edges, assembles a global graph from the replies and
//! searches it for cycles:
//!
//! * **one-phase** mode uses each round's union directly. Because replies
//!   are snapshots taken at different instants, edges from different
//!   moments can form a cycle that never existed — a *phantom deadlock*.
//! * **two-phase** mode (after Ho & Ramamoorthy) intersects two consecutive
//!   rounds and only reports cycles among edges present in both, largely —
//!   though famously not entirely — suppressing phantoms.
//!
//! Experiment E4/E6 measure the phantom rate and the message bill
//! (2·N messages per round, every round, deadlock or not) against the probe
//! computation (messages only when waits persist).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use cmh_core::process::{RequestError, Underlying, SERVE_TIMER};
use cmh_core::{Net, ReplyPolicy, Vertex};
use simnet::sim::{Context, NodeId, Process, SimBuilder, TimerId};
use wfg::oracle::Oracle;
use wfg::WaitForGraph;

use crate::report::{BaselineReport, Claims};

/// Coordinator snapshot discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotMode {
    /// Detect on each round's union of replies (unsound: phantoms).
    OnePhase,
    /// Detect on the intersection of two consecutive rounds.
    TwoPhase,
}

/// Metric-counter names for the centralised detector.
pub mod counters {
    /// Snapshot requests sent by the coordinator.
    pub const SNAP_REQUEST: &str = "central.snap.request";
    /// Snapshot replies sent by workers.
    pub const SNAP_REPLY: &str = "central.snap.reply";
    /// Deadlock reports made by the coordinator.
    pub const DECLARED: &str = "central.declared";
}

/// Messages of the centralised scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CentralMsg {
    /// The underlying computation's request.
    Request,
    /// The underlying computation's reply.
    Reply,
    /// Coordinator asks a worker for its outgoing edges.
    SnapRequest {
        /// Poll round.
        round: u64,
    },
    /// Worker's reply: its current outgoing wait-for edges.
    SnapReply {
        /// Poll round being answered.
        round: u64,
        /// The worker's outgoing-edge targets at reply time.
        out_waits: Vec<NodeId>,
    },
}

const TAG_POLL: u64 = 1;

/// A node of the centralised system: worker or coordinator.
pub enum CentralProcess {
    /// Runs the underlying computation and answers snapshot polls.
    Worker(Underlying<CentralMsg>),
    /// Polls, assembles the global graph, reports cycles. Boxed: the
    /// embedded graph + oracle scratch dwarf the worker variant.
    Coordinator(Box<Coordinator>),
}

impl fmt::Debug for CentralProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CentralProcess::Worker(w) => f
                .debug_struct("Worker")
                .field("blocked", &w.is_blocked())
                .finish_non_exhaustive(),
            CentralProcess::Coordinator(c) => f
                .debug_struct("Coordinator")
                .field("round", &c.round)
                .field("reports", &c.reports.len())
                .finish_non_exhaustive(),
        }
    }
}

/// Coordinator state.
///
/// The coordinator detects at every poll tick on the **latest** report it
/// holds from each worker. Reports were necessarily taken at different
/// instants — that is precisely the inconsistency that makes one-phase
/// collection phantom-prone; the two-phase variant only trusts edges
/// present in two consecutive detection views.
#[derive(Debug)]
pub struct Coordinator {
    n_workers: usize,
    period: u64,
    mode: SnapshotMode,
    round: u64,
    latest_reply: BTreeMap<NodeId, Vec<NodeId>>,
    prev_view: Option<BTreeSet<(NodeId, NodeId)>>,
    currently_reported: BTreeSet<NodeId>,
    reports: Vec<BaselineReport>,
    /// Per-round view graph, cleared and rebuilt each poll so vertex
    /// interning and row allocations are reused across rounds.
    graph: WaitForGraph,
    /// Reusable oracle scratch for the per-round cycle search.
    oracle: Oracle,
}

impl Coordinator {
    fn detect(&mut self, ctx: &mut Context<'_, CentralMsg>) {
        let view: BTreeSet<(NodeId, NodeId)> = self
            .latest_reply
            .iter()
            .flat_map(|(&from, tos)| tos.iter().map(move |&to| (from, to)))
            .collect();
        let effective: BTreeSet<(NodeId, NodeId)> = match self.mode {
            SnapshotMode::OnePhase => view.clone(),
            SnapshotMode::TwoPhase => match &self.prev_view {
                Some(prev) => view.intersection(prev).copied().collect(),
                None => BTreeSet::new(),
            },
        };
        self.prev_view = Some(view);
        // Assemble and search for cycles with the shared graph machinery.
        self.graph.clear();
        for &(a, b) in &effective {
            self.graph.create_grey(a, b).expect("deduplicated edges");
            self.graph.blacken(a, b).expect("fresh grey edge");
        }
        let members = self.oracle.dark_cycle_members(&self.graph);
        // Report newly deadlocked vertices; forget ones whose cycle is gone
        // (so a later phantom of the same vertex is counted again).
        for &v in members {
            if self.currently_reported.insert(v) {
                ctx.count(counters::DECLARED);
                if ctx.tracing() {
                    ctx.note(format!("central: {v} reported deadlocked"));
                }
                self.reports.push(BaselineReport {
                    detector: ctx.id(),
                    subject: v,
                    at: ctx.now(),
                });
            }
        }
        self.currently_reported.retain(|v| members.contains(v));
    }
}

impl Process<CentralMsg> for CentralProcess {
    fn on_start(&mut self, ctx: &mut Context<'_, CentralMsg>) {
        if let CentralProcess::Coordinator(c) = self {
            ctx.set_timer_jittered(c.period, c.period, TAG_POLL);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, CentralMsg>, from: NodeId, msg: CentralMsg) {
        match (self, msg) {
            (CentralProcess::Worker(w), CentralMsg::Request) => w.on_request(ctx, from),
            (CentralProcess::Worker(w), CentralMsg::Reply) => {
                w.on_reply(ctx, from);
            }
            (CentralProcess::Worker(w), CentralMsg::SnapRequest { round }) => {
                ctx.count(counters::SNAP_REPLY);
                let out_waits = w.out_waits().iter().copied().collect();
                ctx.send(from, CentralMsg::SnapReply { round, out_waits });
            }
            (
                CentralProcess::Coordinator(c),
                CentralMsg::SnapReply {
                    round: _,
                    out_waits,
                },
            ) => {
                // Keep the freshest report per worker; FIFO channels mean a
                // later-arriving reply is a later snapshot.
                c.latest_reply.insert(from, out_waits);
            }
            // Stray messages (e.g. a late snapshot reply) are ignored.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, CentralMsg>, _timer: TimerId, tag: u64) {
        match (self, tag) {
            (CentralProcess::Worker(w), SERVE_TIMER) => w.on_serve_timer(ctx, CentralMsg::Reply),
            (CentralProcess::Coordinator(c), TAG_POLL) => {
                // Detect on whatever view has accumulated, then poll again.
                if c.latest_reply.len() == c.n_workers {
                    c.detect(ctx);
                }
                c.round += 1;
                for i in 0..c.n_workers {
                    ctx.count(counters::SNAP_REQUEST);
                    ctx.send(NodeId(i), CentralMsg::SnapRequest { round: c.round });
                }
                ctx.set_timer(c.period, TAG_POLL);
            }
            _ => {}
        }
    }
}

impl Vertex for CentralProcess {
    type Msg = CentralMsg;

    /// Panics on the coordinator, which runs no underlying computation.
    fn request(
        &mut self,
        ctx: &mut Context<'_, CentralMsg>,
        to: NodeId,
    ) -> Result<(), RequestError> {
        let CentralProcess::Worker(w) = self else {
            panic!("cannot request from the coordinator")
        };
        w.request(ctx, to, CentralMsg::Request)
    }
}

impl Claims for CentralProcess {
    fn claims(&self, _me: NodeId, out: &mut Vec<BaselineReport>) {
        if let CentralProcess::Coordinator(c) = self {
            out.extend_from_slice(&c.reports);
        }
    }
}

/// The centralised detector in the journalled harness: `n` workers
/// (nodes `0..n`) plus the coordinator (node `n`); see [`net`]. The
/// coordinator polls forever, so the queue never drains: run it with
/// `run_until`.
pub type CentralNet = Net<CentralProcess>;

/// `n` workers that serve a request `service_delay` after it arrives,
/// then the coordinator, polling every `period` in snapshot `mode`.
pub fn net(
    n: usize,
    mode: SnapshotMode,
    period: u64,
    service_delay: u64,
    builder: SimBuilder,
) -> CentralNet {
    Net::build(builder, n + 1, |i, journal| {
        if i < n {
            return CentralProcess::Worker(Underlying::new(
                ReplyPolicy::AfterDelay { service_delay },
                Some(Arc::clone(journal)),
            ));
        }
        CentralProcess::Coordinator(Box::new(Coordinator {
            n_workers: n,
            period,
            mode,
            round: 0,
            latest_reply: BTreeMap::new(),
            prev_view: None,
            currently_reported: BTreeSet::new(),
            reports: Vec::new(),
            graph: WaitForGraph::new(),
            oracle: Oracle::new(),
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify, reports};
    use simnet::time::SimTime;
    use wfg::generators;

    fn seeded(n: usize, mode: SnapshotMode, period: u64, service: u64, seed: u64) -> CentralNet {
        net(n, mode, period, service, SimBuilder::new().seed(seed))
    }

    fn deadline(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn detects_a_real_cycle() {
        for mode in [SnapshotMode::OnePhase, SnapshotMode::TwoPhase] {
            let mut net = seeded(4, mode, 50, 5, 1);
            net.request_edges(&generators::cycle(4)).unwrap();
            net.run_until(deadline(2_000));
            let reports = reports(&net);
            assert_eq!(reports.len(), 4, "{mode:?}: all members reported");
            let c = classify(&net);
            assert_eq!(c.phantom, 0, "{mode:?}: stable cycle is genuine");
        }
    }

    #[test]
    fn quiet_system_reports_nothing() {
        let mut net = seeded(5, SnapshotMode::OnePhase, 40, 3, 2);
        net.request_edges(&generators::chain(5)).unwrap();
        net.run_until(deadline(3_000));
        assert!(reports(&net).is_empty());
        // But the polling bill was still paid: rounds * n messages.
        assert!(net.metrics().get(counters::SNAP_REQUEST) >= 5 * 10);
    }

    #[test]
    fn coordinator_cost_scales_with_n_even_when_idle() {
        let mut small = seeded(4, SnapshotMode::TwoPhase, 50, 3, 3);
        let mut large = seeded(16, SnapshotMode::TwoPhase, 50, 3, 3);
        small.run_until(deadline(2_000));
        large.run_until(deadline(2_000));
        let s = small.metrics().get(counters::SNAP_REQUEST);
        let l = large.metrics().get(counters::SNAP_REQUEST);
        assert!(l >= 3 * s, "poll volume should scale with N: {s} vs {l}");
    }

    #[test]
    fn two_phase_requires_two_rounds() {
        let mut net = seeded(3, SnapshotMode::TwoPhase, 100, 5, 4);
        net.request_edges(&generators::cycle(3)).unwrap();
        // After only ~one round, two-phase cannot have declared yet.
        net.run_until(deadline(120));
        assert!(reports(&net).is_empty());
        net.run_until(deadline(2_000));
        assert_eq!(reports(&net).len(), 3);
    }
}
