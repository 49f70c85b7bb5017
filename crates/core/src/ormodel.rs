//! The companion **communication-model** (OR-model) deadlock detector.
//!
//! The paper's introduction distinguishes two blocking semantics: the
//! resource (AND) model of this paper — a process proceeds only when it
//! receives **all** the replies it awaits — and the *message model* of its
//! reference \[1\] (Chandy, Misra & Haas, "Distributed Deadlock Detection"),
//! where a blocked process proceeds as soon as it hears from **any one**
//! of the processes it depends on. §7 names algorithms for other system
//! types as the open direction; this module implements that companion
//! algorithm so both halves of the Chandy–Misra–Haas family live in one
//! crate.
//!
//! ## The algorithm (diffusing computation, after Dijkstra–Scholten)
//!
//! A blocked initiator sends `query(i, n)` to every member of its
//! *dependent set*. A blocked process engages with the **first** query of
//! a computation (recording its *engager* and propagating queries to its
//! own dependent set) and answers every later query of that computation
//! immediately. It sends the reply to its engager only when replies for
//! all its propagated queries have arrived **and it has been continuously
//! blocked since engagement**. An *active* process simply discards
//! queries. The initiator declares deadlock iff its own diffusion
//! terminates — every query answered.
//!
//! Soundness intuition: a completed diffusion certifies a set of processes,
//! closed under dependent sets, all of which were continuously blocked
//! while the wave passed — in the OR model such a set can never receive a
//! message from outside (nobody inside can send, nobody it waits for is
//! outside), so it is deadlocked. A single *active* process reachable from
//! the initiator breaks the chain of replies and no declaration happens.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};

use simnet::sim::{Context, NodeId, Process, SimBuilder, TimerId};
use simnet::time::SimTime;
use wfg::journal::{GraphOp, Journal};
use wfg::oracle::{self, Oracle};
use wfg::WaitForGraph;

use crate::engine::{Net, ValidationError, Vertex};
use crate::probe::{DeadlockReport, ProbeTag};

/// Metric-counter names for the OR-model detector.
pub mod counters {
    /// Application `Data` messages sent.
    pub const DATA_SENT: &str = "or.data.sent";
    /// Queries sent.
    pub const QUERY_SENT: &str = "or.query.sent";
    /// Replies sent.
    pub const REPLY_SENT: &str = "or.reply.sent";
    /// Queries discarded by active processes.
    pub const QUERY_DISCARDED: &str = "or.query.discarded";
    /// Computations initiated.
    pub const INITIATED: &str = "or.initiated";
    /// Deadlocks declared.
    pub const DECLARED: &str = "or.declared";
}

/// Messages of the OR model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrMsg {
    /// An application message; receiving one from a process in the
    /// dependent set unblocks the receiver.
    Data,
    /// Diffusion query of the tagged computation.
    Query(ProbeTag),
    /// Diffusion reply of the tagged computation.
    Reply(ProbeTag),
}

#[derive(Debug)]
struct Engagement {
    n: u64,
    engager: NodeId,
    outstanding: usize,
    /// Block-epoch at engagement: a reply is only sent if the process has
    /// been continuously blocked since.
    epoch: u64,
    replied: bool,
}

/// Error from [`OrProcess::block_on`] / [`OrNet::block_on`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrRequestError {
    /// The process is already blocked.
    AlreadyBlocked,
    /// A process cannot depend on itself or on an empty set.
    BadDependentSet,
    /// Only active processes may send application data.
    SenderBlocked,
}

impl fmt::Display for OrRequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrRequestError::AlreadyBlocked => write!(f, "process is already blocked"),
            OrRequestError::BadDependentSet => {
                write!(f, "dependent set must be non-empty and exclude the process")
            }
            OrRequestError::SenderBlocked => write!(f, "a blocked process cannot send data"),
        }
    }
}

impl std::error::Error for OrRequestError {}

const TAG_DELAYED_INIT: u64 = 0;

/// A process of the OR model.
pub struct OrProcess {
    waiting_on: Option<BTreeSet<NodeId>>,
    /// Bumped on every block/unblock transition.
    epoch: u64,
    own_n: u64,
    engagements: BTreeMap<NodeId, Engagement>,
    declarations: Vec<DeadlockReport>,
    /// Shared mutation journal (validation only — never read here).
    journal: Option<Arc<Mutex<Journal>>>,
    /// If set, a blocked process initiates after this many ticks blocked.
    init_delay: Option<u64>,
}

impl fmt::Debug for OrProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrProcess")
            .field("blocked", &self.waiting_on.is_some())
            .field("declared", &!self.declarations.is_empty())
            .finish_non_exhaustive()
    }
}

impl OrProcess {
    /// Creates an active process; `init_delay` arms automatic delayed
    /// initiation on every blocking episode.
    pub fn new(init_delay: Option<u64>) -> Self {
        OrProcess {
            waiting_on: None,
            epoch: 0,
            own_n: 0,
            engagements: BTreeMap::new(),
            declarations: Vec::new(),
            journal: None,
            init_delay,
        }
    }

    /// `true` while blocked.
    pub fn is_blocked(&self) -> bool {
        self.waiting_on.is_some()
    }

    /// Declarations made by this process.
    pub fn declarations(&self) -> &[DeadlockReport] {
        &self.declarations
    }

    /// Blocks on `deps`: the process idles until **any** member sends it
    /// `Data`.
    ///
    /// # Errors
    ///
    /// [`OrRequestError`] if already blocked or the set is invalid.
    pub fn block_on(
        &mut self,
        ctx: &mut Context<'_, OrMsg>,
        deps: BTreeSet<NodeId>,
    ) -> Result<(), OrRequestError> {
        if self.waiting_on.is_some() {
            return Err(OrRequestError::AlreadyBlocked);
        }
        if deps.is_empty() || deps.contains(&ctx.id()) {
            return Err(OrRequestError::BadDependentSet);
        }
        let me = ctx.id();
        self.record(ctx, deps.iter().map(|&d| GraphOp::CreateGrey(me, d)));
        self.waiting_on = Some(deps);
        self.epoch += 1;
        if let Some(t) = self.init_delay {
            ctx.set_timer(t, TAG_DELAYED_INIT | (self.epoch << 1));
        }
        Ok(())
    }

    /// Sends application data to `to` (active processes only; receiving it
    /// unblocks `to` if it depends on this process).
    ///
    /// # Errors
    ///
    /// [`OrRequestError::SenderBlocked`] if this process is blocked.
    pub fn send_data(
        &mut self,
        ctx: &mut Context<'_, OrMsg>,
        to: NodeId,
    ) -> Result<(), OrRequestError> {
        if self.waiting_on.is_some() {
            return Err(OrRequestError::SenderBlocked);
        }
        ctx.count(counters::DATA_SENT);
        ctx.send(to, OrMsg::Data);
        Ok(())
    }

    /// Journals `ops` at the handling event's `(time, seq)`, as
    /// `BasicProcess` does, so a sharded run journals in single-shard order.
    fn record(&self, ctx: &Context<'_, OrMsg>, ops: impl IntoIterator<Item = GraphOp>) {
        if let Some(j) = &self.journal {
            let mut j = j.lock().expect("journal lock");
            for op in ops {
                j.record_at(ctx.now(), ctx.event_seq(), op);
            }
        }
    }

    /// Starts a diffusion for this (blocked) process. No-op when active.
    pub fn initiate(&mut self, ctx: &mut Context<'_, OrMsg>) {
        let Some(deps) = self.waiting_on.clone() else {
            return;
        };
        self.own_n += 1;
        let tag = ProbeTag::new(ctx.id(), self.own_n);
        ctx.count(counters::INITIATED);
        self.engagements.insert(
            ctx.id(),
            Engagement {
                n: self.own_n,
                engager: ctx.id(),
                outstanding: deps.len(),
                epoch: self.epoch,
                replied: false,
            },
        );
        for d in deps {
            ctx.count(counters::QUERY_SENT);
            ctx.send(d, OrMsg::Query(tag));
        }
    }

    fn on_query(&mut self, ctx: &mut Context<'_, OrMsg>, from: NodeId, tag: ProbeTag) {
        let Some(deps) = self.waiting_on.clone() else {
            // Active: the diffusion dies here — and with it any chance of
            // a (false) declaration.
            ctx.count(counters::QUERY_DISCARDED);
            return;
        };
        match self.engagements.get(&tag.initiator) {
            Some(e) if e.n > tag.n => { /* stale computation: ignore */ }
            Some(e) if e.n == tag.n => {
                // Already engaged in this computation: answer immediately.
                ctx.count(counters::REPLY_SENT);
                ctx.send(from, OrMsg::Reply(tag));
            }
            _ => {
                // First query of a (newer) computation: engage.
                self.engagements.insert(
                    tag.initiator,
                    Engagement {
                        n: tag.n,
                        engager: from,
                        outstanding: deps.len(),
                        epoch: self.epoch,
                        replied: false,
                    },
                );
                for d in deps {
                    ctx.count(counters::QUERY_SENT);
                    ctx.send(d, OrMsg::Query(tag));
                }
            }
        }
    }

    fn on_reply(&mut self, ctx: &mut Context<'_, OrMsg>, tag: ProbeTag) {
        let me = ctx.id();
        let Some(e) = self.engagements.get_mut(&tag.initiator) else {
            return;
        };
        if e.n != tag.n || e.replied {
            return;
        }
        // Continuous-blocking guard: replies arriving after this process
        // unblocked (even if it re-blocked) must not complete the wave.
        if self.waiting_on.is_none() || e.epoch != self.epoch {
            return;
        }
        debug_assert!(e.outstanding > 0, "reply without outstanding query");
        e.outstanding -= 1;
        if e.outstanding > 0 {
            return;
        }
        e.replied = true;
        if tag.initiator == me {
            if tag.n == self.own_n {
                let report = DeadlockReport {
                    detector: me,
                    subject: me,
                    tag: Some(tag),
                    at: ctx.now(),
                };
                self.declarations.push(report);
                ctx.count(counters::DECLARED);
                if ctx.tracing() {
                    ctx.note(format!("DECLARE OR-deadlock: {me}, computation {tag}"));
                }
            }
        } else {
            let engager = e.engager;
            ctx.count(counters::REPLY_SENT);
            ctx.send(engager, OrMsg::Reply(tag));
        }
    }
}

impl Process<OrMsg> for OrProcess {
    fn on_message(&mut self, ctx: &mut Context<'_, OrMsg>, from: NodeId, msg: OrMsg) {
        match msg {
            OrMsg::Data => {
                let unblocks = self
                    .waiting_on
                    .as_ref()
                    .is_some_and(|deps| deps.contains(&from));
                if unblocks {
                    self.waiting_on = None;
                    self.epoch += 1;
                    self.record(ctx, [GraphOp::Release(ctx.id())]);
                }
                // Data from outside the dependent set is application
                // traffic this model ignores.
            }
            OrMsg::Query(tag) => self.on_query(ctx, from, tag),
            OrMsg::Reply(tag) => self.on_reply(ctx, tag),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, OrMsg>, _timer: TimerId, tag: u64) {
        let epoch = tag >> 1;
        if self.waiting_on.is_some() && self.epoch == epoch {
            self.initiate(ctx);
        }
    }
}

impl Vertex for OrProcess {
    type Msg = OrMsg;
    type Error = OrRequestError;

    /// Blocks on `{to}`: with one dependent, an OR wait is an AND request.
    fn request(&mut self, ctx: &mut Context<'_, OrMsg>, to: NodeId) -> Result<(), OrRequestError> {
        self.block_on(ctx, BTreeSet::from([to]))
    }

    fn claims(&self, _me: NodeId, out: &mut Vec<DeadlockReport>) {
        out.extend_from_slice(&self.declarations);
    }

    /// Barbosa's OR deadlock: blocked, and no active vertex reachable.
    fn deadlocked(g: &WaitForGraph, o: &mut Oracle, v: NodeId) -> bool {
        o.or_deadlocked(g).contains(&v)
    }
}

/// The OR model's network: [`OrProcess`] vertices in the one journalled
/// [`Net`]. A block journals a grey edge per dependent, an unblock releases
/// them, and the verdicts read [`wfg::oracle::Oracle::or_deadlocked`].
///
/// # Examples
///
/// A three-process communication knot, detected and verified:
///
/// ```
/// use cmh_core::ormodel::OrNet;
/// use simnet::sim::NodeId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = OrNet::new(3, Some(20), 1);
/// for i in 0..3 {
///     net.block_on(NodeId(i), [NodeId((i + 1) % 3)])?;
/// }
/// net.run_to_quiescence(100_000);
/// assert!(!net.declarations().is_empty());
/// net.verify_soundness()?;
/// net.verify_completeness()?;
/// # Ok(())
/// # }
/// ```
pub type OrNet = Net<OrProcess>;

impl OrNet {
    /// Creates `n` processes; `init_delay` arms automatic delayed
    /// initiation on blocking.
    pub fn new(n: usize, init_delay: Option<u64>, seed: u64) -> Self {
        Self::with_builder(n, init_delay, SimBuilder::new().seed(seed))
    }

    /// Full builder control (latency, faults, tracing, shards).
    pub fn with_builder(n: usize, init_delay: Option<u64>, builder: SimBuilder) -> Self {
        Net::build(builder, n, |_, j| OrProcess {
            journal: Some(Arc::clone(j)),
            ..OrProcess::new(init_delay)
        })
    }

    /// Blocks process `v` on the given dependent set.
    ///
    /// # Errors
    ///
    /// Propagates [`OrRequestError`].
    pub fn block_on(
        &mut self,
        v: NodeId,
        deps: impl IntoIterator<Item = NodeId>,
    ) -> Result<(), OrRequestError> {
        let deps: BTreeSet<NodeId> = deps.into_iter().collect();
        self.with_node(v, |p, ctx| p.block_on(ctx, deps))
    }

    /// Has active process `from` send data to `to`.
    ///
    /// # Errors
    ///
    /// Propagates [`OrRequestError::SenderBlocked`].
    pub fn send_data(&mut self, from: NodeId, to: NodeId) -> Result<(), OrRequestError> {
        self.with_node(from, |p, ctx| p.send_data(ctx, to))
    }

    /// Manually initiates a diffusion at `v`.
    pub fn initiate(&mut self, v: NodeId) {
        self.with_node(v, |p, ctx| p.initiate(ctx));
    }

    /// Checks that (with automatic initiation enabled) every OR-deadlocked
    /// process has a declarer **in its dependency closure**. One detector
    /// per knot suffices — §4.2's argument — and the knot's completing
    /// member (the last to block) is the one guaranteed to declare: its
    /// delayed initiation fires after the knot closed. Returns the number
    /// of deadlocked processes.
    ///
    /// # Errors
    ///
    /// [`ValidationError::MissedDeadlock`] with the closure of the first
    /// process whose whole closure is silent, or
    /// [`ValidationError::IllegalHistory`].
    pub fn verify_completeness(&self) -> Result<usize, ValidationError> {
        self.as_of(&self.journal(), SimTime::MAX, |g, o| {
            let stuck = o.or_deadlocked(g);
            for &v in stuck {
                let closure = oracle::reachable(g, v, |_| true);
                if closure
                    .iter()
                    .all(|&u| self.node(u).declarations().is_empty())
                {
                    let cycle_members = closure.into_iter().collect();
                    return Err(ValidationError::MissedDeadlock { cycle_members });
                }
            }
            Ok(stuck.len())
        })?
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn singleton_dependencies_form_a_knot() {
        let mut net = OrNet::new(4, Some(15), 1);
        for i in 0..4 {
            net.block_on(n(i), [n((i + 1) % 4)]).unwrap();
        }
        net.run_to_quiescence(100_000);
        assert!(net.verify_soundness().unwrap() >= 1);
        assert_eq!(net.verify_completeness().unwrap(), 4);
    }

    #[test]
    fn an_active_escape_prevents_declaration() {
        // 0,1,2 wait on each other but 1 also depends on the active 3.
        let mut net = OrNet::new(4, Some(15), 2);
        net.block_on(n(0), [n(1)]).unwrap();
        net.block_on(n(1), [n(2), n(3)]).unwrap();
        net.block_on(n(2), [n(0)]).unwrap();
        net.run_to_quiescence(100_000);
        assert!(net.declarations().is_empty(), "3 is active: not a deadlock");
        // And indeed 3 can rescue the whole group.
        net.send_data(n(3), n(1)).unwrap();
        net.run_to_quiescence(100_000);
        assert!(!net.node(n(1)).is_blocked());
    }

    #[test]
    fn or_semantics_any_message_unblocks() {
        let mut net = OrNet::new(3, None, 3);
        net.block_on(n(0), [n(1), n(2)]).unwrap();
        net.send_data(n(2), n(0)).unwrap();
        net.run_to_quiescence(10_000);
        assert!(!net.node(n(0)).is_blocked());
    }

    #[test]
    fn data_from_outside_dependent_set_is_ignored() {
        let mut net = OrNet::new(3, None, 4);
        net.block_on(n(0), [n(1)]).unwrap();
        net.send_data(n(2), n(0)).unwrap();
        net.run_to_quiescence(10_000);
        assert!(net.node(n(0)).is_blocked());
    }

    #[test]
    fn block_and_send_errors() {
        let mut net = OrNet::new(2, None, 5);
        assert_eq!(net.block_on(n(0), []), Err(OrRequestError::BadDependentSet));
        assert_eq!(
            net.block_on(n(0), [n(0)]),
            Err(OrRequestError::BadDependentSet)
        );
        net.block_on(n(0), [n(1)]).unwrap();
        assert_eq!(
            net.block_on(n(0), [n(1)]),
            Err(OrRequestError::AlreadyBlocked)
        );
        assert_eq!(
            net.send_data(n(0), n(1)),
            Err(OrRequestError::SenderBlocked)
        );
    }

    #[test]
    fn unblock_then_reblock_does_not_complete_stale_wave() {
        // 0 -> 1 -> 0 knot, but 1 is rescued mid-computation by 2, then
        // re-blocks. The stale replies must not produce a declaration.
        let mut net = OrNet::new(3, None, 6);
        net.block_on(n(0), [n(1)]).unwrap();
        net.block_on(n(1), [n(0), n(2)]).unwrap();
        net.initiate(n(0));
        // Rescue 1 before the wave completes (queries still in flight).
        net.send_data(n(2), n(1)).unwrap();
        net.run_to_quiescence(100_000);
        // 1 re-blocks immediately on the same set.
        net.block_on(n(1), [n(0), n(2)]).unwrap();
        net.run_to_quiescence(100_000);
        assert!(net.declarations().is_empty());
        net.verify_soundness().unwrap();
    }

    #[test]
    fn dense_knot_detected_with_bounded_messages() {
        // Everyone depends on everyone: 2 messages per edge per computation
        // is the CMH-83 bound (one query + one reply).
        let k = 6;
        let mut net = OrNet::new(k, None, 7);
        for i in 0..k {
            let deps: Vec<NodeId> = (0..k).filter(|&j| j != i).map(n).collect();
            net.block_on(n(i), deps).unwrap();
        }
        net.initiate(n(0));
        net.run_to_quiescence(1_000_000);
        assert_eq!(net.verify_soundness().unwrap(), 1);
        let queries = net.metrics().get(counters::QUERY_SENT);
        let replies = net.metrics().get(counters::REPLY_SENT);
        let edges = (k * (k - 1)) as u64;
        assert!(queries <= edges, "queries {queries} > edges {edges}");
        assert!(replies <= edges, "replies {replies} > edges {edges}");
    }

    #[test]
    fn second_initiation_supersedes_first() {
        let mut net = OrNet::new(3, None, 8);
        for i in 0..3 {
            net.block_on(n(i), [n((i + 1) % 3)]).unwrap();
        }
        net.initiate(n(0));
        net.run_to_quiescence(100_000);
        net.initiate(n(0));
        net.run_to_quiescence(100_000);
        // Both computations may declare (both genuinely deadlocked), but
        // soundness holds for each.
        assert!(net.verify_soundness().unwrap() >= 1);
        assert_eq!(net.node(n(0)).declarations().len(), 2);
    }
}
