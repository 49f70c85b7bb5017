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

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use simnet::metrics::Metrics;
use simnet::sim::{Context, NodeId, Process, RunOutcome, SimBuilder, Simulation, TimerId};
use simnet::time::SimTime;

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

/// One entry of the blocked/unblocked ground-truth journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrOp {
    /// The process became blocked on the given dependent set.
    Block(NodeId, BTreeSet<NodeId>),
    /// The process became active again.
    Unblock(NodeId),
}

/// Chronological record of blocking state, for validation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OrJournal {
    entries: Vec<(SimTime, OrOp)>,
}

impl OrJournal {
    /// Records an operation.
    pub fn record(&mut self, at: SimTime, op: OrOp) {
        debug_assert!(self.entries.last().is_none_or(|&(t, _)| t <= at));
        self.entries.push((at, op));
    }

    /// Blocking state as of time `at`: `Some(set)` when blocked on `set`.
    pub fn state_at(&self, at: SimTime) -> BTreeMap<NodeId, Option<BTreeSet<NodeId>>> {
        let mut state: BTreeMap<NodeId, Option<BTreeSet<NodeId>>> = BTreeMap::new();
        for (t, op) in &self.entries {
            if *t > at {
                break;
            }
            match op {
                OrOp::Block(v, set) => {
                    state.insert(*v, Some(set.clone()));
                }
                OrOp::Unblock(v) => {
                    state.insert(*v, None);
                }
            }
        }
        state
    }
}

/// Ground truth: `v` is OR-deadlocked in `state` iff every process in the
/// dependency closure of `v` (following dependent sets) is blocked.
///
/// Members of such a closure wait only on closure members, and no closure
/// member can ever send, so the condition is permanent.
pub fn is_or_deadlocked(state: &BTreeMap<NodeId, Option<BTreeSet<NodeId>>>, v: NodeId) -> bool {
    let mut seen = BTreeSet::new();
    let mut frontier = vec![v];
    while let Some(u) = frontier.pop() {
        if !seen.insert(u) {
            continue;
        }
        match state.get(&u) {
            Some(Some(deps)) => frontier.extend(deps.iter().copied()),
            // An active (or never-seen) process in the closure can send.
            _ => return false,
        }
    }
    true
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
    journal: Option<Rc<RefCell<OrJournal>>>,
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

    fn with_journal(mut self, journal: Rc<RefCell<OrJournal>>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// `true` while blocked.
    pub fn is_blocked(&self) -> bool {
        self.waiting_on.is_some()
    }

    /// The current dependent set, if blocked.
    pub fn waiting_on(&self) -> Option<&BTreeSet<NodeId>> {
        self.waiting_on.as_ref()
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
        if let Some(j) = &self.journal {
            j.borrow_mut()
                .record(ctx.now(), OrOp::Block(ctx.id(), deps.clone()));
        }
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
                    tag,
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
                    if let Some(j) = &self.journal {
                        j.borrow_mut().record(ctx.now(), OrOp::Unblock(ctx.id()));
                    }
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

/// Validation failure for an OR-model run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrValidationError {
    /// A declaration whose subject was not OR-deadlocked at declare time.
    FalseDeadlock {
        /// The offending declaration.
        report: DeadlockReport,
    },
    /// An OR-deadlocked process with automatic initiation never declared.
    MissedDeadlock {
        /// The overlooked process.
        victim: NodeId,
    },
}

impl fmt::Display for OrValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrValidationError::FalseDeadlock { report } => {
                write!(f, "false OR-deadlock: {report}")
            }
            OrValidationError::MissedDeadlock { victim } => {
                write!(f, "missed OR-deadlock at {victim}")
            }
        }
    }
}

impl std::error::Error for OrValidationError {}

/// Harness for OR-model simulations.
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
pub struct OrNet {
    sim: Simulation<OrMsg, OrProcess>,
    journal: Rc<RefCell<OrJournal>>,
}

impl fmt::Debug for OrNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrNet")
            .field("nodes", &self.sim.node_count())
            .finish_non_exhaustive()
    }
}

impl OrNet {
    /// Creates `n` processes; `init_delay` arms automatic delayed
    /// initiation on blocking.
    pub fn new(n: usize, init_delay: Option<u64>, seed: u64) -> Self {
        Self::with_builder(n, init_delay, SimBuilder::new().seed(seed))
    }

    /// Full builder control.
    pub fn with_builder(n: usize, init_delay: Option<u64>, builder: SimBuilder) -> Self {
        let mut sim = builder.build();
        let journal = Rc::new(RefCell::new(OrJournal::default()));
        for _ in 0..n {
            sim.add_node(OrProcess::new(init_delay).with_journal(Rc::clone(&journal)));
        }
        OrNet { sim, journal }
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
        self.sim.with_node(v, |p, ctx| p.block_on(ctx, deps))
    }

    /// Has active process `from` send data to `to`.
    ///
    /// # Errors
    ///
    /// Propagates [`OrRequestError::SenderBlocked`].
    pub fn send_data(&mut self, from: NodeId, to: NodeId) -> Result<(), OrRequestError> {
        self.sim.with_node(from, |p, ctx| p.send_data(ctx, to))
    }

    /// Manually initiates a diffusion at `v`.
    pub fn initiate(&mut self, v: NodeId) {
        self.sim.with_node(v, |p, ctx| p.initiate(ctx));
    }

    /// See [`Simulation::run_to_quiescence`].
    pub fn run_to_quiescence(&mut self, max_events: u64) -> RunOutcome {
        self.sim.run_to_quiescence(max_events)
    }

    /// See [`Simulation::run_until`].
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.sim.run_until(deadline)
    }

    /// Read access to one process.
    pub fn node(&self, v: NodeId) -> &OrProcess {
        self.sim.node(v)
    }

    /// Metrics so far.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// All declarations, time-ordered.
    pub fn declarations(&self) -> Vec<DeadlockReport> {
        let mut out: Vec<DeadlockReport> = (0..self.sim.node_count())
            .flat_map(|i| self.node(NodeId(i)).declarations().to_vec())
            .collect();
        out.sort_by_key(|d| (d.at, d.detector));
        out
    }

    /// Checks every declaration against the journalled ground truth: the
    /// declarer's dependency closure must be fully blocked at declare
    /// time. Returns the number checked.
    ///
    /// # Errors
    ///
    /// [`OrValidationError::FalseDeadlock`] on the first violation.
    pub fn verify_soundness(&self) -> Result<usize, OrValidationError> {
        let ds = self.declarations();
        let journal = self.journal.borrow();
        for d in &ds {
            let state = journal.state_at(d.at);
            if !is_or_deadlocked(&state, d.detector) {
                return Err(OrValidationError::FalseDeadlock { report: *d });
            }
        }
        Ok(ds.len())
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
    /// [`OrValidationError::MissedDeadlock`] for the first process whose
    /// whole closure is silent.
    pub fn verify_completeness(&self) -> Result<usize, OrValidationError> {
        let state = self.journal.borrow().state_at(SimTime::MAX);
        let mut total = 0;
        for i in 0..self.sim.node_count() {
            let v = NodeId(i);
            if !(is_or_deadlocked(&state, v) && state.get(&v).is_some_and(Option::is_some)) {
                continue;
            }
            total += 1;
            // Dependency closure of v.
            let mut closure = BTreeSet::new();
            let mut frontier = vec![v];
            while let Some(u) = frontier.pop() {
                if !closure.insert(u) {
                    continue;
                }
                if let Some(Some(deps)) = state.get(&u) {
                    frontier.extend(deps.iter().copied());
                }
            }
            let any_declared = closure
                .iter()
                .any(|&u| !self.node(u).declarations().is_empty());
            if !any_declared {
                return Err(OrValidationError::MissedDeadlock { victim: v });
            }
        }
        Ok(total)
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

    #[test]
    fn ground_truth_oracle_basics() {
        let mut state: BTreeMap<NodeId, Option<BTreeSet<NodeId>>> = BTreeMap::new();
        state.insert(n(0), Some([n(1)].into_iter().collect()));
        state.insert(n(1), Some([n(0)].into_iter().collect()));
        assert!(is_or_deadlocked(&state, n(0)));
        // Add an escape: 1 also waits on the (absent = active) 2.
        state.insert(n(1), Some([n(0), n(2)].into_iter().collect()));
        assert!(!is_or_deadlocked(&state, n(0)));
        // Blocked-on-2 only, 2 active.
        state.insert(n(2), None);
        assert!(!is_or_deadlocked(&state, n(1)));
    }

    #[test]
    fn journal_state_reconstruction() {
        let mut j = OrJournal::default();
        let deps: BTreeSet<NodeId> = [n(1)].into_iter().collect();
        j.record(SimTime::from_ticks(1), OrOp::Block(n(0), deps.clone()));
        j.record(SimTime::from_ticks(5), OrOp::Unblock(n(0)));
        assert_eq!(j.state_at(SimTime::from_ticks(2))[&n(0)], Some(deps));
        assert_eq!(j.state_at(SimTime::from_ticks(9))[&n(0)], None);
        assert!(j.state_at(SimTime::ZERO).is_empty());
    }
}
