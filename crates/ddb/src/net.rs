//! Assembled DDB networks with ground-truth validation.
//!
//! [`DdbNet`] wires one [`Controller`] per site into a simulation, offers a
//! driver API for submitting transactions, and reconstructs the global
//! **agent-level wait-for graph** of §6.4 from controller state so the
//! distributed detector can be checked against the [`wfg::oracle`].
//!
//! Every way the net moves — [`DdbNet::run_until`],
//! [`DdbNet::step_validated`] and [`DdbNet::with_controller`] — is one
//! **validated step**: the agent graph is read before anything that can
//! declare, and each fresh declaration is judged on that graph, whatever
//! the [`crate::config::Resolution`]. Every verdict is the basic model's,
//! read on the agent graph ([`cmh_core::ValidationError`] over
//! [`DdbDeadlock`] and [`AgentId`]):
//!
//! * **soundness** — a declared process was on a dark cycle at the
//!   instant of its declaration;
//! * **completeness** — every cycle must contain a declared process
//!   ([`oracle::undeclared_cycles`]);
//! * **liveness** — no transaction is wedged ([`oracle::liveness`]).

use std::cell::{RefCell, RefMut};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cmh_core::ValidationError;
use simnet::metrics::Metrics;
use simnet::sim::{Context, NodeId, PendingEvent, RunOutcome, SimBuilder, Simulation};
use simnet::time::SimTime;
use wfg::oracle::{Liveness, Oracle};
use wfg::{oracle, WaitForGraph};

use crate::config::DdbConfig;
use crate::controller::{timer_drives_script, Controller, TxnOutcome};
use crate::ids::{AgentId, SiteId, TransactionId};
use crate::msg::DdbMsg;
use crate::probe::DdbDeadlock;
use crate::snapshot::{agent_edges, graph_from_edges, txn_liveness};
use crate::txn::Transaction;

/// A distributed database of `n` sites.
///
/// # Examples
///
/// ```
/// use cmh_ddb::config::DdbConfig;
/// use cmh_ddb::ids::{ResourceId, SiteId, TransactionId};
/// use cmh_ddb::lock::LockMode;
/// use cmh_ddb::net::DdbNet;
/// use cmh_ddb::txn::Transaction;
/// use simnet::time::SimTime;
///
/// let mut db = DdbNet::new(2, DdbConfig::detect_only(100), 7);
/// db.submit(
///     Transaction::new(TransactionId(1), SiteId(0))
///         .lock(SiteId(0), ResourceId(1), LockMode::Exclusive)
///         .work(20)
///         .lock(SiteId(1), ResourceId(2), LockMode::Exclusive),
/// );
/// db.submit(
///     Transaction::new(TransactionId(2), SiteId(1))
///         .lock(SiteId(1), ResourceId(2), LockMode::Exclusive)
///         .work(20)
///         .lock(SiteId(0), ResourceId(1), LockMode::Exclusive),
/// );
/// db.run_until(SimTime::from_ticks(20_000));
/// assert!(!db.declarations().is_empty());
/// db.verify_soundness().unwrap();
/// db.verify_completeness().unwrap();
/// ```
pub struct DdbNet {
    sim: Simulation<DdbMsg, Controller>,
    n_sites: usize,
    /// The agent graph every check reads, behind [`DdbNet::graph`].
    graph: RefCell<AgentGraph>,
    /// Per-site count of declarations already validated (each fresh one
    /// is checked against the graph as it stood before its event).
    decl_seen: Vec<usize>,
    /// Declarations instant-validated so far.
    instant_checked: usize,
    /// Declarations excused as stale echoes (see
    /// [`DdbNet::verify_soundness`]).
    instant_stale: usize,
    /// First declaration that failed instant validation, if any.
    instant_violation: Option<DdbDeadlock>,
    /// Last time each transaction was observed on a dark cycle by a
    /// validated snapshot — the evidence that excuses a stale echo.
    recently_dark: BTreeMap<TransactionId, SimTime>,
}

/// The §6.4 agent graph, kept across events and brought up to date one
/// **dirty site** at a time. Every agent edge is derived from exactly one
/// controller's state — intra edges from its lock table, a transaction's
/// inter edges and holder back-edges from its home — and a handler
/// mutates only its own controller, so an event's destination names the
/// one edge list that can have changed (DESIGN §7). Built lazily: a fresh
/// net holds no allocation for it.
#[derive(Default)]
struct AgentGraph {
    g: WaitForGraph,
    /// Stable interning: an agent keeps its vertex once it has one, so
    /// the oracle's memo survives every refresh that changes nothing.
    index: BTreeMap<AgentId, NodeId>,
    /// `agents[v.0]` is the agent interned as vertex `v`.
    agents: Vec<AgentId>,
    /// Per site, the sorted edges last collected from its controller.
    edges: Vec<Vec<(AgentId, AgentId)>>,
    /// The buffer the next re-collection fills: the list a refresh
    /// replaces becomes the next one's buffer.
    spare: Vec<(AgentId, AgentId)>,
    /// The additions of the diff in progress, applied after its removals.
    added: Vec<(AgentId, AgentId)>,
    /// Per site: its controller may have changed since `edges` was
    /// collected. A site beyond the end is dirty (`clear()` = all are).
    dirty: Vec<bool>,
    oracle: Oracle,
}

impl AgentGraph {
    fn mark_dirty(&mut self, site: SiteId) {
        if let Some(d) = self.dirty.get_mut(site.0) {
            *d = true;
        }
    }

    fn vertex(&mut self, a: AgentId) -> NodeId {
        *self.index.entry(a).or_insert_with(|| {
            self.agents.push(a);
            NodeId(self.agents.len() - 1)
        })
    }

    /// Re-collects the edge list of every dirty site and applies the
    /// difference to the graph.
    fn refresh(&mut self, sim: &Simulation<DdbMsg, Controller>) {
        let n_sites = sim.node_count();
        self.edges.resize_with(n_sites, Vec::new);
        self.dirty.resize(n_sites, true);
        for s in 0..n_sites {
            if !std::mem::take(&mut self.dirty[s]) {
                continue;
            }
            let mut fresh = std::mem::take(&mut self.spare);
            fresh.clear();
            agent_edges(sim.node(NodeId(s)), &mut fresh);
            fresh.sort_unstable();
            let old = std::mem::replace(&mut self.edges[s], fresh);
            self.apply_diff(&old, s);
            self.spare = old;
        }
    }

    /// Brings the graph from site `s`'s `old` edges to its current ones in
    /// one merge walk of the two sorted lists: removals as the walk meets
    /// them, then the additions in ascending order (interning new agents
    /// in that order).
    fn apply_diff(&mut self, old: &[(AgentId, AgentId)], s: usize) {
        let mut added = std::mem::take(&mut self.added);
        let fresh = &self.edges[s];
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < fresh.len() {
            match (old.get(i), fresh.get(j)) {
                (Some(o), Some(f)) if o == f => (i, j) = (i + 1, j + 1),
                (Some(&(a, b)), f) if f.is_none_or(|f| (a, b) < *f) => {
                    self.g.remove_edge(self.index[&a], self.index[&b]);
                    i += 1;
                }
                (_, f) => {
                    added.push(*f.expect("one list has an edge left"));
                    j += 1;
                }
            }
        }
        for (a, b) in added.drain(..) {
            let (va, vb) = (self.vertex(a), self.vertex(b));
            self.g.create_grey(va, vb).expect("edge owned by one site");
            self.g.blacken(va, vb).expect("fresh grey edge");
        }
        self.added = added;
    }

    /// The agents on at least one dark cycle.
    fn dark_agents(&mut self) -> impl Iterator<Item = AgentId> + '_ {
        let members = self.oracle.dark_cycle_members(&self.g);
        members.iter().map(|v| self.agents[v.0])
    }

    fn is_dark(&mut self, a: AgentId) -> bool {
        let v = self.index.get(&a);
        v.is_some_and(|&v| self.oracle.is_on_dark_cycle(&self.g, v))
    }
}

/// How long (in ticks) after a transaction was last observed on a dark
/// cycle a declaration of it is still excused as a **stale echo**. An
/// abort dissolves a cycle, but its `RemoteRelease` messages take up to
/// one link latency to land and probes already in flight keep certifying
/// the dissolved cycle for up to a chain of such latencies — with the
/// default latency bound of 10 and six sites, around a hundred ticks.
/// Beyond the window, an off-cycle declaration is a genuine phantom.
const STALE_ECHO_GRACE: u64 = 128;

impl fmt::Debug for DdbNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DdbNet")
            .field("sites", &self.n_sites)
            .field("now", &self.sim.now())
            .finish_non_exhaustive()
    }
}

impl DdbNet {
    /// Creates a DDB with `n_sites` identically configured controllers.
    pub fn new(n_sites: usize, cfg: DdbConfig, seed: u64) -> Self {
        Self::with_builder(n_sites, cfg, SimBuilder::new().seed(seed))
    }

    /// Full control over the simulation builder (latency, tracing, seed).
    pub fn with_builder(n_sites: usize, cfg: DdbConfig, builder: SimBuilder) -> Self {
        let mut sim = builder.build();
        for s in 0..n_sites {
            sim.add_node(Controller::new(SiteId(s), cfg));
        }
        DdbNet {
            sim,
            n_sites,
            graph: RefCell::default(),
            decl_seen: vec![0; n_sites],
            instant_checked: 0,
            instant_stale: 0,
            instant_violation: None,
            recently_dark: BTreeMap::new(),
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.n_sites
    }

    /// Submits a transaction to its home controller and starts it.
    pub fn submit(&mut self, txn: Transaction) {
        let home = txn.home();
        self.graph.get_mut().mark_dirty(home);
        self.sim
            .with_node(home.node(), |c, ctx| c.start_txn(ctx, txn));
    }

    /// Driver access to one controller, as a validated step: `f` may
    /// declare (a forged probe can), so the graph is read before it and
    /// the site's fresh declarations are judged on that graph after it.
    pub fn with_controller<R>(
        &mut self,
        site: SiteId,
        f: impl FnOnce(&mut Controller, &mut Context<'_, DdbMsg>) -> R,
    ) -> R {
        let (r, _) = self.validated(true, |sim| sim.with_node(site.node(), f));
        self.graph.get_mut().mark_dirty(site);
        r
    }

    /// Arms a seeded protocol mutation on every controller
    /// (model-checker harness only; see
    /// [`crate::controller::DdbMutation`]).
    pub fn set_mutation(&mut self, m: crate::controller::DdbMutation) {
        for s in 0..self.n_sites {
            self.with_controller(SiteId(s), |c, _| c.set_mutation(m));
        }
    }

    /// The pending-event frontier, for the schedule-space explorer. See
    /// [`simnet::sim::Simulation::frontier_events`]; requires a
    /// simulation built with [`SimBuilder::explore`].
    pub fn frontier_events(&mut self) -> Vec<simnet::sim::FrontierEvent> {
        self.sim.frontier_events()
    }

    /// Executes the pending event with creation seq `seq` (explore mode
    /// only) as a validated step, like one of [`DdbNet::run_until`]'s.
    /// The graph is brought up to date before every step and every site
    /// counts as changed after it — conservative but exact, and cheap at
    /// the 3–5-site scale the explorer runs at.
    pub fn step_validated(&mut self, seq: u64) -> bool {
        let (ok, _) = self.validated(true, |sim| sim.step_seq(seq));
        self.graph.get_mut().dirty.clear(); // which site ran is not known here: all
        ok
    }

    /// Runs until `deadline` (periodic detectors keep the queue non-empty,
    /// so quiescence-based runs are not meaningful for the DDB).
    ///
    /// Steps event-by-event and validates every fresh declaration against
    /// the agent graph **as it stood immediately before the declaring
    /// event**: a declaration is judged when it is made, not on a later
    /// graph that an abort (or a cycle forming after it) has changed. The
    /// graph is brought up to date lazily: only before events that can
    /// declare, and only at the sites an event that can change it has run
    /// on since.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        let mut outcome = RunOutcome::default();
        loop {
            match self.sim.next_event_at() {
                Some(at) if at <= deadline => {}
                _ => {
                    // Queue empty or next event beyond the deadline: let
                    // the scheduler advance the clock the usual way.
                    let tail = self.sim.run_until(deadline);
                    outcome.quiescent = tail.quiescent;
                    return outcome;
                }
            }
            let (node, ev) = self.sim.peek_event().expect("an event is due");
            let (candidate, dirties) = classify_event(SiteId(node.0), &ev);
            let (_, declared) = self.validated(candidate, Simulation::step);
            outcome.events += 1;
            // A declaration's abort changes the graph too.
            if dirties || declared {
                self.graph.get_mut().mark_dirty(SiteId(node.0));
            }
        }
    }

    /// One validated step: reads the graph first if `step` may declare
    /// (`candidate`), runs it, then judges every fresh declaration on
    /// that read. Returns `step`'s result and whether it declared; the
    /// caller marks what `step` changed dirty afterwards.
    fn validated<R>(
        &mut self,
        candidate: bool,
        step: impl FnOnce(&mut Simulation<DdbMsg, Controller>) -> R,
    ) -> (R, bool) {
        if candidate {
            self.graph();
        }
        let r = step(&mut self.sim);
        let fresh = self.collect_new_declarations();
        debug_assert!(
            candidate || fresh.is_empty(),
            "an event classified as unable to declare declared {fresh:?}"
        );
        if !fresh.is_empty() {
            self.validate_declarations(&fresh);
        }
        (r, !fresh.is_empty())
    }

    /// Read access to a controller.
    pub fn controller(&self, site: SiteId) -> &Controller {
        self.sim.node(site.node())
    }

    /// True if the fault plan currently has `site` crashed (install one
    /// via [`DdbNet::with_builder`]).
    pub fn is_crashed(&self, site: SiteId) -> bool {
        self.sim.is_crashed(site.node())
    }

    /// The event trace (enable tracing via [`DdbNet::with_builder`]).
    pub fn trace(&self) -> &simnet::trace::Trace {
        self.sim.trace()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// High-water mark of the scheduler's event queue (see
    /// [`simnet::sim::Simulation::peak_queue_depth`]).
    pub fn peak_queue_depth(&self) -> usize {
        self.sim.peak_queue_depth()
    }

    /// Events (messages + timers) currently scheduled (see
    /// [`simnet::sim::Simulation::pending_events`]).
    pub fn pending_events(&self) -> usize {
        self.sim.pending_events()
    }

    /// All declarations across all controllers, ordered by time.
    pub fn declarations(&self) -> Vec<DdbDeadlock> {
        let mut ds: Vec<DdbDeadlock> = (0..self.n_sites)
            .flat_map(|s| self.controller(SiteId(s)).declarations().to_vec())
            .collect();
        ds.sort_by_key(|d| (d.at, d.site, d.txn));
        ds
    }

    /// Outcomes of all transactions (from their home controllers).
    pub fn outcomes(&self) -> Vec<TxnOutcome> {
        let mut out: Vec<TxnOutcome> = (0..self.n_sites)
            .flat_map(|s| self.controller(SiteId(s)).txn_outcomes())
            .collect();
        out.sort_by_key(|o| o.txn);
        out
    }

    /// Total probe computations initiated across controllers.
    pub fn computations_initiated(&self) -> u64 {
        (0..self.n_sites)
            .map(|s| self.controller(SiteId(s)).computations_initiated())
            .sum()
    }

    /// The agent-level wait-for graph of §6.4 as current controller state
    /// implies it, together with the agent ↔ vertex mapping of the agents
    /// that have an edge. A copy; the checks below read the original.
    ///
    /// Exact when no `RemoteRequest`/`Acquired` messages are in flight
    /// (then every existing edge is black).
    pub fn agent_graph(&self) -> (WaitForGraph, BTreeMap<AgentId, NodeId>) {
        let ag = self.graph();
        let live = ag.g.vertices();
        let index = ag.index.iter().filter(|(_, v)| live.contains(v));
        (ag.g.clone(), index.map(|(&a, &v)| (a, v)).collect())
    }

    /// The persistent agent graph, brought up to date with every site
    /// that may have changed since it was last read.
    fn graph(&self) -> RefMut<'_, AgentGraph> {
        let mut ag = self.graph.borrow_mut();
        ag.refresh(&self.sim);
        #[cfg(test)]
        self.assert_matches_scratch(&mut ag);
        ag
    }

    /// Declarations made since the last collection, in per-site
    /// controller order (same-time declarations from one event stay in
    /// the order the controller produced them — the global sorted list
    /// cannot guarantee that).
    fn collect_new_declarations(&mut self) -> Vec<DdbDeadlock> {
        let mut fresh = Vec::new();
        for s in 0..self.n_sites {
            let ds = self.controller(SiteId(s)).declarations();
            if ds.len() > self.decl_seen[s] {
                fresh.extend_from_slice(&ds[self.decl_seen[s]..]);
                self.decl_seen[s] = ds.len();
            }
        }
        fresh
    }

    /// Checks fresh declarations against the agent graph as last read.
    /// Every step that can declare is preceded by a read
    /// ([`DdbNet::validated`]) and its site is marked dirty only after
    /// this returns, so that is the pre-event graph.
    fn validate_declarations(&mut self, fresh: &[DdbDeadlock]) {
        let ag = self.graph.get_mut();
        // Remember who is deadlocked *right now*: an abort two ticks from
        // now can dissolve this cycle while probes certifying it are
        // still in flight, and the late declarations they complete must
        // be recognised as echoes of this observation.
        let now = self.sim.now();
        for a in ag.dark_agents() {
            self.recently_dark.insert(a.txn, now);
        }
        for d in fresh {
            self.instant_checked += 1;
            if ag.is_dark(AgentId::new(d.txn, d.site)) {
                continue;
            }
            let echo = self
                .recently_dark
                .get(&d.txn)
                .is_some_and(|&t| d.at.ticks().saturating_sub(t.ticks()) <= STALE_ECHO_GRACE);
            if echo {
                self.instant_stale += 1;
            } else if self.instant_violation.is_none() {
                self.instant_violation = Some(*d);
            }
        }
    }

    /// Declarations the stepping harness excused as stale echoes of a
    /// real, concurrently-resolved deadlock (see
    /// [`DdbNet::verify_soundness`]).
    pub fn stale_echoes(&self) -> usize {
        self.instant_stale
    }

    /// Transactions that are genuinely deadlocked in the current
    /// reconstructed graph (on some dark cycle), as `(txn, site)` agents.
    pub fn deadlocked_agents(&self) -> Vec<AgentId> {
        let mut agents: Vec<AgentId> = self.graph().dark_agents().collect();
        agents.sort_unstable();
        agents
    }

    /// Checks that every declaration points at a process that was on a
    /// dark cycle when it was declared: reports the verdicts the validated
    /// steps gathered **at the instant of each declaration** — with one
    /// latency-bounded allowance: a declaration whose subject was observed
    /// on a dark cycle within the last `STALE_ECHO_GRACE` ticks is a
    /// *stale echo* (the deadlock was real; a concurrent abort raced the
    /// probes certifying it), counted via [`DdbNet::stale_echoes`] rather
    /// than reported as a phantom. No distributed detector can avoid
    /// echoes without a global snapshot. Returns the number of
    /// declarations checked.
    ///
    /// # Errors
    ///
    /// [`ValidationError::FalseDeadlock`] on the first violation.
    pub fn verify_soundness(&self) -> Result<usize, ValidationError<DdbDeadlock, AgentId>> {
        match self.instant_violation {
            Some(report) => Err(ValidationError::FalseDeadlock { report }),
            None => Ok(self.instant_checked),
        }
    }

    /// Checks the §5 WFGD dissemination: every agent-level edge any
    /// controller reports as part of the deadlocked portion must exist in
    /// the reconstructed agent graph (with no resolution, deadlocked
    /// portions are permanent, so stale reports would be soundness bugs).
    /// Returns the number of informed processes checked.
    ///
    /// # Errors
    ///
    /// The first reported edge the graph does not have, after the process
    /// whose `S` set holds it.
    pub fn verify_wfgd_edges_exist(&self) -> Result<usize, (AgentId, (AgentId, AgentId))> {
        let ag = self.graph();
        let (g, index) = (&ag.g, &ag.index);
        let mut checked = 0;
        for s in 0..self.n_sites {
            let site = SiteId(s);
            let c = self.controller(site);
            for txn in c.wfgd_informed() {
                checked += 1;
                for (a, b) in &c.deadlocked_portion(txn) {
                    let ok = index
                        .get(&a)
                        .zip(index.get(&b))
                        .is_some_and(|(&va, &vb)| g.has_edge(va, vb));
                    if !ok {
                        return Err((AgentId::new(txn, site), (a, b)));
                    }
                }
            }
        }
        Ok(checked)
    }

    /// Checks that every dark cycle in the reconstructed agent graph
    /// contains at least one declared process. Call after giving the
    /// periodic detector time to run. Returns the number of deadlocked
    /// agents found.
    ///
    /// # Errors
    ///
    /// [`ValidationError::MissedDeadlock`] for the first undetected
    /// cycle.
    pub fn verify_completeness(&self) -> Result<usize, ValidationError<DdbDeadlock, AgentId>> {
        let ag = self.graph();
        let ds = self.declarations();
        let declared = |v: NodeId| {
            let a = ag.agents[v.0];
            ds.iter().any(|d| d.txn == a.txn && d.site == a.site)
        };
        let cycles = oracle::undeclared_cycles(&ag.g, declared);
        ValidationError::completeness(cycles, |v| ag.agents[v.0])
    }

    /// Checks the physical lock tables for transaction-level deadlock: a
    /// cycle of "queued behind a holder" edges, unioned across sites, is
    /// a real resource deadlock *right now* regardless of what the home
    /// controllers believe — the tables are the ground truth the §6.4
    /// bookkeeping mirrors. Every such cycle must contain a declared
    /// transaction. Unlike [`DdbNet::verify_completeness`], whose agent
    /// graph is reconstructed partly from home-side wait state, this
    /// check survives corrupted home bookkeeping (a mis-booked grant
    /// removes the cycle from the *reconstruction*, not from the
    /// tables). Only meaningful under
    /// [`crate::config::Resolution::None`], where cycles are permanent;
    /// give the detector time to run before calling.
    /// Returns the number of deadlocked transactions found.
    ///
    /// # Errors
    ///
    /// [`ValidationError::MissedDeadlock`] for the first undeclared
    /// cycle, naming each member at a site where it sits queued.
    pub fn verify_lock_cycles(&self) -> Result<usize, ValidationError<DdbDeadlock, AgentId>> {
        let mut seat: BTreeMap<TransactionId, SiteId> = BTreeMap::new();
        let mut edges: Vec<(TransactionId, TransactionId)> = Vec::new();
        for s in 0..self.n_sites {
            let site = SiteId(s);
            for (a, b) in self.controller(site).locks().wait_edges() {
                seat.entry(a).or_insert(site);
                seat.entry(b).or_insert(site);
                edges.push((a, b));
            }
        }
        let (g, _, txns) = graph_from_edges(edges);
        let declared: BTreeSet<TransactionId> = self.declarations().iter().map(|d| d.txn).collect();
        let cycles = oracle::undeclared_cycles(&g, |v| declared.contains(&txns[v.0]));
        ValidationError::completeness(cycles, |v| AgentId::new(txns[v.0], seat[&txns[v.0]]))
    }

    /// Classifies every non-terminal transaction, named by its home agent
    /// and in transaction order, with [`oracle::liveness`] on the agent
    /// graph (see `snapshot::txn_liveness`): able to move, genuinely
    /// waiting (its wait chain reaches a dark cycle, a transaction that
    /// can move, or a message still in flight), deadlocked (on a dark
    /// cycle itself), or wedged — blocked with nothing that can ever wake
    /// it. As in [`cmh_core::Net::verify_liveness`], crashed sites are
    /// skipped: their transactions are not classed, and a wait on one of
    /// their agents is the fault model's business.
    pub fn liveness_report(&self) -> Vec<(AgentId, Liveness)> {
        let mut ag = self.graph();
        let ag = &mut *ag;
        let dark = ag.oracle.dark_cycle_members(&ag.g);
        let scripts: Vec<_> = (0..self.n_sites)
            .map(SiteId)
            .flat_map(|s| {
                self.controller(s)
                    .script_snapshots()
                    .into_iter()
                    .map(move |sn| (s, sn))
            })
            .collect();
        txn_liveness(
            &ag.g,
            dark,
            &ag.agents,
            &ag.index,
            |s| !self.is_crashed(s),
            scripts.iter().map(|(s, sn)| (*s, sn)),
            self.sim.in_flight_messages(),
        )
    }

    /// Runs [`DdbNet::liveness_report`] and fails if any transaction is
    /// wedged.
    ///
    /// # Errors
    ///
    /// [`ValidationError::Wedged`] listing the wedged transactions' home
    /// agents.
    pub fn verify_liveness(
        &self,
    ) -> Result<Vec<(AgentId, Liveness)>, ValidationError<DdbDeadlock, AgentId>> {
        ValidationError::liveness(self.liveness_report(), self.now())
    }
}

/// `(may_declare, changes_graph)` for the next scheduled event, due at
/// `site`'s controller. The stepping harness snapshots the agent graph
/// before events that may declare, and invalidates the snapshot after
/// events that may change the graph. Conservative in both directions:
/// probes and WFGD gossip never touch lock state, detector timers only
/// declare (the abort they can trigger is caught separately via the
/// declaration count), while anything that delivers protocol payloads or
/// drives scripts dirties. A probe can complete a computation (A1) only
/// at the controller that initiated it; elsewhere it only labels and
/// forwards. [`DdbNet::validated`] checks, in debug builds, that an event
/// classified as unable to declare did not.
fn classify_event(site: SiteId, ev: &PendingEvent<'_, DdbMsg>) -> (bool, bool) {
    match ev {
        PendingEvent::Deliver(DdbMsg::Probe { tag, .. }) => (tag.initiator == site, false),
        PendingEvent::Deliver(DdbMsg::Wfgd { .. }) => (false, false),
        PendingEvent::Deliver(_) => (false, true),
        PendingEvent::Timer { tag } if timer_drives_script(*tag) => (false, true),
        PendingEvent::Timer { .. } => (true, false),
        // Reliable-layer arrival: could deliver anything, including probes.
        PendingEvent::Wire => (true, true),
        // Starts and crash/restart markers reset node state.
        PendingEvent::Other => (false, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DdbInitiation;
    use crate::ids::ResourceId;
    use crate::ids::TransactionId;
    use crate::lock::LockMode::Exclusive as X;
    use crate::txn::TxnStatus;

    thread_local! {
        /// Reads of the persistent graph checked against the from-scratch
        /// reference on this thread (see [`DdbNet::assert_matches_scratch`]).
        static SCRATCH_CHECKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    impl DdbNet {
        /// Test builds check every read of the persistent graph against the
        /// agent graph rebuilt from nothing: same edges and same dark-cycle
        /// members, both named by agent.
        pub(super) fn assert_matches_scratch(&self, ag: &mut AgentGraph) {
            let mut edges = Vec::new();
            for s in 0..self.n_sites {
                agent_edges(self.controller(SiteId(s)), &mut edges);
            }
            let (g, _, agents) = graph_from_edges(edges.iter().copied());
            let named = |g: &WaitForGraph, name: &dyn Fn(NodeId) -> AgentId| {
                g.edges()
                    .map(|e| (name(e.from), name(e.to)))
                    .collect::<BTreeSet<_>>()
            };
            let want = named(&g, &|v| agents[v.0]);
            assert_eq!(named(&ag.g, &|v| ag.agents[v.0]), want, "agent edges");
            assert_eq!(want.len(), edges.len(), "an edge derived from two sites");
            let want: BTreeSet<AgentId> = oracle::dark_cycle_members(&g)
                .iter()
                .map(|v| agents[v.0])
                .collect();
            assert_eq!(
                ag.dark_agents().collect::<BTreeSet<_>>(),
                want,
                "dark agents"
            );
            SCRATCH_CHECKS.with(|n| n.set(n.get() + 1));
        }
    }

    fn t(i: u32) -> TransactionId {
        TransactionId(i)
    }
    fn s(i: usize) -> SiteId {
        SiteId(i)
    }
    fn r(i: u64) -> ResourceId {
        ResourceId(i)
    }

    /// Ring of `k` transactions over `k` sites: T_i locks r_i@S_i then
    /// r_{i+1}@S_{i+1}.
    fn ring(db: &mut DdbNet, k: u32) {
        for i in 0..k {
            let txn = Transaction::new(t(i + 1), s(i as usize))
                .lock(s(i as usize), r(i as u64), X)
                .work(20)
                .lock(s(((i + 1) % k) as usize), r(((i + 1) % k) as u64), X);
            db.submit(txn);
        }
    }

    #[test]
    fn a_probe_may_declare_only_at_its_initiator() {
        let tag = crate::ids::DdbProbeTag {
            initiator: s(1),
            n: 4,
        };
        let edge = (AgentId::new(t(2), s(0)), AgentId::new(t(2), s(1)));
        let probe = DdbMsg::Probe { tag, edge };
        let ev = PendingEvent::Deliver(&probe);
        assert_eq!(classify_event(s(1), &ev), (true, false), "own computation");
        assert_eq!(classify_event(s(0), &ev), (false, false), "foreign");
        assert_eq!(classify_event(s(2), &ev), (false, false), "foreign");
        // A reliable-layer arrival may carry anything, a probe included.
        assert_eq!(classify_event(s(0), &PendingEvent::Wire), (true, true));
    }

    #[test]
    fn ring_is_detected_sound_and_complete() {
        for k in [2u32, 3, 5] {
            let mut db = DdbNet::new(k as usize, DdbConfig::detect_only(100), k as u64);
            ring(&mut db, k);
            db.run_until(SimTime::from_ticks(60_000));
            assert!(!db.declarations().is_empty(), "k={k}");
            // Every declaration was judged at its instant.
            assert_eq!(db.verify_soundness(), Ok(db.declarations().len()), "k={k}");
            db.verify_completeness().unwrap();
            assert_eq!(db.deadlocked_agents().len(), 2 * k as usize, "k={k}");
        }
    }

    /// A declaration is judged when it is made, in detect-only runs too:
    /// a probe forged at t = 400 completes S1's own computation for T1
    /// about 4 700 ticks before the real cycle forms (T2 works until
    /// then). On the final graph T1 is deadlocked, so only the instant
    /// verdict sees the phantom.
    #[test]
    fn a_forged_declaration_is_judged_at_its_instant_without_resolution() {
        let mut db = DdbNet::new(2, DdbConfig::detect_only(100), 3);
        db.submit(
            Transaction::new(t(1), s(0))
                .lock(s(0), r(0), X)
                .work(10)
                .lock(s(1), r(1), X),
        );
        db.submit(
            Transaction::new(t(2), s(1))
                .lock(s(1), r(1), X)
                .work(5_000)
                .lock(s(0), r(0), X),
        );
        db.run_until(SimTime::from_ticks(400));
        let tag = crate::ids::DdbProbeTag {
            initiator: s(1),
            n: db.computations_initiated(),
        };
        let edge = (AgentId::new(t(1), s(0)), AgentId::new(t(1), s(1)));
        db.with_controller(s(1), |c, ctx| {
            use simnet::sim::Process;
            c.on_message(ctx, NodeId(0), DdbMsg::Probe { tag, edge });
        });
        db.run_until(SimTime::from_ticks(20_000));
        let forged = db.declarations()[0];
        assert_eq!((forged.txn, forged.at), (t(1), SimTime::from_ticks(400)));
        assert_eq!(
            db.verify_soundness(),
            Err(ValidationError::FalseDeadlock { report: forged })
        );
    }

    #[test]
    fn agent_graph_shape_for_two_ring() {
        let mut db = DdbNet::new(2, DdbConfig::detect_only(100_000), 1);
        ring(&mut db, 2);
        db.run_until(SimTime::from_ticks(5_000));
        let (g, index) = db.agent_graph();
        // Cycle: (T1,S0)->(T1,S1)->(T2,S1)->(T2,S0)->(T1,S0):
        // 2 inter + 2 intra edges, 4 agents.
        assert_eq!(index.len(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(oracle::dark_cycle_members(&g).len(), 4);
    }

    #[test]
    fn no_false_positives_under_heavy_no_deadlock_contention() {
        // All transactions lock resources in ascending site order: ordered
        // acquisition cannot deadlock.
        let mut db = DdbNet::new(3, DdbConfig::detect_only(40), 2);
        for i in 0..9u32 {
            let txn = Transaction::new(t(i + 1), s((i % 3) as usize))
                .lock(s(0), r(0), X)
                .work(10)
                .lock(s(1), r(1), X)
                .work(10);
            db.submit(txn);
        }
        db.run_until(SimTime::from_ticks(200_000));
        assert!(db.declarations().is_empty(), "phantom deadlock declared");
        for o in db.outcomes() {
            assert_eq!(o.status, TxnStatus::Committed, "{} stuck", o.txn);
        }
    }

    #[test]
    fn naive_initiation_also_detects() {
        let cfg = DdbConfig {
            initiation: DdbInitiation::PeriodicNaive { period: 100 },
            ..DdbConfig::default()
        };
        let mut db = DdbNet::new(3, cfg, 3);
        ring(&mut db, 3);
        db.run_until(SimTime::from_ticks(60_000));
        db.verify_soundness().unwrap();
        db.verify_completeness().unwrap();
    }

    #[test]
    fn qopt_initiates_fewer_computations_than_naive() {
        let mk = |initiation| DdbConfig {
            initiation,
            ..DdbConfig::default()
        };
        let mut q = DdbNet::new(4, mk(DdbInitiation::PeriodicQOpt { period: 100 }), 4);
        let mut n = DdbNet::new(4, mk(DdbInitiation::PeriodicNaive { period: 100 }), 4);
        ring(&mut q, 4);
        ring(&mut n, 4);
        q.run_until(SimTime::from_ticks(30_000));
        n.run_until(SimTime::from_ticks(30_000));
        assert!(
            q.computations_initiated() < n.computations_initiated(),
            "Q-opt {} should be < naive {}",
            q.computations_initiated(),
            n.computations_initiated()
        );
    }

    #[test]
    fn wfgd_disseminates_the_full_cycle_to_both_controllers() {
        let mut db = DdbNet::new(2, DdbConfig::detect_only(100), 21);
        ring(&mut db, 2);
        db.run_until(SimTime::from_ticks(60_000));
        assert!(!db.declarations().is_empty());
        // The agent cycle: (T1,S0)->(T1,S1)->(T2,S1)->(T2,S0)->(T1,S0).
        use crate::ids::AgentId;
        let full: crate::wfgd::AgentEdgeSet = [
            (AgentId::new(t(1), s(0)), AgentId::new(t(1), s(1))),
            (AgentId::new(t(1), s(1)), AgentId::new(t(2), s(1))),
            (AgentId::new(t(2), s(1)), AgentId::new(t(2), s(0))),
            (AgentId::new(t(2), s(0)), AgentId::new(t(1), s(0))),
        ]
        .into_iter()
        .collect();
        // Both controllers' local processes end up knowing the whole cycle.
        let mut informed = 0;
        for site in [s(0), s(1)] {
            for txn in db.controller(site).wfgd_informed() {
                assert_eq!(
                    db.controller(site).deadlocked_portion(txn),
                    full,
                    "S at {site} for {txn} incomplete"
                );
                informed += 1;
            }
        }
        assert!(informed >= 2, "dissemination reached too few processes");
        assert!(db.verify_wfgd_edges_exist().unwrap() >= 2);
    }

    #[test]
    fn resolution_lets_workload_finish() {
        let mut db = DdbNet::new(3, DdbConfig::detect_and_resolve(80, 60), 5);
        ring(&mut db, 3);
        db.run_until(SimTime::from_ticks(300_000));
        for o in db.outcomes() {
            assert_eq!(o.status, TxnStatus::Committed, "{} did not commit", o.txn);
        }
        // At least one abort/restart happened along the way.
        assert!(db.metrics().get(crate::controller::counters::ABORTED) >= 1);
        let (g, _) = db.agent_graph();
        assert!(g.is_empty(), "no residual waits after all commits");
    }

    #[test]
    fn ring_detected_over_faulty_network_with_reliable_transport() {
        use simnet::faults::FaultPlan;
        use simnet::reliable::ReliableConfig;
        for seed in [3u64, 7, 11] {
            let plan = FaultPlan::new()
                .loss(0.10)
                .duplicate(0.05)
                .reorder(0.10, 30);
            let builder = SimBuilder::new()
                .seed(seed)
                .faults(plan)
                .reliable(ReliableConfig::default());
            let mut db = DdbNet::with_builder(3, DdbConfig::detect_only(100), builder);
            ring(&mut db, 3);
            db.run_until(SimTime::from_ticks(120_000));
            assert!(!db.declarations().is_empty(), "seed {seed}");
            db.verify_soundness().unwrap();
            db.verify_completeness().unwrap();
        }
    }

    #[test]
    fn site_crash_and_restart_recovers_ddb_detection() {
        use simnet::faults::FaultPlan;
        use simnet::reliable::ReliableConfig;
        // Site 1 crashes mid-workload, losing its volatile computation
        // state, and restarts; the reliable transport redelivers what was
        // in flight and the restarted controller re-arms its detector.
        let plan = FaultPlan::new().crash(
            NodeId(1),
            SimTime::from_ticks(60),
            Some(SimTime::from_ticks(700)),
        );
        let builder = SimBuilder::new()
            .seed(13)
            .faults(plan)
            .reliable(ReliableConfig::default());
        let mut db = DdbNet::with_builder(3, DdbConfig::detect_only(100), builder);
        ring(&mut db, 3);
        db.run_until(SimTime::from_ticks(120_000));
        assert!(!db.is_crashed(SiteId(1)));
        assert!(!db.declarations().is_empty());
        db.verify_soundness().unwrap();
        db.verify_completeness().unwrap();
    }

    /// The basic model's crash rule: while S1 is down, T1's wait on its
    /// agent there is no wedge, and T2, homed at S1, is not classed.
    #[test]
    fn liveness_skips_a_crashed_site() {
        use simnet::faults::FaultPlan;
        let plan = FaultPlan::new().crash(NodeId(1), SimTime::from_ticks(3), None);
        let builder = SimBuilder::new().seed(7).faults(plan);
        let mut db = DdbNet::with_builder(2, DdbConfig::detect_only(12), builder);
        db.submit(Transaction::new(t(2), s(1)).lock(s(1), r(0), X).work(100));
        db.run_until(SimTime::from_ticks(5));
        db.submit(Transaction::new(t(1), s(0)).lock(s(1), r(3), X));
        db.run_until(SimTime::from_ticks(40));
        assert!(db.is_crashed(s(1)));
        let classes = db.verify_liveness().expect("a crash is not a wedge");
        assert_eq!(
            classes,
            [(AgentId::new(t(1), s(0)), Liveness::GenuinelyWaiting)]
        );
    }

    /// One contended run under resolution: `txns` transactions over three
    /// sites with three resources each, two or three exclusive locks per
    /// transaction (one `lock_all` when `batched`), work in between,
    /// arrivals a few ticks apart. Returns the net after a long drain.
    fn contended_run(seed: u64, txns: u32, batched: bool, builder: SimBuilder) -> DdbNet {
        use crate::txn::LockReq;
        let mut rng = simnet::rng::DetRng::seed_from_u64(seed);
        let mut db = DdbNet::with_builder(3, DdbConfig::detect_and_resolve(300, 120), builder);
        let mut at = 0;
        for i in 0..txns {
            let mut reqs: Vec<LockReq> = Vec::new();
            while reqs.len() < 2 + rng.next_below(2) as usize {
                let (site, resource) = (s(rng.next_below(3) as usize), r(rng.next_below(3)));
                if !reqs
                    .iter()
                    .any(|q| (q.site, q.resource) == (site, resource))
                {
                    reqs.push(LockReq {
                        site,
                        resource,
                        mode: X,
                    });
                }
            }
            let mut txn = Transaction::new(t(i + 1), s(rng.next_below(3) as usize));
            if batched {
                txn = txn.lock_all(reqs).work(40);
            } else {
                for q in reqs {
                    txn = txn.lock(q.site, q.resource, q.mode).work(40);
                }
            }
            at += rng.next_below(30);
            db.run_until(SimTime::from_ticks(at));
            db.submit(txn);
        }
        db.run_until(SimTime::from_ticks(at + 60_000));
        db
    }

    /// Declarations instant-validated and excused as echoes, and events
    /// run, summed over 22 contended runs: 20 plain seeds, one batched,
    /// one with a site crashing and restarting mid-run.
    fn contended_totals() -> [u64; 3] {
        use simnet::faults::FaultPlan;
        use simnet::reliable::ReliableConfig;
        let plain = |seed| SimBuilder::new().seed(seed);
        let crash = FaultPlan::new().crash(
            NodeId(1),
            SimTime::from_ticks(150),
            Some(SimTime::from_ticks(900)),
        );
        let mut runs: Vec<DdbNet> = (0..20)
            .map(|seed| contended_run(seed, 16, false, plain(seed)))
            .collect();
        runs.push(contended_run(20, 12, true, plain(20)));
        let faulty = plain(21).faults(crash).reliable(ReliableConfig::default());
        runs.push(contended_run(21, 16, false, faulty));
        let mut totals = [0; 3];
        for db in &runs {
            let checked = db.verify_soundness().expect("no phantom declaration");
            totals[0] += checked as u64;
            totals[1] += db.stale_echoes() as u64;
            totals[2] += db.metrics().get(simnet::metrics::builtin::EVENTS);
        }
        totals
    }

    #[test]
    fn persistent_graph_equals_the_scratch_build_at_every_validated_instant() {
        let before = SCRATCH_CHECKS.with(std::cell::Cell::get);
        let [checked, stale, events] = contended_totals();
        // Recorded at the commit before the graph became persistent, when
        // every instant was validated against a from-scratch rebuild.
        assert_eq!([checked, stale, events], [331, 9, 21_303]);
        // Every read of the graph — one before each event that can declare
        // — went through `assert_matches_scratch`.
        let reads = SCRATCH_CHECKS.with(std::cell::Cell::get) - before;
        assert!(
            reads as u64 > checked,
            "{reads} reads for {checked} declarations"
        );
    }

    #[test]
    fn driver_mutations_dirty_the_site_they_touch() {
        let mut db = DdbNet::new(2, DdbConfig::detect_and_resolve(100_000, 60), 9);
        db.submit(
            Transaction::new(t(1), s(0))
                .lock(s(0), r(0), X)
                .work(10_000),
        );
        db.run_until(SimTime::from_ticks(50));
        assert_eq!(db.agent_graph().0.edge_count(), 0);
        // `submit`: T2 queues behind T1 at S0 with no event in between.
        db.submit(Transaction::new(t(2), s(0)).lock(s(0), r(0), X));
        assert_eq!(db.agent_graph().0.edge_count(), 1);
        // `with_controller`: T3, homed at S1, asks S0 for the same lock.
        // Only S1 changed so far; the request is still in flight.
        db.with_controller(s(1), |c, ctx| {
            c.start_txn(ctx, Transaction::new(t(3), s(1)).lock(s(0), r(0), X));
        });
        let (g, index) = db.agent_graph();
        assert_eq!(g.edge_count(), 2);
        assert!(index.contains_key(&AgentId::new(t(3), s(1))));
        // Its delivery is an event at S0, found by the stepping loop.
        db.run_until(SimTime::from_ticks(100));
        assert_eq!(db.agent_graph().0.edge_count(), 4);
    }

    #[test]
    fn stale_wfgd_edge_is_reported_with_its_holder_and_edge() {
        use simnet::sim::Process;
        let mut db = DdbNet::new(2, DdbConfig::detect_only(100_000), 3);
        let edge = (AgentId::new(t(7), s(0)), AgentId::new(t(7), s(1)));
        db.with_controller(s(0), |c, ctx| {
            let msg = DdbMsg::Wfgd {
                txn: t(7),
                edges: [edge].into_iter().collect(),
            };
            c.on_message(ctx, NodeId(1), msg);
        });
        let err = db.verify_wfgd_edges_exist().unwrap_err();
        assert_eq!(err, (AgentId::new(t(7), s(0)), edge));
    }

    #[test]
    fn false_deadlock_error_reports_site_txn_time_and_tag() {
        let decl = DdbDeadlock {
            site: SiteId(3),
            txn: TransactionId(17),
            tag: Some(crate::ids::DdbProbeTag {
                initiator: SiteId(3),
                n: 9,
            }),
            at: SimTime::from_ticks(668),
        };
        let err = ValidationError::<_, AgentId>::FalseDeadlock { report: decl };
        let msg = err.to_string();
        for needle in ["C3", "(T17,S3)", "t=668", "(S3, 9)", "at the instant"] {
            assert!(msg.contains(needle), "{needle:?} missing from {msg:?}");
        }
        // A local-cycle declaration has no computation tag.
        let report = DdbDeadlock { tag: None, ..decl };
        let err = ValidationError::<_, AgentId>::FalseDeadlock { report };
        let msg = err.to_string();
        for needle in ["C3", "(T17,S3)", "t=668", "local cycle", "at the instant"] {
            assert!(msg.contains(needle), "{needle:?} missing from {msg:?}");
        }
    }

    #[test]
    fn wedged_error_lists_each_transaction_by_its_home_agent() {
        let err = ValidationError::<DdbDeadlock, _>::Wedged {
            wedged: vec![AgentId::new(t(4), s(1)), AgentId::new(t(9), s(0))],
            at: SimTime::from_ticks(512),
        };
        let msg = err.to_string();
        for needle in [
            "t=512",
            "TransactionId(4), site: SiteId(1)",
            "TransactionId(9)",
            "wedged",
        ] {
            assert!(msg.contains(needle), "{needle:?} missing from {msg:?}");
        }
    }
}
