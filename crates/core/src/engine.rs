//! The journalled harness of every detector, with built-in validation.
//!
//! [`Net`] runs `n` vertices in a `simnet` simulation, journals every
//! wait-for-graph mutation, and answers every "was `v` deadlocked at `t`?"
//! from one checkpointed cursor and one memoized [`wfg::oracle`]. The
//! probe computation runs in it as [`BasicNet`], the `baselines` crate's
//! three detectors and the OR model's [`crate::ormodel::OrNet`] too. Each
//! vertex type names its claims ([`Vertex::claims`]) and the ground truth
//! a claim asserts ([`Vertex::deadlocked`]); the harness checks them once
//! for every model:
//!
//! * **QRP2 / soundness** ([`Net::verify_soundness`]): every declaration
//!   happened while its subject was deadlocked — for the probe
//!   computation, on a black cycle; [`Net::classify`] splits a baseline's
//!   claims into genuine and phantom by the same test;
//! * **QRP1 / completeness** ([`BasicNet::verify_completeness`]): once the
//!   run quiesces, if a dark cycle exists then some member declared
//!   ([`oracle::undeclared_cycles`]);
//! * **liveness** ([`Net::verify_liveness`]): no vertex is wedged
//!   ([`oracle::liveness`]).
//!
//! [`ValidationError`] reports all three, for the §6 database too.

use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use simnet::metrics::Metrics;
use simnet::sim::{Context, NodeId, Process, RunOutcome, SimBuilder, Simulation};
use simnet::time::SimTime;
use simnet::trace::Trace;
use wfg::journal::{Journal, ReplayCursor};
use wfg::oracle::{Liveness, Oracle};
use wfg::{oracle, WaitForGraph};

use crate::config::BasicConfig;
use crate::probe::DeadlockReport;
use crate::process::{BasicMsg, BasicProcess, RequestError};

/// A validation failure found by the checkers, for every model: `C` is
/// the model's claim type and `K` names its vertices (the §6 database
/// uses `cmh_ddb::DdbDeadlock` and agents).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError<C = DeadlockReport, K = NodeId> {
    /// QRP2 violated: a claim's subject was not deadlocked at the instant
    /// it was declared (see [`Vertex::deadlocked`]).
    FalseDeadlock {
        /// The offending declaration.
        report: C,
    },
    /// QRP1 violated: a dark cycle exists at quiescence but no member of it
    /// has declared (in the OR model: an OR-deadlocked vertex's closure).
    MissedDeadlock {
        /// Members of the undetected dark cycle(s) or closure.
        cycle_members: Vec<K>,
    },
    /// The journal is not a legal G1–G4 history (a bug in the simulation,
    /// not in the algorithm).
    IllegalHistory {
        /// Human-readable description of the axiom violation.
        detail: String,
    },
    /// Liveness violated: blocked vertices whose wait chains can never be
    /// satisfied ([`Liveness::Wedged`]).
    Wedged {
        /// The wedged vertices (in the §6 database, each transaction's
        /// home agent).
        wedged: Vec<K>,
        /// When the classification was taken.
        at: SimTime,
    },
}

impl<C, K: Copy> ValidationError<C, K> {
    /// QRP1's verdict on an [`oracle::undeclared_cycles`] answer: the
    /// number of vertices on dark cycles, or the first undeclared cycle
    /// with each member named by `name`.
    ///
    /// # Errors
    ///
    /// [`ValidationError::MissedDeadlock`].
    pub fn completeness(
        (on_cycles, missed): (usize, Vec<Vec<NodeId>>),
        name: impl Fn(NodeId) -> K,
    ) -> Result<usize, Self> {
        match missed.into_iter().next() {
            Some(cycle) => Err(ValidationError::MissedDeadlock {
                cycle_members: cycle.into_iter().map(name).collect(),
            }),
            None => Ok(on_cycles),
        }
    }

    /// The liveness verdict on `classes` (see [`oracle::liveness`]) taken
    /// at `at`: the classes, or every wedged vertex.
    ///
    /// # Errors
    ///
    /// [`ValidationError::Wedged`].
    pub fn liveness(classes: Vec<(K, Liveness)>, at: SimTime) -> Result<Vec<(K, Liveness)>, Self> {
        let wedged: Vec<K> = classes
            .iter()
            .filter(|(_, c)| *c == Liveness::Wedged)
            .map(|&(v, _)| v)
            .collect();
        if wedged.is_empty() {
            Ok(classes)
        } else {
            Err(ValidationError::Wedged { wedged, at })
        }
    }
}

impl<C: fmt::Display, K: fmt::Debug> fmt::Display for ValidationError<C, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::FalseDeadlock { report } => write!(
                f,
                "false deadlock: {report} but its subject was not deadlocked \
                 at the instant of declaration"
            ),
            ValidationError::MissedDeadlock { cycle_members } => write!(
                f,
                "missed deadlock: {cycle_members:?} deadlocked but no member declared"
            ),
            ValidationError::IllegalHistory { detail } => {
                write!(f, "journal is not a legal G1-G4 history: {detail}")
            }
            ValidationError::Wedged { wedged, at } => {
                write!(f, "liveness violation at t={}: wedged vertices", at.ticks())?;
                for v in wedged {
                    write!(f, " {v:?}")?;
                }
                Ok(())
            }
        }
    }
}

impl<C: fmt::Display + fmt::Debug, K: fmt::Debug> std::error::Error for ValidationError<C, K> {}

/// Split of a run's claims into genuine and phantom (see
/// [`Net::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Classified {
    /// Claims whose subject was deadlocked when declared.
    pub genuine: usize,
    /// Claims whose subject was **not** deadlocked when declared.
    pub phantom: usize,
}

impl Classified {
    /// Fraction of claims that were phantom (0 if there were none).
    pub fn phantom_rate(&self) -> f64 {
        let total = self.genuine + self.phantom;
        if total == 0 {
            0.0
        } else {
            self.phantom as f64 / total as f64
        }
    }
}

/// A vertex a [`Net`] can drive: a process whose underlying computation
/// issues requests (§2 G1) and that makes deadlock claims.
pub trait Vertex: Process<Self::Msg> + Send + 'static {
    /// The messages the vertex exchanges.
    type Msg: fmt::Debug + Clone + Send + 'static;

    /// Why a request is refused.
    type Error;

    /// Has this vertex request `to`; [`Self::Error`] if it may not (the
    /// basic model's [`RequestError`]: a duplicate edge or a self-request).
    fn request(&mut self, ctx: &mut Context<'_, Self::Msg>, to: NodeId) -> Result<(), Self::Error>;

    /// Appends the claims this vertex (`me`) has made so far to `out`.
    fn claims(&self, me: NodeId, out: &mut Vec<DeadlockReport>);

    /// The ground truth a claim about `v` asserts, read on the wait-for
    /// graph `g` as of the claim.
    fn deadlocked(g: &WaitForGraph, o: &mut Oracle, v: NodeId) -> bool;
}

impl Vertex for BasicProcess {
    type Msg = BasicMsg;
    type Error = RequestError;

    fn request(&mut self, ctx: &mut Context<'_, BasicMsg>, to: NodeId) -> Result<(), RequestError> {
        BasicProcess::request(self, ctx, to)
    }

    fn claims(&self, _me: NodeId, out: &mut Vec<DeadlockReport>) {
        out.extend_from_slice(self.declarations());
    }

    /// QRP2: the declarer is on a **black** cycle.
    fn deadlocked(g: &WaitForGraph, o: &mut Oracle, v: NodeId) -> bool {
        o.is_on_black_cycle(g, v)
    }
}

/// A journalled network: vertices of type `P` over a seeded,
/// latency-modelled simulation, every wait-for-graph mutation journalled,
/// and one as-of-time ground truth over the journal.
pub struct Net<P: Vertex> {
    sim: Simulation<P::Msg, P>,
    journal: Arc<Mutex<Journal>>,
    /// Checkpointed seek state over `journal`, shared by every as-of-time
    /// query so repeated validation passes replay O(K) deltas, not the
    /// whole journal. Interior mutability keeps `graph_at(&self)` stable.
    cursor: RefCell<ReplayCursor>,
    /// Memoized ground-truth oracle (scratch buffers + dark-set memo).
    oracle: RefCell<Oracle>,
}

/// The basic model's network: `n` [`BasicProcess`] vertices (the crate
/// docs' quick start runs one).
pub type BasicNet = Net<BasicProcess>;

impl<P: Vertex> fmt::Debug for Net<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Net").field(&self.sim).finish()
    }
}

impl<P: Vertex> Net<P> {
    /// Builds `n` vertices over `builder`'s simulation (threaded when it
    /// asks for shards): vertex `i` is `vertex(i, journal)`, added in index
    /// order, journalling into the one shared journal.
    pub fn build(
        builder: SimBuilder,
        n: usize,
        mut vertex: impl FnMut(usize, &Arc<Mutex<Journal>>) -> P,
    ) -> Self {
        let mut sim = builder.build_mt();
        let journal = Arc::new(Mutex::new(Journal::new()));
        for i in 0..n {
            sim.add_node(vertex(i, &journal));
        }
        Net {
            sim,
            journal,
            cursor: RefCell::new(ReplayCursor::new()),
            oracle: RefCell::new(Oracle::new()),
        }
    }

    /// Has vertex `from` send a request to `to` (drives the underlying
    /// computation).
    ///
    /// # Errors
    ///
    /// Propagates the vertex's [`Vertex::Error`].
    pub fn request(&mut self, from: NodeId, to: NodeId) -> Result<(), P::Error> {
        self.sim.with_node(from, |p, ctx| p.request(ctx, to))
    }

    /// Issues requests for every edge in a topology edge list.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Vertex::Error`].
    pub fn request_edges(&mut self, edges: &[(usize, usize)]) -> Result<(), P::Error> {
        for &(a, b) in edges {
            self.request(NodeId(a), NodeId(b))?;
        }
        Ok(())
    }

    /// See [`Simulation::frontier_events`] (explore mode only).
    pub fn frontier_events(&mut self) -> Vec<simnet::sim::FrontierEvent> {
        self.sim.frontier_events()
    }

    /// See [`Simulation::step_seq`] (explore mode only).
    pub fn step_seq(&mut self, seq: u64) -> bool {
        self.sim.step_seq(seq)
    }

    /// Runs arbitrary driver code against one vertex.
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>) -> R,
    ) -> R {
        self.sim.with_node(id, f)
    }

    /// See [`Simulation::run_to_quiescence`].
    pub fn run_to_quiescence(&mut self, max_events: u64) -> RunOutcome {
        self.sim.run_to_quiescence(max_events)
    }

    /// See [`Simulation::run_until`].
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.sim.run_until(deadline)
    }

    /// Immutable access to a vertex.
    pub fn node(&self, id: NodeId) -> &P {
        self.sim.node(id)
    }

    /// True if the fault plan currently has `id` crashed (see
    /// [`simnet::faults::FaultPlan`]; install one via the builder).
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.sim.is_crashed(id)
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.sim.node_count()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// High-water mark of the scheduler's event queue (see
    /// [`Simulation::peak_queue_depth`]).
    pub fn peak_queue_depth(&self) -> usize {
        self.sim.peak_queue_depth()
    }

    /// The trace (enable via the builder).
    pub fn trace(&self) -> &Trace {
        self.sim.trace()
    }

    pub(crate) fn journal(&self) -> MutexGuard<'_, Journal> {
        self.journal.lock().expect("journal lock")
    }

    /// A clone of the full mutation journal (for offline analyses).
    pub fn journal_snapshot(&self) -> Journal {
        self.journal().clone()
    }

    /// `q` over the wait-for graph as of `at` and the memoized oracle: the
    /// one as-of-time ground truth every check reads. Queries in time order
    /// move the cursor forward only; a backward seek restores a checkpoint.
    pub(crate) fn as_of<R>(
        &self,
        journal: &Journal,
        at: SimTime,
        q: impl FnOnce(&WaitForGraph, &mut Oracle) -> R,
    ) -> Result<R, ValidationError> {
        let mut cursor = self.cursor.borrow_mut();
        let g = cursor
            .seek(journal, at)
            .map_err(|e| ValidationError::IllegalHistory {
                detail: e.to_string(),
            })?;
        Ok(q(g, &mut self.oracle.borrow_mut()))
    }

    /// Reconstructs the wait-for graph as of time `at` from the journal.
    ///
    /// # Errors
    ///
    /// [`ValidationError::IllegalHistory`] if the journal violates G1–G4.
    pub fn graph_at(&self, at: SimTime) -> Result<WaitForGraph, ValidationError> {
        self.as_of(&self.journal(), at, |g, _| g.clone())
    }

    /// The wait-for graph right now.
    ///
    /// # Errors
    ///
    /// [`ValidationError::IllegalHistory`] if the journal violates G1–G4.
    pub fn current_graph(&self) -> Result<WaitForGraph, ValidationError> {
        self.graph_at(SimTime::MAX)
    }

    /// Every claim made so far, ordered by time and subject.
    pub fn declarations(&self) -> Vec<DeadlockReport> {
        let mut ds = Vec::new();
        for i in 0..self.node_count() {
            self.node(NodeId(i)).claims(NodeId(i), &mut ds);
        }
        ds.sort_by_key(|d| (d.at, d.subject));
        ds
    }

    /// Every claim in time order, each with its verdict: was the subject
    /// deadlocked ([`Vertex::deadlocked`]) when it was declared? The cursor
    /// only moves forward, so a pass applies each journal entry at most
    /// once.
    fn judged(&self) -> impl Iterator<Item = Result<(DeadlockReport, bool), ValidationError>> + '_ {
        let journal = self.journal();
        self.declarations().into_iter().map(move |d| {
            let holds = self.as_of(&journal, d.at, |g, o| P::deadlocked(g, o, d.subject))?;
            Ok((d, holds))
        })
    }

    /// Verifies property QRP2 on everything declared so far: at the moment
    /// of each declaration, its subject was deadlocked. Returns the number
    /// of declarations checked.
    ///
    /// # Errors
    ///
    /// [`ValidationError::FalseDeadlock`] on the first violation, or
    /// [`ValidationError::IllegalHistory`] if the journal itself is broken.
    pub fn verify_soundness(&self) -> Result<usize, ValidationError> {
        let mut checked = 0;
        for verdict in self.judged() {
            let (report, holds) = verdict?;
            if !holds {
                return Err(ValidationError::FalseDeadlock { report });
            }
            checked += 1;
        }
        Ok(checked)
    }

    /// Splits every claim made so far into genuine and phantom by the test
    /// [`Net::verify_soundness`] applies.
    ///
    /// # Panics
    ///
    /// Panics if the journal is not a legal G1–G4 history (a harness bug).
    pub fn classify(&self) -> Classified {
        let mut c = Classified::default();
        for verdict in self.judged() {
            match verdict.expect("a legal G1-G4 history") {
                (_, true) => c.genuine += 1,
                (_, false) => c.phantom += 1,
            }
        }
        c
    }

    /// Classifies every vertex of the current graph with
    /// [`oracle::liveness`] ("can move": no outgoing edge) and fails if
    /// any is wedged. Crashed vertices are skipped — their edges are torn
    /// down on crash and whatever waits on them is the fault model's
    /// business, not a liveness bug.
    ///
    /// # Errors
    ///
    /// [`ValidationError::Wedged`] listing the wedged vertices, or
    /// [`ValidationError::IllegalHistory`].
    pub fn verify_liveness(&self) -> Result<Vec<(NodeId, Liveness)>, ValidationError> {
        let in_flight = self.sim.in_flight_messages();
        let classes = self.as_of(&self.journal(), SimTime::MAX, |g, o| {
            let dark = o.dark_cycle_members(g);
            let live = (0..self.node_count()).map(NodeId);
            live.filter(|&v| !self.is_crashed(v))
                .map(|v| {
                    let class = oracle::liveness(
                        g,
                        dark,
                        Some(v),
                        |u| u == v,
                        |u| g.is_active(u),
                        in_flight,
                    );
                    (v, class)
                })
                .collect()
        })?;
        ValidationError::liveness(classes, self.now())
    }

    /// The earliest time `v` was on a dark cycle, given that it was at
    /// `at`. Dark cycles persist, so a binary search over the journal's
    /// timestamps finds it.
    ///
    /// # Errors
    ///
    /// [`ValidationError::IllegalHistory`] if the journal violates G1–G4.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not on a dark cycle at `at`.
    pub fn formation_time(&self, v: NodeId, at: SimTime) -> Result<SimTime, ValidationError> {
        let journal = self.journal();
        let on_cycle = |t| self.as_of(&journal, t, |g, o| o.is_on_dark_cycle(g, v));
        assert!(on_cycle(at)?, "{v} is not on a dark cycle at {at}");
        // Every seek below replays a prefix of the one just checked.
        let upto = journal.entries().partition_point(|&(t, _)| t <= at);
        let first = journal.entries()[..upto]
            .partition_point(|&(t, _)| !on_cycle(t).expect("prefix of a legal history"));
        Ok(journal.entries()[first].0)
    }
}

impl BasicNet {
    /// Creates a network of `n` identically configured vertices with the
    /// default latency model and the given seed.
    pub fn new(n: usize, cfg: BasicConfig, seed: u64) -> Self {
        Self::with_builder(n, cfg, SimBuilder::new().seed(seed))
    }

    /// Creates a network with full control over the simulation builder
    /// (latency model, tracing, seed, faults, shards).
    pub fn with_builder(n: usize, cfg: BasicConfig, builder: SimBuilder) -> Self {
        Net::build(builder, n, |_, j| {
            BasicProcess::new(cfg).with_journal(Arc::clone(j))
        })
    }

    /// Arms a seeded protocol mutation on every vertex (model-checker
    /// harness only; see [`crate::process::BasicMutation`]).
    #[cfg(feature = "mutations")]
    pub fn set_mutation(&mut self, m: crate::process::BasicMutation) {
        for i in 0..self.sim.node_count() {
            self.sim.with_node(NodeId(i), |p, _| p.set_mutation(m));
        }
    }

    /// Verifies property QRP1 at the current instant: for **every** dark
    /// cycle in the current graph, at least one member has declared.
    ///
    /// Call after the run has quiesced (probe computations complete);
    /// requires an initiation policy under which cycle members initiate
    /// (e.g. `OnBlock`, where the vertex closing the cycle initiates).
    ///
    /// Returns the number of deadlocked vertices found.
    ///
    /// # Errors
    ///
    /// [`ValidationError::MissedDeadlock`] listing an undetected cycle's
    /// members, or [`ValidationError::IllegalHistory`].
    pub fn verify_completeness(&self) -> Result<usize, ValidationError> {
        // The free function keeps `MissedDeadlock` member order pinned
        // (Tarjan pop order), independent of the memoized oracle state.
        let declared = |v: NodeId| self.node(v).deadlock().is_some();
        let cycles = self.as_of(&self.journal(), SimTime::MAX, |g, _| {
            oracle::undeclared_cycles(g, declared)
        })?;
        ValidationError::completeness(cycles, |v| v)
    }
}

#[cfg(test)]
mod tests {
    use wfg::generators;

    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn cycle_detection_is_sound_and_complete() {
        for k in [2usize, 3, 5, 9] {
            let mut net = BasicNet::new(k, BasicConfig::on_block(4), k as u64);
            net.request_edges(&generators::cycle(k)).unwrap();
            net.run_to_quiescence(1_000_000);
            let checked = net.verify_soundness().unwrap();
            assert!(checked >= 1, "k={k}: someone must have declared");
            assert_eq!(net.verify_completeness().unwrap(), k);
        }
    }

    #[test]
    fn dag_workload_produces_no_declarations() {
        let mut rng = simnet::rng::DetRng::seed_from_u64(8);
        // Only upward edges: a DAG.
        let edges: Vec<_> = generators::random_digraph(10, 0.4, &mut rng)
            .into_iter()
            .filter(|&(a, b)| a < b)
            .collect();
        assert!(!edges.is_empty());
        let mut net = BasicNet::new(10, BasicConfig::on_block(2), 99);
        net.request_edges(&edges).unwrap();
        let out = net.run_to_quiescence(1_000_000);
        assert!(out.quiescent);
        assert!(net.declarations().is_empty());
        assert_eq!(net.verify_soundness().unwrap(), 0);
        assert_eq!(net.verify_completeness().unwrap(), 0);
        // Everything resolved: the final graph is empty.
        assert!(net.current_graph().unwrap().is_empty());
    }

    #[test]
    fn figure_eight_detected() {
        let edges = generators::figure_eight(3, 4);
        let count = edges.iter().flat_map(|&(a, b)| [a, b]).max().unwrap() + 1;
        let mut net = BasicNet::new(count, BasicConfig::on_block(3), 5);
        net.request_edges(&edges).unwrap();
        net.run_to_quiescence(1_000_000);
        net.verify_soundness().unwrap();
        net.verify_completeness().unwrap();
    }

    #[test]
    fn cycle_with_tails_only_cycle_members_declare() {
        let edges = generators::cycle_with_tails(3, 2, 2);
        let mut net = BasicNet::new(7, BasicConfig::on_block(3), 6);
        net.request_edges(&edges).unwrap();
        net.run_to_quiescence(1_000_000);
        net.verify_soundness().unwrap();
        // Tail vertices are permanently blocked but NOT on a cycle; QRP2
        // means they can never declare.
        for i in 3..7 {
            assert!(
                net.node(n(i)).deadlock().is_none(),
                "tail vertex {i} declared"
            );
        }
        net.verify_completeness().unwrap();
    }

    #[test]
    fn graph_at_tracks_colour_evolution() {
        let mut net = BasicNet::new(2, BasicConfig::manual(), 40);
        net.request(n(0), n(1)).unwrap();
        let g0 = net.graph_at(net.now()).unwrap();
        assert_eq!(g0.colour(n(0), n(1)), Some(wfg::EdgeColour::Grey));
        net.run_to_quiescence(1_000);
        let g1 = net.current_graph().unwrap();
        assert_eq!(g1.colour(n(0), n(1)), Some(wfg::EdgeColour::Black));
        net.with_node(n(1), |p, ctx| assert_eq!(p.serve_pending(ctx), 1));
        net.run_to_quiescence(1_000);
        assert!(net.current_graph().unwrap().is_empty());
    }

    #[test]
    fn crash_of_cycle_member_still_detected_with_reliable_transport() {
        use simnet::faults::FaultPlan;
        use simnet::reliable::ReliableConfig;

        // Node 1 of a 4-cycle crashes mid-detection, losing its volatile
        // `latest` array, and restarts. The reliable layer redelivers
        // everything sent into the outage, and on_restart re-initiates, so
        // the deadlock is still found — and soundly.
        for seed in [1u64, 2, 3, 4, 5] {
            let plan = FaultPlan::new().crash(
                n(1),
                SimTime::from_ticks(6),
                Some(SimTime::from_ticks(120)),
            );
            let builder = SimBuilder::new()
                .seed(seed)
                .faults(plan)
                .reliable(ReliableConfig::default());
            let mut net = BasicNet::with_builder(4, BasicConfig::on_block(4), builder);
            net.request_edges(&generators::cycle(4)).unwrap();
            let out = net.run_to_quiescence(10_000_000);
            assert!(out.quiescent, "seed {seed}");
            net.verify_soundness().unwrap();
            net.verify_completeness().unwrap();
            assert!(
                !net.declarations().is_empty(),
                "seed {seed}: crash+restart must not mask the deadlock"
            );
        }
    }

    #[test]
    fn permanent_crash_outside_cycle_does_not_block_detection() {
        use simnet::faults::FaultPlan;
        use simnet::reliable::ReliableConfig;

        // Node 3 waits on the 3-cycle {0,1,2} but is not on it; node 3
        // crashing forever must not stop the cycle from being detected,
        // and abandonment must let the run quiesce.
        let plan = FaultPlan::new().crash(n(3), SimTime::from_ticks(1), None);
        let builder = SimBuilder::new()
            .seed(9)
            .faults(plan)
            .reliable(ReliableConfig {
                rto_initial: 16,
                rto_cap: 128,
                max_attempts: 5,
            });
        let mut net = BasicNet::with_builder(4, BasicConfig::on_block(4), builder);
        net.request_edges(&[(0, 1), (1, 2), (2, 0), (3, 0)])
            .unwrap();
        let out = net.run_to_quiescence(10_000_000);
        assert!(out.quiescent);
        net.verify_soundness().unwrap();
        assert!(!net.declarations().is_empty());
    }

    #[test]
    fn formation_time_is_when_the_cycle_closed() {
        let cfg = BasicConfig {
            reply: crate::config::ReplyPolicy::Manual,
            ..BasicConfig::on_block(0)
        };
        let mut net = BasicNet::new(2, cfg, 3);
        net.request(n(0), n(1)).unwrap();
        net.run_until(SimTime::from_ticks(20));
        // The second grey edge closes the dark cycle at t = 20.
        net.request(n(1), n(0)).unwrap();
        net.run_to_quiescence(100_000);
        let first = net.declarations()[0];
        assert!(first.at > SimTime::from_ticks(20));
        let formed = net.formation_time(first.detector, first.at).unwrap();
        assert_eq!(formed, SimTime::from_ticks(20));
        let on_cycle = |t| oracle::is_on_dark_cycle(&net.graph_at(t).unwrap(), n(0));
        assert!(!on_cycle(SimTime::from_ticks(19)));
        assert!(on_cycle(formed));
    }

    #[test]
    fn declarations_sorted_by_time() {
        // Two independent 2-cycles; declarations from both appear sorted.
        let mut net = BasicNet::new(4, BasicConfig::on_block(3), 77);
        net.request_edges(&[(0, 1), (1, 0), (2, 3), (3, 2)])
            .unwrap();
        net.run_to_quiescence(1_000_000);
        let ds = net.declarations();
        assert!(ds.len() >= 2);
        assert!(ds.windows(2).all(|w| w[0].at <= w[1].at));
        net.verify_soundness().unwrap();
        assert_eq!(net.verify_completeness().unwrap(), 4);
    }
}
