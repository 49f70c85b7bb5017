//! The controller `C_j`: local scheduler, lock manager, transaction driver
//! and deadlock detector of §6.
//!
//! One controller runs per site. It plays every §6.2 role:
//!
//! * **lock manager** — grants/queues requests against its [`LockTable`];
//! * **transaction driver** — executes the scripts of transactions homed
//!   at this site. The one blocking step is `LockAll` (AND semantics; its
//!   remote locks go to the managing controller as `RemoteRequest` /
//!   `Acquired` / `RemoteRelease`) and the one wait state is [`Waiting`].
//!   Each §6.4 inter-controller edge is kept once: an outgoing one `(T,
//!   S_me) → (T, S_m)` is an `S_m` entry of home script `T`'s wait set, an
//!   incoming one `(T, S_h) → (T, S_me)` is remote agent `T` queued in the
//!   lock table with home `S_h` in `agent_home`;
//! * **deadlock detector** — the §6.6 probe computation: on a meaningful
//!   probe towards local process `(T_p, S_m)`, label `T_p`'s process and
//!   everything reachable along intra-controller edges, forward probes
//!   along labelled processes' inter-controller edges (once per edge per
//!   computation), and declare if its own computation's subject becomes
//!   labelled. §6.7's Q-optimisation (local-cycle check first, then one
//!   computation per process with an incoming black inter-controller edge)
//!   runs every period, and the naive per-process rule is its baseline.
//!   Each period re-initiates for every subject still waiting, which is
//!   also what retries a computation whose probes were lost.
//!
//! ## Deviation noted (probe-computation bookkeeping)
//!
//! §4.3 suggests tracking only the *latest* computation per initiator.
//! A controller running the §6.7 procedure initiates **Q concurrent**
//! computations with consecutive `n`, so latest-only tracking at receivers
//! would cancel Q−1 of them. We instead keep a sliding window of the
//! [`crate::config::DEFAULT_COMP_WINDOW`] most recent computations per
//! initiator (configurable via `DdbConfig::comp_window`): state stays
//! bounded and concurrent computations coexist.
//! Probes older than the window are ignored — exactly the paper's
//! supersession, applied at window granularity.
//!
//! ## Holder back-edges (§6.4 completion)
//!
//! A remote agent `(T, S_m)` that *holds* resources at `S_m` while
//! requesting nothing there is idle — in the §6.4 wait-for sense it waits
//! for its home agent `(T, S_home)` to finish and release it. The edge
//! `(T, S_m) → (T, S_home)` exists exactly while `T` is Running, holds at
//! `S_m`, and has no outstanding un-granted request at `S_m` (the idle
//! condition prevents a phantom 2-cycle of `T` with itself while a
//! request is also queued there). Without this edge class, any cycle
//! running *through* a remotely held resource is invisible: the holder
//! agent has no outgoing edges, so probes die there and the Q-rule never
//! initiates for the home agent it blocks. Probe forwarding
//! (`Controller::probes_for_label`), probe meaningfulness, the §6.7
//! subject selection and the harness's graph reconstruction all carry
//! the edge.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cmh_core::vset::{VecMap, VecSet};
use simnet::sim::{Context, NodeId, Process, TimerId};
use simnet::time::SimTime;

use crate::config::{DdbConfig, DdbInitiation, Resolution};
use crate::ids::{AgentId, DdbProbeTag, ResourceId, SiteId, TransactionId};
use crate::lock::{LockOutcome, LockTable};
use crate::msg::DdbMsg;
use crate::probe::{window_cutoff, CompState, CompWindow, DdbDeadlock};
use crate::txn::{Transaction, TxnStatus, TxnStep};
use crate::wfgd::{AgentEdgeSet, DdbWfgdState, LocalTopology, WfgdSend};

/// Metric-counter names used by controllers.
pub mod counters {
    /// Remote lock requests sent.
    pub const REMOTE_REQUEST: &str = "ddb.remote_request.sent";
    /// `Acquired` grants sent.
    pub const ACQUIRED_SENT: &str = "ddb.acquired.sent";
    /// Remote releases sent.
    pub const REMOTE_RELEASE: &str = "ddb.remote_release.sent";
    /// Probes sent.
    pub const PROBE_SENT: &str = "ddb.probe.sent";
    /// Probes received.
    pub const PROBE_RECV: &str = "ddb.probe.recv";
    /// Probes received meaningfully.
    pub const PROBE_MEANINGFUL: &str = "ddb.probe.meaningful";
    /// Probes discarded as not meaningful.
    pub const PROBE_DISCARDED: &str = "ddb.probe.discarded";
    /// Probe computations initiated.
    pub const INITIATED: &str = "ddb.initiated";
    /// Deadlocks declared.
    pub const DECLARED: &str = "ddb.declared";
    /// Deadlocks found as purely local cycles (no probes needed).
    pub const LOCAL_CYCLE: &str = "ddb.local_cycle_found";
    /// Transactions committed.
    pub const COMMITTED: &str = "ddb.txn.committed";
    /// Transactions aborted by resolution.
    pub const ABORTED: &str = "ddb.txn.aborted";
    /// Transactions restarted after abort.
    pub const RESTARTED: &str = "ddb.txn.restarted";
    /// Grants that matched no local waiter (diagnostic; should stay 0).
    pub const GRANT_ORPHAN: &str = "ddb.grant.orphan";
    /// §5 WFGD messages sent between controllers.
    pub const WFGD_SENT: &str = "ddb.wfgd.sent";
    /// Blocked scripts the grant-sweep found already satisfied by the lock
    /// table and repaired (diagnostic; stays 0 unless wait bookkeeping
    /// desynchronises from the lock table — the wedge class this counter
    /// exists to surface).
    pub const WEDGE_REPAIRED: &str = "ddb.wedge.repaired";
    /// `RemoteRelease` messages that overtook the request they cancel and
    /// left a tombstone behind (possible whenever a link reorders).
    pub const CANCEL_TOMBSTONED: &str = "ddb.cancel.tombstoned";
    /// Late `RemoteRequest` messages dropped against a tombstone — each
    /// one was a phantom hold that would have wedged its lock queue.
    pub const CANCEL_DROPPED: &str = "ddb.cancel.dropped_request";
    /// Probe-computation completions suppressed because an abort was
    /// processed after initiation (the evidence may certify a dissolved
    /// cycle); each suppression re-initiates under the new generation.
    pub const DECL_SUPPRESSED_STALE: &str = "ddb.decl.suppressed_stale";
}

/// A work step's completion; the payload is the wait's epoch.
const K_WORK: u64 = 0;
const K_PERIODIC: u64 = 2;
const K_RESTART: u64 = 3;

// Timer tag: kind (3 bits) | unused bit | transaction id (all 32 bits)
// | payload (28 bits). Epochs compare under the payload mask: a work
// timer outlives its arming by one step, never by 2^28 waits. Tags are
// printed in the DDB trace digests, so neither the kinds nor the layout
// may be renumbered without a re-pin.
const KIND_SHIFT: u32 = 61;
const TXN_SHIFT: u32 = 28;
const PAYLOAD_MASK: u64 = (1 << TXN_SHIFT) - 1;

/// True if a controller timer re-drives a script when it fires (work-step
/// completions and restart backoffs) and can therefore change the
/// wait-for graph without declaring anything; every other kind is a
/// detector timer, which may declare.
pub(crate) fn timer_drives_script(tag: u64) -> bool {
    matches!(tag >> KIND_SHIFT, K_WORK | K_RESTART)
}

fn enc_timer(kind: u64, txn: TransactionId, payload: u64) -> u64 {
    (kind << KIND_SHIFT) | ((txn.0 as u64) << TXN_SHIFT) | (payload & PAYLOAD_MASK)
}

/// `(kind, transaction, payload)` of a timer tag.
fn dec_timer(tag: u64) -> (u64, TransactionId, u64) {
    (
        tag >> KIND_SHIFT,
        TransactionId((tag >> TXN_SHIFT) as u32),
        tag & PAYLOAD_MASK,
    )
}

#[derive(Debug)]
struct ScriptState {
    txn: Transaction,
    pc: usize,
    status: TxnStatus,
    waiting: Waiting,
    /// Names one *wait*: bumped when a wait begins or ends, never on a
    /// partial grant. Timers carry the epoch they were armed under and are
    /// ignored if it moved on.
    epoch: u64,
    attempts: u32,
    submitted_at: SimTime,
    finished_at: Option<SimTime>,
}

/// What a home script is blocked on: its live wait state and, cloned
/// into a [`ScriptSnapshot`], the liveness audit's view of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Waiting {
    /// Runnable (between steps); only transient under a healthy controller.
    None,
    /// Inside a lock step (AND semantics, §6): the `(site, resource)`
    /// grants still outstanding, this site included for locally queued
    /// locks.
    Locks(BTreeSet<(SiteId, ResourceId)>),
    /// Inside a `Work` step (a timer is pending).
    Work,
}

impl Waiting {
    /// The outstanding grants at sites other than `me`, ascending: the
    /// outgoing inter-controller edges of a home agent's lock step.
    fn remote(&self, me: SiteId) -> impl Iterator<Item = (SiteId, ResourceId)> + '_ {
        static NONE: BTreeSet<(SiteId, ResourceId)> = BTreeSet::new();
        let pending = match self {
            Waiting::Locks(pending) => pending,
            Waiting::None | Waiting::Work => &NONE,
        };
        pending.iter().copied().filter(move |&(m, _)| m != me)
    }
}

/// Point-in-time execution state of one home script, for liveness
/// auditing (see [`crate::net::DdbNet::liveness_report`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptSnapshot {
    /// The transaction.
    pub txn: TransactionId,
    /// Current status.
    pub status: TxnStatus,
    /// Program counter into the script.
    pub pc: usize,
    /// Total steps in the script.
    pub step_count: usize,
    /// Times the script was started (1 = never aborted).
    pub attempts: u32,
    /// What the script is blocked on right now.
    pub waiting: Waiting,
}

/// Summary of one transaction's fate, for experiment reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnOutcome {
    /// The transaction.
    pub txn: TransactionId,
    /// Final (or current) status.
    pub status: TxnStatus,
    /// Number of times the script was started (1 = no restart).
    pub attempts: u32,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Commit/abort time, if finished.
    pub finished_at: Option<SimTime>,
}

/// The per-site controller process (see module docs).
pub struct Controller {
    site: SiteId,
    cfg: DdbConfig,
    locks: LockTable,
    scripts: BTreeMap<TransactionId, ScriptState>,
    /// The home site of every remote agent in the lock table: added by
    /// its first request, dropped when its last hold or queued request is
    /// released. A transaction queued in `locks` with an entry here is the
    /// head of an incoming inter-controller edge `(T, home) → (T, S_me)`.
    agent_home: BTreeMap<TransactionId, SiteId>,
    /// Resources acquired remotely (needed for release on commit/abort).
    remote_held: BTreeMap<TransactionId, BTreeSet<(SiteId, ResourceId)>>,
    /// Cancellation tombstones: a `RemoteRelease` that found neither a
    /// hold nor a queued request for `(txn, resource)`
    /// must have **overtaken** the `RemoteRequest` it cancels (links
    /// reorder under the latency model). The count is recorded here and
    /// the late request is dropped on arrival — otherwise it would
    /// re-queue with no home-side state left to ever cancel it, leaking a
    /// phantom hold that wedges every transaction behind it (the ISSUE 6
    /// batching wedge: aborts with many in-flight `lock_all` requests).
    cancelled: BTreeMap<(TransactionId, ResourceId), u32>,
    own_n: u64,
    /// Each own computation still in the window and not yet completed:
    /// `n → (subject, abort_gen at initiation)`. Probe-chain evidence
    /// certifies edges as of probe-send time; an abort processed here
    /// after initiation may have dissolved the certified cycle, so a
    /// completion under a newer generation is suppressed and the
    /// computation re-initiated (§4) rather than declared on stale
    /// evidence. Aborts are the only event that can dissolve a dark
    /// cycle, which makes this the exact staleness condition observable
    /// at the declaring site.
    own: BTreeMap<u64, (TransactionId, u64)>,
    /// Bumped every time this controller processes an abort.
    abort_gen: u64,
    /// The computations this controller takes part in, one window per
    /// initiator.
    comps: VecMap<SiteId, CompWindow>,
    declarations: Vec<DdbDeadlock>,
    declared_txns: BTreeSet<TransactionId>,
    wfgd: DdbWfgdState,
    /// Armed seeded protocol mutation, if any; only the model checker
    /// arms one (`None` everywhere else).
    mutation: Option<DdbMutation>,
}

/// Seeded protocol mutations for the schedule-space model checker's
/// must-trip harness (DESIGN §13). Race-dependent by construction: the
/// engine's native `(time, seq)` schedule passes every checker, while
/// bounded exploration finds the interleaving that trips the bug.
/// Only `xtask mck` and the explore tests arm one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdbMutation {
    /// Match an incoming `Acquired` grant against the waiting `lock_all`
    /// entry by resource id alone instead of by `(granting site,
    /// resource)`: the grant-misattribution bug. When a transaction
    /// waits for the same resource id at two sites and loses the lock
    /// race at one of them, the other site's grant is booked as a
    /// phantom hold at the *wrong* site: the home keeps waiting for a
    /// grant that already arrived, and the corrupted bookkeeping blinds
    /// the probe computation (probes chase the phantom wait to a site
    /// where the agent idles) *and* the agent-graph reconstruction
    /// (which reads the same home state) — a genuinely deadlocked cycle
    /// goes undeclared.
    /// Caught by [`DdbNet::verify_lock_cycles`], which rebuilds the cycle
    /// from the physical lock tables.
    ///
    /// [`DdbNet::verify_lock_cycles`]: crate::net::DdbNet::verify_lock_cycles
    GrantByResourceOnly,
}

impl fmt::Debug for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Controller")
            .field("site", &self.site)
            .field("scripts", &self.scripts.len())
            .field("held", &self.locks.held_count())
            .field("waiting", &self.locks.waiting_count())
            .field("declared", &self.declarations.len())
            .finish_non_exhaustive()
    }
}

impl Controller {
    /// Creates the controller for `site`.
    pub fn new(site: SiteId, cfg: DdbConfig) -> Self {
        Controller {
            site,
            cfg,
            locks: LockTable::new(),
            scripts: BTreeMap::new(),
            agent_home: BTreeMap::new(),
            remote_held: BTreeMap::new(),
            cancelled: BTreeMap::new(),
            own_n: 0,
            own: BTreeMap::new(),
            abort_gen: 0,
            comps: VecMap::new(),
            declarations: Vec::new(),
            declared_txns: BTreeSet::new(),
            wfgd: DdbWfgdState::new(),
            mutation: None,
        }
    }

    /// Arms a seeded protocol mutation (model-checker harness only; see
    /// [`DdbMutation`]).
    pub fn set_mutation(&mut self, m: DdbMutation) {
        self.mutation = Some(m);
    }

    // ----- public accessors -----

    /// This controller's site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The local lock table (read-only).
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// Deadlocks this controller has declared.
    pub fn declarations(&self) -> &[DdbDeadlock] {
        &self.declarations
    }

    /// Outgoing inter-controller wait edges of local home agents, as
    /// `(txn, remote site)` pairs, ascending and deduplicated.
    pub(crate) fn remote_wait_edges(&self) -> impl Iterator<Item = (TransactionId, SiteId)> + '_ {
        let waits = self
            .scripts
            .iter()
            .flat_map(|(&t, st)| st.waiting.remote(self.site).map(move |(m, _)| (t, m)));
        dedup_sorted(waits)
    }

    /// The outgoing inter-controller edges of home agent `(t, S_me)`: the
    /// remote half of its wait set, ascending.
    fn remote_waits(&self, t: TransactionId) -> impl Iterator<Item = (SiteId, ResourceId)> + '_ {
        let st = self.scripts.get(&t).into_iter();
        st.flat_map(|st| st.waiting.remote(self.site))
    }

    /// The remote agents queued in the lock table (heads of incoming
    /// inter-controller wait edges), ascending.
    fn queued_remote_agents(&self) -> impl Iterator<Item = TransactionId> + '_ {
        let waiting = self.locks.waiting_transactions();
        waiting.filter(|t| self.agent_home.contains_key(t))
    }

    /// Outcomes of all transactions homed here.
    pub fn txn_outcomes(&self) -> Vec<TxnOutcome> {
        self.scripts
            .iter()
            .map(|(&txn, s)| TxnOutcome {
                txn,
                status: s.status,
                attempts: s.attempts,
                submitted_at: s.submitted_at,
                finished_at: s.finished_at,
            })
            .collect()
    }

    /// Execution snapshot of one home script, or `None` if `txn` is not
    /// homed here. A keyed lookup, unlike [`Controller::script_snapshots`]
    /// — the networked service polls its in-flight transactions every
    /// drive-loop pass, and a full scan there would be O(all txns ever).
    pub fn script_snapshot_of(&self, txn: TransactionId) -> Option<ScriptSnapshot> {
        self.scripts.get(&txn).map(|s| Self::snap_script(txn, s))
    }

    fn snap_script(txn: TransactionId, s: &ScriptState) -> ScriptSnapshot {
        ScriptSnapshot {
            txn,
            status: s.status,
            pc: s.pc,
            step_count: s.txn.steps().len(),
            attempts: s.attempts,
            waiting: s.waiting.clone(),
        }
    }

    /// Execution snapshots of every script homed here, in txn order.
    pub fn script_snapshots(&self) -> Vec<ScriptSnapshot> {
        self.scripts
            .iter()
            .map(|(&txn, s)| Self::snap_script(txn, s))
            .collect()
    }

    /// Number of probe computations this controller has initiated.
    pub fn computations_initiated(&self) -> u64 {
        self.own_n
    }

    /// The §5 deadlocked-portion edges known for local process
    /// `(txn, S_me)` (empty until a WFGD propagation reaches it).
    pub fn deadlocked_portion(&self, txn: TransactionId) -> AgentEdgeSet {
        self.wfgd.known_edges(txn)
    }

    /// Local transactions whose processes have non-empty §5 `S` sets.
    pub fn wfgd_informed(&self) -> Vec<TransactionId> {
        self.wfgd.informed_transactions()
    }

    /// Runs one §5 step against the live local topology — the lock table
    /// and the remote agents' homes, read in place — and transmits the
    /// messages it emits.
    fn wfgd_step(
        &mut self,
        ctx: &mut Context<'_, DdbMsg>,
        step: impl FnOnce(&mut DdbWfgdState, SiteId, LocalTopology<'_>) -> Vec<WfgdSend>,
    ) {
        let topo = LocalTopology {
            locks: &self.locks,
            homes: &self.agent_home,
        };
        for m in step(&mut self.wfgd, self.site, topo) {
            ctx.count(counters::WFGD_SENT);
            ctx.send(
                m.dest.node(),
                DdbMsg::Wfgd {
                    txn: m.txn,
                    edges: m.edges,
                },
            );
        }
    }

    // ----- driver API -----

    /// Submits a transaction homed at this site and starts executing it.
    ///
    /// # Panics
    ///
    /// Panics if the transaction's home is not this site, or a transaction
    /// with the same id was already submitted here.
    pub fn start_txn(&mut self, ctx: &mut Context<'_, DdbMsg>, txn: Transaction) {
        assert_eq!(txn.home(), self.site, "transaction submitted to wrong home");
        let id = txn.id();
        let prev = self.scripts.insert(
            id,
            ScriptState {
                txn,
                pc: 0,
                status: TxnStatus::Running,
                waiting: Waiting::None,
                epoch: 0,
                attempts: 1,
                submitted_at: ctx.now(),
                finished_at: None,
            },
        );
        assert!(prev.is_none(), "duplicate transaction {id}");
        self.advance(ctx, id);
    }

    /// Explicitly initiates a probe computation for local process
    /// `(subject, S_me)` (steps A0 of §6.6). Starts nothing unless the
    /// process is blocked and not already declared.
    pub fn initiate_for(&mut self, ctx: &mut Context<'_, DdbMsg>, subject: TransactionId) {
        if self.declared_txns.contains(&subject) {
            return;
        }
        let blocked_locally = self.locks.is_waiting_anywhere(subject);
        if !blocked_locally && self.remote_waits(subject).next().is_none() {
            return;
        }
        self.own_n += 1;
        let tag = DdbProbeTag {
            initiator: self.site,
            n: self.own_n,
        };
        ctx.count(counters::INITIATED);
        self.own.insert(self.own_n, (subject, self.abort_gen));
        if let Some(cutoff) = self.window_cutoff(self.own_n) {
            while let Some(first) = self.own.first_entry().filter(|e| *e.key() <= cutoff) {
                first.remove();
            }
        }
        // A0, local part: label everything reachable from the subject along
        // intra-controller edges; a local cycle is declared with no probes.
        let closure = self.locks.reachable_from(subject);
        if closure.contains(&subject) {
            ctx.count(counters::LOCAL_CYCLE);
            self.declare(ctx, subject, None);
            return;
        }
        self.forward(ctx, tag, CompState::new(), with_one(&closure, subject));
    }

    // ----- internals: script driving -----

    fn advance(&mut self, ctx: &mut Context<'_, DdbMsg>, id: TransactionId) {
        let me = self.site;
        loop {
            let Some(st) = self.scripts.get_mut(&id) else {
                return;
            };
            if st.status != TxnStatus::Running || st.waiting != Waiting::None {
                return;
            }
            // The step is borrowed, not cloned: a `LockAll` owns a `Vec`.
            let pending = match st.txn.steps().get(st.pc) {
                None => {
                    // Script complete: commit.
                    st.status = TxnStatus::Committed;
                    st.finished_at = Some(ctx.now());
                    ctx.count(counters::COMMITTED);
                    if ctx.tracing() {
                        ctx.note(format!("{id} committed"));
                    }
                    self.release_everything(ctx, id, Waiting::None);
                    return;
                }
                Some(&TxnStep::Work { ticks }) => {
                    st.waiting = Waiting::Work;
                    st.epoch += 1;
                    ctx.set_timer(ticks, enc_timer(K_WORK, id, st.epoch));
                    return;
                }
                Some(TxnStep::LockAll(reqs)) => {
                    // Issue every lock simultaneously (AND semantics);
                    // collect the targets that did not grant instantly.
                    let mut pending: BTreeSet<(SiteId, ResourceId)> = BTreeSet::new();
                    for req in reqs {
                        if req.site == me {
                            if let LockOutcome::Granted =
                                self.locks.request(id, req.resource, req.mode)
                            {
                                continue;
                            }
                        } else {
                            ctx.count(counters::REMOTE_REQUEST);
                            ctx.send(
                                req.site.node(),
                                DdbMsg::RemoteRequest {
                                    txn: id,
                                    resource: req.resource,
                                    mode: req.mode,
                                    home: me,
                                },
                            );
                        }
                        pending.insert((req.site, req.resource));
                    }
                    pending
                }
            };
            if pending.is_empty() {
                st.pc += 1;
                continue;
            }
            st.waiting = Waiting::Locks(pending);
            st.epoch += 1;
            return;
        }
    }

    /// The current wait of running `txn`, if a timer whose payload is
    /// `epoch` was armed for it.
    fn wait_named(&self, txn: TransactionId, epoch: u64) -> Option<&Waiting> {
        let st = self.scripts.get(&txn)?;
        let named = st.status == TxnStatus::Running && st.epoch & PAYLOAD_MASK == epoch;
        named.then_some(&st.waiting)
    }

    /// Arms the detector period ([`K_PERIODIC`]); `stagger` adds a random
    /// offset so sites do not tick in lockstep.
    fn arm_periodic(&self, ctx: &mut Context<'_, DdbMsg>, stagger: bool) {
        if let DdbInitiation::PeriodicQOpt { period } | DdbInitiation::PeriodicNaive { period } =
            self.cfg.initiation
        {
            let tag = enc_timer(K_PERIODIC, TransactionId(0), 0);
            if stagger {
                ctx.set_timer_jittered(period, period, tag);
            } else {
                ctx.set_timer(period, tag);
            }
        }
    }

    /// Arms the restart of aborted `id`, if aborted transactions come back.
    fn arm_restart(&self, ctx: &mut Context<'_, DdbMsg>, id: TransactionId) {
        if let Some(backoff) = self.cfg.resolution.restart_backoff() {
            // Randomised backoff: restarting at a deterministic offset can
            // recreate the same deadlock in lockstep, livelocking.
            ctx.set_timer_jittered(backoff, backoff, enc_timer(K_RESTART, id, 0));
        }
    }

    /// Releases everything `id` holds here and elsewhere, and cancels the
    /// remote half of `wait`, the wait it just left.
    fn release_everything(
        &mut self,
        ctx: &mut Context<'_, DdbMsg>,
        id: TransactionId,
        wait: Waiting,
    ) {
        self.sweep_release_all(ctx, id);
        let mut remote = self.remote_held.remove(&id).unwrap_or_default();
        remote.extend(wait.remote(self.site));
        for (m, r) in remote {
            ctx.count(counters::REMOTE_RELEASE);
            ctx.send(
                m.node(),
                DdbMsg::RemoteRelease {
                    txn: id,
                    resource: r,
                },
            );
        }
    }

    /// Grant-sweep entry point for a single-resource release. Every
    /// controller code path that releases a lock must route through
    /// [`Self::sweep_release`] / [`Self::sweep_release_all`] (lint rule
    /// D8): releasing without sweeping leaves granted-but-unexamined
    /// waiters behind, the wedge class the liveness layer exists to kill.
    fn sweep_release(&mut self, ctx: &mut Context<'_, DdbMsg>, txn: TransactionId, r: ResourceId) {
        let granted = self.locks.release(txn, r); // cmh-lint: allow(D8) — the sweep entry point itself
        self.sweep_grants(ctx, r, granted);
    }

    /// Grant-sweep entry point for a full release (commit/abort); see
    /// [`Self::sweep_release`].
    fn sweep_release_all(&mut self, ctx: &mut Context<'_, DdbMsg>, txn: TransactionId) {
        let freed = self.locks.release_all(txn); // cmh-lint: allow(D8) — the sweep entry point itself
        for (resource, granted) in freed {
            self.sweep_grants(ctx, resource, granted);
        }
    }

    fn sweep_grants(
        &mut self,
        ctx: &mut Context<'_, DdbMsg>,
        resource: ResourceId,
        granted: Vec<(TransactionId, crate::lock::LockMode)>,
    ) {
        for (g, _mode) in granted {
            // A grant dissolves whatever deadlock `g` was declared part of;
            // allow future re-declaration if it deadlocks again.
            self.declared_txns.remove(&g);
            if let Some(&home) = self.agent_home.get(&g) {
                // A remote agent acquired the resource: whiten the
                // inter-controller edge by sending the grant home.
                ctx.count(counters::ACQUIRED_SENT);
                ctx.send(home.node(), DdbMsg::Acquired { txn: g, resource });
            } else {
                self.granted(ctx, g, (self.site, resource));
            }
        }
        self.sweep_wedged_waiters(ctx, resource);
    }

    /// The deterministic grant-sweep proper: after any grant wave on
    /// `resource`, re-examine every blocked home script whose wait on
    /// `resource` at this site the lock table already satisfies (it holds
    /// the lock yet still records the wait) and advance it. With
    /// consistent bookkeeping nothing matches and
    /// [`counters::WEDGE_REPAIRED`] stays 0; the sweep exists so a future
    /// bookkeeping slip degrades from a permanent wedge into a counted,
    /// trace-visible repair. Deterministic: driven purely by grant/release
    /// events, iterating the holders in ascending order — no polling, no
    /// wall-clock.
    fn sweep_wedged_waiters(&mut self, ctx: &mut Context<'_, DdbMsg>, resource: ResourceId) {
        let site = self.site;
        // A wedged waiter holds `resource`, so only its holders are
        // candidates — not every script ever homed here.
        let stuck: Vec<TransactionId> = self
            .locks
            .holders_of(resource)
            .filter(|&t| {
                self.scripts.get(&t).is_some_and(|st| {
                    st.status == TxnStatus::Running
                        && matches!(&st.waiting, Waiting::Locks(p) if p.contains(&(site, resource)))
                }) && !self.locks.is_waiting(t, resource)
            })
            .collect();
        for t in stuck {
            ctx.count(counters::WEDGE_REPAIRED);
            if ctx.tracing() {
                ctx.note(format!(
                    "grant-sweep repaired wedged wait of {t} on {resource}"
                ));
            }
            self.granted(ctx, t, (site, resource));
        }
    }

    /// The one place a wait shrinks: `entry` of `txn`'s lock step was
    /// granted. The step completes (and the epoch, which names the wait,
    /// moves on) when the set empties, never on a partial grant. A grant
    /// the script is not waiting on counts [`counters::GRANT_ORPHAN`].
    fn granted(
        &mut self,
        ctx: &mut Context<'_, DdbMsg>,
        txn: TransactionId,
        entry: (SiteId, ResourceId),
    ) {
        let emptied = match self.scripts.get_mut(&txn).map(|st| &mut st.waiting) {
            Some(Waiting::Locks(pending)) => pending.remove(&entry).then_some(pending.is_empty()),
            _ => None,
        };
        match emptied {
            Some(true) => self.step_done(ctx, txn),
            Some(false) => {}
            None => ctx.count(counters::GRANT_ORPHAN),
        }
    }

    /// The current step of `txn` finished: its wait ends, the script moves on.
    fn step_done(&mut self, ctx: &mut Context<'_, DdbMsg>, txn: TransactionId) {
        let st = self.scripts.get_mut(&txn).expect("script exists");
        st.waiting = Waiting::None;
        st.epoch += 1;
        st.pc += 1;
        self.advance(ctx, txn);
    }

    fn abort_local(&mut self, ctx: &mut Context<'_, DdbMsg>, id: TransactionId) {
        let Some(st) = self.scripts.get_mut(&id) else {
            return;
        };
        if st.status != TxnStatus::Running {
            return;
        }
        st.status = TxnStatus::Aborted;
        st.finished_at = Some(ctx.now());
        let wait = std::mem::replace(&mut st.waiting, Waiting::None);
        st.epoch += 1;
        // Evidence gathered by in-flight computations may certify a cycle
        // this abort dissolves; see `own`.
        self.abort_gen += 1;
        ctx.count(counters::ABORTED);
        if ctx.tracing() {
            ctx.note(format!("{id} aborted for deadlock resolution"));
        }
        self.release_everything(ctx, id, wait);
        // The victim is no longer deadlocked; allow future declarations if
        // its restart deadlocks again.
        self.declared_txns.remove(&id);
        self.arm_restart(ctx, id);
    }

    // ----- internals: probe computation -----

    /// Probes implied by a freshly labelled process: one per distinct
    /// outgoing inter-controller edge, deduplicated per computation. Two
    /// edge classes leave a local agent `(a, S_me)`:
    ///
    /// * at `a`'s **home** — one edge per distinct remote wait site;
    /// * at a **remote** site — the holder back-edge `(a, S_me) → (a,
    ///   home)`: an agent that holds locally while requesting nothing here
    ///   is idle, and an idle remote holder waits (in the §6.4 sense) for
    ///   its home agent to finish and release it. Without this edge a
    ///   cycle running *through* a remotely held resource is invisible to
    ///   the probe computation (the wedge class ISSUE 6 fixes). The idle
    ///   condition keeps the edge out while `a` still has an un-granted
    ///   request here — otherwise the back-edge plus `a`'s own wait edge
    ///   would form a phantom 2-cycle of `a` with itself.
    ///
    /// Sends them as `tag`'s probes, wait edges in ascending site order
    /// (the wait set is sorted by site), then the back-edge.
    fn probes_for_label(
        &self,
        ctx: &mut Context<'_, DdbMsg>,
        tag: DdbProbeTag,
        comp: &mut CompState,
        a: TransactionId,
    ) {
        let mut send = |m: SiteId| {
            ctx.count(counters::PROBE_SENT);
            let edge = (AgentId::new(a, self.site), AgentId::new(a, m));
            ctx.send(m.node(), DdbMsg::Probe { tag, edge });
        };
        for m in dedup_sorted(self.remote_waits(a).map(|(m, _)| m)) {
            if comp.mark_sent(a, m) {
                send(m);
            }
        }
        if let Some(&home) = self.agent_home.get(&a) {
            if self.locks.holds_any(a)
                && !self.locks.is_waiting_anywhere(a)
                && comp.mark_sent(a, home)
            {
                send(home);
            }
        }
    }

    /// True iff the holder back-edge `(t, from) → (t, S_me)` exists: `t`
    /// is homed here and Running, holds something at `from`, and has no
    /// outstanding un-granted request at `from` (idle remote holder; see
    /// [`Self::probes_for_label`]).
    fn holder_edge_from(&self, from: SiteId, t: TransactionId) -> bool {
        let Some(st) = self.scripts.get(&t) else {
            return false;
        };
        let holds = self
            .remote_held
            .get(&t)
            .is_some_and(|s| s.iter().any(|&(m, _)| m == from));
        let waits = st.waiting.remote(self.site).any(|(m, _)| m == from);
        st.status == TxnStatus::Running && holds && !waits
    }

    /// Incoming holder back-edges of home agents, as `(txn, remote site)`
    /// pairs, ascending and deduplicated: the agent-level edge `(txn, m) →
    /// (txn, S_me)` exists for each (see [`Self::probes_for_label`] for
    /// the edge semantics).
    pub(crate) fn holder_back_edges(&self) -> impl Iterator<Item = (TransactionId, SiteId)> + '_ {
        let held = self.remote_held.iter();
        let pairs = held.flat_map(|(&t, at)| at.iter().map(move |&(m, _)| (t, m)));
        dedup_sorted(pairs).filter(|&(t, m)| self.holder_edge_from(m, t))
    }

    /// Window supersession (module docs): once computation `newest`
    /// exists, those numbered at or below the cutoff are superseded.
    fn window_cutoff(&self, newest: u64) -> Option<u64> {
        window_cutoff(newest, self.cfg.comp_window)
    }

    /// [`Self::window_cutoff`] of `initiator`'s newest computation here.
    fn comp_cutoff(&self, initiator: SiteId) -> Option<u64> {
        let window = self.comps.get(&initiator);
        window.and_then(|w| w.cutoff(self.cfg.comp_window))
    }

    /// A2: labels `closure` (ascending), sends the probes each newly
    /// labelled process implies, and records computation `tag`
    /// (superseding what fell out of its initiator's window).
    fn forward(
        &mut self,
        ctx: &mut Context<'_, DdbMsg>,
        tag: DdbProbeTag,
        mut comp: CompState,
        closure: impl Iterator<Item = TransactionId>,
    ) {
        for a in closure {
            if comp.label(a) {
                self.probes_for_label(ctx, tag, &mut comp, a);
            }
        }
        let window = self.comps.entry_or_default(tag.initiator);
        window.put(tag.n, comp, self.cfg.comp_window);
    }

    fn handle_probe(
        &mut self,
        ctx: &mut Context<'_, DdbMsg>,
        tag: DdbProbeTag,
        edge: (AgentId, AgentId),
    ) {
        ctx.count(counters::PROBE_RECV);
        let (tail, head) = edge;
        debug_assert_eq!(head.site, self.site, "probe routed to wrong controller");
        debug_assert_eq!(
            tail.txn, head.txn,
            "inter-controller edge spans one transaction"
        );
        let t = tail.txn;
        // Meaningful iff the inter-controller edge exists and is black (P3).
        // Two disjoint cases: a *wait* edge — `t`, homed at `tail.site`, is
        // queued here for a remote request — or a *holder back-edge* into
        // `t`'s home agent here (disjoint because a back-edge requires `t`
        // idle at `tail.site`, while a wait edge requires an un-granted
        // request there). A conservative rejection while messages are in
        // flight only delays detection (the §4 timeout re-initiates); it
        // never declares falsely.
        let waits_here = self.locks.is_waiting_anywhere(t);
        let meaningful = (waits_here && self.agent_home.get(&t) == Some(&tail.site))
            || self.holder_edge_from(tail.site, t);
        if !meaningful {
            ctx.count(counters::PROBE_DISCARDED);
            return;
        }
        ctx.count(counters::PROBE_MEANINGFUL);
        if self
            .comp_cutoff(tag.initiator)
            .is_some_and(|cutoff| tag.n <= cutoff)
        {
            return;
        }
        // A1/A2: label (t, S_me) and everything locally reachable from it.
        let closure = self.locks.reachable_from(t);
        let comp = self.comps.entry_or_default(tag.initiator).take(tag.n);
        // A1: if this is our own computation and its subject is reachable
        // from the probe's entry process, the subject is on a dark cycle.
        //
        // Soundness note: the check uses the closure computed *at this
        // instant* from this probe's entry process — not the labels
        // accumulated across earlier probes of the computation. Accumulated
        // labels certify edges as of different times; combining them with a
        // fresh probe can assemble a cycle that never existed (a phantom).
        // The instantaneous closure extends the probe chain's Theorem-2
        // argument to the local segment, so every declaration is sound;
        // completeness is unaffected because the true cycle's closing probe
        // reaches the subject through intra-controller edges that are part
        // of the (permanent) cycle and therefore present right now.
        let mut completed = None;
        if tag.initiator == self.site {
            if let Some(&(subject, gen)) = self.own.get(&tag.n) {
                let reached = subject == t || closure.contains(&subject);
                if reached && !self.declared_txns.contains(&subject) {
                    self.own.remove(&tag.n);
                    completed = Some((subject, gen));
                }
            }
        }
        self.forward(ctx, tag, comp, with_one(&closure, t));
        let Some((subject, gen)) = completed else {
            return;
        };
        // Staleness guard: an abort processed since this computation
        // started may have dissolved the cycle the probe chain certified;
        // re-initiate under the current generation (§4) instead of risking
        // a phantom declaration.
        if gen == self.abort_gen {
            self.declare(ctx, subject, Some(tag));
        } else {
            ctx.count(counters::DECL_SUPPRESSED_STALE);
            if ctx.tracing() {
                ctx.note(format!("suppress stale completion of {tag} for {subject}"));
            }
            self.initiate_for(ctx, subject);
        }
    }

    /// Declares `(subject, S_me)` deadlocked and, under
    /// [`Resolution::AbortSubject`], aborts the subject's transaction.
    ///
    /// The subject is the only safe victim: the labelled set also contains
    /// bystanders that are merely queued behind the cycle, and aborting
    /// one of those leaves the deadlock intact. Symmetric mutual aborts
    /// (two controllers each sacrificing the other's transaction) are
    /// broken by the randomised restart backoff in [`Self::abort_local`].
    fn declare(
        &mut self,
        ctx: &mut Context<'_, DdbMsg>,
        subject: TransactionId,
        tag: Option<DdbProbeTag>,
    ) {
        self.declared_txns.insert(subject);
        let d = DdbDeadlock {
            site: self.site,
            txn: subject,
            tag,
            at: ctx.now(),
        };
        self.declarations.push(d);
        ctx.count(counters::DECLARED);
        if ctx.tracing() {
            ctx.note(format!("DECLARE {d}"));
        }
        // §5: disseminate the deadlocked portion backwards from the subject.
        self.wfgd_step(ctx, |wfgd, me, topo| wfgd.start(me, subject, topo));
        if let Resolution::AbortSubject { .. } = self.cfg.resolution {
            let home = self.agent_home.get(&subject).copied().unwrap_or(self.site);
            if home == self.site {
                self.abort_local(ctx, subject);
            } else {
                ctx.send(home.node(), DdbMsg::Abort { txn: subject });
            }
        }
    }

    /// The §6.7 periodic procedure (Q-optimised or naive).
    fn periodic_detect(&mut self, ctx: &mut Context<'_, DdbMsg>, naive: bool) {
        // Step 1 (both variants benefit, but only QOpt specifies it):
        // purely local cycles need no probes at all.
        if !naive {
            let local_waiters: Vec<TransactionId> = self.locks.waiting_transactions().collect();
            for t in local_waiters {
                if !self.declared_txns.contains(&t) && self.locks.on_local_cycle(t) {
                    ctx.count(counters::LOCAL_CYCLE);
                    self.declare(ctx, t, None);
                }
            }
        }
        // Step 2: choose which processes get a probe computation, in
        // ascending order.
        let mut subjects: Vec<TransactionId> = if naive {
            // Every blocked constituent process.
            let remote = self.remote_wait_edges().map(|(t, _)| t);
            let local = self.locks.waiting_transactions();
            local.chain(remote).collect()
        } else {
            // Q-optimisation: only processes with an incoming black
            // inter-controller edge. Incoming edges of local agents come
            // in two classes: remote agents queued here (wait edges into
            // them), and holder back-edges into a *home* agent from its
            // idle remote holders — without the latter, a cycle whose
            // only entry into this site runs through a remotely held
            // resource gets no computation.
            let queued = self.queued_remote_agents();
            queued
                .chain(self.holder_back_edges().map(|(t, _)| t))
                .collect()
        };
        subjects.sort_unstable();
        subjects.dedup();
        for t in subjects {
            self.initiate_for(ctx, t);
        }
    }
}

/// `set ∪ {x}`, ascending, without building it (`x` twice if it is in
/// `set`: labelling skips a label it already has).
fn with_one(
    set: &VecSet<TransactionId>,
    x: TransactionId,
) -> impl Iterator<Item = TransactionId> + '_ {
    let items = set.as_slice();
    let (below, rest) = items.split_at(items.partition_point(|&y| y < x));
    let (below, rest) = (below.iter().copied(), rest.iter().copied());
    below.chain([x]).chain(rest)
}

/// The distinct items of an ascending iterator, in order.
fn dedup_sorted<T: Copy + PartialEq>(items: impl Iterator<Item = T>) -> impl Iterator<Item = T> {
    let mut last = None;
    items.filter(move |&x| last.replace(x) != Some(x))
}

impl Process<DdbMsg> for Controller {
    fn on_start(&mut self, ctx: &mut Context<'_, DdbMsg>) {
        self.arm_periodic(ctx, true);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, DdbMsg>, from: NodeId, msg: DdbMsg) {
        match msg {
            DdbMsg::RemoteRequest {
                txn,
                resource,
                mode,
                home,
            } => {
                if let Some(n) = self.cancelled.get_mut(&(txn, resource)) {
                    // The cancelling release overtook this request: it was
                    // revoked before it ever reached us. Processing it now
                    // would install a hold no one remembers to release.
                    *n -= 1;
                    if *n == 0 {
                        self.cancelled.remove(&(txn, resource));
                    }
                    ctx.count(counters::CANCEL_DROPPED);
                    if ctx.tracing() {
                        ctx.note(format!("dropped cancelled request {txn} for {resource}"));
                    }
                    return;
                }
                self.agent_home.insert(txn, home);
                if let LockOutcome::Granted = self.locks.request(txn, resource, mode) {
                    ctx.count(counters::ACQUIRED_SENT);
                    ctx.send(home.node(), DdbMsg::Acquired { txn, resource });
                }
            }
            DdbMsg::Acquired { txn, resource } => {
                // The grant satisfies the wait on (granting site, resource)
                // — and only that one. Matching by resource alone
                // misattributes the grant when a `lock_all` waits for the
                // same resource id at two sites: the home then books a
                // phantom hold at the wrong site and keeps waiting for a
                // grant the real site already sent — forever (the other
                // face of the ISSUE 6 batching wedge).
                let mut entry = (SiteId(from.0), resource);
                if self.mutation == Some(DdbMutation::GrantByResourceOnly) {
                    // Seeded bug: first remote wait matching the resource
                    // id, regardless of which site granted.
                    let mut waits = self.remote_waits(txn);
                    entry = waits.find(|&(_, r)| r == resource).unwrap_or(entry);
                }
                let waiting = self.scripts.get(&txn).map(|st| &st.waiting);
                if !matches!(waiting, Some(Waiting::Locks(p)) if p.contains(&entry)) {
                    return; // aborted (release in flight) or a stale attempt's grant
                }
                self.remote_held.entry(txn).or_default().insert(entry);
                self.granted(ctx, txn, entry);
            }
            DdbMsg::RemoteRelease { txn, resource } => {
                let had_lock =
                    self.locks.holds(txn, resource) || self.locks.is_waiting(txn, resource);
                self.declared_txns.remove(&txn);
                if had_lock {
                    self.sweep_release(ctx, txn, resource);
                } else {
                    // Nothing to release: this cancellation overtook its
                    // request on a reordering link. Tombstone it so the
                    // late request is dropped instead of re-queuing as an
                    // uncancellable phantom.
                    *self.cancelled.entry((txn, resource)).or_insert(0) += 1;
                    ctx.count(counters::CANCEL_TOMBSTONED);
                }
                // An agent that holds nothing here and waits for nothing
                // has left the lock table: its home is needed no more.
                if !self.locks.holds_any(txn) && !self.locks.is_waiting_anywhere(txn) {
                    self.agent_home.remove(&txn);
                }
            }
            DdbMsg::Probe { tag, edge } => self.handle_probe(ctx, tag, edge),
            DdbMsg::Abort { txn } => self.abort_local(ctx, txn),
            DdbMsg::Wfgd { txn, edges } => {
                self.wfgd_step(ctx, |wfgd, me, topo| wfgd.receive(me, txn, &edges, topo));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DdbMsg>, _timer: TimerId, tag: u64) {
        let (kind, txn, payload) = dec_timer(tag);
        match kind {
            K_WORK => {
                if self.wait_named(txn, payload) == Some(&Waiting::Work) {
                    self.step_done(ctx, txn);
                }
            }
            K_PERIODIC => {
                let naive = matches!(self.cfg.initiation, DdbInitiation::PeriodicNaive { .. });
                self.periodic_detect(ctx, naive);
                self.arm_periodic(ctx, false);
            }
            K_RESTART => {
                if let Some(st) = self.scripts.get_mut(&txn) {
                    if st.status == TxnStatus::Aborted {
                        st.status = TxnStatus::Running;
                        st.pc = 0;
                        st.waiting = Waiting::None;
                        st.epoch += 1;
                        st.attempts += 1;
                        st.finished_at = None;
                        ctx.count(counters::RESTARTED);
                        self.advance(ctx, txn);
                    }
                }
            }
            other => debug_assert!(false, "unknown timer kind {other}"),
        }
    }

    /// Crash recovery (experiment E12).
    ///
    /// Lock tables, scripts and inter-site wait bookkeeping model durable
    /// state; the detector's window of probe computations (`comps`,
    /// `own`) is volatile and lost — any
    /// computation crossing the outage dies and is superseded by fresh
    /// ones. Every timer armed before the crash is gone, so recovery
    /// re-arms each under a fresh epoch: the periodic detector, the work
    /// timer of every working script and restart backoffs for aborted
    /// victims. A blocked script's wait is durable (lock queues survive)
    /// and needs no timer: the next period re-initiates for it.
    fn on_restart(&mut self, ctx: &mut Context<'_, DdbMsg>) {
        self.comps.clear();
        self.own.clear();
        self.arm_periodic(ctx, true);
        let ids: Vec<TransactionId> = self.scripts.keys().copied().collect();
        for id in ids {
            let Some(st) = self.scripts.get_mut(&id) else {
                continue;
            };
            match (st.status, &st.waiting) {
                (TxnStatus::Committed, _) => {}
                (TxnStatus::Aborted, _) => {
                    st.epoch += 1;
                    self.arm_restart(ctx, id);
                }
                (TxnStatus::Running, Waiting::None) => self.advance(ctx, id),
                (TxnStatus::Running, Waiting::Work) => {
                    // The in-progress work step restarts from scratch.
                    st.epoch += 1;
                    let ticks = match st.txn.steps().get(st.pc) {
                        Some(TxnStep::Work { ticks }) => *ticks,
                        _ => 1,
                    };
                    ctx.set_timer(ticks, enc_timer(K_WORK, id, st.epoch));
                }
                // Recovery moves every live script's epoch, a blocked one's
                // too (DESIGN §7 item 9); its wait arms no timer.
                (TxnStatus::Running, Waiting::Locks(_)) => st.epoch += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use simnet::sim::{SimBuilder, Simulation};

    use super::*;
    use crate::lock::LockMode;

    fn sim(n_sites: usize, cfg: DdbConfig, seed: u64) -> Simulation<DdbMsg, Controller> {
        let mut sim = SimBuilder::new().seed(seed).build();
        for s in 0..n_sites {
            sim.add_node(Controller::new(SiteId(s), cfg));
        }
        sim
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
    fn status(
        net: &Simulation<DdbMsg, Controller>,
        site: SiteId,
        txn: TransactionId,
    ) -> Option<TxnStatus> {
        let snap = net.node(site.node()).script_snapshot_of(txn);
        snap.map(|s| s.status)
    }
    use LockMode::Exclusive as X;

    #[test]
    fn single_transaction_commits_locally() {
        let mut net = sim(1, DdbConfig::default(), 1);
        let txn = Transaction::new(t(1), s(0)).lock(s(0), r(1), X).work(10);
        net.with_node(s(0).node(), |c, ctx| c.start_txn(ctx, txn));
        net.run_until(simnet::time::SimTime::from_ticks(10_000));
        assert_eq!(status(&net, s(0), t(1)), Some(TxnStatus::Committed));
        assert_eq!(net.node(s(0).node()).locks().held_count(), 0);
    }

    #[test]
    fn remote_lock_acquired_and_released() {
        let mut net = sim(2, DdbConfig::default(), 2);
        let txn = Transaction::new(t(1), s(0)).lock(s(1), r(7), X).work(5);
        net.with_node(s(0).node(), |c, ctx| c.start_txn(ctx, txn));
        net.run_until(simnet::time::SimTime::from_ticks(10_000));
        assert_eq!(status(&net, s(0), t(1)), Some(TxnStatus::Committed));
        // The remote lock was granted and then released.
        assert_eq!(net.node(s(1).node()).locks().held_count(), 0);
        assert!(net.metrics().get(counters::REMOTE_REQUEST) >= 1);
        assert!(net.metrics().get(counters::ACQUIRED_SENT) >= 1);
        assert!(net.metrics().get(counters::REMOTE_RELEASE) >= 1);
    }

    #[test]
    fn remote_agent_home_is_dropped_when_the_agent_leaves_the_lock_table() {
        let mut net = sim(2, DdbConfig::default(), 2);
        let txn = Transaction::new(t(1), s(0))
            .lock(s(1), r(7), X)
            .lock(s(1), r(8), X)
            .work(500);
        net.with_node(s(0).node(), |c, ctx| c.start_txn(ctx, txn));
        net.run_until(simnet::time::SimTime::from_ticks(300));
        // Mid-work, the agent holds both locks at S1, which knows its home.
        let managing = net.node(s(1).node());
        assert_eq!(managing.locks().held_count(), 2);
        assert_eq!(managing.agent_home.get(&t(1)), Some(&s(0)));
        net.run_until(simnet::time::SimTime::from_ticks(10_000));
        assert_eq!(status(&net, s(0), t(1)), Some(TxnStatus::Committed));
        assert!(net.node(s(1).node()).agent_home.is_empty());
    }

    #[test]
    fn local_deadlock_found_without_probes() {
        // Both transactions homed at site 0, classic two-resource deadlock.
        let mut net = sim(1, DdbConfig::detect_only(50), 3);
        let t1 = Transaction::new(t(1), s(0))
            .lock(s(0), r(1), X)
            .work(30)
            .lock(s(0), r(2), X);
        let t2 = Transaction::new(t(2), s(0))
            .lock(s(0), r(2), X)
            .work(30)
            .lock(s(0), r(1), X);
        net.with_node(s(0).node(), |c, ctx| c.start_txn(ctx, t1));
        net.with_node(s(0).node(), |c, ctx| c.start_txn(ctx, t2));
        net.run_until(simnet::time::SimTime::from_ticks(5_000));
        let decls = net.node(s(0).node()).declarations();
        assert!(!decls.is_empty(), "local deadlock not found");
        assert!(
            decls.iter().all(|d| d.tag.is_none()),
            "should need no probes"
        );
        assert_eq!(net.metrics().get(counters::PROBE_SENT), 0);
    }

    #[test]
    fn distributed_deadlock_detected_via_probes() {
        // T1 home S0: lock r1@S0 then r2@S1.
        // T2 home S1: lock r2@S1 then r1@S0. Global cycle, no local cycle.
        let mut net = sim(2, DdbConfig::detect_only(100), 4);
        let t1 = Transaction::new(t(1), s(0))
            .lock(s(0), r(1), X)
            .work(20)
            .lock(s(1), r(2), X);
        let t2 = Transaction::new(t(2), s(1))
            .lock(s(1), r(2), X)
            .work(20)
            .lock(s(0), r(1), X);
        net.with_node(s(0).node(), |c, ctx| c.start_txn(ctx, t1));
        net.with_node(s(1).node(), |c, ctx| c.start_txn(ctx, t2));
        net.run_until(simnet::time::SimTime::from_ticks(20_000));
        let all: Vec<DdbDeadlock> = (0..2)
            .flat_map(|i| net.node(NodeId(i)).declarations().to_vec())
            .collect();
        assert!(!all.is_empty(), "distributed deadlock not detected");
        assert!(all.iter().all(|d| d.tag.is_some()), "needs probes");
        assert!(net.metrics().get(counters::PROBE_SENT) >= 1);
        assert!(net.metrics().get(counters::PROBE_MEANINGFUL) >= 1);
    }

    #[test]
    fn no_deadlock_no_declaration() {
        // Two transactions touching disjoint resources across sites.
        let mut net = sim(2, DdbConfig::detect_only(50), 5);
        let t1 = Transaction::new(t(1), s(0)).lock(s(1), r(1), X).work(10);
        let t2 = Transaction::new(t(2), s(1)).lock(s(0), r(2), X).work(10);
        net.with_node(s(0).node(), |c, ctx| c.start_txn(ctx, t1));
        net.with_node(s(1).node(), |c, ctx| c.start_txn(ctx, t2));
        net.run_until(simnet::time::SimTime::from_ticks(20_000));
        for i in 0..2 {
            assert!(net.node(NodeId(i)).declarations().is_empty());
            assert_eq!(
                net.node(NodeId(i)).txn_outcomes()[0].status,
                TxnStatus::Committed
            );
        }
    }

    #[test]
    fn contention_without_deadlock_resolves() {
        // Three transactions all want r1@S1 exclusively; they serialise.
        let mut net = sim(2, DdbConfig::detect_only(40), 6);
        for i in 1..=3 {
            let txn = Transaction::new(t(i), s(0)).lock(s(1), r(1), X).work(15);
            net.with_node(s(0).node(), |c, ctx| c.start_txn(ctx, txn));
        }
        net.run_until(simnet::time::SimTime::from_ticks(50_000));
        for i in 1..=3 {
            assert_eq!(
                status(&net, s(0), t(i)),
                Some(TxnStatus::Committed),
                "T{i} should commit"
            );
        }
        assert!(net.node(s(0).node()).declarations().is_empty());
        assert!(net.node(s(1).node()).declarations().is_empty());
    }

    #[test]
    fn resolution_aborts_and_restarts_to_commit() {
        let cfg = DdbConfig::detect_and_resolve(60, 40);
        let mut net = sim(2, cfg, 7);
        let t1 = Transaction::new(t(1), s(0))
            .lock(s(0), r(1), X)
            .work(20)
            .lock(s(1), r(2), X)
            .work(10);
        let t2 = Transaction::new(t(2), s(1))
            .lock(s(1), r(2), X)
            .work(20)
            .lock(s(0), r(1), X)
            .work(10);
        net.with_node(s(0).node(), |c, ctx| c.start_txn(ctx, t1));
        net.with_node(s(1).node(), |c, ctx| c.start_txn(ctx, t2));
        net.run_until(simnet::time::SimTime::from_ticks(100_000));
        // Both transactions must eventually commit (victim restarts).
        assert_eq!(status(&net, s(0), t(1)), Some(TxnStatus::Committed));
        assert_eq!(status(&net, s(1), t(2)), Some(TxnStatus::Committed));
        assert!(net.metrics().get(counters::ABORTED) >= 1);
        assert!(net.metrics().get(counters::RESTARTED) >= 1);
        // All locks everywhere are free at the end.
        for i in 0..2 {
            assert_eq!(net.node(NodeId(i)).locks().held_count(), 0);
            assert_eq!(net.node(NodeId(i)).locks().waiting_count(), 0);
        }
    }

    #[test]
    fn lock_all_grants_everything_before_proceeding() {
        use crate::txn::LockReq;
        let mut net = sim(3, DdbConfig::default(), 31);
        // T1 batch-acquires one local and two remote locks, then commits.
        let txn = Transaction::new(t(1), s(0))
            .lock_all([
                LockReq {
                    site: s(0),
                    resource: r(1),
                    mode: X,
                },
                LockReq {
                    site: s(1),
                    resource: r(2),
                    mode: X,
                },
                LockReq {
                    site: s(2),
                    resource: r(3),
                    mode: X,
                },
            ])
            .work(10);
        net.with_node(s(0).node(), |c, ctx| c.start_txn(ctx, txn));
        net.run_until(simnet::time::SimTime::from_ticks(20_000));
        assert_eq!(status(&net, s(0), t(1)), Some(TxnStatus::Committed));
        for i in 0..3 {
            assert_eq!(net.node(NodeId(i)).locks().held_count(), 0);
        }
    }

    #[test]
    fn lock_all_and_wait_deadlock_detected() {
        // T1 holds r1@S0 and batch-waits on r2@S1 AND r3@S2.
        // T2 holds r2@S1 and waits on r1@S0: a cycle through ONE branch of
        // the AND-wait (the other branch, r3, is free but irrelevant —
        // AND semantics block T1 regardless).
        let mut net = sim(3, DdbConfig::detect_only(100), 33);
        use crate::txn::LockReq;
        let t1 = Transaction::new(t(1), s(0))
            .lock(s(0), r(1), X)
            .work(15)
            .lock_all([
                LockReq {
                    site: s(1),
                    resource: r(2),
                    mode: X,
                },
                LockReq {
                    site: s(2),
                    resource: r(3),
                    mode: X,
                },
            ]);
        let t2 = Transaction::new(t(2), s(1))
            .lock(s(1), r(2), X)
            .work(15)
            .lock(s(0), r(1), X);
        net.with_node(s(0).node(), |c, ctx| c.start_txn(ctx, t1));
        net.with_node(s(1).node(), |c, ctx| c.start_txn(ctx, t2));
        net.run_until(simnet::time::SimTime::from_ticks(30_000));
        let total: usize = (0..3)
            .map(|i| net.node(NodeId(i)).declarations().len())
            .sum();
        assert!(total >= 1, "AND-wait deadlock undetected");
        // And the free branch was indeed granted: T1 holds r3 at S2.
        assert!(net.node(s(2).node()).locks().holds(t(1), r(3)));
    }

    #[test]
    fn timer_encoding_roundtrip() {
        for id in [0, 0xABCDE, 1 << 24, u32::MAX].map(TransactionId) {
            for kind in [K_WORK, K_PERIODIC, K_RESTART] {
                let tag = enc_timer(kind, id, 0x234_5678);
                assert_eq!(dec_timer(tag), (kind, id, 0x234_5678));
                assert_eq!(timer_drives_script(tag), kind != K_PERIODIC);
            }
            // An epoch past the payload mask keeps its low bits and leaves
            // the kind and the transaction intact.
            let epoch = PAYLOAD_MASK + 5;
            let tag = enc_timer(K_WORK, id, epoch);
            assert_eq!(dec_timer(tag), (K_WORK, id, epoch & PAYLOAD_MASK));
        }
    }

    #[test]
    fn partial_grant_cycle_is_declared() {
        // T1 holds r1@S0 and AND-waits on r2@S1 (held by T2) and r3@S2
        // (free). r3 is granted while r2 is not; T2 then requests r1@S0
        // and closes a cycle through T1's partially granted wait.
        use crate::txn::LockReq;
        let mut net = sim(3, DdbConfig::detect_only(80), 13);
        let req = |site, resource| LockReq {
            site,
            resource,
            mode: X,
        };
        let t1 = Transaction::new(t(1), s(0))
            .lock(s(0), r(1), X)
            .lock_all([req(s(1), r(2)), req(s(2), r(3))]);
        let t2 = Transaction::new(t(2), s(1))
            .lock(s(1), r(2), X)
            .work(40)
            .lock(s(0), r(1), X);
        net.with_node(s(1).node(), |c, ctx| c.start_txn(ctx, t2));
        net.with_node(s(0).node(), |c, ctx| c.start_txn(ctx, t1));
        net.run_until(simnet::time::SimTime::from_ticks(35));
        let snap = net.node(s(0).node()).script_snapshot_of(t(1)).unwrap();
        assert_eq!(snap.waiting, Waiting::Locks([(s(1), r(2))].into()));
        net.run_until(simnet::time::SimTime::from_ticks(5_000));
        let total: usize = (0..3)
            .map(|i| net.node(NodeId(i)).declarations().len())
            .sum();
        assert!(total >= 1, "cycle through a partially granted AND-wait");
        assert_eq!(net.metrics().get(counters::WEDGE_REPAIRED), 0);
        assert_eq!(net.metrics().get(counters::GRANT_ORPHAN), 0);
    }

    #[test]
    fn three_site_three_txn_ring_detected() {
        // T_i homed at S_i locks r_i@S_i then r_{i+1}@S_{i+1}: global ring.
        let mut net = sim(3, DdbConfig::detect_only(80), 9);
        for i in 0..3u32 {
            let txn = Transaction::new(t(i + 1), s(i as usize))
                .lock(s(i as usize), r(i as u64), X)
                .work(25)
                .lock(s(((i + 1) % 3) as usize), r(((i + 1) % 3) as u64), X);
            net.with_node(s(i as usize).node(), |c, ctx| c.start_txn(ctx, txn));
        }
        net.run_until(simnet::time::SimTime::from_ticks(50_000));
        let total: usize = (0..3)
            .map(|i| net.node(NodeId(i)).declarations().len())
            .sum();
        assert!(total >= 1, "ring deadlock undetected");
        // Nothing commits: no resolution configured.
        for i in 0..3u32 {
            assert_eq!(
                status(&net, s(i as usize), t(i + 1)),
                Some(TxnStatus::Running)
            );
        }
    }
}
