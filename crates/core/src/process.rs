//! The basic-model process: underlying computation + probe computation.
//!
//! A [`BasicProcess`] plays both roles the paper distinguishes:
//!
//! * the **underlying computation** ([`Underlying`], shared with the
//!   baseline detectors) — it sends requests, becomes blocked, receives
//!   requests, and replies when active (axioms G1–G4);
//! * the **probe computation** — steps A0 (initiator sends probes on all
//!   outgoing edges), A1 (initiator receives first meaningful probe ⇒
//!   declares "I am on a black cycle"), A2 (non-initiator forwards on the
//!   first meaningful probe of each computation), plus the §5 WFGD
//!   propagation after a declaration.
//!
//! Locality discipline (process axioms P3): a process consults **only**
//! * `out_waits` — the outgoing edges it created itself (it cannot see
//!   their colour), and
//! * `in_black` — its incoming black edges (requests received, replies not
//!   yet sent).
//!
//! It never inspects the global graph; the shared [`Journal`] is written
//! for *validation only* and is never read by the algorithm.

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

use simnet::sim::{Context, NodeId, Process, TimerId};
use wfg::journal::{GraphOp, Journal};

use crate::config::{BasicConfig, ForwardPolicy, InitiationPolicy, ReplyPolicy};
use crate::probe::{DeadlockReport, ProbeTag};
use crate::vset::{VecMap, VecSet};
use crate::wfgd::{EdgeSet, WfgdState};

/// Messages of the basic model: the underlying computation's requests and
/// replies, plus the detection algorithm's probes and WFGD edge sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BasicMsg {
    /// The sender asks the recipient to carry out an action; creates a grey
    /// edge (sender → recipient) that blackens on receipt.
    Request,
    /// The recipient carried out the action; whitens the edge at send and
    /// deletes it at receipt.
    Reply,
    /// A deadlock-detection probe of the tagged computation (§3).
    Probe(ProbeTag),
    /// A WFGD edge-set message (§5).
    Wfgd(EdgeSet),
}

/// Error returned by [`BasicProcess::request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// G1 forbids a second `(i, j)` edge while one exists.
    AlreadyWaiting {
        /// The target already being waited for.
        target: NodeId,
    },
    /// Self-requests are not part of the model.
    SelfRequest,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::AlreadyWaiting { target } => {
                write!(f, "already waiting for {target} (edge exists, G1)")
            }
            RequestError::SelfRequest => write!(f, "a process cannot request itself"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Metric-counter names used by [`BasicProcess`].
pub mod counters {
    /// Requests sent by the underlying computation.
    pub const REQUEST_SENT: &str = "basic.request.sent";
    /// Replies sent by the underlying computation.
    pub const REPLY_SENT: &str = "basic.reply.sent";
    /// Probes sent (A0 and A2).
    pub const PROBE_SENT: &str = "probe.sent";
    /// Probes received (any).
    pub const PROBE_RECV: &str = "probe.recv";
    /// Probes received meaningfully (edge black at receipt).
    pub const PROBE_MEANINGFUL: &str = "probe.meaningful";
    /// Probes discarded as not meaningful.
    pub const PROBE_DISCARDED: &str = "probe.discarded";
    /// Probe computations initiated (A0 executions).
    pub const INITIATED: &str = "probe.computation.initiated";
    /// Deadlock declarations (A1 executions).
    pub const DECLARED: &str = "deadlock.declared";
    /// WFGD messages sent.
    pub const WFGD_SENT: &str = "wfgd.sent";
    /// Delayed initiations avoided because the edge disappeared within `T`.
    pub const INITIATION_AVOIDED: &str = "probe.initiation.avoided";
    /// Stale replies dropped: a `Reply` arrived for an edge this process
    /// no longer holds (fault injection only — a duplicated reply, or a
    /// reply outliving a crash/restart that rebuilt the wait set).
    pub const REPLY_STALE: &str = "basic.reply.stale";
}

/// Tag of [`Underlying`]'s serve timer: its owner routes the timer to
/// [`Underlying::on_serve_timer`] and gives its own timers other tags.
pub const SERVE_TIMER: u64 = 0;
const TAG_DELAYED_INIT: u64 = 1;

/// The underlying computation at one vertex (§2): it requests (G1), its
/// incoming edge blackens when a request arrives (G2), it replies only
/// while active (G3), and its outgoing edge is deleted when the reply
/// arrives (G4). [`BasicProcess`] and the baseline detectors embed this one
/// copy, so every detector is compared over the same computation.
///
/// Generic over the owner's message type: the owner passes the `Request` /
/// `Reply` value to send and routes [`SERVE_TIMER`] here.
#[derive(Debug)]
pub struct Underlying<M> {
    /// Targets of this vertex's outstanding requests (its outgoing edges).
    out_waits: VecSet<NodeId>,
    /// Requesters whose request was received and not yet answered (this
    /// vertex's incoming black edges).
    in_black: VecSet<NodeId>,
    reply: ReplyPolicy,
    serve_timer_pending: bool,
    /// Shared mutation journal (validation only — never read here).
    journal: Option<Arc<Mutex<Journal>>>,
    msg: PhantomData<fn() -> M>,
}

impl<M: fmt::Debug + Clone> Underlying<M> {
    /// An idle vertex that serves per `reply` and journals every wait-for
    /// mutation into `journal`, if given.
    pub fn new(reply: ReplyPolicy, journal: Option<Arc<Mutex<Journal>>>) -> Self {
        Underlying {
            out_waits: VecSet::new(),
            in_black: VecSet::new(),
            reply,
            serve_timer_pending: false,
            journal,
            msg: PhantomData,
        }
    }

    /// Sends `request` to `target`, creating the grey edge `(self, target)`.
    ///
    /// # Errors
    ///
    /// [`RequestError::AlreadyWaiting`] if an edge to `target` exists (G1),
    /// [`RequestError::SelfRequest`] if `target` is this vertex.
    pub fn request(
        &mut self,
        ctx: &mut Context<'_, M>,
        target: NodeId,
        request: M,
    ) -> Result<(), RequestError> {
        let me = ctx.id();
        if target == me {
            return Err(RequestError::SelfRequest);
        }
        if self.out_waits.contains(&target) {
            return Err(RequestError::AlreadyWaiting { target });
        }
        self.out_waits.insert(target);
        self.record(ctx, GraphOp::CreateGrey(me, target));
        ctx.count(counters::REQUEST_SENT);
        ctx.send(target, request);
        Ok(())
    }

    /// A request from `from` arrived: the edge `(from, self)` is black.
    pub fn on_request(&mut self, ctx: &mut Context<'_, M>, from: NodeId) {
        self.in_black.insert(from);
        self.record(ctx, GraphOp::Blacken(from, ctx.id()));
        self.schedule_serve(ctx);
    }

    /// A reply from `from` arrived: the white edge `(self, from)` is
    /// deleted. On a faulty wire (no reliable layer) a reply can arrive for
    /// an edge this vertex no longer holds: the fault plan duplicated the
    /// reply, or a reply outlived a crash/restart that rebuilt the wait
    /// set. P1/P2 don't hold there, so such a reply is dropped, counted as
    /// [`counters::REPLY_STALE`] and never journalled; returns `false`.
    pub fn on_reply(&mut self, ctx: &mut Context<'_, M>, from: NodeId) -> bool {
        if !self.out_waits.remove(&from) {
            ctx.count(counters::REPLY_STALE);
            return false;
        }
        self.record(ctx, GraphOp::DeleteWhite(ctx.id(), from));
        // Becoming active may allow this vertex to serve others.
        self.schedule_serve(ctx);
        true
    }

    /// The [`SERVE_TIMER`] fired: serve, if active. If blocked, the serve
    /// is retried when this vertex becomes active again (on Reply receipt).
    pub fn on_serve_timer(&mut self, ctx: &mut Context<'_, M>, reply: M) {
        self.serve_timer_pending = false;
        self.serve_pending(ctx, reply);
    }

    /// Sends `reply` to every pending requester, in ascending order, if
    /// this vertex is active (G3). Returns how many replies were sent (0 if
    /// blocked or none pending).
    pub fn serve_pending(&mut self, ctx: &mut Context<'_, M>, reply: M) -> usize {
        if !self.out_waits.is_empty() {
            return 0;
        }
        let me = ctx.id();
        // Take the set instead of cloning it; the buffer is handed back
        // below so the allocation is recycled across serve rounds.
        let mut pending = std::mem::take(&mut self.in_black);
        for &requester in pending.iter() {
            self.record(ctx, GraphOp::Whiten(requester, me));
            ctx.count(counters::REPLY_SENT);
            ctx.send(requester, reply.clone());
        }
        let served = pending.len();
        pending.clear();
        self.in_black = pending;
        served
    }

    /// Crash recovery: the edges are durable, timers are not, so the serve
    /// timer is re-armed if one is owed.
    pub fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        self.serve_timer_pending = false;
        self.schedule_serve(ctx);
    }

    /// `true` if this vertex has outstanding requests (is blocked).
    pub fn is_blocked(&self) -> bool {
        !self.out_waits.is_empty()
    }

    /// Targets of outstanding requests, in ascending order.
    pub fn out_waits(&self) -> &VecSet<NodeId> {
        &self.out_waits
    }

    /// Requesters not yet replied to, in ascending order.
    pub fn in_black(&self) -> &VecSet<NodeId> {
        &self.in_black
    }

    fn record(&self, ctx: &Context<'_, M>, op: GraphOp) {
        if let Some(j) = &self.journal {
            // Keyed by the handling event's global seq: same-tick appends
            // from the threaded handler phase of a sharded run arrive in
            // thread-schedule order, and this key restores the canonical
            // (single-shard) order inside the journal.
            j.lock()
                .expect("journal lock")
                .record_at(ctx.now(), ctx.event_seq(), op);
        }
    }

    fn schedule_serve(&mut self, ctx: &mut Context<'_, M>) {
        if let ReplyPolicy::AfterDelay { service_delay } = self.reply {
            if !self.serve_timer_pending && self.out_waits.is_empty() && !self.in_black.is_empty() {
                self.serve_timer_pending = true;
                ctx.set_timer(service_delay, SERVE_TIMER);
            }
        }
    }
}

/// A vertex of the basic model (see module docs).
pub struct BasicProcess {
    initiation: InitiationPolicy,
    forward: ForwardPolicy,
    core: Underlying<BasicMsg>,
    /// Number of probe computations this vertex has initiated.
    own_n: u64,
    /// §4.3 state: per foreign initiator, the latest computation this
    /// vertex has run A2 for — the paper's O(N) array, stored sparsely
    /// (sorted by initiator id) so a vertex's footprint scales with the
    /// initiators it actually hears from, not the network size. An entry
    /// exists only once A2 has run, so it needs no "forwarded" flag.
    latest: VecMap<NodeId, u64>,
    /// High-water mark of `latest.len()`, for experiment E3.
    latest_high_water: usize,
    /// All declarations made by this vertex (step A1).
    declarations: Vec<DeadlockReport>,
    wfgd: WfgdState,
    /// [`InitiationPolicy::Delayed`] bookkeeping, allocated by the first
    /// request under that policy and untouched under the others. Boxed for
    /// the struct's size, which `tests/alloc_regression.rs` pins and explains.
    delayed: Option<Box<DelayedInit>>,
    /// Probes sent, as runs of one tag in send order (A0 and A2 send a
    /// computation's probes in one burst: one run), for experiments E1/E3.
    /// Read only after a run, by [`BasicProcess::probes_sent_per_tag`].
    probes_sent_log: Vec<(ProbeTag, u64)>,
    /// At-most-one-probe-per-edge-per-computation invariant tracking:
    /// per initiator, the computation number last probed and the edges
    /// used for it (superseded computations are dropped: bounded by N ×
    /// degree). Read by one `debug_assert!`, so it exists where that does.
    #[cfg(debug_assertions)]
    probe_edges_used: BTreeMap<NodeId, (u64, VecSet<NodeId>)>,
    /// Armed seeded protocol mutation, if any; only the model checker
    /// arms one (`None` everywhere else).
    mutation: Option<BasicMutation>,
}

/// What [`InitiationPolicy::Delayed`] keeps per vertex.
#[derive(Default)]
struct DelayedInit {
    /// Bumped on every request to a target (sparse, keyed by target); lets
    /// a timer detect that "its" edge was deleted and a new one created.
    wait_epoch: VecMap<NodeId, u64>,
    /// Pending timers. `BTreeMap`, not `HashMap` (cmh-lint D1): ordered by
    /// construction so no future iteration can depend on `RandomState`.
    timers: BTreeMap<TimerId, (NodeId, u64)>,
}

/// Seeded protocol mutations for the schedule-space model checker's
/// must-trip harness (DESIGN §13). Each is a deliberately reintroduced
/// bug class whose failure is *race-dependent*: the engine's native
/// `(time, seq)` schedule passes every checker, while bounded
/// exploration ([`simnet::explore::Explorer`]) finds the interleaving
/// that trips it. Only `xtask mck` and the explore tests arm one; every
/// other run pays a `None` check per hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasicMutation {
    /// Drop an incoming Reply (skipping rule DeleteWhite) whenever the
    /// grantee currently has pending requesters of its own. Trips when a
    /// same-tick race delivers a Request just before the grant: the
    /// process stays blocked forever on an edge its grantor already
    /// deleted — a wedge the liveness checker flags.
    SkipDeleteWhite,
    /// Treat every probe as meaningful, skipping the P3 black-edge test.
    /// Stale probes then crawl over whitened (already-granted) edges and
    /// their echo completes at an initiator that is no longer on any
    /// black cycle — a declaration on a stale echo that the as-of-event
    /// soundness oracle flags as a false deadlock.
    StaleEchoDeclare,
}

impl fmt::Debug for BasicProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BasicProcess")
            .field("out_waits", self.core.out_waits())
            .field("in_black", self.core.in_black())
            .field("own_n", &self.own_n)
            .field("declared", &!self.declarations.is_empty())
            .finish_non_exhaustive()
    }
}

impl BasicProcess {
    /// Creates a process with the given behaviour configuration.
    pub fn new(cfg: BasicConfig) -> Self {
        BasicProcess {
            initiation: cfg.initiation,
            forward: cfg.forward,
            core: Underlying::new(cfg.reply, None),
            own_n: 0,
            latest: VecMap::new(),
            latest_high_water: 0,
            declarations: Vec::new(),
            wfgd: WfgdState::new(),
            delayed: None,
            probes_sent_log: Vec::new(),
            #[cfg(debug_assertions)]
            probe_edges_used: BTreeMap::new(),
            mutation: None,
        }
    }

    /// Attaches the shared validation journal (used by
    /// [`crate::engine::BasicNet`]).
    pub fn with_journal(mut self, journal: Arc<Mutex<Journal>>) -> Self {
        self.core.journal = Some(journal);
        self
    }

    /// Arms a seeded protocol mutation (model-checker harness only; see
    /// [`BasicMutation`]).
    pub fn set_mutation(&mut self, m: BasicMutation) {
        self.mutation = Some(m);
    }

    // ----- driver API (the underlying computation) -----

    /// Sends a request to `target`: creates the grey edge `(self, target)`
    /// and, per the initiation policy, may start a probe computation.
    ///
    /// # Errors
    ///
    /// [`RequestError::AlreadyWaiting`] if an edge to `target` exists (G1),
    /// [`RequestError::SelfRequest`] if `target` is this process.
    pub fn request(
        &mut self,
        ctx: &mut Context<'_, BasicMsg>,
        target: NodeId,
    ) -> Result<(), RequestError> {
        self.core.request(ctx, target, BasicMsg::Request)?;
        match self.initiation {
            InitiationPolicy::OnBlock => self.initiate(ctx),
            InitiationPolicy::Delayed { t } => {
                let d = self.delayed.get_or_insert_with(Default::default);
                let epoch = d.wait_epoch.entry_or_default(target);
                *epoch += 1;
                let id = ctx.set_timer(t, TAG_DELAYED_INIT);
                d.timers.insert(id, (target, *epoch));
            }
            InitiationPolicy::Never => {}
        }
        Ok(())
    }

    /// Step A0: starts a new probe computation, sending one probe along
    /// every outgoing edge. A no-op if the vertex has no outgoing edges
    /// (an active vertex cannot be on a cycle).
    pub fn initiate(&mut self, ctx: &mut Context<'_, BasicMsg>) {
        if !self.core.is_blocked() {
            return;
        }
        self.own_n += 1;
        let tag = ProbeTag::new(ctx.id(), self.own_n);
        ctx.count(counters::INITIATED);
        // Indexed walk: `send_probe` never touches `out_waits`, so the
        // slice is stable and no defensive clone is needed.
        for i in 0..self.core.out_waits().len() {
            let target = self.core.out_waits().as_slice()[i];
            self.send_probe(ctx, tag, target);
        }
    }

    /// Manually replies to every pending request, if this process is active
    /// (G3). Returns how many replies were sent (0 if blocked or none
    /// pending). Only useful with [`ReplyPolicy::Manual`].
    pub fn serve_pending(&mut self, ctx: &mut Context<'_, BasicMsg>) -> usize {
        self.core.serve_pending(ctx, BasicMsg::Reply)
    }

    // ----- accessors -----

    /// `true` if this process has outstanding requests (is blocked).
    pub fn is_blocked(&self) -> bool {
        self.core.is_blocked()
    }

    /// Targets of outstanding requests (this vertex's outgoing edges),
    /// in ascending order.
    pub fn out_waits(&self) -> &VecSet<NodeId> {
        self.core.out_waits()
    }

    /// Requesters not yet replied to (this vertex's incoming black edges),
    /// in ascending order.
    pub fn in_black(&self) -> &VecSet<NodeId> {
        self.core.in_black()
    }

    /// The first deadlock declaration, if any.
    pub fn deadlock(&self) -> Option<&DeadlockReport> {
        self.declarations.first()
    }

    /// All declarations (an initiator can declare once per computation).
    pub fn declarations(&self) -> &[DeadlockReport] {
        &self.declarations
    }

    /// Number of probe computations initiated by this vertex.
    pub fn computations_initiated(&self) -> u64 {
        self.own_n
    }

    /// The §5 set `S_j`: edges this vertex knows to lie on permanent black
    /// paths leading from it.
    pub fn wfgd_edges(&self) -> &EdgeSet {
        self.wfgd.known_edges()
    }

    /// Probes sent, per computation tag (experiment E1).
    pub fn probes_sent_per_tag(&self) -> BTreeMap<ProbeTag, u64> {
        let mut per_tag = BTreeMap::new();
        for &(tag, n) in &self.probes_sent_log {
            *per_tag.entry(tag).or_insert(0) += n;
        }
        per_tag
    }

    /// High-water mark of tracked foreign computations (experiment E3).
    pub fn tracked_computations_high_water(&self) -> usize {
        self.latest_high_water
    }

    // ----- internals -----

    fn send_probe(&mut self, ctx: &mut Context<'_, BasicMsg>, tag: ProbeTag, to: NodeId) {
        #[cfg(debug_assertions)]
        {
            let (n, used) = self.probe_edges_used.entry(tag.initiator).or_default();
            if tag.n > *n {
                // A newer computation supersedes the old ledger entry.
                *n = tag.n;
                used.clear();
            }
            // A2's supersession check never forwards an older computation,
            // so `tag.n < *n` is unreachable; treat it as satisfied.
            let first_use = tag.n < *n || used.insert(to);
            debug_assert!(
                first_use || self.forward == ForwardPolicy::EveryMeaningful,
                "invariant violated: second probe of {tag} on edge to {to}"
            );
        }
        match self.probes_sent_log.last_mut() {
            Some((last, n)) if *last == tag => *n += 1,
            _ => self.probes_sent_log.push((tag, 1)),
        }
        ctx.count(counters::PROBE_SENT);
        ctx.send(to, BasicMsg::Probe(tag));
    }

    /// Step A1/A2 dispatch for a *meaningful* probe.
    fn on_meaningful_probe(&mut self, ctx: &mut Context<'_, BasicMsg>, tag: ProbeTag) {
        ctx.count(counters::PROBE_MEANINGFUL);
        let me = ctx.id();
        if tag.initiator == me {
            // A1: only the current computation counts; older ones are
            // superseded (§4.3) and may be ignored.
            if tag.n == self.own_n && !self.declarations.iter().any(|d| d.tag == Some(tag)) {
                let report = DeadlockReport {
                    detector: me,
                    subject: me,
                    tag: Some(tag),
                    at: ctx.now(),
                };
                self.declarations.push(report);
                ctx.count(counters::DECLARED);
                if ctx.tracing() {
                    ctx.note(format!(
                        "DECLARE deadlock: {me} on black cycle, computation {tag}"
                    ));
                }
                // §5: begin the WFGD propagation along incoming black edges.
                let msgs = self.wfgd.start(me, self.core.in_black().iter().copied());
                for (to, set) in msgs {
                    ctx.count(counters::WFGD_SENT);
                    ctx.send(to, BasicMsg::Wfgd(set));
                }
            }
            return;
        }
        // A2 for a foreign computation: act on the *first* meaningful probe
        // of the latest computation of each initiator (unless the ablation
        // forwarding policy is in force).
        let seen_n = self.latest.get(&tag.initiator).copied();
        let already_forwarded = seen_n == Some(tag.n);
        if tag.n < seen_n.unwrap_or(0)
            || (already_forwarded && self.forward == ForwardPolicy::FirstMeaningful)
        {
            return; // superseded, or already forwarded
        }
        self.latest.insert(tag.initiator, tag.n);
        self.latest_high_water = self.latest_high_water.max(self.latest.len());
        for i in 0..self.core.out_waits().len() {
            let target = self.core.out_waits().as_slice()[i];
            self.send_probe(ctx, tag, target);
        }
    }
}

impl Process<BasicMsg> for BasicProcess {
    fn on_message(&mut self, ctx: &mut Context<'_, BasicMsg>, from: NodeId, msg: BasicMsg) {
        match msg {
            BasicMsg::Request => self.core.on_request(ctx, from),
            BasicMsg::Reply => {
                if self.mutation == Some(BasicMutation::SkipDeleteWhite)
                    && !self.core.in_black().is_empty()
                {
                    // Seeded bug: the grant is silently lost whenever the
                    // grantee has its own serving backlog. The process
                    // genuinely keeps waiting (no state or journal lie),
                    // so every checker sees a consistent — wedged — run.
                    ctx.count(counters::REPLY_STALE);
                    return;
                }
                self.core.on_reply(ctx, from);
            }
            BasicMsg::Probe(tag) => {
                ctx.count(counters::PROBE_RECV);
                // Meaningful iff edge (from, me) exists and is black now —
                // which this process observes locally as "I received a
                // request from `from` and have not replied" (P3).
                if self.core.in_black().contains(&from)
                    || self.mutation == Some(BasicMutation::StaleEchoDeclare)
                {
                    self.on_meaningful_probe(ctx, tag);
                } else {
                    ctx.count(counters::PROBE_DISCARDED);
                }
            }
            BasicMsg::Wfgd(set) => {
                let msgs = self
                    .wfgd
                    .receive(ctx.id(), &set, self.core.in_black().iter().copied());
                for (to, m) in msgs {
                    ctx.count(counters::WFGD_SENT);
                    ctx.send(to, BasicMsg::Wfgd(m));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BasicMsg>, timer: TimerId, tag: u64) {
        match tag {
            SERVE_TIMER => self.core.on_serve_timer(ctx, BasicMsg::Reply),
            TAG_DELAYED_INIT => {
                let Some(d) = &mut self.delayed else { return };
                if let Some((target, epoch)) = d.timers.remove(&timer) {
                    let still_waiting = self.core.out_waits().contains(&target)
                        && d.wait_epoch.get(&target).copied() == Some(epoch);
                    if still_waiting {
                        // §4.3: the edge persisted for T ticks — initiate.
                        self.initiate(ctx);
                    } else {
                        ctx.count(counters::INITIATION_AVOIDED);
                    }
                }
            }
            other => debug_assert!(false, "unknown timer tag {other}"),
        }
    }

    /// Crash recovery (experiment E12).
    ///
    /// The volatile / stable-storage split: the wait-for edges
    /// (`out_waits`, `in_black`) and the initiation counter `own_n` model
    /// durable resource state, while the detector's §4.3 bookkeeping — the
    /// O(N) `latest` array and the probe-per-edge ledger — is volatile and
    /// lost. Any computation this vertex was tracking is therefore
    /// forgotten; correctness is restored by re-initiating per the
    /// configured policy (a genuinely deadlocked vertex is still blocked
    /// after restart, so its fresh computation finds the cycle again).
    fn on_restart(&mut self, ctx: &mut Context<'_, BasicMsg>) {
        self.latest.clear();
        #[cfg(debug_assertions)]
        self.probe_edges_used.clear();
        // All timers armed before the crash are gone; forget their
        // bookkeeping so late firings are ignored, then re-arm.
        if let Some(d) = &mut self.delayed {
            d.timers.clear();
        }
        self.core.on_restart(ctx);
        if !self.core.is_blocked() {
            return;
        }
        match self.initiation {
            InitiationPolicy::OnBlock => self.initiate(ctx),
            InitiationPolicy::Delayed { t } => {
                let d = self.delayed.get_or_insert_with(Default::default);
                for &target in self.core.out_waits().iter() {
                    let epoch = d.wait_epoch.get(&target).copied().unwrap_or(0);
                    let id = ctx.set_timer(t, TAG_DELAYED_INIT);
                    d.timers.insert(id, (target, epoch));
                }
            }
            InitiationPolicy::Never => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use simnet::faults::FaultPlan;
    use simnet::latency::LatencyModel;
    use simnet::sim::{SimBuilder, Simulation};
    use simnet::time::SimTime;

    use super::*;

    fn net(n: usize, cfg: BasicConfig, seed: u64) -> Simulation<BasicMsg, BasicProcess> {
        let mut sim = SimBuilder::new()
            .seed(seed)
            .latency(LatencyModel::Uniform { lo: 1, hi: 8 })
            .build();
        for _ in 0..n {
            sim.add_node(BasicProcess::new(cfg));
        }
        sim
    }

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn request_reply_roundtrip_unblocks() {
        let mut sim = net(2, BasicConfig::on_block(3), 1);
        sim.with_node(n(0), |p, ctx| p.request(ctx, n(1)).unwrap());
        assert!(sim.node(n(0)).is_blocked());
        sim.run_to_quiescence(1_000);
        assert!(!sim.node(n(0)).is_blocked());
        assert!(sim.node(n(0)).deadlock().is_none());
        assert!(sim.node(n(1)).in_black().is_empty());
    }

    #[test]
    fn request_errors() {
        let mut sim = net(2, BasicConfig::manual(), 1);
        sim.with_node(n(0), |p, ctx| {
            assert_eq!(p.request(ctx, n(0)), Err(RequestError::SelfRequest));
            p.request(ctx, n(1)).unwrap();
            assert_eq!(
                p.request(ctx, n(1)),
                Err(RequestError::AlreadyWaiting { target: n(1) })
            );
        });
    }

    #[test]
    fn two_cycle_deadlock_detected() {
        let mut sim = net(2, BasicConfig::on_block(5), 7);
        sim.with_node(n(0), |p, ctx| p.request(ctx, n(1)).unwrap());
        sim.with_node(n(1), |p, ctx| p.request(ctx, n(0)).unwrap());
        sim.run_to_quiescence(10_000);
        let declared = (0..2)
            .filter(|&i| sim.node(n(i)).deadlock().is_some())
            .count();
        assert!(declared >= 1, "at least one vertex must declare");
    }

    #[test]
    fn chain_never_declares() {
        let mut sim = net(4, BasicConfig::on_block(2), 3);
        for i in 0..3 {
            sim.with_node(n(i), |p, ctx| p.request(ctx, n(i + 1)).unwrap());
        }
        let out = sim.run_to_quiescence(10_000);
        assert!(out.quiescent);
        for i in 0..4 {
            assert!(sim.node(n(i)).deadlock().is_none(), "false positive at {i}");
            assert!(!sim.node(n(i)).is_blocked());
        }
    }

    #[test]
    fn cycle_all_members_eventually_blocked_and_someone_declares() {
        let k = 6;
        let mut sim = net(k, BasicConfig::on_block(4), 11);
        for i in 0..k {
            sim.with_node(n(i), |p, ctx| p.request(ctx, n((i + 1) % k)).unwrap());
        }
        sim.run_to_quiescence(100_000);
        assert!(
            (0..k).any(|i| sim.node(n(i)).deadlock().is_some()),
            "deadlock not detected on a {k}-cycle"
        );
        for i in 0..k {
            assert!(sim.node(n(i)).is_blocked());
        }
    }

    #[test]
    fn manual_serve_respects_g3() {
        let mut sim = net(3, BasicConfig::manual(), 2);
        // 0 -> 1, 1 -> 2. Node 1 is blocked and must not reply.
        sim.with_node(n(0), |p, ctx| p.request(ctx, n(1)).unwrap());
        sim.with_node(n(1), |p, ctx| p.request(ctx, n(2)).unwrap());
        sim.run_to_quiescence(1_000);
        let served = sim.with_node(n(1), |p, ctx| p.serve_pending(ctx));
        assert_eq!(served, 0, "blocked process must not reply (G3)");
        // Node 2 is active; it can serve node 1.
        let served = sim.with_node(n(2), |p, ctx| p.serve_pending(ctx));
        assert_eq!(served, 1);
        sim.run_to_quiescence(1_000);
        // Now node 1 is active and can serve node 0.
        let served = sim.with_node(n(1), |p, ctx| p.serve_pending(ctx));
        assert_eq!(served, 1);
        sim.run_to_quiescence(1_000);
        assert!(!sim.node(n(0)).is_blocked());
    }

    #[test]
    fn probe_on_grey_edge_is_meaningful_by_p1() {
        // With OnBlock, probes chase their own requests down the same FIFO
        // channel, so the request always lands first (axiom P1) and the
        // probe is meaningful.
        let mut sim = net(2, BasicConfig::on_block(1_000), 5);
        sim.with_node(n(0), |p, ctx| p.request(ctx, n(1)).unwrap());
        sim.run_until(simnet::time::SimTime::from_ticks(100));
        assert_eq!(sim.metrics().get(counters::PROBE_DISCARDED), 0);
        assert_eq!(sim.metrics().get(counters::PROBE_MEANINGFUL), 1);
    }

    #[test]
    fn stale_probe_discarded_after_reply() {
        // Manual initiation after the reply is already under way: the probe
        // arrives on a white/deleted edge and must be discarded (P2).
        let mut sim = net(2, BasicConfig::manual(), 9);
        sim.with_node(n(0), |p, ctx| p.request(ctx, n(1)).unwrap());
        sim.run_to_quiescence(1_000);
        sim.with_node(n(1), |p, ctx| {
            assert_eq!(p.serve_pending(ctx), 1);
        });
        // Reply is in flight; node 0 still believes it waits for node 1.
        sim.with_node(n(0), |p, ctx| p.initiate(ctx));
        sim.run_to_quiescence(1_000);
        assert_eq!(sim.metrics().get(counters::PROBE_DISCARDED), 1);
        assert!(sim.node(n(0)).deadlock().is_none());
    }

    #[test]
    fn at_most_one_probe_per_edge_per_computation() {
        let k = 5;
        let mut sim = net(k, BasicConfig::on_block(3), 13);
        for i in 0..k {
            sim.with_node(n(i), |p, ctx| p.request(ctx, n((i + 1) % k)).unwrap());
        }
        sim.run_to_quiescence(100_000);
        // The invariant is debug-asserted in send_probe; additionally check
        // the aggregate: per tag, probes sent <= number of edges (here k).
        for i in 0..k {
            for (tag, count) in sim.node(n(i)).probes_sent_per_tag() {
                assert!(count <= 1, "vertex {i} sent {count} probes for {tag}");
            }
        }
    }

    #[test]
    fn supersession_keeps_one_entry_per_initiator() {
        let mut sim = net(3, BasicConfig::manual(), 17);
        // Ring 0 -> 1 -> 2 -> 0 so probes circulate.
        for i in 0..3 {
            sim.with_node(n(i), |p, ctx| p.request(ctx, n((i + 1) % 3)).unwrap());
        }
        sim.run_to_quiescence(1_000);
        // Node 0 initiates three times; nodes 1,2 must track only (0, latest).
        for _ in 0..3 {
            sim.with_node(n(0), |p, ctx| p.initiate(ctx));
            sim.run_to_quiescence(10_000);
        }
        assert_eq!(sim.node(n(1)).tracked_computations_high_water(), 1);
        assert_eq!(sim.node(n(2)).tracked_computations_high_water(), 1);
        assert_eq!(sim.node(n(0)).computations_initiated(), 3);
        // And node 0 declared (it is genuinely deadlocked).
        assert!(sim.node(n(0)).deadlock().is_some());
    }

    #[test]
    fn delayed_initiation_avoided_when_wait_resolves() {
        // Chain 0 -> 1 with fast service: the edge disappears before T.
        let mut sim = net(2, BasicConfig::delayed(500, 2), 21);
        sim.with_node(n(0), |p, ctx| p.request(ctx, n(1)).unwrap());
        sim.run_to_quiescence(10_000);
        assert_eq!(sim.metrics().get(counters::INITIATED), 0);
        assert_eq!(sim.metrics().get(counters::INITIATION_AVOIDED), 1);
    }

    #[test]
    fn delayed_initiation_fires_on_real_deadlock() {
        let mut sim = net(2, BasicConfig::delayed(50, 2), 23);
        sim.with_node(n(0), |p, ctx| p.request(ctx, n(1)).unwrap());
        sim.with_node(n(1), |p, ctx| p.request(ctx, n(0)).unwrap());
        sim.run_to_quiescence(10_000);
        assert!(sim.metrics().get(counters::INITIATED) >= 1);
        let declared = (0..2)
            .filter(|&i| sim.node(n(i)).deadlock().is_some())
            .count();
        assert!(declared >= 1);
        // Detection latency is at least T.
        let t = (0..2)
            .filter_map(|i| sim.node(n(i)).deadlock().map(|d| d.at))
            .min()
            .unwrap();
        assert!(t.ticks() >= 50);
    }

    #[test]
    fn delayed_epoch_tells_a_recreated_edge_from_the_one_timed() {
        // Edge 0 -> 1 is deleted and re-created inside `T`: the first
        // edge's timer finds its target waited for again, and only the
        // epoch says that wait is a different edge. Then the same once
        // more after a crash/restart of node 0, which forgets the timers
        // but not the epochs.
        let cfg = BasicConfig {
            initiation: InitiationPolicy::Delayed { t: 200 },
            ..BasicConfig::manual()
        };
        let restart = SimTime::from_ticks(305);
        let mut sim = SimBuilder::new()
            .seed(31)
            .latency(LatencyModel::Uniform { lo: 1, hi: 8 })
            .faults(
                FaultPlan::new()
                    .crash(n(0), SimTime::from_ticks(300), Some(restart))
                    .crash(n(0), SimTime::from_ticks(700), Some(restart + 400)),
            )
            .build();
        sim.add_node(BasicProcess::new(cfg));
        sim.add_node(BasicProcess::new(cfg));
        let grant_and_rerequest = |sim: &mut Simulation<BasicMsg, BasicProcess>| {
            let now = sim.now();
            sim.run_until(now + 10);
            assert_eq!(sim.with_node(n(1), |p, ctx| p.serve_pending(ctx)), 1);
            sim.run_until(now + 20);
            assert!(!sim.node(n(0)).is_blocked());
            sim.with_node(n(0), |p, ctx| p.request(ctx, n(1)).unwrap());
        };
        sim.with_node(n(0), |p, ctx| p.request(ctx, n(1)).unwrap());
        // Round 1's timer is the request's; round 2's is the one
        // `on_restart` re-arms for the edge still held.
        for (round, armed_at) in [(1, SimTime::ZERO), (2, restart)] {
            sim.run_until(armed_at);
            grant_and_rerequest(&mut sim);
            sim.run_until(armed_at + 199);
            assert_eq!(sim.metrics().get(counters::INITIATION_AVOIDED), round - 1);
            sim.run_until(armed_at + 250);
            assert_eq!(
                sim.metrics().get(counters::INITIATION_AVOIDED),
                round,
                "round {round}: the superseded edge's timer must not initiate"
            );
            assert_eq!(
                sim.node(n(0)).computations_initiated(),
                round,
                "round {round}: the live edge's timer must"
            );
        }
        // A restart with the edge left alone re-arms under the edge's own
        // epoch: that timer initiates.
        sim.run_until(restart + 650);
        assert_eq!(sim.metrics().get(counters::INITIATION_AVOIDED), 2);
        assert_eq!(sim.node(n(0)).computations_initiated(), 3);
        assert!(sim.node(n(1)).delayed.is_none(), "node 1 never requested");
    }

    #[test]
    fn per_tag_counts_sum_runs_split_by_another_computation() {
        // `EveryMeaningful` is the one policy under which a vertex sends a
        // tag in more than one burst. Node 2 hears (0, 1) over a two-hop
        // path and a five-hop path, forwards both times, and initiates
        // its own computation in between.
        let cfg = BasicConfig {
            forward: ForwardPolicy::EveryMeaningful,
            ..BasicConfig::manual()
        };
        let mut sim = SimBuilder::new()
            .latency(LatencyModel::Fixed { ticks: 1 })
            .build();
        for _ in 0..7 {
            sim.add_node(BasicProcess::new(cfg));
        }
        for (from, to) in [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 2)] {
            sim.with_node(n(from), |p, ctx| p.request(ctx, n(to)).unwrap());
        }
        sim.run_to_quiescence(1_000);
        let t0 = sim.now();
        sim.with_node(n(0), |p, ctx| p.initiate(ctx));
        sim.run_until(t0 + 3);
        sim.with_node(n(2), |p, ctx| p.initiate(ctx));
        sim.run_to_quiescence(1_000);
        let (foreign, own) = (ProbeTag::new(n(0), 1), ProbeTag::new(n(2), 1));
        assert_eq!(
            sim.node(n(2)).probes_sent_log,
            [(foreign, 1), (own, 1), (foreign, 1)]
        );
        assert_eq!(
            sim.node(n(2)).probes_sent_per_tag(),
            BTreeMap::from([(foreign, 2), (own, 1)])
        );
    }

    #[test]
    fn wfgd_sets_populated_after_declaration() {
        let k = 4;
        let mut sim = net(k, BasicConfig::on_block(3), 29);
        for i in 0..k {
            sim.with_node(n(i), |p, ctx| p.request(ctx, n((i + 1) % k)).unwrap());
        }
        sim.run_to_quiescence(100_000);
        let declared: Vec<usize> = (0..k)
            .filter(|&i| sim.node(n(i)).deadlock().is_some())
            .collect();
        assert!(!declared.is_empty());
        // Every cycle member ends up knowing the entire cycle's edge set.
        let full: EdgeSet = (0..k).map(|i| (n(i), n((i + 1) % k))).collect();
        for i in 0..k {
            assert_eq!(sim.node(n(i)).wfgd_edges(), &full, "S_{i} incomplete");
        }
    }
}
