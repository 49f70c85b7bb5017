//! Deterministic discrete-event simulation of message-passing processes.
//!
//! The simulator provides exactly the communication guarantees the paper's
//! process axioms assume and nothing more:
//!
//! * **P4**: every message is delivered after an arbitrary *finite* delay
//!   (drawn from a [`LatencyModel`]);
//! * **ordered channels** (used by P1/P2): messages between the same ordered
//!   pair of nodes are delivered in the order sent, because a channel clock
//!   prevents a later message from overtaking an earlier one;
//! * **atomic steps**: a process handles one event at a time, so the
//!   algorithm's note that "each step A0, A1, A2, once started, must be
//!   completed before the process can send or receive other messages" holds
//!   by construction.
//!
//! Those guarantees hold on the *fault-free* network. A
//! [`crate::faults::FaultPlan`] (installed via [`SimBuilder::faults`])
//! deliberately breaks them — loss, duplication, reordering, crashes and
//! partitions — and the reliable-delivery layer
//! ([`SimBuilder::reliable`], see [`crate::reliable`]) rebuilds them on
//! top of the faulty wire.
//!
//! Determinism: with the same seed, topology, workload and fault plan, a
//! run produces an identical event sequence, trace and metrics.
//!
//! # Examples
//!
//! A two-node ping-pong:
//!
//! ```
//! use simnet::sim::{Context, NodeId, Process, SimBuilder};
//!
//! struct Pinger { peer: NodeId, remaining: u32 }
//!
//! impl Process<u32> for Pinger {
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         if ctx.id() == NodeId(0) {
//!             ctx.send(self.peer, 0);
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: NodeId, n: u32) {
//!         if self.remaining > 0 {
//!             self.remaining -= 1;
//!             ctx.send(self.peer, n + 1);
//!         }
//!     }
//! }
//!
//! let mut sim = SimBuilder::new().seed(1).build::<u32, Pinger>();
//! let a = sim.add_node(Pinger { peer: NodeId(1), remaining: 3 });
//! let b = sim.add_node(Pinger { peer: NodeId(0), remaining: 3 });
//! assert_eq!((a, b), (NodeId(0), NodeId(1)));
//! let outcome = sim.run_to_quiescence(1_000);
//! assert!(outcome.quiescent);
//! ```

use std::fmt;

use crate::equeue::{EntryId, EventQueue};
use crate::faults::{DropReason, FaultPlan, FaultState, SendFate};
use crate::latency::LatencyModel;
use crate::metrics::{builtin, Metrics};
use crate::reliable::{ReliableConfig, ReliableState, RetransmitVerdict};
use crate::rng::DetRng;
use crate::shard::{place, Req, Shard, ShardLocal, Windows};
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};

/// RNG substream id for fault-injection decisions (see
/// [`crate::rng::DetRng::fork`]): keeps fault draws off the main latency
/// stream so an empty plan leaves runs bit-identical.
const FAULT_RNG_STREAM: u64 = 0xFA17;

/// Base RNG substream id for explore mode's per-node streams: node `i`
/// draws its latency and timer jitter from
/// `fork(EXPLORE_NODE_STREAM_BASE + i)`.
const EXPLORE_NODE_STREAM_BASE: u64 = 0x4E0D_E000_0000;

/// Base RNG substream id for explore mode's per-sender fault streams.
const EXPLORE_FAULT_STREAM_BASE: u64 = 0xFA17_E000_0000;

/// Explore-mode state (see [`SimBuilder::explore`] and
/// [`crate::explore`]): everything that makes a node's observable
/// behaviour a function of *which* events it handled rather than of the
/// global order unrelated events ran in. Latency and timer-jitter draws
/// come from the acting node's substream, fault decisions from the wire
/// sender's substream, and [`Context::event_seq`] reports a monotone
/// execution counter so `(time, seq)`-sorted external journals always
/// agree with execution order under any same-tick interleaving.
struct ExploreState {
    /// Fork source for the lazily grown per-node streams below.
    base: DetRng,
    node_rngs: Vec<DetRng>,
    fault_rngs: Vec<DetRng>,
    /// Events dispatched so far; exposed as `cur_seq` in explore mode.
    executed: u64,
}

impl ExploreState {
    fn new(seed: u64) -> Self {
        ExploreState {
            base: DetRng::seed_from_u64(seed),
            node_rngs: Vec::new(),
            fault_rngs: Vec::new(),
            executed: 0,
        }
    }

    fn node_rng(&mut self, node: NodeId) -> &mut DetRng {
        while self.node_rngs.len() <= node.0 {
            let i = self.node_rngs.len() as u64;
            self.node_rngs
                .push(self.base.fork(EXPLORE_NODE_STREAM_BASE + i));
        }
        &mut self.node_rngs[node.0]
    }

    fn fault_rng(&mut self, sender: NodeId) -> &mut DetRng {
        while self.fault_rngs.len() <= sender.0 {
            let i = self.fault_rngs.len() as u64;
            self.fault_rngs
                .push(self.base.fork(EXPLORE_FAULT_STREAM_BASE + i));
        }
        &mut self.fault_rngs[sender.0]
    }
}

/// Identifies a simulated process (a vertex of the wait-for graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifies a pending timer, for cancellation.
///
/// Internally this is the scheduler's generation-stamped slot handle
/// (see [`crate::equeue`]), so cancellation removes the timer event from
/// the queue in `O(log n)` — there is no tombstone set to grow — and a
/// stale id (timer already fired or cancelled) is a safe no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// A simulated process.
///
/// All messages of a simulation share one payload type `M`; heterogeneous
/// systems (e.g. controllers plus a coordinator) use an enum payload and an
/// enum process.
pub trait Process<M> {
    /// Called once when the simulation starts (before any message delivery).
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message addressed to this process is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Called when a timer set by this process fires (unless cancelled).
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: TimerId, tag: u64) {
        let _ = (ctx, timer, tag);
    }

    /// Called when this node restarts after a fault-plan crash.
    ///
    /// The simulator keeps every ordinary field of the process across the
    /// crash; this hook is where the implementation models its volatile /
    /// stable-storage split by clearing whatever would not have survived,
    /// and re-arming whatever a recovering node would re-arm (timers set
    /// before the crash that came due during the outage are lost).
    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }
}

/// A scheduled event.
pub(crate) enum EventKind<M> {
    Start(NodeId),
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    Timer {
        node: NodeId,
        tag: u64,
        /// The timer-slab handle of a timer armed at the window barrier,
        /// so the fired callback sees the same [`TimerId`] that
        /// `set_timer` returned. Zero for a timer armed inline (`S = 1`),
        /// whose id names the queue entry itself.
        slot: u32,
        gen: u16,
    },
    /// Fault plan: `node` goes down.
    Crash(NodeId),
    /// Fault plan: `node` comes back up.
    Restart(NodeId),
    /// Reliable layer: data packet `seq` of channel `(from, to)` arrives.
    Wire {
        from: NodeId,
        to: NodeId,
        seq: u64,
    },
    /// Reliable layer: cumulative ack for channel `(from, to)` arrives
    /// back at `from` (everything below `next` is acknowledged).
    WireAck {
        from: NodeId,
        to: NodeId,
        next: u64,
    },
    /// Reliable layer: retransmission timer for `(from, to, seq)` after
    /// `attempt` transmissions.
    Retransmit {
        from: NodeId,
        to: NodeId,
        seq: u64,
        attempt: u32,
    },
}

/// Coarse classification of the next scheduled event, returned by
/// [`Simulation::peek_event`]. Deliberately lossy: it exposes exactly what
/// an external single-stepping harness can act on (the payload of a raw
/// delivery, a timer's tag) and collapses the rest.
#[derive(Debug)]
pub enum PendingEvent<'a, M> {
    /// A raw message delivery; the payload is visible ahead of time.
    Deliver(&'a M),
    /// A pending timer with its user tag.
    Timer {
        /// The tag passed to [`Context::set_timer`].
        tag: u64,
    },
    /// A reliable-layer data packet arrival. Its payload (possibly several
    /// messages, possibly none) is only determined at delivery time, so
    /// harnesses must treat it as "could deliver anything".
    Wire,
    /// Bookkeeping that delivers no payload: node starts, crash/restart
    /// markers, acks, retransmission checks.
    Other,
}

/// A schedulable event at the frontier time, as exposed by
/// [`Simulation::frontier_events`] to the schedule-space explorer
/// ([`crate::explore`]): the scheduler key plus a payload-free
/// classification carrying exactly the node identities the commutation
/// relation needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierEvent {
    /// The frontier's virtual time (identical across one frontier).
    pub at: SimTime,
    /// The event's creation sequence number — unique within a run, the
    /// explorer's stable name for this event and the argument to
    /// [`Simulation::step_seq`].
    pub seq: u64,
    /// What the event would do, reduced to its touch set.
    pub class: EventClass,
}

/// Payload-free classification of a pending event, carrying the node
/// identities that determine its *touch set* — the processes whose
/// state (including transport and per-channel state keyed by them) the
/// event may read or write. Two same-time events commute in explore
/// mode iff their touch sets are disjoint (DESIGN §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// `on_start` of `node`.
    Start(NodeId),
    /// Raw delivery on channel `from → to`; runs `to`'s handler.
    Deliver {
        /// Sending node (identifies the FIFO channel; the event itself
        /// only touches `to`).
        from: NodeId,
        /// Receiving node.
        to: NodeId,
    },
    /// Timer with `tag` firing at `node`.
    Timer {
        /// Owning node.
        node: NodeId,
        /// The tag passed to [`Context::set_timer`].
        tag: u64,
    },
    /// Fault-plan crash marker for `node`.
    Crash(NodeId),
    /// Fault-plan restart marker for `node`.
    Restart(NodeId),
    /// Reliable-layer data packet on channel `from → to`: runs `to`'s
    /// handlers *and* moves the payload out of `from`'s retransmit
    /// buffer, so it touches both ends.
    Wire {
        /// Sending node (its retransmit buffer is read).
        from: NodeId,
        /// Receiving node.
        to: NodeId,
    },
    /// Reliable-layer cumulative ack for channel `from → to` arriving
    /// back at `from`.
    WireAck {
        /// The channel's sender, whose transport state the ack mutates.
        from: NodeId,
        /// The channel's receiver (not touched by the ack arrival).
        to: NodeId,
    },
    /// Retransmission check on `from`'s sender state for channel
    /// `from → to`.
    Retransmit {
        /// The channel's sender, whose transport state is checked.
        from: NodeId,
        /// The channel's receiver (a re-sent packet is a *new* event).
        to: NodeId,
    },
}

impl EventClass {
    /// The touch set: the one or two nodes whose state the event may
    /// read or write when it runs.
    pub fn touches(&self) -> (NodeId, Option<NodeId>) {
        match *self {
            EventClass::Start(n)
            | EventClass::Timer { node: n, .. }
            | EventClass::Crash(n)
            | EventClass::Restart(n) => (n, None),
            EventClass::Deliver { to, .. } => (to, None),
            EventClass::Wire { from, to } => (to, Some(from)),
            EventClass::WireAck { from, .. } => (from, None),
            EventClass::Retransmit { from, .. } => (from, None),
        }
    }

    /// True when `self` and `other` *conflict*: their touch sets
    /// intersect, so the order the two events run in can change
    /// observable behaviour. Same-time events that do not conflict
    /// commute in explore mode ([`SimBuilder::explore`]) — the premise
    /// of the explorer's partial-order reduction.
    pub fn conflicts_with(&self, other: &EventClass) -> bool {
        let (a0, a1) = self.touches();
        let (b0, b1) = other.touches();
        a0 == b0 || a1 == Some(b0) || b1 == Some(a0) || (a1.is_some() && a1 == b1)
    }
}

impl<M> EventKind<M> {
    fn classify(&self) -> EventClass {
        match *self {
            EventKind::Start(n) => EventClass::Start(n),
            EventKind::Deliver { from, to, .. } => EventClass::Deliver { from, to },
            EventKind::Timer { node, tag, .. } => EventClass::Timer { node, tag },
            EventKind::Crash(n) => EventClass::Crash(n),
            EventKind::Restart(n) => EventClass::Restart(n),
            EventKind::Wire { from, to, .. } => EventClass::Wire { from, to },
            EventKind::WireAck { from, to, .. } => EventClass::WireAck { from, to },
            EventKind::Retransmit { from, to, .. } => EventClass::Retransmit { from, to },
        }
    }

    /// The node whose shard holds the event: the handling node, or — for
    /// transport events — the channel's *receiver*, so both halves of a
    /// channel's state stay local to the events that touch them.
    pub(crate) fn dst(&self) -> NodeId {
        match *self {
            EventKind::Start(n)
            | EventKind::Crash(n)
            | EventKind::Restart(n)
            | EventKind::Timer { node: n, .. } => n,
            EventKind::Deliver { to, .. }
            | EventKind::Wire { to, .. }
            | EventKind::WireAck { to, .. }
            | EventKind::Retransmit { to, .. } => to,
        }
    }

    /// True for message-bearing events (see
    /// [`Simulation::in_flight_messages`]).
    pub(crate) fn in_flight(&self) -> bool {
        matches!(
            self,
            EventKind::Deliver { .. } | EventKind::Wire { .. } | EventKind::Retransmit { .. }
        )
    }

    /// The lossy view [`Simulation::peek_event`] exposes.
    pub(crate) fn pending(&self) -> PendingEvent<'_, M> {
        match self {
            EventKind::Deliver { msg, .. } => PendingEvent::Deliver(msg),
            EventKind::Timer { tag, .. } => PendingEvent::Timer { tag: *tag },
            EventKind::Wire { .. } => PendingEvent::Wire,
            EventKind::Start(_)
            | EventKind::Crash(_)
            | EventKind::Restart(_)
            | EventKind::WireAck { .. }
            | EventKind::Retransmit { .. } => PendingEvent::Other,
        }
    }
}

/// Everything a process may touch while handling an event.
///
/// Obtained only as an argument to [`Process`] callbacks or
/// [`Simulation::with_node`].
///
/// A context is also where the two effect modes part (see
/// [`crate::shard`]): with the sequencer in hand (`S = 1`) every side
/// effect is applied inline; without it (`S > 1`) the effect is logged on
/// the shard and replayed, in `S = 1` order, at the window barrier.
pub struct Context<'a, M> {
    node: NodeId,
    pub(crate) local: &'a mut ShardLocal<M>,
    seqr: Option<&'a mut Sequencer>,
}

impl<M> fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("node", &self.node)
            .field("now", &self.local.now)
            .finish_non_exhaustive()
    }
}

impl<'a, M: fmt::Debug + Clone> Context<'a, M> {
    pub(crate) fn new(
        node: NodeId,
        local: &'a mut ShardLocal<M>,
        seqr: Option<&'a mut Sequencer>,
    ) -> Self {
        Context { node, local, seqr }
    }

    /// The id of the process handling the current event.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.local.now
    }

    /// Number of nodes in the simulation.
    pub fn node_count(&self) -> usize {
        match &self.seqr {
            Some(seqr) => seqr.node_count,
            None => self.local.node_count,
        }
    }

    /// The global sequence number of the event this handler is running
    /// for — a stable total order over handler activations, identical
    /// at every shard count (the barrier replay preserves seq assignment;
    /// see DESIGN §12). Driver code run via `with_node` returns
    /// `u64::MAX`: it executes after every already-processed same-tick
    /// handler.
    ///
    /// External recorders shared across nodes (e.g. a validation journal)
    /// should order same-time records by this key: appends from the
    /// threaded handler phase of a sharded run interleave by thread
    /// schedule, and `(now, event_seq)` restores the canonical order.
    pub fn event_seq(&self) -> u64 {
        self.local.cur_seq
    }

    /// Sends `msg` to `to`; it will be delivered after a latency-model delay,
    /// in FIFO order with respect to other messages on the same channel.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let from = self.node;
        match &mut self.seqr {
            Some(seqr) => seqr.send(self.local, from, to, msg),
            None => self.local.defer(Req::Send { from, to, msg }),
        }
    }

    /// Schedules `on_timer` to run after `delay` ticks with the given tag.
    pub fn set_timer(&mut self, delay: u64, tag: u64) -> TimerId {
        self.arm_timer(delay, 0, tag)
    }

    /// Schedules `on_timer` to run after `delay + U[0, max(spread, 1))`
    /// ticks: a timer staggered so that nodes arming the same period do
    /// not fire in lockstep. This offset is the only randomness a process
    /// can ask for, and the process never sees it: the engine draws it
    /// where the timer is armed, in global event order like a latency
    /// draw, so a run is identical at every shard count. Exactly one draw
    /// per call, whatever `spread` is.
    pub fn set_timer_jittered(&mut self, delay: u64, spread: u64, tag: u64) -> TimerId {
        self.arm_timer(delay, spread.max(1), tag)
    }

    fn arm_timer(&mut self, delay: u64, spread: u64, tag: u64) -> TimerId {
        match &mut self.seqr {
            Some(seqr) => TimerId(
                seqr.arm_timer(self.local, self.node, delay, spread, tag, (0, 0))
                    .raw(),
            ),
            None => self.local.arm_timer(self.node, delay, spread, tag),
        }
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown timer
    /// is a no-op.
    ///
    /// The timer event is removed from the scheduler immediately: a
    /// cancelled timer neither occupies queue memory nor counts as an
    /// event when its due time passes.
    ///
    /// A [`TimerId`] is private to the node that armed it: only that
    /// node's own handlers (or driver code running against it) may cancel
    /// it. Shipping an id to another node and cancelling there is
    /// unsupported — with `S > 1` a cancel that crosses shards resolves
    /// at the window barrier, which loses the same-tick race against the
    /// timer firing that `S = 1` decides by event seq (debug builds
    /// assert; see DESIGN §12).
    pub fn cancel_timer(&mut self, id: TimerId) {
        match &self.seqr {
            Some(_) => {
                self.local.queue.remove(EntryId::from_raw(id.0));
            }
            None => self.local.cancel_timer(id),
        }
    }

    /// Increments the metric counter named `kind`.
    pub fn count(&mut self, kind: &'static str) {
        self.count_n(kind, 1);
    }

    /// Adds `n` to the metric counter named `kind`.
    pub fn count_n(&mut self, kind: &'static str, n: u64) {
        match &mut self.seqr {
            Some(seqr) => seqr.metrics.add(kind, n),
            None => self.local.metrics.add(kind, n),
        }
    }

    /// True when the event trace is recording. Callers building annotation
    /// strings (e.g. `ctx.note(format!(...))`) should skip the formatting
    /// entirely when this is off, so a disabled trace allocates nothing.
    pub fn tracing(&self) -> bool {
        self.local.tracing
    }

    /// Records a free-form trace annotation (no-op when tracing is off).
    pub fn note(&mut self, text: impl Into<String>) {
        let node = self.node;
        self.trace(|at| TraceEvent::Note {
            at,
            node,
            text: text.into(),
        });
    }

    /// Stops the simulation after the current event completes (with
    /// `S > 1`: after the current window's barrier).
    pub fn halt(&mut self) {
        self.local.halted = true;
    }

    // ---- What `Shard::handle` does beyond the public operations ----

    /// Records the event `make` builds for the current time, if tracing
    /// is on: straight onto the trace inline, else as a fragment of the
    /// shard's window log that the barrier stitches in order.
    pub(crate) fn trace(&mut self, make: impl FnOnce(SimTime) -> TraceEvent) {
        if !self.local.tracing {
            return;
        }
        let ev = make(self.local.now);
        match &mut self.seqr {
            Some(seqr) => seqr.trace.push(ev),
            None => self.local.log_trace(ev),
        }
    }

    /// [`Context::trace`] for an event that carries a summary of `what`.
    pub(crate) fn trace_summary(
        &mut self,
        what: &impl fmt::Debug,
        make: impl FnOnce(SimTime, String) -> TraceEvent,
    ) {
        // cmh-lint: allow(D7) — the handler's one summary site; `trace` only calls this closure with tracing on (= Trace::is_enabled).
        self.trace(|at| make(at, summarize(what)));
    }

    /// The [`TimerId`] `set_timer` returned for the timer that just fired
    /// out of queue entry `entry` carrying slab handle `(slot, gen)`.
    pub(crate) fn fired_timer(&mut self, entry: EntryId, slot: u32, gen: u16) -> TimerId {
        match &self.seqr {
            // The popped entry's handle is the id (generations only
            // change on slot reuse).
            Some(_) => TimerId(entry.raw()),
            None => self.local.fired_timer(slot, gen),
        }
    }

    /// Mirrors a crash-flag flip the shard just made into the sequencer's
    /// flags, which the send path and [`Simulation::is_crashed`] read.
    pub(crate) fn crash_flip(&mut self, node: NodeId, down: bool) {
        match &mut self.seqr {
            Some(seqr) => {
                seqr.set_crashed(node, down);
            }
            None => self.local.defer(Req::CrashFlip { node, down }),
        }
    }

    /// Sends the cumulative ack for data channel `(from, to)`.
    pub(crate) fn send_ack(&mut self, from: NodeId, to: NodeId, next: u64) {
        match &mut self.seqr {
            Some(seqr) => seqr.send_ack(self.local, from, to, next),
            None => self.local.defer(Req::SendAck { from, to, next }),
        }
    }

    /// Applies what the retransmission timer of `(from, to, seq)` decided.
    pub(crate) fn retransmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        seq: u64,
        attempt: u32,
        verdict: RetransmitVerdict,
    ) {
        match &mut self.seqr {
            Some(seqr) => seqr.retransmit(self.local, from, to, seq, attempt, verdict),
            None if verdict == RetransmitVerdict::Done => {}
            None => self.local.defer(Req::Retransmit {
                from,
                to,
                seq,
                attempt,
                verdict,
            }),
        }
    }
}

/// Where a [`Sequencer`]'s output lands: the lone shard ([`ShardLocal`])
/// when a handler's effects apply inline, else the shard vector, where an
/// event goes to the queue of shard `dst mod S` and a channel's state
/// lives on its receiver's shard.
pub(crate) trait Sink {
    /// The simulation's payload type.
    type Msg: fmt::Debug + Clone;

    /// Stores `ev` under scheduler key `(at, seq)`.
    fn push(&mut self, at: SimTime, seq: u64, ev: EventKind<Self::Msg>) -> EntryId;

    /// The reliable-transport state holding the channels into `to`;
    /// `None` when the layer is off.
    fn reliable(&mut self, to: NodeId) -> Option<&mut ReliableState<Self::Msg>>;
}

/// The single owner of everything *globally ordered* in a run — virtual
/// time, the event sequence counter, the latency and fault RNG streams,
/// FIFO channel clocks, crash flags, metrics and the trace — and with
/// them the wire semantics (send → fault → FIFO clock → reliable). Its
/// methods are called inline from the handlers when there is one shard,
/// and from the window barrier — which replays the handlers' deferred
/// requests in that same order — when there are more (see
/// [`crate::shard`]).
pub(crate) struct Sequencer {
    pub(crate) now: SimTime,
    seq: u64,
    /// Per-channel FIFO clocks: one [`ClockRow`] per sender. A lookup is
    /// one indexed load plus a search over that sender's out-degree,
    /// whatever N is (one sorted map keyed `(from, to)` is a descent
    /// through every channel of the run on each send; a dense `[from][to]`
    /// table is O(N²) memory). Rows appear at the first FIFO send, entries
    /// at a channel's, so memory is O(nodes + channels used).
    channel_clock: Vec<ClockRow>,
    pub(crate) latency: LatencyModel,
    pub(crate) rng: DetRng,
    pub(crate) metrics: Metrics,
    pub(crate) trace: Trace,
    pub(crate) node_count: usize,
    fifo: bool,
    faults: Option<FaultState>,
    /// Crash flags, indexed by node (grown on demand) — consulted on every
    /// send and by the public accessor. A mirror: the flags an event's
    /// handler consults live on the owning shard, which flips both.
    crashed: Vec<bool>,
    /// Explore-mode state; `None` outside [`SimBuilder::explore`] builds
    /// (so always with `S > 1`), leaving every other configuration
    /// bit-identical to before.
    explore: Option<ExploreState>,
}

/// One sender's FIFO channel clocks, `(receiver, clock)` per channel it
/// has used. The first two channels live inline — a vertex of a closed
/// cycle sends probes to its successor and §5 messages to its predecessor,
/// so two is its working set and most rows never own a heap block — and a
/// third spills the row into a vector sorted by receiver.
enum ClockRow {
    /// Slots fill in order; a free slot's receiver is [`ClockRow::FREE`].
    Inline([(usize, SimTime); 2]),
    Spilled(Vec<(usize, SimTime)>),
}

impl ClockRow {
    /// No receiver: [`NodeId`]s index the node table, so none reaches it.
    const FREE: usize = usize::MAX;
    const EMPTY: ClockRow = ClockRow::Inline([(Self::FREE, SimTime::ZERO); 2]);

    /// The clock of the channel to `to`, created at `SimTime::ZERO`.
    fn clock_mut(&mut self, to: usize) -> &mut SimTime {
        // Slots fill in order: a taken second slot means both are.
        if let ClockRow::Inline(slots) = self {
            let [(a, _), (b, _)] = *slots;
            if b != Self::FREE && a != to && b != to {
                let mut row = Vec::with_capacity(4);
                row.extend_from_slice(slots);
                row.push((to, SimTime::ZERO));
                row.sort_unstable_by_key(|&(r, _)| r);
                *self = ClockRow::Spilled(row);
            }
        }
        match self {
            ClockRow::Spilled(row) => {
                let i = row
                    .binary_search_by_key(&to, |&(r, _)| r)
                    .unwrap_or_else(|i| {
                        row.insert(i, (to, SimTime::ZERO));
                        i
                    });
                &mut row[i].1
            }
            ClockRow::Inline(slots) => {
                let i = usize::from(slots[0].0 != to && slots[0].0 != Self::FREE);
                slots[i].0 = to;
                &mut slots[i].1
            }
        }
    }

    /// The receivers this sender has a clock for, ascending.
    #[cfg(test)]
    fn receivers(&self) -> Vec<usize> {
        let mut out: Vec<usize> = match self {
            ClockRow::Inline(slots) => slots.iter().map(|&(r, _)| r).collect(),
            ClockRow::Spilled(row) => row.iter().map(|&(r, _)| r).collect(),
        };
        out.retain(|&r| r != Self::FREE);
        out.sort_unstable();
        out
    }
}

impl Sequencer {
    /// Assigns the next global seq to `ev` and hands it to `sink`.
    pub(crate) fn schedule<S: Sink>(
        &mut self,
        sink: &mut S,
        at: SimTime,
        ev: EventKind<S::Msg>,
    ) -> EntryId {
        let seq = self.seq;
        self.seq += 1;
        sink.push(at, seq, ev)
    }

    /// Schedules every node's `Start` and the fault plan's crash/restart
    /// windows; they are plain events, ordered with everything else.
    pub(crate) fn start<S: Sink>(&mut self, sink: &mut S) {
        for i in 0..self.node_count {
            self.schedule(sink, SimTime::ZERO, EventKind::Start(NodeId(i)));
        }
        if let Some(f) = &self.faults {
            let crashes = f.plan().crashes.clone();
            for c in crashes {
                self.schedule(sink, c.at, EventKind::Crash(c.node));
                if let Some(back) = c.restart_at {
                    self.schedule(sink, back.max(c.at), EventKind::Restart(c.node));
                }
            }
        }
    }

    /// Schedules `node`'s timer `delay` plus a jitter drawn below `spread`
    /// (no draw when 0) — at least one tick in all — from now, carrying
    /// slab handle `(slot, gen)`. The draw is keyed like a latency draw:
    /// the global stream, or the arming node's in explore mode.
    pub(crate) fn arm_timer<S: Sink>(
        &mut self,
        sink: &mut S,
        node: NodeId,
        delay: u64,
        spread: u64,
        tag: u64,
        (slot, gen): (u32, u16),
    ) -> EntryId {
        let jitter = match (spread, &mut self.explore) {
            (0, _) => 0,
            (n, Some(ex)) => ex.node_rng(node).next_below(n),
            (n, None) => self.rng.next_below(n),
        };
        let at = self.now + (delay + jitter).max(1);
        let ev = EventKind::Timer {
            node,
            tag,
            slot,
            gen,
        };
        self.schedule(sink, at, ev)
    }

    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.get(node.0).copied().unwrap_or(false)
    }

    /// Sets `node`'s crash flag; returns `true` if the flag changed.
    pub(crate) fn set_crashed(&mut self, node: NodeId, down: bool) -> bool {
        if self.crashed.len() <= node.0 {
            self.crashed.resize(node.0 + 1, false);
        }
        let changed = self.crashed[node.0] != down;
        self.crashed[node.0] = down;
        changed
    }

    fn channel_clock_mut(&mut self, from: NodeId, to: NodeId) -> &mut SimTime {
        if self.channel_clock.len() <= from.0 {
            let rows = self.node_count.max(from.0 + 1);
            self.channel_clock.resize_with(rows, || ClockRow::EMPTY);
        }
        self.channel_clock[from.0].clock_mut(to.0)
    }

    /// One latency draw for a transmission whose wire-level sender is
    /// `from`. In every send path the wire sender *is* the acting node
    /// (acks are sent by the receiving end of the data channel), so
    /// explore mode can key the draw by `from` and stay independent of
    /// unrelated nodes' activity; outside explore mode this is the
    /// global stream, unchanged.
    fn sample_latency(&mut self, from: NodeId, to: NodeId) -> u64 {
        match &mut self.explore {
            Some(ex) => self.latency.sample(ex.node_rng(from), from, to),
            None => self.latency.sample(&mut self.rng, from, to),
        }
    }

    /// One fault-plan decision for a transmission whose wire-level
    /// sender is `wire_from`. Explore mode draws from the sender's fault
    /// substream ([`FaultState::classify_with`]) instead of the global
    /// fault stream, with the identical decision procedure.
    fn classify_send(&mut self, wire_from: NodeId, wire_to: NodeId) -> SendFate {
        let now = self.now;
        match (&mut self.faults, &mut self.explore) {
            (None, _) => SendFate::clean(),
            (Some(f), None) => f.classify(now, wire_from, wire_to),
            (Some(f), Some(ex)) => FaultState::classify_with(
                f.plan(),
                ex.fault_rng(wire_from),
                now,
                wire_from,
                wire_to,
            ),
        }
    }

    /// An application send: crashed-sender check, then the reliable or
    /// the raw path with its latency/fault draws.
    pub(crate) fn send<S: Sink>(&mut self, sink: &mut S, from: NodeId, to: NodeId, msg: S::Msg) {
        if self.is_crashed(from) {
            // A crashed node cannot reach the wire (this arises only from
            // driver injection via `with_node`; a crashed node's own
            // callbacks are suppressed).
            self.metrics.inc(builtin::MESSAGES_DROPPED);
            if let Some(summary) = self.trace.is_enabled().then(|| summarize(&msg)) {
                let at = self.now;
                self.trace.push(TraceEvent::Drop {
                    at,
                    from,
                    to,
                    summary,
                    reason: DropReason::CrashedSender,
                });
            }
            return;
        }
        if sink.reliable(to).is_some() {
            self.send_reliable(sink, from, to, msg);
        } else {
            self.send_raw(sink, from, to, msg);
        }
    }

    /// The unprotected send path: one latency sample, straight onto the
    /// (possibly faulty) wire. Fault-free, this is byte-identical to the
    /// original simulator.
    fn send_raw<S: Sink>(&mut self, sink: &mut S, from: NodeId, to: NodeId, msg: S::Msg) {
        let delay = self.sample_latency(from, to);
        let fate = self.classify_send(from, to);
        self.metrics.inc(builtin::MESSAGES_SENT);
        let (duplicate, extra_delay) = match fate {
            SendFate::Lost(reason) => {
                // Record the send and its drop as a pair, so trace
                // consumers can account for every message.
                self.metrics.inc(builtin::MESSAGES_DROPPED);
                if let Some(summary) = self.trace.is_enabled().then(|| summarize(&msg)) {
                    let at = self.now;
                    self.trace.push(TraceEvent::Send {
                        at,
                        from,
                        to,
                        deliver_at: at + delay,
                        summary: summary.clone(),
                    });
                    self.trace.push(TraceEvent::Drop {
                        at,
                        from,
                        to,
                        summary,
                        reason,
                    });
                }
                return;
            }
            SendFate::Deliver {
                duplicate,
                extra_delay,
            } => (duplicate, extra_delay),
        };
        let deliver_at = if extra_delay > 0 {
            // Reorder fault: bypass the channel clock (so later messages
            // can overtake this one) and do not drag the clock forward.
            self.now + delay + extra_delay
        } else if self.fifo {
            // FIFO discipline: never schedule a delivery earlier than the
            // last one on the same channel. Equal times are untied by `seq`.
            let now = self.now;
            let clock = self.channel_clock_mut(from, to);
            let at = (*clock).max(now + delay);
            *clock = at;
            at
        } else {
            // Ablation mode: messages may overtake each other, violating
            // the paper's ordered-delivery assumption (see SimBuilder::fifo).
            self.now + delay
        };
        if let Some(summary) = self.trace.is_enabled().then(|| summarize(&msg)) {
            self.trace.push(TraceEvent::Send {
                at: self.now,
                from,
                to,
                deliver_at,
                summary,
            });
        }
        if duplicate {
            let extra_copy_at = self.now + self.sample_latency(from, to);
            self.metrics.inc(builtin::MESSAGES_DUPLICATED);
            if let Some(summary) = self.trace.is_enabled().then(|| summarize(&msg)) {
                let at = self.now;
                self.trace.push(TraceEvent::Duplicate {
                    at,
                    from,
                    to,
                    deliver_at: extra_copy_at,
                    summary,
                });
            }
            // The one legal clone on the raw path: a duplication fault
            // genuinely needs a second copy on the wire.
            let copy = EventKind::Deliver {
                from,
                to,
                msg: msg.clone(),
            };
            self.schedule(sink, extra_copy_at, copy);
        }
        self.schedule(sink, deliver_at, EventKind::Deliver { from, to, msg });
    }

    /// The protected send path: assign a channel sequence number, buffer
    /// the payload for retransmission, put the first copy on the wire and
    /// arm the retransmission timer.
    fn send_reliable<S: Sink>(&mut self, sink: &mut S, from: NodeId, to: NodeId, msg: S::Msg) {
        self.metrics.inc(builtin::MESSAGES_SENT);
        let summary = self.trace.is_enabled().then(|| summarize(&msg));
        let rel = sink.reliable(to).expect("reliable state present");
        let (seq, rto) = rel.enqueue(from, to, msg);
        let delay = self.sample_latency(from, to);
        if let Some(summary) = summary {
            self.trace.push(TraceEvent::Send {
                at: self.now,
                from,
                to,
                deliver_at: self.now + delay,
                summary,
            });
        }
        self.transmit_packet(sink, from, to, seq, delay);
        let rearm = EventKind::Retransmit {
            from,
            to,
            seq,
            attempt: 1,
        };
        self.schedule(sink, self.now + rto, rearm);
    }

    /// Puts one copy of reliable data packet `(from, to, seq)` on the
    /// faulty wire. The reliable layer never consults the FIFO channel
    /// clock: ordering is restored by sequence numbers at the receiver.
    fn transmit_packet<S: Sink>(
        &mut self,
        sink: &mut S,
        from: NodeId,
        to: NodeId,
        seq: u64,
        delay: u64,
    ) {
        let fate = self.classify_send(from, to);
        match fate {
            SendFate::Lost(reason) => {
                self.metrics.inc(builtin::MESSAGES_DROPPED);
                if let Some(summary) = self.trace.is_enabled().then(|| format!("pkt seq={seq}")) {
                    let at = self.now;
                    self.trace.push(TraceEvent::Drop {
                        at,
                        from,
                        to,
                        summary,
                        reason,
                    });
                }
            }
            SendFate::Deliver {
                duplicate,
                extra_delay,
            } => {
                let at = self.now + delay + extra_delay;
                self.schedule(sink, at, EventKind::Wire { from, to, seq });
                if duplicate {
                    let extra_copy_at = self.now + self.sample_latency(from, to);
                    self.metrics.inc(builtin::MESSAGES_DUPLICATED);
                    let summary = self.trace.is_enabled().then(|| format!("pkt seq={seq}"));
                    if let Some(summary) = summary {
                        let at = self.now;
                        self.trace.push(TraceEvent::Duplicate {
                            at,
                            from,
                            to,
                            deliver_at: extra_copy_at,
                            summary,
                        });
                    }
                    self.schedule(sink, extra_copy_at, EventKind::Wire { from, to, seq });
                }
            }
        }
    }

    /// Sends a cumulative ack for data channel `(from, to)` back across
    /// the faulty wire (direction `to` → `from`).
    pub(crate) fn send_ack<S: Sink>(&mut self, sink: &mut S, from: NodeId, to: NodeId, next: u64) {
        self.metrics.inc(builtin::ACKS_SENT);
        // The wire-level sender of the ack is `to` (the data channel's
        // receiving end), which is also the node handling this event.
        let delay = self.sample_latency(to, from);
        let fate = self.classify_send(to, from);
        match fate {
            SendFate::Lost(reason) => {
                self.metrics.inc(builtin::MESSAGES_DROPPED);
                if let Some(summary) = self.trace.is_enabled().then(|| format!("ack next={next}")) {
                    let at = self.now;
                    self.trace.push(TraceEvent::Drop {
                        at,
                        from: to,
                        to: from,
                        summary,
                        reason,
                    });
                }
            }
            SendFate::Deliver {
                duplicate,
                extra_delay,
            } => {
                if self.trace.is_enabled() {
                    let at = self.now;
                    self.trace.push(TraceEvent::Ack {
                        at,
                        from: to,
                        to: from,
                        next,
                    });
                }
                let at = self.now + delay + extra_delay;
                self.schedule(sink, at, EventKind::WireAck { from, to, next });
                if duplicate {
                    let extra_copy_at = self.now + self.sample_latency(to, from);
                    self.metrics.inc(builtin::MESSAGES_DUPLICATED);
                    self.schedule(sink, extra_copy_at, EventKind::WireAck { from, to, next });
                }
            }
        }
    }

    /// Applies what a due retransmission timer for `(from, to, seq)`
    /// decided ([`ReliableState::retransmit_due`]) after `attempt`
    /// transmissions: count the abandonment, or put another copy on the
    /// wire and re-arm the timer.
    pub(crate) fn retransmit<S: Sink>(
        &mut self,
        sink: &mut S,
        from: NodeId,
        to: NodeId,
        seq: u64,
        attempt: u32,
        verdict: RetransmitVerdict,
    ) {
        match verdict {
            RetransmitVerdict::Done => {}
            RetransmitVerdict::GiveUp => {
                self.metrics.inc(builtin::DELIVERIES_ABANDONED);
                self.metrics.inc(builtin::MESSAGES_DROPPED);
                if let Some(summary) = self.trace.is_enabled().then(|| format!("pkt seq={seq}")) {
                    let at = self.now;
                    self.trace.push(TraceEvent::Drop {
                        at,
                        from,
                        to,
                        summary,
                        reason: DropReason::Abandoned,
                    });
                }
            }
            RetransmitVerdict::Retry(backoff) => {
                self.metrics.inc(builtin::RETRANSMISSIONS);
                if self.trace.is_enabled() {
                    let at = self.now;
                    self.trace.push(TraceEvent::Retransmit {
                        at,
                        from,
                        to,
                        seq,
                        attempt,
                    });
                }
                let delay = self.sample_latency(from, to);
                self.transmit_packet(sink, from, to, seq, delay);
                let rearm = EventKind::Retransmit {
                    from,
                    to,
                    seq,
                    attempt: attempt + 1,
                };
                self.schedule(sink, self.now + backoff, rearm);
            }
        }
    }
}

pub(crate) fn summarize<M: fmt::Debug>(msg: &M) -> String {
    // cmh-lint: allow(D7) — the one summary constructor; every caller gates on Trace::is_enabled.
    let mut s = format!("{msg:?}");
    if s.len() > 160 {
        s.truncate(157);
        s.push_str("...");
    }
    s
}

/// Result of driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunOutcome {
    /// Number of events processed by this call.
    pub events: u64,
    /// `true` if the event queue drained completely.
    pub quiescent: bool,
    /// `true` if a process called [`Context::halt`].
    pub halted: bool,
}

/// Window-level execution counters of a sharded run (all zero with one
/// shard, which has no windows or barriers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// One-tick windows dispatched (= barrier count), a
    /// [`Simulation::step`] being a window of one event; driver
    /// injections via [`Simulation::with_node`] are not counted.
    pub windows: u64,
    /// Wall-clock nanoseconds spent in the sequential barrier phase.
    pub barrier_nanos: u64,
}

/// Configures and creates a [`Simulation`].
#[derive(Debug, Clone)]
pub struct SimBuilder {
    latency: LatencyModel,
    seed: u64,
    trace: bool,
    fifo: bool,
    faults: FaultPlan,
    reliable: Option<ReliableConfig>,
    shards: usize,
    workers: Option<usize>,
    explore: bool,
}

impl SimBuilder {
    /// Starts a builder with default latency (uniform 1..=10), seed 0,
    /// tracing off, FIFO channels on, no faults, no reliable layer, and a
    /// single shard.
    pub fn new() -> Self {
        SimBuilder {
            latency: LatencyModel::default(),
            seed: 0,
            trace: false,
            fifo: true,
            faults: FaultPlan::default(),
            reliable: None,
            shards: 1,
            workers: None,
            explore: false,
        }
    }

    /// Puts a single-shard simulation in *explore mode*, the substrate
    /// of the schedule-space model checker (see [`crate::explore`]):
    /// latency and timer-jitter draws move from the global stream to the
    /// acting node's substream, fault decisions to the wire sender's
    /// substream, and [`Context::event_seq`] reports a monotone
    /// execution counter instead of the creation seq. Together these
    /// make same-tick events with disjoint touch sets genuinely commute
    /// — the soundness premise of the explorer's partial-order
    /// reduction (DESIGN §13). Single-schedule runs remain fully
    /// deterministic but are *not* bit-identical to non-explore builds.
    ///
    /// Building with both `explore(true)` and `shards(s > 1)` panics:
    /// exploration needs the single frontier of one shard's queue.
    pub fn explore(mut self, enabled: bool) -> Self {
        self.explore = enabled;
        self
    }

    /// Partitions the event loop into `shards` shards (node `i` lives on
    /// shard `i mod shards`). With `1` (the default) handlers' side
    /// effects apply inline, in `(time, seq)` order; with more, shards
    /// are stepped one tick at a time under the window protocol of
    /// [`crate::shard`], which defers the effects and replays them in
    /// that same order. Observable behaviour is bit-identical for any
    /// value; multi-threaded *execution* of the shards additionally
    /// requires [`SimBuilder::build_mt`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Pins the worker-thread count for a sharded run's parallel
    /// handler phase (clamped to `1..=shards`). The default is
    /// `min(available cores, shards)`, with threads engaging only on
    /// windows whose backlog amortises the pool wake-up cost (a measured
    /// 512 pending events; DESIGN §12); pinning a count is
    /// an opt-in to thread every eligible window — results are
    /// bit-identical either way, so this is only a scheduling knob (and
    /// the way tests force the threaded path on small configurations).
    /// No effect with one shard or under [`SimBuilder::build`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Enables or disables per-channel FIFO delivery.
    ///
    /// FIFO is **on by default** and is part of the paper's model
    /// ("messages are received correctly and in order"; axioms P1/P2 rest
    /// on it). Turning it off deliberately *breaks* the model — it exists
    /// for the ablation experiment that demonstrates the probe
    /// computation's guarantees genuinely depend on ordered channels.
    pub fn fifo(mut self, enabled: bool) -> Self {
        self.fifo = enabled;
        self
    }

    /// Sets the message latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables event tracing.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Installs a fault plan (message loss, duplication, reordering,
    /// crashes, partitions). The default plan injects nothing, and a no-op
    /// plan leaves runs bit-identical to a fault-free build: fault
    /// decisions draw from a forked RNG substream, never the latency
    /// stream.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Enables the reliable-delivery layer (see [`crate::reliable`]):
    /// every application message travels as a sequenced, acknowledged,
    /// retransmitted wire packet, restoring exactly-once FIFO delivery
    /// over a faulty network.
    pub fn reliable(mut self, cfg: ReliableConfig) -> Self {
        self.reliable = Some(cfg);
        self
    }

    /// Builds an empty simulation; add processes with
    /// [`Simulation::add_node`].
    ///
    /// With `shards(s > 1)` the parallel handler phase runs on the
    /// calling thread (this signature cannot prove `M`/`P` are `Send`);
    /// use [`SimBuilder::build_mt`] to capture the threading capability.
    /// Results are identical either way.
    pub fn build<M: fmt::Debug + Clone, P: Process<M>>(self) -> Simulation<M, P> {
        self.build_inner(None)
    }

    /// Like [`SimBuilder::build`], but additionally captures the
    /// multi-threading capability: with `shards(s > 1)`, windows with work
    /// on several shards are executed by a persistent pool of parked
    /// worker threads (woken per window; see [`SimBuilder::workers`] for
    /// when they engage). The
    /// `Send + 'static` bounds are only needed here — the proof is stored
    /// as a plain function pointer, so the rest of the API is bound-free.
    pub fn build_mt<M, P>(self) -> Simulation<M, P>
    where
        M: fmt::Debug + Clone + Send + 'static,
        P: Process<M> + Send + 'static,
    {
        self.build_inner(Some(crate::shard::pool_pass1::<M, P>))
    }

    fn build_inner<M: fmt::Debug + Clone, P: Process<M>>(
        self,
        par: Option<crate::shard::ParExec<M, P>>,
    ) -> Simulation<M, P> {
        assert!(
            !(self.explore && self.shards > 1),
            "explore mode needs the single frontier of one shard (shards == 1)"
        );
        let shards = (0..self.shards)
            .map(|idx| Shard::new(idx, self.shards, self.reliable, self.trace))
            .collect();
        let win = Windows::new(self.shards, par, self.workers);
        Simulation {
            shards,
            seqr: self.sequencer(),
            started: false,
            win,
        }
    }

    /// The run's [`Sequencer`]; [`crate::solo::Solo`] builds one too.
    pub(crate) fn sequencer(self) -> Sequencer {
        let rng = DetRng::seed_from_u64(self.seed);
        let faults = (!self.faults.is_noop())
            .then(|| FaultState::new(self.faults.clone(), rng.fork(FAULT_RNG_STREAM)));
        Sequencer {
            now: SimTime::ZERO,
            seq: 0,
            channel_clock: Vec::new(),
            latency: self.latency,
            rng,
            metrics: Metrics::new(),
            trace: Trace::new(self.trace),
            node_count: 0,
            fifo: self.fifo,
            faults,
            crashed: Vec::new(),
            explore: self.explore.then(|| ExploreState::new(self.seed)),
        }
    }
}

impl Default for SimBuilder {
    fn default() -> Self {
        SimBuilder::new()
    }
}

/// A deterministic discrete-event simulation over processes of type `P`
/// exchanging messages of type `M`.
///
/// One engine: the nodes are partitioned over `S` shards
/// ([`SimBuilder::shards`]), every event runs through the one handler
/// ([`crate::shard`]), and `S` only selects when a handler's side
/// effects reach the sequencer — inline with one shard, logged and
/// replayed at a window barrier with more. Observable behaviour is
/// bit-identical at any `S`.
pub struct Simulation<M, P> {
    pub(crate) shards: Vec<Shard<M, P>>,
    pub(crate) seqr: Sequencer,
    started: bool,
    pub(crate) win: Windows<M, P>,
}

impl<M, P> fmt::Debug for Simulation<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.seqr.now)
            .field("nodes", &self.seqr.node_count)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl<M: fmt::Debug + Clone, P: Process<M>> Simulation<M, P> {
    /// Adds a process and returns its id (ids are dense, starting at 0).
    #[inline]
    pub fn add_node(&mut self, process: P) -> NodeId {
        let id = NodeId(self.seqr.node_count);
        let (s, _) = place(id, self.shards.len());
        self.shards[s].procs.push(process);
        self.seqr.node_count += 1;
        id
    }

    /// Number of processes.
    pub fn node_count(&self) -> usize {
        self.seqr.node_count
    }

    /// Window-level execution counters: windows dispatched and wall-clock
    /// barrier cost. All zero with one shard.
    pub fn window_stats(&self) -> WindowStats {
        self.win.stats
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.seqr.now
    }

    /// Accumulated metrics for this run.
    pub fn metrics(&self) -> &Metrics {
        &self.seqr.metrics
    }

    /// The event trace (empty unless tracing was enabled at build time).
    pub fn trace(&self) -> &Trace {
        &self.seqr.trace
    }

    /// Immutable access to a process's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &P {
        let (s, l) = place(id, self.shards.len());
        self.shards[s].procs.get(l).expect("node id out of range")
    }

    /// True if the fault plan currently has `id` crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.seqr.is_crashed(id)
    }

    /// Number of events currently pending in the scheduler (summed across
    /// shards).
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.local.queue.len()).sum()
    }

    /// Largest number of simultaneously pending events observed so far —
    /// the scheduler's high-water mark, reported by the bench harness:
    /// the sum of per-shard high-water marks, so exact with one shard and
    /// an upper bound on the global instantaneous peak with more.
    pub fn peak_queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.local.queue.peak_depth()).sum()
    }

    /// Number of message-bearing events currently scheduled: raw
    /// deliveries, reliable-layer data packets, and pending retransmission
    /// checks (which can regenerate lost packets). Timers, acks and
    /// fault-plan markers are excluded. Zero means no protocol message can
    /// still arrive — state can only change through timers from here on,
    /// which is the quiescence signal liveness audits build on.
    pub fn in_flight_messages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.local.queue.values().filter(|k| k.in_flight()).count())
            .sum()
    }

    /// The shard holding the earliest scheduled event, with its key.
    fn min_shard(&self) -> Option<(usize, (SimTime, u64))> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i, s.next_key()?)))
            .min_by_key(|&(_, key)| key)
    }

    /// Virtual time of the earliest scheduled event, if any. Drivers that
    /// single-step with [`Simulation::step`] use this to honour a deadline
    /// the way [`Simulation::run_until`] does.
    pub fn next_event_at(&mut self) -> Option<SimTime> {
        self.ensure_started();
        self.min_shard().map(|(_, (at, _))| at)
    }

    /// Classifies the earliest scheduled event without popping it, for
    /// harnesses that single-step and need to know whether the upcoming
    /// event can matter to them (e.g. snapshot state only before events
    /// that can produce a declaration). Returned with it: the node the
    /// event runs on — the first of [`EventClass::touches`], and the only
    /// one whose *process* state it can change.
    pub fn peek_event(&mut self) -> Option<(NodeId, PendingEvent<'_, M>)> {
        self.ensure_started();
        let (i, _) = self.min_shard()?;
        self.shards[i]
            .local
            .queue
            .peek()
            .map(|(_, kind)| (kind.classify().touches().0, kind.pending()))
    }

    /// Runs `f` against a process with a live [`Context`], at the current
    /// virtual time. This is how drivers inject work (e.g. "start a
    /// transaction now") without a fake network message.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut Context<'_, M>) -> R,
    ) -> R {
        self.ensure_started();
        let inline = self.shards.len() == 1;
        let (s, l) = place(id, self.shards.len());
        let now = self.seqr.now;
        let shard = &mut self.shards[s];
        shard.local.now = now;
        // Driver code is not a handler: it runs after every already-
        // processed event, so it sorts last among same-tick activations.
        shard.local.cur_seq = u64::MAX;
        let seqr = if inline {
            Some(&mut self.seqr)
        } else {
            shard.local.open_driver_window(self.seqr.node_count);
            None
        };
        let r = f(
            &mut shard.procs[l],
            &mut Context::new(id, &mut shard.local, seqr),
        );
        if !inline {
            // Injection replays immediately — the caller must see its
            // side effects applied, as it does inline, before returning.
            self.barrier(now);
            self.flush();
        }
        r
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.seqr.start(&mut self.shards);
    }

    /// Inline mode's unit of work: removes one event from the lone
    /// shard's queue — its head, or the one `pick`ed by creation seq out
    /// of the head's tick — and runs it, every side effect applied on
    /// the spot. Returns `false` if there was no such event.
    fn run_inline(&mut self, pick: Option<u64>) -> bool {
        let (seqr, shard) = (&mut self.seqr, &mut self.shards[0]);
        let removed = match pick {
            None => shard.local.queue.pop(),
            Some(seq) => shard.local.queue.peek_key().and_then(|(t0, _)| {
                let (entry, ev) = shard.local.queue.take((t0, seq))?;
                Some((entry, (t0, seq), ev))
            }),
        };
        let Some((entry, (at, seq), ev)) = removed else {
            return false;
        };
        debug_assert!(at >= seqr.now, "time must not run backwards");
        seqr.now = at;
        shard.local.now = at;
        shard.local.cur_seq = match &mut seqr.explore {
            // Explore mode: expose the execution counter instead of the
            // creation seq, so `(time, seq)`-sorted external journals
            // agree with execution order under any same-tick
            // interleaving.
            Some(ex) => {
                let s = ex.executed;
                ex.executed += 1;
                s
            }
            None => seq,
        };
        seqr.metrics.inc(builtin::EVENTS);
        shard.handle(Some(seqr), entry, ev);
        true
    }

    /// Runs the next unit of work — with one shard the head event,
    /// inline; with more, one window of at most `limit` events — provided
    /// it starts at or before `deadline`. Returns the events handled
    /// (`Some(0)`: the next event lies past the deadline), or `None` when
    /// no events remain at all.
    fn advance(&mut self, deadline: SimTime, limit: u64) -> Option<u64> {
        if self.shards.len() > 1 {
            return self.run_window(deadline, limit);
        }
        let (at, _) = self.shards[0].next_key()?;
        Some(u64::from(at <= deadline && self.run_inline(None)))
    }

    /// Processes a single event: the minimum `(time, seq)` across shards.
    /// Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let stepped = self.advance(SimTime::MAX, 1).is_some();
        self.flush();
        stepped
    }

    /// The lone shard's queue, started — what the explorer's two entry
    /// points act on.
    fn frontier_queue(&mut self) -> &mut EventQueue<EventKind<M>> {
        assert_eq!(
            self.shards.len(),
            1,
            "the schedule frontier is one shard's queue: build with shards == 1"
        );
        self.ensure_started();
        &mut self.shards[0].local.queue
    }

    /// All events tied at the earliest scheduled time — the schedule
    /// *frontier* — as payload-free [`FrontierEvent`]s sorted by
    /// creation seq. The schedule-space explorer ([`crate::explore`])
    /// treats this set as its branch point: any member may run next via
    /// [`Simulation::step_seq`]. Empty iff the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics with more than one shard; exploration builds with one
    /// (see [`SimBuilder::explore`]).
    pub fn frontier_events(&mut self) -> Vec<FrontierEvent> {
        let queue = self.frontier_queue();
        let Some((t0, _)) = queue.peek_key() else {
            return Vec::new();
        };
        let mut out: Vec<FrontierEvent> = queue
            .entries()
            .filter(|&((at, _), _)| at == t0)
            .map(|((at, seq), kind)| FrontierEvent {
                at,
                seq,
                class: kind.classify(),
            })
            .collect();
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// Runs the frontier event with creation seq `seq` (as reported by
    /// [`Simulation::frontier_events`]) instead of the scheduler's head,
    /// realizing one schedule choice. Returns `false` when no event with
    /// that seq is pending at the frontier time — including when an
    /// earlier same-tick event cancelled it meanwhile.
    ///
    /// # Panics
    ///
    /// Panics with more than one shard; exploration builds with one
    /// (see [`SimBuilder::explore`]).
    pub fn step_seq(&mut self, seq: u64) -> bool {
        self.frontier_queue();
        self.run_inline(Some(seq))
    }

    /// Runs until the queue drains, a process halts, or `max_events` events
    /// have been processed (a liveness backstop for buggy protocols).
    pub fn run_to_quiescence(&mut self, max_events: u64) -> RunOutcome {
        self.ensure_started();
        let mut outcome = RunOutcome::default();
        while outcome.events < max_events && !self.is_halted() {
            match self.advance(SimTime::MAX, max_events - outcome.events) {
                Some(n) => outcome.events += n,
                None => {
                    outcome.quiescent = true;
                    break;
                }
            }
        }
        self.flush();
        outcome.halted = self.is_halted();
        outcome
    }

    /// Runs until virtual time exceeds `deadline`, the queue drains, or a
    /// process halts. Events scheduled at exactly `deadline` are processed.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.ensure_started();
        let mut outcome = RunOutcome::default();
        while !self.is_halted() {
            match self.advance(deadline, u64::MAX) {
                None => {
                    // Idle time still passes: a driver that advances to `t`
                    // and injects work must see the clock at `t`.
                    self.seqr.now = self.seqr.now.max(deadline);
                    outcome.quiescent = true;
                    break;
                }
                Some(0) => {
                    // Advance the clock to the deadline so repeated calls
                    // observe monotone time.
                    self.seqr.now = deadline;
                    break;
                }
                Some(n) => outcome.events += n,
            }
        }
        self.flush();
        outcome.halted = self.is_halted();
        outcome
    }

    /// True if a process requested a halt.
    pub fn is_halted(&self) -> bool {
        self.shards.iter().any(|s| s.local.halted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    enum Msg {
        Ping(u32),
    }

    struct Echo {
        peer: NodeId,
        sent: u32,
        received: Vec<u32>,
        limit: u32,
        start: bool,
    }

    impl Process<Msg> for Echo {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if self.start {
                ctx.send(self.peer, Msg::Ping(self.sent));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            let Msg::Ping(n) = msg;
            self.received.push(n);
            if n < self.limit {
                ctx.send(self.peer, Msg::Ping(n + 1));
            }
        }
    }

    fn pair(seed: u64) -> Simulation<Msg, Echo> {
        pair_with(SimBuilder::new().seed(seed).trace(true))
    }

    fn pair_with(builder: SimBuilder) -> Simulation<Msg, Echo> {
        let mut sim = builder.build();
        sim.add_node(Echo {
            peer: NodeId(1),
            sent: 0,
            received: vec![],
            limit: 10,
            start: true,
        });
        sim.add_node(Echo {
            peer: NodeId(0),
            sent: 0,
            received: vec![],
            limit: 10,
            start: false,
        });
        sim
    }

    /// Runs `scenario` — its own assertions included — at S = 1 and at
    /// S = 3, traced, and returns both runs.
    fn run_at_shard_counts<P: Process<Msg>>(
        builder: SimBuilder,
        scenario: impl Fn(SimBuilder) -> Simulation<Msg, P>,
    ) -> (Simulation<Msg, P>, Simulation<Msg, P>) {
        let builder = builder.trace(true);
        let (a, b) = (scenario(builder.clone()), scenario(builder.shards(3)));
        assert_eq!((a.shards.len(), b.shards.len()), (1, 3));
        (a, b)
    }

    /// [`run_at_shard_counts`], then asserts trace, metrics and clock are
    /// equal: there is one handler and one wire path, so the shard count
    /// must not be observable on any of their branches.
    fn at_shard_counts<P: Process<Msg>>(
        builder: SimBuilder,
        scenario: impl Fn(SimBuilder) -> Simulation<Msg, P>,
    ) {
        let (a, b) = run_at_shard_counts(builder, scenario);
        assert_eq!(a.trace().events(), b.trace().events());
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn ping_pong_terminates_and_counts() {
        let mut sim = pair(1);
        let out = sim.run_to_quiescence(1_000);
        assert!(out.quiescent);
        // 0,2,4,6,8,10 received by node 1; 1,3,5,7,9 by node 0.
        assert_eq!(sim.node(NodeId(1)).received, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(sim.node(NodeId(0)).received, vec![1, 3, 5, 7, 9]);
        assert_eq!(sim.metrics().get(builtin::MESSAGES_SENT), 11);
        assert_eq!(sim.metrics().get(builtin::MESSAGES_DELIVERED), 11);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let mut a = pair(7);
        let mut b = pair(7);
        a.run_to_quiescence(1_000);
        b.run_to_quiescence(1_000);
        assert_eq!(a.trace().events(), b.trace().events());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn different_seed_usually_different_schedule() {
        let mut a = pair(1);
        let mut b = pair(2);
        a.run_to_quiescence(1_000);
        b.run_to_quiescence(1_000);
        assert_ne!(a.trace().events(), b.trace().events());
    }

    struct Flood {
        everyone: Vec<NodeId>,
        order: Vec<(NodeId, u32)>,
    }
    impl Process<Msg> for Flood {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.id() == NodeId(0) {
                for k in 0..5u32 {
                    for &n in &self.everyone.clone() {
                        if n != ctx.id() {
                            ctx.send(n, Msg::Ping(k));
                        }
                    }
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            let Msg::Ping(n) = msg;
            self.order.push((from, n));
        }
    }

    #[test]
    fn non_fifo_mode_allows_overtaking() {
        // With wide latency spread and FIFO off, at least one of the
        // sequenced messages overtakes another.
        let builder = SimBuilder::new()
            .seed(4)
            .fifo(false)
            .latency(LatencyModel::Uniform { lo: 1, hi: 200 });
        at_shard_counts(builder, |b| {
            let mut sim = b.build::<Msg, Flood>();
            let everyone: Vec<NodeId> = (0..2).map(NodeId).collect();
            for _ in 0..2 {
                sim.add_node(Flood {
                    everyone: everyone.clone(),
                    order: vec![],
                });
            }
            sim.run_to_quiescence(10_000);
            let seqs: Vec<u32> = sim.node(NodeId(1)).order.iter().map(|&(_, n)| n).collect();
            assert_eq!(seqs.len(), 5);
            assert_ne!(
                seqs,
                vec![0, 1, 2, 3, 4],
                "expected reordering with this seed"
            );
            sim
        });
    }

    #[test]
    fn channels_are_fifo_per_pair() {
        let mut sim = SimBuilder::new()
            .seed(3)
            .latency(LatencyModel::Uniform { lo: 1, hi: 50 })
            .build::<Msg, Flood>();
        let everyone: Vec<NodeId> = (0..4).map(NodeId).collect();
        for _ in 0..4 {
            sim.add_node(Flood {
                everyone: everyone.clone(),
                order: vec![],
            });
        }
        sim.run_to_quiescence(10_000);
        for i in 1..4 {
            let seqs: Vec<u32> = sim.node(NodeId(i)).order.iter().map(|&(_, n)| n).collect();
            assert_eq!(seqs, vec![0, 1, 2, 3, 4], "FIFO violated at node {i}");
        }
    }

    /// `n` [`Flood`] nodes of which only node 0 sends: five rounds, each
    /// one message to every member of `targets` in turn.
    fn fan_out(b: SimBuilder, n: usize, targets: &[usize]) -> Simulation<Msg, Flood> {
        let mut sim = b.build::<Msg, Flood>();
        let mut everyone: Vec<NodeId> = targets.iter().map(|&t| NodeId(t)).collect();
        for _ in 0..n {
            let (everyone, order) = (std::mem::take(&mut everyone), vec![]);
            sim.add_node(Flood { everyone, order });
        }
        assert!(sim.run_to_quiescence(100_000).quiescent);
        sim
    }

    #[test]
    fn wide_fan_out_keeps_every_channel_fifo() {
        // One sender, 1 000 channels, sends interleaved across them: each
        // channel's clock is its own entry of the sender's row.
        let builder = SimBuilder::new()
            .seed(6)
            .latency(LatencyModel::Uniform { lo: 1, hi: 10 });
        at_shard_counts(builder, |b| {
            let targets: Vec<usize> = (1..=1_000).collect();
            let sim = fan_out(b, 1_001, &targets);
            for &i in &targets {
                let got: Vec<u32> = sim.node(NodeId(i)).order.iter().map(|&(_, k)| k).collect();
                assert_eq!(got, vec![0, 1, 2, 3, 4], "FIFO violated at node {i}");
            }
            assert_eq!(sim.seqr.channel_clock[0].receivers(), targets);
            sim
        });
    }

    #[test]
    fn clock_rows_hold_channels_used_not_node_ids() {
        // A receiver id far above its sender's costs one row entry, and
        // senders that never sent hold an empty inline row.
        at_shard_counts(SimBuilder::new().seed(8), |b| {
            let sim = fan_out(b, 1_001, &[1_000]);
            assert_eq!(sim.node(NodeId(1_000)).order.len(), 5);
            let rows = &sim.seqr.channel_clock;
            assert_eq!(rows.len(), 1_001);
            assert_eq!(rows[0].receivers(), [1_000]);
            let unused =
                |row: &ClockRow| matches!(row, ClockRow::Inline(_)) && row.receivers().is_empty();
            assert!(rows[1..].iter().all(unused));
            sim
        });
    }

    #[test]
    fn clock_rows_stay_fifo_across_the_spill() {
        // One, two and three receivers: the third channel moves the row
        // from its inline slots into a vector after the first round, and
        // every channel's later sends still queue behind its earlier ones.
        let builder = SimBuilder::new()
            .seed(9)
            .latency(LatencyModel::Uniform { lo: 1, hi: 10 });
        for degree in 1..=3 {
            at_shard_counts(builder.clone(), |b| {
                let targets: Vec<usize> = (1..=degree).collect();
                let sim = fan_out(b, degree + 1, &targets);
                for &i in &targets {
                    let got: Vec<u32> = sim.node(NodeId(i)).order.iter().map(|&(_, k)| k).collect();
                    assert_eq!(got, vec![0, 1, 2, 3, 4], "FIFO violated at node {i}");
                }
                let row = &sim.seqr.channel_clock[0];
                assert_eq!(row.receivers(), targets);
                assert_eq!(matches!(row, ClockRow::Spilled(_)), degree > 2);
                sim
            });
        }
    }

    #[test]
    fn non_fifo_and_reordered_sends_bypass_the_channel_clock() {
        let wide = LatencyModel::Uniform { lo: 1, hi: 200 };
        let ablation = SimBuilder::new().seed(4).fifo(false).latency(wide.clone());
        let reordered = SimBuilder::new()
            .seed(4)
            .latency(wide)
            .faults(FaultPlan::default().reorder(1.0, 50));
        for builder in [ablation, reordered] {
            at_shard_counts(builder, |b| {
                let sim = fan_out(b, 2, &[1]);
                assert_eq!(sim.node(NodeId(1)).order.len(), 5);
                assert!(sim.seqr.channel_clock.is_empty(), "no clock was consulted");
                sim
            });
        }
    }

    struct TimerProc {
        fired: Vec<u64>,
        cancel_me: Option<TimerId>,
    }
    impl Process<Msg> for TimerProc {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(10, 1);
            let id = ctx.set_timer(20, 2);
            ctx.set_timer(30, 3);
            self.cancel_me = Some(id);
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _id: TimerId, tag: u64) {
            self.fired.push(tag);
            if tag == 1 {
                if let Some(id) = self.cancel_me {
                    ctx.cancel_timer(id);
                }
            }
        }
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        at_shard_counts(SimBuilder::new().seed(0), |b| {
            let mut sim = b.build::<Msg, TimerProc>();
            sim.add_node(TimerProc {
                fired: vec![],
                cancel_me: None,
            });
            let out = sim.run_to_quiescence(100);
            assert!(out.quiescent);
            assert_eq!(sim.node(NodeId(0)).fired, vec![1, 3]);
            assert_eq!(sim.metrics().get(builtin::TIMERS_FIRED), 2);
            sim
        });
    }

    /// Both nodes arm a timer for tick 5 and one for tick 50; node 0's
    /// tick-5 timer (the lower seq of the two) halts the run.
    struct Halter {
        fired: u32,
    }
    impl Process<Msg> for Halter {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(5, 0);
            ctx.set_timer(50, 1);
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: TimerId, tag: u64) {
            assert_eq!(tag, 0, "event at a tick after the halt");
            self.fired += 1;
            if ctx.id() == NodeId(0) {
                ctx.halt();
            }
        }
    }

    #[test]
    fn halt_stops_the_run() {
        let (a, b) = run_at_shard_counts(SimBuilder::new(), |b| {
            let mut sim = b.build::<Msg, Halter>();
            sim.add_node(Halter { fired: 0 });
            sim.add_node(Halter { fired: 0 });
            let out = sim.run_to_quiescence(100);
            assert!(out.halted);
            assert!(!out.quiescent);
            assert!(sim.is_halted());
            assert_eq!(sim.node(NodeId(0)).fired, 1);
            // Halted is sticky: nothing runs after it, in either mode.
            assert_eq!(sim.run_to_quiescence(100).events, 0);
            assert_eq!(sim.run_until(SimTime::MAX).events, 0);
            sim
        });
        // The documented difference (`Context::halt`): inline the run
        // stops after the halting event, so node 1's same-tick timer is
        // still pending; under windows it stops after the window's
        // barrier, and node 1 — another shard, same window — has fired.
        assert_eq!((a.node(NodeId(1)).fired, a.pending_events()), (0, 3));
        assert_eq!((b.node(NodeId(1)).fired, b.pending_events()), (1, 2));
    }

    #[test]
    fn run_until_respects_deadline() {
        at_shard_counts(SimBuilder::new().seed(5), |b| {
            let mut sim = pair_with(b);
            let out = sim.run_until(SimTime::from_ticks(3));
            assert!(!out.quiescent);
            assert_eq!(sim.now(), SimTime::from_ticks(3));
            let out2 = sim.run_until(SimTime::MAX);
            assert!(out2.quiescent);
            sim
        });
    }

    #[test]
    fn with_node_allows_driver_injection() {
        at_shard_counts(SimBuilder::new().seed(9), |b| {
            let mut sim = pair_with(b);
            sim.run_to_quiescence(1_000);
            sim.with_node(NodeId(0), |_p, ctx| {
                ctx.send(NodeId(1), Msg::Ping(100));
            });
            sim.run_to_quiescence(1_000);
            assert!(sim.node(NodeId(1)).received.contains(&100));
            sim
        });
    }

    #[test]
    fn max_events_backstop() {
        // A protocol that never terminates is cut off.
        struct Loopy;
        impl Process<Msg> for Loopy {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send(ctx.id(), Msg::Ping(0));
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
                ctx.send(ctx.id(), Msg::Ping(0));
            }
        }
        at_shard_counts(SimBuilder::new(), |b| {
            let mut sim = b.build::<Msg, Loopy>();
            sim.add_node(Loopy);
            let out = sim.run_to_quiescence(50);
            assert_eq!(out.events, 50);
            assert!(!out.quiescent && !out.halted);
            sim
        });
    }

    /// One-way sender/counter pair used by the fault tests: node 0 sends
    /// `count` pings to node 1, which records them (no replies, so message
    /// totals are exact).
    struct OneWay {
        peer: NodeId,
        count: u32,
        received: Vec<u32>,
    }
    impl Process<Msg> for OneWay {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.id() == NodeId(0) {
                for n in 0..self.count {
                    ctx.send(self.peer, Msg::Ping(n));
                }
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            let Msg::Ping(n) = msg;
            self.received.push(n);
        }
    }

    fn one_way(builder: SimBuilder, count: u32) -> Simulation<Msg, OneWay> {
        let mut sim = builder.build();
        sim.add_node(OneWay {
            peer: NodeId(1),
            count,
            received: vec![],
        });
        sim.add_node(OneWay {
            peer: NodeId(0),
            count,
            received: vec![],
        });
        sim
    }

    #[test]
    fn loss_drops_messages_and_counts_them() {
        let plan = FaultPlan::default().loss(0.5);
        at_shard_counts(SimBuilder::new().seed(11).faults(plan), |b| {
            let mut sim = one_way(b, 200);
            let out = sim.run_to_quiescence(10_000);
            assert!(out.quiescent);
            let dropped = sim.metrics().get(builtin::MESSAGES_DROPPED);
            let delivered = sim.metrics().get(builtin::MESSAGES_DELIVERED);
            assert!(dropped > 0, "expected some losses at p=0.5");
            assert_eq!(dropped + delivered, 200);
            assert_eq!(delivered as usize, sim.node(NodeId(1)).received.len());
            let drops_in_trace = sim
                .trace()
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::Drop { .. }))
                .count();
            assert_eq!(drops_in_trace as u64, dropped);
            sim
        });
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let plan = FaultPlan::default().duplicate(1.0);
        at_shard_counts(SimBuilder::new().seed(3).faults(plan), |b| {
            let mut sim = one_way(b, 50);
            sim.run_to_quiescence(10_000);
            assert_eq!(sim.node(NodeId(1)).received.len(), 100);
            assert_eq!(sim.metrics().get(builtin::MESSAGES_DUPLICATED), 50);
            sim
        });
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_none() {
        let mut a = pair(21);
        let mut b = {
            let mut sim = SimBuilder::new()
                .seed(21)
                .trace(true)
                .faults(FaultPlan::default())
                .build();
            sim.add_node(Echo {
                peer: NodeId(1),
                sent: 0,
                received: vec![],
                limit: 10,
                start: true,
            });
            sim.add_node(Echo {
                peer: NodeId(0),
                sent: 0,
                received: vec![],
                limit: 10,
                start: false,
            });
            sim
        };
        a.run_to_quiescence(1_000);
        b.run_to_quiescence(1_000);
        assert_eq!(a.trace().events(), b.trace().events());
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn same_seed_same_fault_plan_same_trace() {
        let plan = FaultPlan::default()
            .loss(0.2)
            .duplicate(0.1)
            .reorder(0.2, 40);
        let run = |seed| {
            let mut sim = one_way(
                SimBuilder::new()
                    .seed(seed)
                    .trace(true)
                    .faults(plan.clone()),
                100,
            );
            sim.run_to_quiescence(100_000);
            sim
        };
        let (a, b) = (run(5), run(5));
        assert_eq!(a.trace().events(), b.trace().events());
        assert_eq!(a.metrics(), b.metrics());
        let c = run(6);
        assert_ne!(a.trace().events(), c.trace().events());
    }

    struct Crasher {
        volatile: u32,
        restarts: u32,
    }
    impl Process<Msg> for Crasher {
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, msg: Msg) {
            let Msg::Ping(n) = msg;
            self.volatile += n;
        }
        fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
            self.volatile = 0; // models loss of volatile state
            self.restarts += 1;
            ctx.note("recovered");
        }
    }

    #[test]
    fn crash_window_drops_traffic_and_restart_hook_runs() {
        let plan = FaultPlan::default().crash(
            NodeId(1),
            SimTime::from_ticks(50),
            Some(SimTime::from_ticks(100)),
        );
        at_shard_counts(SimBuilder::new().seed(2).faults(plan), |b| {
            let mut sim = b.build();
            for _ in 0..2 {
                sim.add_node(Crasher {
                    volatile: 0,
                    restarts: 0,
                });
            }
            // One message before the crash, one during, one after the restart.
            sim.run_until(SimTime::from_ticks(10));
            sim.with_node(NodeId(0), |_, ctx| ctx.send(NodeId(1), Msg::Ping(1)));
            sim.run_until(SimTime::from_ticks(60));
            assert!(sim.is_crashed(NodeId(1)));
            sim.with_node(NodeId(0), |_, ctx| ctx.send(NodeId(1), Msg::Ping(10)));
            sim.run_until(SimTime::from_ticks(120));
            assert!(!sim.is_crashed(NodeId(1)));
            sim.with_node(NodeId(0), |_, ctx| ctx.send(NodeId(1), Msg::Ping(100)));
            sim.run_to_quiescence(10_000);
            let p1 = sim.node(NodeId(1));
            assert_eq!(p1.restarts, 1);
            assert_eq!(
                p1.volatile, 100,
                "pre-crash state cleared, mid-crash msg lost"
            );
            assert_eq!(sim.metrics().get(builtin::CRASHES), 1);
            assert_eq!(sim.metrics().get(builtin::RESTARTS), 1);
            assert_eq!(sim.metrics().get(builtin::MESSAGES_DROPPED), 1);
            assert_eq!(sim.trace().notes_containing("recovered").count(), 1);
            sim
        });
    }

    #[test]
    fn reliable_layer_restores_exactly_once_fifo_under_faults() {
        let plan = FaultPlan::default()
            .loss(0.3)
            .duplicate(0.2)
            .reorder(0.3, 60);
        let mut sim = one_way(
            SimBuilder::new()
                .seed(13)
                .faults(plan)
                .reliable(ReliableConfig::default()),
            100,
        );
        let out = sim.run_to_quiescence(1_000_000);
        assert!(out.quiescent);
        let want: Vec<u32> = (0..100).collect();
        assert_eq!(sim.node(NodeId(1)).received, want);
        assert!(sim.metrics().get(builtin::RETRANSMISSIONS) > 0);
        assert!(sim.metrics().get(builtin::ACKS_SENT) >= 100);
        assert_eq!(sim.metrics().get(builtin::DELIVERIES_ABANDONED), 0);
    }

    #[test]
    fn reliable_layer_redelivers_across_crash() {
        let plan = FaultPlan::default().crash(
            NodeId(1),
            SimTime::from_ticks(5),
            Some(SimTime::from_ticks(200)),
        );
        let builder = SimBuilder::new()
            .seed(8)
            .faults(plan)
            .reliable(ReliableConfig::default());
        at_shard_counts(builder, |b| {
            let mut sim = one_way(b, 20);
            let out = sim.run_to_quiescence(1_000_000);
            assert!(out.quiescent);
            // Every message sent before/into the outage arrives after
            // restart, still in order.
            let want: Vec<u32> = (0..20).collect();
            assert_eq!(sim.node(NodeId(1)).received, want);
            assert!(sim.metrics().get(builtin::RETRANSMISSIONS) > 0);
            sim
        });
    }

    #[test]
    fn partition_blocks_both_directions_until_heal() {
        let plan = FaultPlan::default().partition(
            vec![NodeId(0)],
            SimTime::from_ticks(0),
            SimTime::from_ticks(100),
        );
        at_shard_counts(SimBuilder::new().seed(4).faults(plan), |b| {
            let mut sim = one_way(b, 10);
            sim.run_until(SimTime::from_ticks(99));
            assert!(sim.node(NodeId(1)).received.is_empty());
            assert_eq!(sim.metrics().get(builtin::MESSAGES_DROPPED), 10);
            // After healing, fresh sends get through.
            sim.run_until(SimTime::from_ticks(150));
            sim.with_node(NodeId(0), |_, ctx| ctx.send(NodeId(1), Msg::Ping(42)));
            sim.run_to_quiescence(10_000);
            assert_eq!(sim.node(NodeId(1)).received, vec![42]);
            sim
        });
    }

    #[test]
    #[should_panic(expected = "explore mode needs the single frontier")]
    fn explore_mode_refuses_more_than_one_shard() {
        SimBuilder::new()
            .explore(true)
            .shards(2)
            .build::<Msg, Echo>();
    }

    #[test]
    fn reliable_abandons_after_max_attempts() {
        // Node 1 never comes back: every packet towards it is eventually
        // abandoned and the run still quiesces.
        let plan = FaultPlan::default().crash(NodeId(1), SimTime::from_ticks(0), None);
        let builder = SimBuilder::new()
            .seed(1)
            .faults(plan)
            .reliable(ReliableConfig {
                rto_initial: 8,
                rto_cap: 64,
                max_attempts: 4,
            });
        at_shard_counts(builder, |b| {
            let mut sim = one_way(b, 3);
            let out = sim.run_to_quiescence(1_000_000);
            assert!(out.quiescent, "abandonment must keep the queue finite");
            assert_eq!(sim.metrics().get(builtin::DELIVERIES_ABANDONED), 3);
            assert!(sim.node(NodeId(1)).received.is_empty());
            sim
        });
    }

    /// Every firing cancels a long-dated decoy timer and arms a fresh one.
    struct CancelChurn {
        decoy: Option<TimerId>,
        left: u64,
    }

    impl Process<Msg> for CancelChurn {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.decoy = Some(ctx.set_timer(1 << 40, 1));
            ctx.set_timer(1, 0);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {}
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _id: TimerId, tag: u64) {
            if tag == 0 && self.left > 0 {
                self.left -= 1;
                ctx.cancel_timer(self.decoy.take().expect("decoy armed"));
                self.decoy = Some(ctx.set_timer(1 << 40, 1));
                ctx.set_timer(1, 0);
            }
        }
    }

    #[test]
    fn million_cancelled_timers_do_not_grow_scheduler_memory() {
        // Regression guard for the tombstone scheduler this queue replaced:
        // there, each of the 10^6 cancelled decoys stayed in the heap (plus
        // a tombstone-set entry) until its distant due time, so memory grew
        // with cancellation *throughput*. The indexed queue removes entries
        // in place; its slab must stay at the concurrent-entry high-water
        // mark (~2 here) no matter how many cancel/reschedule cycles ran.
        let mut sim = SimBuilder::new().seed(9).build::<Msg, CancelChurn>();
        sim.add_node(CancelChurn {
            decoy: None,
            left: 1_000_000,
        });
        let out = sim.run_to_quiescence(u64::MAX);
        assert!(out.quiescent);
        // 10^6 churn ticks + the final no-op tick + the last decoy firing.
        assert_eq!(sim.metrics().get(builtin::TIMERS_FIRED), 1_000_002);
        // Slab slots ever allocated: bounded by the peak depth (slots are
        // recycled), not by events processed.
        let slots = sim.shards[0].local.queue.slot_count();
        assert!(slots <= 8, "slab leaked: {slots} slots");
        assert!(
            sim.peak_queue_depth() <= 8,
            "queue depth leaked: {}",
            sim.peak_queue_depth()
        );
        assert_eq!(sim.pending_events(), 0);
    }
}
