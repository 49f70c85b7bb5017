//! Sharded deterministic simulation core: conservative-lookahead windows
//! over per-shard event queues, bit-identical to the sequential engine.
//!
//! # Architecture
//!
//! The event loop is partitioned by node into `S` shards (node `i` lives
//! on shard `i mod S` — its "site"). Each shard owns a slab-backed
//! [`EventQueue`], the processes assigned to it, and struct-of-arrays
//! bookkeeping for exactly those nodes (crash flags, reliable-transport
//! channel state keyed by *receiving* node, per-node RNG substreams, a
//! timer slab). Simulated time advances in **multi-tick conservative
//! windows** `[t, t + L)`: every [`crate::latency::LatencyModel`]
//! guarantees a send at tick `τ` lands at `τ + min_delay()` or later
//! (`min_delay() >= 1`), so with `L` bounded by `min_delay()` (and by the
//! reliable layer's first retransmission timeout, the one cross-shard push
//! that bypasses a latency draw) no *cross-shard* effect deferred inside
//! the window can land before the window closes. Within a window each
//! shard drains its own queue in local `(time, seq)` order — pre-armed
//! shard-local timers and earlier self-sends that land inside the window
//! included — folding consecutive sparse ticks into a single dispatch and
//! barrier. The only sub-`min_delay()` effects a handler can create are
//! timers and retransmission re-arms, and both land on the *deferring*
//! shard itself, so each shard truncates its own drain at the earliest
//! such landing (its **hazard floor**) and picks the pending event up
//! next window, after the barrier has armed it in sequential order. With
//! the workspace default models (`min_delay() == 1`) the window
//! degenerates to the single tick of the original engine.
//!
//! # Two-phase windows (why the result is bit-identical)
//!
//! The sequential engine's determinism contract is stronger than "same
//! inputs, same outputs": its observable order is `(time, global seq)` and
//! its latency/fault draws come from single global RNG streams consumed
//! in event order. A naive parallel engine with per-shard RNGs would be
//! self-consistent but *different* from the sequential pins. Instead,
//! every window runs in two phases:
//!
//! 1. **Parallel handler phase**: each shard pops its events due inside
//!    the window in `(time, seq)` order and runs the process handlers.
//!    Handlers mutate only shard-local state; every side effect that
//!    touches global order — `send`, `set_timer`, acks, retransmissions —
//!    is *deferred* as a request, recorded (interleaved with the event's
//!    trace fragments) in the shard's window log. The parallel phase runs
//!    on a persistent pool of parked worker threads when the backlog
//!    amortises the wake-up, inline otherwise — bit-identically.
//! 2. **Sequential barrier phase**: the window logs are merged across
//!    shards by the originating event's **`(time, global seq)` key** —
//!    exactly the order the sequential engine would have executed them —
//!    and each request calls the *same* `sim::Sequencer` method the
//!    sequential engine calls inline: global RNG draws (latency, fault
//!    classification), FIFO channel clocks, global seq assignment, trace
//!    stitching. There is no second send path to keep in step; the
//!    engines differ only in *when* a send reaches the sequencer and in
//!    where its events land (`sim::Sink`). The merge walks a tournament tree
//!    over the shard cursors (`O(log S)` per event) and consecutive trace
//!    fragments are stitched by bulk `extend`; replayed pushes land in
//!    the owning shard's queue keyed `(time, seq)`.
//!
//! Because every cross-shard-visible effect funnels through the barrier in
//! the sequential engine's exact order, traces, metrics and digests are
//! byte-identical for any shard count and any thread count. Processes that
//! draw from [`crate::sim::Context::rng`] *inside handlers* are the one
//! exception: those draws come from a per-node forked substream (stable
//! across `S >= 2` and thread counts, but not equal to the sequential
//! engine's global stream), so such processes should stay on the
//! sequential engine (`shards(1)`); see DESIGN §12.
//!
//! Threading is an opt-in capability captured at build time
//! ([`crate::sim::SimBuilder::build_mt`]) because it needs `M: Send` and
//! `P: Send`; without it the sharded engine runs its phases inline on one
//! thread with identical results.

// cmh-lint: allow-file(D4) — the sharded stepper's parallel handler phase:
// scoped worker threads advance disjoint shards inside one conservative
// window; all RNG, trace and scheduling order is replayed sequentially at
// the window barrier, so results are bit-identical to single-threaded runs.

use std::fmt;

use crate::equeue::{EntryId, EventQueue};
use crate::faults::DropReason;
use crate::metrics::{builtin, Metrics};
use crate::reliable::{ReliableConfig, ReliableState, RetransmitVerdict, WireAccept};
use crate::rng::DetRng;
use crate::sim::{
    summarize, Context, EventKind, NodeId, PendingEvent, Process, RunOutcome, Sequencer, Sink,
    TimerId, WindowStats,
};
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};

/// RNG substream id base for per-node handler streams (`ctx.rng()` in
/// sharded mode): node `i` draws from `root.fork(NODE_RNG_STREAM ^ i)`,
/// which depends only on the seed and the node id — never on the shard
/// count or thread count.
const NODE_RNG_STREAM: u64 = 0x5348_4152_4400_0000;

/// Default pending-event backlog at which the threaded handler phase
/// engages. With the persistent pool a window dispatch costs one wake-up
/// round trip, measured at 6.4–8.1 µs/window on a single-core box (a
/// worst case: every dispatch there forces a context switch), versus the
/// scoped-spawn era's 30–60 µs that set the old 4096 threshold. Against
/// the cheapest handlers we ship (the ring micro-bench's ~150 ns/event),
/// 2-way overlap repays the wake at ≈100 pending events; 512 keeps a
/// ~5× margin so the pool only engages when clearly profitable. Results
/// are bit-identical either way ([`crate::sim::SimBuilder::workers`] pins
/// the count and bypasses the threshold).
const DEFAULT_PAR_THRESHOLD: u64 = 512;

/// A side effect deferred by the parallel phase, replayed at the barrier
/// in global-seq order.
enum Req<M> {
    /// Full application send ([`Sequencer::send`]).
    Send { from: NodeId, to: NodeId, msg: M },
    /// Arm a timer allocated in the parallel phase.
    PushTimer {
        node: NodeId,
        slot: u32,
        gen: u16,
        tag: u64,
        delay: u64,
    },
    /// Cancel a timer owned by another shard (same-shard cancels resolve
    /// immediately in the parallel phase).
    CancelTimer { shard: usize, slot: u32, gen: u16 },
    /// Cumulative ack for data channel `(from, to)`, sent `to -> from`.
    SendAck { from: NodeId, to: NodeId, next: u64 },
    /// What a due retransmission timer decided, other than `Done`
    /// ([`Sequencer::retransmit`]; the latency draw happens at replay).
    Retransmit {
        from: NodeId,
        to: NodeId,
        seq: u64,
        attempt: u32,
        verdict: RetransmitVerdict,
    },
    /// Propagate a crash-flag flip to the sequencer's global mirror.
    CrashFlip { node: NodeId, down: bool },
}

/// One entry of a shard's window log: a ready trace event, or a deferred
/// request. Items of one originating event stay contiguous and ordered,
/// so replaying the merged logs reproduces the sequential engine's exact
/// trace/RNG interleaving. `Consumed` is the tombstone the barrier leaves
/// behind when it moves an item out of the (recycled) log buffer.
enum Item<M> {
    Trace(TraceEvent),
    Req(Req<M>),
    Consumed,
}

/// Per-event index entry of a shard's window log: the originating event's
/// global key plus where its items start. Logs are recorded in local
/// `(time, seq)` order, so the barrier's k-way merge over the shards'
/// marks reproduces the sequential engine's global event order.
#[derive(Clone, Copy)]
struct Mark {
    at: SimTime,
    seq: u64,
    start: u32,
}

/// One shard's window log: the item stream plus its per-event marks.
type WindowLog<M> = (Vec<Item<M>>, Vec<Mark>);

#[derive(Clone, Copy)]
enum TimerSlot {
    /// Released; keeps the retiring generation so reuse can bump past it
    /// (mirroring the equeue slot scheme — a stale [`TimerId`] must never
    /// alias the slot's next tenant).
    Free { gen: u16 },
    /// Allocated this window; its `PushTimer` has not replayed yet.
    Pending { gen: u16, cancelled: bool },
    /// Armed in the shard queue.
    Armed { gen: u16, entry: EntryId },
}

impl TimerSlot {
    fn gen(self) -> u16 {
        match self {
            TimerSlot::Free { gen }
            | TimerSlot::Pending { gen, .. }
            | TimerSlot::Armed { gen, .. } => gen,
        }
    }
}

/// Per-shard timer slab: `set_timer` must hand back a stable [`TimerId`]
/// *before* the barrier assigns the queue entry, so ids name slab slots
/// (generation-stamped against reuse), not queue entries.
struct TimerSlab {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
}

impl TimerSlab {
    fn new() -> Self {
        TimerSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn alloc(&mut self) -> (u32, u16) {
        if let Some(slot) = self.free.pop() {
            let gen = self.slots[slot as usize].gen().wrapping_add(1);
            self.slots[slot as usize] = TimerSlot::Pending {
                gen,
                cancelled: false,
            };
            (slot, gen)
        } else {
            let slot = self.slots.len() as u32;
            self.slots.push(TimerSlot::Pending {
                gen: 1,
                cancelled: false,
            });
            (slot, 1)
        }
    }

    fn release(&mut self, slot: u32) {
        let gen = self.slots[slot as usize].gen();
        self.slots[slot as usize] = TimerSlot::Free { gen };
        self.free.push(slot);
    }
}

const TIMER_SHARD_BITS: u64 = 15;
const TIMER_GEN_BITS: u64 = 16;
const TIMER_SLOT_BITS: u64 = 32;

fn encode_timer(shard: usize, slot: u32, gen: u16) -> u64 {
    debug_assert!((shard as u64) < (1 << TIMER_SHARD_BITS));
    (1 << 63)
        | ((shard as u64) << (TIMER_GEN_BITS + TIMER_SLOT_BITS))
        | ((gen as u64) << TIMER_SLOT_BITS)
        | slot as u64
}

fn decode_timer(raw: u64) -> Option<(usize, u32, u16)> {
    if raw >> 63 != 1 {
        return None;
    }
    let shard =
        ((raw >> (TIMER_GEN_BITS + TIMER_SLOT_BITS)) & ((1 << TIMER_SHARD_BITS) - 1)) as usize;
    let gen = ((raw >> TIMER_SLOT_BITS) & ((1 << TIMER_GEN_BITS) - 1)) as u16;
    let slot = (raw & ((1 << TIMER_SLOT_BITS) - 1)) as u32;
    Some((shard, slot, gen))
}

/// Everything a shard owns besides its processes. Handler contexts
/// ([`Context`] in shard mode) borrow exactly this, so the parallel phase
/// never touches global state.
pub(crate) struct ShardLocal<M> {
    idx: usize,
    nshards: usize,
    node_count: usize,
    now: SimTime,
    queue: EventQueue<EventKind<M>>,
    metrics: Metrics,
    /// Crash flags for this shard's nodes, indexed by local id.
    crashed: Vec<bool>,
    /// Reliable-transport state for channels whose *receiver* lives on
    /// this shard (sender book-keeping included: `WireAck`/`Retransmit`
    /// events are routed to the receiver's shard so both halves stay
    /// local to the events that touch them).
    rel: Option<ReliableState<M>>,
    timers: TimerSlab,
    /// Window log: trace fragments and deferred requests, in handler
    /// order, indexed per originating event by `marks`.
    items: Vec<Item<M>>,
    marks: Vec<Mark>,
    /// Hazard floor of the current window: the earliest tick at which a
    /// timer or retransmission re-arm deferred *this window* will land
    /// back on this shard. The drain must not advance past it — the
    /// pending event replays at the barrier with a fresh (larger) seq, so
    /// ticks `<= floor` stay safe, ticks beyond it would run out of
    /// order. Reset to `SimTime::MAX` at every window start.
    floor: SimTime,
    /// Per-node handler RNG substreams, indexed by local id.
    rngs: Vec<DetRng>,
    tracing: bool,
    halted: bool,
    /// Events processed since the engine's current run call started.
    events: u64,
    /// Seq of the event currently being handled; `u64::MAX` outside
    /// handlers (driver code via `with_node`). Mirrors the sequential
    /// core's field so `Context::event_seq` is engine-independent.
    cur_seq: u64,
}

impl<M> ShardLocal<M> {
    pub(crate) fn ctx_now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn ctx_node_count(&self) -> usize {
        self.node_count
    }

    pub(crate) fn ctx_tracing(&self) -> bool {
        self.tracing
    }

    pub(crate) fn ctx_event_seq(&self) -> u64 {
        self.cur_seq
    }
}

impl<M: fmt::Debug + Clone> ShardLocal<M> {
    fn local_idx(&self, node: NodeId) -> usize {
        debug_assert_eq!(node.0 % self.nshards, self.idx);
        node.0 / self.nshards
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed
            .get(self.local_idx(node))
            .copied()
            .unwrap_or(false)
    }

    /// Sets a local crash flag; returns `true` if it changed.
    fn set_crashed(&mut self, node: NodeId, down: bool) -> bool {
        let l = self.local_idx(node);
        if self.crashed.len() <= l {
            self.crashed.resize(l + 1, false);
        }
        let changed = self.crashed[l] != down;
        self.crashed[l] = down;
        changed
    }

    // ---- Context operations (delegated from `sim::Context`) ----

    pub(crate) fn ctx_send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.items.push(Item::Req(Req::Send { from, to, msg }));
    }

    pub(crate) fn ctx_set_timer(&mut self, node: NodeId, delay: u64, tag: u64) -> TimerId {
        let (slot, gen) = self.timers.alloc();
        // The armed timer lands back on this shard at the barrier; the
        // drain must not advance past that tick (see `floor`).
        self.floor = self.floor.min(self.now + delay.max(1));
        self.items.push(Item::Req(Req::PushTimer {
            node,
            slot,
            gen,
            tag,
            delay,
        }));
        TimerId(encode_timer(self.idx, slot, gen))
    }

    pub(crate) fn ctx_cancel_timer(&mut self, id: TimerId) {
        let Some((shard, slot, gen)) = decode_timer(id.0) else {
            return; // sequential-engine id (or garbage): nothing it can name here
        };
        if shard != self.idx {
            // A TimerId crossed a shard boundary: the contract is that ids
            // stay private to the node that armed them (Context::
            // cancel_timer docs; DESIGN §12) because a cancel resolved at
            // the barrier loses the same-tick race the sequential engine
            // decides by seq — the owning shard may fire the timer during
            // the parallel pass before this request replays.
            debug_assert!(
                false,
                "TimerId armed on shard {shard} cancelled from shard {}: \
                 TimerIds must not be shared across nodes",
                self.idx
            );
            // Release builds resolve it at the barrier as a best effort:
            // a no-op if the timer fired this very tick, exact otherwise.
            self.items
                .push(Item::Req(Req::CancelTimer { shard, slot, gen }));
            return;
        }
        match self.timers.slots.get(slot as usize).copied() {
            Some(TimerSlot::Pending { gen: g, .. }) if g == gen => {
                self.timers.slots[slot as usize] = TimerSlot::Pending {
                    gen,
                    cancelled: true,
                };
            }
            Some(TimerSlot::Armed { gen: g, entry }) if g == gen => {
                self.queue.remove(entry);
                self.timers.release(slot);
            }
            _ => {}
        }
    }

    pub(crate) fn ctx_count(&mut self, kind: &str) {
        self.metrics.inc(kind);
    }

    pub(crate) fn ctx_count_n(&mut self, kind: &str, n: u64) {
        self.metrics.add(kind, n);
    }

    pub(crate) fn ctx_note(&mut self, node: NodeId, text: String) {
        if !self.tracing {
            return;
        }
        let at = self.now;
        self.items
            .push(Item::Trace(TraceEvent::Note { at, node, text }));
    }

    pub(crate) fn ctx_rng(&mut self, node: NodeId) -> &mut DetRng {
        let l = self.local_idx(node);
        &mut self.rngs[l]
    }

    pub(crate) fn ctx_halt(&mut self) {
        self.halted = true;
    }
}

/// A shard: its local state plus the processes that live on it.
pub(crate) struct Shard<M, P> {
    local: ShardLocal<M>,
    procs: Vec<P>,
}

impl<M: fmt::Debug + Clone, P: Process<M>> Shard<M, P> {
    fn next_key(&self) -> Option<(SimTime, u64)> {
        self.local.queue.peek_key()
    }

    /// Parallel phase: handle up to `limit` events due before `end`, in
    /// local `(time, seq)` order, deferring all globally ordered side
    /// effects. The drain spans multiple ticks (the conservative window),
    /// truncated by the shard's own hazard floor — the earliest landing
    /// time of any timer/re-arm it deferred this window, which must
    /// replay at the barrier before later ticks may run.
    fn pass1(&mut self, end: SimTime, limit: u64) -> u64 {
        self.local.floor = SimTime::MAX;
        let mut handled = 0u64;
        while handled < limit {
            let Some((at, _)) = self.local.queue.peek_key() else {
                break;
            };
            if at >= end || at > self.local.floor {
                break;
            }
            if at != self.local.now {
                // Tick boundary inside the window. A halt raised at an
                // earlier tick stops the drain here: the remaining ticks
                // belong to runs the engine will never execute.
                if handled > 0 && self.local.halted {
                    break;
                }
                self.local.now = at;
            }
            let (_entry, (_, seq), ev) = self.local.queue.pop().expect("peeked entry");
            handled += 1;
            self.local.events += 1;
            self.local.cur_seq = seq;
            self.local.metrics.inc(builtin::EVENTS);
            self.local.marks.push(Mark {
                at,
                seq,
                start: self.local.items.len() as u32,
            });
            self.handle(ev);
        }
        handled
    }

    fn handle(&mut self, ev: EventKind<M>) {
        let Shard { local, procs } = self;
        match ev {
            EventKind::Start(node) => {
                let l = local.local_idx(node);
                let mut ctx = Context::for_shard(node, local);
                procs[l].on_start(&mut ctx);
            }
            EventKind::Deliver { from, to, msg } => {
                if local.is_crashed(to) {
                    local.metrics.inc(builtin::MESSAGES_DROPPED);
                    if local.tracing {
                        let at = local.now;
                        // cmh-lint: allow(D7) — gated on the shard's cached tracing flag (= Trace::is_enabled).
                        let summary = summarize(&msg);
                        local.items.push(Item::Trace(TraceEvent::Drop {
                            at,
                            from,
                            to,
                            summary,
                            reason: DropReason::CrashedRecipient,
                        }));
                    }
                    return;
                }
                local.metrics.inc(builtin::MESSAGES_DELIVERED);
                if local.tracing {
                    let at = local.now;
                    // cmh-lint: allow(D7) — gated on the shard's cached tracing flag (= Trace::is_enabled).
                    let summary = summarize(&msg);
                    local.items.push(Item::Trace(TraceEvent::Deliver {
                        at,
                        from,
                        to,
                        summary,
                    }));
                }
                let l = local.local_idx(to);
                let mut ctx = Context::for_shard(to, local);
                procs[l].on_message(&mut ctx, from, msg);
            }
            EventKind::Timer {
                node,
                tag,
                slot,
                gen,
            } => {
                local.timers.release(slot);
                if local.is_crashed(node) {
                    // A crashed node's timers are lost, not deferred.
                    return;
                }
                local.metrics.inc(builtin::TIMERS_FIRED);
                if local.tracing {
                    let at = local.now;
                    local
                        .items
                        .push(Item::Trace(TraceEvent::Timer { at, node, tag }));
                }
                let id = TimerId(encode_timer(local.idx, slot, gen));
                let l = local.local_idx(node);
                let mut ctx = Context::for_shard(node, local);
                procs[l].on_timer(&mut ctx, id, tag);
            }
            EventKind::Crash(node) => {
                if local.set_crashed(node, true) {
                    local.metrics.inc(builtin::CRASHES);
                    if local.tracing {
                        let at = local.now;
                        local
                            .items
                            .push(Item::Trace(TraceEvent::Crash { at, node }));
                    }
                    local
                        .items
                        .push(Item::Req(Req::CrashFlip { node, down: true }));
                }
            }
            EventKind::Restart(node) => {
                if local.set_crashed(node, false) {
                    local.metrics.inc(builtin::RESTARTS);
                    if local.tracing {
                        let at = local.now;
                        local
                            .items
                            .push(Item::Trace(TraceEvent::Restart { at, node }));
                    }
                    local
                        .items
                        .push(Item::Req(Req::CrashFlip { node, down: false }));
                    let l = local.local_idx(node);
                    let mut ctx = Context::for_shard(node, local);
                    procs[l].on_restart(&mut ctx);
                }
            }
            EventKind::Wire { from, to, seq } => {
                if local.is_crashed(to) {
                    local.metrics.inc(builtin::MESSAGES_DROPPED);
                    if local.tracing {
                        let at = local.now;
                        local.items.push(Item::Trace(TraceEvent::Drop {
                            at,
                            from,
                            to,
                            // cmh-lint: allow(D7) — gated on the shard's cached tracing flag (= Trace::is_enabled).
                            summary: format!("pkt seq={seq}"),
                            reason: DropReason::CrashedRecipient,
                        }));
                    }
                    return;
                }
                let rel = local.rel.as_mut().expect("reliable state present");
                let (accept, next) = rel.accept(from, to, seq);
                if accept == WireAccept::Duplicate {
                    local.metrics.inc(builtin::DUPLICATES_SUPPRESSED);
                }
                let mut staged = std::mem::take(&mut rel.staged);
                local.items.push(Item::Req(Req::SendAck { from, to, next }));
                for msg in staged.drain(..) {
                    local.metrics.inc(builtin::MESSAGES_DELIVERED);
                    if local.tracing {
                        let at = local.now;
                        // cmh-lint: allow(D7) — gated on the shard's cached tracing flag (= Trace::is_enabled).
                        let summary = summarize(&msg);
                        local.items.push(Item::Trace(TraceEvent::Deliver {
                            at,
                            from,
                            to,
                            summary,
                        }));
                    }
                    let l = local.local_idx(to);
                    let mut ctx = Context::for_shard(to, local);
                    procs[l].on_message(&mut ctx, from, msg);
                }
                local.rel.as_mut().expect("reliable state present").staged = staged;
            }
            EventKind::WireAck { from, to, next } => {
                // Transport state is stable storage: processed even while
                // the sender is crashed.
                if let Some(rel) = &mut local.rel {
                    rel.ack(from, to, next);
                }
            }
            EventKind::Retransmit {
                from,
                to,
                seq,
                attempt,
            } => {
                let Some(rel) = &mut local.rel else { return };
                let verdict = rel.retransmit_due(from, to, seq, attempt);
                if let RetransmitVerdict::Retry(backoff) = verdict {
                    // The re-armed Retransmit event is routed back to this
                    // shard (receiver-side channel state); cap the drain.
                    local.floor = local.floor.min(local.now + backoff);
                }
                if verdict != RetransmitVerdict::Done {
                    local.items.push(Item::Req(Req::Retransmit {
                        from,
                        to,
                        seq,
                        attempt,
                        verdict,
                    }));
                }
            }
        }
    }
}

impl<M: fmt::Debug + Clone, P> Sink for Vec<Shard<M, P>> {
    type Msg = M;

    fn push(&mut self, at: SimTime, seq: u64, ev: EventKind<M>) -> EntryId {
        let s = ev.dst().0 % self.len();
        self[s].local.queue.push((at, seq), ev)
    }

    fn reliable(&mut self, to: NodeId) -> Option<&mut ReliableState<M>> {
        let s = to.0 % self.len();
        self[s].local.rel.as_mut()
    }
}

/// The captured threading capability: a monomorphised [`pool_pass1`]
/// stored as a plain function pointer, so holding it imposes no `Send`
/// or `'static` bounds on the engine itself. The last argument is the
/// engine's type-erased pool slot: the capability owns pool creation
/// because only it carries the bounds a pool needs.
pub(crate) type ParExec<M, P> =
    fn(&mut Vec<Shard<M, P>>, SimTime, usize, &mut Option<Box<dyn std::any::Any>>);

/// A unit of parallel-phase work: shard `idx`, moved to a worker by
/// value, advanced through the window ending at `end`, and moved back on
/// the pool's return channel. Moving whole shards (a few hundred bytes of
/// queue/metrics headers; the heap payloads don't move) keeps the pool
/// free of `unsafe` — the workspace's `forbid(unsafe_code)` floor (lint
/// D6) rules out the shared-slice alternative.
struct Job<M, P> {
    idx: usize,
    shard: Shard<M, P>,
    end: SimTime,
}

/// Persistent worker threads for the parallel handler phase. Threads park
/// in a channel `recv` between windows and are woken by job messages, so
/// engaging them costs a wake-up instead of a spawn — that is what pushes
/// the threaded break-even far below the scoped-spawn threshold.
///
/// Dispatch moves each due shard to a worker and reassembles the shard
/// vector in its original order afterwards, so which worker ran which
/// shard never affects results.
pub(crate) struct WorkerPool<M, P> {
    /// One job channel per worker; dropping them disconnects the workers.
    jobs: Vec<std::sync::mpsc::Sender<Job<M, P>>>,
    /// Shared return channel carrying `(idx, advanced shard)`; `None`
    /// marks a shard lost to a handler panic.
    done_rx: std::sync::mpsc::Receiver<(usize, Option<Shard<M, P>>)>,
    /// Reassembly slots, recycled across windows.
    slots: Vec<Option<Shard<M, P>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<M, P> WorkerPool<M, P>
where
    M: fmt::Debug + Clone + Send + 'static,
    P: Process<M> + Send + 'static,
{
    fn new(threads: usize) -> Self {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let threads = threads.max(1);
        let mut jobs = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, rx) = std::sync::mpsc::channel::<Job<M, P>>();
            let done = done_tx.clone();
            let handle = std::thread::Builder::new()
                // cmh-lint: allow(D7) — one format! per pool worker at spawn time (the thread name), never on the message path.
                .name(format!("simnet-shard-{i}"))
                .spawn(move || {
                    while let Ok(Job {
                        idx,
                        mut shard,
                        end,
                    }) = rx.recv()
                    {
                        // A handler panic must not wedge the dispatcher
                        // in `recv`: catch it, report the slot as lost,
                        // and let the dispatcher re-raise after draining.
                        let res =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                                shard.pass1(end, u64::MAX);
                                shard
                            }));
                        if done.send((idx, res.ok())).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn shard worker");
            jobs.push(tx);
            handles.push(handle);
        }
        WorkerPool {
            jobs,
            done_rx,
            slots: Vec::new(),
            handles,
        }
    }

    /// Moves every shard with work before `end` to a worker (round-robin),
    /// blocks until all of them return, and restores the shard vector in
    /// its original order. Panics (after draining every response) if any
    /// worker's shard panicked mid-handler.
    fn run(&mut self, shards: &mut Vec<Shard<M, P>>, end: SimTime) {
        let n = shards.len();
        if self.slots.len() < n {
            self.slots.resize_with(n, || None);
        }
        let mut sent = 0usize;
        for (idx, shard) in shards.drain(..).enumerate() {
            if shard.next_key().is_some_and(|(at, _)| at < end) {
                self.jobs[sent % self.jobs.len()]
                    .send(Job { idx, shard, end })
                    .expect("shard worker alive");
                sent += 1;
            } else {
                self.slots[idx] = Some(shard);
            }
        }
        let mut lost = false;
        for _ in 0..sent {
            let (idx, shard) = self.done_rx.recv().expect("shard worker alive");
            match shard {
                Some(s) => self.slots[idx] = Some(s),
                None => lost = true,
            }
        }
        assert!(!lost, "shard worker panicked during the parallel phase");
        shards.extend(
            self.slots[..n]
                .iter_mut()
                .map(|s| s.take().expect("every shard returned")),
        );
    }
}

impl<M, P> Drop for WorkerPool<M, P> {
    fn drop(&mut self) {
        self.jobs.clear(); // disconnects the job channels; the threads exit
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The sharded engine. Public API mirrors the sequential
/// [`crate::sim::Simulation`]; `crate::sim` wraps both behind one type.
pub(crate) struct ShardedSim<M, P> {
    shards: Vec<Shard<M, P>>,
    seqr: Sequencer,
    started: bool,
    /// Captured threading capability (`M: Send + P: Send` proven at build
    /// time); `None` runs the parallel phase inline.
    par_exec: Option<ParExec<M, P>>,
    workers: usize,
    /// `true` when the worker count was pinned by
    /// [`crate::sim::SimBuilder::workers`]: threads then engage on every
    /// eligible window, bypassing the backlog amortisation threshold
    /// (tests use this to drive the threaded path on small configs).
    forced_workers: bool,
    /// Conservative window length in ticks: the latency model's
    /// `min_delay()`, clamped by the reliable layer's first retransmission
    /// timeout (the one cross-shard push that bypasses a latency draw).
    /// Each dispatched window `[t, t + win_len)` is further narrowed by
    /// the hazard rule in [`ShardedSim::next_window`].
    win_len: u64,
    /// Persistent parked worker threads, created lazily (by the captured
    /// `par_exec` capability, which carries the necessary bounds) on the
    /// first window that engages the threaded phase. Type-erased so the
    /// engine itself needs no `Send + 'static` bounds to hold it.
    pool: Option<Box<dyn std::any::Any>>,
    stats: WindowStats,
    /// Recycled per-shard window-log buffers: swapped with the live logs
    /// at every barrier so both sides keep their capacity.
    log_scratch: Vec<WindowLog<M>>,
    merge_scratch: MergeScratch,
}

/// Scratch for the barrier's k-way tournament merge, recycled across
/// windows so steady-state barriers allocate nothing.
#[derive(Default)]
struct MergeScratch {
    /// Winner tree over the shard cursors: `nodes[1]` is the overall
    /// winner, leaves sit at `nodes[p..]` (`p` = shard count padded to a
    /// power of two), and each internal node names the smaller-key child.
    nodes: Vec<u32>,
    /// Current merge key per shard; `(MAX, MAX)` marks an exhausted log.
    keys: Vec<(SimTime, u64)>,
    /// Next unreplayed mark index per shard.
    cursors: Vec<u32>,
}

/// `min(available cores, shard count)` worker threads for the parallel
/// handler phase.
pub(crate) fn worker_budget(shards: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(shards)
}

/// The threaded parallel phase: the persistent pool's workers advance the
/// due shards through the window ending at `end`. Captured as a plain
/// `fn` pointer by [`crate::sim::SimBuilder::build_mt`], where the
/// `Send + 'static` bounds hold; the pool is created lazily into the
/// engine's type-erased `slot` on the first engaged window.
pub(crate) fn pool_pass1<M, P>(
    shards: &mut Vec<Shard<M, P>>,
    end: SimTime,
    workers: usize,
    slot: &mut Option<Box<dyn std::any::Any>>,
) where
    M: fmt::Debug + Clone + Send + 'static,
    P: Process<M> + Send + 'static,
{
    let pool = slot
        .get_or_insert_with(|| Box::new(WorkerPool::<M, P>::new(workers)))
        .downcast_mut::<WorkerPool<M, P>>()
        .expect("pool slot holds this simulation's worker pool");
    pool.run(shards, end);
}

impl<M: fmt::Debug + Clone, P: Process<M>> ShardedSim<M, P> {
    pub(crate) fn new(
        nshards: usize,
        seqr: Sequencer,
        reliable: Option<ReliableConfig>,
        par_exec: Option<ParExec<M, P>>,
        workers: Option<usize>,
    ) -> Self {
        let nshards = nshards.max(1);
        let min_delay = seqr.latency.min_delay();
        let win_len = reliable
            .map_or(min_delay, |cfg| min_delay.min(cfg.backoff(1)))
            .max(1);
        let tracing = seqr.trace.is_enabled();
        let shards = (0..nshards)
            .map(|idx| Shard {
                local: ShardLocal {
                    idx,
                    nshards,
                    node_count: 0,
                    now: SimTime::ZERO,
                    queue: EventQueue::new(),
                    metrics: Metrics::new(),
                    crashed: Vec::new(),
                    rel: reliable.map(ReliableState::new),
                    timers: TimerSlab::new(),
                    items: Vec::new(),
                    marks: Vec::new(),
                    floor: SimTime::MAX,
                    rngs: Vec::new(),
                    tracing,
                    halted: false,
                    events: 0,
                    cur_seq: u64::MAX,
                },
                procs: Vec::new(),
            })
            .collect();
        ShardedSim {
            shards,
            seqr,
            started: false,
            par_exec,
            workers: workers
                .map(|w| w.clamp(1, nshards))
                .unwrap_or_else(|| worker_budget(nshards)),
            forced_workers: workers.is_some(),
            win_len,
            pool: None,
            stats: WindowStats::default(),
            log_scratch: Vec::new(),
            merge_scratch: MergeScratch::default(),
        }
    }

    fn shard_of(&self, node: NodeId) -> usize {
        node.0 % self.shards.len()
    }

    /// The derived conservative lookahead window, in ticks.
    pub(crate) fn lookahead(&self) -> u64 {
        self.win_len
    }

    /// Window-level execution counters (windows dispatched, ticks they
    /// spanned, wall-clock barrier cost).
    pub(crate) fn window_stats(&self) -> WindowStats {
        self.stats
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn add_node(&mut self, process: P) -> NodeId {
        let id = NodeId(self.seqr.node_count);
        self.seqr.node_count += 1;
        let s = self.shard_of(id);
        let stream = self.seqr.rng.fork(NODE_RNG_STREAM ^ id.0 as u64);
        let shard = &mut self.shards[s];
        shard.procs.push(process);
        shard.local.rngs.push(stream);
        for sh in &mut self.shards {
            sh.local.node_count = self.seqr.node_count;
        }
        id
    }

    pub(crate) fn node_count(&self) -> usize {
        self.seqr.node_count
    }

    pub(crate) fn now(&self) -> SimTime {
        self.seqr.now
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        &self.seqr.metrics
    }

    pub(crate) fn trace(&self) -> &Trace {
        &self.seqr.trace
    }

    pub(crate) fn node(&self, id: NodeId) -> &P {
        self.try_node(id).expect("node id out of range")
    }

    pub(crate) fn try_node(&self, id: NodeId) -> Option<&P> {
        if id.0 >= self.seqr.node_count {
            return None;
        }
        let s = self.shard_of(id);
        self.shards[s].procs.get(id.0 / self.shards.len())
    }

    pub(crate) fn is_crashed(&self, id: NodeId) -> bool {
        self.seqr.is_crashed(id)
    }

    pub(crate) fn pending_events(&self) -> usize {
        self.shards.iter().map(|s| s.local.queue.len()).sum()
    }

    /// Sum of per-shard scheduler high-water marks. An upper bound on the
    /// global instantaneous peak (per-shard peaks need not coincide).
    pub(crate) fn peak_queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.local.queue.peak_depth()).sum()
    }

    pub(crate) fn scheduler_slots(&self) -> usize {
        self.shards.iter().map(|s| s.local.queue.slot_count()).sum()
    }

    pub(crate) fn in_flight_messages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.local.queue.values().filter(|k| k.in_flight()).count())
            .sum()
    }

    fn min_shard(&self) -> Option<(usize, (SimTime, u64))> {
        let mut best: Option<(usize, (SimTime, u64))> = None;
        for (i, s) in self.shards.iter().enumerate() {
            if let Some(key) = s.next_key() {
                if best.map(|(_, b)| key < b).unwrap_or(true) {
                    best = Some((i, key));
                }
            }
        }
        best
    }

    pub(crate) fn next_event_at(&mut self) -> Option<SimTime> {
        self.ensure_started();
        self.min_shard().map(|(_, (at, _))| at)
    }

    pub(crate) fn peek_event(&mut self) -> Option<(SimTime, PendingEvent<'_, M>)> {
        self.ensure_started();
        let (i, _) = self.min_shard()?;
        self.shards[i]
            .local
            .queue
            .peek()
            .map(|((at, _), kind)| (at, kind.pending()))
    }

    pub(crate) fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut Context<'_, M>) -> R,
    ) -> R {
        self.ensure_started();
        let s = self.shard_of(id);
        let now = self.seqr.now;
        let l = id.0 / self.shards.len();
        let r = {
            let shard = &mut self.shards[s];
            shard.local.now = now;
            shard.local.cur_seq = u64::MAX;
            debug_assert!(shard.local.items.is_empty() && shard.local.marks.is_empty());
            shard.local.marks.push(Mark {
                at: now,
                seq: u64::MAX,
                start: 0,
            });
            let mut ctx = Context::for_shard(id, &mut shard.local);
            f(&mut shard.procs[l], &mut ctx)
        };
        // Injection replays immediately — the sequential engine executes
        // driver side effects inline, so ours must too before returning.
        self.barrier(now);
        self.flush();
        r
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.seqr.start(&mut self.shards);
    }

    /// Computes the next window `[start, end)`, or `None` at quiescence.
    ///
    /// `start` is the earliest pending key across shards; `end` stretches
    /// to `start + win_len`, narrowed by the **hazard rule**: a handler at
    /// tick `τ` may arm a timer (or retransmission re-arm) landing at
    /// `τ + 1`, and that fresh event — replayed at the barrier with a
    /// fresh seq — must globally precede any *pre-window* event at a
    /// strictly later tick. The arming shard truncates its own drain at
    /// the landing (its hazard floor), but another shard's drain cannot
    /// see that floor mid-flight, so the dispatch must ensure no other
    /// shard could process a tick `>= τ + 2`. With `m2` the earliest
    /// pending tick on any shard other than the owner of `start`:
    ///
    /// * `m2 >= start + win_len`: only one shard has work in the window —
    ///   it runs the full window, its own floor truncation sufficing.
    /// * `m2 > start + 1`: the leader runs alone up to `m2` (the
    ///   runner-up's first tick stays outside the window).
    /// * otherwise: multiple shards are due; two consecutive ticks are
    ///   always safe (`τ + 2` can't fit inside them), more are not.
    ///
    /// With `win_len == 1` (the default models) every branch collapses to
    /// the original single-tick window.
    fn next_window(&self) -> Option<(SimTime, SimTime)> {
        let mut first: Option<(SimTime, u64)> = None;
        let mut m2 = SimTime::MAX;
        for s in &self.shards {
            let Some((at, seq)) = s.next_key() else {
                continue;
            };
            match first {
                Some((fat, fseq)) if (at, seq) < (fat, fseq) => {
                    m2 = m2.min(fat);
                    first = Some((at, seq));
                }
                Some(_) => m2 = m2.min(at),
                None => first = Some((at, seq)),
            }
        }
        let (start, _) = first?;
        let full = start + self.win_len;
        let end = if m2 >= full {
            full
        } else if m2 > start + 1 {
            m2
        } else {
            full.min(start + 2)
        };
        Some((start, end))
    }

    /// Runs one window `[start, end)`: the parallel handler phase
    /// (threaded when the capability and enough work are present), then
    /// the sequential barrier replay. Returns events handled.
    fn exec_window(&mut self, start: SimTime, end: SimTime, limit: u64) -> u64 {
        let before: u64 = self.shards.iter().map(|s| s.local.events).sum();
        // One summation reused by the budget and engage checks below.
        let pending = self.pending_events() as u64;
        // A window can't handle more events than are pending when it
        // opens (all handler consequences land at later ticks), so a
        // budget covering the whole backlog can never bind mid-window.
        let unlimited = limit >= pending;
        if unlimited {
            // Waking the parked pool costs single-digit microseconds per
            // window; a window of a handful of events is cheaper inline.
            // The backlog is a free upper bound on the window size, so
            // threads only engage when enough work *could* be present to
            // amortise the wake-up (unless the worker count was pinned
            // explicitly, which is an opt-in to always thread). Inline
            // and threaded execution are bit-identical, so this is purely
            // a scheduling heuristic.
            let use_threads = self.workers > 1
                && self.par_exec.is_some()
                && (self.forced_workers || pending >= DEFAULT_PAR_THRESHOLD)
                && self
                    .shards
                    .iter()
                    .filter(|s| s.next_key().is_some_and(|(at, _)| at < end))
                    .count()
                    > 1;
            if use_threads {
                (self.par_exec.expect("checked above"))(
                    &mut self.shards,
                    end,
                    self.workers,
                    &mut self.pool,
                );
            } else {
                for shard in &mut self.shards {
                    if shard.next_key().is_some_and(|(at, _)| at < end) {
                        shard.pass1(end, u64::MAX);
                    }
                }
            }
        } else {
            // The budget may bind mid-window: it must truncate at the
            // same point the sequential engine would, so take events one
            // at a time in global (time, seq) order instead of handing
            // shard 0 the whole budget ahead of lower-seq events on later
            // shards. Each single-event pass1 resets the shard's hazard
            // floor, so fold every floor into the window end by hand —
            // an event must not run past a timer an earlier one armed.
            // O(S) per event, but this path only runs when the
            // `max_events` liveness backstop is about to fire.
            let mut remaining = limit;
            let mut wend = end;
            while remaining > 0 {
                let due = self
                    .shards
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.next_key().map(|k| (k, i)))
                    .filter(|&((at, _), _)| at < wend)
                    .min();
                let Some(((at, _), i)) = due else { break };
                self.shards[i].pass1(at + 1, 1);
                wend = wend.min(self.shards[i].local.floor + 1);
                remaining -= 1;
            }
        }
        // Window accounting: the frontier is the last tick any shard
        // actually drained to (shards with an empty window log keep a
        // stale `now` and are skipped).
        let frontier = self
            .shards
            .iter()
            .filter(|s| !s.local.marks.is_empty())
            .map(|s| s.local.now)
            .fold(start, SimTime::max);
        self.stats.windows += 1;
        self.stats.ticks += frontier.since(start) + 1;
        // cmh-lint: allow(D2) — wall-clock here meters the barrier's own cost for perf accounting; it never feeds simulated behavior.
        let t0 = std::time::Instant::now();
        self.barrier(start);
        self.stats.barrier_nanos += t0.elapsed().as_nanos() as u64;
        let after: u64 = self.shards.iter().map(|s| s.local.events).sum();
        after - before
    }

    /// The barrier: merge the shards' window logs by the originating
    /// event's `(time, global seq)` key and replay every deferred request
    /// in that canonical order.
    ///
    /// The logs are *swapped* with recycled scratch buffers (both sides
    /// keep their capacity), single-active-shard windows replay linearly,
    /// and multi-shard windows walk a winner tree over the shard cursors
    /// — `O(log S)` per event instead of a linear scan over all shards.
    fn barrier(&mut self, upto: SimTime) {
        self.seqr.now = self.seqr.now.max(upto);
        let mut logs = std::mem::take(&mut self.log_scratch);
        logs.resize_with(self.shards.len(), Default::default);
        let mut active = 0usize;
        let mut last = 0usize;
        for (i, (shard, log)) in self.shards.iter_mut().zip(logs.iter_mut()).enumerate() {
            std::mem::swap(&mut shard.local.items, &mut log.0);
            std::mem::swap(&mut shard.local.marks, &mut log.1);
            if !log.1.is_empty() {
                active += 1;
                last = i;
            }
        }
        match active {
            0 => {}
            1 => {
                let (items, marks) = &mut logs[last];
                for c in 0..marks.len() {
                    let end = marks
                        .get(c + 1)
                        .map(|m| m.start as usize)
                        .unwrap_or(items.len());
                    self.replay_run(marks[c], items, end);
                }
            }
            _ => self.merge_replay(&mut logs),
        }
        for log in &mut logs {
            log.0.clear();
            log.1.clear();
        }
        self.log_scratch = logs;
        for shard in &mut self.shards {
            if shard.local.halted {
                self.seqr.halted = true;
            }
        }
    }

    /// Merges two or more non-empty window logs with a winner tree over
    /// the per-shard mark cursors, replaying each event's item run as it
    /// wins. Keys are unique across shards (global seqs), so tie-breaks
    /// never decide order.
    fn merge_replay(&mut self, logs: &mut [WindowLog<M>]) {
        const DONE: (SimTime, u64) = (SimTime::MAX, u64::MAX);
        let s = logs.len();
        let p = s.next_power_of_two();
        let mut scr = std::mem::take(&mut self.merge_scratch);
        scr.keys.clear();
        scr.keys.resize(p, DONE);
        scr.cursors.clear();
        scr.cursors.resize(s, 0);
        for (i, (_, marks)) in logs.iter().enumerate() {
            if let Some(m) = marks.first() {
                scr.keys[i] = (m.at, m.seq);
            }
        }
        scr.nodes.clear();
        scr.nodes.resize(2 * p, 0);
        for (i, leaf) in scr.nodes[p..].iter_mut().enumerate() {
            *leaf = i as u32;
        }
        for n in (1..p).rev() {
            let (a, b) = (scr.nodes[2 * n], scr.nodes[2 * n + 1]);
            scr.nodes[n] = if scr.keys[b as usize] < scr.keys[a as usize] {
                b
            } else {
                a
            };
        }
        loop {
            let w = scr.nodes[1] as usize;
            if scr.keys[w] == DONE {
                break;
            }
            let c = scr.cursors[w] as usize;
            scr.cursors[w] = (c + 1) as u32;
            {
                let (items, marks) = &mut logs[w];
                let end = marks
                    .get(c + 1)
                    .map(|m| m.start as usize)
                    .unwrap_or(items.len());
                scr.keys[w] = marks.get(c + 1).map(|m| (m.at, m.seq)).unwrap_or(DONE);
                let mark = marks[c];
                self.replay_run(mark, items, end);
            }
            let mut n = (p + w) >> 1;
            while n >= 1 {
                let (a, b) = (scr.nodes[2 * n], scr.nodes[2 * n + 1]);
                scr.nodes[n] = if scr.keys[b as usize] < scr.keys[a as usize] {
                    b
                } else {
                    a
                };
                if n == 1 {
                    break;
                }
                n >>= 1;
            }
        }
        self.merge_scratch = scr;
    }

    /// Replays one originating event's item run `items[mark.start..end]`:
    /// consecutive trace fragments are stitched into the global trace by
    /// one bulk `extend`, deferred requests replay one by one. Replayed
    /// items leave `Item::Consumed` tombstones behind so the buffer can
    /// be recycled without shifting.
    fn replay_run(&mut self, mark: Mark, items: &mut [Item<M>], end: usize) {
        // Multi-tick windows replay marks from several ticks in one
        // barrier; the sequencer's clock tracks the originating tick so
        // replayed delay arithmetic matches the sequential engine.
        self.seqr.now = self.seqr.now.max(mark.at);
        let mut k = mark.start as usize;
        while k < end {
            if matches!(items[k], Item::Trace(_)) {
                let mut j = k + 1;
                while j < end && matches!(items[j], Item::Trace(_)) {
                    j += 1;
                }
                self.seqr
                    .trace
                    .extend(items[k..j].iter_mut().map(|slot| {
                        match std::mem::replace(slot, Item::Consumed) {
                            Item::Trace(ev) => ev,
                            _ => unreachable!("run scanned as trace items"),
                        }
                    }));
                k = j;
            } else {
                match std::mem::replace(&mut items[k], Item::Consumed) {
                    Item::Req(req) => self.replay_req(req),
                    _ => unreachable!("tombstones only exist behind the cursor"),
                }
                k += 1;
            }
        }
    }

    fn replay_req(&mut self, req: Req<M>) {
        match req {
            Req::Send { from, to, msg } => self.seqr.send(&mut self.shards, from, to, msg),
            Req::PushTimer {
                node,
                slot,
                gen,
                tag,
                delay,
            } => {
                let s = self.shard_of(node);
                let state = self.shards[s]
                    .local
                    .timers
                    .slots
                    .get(slot as usize)
                    .copied();
                match state {
                    Some(TimerSlot::Pending {
                        gen: g,
                        cancelled: false,
                    }) if g == gen => {
                        let entry =
                            self.seqr
                                .arm_timer(&mut self.shards, node, delay, tag, slot, gen);
                        self.shards[s].local.timers.slots[slot as usize] =
                            TimerSlot::Armed { gen, entry };
                    }
                    Some(TimerSlot::Pending {
                        gen: g,
                        cancelled: true,
                    }) if g == gen => {
                        self.shards[s].local.timers.release(slot);
                    }
                    _ => {}
                }
            }
            Req::CancelTimer { shard, slot, gen } => {
                let local = &mut self.shards[shard].local;
                match local.timers.slots.get(slot as usize).copied() {
                    Some(TimerSlot::Armed { gen: g, entry }) if g == gen => {
                        local.queue.remove(entry);
                        local.timers.release(slot);
                    }
                    Some(TimerSlot::Pending { gen: g, .. }) if g == gen => {
                        local.timers.slots[slot as usize] = TimerSlot::Pending {
                            gen,
                            cancelled: true,
                        };
                    }
                    _ => {}
                }
            }
            Req::SendAck { from, to, next } => self.seqr.send_ack(&mut self.shards, from, to, next),
            Req::Retransmit {
                from,
                to,
                seq,
                attempt,
                verdict,
            } => self
                .seqr
                .retransmit(&mut self.shards, from, to, seq, attempt, verdict),
            Req::CrashFlip { node, down } => {
                self.seqr.set_crashed(node, down);
            }
        }
    }

    // ---- run loop ----

    /// Merge shard-local metric counters into the sequencer's aggregate
    /// (drained so repeated flushes never double-count) and fold halt
    /// flags. Called at the end of every public driving call, so the
    /// public accessors are exact at those boundaries.
    fn flush(&mut self) {
        for shard in &mut self.shards {
            self.seqr.metrics.merge(&shard.local.metrics);
            shard.local.metrics.clear();
            if shard.local.halted {
                self.seqr.halted = true;
            }
        }
    }

    fn reset_run_counters(&mut self) {
        for s in &mut self.shards {
            s.local.events = 0;
        }
    }

    /// Processes a single event (the minimum `(time, seq)` across shards)
    /// through a degenerate one-event window, exactly matching the
    /// sequential engine's per-event granularity for single-stepping
    /// harnesses.
    pub(crate) fn step(&mut self) -> bool {
        self.ensure_started();
        let Some((i, (at, _))) = self.min_shard() else {
            return false;
        };
        self.reset_run_counters();
        self.shards[i].pass1(at + 1, 1);
        self.barrier(at);
        self.flush();
        true
    }

    pub(crate) fn run_to_quiescence(&mut self, max_events: u64) -> RunOutcome {
        self.ensure_started();
        self.reset_run_counters();
        let mut outcome = RunOutcome::default();
        loop {
            if self.seqr.halted {
                outcome.halted = true;
                break;
            }
            if outcome.events >= max_events {
                break;
            }
            let Some((start, end)) = self.next_window() else {
                outcome.quiescent = true;
                break;
            };
            outcome.events += self.exec_window(start, end, max_events - outcome.events);
        }
        outcome.halted |= self.seqr.halted;
        self.flush();
        outcome
    }

    pub(crate) fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.ensure_started();
        self.reset_run_counters();
        let mut outcome = RunOutcome::default();
        loop {
            if self.seqr.halted {
                outcome.halted = true;
                break;
            }
            match self.next_window() {
                None => {
                    self.seqr.now = self.seqr.now.max(deadline);
                    outcome.quiescent = true;
                    break;
                }
                Some((start, _)) if start > deadline => {
                    self.seqr.now = deadline;
                    break;
                }
                Some((start, end)) => {
                    // The window must not outlive the deadline: events
                    // past it belong to the caller's next run call.
                    let end = end.min(deadline + 1);
                    outcome.events += self.exec_window(start, end, u64::MAX);
                }
            }
        }
        outcome.halted |= self.seqr.halted;
        self.flush();
        outcome
    }

    pub(crate) fn is_quiescent(&self) -> bool {
        self.shards.iter().all(|s| s.local.queue.is_empty())
    }

    pub(crate) fn is_halted(&self) -> bool {
        self.seqr.halted
    }
}

impl<M, P> fmt::Debug for ShardedSim<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSim")
            .field("now", &self.seqr.now)
            .field("nodes", &self.seqr.node_count)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}
