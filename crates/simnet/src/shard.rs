//! Shards: per-node-partition event queues, the one event handler, and
//! the one-tick windows that run `S > 1` shards bit-identically to
//! `S = 1`.
//!
//! # Architecture
//!
//! [`crate::sim::Simulation`] partitions its nodes into `S` shards (node
//! `i` lives on shard `i mod S` — its "site"). Each shard owns a
//! slab-backed [`EventQueue`], the processes assigned to it, and
//! struct-of-arrays bookkeeping for exactly those nodes (crash flags,
//! reliable-transport channel state keyed by *receiving* node, a timer
//! slab). Every event, at any `S`, is executed
//! by `Shard::handle`; what `S` selects is *when that handler's side
//! effects reach the `Sequencer`* — and [`Context`] is the switch:
//!
//! * **Inline (`S = 1`).** The one shard holds every event, so popping
//!   its queue in `(time, seq)` order *is* the global order and each
//!   effect is applied to the sequencer the moment the handler asks for
//!   it. No window, no log, no barrier; this order is the reference the
//!   other mode reproduces.
//! * **Deferred (`S > 1`).** Simulated time advances one **window** at a
//!   time, and a window is exactly the events of one tick: the earliest
//!   pending tick on any shard. Every send, timer and retransmission
//!   lands at least one tick after the handler that made it (latency
//!   samples, timer delays and backoffs are all clamped `>= 1`), so
//!   nothing deferred inside a window can land before the window closes,
//!   and the events of one tick are independent across shards. Each
//!   shard drains its own events of the tick in local seq order.
//!
//! # Two-phase windows (why the result is bit-identical)
//!
//! The determinism contract is stronger than "same inputs, same
//! outputs": the observable order is `(time, global seq)` and the
//! latency/fault draws come from single global RNG streams consumed in
//! event order. A naive parallel engine with per-shard RNGs would be
//! self-consistent but *different* from the `S = 1` pins. Instead, every
//! window runs in two phases:
//!
//! 1. **Parallel handler phase**: each shard pops its events due inside
//!    the window in `(time, seq)` order and runs the process handlers.
//!    Handlers mutate only shard-local state; every side effect that
//!    touches global order — `send`, `set_timer`, acks, retransmissions —
//!    is *deferred* as a request, recorded (interleaved with the event's
//!    trace fragments) in the shard's window log. The parallel phase runs
//!    on a persistent pool of parked worker threads when the backlog
//!    amortises the wake-up, on the calling thread otherwise —
//!    bit-identically.
//! 2. **Sequential barrier phase**: the window logs are merged across
//!    shards by the originating event's **`(time, global seq)` key** —
//!    exactly the order `S = 1` would have executed them — and each
//!    request calls the *same* `sim::Sequencer` method an inline handler
//!    calls directly: global RNG draws (latency, fault classification),
//!    FIFO channel clocks, global seq assignment, trace stitching. There
//!    is no second send path to keep in step; the modes differ only in
//!    *when* a send reaches the sequencer and in where its events land
//!    (`sim::Sink`). The merge walks a tournament tree over the shard
//!    cursors (`O(log S)` per event) and consecutive trace fragments are
//!    stitched by bulk `extend`; replayed pushes land in the owning
//!    shard's queue keyed `(time, seq)`.
//!
//! Because every cross-shard-visible effect funnels through the barrier in
//! the exact `S = 1` order, traces, metrics and digests are
//! byte-identical for any shard count and any thread count. A handler
//! draws nothing itself: the one randomness a process can ask for, a
//! timer's jitter ([`crate::sim::Context::set_timer_jittered`]), is drawn
//! by the sequencer when the `PushTimer` request replays.
//!
//! Threading is an opt-in capability captured at build time
//! ([`crate::sim::SimBuilder::build_mt`]) because it needs `M: Send` and
//! `P: Send`; without it both phases run on the calling thread with
//! identical results.

// cmh-lint: allow-file(D4) — the windowed mode's parallel handler phase:
// pooled worker threads advance disjoint shards inside one tick's
// window; all RNG, trace and scheduling order is replayed sequentially at
// the window barrier, so results are bit-identical to single-threaded runs.

use std::fmt;

use crate::equeue::{EntryId, EventQueue};
use crate::faults::DropReason;
use crate::metrics::{builtin, Metrics};
use crate::reliable::{ReliableConfig, ReliableState, RetransmitVerdict, WireAccept};
use crate::sim::{
    Context, EventKind, NodeId, Process, Sequencer, Simulation, Sink, TimerId, WindowStats,
};
use crate::time::SimTime;
use crate::trace::TraceEvent;

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
pub(crate) enum Req<M> {
    /// Full application send ([`Sequencer::send`]).
    Send { from: NodeId, to: NodeId, msg: M },
    /// Arm a timer allocated in the parallel phase
    /// ([`Sequencer::arm_timer`]; the jitter draw happens at replay).
    PushTimer {
        node: NodeId,
        slot: u32,
        gen: u16,
        tag: u64,
        delay: u64,
        spread: u64,
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
/// so replaying the merged logs reproduces the exact trace/RNG
/// interleaving of an `S = 1` run. `Consumed` is the tombstone the barrier
/// leaves behind when it moves an item out of the (recycled) log buffer.
enum Item<M> {
    Trace(TraceEvent),
    Req(Req<M>),
    Consumed,
}

/// Per-event index entry of a shard's window log: the originating event's
/// global key plus where its items start. Logs are recorded in local
/// `(time, seq)` order, so the barrier's k-way merge over the shards'
/// marks reproduces the global event order of an `S = 1` run.
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

/// Per-shard timer slab: a deferred `set_timer` must hand back a stable
/// [`TimerId`] *before* the barrier assigns the queue entry, so deferred
/// ids name slab slots (generation-stamped against reuse), not queue
/// entries. Stays empty inline, where the queue entry exists at once.
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

/// Everything a shard owns besides its processes. A handler's
/// [`Context`] borrows exactly this (plus, inline, the [`Sequencer`]), so
/// the parallel phase never touches global state.
pub(crate) struct ShardLocal<M> {
    idx: usize,
    nshards: usize,
    /// Deferred mode's copy of the node count, refreshed when a window
    /// opens (handlers on a worker thread cannot read the sequencer's).
    pub(crate) node_count: usize,
    /// Time of the event being handled (of the driver call, in
    /// `with_node`): what [`Context::now`] reports in either mode.
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue<EventKind<M>>,
    /// Counters of the current deferred run call, merged into the
    /// sequencer's when it returns; inline handlers count there directly.
    pub(crate) metrics: Metrics,
    /// Crash flags for this shard's nodes, indexed by local id: what the
    /// handler consults. The sequencer's copy serves the send path.
    crashed: Vec<bool>,
    /// Reliable-transport state for channels whose *receiver* lives on
    /// this shard (sender book-keeping included: `WireAck`/`Retransmit`
    /// events are routed to the receiver's shard so both halves stay
    /// local to the events that touch them).
    pub(crate) rel: Option<ReliableState<M>>,
    timers: TimerSlab,
    /// Window log: trace fragments and deferred requests, in handler
    /// order, indexed per originating event by `marks`.
    items: Vec<Item<M>>,
    marks: Vec<Mark>,
    pub(crate) tracing: bool,
    /// Events this shard has handled in windows, ever; a window's count
    /// is the difference across it.
    events: u64,
    /// Seq of the event currently being handled; `u64::MAX` outside
    /// handlers (driver code via `with_node`). See [`Context::event_seq`].
    pub(crate) cur_seq: u64,
}

/// Where node `i` lives among `nshards` shards: `(i mod S, i div S)` —
/// its shard and its index there. One shard holds node `i` at index `i`;
/// sparing it the division keeps the inline path's per-event cost where
/// it was.
pub(crate) fn place(node: NodeId, nshards: usize) -> (usize, usize) {
    match nshards {
        1 => (0, node.0),
        n => (node.0 % n, node.0 / n),
    }
}

impl<M> ShardLocal<M> {
    /// `node`'s index among this shard's nodes.
    pub(crate) fn local_idx(&self, node: NodeId) -> usize {
        let (shard, idx) = place(node, self.nshards);
        debug_assert_eq!(shard, self.idx);
        idx
    }

    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed
            .get(self.local_idx(node))
            .copied()
            .unwrap_or(false)
    }

    /// Sets a local crash flag; returns `true` if it changed.
    pub(crate) fn set_crashed(&mut self, node: NodeId, down: bool) -> bool {
        let l = self.local_idx(node);
        if self.crashed.len() <= l {
            self.crashed.resize(l + 1, false);
        }
        let changed = self.crashed[l] != down;
        self.crashed[l] = down;
        changed
    }

    // ---- Deferred-mode halves of the `Context` operations ----

    /// Logs `req` for the barrier.
    pub(crate) fn defer(&mut self, req: Req<M>) {
        self.items.push(Item::Req(req));
    }

    /// Logs a trace fragment of the event being handled.
    pub(crate) fn log_trace(&mut self, ev: TraceEvent) {
        self.items.push(Item::Trace(ev));
    }

    /// Opens a one-event window log at the current time for driver code
    /// run through [`Simulation::with_node`]; the caller closes it with
    /// [`Simulation::barrier`].
    pub(crate) fn open_driver_window(&mut self, node_count: usize) {
        self.node_count = node_count;
        debug_assert!(self.items.is_empty() && self.marks.is_empty());
        self.marks.push(Mark {
            at: self.now,
            seq: u64::MAX,
            start: 0,
        });
    }

    pub(crate) fn arm_timer(&mut self, node: NodeId, delay: u64, spread: u64, tag: u64) -> TimerId {
        let (slot, gen) = self.timers.alloc();
        self.defer(Req::PushTimer {
            node,
            slot,
            gen,
            tag,
            delay,
            spread,
        });
        TimerId(encode_timer(self.idx, slot, gen))
    }

    /// Retires the slab slot of a timer that just fired and returns the
    /// [`TimerId`] `arm_timer` handed out for it.
    pub(crate) fn fired_timer(&mut self, slot: u32, gen: u16) -> TimerId {
        self.timers.release(slot);
        TimerId(encode_timer(self.idx, slot, gen))
    }

    pub(crate) fn cancel_timer(&mut self, id: TimerId) {
        let Some((shard, slot, gen)) = decode_timer(id.0) else {
            return; // not an id `arm_timer` made: nothing it can name here
        };
        if shard != self.idx {
            // A TimerId crossed a shard boundary: the contract is that ids
            // stay private to the node that armed them (Context::
            // cancel_timer docs; DESIGN §12) because a cancel resolved at
            // the barrier loses the same-tick race an inline run decides
            // by seq — the owning shard may fire the timer during the
            // parallel pass before this request replays.
            debug_assert!(
                false,
                "TimerId armed on shard {shard} cancelled from shard {}: \
                 TimerIds must not be shared across nodes",
                self.idx
            );
            // Release builds resolve it at the barrier as a best effort:
            // a no-op if the timer fired this very tick, exact otherwise.
            self.defer(Req::CancelTimer { shard, slot, gen });
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
}

/// Inline mode's sink: the lone shard's own queue and channel state.
impl<M: fmt::Debug + Clone> Sink for ShardLocal<M> {
    type Msg = M;

    fn push(&mut self, at: SimTime, seq: u64, ev: EventKind<M>) -> EntryId {
        self.queue.push((at, seq), ev)
    }

    fn reliable(&mut self, _to: NodeId) -> Option<&mut ReliableState<M>> {
        self.rel.as_mut()
    }
}

/// A shard: its local state plus the processes that live on it.
pub(crate) struct Shard<M, P> {
    pub(crate) local: ShardLocal<M>,
    pub(crate) procs: Vec<P>,
}

impl<M: fmt::Debug + Clone, P: Process<M>> Shard<M, P> {
    /// Shard `idx` of `nshards`, empty.
    pub(crate) fn new(
        idx: usize,
        nshards: usize,
        reliable: Option<ReliableConfig>,
        tracing: bool,
    ) -> Self {
        Shard {
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
                tracing,
                events: 0,
                cur_seq: u64::MAX,
            },
            procs: Vec::new(),
        }
    }

    pub(crate) fn next_key(&self) -> Option<(SimTime, u64)> {
        self.local.queue.peek_key()
    }

    /// `true` if this shard holds an event due at `tick`.
    fn due(&self, tick: SimTime) -> bool {
        self.next_key().is_some_and(|(at, _)| at == tick)
    }

    /// Parallel phase: handle up to `limit` events due at `tick`, in
    /// local seq order, deferring all globally ordered side effects.
    /// Everything they defer lands at a later tick, so the drain never
    /// meets an event the barrier has yet to arm.
    fn pass1(&mut self, tick: SimTime, limit: u64) -> u64 {
        self.local.now = tick;
        let mut handled = 0u64;
        while handled < limit && self.due(tick) {
            let (entry, (at, seq), ev) = self.local.queue.pop().expect("peeked entry");
            handled += 1;
            self.local.events += 1;
            self.local.cur_seq = seq;
            self.local.metrics.inc(builtin::EVENTS);
            self.local.marks.push(Mark {
                at,
                seq,
                start: self.local.items.len() as u32,
            });
            self.handle(None, entry, ev);
        }
        handled
    }

    /// Executes one event, popped from this shard's queue as `entry` —
    /// the only place an [`EventKind`] runs, at any shard count. Whether
    /// its counts, trace pushes, acks, retransmissions and crash flips
    /// apply inline (`seqr` present: `S = 1`) or are logged for the window
    /// barrier is decided inside [`Context`], never here. The caller has
    /// already set `local.now`/`cur_seq` and counted the event.
    #[inline]
    pub(crate) fn handle(
        &mut self,
        seqr: Option<&mut Sequencer>,
        entry: EntryId,
        ev: EventKind<M>,
    ) {
        let Shard { local, procs } = self;
        // Every arm that runs a handler runs it on the event's routing
        // node, which is why the event sits on this shard.
        let node = ev.dst();
        let proc_idx = local.local_idx(node);
        let ctx = &mut Context::new(node, local, seqr);
        match ev {
            EventKind::Start(_) => procs[proc_idx].on_start(ctx),
            EventKind::Deliver { from, to, msg } => {
                if ctx.local.is_crashed(to) {
                    // Messages arriving during an outage are lost; the
                    // reliable layer (if any) would have retransmitted,
                    // but raw deliveries are simply gone.
                    ctx.count(builtin::MESSAGES_DROPPED);
                    ctx.trace_summary(&msg, |at, summary| TraceEvent::Drop {
                        at,
                        from,
                        to,
                        summary,
                        reason: DropReason::CrashedRecipient,
                    });
                    return;
                }
                ctx.count(builtin::MESSAGES_DELIVERED);
                ctx.trace_summary(&msg, |at, summary| TraceEvent::Deliver {
                    at,
                    from,
                    to,
                    summary,
                });
                procs[proc_idx].on_message(ctx, from, msg);
            }
            EventKind::Timer {
                node,
                tag,
                slot,
                gen,
            } => {
                let id = ctx.fired_timer(entry, slot, gen);
                if ctx.local.is_crashed(node) {
                    // A crashed node's timers are lost, not deferred:
                    // `on_restart` re-arms whatever recovery needs.
                    return;
                }
                ctx.count(builtin::TIMERS_FIRED);
                ctx.trace(|at| TraceEvent::Timer { at, node, tag });
                procs[proc_idx].on_timer(ctx, id, tag);
            }
            EventKind::Crash(node) => {
                if ctx.local.set_crashed(node, true) {
                    ctx.count(builtin::CRASHES);
                    ctx.trace(|at| TraceEvent::Crash { at, node });
                    ctx.crash_flip(node, true);
                }
            }
            EventKind::Restart(node) => {
                if ctx.local.set_crashed(node, false) {
                    ctx.count(builtin::RESTARTS);
                    ctx.trace(|at| TraceEvent::Restart { at, node });
                    ctx.crash_flip(node, false);
                    procs[proc_idx].on_restart(ctx);
                }
            }
            EventKind::Wire { from, to, seq } => {
                if ctx.local.is_crashed(to) {
                    // Lost at a down receiver — but the sender's
                    // retransmission timer is still armed, so the packet
                    // will be offered again after the restart.
                    ctx.count(builtin::MESSAGES_DROPPED);
                    // `Arguments` debug-prints as the text it formats.
                    ctx.trace_summary(&format_args!("pkt seq={seq}"), |at, summary| {
                        TraceEvent::Drop {
                            at,
                            from,
                            to,
                            summary,
                            reason: DropReason::CrashedRecipient,
                        }
                    });
                    return;
                }
                let rel = ctx.local.rel.as_mut().expect("reliable state present");
                let (accept, next) = rel.accept(from, to, seq);
                // Take the staged payloads out of the transport so
                // `on_message` (which may itself send) can't alias the
                // recycled buffer; hand the still-warm allocation back
                // when the drain ends. The empty vector swapped in
                // meanwhile costs nothing.
                let mut staged = std::mem::take(&mut rel.staged);
                if accept == WireAccept::Duplicate {
                    ctx.count(builtin::DUPLICATES_SUPPRESSED);
                }
                ctx.send_ack(from, to, next);
                for msg in staged.drain(..) {
                    ctx.count(builtin::MESSAGES_DELIVERED);
                    ctx.trace_summary(&msg, |at, summary| TraceEvent::Deliver {
                        at,
                        from,
                        to,
                        summary,
                    });
                    procs[proc_idx].on_message(ctx, from, msg);
                }
                let rel = ctx.local.rel.as_mut().expect("reliable state present");
                rel.staged = staged;
            }
            EventKind::WireAck { from, to, next } => {
                // Transport state lives in stable storage: acks are
                // processed even while `from` is crashed.
                if let Some(rel) = &mut ctx.local.rel {
                    rel.ack(from, to, next);
                }
            }
            EventKind::Retransmit {
                from,
                to,
                seq,
                attempt,
            } => {
                if let Some(rel) = &mut ctx.local.rel {
                    let verdict = rel.retransmit_due(from, to, seq, attempt);
                    ctx.retransmit(from, to, seq, attempt, verdict);
                }
            }
        }
    }
}

impl<M: fmt::Debug + Clone, P> Sink for Vec<Shard<M, P>> {
    type Msg = M;

    fn push(&mut self, at: SimTime, seq: u64, ev: EventKind<M>) -> EntryId {
        let (s, _) = place(ev.dst(), self.len());
        self[s].local.queue.push((at, seq), ev)
    }

    fn reliable(&mut self, to: NodeId) -> Option<&mut ReliableState<M>> {
        let (s, _) = place(to, self.len());
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
/// value, advanced through the window at `tick`, and moved back on
/// the pool's return channel. Moving whole shards (a few hundred bytes of
/// queue/metrics headers; the heap payloads don't move) keeps the pool
/// free of `unsafe` — the workspace's `forbid(unsafe_code)` floor (lint
/// D6) rules out the shared-slice alternative.
struct Job<M, P> {
    idx: usize,
    shard: Shard<M, P>,
    tick: SimTime,
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
                        tick,
                    }) = rx.recv()
                    {
                        // A handler panic must not wedge the dispatcher
                        // in `recv`: catch it, report the slot as lost,
                        // and let the dispatcher re-raise after draining.
                        let res =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                                shard.pass1(tick, u64::MAX);
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

    /// Moves every shard with work at `tick` to a worker (round-robin),
    /// blocks until all of them return, and restores the shard vector in
    /// its original order. Panics (after draining every response) if any
    /// worker's shard panicked mid-handler.
    fn run(&mut self, shards: &mut Vec<Shard<M, P>>, tick: SimTime) {
        let n = shards.len();
        if self.slots.len() < n {
            self.slots.resize_with(n, || None);
        }
        let mut sent = 0usize;
        for (idx, shard) in shards.drain(..).enumerate() {
            if shard.due(tick) {
                self.jobs[sent % self.jobs.len()]
                    .send(Job { idx, shard, tick })
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

/// What only the windowed mode (`S > 1`) uses of a [`Simulation`]: the
/// threading capability and recycled barrier buffers. Inert — and
/// allocation-free — at `S = 1`.
pub(crate) struct Windows<M, P> {
    /// Captured threading capability (`M: Send + P: Send` proven at build
    /// time); `None` runs the parallel phase on the calling thread.
    par_exec: Option<ParExec<M, P>>,
    /// Worker threads for the parallel phase: the count pinned by
    /// [`crate::sim::SimBuilder::workers`], else `None` until the first
    /// window that could engage the pool asks [`worker_budget`] — a
    /// syscall an order of magnitude dearer than building the simulation.
    workers: Option<usize>,
    /// `true` when the worker count was pinned: threads then engage on
    /// every eligible window, bypassing the backlog amortisation
    /// threshold (tests use this to drive the threaded path on small
    /// configs).
    forced_workers: bool,
    /// Persistent parked worker threads, created lazily (by the captured
    /// `par_exec` capability, which carries the necessary bounds) on the
    /// first window that engages the threaded phase. Type-erased so the
    /// simulation itself needs no `Send + 'static` bounds to hold it.
    pool: Option<Box<dyn std::any::Any>>,
    pub(crate) stats: WindowStats,
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
fn worker_budget(shards: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(shards)
}

/// The threaded parallel phase: the persistent pool's workers advance the
/// due shards through the window at `tick`. Captured as a plain
/// `fn` pointer by [`crate::sim::SimBuilder::build_mt`], where the
/// `Send + 'static` bounds hold; the pool is created lazily into the
/// simulation's type-erased `slot` on the first engaged window.
pub(crate) fn pool_pass1<M, P>(
    shards: &mut Vec<Shard<M, P>>,
    tick: SimTime,
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
    pool.run(shards, tick);
}

impl<M, P> Windows<M, P> {
    pub(crate) fn new(
        nshards: usize,
        par_exec: Option<ParExec<M, P>>,
        workers: Option<usize>,
    ) -> Self {
        Windows {
            par_exec,
            workers: workers.map(|w| w.clamp(1, nshards)),
            forced_workers: workers.is_some(),
            pool: None,
            stats: WindowStats::default(),
            log_scratch: Vec::new(),
            merge_scratch: MergeScratch::default(),
        }
    }
}

/// The windowed mode of the drive loop: what [`Simulation`]'s `step`,
/// `run_until`, `run_to_quiescence` and `with_node` do when `S > 1`.
impl<M: fmt::Debug + Clone, P: Process<M>> Simulation<M, P> {
    /// Runs the next window — the earliest pending tick, if it is at or
    /// before `deadline`: events past it belong to the caller's next run
    /// call — handling at most `limit` events. Returns events handled,
    /// `Some(0)` when the window opens past the deadline, `None` at
    /// quiescence. Never inlined: the inline loop of one shard shares its
    /// callers, and must not share a stack frame with all this.
    #[inline(never)]
    pub(crate) fn run_window(&mut self, deadline: SimTime, limit: u64) -> Option<u64> {
        let tick = self
            .shards
            .iter()
            .filter_map(|s| s.next_key())
            .map(|(at, _)| at)
            .min()?;
        if tick > deadline {
            return Some(0);
        }
        Some(self.exec_window(tick, limit))
    }

    /// Runs the window at `tick`: the parallel handler phase (threaded
    /// when the capability and enough work are present), then the
    /// sequential barrier replay. Returns events handled.
    fn exec_window(&mut self, tick: SimTime, limit: u64) -> u64 {
        let node_count = self.seqr.node_count;
        let (mut before, mut pending) = (0u64, 0u64);
        for s in &mut self.shards {
            s.local.node_count = node_count;
            before += s.local.events;
            pending += s.local.queue.len() as u64;
        }
        // A window can't handle more events than are pending when it
        // opens (all handler consequences land at later ticks), so a
        // budget covering the whole backlog can never bind mid-window.
        let unlimited = limit >= pending;
        if unlimited {
            // Waking the parked pool costs single-digit microseconds per
            // window; a window of a handful of events is cheaper on this
            // thread. The backlog is a free upper bound on the window
            // size, so threads only engage when enough work *could* be
            // present to amortise the wake-up (unless the worker count
            // was pinned explicitly, which is an opt-in to always
            // thread). Either execution is bit-identical, so this is
            // purely a scheduling heuristic.
            let threads = match self.win.par_exec {
                Some(exec)
                    if (self.win.forced_workers || pending >= DEFAULT_PAR_THRESHOLD)
                        && self.shards.iter().filter(|s| s.due(tick)).count() > 1 =>
                {
                    let nshards = self.shards.len();
                    let workers = *self
                        .win
                        .workers
                        .get_or_insert_with(|| worker_budget(nshards));
                    (workers > 1).then_some((exec, workers))
                }
                _ => None,
            };
            if let Some((exec, workers)) = threads {
                exec(&mut self.shards, tick, workers, &mut self.win.pool);
            } else {
                for shard in self.shards.iter_mut().filter(|s| s.due(tick)) {
                    shard.pass1(tick, u64::MAX);
                }
            }
        } else {
            // The budget may bind mid-window: it must truncate at the
            // same point an inline run would, so take events one at a
            // time in global seq order instead of handing shard 0 the
            // whole budget ahead of lower-seq events on later shards.
            // O(S) per event, but this path only runs when the
            // `max_events` liveness backstop is about to fire (or a
            // driver single-steps).
            for _ in 0..limit {
                let next = self
                    .shards
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| match s.next_key() {
                        Some((at, seq)) if at == tick => Some((seq, i)),
                        _ => None,
                    })
                    .min();
                let Some((_, i)) = next else { break };
                self.shards[i].pass1(tick, 1);
            }
        }
        self.win.stats.windows += 1;
        // cmh-lint: allow(D2) — wall-clock here meters the barrier's own cost for perf accounting; it never feeds simulated behavior.
        let t0 = std::time::Instant::now();
        self.barrier(tick);
        self.win.stats.barrier_nanos += t0.elapsed().as_nanos() as u64;
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
    pub(crate) fn barrier(&mut self, upto: SimTime) {
        self.seqr.now = self.seqr.now.max(upto);
        let mut logs = std::mem::take(&mut self.win.log_scratch);
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
        self.win.log_scratch = logs;
    }

    /// Merges two or more non-empty window logs with a winner tree over
    /// the per-shard mark cursors, replaying each event's item run as it
    /// wins. Keys are unique across shards (global seqs), so tie-breaks
    /// never decide order.
    fn merge_replay(&mut self, logs: &mut [WindowLog<M>]) {
        const DONE: (SimTime, u64) = (SimTime::MAX, u64::MAX);
        let s = logs.len();
        let p = s.next_power_of_two();
        let mut scr = std::mem::take(&mut self.win.merge_scratch);
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
        self.win.merge_scratch = scr;
    }

    /// Replays one originating event's item run `items[mark.start..end]`:
    /// consecutive trace fragments are stitched into the global trace by
    /// one bulk `extend`, deferred requests replay one by one. Replayed
    /// items leave `Item::Consumed` tombstones behind so the buffer can
    /// be recycled without shifting.
    fn replay_run(&mut self, mark: Mark, items: &mut [Item<M>], end: usize) {
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
                spread,
            } => {
                let (s, _) = place(node, self.shards.len());
                let state = self.shards[s]
                    .local
                    .timers
                    .slots
                    .get(slot as usize)
                    .copied();
                match state {
                    Some(TimerSlot::Pending { gen: g, cancelled }) if g == gen => {
                        // Replay does what inline did: a timer cancelled
                        // by the handler that armed it still took a seq
                        // (and its jitter draw) before it was removed.
                        let entry = self.seqr.arm_timer(
                            &mut self.shards,
                            node,
                            delay,
                            spread,
                            tag,
                            (slot, gen),
                        );
                        let local = &mut self.shards[s].local;
                        if cancelled {
                            local.queue.remove(entry);
                            local.timers.release(slot);
                        } else {
                            local.timers.slots[slot as usize] = TimerSlot::Armed { gen, entry };
                        }
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

    /// Merges the shard-local metric counters of a windowed run into the
    /// sequencer's aggregate, zeroing them in place (no double count; slots
    /// stay). Called at the end of every public driving call, so the public
    /// accessors are exact at those boundaries. A lone shard's handlers count
    /// on the sequencer directly: nothing to merge, and a single-stepping
    /// driver should not pay for finding that out.
    pub(crate) fn flush(&mut self) {
        if self.shards.len() == 1 {
            return;
        }
        for shard in &mut self.shards {
            self.seqr.metrics.merge(&shard.local.metrics);
            shard.local.metrics.clear();
        }
    }
}
