//! One process hosted alone: [`Solo`] is shard `me` of an `n`-node
//! simulation that holds only node `me`, so the unmodified
//! `Shard::handle` runs its events with the inline [`Context`]. A
//! delivery due to another node leaves [`Solo::run_until`] in the
//! caller's buffer; [`Solo::deliver`] hands the process one from outside.

use std::fmt;

use crate::equeue::EntryId;
use crate::latency::LatencyModel;
use crate::metrics::{builtin, Metrics};
use crate::shard::Shard;
use crate::sim::{Context, EventKind, NodeId, Process, Sequencer, SimBuilder};
use crate::time::SimTime;

/// One process and its timers. See the module docs.
pub struct Solo<M, P> {
    me: NodeId,
    shard: Shard<M, P>,
    seqr: Sequencer,
}

impl<M, P> fmt::Debug for Solo<M, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Solo({} at {:?})", self.me, self.seqr.now)
    }
}

impl<M: fmt::Debug + Clone, P: Process<M>> Solo<M, P> {
    /// Hosts `process` as node `me` of `n`, timer jitter drawn from
    /// `seed`. Its `on_start` is the first event.
    pub fn new(me: NodeId, n: usize, seed: u64, process: P) -> Self {
        let hop = LatencyModel::Fixed { ticks: 1 };
        let mut seqr = SimBuilder::new().seed(seed).latency(hop).sequencer();
        seqr.node_count = n;
        // `shard::place(me, n) == (me, 0)`: node `me` is this shard's only one.
        let mut shard = Shard::new(me.0, n, None, false);
        shard.procs.push(process);
        seqr.schedule(&mut shard.local, SimTime::ZERO, EventKind::Start(me));
        Solo { me, shard, seqr }
    }

    /// The hosted process.
    pub fn process(&self) -> &P {
        &self.shard.procs[0]
    }

    /// The simulator's counters and the process's own.
    pub fn metrics(&self) -> &Metrics {
        &self.seqr.metrics
    }

    /// Virtual time of the earliest pending event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.shard.next_key().map(|(at, _)| at)
    }

    /// Runs `f` against the process at the current time, as driver code
    /// (`Simulation::with_node`).
    pub fn with<R>(&mut self, f: impl FnOnce(&mut P, &mut Context<'_, M>) -> R) -> R {
        let ctx = &mut Context::new(self.me, &mut self.shard.local, Some(&mut self.seqr));
        f(&mut self.shard.procs[0], ctx)
    }

    /// Hands the process `msg` from `from` now, through the simulator's
    /// delivery arm (so it counts as `sim.messages_delivered`).
    pub fn deliver(&mut self, from: NodeId, msg: M) {
        // Only a timer reads the queue entry it came from; this has none.
        let (to, none) = (self.me, EntryId::from_raw(u64::MAX));
        let ev = EventKind::Deliver { from, to, msg };
        self.shard.handle(Some(&mut self.seqr), none, ev);
    }

    /// Runs every event due by `deadline`, then sets the clock to it. A
    /// delivery due to another node is appended to `sent`, not handled.
    pub fn run_until(&mut self, deadline: SimTime, sent: &mut Vec<(NodeId, M)>) {
        while self.next_event_at().is_some_and(|at| at <= deadline) {
            let (entry, (at, seq), ev) = self.shard.local.queue.pop().expect("peeked");
            self.seqr.now = at;
            self.shard.local.now = at;
            self.shard.local.cur_seq = seq;
            self.seqr.metrics.inc(builtin::EVENTS);
            match ev {
                EventKind::Deliver { to, msg, .. } if to != self.me => sent.push((to, msg)),
                ev => self.shard.handle(Some(&mut self.seqr), entry, ev),
            }
        }
        // Between calls, driver code runs at the host's time, after
        // every handled event.
        self.seqr.now = self.seqr.now.max(deadline);
        self.shard.local.now = self.seqr.now;
        self.shard.local.cur_seq = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::TimerId;

    #[derive(Default)]
    struct Rec {
        starts: u32,
        got: Vec<(NodeId, u32)>,
        fired: Vec<(SimTime, u64)>,
    }

    impl Process<u32> for Rec {
        fn on_start(&mut self, _ctx: &mut Context<'_, u32>) {
            self.starts += 1;
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
            self.got.push((from, msg));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _id: TimerId, tag: u64) {
            self.fired.push((ctx.now(), tag));
        }
    }

    /// Node 1 of three.
    fn host() -> Solo<u32, Rec> {
        Solo::new(NodeId(1), 3, 7, Rec::default())
    }

    fn ticks(t: u64) -> SimTime {
        SimTime::from_ticks(t)
    }

    #[test]
    fn a_foreign_send_leaves_once_and_a_send_to_self_is_handled() {
        let mut h = host();
        h.with(|_, ctx| {
            ctx.send(NodeId(2), 20);
            ctx.send(NodeId(1), 10);
        });
        let mut sent = Vec::new();
        h.run_until(ticks(0), &mut sent);
        assert_eq!(
            (sent.len(), h.process().got.len()),
            (0, 0),
            "a hop is a tick"
        );
        h.run_until(ticks(1), &mut sent);
        assert_eq!(sent, [(NodeId(2), 20)]);
        assert_eq!(h.process().got, [(NodeId(1), 10)]);
        h.run_until(ticks(100), &mut sent);
        assert_eq!(sent.len(), 1);
        assert_eq!(h.next_event_at(), None);
    }

    #[test]
    fn start_runs_once() {
        let mut h = host();
        h.deliver(NodeId(0), 5);
        for t in [0, 10, 20] {
            h.run_until(ticks(t), &mut Vec::new());
        }
        assert_eq!(h.process().starts, 1);
        assert_eq!(h.metrics().get(builtin::EVENTS), 1);
    }

    #[test]
    fn delivered_counts_inbound_messages_only() {
        let mut h = host();
        h.with(|_, ctx| ctx.send(NodeId(0), 1));
        h.deliver(NodeId(0), 2);
        h.deliver(NodeId(2), 3);
        let mut sent = Vec::new();
        h.run_until(ticks(5), &mut sent);
        assert_eq!(sent, [(NodeId(0), 1)]);
        assert_eq!(h.process().got, [(NodeId(0), 2), (NodeId(2), 3)]);
        assert_eq!(h.metrics().get(builtin::MESSAGES_DELIVERED), 2);
        assert_eq!(h.metrics().get(builtin::MESSAGES_SENT), 1);
    }

    #[test]
    fn jittered_timers_are_reproducible_from_the_seed() {
        let fired = |seed| {
            let mut h = Solo::new(NodeId(0), 1, seed, Rec::default());
            h.with(|_, ctx| {
                for tag in 0..8 {
                    ctx.set_timer_jittered(100, 50, tag);
                }
            });
            h.run_until(ticks(1_000), &mut Vec::new());
            h.process().fired.clone()
        };
        assert_eq!(fired(3).len(), 8);
        assert_eq!(fired(3), fired(3));
        assert_ne!(fired(3), fired(4));
    }
}
