//! Reliable, ordered delivery over a faulty network — simulator face.
//!
//! The paper assumes channels that deliver every message, exactly once, in
//! order (axioms P1/P2/P4). With a [`crate::faults::FaultPlan`] injecting
//! loss, duplication and reordering, those assumptions break — and so do
//! the probe computation's guarantees (experiment E12 measures by how
//! much). This layer rebuilds them the way real systems do:
//!
//! * **per-channel sequence numbers** — every application message on an
//!   ordered `(from, to)` channel is numbered;
//! * **retransmission with exponential backoff** — unacknowledged packets
//!   are re-sent after `rto_initial << (attempt-1)` ticks, capped at
//!   `rto_cap`, up to `max_attempts` total transmissions;
//! * **cumulative acknowledgements** — every packet arrival (including
//!   duplicates) acks everything below the receiver's next expected
//!   sequence number, so lost acks are repaired by later traffic or by
//!   retransmissions;
//! * **duplicate suppression and resequencing** — the receiver delivers
//!   each sequence number to the application exactly once, in order,
//!   buffering out-of-order arrivals.
//!
//! The channel state machine itself ([`SendChannel`], [`RecvChannel`],
//! [`crate::transport::Endpoint`]) lives in the substrate-generic
//! [`crate::transport`] module — the same halves run over the virtual
//! wire here and over real sockets in the networked detector service.
//! This module keeps the simulator-specific plumbing: [`ReliableState`]
//! holds every ordered channel of one simulation and decides arrivals,
//! acks and due retransmission timers; `sim`/`shard` schedule those as
//! simulator events and apply the verdicts.
//!
//! The result restores exactly-once FIFO delivery (P1/P2/P4) for every
//! fault mix except permanent unreachability: after `max_attempts`
//! transmissions the sender abandons a packet (counted in
//! `reliable.deliveries_abandoned`) so that a permanently crashed peer
//! cannot keep the event queue alive forever.
//!
//! Transport state (sequence counters, retransmission buffers, reassembly
//! windows) deliberately **survives node crashes** — it models a transport
//! running from stable storage, so a crash loses only the volatile state
//! the process clears in [`crate::sim::Process::on_restart`]. Messages
//! accepted by the transport before a crash are still delivered after the
//! restart.
//!
//! Enable with [`crate::sim::SimBuilder::reliable`]; tune with
//! [`ReliableConfig`].

use std::collections::BTreeMap;

use crate::sim::NodeId;

pub use crate::transport::ReliableConfig;
pub(crate) use crate::transport::WireAccept;
use crate::transport::{RecvChannel, SendChannel};

/// All reliable-transport state of one simulation: both halves of every
/// ordered channel, keyed by `(sender, receiver)`.
///
/// `BTreeMap`, not `HashMap` (cmh-lint D1): accesses are keyed lookups
/// today, but a `HashMap`'s randomized iteration order is a determinism
/// trap the moment anyone walks the channels — e.g. for a retransmission
/// scan or a debug dump.
#[derive(Debug)]
pub(crate) struct ReliableState<M> {
    cfg: ReliableConfig,
    senders: BTreeMap<(NodeId, NodeId), SendChannel<M>>,
    receivers: BTreeMap<(NodeId, NodeId), RecvChannel>,
    /// Recycled scratch for [`RecvChannel::accept`]'s in-order flush:
    /// cleared before each arrival, never shrunk, so the reorder path
    /// stops allocating once it has seen its widest burst.
    ready: Vec<u64>,
    /// Recycled staging buffer for deliveries: filled by
    /// [`ReliableState::accept`], drained by the engine's Wire arm (via
    /// `mem::take`/restore, so a handler that sends cannot alias it),
    /// capacity retained — the hot loop never reallocates it once it has
    /// seen its widest in-order flush.
    pub(crate) staged: Vec<M>,
}

/// What a due retransmission timer found (see
/// [`ReliableState::retransmit_due`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RetransmitVerdict {
    /// Acknowledged meanwhile: nothing to do.
    Done,
    /// `max_attempts` spent: the packet was dropped from the buffer.
    GiveUp,
    /// Still unacknowledged: re-send, and check again after this backoff.
    Retry(u64),
}

impl<M> ReliableState<M> {
    pub(crate) fn new(cfg: ReliableConfig) -> Self {
        ReliableState {
            cfg,
            senders: BTreeMap::new(),
            receivers: BTreeMap::new(),
            ready: Vec::new(),
            staged: Vec::new(),
        }
    }

    /// Sender side of an application send on channel `(from, to)`: assigns
    /// the next sequence number and buffers the payload for
    /// retransmission. Returns the number and the first retransmission
    /// timeout.
    pub(crate) fn enqueue(&mut self, from: NodeId, to: NodeId, msg: M) -> (u64, u64) {
        let chan = self.senders.entry((from, to)).or_default();
        let seq = chan.next_seq;
        chan.next_seq += 1;
        // The retransmit buffer holds the one copy; delivery takes it.
        chan.buf.insert(seq, Some(msg));
        (seq, self.cfg.backoff(1))
    }

    /// Arrival of data packet `seq` on channel `(from, to)` at a live
    /// receiver: resequence/deduplicate, and stage the payloads now
    /// deliverable to the application, in order, in `staged`. Returns the
    /// verdict and the cumulative ack (`next` expected sequence number)
    /// the caller owes the sender — for *every* arrival, duplicates
    /// included, so lost acks are repaired by retransmissions.
    pub(crate) fn accept(&mut self, from: NodeId, to: NodeId, seq: u64) -> (WireAccept, u64) {
        self.staged.clear();
        self.ready.clear();
        let chan = self.receivers.entry((from, to)).or_default();
        let accept = chan.accept(seq, &mut self.ready);
        let next = chan.expected;
        if accept == WireAccept::Deliver {
            if let Some(chan) = self.senders.get_mut(&(from, to)) {
                for s in &self.ready {
                    // Each sequence number reaches `Deliver` exactly once
                    // (the receiver dedups), so the payload is *moved*
                    // out of the retransmit buffer, never cloned. A slot
                    // can only be absent if the sender abandoned it
                    // (max_attempts) while a stale copy was still in
                    // flight — that message is lost, which abandonment
                    // already implies.
                    if let Some(msg) = chan.buf.get_mut(s).and_then(Option::take) {
                        self.staged.push(msg);
                    }
                }
            }
        }
        (accept, next)
    }

    /// A cumulative ack arrives back at the sender of `(from, to)`:
    /// everything below `next` is delivered, so its retransmission
    /// buffers go.
    pub(crate) fn ack(&mut self, from: NodeId, to: NodeId, next: u64) {
        if let Some(chan) = self.senders.get_mut(&(from, to)) {
            // Drop everything below `next` in place. Equivalent to
            // `buf = buf.split_off(&next)`, but popping entries never
            // allocates a second tree.
            while let Some((&s, _)) = chan.buf.first_key_value() {
                if s >= next {
                    break;
                }
                chan.buf.pop_first();
            }
        }
    }

    /// Decides a due retransmission timer for `(from, to, seq)` after
    /// `attempt` transmissions (abandonment removes the buffer entry).
    pub(crate) fn retransmit_due(
        &mut self,
        from: NodeId,
        to: NodeId,
        seq: u64,
        attempt: u32,
    ) -> RetransmitVerdict {
        match self.senders.get_mut(&(from, to)) {
            Some(chan) if chan.buf.contains_key(&seq) => {
                if attempt >= self.cfg.max_attempts {
                    chan.buf.remove(&seq);
                    RetransmitVerdict::GiveUp
                } else {
                    RetransmitVerdict::Retry(self.cfg.backoff(attempt + 1))
                }
            }
            _ => RetransmitVerdict::Done,
        }
    }
}
