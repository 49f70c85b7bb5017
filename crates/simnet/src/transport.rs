//! Substrate-generic reliable-transport state machine.
//!
//! The sequencing/ack/retransmission core that restores exactly-once
//! FIFO delivery (paper axioms P1/P2/P4) over an unreliable wire. Two
//! substrates drive it:
//!
//! * the **virtual wire** — [`crate::sim`]'s deterministic simulator,
//!   whose `ReliableState` (in [`crate::reliable`]) holds one
//!   [`SendChannel`]/[`RecvChannel`] pair per ordered node pair and
//!   schedules retransmissions as simulator events;
//! * a **real socket** — the networked detector service (`cmh-service`),
//!   whose [`Endpoint`] wraps the same halves around a byte stream and
//!   exposes a poll-driven retransmission clock (`next_due`/`poll`)
//!   instead of simulator timers.
//!
//! The state machine itself never reads a clock and never names a
//! substrate: time is an opaque monotone `u64` supplied by the caller
//! (simulator ticks on the virtual wire, milliseconds-since-start on a
//! socket). That is what makes the extraction testable once and
//! reusable twice.
//!
//! Transport state deliberately **survives process crashes** on both
//! substrates — it models a transport running from stable storage, so a
//! crash loses only volatile application state. See
//! [`crate::reliable`] for the simulator-facing rationale and knobs.

use std::collections::{BTreeMap, BTreeSet};

/// Tuning for the reliable-delivery layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// First retransmission timeout, in the caller's time unit (ticks on
    /// the virtual wire). Should comfortably exceed one round trip of
    /// the latency in play.
    pub rto_initial: u64,
    /// Upper bound on the backed-off retransmission timeout.
    pub rto_cap: u64,
    /// Total transmissions (first send + retries) before the sender
    /// abandons a packet. Bounds queue liveness against permanently
    /// unreachable peers; with loss rate `p` the residual loss
    /// probability is `p^max_attempts`.
    pub max_attempts: u32,
}

impl Default for ReliableConfig {
    /// Defaults sized for the default latency model (uniform 1..=10 ticks):
    /// RTO 32 ticks, cap 512, 20 attempts (residual loss `0.2^20 ≈ 1e-14`
    /// at 20% message loss).
    fn default() -> Self {
        ReliableConfig {
            rto_initial: 32,
            rto_cap: 512,
            max_attempts: 20,
        }
    }
}

impl ReliableConfig {
    /// Backoff before retransmission number `attempt + 1`, given that
    /// `attempt` transmissions have already happened.
    pub fn backoff(&self, attempt: u32) -> u64 {
        self.rto_initial
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(20))
            .min(self.rto_cap)
            .max(1)
    }
}

/// Sender half of one ordered channel.
#[derive(Debug)]
pub struct SendChannel<M> {
    /// Next sequence number to assign.
    pub next_seq: u64,
    /// Unacknowledged payloads by sequence number. An entry is removed by a
    /// cumulative ack covering it, or by abandonment.
    ///
    /// On the virtual wire the slot is `take`n to `None` the moment the
    /// payload is first delivered to the application — the receiver dedups
    /// by sequence number, so no later arrival can need it again. That lets
    /// delivery *move* the one buffered copy instead of cloning it, while
    /// the entry itself keeps arming retransmissions (`contains_key`) until
    /// acked. On a real socket the receiver holds its own copy, so the slot
    /// stays `Some` until acked (retransmission needs it).
    pub buf: BTreeMap<u64, Option<M>>,
}

// Manual impl: the derive would demand `M: Default`, which payloads
// need not (and should not) satisfy.
impl<M> Default for SendChannel<M> {
    fn default() -> Self {
        SendChannel {
            next_seq: 0,
            buf: BTreeMap::new(),
        }
    }
}

/// Receiver half of one ordered channel.
#[derive(Debug, Default)]
pub struct RecvChannel {
    /// Next sequence number owed to the application.
    pub expected: u64,
    /// Out-of-order arrivals ahead of `expected`.
    pub arrived: BTreeSet<u64>,
}

/// Outcome of one wire-packet arrival at the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireAccept {
    /// Already seen; suppress (but still ack).
    Duplicate,
    /// Ahead of the expected sequence; buffered for later.
    Buffered,
    /// In-order: the sequence numbers appended to the caller's `ready`
    /// scratch are now deliverable, in that order.
    Deliver,
}

impl RecvChannel {
    /// Accepts wire packet `seq`. On [`WireAccept::Deliver`] the now
    /// in-order sequence numbers are appended to `ready` — a recycled
    /// scratch buffer owned by the caller, so the resequencing flush
    /// allocates nothing in steady state.
    pub fn accept(&mut self, seq: u64, ready: &mut Vec<u64>) -> WireAccept {
        if seq < self.expected || self.arrived.contains(&seq) {
            return WireAccept::Duplicate;
        }
        if seq > self.expected {
            self.arrived.insert(seq);
            return WireAccept::Buffered;
        }
        ready.push(seq);
        self.expected += 1;
        while self.arrived.remove(&self.expected) {
            ready.push(self.expected);
            self.expected += 1;
        }
        WireAccept::Deliver
    }
}

/// One end of a reliable bidirectional link over a real byte stream:
/// the send half **to** a peer plus the receive half **from** it, with
/// a poll-driven retransmission clock in place of simulator events.
///
/// The caller owns the wire. [`Endpoint::send`] buffers a payload and
/// returns the sequence number to frame; [`Endpoint::on_data`] ingests
/// an arrived `(seq, payload)` frame, returning the cumulative ack owed
/// to the peer and appending any now-in-order payloads to `out`;
/// [`Endpoint::on_ack`] retires acknowledged sends; [`Endpoint::poll`]
/// surfaces due retransmissions. All times are caller-supplied monotone
/// `u64`s — the endpoint never reads a clock (cmh-lint D2 holds even
/// though its one consumer is a wall-clock crate).
#[derive(Debug)]
pub struct Endpoint<M> {
    cfg: ReliableConfig,
    send: SendChannel<M>,
    recv: RecvChannel,
    /// Out-of-order payload stash, receiver side. The virtual wire keeps
    /// payloads in the *sender's* buffer and moves them at delivery; a
    /// socket receiver holds its own copies, keyed to flush in `expected`
    /// order.
    stash: BTreeMap<u64, M>,
    /// Retransmission schedule: unacked seq → (due time, transmissions
    /// so far).
    timers: BTreeMap<u64, (u64, u32)>,
    /// Recycled scratch for [`RecvChannel::accept`].
    ready: Vec<u64>,
    /// Packets dropped after `max_attempts` transmissions.
    abandoned: u64,
}

impl<M> Endpoint<M> {
    /// A fresh endpoint with no history on either half.
    pub fn new(cfg: ReliableConfig) -> Self {
        Endpoint {
            cfg,
            send: SendChannel::default(),
            recv: RecvChannel::default(),
            stash: BTreeMap::new(),
            timers: BTreeMap::new(),
            ready: Vec::new(),
            abandoned: 0,
        }
    }

    /// The sequence number [`Endpoint::send`] will assign next — callers
    /// that must encode the frame before parting with the payload peek
    /// here first.
    pub fn next_seq(&self) -> u64 {
        self.send.next_seq
    }

    /// Buffers `payload` for transmission at time `now` and returns the
    /// sequence number to put on the wire. The caller transmits the
    /// `(seq, payload)` frame itself (it still holds the bytes); the
    /// endpoint keeps a copy for retransmission until acked.
    pub fn send(&mut self, now: u64, payload: M) -> u64 {
        let seq = self.send.next_seq;
        self.send.next_seq += 1;
        self.send.buf.insert(seq, Some(payload));
        self.timers.insert(seq, (now + self.cfg.backoff(1), 1));
        seq
    }

    /// Ingests data frame `(seq, payload)` from the peer. Appends any
    /// payloads that are now deliverable in order to `out` and returns
    /// the cumulative ack (next expected sequence number) that the
    /// caller owes the peer — *every* arrival refreshes it, duplicates
    /// included, so lost acks are repaired by retransmissions.
    pub fn on_data(&mut self, seq: u64, payload: M, out: &mut Vec<M>) -> u64 {
        self.ready.clear();
        match self.recv.accept(seq, &mut self.ready) {
            WireAccept::Duplicate => {}
            WireAccept::Buffered => {
                self.stash.insert(seq, payload);
            }
            WireAccept::Deliver => {
                // First ready entry is `seq` itself (payload in hand);
                // the rest flush from the out-of-order stash.
                debug_assert_eq!(self.ready.first(), Some(&seq));
                out.push(payload);
                for s in &self.ready[1..] {
                    if let Some(m) = self.stash.remove(s) {
                        out.push(m);
                    }
                }
            }
        }
        self.recv.expected
    }

    /// Ingests a cumulative ack: everything below `next` is delivered at
    /// the peer, so its retransmission buffer entries and timers go.
    pub fn on_ack(&mut self, next: u64) {
        while let Some((&s, _)) = self.send.buf.first_key_value() {
            if s >= next {
                break;
            }
            self.send.buf.remove(&s);
            self.timers.remove(&s);
        }
    }

    /// Earliest scheduled retransmission, if any — the caller's wait
    /// deadline when the wire is otherwise idle.
    pub fn next_due(&self) -> Option<u64> {
        self.timers.values().map(|&(due, _)| due).min()
    }

    /// Collects retransmissions due at `now` into `out` as
    /// `(seq, payload)` pairs, backing off their next attempt. A packet
    /// that has exhausted `max_attempts` transmissions is abandoned
    /// (dropped and counted) instead — permanent unreachability must not
    /// grow the buffer forever.
    pub fn poll(&mut self, now: u64, out: &mut Vec<(u64, M)>)
    where
        M: Clone,
    {
        self.ready.clear();
        for (&seq, &(due, _)) in self.timers.iter() {
            if due <= now {
                self.ready.push(seq);
            }
        }
        for i in 0..self.ready.len() {
            let seq = self.ready[i];
            let (_, attempts) = self.timers[&seq];
            if attempts >= self.cfg.max_attempts {
                self.timers.remove(&seq);
                self.send.buf.remove(&seq);
                self.abandoned += 1;
                continue;
            }
            if let Some(Some(payload)) = self.send.buf.get(&seq) {
                out.push((seq, payload.clone()));
            }
            let next_attempts = attempts + 1;
            self.timers
                .insert(seq, (now + self.cfg.backoff(next_attempts), next_attempts));
        }
    }

    /// Every unacknowledged `(seq, payload)` in sequence order — what a
    /// freshly reconnected stream must replay before new traffic.
    pub fn unacked(&self) -> impl Iterator<Item = (u64, &M)> {
        self.send
            .buf
            .iter()
            .filter_map(|(&s, slot)| slot.as_ref().map(|m| (s, m)))
    }

    /// Number of unacknowledged buffered sends.
    pub fn in_flight(&self) -> usize {
        self.send.buf.len()
    }

    /// Packets abandoned after exhausting `max_attempts`.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// The cumulative ack currently owed to the peer (next expected
    /// sequence number on the receive half).
    pub fn ack_owed(&self) -> u64 {
        self.recv.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test helper: accept with a fresh scratch, returning the flushed
    /// sequence numbers alongside the verdict.
    fn accept(rc: &mut RecvChannel, seq: u64) -> (WireAccept, Vec<u64>) {
        let mut ready = Vec::new();
        let verdict = rc.accept(seq, &mut ready);
        (verdict, ready)
    }

    #[test]
    fn in_order_arrivals_deliver_immediately() {
        let mut rc = RecvChannel::default();
        assert_eq!(accept(&mut rc, 0), (WireAccept::Deliver, vec![0]));
        assert_eq!(accept(&mut rc, 1), (WireAccept::Deliver, vec![1]));
        assert_eq!(rc.expected, 2);
    }

    #[test]
    fn out_of_order_buffers_then_flushes_in_order() {
        let mut rc = RecvChannel::default();
        assert_eq!(accept(&mut rc, 2), (WireAccept::Buffered, vec![]));
        assert_eq!(accept(&mut rc, 1), (WireAccept::Buffered, vec![]));
        assert_eq!(accept(&mut rc, 0), (WireAccept::Deliver, vec![0, 1, 2]));
        assert!(rc.arrived.is_empty());
    }

    #[test]
    fn duplicates_are_suppressed_everywhere() {
        let mut rc = RecvChannel::default();
        accept(&mut rc, 0);
        assert_eq!(accept(&mut rc, 0).0, WireAccept::Duplicate); // already delivered
        assert_eq!(accept(&mut rc, 2).0, WireAccept::Buffered);
        assert_eq!(accept(&mut rc, 2).0, WireAccept::Duplicate); // already buffered
    }

    #[test]
    fn accept_appends_to_recycled_scratch_without_clearing() {
        // The caller owns clearing; accept only appends — pinned here so
        // the zero-alloc contract in ReliableState::accept stays honest.
        let mut rc = RecvChannel::default();
        let mut ready = vec![99];
        assert_eq!(rc.accept(0, &mut ready), WireAccept::Deliver);
        assert_eq!(ready, vec![99, 0]);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = ReliableConfig {
            rto_initial: 10,
            rto_cap: 65,
            max_attempts: 8,
        };
        assert_eq!(cfg.backoff(1), 10);
        assert_eq!(cfg.backoff(2), 20);
        assert_eq!(cfg.backoff(3), 40);
        assert_eq!(cfg.backoff(4), 65); // capped
        assert_eq!(cfg.backoff(60), 65); // shift clamp, no overflow
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ReliableConfig::default();
        assert!(cfg.rto_initial > 0 && cfg.rto_cap >= cfg.rto_initial);
        assert!(cfg.max_attempts >= 2);
    }

    // --- Endpoint: the poll-driven real-time face ---

    fn ep() -> Endpoint<&'static str> {
        Endpoint::new(ReliableConfig {
            rto_initial: 10,
            rto_cap: 40,
            max_attempts: 3,
        })
    }

    #[test]
    fn endpoint_sequences_and_delivers_in_order() {
        let (mut a, mut b) = (ep(), ep());
        let s0 = a.send(0, "x");
        let s1 = a.send(0, "y");
        assert_eq!((s0, s1), (0, 1));
        let mut out = Vec::new();
        // Deliver out of order: seq 1 stashes, seq 0 flushes both.
        let ack = b.on_data(1, "y", &mut out);
        assert_eq!((ack, out.as_slice()), (0, &["x"; 0][..]));
        let ack = b.on_data(0, "x", &mut out);
        assert_eq!(ack, 2);
        assert_eq!(out, vec!["x", "y"]);
        a.on_ack(ack);
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.next_due(), None);
    }

    #[test]
    fn endpoint_dedups_and_still_refreshes_ack() {
        let mut b = ep();
        let mut out = Vec::new();
        assert_eq!(b.on_data(0, "x", &mut out), 1);
        assert_eq!(b.on_data(0, "x", &mut out), 1); // dup: acked again, not delivered
        assert_eq!(out, vec!["x"]);
    }

    #[test]
    fn endpoint_retransmits_with_backoff_then_abandons() {
        let mut a = ep();
        a.send(0, "x");
        assert_eq!(a.next_due(), Some(10));
        let mut out = Vec::new();
        a.poll(10, &mut out); // 2nd transmission
        assert_eq!(out, vec![(0, "x")]);
        assert_eq!(a.next_due(), Some(10 + 20));
        out.clear();
        a.poll(30, &mut out); // 3rd transmission (max_attempts = 3)
        assert_eq!(out, vec![(0, "x")]);
        out.clear();
        a.poll(100, &mut out); // exhausted: abandoned, not re-sent
        assert!(out.is_empty());
        assert_eq!(a.abandoned(), 1);
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.next_due(), None);
    }

    #[test]
    fn endpoint_poll_leaves_undue_timers_alone() {
        let mut a = ep();
        a.send(0, "x");
        a.send(5, "y");
        let mut out = Vec::new();
        a.poll(11, &mut out); // only seq 0 (due 10) fires; seq 1 due 15
        assert_eq!(out, vec![(0, "x")]);
        assert_eq!(a.next_due(), Some(15));
    }

    #[test]
    fn endpoint_unacked_replays_in_order_after_partial_ack() {
        let mut a = ep();
        for m in ["x", "y", "z"] {
            a.send(0, m);
        }
        a.on_ack(1);
        let replay: Vec<_> = a.unacked().collect();
        assert_eq!(replay, vec![(1, &"y"), (2, &"z")]);
    }
}
