//! Deterministic fault injection: message loss, duplication, reordering,
//! node crash/restart and network partitions.
//!
//! The paper's process axioms assume a perfect network — messages are
//! received correctly, in order, within finite time (P4). A [`FaultPlan`]
//! deliberately breaks those assumptions so experiments can measure *how*
//! the probe computation fails without them (phantom and missed deadlocks),
//! and so the reliable-delivery layer ([`crate::reliable`]) can be shown to
//! restore them.
//!
//! All fault decisions are drawn from a dedicated RNG substream forked off
//! the simulation seed, so:
//!
//! * the same seed and the same plan reproduce the same faults, byte for
//!   byte (the golden-determinism tests rely on this), and
//! * an *empty* plan leaves the simulation bit-identical to a run built
//!   without one (no extra RNG draws on the main stream).
//!
//! Every injected fault is observable: dropped and duplicated messages are
//! recorded in the trace ([`crate::trace::TraceEvent::Drop`] /
//! [`crate::trace::TraceEvent::Duplicate`]) and counted in the metrics
//! (`sim.messages_dropped`, `sim.messages_duplicated`, `sim.crashes`,
//! `sim.restarts`).
//!
//! # Examples
//!
//! ```
//! use simnet::faults::FaultPlan;
//! use simnet::time::SimTime;
//!
//! let plan = FaultPlan::new()
//!     .loss(0.10)
//!     .duplicate(0.05)
//!     .reorder(0.05, 40)
//!     .crash(simnet::sim::NodeId(2), SimTime::from_ticks(500), Some(SimTime::from_ticks(900)));
//! assert!(!plan.is_noop());
//! assert!(FaultPlan::new().is_noop());
//! ```

use std::fmt;

use crate::rng::DetRng;
use crate::sim::NodeId;
use crate::time::SimTime;

/// Why a message (or wire packet) was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss fault.
    Loss,
    /// Sender and recipient were on opposite sides of an active partition.
    Partitioned,
    /// The recipient was crashed at delivery time.
    CrashedRecipient,
    /// The sender was crashed when the send was attempted.
    CrashedSender,
    /// The reliable layer gave up after its maximum transmission attempts.
    Abandoned,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DropReason::Loss => "loss",
            DropReason::Partitioned => "partition",
            DropReason::CrashedRecipient => "crashed-recipient",
            DropReason::CrashedSender => "crashed-sender",
            DropReason::Abandoned => "abandoned",
        };
        write!(f, "{s}")
    }
}

/// A scheduled crash of one node, with an optional restart.
///
/// While crashed, a node receives nothing (messages addressed to it are
/// dropped at delivery time), its timers are lost, and it cannot send. On
/// restart, [`crate::sim::Process::on_restart`] runs so the process can
/// model the loss of its volatile state. The simulator treats everything a
/// `Process` keeps in ordinary fields as surviving the crash unless
/// `on_restart` explicitly clears it — the hook is where the volatile /
/// stable-storage split is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// The node that crashes.
    pub node: NodeId,
    /// When it crashes.
    pub at: SimTime,
    /// When it restarts (`None` = never; the node stays down).
    pub restart_at: Option<SimTime>,
}

/// A network partition over a time window: messages crossing the boundary
/// between `group` and its complement are dropped while the window is
/// active. Traffic within `group`, and within the complement, is unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// One side of the partition (the other side is every other node).
    pub group: Vec<NodeId>,
    /// Start of the window (inclusive).
    pub from: SimTime,
    /// End of the window (exclusive).
    pub until: SimTime,
}

impl Partition {
    fn active(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }

    fn separates(&self, a: NodeId, b: NodeId) -> bool {
        self.group.contains(&a) != self.group.contains(&b)
    }
}

/// A seeded, deterministic description of every fault a run will inject.
///
/// Build one with the fluent methods, then install it with
/// [`crate::sim::SimBuilder::faults`]. The loss, duplication and reorder
/// rates apply to every channel alike. Probabilities are clamped to
/// `[0, 1]` at decision time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Plan-wide probability that a message is lost.
    pub loss: f64,
    /// Plan-wide probability that a message is duplicated.
    pub duplicate: f64,
    /// Plan-wide probability that a message is reordered (delivered with
    /// extra delay, bypassing the FIFO channel clock).
    pub reorder: f64,
    /// Maximum extra delay (ticks) for reordered messages.
    pub max_extra_delay: u64,
    /// Scheduled crashes (and restarts).
    pub crashes: Vec<Crash>,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the plan-wide loss probability.
    pub fn loss(mut self, p: f64) -> Self {
        self.loss = p;
        self
    }

    /// Sets the plan-wide duplication probability.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the plan-wide reorder probability and the extra-delay bound.
    pub fn reorder(mut self, p: f64, max_extra_delay: u64) -> Self {
        self.reorder = p;
        self.max_extra_delay = max_extra_delay;
        self
    }

    /// Schedules a crash of `node` at `at`, restarting at `restart_at`
    /// (`None` = permanent).
    pub fn crash(mut self, node: NodeId, at: SimTime, restart_at: Option<SimTime>) -> Self {
        debug_assert!(
            restart_at.is_none_or(|r| r > at),
            "restart must come after the crash"
        );
        self.crashes.push(Crash {
            node,
            at,
            restart_at,
        });
        self
    }

    /// Schedules a partition separating `group` from every other node over
    /// `[from, until)`.
    pub fn partition(
        mut self,
        group: impl IntoIterator<Item = NodeId>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.partitions.push(Partition {
            group: group.into_iter().collect(),
            from,
            until,
        });
        self
    }

    /// `true` if the plan injects nothing at all. A no-op plan leaves the
    /// simulation bit-identical to one built without a plan.
    pub fn is_noop(&self) -> bool {
        self.loss == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.crashes.is_empty()
            && self.partitions.is_empty()
    }
}

/// What fault injection decided for one transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendFate {
    /// The transmission never arrives.
    Lost(DropReason),
    /// The transmission arrives, possibly twice, possibly late.
    Deliver {
        /// Inject a second copy with an independent delay.
        duplicate: bool,
        /// Extra delay beyond the latency sample; non-zero also bypasses
        /// the FIFO channel clock so the message can be overtaken.
        extra_delay: u64,
    },
}

impl SendFate {
    /// The fate of a transmission on a fault-free network.
    pub(crate) fn clean() -> Self {
        SendFate::Deliver {
            duplicate: false,
            extra_delay: 0,
        }
    }
}

/// Live fault-decision state: the plan plus its dedicated RNG substream.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: DetRng,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, rng: DetRng) -> Self {
        FaultState { plan, rng }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of one transmission from `from` to `to` at `now`,
    /// drawing from the state's own substream.
    ///
    /// Decision order is fixed (partition, loss, duplication, reorder) so
    /// that identical plans consume the fault RNG identically.
    pub(crate) fn classify(&mut self, now: SimTime, from: NodeId, to: NodeId) -> SendFate {
        // Split the borrow: the plan is read-only, the stream is consumed.
        let FaultState { plan, rng } = self;
        Self::classify_with(plan, rng, now, from, to)
    }

    /// [`FaultState::classify`] against an *external* RNG stream. The
    /// schedule explorer routes fault draws through per-sender substreams
    /// so the decision sequence a sender observes depends only on its own
    /// send order, never on how same-tick events at other nodes were
    /// interleaved — the independence the DPOR commutation relation
    /// (DESIGN §13) requires.
    pub(crate) fn classify_with(
        plan: &FaultPlan,
        rng: &mut DetRng,
        now: SimTime,
        from: NodeId,
        to: NodeId,
    ) -> SendFate {
        if plan
            .partitions
            .iter()
            .any(|p| p.active(now) && p.separates(from, to))
        {
            return SendFate::Lost(DropReason::Partitioned);
        }
        if plan.loss > 0.0 && rng.chance(plan.loss.min(1.0)) {
            return SendFate::Lost(DropReason::Loss);
        }
        let duplicate = plan.duplicate > 0.0 && rng.chance(plan.duplicate.min(1.0));
        let extra_delay = if plan.reorder > 0.0 && rng.chance(plan.reorder.min(1.0)) {
            rng.range_inclusive(1, plan.max_extra_delay.max(1))
        } else {
            0
        };
        SendFate::Deliver {
            duplicate,
            extra_delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }
    fn t(i: u64) -> SimTime {
        SimTime::from_ticks(i)
    }

    #[test]
    fn noop_detection() {
        assert!(FaultPlan::new().is_noop());
        assert!(!FaultPlan::new().loss(0.1).is_noop());
        assert!(!FaultPlan::new().crash(n(0), t(5), None).is_noop());
        assert!(!FaultPlan::new().partition([n(0)], t(0), t(10)).is_noop());
    }

    #[test]
    fn partition_separates_only_across_boundary_during_window() {
        let p = Partition {
            group: vec![n(0), n(1)],
            from: t(10),
            until: t(20),
        };
        assert!(p.active(t(10)) && p.active(t(19)));
        assert!(!p.active(t(9)) && !p.active(t(20)));
        assert!(p.separates(n(0), n(2)));
        assert!(!p.separates(n(0), n(1)));
        assert!(!p.separates(n(2), n(3)));
    }

    #[test]
    fn classify_is_deterministic_per_seed() {
        let plan = FaultPlan::new().loss(0.3).duplicate(0.2).reorder(0.2, 50);
        let mut a = FaultState::new(plan.clone(), DetRng::seed_from_u64(9));
        let mut b = FaultState::new(plan, DetRng::seed_from_u64(9));
        for i in 0..500 {
            let fa = a.classify(t(i), n(0), n(1));
            let fb = b.classify(t(i), n(0), n(1));
            assert_eq!(fa, fb);
        }
    }

    #[test]
    fn loss_one_always_drops_loss_zero_never() {
        let mut always = FaultState::new(FaultPlan::new().loss(1.0), DetRng::seed_from_u64(1));
        let mut never = FaultState::new(FaultPlan::new().duplicate(0.0), DetRng::seed_from_u64(1));
        for i in 0..100 {
            assert_eq!(
                always.classify(t(i), n(0), n(1)),
                SendFate::Lost(DropReason::Loss)
            );
            assert_eq!(never.classify(t(i), n(0), n(1)), SendFate::clean());
        }
    }

    /// The fates a plan-wide plan deals, and the draws they take, are
    /// pinned: a fingerprint of 500 decisions over three channels plus the
    /// next value of the stream they consumed.
    #[test]
    fn plan_wide_fates_are_pinned() {
        let plan = FaultPlan::new().loss(0.3).duplicate(0.2).reorder(0.2, 50);
        let mut f = FaultState::new(plan, DetRng::seed_from_u64(9));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..500u64 {
            let from = (i % 3) as usize;
            let code = match f.classify(t(i), n(from), n((from + 1) % 3)) {
                SendFate::Lost(_) => 0,
                SendFate::Deliver {
                    duplicate,
                    extra_delay,
                } => 1 + u64::from(duplicate) + 2 * extra_delay,
            };
            h = (h ^ code).wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(
            (h, f.rng.next_u64()),
            (0xa41e_fd68_419e_c649, 0xb2d0_c7b0_bed2_9243)
        );
    }

    #[test]
    fn partition_blocks_cross_traffic_in_window_only() {
        let plan = FaultPlan::new().partition([n(0)], t(10), t(20));
        let mut f = FaultState::new(plan, DetRng::seed_from_u64(5));
        assert_eq!(f.classify(t(5), n(0), n(1)), SendFate::clean());
        assert_eq!(
            f.classify(t(15), n(0), n(1)),
            SendFate::Lost(DropReason::Partitioned)
        );
        assert_eq!(
            f.classify(t(15), n(1), n(0)),
            SendFate::Lost(DropReason::Partitioned)
        );
        assert_eq!(f.classify(t(15), n(1), n(2)), SendFate::clean());
        assert_eq!(f.classify(t(25), n(0), n(1)), SendFate::clean());
    }

    #[test]
    fn reorder_extra_delay_is_bounded() {
        let plan = FaultPlan::new().reorder(1.0, 7);
        let mut f = FaultState::new(plan, DetRng::seed_from_u64(11));
        for i in 0..200 {
            match f.classify(t(i), n(0), n(1)) {
                SendFate::Deliver { extra_delay, .. } => {
                    assert!((1..=7).contains(&extra_delay));
                }
                SendFate::Lost(_) => panic!("no loss configured"),
            }
        }
    }

    #[test]
    fn drop_reason_display() {
        assert_eq!(DropReason::Loss.to_string(), "loss");
        assert_eq!(DropReason::Partitioned.to_string(), "partition");
        assert_eq!(DropReason::Abandoned.to_string(), "abandoned");
    }
}
