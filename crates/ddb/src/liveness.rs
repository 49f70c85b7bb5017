//! Liveness auditing: wedge taxonomy and the deterministic stall watchdog.
//!
//! The paper proves **safety** of detection (P1–P4, Theorems 1–2); this
//! module machine-checks the **liveness** premise those proofs stand on —
//! that a blocked process is either genuinely waiting (its chain ends in
//! someone who can still move), or deadlocked (on a dark cycle, awaiting
//! detection and resolution). A transaction in neither class is *wedged*:
//! blocked with no dark cycle below it, no in-flight message that could
//! still unblock it, and no progressing transaction anywhere in its reach
//! — nothing will ever wake it. A correct controller never produces one;
//! [`crate::net::DdbNet::verify_liveness`] fails loudly if one appears.
//!
//! The [`Watchdog`] is the dynamic counterpart: it tracks per-transaction
//! progress epochs across observations in *sim time* (deterministic — no
//! wall clock) and flags transactions whose epoch has not advanced within
//! a threshold. Stalled-but-classifiable transactions (long lock queues,
//! genuine deadlocks before the detector's period elapses) are expected;
//! the watchdog's output is a suspect list for the classifier, not a
//! verdict.

use std::collections::BTreeMap;

use simnet::time::SimTime;

use crate::ids::{SiteId, TransactionId};

/// Liveness classification of one non-terminal transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TxnClass {
    /// Able to move on its own: runnable, inside a work step, or aborted
    /// with a restart pending.
    Progressing,
    /// Blocked, but its wait chain reaches a dark cycle (queued behind a
    /// deadlock awaiting resolution), a progressing transaction, or there
    /// are messages in flight that may still unblock it.
    GenuinelyWaiting,
    /// Blocked on a dark cycle itself — deadlocked, awaiting detection
    /// and resolution.
    Deadlocked,
    /// Blocked with no dark cycle in its reach, no progressing
    /// transaction in its reach, and no message in flight: nothing will
    /// ever wake it. A liveness bug by definition.
    Wedged,
}

/// One transaction's verdict in a [`LivenessReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnLiveness {
    /// The transaction.
    pub txn: TransactionId,
    /// Its home site.
    pub home: SiteId,
    /// The classification.
    pub class: TxnClass,
    /// Progress epoch at classification time (see
    /// [`crate::controller::ScriptSnapshot::epoch`]).
    pub epoch: u64,
}

/// Point-in-time liveness classification of every non-terminal
/// transaction, produced by [`crate::net::DdbNet::liveness_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessReport {
    /// Virtual time of the observation.
    pub at: SimTime,
    /// Per-transaction verdicts, in transaction order.
    pub classes: Vec<TxnLiveness>,
    /// Message-bearing events in flight at observation time.
    pub in_flight_messages: usize,
}

impl LivenessReport {
    /// Number of transactions in `class`.
    pub fn count(&self, class: TxnClass) -> usize {
        self.classes.iter().filter(|c| c.class == class).count()
    }

    /// The wedged transactions (empty iff the report is live).
    pub fn wedged(&self) -> Vec<(TransactionId, SiteId)> {
        self.classes
            .iter()
            .filter(|c| c.class == TxnClass::Wedged)
            .map(|c| (c.txn, c.home))
            .collect()
    }

    /// True iff no transaction is wedged.
    pub fn is_live(&self) -> bool {
        self.classes.iter().all(|c| c.class != TxnClass::Wedged)
    }
}

/// Deterministic sim-time stall detector.
///
/// Feed it `(txn, epoch)` observations (e.g. from
/// [`crate::net::DdbNet::progress_epochs`]) together with the current
/// virtual time; it remembers when each transaction's epoch last moved
/// and returns the transactions stalled for longer than the threshold.
/// Purely a function of the observation sequence — two identical runs
/// produce identical suspect lists.
#[derive(Debug, Clone)]
pub struct Watchdog {
    threshold: u64,
    seen: BTreeMap<TransactionId, (u64, SimTime)>,
}

impl Watchdog {
    /// A watchdog flagging transactions whose epoch has not advanced for
    /// more than `threshold` ticks.
    pub fn new(threshold: u64) -> Self {
        Watchdog {
            threshold: threshold.max(1),
            seen: BTreeMap::new(),
        }
    }

    /// Records one observation and returns the current suspect list:
    /// transactions observed before whose epoch has not moved for more
    /// than the threshold. Transactions absent from `observation`
    /// (committed) are dropped from tracking.
    pub fn observe(
        &mut self,
        now: SimTime,
        observation: impl IntoIterator<Item = (TransactionId, u64)>,
    ) -> Vec<TransactionId> {
        let mut present: BTreeMap<TransactionId, u64> = BTreeMap::new();
        for (t, e) in observation {
            present.insert(t, e);
        }
        self.seen.retain(|t, _| present.contains_key(t));
        let mut stalled = Vec::new();
        for (t, e) in present {
            match self.seen.get_mut(&t) {
                Some((last, since)) if *last == e => {
                    if now.ticks().saturating_sub(since.ticks()) > self.threshold {
                        stalled.push(t);
                    }
                }
                Some(entry) => *entry = (e, now),
                None => {
                    self.seen.insert(t, (e, now));
                }
            }
        }
        stalled
    }

    /// Number of transactions currently tracked.
    pub fn tracked(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TransactionId {
        TransactionId(i)
    }

    #[test]
    fn watchdog_flags_only_after_threshold() {
        let mut w = Watchdog::new(100);
        assert!(w.observe(SimTime::from_ticks(0), [(t(1), 5)]).is_empty());
        // Epoch unchanged but within threshold: quiet.
        assert!(w.observe(SimTime::from_ticks(80), [(t(1), 5)]).is_empty());
        // Past threshold with no movement: flagged.
        assert_eq!(w.observe(SimTime::from_ticks(200), [(t(1), 5)]), vec![t(1)]);
        // Epoch moved: timer resets.
        assert!(w.observe(SimTime::from_ticks(250), [(t(1), 6)]).is_empty());
        assert!(w.observe(SimTime::from_ticks(320), [(t(1), 6)]).is_empty());
        assert_eq!(w.observe(SimTime::from_ticks(400), [(t(1), 6)]), vec![t(1)]);
    }

    #[test]
    fn watchdog_drops_terminated_transactions() {
        let mut w = Watchdog::new(10);
        w.observe(SimTime::from_ticks(0), [(t(1), 1), (t(2), 1)]);
        assert_eq!(w.tracked(), 2);
        // T2 committed and vanished from the observation.
        let stalled = w.observe(SimTime::from_ticks(50), [(t(1), 1)]);
        assert_eq!(stalled, vec![t(1)]);
        assert_eq!(w.tracked(), 1);
    }

    #[test]
    fn report_accessors() {
        let report = LivenessReport {
            at: SimTime::from_ticks(7),
            classes: vec![
                TxnLiveness {
                    txn: t(1),
                    home: SiteId(0),
                    class: TxnClass::Progressing,
                    epoch: 3,
                },
                TxnLiveness {
                    txn: t(2),
                    home: SiteId(1),
                    class: TxnClass::Wedged,
                    epoch: 9,
                },
            ],
            in_flight_messages: 0,
        };
        assert_eq!(report.count(TxnClass::Progressing), 1);
        assert_eq!(report.wedged(), vec![(t(2), SiteId(1))]);
        assert!(!report.is_live());
    }
}
