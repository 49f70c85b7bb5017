//! Liveness auditing: the wedge taxonomy.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TransactionId {
        TransactionId(i)
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
