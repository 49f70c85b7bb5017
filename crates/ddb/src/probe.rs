//! Per-computation probe state at a controller (§6.5–§6.6).
//!
//! For each probe computation a controller participates in, it keeps the
//! set of **labelled** local processes and the set of inter-controller
//! edges it already sent a probe along — "send a probe to `C_b` along edge
//! `((T_a, S_m), (T_a, S_b))` **if such a probe has not already been
//! sent**". [`CompState`] encapsulates exactly that bookkeeping; the
//! controller supplies the lock-table closure and the transport.

use std::collections::BTreeSet;
use std::fmt;

use simnet::time::SimTime;

use crate::ids::{DdbProbeTag, SiteId, TransactionId};

/// A deadlock declaration by a controller: process `(txn, site)` is on a
/// dark cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdbDeadlock {
    /// The declaring controller's site (also the process's site).
    pub site: SiteId,
    /// The deadlocked process's transaction.
    pub txn: TransactionId,
    /// The computation that found it; `None` when the deadlock was a purely
    /// intra-controller cycle found without probes (§6.7 step 1).
    pub tag: Option<DdbProbeTag>,
    /// Declaration time.
    pub at: SimTime,
}

impl fmt::Display for DdbDeadlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tag {
            Some(tag) => write!(
                f,
                "{}: C{} declares ({},{}) deadlocked via computation {}",
                self.at, self.site.0, self.txn, self.site, tag
            ),
            None => write!(
                f,
                "{}: C{} declares ({},{}) deadlocked via local cycle",
                self.at, self.site.0, self.txn, self.site
            ),
        }
    }
}

/// Labelling/deduplication state of one probe computation at one
/// controller.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompState {
    labels: BTreeSet<TransactionId>,
    sent: BTreeSet<(TransactionId, SiteId)>,
}

impl CompState {
    /// Fresh state (no labels, nothing sent).
    pub fn new() -> Self {
        CompState::default()
    }

    /// Folds a label closure into the state, returning the transactions
    /// that are **newly** labelled (whose inter-controller edges still need
    /// probes).
    pub fn add_labels(
        &mut self,
        closure: impl IntoIterator<Item = TransactionId>,
    ) -> Vec<TransactionId> {
        let mut fresh = Vec::new();
        for t in closure {
            if self.labels.insert(t) {
                fresh.push(t);
            }
        }
        fresh
    }

    /// `true` if `txn`'s local process is labelled in this computation.
    pub fn is_labelled(&self, txn: TransactionId) -> bool {
        self.labels.contains(&txn)
    }

    /// Registers the edge `(txn → site)` as probed; returns `true` if this
    /// is the first probe along it in this computation (i.e. the probe
    /// should actually be sent).
    pub fn mark_sent(&mut self, txn: TransactionId, site: SiteId) -> bool {
        self.sent.insert((txn, site))
    }

    /// Current labelled set.
    pub fn labels(&self) -> &BTreeSet<TransactionId> {
        &self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TransactionId {
        TransactionId(i)
    }

    #[test]
    fn add_labels_reports_only_new() {
        let mut c = CompState::new();
        assert_eq!(c.add_labels([t(1), t(2)]), vec![t(1), t(2)]);
        assert_eq!(c.add_labels([t(2), t(3)]), vec![t(3)]);
        assert!(c.is_labelled(t(1)) && c.is_labelled(t(3)));
        assert!(!c.is_labelled(t(9)));
        assert_eq!(c.labels().len(), 3);
    }

    #[test]
    fn mark_sent_dedups_per_edge() {
        let mut c = CompState::new();
        assert!(c.mark_sent(t(1), SiteId(2)));
        assert!(!c.mark_sent(t(1), SiteId(2)));
        assert!(c.mark_sent(t(1), SiteId(3)));
        assert!(c.mark_sent(t(2), SiteId(2)));
    }

    #[test]
    fn deadlock_display() {
        let d = DdbDeadlock {
            site: SiteId(1),
            txn: t(4),
            tag: None,
            at: SimTime::from_ticks(10),
        };
        assert!(d.to_string().contains("local cycle"));
        let d2 = DdbDeadlock {
            tag: Some(DdbProbeTag {
                initiator: SiteId(1),
                n: 3,
            }),
            ..d
        };
        assert!(d2.to_string().contains("computation (S1, 3)"));
    }
}
