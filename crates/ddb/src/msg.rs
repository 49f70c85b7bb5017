//! Inter-controller messages of the DDB model (§6.2, §6.5).
//!
//! Processes communicate only with their own controller (a local, in-memory
//! interaction); **controllers** exchange messages over the network. The
//! simulation therefore has one node per controller and these five message
//! kinds on the wire.

use crate::ids::{AgentId, DdbProbeTag, ResourceId, SiteId, TransactionId};
use crate::lock::LockMode;
use crate::wfgd::AgentEdgeSet;

/// A message from one controller to another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdbMsg {
    /// `C_home → C_m`: transaction `txn`'s agent at the recipient should
    /// request `resource` in `mode` from its local lock table. Creates the
    /// (grey, then black on receipt) inter-controller edge
    /// `((txn, home), (txn, m))`.
    RemoteRequest {
        /// The requesting transaction.
        txn: TransactionId,
        /// The resource managed by the recipient.
        resource: ResourceId,
        /// Requested lock mode.
        mode: LockMode,
        /// The sender (the transaction's home site), so the recipient can
        /// route grants and aborts back.
        home: SiteId,
    },
    /// `C_m → C_home`: the remote agent acquired `resource`. Whitens the
    /// inter-controller edge at send and deletes it at receipt.
    Acquired {
        /// The transaction.
        txn: TransactionId,
        /// The acquired resource.
        resource: ResourceId,
    },
    /// `C_home → C_m`: release `resource` (held **or** still queued — a
    /// release of a queued request is a cancellation).
    RemoteRelease {
        /// The transaction.
        txn: TransactionId,
        /// The resource to release.
        resource: ResourceId,
    },
    /// A deadlock-detection probe sent **along** the inter-controller edge
    /// `edge` (§6.5 — the probe carries its tag and the edge identity).
    Probe {
        /// The computation this probe belongs to.
        tag: DdbProbeTag,
        /// The inter-controller edge `((T_a, S_sender), (T_a, S_receiver))`
        /// the probe travels.
        edge: (AgentId, AgentId),
    },
    /// Deadlock resolution (extension; the paper defers resolution to
    /// [3, 6]): ask the transaction's home controller to abort it.
    Abort {
        /// The victim transaction.
        txn: TransactionId,
    },
    /// §5 WFGD propagation: `edges` lie on permanent black paths leading
    /// from the recipient's process `(txn, S_recipient)`; sent backwards
    /// along the inter-controller edge that process heads.
    Wfgd {
        /// The transaction whose local process the set informs.
        txn: TransactionId,
        /// The deadlocked-portion edges.
        edges: AgentEdgeSet,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_edge_identity_shares_transaction() {
        let t = TransactionId(3);
        let e = (AgentId::new(t, SiteId(0)), AgentId::new(t, SiteId(1)));
        let m = DdbMsg::Probe {
            tag: DdbProbeTag {
                initiator: SiteId(0),
                n: 1,
            },
            edge: e,
        };
        if let DdbMsg::Probe { edge, .. } = m {
            assert_eq!(edge.0.txn, edge.1.txn);
        } else {
            unreachable!();
        }
    }
}
