//! Identifiers of the Menasce–Muntz DDB model (§6.2).
//!
//! A DDB runs on `N` computers (sites) `S_1..S_N`, each with a controller
//! `C_j`. `M` transactions `T_1..T_M` run on the DDB; a transaction is a
//! collection of processes with at most one per site, so the tuple
//! `(T_i, S_j)` — an [`AgentId`] here — uniquely identifies a process.

use std::fmt;

use simnet::sim::NodeId;

/// A transaction `T_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TransactionId(pub u32);

impl fmt::Display for TransactionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A computer/site `S_j`; its controller `C_j` is the simulation node with
/// the same index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteId(pub usize);

impl SiteId {
    /// The simulation node that hosts this site's controller.
    pub fn node(self) -> NodeId {
        NodeId(self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A process `(T_i, S_j)`: transaction `T_i`'s agent at site `S_j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId {
    /// The transaction the process belongs to.
    pub txn: TransactionId,
    /// The site the process runs on.
    pub site: SiteId,
}

impl AgentId {
    /// Creates an agent id.
    pub fn new(txn: TransactionId, site: SiteId) -> Self {
        AgentId { txn, site }
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.txn, self.site)
    }
}

/// A lockable resource (file, record, …). Resources are managed by exactly
/// one controller; which one is part of the workload definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ResourceId(pub u64);

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identity of a DDB probe computation: the `n`-th initiated by controller
/// `initiator` (§6.5 tags all labels and probes of a computation `(j, n)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DdbProbeTag {
    /// The initiating controller's site.
    pub initiator: SiteId,
    /// Sequence number at that controller (1-based).
    pub n: u64,
}

impl fmt::Display for DdbProbeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.initiator, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let a = AgentId::new(TransactionId(2), SiteId(3));
        assert_eq!(a.to_string(), "(T2,S3)");
        assert_eq!(ResourceId(9).to_string(), "r9");
        assert_eq!(
            DdbProbeTag {
                initiator: SiteId(1),
                n: 4
            }
            .to_string(),
            "(S1, 4)"
        );
    }

    #[test]
    fn site_maps_to_node() {
        assert_eq!(SiteId(5).node(), NodeId(5));
    }

    #[test]
    fn agent_ordering_is_txn_major() {
        let a = AgentId::new(TransactionId(1), SiteId(9));
        let b = AgentId::new(TransactionId(2), SiteId(0));
        assert!(a < b);
    }
}
