//! Identifiers of the Menasce–Muntz DDB model (§6.2).
//!
//! A DDB runs on `N` computers (sites) `S_1..S_N`, each with a controller
//! `C_j`. `M` transactions `T_1..T_M` run on the DDB; a transaction is a
//! collection of processes with at most one per site, so the tuple
//! `(T_i, S_j)` — an [`AgentId`] here — uniquely identifies a process.

use std::fmt;

use cmh_core::vset::PackedVertex;
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

    /// `txn << 32 | site`: one word that sorts as the agent does.
    fn packed(self) -> u64 {
        match u32::try_from(self.site.0) {
            Ok(site) => u64::from(self.txn.0) << 32 | u64::from(site),
            Err(_) => panic!("{} does not fit 32 bits of an edge key", self.site),
        }
    }

    /// The inverse of [`AgentId::packed`].
    fn unpacked(word: u64) -> AgentId {
        AgentId::new(
            TransactionId((word >> 32) as u32),
            SiteId(word as u32 as usize),
        )
    }
}

/// An agent edge packs into two words, the tail's and the head's: the §5
/// sets of the DDB model are [`cmh_core::vset::EdgeBitSet`]s of agents.
impl PackedVertex for AgentId {
    type Key = (u64, u64);

    #[inline]
    fn pack_edge(tail: AgentId, head: AgentId) -> (u64, u64) {
        (tail.packed(), head.packed())
    }

    #[inline]
    fn unpack_edge((tail, head): (u64, u64)) -> (AgentId, AgentId) {
        (AgentId::unpacked(tail), AgentId::unpacked(head))
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
    fn agent_edges_pack_in_tuple_order() {
        let agents = [(0, 0), (0, 63), (0, 64), (1, 127), (1, 128), (65_536, 3)]
            .into_iter()
            .chain([(u32::MAX, u32::MAX as usize)])
            .map(|(t, s)| AgentId::new(TransactionId(t), SiteId(s)));
        let agents: Vec<AgentId> = agents.collect();
        for &a in &agents {
            for &b in &agents {
                let key = AgentId::pack_edge(a, b);
                assert_eq!(AgentId::unpack_edge(key), (a, b));
                for &c in &agents {
                    for &d in &agents {
                        let other = AgentId::pack_edge(c, d);
                        assert_eq!(key.cmp(&other), (a, b).cmp(&(c, d)));
                    }
                }
            }
        }
    }

    #[test]
    fn agent_edge_sets_match_btreeset() {
        use std::collections::BTreeSet;

        use cmh_core::vset::EdgeBitSet;
        use simnet::rng::DetRng;

        // Sites either side of a block boundary, ids past 16 bits.
        let agent = |i: u64| {
            let txn = [0, 1, 65_536, u32::MAX][i as usize % 4];
            let site = [0, 63, 64, 127, 128, 70_000][i as usize / 4 % 6];
            AgentId::new(TransactionId(txn), SiteId(site))
        };
        let mut rng = DetRng::seed_from_u64(0xa6e7);
        let mut edge = || (agent(rng.next_below(24)), agent(rng.next_below(24)));
        let (mut s, mut model) = (EdgeBitSet::new(), BTreeSet::new());
        for step in 0..2_000 {
            let e = edge();
            if step % 3 == 0 {
                let other: EdgeBitSet<AgentId> = [e, edge(), edge()].into_iter().collect();
                let before = model.len();
                model.extend(other.iter());
                assert_eq!(s.union_with(&other), model.len() > before);
            } else {
                assert_eq!(s.contains(&e), model.contains(&e));
                assert_eq!(
                    s.with(e),
                    model.iter().copied().chain([e]).collect::<BTreeSet<_>>()
                );
                assert_eq!(s.insert(e), model.insert(e));
            }
            assert_eq!(s.len(), model.len());
            assert!(s.iter().eq(model.iter().copied()));
            assert_eq!(format!("{s:?}"), format!("{model:?}"));
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_site_past_32_bits_panics_instead_of_aliasing() {
        let agent = |site| AgentId::new(TransactionId(0), SiteId(site));
        AgentId::pack_edge(agent(1 << 32), agent(0));
    }

    #[test]
    fn agent_ordering_is_txn_major() {
        let a = AgentId::new(TransactionId(1), SiteId(9));
        let b = AgentId::new(TransactionId(2), SiteId(0));
        assert!(a < b);
    }
}
