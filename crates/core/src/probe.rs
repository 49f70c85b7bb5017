//! Probe-computation identifiers and detection reports (§3.2, §4.3).
//!
//! Probe computations are tagged `(i, n)`: the `n`-th computation initiated
//! by vertex `i`. Tags totally order computations of one initiator; every
//! vertex need only remember the **latest** computation per initiator
//! (§4.3), which bounds per-vertex state at `O(N)`.

use std::fmt;

use simnet::sim::NodeId;
use simnet::time::SimTime;

/// Identity of one probe computation: the `n`-th initiated by `initiator`.
///
/// # Examples
///
/// ```
/// use cmh_core::probe::ProbeTag;
/// use simnet::sim::NodeId;
///
/// let old = ProbeTag::new(NodeId(3), 1);
/// let new = ProbeTag::new(NodeId(3), 2);
/// assert!(new.supersedes(old));
/// assert_eq!(new.to_string(), "(p3, 2)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProbeTag {
    /// The vertex that started this computation.
    pub initiator: NodeId,
    /// Sequence number of the computation at that initiator (1-based).
    pub n: u64,
}

impl ProbeTag {
    /// Creates a tag.
    pub fn new(initiator: NodeId, n: u64) -> Self {
        ProbeTag { initiator, n }
    }

    /// `true` if this tag supersedes `other` (§4.3: computation `(i, n)`
    /// makes all `(i, k)`, `k < n`, ignorable). Tags of different
    /// initiators never supersede each other.
    pub fn supersedes(self, other: ProbeTag) -> bool {
        self.initiator == other.initiator && self.n > other.n
    }
}

impl fmt::Display for ProbeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.initiator, self.n)
    }
}

/// Emitted when an initiator declares "I am on a black cycle" (step A1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlockReport {
    /// The declaring vertex (always the computation's initiator).
    pub detector: NodeId,
    /// The computation that produced the meaningful probe.
    pub tag: ProbeTag,
    /// Virtual time of the declaration.
    pub at: SimTime,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} declares deadlock via probe computation {}",
            self.at, self.detector, self.tag
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supersession_is_per_initiator() {
        let a1 = ProbeTag::new(NodeId(1), 1);
        let a2 = ProbeTag::new(NodeId(1), 2);
        let b5 = ProbeTag::new(NodeId(2), 5);
        assert!(a2.supersedes(a1));
        assert!(!a1.supersedes(a2));
        assert!(!b5.supersedes(a1));
        assert!(!a1.supersedes(a1));
    }

    #[test]
    fn tag_ordering_groups_by_initiator() {
        let mut v = vec![
            ProbeTag::new(NodeId(2), 1),
            ProbeTag::new(NodeId(1), 9),
            ProbeTag::new(NodeId(1), 2),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                ProbeTag::new(NodeId(1), 2),
                ProbeTag::new(NodeId(1), 9),
                ProbeTag::new(NodeId(2), 1),
            ]
        );
    }

    #[test]
    fn display_forms() {
        let tag = ProbeTag::new(NodeId(3), 7);
        assert_eq!(tag.to_string(), "(p3, 7)");
        let r = DeadlockReport {
            detector: NodeId(3),
            tag,
            at: SimTime::from_ticks(40),
        };
        assert!(r.to_string().contains("p3 declares deadlock"));
    }
}
