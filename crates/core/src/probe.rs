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
/// let tag = ProbeTag::new(NodeId(3), 2);
/// assert_eq!(tag.to_string(), "(p3, 2)");
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
}

impl fmt::Display for ProbeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.initiator, self.n)
    }
}

/// One deadlock claim: `detector` declared `subject` deadlocked at `at`.
/// The probe computation's initiator declares itself (step A1) and names
/// the computation; a baseline's claim carries no tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlockReport {
    /// The declaring vertex (a probe computation's initiator, a baseline's
    /// coordinator, or the subject itself).
    pub detector: NodeId,
    /// The vertex claimed to be deadlocked.
    pub subject: NodeId,
    /// The computation that produced the meaningful probe, if any.
    pub tag: Option<ProbeTag>,
    /// Virtual time of the declaration.
    pub at: SimTime,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tag {
            Some(tag) => write!(
                f,
                "{}: {} declares deadlock via probe computation {tag}",
                self.at, self.detector
            ),
            None => write!(
                f,
                "{}: {} declares {} deadlocked",
                self.at, self.detector, self.subject
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            subject: NodeId(3),
            tag: Some(tag),
            at: SimTime::from_ticks(40),
        };
        assert!(r
            .to_string()
            .contains("p3 declares deadlock via probe computation (p3, 7)"));
        let untagged = DeadlockReport {
            detector: NodeId(4),
            subject: NodeId(1),
            tag: None,
            ..r
        };
        assert!(untagged
            .to_string()
            .ends_with(": p4 declares p1 deadlocked"));
    }
}
