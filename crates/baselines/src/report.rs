//! Common report type and ground-truth classification for the baseline
//! detectors.
//!
//! Unlike the probe computation (proved sound, QRP2), the baselines can
//! report **phantom deadlocks**. Each runs in the journalled harness
//! ([`cmh_core::Net`]), so every report can be classified post-hoc
//! against the harness's as-of-time ground truth: was the subject on a
//! dark cycle at the moment it was declared deadlocked?

use cmh_core::{Net, Vertex};
use simnet::sim::NodeId;
use simnet::time::SimTime;

/// One "deadlock" claim by a baseline detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineReport {
    /// The node that made the claim (coordinator, or the subject itself).
    pub detector: NodeId,
    /// The vertex claimed to be deadlocked.
    pub subject: NodeId,
    /// Claim time.
    pub at: SimTime,
}

/// Split of reports into genuine and phantom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Classified {
    /// Reports whose subject was on a dark cycle when declared.
    pub genuine: usize,
    /// Reports whose subject was **not** on a dark cycle when declared.
    pub phantom: usize,
}

impl Classified {
    /// Fraction of reports that were phantom (0 if no reports).
    pub fn phantom_rate(&self) -> f64 {
        let total = self.genuine + self.phantom;
        if total == 0 {
            0.0
        } else {
            self.phantom as f64 / total as f64
        }
    }
}

/// A baseline vertex that makes deadlock claims.
pub trait Claims: Vertex {
    /// Appends the claims this vertex (`me`) has made to `out`.
    fn claims(&self, me: NodeId, out: &mut Vec<BaselineReport>);
}

/// Every claim made in `net` so far, ordered by time and subject.
pub fn reports<P: Claims>(net: &Net<P>) -> Vec<BaselineReport> {
    let mut out = Vec::new();
    for i in 0..net.node_count() {
        net.node(NodeId(i)).claims(NodeId(i), &mut out);
    }
    out.sort_by_key(|r| (r.at, r.subject));
    out
}

/// Classifies every claim in `net` against its journalled ground truth.
///
/// # Panics
///
/// Panics if the journal is not a legal G1–G4 history (a harness bug).
pub fn classify<P: Claims>(net: &Net<P>) -> Classified {
    let reports = reports(net);
    let dark = |r: &&BaselineReport| net.on_dark_cycle_at(r.subject, r.at).expect("journal");
    let genuine = reports.iter().filter(dark).count();
    let phantom = reports.len() - genuine;
    Classified { genuine, phantom }
}

#[cfg(test)]
mod tests {
    use simnet::sim::SimBuilder;

    use super::*;
    use crate::timeout;

    #[test]
    fn classify_distinguishes_genuine_from_phantom() {
        // A 2-cycle (0, 1) and a slow wait 2 → 3: all three time out, but
        // only the cycle's members are deadlocked.
        let mut net = timeout::net(4, 30, 200, SimBuilder::new().seed(1));
        net.request_edges(&[(0, 1), (1, 0), (2, 3)]).unwrap();
        net.run_until(SimTime::from_ticks(100));
        let subjects: Vec<NodeId> = reports(&net).iter().map(|r| r.subject).collect();
        assert_eq!(subjects, [NodeId(0), NodeId(1), NodeId(2)]);
        let c = classify(&net);
        assert_eq!(
            c,
            Classified {
                genuine: 2,
                phantom: 1
            }
        );
        assert!((c.phantom_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_reports_zero_rate() {
        assert_eq!(Classified::default().phantom_rate(), 0.0);
    }
}
