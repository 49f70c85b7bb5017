//! Per-computation probe state at a controller (§6.5–§6.6).
//!
//! For each probe computation a controller participates in, it keeps the
//! set of **labelled** local processes and the set of inter-controller
//! edges it already sent a probe along — "send a probe to `C_b` along edge
//! `((T_a, S_m), (T_a, S_b))` **if such a probe has not already been
//! sent**". [`CompState`] encapsulates exactly that bookkeeping, and
//! `CompWindow` holds one initiator's computations; the controller
//! supplies the lock-table closure and the transport.

use std::collections::VecDeque;
use std::fmt;

use cmh_core::vset::VecSet;
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
/// controller: two sorted sets, which hold a handful of processes and
/// edges and are walked in order on every hop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompState {
    labels: VecSet<TransactionId>,
    sent: VecSet<(TransactionId, SiteId)>,
}

impl CompState {
    /// Fresh state (no labels, nothing sent).
    pub fn new() -> Self {
        CompState::default()
    }

    /// Labels `txn`'s local process; returns `true` if it is **newly**
    /// labelled (its inter-controller edges still need probes).
    pub fn label(&mut self, txn: TransactionId) -> bool {
        self.labels.insert(txn)
    }

    /// Registers the edge `(txn → site)` as probed; returns `true` if this
    /// is the first probe along it in this computation (i.e. the probe
    /// should actually be sent).
    pub fn mark_sent(&mut self, txn: TransactionId, site: SiteId) -> bool {
        self.sent.insert((txn, site))
    }

    /// Current labelled set, ascending.
    pub fn labels(&self) -> &VecSet<TransactionId> {
        &self.labels
    }
}

/// The cutoff of a window of `width` computations whose newest is
/// `newest`: those numbered at or below it are superseded (see
/// [`crate::controller`]'s module docs). `None` while nothing is.
pub(crate) fn window_cutoff(newest: u64, width: u64) -> Option<u64> {
    newest.checked_sub(width.max(1))
}

/// One initiator's computations at a controller, ascending by `n`: the
/// sliding window the controller's module docs describe. The newest is at
/// the back and supersession pops from the front, so a hop finds its
/// computation by binary search and prunes without scanning.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompWindow {
    comps: VecDeque<(u64, CompState)>,
}

impl CompWindow {
    /// [`window_cutoff`] of the newest computation held.
    pub(crate) fn cutoff(&self, width: u64) -> Option<u64> {
        window_cutoff(self.comps.back().map_or(0, |&(n, _)| n), width)
    }

    /// Takes computation `n`'s state out (fresh if it has none); its slot
    /// stays in place for [`CompWindow::put`].
    pub(crate) fn take(&mut self, n: u64) -> CompState {
        match self.comps.binary_search_by_key(&n, |&(m, _)| m) {
            Ok(i) => std::mem::take(&mut self.comps[i].1),
            Err(_) => CompState::default(),
        }
    }

    /// Stores computation `n`'s state, then drops every computation at or
    /// below the cutoff of the newest.
    pub(crate) fn put(&mut self, n: u64, comp: CompState, width: u64) {
        match self.comps.binary_search_by_key(&n, |&(m, _)| m) {
            Ok(i) => self.comps[i].1 = comp,
            Err(i) => self.comps.insert(i, (n, comp)),
        }
        if let Some(cutoff) = self.cutoff(width) {
            while self.comps.front().is_some_and(|&(m, _)| m <= cutoff) {
                self.comps.pop_front();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TransactionId {
        TransactionId(i)
    }

    #[test]
    fn label_reports_only_new() {
        let mut c = CompState::new();
        assert!(c.label(t(2)) && c.label(t(1)));
        assert!(!c.label(t(2)) && c.label(t(3)));
        assert_eq!(c.labels().as_slice(), [t(1), t(2), t(3)]);
    }

    #[test]
    fn window_matches_the_literal_map_and_retain() {
        use std::collections::BTreeMap;
        // Random arrival orders of tags from three initiators, numbered
        // around a moving newest so that tags land at, below and above
        // the cutoff; each arrival is a hop (skip if superseded, else
        // take, label, mark, put back) run against the window and
        // against the map it replaced.
        let mut rng = simnet::rng::DetRng::seed_from_u64(0x3d0c);
        for width in [1, 2, 5] {
            let mut windows: BTreeMap<SiteId, CompWindow> = BTreeMap::new();
            let mut literal: BTreeMap<DdbProbeTag, CompState> = BTreeMap::new();
            let mut newest = [0u64; 3];
            let (mut superseded, mut revisits) = (0, 0);
            for _ in 0..3_000 {
                let i = rng.next_below(3) as usize;
                let initiator = SiteId(i);
                if rng.next_below(4) == 0 {
                    newest[i] += 1 + rng.next_below(2);
                }
                let n = (newest[i] + 2).saturating_sub(rng.next_below(width + 4));
                if n == 0 {
                    continue;
                }
                let tag = DdbProbeTag { initiator, n };
                let (label, site) = (
                    t(rng.next_below(6) as u32),
                    SiteId(rng.next_below(3) as usize),
                );
                // The literal bookkeeping.
                let literal_cutoff = |literal: &BTreeMap<DdbProbeTag, CompState>| {
                    let of = |n| DdbProbeTag { initiator, n };
                    let back = literal.range(of(0)..=of(u64::MAX)).next_back();
                    window_cutoff(back.map_or(0, |(k, _)| k.n), width)
                };
                let cutoff = literal_cutoff(&literal);
                let window = windows.entry(initiator).or_default();
                assert_eq!(window.cutoff(width), cutoff, "cutoff of {initiator}");
                if cutoff.is_some_and(|c| n <= c) {
                    superseded += 1;
                    continue;
                }
                let mut want = literal.remove(&tag).unwrap_or_default();
                revisits += usize::from(want != CompState::default());
                want.label(label);
                want.mark_sent(label, site);
                literal.insert(tag, want);
                if let Some(cutoff) = literal_cutoff(&literal) {
                    literal.retain(|k, _| k.initiator != initiator || k.n > cutoff);
                }
                // The window.
                let mut comp = window.take(n);
                comp.label(label);
                comp.mark_sent(label, site);
                window.put(n, comp, width);
                let held = windows.iter().flat_map(|(&initiator, w)| {
                    w.comps
                        .iter()
                        .map(move |(n, c)| (DdbProbeTag { initiator, n: *n }, c))
                });
                assert!(
                    held.eq(literal.iter().map(|(&k, c)| (k, c))),
                    "width {width}"
                );
            }
            assert!(
                superseded > 100 && revisits > 100,
                "{superseded} / {revisits}"
            );
        }
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
