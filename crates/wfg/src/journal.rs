//! Timestamped journals of wait-for-graph mutations.
//!
//! The soundness checker in `cmh-core` needs to know the *exact* graph
//! state at the instant a process declared deadlock. Simulations therefore
//! record every mutation in a [`Journal`]; [`Journal::replay_until`]
//! reconstructs the graph as of any virtual time.
//!
//! A one-shot `replay_until` rebuilds from entry 0 every call — O(|journal|)
//! per query. Hot paths that seek back and forth through one journal
//! (per-declaration soundness scoring, `formation_time` binary searches)
//! should hold a [`ReplayCursor`]: it keeps the current graph materialised,
//! drops periodic checkpoints every K ops on first pass, and serves any
//! later seek by restoring the nearest checkpoint at or before the target
//! and applying at most K − 1 + (forward distance) deltas.

use std::fmt;

use simnet::sim::NodeId;
use simnet::time::SimTime;

use crate::graph::{AxiomViolation, WaitForGraph};

/// One graph mutation (always axiom-conforming once journaled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphOp {
    /// G1: a grey edge appeared (a request was sent).
    CreateGrey(NodeId, NodeId),
    /// G2: a grey edge turned black (the request arrived).
    Blacken(NodeId, NodeId),
    /// G3: a black edge turned white (the reply was sent).
    Whiten(NodeId, NodeId),
    /// G4: a white edge disappeared (the reply arrived).
    DeleteWhite(NodeId, NodeId),
    /// OR-model unblock: every out-edge of the vertex disappeared.
    Release(NodeId),
}

impl GraphOp {
    /// Applies this operation to `g`, enforcing the axioms.
    ///
    /// # Errors
    ///
    /// Propagates the [`AxiomViolation`] if the operation is illegal in the
    /// current state.
    pub fn apply(self, g: &mut WaitForGraph) -> Result<(), AxiomViolation> {
        match self {
            GraphOp::CreateGrey(a, b) => g.create_grey(a, b),
            GraphOp::Blacken(a, b) => g.blacken(a, b),
            GraphOp::Whiten(a, b) => g.whiten(a, b),
            GraphOp::DeleteWhite(a, b) => g.delete_white(a, b),
            GraphOp::Release(a) => g.release(a),
        }
    }
}

impl fmt::Display for GraphOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphOp::CreateGrey(a, b) => write!(f, "create-grey {a} -> {b}"),
            GraphOp::Blacken(a, b) => write!(f, "blacken     {a} -> {b}"),
            GraphOp::Whiten(a, b) => write!(f, "whiten      {a} -> {b}"),
            GraphOp::DeleteWhite(a, b) => write!(f, "delete      {a} -> {b}"),
            GraphOp::Release(a) => write!(f, "release     {a}"),
        }
    }
}

/// A chronological record of graph mutations.
///
/// # Examples
///
/// ```
/// use simnet::sim::NodeId;
/// use simnet::time::SimTime;
/// use wfg::journal::{GraphOp, Journal};
///
/// # fn main() -> Result<(), wfg::AxiomViolation> {
/// let mut journal = Journal::new();
/// journal.record(SimTime::from_ticks(1), GraphOp::CreateGrey(NodeId(0), NodeId(1)));
/// journal.record(SimTime::from_ticks(4), GraphOp::Blacken(NodeId(0), NodeId(1)));
///
/// // The graph as of t=2 still has the edge grey.
/// let g = journal.replay_until(SimTime::from_ticks(2))?;
/// assert_eq!(g.colour(NodeId(0), NodeId(1)), Some(wfg::EdgeColour::Grey));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    entries: Vec<(SimTime, GraphOp)>,
    /// Ordering tags parallel to `entries`: the recording event's global
    /// seq (see [`Journal::record_at`]), or `u64::MAX` for plain
    /// [`Journal::record`] appends. Same-time entries are kept sorted by
    /// this tag so concurrent recorders (the sharded simulation's
    /// threaded handler phase) produce a byte-reproducible journal.
    seqs: Vec<u64>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Appends an operation observed at time `at`. Out-of-order times are
    /// tolerated (the entry is insertion-sorted into place), but plain
    /// records at one time sort *after* every tagged record of that time
    /// — use [`Journal::record_at`] inside simulation handlers.
    pub fn record(&mut self, at: SimTime, op: GraphOp) {
        self.record_at(at, u64::MAX, op);
    }

    /// Records an operation observed at time `at` by the handler of the
    /// event with global sequence number `seq` (see
    /// `simnet::sim::Context::event_seq`).
    ///
    /// Entries are kept sorted by `(time, seq)` (stable: equal keys keep
    /// arrival order). Handlers of a sharded simulation's window record
    /// shard by shard — and, threaded, under a lock in thread-schedule
    /// order — so same-tick appends can arrive out of seq order; the
    /// insertion sort restores the canonical order a single-shard run
    /// records. Such an insertion only ever lands inside the window's
    /// tick, so a [`ReplayCursor`] stays valid as long as it is not
    /// seeked over a tick the simulation may still be executing (e.g.
    /// resuming a run whose `max_events` budget stopped it mid-window).
    pub fn record_at(&mut self, at: SimTime, seq: u64, op: GraphOp) {
        // Upper-bound binary search over (time, seq).
        let key = (at, seq);
        let mut lo = 0;
        let mut hi = self.entries.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if (self.entries[mid].0, self.seqs[mid]) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.entries.insert(lo, (at, op));
        self.seqs.insert(lo, seq);
    }

    /// All entries in order.
    pub fn entries(&self) -> &[(SimTime, GraphOp)] {
        &self.entries
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reconstructs the graph state immediately **after** all operations
    /// with timestamp `≤ at` have been applied.
    ///
    /// # Errors
    ///
    /// Returns the first [`AxiomViolation`] if the journal is not a legal
    /// history (which would indicate a bug in the recording simulation).
    pub fn replay_until(&self, at: SimTime) -> Result<WaitForGraph, AxiomViolation> {
        let mut g = WaitForGraph::new();
        for &(t, op) in &self.entries {
            if t > at {
                break;
            }
            op.apply(&mut g)?;
        }
        Ok(g)
    }
}

/// Default checkpoint spacing for [`ReplayCursor`].
///
/// Seeking backwards costs at most `K − 1` delta applications past the
/// checkpoint restore, while memory is one graph snapshot per `K` journal
/// entries. Graph ops are tens of nanoseconds and snapshots are O(V + E),
/// so a cache-line-friendly 64 keeps backward seeks cheap without
/// snapshot memory ever rivalling the journal itself.
pub const DEFAULT_CHECKPOINT_SPACING: usize = 64;

/// A seekable view over one [`Journal`], with periodic checkpoints.
///
/// The cursor keeps the graph state after the first `pos` journal entries
/// materialised. Seeking forward applies only the missing deltas; seeking
/// backward restores the nearest checkpoint at or before the target and
/// replays at most `K − 1` deltas from there (`K` = checkpoint spacing).
/// Checkpoints are recorded lazily, on the first forward pass over each
/// `K`-entry block, so a cursor that only ever moves forward costs one
/// clone per `K` ops and a binary search over `n` entries costs
/// O(K·log n) delta applications instead of O(n·log n) rebuilds.
///
/// A cursor is tied to the history of a single journal; the journal may
/// grow between calls (they are append-only), but seeking it over a
/// *different* journal is a logic error and yields nonsense.
///
/// # Examples
///
/// ```
/// use simnet::sim::NodeId;
/// use simnet::time::SimTime;
/// use wfg::journal::{GraphOp, Journal, ReplayCursor};
///
/// # fn main() -> Result<(), wfg::AxiomViolation> {
/// let mut journal = Journal::new();
/// journal.record(SimTime::from_ticks(1), GraphOp::CreateGrey(NodeId(0), NodeId(1)));
/// journal.record(SimTime::from_ticks(4), GraphOp::Blacken(NodeId(0), NodeId(1)));
///
/// let mut cursor = ReplayCursor::new();
/// let g = cursor.seek(&journal, SimTime::from_ticks(2))?;
/// assert_eq!(g.colour(NodeId(0), NodeId(1)), Some(wfg::EdgeColour::Grey));
/// let g = cursor.seek(&journal, SimTime::MAX)?;
/// assert_eq!(g.colour(NodeId(0), NodeId(1)), Some(wfg::EdgeColour::Black));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReplayCursor {
    /// Checkpoint spacing K.
    every: usize,
    /// `checkpoints[i]` is the graph after `(i + 1) * every` entries.
    checkpoints: Vec<WaitForGraph>,
    /// Graph after the first `pos` entries.
    current: WaitForGraph,
    pos: usize,
}

impl Default for ReplayCursor {
    fn default() -> Self {
        ReplayCursor::new()
    }
}

impl ReplayCursor {
    /// Creates a cursor with [`DEFAULT_CHECKPOINT_SPACING`].
    pub fn new() -> Self {
        ReplayCursor::with_spacing(DEFAULT_CHECKPOINT_SPACING)
    }

    /// Creates a cursor that checkpoints every `every` ops.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn with_spacing(every: usize) -> Self {
        assert!(every >= 1, "checkpoint spacing must be at least 1");
        ReplayCursor {
            every,
            checkpoints: Vec::new(),
            current: WaitForGraph::new(),
            pos: 0,
        }
    }

    /// The graph at the cursor's current position, without seeking.
    pub fn graph(&self) -> &WaitForGraph {
        &self.current
    }

    /// Number of journal entries currently applied.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Seeks to the graph state immediately **after** all operations with
    /// timestamp `≤ at` — the same state [`Journal::replay_until`]
    /// rebuilds from scratch.
    ///
    /// # Errors
    ///
    /// Returns the first [`AxiomViolation`] if the journal is not a legal
    /// history. The cursor is left positioned just before the offending
    /// entry; retrying reproduces the same error.
    pub fn seek<'a>(
        &'a mut self,
        journal: &Journal,
        at: SimTime,
    ) -> Result<&'a WaitForGraph, AxiomViolation> {
        let n = journal.entries.partition_point(|&(t, _)| t <= at);
        self.seek_to_index(journal, n)
    }

    /// Seeks to the graph state after exactly the first `n` journal
    /// entries (clamped to the journal length).
    ///
    /// # Errors
    ///
    /// Same as [`ReplayCursor::seek`].
    pub fn seek_to_index<'a>(
        &'a mut self,
        journal: &Journal,
        n: usize,
    ) -> Result<&'a WaitForGraph, AxiomViolation> {
        let n = n.min(journal.entries.len());
        if n < self.pos {
            // Rewind to the nearest checkpoint at or before n.
            let avail = (n / self.every).min(self.checkpoints.len());
            if avail == 0 {
                self.current.clear();
                self.pos = 0;
            } else {
                self.current.restore_from(&self.checkpoints[avail - 1]);
                self.pos = avail * self.every;
            }
        }
        while self.pos < n {
            let (_, op) = journal.entries[self.pos];
            op.apply(&mut self.current)?;
            self.pos += 1;
            if self.pos.is_multiple_of(self.every)
                && self.pos / self.every - 1 == self.checkpoints.len()
            {
                self.checkpoints.push(self.current.clone());
            }
        }
        Ok(&self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }
    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn replay_reconstructs_intermediate_states() {
        let mut j = Journal::new();
        j.record(t(1), GraphOp::CreateGrey(n(0), n(1)));
        j.record(t(3), GraphOp::Blacken(n(0), n(1)));
        j.record(t(5), GraphOp::Whiten(n(0), n(1)));
        j.record(t(7), GraphOp::DeleteWhite(n(0), n(1)));

        use crate::graph::EdgeColour::{Black, Grey, White};
        assert!(j.replay_until(t(0)).unwrap().is_empty());
        assert_eq!(j.replay_until(t(1)).unwrap().colour(n(0), n(1)), Some(Grey));
        assert_eq!(
            j.replay_until(t(4)).unwrap().colour(n(0), n(1)),
            Some(Black)
        );
        assert_eq!(
            j.replay_until(t(5)).unwrap().colour(n(0), n(1)),
            Some(White)
        );
        assert!(j.replay_until(SimTime::MAX).unwrap().is_empty());
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn illegal_history_is_reported() {
        let mut j = Journal::new();
        j.record(t(1), GraphOp::Blacken(n(0), n(1))); // never created
        assert!(j.replay_until(SimTime::MAX).is_err());
    }

    #[test]
    fn release_replays_and_cursor_seeks_across_it() {
        // An OR wait: 0 blocks on {1, 2} at t=1, is released at t=5.
        let mut j = Journal::new();
        j.record(t(1), GraphOp::CreateGrey(n(0), n(1)));
        j.record(t(1), GraphOp::CreateGrey(n(0), n(2)));
        j.record(t(5), GraphOp::Release(n(0)));
        let blocked = j.replay_until(t(2)).unwrap();
        assert_eq!(blocked.out_degree(n(0)), 2);
        assert!(j.replay_until(t(9)).unwrap().is_empty());
        assert!(j.replay_until(SimTime::ZERO).unwrap().is_empty());
        let mut c = ReplayCursor::with_spacing(2);
        for at in [9, 2, 9, 0, 5, 4] {
            assert_eq!(*c.seek(&j, t(at)).unwrap(), j.replay_until(t(at)).unwrap());
        }
        // A second release of the now-active 0 is not a legal history.
        j.record(t(7), GraphOp::Release(n(0)));
        assert!(j.replay_until(SimTime::MAX).is_err());
        assert!(c.seek(&j, SimTime::MAX).is_err());
        assert_eq!(GraphOp::Release(n(3)).to_string(), "release     p3");
    }

    #[test]
    fn ops_display() {
        assert_eq!(
            GraphOp::CreateGrey(n(1), n(2)).to_string(),
            "create-grey p1 -> p2"
        );
    }

    #[test]
    fn empty_journal() {
        let j = Journal::new();
        assert!(j.is_empty());
        assert!(j.replay_until(SimTime::MAX).unwrap().is_empty());
    }

    /// A journal cycling one edge per 4-op block: `create, blacken,
    /// whiten, delete` on edge (i mod 5, i mod 5 + 1), one op per tick.
    fn churn_journal(blocks: usize) -> Journal {
        let mut j = Journal::new();
        let mut tick = 0u64;
        for i in 0..blocks {
            let (a, b) = (n(i % 5), n(i % 5 + 1));
            for op in [
                GraphOp::CreateGrey(a, b),
                GraphOp::Blacken(a, b),
                GraphOp::Whiten(a, b),
                GraphOp::DeleteWhite(a, b),
            ] {
                j.record(t(tick), op);
                tick += 1;
            }
        }
        j
    }

    #[test]
    fn cursor_matches_from_scratch_replay_in_any_direction() {
        let j = churn_journal(10); // 40 ops, several checkpoints at K=4
        let mut c = ReplayCursor::with_spacing(4);
        // Forward, backward, random-ish jumps: always equal to scratch.
        for at in [0u64, 7, 3, 39, 12, 38, 1, 25, 24, 40, 0] {
            let scratch = j.replay_until(t(at)).unwrap();
            let via_cursor = c.seek(&j, t(at)).unwrap();
            assert_eq!(*via_cursor, scratch, "divergence at t={at}");
        }
    }

    #[test]
    fn cursor_tracks_appended_entries() {
        let mut j = Journal::new();
        j.record(t(1), GraphOp::CreateGrey(n(0), n(1)));
        let mut c = ReplayCursor::with_spacing(2);
        assert_eq!(c.seek(&j, SimTime::MAX).unwrap().edge_count(), 1);
        // The journal grows; the cursor picks the new entries up.
        j.record(t(2), GraphOp::CreateGrey(n(1), n(2)));
        j.record(t(3), GraphOp::CreateGrey(n(2), n(0)));
        assert_eq!(c.seek(&j, SimTime::MAX).unwrap().edge_count(), 3);
        assert_eq!(c.position(), 3);
        assert_eq!(*c.seek(&j, t(0)).unwrap(), WaitForGraph::new());
    }

    #[test]
    fn cursor_reports_illegal_history() {
        let mut j = Journal::new();
        j.record(t(1), GraphOp::CreateGrey(n(0), n(1)));
        j.record(t(2), GraphOp::Whiten(n(0), n(1))); // grey cannot whiten
        let mut c = ReplayCursor::new();
        assert!(c.seek(&j, SimTime::MAX).is_err());
        // Positioned just before the offending entry; retry reproduces it.
        assert_eq!(c.position(), 1);
        assert!(c.seek(&j, SimTime::MAX).is_err());
    }

    #[test]
    fn cursor_graph_accessor_reflects_position() {
        let mut j = Journal::new();
        j.record(t(5), GraphOp::CreateGrey(n(3), n(4)));
        let mut c = ReplayCursor::new();
        assert!(c.graph().is_empty());
        c.seek(&j, t(5)).unwrap();
        assert!(c.graph().has_edge(n(3), n(4)));
    }
}
