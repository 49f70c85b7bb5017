//! The coloured wait-for graph of the basic model (§2 of the paper).
//!
//! Vertices are processes ([`NodeId`]); a directed edge `(u, v)` means `u`
//! has sent `v` a request and has not yet received the reply. Edges carry
//! one of three colours:
//!
//! * **grey** — the request is in flight (`v` has not received it yet);
//! * **black** — `v` has received the request and not yet replied;
//! * **white** — the reply is in flight back to `u`.
//!
//! The graph may change only according to the paper's axioms:
//!
//! * **G1 (creation)**: a grey edge `(u, v)` may be created if `(u, v)`
//!   does not exist;
//! * **G2 (blackening)**: a grey edge turns black after a finite time;
//! * **G3 (whitening)**: a black edge `(u, v)` may turn white only if `v`
//!   has **no outgoing edges** (only active processes reply);
//! * **G4 (deletion)**: a white edge disappears after a finite time.
//!
//! [`WaitForGraph`] *enforces* these axioms: any mutation that would violate
//! one returns an [`AxiomViolation`] and leaves the graph unchanged. The
//! rest of the workspace builds on this guarantee — if a simulation drives
//! its graph only through this API, every reachable graph state is a legal
//! state of the paper's model.
//!
//! # Representation
//!
//! Internally the graph is **dense**: every [`NodeId`] that ever appears is
//! interned to a compact `u32` index, and adjacency is `Vec`-indexed rows
//! (sorted by neighbour `NodeId`, so iteration at the API boundary keeps
//! the historical `BTreeMap` order). The [`crate::oracle`] queries run over
//! these dense rows (and a CSR snapshot of the dark subgraph) instead of
//! pointer-chasing tree maps. One private counter, bumped whenever the
//! grey ∪ black edge set changes, lets [`crate::oracle::Oracle`] tell
//! whether its memoized answers still hold.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use simnet::sim::NodeId;

/// Colour of a wait-for edge (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeColour {
    /// Request sent, not yet received.
    Grey,
    /// Request received, reply not yet sent.
    Black,
    /// Reply sent, not yet received.
    White,
}

impl EdgeColour {
    /// A *dark* edge is grey or black (§2.4); dark cycles persist forever.
    pub fn is_dark(self) -> bool {
        matches!(self, EdgeColour::Grey | EdgeColour::Black)
    }
}

impl fmt::Display for EdgeColour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdgeColour::Grey => "grey",
            EdgeColour::Black => "black",
            EdgeColour::White => "white",
        };
        f.write_str(s)
    }
}

/// A directed edge with its colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Waiting process.
    pub from: NodeId,
    /// Process being waited for.
    pub to: NodeId,
    /// Current colour.
    pub colour: EdgeColour,
}

/// Why a graph mutation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxiomViolation {
    /// G1: tried to create an edge that already exists.
    EdgeExists {
        /// Offending tail.
        from: NodeId,
        /// Offending head.
        to: NodeId,
    },
    /// Tried to recolour or delete an edge that does not exist.
    NoSuchEdge {
        /// Offending tail.
        from: NodeId,
        /// Offending head.
        to: NodeId,
    },
    /// Tried to transition an edge from the wrong colour (e.g. blacken a
    /// white edge).
    WrongColour {
        /// Offending tail.
        from: NodeId,
        /// Offending head.
        to: NodeId,
        /// Colour the edge actually has.
        found: EdgeColour,
        /// Colour the transition requires.
        expected: EdgeColour,
    },
    /// G3: tried to whiten `(u, v)` while `v` still has outgoing edges
    /// (only active processes may reply).
    ReplierBlocked {
        /// Offending tail.
        from: NodeId,
        /// The blocked would-be replier.
        to: NodeId,
    },
    /// Self-loops are rejected: a process does not request actions from
    /// itself in the basic model.
    SelfLoop {
        /// The vertex in question.
        node: NodeId,
    },
}

impl fmt::Display for AxiomViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxiomViolation::EdgeExists { from, to } => {
                write!(f, "G1 violation: edge ({from}, {to}) already exists")
            }
            AxiomViolation::NoSuchEdge { from, to } => {
                write!(f, "edge ({from}, {to}) does not exist")
            }
            AxiomViolation::WrongColour {
                from,
                to,
                found,
                expected,
            } => write!(
                f,
                "edge ({from}, {to}) is {found}, transition requires {expected}"
            ),
            AxiomViolation::ReplierBlocked { from, to } => write!(
                f,
                "G3 violation: cannot whiten ({from}, {to}) while {to} has outgoing edges"
            ),
            AxiomViolation::SelfLoop { node } => {
                write!(f, "self-loop at {node} rejected")
            }
        }
    }
}

impl Error for AxiomViolation {}

/// Process-wide source of unique graph identities for oracle memoization.
/// Values never repeat, so an [`crate::oracle::Oracle`] can tell two graph
/// objects apart even when their dark-set counters coincide. Identities are
/// never ordered or exposed, so assignment order cannot affect determinism.
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

fn fresh_uid() -> u64 {
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

/// A wait-for graph that enforces axioms G1–G4.
///
/// Vertices exist implicitly (the paper assumes vertices for unborn and
/// terminated processes); a vertex "appears" in iteration only while it has
/// at least one incident edge.
///
/// Equality compares the *edge sets* (with colours), not internal layout:
/// two graphs are equal iff they contain the same coloured edges.
///
/// # Examples
///
/// ```
/// use simnet::sim::NodeId;
/// use wfg::graph::{EdgeColour, WaitForGraph};
///
/// # fn main() -> Result<(), wfg::graph::AxiomViolation> {
/// let mut g = WaitForGraph::new();
/// g.create_grey(NodeId(0), NodeId(1))?;
/// g.blacken(NodeId(0), NodeId(1))?;
/// assert_eq!(g.colour(NodeId(0), NodeId(1)), Some(EdgeColour::Black));
///
/// // G3: node 1 is active (no outgoing edges), so it may reply.
/// g.whiten(NodeId(0), NodeId(1))?;
/// g.delete_white(NodeId(0), NodeId(1))?;
/// assert!(g.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WaitForGraph {
    /// `NodeId` → dense index; `BTreeMap` keeps boundary iteration in
    /// ascending `NodeId` order. Interned ids are never recycled — a vertex
    /// whose edges have all been deleted simply becomes invisible.
    ids: BTreeMap<NodeId, u32>,
    /// Dense index → `NodeId`.
    nodes: Vec<NodeId>,
    /// `out[u]`: `(dense head, colour)`, sorted by head `NodeId`.
    out: Vec<Vec<(u32, EdgeColour)>>,
    /// `rin[v]`: dense tails, sorted by tail `NodeId`.
    rin: Vec<Vec<u32>>,
    /// Number of edges currently present (any colour).
    n_edges: usize,
    /// Bumped on every change to the grey ∪ black edge set; blackening
    /// and white-edge deletion leave it, so memos survive them.
    dark_version: u64,
    /// Unique object identity for oracle memoization (fresh per clone).
    uid: u64,
}

impl Default for WaitForGraph {
    fn default() -> Self {
        WaitForGraph::new()
    }
}

impl Clone for WaitForGraph {
    /// Clones the graph *content*; the clone gets a fresh identity so
    /// oracle memos for the original can never be mistaken for answers
    /// about the (independently mutable) clone.
    fn clone(&self) -> Self {
        WaitForGraph {
            ids: self.ids.clone(),
            nodes: self.nodes.clone(),
            out: self.out.clone(),
            rin: self.rin.clone(),
            n_edges: self.n_edges,
            dark_version: self.dark_version,
            uid: fresh_uid(),
        }
    }
}

impl PartialEq for WaitForGraph {
    fn eq(&self, other: &Self) -> bool {
        self.n_edges == other.n_edges && self.edges().eq(other.edges())
    }
}

impl Eq for WaitForGraph {}

impl WaitForGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        WaitForGraph {
            ids: BTreeMap::new(),
            nodes: Vec::new(),
            out: Vec::new(),
            rin: Vec::new(),
            n_edges: 0,
            dark_version: 0,
            uid: fresh_uid(),
        }
    }

    /// Number of edges currently present (any colour).
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// `true` if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.n_edges == 0
    }

    fn idx(&self, v: NodeId) -> Option<u32> {
        self.ids.get(&v).copied()
    }

    fn intern(&mut self, v: NodeId) -> u32 {
        if let Some(&i) = self.ids.get(&v) {
            return i;
        }
        let i = u32::try_from(self.nodes.len()).expect("fewer than 2^32 vertices");
        self.ids.insert(v, i);
        self.nodes.push(v);
        self.out.push(Vec::new());
        self.rin.push(Vec::new());
        i
    }

    /// Position of `to` in `out[u]` (rows are sorted by head `NodeId`).
    fn find_out(&self, u: u32, to: NodeId) -> Result<usize, usize> {
        let nodes = &self.nodes;
        self.out[u as usize].binary_search_by(|&(h, _)| nodes[h as usize].cmp(&to))
    }

    /// The colour of edge `(from, to)`, or `None` if absent.
    pub fn colour(&self, from: NodeId, to: NodeId) -> Option<EdgeColour> {
        let ui = self.idx(from)?;
        self.find_out(ui, to)
            .ok()
            .map(|pos| self.out[ui as usize][pos].1)
    }

    /// `true` if edge `(from, to)` exists in any colour.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.colour(from, to).is_some()
    }

    /// G1: create grey edge `(from, to)`.
    ///
    /// # Errors
    ///
    /// [`AxiomViolation::EdgeExists`] if the edge is already present, and
    /// [`AxiomViolation::SelfLoop`] if `from == to`.
    pub fn create_grey(&mut self, from: NodeId, to: NodeId) -> Result<(), AxiomViolation> {
        if from == to {
            return Err(AxiomViolation::SelfLoop { node: from });
        }
        let ui = self.intern(from);
        let vi = self.intern(to);
        match self.find_out(ui, to) {
            Ok(_) => Err(AxiomViolation::EdgeExists { from, to }),
            Err(pos) => {
                self.out[ui as usize].insert(pos, (vi, EdgeColour::Grey));
                let rpos = {
                    let nodes = &self.nodes;
                    self.rin[vi as usize]
                        .binary_search_by(|&t| nodes[t as usize].cmp(&from))
                        .expect_err("edge was absent")
                };
                self.rin[vi as usize].insert(rpos, ui);
                self.n_edges += 1;
                self.dark_version += 1;
                Ok(())
            }
        }
    }

    /// G2: turn grey edge `(from, to)` black (the request arrived).
    ///
    /// # Errors
    ///
    /// [`AxiomViolation::NoSuchEdge`] or [`AxiomViolation::WrongColour`].
    pub fn blacken(&mut self, from: NodeId, to: NodeId) -> Result<(), AxiomViolation> {
        self.transition(from, to, EdgeColour::Grey, EdgeColour::Black)
    }

    /// G3: turn black edge `(from, to)` white (the reply was sent).
    ///
    /// # Errors
    ///
    /// In addition to the existence/colour errors,
    /// [`AxiomViolation::ReplierBlocked`] if `to` has outgoing edges —
    /// only active processes may reply.
    pub fn whiten(&mut self, from: NodeId, to: NodeId) -> Result<(), AxiomViolation> {
        if self.out_degree(to) > 0 {
            // Check colour first so missing-edge errors stay precise.
            if let Some(EdgeColour::Black) = self.colour(from, to) {
                return Err(AxiomViolation::ReplierBlocked { from, to });
            }
        }
        self.transition(from, to, EdgeColour::Black, EdgeColour::White)?;
        self.dark_version += 1;
        Ok(())
    }

    /// G4: delete white edge `(from, to)` (the reply arrived).
    ///
    /// # Errors
    ///
    /// [`AxiomViolation::NoSuchEdge`] or [`AxiomViolation::WrongColour`].
    pub fn delete_white(&mut self, from: NodeId, to: NodeId) -> Result<(), AxiomViolation> {
        let Some(ui) = self.idx(from) else {
            return Err(AxiomViolation::NoSuchEdge { from, to });
        };
        let Ok(pos) = self.find_out(ui, to) else {
            return Err(AxiomViolation::NoSuchEdge { from, to });
        };
        match self.out[ui as usize][pos].1 {
            EdgeColour::White => {
                self.unlink(ui, pos, from);
                Ok(())
            }
            found => Err(AxiomViolation::WrongColour {
                from,
                to,
                found,
                expected: EdgeColour::White,
            }),
        }
    }

    /// Drops every out-edge of `from`: the OR model's unblock on a message
    /// from any one dependent, which G3 cannot express (the other
    /// dependents may still be blocked).
    ///
    /// # Errors
    ///
    /// [`AxiomViolation::NoSuchEdge`] (`to == from`) if `from` has no out-edge.
    pub fn release(&mut self, from: NodeId) -> Result<(), AxiomViolation> {
        let ui = self
            .idx(from)
            .filter(|&ui| !self.out[ui as usize].is_empty());
        let Some(ui) = ui else {
            return Err(AxiomViolation::NoSuchEdge { from, to: from });
        };
        while let Some(pos) = self.out[ui as usize].len().checked_sub(1) {
            self.unlink(ui, pos, from);
        }
        self.dark_version += 1;
        Ok(())
    }

    /// Drops the edge at `out[ui][pos]` (tail `from`) from both indexes.
    fn unlink(&mut self, ui: u32, pos: usize, from: NodeId) {
        let (vi, _) = self.out[ui as usize].remove(pos);
        let rpos = {
            let nodes = &self.nodes;
            self.rin[vi as usize]
                .binary_search_by(|&t| nodes[t as usize].cmp(&from))
                .expect("reverse index consistent")
        };
        self.rin[vi as usize].remove(rpos);
        self.n_edges -= 1;
    }

    /// Removes edge `(from, to)` whatever its colour; `false` if it was
    /// absent. Like [`WaitForGraph::clear`] this bypasses the axioms: it
    /// is for a graph that *mirrors* state reconstructed elsewhere and is
    /// kept up to date edge by edge (the DDB harness's agent graph, where
    /// an abort removes black edges whose heads are still blocked), not
    /// for one legal history.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        let Some((ui, pos)) = self
            .idx(from)
            .and_then(|ui| Some((ui, self.find_out(ui, to).ok()?)))
        else {
            return false;
        };
        if self.out[ui as usize][pos].1.is_dark() {
            self.dark_version += 1;
        }
        self.unlink(ui, pos, from);
        true
    }

    fn transition(
        &mut self,
        from: NodeId,
        to: NodeId,
        expected: EdgeColour,
        new: EdgeColour,
    ) -> Result<(), AxiomViolation> {
        let Some(ui) = self.idx(from) else {
            return Err(AxiomViolation::NoSuchEdge { from, to });
        };
        let Ok(pos) = self.find_out(ui, to) else {
            return Err(AxiomViolation::NoSuchEdge { from, to });
        };
        let c = &mut self.out[ui as usize][pos].1;
        if *c == expected {
            *c = new;
            Ok(())
        } else {
            Err(AxiomViolation::WrongColour {
                from,
                to,
                found: *c,
                expected,
            })
        }
    }

    /// Removes **all** edges at once, keeping interned vertices and row
    /// allocations for reuse. Unlike the per-edge mutators this bypasses
    /// the axioms — it models tearing a snapshot down to rebuild it (e.g.
    /// a coordinator's per-round view), not a legal evolution of one
    /// history.
    pub fn clear(&mut self) {
        for row in &mut self.out {
            row.clear();
        }
        for row in &mut self.rin {
            row.clear();
        }
        self.n_edges = 0;
        self.dark_version += 1;
    }

    /// Replaces this graph's content with a copy of `other`'s, reusing
    /// allocations where possible. Identity (`uid`) is kept — the receiver
    /// is still "the same graph object" to oracle memos, so the dark-set
    /// counter is bumped to invalidate them. Used by
    /// [`crate::journal::ReplayCursor`] to rewind to a checkpoint.
    pub(crate) fn restore_from(&mut self, other: &WaitForGraph) {
        self.ids.clone_from(&other.ids);
        self.nodes.clone_from(&other.nodes);
        self.out.clone_from(&other.out);
        self.rin.clone_from(&other.rin);
        self.n_edges = other.n_edges;
        self.dark_version += 1;
    }

    /// Outgoing edges of `v`, in head order.
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = Edge> + '_ {
        self.idx(v).into_iter().flat_map(move |ui| {
            self.out[ui as usize].iter().map(move |&(h, colour)| Edge {
                from: v,
                to: self.nodes[h as usize],
                colour,
            })
        })
    }

    /// Incoming edges of `v`, in tail order.
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = Edge> + '_ {
        self.idx(v).into_iter().flat_map(move |vi| {
            self.rin[vi as usize].iter().map(move |&t| {
                let pos = self.find_out(t, v).expect("reverse index consistent");
                Edge {
                    from: self.nodes[t as usize],
                    to: v,
                    colour: self.out[t as usize][pos].1,
                }
            })
        })
    }

    /// Number of outgoing edges of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.idx(v).map_or(0, |i| self.out[i as usize].len())
    }

    /// `true` if `v` has no outgoing edges ("active", able to reply).
    pub fn is_active(&self, v: NodeId) -> bool {
        self.out_degree(v) == 0
    }

    /// All edges, ordered by `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.ids.iter().flat_map(move |(&from, &ui)| {
            self.out[ui as usize].iter().map(move |&(h, colour)| Edge {
                from,
                to: self.nodes[h as usize],
                colour,
            })
        })
    }

    /// All vertices with at least one incident edge, in id order, without
    /// allocating. Prefer this over [`WaitForGraph::vertices`] when only
    /// iterating.
    pub fn vertex_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids.iter().filter_map(move |(&v, &i)| {
            (!self.out[i as usize].is_empty() || !self.rin[i as usize].is_empty()).then_some(v)
        })
    }

    /// All vertices with at least one incident edge, in id order, as an
    /// owned set (see [`WaitForGraph::vertex_iter`] for the borrowing
    /// equivalent).
    pub fn vertices(&self) -> BTreeSet<NodeId> {
        self.vertex_iter().collect()
    }

    // ---- dense accessors for the oracle (crate-internal) ----------------

    /// Number of interned vertices (dense id space size).
    pub(crate) fn dense_count(&self) -> usize {
        self.nodes.len()
    }

    /// Dense index of `v`, if it has ever been interned.
    pub(crate) fn dense_index(&self, v: NodeId) -> Option<u32> {
        self.idx(v)
    }

    /// `NodeId` of dense vertex `i`.
    pub(crate) fn dense_node(&self, i: u32) -> NodeId {
        self.nodes[i as usize]
    }

    /// Outgoing row of dense vertex `i`, sorted by head `NodeId`.
    pub(crate) fn dense_out(&self, i: u32) -> &[(u32, EdgeColour)] {
        &self.out[i as usize]
    }

    /// Incoming tails of dense vertex `i`, sorted by tail `NodeId`.
    pub(crate) fn dense_in(&self, i: u32) -> &[u32] {
        &self.rin[i as usize]
    }

    /// Colour of the dense edge `(u, v)`, or `None` if absent.
    pub(crate) fn dense_colour(&self, u: u32, v: u32) -> Option<EdgeColour> {
        self.find_out(u, self.nodes[v as usize])
            .ok()
            .map(|pos| self.out[u as usize][pos].1)
    }

    /// Dense ids of vertices with at least one incident edge, in `NodeId`
    /// order — the oracle's root iteration order (matches the historical
    /// `BTreeSet`-of-endpoints order).
    pub(crate) fn incident_dense_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids
            .values()
            .copied()
            .filter(move |&i| !self.out[i as usize].is_empty() || !self.rin[i as usize].is_empty())
    }

    /// Oracle memo key: object identity (fresh per clone) and dark-set
    /// counter. A memo is valid while both hold still.
    pub(crate) fn memo_key(&self) -> (u64, u64) {
        (self.uid, self.dark_version)
    }
}

impl fmt::Display for WaitForGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "(empty wait-for graph)");
        }
        for e in self.edges() {
            writeln!(f, "{} -> {} [{}]", e.from, e.to, e.colour)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn full_edge_lifecycle() {
        let mut g = WaitForGraph::new();
        g.create_grey(n(0), n(1)).unwrap();
        assert_eq!(g.colour(n(0), n(1)), Some(EdgeColour::Grey));
        g.blacken(n(0), n(1)).unwrap();
        assert_eq!(g.colour(n(0), n(1)), Some(EdgeColour::Black));
        g.whiten(n(0), n(1)).unwrap();
        assert_eq!(g.colour(n(0), n(1)), Some(EdgeColour::White));
        g.delete_white(n(0), n(1)).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn g1_rejects_duplicate_creation() {
        let mut g = WaitForGraph::new();
        g.create_grey(n(0), n(1)).unwrap();
        assert_eq!(
            g.create_grey(n(0), n(1)),
            Err(AxiomViolation::EdgeExists {
                from: n(0),
                to: n(1)
            })
        );
        // But the reverse edge is a different edge.
        g.create_grey(n(1), n(0)).unwrap();
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = WaitForGraph::new();
        assert_eq!(
            g.create_grey(n(3), n(3)),
            Err(AxiomViolation::SelfLoop { node: n(3) })
        );
    }

    #[test]
    fn g2_requires_grey() {
        let mut g = WaitForGraph::new();
        assert!(matches!(
            g.blacken(n(0), n(1)),
            Err(AxiomViolation::NoSuchEdge { .. })
        ));
        g.create_grey(n(0), n(1)).unwrap();
        g.blacken(n(0), n(1)).unwrap();
        assert!(matches!(
            g.blacken(n(0), n(1)),
            Err(AxiomViolation::WrongColour {
                found: EdgeColour::Black,
                ..
            })
        ));
    }

    #[test]
    fn g3_blocked_replier_cannot_whiten() {
        let mut g = WaitForGraph::new();
        g.create_grey(n(0), n(1)).unwrap();
        g.blacken(n(0), n(1)).unwrap();
        // 1 itself waits for 2: blocked, must not reply.
        g.create_grey(n(1), n(2)).unwrap();
        assert_eq!(
            g.whiten(n(0), n(1)),
            Err(AxiomViolation::ReplierBlocked {
                from: n(0),
                to: n(1)
            })
        );
        // Resolve 1's wait, then whitening works.
        g.blacken(n(1), n(2)).unwrap();
        g.whiten(n(1), n(2)).unwrap();
        g.delete_white(n(1), n(2)).unwrap();
        g.whiten(n(0), n(1)).unwrap();
    }

    #[test]
    fn g3_grey_edge_cannot_whiten_directly() {
        let mut g = WaitForGraph::new();
        g.create_grey(n(0), n(1)).unwrap();
        assert!(matches!(
            g.whiten(n(0), n(1)),
            Err(AxiomViolation::WrongColour {
                found: EdgeColour::Grey,
                ..
            })
        ));
    }

    #[test]
    fn g4_requires_white() {
        let mut g = WaitForGraph::new();
        g.create_grey(n(0), n(1)).unwrap();
        assert!(matches!(
            g.delete_white(n(0), n(1)),
            Err(AxiomViolation::WrongColour {
                found: EdgeColour::Grey,
                ..
            })
        ));
        assert!(matches!(
            g.delete_white(n(5), n(6)),
            Err(AxiomViolation::NoSuchEdge { .. })
        ));
    }

    #[test]
    fn degree_and_activity_queries() {
        let mut g = WaitForGraph::new();
        g.create_grey(n(0), n(1)).unwrap();
        g.create_grey(n(0), n(2)).unwrap();
        g.blacken(n(0), n(1)).unwrap();
        assert_eq!(g.out_degree(n(0)), 2);
        assert!(!g.is_active(n(0)));
        assert!(g.is_active(n(1)));
        assert_eq!(g.vertices(), [n(0), n(1), n(2)].into_iter().collect());
    }

    #[test]
    fn in_edges_match_out_edges() {
        let mut g = WaitForGraph::new();
        g.create_grey(n(0), n(2)).unwrap();
        g.create_grey(n(1), n(2)).unwrap();
        g.blacken(n(1), n(2)).unwrap();
        let ins: Vec<Edge> = g.in_edges(n(2)).collect();
        assert_eq!(ins.len(), 2);
        assert_eq!(ins[0].from, n(0));
        assert_eq!(ins[0].colour, EdgeColour::Grey);
        assert_eq!(ins[1].from, n(1));
        assert_eq!(ins[1].colour, EdgeColour::Black);
    }

    #[test]
    fn failed_mutations_leave_graph_unchanged() {
        let mut g = WaitForGraph::new();
        g.create_grey(n(0), n(1)).unwrap();
        g.blacken(n(0), n(1)).unwrap();
        g.create_grey(n(1), n(2)).unwrap();
        let before = g.clone();
        let version = g.dark_version;
        let _ = g.whiten(n(0), n(1)); // G3 violation
        let _ = g.create_grey(n(0), n(1)); // G1 violation
        let _ = g.delete_white(n(0), n(1)); // wrong colour
        let _ = g.blacken(n(0), n(1)); // wrong colour
        let _ = g.release(n(5)); // nothing to release
        assert!(!g.remove_edge(n(2), n(0)));
        assert_eq!(g, before);
        assert_eq!(g.dark_version, version, "failed mutations must not bump");
    }

    #[test]
    fn dark_version_bumps_on_every_dark_set_change() {
        let mut g = WaitForGraph::new();
        let mut last = g.dark_version;
        let mut step = |g: &WaitForGraph, bumps: bool, what: &str| {
            assert_eq!(g.dark_version > last, bumps, "{what}");
            last = g.dark_version;
        };
        g.create_grey(n(0), n(1)).unwrap();
        step(&g, true, "create_grey adds a dark edge");
        g.blacken(n(0), n(1)).unwrap();
        step(&g, false, "blacken keeps the dark set");
        g.whiten(n(0), n(1)).unwrap();
        step(&g, true, "whiten drops a dark edge");
        assert!(g.remove_edge(n(0), n(1)));
        step(&g, false, "removing a white edge keeps the dark set");
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            g.create_grey(n(a), n(b)).unwrap();
        }
        step(&g, true, "three creations");
        assert!(g.remove_edge(n(2), n(0)));
        step(&g, true, "removing a dark edge");
        g.blacken(n(1), n(2)).unwrap();
        g.whiten(n(1), n(2)).unwrap();
        step(&g, true, "whiten");
        g.delete_white(n(1), n(2)).unwrap();
        step(&g, false, "delete_white keeps the dark set");
        g.release(n(0)).unwrap();
        step(&g, true, "release drops every out-edge");
        g.clear();
        step(&g, true, "clear");
        let snapshot = g.clone();
        g.restore_from(&snapshot);
        step(&g, true, "restore_from replaces the content");
    }

    #[test]
    fn vertex_iter_matches_vertices_and_skips_ghosts() {
        let mut g = WaitForGraph::new();
        g.create_grey(n(4), n(2)).unwrap();
        g.create_grey(n(0), n(4)).unwrap();
        assert_eq!(g.vertex_iter().collect::<Vec<_>>(), vec![n(0), n(2), n(4)]);
        // Deleting 4 -> 2 leaves 2 interned but invisible.
        g.blacken(n(4), n(2)).unwrap();
        g.whiten(n(4), n(2)).unwrap();
        g.delete_white(n(4), n(2)).unwrap();
        assert_eq!(g.vertex_iter().collect::<Vec<_>>(), vec![n(0), n(4)]);
        assert_eq!(g.vertices(), g.vertex_iter().collect());
    }

    #[test]
    fn clear_resets_edges_but_keeps_api_semantics() {
        let mut g = WaitForGraph::new();
        g.create_grey(n(0), n(1)).unwrap();
        g.create_grey(n(1), n(2)).unwrap();
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.vertex_iter().count(), 0);
        assert_eq!(g, WaitForGraph::new());
        // Rebuilding after clear works (interned ids are reused).
        g.create_grey(n(1), n(0)).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.colour(n(1), n(0)), Some(EdgeColour::Grey));
    }

    #[test]
    fn remove_edge_ignores_the_axioms_and_keeps_both_indexes() {
        // A black 3-cycle: every head is blocked, so no edge may whiten.
        let mut g = WaitForGraph::new();
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            g.create_grey(n(a), n(b)).unwrap();
            g.blacken(n(a), n(b)).unwrap();
        }
        assert!(g.whiten(n(0), n(1)).is_err());
        let v = g.dark_version;
        assert!(g.remove_edge(n(0), n(1)));
        assert!(!g.remove_edge(n(0), n(1)), "already gone");
        assert!(!g.remove_edge(n(7), n(0)), "never interned");
        assert_eq!(g.dark_version, v + 1);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.in_edges(n(1)).count(), 0);
        assert_eq!(g.out_degree(n(0)), 0);
        // The same edge can come back, as a fresh grey one.
        g.create_grey(n(0), n(1)).unwrap();
        assert_eq!(g.colour(n(0), n(1)), Some(EdgeColour::Grey));
    }

    #[test]
    fn release_drops_every_out_edge_and_only_those() {
        let mut g = WaitForGraph::new();
        for (a, b) in [(0, 1), (0, 2), (1, 0), (2, 0)] {
            g.create_grey(n(a), n(b)).unwrap();
        }
        g.blacken(n(0), n(1)).unwrap();
        let version = g.dark_version;
        g.release(n(0)).unwrap();
        assert!(g.dark_version > version);
        assert!(g.is_active(n(0)));
        assert_eq!(g.in_edges(n(1)).count(), 0);
        assert_eq!(g.in_edges(n(0)).count(), 2, "in-edges stay");
        assert_eq!(g.edge_count(), 2);
        let err = Err(AxiomViolation::NoSuchEdge {
            from: n(0),
            to: n(0),
        });
        assert_eq!(g.release(n(0)), err, "nothing left to release");
        assert!(g.release(n(9)).is_err(), "never interned");
    }

    #[test]
    fn equality_is_over_edges_not_layout() {
        // Same edges reached via different histories (and thus different
        // intern orders) compare equal.
        let mut a = WaitForGraph::new();
        a.create_grey(n(2), n(1)).unwrap();
        a.create_grey(n(0), n(1)).unwrap();
        let mut b = WaitForGraph::new();
        b.create_grey(n(0), n(1)).unwrap();
        b.create_grey(n(2), n(1)).unwrap();
        assert_eq!(a, b);
        b.blacken(n(0), n(1)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn clones_have_distinct_identities() {
        let g = WaitForGraph::new();
        let h = g.clone();
        assert_ne!(g.uid, h.uid);
        assert_eq!(g, h);
    }

    #[test]
    fn display_lists_edges() {
        let mut g = WaitForGraph::new();
        assert_eq!(g.to_string(), "(empty wait-for graph)");
        g.create_grey(n(0), n(1)).unwrap();
        assert!(g.to_string().contains("p0 -> p1 [grey]"));
    }
}
