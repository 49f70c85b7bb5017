//! Ground-truth queries over wait-for graphs.
//!
//! The probe computation is a *distributed* algorithm; the oracle answers
//! the same questions *centrally*, with full knowledge of the graph. It is
//! the reference against which the distributed algorithm is validated:
//!
//! * **QRP2 (soundness)**: whenever a process declares deadlock, the oracle
//!   must confirm it is on a dark cycle at that instant;
//! * **QRP1 (completeness)**: whenever a permanent dark cycle exists and a
//!   member initiates, a declaration must eventually follow;
//! * **§5 WFGD**: the sets `S_j` computed by the distributed propagation
//!   must equal [`wfgd_ground_truth`];
//! * **liveness**: no blocked process is wedged ([`liveness`]).
//!
//! Every model and substrate states QRP1 and liveness through
//! [`undeclared_cycles`] and [`liveness`].
//!
//! All queries are observational; none mutate the graph.
//!
//! # Scratch and memoization
//!
//! The free functions answer one-shot queries. Hot paths (per-event
//! soundness scoring, per-poll coordinator detection) should instead hold
//! an [`Oracle`]: it keeps a scratch of reusable index-based
//! buffers (iterative Tarjan with visited stamps, no per-query
//! allocation) and memoizes `dark_cycle_members`/`permanently_blocked`/
//! `knots`/`or_deadlocked` against the graph's identity and its dark-set
//! counter. A query is either a memo hit or one full Tarjan run.

use std::collections::{BTreeSet, VecDeque};

use simnet::sim::NodeId;

use crate::graph::{EdgeColour, WaitForGraph};

/// Reusable buffers for oracle traversals: an index-based iterative Tarjan
/// over the dark subgraph plus stamped reachability scans. One scratch can
/// serve any number of graphs and queries; buffers grow to the largest
/// graph seen and are never shrunk.
///
/// After a Tarjan run, components live in `pop_order`/`comp_starts`
/// (component `i` is `pop_order[comp_starts[i]..comp_starts[i + 1]]`, in
/// Tarjan's completion order — reverse topological, identical to
/// [`dark_sccs`]).
#[derive(Debug, Default)]
struct OracleScratch {
    /// `stamp[v] == cur` marks `v` visited in the current traversal; no
    /// per-query clearing needed.
    stamp: Vec<u64>,
    cur: u64,
    index: Vec<u32>,
    lowlink: Vec<u32>,
    /// Self-cleaning: Tarjan pops every vertex it pushes.
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    /// Explicit DFS call stack: `(vertex, next successor position)`.
    call: Vec<(u32, u32)>,
    pop_order: Vec<u32>,
    comp_starts: Vec<u32>,
    /// CSR snapshot of the dark subgraph.
    csr_off: Vec<u32>,
    csr_heads: Vec<u32>,
}

impl OracleScratch {
    /// Creates an empty scratch; buffers are sized lazily per graph.
    fn new() -> Self {
        OracleScratch::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.index.resize(n, 0);
            self.lowlink.resize(n, 0);
            self.on_stack.resize(n, false);
        }
    }

    /// Snapshots the dark subgraph into the reusable CSR buffers.
    fn build_dark_csr(&mut self, g: &WaitForGraph) {
        let n = g.dense_count();
        self.csr_off.clear();
        self.csr_heads.clear();
        self.csr_off.reserve(n + 1);
        for i in 0..n {
            self.csr_off.push(self.csr_heads.len() as u32);
            for &(h, c) in g.dense_out(i as u32) {
                if c.is_dark() {
                    self.csr_heads.push(h);
                }
            }
        }
        self.csr_off.push(self.csr_heads.len() as u32);
    }

    /// Tarjan over a CSR snapshot of the dark subgraph, rooted at every
    /// vertex with an incident edge in ascending `NodeId` order (the root
    /// order of [`dark_sccs`]).
    fn full_dark_run(&mut self, g: &WaitForGraph) {
        self.build_dark_csr(g);
        self.ensure(g.dense_count());
        self.cur += 1;
        let OracleScratch {
            stamp,
            cur,
            index,
            lowlink,
            on_stack,
            stack,
            call,
            pop_order,
            comp_starts,
            csr_off,
            csr_heads,
        } = self;
        let cur = *cur;
        stack.clear();
        call.clear();
        pop_order.clear();
        comp_starts.clear();
        let mut next_index = 0u32;

        for root in g.incident_dense_ids() {
            if stamp[root as usize] == cur {
                continue;
            }
            stamp[root as usize] = cur;
            index[root as usize] = next_index;
            lowlink[root as usize] = next_index;
            next_index += 1;
            on_stack[root as usize] = true;
            stack.push(root);
            call.push((root, 0));

            while let Some(frame) = call.last_mut() {
                let v = frame.0;
                // Next unvisited-position dark successor of v, if any.
                let at = csr_off[v as usize] + frame.1;
                let next = if at < csr_off[v as usize + 1] {
                    frame.1 += 1;
                    Some(csr_heads[at as usize])
                } else {
                    None
                };
                match next {
                    Some(w) => {
                        if stamp[w as usize] != cur {
                            stamp[w as usize] = cur;
                            index[w as usize] = next_index;
                            lowlink[w as usize] = next_index;
                            next_index += 1;
                            on_stack[w as usize] = true;
                            stack.push(w);
                            call.push((w, 0));
                        } else if on_stack[w as usize] {
                            lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                        }
                    }
                    None => {
                        call.pop();
                        let vlow = lowlink[v as usize];
                        if let Some(&(parent, _)) = call.last() {
                            lowlink[parent as usize] = lowlink[parent as usize].min(vlow);
                        }
                        if vlow == index[v as usize] {
                            comp_starts.push(pop_order.len() as u32);
                            loop {
                                let w = stack.pop().expect("stack nonempty at root");
                                on_stack[w as usize] = false;
                                pop_order.push(w);
                                if w == v {
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
        comp_starts.push(pop_order.len() as u32);
    }

    /// Adds the members of every non-trivial component from the last run
    /// into `out`.
    fn collect_cycle_members_into(&self, g: &WaitForGraph, out: &mut BTreeSet<NodeId>) {
        for w in self.comp_starts.windows(2) {
            let comp = &self.pop_order[w[0] as usize..w[1] as usize];
            if comp.len() >= 2 {
                out.extend(comp.iter().map(|&i| g.dense_node(i)));
            }
        }
    }

    /// Materialises the components of the last run as `NodeId` lists, in
    /// completion order.
    fn components(&self, g: &WaitForGraph) -> Vec<Vec<NodeId>> {
        self.comp_starts
            .windows(2)
            .map(|w| {
                self.pop_order[w[0] as usize..w[1] as usize]
                    .iter()
                    .map(|&i| g.dense_node(i))
                    .collect()
            })
            .collect()
    }

    /// Strongly connected components of the dark subgraph — same output as
    /// the free [`dark_sccs`], reusing this scratch's buffers.
    fn dark_sccs(&mut self, g: &WaitForGraph) -> Vec<Vec<NodeId>> {
        self.full_dark_run(g);
        self.components(g)
    }

    /// `true` if `v` lies on a cycle all of whose edges are black, via a
    /// stamped forward scan (no allocation beyond buffer growth).
    fn is_on_black_cycle(&mut self, g: &WaitForGraph, v: NodeId) -> bool {
        let Some(vi) = g.dense_index(v) else {
            return false;
        };
        self.ensure(g.dense_count());
        self.cur += 1;
        let cur = self.cur;
        self.stack.clear();
        self.stamp[vi as usize] = cur;
        self.stack.push(vi);
        while let Some(u) = self.stack.pop() {
            for &(h, c) in g.dense_out(u) {
                if c == EdgeColour::Black && self.stamp[h as usize] != cur {
                    self.stamp[h as usize] = cur;
                    self.stack.push(h);
                }
            }
        }
        g.dense_in(vi).iter().any(|&t| {
            self.stamp[t as usize] == cur && g.dense_colour(t, vi) == Some(EdgeColour::Black)
        })
    }
}

/// A memoizing oracle handle.
///
/// Holds reusable traversal buffers plus cached answers keyed on the
/// graph's identity and dark-set counter. Queries against a graph whose
/// grey ∪ black edges are unchanged (blackening and white-edge deletion
/// leave them) are free; any other query runs one full Tarjan.
///
/// `is_on_black_cycle` is deliberately **not** memoized: the black edge
/// set changes on blacken/whiten, which the dark-set key cannot see.
///
/// # Examples
///
/// ```
/// use simnet::sim::NodeId;
/// use wfg::oracle::Oracle;
/// use wfg::WaitForGraph;
///
/// let mut g = WaitForGraph::new();
/// let mut oracle = Oracle::new();
/// g.create_grey(NodeId(0), NodeId(1)).unwrap();
/// assert!(!oracle.is_on_dark_cycle(&g, NodeId(0)));
/// g.create_grey(NodeId(1), NodeId(0)).unwrap(); // closes a dark cycle
/// assert!(oracle.is_on_dark_cycle(&g, NodeId(0))); // the dark set changed: recomputed
/// ```
#[derive(Debug, Default)]
pub struct Oracle {
    scratch: OracleScratch,
    /// `(uid, dark_version)` of the graph the memos describe.
    key: Option<(u64, u64)>,
    members: BTreeSet<NodeId>,
    blocked: Option<BTreeSet<NodeId>>,
    knots: Option<Vec<BTreeSet<NodeId>>>,
    or_stuck: Option<BTreeSet<NodeId>>,
}

impl Oracle {
    /// Creates an oracle with empty caches.
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Brings the cached dark-cycle membership up to date with `g`.
    fn refresh(&mut self, g: &WaitForGraph) {
        let key = g.memo_key();
        if self.key == Some(key) {
            return;
        }
        self.scratch.full_dark_run(g);
        self.members.clear();
        self.scratch
            .collect_cycle_members_into(g, &mut self.members);
        self.blocked = None;
        self.knots = None;
        self.or_stuck = None;
        self.key = Some(key);
    }

    /// Vertices on at least one dark cycle — equals the free
    /// [`dark_cycle_members`], served from the memo when possible.
    pub fn dark_cycle_members(&mut self, g: &WaitForGraph) -> &BTreeSet<NodeId> {
        self.refresh(g);
        &self.members
    }

    /// `true` if `v` lies on a dark cycle.
    pub fn is_on_dark_cycle(&mut self, g: &WaitForGraph, v: NodeId) -> bool {
        self.refresh(g);
        self.members.contains(&v)
    }

    /// Vertices from which a dark cycle is dark-reachable (members
    /// included; see the free [`permanently_blocked`]). Computed lazily
    /// from the memoized membership and cached until the dark set changes.
    pub fn permanently_blocked(&mut self, g: &WaitForGraph) -> &BTreeSet<NodeId> {
        self.refresh(g);
        let members = &self.members;
        self.blocked
            .get_or_insert_with(|| search(g, members.clone(), true, &EdgeColour::is_dark))
    }

    /// The distinct knots (non-trivial dark SCCs as sorted sets, in
    /// [`dark_sccs`] order; see the free [`knots`]). Read off the memo's
    /// Tarjan run on first query after a memo miss, then cached.
    pub fn knots(&mut self, g: &WaitForGraph) -> &[BTreeSet<NodeId>] {
        self.refresh(g);
        if self.knots.is_none() {
            // The scratch's last run is the memo's: only `refresh` runs
            // Tarjan here, and `is_on_black_cycle` leaves components be.
            let ks = self
                .scratch
                .components(g)
                .into_iter()
                .filter(|c| c.len() >= 2)
                .map(|c| c.into_iter().collect())
                .collect();
            self.knots = Some(ks);
        }
        self.knots.as_deref().expect("just filled")
    }

    /// The **OR-deadlocked** vertices of the communication model (the
    /// paper's reference \[1\]): blocked, with no active vertex
    /// dark-reachable from them (Barbosa's definition). A vertex whose only
    /// out-edges are white counts as active: its reply is on the way.
    /// Cached until the dark set changes, like [`Oracle::knots`].
    pub fn or_deadlocked(&mut self, g: &WaitForGraph) -> &BTreeSet<NodeId> {
        self.refresh(g);
        self.or_stuck.get_or_insert_with(|| {
            // One reverse pass from the sinks: whatever reaches one can escape.
            let sink = |v| !g.out_edges(v).any(|e| e.colour.is_dark());
            let sinks = g.vertex_iter().filter(|&v| sink(v)).collect();
            let free = search(g, sinks, true, &EdgeColour::is_dark);
            g.vertex_iter().filter(|v| !free.contains(v)).collect()
        })
    }

    /// `true` if `v` lies on an all-black cycle. Not memoized (the black
    /// set is finer-grained than the dark-set key), but allocation-free
    /// via the shared scratch.
    pub fn is_on_black_cycle(&mut self, g: &WaitForGraph, v: NodeId) -> bool {
        self.scratch.is_on_black_cycle(g, v)
    }
}

/// Strongly connected components of the *dark* (grey ∪ black) subgraph,
/// computed with an iterative Tarjan algorithm.
///
/// Components are returned in reverse topological order (Tarjan's natural
/// output order); singleton components are included. For repeated queries
/// hold an [`Oracle`] (memoized, reused buffers) instead.
pub fn dark_sccs(g: &WaitForGraph) -> Vec<Vec<NodeId>> {
    OracleScratch::new().dark_sccs(g)
}

/// Vertices lying on at least one **dark cycle** (§2.4).
///
/// A dark cycle persists forever (its edges can never be whitened or
/// deleted), so these vertices are exactly the ones the paper calls
/// deadlocked in the narrow sense. Self-loops cannot exist
/// ([`WaitForGraph`] rejects them), so a vertex is on a dark cycle iff its
/// dark SCC has at least two members.
pub fn dark_cycle_members(g: &WaitForGraph) -> BTreeSet<NodeId> {
    let mut scratch = OracleScratch::new();
    scratch.full_dark_run(g);
    let mut members = BTreeSet::new();
    scratch.collect_cycle_members_into(g, &mut members);
    members
}

/// `true` if `v` lies on a dark cycle.
pub fn is_on_dark_cycle(g: &WaitForGraph, v: NodeId) -> bool {
    dark_cycle_members(g).contains(&v)
}

/// The distinct **knots** of the graph: each non-trivial strongly
/// connected component of the dark subgraph, as a sorted vertex set.
/// One declaration per knot is what completeness requires (§4.2). A
/// one-shot [`Oracle::knots`].
pub fn knots(g: &WaitForGraph) -> Vec<BTreeSet<NodeId>> {
    Oracle::new().knots(g).to_vec()
}

/// `true` if `v` lies on a cycle **all of whose edges are black**.
///
/// Property QRP2 promises this stronger condition at the moment a
/// meaningful probe reaches the initiator.
pub fn is_on_black_cycle(g: &WaitForGraph, v: NodeId) -> bool {
    OracleScratch::new().is_on_black_cycle(g, v)
}

/// Vertices that are **permanently blocked**: vertices from which a dark
/// cycle is reachable along dark edges (members included).
///
/// Such a vertex has an outgoing wait that can never be resolved, because
/// the chain of waits it heads ends in a dark cycle; by G3 none of the
/// edges on the chain can ever be whitened. A one-shot
/// [`Oracle::permanently_blocked`].
pub fn permanently_blocked(g: &WaitForGraph) -> BTreeSet<NodeId> {
    Oracle::new().permanently_blocked(g).clone()
}

/// Black edges `(a, b)` that are **permanently black**: `b` is permanently
/// blocked, so `b` will never become active and by G3 will never whiten the
/// edge. These edges form the "deadlocked portion of the wait-for graph"
/// that §5's WFGD computation disseminates.
pub fn permanent_black_edges(g: &WaitForGraph) -> BTreeSet<(NodeId, NodeId)> {
    let blocked = permanently_blocked(g);
    g.edges()
        .filter(|e| e.colour == EdgeColour::Black && blocked.contains(&e.to))
        .map(|e| (e.from, e.to))
        .collect()
}

/// Vertices reachable from `start` (inclusive) along edges whose colour
/// satisfies `keep`.
pub fn reachable(
    g: &WaitForGraph,
    start: NodeId,
    keep: impl Fn(EdgeColour) -> bool,
) -> BTreeSet<NodeId> {
    search(g, BTreeSet::from([start]), false, &keep)
}

/// `seen` grown by every vertex reachable from it along edges whose
/// colour satisfies `keep`: forward, or against the edges if `backward`
/// (the vertices that reach `seen`). Not generic, so it is compiled once
/// here rather than into every crate that calls [`reachable`].
fn search(
    g: &WaitForGraph,
    mut seen: BTreeSet<NodeId>,
    backward: bool,
    keep: &dyn Fn(EdgeColour) -> bool,
) -> BTreeSet<NodeId> {
    let mut frontier: Vec<NodeId> = seen.iter().copied().collect();
    while let Some(v) = frontier.pop() {
        let mut visit = |w, c| {
            if keep(c) && seen.insert(w) {
                frontier.push(w);
            }
        };
        if backward {
            g.in_edges(v).for_each(|e| visit(e.from, e.colour));
        } else {
            g.out_edges(v).for_each(|e| visit(e.to, e.colour));
        }
    }
    seen
}

/// QRP1 over `g`: the dark cycles (non-trivial dark SCCs, in
/// [`dark_sccs`] order) with no `declared` member, and the number of
/// vertices on dark cycles.
pub fn undeclared_cycles(
    g: &WaitForGraph,
    declared: impl Fn(NodeId) -> bool,
) -> (usize, Vec<Vec<NodeId>>) {
    let cycles: Vec<_> = dark_sccs(g).into_iter().filter(|c| c.len() >= 2).collect();
    let on_cycles = cycles.iter().map(Vec::len).sum();
    let missed = cycles
        .into_iter()
        .filter(|c| !c.iter().any(|&v| declared(v)));
    (on_cycles, missed.collect())
}

/// Liveness class of one process (see [`liveness`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Liveness {
    /// Not blocked: able to move on its own.
    Active,
    /// Blocked, but its wait chain reaches a dark cycle (resolution's
    /// problem) or a process that can move, or a message is in flight.
    GenuinelyWaiting,
    /// Its wait reaches a dark cycle through its own vertices first.
    Deadlocked,
    /// Blocked forever with no way out: a protocol or harness bug.
    Wedged,
}

/// The [`Liveness`] of the process whose wait starts at `start` (`None`:
/// its first edge is still in flight), given the dark-cycle members
/// `dark`, the process's own vertices `me`, the vertices that `can_move`
/// on their own and the messages `in_flight`. A white out-edge of `start`
/// with nothing in flight is a lost grant: the reply was delivered but
/// the requester never deleted the edge. Otherwise a breadth-first search
/// from `start` decides: the first dark vertex it meets is deadlocked if
/// it is one of `me` (a §6.4 remote agent can sit on a cycle its home
/// agent is not on) and waiting if not; with no dark vertex in reach, the
/// wait ends only through a vertex that can move or a message in flight.
pub fn liveness(
    g: &WaitForGraph,
    dark: &BTreeSet<NodeId>,
    start: Option<NodeId>,
    me: impl Fn(NodeId) -> bool,
    can_move: impl Fn(NodeId) -> bool,
    in_flight: usize,
) -> Liveness {
    if start.is_some_and(&can_move) {
        return Liveness::Active;
    }
    let white = |v| g.out_edges(v).any(|e| e.colour == EdgeColour::White);
    if in_flight == 0 && start.is_some_and(white) {
        return Liveness::Wedged;
    }
    let mut seen: BTreeSet<NodeId> = start.into_iter().collect();
    let mut queue: VecDeque<NodeId> = start.into_iter().collect();
    let mut exit = in_flight > 0;
    while let Some(v) = queue.pop_front() {
        if dark.contains(&v) {
            return if me(v) {
                Liveness::Deadlocked
            } else {
                Liveness::GenuinelyWaiting
            };
        }
        exit |= can_move(v);
        queue.extend(g.out_edges(v).map(|e| e.to).filter(|&to| seen.insert(to)));
    }
    if exit {
        Liveness::GenuinelyWaiting
    } else {
        Liveness::Wedged
    }
}

/// Ground truth for the §5 WFGD computation: the set `S_j` that vertex
/// `subject` should converge to after initiator `initiator` (a vertex on a
/// black cycle) starts the propagation.
///
/// `S_j` contains exactly the black edges lying on a black path from
/// `subject` to `initiator`: edges `(a, b)` such that `a` is black-reachable
/// from `subject` and `initiator` is black-reachable from `b`.
pub fn wfgd_ground_truth(
    g: &WaitForGraph,
    subject: NodeId,
    initiator: NodeId,
) -> BTreeSet<(NodeId, NodeId)> {
    let black = |c| c == EdgeColour::Black;
    let fwd = reachable(g, subject, black);
    let to_init = search(g, BTreeSet::from([initiator]), true, &black);
    g.edges()
        .filter(|e| {
            e.colour == EdgeColour::Black && fwd.contains(&e.from) && to_init.contains(&e.to)
        })
        .map(|e| (e.from, e.to))
        .collect()
}

/// Brute-force check that `v` is on a dark cycle, by DFS path enumeration.
///
/// Exponential in the worst case; used only by tests to validate
/// [`is_on_dark_cycle`] on small graphs.
pub fn is_on_dark_cycle_bruteforce(g: &WaitForGraph, v: NodeId) -> bool {
    fn dfs(g: &WaitForGraph, target: NodeId, at: NodeId, visited: &mut BTreeSet<NodeId>) -> bool {
        for e in g.out_edges(at) {
            if !e.colour.is_dark() {
                continue;
            }
            if e.to == target {
                return true;
            }
            if visited.insert(e.to) && dfs(g, target, e.to, visited) {
                return true;
            }
        }
        false
    }
    let mut visited = BTreeSet::new();
    visited.insert(v);
    dfs(g, v, v, &mut visited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WaitForGraph;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }

    /// Builds a graph from (from, to, colour) triples, going through the
    /// axiom-checked API.
    fn build(edges: &[(usize, usize, EdgeColour)]) -> WaitForGraph {
        let mut g = WaitForGraph::new();
        for &(a, b, _) in edges {
            g.create_grey(n(a), n(b)).unwrap();
        }
        for &(a, b, c) in edges {
            if c != EdgeColour::Grey {
                g.blacken(n(a), n(b)).unwrap();
            }
        }
        // Whitening has ordering constraints (G3); do whites last, repeatedly.
        let mut pending: Vec<(usize, usize)> = edges
            .iter()
            .filter(|&&(_, _, c)| c == EdgeColour::White)
            .map(|&(a, b, _)| (a, b))
            .collect();
        let mut progress = true;
        while progress && !pending.is_empty() {
            progress = false;
            pending.retain(|&(a, b)| {
                if g.whiten(n(a), n(b)).is_ok() {
                    progress = true;
                    false
                } else {
                    true
                }
            });
        }
        assert!(pending.is_empty(), "white edges unsatisfiable under G3");
        g
    }

    use EdgeColour::{Black, Grey, White};

    #[test]
    fn triangle_black_cycle_detected() {
        let g = build(&[(0, 1, Black), (1, 2, Black), (2, 0, Black)]);
        let members = dark_cycle_members(&g);
        assert_eq!(members, [n(0), n(1), n(2)].into_iter().collect());
        assert!(is_on_black_cycle(&g, n(0)));
    }

    #[test]
    fn mixed_grey_black_cycle_is_dark() {
        let g = build(&[(0, 1, Grey), (1, 2, Black), (2, 0, Grey)]);
        assert!(is_on_dark_cycle(&g, n(1)));
        // Dark but not black: grey edges break the black cycle.
        assert!(!is_on_black_cycle(&g, n(1)));
    }

    #[test]
    fn chain_has_no_cycle() {
        let g = build(&[(0, 1, Black), (1, 2, Black), (2, 3, Grey)]);
        assert!(dark_cycle_members(&g).is_empty());
        assert!(permanently_blocked(&g).is_empty());
        assert!(permanent_black_edges(&g).is_empty());
    }

    #[test]
    fn tail_into_cycle_is_permanently_blocked() {
        // 4 -> 0 -> 1 -> 2 -> 0, and 3 -> 4; all black.
        let g = build(&[
            (0, 1, Black),
            (1, 2, Black),
            (2, 0, Black),
            (4, 0, Black),
            (3, 4, Black),
        ]);
        let blocked = permanently_blocked(&g);
        assert_eq!(blocked, (0..=4).map(n).collect());
        // Every black edge here heads into a blocked vertex.
        assert_eq!(permanent_black_edges(&g).len(), 5);
        // 3 and 4 are blocked but not on the cycle.
        let cyc = dark_cycle_members(&g);
        assert!(!cyc.contains(&n(3)) && !cyc.contains(&n(4)));
    }

    #[test]
    fn black_edge_to_unblocked_vertex_is_not_permanent() {
        // 0 -> 1 black, 1 active: 1 may whiten it later.
        let g = build(&[(0, 1, Black)]);
        assert!(permanent_black_edges(&g).is_empty());
    }

    #[test]
    fn two_disjoint_cycles() {
        let g = build(&[(0, 1, Black), (1, 0, Black), (2, 3, Grey), (3, 2, Black)]);
        let sccs = dark_sccs(&g);
        let big: Vec<_> = sccs.into_iter().filter(|c| c.len() >= 2).collect();
        assert_eq!(big.len(), 2);
        assert!(is_on_dark_cycle(&g, n(2)));
    }

    #[test]
    fn wfgd_ground_truth_cycle_with_tail() {
        // tail: 3 -> 4 -> 0 ; cycle: 0 -> 1 -> 2 -> 0, all black; initiator 0.
        let g = build(&[
            (0, 1, Black),
            (1, 2, Black),
            (2, 0, Black),
            (4, 0, Black),
            (3, 4, Black),
        ]);
        // From 3, black paths to 0 reach the tail edges and then may keep
        // circling the cycle: all five edges are on some black path 3 ->* 0.
        let s3 = wfgd_ground_truth(&g, n(3), n(0));
        assert_eq!(
            s3,
            [
                (n(3), n(4)),
                (n(4), n(0)),
                (n(0), n(1)),
                (n(1), n(2)),
                (n(2), n(0))
            ]
            .into_iter()
            .collect()
        );
        // From 1 only the cycle edges are reachable (the tail hangs *into*
        // the cycle, so paths from 1 never traverse (3,4) or (4,0)).
        let cycle_edges: std::collections::BTreeSet<_> = [(n(0), n(1)), (n(1), n(2)), (n(2), n(0))]
            .into_iter()
            .collect();
        assert_eq!(wfgd_ground_truth(&g, n(1), n(0)), cycle_edges);
        // From 0 itself: the whole cycle.
        assert_eq!(wfgd_ground_truth(&g, n(0), n(0)), cycle_edges);
    }

    #[test]
    fn wfgd_excludes_branches_not_leading_to_initiator() {
        // 0 -> 1 -> 0 cycle; 1 -> 2 black side branch (2 active).
        // G3 forbids nothing here: edge (1,2) is black because 2 received it.
        let g = build(&[(0, 1, Black), (1, 0, Black), (1, 2, Black)]);
        let s0 = wfgd_ground_truth(&g, n(0), n(0));
        assert!(!s0.contains(&(n(1), n(2))));
        assert_eq!(s0, [(n(0), n(1)), (n(1), n(0))].into_iter().collect());
    }

    #[test]
    fn bruteforce_agrees_on_examples() {
        let g = build(&[
            (0, 1, Black),
            (1, 2, Grey),
            (2, 0, Black),
            (3, 0, Black),
            (2, 4, Black),
        ]);
        for i in 0..5 {
            assert_eq!(
                is_on_dark_cycle(&g, n(i)),
                is_on_dark_cycle_bruteforce(&g, n(i)),
                "mismatch at {i}"
            );
        }
    }

    #[test]
    fn reachable_respects_colour_filter() {
        let g = build(&[(0, 1, Black), (1, 2, Grey), (2, 3, Black)]);
        let black_only = reachable(&g, n(0), |c| c == EdgeColour::Black);
        assert_eq!(black_only, [n(0), n(1)].into_iter().collect());
        let dark = reachable(&g, n(0), EdgeColour::is_dark);
        assert_eq!(dark, (0..=3).map(n).collect());
    }

    #[test]
    fn knots_are_the_nontrivial_sccs() {
        let g = build(&[
            (0, 1, Black),
            (1, 0, Black),
            (2, 3, Black),
            (3, 2, Grey),
            (4, 0, Black), // tail, not in any knot
        ]);
        let ks = knots(&g);
        assert_eq!(ks.len(), 2);
        assert!(ks.contains(&[n(0), n(1)].into_iter().collect()));
        assert!(ks.contains(&[n(2), n(3)].into_iter().collect()));
        assert!(ks.iter().all(|k| !k.contains(&n(4))));
    }

    #[test]
    fn sccs_cover_all_vertices_once() {
        let g = build(&[
            (0, 1, Black),
            (1, 2, Black),
            (2, 0, Black),
            (2, 3, Black),
            (3, 4, Grey),
        ]);
        let sccs = dark_sccs(&g);
        let mut all: Vec<NodeId> = sccs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..=4).map(n).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_reuse_matches_free_functions() {
        let mut scratch = OracleScratch::new();
        let graphs = [
            build(&[(0, 1, Black), (1, 2, Black), (2, 0, Black)]),
            build(&[(0, 1, Grey), (1, 0, Grey), (3, 4, Black)]),
            build(&[(5, 6, Black)]),
            WaitForGraph::new(),
        ];
        for g in &graphs {
            assert_eq!(scratch.dark_sccs(g), dark_sccs(g));
            // The free knots / permanently_blocked delegate to `Oracle`:
            // check them against their definitions.
            let by_scc: Vec<BTreeSet<NodeId>> = dark_sccs(g)
                .into_iter()
                .filter(|c| c.len() >= 2)
                .map(|c| c.into_iter().collect())
                .collect();
            assert_eq!(knots(g), by_scc);
            let members = dark_cycle_members(g);
            let blocked: BTreeSet<NodeId> = g
                .vertex_iter()
                .filter(|&v| {
                    reachable(g, v, EdgeColour::is_dark)
                        .iter()
                        .any(|u| members.contains(u))
                })
                .collect();
            assert_eq!(permanently_blocked(g), blocked);
            for i in 0..7 {
                assert_eq!(
                    scratch.is_on_black_cycle(g, n(i)),
                    is_on_black_cycle(g, n(i)),
                    "black-cycle mismatch at {i}"
                );
            }
        }
    }

    /// [`liveness`] of `v` with `me = {v}` and the basic model's "can
    /// move" (no outgoing edge).
    fn basic_class(g: &WaitForGraph, v: usize, in_flight: usize) -> Liveness {
        let dark = dark_cycle_members(g);
        let active = |u| g.is_active(u);
        liveness(g, &dark, Some(n(v)), |u| u == n(v), active, in_flight)
    }

    #[test]
    fn liveness_chain_into_a_dark_cycle_waits_on_resolution() {
        // 3 -> 2 -> 0 <-> 1: only 0 and 1 are deadlocked.
        let g = build(&[(0, 1, Black), (1, 0, Grey), (2, 0, Black), (3, 2, Grey)]);
        assert_eq!(basic_class(&g, 0, 0), Liveness::Deadlocked);
        assert_eq!(basic_class(&g, 3, 0), Liveness::GenuinelyWaiting);
        assert_eq!(basic_class(&g, 2, 0), Liveness::GenuinelyWaiting);
    }

    #[test]
    fn liveness_chain_to_a_vertex_that_can_move_waits() {
        let g = build(&[(0, 1, Black), (1, 2, Grey)]);
        assert_eq!(basic_class(&g, 0, 0), Liveness::GenuinelyWaiting);
        assert_eq!(basic_class(&g, 2, 0), Liveness::Active);
        // The same chain with nobody able to move is wedged.
        let dark = dark_cycle_members(&g);
        let stuck = liveness(&g, &dark, Some(n(0)), |u| u == n(0), |_| false, 0);
        assert_eq!(stuck, Liveness::Wedged);
    }

    #[test]
    fn liveness_chain_kept_alive_only_by_a_message_in_flight() {
        let g = build(&[(0, 1, Black), (1, 2, Black)]);
        let dark = dark_cycle_members(&g);
        let class = |start, in_flight| liveness(&g, &dark, start, |_| false, |_| false, in_flight);
        assert_eq!(class(Some(n(0)), 1), Liveness::GenuinelyWaiting);
        assert_eq!(class(Some(n(0)), 0), Liveness::Wedged);
        // A wait whose first edge is itself still in flight.
        assert_eq!(class(None, 1), Liveness::GenuinelyWaiting);
        assert_eq!(class(None, 0), Liveness::Wedged);
    }

    #[test]
    fn liveness_white_edge_with_nothing_in_flight_is_a_lost_grant() {
        // 1 replied (whitened) and is active; 0 never deleted the edge.
        let g = build(&[(0, 1, White)]);
        assert_eq!(basic_class(&g, 0, 0), Liveness::Wedged);
        assert_eq!(basic_class(&g, 0, 1), Liveness::GenuinelyWaiting);
    }

    #[test]
    fn liveness_remote_agent_cycle_that_misses_the_home_vertex() {
        // Transaction A's home agent 0 waits on its remote agent 1, which
        // sits on the cycle 1 <-> 2 with transaction B's agent 2; the
        // cycle does not pass through 0.
        let g = build(&[(0, 1, Black), (1, 2, Black), (2, 1, Black)]);
        let dark = dark_cycle_members(&g);
        assert!(!dark.contains(&n(0)));
        let class = |me: &dyn Fn(NodeId) -> bool| liveness(&g, &dark, Some(n(0)), me, |_| false, 0);
        assert_eq!(class(&|v| v.0 <= 1), Liveness::Deadlocked, "A's own agent");
        assert_eq!(
            class(&|v| v == n(0)),
            Liveness::GenuinelyWaiting,
            "B's cycle"
        );
    }

    #[test]
    fn undeclared_cycles_names_each_silent_cycle() {
        let g = build(&[
            (0, 1, Black),
            (1, 0, Black),
            (2, 3, Grey),
            (3, 2, Black),
            (4, 0, Grey),
        ]);
        let (on_cycles, missed) = undeclared_cycles(&g, |v| v == n(3));
        assert_eq!(on_cycles, 4);
        assert_eq!(missed.len(), 1);
        let mut members = missed[0].clone();
        members.sort_unstable();
        assert_eq!(members, [n(0), n(1)]);
        assert!(undeclared_cycles(&g, |v| v.0 % 2 == 1).1.is_empty());
    }

    #[test]
    fn or_deadlocked_is_no_active_vertex_reachable() {
        let mut o = Oracle::new();
        // A closed knot 0 <-> 1, plus 2 waiting on it: all stuck.
        let mut g = build(&[(0, 1, Grey), (1, 0, Grey), (2, 0, Grey)]);
        assert_eq!(*o.or_deadlocked(&g), (0..=2).map(n).collect());
        // An escape: 1 also waits on the active 3, which any of them can
        // now reach.
        g.create_grey(n(1), n(3)).unwrap();
        assert!(o.or_deadlocked(&g).is_empty());
        // Blocked on an active vertex only.
        assert!(Oracle::new()
            .or_deadlocked(&build(&[(4, 5, Grey)]))
            .is_empty());
    }

    #[test]
    fn or_deadlocked_memo_flips_after_release() {
        let mut g = build(&[(0, 1, Grey), (1, 0, Grey)]);
        let mut o = Oracle::new();
        assert_eq!(o.or_deadlocked(&g).len(), 2);
        // Same graph object, no dark edge added: only the dark-set
        // counter tells the memo that 1 is active again.
        g.release(n(1)).unwrap();
        assert!(o.or_deadlocked(&g).is_empty());
    }

    #[test]
    fn or_deadlocked_memo_flips_after_whiten() {
        // 2 waits on the knot 0 <-> 1 and on the active 3, its escape.
        let mut g = build(&[(0, 1, Grey), (1, 0, Grey), (2, 0, Grey), (2, 3, Black)]);
        let mut o = Oracle::new();
        assert_eq!(*o.or_deadlocked(&g), [n(0), n(1)].into_iter().collect());
        // 3 replies: the members do not move, but 2 has lost its escape.
        g.whiten(n(2), n(3)).unwrap();
        assert_eq!(*o.or_deadlocked(&g), (0..=2).map(n).collect());
    }

    #[test]
    fn oracle_memoizes_across_blacken() {
        let mut g = WaitForGraph::new();
        let mut o = Oracle::new();
        g.create_grey(n(0), n(1)).unwrap();
        g.create_grey(n(1), n(0)).unwrap();
        assert!(o.is_on_dark_cycle(&g, n(0)));
        // Blackening does not change the dark set; the memo must survive
        // and stay correct.
        g.blacken(n(0), n(1)).unwrap();
        assert!(o.is_on_dark_cycle(&g, n(0)));
        assert_eq!(*o.dark_cycle_members(&g), dark_cycle_members(&g));
    }

    #[test]
    fn oracle_follows_edge_additions() {
        let mut g = WaitForGraph::new();
        let mut o = Oracle::new();
        // Chain 0 -> 1 -> 2, no cycle yet.
        g.create_grey(n(0), n(1)).unwrap();
        g.create_grey(n(1), n(2)).unwrap();
        assert!(o.dark_cycle_members(&g).is_empty());
        // Close the loop: the memo of the chain must not be served.
        g.create_grey(n(2), n(0)).unwrap();
        assert_eq!(*o.dark_cycle_members(&g), (0..=2).map(n).collect());
        // A disjoint second cycle.
        g.create_grey(n(3), n(4)).unwrap();
        g.create_grey(n(4), n(3)).unwrap();
        assert_eq!(*o.dark_cycle_members(&g), (0..=4).map(n).collect());
        assert_eq!(o.knots(&g).len(), 2);
        assert_eq!(*o.permanently_blocked(&g), permanently_blocked(&g));
    }

    #[test]
    fn oracle_recovers_after_remove_edge() {
        let mut g = WaitForGraph::new();
        let mut o = Oracle::new();
        for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            g.create_grey(n(a), n(b)).unwrap();
        }
        assert_eq!(o.dark_cycle_members(&g).len(), 3);
        // Both heads are blocked: only the axiom-free removal can do this.
        assert!(g.remove_edge(n(2), n(1)));
        assert_eq!(
            *o.dark_cycle_members(&g),
            [n(0), n(1)].into_iter().collect()
        );
        // An addition after the removal invalidates the memo again.
        g.create_grey(n(2), n(0)).unwrap();
        assert_eq!(*o.dark_cycle_members(&g), dark_cycle_members(&g));
        assert_eq!(o.dark_cycle_members(&g).len(), 3);
    }

    #[test]
    fn oracle_recovers_after_whiten() {
        let mut g = WaitForGraph::new();
        let mut o = Oracle::new();
        g.create_grey(n(0), n(1)).unwrap();
        g.create_grey(n(1), n(0)).unwrap();
        g.create_grey(n(2), n(0)).unwrap();
        assert_eq!(o.dark_cycle_members(&g).len(), 2);
        // Whitening (2, 0) needs 0 active — it is not, so break the cycle
        // legally is impossible; instead whiten on a fresh graph.
        let mut h = WaitForGraph::new();
        h.create_grey(n(0), n(1)).unwrap();
        h.blacken(n(0), n(1)).unwrap();
        assert!(!o.is_on_dark_cycle(&h, n(0)));
        h.whiten(n(0), n(1)).unwrap();
        assert!(o.dark_cycle_members(&h).is_empty());
        h.create_grey(n(1), n(0)).unwrap();
        // (0,1) is white now: no dark cycle despite both edges existing.
        assert!(!o.is_on_dark_cycle(&h, n(1)));
        assert_eq!(*o.dark_cycle_members(&h), dark_cycle_members(&h));
    }

    #[test]
    fn oracle_distinguishes_clones() {
        let mut g = WaitForGraph::new();
        g.create_grey(n(0), n(1)).unwrap();
        let mut o = Oracle::new();
        assert!(o.dark_cycle_members(&g).is_empty());
        // A clone diverges; the oracle must not serve g's memo for it.
        let mut h = g.clone();
        h.create_grey(n(1), n(0)).unwrap();
        assert_eq!(o.dark_cycle_members(&h).len(), 2);
        assert!(o.dark_cycle_members(&g).is_empty());
    }

    #[test]
    fn oracle_sees_clear() {
        let mut g = WaitForGraph::new();
        let mut o = Oracle::new();
        g.create_grey(n(0), n(1)).unwrap();
        g.create_grey(n(1), n(0)).unwrap();
        assert!(o.is_on_dark_cycle(&g, n(0)));
        g.clear();
        assert!(o.dark_cycle_members(&g).is_empty());
        g.create_grey(n(1), n(2)).unwrap();
        g.create_grey(n(2), n(1)).unwrap();
        assert_eq!(
            *o.dark_cycle_members(&g),
            [n(1), n(2)].into_iter().collect()
        );
    }
}
