//! Property-based tests of the wait-for-graph substrate: the axioms are
//! closed under arbitrary operation sequences, the oracle agrees with
//! brute force, and journal replay is exact.

use proptest::prelude::*;
use simnet::sim::NodeId;
use simnet::time::SimTime;
use wfg::graph::{EdgeColour, WaitForGraph};
use wfg::journal::{GraphOp, Journal, ReplayCursor};
use wfg::oracle::{self, Oracle};

const V: usize = 6;

/// An arbitrary (not necessarily legal) graph operation on `V` vertices.
fn op_strategy() -> impl Strategy<Value = GraphOp> {
    (0u8..4, 0usize..V, 0usize..V).prop_map(|(k, a, b)| {
        let (a, b) = (NodeId(a), NodeId(b));
        match k {
            0 => GraphOp::CreateGrey(a, b),
            1 => GraphOp::Blacken(a, b),
            2 => GraphOp::Whiten(a, b),
            _ => GraphOp::DeleteWhite(a, b),
        }
    })
}

/// One step of the memoized-oracle churn: an arbitrary axiom move,
/// `remove_edge`, `release` or `clear` on the graph under test, or a seek
/// of a checkpointed cursor to the given tick. The graph has four
/// vertices, few enough that the one shape where a whiten changes an
/// answer (a vertex whose last escape whitens next to an OR knot) turns up.
#[derive(Debug, Clone, Copy)]
enum Churn {
    Op(GraphOp),
    Remove(NodeId, NodeId),
    Release(NodeId),
    Clear,
    Seek(u64),
}

fn churn_strategy() -> impl Strategy<Value = Churn> {
    (0u8..16, 0usize..4, 0usize..4, 0u64..130).prop_map(|(k, a, b, t)| {
        let (a, b) = (NodeId(a), NodeId(b));
        match k {
            0..=4 => Churn::Op(GraphOp::CreateGrey(a, b)),
            5..=7 => Churn::Op(GraphOp::Blacken(a, b)),
            8 | 9 => Churn::Op(GraphOp::Whiten(a, b)),
            10 => Churn::Op(GraphOp::DeleteWhite(a, b)),
            11 => Churn::Remove(a, b),
            12 => Churn::Release(a),
            13 => Churn::Clear,
            _ => Churn::Seek(t),
        }
    })
}

/// Applies ops, keeping only the legal ones; returns the graph and the
/// accepted (legal) history.
fn apply_legal(ops: &[GraphOp]) -> (WaitForGraph, Vec<GraphOp>) {
    let mut g = WaitForGraph::new();
    let mut accepted = Vec::new();
    for &op in ops {
        if op.apply(&mut g).is_ok() {
            accepted.push(op);
        }
    }
    (g, accepted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any sequence of accepted operations leaves a consistent graph:
    /// reverse index matches forward index, and colour invariants hold.
    #[test]
    fn graph_stays_consistent(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let (g, _) = apply_legal(&ops);
        for v in 0..V {
            let v = NodeId(v);
            // in_edges and out_edges must mirror each other.
            for e in g.out_edges(v) {
                prop_assert_eq!(g.colour(e.from, e.to), Some(e.colour));
                prop_assert!(g.in_edges(e.to).any(|i| i.from == v && i.colour == e.colour));
            }
            for e in g.in_edges(v) {
                prop_assert!(g.out_edges(e.from).any(|o| o.to == v));
            }
        }
        prop_assert_eq!(g.edge_count(), g.edges().count());
    }

    /// A white edge's head never has outgoing edges *at whitening time*;
    /// since replays are sequential, whenever a white edge exists in a
    /// state reached purely by legal ops, G3 held when it was created.
    /// Here we check the stronger reachable-state invariant: no white
    /// edge's head holds a *black* incoming edge while being blocked.
    #[test]
    fn dark_cycles_never_contain_white_edges(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let (g, _) = apply_legal(&ops);
        let members = oracle::dark_cycle_members(&g);
        // Every member has at least one dark outgoing edge to another member.
        for &m in &members {
            prop_assert!(
                g.out_edges(m).any(|e| e.colour.is_dark() && members.contains(&e.to)),
                "cycle member {m} lacks a dark edge into the cycle set"
            );
        }
    }

    /// The SCC-based oracle agrees with brute-force path search.
    #[test]
    fn oracle_matches_bruteforce(ops in proptest::collection::vec(op_strategy(), 0..100)) {
        let (g, _) = apply_legal(&ops);
        for v in 0..V {
            let v = NodeId(v);
            prop_assert_eq!(
                oracle::is_on_dark_cycle(&g, v),
                oracle::is_on_dark_cycle_bruteforce(&g, v),
                "vertex {}", v
            );
        }
    }

    /// Dark-cycle members are permanently blocked, and permanent black
    /// edges point into the permanently blocked set.
    #[test]
    fn blocking_hierarchy(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let (g, _) = apply_legal(&ops);
        let cyc = oracle::dark_cycle_members(&g);
        let blocked = oracle::permanently_blocked(&g);
        prop_assert!(cyc.is_subset(&blocked));
        for (a, b) in oracle::permanent_black_edges(&g) {
            prop_assert!(blocked.contains(&b));
            prop_assert_eq!(g.colour(a, b), Some(EdgeColour::Black));
        }
    }

    /// Journalling the accepted ops and replaying them reproduces the
    /// final graph exactly, and any prefix replay succeeds.
    #[test]
    fn journal_replay_is_exact(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let (g, accepted) = apply_legal(&ops);
        let mut j = Journal::new();
        for (i, &op) in accepted.iter().enumerate() {
            j.record(SimTime::from_ticks(i as u64), op);
        }
        prop_assert_eq!(j.replay_until(SimTime::MAX).expect("legal history"), g);
        if !accepted.is_empty() {
            let half = accepted.len() / 2;
            let g_half = j.replay_until(SimTime::from_ticks(half as u64)).unwrap();
            prop_assert!(g_half.edge_count() <= accepted.len());
        }
    }

    /// `reachable` with an always-true filter is the plain reachability
    /// closure and contains the start vertex.
    #[test]
    fn reachability_basics(ops in proptest::collection::vec(op_strategy(), 0..100), start in 0usize..V) {
        let (g, _) = apply_legal(&ops);
        let r = oracle::reachable(&g, NodeId(start), |_| true);
        prop_assert!(r.contains(&NodeId(start)));
        // Closure: every out-neighbour of a member is a member.
        for &m in &r {
            for e in g.out_edges(m) {
                prop_assert!(r.contains(&e.to));
            }
        }
    }

    /// One memoizing `Oracle` agrees with the from-scratch functions and
    /// with brute force **after every step** of a random churn that changes
    /// the dark edge set every way a graph can: the axiom moves,
    /// `remove_edge`, `release` and `clear` on one graph, and seeks of a
    /// checkpointed cursor (a backward one restores a checkpoint in place)
    /// on another. Each step queries the graph it touched, so a repeat
    /// query is a memo hit, and a change the memo key misses serves a
    /// stale answer.
    #[test]
    fn memoized_oracle_matches_scratch_under_churn(
        churn in proptest::collection::vec(churn_strategy(), 0..120),
        history in proptest::collection::vec(op_strategy(), 0..120),
        spacing in 1usize..5,
    ) {
        let (_, accepted) = apply_legal(&history);
        let mut journal = Journal::new();
        for (i, &op) in accepted.iter().enumerate() {
            journal.record(SimTime::from_ticks(i as u64), op);
        }
        let mut cursor = ReplayCursor::with_spacing(spacing);
        let mut g = WaitForGraph::new();
        let mut memo = Oracle::new();
        for &step in &churn {
            let h = match step {
                Churn::Op(op) => {
                    let _ = op.apply(&mut g);
                    &g
                }
                Churn::Remove(a, b) => {
                    g.remove_edge(a, b);
                    &g
                }
                Churn::Release(a) => {
                    let _ = g.release(a);
                    &g
                }
                Churn::Clear => {
                    g.clear();
                    &g
                }
                Churn::Seek(t) => cursor
                    .seek(&journal, SimTime::from_ticks(t))
                    .expect("legal history"),
            };
            let scratch: std::collections::BTreeSet<NodeId> = oracle::dark_sccs(h)
                .into_iter()
                .filter(|c| c.len() >= 2)
                .flatten()
                .collect();
            prop_assert_eq!(memo.dark_cycle_members(h), &scratch, "after {:?}", step);
            for v in 0..V {
                let v = NodeId(v);
                prop_assert_eq!(
                    memo.is_on_dark_cycle(h, v),
                    oracle::is_on_dark_cycle_bruteforce(h, v),
                    "vertex {} after {:?}", v, step
                );
            }
            // The derived memoized queries agree with fresh answers too.
            let blocked = oracle::permanently_blocked(h);
            prop_assert_eq!(memo.permanently_blocked(h), &blocked, "after {:?}", step);
            prop_assert_eq!(memo.knots(h), &oracle::knots(h)[..], "after {:?}", step);
            let stuck = Oracle::new().or_deadlocked(h).clone();
            prop_assert_eq!(memo.or_deadlocked(h), &stuck, "after {:?}", step);
        }
    }

    /// A checkpointed cursor seeking to random times (forwards and
    /// backwards, with a deliberately tiny spacing so checkpoint restores
    /// actually trigger) always produces exactly the from-scratch
    /// `replay_until` graph.
    #[test]
    fn cursor_matches_replay_until(
        ops in proptest::collection::vec(op_strategy(), 0..120),
        queries in proptest::collection::vec(0u64..140, 1..24),
        spacing in 1usize..9,
    ) {
        let (_, accepted) = apply_legal(&ops);
        let mut j = Journal::new();
        for (i, &op) in accepted.iter().enumerate() {
            j.record(SimTime::from_ticks(i as u64), op);
        }
        let mut cursor = ReplayCursor::with_spacing(spacing);
        for &q in &queries {
            let at = SimTime::from_ticks(q);
            let scratch = j.replay_until(at).expect("legal history");
            let via_cursor = cursor.seek(&j, at).expect("legal history");
            prop_assert_eq!(via_cursor, &scratch, "divergence at t={}", q);
        }
    }
}
