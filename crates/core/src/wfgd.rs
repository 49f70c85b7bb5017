//! The WFGD computation (§5): propagating wait-for-graph information to
//! deadlocked vertices.
//!
//! After an initiator declares deadlock it knows only *that* it is on a
//! black cycle, not *which* edges form the deadlocked portion of the graph
//! — information needed to break the deadlock. The WFGD computation
//! disseminates it: messages are **sets of edges** on permanent black
//! paths, flowing backwards along black edges. Each vertex `v_j` maintains
//! `S_j`, the set of edges it knows to lie on permanent black paths leading
//! from `v_j`.
//!
//! * The initiator `v_i` sends `M = {(v_j, v_i)}` to every `v_j` with a
//!   black edge `(v_j, v_i)`.
//! * On receiving `M`, `v_j` sets `S_j := S_j ∪ M`, then for every black
//!   edge `(v_k, v_j)` sends `M' = {(v_k, v_j)} ∪ S_j` to `v_k` — unless it
//!   already sent that exact message to `v_k`.
//!
//! Because `S_j` grows monotonically within a finite edge set and a vertex
//! never repeats a message, the computation terminates; at the fixed point
//! `S_j` equals the oracle closure [`wfg::oracle::wfgd_ground_truth`].
//!
//! # Representation
//!
//! Nothing in the basic model dissolves a deadlock, so `S_j` only grows and
//! every message carries all of it: the cost of a message is the cost of
//! the set operations on it. An [`EdgeSet`] is an [`EdgeBitSet`]: a sorted
//! list of 64-bit blocks of a bitmap over the edge key `tail << 32 | head`,
//! so one block holds a tail's edges to 64 neighbouring heads. `S_j ∪ M`
//! is one merge of two block lists that ORs the shared blocks
//! ([`EdgeBitSet::union_with`], which writes nothing when `M ⊆ S_j` — the
//! common case once a knot has converged), and "already sent that exact
//! message to `v_k`" is decided from the **size** of the last message sent
//! to `v_k`, not a stored copy of it:
//!
//! * every message ever offered to `v_k` is `X ∪ {(v_k, v_j)}` with `X`
//!   drawn from the inclusion chain `∅ ⊆ S_j(t₁) ⊆ S_j(t₂) ⊆ …` (`∅` is the
//!   initiator step's `X`);
//! * for `X ⊆ X'` on that chain, `X ∪ {e} ⊆ X' ∪ {e}`, so the two messages
//!   are equal iff they have the same cardinality;
//! * the would-be cardinality is `|S_j| + [(v_k, v_j) ∉ S_j]` — `|S_j|`
//!   counted once per message, then one block search per predecessor —
//!   and the payload is copied, block by block, only for a message
//!   actually sent.
//!
//! [`WfgdState`] is a pure state machine — the transport is supplied by the
//! caller (in this workspace, [`crate::process::BasicProcess`]) — so the
//! §5 rules are testable in isolation.

use simnet::sim::NodeId;

use crate::vset::{EdgeBitSet, PackedVertex, VecMap};

/// A set of wait-for edges, the message payload of the WFGD computation.
pub type EdgeSet = EdgeBitSet<NodeId>;

/// A basic-model edge packs into a `u64`, its tail in the high half.
impl PackedVertex for NodeId {
    type Key = u64;

    #[inline]
    fn pack_edge(tail: NodeId, head: NodeId) -> u64 {
        let half = |v: NodeId| match u32::try_from(v.0) {
            Ok(half) => u64::from(half),
            Err(_) => panic!("{v} does not fit a 32-bit half of an edge key"),
        };
        half(tail) << 32 | half(head)
    }

    #[inline]
    fn unpack_edge(key: u64) -> (NodeId, NodeId) {
        (NodeId((key >> 32) as usize), NodeId(key as u32 as usize))
    }
}

/// Per-vertex state of the WFGD computation.
///
/// # Examples
///
/// ```
/// use cmh_core::wfgd::WfgdState;
/// use simnet::sim::NodeId;
///
/// // The initiator (p0) starts the propagation towards its black
/// // predecessor p2; p2 folds the message in and passes it on to p1.
/// let mut initiator = WfgdState::new();
/// let msgs = initiator.start(NodeId(0), [NodeId(2)]);
/// assert_eq!(msgs.len(), 1);
///
/// let mut p2 = WfgdState::new();
/// let onward = p2.receive(NodeId(2), &msgs[0].1, [NodeId(1)]);
/// assert_eq!(onward[0].0, NodeId(1));
/// assert!(p2.known_edges().contains(&(NodeId(2), NodeId(0))));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WfgdState {
    s: EdgeSet,
    /// Cardinality of the last message sent to each predecessor (see the
    /// module docs for why the size identifies the message).
    last_sent: VecMap<NodeId, usize>,
}

impl WfgdState {
    /// Creates the initial state (`S_j = ∅`). Allocates nothing.
    pub fn new() -> Self {
        WfgdState::default()
    }

    /// The current `S_j`: every edge this vertex knows to be on a permanent
    /// black path leading from it.
    pub fn known_edges(&self) -> &EdgeSet {
        &self.s
    }

    /// Initiator step: called by `me` right after declaring deadlock.
    ///
    /// `black_predecessors` are the tails of this vertex's incoming black
    /// edges. Returns the `(recipient, message)` pairs to transmit.
    pub fn start(
        &mut self,
        me: NodeId,
        black_predecessors: impl IntoIterator<Item = NodeId>,
    ) -> Vec<(NodeId, EdgeSet)> {
        let mut out = Vec::new();
        for vj in black_predecessors {
            // The offer is `∅ ∪ {(v_j, v_i)}`: cardinality 1.
            if self.last_sent.insert(vj, 1) != Some(1) {
                out.push((vj, [(vj, me)].into_iter().collect()));
            }
        }
        out
    }

    /// Receiver step: called when `me` receives WFGD message `msg`.
    ///
    /// Folds `msg` into `S_j` and returns the follow-on messages for this
    /// vertex's current black predecessors (duplicates suppressed).
    pub fn receive(
        &mut self,
        me: NodeId,
        msg: &EdgeSet,
        black_predecessors: impl IntoIterator<Item = NodeId>,
    ) -> Vec<(NodeId, EdgeSet)> {
        self.s.union_with(msg);
        let len = self.s.len();
        let mut out = Vec::new();
        for vk in black_predecessors {
            let edge = (vk, me);
            let size = len + usize::from(!self.s.contains(&edge));
            if self.last_sent.insert(vk, size) != Some(size) {
                out.push((vk, self.s.with(edge)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use simnet::rng::DetRng;

    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId(i)
    }
    fn es(edges: &[(usize, usize)]) -> EdgeSet {
        edges.iter().map(|&(a, b)| (n(a), n(b))).collect()
    }

    /// The §5 rule as written: `S_j` and every last-sent message kept as
    /// whole `BTreeSet`s, duplicates suppressed by full-set comparison.
    /// Reference for [`size_dedup_matches_the_literal_rule`].
    #[derive(Default)]
    struct LiteralRule {
        s: BTreeSet<(NodeId, NodeId)>,
        last_sent: BTreeMap<NodeId, BTreeSet<(NodeId, NodeId)>>,
    }

    impl LiteralRule {
        fn offer(
            &mut self,
            to: NodeId,
            m: BTreeSet<(NodeId, NodeId)>,
            out: &mut Vec<(NodeId, BTreeSet<(NodeId, NodeId)>)>,
        ) {
            if self.last_sent.get(&to) != Some(&m) {
                self.last_sent.insert(to, m.clone());
                out.push((to, m));
            }
        }

        fn start(
            &mut self,
            me: NodeId,
            preds: &[NodeId],
        ) -> Vec<(NodeId, BTreeSet<(NodeId, NodeId)>)> {
            let mut out = Vec::new();
            for &vj in preds {
                self.offer(vj, BTreeSet::from([(vj, me)]), &mut out);
            }
            out
        }

        fn receive(
            &mut self,
            me: NodeId,
            msg: &EdgeSet,
            preds: &[NodeId],
        ) -> Vec<(NodeId, BTreeSet<(NodeId, NodeId)>)> {
            self.s.extend(msg.iter());
            let mut out = Vec::new();
            for &vk in preds {
                let mut m = self.s.clone();
                m.insert((vk, me));
                self.offer(vk, m, &mut out);
            }
            out
        }
    }

    #[test]
    fn size_dedup_matches_the_literal_rule() {
        const NODES: u64 = 12;
        let me = n(3);
        let mut rng = DetRng::seed_from_u64(0x5eed_0f5e);
        let mut sent = 0usize;
        let mut suppressed = 0usize;
        for round in 0..60 {
            let mut st = WfgdState::new();
            let mut model = LiteralRule::default();
            for step in 0..80 {
                // A fresh random predecessor set each step, so a
                // predecessor leaves and comes back with S_j grown (or
                // not) in between.
                let mask = rng.next_below(1 << NODES);
                let preds: Vec<NodeId> = (0..NODES as usize)
                    .filter(|&i| n(i) != me && mask >> i & 1 == 1)
                    .map(n)
                    .collect();
                let (got, want) = if rng.next_below(8) == 0 {
                    // A (re-)declaration after receives: the one step
                    // whose offer is smaller than the one before it.
                    (st.start(me, preds.iter().copied()), model.start(me, &preds))
                } else {
                    let msg: EdgeSet = if rng.next_below(3) == 0 {
                        // Teaches nothing: a subset of S_j.
                        let keep = rng.next_below(4);
                        st.known_edges()
                            .iter()
                            .filter(|_| rng.next_below(4) >= keep)
                            .collect()
                    } else {
                        (0..rng.next_below(5))
                            .map(|_| {
                                let a = rng.next_below(NODES) as usize;
                                let b = rng.next_below(NODES - 1) as usize;
                                (n(a), n(if b >= a { b + 1 } else { b }))
                            })
                            .collect()
                    };
                    (
                        st.receive(me, &msg, preds.iter().copied()),
                        model.receive(me, &msg, &preds),
                    )
                };
                let at = format!("round {round} step {step}");
                assert_eq!(got.len(), want.len(), "{at}: message count");
                for ((to, m), (want_to, want_m)) in got.iter().zip(&want) {
                    assert_eq!(to, want_to, "{at}: recipient");
                    assert_eq!(m, want_m, "{at}: message to {to}");
                }
                assert_eq!(st.known_edges(), &model.s, "{at}: S_j");
                sent += got.len();
                suppressed += preds.len() - got.len();
            }
        }
        // The walk must exercise both outcomes of the dedup test.
        assert!(sent > 1_000 && suppressed > 1_000, "{sent}/{suppressed}");
    }

    #[test]
    fn initiator_sends_single_edge_sets() {
        let mut st = WfgdState::new();
        let out = st.start(n(0), [n(2), n(4)]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], (n(2), es(&[(2, 0)])));
        assert_eq!(out[1], (n(4), es(&[(4, 0)])));
        // S_i itself stays empty until messages come back.
        assert!(st.known_edges().is_empty());
    }

    #[test]
    fn receiver_accumulates_and_forwards() {
        let mut st = WfgdState::new();
        // v2 receives {(2,0)} from the initiator; its black predecessor is v1.
        let out = st.receive(n(2), &es(&[(2, 0)]), [n(1)]);
        assert_eq!(out, vec![(n(1), es(&[(1, 2), (2, 0)]))]);
        assert_eq!(*st.known_edges(), es(&[(2, 0)]));
    }

    #[test]
    fn duplicate_messages_suppressed() {
        let mut st = WfgdState::new();
        let first = st.receive(n(2), &es(&[(2, 0)]), [n(1)]);
        assert_eq!(first.len(), 1);
        // Same message again: S unchanged, so nothing new to send.
        let second = st.receive(n(2), &es(&[(2, 0)]), [n(1)]);
        assert!(second.is_empty());
        // A strictly larger S triggers a fresh send.
        let third = st.receive(n(2), &es(&[(0, 1)]), [n(1)]);
        assert_eq!(third, vec![(n(1), es(&[(0, 1), (1, 2), (2, 0)]))]);
    }

    #[test]
    fn full_cycle_converges_to_ground_truth() {
        // Simulated delivery over the black cycle 0 -> 1 -> 2 -> 0:
        // black predecessors: pred(0)={2}, pred(1)={0}, pred(2)={1}.
        let mut st = [WfgdState::new(), WfgdState::new(), WfgdState::new()];
        let pred = |v: usize| -> Vec<NodeId> { vec![n((v + 2) % 3)] };
        let mut inbox: Vec<(usize, EdgeSet)> = st[0]
            .start(n(0), pred(0))
            .into_iter()
            .map(|(to, m)| (to.0, m))
            .collect();
        let mut steps = 0;
        while let Some((to, m)) = inbox.pop() {
            steps += 1;
            assert!(steps < 100, "WFGD failed to terminate");
            let out = st[to].receive(n(to), &m, pred(to));
            inbox.extend(out.into_iter().map(|(t, mm)| (t.0, mm)));
        }
        let all = es(&[(0, 1), (1, 2), (2, 0)]);
        for (v, s) in st.iter().enumerate() {
            assert_eq!(*s.known_edges(), all, "S_{v} incomplete");
        }
    }

    #[test]
    fn node_edges_pack_in_tuple_order() {
        let ids = [0, 1, 63, 64, 65_536, u32::MAX as usize].map(n);
        for a in ids {
            for b in ids {
                let key = NodeId::pack_edge(a, b);
                assert_eq!(NodeId::unpack_edge(key), (a, b));
                for c in ids {
                    for d in ids {
                        let other = NodeId::pack_edge(c, d);
                        assert_eq!(key.cmp(&other), (a, b).cmp(&(c, d)));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn a_node_id_past_32_bits_panics_instead_of_aliasing() {
        // Truncated, its edge would be (p0, p0).
        EdgeSet::new().insert((n(1 << 32), n(0)));
    }

    #[test]
    fn initiator_does_not_resend_identical_start() {
        let mut st = WfgdState::new();
        assert_eq!(st.start(n(0), [n(1)]).len(), 1);
        assert!(st.start(n(0), [n(1)]).is_empty());
    }
}
