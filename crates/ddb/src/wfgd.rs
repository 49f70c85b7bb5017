//! The §5 WFGD computation applied to the DDB model: after a controller
//! declares a process deadlocked, the **deadlocked portion** of the
//! agent-level wait-for graph is propagated backwards so every involved
//! controller learns which agent edges form it — "determining the edges
//! and vertices in the deadlocked portion of the graph is useful in
//! breaking deadlocks" (§5.1). The paper spells the computation out for
//! the basic model and notes that the basic-model machinery carries over;
//! this module is that carry-over:
//!
//! * vertices are **agents** `(T, S)`; edges are the intra-controller
//!   edges (derived from lock tables) and the inter-controller edges
//!   (remote agents queued in them);
//! * messages are **sets of agent edges** flowing backwards: within a
//!   controller the propagation is a local fixpoint over intra edges;
//!   across controllers one [`crate::msg::DdbMsg`] message per hop carries
//!   the set backwards along an inter edge (from the remote site to the
//!   transaction's home);
//! * each controller keeps, per local process, the set `S_(T,S)` of agent
//!   edges known to lie on permanent black paths leading from that
//!   process, and never resends an unchanged set (the §5 termination
//!   argument).
//!
//! [`DdbWfgdState`] is a pure state machine: the controller lends it the
//! current local topology (its lock table and its remote agents' homes)
//! and transports the messages it emits.
//!
//! The sets are the basic model's ([`cmh_core::wfgd`]): an [`EdgeBitSet`]
//! of agents, a sorted list of 64-bit blocks of a bitmap over the
//! two-word edge key `(txn << 32 | site, txn' << 32 | site')`, one
//! [`EdgeBitSet::union_with`] per intra edge walked, and duplicates
//! suppressed by the **size** of the last payload sent along each inter
//! edge (`S` only ever grows, so equal size means equal set; the
//! argument is in the module doc of `cmh_core::wfgd`).
//! A block holds the edges from one agent to one transaction's agents at
//! 64 neighbouring sites, so here a block is mostly one or two edges: the
//! gain over a list of edges is integer compares, not 64 edges a word.

use std::collections::BTreeMap;

use cmh_core::vset::EdgeBitSet;

use crate::ids::{AgentId, SiteId, TransactionId};
use crate::lock::LockTable;

/// A set of agent-level wait-for edges (the WFGD message payload).
pub type AgentEdgeSet = EdgeBitSet<AgentId>;

/// An outbound inter-controller WFGD message: deliver `edges` to
/// transaction `txn`'s process at controller `dest`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WfgdSend {
    /// Destination controller (the transaction's home site).
    pub dest: SiteId,
    /// The transaction whose process at `dest` the message informs.
    pub txn: TransactionId,
    /// Edges on permanent black paths leading from that process.
    pub edges: AgentEdgeSet,
}

/// The local topology a propagation step walks, borrowed from the
/// controller for the duration of one call — nothing is copied out of it.
#[derive(Debug, Clone, Copy)]
pub struct LocalTopology<'a> {
    /// Source of the intra-controller edges: the waiters behind a process
    /// are looked up per worklist pop
    /// ([`LockTable::waiters_blocked_by`]).
    pub locks: &'a LockTable,
    /// The home site of each remote agent. A transaction queued in
    /// `locks` with an entry here is the head of an incoming black
    /// inter-controller edge `(T, home) → (T, S_me)`; an entry of a
    /// transaction queued nowhere here is no edge.
    pub homes: &'a BTreeMap<TransactionId, SiteId>,
}

/// Per-controller WFGD state: `S` sets for local processes plus the
/// per-destination dedup of §5 ("a vertex never sends the same message
/// twice to another vertex").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DdbWfgdState {
    /// `S_(T, S_me)` per local transaction.
    s: BTreeMap<TransactionId, AgentEdgeSet>,
    /// Cardinality of the last set sent backwards along each incoming
    /// inter edge (see the module docs for why the size identifies it).
    last_sent: BTreeMap<(TransactionId, SiteId), usize>,
}

impl DdbWfgdState {
    /// Fresh state (all `S` sets empty).
    pub fn new() -> Self {
        DdbWfgdState::default()
    }

    /// The known deadlocked-portion edges leading from local process
    /// `(txn, S_me)`.
    pub fn known_edges(&self, txn: TransactionId) -> AgentEdgeSet {
        self.s.get(&txn).cloned().unwrap_or_default()
    }

    /// All local processes with non-empty `S` sets.
    pub fn informed_transactions(&self) -> Vec<TransactionId> {
        self.s
            .iter()
            .filter(|(_, set)| !set.is_empty())
            .map(|(&t, _)| t)
            .collect()
    }

    /// Receiver step: the controller at `me` received `edges` for its
    /// local process `(txn, me)` (from the remote site the process was
    /// waiting on). Folds the set in and returns follow-on messages; a
    /// message that teaches nothing (`edges ⊆ S`) allocates nothing.
    pub fn receive(
        &mut self,
        me: SiteId,
        txn: TransactionId,
        edges: &AgentEdgeSet,
        topo: LocalTopology<'_>,
    ) -> Vec<WfgdSend> {
        if !self.s.entry(txn).or_default().union_with(edges) {
            return Vec::new();
        }
        self.start(me, txn, topo)
    }

    /// Initiator step: called by the controller at `me` right after
    /// declaring local process `(origin, me)` deadlocked — and the second
    /// half of every receiver step that learnt something. Propagates
    /// backwards from `origin` to a local fixpoint over intra edges (§5:
    /// the initiator sends `{(v_j, v_i)}` along each incoming black edge;
    /// locally that seeds the waiters' `S` sets) and returns one message
    /// for every incoming black inter edge whose payload changed.
    pub fn start(
        &mut self,
        me: SiteId,
        origin: TransactionId,
        topo: LocalTopology<'_>,
    ) -> Vec<WfgdSend> {
        // Local fixpoint: for each intra edge (Q → P), S_Q ⊇ {(Q,P)} ∪ S_P.
        // A process whose S grows (again, via another path: diamonds) while
        // it is not on the worklist goes back on it.
        let mut dirty: Vec<TransactionId> = vec![origin];
        while let Some(p) = dirty.pop() {
            // Lift S_P out for the walk: Q ≠ P on every intra edge.
            let s_p = self.s.remove(&p);
            for q in topo.locks.waiters_blocked_by(p) {
                let set = self.s.entry(q).or_default();
                let mut grew = set.insert((AgentId::new(q, me), AgentId::new(p, me)));
                if let Some(s_p) = &s_p {
                    grew |= set.union_with(s_p);
                }
                if grew && !dirty.contains(&q) {
                    dirty.push(q);
                }
            }
            if let Some(s_p) = s_p {
                self.s.insert(p, s_p);
            }
        }
        // Emit backwards along incoming inter edges for every local
        // process whose message content is new — but only for processes
        // actually in the backward closure: the origin itself (its home
        // waits on a declared/informed process even when its own `S` is
        // still empty) or a process whose `S` set is non-empty. Emitting
        // for every queued remote agent would "inform" homes of
        // transactions that merely pass through this site and are not
        // behind the deadlock at all.
        let mut out = Vec::new();
        for t in topo.locks.waiting_transactions() {
            let Some(&home) = topo.homes.get(&t) else {
                continue; // a home agent: no incoming inter edge
            };
            let s_t = self.s.get(&t).filter(|s| !s.is_empty());
            if s_t.is_none() && t != origin {
                continue;
            }
            // The inter edge itself: (T, home) → (T, me).
            let edge = (AgentId::new(t, home), AgentId::new(t, me));
            let size = s_t.map_or(1, |s| s.len() + usize::from(!s.contains(&edge)));
            if self.last_sent.insert((t, home), size) != Some(size) {
                let edges = s_t.map_or_else(|| [edge].into_iter().collect(), |s| s.with(edge));
                out.push(WfgdSend {
                    dest: home,
                    txn: t,
                    edges,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use simnet::rng::DetRng;

    use super::*;
    use crate::ids::ResourceId;
    use crate::lock::LockMode::Exclusive as X;

    fn t(i: u32) -> TransactionId {
        TransactionId(i)
    }
    fn s(i: usize) -> SiteId {
        SiteId(i)
    }
    fn a(txn: u32, site: usize) -> AgentId {
        AgentId::new(t(txn), s(site))
    }

    /// A lock table whose wait edges are exactly `intra` (`(waiter,
    /// blocker)` pairs): one resource per edge, held by the blocker.
    fn table(intra: &[(u32, u32)]) -> LockTable {
        let mut lt = LockTable::new();
        for (i, &(q, p)) in intra.iter().enumerate() {
            lt.request(t(p), ResourceId(i as u64), X);
            lt.request(t(q), ResourceId(i as u64), X);
        }
        lt
    }

    /// Holds every resource a remote request queues for, and waits for
    /// nothing: no `S` set crosses an edge into it.
    const HOLDER: u32 = 99;

    /// Owns what a [`LocalTopology`] borrows.
    struct Topo(LockTable, BTreeMap<TransactionId, SiteId>);

    impl Topo {
        /// The intra edges of [`table`], plus one remote request of each
        /// `(txn, home site)` pair.
        fn new(intra: &[(u32, u32)], incoming: &[(u32, usize)]) -> Self {
            let mut topo = Topo(table(intra), BTreeMap::new());
            for &(txn, home) in incoming {
                topo.queue_remote(txn, 0, home);
            }
            topo
        }
        /// Queues remote request `r` of `txn`, homed at `home`, behind
        /// [`HOLDER`].
        fn queue_remote(&mut self, txn: u32, r: u64, home: usize) {
            let resource = ResourceId(1_000 + 4 * u64::from(txn) + r);
            self.0.request(t(HOLDER), resource, X);
            self.0.request(t(txn), resource, X);
            self.1.insert(t(txn), s(home));
        }
        fn view(&self) -> LocalTopology<'_> {
            LocalTopology {
                locks: &self.0,
                homes: &self.1,
            }
        }
    }

    /// The implementation this module had before it moved to sorted
    /// vectors, kept verbatim: `BTreeSet` edge sets, an eagerly built
    /// intra-edge snapshot scanned once per worklist pop, cloned `S_P`,
    /// whole last-sent payloads compared for dedup. Reference for
    /// [`matches_the_literal_rule`].
    #[derive(Default)]
    struct LiteralDdbRule {
        s: BTreeMap<TransactionId, BTreeSet<(AgentId, AgentId)>>,
        last_sent: BTreeMap<(TransactionId, SiteId), BTreeSet<(AgentId, AgentId)>>,
        /// Payloads offered to the dedup test so far.
        offers: usize,
    }

    type LiteralSend = (SiteId, TransactionId, BTreeSet<(AgentId, AgentId)>);

    impl LiteralDdbRule {
        fn receive(
            &mut self,
            me: SiteId,
            txn: TransactionId,
            edges: &AgentEdgeSet,
            topo: LocalTopology<'_>,
        ) -> Vec<LiteralSend> {
            let set = self.s.entry(txn).or_default();
            let before = set.len();
            set.extend(edges.iter());
            if set.len() == before {
                return Vec::new();
            }
            self.start(me, txn, topo)
        }

        fn start(
            &mut self,
            me: SiteId,
            origin: TransactionId,
            topo: LocalTopology<'_>,
        ) -> Vec<LiteralSend> {
            let intra = topo.locks.wait_edges();
            let incoming_inter: BTreeMap<TransactionId, SiteId> = topo
                .locks
                .waiting_transactions()
                .filter_map(|t| Some((t, *topo.homes.get(&t)?)))
                .collect();
            let mut dirty: Vec<TransactionId> = vec![origin];
            let mut touched: BTreeSet<TransactionId> = [origin].into_iter().collect();
            while let Some(p) = dirty.pop() {
                let s_p = self.s.get(&p).cloned().unwrap_or_default();
                for &(q, blocker) in &intra {
                    if blocker != p {
                        continue;
                    }
                    let set = self.s.entry(q).or_default();
                    let before = set.len();
                    set.insert((AgentId::new(q, me), AgentId::new(p, me)));
                    set.extend(s_p.iter().copied());
                    if set.len() > before && touched.insert(q) {
                        dirty.push(q);
                    }
                }
                touched.remove(&p);
            }
            let mut out = Vec::new();
            for (&t, &home) in &incoming_inter {
                let informed = t == origin || self.s.get(&t).is_some_and(|s| !s.is_empty());
                if !informed {
                    continue;
                }
                self.offers += 1;
                let mut payload = self.s.get(&t).cloned().unwrap_or_default();
                payload.insert((AgentId::new(t, home), AgentId::new(t, me)));
                let key = (t, home);
                if self.last_sent.get(&key) != Some(&payload) {
                    self.last_sent.insert(key, payload.clone());
                    out.push((home, t, payload));
                }
            }
            out
        }
    }

    #[test]
    fn matches_the_literal_rule() {
        const TXNS: u32 = 8;
        const SITES: usize = 4;
        let me = s(0);
        let home = |txn: u32| 1 + txn as usize % (SITES - 1);
        let mut rng = DetRng::seed_from_u64(0x5eed_0ddb);
        let (mut steps, mut sent, mut no_news) = (0usize, 0usize, 0usize);
        let (mut offers, mut diamonds, mut local_cycles) = (0usize, 0usize, 0usize);
        for round in 0..50 {
            let mut st = DdbWfgdState::new();
            let mut model = LiteralDdbRule::default();
            for step in 0..120 {
                // A fresh random topology each step: waiters leave and come
                // back, inter edges appear and vanish, with the S sets grown
                // (or not) in between.
                let mut intra = Vec::new();
                for q in 0..TXNS {
                    for p in (0..TXNS).filter(|&p| p != q) {
                        if rng.next_below(8) == 0 {
                            intra.push((q, p));
                        }
                    }
                }
                let mut topo = Topo::new(&intra, &[]);
                for txn in 0..TXNS {
                    // None, one or two un-granted requests of one origin.
                    for r in 0..rng.next_below(4).saturating_sub(1) {
                        topo.queue_remote(txn, r, home(txn));
                    }
                }
                let blocks = |q, p| intra.contains(&(q, p));
                diamonds += usize::from((0..TXNS).any(|q| {
                    (0..TXNS)
                        .any(|o| (0..TXNS).filter(|&p| blocks(q, p) && blocks(p, o)).count() > 1)
                }));
                local_cycles += usize::from((0..TXNS).any(|q| topo.0.on_local_cycle(t(q))));

                let txn = t(rng.next_below(u64::from(TXNS)) as u32);
                let (got, want) = if rng.next_below(6) == 0 {
                    // A (re-)declaration, possibly after receives.
                    (
                        st.start(me, txn, topo.view()),
                        model.start(me, txn, topo.view()),
                    )
                } else {
                    let msg: AgentEdgeSet = if rng.next_below(3) == 0 {
                        // Teaches nothing: a subset of S.
                        no_news += 1;
                        let known = st.known_edges(txn);
                        known.iter().filter(|_| rng.next_below(2) == 0).collect()
                    } else {
                        (0..rng.next_below(5))
                            .map(|_| {
                                let mut agent = || {
                                    a(
                                        rng.next_below(u64::from(TXNS)) as u32,
                                        rng.next_below(SITES as u64) as usize,
                                    )
                                };
                                (agent(), agent())
                            })
                            .collect()
                    };
                    (
                        st.receive(me, txn, &msg, topo.view()),
                        model.receive(me, txn, &msg, topo.view()),
                    )
                };
                let at = format!("round {round} step {step}");
                assert_eq!(got.len(), want.len(), "{at}: message count");
                for (m, (dest, txn, edges)) in got.iter().zip(&want) {
                    assert_eq!((m.dest, m.txn), (*dest, *txn), "{at}: recipient");
                    assert_eq!(&m.edges, edges, "{at}: payload for {txn}");
                }
                for q in 0..TXNS {
                    let want = model.s.get(&t(q)).cloned().unwrap_or_default();
                    assert_eq!(st.known_edges(t(q)), want, "{at}: S of T{q}");
                }
                steps += 1;
                sent += got.len();
            }
            offers += model.offers;
        }
        // The walk must exercise what it claims to.
        let suppressed = offers - sent;
        assert!(steps >= 5_000 && no_news > 500, "{steps}/{no_news}");
        assert!(sent > 1_000 && suppressed > 1_000, "{sent}/{suppressed}");
        assert!(
            diamonds > 100 && local_cycles > 100,
            "{diamonds}/{local_cycles}"
        );
    }

    #[test]
    fn start_seeds_local_waiters_and_emits_inter_messages() {
        // At S0: T2 waits for T1 (intra); T1 has an incoming inter edge
        // from its home S1. Declare subject T1.
        let topo = Topo::new(&[(2, 1)], &[(1, 1)]);
        let mut st = DdbWfgdState::new();
        let out = st.start(s(0), t(1), topo.view());
        // T2 learned the intra edge behind the subject.
        assert!(st.known_edges(t(2)).contains(&(a(2, 0), a(1, 0))));
        // One message flows back to T1's home.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dest, s(1));
        assert_eq!(out[0].txn, t(1));
        assert!(out[0].edges.contains(&(a(1, 1), a(1, 0))));
    }

    #[test]
    fn receive_merges_and_propagates_through_local_chain() {
        // At S1 (home of T1): T3 waits for T1 locally; T1's process here
        // receives the deadlocked set from S0.
        let topo = Topo::new(&[(3, 1)], &[]);
        let incoming: AgentEdgeSet = [(a(1, 1), a(1, 0)), (a(2, 0), a(1, 0))]
            .into_iter()
            .collect();
        let mut st = DdbWfgdState::new();
        let out = st.receive(s(1), t(1), &incoming, topo.view());
        assert!(
            out.is_empty(),
            "no incoming inter edges at the home side here"
        );
        // T1's own S has the received edges; T3 has them plus its own edge.
        assert_eq!(st.known_edges(t(1)), incoming);
        let s3 = st.known_edges(t(3));
        assert!(s3.contains(&(a(3, 1), a(1, 1))));
        assert!(incoming.iter().all(|e| s3.contains(&e)));
    }

    #[test]
    fn duplicate_receive_emits_nothing() {
        let topo = Topo::new(&[], &[(1, 1)]);
        let payload: AgentEdgeSet = [(a(1, 1), a(1, 0))].into_iter().collect();
        let mut st = DdbWfgdState::new();
        let first = st.receive(s(0), t(1), &payload, topo.view());
        assert_eq!(first.len(), 1);
        let second = st.receive(s(0), t(1), &payload, topo.view());
        assert!(second.is_empty(), "unchanged S must not resend");
    }

    #[test]
    fn two_controller_ring_converges_to_full_cycle() {
        // The canonical cross-site deadlock:
        //   (T1,S0) -> (T1,S1) -> (T2,S1) -> (T2,S0) -> (T1,S0)
        // S0: T2's remote agent waits for T1 (intra (T2->T1)); incoming
        //     inter edge for T2 from its home S1.
        // S1: T1's remote agent waits for T2 (intra (T1->T2)); incoming
        //     inter edge for T1 from its home S0.
        let topo0 = Topo::new(&[(2, 1)], &[(2, 1)]);
        let topo1 = Topo::new(&[(1, 2)], &[(1, 0)]);
        let mut st0 = DdbWfgdState::new();
        let mut st1 = DdbWfgdState::new();
        // S0 declares its subject T1 (the process with... here T1 is the
        // local blocker; take T1 as declared subject at S0).
        let mut inbox: Vec<WfgdSend> = st0.start(s(0), t(1), topo0.view());
        let mut steps = 0;
        while let Some(m) = inbox.pop() {
            steps += 1;
            assert!(steps < 100, "WFGD-DDB failed to terminate");
            let out = match m.dest {
                SiteId(0) => st0.receive(s(0), m.txn, &m.edges, topo0.view()),
                SiteId(1) => st1.receive(s(1), m.txn, &m.edges, topo1.view()),
                _ => unreachable!(),
            };
            inbox.extend(out);
        }
        let full: AgentEdgeSet = [
            (a(1, 0), a(1, 1)),
            (a(1, 1), a(2, 1)),
            (a(2, 1), a(2, 0)),
            (a(2, 0), a(1, 0)),
        ]
        .into_iter()
        .collect();
        // Every informed process knows the whole cycle.
        for (st, site, txns) in [(&st0, 0usize, [1u32, 2]), (&st1, 1, [1, 2])] {
            for txn in txns {
                assert_eq!(
                    st.known_edges(t(txn)),
                    full,
                    "S_(T{txn},S{site}) incomplete"
                );
            }
        }
    }

    #[test]
    fn uninvolved_pending_requests_are_not_informed() {
        // At S0: subject T1 has a waiter T2, and an *unrelated* T9 merely
        // has a pending remote request here (incoming inter edge from its
        // home S2). T9 is not behind the deadlock — its home must not
        // receive a phantom "deadlocked portion" message.
        let topo = Topo::new(&[(2, 1)], &[(1, 1), (9, 2)]);
        let mut st = DdbWfgdState::new();
        let out = st.start(s(0), t(1), topo.view());
        assert_eq!(out.len(), 1, "only the subject's home is informed");
        assert_eq!(out[0].txn, t(1));
        assert_eq!(out[0].dest, s(1));
    }

    #[test]
    fn informed_transactions_lists_nonempty_sets() {
        let topo = Topo::new(&[(5, 4)], &[]);
        let mut st = DdbWfgdState::new();
        st.start(s(0), t(4), topo.view());
        assert_eq!(st.informed_transactions(), vec![t(5)]);
    }
}
