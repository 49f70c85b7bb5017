//! At-rest cluster snapshots and the post-mortem verdict.
//!
//! The networked service (`cmh-service`) cannot use the stepping
//! harness's instant-by-instant validation — sites run on wall clocks
//! behind real sockets, so there is no global instant to check. What it
//! *can* do is drain load, let the detector quiesce, capture every
//! surviving controller's state, and judge the union **at rest**: with no
//! messages in flight, the reconstructed agent-level wait-for graph of
//! §6.4 is exact, so the simulator's checkers apply unchanged:
//!
//! * every dark cycle must contain a declared member (completeness /
//!   "missed" check, [`oracle::undeclared_cycles`]);
//! * every declared transaction must either sit on a dark cycle or be
//!   explainable as a stale echo — a victim that was genuinely
//!   deadlocked but whose cycle has since dissolved through abort,
//!   commit, or a controller crash (soundness / "phantom" check);
//! * every non-terminal transaction is classed exactly as
//!   [`crate::net::DdbNet::liveness_report`] classes it
//!   (`txn_liveness`, with zero messages in flight and every site not
//!   captured taken as crashed): a transaction queued behind a deadlock
//!   waits, one inside a work step moves.
//!
//! The same crash-consistency caveat as [`crate::net::DdbNet`]'s
//! `verify_*` family applies: stale echoes are *counted and reported*,
//! never silently excused into the violation totals.

use std::collections::{BTreeMap, BTreeSet};

use wfg::oracle::Liveness;
use wfg::{oracle, WaitForGraph};

use simnet::sim::NodeId;

use crate::controller::{Controller, ScriptSnapshot, Waiting};
use crate::ids::{AgentId, SiteId, TransactionId};
use crate::probe::DdbDeadlock;
use crate::txn::TxnStatus;

/// Everything verification needs from one controller, captured at rest.
#[derive(Debug, Clone)]
pub struct SiteSnapshot {
    /// The captured site.
    pub site: SiteId,
    /// The §6.4 agent edges this controller's state implies: intra, inter
    /// (its home agents' remote waits) and holder back-edges into them.
    pub agent_edges: Vec<(AgentId, AgentId)>,
    /// Every deadlock this controller ever declared.
    pub declarations: Vec<DdbDeadlock>,
    /// Execution state of every home script.
    pub scripts: Vec<ScriptSnapshot>,
}

impl SiteSnapshot {
    /// Captures a controller's verification-relevant state.
    pub fn capture(c: &Controller) -> SiteSnapshot {
        let mut edges = Vec::new();
        agent_edges(c, &mut edges);
        SiteSnapshot {
            site: c.site(),
            agent_edges: edges,
            declarations: c.declarations().to_vec(),
            scripts: c.script_snapshots(),
        }
    }
}

/// A set of site snapshots captured after drain, plus the verdict logic.
#[derive(Debug, Clone, Default)]
pub struct ClusterSnapshot {
    /// One snapshot per surviving site.
    pub sites: Vec<SiteSnapshot>,
}

/// Outcome of [`ClusterSnapshot::verify_at_rest`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RestVerdict {
    /// Transactions sitting on a dark cycle at capture time.
    pub cycle_txns: BTreeSet<TransactionId>,
    /// Distinct transactions ever declared deadlocked, across all sites.
    pub declared: BTreeSet<TransactionId>,
    /// Dark cycles (≥ 2 agents) containing **no** declared member.
    /// Non-zero means the detector missed a deadlock — a violation.
    pub missed: usize,
    /// Declared transactions that are still `Running`, not on any cycle,
    /// and not explainable as stale. Non-zero means a false declaration —
    /// a violation.
    pub phantom: usize,
    /// Declared transactions whose cycle has dissolved for a benign
    /// reason: committed, aborted, or home state lost to a crash. Counted
    /// and reported, never hidden.
    pub excused_stale: usize,
    /// Every non-terminal transaction's liveness class, by home agent in
    /// transaction order, as [`crate::net::DdbNet::liveness_report`] has it.
    pub classes: Vec<(AgentId, Liveness)>,
    /// Committed home transactions across all sites.
    pub committed: usize,
    /// Aborted home transactions still waiting out their restart backoff.
    pub aborted: usize,
    /// Transactions still `Running` at capture.
    pub running: usize,
}

impl RestVerdict {
    /// Total soundness violations (missed + phantom). Zero is the
    /// acceptance bar; stale echoes and wedged transactions are reported
    /// separately.
    pub fn soundness_violations(&self) -> usize {
        self.missed + self.phantom
    }

    /// Transactions classed [`Liveness::Wedged`] — liveness lost
    /// (expected after a crash under `Resolution::None`), not a soundness
    /// violation.
    pub fn wedged(&self) -> usize {
        let wedged = self.classes.iter().filter(|(_, c)| *c == Liveness::Wedged);
        wedged.count()
    }
}

impl ClusterSnapshot {
    /// Rebuilds the §6.4 agent-level wait-for graph from the captured
    /// edges and classifies every declaration and every home script.
    ///
    /// Exact only at rest (no frames in flight, controllers quiescent);
    /// the caller is responsible for draining before capture.
    pub fn verify_at_rest(&self) -> RestVerdict {
        let edges = self.sites.iter().flat_map(|s| &s.agent_edges).copied();
        let (g, index, agents) = graph_from_edges(edges);
        let agent = |v: NodeId| agents[v.0];

        let mut v = RestVerdict {
            declared: self
                .sites
                .iter()
                .flat_map(|s| &s.declarations)
                .map(|d| d.txn)
                .collect(),
            ..RestVerdict::default()
        };
        let dark = oracle::dark_cycle_members(&g);
        v.cycle_txns = dark.iter().map(|&n| agent(n).txn).collect();
        // Completeness: every dark cycle needs a declared member.
        let (_, missed) = oracle::undeclared_cycles(&g, |n| v.declared.contains(&agent(n).txn));
        v.missed = missed.len();

        // Per-script classification (home scripts only exist at the home
        // site; a crashed-and-restarted site has lost its pre-crash ones).
        let mut status: BTreeMap<TransactionId, (SiteId, &ScriptSnapshot)> = BTreeMap::new();
        for s in &self.sites {
            for sn in &s.scripts {
                status.insert(sn.txn, (s.site, sn));
            }
        }
        for (_, sn) in status.values() {
            match sn.status {
                TxnStatus::Committed => v.committed += 1,
                TxnStatus::Aborted => v.aborted += 1,
                TxnStatus::Running => v.running += 1,
            }
        }
        // A site that was not captured is down.
        let up: BTreeSet<SiteId> = self.sites.iter().map(|s| s.site).collect();
        let scripts = status.values().copied();
        v.classes = txn_liveness(&g, &dark, &agents, &index, |s| up.contains(&s), scripts, 0);

        // Soundness: a declared transaction must be on a cycle, or its
        // absence must be benign (finished, or home state lost to crash).
        for &txn in &v.declared {
            if v.cycle_txns.contains(&txn) {
                continue;
            }
            match status.get(&txn).map(|(_, sn)| sn.status) {
                Some(TxnStatus::Running) => v.phantom += 1,
                // Finished since, or the home controller's volatile state
                // (and with it the cycle) died in a crash: stale echo.
                Some(TxnStatus::Committed) | Some(TxnStatus::Aborted) | None => {
                    v.excused_stale += 1
                }
            }
        }
        v
    }
}

/// The liveness of every non-terminal home script in `scripts` (each with
/// its home site), named by its home agent, in transaction order: the §6
/// reading of [`oracle::liveness`] on the agent graph `g` (vertex `v` is
/// `agents[v]`, agent `a` is vertex `index[a]`) with dark-cycle members
/// `dark`. A transaction's own vertices are its agents; it can move when
/// runnable, inside a work step, or aborted with a restart pending. The
/// crash rule is the basic model's: a transaction homed at a site that is
/// not `up` is skipped, and an agent at such a site counts as able to
/// move — a wait on a crashed site is the fault model's business, not a
/// liveness bug. The one classification behind
/// [`crate::net::DdbNet::liveness_report`] and the at-rest verdict.
pub(crate) fn txn_liveness<'a>(
    g: &WaitForGraph,
    dark: &BTreeSet<NodeId>,
    agents: &[AgentId],
    index: &BTreeMap<AgentId, NodeId>,
    up: impl Fn(SiteId) -> bool,
    scripts: impl Iterator<Item = (SiteId, &'a ScriptSnapshot)>,
    in_flight: usize,
) -> Vec<(AgentId, Liveness)> {
    let live: Vec<_> = scripts
        .filter(|&(site, sn)| sn.status != TxnStatus::Committed && up(site))
        .collect();
    let moving: BTreeSet<TransactionId> = live
        .iter()
        .filter(|(_, sn)| {
            sn.status == TxnStatus::Aborted || matches!(sn.waiting, Waiting::None | Waiting::Work)
        })
        .map(|(_, sn)| sn.txn)
        .collect();
    let can_move = |v: NodeId| moving.contains(&agents[v.0].txn) || !up(agents[v.0].site);
    let mut classes: Vec<(AgentId, Liveness)> = live
        .iter()
        .map(|&(site, sn)| {
            let (txn, home) = (sn.txn, AgentId::new(sn.txn, site));
            let class = if moving.contains(&txn) {
                Liveness::Active
            } else {
                let me = |v: NodeId| agents[v.0].txn == txn;
                let start = index.get(&home).copied();
                oracle::liveness(g, dark, start, me, can_move, in_flight)
            };
            (home, class)
        })
        .collect();
    classes.sort_unstable();
    classes
}

/// The §6.4 agent edges one controller's state implies, appended to `out`:
/// the one derivation behind the stepping validator's agent graph and the
/// service's at-rest verdict, so the two cannot drift.
///
/// Three ascending runs, each deduplicated, built on no intermediate set.
pub(crate) fn agent_edges(c: &Controller, out: &mut Vec<(AgentId, AgentId)>) {
    let site = c.site();
    let agent = |t| AgentId::new(t, site);
    // Intra-controller edges from the lock table (one site on both ends
    // keeps the pairs' order).
    c.locks().wait_edges_into(out, |a, b| (agent(a), agent(b)));
    // Inter-controller edges from outstanding remote waits.
    let waits = c.remote_wait_edges();
    out.extend(waits.map(|(t, m)| (agent(t), AgentId::new(t, m))));
    // Holder back-edges (§6.4 completion): an idle remote holder
    // agent waits for its home agent to send more work or commit.
    let back = c.holder_back_edges();
    out.extend(back.map(|(t, m)| (AgentId::new(t, m), agent(t))));
}

/// Builds the all-black wait-for graph over `edges` (duplicates folded),
/// numbering vertices densely in order of first appearance, and returns
/// it with the key → vertex index and the keys in vertex order. The one
/// builder behind the §6.4 agent graph (the at-rest verdict and the test
/// builds' reference for [`crate::net::DdbNet::agent_graph`]) and the
/// lock-table transaction graph.
pub(crate) fn graph_from_edges<K: Ord + Copy>(
    edges: impl IntoIterator<Item = (K, K)>,
) -> (WaitForGraph, BTreeMap<K, NodeId>, Vec<K>) {
    let mut g = WaitForGraph::new();
    let mut index: BTreeMap<K, NodeId> = BTreeMap::new();
    let mut keys = Vec::new();
    let mut id_of = |k: K| {
        *index.entry(k).or_insert_with(|| {
            keys.push(k);
            NodeId(keys.len() - 1)
        })
    };
    for (a, b) in edges {
        let (va, vb) = (id_of(a), id_of(b));
        if !g.has_edge(va, vb) {
            g.create_grey(va, vb).expect("fresh edge");
            g.blacken(va, vb).expect("fresh grey edge");
        }
    }
    (g, index, keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DdbConfig;
    use crate::lock::LockMode;
    use crate::net::DdbNet;
    use crate::txn::Transaction;
    use simnet::time::SimTime;

    fn capture_net(db: &DdbNet, n: usize) -> ClusterSnapshot {
        ClusterSnapshot {
            sites: (0..n)
                .map(|s| SiteSnapshot::capture(db.controller(SiteId(s))))
                .collect(),
        }
    }

    fn ring(db: &mut DdbNet, k: u32) {
        for i in 0..k {
            let txn = Transaction::new(TransactionId(i + 1), SiteId(i as usize))
                .lock(
                    SiteId(i as usize),
                    crate::ids::ResourceId(0),
                    LockMode::Exclusive,
                )
                .work(20)
                .lock(
                    SiteId(((i + 1) % k) as usize),
                    crate::ids::ResourceId(0),
                    LockMode::Exclusive,
                );
            db.submit(txn);
        }
    }

    /// The sequence [`agent_edges`] produced when each of its three runs
    /// was collected into a `BTreeSet` first.
    fn tree_agent_edges(c: &Controller) -> Vec<(AgentId, AgentId)> {
        let site = c.site();
        let agent = |t| AgentId::new(t, site);
        let intra = c.locks().wait_edges().into_iter();
        let waits: BTreeSet<_> = c.remote_wait_edges().collect();
        let back: BTreeSet<_> = c.holder_back_edges().collect();
        intra
            .map(|(a, b)| (agent(a), agent(b)))
            .chain(
                waits
                    .into_iter()
                    .map(|(t, m)| (agent(t), AgentId::new(t, m))),
            )
            .chain(
                back.into_iter()
                    .map(|(t, m)| (AgentId::new(t, m), agent(t))),
            )
            .collect()
    }

    #[test]
    fn agent_edges_equal_the_tree_built_sequence() {
        use crate::txn::LockReq;
        // Random contended transactions over three sites under resolution
        // (shared and exclusive locks, lock_all batches, aborts and
        // restarts), compared at every site every few ticks.
        let mut rng = simnet::rng::DetRng::seed_from_u64(0xed6e);
        let mut db = DdbNet::new(3, DdbConfig::detect_and_resolve(150, 60), 11);
        let (mut compared, mut busy) = (0, 0);
        for i in 0..60u32 {
            let mut reqs: Vec<LockReq> = Vec::new();
            for _ in 0..2 + rng.next_below(3) {
                let (site, resource) = (SiteId(rng.next_below(3) as usize), rng.next_below(3));
                let resource = crate::ids::ResourceId(resource);
                if !reqs
                    .iter()
                    .any(|q| (q.site, q.resource) == (site, resource))
                {
                    let mode = [LockMode::Shared, LockMode::Exclusive][rng.next_below(2) as usize];
                    reqs.push(LockReq {
                        site,
                        resource,
                        mode,
                    });
                }
            }
            let home = SiteId(rng.next_below(3) as usize);
            let mut txn = Transaction::new(TransactionId(i + 1), home);
            if rng.next_below(2) == 0 {
                txn = txn.lock_all(reqs).work(30);
            } else {
                for q in reqs {
                    txn = txn.lock(q.site, q.resource, q.mode).work(30);
                }
            }
            db.submit(txn);
            for _ in 0..4 {
                db.run_until(SimTime::from_ticks(db.now().ticks() + 5));
                for s in 0..3 {
                    let c = db.controller(SiteId(s));
                    let mut edges = vec![];
                    agent_edges(c, &mut edges);
                    assert_eq!(edges, tree_agent_edges(c), "site {s} at {}", db.now());
                    compared += 1;
                    busy += usize::from(edges.len() >= 4);
                }
            }
        }
        assert!(
            busy > compared / 4,
            "{busy} of {compared} reads had 4+ edges"
        );
    }

    #[test]
    fn staged_ring_verdict_is_sound_and_complete() {
        let mut db = DdbNet::new(3, DdbConfig::detect_only(100), 9);
        ring(&mut db, 3);
        db.run_until(SimTime::from_ticks(60_000));
        let verdict = capture_net(&db, 3).verify_at_rest();
        assert_eq!(verdict.soundness_violations(), 0, "{verdict:?}");
        assert_eq!(verdict.cycle_txns.len(), 3);
        assert!(!verdict.declared.is_empty());
        assert_eq!(verdict.missed, 0);
        assert_eq!(verdict.excused_stale, 0);
        assert_eq!(verdict.running, 3);
    }

    /// The simulator and the at-rest verdict class every transaction
    /// alike: T1 and T2 deadlocked across the two sites, T3 queued behind
    /// T1 (a bystander, waiting on resolution) and T4 inside a work step
    /// (moving on its own). Neither is wedged.
    #[test]
    fn at_rest_classes_agree_with_the_simulator() {
        use crate::ids::ResourceId;
        use wfg::oracle::Liveness::{Active, Deadlocked, GenuinelyWaiting};
        let (t, s) = (TransactionId, SiteId);
        let x = LockMode::Exclusive;
        let mut db = DdbNet::new(2, DdbConfig::detect_only(100), 12);
        // T1 also holds r7 at S0, which only T3 wants: T3 waits on T1
        // without joining the cycle.
        db.submit(
            Transaction::new(t(1), s(0))
                .lock(s(0), ResourceId(0), x)
                .lock(s(0), ResourceId(7), x)
                .work(20)
                .lock(s(1), ResourceId(1), x),
        );
        db.submit(
            Transaction::new(t(2), s(1))
                .lock(s(1), ResourceId(1), x)
                .work(20)
                .lock(s(0), ResourceId(0), x),
        );
        db.submit(Transaction::new(t(3), s(0)).lock(s(0), ResourceId(7), x));
        db.submit(
            Transaction::new(t(4), s(1))
                .lock(s(1), ResourceId(9), x)
                .work(1_000_000),
        );
        db.run_until(SimTime::from_ticks(5_000));
        assert!(!db.declarations().is_empty());

        let sim = db.verify_liveness().expect("nothing wedged");
        let verdict = capture_net(&db, 2).verify_at_rest();
        let home = |i: u32, site| AgentId::new(t(i), s(site));
        let want = vec![
            (home(1, 0), Deadlocked),
            (home(2, 1), Deadlocked),
            (home(3, 0), GenuinelyWaiting),
            (home(4, 1), Active),
        ];
        assert_eq!(sim, want);
        assert_eq!(verdict.classes, want);
        assert_eq!(verdict.wedged(), 0, "{verdict:?}");
        assert_eq!(verdict.soundness_violations(), 0, "{verdict:?}");
    }

    #[test]
    fn committed_load_has_clean_verdict() {
        // Ordered acquisition: no deadlock possible, everything commits.
        let mut db = DdbNet::new(2, DdbConfig::detect_only(100), 4);
        for i in 0..6u32 {
            db.submit(
                Transaction::new(TransactionId(i + 1), SiteId((i % 2) as usize))
                    .lock(
                        SiteId(0),
                        crate::ids::ResourceId(i as u64),
                        LockMode::Exclusive,
                    )
                    .work(10)
                    .lock(
                        SiteId(1),
                        crate::ids::ResourceId(i as u64),
                        LockMode::Exclusive,
                    ),
            );
        }
        db.run_until(SimTime::from_ticks(60_000));
        let verdict = capture_net(&db, 2).verify_at_rest();
        assert_eq!(verdict.soundness_violations(), 0);
        assert_eq!(verdict.committed, 6);
        assert!(verdict.cycle_txns.is_empty());
        assert!(verdict.declared.is_empty());
        assert_eq!(verdict.wedged(), 0);
    }

    #[test]
    fn doctored_declaration_of_running_txn_is_phantom() {
        let mut db = DdbNet::new(2, DdbConfig::detect_only(100_000), 5);
        // One genuinely blocked-but-not-deadlocked chain: T2 waits on T1.
        db.submit(
            Transaction::new(TransactionId(1), SiteId(0))
                .lock(SiteId(0), crate::ids::ResourceId(0), LockMode::Exclusive)
                .work(50_000),
        );
        db.submit(Transaction::new(TransactionId(2), SiteId(1)).lock(
            SiteId(0),
            crate::ids::ResourceId(0),
            LockMode::Exclusive,
        ));
        db.run_until(SimTime::from_ticks(5_000));
        let mut snap = capture_net(&db, 2);
        // Forge a declaration against the still-running waiter.
        snap.sites[1].declarations.push(DdbDeadlock {
            site: SiteId(1),
            txn: TransactionId(2),
            tag: None,
            at: SimTime::from_ticks(4_000),
        });
        let verdict = snap.verify_at_rest();
        assert_eq!(verdict.phantom, 1, "{verdict:?}");
        assert_eq!(verdict.soundness_violations(), 1);
    }

    #[test]
    fn suppressed_declarations_count_as_missed() {
        let mut db = DdbNet::new(2, DdbConfig::detect_only(100), 6);
        ring(&mut db, 2);
        db.run_until(SimTime::from_ticks(60_000));
        let mut snap = capture_net(&db, 2);
        // Erase every declaration: the surviving dark cycle must be
        // reported as missed.
        for s in &mut snap.sites {
            s.declarations.clear();
        }
        let verdict = snap.verify_at_rest();
        assert_eq!(verdict.missed, 1, "{verdict:?}");
        assert!(verdict.declared.is_empty());
        assert!(!verdict.cycle_txns.is_empty());
    }

    #[test]
    fn declaration_with_lost_home_state_is_excused() {
        let mut db = DdbNet::new(2, DdbConfig::detect_only(100), 7);
        ring(&mut db, 2);
        db.run_until(SimTime::from_ticks(60_000));
        let mut snap = capture_net(&db, 2);
        // Simulate a post-declaration crash of site 0: its volatile state
        // (scripts, lock table) is gone, but other sites still remember
        // the declarations they made.
        snap.sites[0].agent_edges.clear();
        snap.sites[0].scripts.clear();
        snap.sites[0].declarations.clear();
        // Site 1's remote edges into the dead site no longer close a
        // cycle; drop them as a restarted site-0 peer would.
        snap.sites[1].agent_edges.retain(|(a, b)| a.site == b.site);
        let verdict = snap.verify_at_rest();
        assert_eq!(verdict.phantom, 0, "{verdict:?}");
        assert_eq!(verdict.missed, 0);
        assert!(verdict.excused_stale >= 1);
    }
}
