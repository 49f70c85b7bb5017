//! The per-controller lock table.
//!
//! The paper deliberately abstracts locking away ("the details regarding
//! locks and locking protocols are not relevant"), but a concrete lock
//! manager is what *generates* the wait-for edges of §6.4, so we implement
//! the standard shared/exclusive model from the Menasce–Muntz and Gray
//! papers the authors cite:
//!
//! * **shared** locks are mutually compatible; **exclusive** locks conflict
//!   with everything;
//! * waiters queue FIFO; a request is granted iff it is compatible with all
//!   current holders *and* no incompatible request is queued ahead of it
//!   (no overtaking, so writers are not starved);
//! * a sole shared holder may upgrade to exclusive in place; an upgrade
//!   that conflicts waits at the **front** of the queue.
//!
//! The lock table also *derives the intra-controller wait-for edges*: a
//! queued transaction waits for every holder it conflicts with and every
//! queued transaction ahead of it that it conflicts with. These edges are
//! exactly the (always black, §6.4) intra-controller edges of the paper.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use cmh_core::vset::VecSet;

use crate::ids::{ResourceId, TransactionId};

/// Lock modes: shared (read) or exclusive (write).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// Read lock; compatible with other shared locks.
    Shared,
    /// Write lock; conflicts with everything.
    Exclusive,
}

impl LockMode {
    /// Lock compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMode::Shared => f.write_str("S"),
            LockMode::Exclusive => f.write_str("X"),
        }
    }
}

/// Outcome of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was granted immediately.
    Granted,
    /// The transaction was queued; it now waits for the listed transactions
    /// (current conflicting holders and conflicting waiters ahead of it).
    Queued {
        /// Transactions this request waits for, in id order.
        waits_for: Vec<TransactionId>,
    },
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Entry {
    holders: BTreeMap<TransactionId, LockMode>,
    queue: VecDeque<(TransactionId, LockMode)>,
}

impl Entry {
    fn compatible_with_holders(&self, txn: TransactionId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|(&h, &hm)| h == txn || mode.compatible(hm))
    }
}

/// A controller's lock table.
///
/// # Examples
///
/// ```
/// use cmh_ddb::ids::{ResourceId, TransactionId};
/// use cmh_ddb::lock::{LockMode, LockOutcome, LockTable};
///
/// let mut lt = LockTable::new();
/// let (r, t1, t2) = (ResourceId(1), TransactionId(1), TransactionId(2));
/// assert_eq!(lt.request(t1, r, LockMode::Exclusive), LockOutcome::Granted);
/// assert_eq!(
///     lt.request(t2, r, LockMode::Shared),
///     LockOutcome::Queued { waits_for: vec![t1] }
/// );
/// let granted = lt.release(t1, r);
/// assert_eq!(granted, vec![(t2, LockMode::Shared)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockTable {
    entries: BTreeMap<ResourceId, Entry>,
    /// Reverse index: the resources each transaction is queued for. Keeps
    /// [`LockTable::reachable_from`] — the probe hot path — from scanning
    /// every entry; maps with no resources are removed, so the key set is
    /// exactly the waiting transactions.
    waiting_in: BTreeMap<TransactionId, VecSet<ResourceId>>,
    /// Reverse index: the resources each transaction holds.
    holding_in: BTreeMap<TransactionId, VecSet<ResourceId>>,
}

fn index_insert(
    map: &mut BTreeMap<TransactionId, VecSet<ResourceId>>,
    txn: TransactionId,
    resource: ResourceId,
) {
    map.entry(txn).or_default().insert(resource);
}

fn index_remove(
    map: &mut BTreeMap<TransactionId, VecSet<ResourceId>>,
    txn: TransactionId,
    resource: ResourceId,
) {
    if let Some(s) = map.get_mut(&txn) {
        s.remove(&resource);
        if s.is_empty() {
            map.remove(&txn);
        }
    }
}

impl LockTable {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Requests `resource` in `mode` for `txn`.
    ///
    /// Re-requesting a mode already held (or weaker than held) is granted
    /// idempotently. A sole-holder shared→exclusive upgrade is granted in
    /// place; a conflicting upgrade waits at the front of the queue.
    ///
    /// # Panics
    ///
    /// Panics if `txn` is already queued for this resource — a transaction
    /// blocks on one outstanding request per resource.
    pub fn request(
        &mut self,
        txn: TransactionId,
        resource: ResourceId,
        mode: LockMode,
    ) -> LockOutcome {
        let e = self.entries.entry(resource).or_default();
        assert!(
            !e.queue.iter().any(|&(t, _)| t == txn),
            "{txn} is already queued for {resource}"
        );
        if let Some(&held) = e.holders.get(&txn) {
            if held == mode || held == LockMode::Exclusive {
                return LockOutcome::Granted; // idempotent / downgrade-as-held
            }
            // Upgrade shared -> exclusive.
            if e.holders.len() == 1 {
                e.holders.insert(txn, LockMode::Exclusive);
                return LockOutcome::Granted;
            }
            // Wait at the front: upgrades must not deadlock behind newer
            // requests they would conflict with anyway.
            e.queue.push_front((txn, LockMode::Exclusive));
            let waits_for = Self::blockers_of(e, 0);
            index_insert(&mut self.waiting_in, txn, resource);
            return LockOutcome::Queued { waits_for };
        }
        if e.queue.is_empty() && e.compatible_with_holders(txn, mode) {
            e.holders.insert(txn, mode);
            index_insert(&mut self.holding_in, txn, resource);
            return LockOutcome::Granted;
        }
        e.queue.push_back((txn, mode));
        let pos = e.queue.len() - 1;
        let waits_for = Self::blockers_of(e, pos);
        index_insert(&mut self.waiting_in, txn, resource);
        LockOutcome::Queued { waits_for }
    }

    /// Transactions blocking the queue entry at `pos`: conflicting holders
    /// plus conflicting waiters ahead of it, in ascending id order.
    fn blockers_of(e: &Entry, pos: usize) -> Vec<TransactionId> {
        let mut out: Vec<TransactionId> = Self::blockers(e, pos).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// [`Self::blockers_of`] without the list: conflicting holders in
    /// ascending order, then conflicting waiters ahead in queue order. A
    /// contended upgrade is both a holder and queued, so a transaction may
    /// appear twice.
    fn blockers(e: &Entry, pos: usize) -> impl Iterator<Item = TransactionId> + '_ {
        let (txn, mode) = e.queue[pos];
        let holders = e.holders.iter().map(|(&h, &hm)| (h, hm));
        let ahead = e.queue.iter().take(pos).copied();
        holders
            .chain(ahead)
            .filter(move |&(b, bm)| b != txn && !mode.compatible(bm))
            .map(|(b, _)| b)
    }

    /// The heads of `v`'s intra-controller edges, via [`Self::blockers`]
    /// of every entry `v` is queued in (possibly repeated).
    fn blockers_of_waiter(&self, v: TransactionId) -> impl Iterator<Item = TransactionId> + '_ {
        let resources = self.waiting_in.get(&v).into_iter().flatten();
        resources.flat_map(move |r| {
            let e = &self.entries[r];
            let pos = e
                .queue
                .iter()
                .position(|&(t, _)| t == v)
                .expect("waiting_in coherent with queue");
            Self::blockers(e, pos)
        })
    }

    /// Releases `txn`'s lock on `resource` (and removes any queued request
    /// it has there). Returns the requests *newly granted* as a result, in
    /// grant order.
    pub fn release(
        &mut self,
        txn: TransactionId,
        resource: ResourceId,
    ) -> Vec<(TransactionId, LockMode)> {
        let Some(e) = self.entries.get_mut(&resource) else {
            return Vec::new();
        };
        e.holders.remove(&txn);
        e.queue.retain(|&(t, _)| t != txn);
        let granted = Self::drain_queue(e);
        if e.holders.is_empty() && e.queue.is_empty() {
            self.entries.remove(&resource);
        }
        index_remove(&mut self.holding_in, txn, resource);
        index_remove(&mut self.waiting_in, txn, resource);
        for &(t, _) in &granted {
            index_remove(&mut self.waiting_in, t, resource);
            index_insert(&mut self.holding_in, t, resource);
        }
        granted
    }

    /// Releases everything `txn` holds or waits for. Returns
    /// `(resource, newly granted)` pairs.
    pub fn release_all(
        &mut self,
        txn: TransactionId,
    ) -> Vec<(ResourceId, Vec<(TransactionId, LockMode)>)> {
        // Merge the two reverse indexes: everything held or waited for,
        // in ascending resource order (the order the entry scan used).
        let held = self
            .holding_in
            .get(&txn)
            .map(VecSet::as_slice)
            .unwrap_or(&[]);
        let waited = self
            .waiting_in
            .get(&txn)
            .map(VecSet::as_slice)
            .unwrap_or(&[]);
        let mut resources: Vec<ResourceId> = held.iter().chain(waited).copied().collect();
        resources.sort_unstable();
        resources.dedup();
        resources
            .into_iter()
            .map(|r| {
                let granted = self.release(txn, r);
                (r, granted)
            })
            .filter(|(_, g)| !g.is_empty())
            .collect()
    }

    /// Grants queued requests from the front while compatible.
    fn drain_queue(e: &mut Entry) -> Vec<(TransactionId, LockMode)> {
        let mut granted = Vec::new();
        while let Some(&(t, m)) = e.queue.front() {
            if e.compatible_with_holders(t, m) {
                e.queue.pop_front();
                // An upgrade replaces the shared hold.
                e.holders.insert(t, m);
                granted.push((t, m));
            } else {
                break;
            }
        }
        granted
    }

    /// `true` if `txn` is queued (waiting) for `resource`.
    pub fn is_waiting(&self, txn: TransactionId, resource: ResourceId) -> bool {
        self.waiting_in
            .get(&txn)
            .is_some_and(|s| s.contains(&resource))
    }

    /// `true` if `txn` is queued for any resource in this table — the O(1)
    /// membership test behind the controller's "locally blocked" check.
    pub fn is_waiting_anywhere(&self, txn: TransactionId) -> bool {
        self.waiting_in.contains_key(&txn)
    }

    /// `true` if `txn` holds at least one resource in this table — the
    /// O(log n) test behind the holder back-edge reconstruction (a remote
    /// agent that holds here while requesting nothing is, in the §6.4
    /// sense, waiting for its home agent to finish and release it).
    pub fn holds_any(&self, txn: TransactionId) -> bool {
        self.holding_in.contains_key(&txn)
    }

    /// `true` if `txn` holds `resource` in any mode.
    pub fn holds(&self, txn: TransactionId, resource: ResourceId) -> bool {
        self.entries
            .get(&resource)
            .is_some_and(|e| e.holders.contains_key(&txn))
    }

    /// The transactions holding `resource` in any mode, in ascending order.
    pub fn holders_of(&self, resource: ResourceId) -> impl Iterator<Item = TransactionId> + '_ {
        self.entries
            .get(&resource)
            .into_iter()
            .flat_map(|e| e.holders.keys().copied())
    }

    /// The intra-controller wait-for edges implied by this table (§6.4):
    /// `(waiter, holder-or-waiter-ahead)` pairs, deduplicated, in order.
    ///
    /// These edges are always black: the controller knows about both
    /// endpoints locally.
    pub fn wait_edges(&self) -> BTreeSet<(TransactionId, TransactionId)> {
        let mut out = Vec::new();
        self.wait_edges_into(&mut out, |a, b| (a, b));
        out.into_iter().collect()
    }

    /// Appends [`LockTable::wait_edges`] to `out` as `edge(waiter,
    /// blocker)`, in the same ascending order, without building the set:
    /// the appended tail is sorted and deduplicated in place, so `edge`
    /// must preserve the order of the pairs (as tagging both ends with one
    /// site does).
    pub fn wait_edges_into<E: Ord>(
        &self,
        out: &mut Vec<E>,
        edge: impl Fn(TransactionId, TransactionId) -> E,
    ) {
        let start = out.len();
        for e in self.entries.values() {
            for (pos, &(waiter, _)) in e.queue.iter().enumerate() {
                out.extend(Self::blockers(e, pos).map(|b| edge(waiter, b)));
            }
        }
        out[start..].sort_unstable();
        let mut kept = start;
        for i in start..out.len() {
            if kept == start || out[i] != out[kept - 1] {
                out.swap(kept, i);
                kept += 1;
            }
        }
        out.truncate(kept);
    }

    /// The tails of the intra-controller edges **into** `p`: every `q` with
    /// `(q, p)` in [`LockTable::wait_edges`], in ascending order. Examines
    /// only the entries `p` holds or is queued in (the two reverse
    /// indexes), not the whole table.
    pub fn waiters_blocked_by(&self, p: TransactionId) -> Vec<TransactionId> {
        let indexes = [&self.holding_in, &self.waiting_in].into_iter();
        let resources = indexes.flat_map(|ix| ix.get(&p).into_iter().flatten());
        let mut out = Vec::new();
        for e in resources.map(|r| &self.entries[r]) {
            for (pos, &(q, _)) in e.queue.iter().enumerate() {
                if Self::blockers(e, pos).any(|b| b == p) {
                    out.push(q);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Transactions reachable from `start` along intra-controller wait-for
    /// edges, **excluding** the trivial empty path — i.e. the paper's
    /// "label all processes reachable from (T_i, S_j)" closure, ascending.
    /// `start` itself appears in the result iff it lies on a local cycle.
    ///
    /// Runs a direct walk over the waiting-in reverse index: only entries
    /// a frontier transaction is actually queued in are examined, instead
    /// of materialising the full wait-for edge set per call.
    pub fn reachable_from(&self, start: TransactionId) -> VecSet<TransactionId> {
        let mut seen = VecSet::new();
        self.walk(start, &mut seen, |_| false);
        seen
    }

    /// `true` if `start` lies on a cycle of intra-controller edges; stops
    /// at the first edge back into `start`.
    pub fn on_local_cycle(&self, start: TransactionId) -> bool {
        self.walk(start, &mut VecSet::new(), |b| b == start)
    }

    /// Adds to `seen` what is reachable from `start` along intra edges,
    /// returning `true` as soon as an edge leads to a transaction `stop`
    /// accepts (the walk is then cut short). The next transaction to
    /// expand waits in `next`, so a chain of single waits never spills
    /// into the `frontier`.
    fn walk(
        &self,
        start: TransactionId,
        seen: &mut VecSet<TransactionId>,
        stop: impl Fn(TransactionId) -> bool,
    ) -> bool {
        let mut frontier = Vec::new();
        let mut next = Some(start);
        while let Some(v) = next.take().or_else(|| frontier.pop()) {
            for b in self.blockers_of_waiter(v) {
                if stop(b) {
                    return true;
                }
                if seen.insert(b) {
                    match next {
                        None => next = Some(b),
                        Some(_) => frontier.push(b),
                    }
                }
            }
        }
        false
    }

    /// Total number of held locks (for stats).
    pub fn held_count(&self) -> usize {
        self.entries.values().map(|e| e.holders.len()).sum()
    }

    /// Total number of queued (waiting) requests (for stats).
    pub fn waiting_count(&self) -> usize {
        self.entries.values().map(|e| e.queue.len()).sum()
    }

    /// All transactions currently queued anywhere in this table, in
    /// ascending order.
    pub fn waiting_transactions(&self) -> impl Iterator<Item = TransactionId> + '_ {
        self.waiting_in.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TransactionId {
        TransactionId(i)
    }
    fn r(i: u64) -> ResourceId {
        ResourceId(i)
    }
    use LockMode::{Exclusive as X, Shared as S};

    #[test]
    fn shared_locks_coexist() {
        let mut lt = LockTable::new();
        assert_eq!(lt.request(t(2), r(1), S), LockOutcome::Granted);
        assert_eq!(lt.request(t(1), r(1), S), LockOutcome::Granted);
        assert!(lt.holds(t(1), r(1)) && lt.holds(t(2), r(1)));
        assert!(lt.wait_edges().is_empty());
        // Ascending, whatever the grant order; waiters are not holders.
        lt.request(t(0), r(1), X);
        assert_eq!(lt.holders_of(r(1)).collect::<Vec<_>>(), [t(1), t(2)]);
        assert_eq!(lt.holders_of(r(9)).count(), 0);
    }

    #[test]
    fn exclusive_conflicts_and_queues_fifo() {
        let mut lt = LockTable::new();
        lt.request(t(1), r(1), X);
        assert_eq!(
            lt.request(t(2), r(1), X),
            LockOutcome::Queued {
                waits_for: vec![t(1)]
            }
        );
        assert_eq!(
            lt.request(t(3), r(1), S),
            LockOutcome::Queued {
                waits_for: vec![t(1), t(2)]
            }
        );
        // Release: t2 granted first (FIFO); t3 conflicts with t2 (X), stays.
        let g = lt.release(t(1), r(1));
        assert_eq!(g, vec![(t(2), X)]);
        assert!(lt.is_waiting(t(3), r(1)));
        let g = lt.release(t(2), r(1));
        assert_eq!(g, vec![(t(3), S)]);
    }

    #[test]
    fn no_overtaking_past_queued_writer() {
        let mut lt = LockTable::new();
        lt.request(t(1), r(1), S);
        lt.request(t(2), r(1), X); // queued behind holder
                                   // A shared request would be compatible with the holder, but must
                                   // not overtake the queued writer.
        assert_eq!(
            lt.request(t(3), r(1), S),
            LockOutcome::Queued {
                waits_for: vec![t(2)]
            }
        );
    }

    #[test]
    fn batch_grant_of_compatible_readers() {
        let mut lt = LockTable::new();
        lt.request(t(1), r(1), X);
        lt.request(t(2), r(1), S);
        lt.request(t(3), r(1), S);
        let g = lt.release(t(1), r(1));
        assert_eq!(g, vec![(t(2), S), (t(3), S)]);
    }

    #[test]
    fn idempotent_re_request() {
        let mut lt = LockTable::new();
        lt.request(t(1), r(1), X);
        assert_eq!(lt.request(t(1), r(1), X), LockOutcome::Granted);
        assert_eq!(lt.request(t(1), r(1), S), LockOutcome::Granted); // weaker
    }

    #[test]
    fn sole_holder_upgrade_in_place() {
        let mut lt = LockTable::new();
        lt.request(t(1), r(1), S);
        assert_eq!(lt.request(t(1), r(1), X), LockOutcome::Granted);
        // Now exclusive: a shared request queues.
        assert!(matches!(
            lt.request(t(2), r(1), S),
            LockOutcome::Queued { .. }
        ));
    }

    #[test]
    fn contended_upgrade_waits_at_front() {
        let mut lt = LockTable::new();
        lt.request(t(1), r(1), S);
        lt.request(t(2), r(1), S);
        // t1 wants to upgrade: must wait for t2 but jumps any later queue.
        assert_eq!(
            lt.request(t(1), r(1), X),
            LockOutcome::Queued {
                waits_for: vec![t(2)]
            }
        );
        let g = lt.release(t(2), r(1));
        assert_eq!(g, vec![(t(1), X)]);
        assert!(lt.holds(t(1), r(1)));
    }

    #[test]
    fn release_all_returns_cascade() {
        let mut lt = LockTable::new();
        lt.request(t(1), r(1), X);
        lt.request(t(1), r(2), X);
        lt.request(t(2), r(1), X);
        lt.request(t(3), r(2), X);
        let granted = lt.release_all(t(1));
        let mut flat: Vec<(ResourceId, TransactionId)> = granted
            .iter()
            .flat_map(|(res, g)| g.iter().map(move |&(tx, _)| (*res, tx)))
            .collect();
        flat.sort();
        assert_eq!(flat, vec![(r(1), t(2)), (r(2), t(3))]);
        assert!(!lt.holds_any(t(1)));
    }

    #[test]
    fn release_removes_queued_request_too() {
        let mut lt = LockTable::new();
        lt.request(t(1), r(1), X);
        lt.request(t(2), r(1), X);
        lt.release(t(2), r(1)); // t2 gives up waiting
        let g = lt.release(t(1), r(1));
        assert!(g.is_empty());
        assert_eq!(lt.waiting_count(), 0);
        assert_eq!(lt.held_count(), 0);
    }

    #[test]
    fn wait_edges_reflect_blockers() {
        let mut lt = LockTable::new();
        lt.request(t(1), r(1), X);
        lt.request(t(2), r(1), X);
        lt.request(t(3), r(1), X);
        let edges = lt.wait_edges();
        assert!(edges.contains(&(t(2), t(1))));
        assert!(edges.contains(&(t(3), t(1))));
        assert!(edges.contains(&(t(3), t(2))));
    }

    #[test]
    fn waiters_blocked_by_is_the_reverse_of_wait_edges() {
        // Random requests (shared and exclusive, so upgrades queue at the
        // front while still holding) and releases over a small universe.
        // The closures and the appended edge list are checked against the
        // edge set too.
        let mut rng = simnet::rng::DetRng::seed_from_u64(0x10c6);
        let mut lt = LockTable::new();
        let (mut upgrades, mut cycles) = (0, 0);
        for _ in 0..4_000 {
            let (txn, res) = (t(rng.next_below(8) as u32), r(rng.next_below(4)));
            match rng.next_below(5) {
                0 => drop(lt.release_all(txn)),
                1 => drop(lt.release(txn, res)),
                _ if lt.is_waiting(txn, res) => {}
                _ => {
                    let mode = if rng.next_below(2) == 0 { S } else { X };
                    lt.request(txn, res, mode);
                    upgrades += usize::from(lt.holds(txn, res) && lt.is_waiting(txn, res));
                }
            }
            let edges = lt.wait_edges();
            let mut appended = vec![(t(99), t(99))];
            lt.wait_edges_into(&mut appended, |a, b| (a, b));
            assert!(appended.remove(0) == (t(99), t(99)) && appended.iter().eq(&edges));
            for p in (0..8).map(t) {
                let want: Vec<TransactionId> = edges
                    .iter()
                    .filter(|&&(_, b)| b == p)
                    .map(|&(q, _)| q)
                    .collect();
                assert_eq!(lt.waiters_blocked_by(p), want, "waiters behind {p}");
                let reach = bfs(&edges, p);
                assert_eq!(lt.reachable_from(p), reach, "reachable from {p}");
                assert_eq!(lt.on_local_cycle(p), reach.contains(&p), "cycle at {p}");
                cycles += usize::from(reach.contains(&p));
            }
        }
        assert!(upgrades > 20, "only {upgrades} contended upgrades");
        assert!(cycles > 20, "only {cycles} local cycles");
    }

    /// The literal closure: breadth-first search over the edge set,
    /// excluding the empty path.
    fn bfs(
        edges: &BTreeSet<(TransactionId, TransactionId)>,
        start: TransactionId,
    ) -> BTreeSet<TransactionId> {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for &(_, b) in edges.range((v, t(0))..=(v, t(u32::MAX))) {
                if seen.insert(b) {
                    queue.push_back(b);
                }
            }
        }
        seen
    }

    #[test]
    fn local_cycle_via_two_resources() {
        let mut lt = LockTable::new();
        lt.request(t(1), r(1), X);
        lt.request(t(2), r(2), X);
        lt.request(t(1), r(2), X); // t1 waits for t2
        lt.request(t(2), r(1), X); // t2 waits for t1: local deadlock
        assert!(lt.on_local_cycle(t(1)));
        assert!(lt.on_local_cycle(t(2)));
        assert_eq!(
            lt.reachable_from(t(1)),
            [t(1), t(2)].into_iter().collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn no_cycle_when_waits_are_acyclic() {
        let mut lt = LockTable::new();
        lt.request(t(1), r(1), X);
        lt.request(t(2), r(1), X);
        assert!(!lt.on_local_cycle(t(1)));
        assert!(!lt.on_local_cycle(t(2)));
        assert_eq!(
            lt.reachable_from(t(2)),
            [t(1)].into_iter().collect::<BTreeSet<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "already queued")]
    fn double_queue_panics() {
        let mut lt = LockTable::new();
        lt.request(t(1), r(1), X);
        lt.request(t(2), r(1), X);
        lt.request(t(2), r(1), X);
    }

    #[test]
    fn waiting_transactions_listed() {
        let mut lt = LockTable::new();
        lt.request(t(1), r(1), X);
        lt.request(t(2), r(1), S);
        lt.request(t(3), r(2), X);
        assert_eq!(lt.waiting_transactions().collect::<Vec<_>>(), [t(2)]);
    }
}
