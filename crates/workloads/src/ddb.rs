//! Workloads for the distributed-database model (§6): random multi-site
//! transactions, dining philosophers and bank transfers.

use cmh_ddb::ids::{ResourceId, SiteId, TransactionId};
use cmh_ddb::lock::LockMode;
use cmh_ddb::txn::Transaction;
use simnet::rng::DetRng;

/// A transaction together with its submission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedTxn {
    /// Submission time (ticks).
    pub at: u64,
    /// The transaction.
    pub txn: Transaction,
}

/// Parameters for [`random_transactions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdbWorkloadConfig {
    /// Number of sites.
    pub sites: usize,
    /// Number of transactions.
    pub transactions: usize,
    /// Lockable resources managed by each site.
    pub resources_per_site: u64,
    /// Lock steps per transaction (inclusive range).
    pub locks_min: usize,
    /// Upper bound of lock steps.
    pub locks_max: usize,
    /// Probability that a lock step targets a remote site.
    pub remote_prob: f64,
    /// Probability that a lock is exclusive (else shared).
    pub write_prob: f64,
    /// Work ticks between lock steps (inclusive range).
    pub work_min: u64,
    /// Upper bound of work ticks.
    pub work_max: u64,
    /// Mean gap between transaction arrivals.
    pub mean_arrival_gap: u64,
    /// If `true`, each transaction acquires its resources in globally
    /// ascending `(site, resource)` order — ordered acquisition cannot
    /// deadlock, giving a guaranteed-negative control workload.
    pub ordered: bool,
    /// Probability that a transaction acquires its locks as one
    /// simultaneous AND-semantics batch (`Transaction::lock_all`) instead
    /// of sequentially.
    pub batch_prob: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for DdbWorkloadConfig {
    fn default() -> Self {
        DdbWorkloadConfig {
            sites: 4,
            transactions: 16,
            resources_per_site: 4,
            locks_min: 2,
            locks_max: 4,
            remote_prob: 0.5,
            write_prob: 0.8,
            work_min: 5,
            work_max: 40,
            mean_arrival_gap: 30,
            ordered: false,
            batch_prob: 0.0,
            seed: 0,
        }
    }
}

/// Generates random multi-site transactions.
///
/// Each transaction is homed at a random site and acquires a random set of
/// distinct `(site, resource)` locks with work in between. High
/// `write_prob` and low `resources_per_site` crank up contention (and the
/// deadlock rate, unless `ordered`).
pub fn random_transactions(cfg: &DdbWorkloadConfig) -> Vec<TimedTxn> {
    assert!(cfg.sites >= 1 && cfg.transactions >= 1);
    assert!(cfg.locks_min >= 1 && cfg.locks_min <= cfg.locks_max);
    let mut rng = DetRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.transactions);
    let mut t = 0u64;
    let mut picks: Vec<(SiteId, ResourceId)> = Vec::new();
    for i in 0..cfg.transactions {
        t += rng.skewed_delay(cfg.mean_arrival_gap);
        let home = SiteId(rng.next_below(cfg.sites as u64) as usize);
        let n_locks = rng.range_inclusive(cfg.locks_min as u64, cfg.locks_max as u64) as usize;
        // Choose distinct (site, resource) pairs.
        picks.clear();
        let mut guard = 0;
        while picks.len() < n_locks && guard < 1000 {
            guard += 1;
            let site = if cfg.sites > 1 && rng.chance(cfg.remote_prob) {
                let mut s = rng.next_below(cfg.sites as u64) as usize;
                if s == home.0 {
                    s = (s + 1) % cfg.sites;
                }
                SiteId(s)
            } else {
                home
            };
            let res = ResourceId(rng.next_below(cfg.resources_per_site));
            if !picks.contains(&(site, res)) {
                picks.push((site, res));
            }
        }
        if cfg.ordered {
            picks.sort();
        }
        let mut txn = Transaction::new(TransactionId(i as u32 + 1), home);
        // Guarded so a zero batch probability consumes no RNG draw: seeds
        // generated before this knob existed keep their exact workloads.
        let batched = cfg.batch_prob > 0.0 && rng.chance(cfg.batch_prob);
        if batched {
            // One simultaneous AND-semantics acquisition of the whole set.
            let reqs: Vec<cmh_ddb::txn::LockReq> = picks
                .drain(..)
                .map(|(site, resource)| cmh_ddb::txn::LockReq {
                    site,
                    resource,
                    mode: if rng.chance(cfg.write_prob) {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    },
                })
                .collect();
            txn = txn.lock_all(reqs);
        } else {
            for (k, (site, res)) in picks.drain(..).enumerate() {
                if k > 0 {
                    txn = txn.work(rng.range_inclusive(cfg.work_min, cfg.work_max));
                }
                let mode = if rng.chance(cfg.write_prob) {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                txn = txn.lock(site, res, mode);
            }
        }
        txn = txn.work(rng.range_inclusive(cfg.work_min, cfg.work_max));
        out.push(TimedTxn { at: t, txn });
    }
    out
}

/// Dining philosophers as a DDB instance: `k` sites, fork `i` is resource
/// 0 at site `i`; philosopher `i` (homed at site `i`) picks up fork `i`,
/// thinks for `think` ticks, then picks up fork `i+1 mod k`, eats for
/// `eat` ticks, and releases everything. All-left-first acquisition: the
/// classic guaranteed circular wait once all philosophers hold one fork.
pub fn dining_philosophers(k: usize, think: u64, eat: u64) -> Vec<TimedTxn> {
    assert!(k >= 2, "need at least two philosophers");
    (0..k)
        .map(|i| {
            let txn = Transaction::new(TransactionId(i as u32 + 1), SiteId(i))
                .lock(SiteId(i), ResourceId(0), LockMode::Exclusive)
                .work(think)
                .lock(SiteId((i + 1) % k), ResourceId(0), LockMode::Exclusive)
                .work(eat);
            TimedTxn { at: 0, txn }
        })
        .collect()
}

/// Bank-transfer workload: `accounts_per_site` accounts at each site;
/// each transfer locks a source and a destination account exclusively (in
/// the order given by the transfer, so opposing transfers can deadlock),
/// with a processing delay in between.
pub fn bank_transfers(
    sites: usize,
    accounts_per_site: u64,
    transfers: usize,
    mean_gap: u64,
    seed: u64,
) -> Vec<TimedTxn> {
    assert!(sites >= 1 && accounts_per_site >= 1);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(transfers);
    let mut t = 0u64;
    for i in 0..transfers {
        t += rng.skewed_delay(mean_gap);
        let pick = |rng: &mut DetRng| {
            (
                SiteId(rng.next_below(sites as u64) as usize),
                ResourceId(rng.next_below(accounts_per_site)),
            )
        };
        let src = pick(&mut rng);
        let mut dst = pick(&mut rng);
        let mut guard = 0;
        while dst == src && guard < 100 {
            dst = pick(&mut rng);
            guard += 1;
        }
        if dst == src {
            dst = (
                SiteId((src.0 .0 + 1) % sites.max(1)),
                ResourceId((src.1 .0 + 1) % accounts_per_site),
            );
        }
        let home = src.0;
        let txn = Transaction::new(TransactionId(i as u32 + 1), home)
            .lock(src.0, src.1, LockMode::Exclusive)
            .work(rng.range_inclusive(5, 25))
            .lock(dst.0, dst.1, LockMode::Exclusive)
            .work(rng.range_inclusive(5, 25));
        out.push(TimedTxn { at: t, txn });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmh_ddb::txn::TxnStep;

    /// The target of a single-lock step.
    fn single_lock(step: &TxnStep) -> Option<(SiteId, ResourceId)> {
        match step {
            TxnStep::LockAll(reqs) if reqs.len() == 1 => Some((reqs[0].site, reqs[0].resource)),
            _ => None,
        }
    }

    #[test]
    fn random_transactions_are_seed_stable() {
        let cfg = DdbWorkloadConfig::default();
        assert_eq!(random_transactions(&cfg), random_transactions(&cfg));
    }

    #[test]
    fn ordered_mode_sorts_lock_steps() {
        let cfg = DdbWorkloadConfig {
            ordered: true,
            transactions: 10,
            seed: 4,
            ..DdbWorkloadConfig::default()
        };
        for tt in random_transactions(&cfg) {
            let locks: Vec<(SiteId, ResourceId)> =
                tt.txn.steps().iter().filter_map(single_lock).collect();
            let mut sorted = locks.clone();
            sorted.sort();
            assert_eq!(locks, sorted);
        }
    }

    #[test]
    fn transactions_have_distinct_lock_targets() {
        let cfg = DdbWorkloadConfig {
            transactions: 20,
            seed: 7,
            ..DdbWorkloadConfig::default()
        };
        for tt in random_transactions(&cfg) {
            let locks: Vec<(SiteId, ResourceId)> =
                tt.txn.steps().iter().filter_map(single_lock).collect();
            let set: std::collections::BTreeSet<_> = locks.iter().collect();
            assert_eq!(set.len(), locks.len(), "{}", tt.txn);
            assert!(!locks.is_empty());
        }
    }

    #[test]
    fn philosophers_form_a_ring() {
        let ts = dining_philosophers(5, 10, 20);
        assert_eq!(ts.len(), 5);
        for (i, tt) in ts.iter().enumerate() {
            assert_eq!(tt.txn.home(), SiteId(i));
            let fork = single_lock(&tt.txn.steps()[2]).expect("second fork step");
            assert_eq!(fork.0, SiteId((i + 1) % 5));
        }
    }

    #[test]
    fn bank_transfers_lock_two_distinct_accounts() {
        for tt in bank_transfers(3, 4, 20, 10, 5) {
            let locks: Vec<(SiteId, ResourceId)> =
                tt.txn.steps().iter().filter_map(single_lock).collect();
            assert_eq!(locks.len(), 2);
            assert_ne!(locks[0], locks[1]);
        }
    }
}
