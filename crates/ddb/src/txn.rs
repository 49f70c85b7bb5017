//! Transaction scripts: the workload the DDB executes.
//!
//! A transaction runs at its **home site** as a sequence of steps: acquire
//! a lock (local or remote), do some work, and finally commit (releasing
//! every lock everywhere). The paper assumes "if a single transaction runs
//! by itself in the DDB it will terminate in finite time and eventually
//! release all resources" — scripts are finite, so that holds by
//! construction.

use std::fmt;

use crate::ids::{ResourceId, SiteId, TransactionId};
use crate::lock::LockMode;

/// One lock requirement inside a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockReq {
    /// Site managing the resource.
    pub site: SiteId,
    /// The resource.
    pub resource: ResourceId,
    /// Requested mode.
    pub mode: LockMode,
}

/// One step of a transaction script.
// The explicit tag keeps a step at 32 bytes. At the niche layout's 24 a
// short script's `Vec<TxnStep>` is a glibc fastbin chunk, a site thread's
// teardown no longer consolidates its arena, and the next `Cluster::start`
// in the process pays for it (`svc_remote` `setup_s` +35 %).
#[repr(u8)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnStep {
    /// Acquire **all** the listed locks, issued simultaneously; blocks
    /// until every one is granted. This is the paper's AND semantics: the
    /// process's agent waits on several resources (and possibly several
    /// sites) at once. A single lock is the one-element case.
    LockAll(Vec<LockReq>),
    /// Compute for `ticks` virtual time units while holding current locks.
    Work {
        /// Duration of the computation.
        ticks: u64,
    },
}

impl TxnStep {
    /// A single-lock step: a [`TxnStep::LockAll`] of one.
    pub fn lock(site: SiteId, resource: ResourceId, mode: LockMode) -> TxnStep {
        TxnStep::LockAll(vec![LockReq {
            site,
            resource,
            mode,
        }])
    }
}

/// A complete transaction: identity, home site and script.
///
/// # Examples
///
/// ```
/// use cmh_ddb::ids::{ResourceId, SiteId, TransactionId};
/// use cmh_ddb::lock::LockMode;
/// use cmh_ddb::txn::Transaction;
///
/// let t = Transaction::new(TransactionId(1), SiteId(0))
///     .lock(SiteId(0), ResourceId(10), LockMode::Exclusive)
///     .work(50)
///     .lock(SiteId(1), ResourceId(20), LockMode::Shared);
/// assert_eq!(t.steps().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    id: TransactionId,
    home: SiteId,
    steps: Vec<TxnStep>,
}

impl Transaction {
    /// Creates an empty transaction homed at `home`.
    pub fn new(id: TransactionId, home: SiteId) -> Self {
        Transaction {
            id,
            home,
            steps: Vec::new(),
        }
    }

    /// Appends a single-lock step: a [`TxnStep::LockAll`] of one.
    pub fn lock(mut self, site: SiteId, resource: ResourceId, mode: LockMode) -> Self {
        self.steps.push(TxnStep::lock(site, resource, mode));
        self
    }

    /// Appends a simultaneous multi-lock step (AND semantics: the
    /// transaction proceeds only once **all** listed locks are granted).
    ///
    /// # Panics
    ///
    /// Panics if `reqs` is empty or contains duplicate `(site, resource)`
    /// targets.
    pub fn lock_all(mut self, reqs: impl IntoIterator<Item = LockReq>) -> Self {
        let reqs: Vec<LockReq> = reqs.into_iter().collect();
        assert!(!reqs.is_empty(), "lock_all needs at least one lock");
        let mut targets: Vec<(SiteId, ResourceId)> =
            reqs.iter().map(|r| (r.site, r.resource)).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(
            targets.len(),
            reqs.len(),
            "duplicate lock targets in lock_all"
        );
        self.steps.push(TxnStep::LockAll(reqs));
        self
    }

    /// Appends a work step.
    pub fn work(mut self, ticks: u64) -> Self {
        self.steps.push(TxnStep::Work { ticks });
        self
    }

    /// The transaction id.
    pub fn id(&self) -> TransactionId {
        self.id
    }

    /// The home site (where the script is driven).
    pub fn home(&self) -> SiteId {
        self.home
    }

    /// The script.
    pub fn steps(&self) -> &[TxnStep] {
        &self.steps
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}[", self.id, self.home)?;
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            match s {
                TxnStep::LockAll(reqs) => {
                    f.write_str(if reqs.len() == 1 {
                        "lock("
                    } else {
                        "lock-all("
                    })?;
                    for (k, r) in reqs.iter().enumerate() {
                        if k > 0 {
                            f.write_str(" ")?;
                        }
                        write!(f, "{},{},{}", r.site, r.resource, r.mode)?;
                    }
                    f.write_str(")")?
                }
                TxnStep::Work { ticks } => write!(f, "work({ticks})")?,
            }
        }
        f.write_str("]")
    }
}

/// Lifecycle of a transaction, as observed by its home controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Executing its script.
    Running,
    /// Finished all steps and released all locks.
    Committed,
    /// Aborted by deadlock resolution (may restart later).
    Aborted,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let t = Transaction::new(TransactionId(7), SiteId(2))
            .lock(SiteId(2), ResourceId(1), LockMode::Shared)
            .work(10);
        assert_eq!(t.id(), TransactionId(7));
        assert_eq!(t.home(), SiteId(2));
        assert_eq!(
            t.steps()[0],
            TxnStep::lock(SiteId(2), ResourceId(1), LockMode::Shared)
        );
    }

    #[test]
    fn display_is_readable() {
        let t = Transaction::new(TransactionId(1), SiteId(0))
            .lock(SiteId(1), ResourceId(5), LockMode::Exclusive)
            .work(3);
        assert_eq!(t.to_string(), "T1@S0[lock(S1,r5,X) work(3)]");
    }
}
