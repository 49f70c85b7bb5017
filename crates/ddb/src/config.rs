//! Controller behaviour knobs: detection initiation (§4.2–§4.3, §6.7) and
//! deadlock resolution (extension).

/// When a controller initiates probe computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdbInitiation {
    /// Every `period` ticks, run the §6.7 procedure: first look for purely
    /// local (intra-controller) cycles — declared without any probes —
    /// then initiate **Q** computations, one per constituent process with
    /// an incoming black inter-controller edge. A subject still waiting
    /// next period gets a fresh computation, so a computation whose probes
    /// were lost is retried.
    PeriodicQOpt {
        /// Detector period.
        period: u64,
    },
    /// Every `period` ticks, initiate one computation per blocked
    /// constituent process — the naive rule §6.7 improves on. Kept as the
    /// baseline for experiment E5.
    PeriodicNaive {
        /// Detector period.
        period: u64,
    },
    /// Never initiate (passive controller, for scripted tests).
    Never,
}

impl Default for DdbInitiation {
    fn default() -> Self {
        DdbInitiation::PeriodicQOpt { period: 200 }
    }
}

/// What to do when a deadlock is declared.
///
/// The paper explicitly does not treat resolution ("the question of how
/// deadlocks should be broken is not treated here"); this is the minimal
/// standard scheme so the workloads can make progress end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Resolution {
    /// Report only; the deadlocked transactions stay blocked forever.
    #[default]
    None,
    /// Abort the declared process's transaction: release all its locks
    /// everywhere and cancel its queued requests. The home controller
    /// re-runs the transaction's script from the start `restart_backoff`
    /// ticks (plus jitter) later.
    AbortSubject {
        /// Delay before the victim restarts.
        restart_backoff: u64,
    },
}

impl Resolution {
    /// The delay after which an aborted transaction restarts; `None` if
    /// nothing is ever aborted.
    pub fn restart_backoff(self) -> Option<u64> {
        match self {
            Resolution::None => None,
            Resolution::AbortSubject { restart_backoff } => Some(restart_backoff),
        }
    }
}

/// Default number of concurrent computations tracked per initiator.
pub const DEFAULT_COMP_WINDOW: u64 = 64;

/// Full controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdbConfig {
    /// Initiation rule.
    pub initiation: DdbInitiation,
    /// Resolution rule.
    pub resolution: Resolution,
    /// Sliding window of computations tracked per initiator (§4.3 says
    /// "the latest", i.e. window 1; a controller running the §6.7
    /// procedure initiates Q **concurrent** computations, so a window of 1
    /// cancels Q−1 of them — the ablation experiment E11 measures the
    /// coverage loss). Clamped to at least 1.
    pub comp_window: u64,
}

impl Default for DdbConfig {
    fn default() -> Self {
        DdbConfig {
            initiation: DdbInitiation::default(),
            resolution: Resolution::default(),
            comp_window: DEFAULT_COMP_WINDOW,
        }
    }
}

impl DdbConfig {
    /// Detection via the §6.7 Q-optimised periodic rule, no resolution.
    pub fn detect_only(period: u64) -> Self {
        DdbConfig {
            initiation: DdbInitiation::PeriodicQOpt { period },
            ..DdbConfig::default()
        }
    }

    /// Q-optimised detection plus abort-and-restart resolution.
    pub fn detect_and_resolve(period: u64, restart_backoff: u64) -> Self {
        DdbConfig {
            initiation: DdbInitiation::PeriodicQOpt { period },
            resolution: Resolution::AbortSubject { restart_backoff },
            ..DdbConfig::default()
        }
    }

    /// Overrides the per-initiator computation window.
    pub fn with_comp_window(mut self, window: u64) -> Self {
        self.comp_window = window.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = DdbConfig::default();
        assert_eq!(c.initiation, DdbInitiation::PeriodicQOpt { period: 200 });
        assert_eq!(c.resolution, Resolution::None);
    }

    #[test]
    fn constructors() {
        assert_eq!(
            DdbConfig::detect_and_resolve(100, 50).resolution,
            Resolution::AbortSubject {
                restart_backoff: 50
            }
        );
        assert_eq!(
            DdbConfig::detect_only(300).initiation,
            DdbInitiation::PeriodicQOpt { period: 300 }
        );
    }
}
