//! Message-latency models.
//!
//! The paper's process axiom P4 requires only that every message is received
//! within *some* arbitrary finite time; it places no other constraint on
//! delays. The experiments draw them from three models — a constant delay
//! ([`LatencyModel::Fixed`]), a uniform range ([`LatencyModel::Uniform`]) and
//! a fast/slow mixture ([`LatencyModel::Bimodal`]) — while the scheduler
//! preserves per-channel FIFO order (messages between the same ordered pair
//! of nodes are delivered in the order sent, as axioms P1/P2 assume).

use crate::rng::DetRng;

/// How long a message takes from send to delivery, in ticks.
///
/// All models produce delays of at least 1 tick, so a message is never
/// delivered at the instant it is sent.
///
/// # Examples
///
/// ```
/// use simnet::latency::LatencyModel;
/// use simnet::rng::DetRng;
///
/// let model = LatencyModel::Uniform { lo: 5, hi: 20 };
/// let mut rng = DetRng::seed_from_u64(1);
/// let d = model.sample(&mut rng);
/// assert!((5..=20).contains(&d));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly `ticks` ticks.
    Fixed {
        /// The constant delay.
        ticks: u64,
    },
    /// Uniformly distributed delay in `[lo, hi]`.
    Uniform {
        /// Minimum delay (inclusive).
        lo: u64,
        /// Maximum delay (inclusive).
        hi: u64,
    },
    /// Mostly-fast with occasional slow messages: with probability
    /// `slow_prob` the delay is uniform in `[slow_lo, slow_hi]`, otherwise
    /// uniform in `[fast_lo, fast_hi]`.
    Bimodal {
        /// Fast-mode minimum.
        fast_lo: u64,
        /// Fast-mode maximum.
        fast_hi: u64,
        /// Slow-mode minimum.
        slow_lo: u64,
        /// Slow-mode maximum.
        slow_hi: u64,
        /// Probability of the slow mode.
        slow_prob: f64,
    },
}

impl LatencyModel {
    /// Samples a delivery delay.
    ///
    /// Always returns at least 1.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        let d = match *self {
            LatencyModel::Fixed { ticks } => ticks,
            LatencyModel::Uniform { lo, hi } => {
                let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                rng.range_inclusive(lo, hi)
            }
            LatencyModel::Bimodal {
                fast_lo,
                fast_hi,
                slow_lo,
                slow_hi,
                slow_prob,
            } => {
                if rng.chance(slow_prob) {
                    rng.range_inclusive(slow_lo.min(slow_hi), slow_lo.max(slow_hi))
                } else {
                    rng.range_inclusive(fast_lo.min(fast_hi), fast_lo.max(fast_hi))
                }
            }
        };
        d.max(1)
    }
}

impl Default for LatencyModel {
    /// A modest uniform latency suitable for most experiments.
    fn default() -> Self {
        LatencyModel::Uniform { lo: 1, hi: 10 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::seed_from_u64(42)
    }

    #[test]
    fn fixed_is_constant_but_at_least_one() {
        let mut r = rng();
        let m = LatencyModel::Fixed { ticks: 7 };
        assert_eq!(m.sample(&mut r), 7);
        let z = LatencyModel::Fixed { ticks: 0 };
        assert_eq!(z.sample(&mut r), 1);
    }

    #[test]
    fn every_model_samples_at_least_one_tick() {
        let models = [
            LatencyModel::Fixed { ticks: 7 },
            LatencyModel::Fixed { ticks: 0 },
            LatencyModel::Uniform { lo: 3, hi: 9 },
            LatencyModel::Uniform { lo: 9, hi: 3 },
            LatencyModel::Uniform { lo: 0, hi: 2 },
            LatencyModel::Bimodal {
                fast_lo: 0,
                fast_hi: 5,
                slow_lo: 40,
                slow_hi: 80,
                slow_prob: 0.3,
            },
        ];
        let mut r = rng();
        for m in &models {
            for _ in 0..500 {
                let d = m.sample(&mut r);
                assert!(d >= 1, "{m:?} sampled {d}");
            }
        }
    }

    #[test]
    fn uniform_respects_bounds_even_if_swapped() {
        let mut r = rng();
        let m = LatencyModel::Uniform { lo: 20, hi: 5 };
        for _ in 0..200 {
            let d = m.sample(&mut r);
            assert!((5..=20).contains(&d));
        }
    }

    #[test]
    fn bimodal_hits_both_modes() {
        let mut r = rng();
        let m = LatencyModel::Bimodal {
            fast_lo: 1,
            fast_hi: 2,
            slow_lo: 100,
            slow_hi: 200,
            slow_prob: 0.3,
        };
        let mut fast = 0;
        let mut slow = 0;
        for _ in 0..500 {
            let d = m.sample(&mut r);
            if d <= 2 {
                fast += 1;
            } else {
                assert!((100..=200).contains(&d));
                slow += 1;
            }
        }
        assert!(fast > 0 && slow > 0);
    }
}
