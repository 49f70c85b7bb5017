//! Message-latency models.
//!
//! The paper's process axiom P4 requires only that every message is received
//! within *some* arbitrary finite time; it places no other constraint on
//! delays. These models let experiments explore that whole space while the
//! scheduler preserves per-channel FIFO order (messages between the same
//! ordered pair of nodes are delivered in the order sent, as axioms P1/P2
//! assume).

use crate::rng::DetRng;
use crate::sim::NodeId;

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
/// use simnet::sim::NodeId;
///
/// let model = LatencyModel::Uniform { lo: 5, hi: 20 };
/// let mut rng = DetRng::seed_from_u64(1);
/// let d = model.sample(&mut rng, NodeId(0), NodeId(1));
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
    /// Exponential-ish delay with the given mean, clamped to `[1, 16*mean]`.
    ///
    /// Models a long-tailed network while keeping delays finite.
    Skewed {
        /// Mean delay.
        mean: u64,
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
    /// Delay grows with the node-id distance, modelling a line topology:
    /// `base + per_hop * |from - to|`.
    Distance {
        /// Base delay applied to every message.
        base: u64,
        /// Extra delay per unit of node-id distance.
        per_hop: u64,
    },
    /// A deliberately broken model for the draw-site guard test: claims
    /// `claimed` as its floor but always samples 1 tick.
    #[cfg(test)]
    #[doc(hidden)]
    Lying {
        /// The advertised (and violated) minimum delay.
        claimed: u64,
    },
}

impl LatencyModel {
    /// Samples a delivery delay for a message from `from` to `to`.
    ///
    /// Always returns at least 1.
    pub fn sample(&self, rng: &mut DetRng, from: NodeId, to: NodeId) -> u64 {
        let d = match *self {
            LatencyModel::Fixed { ticks } => ticks,
            LatencyModel::Uniform { lo, hi } => {
                let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                rng.range_inclusive(lo, hi)
            }
            LatencyModel::Skewed { mean } => rng.skewed_delay(mean),
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
            LatencyModel::Distance { base, per_hop } => {
                let hops = from.0.abs_diff(to.0) as u64;
                base.saturating_add(per_hop.saturating_mul(hops))
            }
            #[cfg(test)]
            LatencyModel::Lying { .. } => 1,
        };
        let d = d.max(1);
        // A model that draws below its declared floor silently breaks the
        // conservative windows of a sharded run (a cross-shard effect
        // could land inside an already-drained window), so catch the lie
        // at the draw site.
        debug_assert!(
            d >= self.min_delay(),
            "latency model {self:?} sampled {d} below its declared min_delay {}",
            self.min_delay()
        );
        d
    }

    /// The smallest delay this model can ever produce — the conservative
    /// lookahead bound of the sharded stepper (see [`crate::shard`]).
    ///
    /// Every model clamps samples to at least 1 tick, so `min_delay() >= 1`
    /// always holds: an event handled at tick `t` can only schedule
    /// consequences at `t + min_delay()` or later, which makes a window of
    /// `min_delay()` ticks safe to advance without cross-shard
    /// synchronisation. For each model:
    ///
    /// * `Fixed { ticks }` → `max(ticks, 1)`;
    /// * `Uniform { lo, hi }` → `max(min(lo, hi), 1)` (sample normalises
    ///   swapped bounds the same way);
    /// * `Skewed { mean }` → 1 (the clamped-exponential tail reaches 1);
    /// * `Bimodal { .. }` → the smaller of the two mode minima, floor 1;
    /// * `Distance { base, .. }` → `max(base, 1)` (a zero-hop self-send
    ///   pays only the base delay).
    pub fn min_delay(&self) -> u64 {
        let d = match *self {
            LatencyModel::Fixed { ticks } => ticks,
            LatencyModel::Uniform { lo, hi } => lo.min(hi),
            LatencyModel::Skewed { .. } => 1,
            LatencyModel::Bimodal {
                fast_lo,
                fast_hi,
                slow_lo,
                slow_hi,
                ..
            } => fast_lo.min(fast_hi).min(slow_lo.min(slow_hi)),
            LatencyModel::Distance { base, .. } => base,
            #[cfg(test)]
            LatencyModel::Lying { claimed } => claimed,
        };
        d.max(1)
    }

    /// A wide-area preset: uniform delay in `[3, 12]` ticks. Its
    /// `min_delay()` of 3 gives a sharded run a three-tick
    /// conservative window, making this the workspace's standard
    /// multi-tick-window configuration (`CMH_LATENCY=wan` in the
    /// experiment binaries; see DESIGN §12).
    pub fn wan() -> Self {
        LatencyModel::Uniform { lo: 3, hi: 12 }
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
        assert_eq!(m.sample(&mut r, NodeId(0), NodeId(1)), 7);
        let z = LatencyModel::Fixed { ticks: 0 };
        assert_eq!(z.sample(&mut r, NodeId(0), NodeId(1)), 1);
    }

    #[test]
    fn min_delay_bounds_every_model_sample() {
        let models = [
            LatencyModel::Fixed { ticks: 7 },
            LatencyModel::Fixed { ticks: 0 },
            LatencyModel::Uniform { lo: 3, hi: 9 },
            LatencyModel::Uniform { lo: 9, hi: 3 },
            LatencyModel::Uniform { lo: 0, hi: 2 },
            LatencyModel::Skewed { mean: 12 },
            LatencyModel::Bimodal {
                fast_lo: 2,
                fast_hi: 5,
                slow_lo: 40,
                slow_hi: 80,
                slow_prob: 0.3,
            },
            LatencyModel::Distance {
                base: 4,
                per_hop: 3,
            },
            LatencyModel::Distance {
                base: 0,
                per_hop: 3,
            },
        ];
        let mut r = rng();
        for m in &models {
            let lo = m.min_delay();
            assert!(lo >= 1, "{m:?} min_delay below 1");
            for i in 0..500 {
                let d = m.sample(&mut r, NodeId(i % 7), NodeId((i * 3) % 7));
                assert!(d >= lo, "{m:?} sampled {d} below min_delay {lo}");
            }
        }
    }

    #[test]
    fn min_delay_exact_values() {
        assert_eq!(LatencyModel::Fixed { ticks: 7 }.min_delay(), 7);
        assert_eq!(LatencyModel::Fixed { ticks: 0 }.min_delay(), 1);
        assert_eq!(LatencyModel::Uniform { lo: 9, hi: 3 }.min_delay(), 3);
        assert_eq!(LatencyModel::Skewed { mean: 100 }.min_delay(), 1);
        assert_eq!(
            LatencyModel::Bimodal {
                fast_lo: 6,
                fast_hi: 9,
                slow_lo: 2,
                slow_hi: 80,
                slow_prob: 0.5,
            }
            .min_delay(),
            2
        );
        assert_eq!(
            LatencyModel::Distance {
                base: 5,
                per_hop: 9
            }
            .min_delay(),
            5
        );
    }

    #[test]
    fn wan_preset_has_multi_tick_floor() {
        assert!(LatencyModel::wan().min_delay() >= 2);
        let mut r = rng();
        for _ in 0..200 {
            let d = LatencyModel::wan().sample(&mut r, NodeId(0), NodeId(1));
            assert!((3..=12).contains(&d));
        }
    }

    /// The draw-site guard must trip on a model whose samples undercut
    /// its declared `min_delay` — that lie is otherwise invisible until a
    /// sharded trace silently diverges.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below its declared min_delay")]
    fn draw_site_guard_catches_lying_model() {
        let mut r = rng();
        let m = LatencyModel::Lying { claimed: 5 };
        let _ = m.sample(&mut r, NodeId(0), NodeId(1));
    }

    #[test]
    fn uniform_respects_bounds_even_if_swapped() {
        let mut r = rng();
        let m = LatencyModel::Uniform { lo: 20, hi: 5 };
        for _ in 0..200 {
            let d = m.sample(&mut r, NodeId(0), NodeId(1));
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
            let d = m.sample(&mut r, NodeId(0), NodeId(1));
            if d <= 2 {
                fast += 1;
            } else {
                assert!((100..=200).contains(&d));
                slow += 1;
            }
        }
        assert!(fast > 0 && slow > 0);
    }

    #[test]
    fn distance_scales_with_hops() {
        let mut r = rng();
        let m = LatencyModel::Distance {
            base: 2,
            per_hop: 3,
        };
        assert_eq!(m.sample(&mut r, NodeId(1), NodeId(4)), 2 + 3 * 3);
        assert_eq!(m.sample(&mut r, NodeId(4), NodeId(1)), 2 + 3 * 3);
        assert_eq!(m.sample(&mut r, NodeId(2), NodeId(2)), 2);
    }

    #[test]
    fn skewed_stays_finite() {
        let mut r = rng();
        let m = LatencyModel::Skewed { mean: 8 };
        for _ in 0..1000 {
            assert!(m.sample(&mut r, NodeId(0), NodeId(1)) <= 128);
        }
    }
}
