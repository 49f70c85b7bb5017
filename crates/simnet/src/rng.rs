//! Deterministic pseudo-random number generation for simulations.
//!
//! The simulator deliberately does **not** use the `rand` crate for its own
//! internal randomness: simulation determinism must survive dependency
//! upgrades, and the experiments in `EXPERIMENTS.md` quote seeds. The
//! generator here is xoshiro256++ seeded through SplitMix64, both of which
//! are fixed, published algorithms.
//!
//! # Examples
//!
//! ```
//! use simnet::rng::DetRng;
//!
//! let mut a = DetRng::seed_from_u64(42);
//! let mut b = DetRng::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// A deterministic xoshiro256++ generator.
///
/// Two generators created with the same seed produce identical streams on
/// every platform. Substreams for independent simulation components can be
/// split off with [`DetRng::fork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded to the full 256-bit state with SplitMix64, as
    /// recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Returns the next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Splits off an independent generator for a named substream.
    ///
    /// Forking with distinct `stream` values yields generators whose outputs
    /// are statistically independent of each other and of `self`'s future
    /// output (self is not advanced).
    pub fn fork(&self, stream: u64) -> Self {
        // Mix the current state with the stream id through SplitMix64 so
        // that forks of forks stay decorrelated.
        let mut sm =
            self.s[0] ^ self.s[2].rotate_left(17) ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Returns a uniformly distributed integer in `[0, bound)`.
    ///
    /// Uses Lemire's unbiased multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        // Lemire rejection sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range: {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(span + 1)
    }

    /// Returns `true` with probability `p`.
    ///
    /// `p` is clamped to `[0, 1]`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53-bit precision is ample for workload probabilities.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Shuffles `slice` in place with the Fisher–Yates algorithm.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

impl Default for DetRng {
    fn default() -> Self {
        DetRng::seed_from_u64(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = DetRng::seed_from_u64(99);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.next_below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn next_below_zero_panics() {
        DetRng::seed_from_u64(0).next_below(0);
    }

    #[test]
    fn range_inclusive_endpoints_reachable() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            match rng.range_inclusive(5, 8) {
                5 => lo_seen = true,
                8 => hi_seen = true,
                v => assert!((5..=8).contains(&v)),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn range_inclusive_full_domain_does_not_panic() {
        let mut rng = DetRng::seed_from_u64(11);
        let _ = rng.range_inclusive(0, u64::MAX);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::seed_from_u64(4);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = DetRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn fork_streams_are_decorrelated() {
        let root = DetRng::seed_from_u64(10);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_reproducible() {
        let root = DetRng::seed_from_u64(10);
        let mut a = root.fork(9);
        let mut b = root.fork(9);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seed_from_u64(21);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
