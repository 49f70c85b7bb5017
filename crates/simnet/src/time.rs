//! Virtual time for the discrete-event simulator.
//!
//! Time is a monotone `u64` tick counter with no particular physical unit;
//! experiments interpret one tick as roughly one microsecond of network
//! time. The paper's axioms only require that message delays are *finite*
//! (P4) and that delivery is ordered, both of which are properties of the
//! scheduler, not of the unit.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in virtual time.
///
/// # Examples
///
/// ```
/// use simnet::time::SimTime;
///
/// let t = SimTime::ZERO + 5;
/// assert_eq!(t.ticks(), 5);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);

    /// The greatest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from a raw tick count.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Returns the raw tick count.
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating difference `self - earlier`, zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_add(rhs))
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, rhs: u64) {
        self.0 = self.0.saturating_add(rhs);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;

    fn sub(self, rhs: SimTime) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("SimTime subtraction underflow")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl From<u64> for SimTime {
    fn from(ticks: u64) -> Self {
        SimTime(ticks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_ticks(10);
        let b = a + 5;
        assert_eq!(b.ticks(), 15);
        assert_eq!(b - a, 5);
        assert!(b > a);
        assert_eq!(b.since(a), 5);
        assert_eq!(a.since(b), 0);
    }

    #[test]
    fn add_saturates_at_horizon() {
        assert_eq!(SimTime::MAX + 1, SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::ZERO - SimTime::from_ticks(1);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(SimTime::from_ticks(7).to_string(), "t=7");
    }
}
