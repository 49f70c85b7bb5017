//! # workloads — seeded scenario generators for the evaluation
//!
//! Everything the experiments and examples run is generated here, from
//! explicit seeds, so every number in `EXPERIMENTS.md` is reproducible:
//!
//! * [`basic`] — request/reply schedules for the basic model and the
//!   baseline detectors (random churn, cycle injection, fixed topologies),
//!   plus a driver that replays one schedule against any harness;
//! * [`ddb`] — multi-site transaction workloads for the §6 model (random
//!   transactions with contention knobs, dining philosophers, bank
//!   transfers);
//! * [`ormodel`] — block/send scenarios for the companion OR-model
//!   detector (knots, random communication patterns).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod basic;
pub mod ddb;
pub mod ormodel;

pub use basic::{
    acyclic_churn, drive_schedule, random_churn, topology_schedule, ChurnConfig, Schedule,
};
pub use ddb::{
    bank_transfers, dining_philosophers, random_transactions, DdbWorkloadConfig, TimedTxn,
};
pub use ormodel::{drive_or, or_ring, random_or_scenario, OrAction, OrScenarioConfig};

use simnet::rng::DetRng;

/// Samples the gap before the next arrival: an exponential with the given
/// mean, rounded up and clamped to `[1, 16 * mean]`, so arrivals come in
/// bursts and lulls but every gap is finite.
pub(crate) fn arrival_gap(rng: &mut DetRng, mean: u64) -> u64 {
    let mean = mean.max(1);
    let u = rng.unit_f64().max(f64::MIN_POSITIVE);
    let d = (-u.ln() * mean as f64).ceil() as u64;
    d.clamp(1, mean.saturating_mul(16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_gap_bounds() {
        let mut rng = DetRng::seed_from_u64(13);
        for _ in 0..1000 {
            let d = arrival_gap(&mut rng, 10);
            assert!((1..=160).contains(&d));
        }
    }
}
