//! Runs one workload: a fresh-input unit whose timings are discarded,
//! then whole cycles over the workload's fixed panel of inputs until the
//! time budget is spent, with the determinism self-check and the
//! aggregation into named metrics.
//!
//! Why a fixed panel. The randomised simulator workloads are chaotic in
//! their seed: one `basic_churn` schedule runs at 122 k events/s and the
//! next at 187 k, one `ddb_resolve` seed at 28 k and the next at 79 k
//! (README, "Baseline facts"). A panel small enough to fit the budget
//! but redrawn from every `--seed` moves the result by more than any
//! bound worth gating on, so the timed inputs are a fixed, vetted panel
//! and `--seed` supplies what is new in each run: the input of the first
//! unit — every check runs on it, its timings are dropped as warm-up —
//! and the order of the panel.
//!
//! Why piece by piece. The host is shared: code that touches memory runs
//! up to half again as slow while a neighbour is busy, for half a minute
//! to minutes at a time (README, "Noise"). A unit is therefore cut into
//! short pieces, every repetition of an input repeats every piece, and
//! what is kept of each piece is the repetition in which it ran fastest.
//! The unit stitched together from those is the unit as it runs when
//! nothing disturbs it — which is what a change to the code moves — as
//! long as the run saw some quiet time at all.

use std::collections::BTreeMap;
use std::time::Instant;

use simnet::rng::DetRng;

use crate::spec::{Estimator, Workload};
use crate::stats::{low, median, midmean, quantile};
use crate::trace::Recorder;
use crate::{Sizes, Unit};

/// Seed of every workload's panel; changing it re-bases every number.
const PANEL_SEED: u64 = 0x1982_C4A5;

/// Candidate inputs per workload: the panel is the head of them, and on a
/// vetted workload the fresh input is one of the rest.
const CANDIDATES: usize = 64;

/// Everything one pass over a workload measured.
pub struct Pass {
    /// Measured units in run order; unit `i` ran panel input `i % panel`
    /// in cycle `i / panel`.
    pub units: Vec<Unit>,
    /// Wall seconds of each measured unit, set-up and teardown included.
    unit_wall_s: Vec<f64>,
    panel: usize,
    estimator: Estimator,
    /// Resolution of the wait samples, µs (see [`quantile`]).
    wait_quantum_us: f64,
    /// Exact counters summed over one cycle of the panel.
    pub counts: BTreeMap<&'static str, u64>,
    /// `VmHWM` after the fresh unit and the first cycle: the same work in
    /// every run, however many more cycles the budget allowed.
    pub peak_rss_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub recorder: Recorder,
}

/// `n` input seeds for `w` drawn from `from`, forked per workload name so
/// no two workloads share inputs.
fn derive_seeds(w: &Workload, from: u64, n: usize) -> Vec<u64> {
    let stream = w
        .name
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131) + u64::from(b));
    let mut rng = DetRng::seed_from_u64(from).fork(stream);
    // Small seeds stay readable in failure messages.
    (0..n).map(|_| rng.next_below(1 << 32)).collect()
}

/// The inputs vetted at authoring time: the panel first.
fn candidates(w: &Workload) -> Vec<u64> {
    derive_seeds(w, PANEL_SEED, CANDIDATES)
}

/// The run's own input. Where any input passes the checks it is drawn
/// from `--seed`; on a vetted workload `--seed` picks one of the
/// candidates beyond the panel that passed when vetted.
fn fresh_input(w: &Workload, seed: u64) -> u64 {
    let Some(rejects) = w.vetted else {
        return derive_seeds(w, seed, 1)[0];
    };
    let pool: Vec<u64> = candidates(w)
        .into_iter()
        .skip(w.panel)
        .filter(|input| !rejects.contains(input))
        .collect();
    pool[(seed % pool.len() as u64) as usize]
}

/// `--vet`: runs every candidate of `w` once and prints the ones that
/// fail a check. Passes when they are exactly the workload's committed
/// reject list and none of them is a panel input.
pub fn vet(w: &Workload, sizes: &Sizes) -> bool {
    let mut rejects = Vec::new();
    for (i, input) in candidates(w).into_iter().enumerate() {
        let unit = (w.unit)(input, sizes, &mut Recorder::new(false));
        for f in &unit.failures {
            println!("candidate {i} input {input}: {f}");
        }
        if unit.failed > 0 {
            rejects.push(input);
        }
    }
    println!("{} rejects of {CANDIDATES}: {rejects:?}", w.name);
    let panel_ok = candidates(w)[..w.panel]
        .iter()
        .all(|input| !rejects.contains(input));
    panel_ok && w.vetted.unwrap_or(&[]) == rejects
}

/// A traced pass records spans on every odd cycle and leaves the even
/// ones untraced, so the two sides of `trace.overhead_share` see the
/// same inputs under the same drift of the machine.
pub fn run_pass(w: &Workload, seed: u64, seconds: f64, sizes: &Sizes, traced: bool) -> Pass {
    let panel = if sizes.smoke { 1 } else { w.panel };
    let mut inputs = candidates(w);
    inputs.truncate(panel);
    inputs.rotate_left((seed % panel as u64) as usize);
    let started = Instant::now();
    let mut pass = Pass {
        units: Vec::new(),
        unit_wall_s: Vec::new(),
        panel,
        estimator: w.estimator,
        // The harness times simulator calls itself; `loadgen` truncates
        // to whole microseconds.
        wait_quantum_us: if w.deterministic { 0.0 } else { 1.0 },
        counts: BTreeMap::new(),
        peak_rss_bytes: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        recorder: Recorder::new(false),
    };

    // The run's own input: checked like any other unit, never timed, so
    // it also absorbs the cold page cache and allocator.
    let unit = (w.unit)(fresh_input(w, seed), sizes, &mut Recorder::new(false));
    pass.absorb_checks(&unit);

    // Two cycles at least: to see every panel input twice and compare
    // its counters and pieces, and to have a traced cycle.
    let mut first: Vec<(Vec<(&'static str, u64)>, usize)> = Vec::new();
    for cycle in 0.. {
        let cycle_started = Instant::now();
        for (slot, &input) in inputs.iter().enumerate() {
            pass.recorder
                .set_rep(pass.units.len(), traced && cycle % 2 == 1);
            let (unit, wall) = pass
                .recorder
                .span("unit", |rec| (w.unit)(input, sizes, rec));
            pass.absorb_checks(&unit);
            if cycle == 0 {
                for &(k, v) in &unit.counts {
                    *pass.counts.entry(k).or_default() += v;
                }
                first.push((unit.counts.clone(), unit.pieces.len()));
            } else if w.deterministic {
                pass.attempted += 1;
                if first[slot].0 != unit.counts || first[slot].1 != unit.pieces.len() {
                    pass.failed += 1;
                    pass.failures.push(format!(
                        "determinism: input {input} gave {:?} then {:?} in {} pieces",
                        first[slot],
                        unit.counts,
                        unit.pieces.len()
                    ));
                }
            }
            pass.unit_wall_s.push(wall);
            pass.units.push(unit);
        }
        if cycle == 0 {
            pass.peak_rss_bytes = peak_rss_bytes();
        }
        let next_ends = started.elapsed() + cycle_started.elapsed();
        if cycle >= 1 && next_ends.as_secs_f64() > seconds {
            break;
        }
    }
    pass
}

impl Pass {
    fn absorb_checks(&mut self, unit: &Unit) {
        self.attempted += unit.attempted;
        self.failed += unit.failed;
        self.failures.extend(unit.failures.iter().cloned());
    }

    /// The repetitions of panel input `slot`.
    fn reps(&self, slot: usize) -> Vec<&Unit> {
        self.units
            .chunks(self.panel)
            .map(|cycle| &cycle[slot])
            .collect()
    }

    /// [`low`] of `f` over the repetitions of `slot`.
    fn low_of(&self, slot: usize, f: impl Fn(&Unit) -> f64) -> f64 {
        let xs: Vec<f64> = self.reps(slot).into_iter().map(f).collect();
        low(&xs)
    }

    /// One undisturbed cycle of the panel, stitched together: of every
    /// piece of every input, the repetition in which it ran fastest —
    /// its seconds summed, its wait samples collected. A repetition with
    /// a different number of pieces (a determinism failure on the
    /// simulator, lost work on the service; both reported as failures)
    /// is left out.
    fn stitched(&self) -> (f64, Vec<f64>) {
        let (mut seconds, mut waits) = (0.0, Vec::new());
        for slot in 0..self.panel {
            let reps = self.reps(slot);
            let n = reps[0].pieces.len();
            let reps: Vec<_> = reps.into_iter().filter(|u| u.pieces.len() == n).collect();
            for i in 0..n {
                let best = reps
                    .iter()
                    .min_by(|a, b| a.pieces[i].s.total_cmp(&b.pieces[i].s))
                    .expect("at least one repetition");
                seconds += best.pieces[i].s;
                waits.extend_from_slice(&best.waits_us[best.pieces[i].waits.clone()]);
            }
        }
        (seconds, waits)
    }

    /// Every `extra` value the units reported, by name: the median over
    /// the units that have it.
    pub fn extras(&self) -> Vec<(&'static str, f64)> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for &(name, v) in self.units.iter().flat_map(|u| &u.extra) {
            by_name.entry(name).or_default().push(v);
        }
        by_name
            .into_iter()
            .map(|(name, xs)| (name, median(&xs)))
            .collect()
    }

    /// Set-up seconds of one unit: per input, averaged over the panel.
    pub fn setup_s(&self) -> f64 {
        let per_input = (0..self.panel).map(|slot| self.low_of(slot, |u| u.setup_s));
        per_input.sum::<f64>() / self.panel as f64
    }

    /// `f` summed over one cycle of the panel (the mean cycle when the
    /// workload's outcome varies between repetitions).
    fn cycle_sum(&self, f: impl Fn(&Unit) -> u64) -> f64 {
        let all: u64 = self.units.iter().map(f).sum();
        all as f64 * self.panel as f64 / self.units.len() as f64
    }

    /// Timed seconds of one cycle of the panel.
    fn cycle_timed_s(&self) -> f64 {
        match self.estimator {
            Estimator::Stitched => self.stitched().0,
            // The typical stretch of completions, of every repetition's
            // every stretch, scaled to a cycle's completions. The mean of
            // the middle half: stretch times cluster by how many deadlocks
            // a stretch met, and the median jumps between clusters.
            Estimator::TypicalStretch => {
                let per_txn: Vec<f64> = self
                    .units
                    .iter()
                    .flat_map(|u| &u.pieces)
                    .filter(|p| p.done > 0)
                    .map(|p| p.s / f64::from(p.done))
                    .collect();
                midmean(&per_txn) * self.cycle_sum(|u| u.txns)
            }
        }
    }

    /// Work of one panel cycle over the time of one panel cycle: the
    /// throughput of the panel as a whole, slow inputs weighing what
    /// they cost.
    pub fn work_per_s(&self) -> f64 {
        self.cycle_sum(|u| u.work) / self.cycle_timed_s()
    }

    /// Committed transactions per second; `None` where there are none.
    pub fn txn_per_s(&self) -> Option<f64> {
        let txns = self.cycle_sum(|u| u.txns);
        (txns > 0.0).then(|| txns / self.cycle_timed_s())
    }

    /// `(p50, p99, samples)` of what a closed-loop caller waits: the
    /// samples of the stitched cycle — blocking calls on the simulator,
    /// request→`Granted` on the service — or, on `svc_contended`, the
    /// request→Declare latencies of every repetition.
    pub fn wait_quantiles_us(&self) -> (f64, f64, usize) {
        match self.estimator {
            Estimator::Stitched => {
                let mut waits = self.stitched().1;
                let p50 = quantile(&mut waits, 0.50, self.wait_quantum_us);
                let p99 = quantile(&mut waits, 0.99, self.wait_quantum_us);
                (p50, p99, waits.len())
            }
            Estimator::TypicalStretch => self.declare_quantiles_us().unwrap_or((0.0, 0.0, 0)),
        }
    }

    /// `(p50, p99, samples)` of the request→Declare latencies pooled over
    /// all units; `None` on workloads that declare nothing to a client.
    pub fn declare_quantiles_us(&self) -> Option<(f64, f64, usize)> {
        let mut all: Vec<f64> = self
            .units
            .iter()
            .flat_map(|u| u.declare_us.iter().copied())
            .collect();
        if all.is_empty() {
            return None;
        }
        let p50 = quantile(&mut all, 0.50, self.wait_quantum_us);
        let p99 = quantile(&mut all, 0.99, self.wait_quantum_us);
        Some((p50, p99, all.len()))
    }

    /// Wall seconds of one panel cycle over the even (untraced) or the
    /// odd (traced) cycles of a traced pass.
    pub fn cycle_wall_s(&self, odd: bool) -> f64 {
        (0..self.panel)
            .map(|slot| {
                let walls: Vec<f64> = self
                    .unit_wall_s
                    .chunks(self.panel)
                    .enumerate()
                    .filter(|(cycle, _)| (cycle % 2 == 1) == odd)
                    .map(|(_, cycle)| cycle[slot])
                    .collect();
                low(&walls)
            })
            .sum()
    }
}

/// Peak resident set of this process (`VmHWM`), bytes.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn rejects_are_candidates_beyond_the_panel() {
        for w in WORKLOADS {
            let all = candidates(w);
            for r in w.vetted.unwrap_or(&[]) {
                assert!(all[w.panel..].contains(r), "{} reject {r}", w.name);
                assert!((0..CANDIDATES as u64).all(|seed| fresh_input(w, seed) != *r));
            }
        }
    }
}
