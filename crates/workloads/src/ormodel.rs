//! Workloads for the OR (communication) model: scripted knots and random
//! block/send scenarios.

use simnet::rng::DetRng;

/// One scripted OR-model action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrAction {
    /// At `at`, process `who` blocks on `deps` (skipped by drivers if the
    /// process happens to be blocked already).
    Block {
        /// Action time.
        at: u64,
        /// The blocking process.
        who: usize,
        /// Its dependent set.
        deps: Vec<usize>,
    },
    /// At `at`, process `who` sends application data to `to` (skipped if
    /// blocked).
    Send {
        /// Action time.
        at: u64,
        /// Sender.
        who: usize,
        /// Recipient.
        to: usize,
    },
}

impl OrAction {
    /// The action's scheduled time.
    pub fn at(&self) -> u64 {
        match self {
            OrAction::Block { at, .. } | OrAction::Send { at, .. } => *at,
        }
    }
}

/// Parameters for [`random_or_scenario`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrScenarioConfig {
    /// Number of processes.
    pub n: usize,
    /// Number of scripted actions.
    pub actions: usize,
    /// Mean gap between actions (ticks).
    pub mean_gap: u64,
    /// Probability that an action is a block (else a send).
    pub block_prob: f64,
    /// Dependent-set size range (inclusive).
    pub deps_min: usize,
    /// Upper bound of the dependent-set size.
    pub deps_max: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for OrScenarioConfig {
    fn default() -> Self {
        OrScenarioConfig {
            n: 10,
            actions: 60,
            mean_gap: 20,
            block_prob: 0.6,
            deps_min: 1,
            deps_max: 3,
            seed: 0,
        }
    }
}

/// Generates a random sequence of block/send actions. Drivers skip
/// actions that are illegal at execution time (blocking while blocked,
/// sending while blocked), so the same script is replayable against any
/// run dynamics.
pub fn random_or_scenario(cfg: &OrScenarioConfig) -> Vec<OrAction> {
    assert!(cfg.n >= 2 && cfg.deps_min >= 1 && cfg.deps_min <= cfg.deps_max);
    assert!(
        cfg.deps_max < cfg.n,
        "dependent set must exclude the process"
    );
    let mut rng = DetRng::seed_from_u64(cfg.seed);
    let mut out = Vec::with_capacity(cfg.actions);
    let mut t = 0u64;
    for _ in 0..cfg.actions {
        t += rng.range_inclusive(1, cfg.mean_gap * 2);
        let who = rng.next_below(cfg.n as u64) as usize;
        if rng.chance(cfg.block_prob) {
            let k = rng.range_inclusive(cfg.deps_min as u64, cfg.deps_max as u64) as usize;
            let mut deps = Vec::new();
            let mut guard = 0;
            while deps.len() < k && guard < 100 {
                guard += 1;
                let d = rng.next_below(cfg.n as u64) as usize;
                if d != who && !deps.contains(&d) {
                    deps.push(d);
                }
            }
            deps.sort_unstable();
            out.push(OrAction::Block { at: t, who, deps });
        } else {
            let mut to = rng.next_below(cfg.n as u64) as usize;
            if to == who {
                to = (to + 1) % cfg.n;
            }
            out.push(OrAction::Send { at: t, who, to });
        }
    }
    out
}

/// A ring knot: process `i` blocks on `{i+1 mod k}` at time zero — the
/// minimal OR-deadlock.
pub fn or_ring(k: usize) -> Vec<OrAction> {
    assert!(k >= 2);
    (0..k)
        .map(|i| OrAction::Block {
            at: 0,
            who: i,
            deps: vec![(i + 1) % k],
        })
        .collect()
}

/// Replays a scripted scenario against an [`cmh_core::ormodel::OrNet`],
/// skipping actions that are illegal at execution time. Returns how many
/// actions were applied.
pub fn drive_or(net: &mut cmh_core::ormodel::OrNet, actions: &[OrAction]) -> usize {
    use simnet::sim::NodeId;
    use simnet::time::SimTime;
    let mut applied = 0;
    for act in actions {
        net.run_until(SimTime::from_ticks(act.at()));
        let ok = match act {
            OrAction::Block { who, deps, .. } => net
                .block_on(NodeId(*who), deps.iter().map(|&d| NodeId(d)))
                .is_ok(),
            OrAction::Send { who, to, .. } => net.send_data(NodeId(*who), NodeId(*to)).is_ok(),
        };
        if ok {
            applied += 1;
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_seed_stable_and_well_formed() {
        let cfg = OrScenarioConfig {
            seed: 5,
            ..OrScenarioConfig::default()
        };
        let a = random_or_scenario(&cfg);
        assert_eq!(a, random_or_scenario(&cfg));
        assert!(!a.is_empty());
        let mut last = 0;
        for act in &a {
            assert!(act.at() >= last);
            last = act.at();
            if let OrAction::Block { who, deps, .. } = act {
                assert!(!deps.is_empty() && deps.len() <= 3);
                assert!(!deps.contains(who));
            }
            if let OrAction::Send { who, to, .. } = act {
                assert_ne!(who, to);
            }
        }
    }

    #[test]
    fn ring_shape() {
        let r = or_ring(3);
        assert_eq!(r.len(), 3);
        assert_eq!(
            r[2],
            OrAction::Block {
                at: 0,
                who: 2,
                deps: vec![0]
            }
        );
    }

    #[test]
    #[should_panic(expected = "exclude the process")]
    fn oversized_dependent_sets_rejected() {
        random_or_scenario(&OrScenarioConfig {
            n: 3,
            deps_max: 3,
            ..OrScenarioConfig::default()
        });
    }
}
