//! Property-based tests of the OR-model detector: for arbitrary scripted
//! block/send scenarios, declarations are sound (journal-verified) and
//! every OR-deadlocked knot has a declarer.

use cmh_core::ormodel::OrNet;
use proptest::prelude::*;
use simnet::sim::NodeId;
use wfg::oracle::Oracle;
use wfg::WaitForGraph;
use workloads::{drive_or, random_or_scenario, OrScenarioConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn or_detector_sound_and_complete(
        seed in 0u64..10_000,
        n in 3usize..12,
        actions in 20usize..80,
        block_prob in 0.3f64..0.85,
        mean_gap in 5u64..40,
    ) {
        let cfg = OrScenarioConfig {
            n,
            actions,
            mean_gap,
            block_prob,
            deps_min: 1,
            deps_max: 2.min(n - 1),
            seed,
        };
        let mut net = OrNet::new(n, Some(30), seed);
        drive_or(&mut net, &random_or_scenario(&cfg));
        net.run_to_quiescence(20_000_000);
        net.verify_soundness().map_err(|e| TestCaseError::fail(e.to_string()))?;
        net.verify_completeness().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    /// The ground-truth oracle itself: a closure that contains any active
    /// process is never deadlocked; a fully blocked closed set always is.
    /// `Oracle::or_deadlocked` over the drawn state's wait-for graph (one
    /// grey edge per dependency) is checked against that definition.
    #[test]
    fn oracle_closure_properties(
        edges in proptest::collection::vec((0usize..8, 0usize..8), 1..24),
        blocked_mask in 0u8..=255,
    ) {
        use std::collections::{BTreeMap, BTreeSet};
        // Build a dependency state: node v blocked iff bit set AND it has
        // at least one dependency; deps from the edge list.
        let mut deps: BTreeMap<usize, BTreeSet<NodeId>> = BTreeMap::new();
        for &(a, b) in &edges {
            if a != b {
                deps.entry(a).or_default().insert(NodeId(b));
            }
        }
        let mut state: BTreeMap<NodeId, Option<BTreeSet<NodeId>>> = BTreeMap::new();
        let mut g = WaitForGraph::new();
        for v in 0..8usize {
            let blocked = (blocked_mask >> v) & 1 == 1;
            match deps.get(&v) {
                Some(d) if blocked => {
                    for &u in d {
                        g.create_grey(NodeId(v), u).expect("fresh edge");
                    }
                    state.insert(NodeId(v), Some(d.clone()));
                }
                _ => {
                    state.insert(NodeId(v), None);
                }
            }
        }
        let stuck = Oracle::new().or_deadlocked(&g).clone();
        for v in 0..8usize {
            let v = NodeId(v);
            // By definition: the dependency closure must be all blocked.
            let mut closure = BTreeSet::new();
            let mut frontier = vec![v];
            let mut all_blocked = true;
            while let Some(u) = frontier.pop() {
                if !closure.insert(u) {
                    continue;
                }
                match &state[&u] {
                    Some(d) => frontier.extend(d.iter().copied()),
                    None => {
                        all_blocked = false;
                        break;
                    }
                }
            }
            prop_assert_eq!(stuck.contains(&v), all_blocked, "vertex {}", v);
        }
    }
}
