//! E10 — the companion communication-model (OR) detector.
//!
//! §7 of the paper leaves "algorithms for different types of distributed
//! systems" as future work; its reference \[1\] supplies the OR-model
//! algorithm, implemented in `cmh_core::ormodel`. This experiment checks
//! its headline numbers:
//!
//! * a deadlocked knot is detected with at most one query and one reply
//!   per dependency edge per computation (the CMH-83 bound);
//! * a single *active* process reachable from the initiator suppresses
//!   the declaration (the OR semantics: any one sender can rescue);
//! * Monte-Carlo random block/send scenarios show zero false and zero
//!   missed OR-deadlocks (both machine-checked against the journal).
//!
//! With `CMH_SHARDS=S` every run is on `S` shards; the tables are
//! byte-identical at any `S`.

use cmh_bench::sweep::shards_from_env;
use cmh_bench::Table;
use cmh_core::ormodel::{counters, OrNet};
use simnet::sim::{NodeId, SimBuilder};
use workloads::{drive_or, random_or_scenario, OrScenarioConfig};

fn ring(net: &mut OrNet, k: usize) {
    for i in 0..k {
        net.block_on(NodeId(i), [NodeId((i + 1) % k)]).unwrap();
    }
}

fn complete_knot(net: &mut OrNet, k: usize) {
    for i in 0..k {
        let deps: Vec<NodeId> = (0..k).filter(|&j| j != i).map(NodeId).collect();
        net.block_on(NodeId(i), deps).unwrap();
    }
}

fn or_net(n: usize, init_delay: Option<u64>, seed: u64, shards: usize) -> OrNet {
    OrNet::with_builder(n, init_delay, SimBuilder::new().seed(seed).shards(shards))
}

fn part_a(shards: usize) {
    println!("## Part A: deterministic knots, message bounds\n");
    let mut t = Table::new([
        "scenario",
        "n",
        "dependency edges",
        "queries",
        "replies",
        "declared",
        "sound",
    ]);
    for k in [2usize, 4, 8, 16, 32] {
        let mut net = or_net(k, None, k as u64, shards);
        ring(&mut net, k);
        net.initiate(NodeId(0));
        net.run_to_quiescence(10_000_000);
        let q = net.metrics().get(counters::QUERY_SENT);
        let r = net.metrics().get(counters::REPLY_SENT);
        assert!(q <= k as u64 && r <= k as u64, "message bound violated");
        assert!(!net.declarations().is_empty(), "ring({k}) not detected");
        net.verify_soundness().expect("sound");
        t.row([
            format!("ring({k})"),
            k.to_string(),
            k.to_string(),
            q.to_string(),
            r.to_string(),
            net.declarations().len().to_string(),
            "yes".to_string(),
        ]);
    }
    for k in [4usize, 8, 12] {
        let mut net = or_net(k, None, k as u64, shards);
        complete_knot(&mut net, k);
        net.initiate(NodeId(0));
        net.run_to_quiescence(10_000_000);
        let edges = k * (k - 1);
        let q = net.metrics().get(counters::QUERY_SENT);
        let r = net.metrics().get(counters::REPLY_SENT);
        assert!(
            q <= edges as u64 && r <= edges as u64,
            "message bound violated"
        );
        assert!(!net.declarations().is_empty(), "complete({k}) not detected");
        net.verify_soundness().expect("sound");
        t.row([
            format!("complete({k})"),
            k.to_string(),
            edges.to_string(),
            q.to_string(),
            r.to_string(),
            net.declarations().len().to_string(),
            "yes".to_string(),
        ]);
    }
    // A knot with a single active escape hatch: must NOT declare.
    for k in [4usize, 8] {
        let mut net = or_net(k + 1, None, 3, shards);
        for i in 0..k {
            let mut deps = vec![NodeId((i + 1) % k)];
            if i == k / 2 {
                deps.push(NodeId(k)); // the active saviour
            }
            net.block_on(NodeId(i), deps).unwrap();
        }
        net.initiate(NodeId(0));
        net.run_to_quiescence(10_000_000);
        assert!(net.declarations().is_empty(), "escape hatch ignored");
        t.row([
            format!("ring({k})+escape"),
            (k + 1).to_string(),
            (k + 1).to_string(),
            net.metrics().get(counters::QUERY_SENT).to_string(),
            net.metrics().get(counters::REPLY_SENT).to_string(),
            "0 (correct)".to_string(),
            "yes".to_string(),
        ]);
    }
    t.print();
}

fn part_b(shards: usize) {
    println!("## Part B: Monte-Carlo random block/send scenarios (120 seeds)\n");
    let mut reports = 0usize;
    let mut deadlocked = 0usize;
    for seed in 0..120u64 {
        let scenario = random_or_scenario(&OrScenarioConfig {
            n: 10,
            actions: 60,
            mean_gap: 20,
            block_prob: 0.6,
            deps_min: 1,
            deps_max: 3,
            seed,
        });
        let mut net = or_net(10, Some(25), seed, shards);
        drive_or(&mut net, &scenario);
        net.run_to_quiescence(10_000_000);
        reports += net
            .verify_soundness()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        deadlocked += net
            .verify_completeness()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    let mut t = Table::new([
        "runs",
        "declarations",
        "false",
        "OR-deadlocked processes",
        "missed",
    ]);
    t.row([
        "120".to_string(),
        reports.to_string(),
        "0".to_string(),
        deadlocked.to_string(),
        "0".to_string(),
    ]);
    t.print();
}

fn main() {
    let shards = shards_from_env();
    println!("# E10: OR-model (communication deadlock) detector\n");
    if shards > 1 {
        println!("(CMH_SHARDS={shards}: sharded engine)\n");
    }
    part_a(shards);
    part_b(shards);
    println!("claim check: knots detected within one query + one reply per edge; an");
    println!("active escape suppresses declaration; random scenarios show zero false and");
    println!("zero missed OR-deadlocks (machine-checked). PASS");
}
