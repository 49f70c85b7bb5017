//! E11 — ablations of two design choices DESIGN.md calls out.
//!
//! **Part A: per-initiator computation window (DDB).** §4.3 literally says
//! a vertex tracks only the *latest* computation per initiator. A §6.7
//! controller initiates Q **concurrent** computations; with a window of 1,
//! receivers cancel Q−1 of them, and detection coverage degrades. We sweep
//! the window on a workload with several simultaneous cross-site
//! deadlocks and count completeness failures.
//!
//! **Part B: A2's forward-once rule (basic model).** Forwarding on *every*
//! meaningful probe keeps QRP2 (each declaration is still certified) but
//! destroys the termination/message bound: on branching graphs probes
//! multiply at every hop. We run the same topology under both policies
//! with an event cap and compare probe counts.

use cmh_bench::Table;
use cmh_core::{BasicConfig, BasicNet, ForwardPolicy};
use cmh_ddb::{DdbConfig, DdbNet};
use simnet::time::SimTime;
use wfg::generators;

/// `r` independent cross-site 2-transaction deadlocks, all through the
/// same two controllers: each controller ends up with `Q = r` processes
/// holding incoming black inter-controller edges, so each §6.7 sweep
/// initiates `r` **concurrent** computations.
fn parallel_rings(db: &mut DdbNet, r: u32) {
    use cmh_ddb::{LockMode, ResourceId, SiteId, Transaction, TransactionId};
    for i in 0..r {
        let a = Transaction::new(TransactionId(2 * i + 1), SiteId(0))
            .lock(SiteId(0), ResourceId(i as u64), LockMode::Exclusive)
            .work(10)
            .lock(SiteId(1), ResourceId(i as u64), LockMode::Exclusive);
        let b = Transaction::new(TransactionId(2 * i + 2), SiteId(1))
            .lock(SiteId(1), ResourceId(i as u64), LockMode::Exclusive)
            .work(10)
            .lock(SiteId(0), ResourceId(i as u64), LockMode::Exclusive);
        db.submit(a);
        db.submit(b);
    }
}

fn part_a() {
    const R: u32 = 8;
    const PERIOD: u64 = 200;
    println!(
        "## Part A: DDB computation window sweep ({R} concurrent deadlocks, period {PERIOD})\n"
    );
    let mut t = Table::new([
        "window",
        "declared after 2 periods",
        "after 5 periods",
        "after 20 periods",
        "complete at end",
    ]);
    for window in [1u64, 2, 4, 8, 64] {
        let cfg = DdbConfig::detect_only(PERIOD).with_comp_window(window);
        let mut db = DdbNet::new(2, cfg, 7);
        parallel_rings(&mut db, R);
        let mut cells = Vec::new();
        for periods in [2u64, 5, 20] {
            db.run_until(SimTime::from_ticks(PERIOD * (periods + 1)));
            db.verify_soundness()
                .expect("soundness holds at any window");
            cells.push(db.declarations().len());
        }
        // Undetected deadlocks (small windows) classify as Deadlocked,
        // not Wedged — liveness must hold at any window.
        db.verify_liveness().expect("no wedged transactions");
        db.verify_completeness().expect("complete after 20 periods");
        // Both transactions of each deadlock declare once it is covered.
        let all = 2 * R as usize;
        if window == 1 {
            assert!(cells[0] < all, "window 1 should stretch coverage");
        } else if window >= 4 {
            assert_eq!(cells[0], all, "window {window} should cover at once");
        }
        t.row([
            window.to_string(),
            cells[0].to_string(),
            cells[1].to_string(),
            cells[2].to_string(),
            "yes".to_string(),
        ]);
    }
    t.print();
    println!("(each of the {R} deadlocks needs one declaration to count as covered; with a");
    println!("window of w, each detector sweep completes about w of its concurrent");
    println!("computations, so small windows stretch coverage across many periods.)\n");
}

fn part_b() {
    println!("## Part B: A2 forward-once vs forward-always (event cap 300k)\n");
    let mut t = Table::new([
        "topology",
        "policy",
        "probes sent",
        "events",
        "terminated",
        "declared",
    ]);
    let topologies: Vec<(String, Vec<(usize, usize)>)> = vec![
        ("cycle(8)".into(), generators::cycle(8)),
        ("fig8(4,5)".into(), generators::figure_eight(4, 5)),
        ("complete(6)".into(), generators::complete(6)),
    ];
    for (label, edges) in topologies {
        let n = edges.iter().flat_map(|&(a, b)| [a, b]).max().unwrap() + 1;
        let branching = edges.len() > n;
        let mut probes_once = 0;
        for policy in [
            ForwardPolicy::FirstMeaningful,
            ForwardPolicy::EveryMeaningful,
        ] {
            let cfg = BasicConfig {
                forward: policy,
                ..BasicConfig::on_block(4)
            };
            let mut net = BasicNet::new(n, cfg, 9);
            net.request_edges(&edges).unwrap();
            let out = net.run_to_quiescence(300_000);
            // QRP2 survives either policy.
            net.verify_soundness()
                .expect("soundness independent of forwarding");
            let probes = net.metrics().get(cmh_core::process::counters::PROBE_SENT);
            if policy == ForwardPolicy::FirstMeaningful {
                assert!(out.quiescent, "{label}: forward-once must terminate");
                probes_once = probes;
            } else if branching {
                assert!(
                    probes > 100 * probes_once,
                    "{label}: forward-always did not explode"
                );
            }
            t.row([
                label.clone(),
                match policy {
                    ForwardPolicy::FirstMeaningful => "once (paper)".to_string(),
                    ForwardPolicy::EveryMeaningful => "always (ablation)".to_string(),
                },
                probes.to_string(),
                out.events.to_string(),
                if out.quiescent {
                    "yes".to_string()
                } else {
                    "NO (cap hit)".to_string()
                },
                net.declarations().len().to_string(),
            ]);
        }
    }
    t.print();
}

fn main() {
    println!("# E11: design-choice ablations\n");
    part_a();
    part_b();
    println!("claim check: Part A — a window of 1 (the paper's literal latest-only rule)");
    println!("cancels concurrent computations, stretching full coverage across ~Q detector");
    println!("periods; a small window restores immediate coverage at bounded state.");
    println!("Part B — A2's forward-once rule is what");
    println!("bounds a computation at one probe per edge; forwarding every meaningful");
    println!("probe explodes traffic on branching graphs (soundness survives either way).");
    println!("PASS");
}
