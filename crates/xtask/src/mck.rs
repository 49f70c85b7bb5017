//! `cargo run -p xtask -- mck` — the schedule-space model-checking
//! sweep (DESIGN §13).
//!
//! Two suites, both over the canned 3–4 process / 3-site workloads the
//! protocol crates export from their `explore::configs` modules:
//!
//! * **base sweep** — each workload is explored exhaustively twice,
//!   with DPOR and by brute force (the brute pass capped at
//!   [`BRUTE_CAP`] schedules for the workloads whose unreduced space is
//!   astronomically larger), and every schedule's verdict is
//!   machine-checked (soundness / completeness / liveness / trace
//!   invariants). The two passes must agree — both clean — and the
//!   DPOR pass must be strictly smaller wherever the brute pass
//!   finished uncapped;
//! * **mutation harness** — each seeded protocol mutation is armed,
//!   shown to *pass* a naive single-schedule run (the engine's native
//!   `(time, seq)` order), and then shown to be *caught* by bounded
//!   exploration. A mutation that survives exploration, or that a naive
//!   run already catches, fails the sweep — the former means the
//!   checker lost power, the latter that the mutation no longer needs a
//!   model checker to find (and belongs in a plain regression test).
//!
//! The report prints per-case schedule counts, sleep-set hits and the
//! reduction ratio, and no times: `tests/mck_golden.rs` pins it byte for
//! byte.

use std::fmt::Write as _;

use cmh_core::explore::configs::{self as basic, or_knot_escape};
use cmh_core::explore::BasicRunner;
use cmh_core::process::BasicMutation;
use cmh_ddb::controller::DdbMutation;
use cmh_ddb::explore::configs as ddb;
use cmh_ddb::explore::DdbRunner;
use simnet::explore::{run_naive, ExploreReport, Explorer};

/// Schedule cap for the brute-force pass: the ring workloads' unreduced
/// spaces are factorial in the tick width, so the brute pass is a capped
/// smoke sweep there (recorded via `brute_capped` in the report) while
/// staying exhaustive on the hand-countable workloads.
pub const BRUTE_CAP: u64 = 5_000;

/// Seed shared by every sweep case (workload behaviour is
/// schedule-driven; the seed only feeds fault draws and tie-break
/// naming).
pub const SEED: u64 = 7;

/// One base-sweep case: a workload explored with DPOR and brute force.
#[derive(Debug)]
pub struct BaseCase {
    /// Workload name, e.g. `basic/ring`.
    pub name: &'static str,
    /// DPOR pass report.
    pub dpor: ExploreReport,
    /// Brute-force pass report (capped at [`BRUTE_CAP`]).
    pub brute: ExploreReport,
}

impl BaseCase {
    /// `dpor.schedules / brute.schedules` — the headline reduction.
    pub fn reduction_ratio(&self) -> f64 {
        self.dpor.schedules as f64 / self.brute.schedules.max(1) as f64
    }

    /// Both passes clean, nothing hit the step bound, and the reduction
    /// is strict wherever the brute pass actually finished.
    pub fn ok(&self) -> bool {
        self.dpor.clean()
            && self.brute.clean()
            && !self.dpor.capped
            && (self.brute.capped || self.dpor.schedules <= self.brute.schedules)
    }
}

/// One mutation-harness case: naive must pass, exploration must catch.
#[derive(Debug)]
pub struct MutationCase {
    /// Mutation name, e.g. `basic/skip_delete_white`.
    pub name: &'static str,
    /// Workload the mutation is armed on.
    pub workload: &'static str,
    /// Verdict of the naive single-schedule run (must be `Ok`).
    pub naive: Result<(), String>,
    /// Exploration report over the armed workload (must have violations).
    pub explored: ExploreReport,
}

impl MutationCase {
    /// First violation message, if any.
    pub fn violation(&self) -> Option<&str> {
        self.explored.violations.first().map(|v| v.message.as_str())
    }

    /// Naive passed *and* exploration caught the bug.
    pub fn ok(&self) -> bool {
        self.naive.is_ok() && !self.explored.violations.is_empty()
    }
}

/// Aggregate result of the sweep.
#[derive(Debug)]
pub struct MckReport {
    /// Base exhaustive-exploration cases.
    pub base: Vec<BaseCase>,
    /// Mutation must-trip cases.
    pub mutations: Vec<MutationCase>,
}

impl MckReport {
    /// Every base case verified and every mutation caught.
    pub fn clean(&self) -> bool {
        self.base.iter().all(BaseCase::ok) && self.mutations.iter().all(MutationCase::ok)
    }
}

fn dpor() -> Explorer {
    Explorer::default()
}

fn brute() -> Explorer {
    Explorer {
        reduction: false,
        max_schedules: BRUTE_CAP,
        ..Explorer::default()
    }
}

fn armed_basic(mut r: BasicRunner, m: BasicMutation) -> BasicRunner {
    r.net_mut().set_mutation(m);
    r
}

fn armed_ddb(mut r: DdbRunner) -> DdbRunner {
    r.net_mut().set_mutation(DdbMutation::GrantByResourceOnly);
    r
}

/// Runs the full sweep: every canned workload under DPOR + brute force,
/// then every seeded mutation under naive + exploration.
pub fn run_sweep() -> MckReport {
    let base = vec![
        BaseCase {
            name: "basic/ring",
            dpor: dpor().explore(|| basic::ring(SEED)),
            brute: brute().explore(|| basic::ring(SEED)),
        },
        BaseCase {
            name: "basic/grant_request_collision",
            dpor: dpor().explore(|| basic::grant_request_collision(SEED)),
            brute: brute().explore(|| basic::grant_request_collision(SEED)),
        },
        BaseCase {
            name: "basic/stale_probe",
            dpor: dpor().explore(|| basic::stale_probe(SEED)),
            brute: brute().explore(|| basic::stale_probe(SEED)),
        },
        BaseCase {
            name: "basic/faulty_ring",
            dpor: dpor().explore(|| basic::faulty_ring(SEED)),
            brute: brute().explore(|| basic::faulty_ring(SEED)),
        },
        BaseCase {
            name: "or/knot_escape",
            dpor: dpor().explore(|| or_knot_escape(SEED)),
            brute: brute().explore(|| or_knot_escape(SEED)),
        },
        BaseCase {
            name: "ddb/grant_misattribution",
            dpor: dpor().explore(|| ddb::grant_misattribution(SEED)),
            brute: brute().explore(|| ddb::grant_misattribution(SEED)),
        },
    ];

    let mutations = vec![
        MutationCase {
            name: "basic/skip_delete_white",
            workload: "basic/grant_request_collision",
            naive: run_naive(
                &mut armed_basic(
                    basic::grant_request_collision(SEED),
                    BasicMutation::SkipDeleteWhite,
                ),
                10_000,
            ),
            explored: dpor().explore(|| {
                armed_basic(
                    basic::grant_request_collision(SEED),
                    BasicMutation::SkipDeleteWhite,
                )
            }),
        },
        MutationCase {
            name: "basic/stale_echo_declare",
            workload: "basic/stale_probe",
            naive: run_naive(
                &mut armed_basic(basic::stale_probe(SEED), BasicMutation::StaleEchoDeclare),
                10_000,
            ),
            explored: dpor()
                .explore(|| armed_basic(basic::stale_probe(SEED), BasicMutation::StaleEchoDeclare)),
        },
        MutationCase {
            name: "ddb/grant_by_resource_only",
            workload: "ddb/grant_misattribution",
            naive: run_naive(&mut armed_ddb(ddb::grant_misattribution(SEED)), 10_000),
            explored: dpor().explore(|| armed_ddb(ddb::grant_misattribution(SEED))),
        },
    ];

    MckReport { base, mutations }
}

/// Renders the sweep for terminals.
pub fn human(report: &MckReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "mck: schedule-space sweep");
    for c in &report.base {
        let _ = writeln!(
            out,
            "  {} {}: dpor {} schedules / brute {}{} ({} events, {} sleep-set hits, ratio {:.4})",
            if c.ok() { "ok " } else { "FAIL" },
            c.name,
            c.dpor.schedules,
            c.brute.schedules,
            if c.brute.capped { " (capped)" } else { "" },
            c.dpor.events,
            c.dpor.sleep_set_hits,
            c.reduction_ratio()
        );
        for v in c.dpor.violations.iter().chain(&c.brute.violations) {
            let _ = writeln!(out, "       violation: {}", v.message);
        }
    }
    let _ = writeln!(out, "mck: mutation must-trip harness");
    for m in &report.mutations {
        let _ = writeln!(
            out,
            "  {} {} on {}: naive {}, exploration {}",
            if m.ok() { "ok " } else { "FAIL" },
            m.name,
            m.workload,
            match &m.naive {
                Ok(()) => "clean (as required)".to_owned(),
                Err(e) => format!("FAILED ({e})"),
            },
            match m.violation() {
                Some(v) => format!("caught: {v}"),
                None => "missed the bug".to_owned(),
            }
        );
    }
    let _ = writeln!(
        out,
        "result: {}",
        if report.clean() { "ok" } else { "FAILED" }
    );
    out
}
