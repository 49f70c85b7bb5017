//! # xtask — workspace automation for the CMH reproduction
//!
//! Two tasks:
//!
//! * **cmh-lint** (`cargo run -p xtask -- lint`) — the static-analysis
//!   pass described below;
//! * **mck** (`cargo run -p xtask --features mck -- mck`) — the
//!   schedule-space model-checking sweep (see the `mck` module, DESIGN §13):
//!   bounded exhaustive interleaving exploration with DPOR over the
//!   deterministic simulator, plus the seeded-mutation must-trip
//!   harness. Feature-gated so the lint-only build stays
//!   dependency-free.
//!
//! **cmh-lint** is a static-analysis pass that enforces the determinism
//! and protocol-hygiene rules every correctness claim in this repo rests
//! on.
//! The golden-digest tests (tests/golden_determinism.rs) catch a
//! determinism break *after* it happens; this pass rejects the source
//! constructs that cause them — randomized-hash collections, wall-clock
//! reads, unseeded randomness, stray threads — before the code runs.
//!
//! Rules (full rationale in DESIGN.md §10):
//!
//! | rule | rejects |
//! |------|---------|
//! | D1 | `std::collections::HashMap`/`HashSet` (randomized iteration) |
//! | D2 | wall-clock reads (`Instant`, `SystemTime`) |
//! | D3 | unseeded randomness (`thread_rng`, OS entropy, `RandomState`) |
//! | D4 | threads / data parallelism outside `simnet::batch` and the sharded stepper |
//! | D5 | `todo!` / `unimplemented!` / `dbg!` in non-test code |
//! | D6 | crate roots missing the `forbid(unsafe_code)` + `warn(missing_docs)` header |
//! | D7 | `summarize(` / `format!(` in simnet delivery code not gated on `Trace::is_enabled` |
//! | D8 | direct `locks.release(`/`locks.release_all(` in the DDB controller outside the grant-sweep entry points |
//! | D9 | direct event-queue pops outside the engine files (`sim.rs`/`shard.rs`/`solo.rs`/`explore.rs`/`equeue.rs`) |
//!
//! Intentional exceptions carry an allow marker comment naming the rule
//! and a reason (grammar in [`scan`]); the pass lists every marker in its
//! summary so each escape hatch stays auditable.
//!
//! Offline note: the container this repo builds in has no registry
//! access, so the pass is a self-contained token scanner (see
//! [`lexer`]) over blanked source rather than a `syn` AST visit, and
//! workspace discovery parses the root manifest directly instead of
//! using `cargo_metadata`. The rule surface is the same.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
#[cfg(feature = "mck")]
pub mod mck;
pub mod report;
pub mod rules;
pub mod scan;

use std::fs;
use std::io;
use std::path::Path;

use rules::Rule;
use scan::{discover_workspace, rust_files, scan_file, FilePolicy, LintReport};

/// The directory whose files rule D7 applies to: the simulator's
/// non-test sources, i.e. the send→wire→deliver path whose steady state
/// must stay allocation-free (`crates/simnet/tests/alloc_regression.rs`
/// pins the property at runtime; D7 rejects the usual way of breaking
/// it — an ungated per-message summary — at lint time).
pub const D7_SCOPE: &str = "crates/simnet/src";

/// The file rule D8 applies to: the DDB controller. Releasing a lock
/// hands the resource to queued waiters, and those grants must be swept
/// (granted waiters re-examined, `Acquired` notifications sent, scripts
/// resumed) or the waiters stay blocked forever — a liveness wedge
/// (DESIGN §11). D8 rejects any `locks.release(`/`locks.release_all(` call
/// outside the two annotated sweep entry points.
pub const D8_SCOPE: &str = "crates/ddb/src/controller.rs";

/// The files rule D9 exempts: the engine files that own the event
/// queue. Everywhere else, a direct `queue.pop(`/`queue.peek(` consumes
/// an event behind the engine's back — a schedule decision the
/// `simnet::explore` model checker can neither observe nor branch on,
/// which would silently shrink the schedule space it certifies.
pub const D9_EXEMPT: [&str; 5] = [
    "crates/simnet/src/sim.rs",
    "crates/simnet/src/shard.rs",
    "crates/simnet/src/solo.rs",
    "crates/simnet/src/explore.rs",
    "crates/simnet/src/equeue.rs",
];

/// Lints the whole workspace rooted at `root` (skipping `vendor/` and
/// `target/` by construction: only member crates' `src`, `tests`,
/// `benches` and `examples` directories are scanned).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    for krate in discover_workspace(root)? {
        let crate_dir = root.join(&krate.dir);
        for sub in ["src", "tests", "benches", "examples"] {
            let test_file = sub != "src";
            for path in rust_files(&crate_dir.join(sub)) {
                let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                let mut line_rules: Vec<Rule> =
                    vec![Rule::D1, Rule::D2, Rule::D3, Rule::D4, Rule::D5];
                if !D9_EXEMPT.iter().any(|e| rel == Path::new(e)) {
                    line_rules.push(Rule::D9);
                }
                if rel.starts_with(D7_SCOPE) {
                    line_rules.push(Rule::D7);
                }
                if rel == Path::new(D8_SCOPE) {
                    line_rules.push(Rule::D8);
                }
                let policy = FilePolicy {
                    line_rules,
                    crate_root: rel == krate.dir.join("src").join("lib.rs"),
                    test_file,
                };
                let source = fs::read_to_string(&path)?;
                scan_file(&rel, &source, &policy, &mut report);
            }
        }
    }
    Ok(report)
}

/// Lints a fixture corpus: every `.rs` file under `dir`, all line rules
/// active, files named `lib.rs` treated as crate roots. Used by the
/// bundled known-bad/known-allowed corpus and its tests.
pub fn lint_fixtures(dir: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    for path in rust_files(dir) {
        let rel = path.strip_prefix(dir).unwrap_or(&path).to_path_buf();
        let policy = FilePolicy {
            line_rules: vec![
                Rule::D1,
                Rule::D2,
                Rule::D3,
                Rule::D4,
                Rule::D5,
                Rule::D7,
                Rule::D8,
                Rule::D9,
            ],
            crate_root: path.file_name().is_some_and(|n| n == "lib.rs"),
            test_file: false,
        };
        let source = fs::read_to_string(&path)?;
        scan_file(&rel, &source, &policy, &mut report);
    }
    Ok(report)
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
