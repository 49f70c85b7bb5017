//! `cargo run -p xtask -- <task>` — workspace automation entry point.
//!
//! Tasks (neither takes a flag):
//!
//! * `lint` — run the cmh-lint determinism & protocol-hygiene pass over
//!   the workspace that contains the current directory. Exit 0 when
//!   clean, 1 when any finding.
//! * `mck` — run the schedule-space model-checking sweep: bounded
//!   exhaustive DPOR + brute-force exploration of the canned workloads,
//!   plus the seeded-mutation must-trip harness. Exit 0 when every case
//!   verifies, 1 otherwise.
//!
//! Anything else prints the usage text and exits 2, as does an I/O
//! error during the scan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{find_workspace_root, lint_workspace, mck, report};

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p xtask -- lint");
    eprintln!("       cargo run -p xtask -- mck");
    ExitCode::from(2)
}

fn verdict(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn lint_main() -> ExitCode {
    let root = std::env::current_dir()
        .ok()
        .and_then(|cwd| find_workspace_root(&cwd))
        .unwrap_or_else(|| PathBuf::from("."));
    match lint_workspace(&root) {
        Ok(r) => {
            print!("{}", report::human(&r));
            verdict(r.clean())
        }
        Err(e) => {
            eprintln!("cmh-lint: scan failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn mck_main() -> ExitCode {
    let r = mck::run_sweep();
    print!("{}", mck::human(&r));
    verdict(r.clean())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["lint"] => lint_main(),
        ["mck"] => mck_main(),
        _ => usage(),
    }
}
