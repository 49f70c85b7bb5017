//! The E-series contract: what each `exp_*` binary prints, byte for byte.
//!
//! E1–E12 print no wall-clock column and are deterministic, so each one's
//! whole stdout is pinned in `tests/golden/eNN.txt`. E13 prints wall-clock
//! columns beside its counts, so `e13.txt` pins only the N = 10⁴ row's
//! deterministic columns (`N`, `events`, `probes`, `declared`), picked out
//! of the table by header name. Every binary must also exit 0: each one
//! asserts its own claim before it prints `PASS`.
//!
//! E4, E6, E10 and E13 run a second time under `CMH_SHARDS=4` and must
//! reproduce the same files once the `(CMH_SHARDS=…)` banner and the blank
//! line after it are dropped: the sharded engine changes no table, every
//! detector included.
//!
//! Release only, like `tests/stress.rs` (about 9 s on two cores, 36 s
//! in debug): `cargo test --release -p cmh-bench --test golden_tables`.
//! There is no update mode. A table that changes on purpose is a contract
//! change: regenerate its file by redirecting the binary's stdout, for
//! example `cargo run --release -q -p cmh-bench --bin exp_soundness >
//! crates/bench/tests/golden/e04.txt`, and say why in CHANGES.md.
//! EXPERIMENTS.md quotes these files (`tests/doc_refs.rs` holds it to
//! them).

use std::path::Path;
use std::process::Command;

use cmh_bench::Table;

/// Each golden file, the binary that prints it, and whether it is run
/// again on four shards.
const SERIES: [(&str, &str, bool); 12] = [
    ("e01", env!("CARGO_BIN_EXE_exp_probe_bounds"), false),
    ("e02", env!("CARGO_BIN_EXE_exp_timeout_tradeoff"), false),
    ("e03", env!("CARGO_BIN_EXE_exp_state_bounds"), false),
    ("e04", env!("CARGO_BIN_EXE_exp_soundness"), true),
    ("e05", env!("CARGO_BIN_EXE_exp_ddb_q"), false),
    ("e06", env!("CARGO_BIN_EXE_exp_baselines"), true),
    ("e07", env!("CARGO_BIN_EXE_exp_wfgd"), false),
    ("e08", env!("CARGO_BIN_EXE_exp_cycle_latency"), false),
    ("e09", env!("CARGO_BIN_EXE_exp_fifo_ablation"), false),
    ("e10", env!("CARGO_BIN_EXE_exp_or_model"), true),
    ("e11", env!("CARGO_BIN_EXE_exp_ablations"), false),
    ("e12", env!("CARGO_BIN_EXE_exp_faults"), false),
];

/// E13's columns that do not depend on the wall clock.
const E13_COLUMNS: [&str; 4] = ["N", "events", "probes", "declared"];

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs `bin` with `CMH_SHARDS` set to `shards` (removed at 1) and
/// `extra` in its environment; returns its stdout, or panics if it fails.
fn run(bin: &str, shards: usize, extra: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(bin);
    cmd.env_remove("CMH_SHARDS").envs(extra.iter().copied());
    if shards > 1 {
        cmd.env("CMH_SHARDS", shards.to_string());
    }
    let out = cmd.output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} (CMH_SHARDS={shards}) failed its claim check: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// `stdout` without the `(CMH_SHARDS=…)` banner line and the line after
/// it. Panics if there is no banner: a run that did not shard compares
/// nothing.
fn drop_banner(bin: &str, stdout: &str) -> String {
    let mut kept = String::new();
    let mut banners = 0;
    let mut lines = stdout.split_inclusive('\n');
    while let Some(line) = lines.next() {
        if line.starts_with("(CMH_SHARDS=") {
            banners += 1;
            lines.next();
        } else {
            kept.push_str(line);
        }
    }
    assert_eq!(banners, 1, "{bin}: one CMH_SHARDS banner expected");
    kept
}

/// The [`E13_COLUMNS`] of every data row of `exp_scale`'s table.
fn e13_columns(stdout: &str) -> String {
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .filter(|l| l.starts_with('|'))
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect();
    let (header, body) = rows.split_first().expect("exp_scale prints a table");
    let picks: Vec<usize> = E13_COLUMNS
        .iter()
        .map(|name| {
            header
                .iter()
                .position(|h| h == name)
                .unwrap_or_else(|| panic!("exp_scale has no `{name}` column"))
        })
        .collect();
    let mut table = Table::new(E13_COLUMNS);
    // The first body row is the `|---|` separator.
    for row in body.iter().skip(1) {
        table.row(picks.iter().map(|&i| row[i]));
    }
    table.to_markdown()
}

/// `None` if `got` equals `want`, else where they first differ.
fn first_difference(label: &str, got: &str, want: &str) -> Option<String> {
    if got == want {
        return None;
    }
    let (got, want): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let line = (0..got.len().max(want.len()))
        .find(|&i| got.get(i) != want.get(i))
        .unwrap_or(got.len().min(want.len()));
    Some(format!(
        "{label}: first difference at line {}\n  golden: {:?}\n  binary: {:?}",
        line + 1,
        want.get(line),
        got.get(line)
    ))
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: the sweeps take about 4x as long in debug"
)]
fn e_series_stdout_equals_the_golden_files() {
    let mut failures = Vec::new();
    for (name, bin, sharded) in SERIES {
        let want = golden(name);
        let shard_counts: &[usize] = if sharded { &[1, 4] } else { &[1] };
        for &shards in shard_counts {
            let mut got = run(bin, shards, &[]);
            if shards > 1 {
                got = drop_banner(bin, &got);
            }
            let label = format!("{name}.txt (CMH_SHARDS={shards})");
            failures.extend(first_difference(&label, &got, &want));
        }
    }

    let bin = env!("CARGO_BIN_EXE_exp_scale");
    let want = golden("e13");
    for shards in [1, 4] {
        let stdout = run(bin, shards, &[("CMH_SCALE_MAX", "10000")]);
        assert!(stdout.contains(&format!("(shards={shards})")), "{stdout}");
        let got = e13_columns(&stdout);
        let label = format!("e13.txt (CMH_SHARDS={shards})");
        failures.extend(first_difference(&label, &got, &want));
    }

    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
