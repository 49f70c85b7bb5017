//! All-workload and calibration modes: every workload in a child
//! process of its own, K sets of them, and the spread of every
//! (metric, workload) pair against its bound.
//!
//! The child's named lines are the interface: `e2e <name> <value>
//! <unit>`, `layer <name> <value> <unit>`, `count <name> <value>` and
//! `checks attempted <a> failed <f>`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::Args;

const BASELINE: &str = "benchmark/baseline.json";

#[derive(Default)]
struct Series {
    unit: String,
    values: Vec<f64>,
}

#[derive(Default)]
struct Collected {
    /// (workload, metric) → one value per set.
    metrics: BTreeMap<(&'static str, String), Series>,
    /// (workload, counter) → one value per set; must not vary when every
    /// set runs the same seed.
    counts: BTreeMap<(&'static str, String), Vec<u64>>,
    attempted: u64,
    failed: u64,
}

/// Runs `w` once in a child process, echoing its output.
fn run_child(w: &'static Workload, seed: u64, trace: bool, args: &Args, into: &mut Collected) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("spawn workload child");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut saw_checks = false;
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            [kind @ ("e2e" | "layer"), name, value, unit] => {
                println!("  {kind:5} {name:42} {value:>22} {unit}");
                let s = into.metrics.entry((w.name, name.to_string())).or_default();
                s.unit = unit.to_string();
                s.values
                    .push(value.parse().expect("child printed a number"));
            }
            ["count", name, value] => into
                .counts
                .entry((w.name, name.to_string()))
                .or_default()
                .push(value.parse().expect("child printed a count")),
            ["checks", "attempted", a, "failed", f] => {
                saw_checks = true;
                into.attempted += a.parse::<u64>().expect("attempted");
                into.failed += f.parse::<u64>().expect("failed");
                println!("  checks attempted {a} failed {f}");
            }
            ["workload", ..] => println!("{line}"),
            _ => {}
        }
    }
    if !out.status.success() || !saw_checks {
        into.failed += 1;
        println!("  FAILED: child for {} exited with {}", w.name, out.status);
    }
}

/// Worse-direction-agnostic spreads of one series against its median.
fn spreads(values: &[f64]) -> (f64, f64, f64, f64, Option<f64>) {
    let med = median(values);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let share = |d: f64| if med == 0.0 { 0.0 } else { d / med.abs() };
    let iqr = (values.len() >= 2).then(|| {
        let (q1, q3) = quartiles(values);
        share(q3 - q1)
    });
    (med, min, max, share(max - min), iqr)
}

/// Runs `--sets K` sets (one without the flag) of every workload, or of
/// `--workload` alone. With `--sets` it prints each (metric, workload)
/// pair's spread over the sets and writes the baseline.
pub fn run_sets(args: &Args) -> bool {
    let sets = args.sets.unwrap_or(1);
    let mut all = Collected::default();
    for set in 0..sets {
        let seed = args.seed + set as u64 * args.seed_step;
        println!("== set {} of {sets}, seed {seed}", set + 1);
        for w in WORKLOADS
            .iter()
            .filter(|w| args.workload.is_none_or(|only| only.name == w.name))
        {
            run_child(w, seed, false, args, &mut all);
            if args.trace {
                run_child(w, seed, true, args, &mut all);
            }
        }
    }

    let mut ok = all.failed == 0;
    // The same seed every set: exact counters must not move.
    if args.seed_step == 0 {
        for ((w, name), values) in &all.counts {
            if values.iter().any(|v| v != &values[0]) {
                ok = false;
                println!("DETERMINISM FAILURE {w} {name}: {values:?}");
            }
        }
    }
    if args.sets.is_some() {
        println!("\n== spread over {sets} sets (bound applies to gated end-to-end metrics)");
        println!(
            "{:14} {:38} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
            "workload", "metric", "median", "min", "max", "range", "iqr", "bound"
        );
        for ((w, name), s) in &all.metrics {
            let (med, min, max, range, iqr) = spreads(&s.values);
            let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
            let over = bound.is_some_and(|b| name != "setup_s" && iqr.unwrap_or(0.0) > b);
            println!(
                "{w:14} {name:38} {med:>14.4} {min:>14.4} {max:>14.4} {range:>8.4} {:>8} {:>6} {}",
                iqr.map_or("-".into(), |v| format!("{v:.4}")),
                bound.map_or("-".into(), |b| format!("{b}")),
                if over { "OVER BOUND" } else { "" },
            );
        }
        std::fs::write(BASELINE, baseline_json(&all, sets, args)).expect("write baseline.json");
        println!("baseline written to {BASELINE}");
    }
    println!(
        "\nsets {sets} checks attempted {} failed {} => {}",
        all.attempted,
        all.failed,
        if ok { "PASS" } else { "FAIL" }
    );
    ok
}

fn baseline_json(all: &Collected, sets: usize, args: &Args) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = format!(
        "{{\n  \"claim\": null,\n  \"sets\": {sets},\n  \"seed\": {},\n  \"seed_step\": {},\n  \
         \"seconds\": {},\n  \"available_parallelism\": {cpus},\n  \"workloads\": {{\n",
        args.seed, args.seed_step, args.seconds
    );
    let mut first_w = true;
    for w in WORKLOADS {
        let rows: Vec<String> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|m| {
                let s = all.metrics.get(&(w.name, m.name.to_string()))?;
                let (med, min, max, range, iqr) = spreads(&s.values);
                let mut row = format!(
                    "      \"{}\": {{\"unit\": \"{}\", \"median\": {med}, \"min\": {min}, \
                     \"max\": {max}, \"range_share\": {range:.4}",
                    m.name, s.unit
                );
                if let Some(iqr) = iqr {
                    let _ = write!(row, ", \"iqr_share\": {iqr:.4}");
                }
                if m.bound > 0.0 {
                    let _ = write!(row, ", \"bound\": {}", m.bound);
                }
                row.push('}');
                Some(row)
            })
            .collect();
        if rows.is_empty() {
            continue;
        }
        if !first_w {
            out.push_str(",\n");
        }
        first_w = false;
        let _ = write!(out, "    \"{}\": {{\n{}\n    }}", w.name, rows.join(",\n"));
    }
    out.push_str("\n  }\n}\n");
    out
}
