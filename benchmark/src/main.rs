//! The repo's one benchmark. See `README.md` beside this crate for the
//! workloads, the metrics and how they interact.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --seed <u64> [--workload <name>] [--seconds <n>] [--trace [0|1]] \
//!     [--smoke] [--sets K [--seed-step S]] [--print-spec] [--vet]
//! ```
//!
//! With `--workload` the workload runs in this process and the last line
//! of standard output is the result object the benchmark contract asks
//! for. Without it every workload runs in a child process of its own (so
//! `VmHWM` is its own) and the results are printed side by side.

mod affinity;
mod layers;
mod run;
mod sets;
mod sim_workloads;
mod spec;
mod stats;
mod svc_workloads;
mod trace;

use std::ops::Range;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use run::{run_pass, Pass};
use spec::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// Input sizes: the full profile or the `--smoke` profile (schema and
/// correctness only, the whole set in a few seconds).
pub struct Sizes {
    pub smoke: bool,
    pub scale_n: usize,
    pub churn_duration: u64,
    pub faulty_duration: u64,
    pub ddb_txns: usize,
    pub local_txns: usize,
    pub remote_txns: usize,
    pub contended_txns: usize,
}

impl Sizes {
    const FULL: Sizes = Sizes {
        smoke: false,
        scale_n: 100_000,
        churn_duration: 2_000,
        faulty_duration: 2_000,
        ddb_txns: 50,
        local_txns: 40_000,
        remote_txns: 8_000,
        contended_txns: 150,
    };
    const SMOKE: Sizes = Sizes {
        smoke: true,
        scale_n: 3_000,
        churn_duration: 400,
        faulty_duration: 400,
        ddb_txns: 30,
        local_txns: 2_000,
        remote_txns: 1_000,
        contended_txns: 100,
    };
}

/// One timed piece of a unit: a blocking call into the simulator, a
/// batch of injections, a verification, or a stretch of a load run.
/// A repetition of the same input repeats every piece, so `run.rs` can
/// keep each piece's undisturbed repetition.
#[derive(Clone)]
pub struct Piece {
    /// Wall seconds.
    pub s: f64,
    /// What closed-loop callers waited inside this piece, as a range of
    /// the unit's `waits_us`: the piece itself for one blocking simulator
    /// call, the request→`Granted` latencies of a stretch of a load run,
    /// empty where nobody waited (injection, verification).
    pub waits: Range<usize>,
    /// Transactions completed in this piece (service only).
    pub done: u32,
}

/// What one unit (one repetition of a workload on one input) measured.
#[derive(Default)]
pub struct Unit {
    /// Build the simulation / generate jobs / `Cluster::start`.
    pub setup_s: f64,
    /// The timed phases (inject + advance + verify, or the load run) in
    /// the order they ran.
    pub pieces: Vec<Piece>,
    /// Latency samples the pieces refer to, µs.
    pub waits_us: Vec<f64>,
    /// Units of work done in the timed phases: `sim.events`, or
    /// committed transactions on the service workloads.
    pub work: u64,
    /// Transactions committed (0 on the basic-model workloads).
    pub txns: u64,
    /// Request→Declare latencies, µs (`svc_contended` only).
    pub declare_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Exact counters; must repeat for a fixed seed on sim workloads.
    pub counts: Vec<(&'static str, u64)>,
    /// Further measured values, by per-layer metric name.
    pub extra: Vec<(&'static str, f64)>,
}

impl Unit {
    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what);
        }
    }

    /// Records a blocking call that started at `t0` and has just
    /// returned after processing `events` events: a timed piece and, if
    /// it found work to do, one wait sample (most ticks of a churn
    /// schedule are empty; the time of an empty call says nothing about
    /// the code under it).
    pub fn call(&mut self, t0: Instant, events: u64) {
        let s = t0.elapsed().as_secs_f64();
        let at = self.waits_us.len();
        if events > 0 {
            self.waits_us.push(s * 1e6);
        }
        self.pieces.push(Piece {
            s,
            waits: at..self.waits_us.len(),
            done: 0,
        });
    }

    /// Records timed work since `t0` that nobody waits on.
    pub fn other(&mut self, t0: Instant) {
        self.other_s(t0.elapsed().as_secs_f64());
    }

    pub fn other_s(&mut self, s: f64) {
        self.pieces.push(Piece {
            s,
            waits: 0..0,
            done: 0,
        });
    }
}

pub struct Args {
    seed: u64,
    workload: Option<&'static Workload>,
    /// Measuring budget of one run; the smoke profile's default is a
    /// fraction of a second, enough for the minimum number of cycles.
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: Option<usize>,
    seed_step: u64,
    print_spec: bool,
    vet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workload: None,
        seconds: 0.0,
        trace: false,
        smoke: false,
        sets: None,
        seed_step: 0,
        print_spec: false,
        vet: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--seed" => args.seed = parse(&value("a u64")?)?,
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(spec::workload(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {names:?}")
                })?);
            }
            "--seconds" => args.seconds = parse(&value("a number")?)?,
            "--sets" => args.sets = Some(parse(&value("a count")?)?),
            "--seed-step" => args.seed_step = parse(&value("a u64")?)?,
            "--smoke" => args.smoke = true,
            "--print-spec" => args.print_spec = true,
            "--vet" => args.vet = true,
            // `--trace`, `--trace 0`, `--trace 1`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0.0 {
        args.seconds = if args.smoke { 0.2 } else { RUN_SECONDS as f64 };
    }
    if !(args.seconds > 0.0 && args.seconds <= 170.0) {
        return Err("--seconds must be in (0, 170]".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {s:?}"))
}

/// Named values of one run, in catalogue order.
type Values = Vec<(&'static str, f64)>;

fn end_to_end(pass: &Pass) -> Values {
    vec![
        ("setup_s", pass.setup_s()),
        ("work_per_s", pass.work_per_s()),
        ("wait_p50_us", pass.wait_quantiles_us().0),
    ]
}

/// Per-layer values of a traced run: the layer suite, the pass's spans
/// and counts, and the overhead of its traced cycles over its untraced.
fn per_layer(w: &Workload, sizes: &Sizes, suite: Values, pass: &Pass) -> Values {
    let mut out = suite;
    let rec = &pass.recorder;
    for &(span, metric, factor) in spec::span_metrics(w.name) {
        out.push((metric, rec.median_s(span) * factor));
    }
    out.extend(pass.extras());
    for (&k, &v) in &pass.counts {
        out.push((k, v as f64));
    }
    if let (Some(&p), Some(&d)) = (
        pass.counts.get("sim.count.probes"),
        pass.counts.get("sim.count.declared"),
    ) {
        if d > 0 {
            out.push(("e2e.probes_per_declared", p as f64 / d as f64));
        }
    }
    out.extend(pass.txn_per_s().map(|v| ("e2e.txn_per_s", v)));
    let rss = pass.peak_rss_bytes as f64;
    out.push(("e2e.peak_rss_mb", rss / (1024.0 * 1024.0)));
    if w.name == "basic_scale" {
        out.push(("e2e.peak_rss_bytes_per_vertex", rss / sizes.scale_n as f64));
    }
    if let Some((p50, p99, n)) = pass.declare_quantiles_us() {
        out.push(("e2e.declare_p50_us", p50));
        out.push(("e2e.declare_p99_us", p99));
        out.push(("e2e.declare_samples", n as f64));
        out.push((
            "service.detect.declare_minus_period_us",
            p50 - svc_workloads::DETECTION_PERIOD_US,
        ));
    }
    let (_, p99, samples) = pass.wait_quantiles_us();
    out.push(("e2e_unstable.wait_p99_us", p99));
    out.push(("e2e.wait_samples", samples as f64));
    out.push(("e2e.units", pass.units.len() as f64));

    let (base, with) = (pass.cycle_wall_s(false), pass.cycle_wall_s(true));
    out.push(("trace.overhead_share", (with - base) / base));
    // Share of each unit's wall covered by its phase spans.
    let spans = rec.spans();
    let unit_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let own_ns: u64 = rec
        .self_ns()
        .iter()
        .zip(spans)
        .filter(|(_, s)| s.parent.is_none())
        .map(|(own, _)| own)
        .sum();
    out.push((
        "trace.span_coverage_share",
        1.0 - own_ns as f64 / unit_ns as f64,
    ));
    out
}

/// The value reported under `name` (the last one pushed wins).
fn lookup(values: &Values, name: &str) -> Option<f64> {
    values
        .iter()
        .rev()
        .find(|(k, _)| *k == name)
        .map(|&(_, v)| v)
}

/// The contract's result object, one line.
fn result_json(attempted: u64, failed: u64, catalogue: &[spec::Metric], values: &Values) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|m| {
            let v = lookup(values, m.name).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        metrics.join(", ")
    )
}

/// Unix-domain sockets are created under the system temp directory;
/// points it inside the benchmark's own output directory (a short
/// relative path keeps socket names inside `sun_path`).
fn local_tmp() -> &'static Path {
    let tmp = Path::new("benchmark/out/tmp");
    std::fs::create_dir_all(tmp).expect("create benchmark/out/tmp");
    std::env::set_var("TMPDIR", tmp);
    tmp
}

/// Runs one workload in this process and prints its metrics by name and
/// the result line. Returns whether every check passed.
fn run_one(w: &Workload, args: &Args) -> bool {
    let sizes = if args.smoke {
        &Sizes::SMOKE
    } else {
        &Sizes::FULL
    };
    let tmp = local_tmp();

    // Every thread on one CPU (see `affinity`); the suite lifts the pin
    // for the one measurement whose subject is the second CPU.
    let all_cpus = affinity::pin_to_one_cpu();
    if all_cpus.is_none() {
        eprintln!("note: could not pin to one CPU; timings will be noisier");
    }

    // The pass before the suite: its `VmHWM` must not include the suite's.
    let pass = run_pass(w, args.seed, args.seconds, sizes, args.trace);
    let (kind, catalogue, values) = if args.trace {
        let suite = layers::suite(sizes, all_cpus.as_ref());
        std::fs::write("benchmark/out/trace.json", pass.recorder.to_json(w.name))
            .expect("write benchmark/out/trace.json");
        ("layer", PER_LAYER, per_layer(w, sizes, suite, &pass))
    } else {
        ("e2e", END_TO_END, end_to_end(&pass))
    };
    let _ = std::fs::remove_dir_all(tmp);
    let Pass {
        counts,
        attempted,
        failed,
        failures,
        ..
    } = &pass;

    println!(
        "workload {} seed {} trace {}",
        w.name, args.seed, args.trace as u8
    );
    for m in catalogue {
        if let Some(v) = lookup(&values, m.name) {
            println!("{kind} {} {v} {}", m.name, m.unit);
        }
    }
    for (name, v) in counts {
        println!("count {name} {v}");
    }
    println!("checks attempted {attempted} failed {failed}");
    for f in failures {
        eprintln!("FAILED {}: {f}", w.name);
    }
    println!("{}", result_json(*attempted, *failed, catalogue, &values));
    *failed == 0
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.print_spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ok = match (args.workload, args.sets) {
        _ if args.vet => {
            let Some(w) = args.workload else {
                eprintln!("--vet needs --workload");
                return ExitCode::from(2);
            };
            let tmp = local_tmp();
            let ok = run::vet(w, &Sizes::FULL);
            let _ = std::fs::remove_dir_all(tmp);
            ok
        }
        (Some(w), None) => run_one(w, &args),
        _ => sets::run_sets(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
