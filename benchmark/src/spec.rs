//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is this file rendered by `--print-spec`; `ci.sh` fails when the
//! two disagree.

use crate::trace::Recorder;
use crate::{sim_workloads as sim, svc_workloads as svc, Sizes, Unit};

/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 16;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Runs one unit on one derived seed.
    pub unit: fn(u64, &Sizes, &mut Recorder) -> Unit,
    /// Inputs in the fixed panel every run cycles through (see `run.rs`).
    pub panel: usize,
    /// Simulator workloads repeat their counters exactly for a fixed
    /// seed; any drift is a determinism failure.
    pub deterministic: bool,
    pub estimator: Estimator,
    /// `None`: every seed is an input that passes the workload's checks.
    /// `Some(rejects)`: some inputs do not, so the run's own fresh input is
    /// drawn from the candidates vetted at authoring time (`--vet`, see
    /// `run::candidates`) less `rejects`, the ones that failed then.
    pub vetted: Option<&'static [u64]>,
}

/// How the repetitions of a panel input are summarised.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// Every repetition does the same work piece by piece: of each piece
    /// keep the repetition in which it ran fastest, and read every
    /// metric off the unit stitched together from those.
    Stitched,
    /// The outcome itself varies between repetitions (which deadlocks
    /// form is a race, and a few stretches wedge for seconds): the
    /// middle half of all repetitions' stretches is the throughput, and
    /// the latencies of all repetitions are pooled.
    TypicalStretch,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "basic_scale",
        why: "E13 triples at N=100000, no journal: scheduler pop, channel clock and handler dispatch on a working set far beyond cache",
        unit: sim::basic_scale,
        panel: 1,
        deterministic: true,
        estimator: Estimator::Stitched,
        vetted: None,
    },
    Workload {
        name: "basic_churn",
        why: "n=32 verified churn on a clean wire: journal, delayed-initiation timers and probe storms work, the scheduler idles; bypasses what basic_scale stresses",
        unit: sim::basic_churn,
        panel: 4,
        deterministic: true,
        estimator: Estimator::Stitched,
        vetted: None,
    },
    Workload {
        name: "basic_faulty",
        why: "same churn over loss 0.1 + duplication 0.05 with the reliable layer: seq, acks, retransmit and dup suppression carry most events",
        unit: sim::basic_faulty,
        panel: 6,
        deterministic: true,
        estimator: Estimator::Stitched,
        vetted: None,
    },
    Workload {
        name: "ddb_resolve",
        why: "section-6 controllers on the simulator with detect_and_resolve: lock table, Q-opt initiation, abort/restart and the per-event validator; svc_contended's shape with exact counts",
        unit: sim::ddb_resolve,
        panel: 4,
        deterministic: true,
        estimator: Estimator::Stitched,
        // Two transactions of each never commit (README, "Rejected inputs").
        vetted: Some(&[284518336, 368248701, 3513599447, 3351538324, 204987445]),
    },
    Workload {
        name: "svc_local",
        why: "1 site over UDS, closed window 16, local LockAll x4: codec, socket, ingress hop and gateway-sim advance with the detector idle and no peer link",
        unit: svc::svc_local,
        panel: 1,
        deterministic: false,
        estimator: Estimator::Stitched,
        vetted: None,
    },
    Workload {
        name: "svc_remote",
        why: "2 sites over UDS, one local + one remote lock per txn, nothing blocks: Endpoint, PeerFrame codec, relay stubs and the Acquired round trip that svc_local bypasses",
        unit: svc::svc_remote,
        panel: 1,
        deterministic: false,
        estimator: Estimator::Stitched,
        vetted: None,
    },
    Workload {
        name: "svc_contended",
        why: "2 sites, window 4, hot pool under detect_and_resolve: real distributed deadlocks over sockets, so the detection period and probe hops dominate and the codec does not",
        unit: svc::svc_contended,
        panel: 2,
        deterministic: false,
        estimator: Estimator::TypicalStretch,
        vetted: None,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; unused (0) for per-layer metrics.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    e2e(name, unit, better, 0.0)
}

/// Every workload reports every one of these on an untraced run.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("work_per_s", "1/s", "higher", 0.25),
    e2e("wait_p50_us", "us", "lower", 0.25),
];

/// Every workload reports every one of these on a traced run; a metric
/// that does not apply to the workload reads 0.
pub const PER_LAYER: &[Metric] = &[
    // -- layer microbenchmarks: the same suite on every traced run --------
    layer("simnet.equeue.push_pop_d256_ns", "ns", "lower"),
    layer("simnet.equeue.push_pop_d100k_ns", "ns", "lower"),
    layer("simnet.sim.deliver_clean_ns", "ns", "lower"),
    layer("simnet.sim.deliver_faulty_ns", "ns", "lower"),
    layer("simnet.sim.deliver_reliable_ns", "ns", "lower"),
    layer("simnet.sim.timer_arm_cancel_ns", "ns", "lower"),
    layer("simnet.sim.add_node_ns", "ns", "lower"),
    layer("simnet.metrics.add_ns", "ns", "lower"),
    layer("simnet.shard.s1_ns_per_event", "ns", "lower"),
    layer("simnet.shard.s2w2_ns_per_event", "ns", "lower"),
    layer("simnet.shard.barrier_ns_per_window", "ns", "lower"),
    layer("simnet.transport.endpoint_roundtrip_ns", "ns", "lower"),
    layer("wfg.graph.edge_add_remove_ns", "ns", "lower"),
    layer("wfg.oracle.churn_query_ns", "ns", "lower"),
    layer("wfg.journal.record_1k_ns", "ns", "lower"),
    layer("wfg.journal.record_100k_ns", "ns", "lower"),
    layer("wfg.journal.seek_ns", "ns", "lower"),
    layer("core.process.request_ns", "ns", "lower"),
    layer("core.process.probe_hop_ns", "ns", "lower"),
    layer("ddb.lock.grant_release_ns", "ns", "lower"),
    layer("ddb.lock.wait_edges_ns", "ns", "lower"),
    layer("ddb.net.step_detect_us", "us", "lower"),
    layer("ddb.net.step_resolve_us", "us", "lower"),
    layer("ddb.net.agent_graph_us", "us", "lower"),
    layer("ddb.snapshot.verify_at_rest_ms", "ms", "lower"),
    layer("service.wire.frame_ns", "ns", "lower"),
    layer("service.proto.client_codec_ns", "ns", "lower"),
    layer("service.proto.server_codec_ns", "ns", "lower"),
    layer("service.proto.peer_codec_ns", "ns", "lower"),
    layer("service.sock.uds_rtt_us", "us", "lower"),
    layer("service.node.idle_rtt_us", "us", "lower"),
    layer("service.cluster.restart_ms", "ms", "lower"),
    layer("e2e.recovery_ms", "ms", "lower"),
    // -- phase spans of the traced workload (median over units) -----------
    layer("core.scale.build_s", "s", "lower"),
    layer("core.scale.inject_s", "s", "lower"),
    layer("core.scale.advance_s", "s", "lower"),
    layer("core.engine.drive_s", "s", "lower"),
    layer("core.engine.quiesce_s", "s", "lower"),
    layer("core.engine.verify_soundness_s", "s", "lower"),
    layer("core.engine.verify_completeness_s", "s", "lower"),
    layer("core.engine.journal_snapshot_s", "s", "lower"),
    layer("ddb.net.drive_s", "s", "lower"),
    layer("ddb.net.drain_s", "s", "lower"),
    layer("ddb.net.verify_s", "s", "lower"),
    layer("service.cluster.start_ms", "ms", "lower"),
    layer("service.cluster.reports_ms", "ms", "lower"),
    layer("service.cluster.shutdown_ms", "ms", "lower"),
    layer("service.load.run_s", "s", "lower"),
    layer("service.snapshot.capture_ms", "ms", "lower"),
    layer("service.snapshot.verify_ms", "ms", "lower"),
    layer("workloads.gen_ms", "ms", "lower"),
    // -- counts at the same boundaries -------------------------------------
    layer("service.count.probe_sent", "count", "lower"),
    layer("service.count.declared", "count", "higher"),
    layer("service.count.restarted", "count", "lower"),
    layer("service.count.transport_unacked", "count", "lower"),
    layer("service.count.transport_abandoned", "count", "lower"),
    layer("sim.count.events", "count", "lower"),
    layer("sim.count.probes", "count", "lower"),
    layer("sim.count.declared", "count", "higher"),
    layer("sim.count.retransmissions", "count", "lower"),
    layer("sim.count.peak_queue_depth", "count", "lower"),
    // -- end-to-end numbers only some workloads have -----------------------
    layer("e2e_unstable.wait_p99_us", "us", "lower"),
    layer("e2e.txn_per_s", "1/s", "higher"),
    layer("e2e.probes_per_declared", "ratio", "lower"),
    layer("e2e.peak_rss_mb", "MB", "lower"),
    layer("e2e.peak_rss_bytes_per_vertex", "bytes", "lower"),
    layer("e2e.declare_p50_us", "us", "lower"),
    layer("e2e.declare_p99_us", "us", "lower"),
    layer("e2e.declare_samples", "count", "higher"),
    layer("e2e.grant_p50_us", "us", "lower"),
    layer("e2e.grant_p99_us", "us", "lower"),
    layer("e2e.wait_samples", "count", "higher"),
    layer("e2e.units", "count", "higher"),
    layer("service.detect.declare_minus_period_us", "us", "lower"),
    // -- the trace's own bookkeeping ----------------------------------------
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.span_coverage_share", "ratio", "higher"),
];

/// Phase span name → per-layer metric, per workload family, with the
/// factor from span seconds to the metric's unit.
pub fn span_metrics(workload: &str) -> &'static [(&'static str, &'static str, f64)] {
    match workload {
        "basic_scale" => &[
            ("build", "core.scale.build_s", 1.0),
            ("inject", "core.scale.inject_s", 1.0),
            ("advance", "core.scale.advance_s", 1.0),
        ],
        "basic_churn" | "basic_faulty" => &[
            ("drive", "core.engine.drive_s", 1.0),
            ("quiesce", "core.engine.quiesce_s", 1.0),
            ("verify.soundness", "core.engine.verify_soundness_s", 1.0),
            (
                "verify.completeness",
                "core.engine.verify_completeness_s",
                1.0,
            ),
            ("journal_snapshot", "core.engine.journal_snapshot_s", 1.0),
        ],
        "ddb_resolve" => &[
            ("drive", "ddb.net.drive_s", 1.0),
            ("drain", "ddb.net.drain_s", 1.0),
            ("verify", "ddb.net.verify_s", 1.0),
        ],
        _ => &[
            ("reports", "service.cluster.reports_ms", 1e3),
            ("shutdown", "service.cluster.shutdown_ms", 1e3),
            ("load.run", "service.load.run_s", 1.0),
            ("snapshot.capture", "service.snapshot.capture_ms", 1e3),
            ("snapshot.verify", "service.snapshot.verify_ms", 1e3),
        ],
    }
}

fn metric_json(m: &Metric, bounded: bool) -> String {
    let bound = if bounded {
        format!(", \"bound\": {}", m.bound)
    } else {
        String::new()
    };
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        m.name, m.unit, m.better
    )
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let join = |rows: Vec<String>| rows.join(",\n");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        join(
            WORKLOADS
                .iter()
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        ),
        join(END_TO_END.iter().map(|m| metric_json(m, true)).collect()),
        join(PER_LAYER.iter().map(|m| metric_json(m, false)).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "bad name in {names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('"')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn every_span_metric_is_in_the_catalogue() {
        for w in WORKLOADS {
            for (_, metric, _) in span_metrics(w.name) {
                assert!(PER_LAYER.iter().any(|m| m.name == *metric), "{metric}");
            }
        }
    }
}
