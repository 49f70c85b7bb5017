//! End-to-end probe-computation benchmarks: how long (wall clock) a full
//! simulated detection takes, from request issue to quiescence, across
//! system sizes and topologies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use cmh_core::{BasicConfig, BasicNet};
use simnet::latency::LatencyModel;
use simnet::metrics::builtin;
use simnet::sim::SimBuilder;
use wfg::generators;
use workloads::{drive_schedule, random_churn, ChurnConfig};

fn detect_cycle(n: usize) -> usize {
    let mut net = BasicNet::new(n, BasicConfig::on_block(4), 42);
    net.request_edges(&generators::cycle(n)).unwrap();
    net.run_to_quiescence(100_000_000);
    net.declarations().len()
}

fn detect_cycle_with_tails(cycle_len: usize) -> usize {
    let edges = generators::cycle_with_tails(cycle_len, 2, cycle_len);
    let n = cycle_len + 2 * cycle_len;
    let mut net = BasicNet::new(n, BasicConfig::on_block(4), 42);
    net.request_edges(&edges).unwrap();
    net.run_to_quiescence(100_000_000);
    net.declarations().len()
}

fn bench_cycle_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect/cycle");
    // End-to-end runs are whole simulations; keep sampling lean.
    group.sample_size(10);
    for n in [8usize, 32, 128] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(detect_cycle(n)));
        });
    }
    group.finish();
}

fn bench_cycle_with_tails(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect/cycle_with_tails");
    group.sample_size(10);
    for n in [8usize, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(detect_cycle_with_tails(n)));
        });
    }
    group.finish();
}

fn bench_wfgd(c: &mut Criterion) {
    // Full §5 propagation on a ring: declaration plus WFGD to fixpoint.
    let mut group = c.benchmark_group("wfgd/ring");
    group.sample_size(10);
    for n in [8usize, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut net = BasicNet::new(n, BasicConfig::manual(), 1);
                net.request_edges(&generators::cycle(n)).unwrap();
                net.run_to_quiescence(100_000_000);
                net.with_node(simnet::sim::NodeId(0), |p, ctx| p.initiate(ctx));
                net.run_to_quiescence(100_000_000);
                black_box(net.node(simnet::sim::NodeId(0)).wfgd_edges().len())
            });
        });
    }
    group.finish();
}

/// The benchmark's `basic_churn` unit (n = 32, bimodal latency, verified
/// churn with injected 4-rings) played to quiescence; returns the number
/// of simulator events it took.
fn churn(duration: u64) -> u64 {
    let sched = random_churn(&ChurnConfig {
        n: 32,
        duration,
        mean_gap: 8,
        cycle_prob: 0.02,
        cycle_len: 4,
        seed: 1,
    });
    let builder = SimBuilder::new().seed(1).latency(LatencyModel::Bimodal {
        fast_lo: 1,
        fast_hi: 5,
        slow_lo: 60,
        slow_hi: 200,
        slow_prob: 0.15,
    });
    let mut net = BasicNet::with_builder(sched.n, BasicConfig::on_block(25), builder);
    drive_schedule(
        &mut net,
        &sched,
        |net, at| {
            net.run_until(at);
        },
        |net, from, to| net.request(from, to).is_ok(),
    );
    net.run_to_quiescence(100_000_000);
    net.metrics().get(builtin::EVENTS)
}

fn bench_wfgd_churn(c: &mut Criterion) {
    // Nothing in the basic model dissolves a deadlock, so the longer the
    // schedule the larger the S_j sets every §5 message carries. The
    // ns/element column is cost per simulator event: it must stay nearly
    // flat as the duration doubles, or some per-message cost has become
    // proportional to the history again.
    let mut group = c.benchmark_group("wfgd/churn");
    group.sample_size(10);
    for duration in [1000u64, 2000, 4000] {
        group.throughput(Throughput::Elements(churn(duration)));
        group.bench_with_input(BenchmarkId::from_parameter(duration), &duration, |b, &d| {
            b.iter(|| black_box(churn(d)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cycle_detection,
    bench_cycle_with_tails,
    bench_wfgd,
    bench_wfgd_churn
);
criterion_main!(benches);
