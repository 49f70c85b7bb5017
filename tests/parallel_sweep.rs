//! Parallel seed sweeps must be observationally identical to serial ones.
//!
//! The `exp_*` binaries fan independent seeded runs out over OS threads
//! via `simnet::batch`, always. That is only sound if a run's result is
//! a pure function of its seed — no ambient state, no
//! cross-run leakage through thread-locals or iteration order. These
//! tests pin that: the same per-seed metric digests must come back, in
//! the same order, from (a) a plain serial loop, (b) `par_seeds`, and
//! (c) an explicitly multi-threaded fan-out that runs worker threads
//! even on a single-core host (where `par_seeds` falls back to serial).

use cmh_core::{BasicConfig, BasicNet};
use simnet::batch::par_seeds;
use workloads::{drive_schedule, random_churn, ChurnConfig};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One experiment-shaped run: churn workload, detector on, digest of the
/// full metrics dump (event counts, probe counts, declarations — any
/// scheduling difference shows up here).
fn run_metrics_digest(seed: u64) -> u64 {
    let sched = random_churn(&ChurnConfig {
        n: 8,
        duration: 1_500,
        mean_gap: 25,
        cycle_prob: 0.08,
        cycle_len: 3,
        seed,
    });
    let mut net = BasicNet::new(sched.n, BasicConfig::on_block(10), seed);
    drive_schedule(
        &mut net,
        &sched,
        |x, at| {
            x.run_until(at);
        },
        |x, f, t| x.request(f, t).is_ok(),
    );
    net.run_to_quiescence(10_000_000);
    fnv1a(net.metrics().to_string().as_bytes())
}

const SEEDS: u64 = 8;

#[test]
fn par_seeds_matches_serial_per_seed() {
    let serial: Vec<u64> = (0..SEEDS).map(run_metrics_digest).collect();
    let parallel = par_seeds(SEEDS, run_metrics_digest);
    assert_eq!(serial, parallel);
}

#[test]
fn explicit_thread_fanout_matches_serial_per_seed() {
    let serial: Vec<u64> = (0..SEEDS).map(run_metrics_digest).collect();
    // Four real worker threads over interleaved seed strides, regardless
    // of how many cores the host reports.
    let mut fanned = vec![0u64; SEEDS as usize];
    // cmh-lint: allow(D4) — pins that parallel sweeps are bit-identical to serial
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for stride in 0..4u64 {
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                let mut seed = stride;
                while seed < SEEDS {
                    out.push((seed as usize, run_metrics_digest(seed)));
                    seed += 4;
                }
                out
            }));
        }
        for h in handles {
            for (i, d) in h.join().expect("worker panicked") {
                fanned[i] = d;
            }
        }
    });
    assert_eq!(serial, fanned);
}
