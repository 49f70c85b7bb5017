//! Env-gated parallel seed sweeps for the `exp_*` binaries.
//!
//! Every experiment is a loop of independent, seeded, single-threaded
//! simulation runs — embarrassingly parallel across seeds. This module
//! routes such loops through [`simnet::batch`] when the
//! `CMH_PAR_SEEDS` environment variable is set (to anything but `0`),
//! and runs them serially otherwise.
//!
//! Results come back **in input order in both modes**, and each run's
//! result depends only on its input, so the aggregate tables are
//! bit-identical either way (`tests/parallel_sweep.rs` pins this).
//! Serial stays the default so recorded experiment outputs remain
//! reproducible on any machine without flags.

use simnet::batch::par_map;

/// True when `CMH_PAR_SEEDS` asks for parallel sweeps.
///
/// Set (`CMH_PAR_SEEDS=1`) to fan independent runs out over OS threads;
/// unset, empty or `0` means serial.
pub fn parallel_enabled() -> bool {
    match std::env::var("CMH_PAR_SEEDS") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// The simulator shard count requested via `CMH_SHARDS` (unset, empty,
/// `0` or unparsable mean 1 — the sequential engine). The one place the
/// variable is read: the `exp_*` binaries pass the count to
/// `SimBuilder::shards` and stamp it into their [`crate::record`]s.
pub fn shards_from_env() -> usize {
    std::env::var("CMH_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(1)
        .max(1)
}

/// The `CMH_LATENCY` request as a record-stampable name: `"wan"` or
/// `"default"`. Any other value aborts — a typo must not silently record
/// default-latency numbers under a `wan` label (or vice versa).
pub fn latency_name_from_env() -> &'static str {
    match std::env::var("CMH_LATENCY").ok().as_deref() {
        None | Some("") | Some("default") => "default",
        Some("wan") => "wan",
        Some(other) => panic!("CMH_LATENCY={other} not recognised (use `wan` or `default`)"),
    }
}

/// The latency model requested via `CMH_LATENCY`: `wan` selects
/// [`simnet::latency::LatencyModel::wan`] (a 3-tick floor, so the sharded
/// engine coalesces multi-tick conservative windows); unset or empty
/// selects the default single-tick-floor model.
pub fn latency_from_env() -> simnet::latency::LatencyModel {
    match latency_name_from_env() {
        "wan" => simnet::latency::LatencyModel::wan(),
        _ => simnet::latency::LatencyModel::default(),
    }
}

/// Applies `f` to every item — in parallel iff [`parallel_enabled`] —
/// returning results in input order.
pub fn sweep_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if parallel_enabled() {
        par_map(items, f)
    } else {
        items.into_iter().map(f).collect()
    }
}

/// Runs `f(seed)` for every seed in `0..runs`, ordered by seed.
pub fn seed_sweep<R, F>(runs: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    sweep_map((0..runs).collect(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order_serially() {
        // The env var is not set under `cargo test`, so this exercises the
        // serial path; the parallel path is pinned by par_map's own tests
        // and tests/parallel_sweep.rs.
        let out = seed_sweep(16, |s| s * 3);
        assert_eq!(out, (0..16).map(|s| s * 3).collect::<Vec<_>>());
    }
}
