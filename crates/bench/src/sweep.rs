//! The engine-selection environment switches of `exp_scale` and
//! `exp_soundness` (and of the CI `multicore-determinism` job, which
//! diffs their totals across settings).

use simnet::latency::LatencyModel;

/// The simulator shard count requested via `CMH_SHARDS` (unset, empty,
/// `0` or unparsable mean 1). The one place the
/// variable is read: the `exp_*` binaries pass the count to
/// `SimBuilder::shards`.
pub fn shards_from_env() -> usize {
    parse_shards(std::env::var("CMH_SHARDS").ok().as_deref())
}

fn parse_shards(v: Option<&str>) -> usize {
    v.and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(1)
        .max(1)
}

/// The latency model requested via `CMH_LATENCY`: `wan` selects
/// [`LatencyModel::wan`] (a 3-tick floor, so the sharded engine coalesces
/// multi-tick conservative windows); unset, empty or `default` selects
/// the default single-tick-floor model. Any other value aborts — a typo
/// must not silently print default-latency numbers for a `wan` run.
pub fn latency_from_env() -> LatencyModel {
    parse_latency(std::env::var("CMH_LATENCY").ok().as_deref())
}

fn parse_latency(v: Option<&str>) -> LatencyModel {
    match v {
        None | Some("") | Some("default") => LatencyModel::default(),
        Some("wan") => LatencyModel::wan(),
        Some(other) => panic!("CMH_LATENCY={other} not recognised (use `wan` or `default`)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_empty_and_garbage_mean_the_defaults() {
        for v in [None, Some(""), Some("0"), Some("x")] {
            assert_eq!(parse_shards(v), 1);
        }
        assert_eq!(parse_shards(Some(" 4 ")), 4);
        for v in [None, Some(""), Some("default")] {
            assert_eq!(parse_latency(v), LatencyModel::default());
        }
        assert_eq!(parse_latency(Some("wan")), LatencyModel::wan());
    }

    #[test]
    #[should_panic(expected = "not recognised")]
    fn a_latency_typo_aborts() {
        parse_latency(Some("wna"));
    }
}
