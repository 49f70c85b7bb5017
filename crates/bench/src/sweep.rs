//! The engine-selection environment switch of `exp_scale`,
//! `exp_soundness`, `exp_baselines` and `exp_or_model`
//! (`tests/golden_tables.rs` runs each at `CMH_SHARDS=4` against the
//! same golden file as at 1).

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_empty_and_garbage_mean_the_defaults() {
        for v in [None, Some(""), Some("0"), Some("x")] {
            assert_eq!(parse_shards(v), 1);
        }
        assert_eq!(parse_shards(Some(" 4 ")), 4);
    }
}
