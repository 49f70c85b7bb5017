//! Order statistics on raw samples: exact quantiles from the sorted
//! values, no histogram buckets (and no dependency on `cmh_bench::hist`,
//! which ROADMAP plans to move).

/// Sorts `xs` and returns the `q`-quantile by the nearest-rank rule
/// (`q = 0.5` of `[1, 2, 3, 4]` is 2; `q = 0.99` of 1000 samples leaves
/// exactly ten beyond it). Panics on an empty slice: a workload that
/// produced no samples is a harness bug, not a measurement.
///
/// `quantum` is the samples' resolution: `loadgen` reports latencies
/// truncated to whole microseconds, so thousands of samples tie on the
/// quantile's value and the true quantile lies somewhere in
/// `[v, v + quantum)`. The rank's position among the ties places it
/// there. Exact samples pass 0.
pub fn quantile(xs: &mut [f64], q: f64, quantum: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    xs.sort_by(f64::total_cmp);
    let idx = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len()) - 1;
    let v = xs[idx];
    let first = xs.partition_point(|&x| x < v);
    let ties = xs.partition_point(|&x| x <= v) - first;
    v + quantum * ((idx - first) as f64 + 0.5) / ties as f64
}

/// Median of `xs` (mean of the two middle values for an even count, so
/// it agrees with Python's `statistics.median`).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the middle half of `xs` (the interquartile mean): as deaf to
/// both tails as the median, but it averages over the samples around
/// the middle where the median picks one.
pub fn midmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "midmean of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = &v[v.len() / 4..v.len() - v.len() / 4];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The harness's summary of the repetitions of one piece of work: the
/// fast end of their distribution. Interference from the shared host
/// only ever slows a repetition, so the fast end is the reproducible
/// one.
pub fn low(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "low of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method), so the spread `--sets` prints is
/// the number the benchmark contract is judged by.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos - j * 4) as f64 / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.5, 0.0), 500.0);
        assert_eq!(quantile(&mut xs, 0.99, 0.0), 990.0);
        assert_eq!(quantile(&mut [7.0], 0.99, 0.0), 7.0);
    }

    #[test]
    fn truncated_samples_interpolate_among_ties() {
        // Ranks 1..=4 tie on 5: the median (rank 3 of 6) sits 2.5/4 of
        // the way through the microsecond.
        let mut xs = [5.0, 5.0, 5.0, 5.0, 6.0, 9.0];
        assert_eq!(quantile(&mut xs, 0.5, 1.0), 5.625);
        assert_eq!(quantile(&mut xs, 1.0, 1.0), 9.5);
    }

    #[test]
    fn midmean_ignores_both_tails() {
        let xs = [1000.0, 2.0, 3.0, 4.0, 5.0, 0.0, 3.0, 4.0];
        // Sorted: 0 2 | 3 3 4 4 | 5 1000.
        assert_eq!(midmean(&xs), 3.5);
        assert_eq!(midmean(&[7.0]), 7.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
    }
}
