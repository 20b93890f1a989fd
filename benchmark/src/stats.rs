//! Percentiles, quartiles and the sample-count rule the benchmark
//! reports timings with.

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentile `p` in `[0, 1]` of `sorted` by linear interpolation
/// between the two nearest ranks. `sorted` must be ascending and
/// non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Samples strictly beyond percentile `p` among `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((n as f64 * p).ceil() as usize).min(n)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so `compare` measures spread the way the driver does.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Arithmetic mean; 0 when there are no values.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 0.5)
}

/// Median, quartiles and count of one timing, as every timing is
/// reported.
#[derive(Clone, Debug)]
pub struct Summary {
    pub name: String,
    pub unit: &'static str,
    pub count: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p| if sorted.is_empty() { 0.0 } else { percentile(&sorted, p) };
        Summary {
            name: name.into(),
            unit,
            count: samples.len(),
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }
}

/// Percentile `p` of unsorted samples; 0 when there are none.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn ten_beyond_rule_sets_the_sample_count_a_percentile_needs() {
        // p95 needs 200 samples, p99 needs 1000, the median needs 20.
        for (p, needed) in [(0.5, 20), (0.9, 100), (0.95, 200), (0.99, 1000)] {
            assert_eq!(beyond(needed, p), MIN_BEYOND, "p{p} at {needed}");
            assert_eq!(beyond(needed - 1, p), MIN_BEYOND - 1, "p{p} at {}", needed - 1);
        }
        // The 120-sample p99 of the old service bench had one sample
        // beyond it; the 288-sample p95 of rung 24 has fourteen.
        assert_eq!(beyond(120, 0.99), 1);
        assert_eq!(beyond(288, 0.95), 14);
        assert_eq!(beyond(0, 0.95), 0);
    }

    #[test]
    fn percentile_of_sorts_and_tolerates_no_samples() {
        assert_eq!(percentile_of(&[], 0.95), 0.0);
        assert_eq!(percentile_of(&[5.0, 1.0, 3.0], 0.5), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }
}
