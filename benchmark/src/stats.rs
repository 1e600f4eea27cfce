//! Order statistics for latency samples, and the rule that decides which
//! percentile a sample set is large enough to report.

/// Sorted copy of `values` (NaN-free input assumed: every sample is a
/// measured duration or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the midpoint convention for even counts. `None` when
/// there are no samples — a metric without samples is an error, never 0.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile over an already-sorted set: the smallest
/// sample with at least `p` of the set at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

fn nearest_rank(samples: usize, p: f64) -> Option<usize> {
    if samples == 0 {
        return None;
    }
    Some(((p * samples as f64).ceil() as usize).clamp(1, samples))
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(samples: usize, p: f64) -> usize {
    nearest_rank(samples, p).map_or(0, |rank| samples - rank)
}

/// The percentile rule: a percentile is reportable only when at least
/// ten samples lie beyond it, so a single stall cannot set the value.
pub fn supports_percentile(samples: usize, p: f64) -> bool {
    samples_beyond(samples, p) >= 10
}

/// The highest of p50 / p90 / p99 / p99.9 the sample count supports.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|p| supports_percentile(samples, *p))
}

/// Median of the last tenth of `series` over the median of its first
/// tenth: > 1 means per-operation cost grows as the session ages.
pub fn slope(series: &[f64]) -> Option<f64> {
    let tenth = (series.len() / 10).max(1);
    if series.len() < 2 * tenth {
        return None;
    }
    let first = median(&series[..tenth])?;
    let last = median(&series[series.len() - tenth..])?;
    (first > 0.0).then(|| last / first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn rule_needs_ten_samples_beyond_the_percentile() {
        // p90 of 100 samples leaves exactly ten beyond; 99 leaves nine.
        assert!(supports_percentile(100, 0.9));
        assert!(!supports_percentile(99, 0.9));
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(999, 0.99));
        assert!(supports_percentile(20, 0.5));
        assert!(!supports_percentile(19, 0.5));
    }

    #[test]
    fn highest_supported_climbs_with_sample_count() {
        assert_eq!(highest_supported_percentile(5), None);
        assert_eq!(highest_supported_percentile(25), Some(0.5));
        assert_eq!(highest_supported_percentile(110), Some(0.9));
        assert_eq!(highest_supported_percentile(3_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn slope_compares_last_tenth_to_first() {
        let flat = vec![2.0; 50];
        assert_eq!(slope(&flat), Some(1.0));
        let growing: Vec<f64> = (1..=100).map(f64::from).collect();
        // first tenth 1..=10 (median 5.5), last tenth 91..=100 (95.5).
        assert_eq!(slope(&growing), Some(95.5 / 5.5));
        assert_eq!(slope(&[1.0]), None);
    }
}
