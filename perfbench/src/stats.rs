//! Order statistics of latency samples.
//!
//! Percentiles use the nearest-rank rule: the `p`-th percentile of `n`
//! ascending samples is the sample at rank `ceil(p·n/100)` (1-based), so it
//! is always an observed value and `n − rank` samples lie beyond it. A tail
//! percentile is only worth reporting with at least ten samples beyond it.

/// Rank (1-based) of the nearest-rank `pct`-th percentile among `n`
/// samples. Integer arithmetic, so `pct = 90, n = 100` is exactly rank 90.
pub fn rank(n: usize, pct: u32) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((1..=100).contains(&pct), "percentile {pct} outside 1..=100");
    (pct as usize * n).div_ceil(100).clamp(1, n)
}

/// The nearest-rank `pct`-th percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// Samples strictly beyond the `pct`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    n - rank(n, pct)
}

/// Sorts ascending (every benchmark value is finite).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The nearest-rank median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_values() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 5.0);
        assert_eq!(percentile(&s, 90), 9.0);
        assert_eq!(percentile(&s, 100), 10.0);
        assert_eq!(percentile(&s, 1), 1.0);
        assert_eq!(percentile(&[3.5], 90), 3.5);
    }

    #[test]
    fn p90_has_ten_samples_beyond_it_from_one_hundred_samples() {
        assert_eq!(rank(100, 90), 90);
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(99, 90), 9);
        assert_eq!(samples_beyond(1000, 90), 100);
        assert_eq!(samples_beyond(1, 50), 0);
    }

    #[test]
    fn median_of_unsorted_sample() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 2.0, 3.0, 1.0]), 2.0);
    }
}
