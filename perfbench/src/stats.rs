//! Order statistics for timing samples.
//!
//! A percentile is only as good as the samples above it: a p90 read off
//! twelve samples is one sample. [`percentile`] therefore refuses any
//! rank with fewer than [`MIN_BEYOND`] samples strictly beyond it, so a
//! shortened run cannot report a tail it did not observe.

/// Samples that must lie beyond a reported percentile rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `pct`-th percentile (`1..=99`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    assert!((1..=99).contains(&pct), "percentile {pct} outside 1..=99");
    let n = samples.len();
    // 1-based nearest rank: ceil(pct * n / 100), in integers.
    let rank = (pct * n).div_ceil(100).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Plain median (mean of the middle pair for even counts), for small
/// sets of repeated measurements such as set-up times. `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Reverse order: the helper must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn p50_needs_ten_samples_above_it() {
        assert_eq!(percentile(&one_to(20), 50), Some(10.0));
        assert_eq!(percentile(&one_to(19), 50), None);
        assert_eq!(percentile(&one_to(21), 50), Some(11.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(percentile(&one_to(100), 90), Some(90.0));
        assert_eq!(percentile(&one_to(99), 90), None);
        assert_eq!(percentile(&one_to(13), 90), None);
        assert_eq!(percentile(&one_to(250), 90), Some(225.0));
    }

    #[test]
    fn empty_input_is_refused() {
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
