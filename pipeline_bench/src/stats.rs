//! Summary statistics: percentiles with the sample-count rule, medians
//! and geometric means.

/// Percentiles the benchmark may report, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: f64 = 10.0;

/// The `p`-th percentile (0–100) of `sorted` ascending samples, linearly
/// interpolated between the closest ranks. Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond the `p`-th
/// percentile, the condition for reporting it.
fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9
}

/// The highest percentile of the reporting ladder that `n` samples
/// support, or `None` when not even the median does.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| supports(n, p))
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Geometric mean of positive values (0 for none or any non-positive).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 95.0) - 4.8).abs() < 1e-12);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert!(!supports(199, 95.0));
        assert!(supports(200, 95.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(250), Some(95.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[3.0, 0.0]), 0.0);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
