//! Order statistics and the percentile rule.

/// The percentiles the benchmark is willing to report, ascending, each
/// with the share of samples beyond it in parts per thousand (integers, so
/// that 10 000 samples × 0.1 % is exactly ten).
const LADDER: [(f64, usize); 6] = [
    (50.0, 500),
    (75.0, 250),
    (90.0, 100),
    (95.0, 50),
    (99.0, 10),
    (99.9, 1),
];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// The highest percentile of [`LADDER`] with at least ten of `n` samples
/// beyond it, or `None` when even the median has fewer.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .filter(|(_, beyond)| n * beyond >= MIN_BEYOND * 1000)
        .map(|(p, _)| *p)
        .next_back()
}

/// Whether `n` samples support percentile `p` under the rule.
pub fn supports(n: usize, p: f64) -> bool {
    highest_percentile(n).is_some_and(|top| top >= p)
}

/// Percentile `p` (0–100) by linear interpolation between closest ranks.
/// Returns 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(39), Some(50.0));
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(99), Some(75.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(100, 50.0));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
        assert_eq!(mean(&v), 2.5);
    }
}
