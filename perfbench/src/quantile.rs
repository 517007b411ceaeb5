//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints is computed here from the samples
//! it kept, never from `quit_core::LatencyHistogram`, whose power-of-two
//! bucket edges can hide a 1.9x change.

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample with
/// at least `q` of all samples at or below it. Always a sample value.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest percentile (as a fraction) that still has at least ten
/// samples beyond it, so that it rests on more than one or two values.
pub fn highest_supported(n: usize) -> f64 {
    if n <= 10 {
        0.0
    } else {
        1.0 - 10.0 / n as f64
    }
}

/// Summary of one latency sample set, in the unit the samples were taken.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    /// Sorts `samples` in place and summarises them.
    pub fn of(samples: &mut [f64]) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            n: samples.len(),
            p50: nearest_rank(samples, 0.50),
            p90: nearest_rank(samples, 0.90),
            p99: nearest_rank(samples, 0.99),
            max: *samples.last().expect("summary of no samples"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50.0);
        assert_eq!(nearest_rank(&s, 0.9), 90.0);
        assert_eq!(nearest_rank(&s, 0.99), 99.0);
        assert_eq!(nearest_rank(&s, 1.0), 100.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        let s = [10.0, 20.0, 30.0];
        assert_eq!(nearest_rank(&s, 0.5), 20.0);
        assert_eq!(nearest_rank(&s, 0.34), 20.0);
        assert_eq!(nearest_rank(&s, 0.33), 10.0);
    }

    #[test]
    fn quantiles_resolve_what_log2_buckets_would_merge() {
        // 1.0 and 1.9 share a power-of-two bucket; exact quantiles keep them apart.
        let mut a = vec![1.0; 100];
        let mut b = vec![1.9; 100];
        assert_eq!(Summary::of(&mut a).p50, 1.0);
        assert_eq!(Summary::of(&mut b).p50, 1.9);
    }

    #[test]
    fn summary_sorts_and_reports_tail() {
        let mut s = vec![5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0];
        let sum = Summary::of(&mut s);
        assert_eq!(
            (sum.n, sum.p50, sum.p90, sum.p99, sum.max),
            (10, 5.0, 9.0, 10.0, 10.0)
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[6.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn supported_percentile_leaves_ten_samples_beyond() {
        assert_eq!(highest_supported(10), 0.0);
        assert!((highest_supported(1000) - 0.99).abs() < 1e-12);
        assert!((highest_supported(100_000) - 0.9999).abs() < 1e-12);
    }
}
