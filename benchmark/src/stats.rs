//! Order statistics shared by the workloads and the comparator.

/// A sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (`0..=100`) of already sorted data, linearly
/// interpolated between the two closest ranks. Empty data gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted data.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Arithmetic mean; 0 for empty data.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First quartile, median, and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads read the same here as in any external check.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let d = sorted(values);
    let ld = d.len();
    match ld {
        0 => return (0.0, 0.0, 0.0),
        1 => return (d[0], d[0], d[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative or above 4 where `j` was clamped: Python extrapolates
        // from the two end points there, and so does this.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// p50 and p99 of a latency sample, plus its size.
#[derive(Clone, Copy, Debug, Default)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Latency {
    /// Summarize a sample.
    pub fn of(values: &[f64]) -> Latency {
        let s = sorted(values);
        Latency {
            n: s.len(),
            p50: percentile(&s, 50.0),
            p99: percentile(&s, 99.0),
        }
    }
}

/// One timed operation: when it started, in seconds into its window,
/// and how long it took.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Start, in seconds from the start of the window.
    pub t: f64,
    /// Latency in µs.
    pub us: f64,
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let d: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&d, 50.0), 51.0);
        assert_eq!(percentile(&d, 99.0), 100.0);
        assert_eq!(percentile(&d, 0.0), 1.0);
        assert_eq!(percentile(&d, 100.0), 101.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn p99_of_a_thousand_samples_leaves_ten_beyond() {
        let d: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&d, 99.0);
        assert_eq!(d.iter().filter(|v| **v > p99).count(), 10);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let d: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&d), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 4.0, 2.0, 1.0]), (1.25, 3.0, 7.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let d: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&d) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0]), 0.0);
    }
}
