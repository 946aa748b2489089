//! Order statistics used by every workload.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`: the smallest
/// sample with at least `p` % of the samples at or below it. `None` when
/// `samples` is empty or `p` is out of range.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median by nearest rank.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 50.0)
}

/// Number of samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// The highest of `candidates` (percentiles, ascending or not) that has
/// at least `min_beyond` samples beyond it out of `n`.
pub fn highest_supported(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| n > 0 && beyond(n, p) >= min_beyond)
        .max_by(f64::total_cmp)
}

/// Quartiles of `values` with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - 4j;
    // q = (s[j-1]*(4-delta) + s[j]*delta) / 4.
    let q = |i: usize| {
        let m = (i * (n + 1)) as i64;
        let j = (m / 4).clamp(1, n as i64 - 1);
        let delta = (m - 4 * j) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Distance between the first and third quartile as a share of the
/// median (the steadiness measure the benchmark is tuned against).
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    if q2 == 0.0 {
        return None;
    }
    Some((q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(1.0));
        assert_eq!(nearest_rank(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&v, 0.0), None);
        assert_eq!(median(&[4.0, 1.0]), Some(1.0));
    }

    #[test]
    fn highest_percentile_with_ten_beyond() {
        let c = [50.0, 90.0, 99.0];
        assert_eq!(highest_supported(19, &c, 10), None);
        assert_eq!(highest_supported(20, &c, 10), Some(50.0));
        assert_eq!(highest_supported(99, &c, 10), Some(50.0));
        assert_eq!(highest_supported(100, &c, 10), Some(90.0));
        assert_eq!(highest_supported(999, &c, 10), Some(90.0));
        assert_eq!(highest_supported(1000, &c, 10), Some(99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]), Some((1.0, 3.0, 5.0)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 3.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quartile_spread_is_relative_iqr() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[2.0; 10]), Some(0.0));
        assert_eq!(quartile_spread(&[0.0; 4]), None);
    }
}
