//! Order statistics over small samples.

/// The median (mean of the two middle values for an even count).
/// Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile of a sample (`q` in `0..=1`): the
/// smallest value with at least `q` of the sample at or below it.
/// Returns 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them — the driver measures spread with that function, so
/// the calibration must too. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |i: usize| {
        // statistics.quantiles: j = i*(n+1)//4 clamped to 1..=n-1,
        // delta = i*(n+1) - 4j, result = (x[j-1]*(4-delta) + x[j]*delta)/4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The median of a log-bucketed histogram, interpolated linearly inside
/// the bucket that holds it. `buckets` are ascending `(inclusive upper
/// bound, count)` pairs as `cpvr-obs` exports them, where the bucket
/// with upper bound `u = 2^i - 1` covers `[2^(i-1), u]`; reporting the
/// raw bound would make the value jump by a factor of two between runs.
pub fn bucketed_median(buckets: &[(u64, u64)]) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = total as f64 / 2.0;
    let mut cum = 0.0;
    for &(upper, count) in buckets {
        let next = cum + count as f64;
        if next >= rank {
            let lower = (upper / 2 + upper % 2) as f64;
            let within = (rank - cum) / count as f64;
            return lower + (upper as f64 - lower) * within;
        }
        cum = next;
    }
    buckets.last().map_or(0.0, |&(u, _)| u as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
    }

    #[test]
    fn bucketed_median_interpolates() {
        // 10 observations in [4,7]: the median sits mid-bucket.
        assert_eq!(bucketed_median(&[(7, 10)]), 5.5);
        // Half the mass in [2,3]: the median is that bucket's top.
        assert_eq!(bucketed_median(&[(3, 5), (7, 5)]), 3.0);
        assert_eq!(bucketed_median(&[]), 0.0);
    }
}
