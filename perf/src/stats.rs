//! Order statistics for timing samples.
//!
//! A timing is reported as a median plus the highest percentile the sample
//! can support: one that leaves at least [`MIN_BEYOND`] samples beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [u32; 4] = [99, 95, 90, 75];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `1..=100`; 0 when empty.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p.min(100) as usize * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

/// The highest of p99/p95/p90/p75 that leaves at least [`MIN_BEYOND`] of
/// `n` samples beyond it, or `None` when even p75 does not (n < 40).
pub fn supported_tail(n: usize) -> Option<u32> {
    TAILS.into_iter().find(|&p| n - (p as usize * n).div_ceil(100) >= MIN_BEYOND)
}

/// The tail of a sample: `(value, label)` where the label names what the
/// value is — `"p99"`, … or `"max"` when the sample is too small for any
/// percentile and the largest sample stands in.
pub fn tail(xs: &[f64]) -> (f64, String) {
    match supported_tail(xs.len()) {
        Some(p) => (percentile(xs, p), format!("p{p}")),
        None => (xs.iter().copied().fold(0.0, f64::max), "max".to_string()),
    }
}

/// Spread of a sample in percent: the distance between its first and third
/// quartile as a share of its median — the statistic the benchmark driver
/// applies across runs, with Python's `statistics.quantiles(xs, n=4)`
/// (exclusive method, which extrapolates for very small samples). 0 for
/// fewer than two samples.
pub fn spread_pct(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let rank = k * (n + 1);
        let j = (rank / 4).clamp(1, n - 1);
        let delta = rank as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    100.0 * (quartile(3) - quartile(1)) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 99), 99.0);
        assert_eq!(percentile(&xs, 100), 100.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(12_000), Some(99));
        assert_eq!(supported_tail(1_000), Some(99));
        assert_eq!(supported_tail(999), Some(95));
        assert_eq!(supported_tail(800), Some(95));
        assert_eq!(supported_tail(200), Some(95));
        assert_eq!(supported_tail(199), Some(90));
        assert_eq!(supported_tail(40), Some(75));
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(0), None);
        let small = [1.0, 9.0, 3.0];
        assert_eq!(tail(&small), (9.0, "max".to_string()));
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big), (990.0, "p99".to_string()));
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        assert_eq!(spread_pct(&[5.0]), 0.0);
        // statistics.quantiles([9, 10, 11], n=4) == [9.0, 10.0, 11.0]
        assert_eq!(spread_pct(&[11.0, 9.0, 10.0]), 20.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread_pct(&ten), 100.0);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert!((spread_pct(&[10.0, 12.0]) - 100.0 * 3.0 / 11.0).abs() < 1e-12);
        // One outlying pass among nine barely moves it.
        let mut walls = vec![2.0; 8];
        walls.push(3.0);
        assert_eq!(spread_pct(&walls), 0.0);
    }
}
