//! Small numeric helpers used by the experiment harness.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean; 0.0 for an empty slice. Non-positive entries are skipped
/// (they would make the geomean undefined); if all entries are non-positive
/// the result is 0.0. The paper reports its overall overhead as a geometric
/// mean across benchmarks.
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|&&x| x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Relative overhead `(observed - ideal) / ideal * 100`, the paper's
/// profiling-overhead metric (§VI-B1). Returns 0.0 when `ideal` is zero.
pub fn overhead_pct(observed: f64, ideal: f64) -> f64 {
    if ideal <= 0.0 {
        0.0
    } else {
        (observed - ideal) / ideal * 100.0
    }
}

/// The `p`-th percentile (`p` in `[0, 100]`) of `xs` with linear
/// interpolation between closest ranks; 0.0 for an empty slice. The input
/// does not need to be sorted (a sorted copy is made internally). Used by
/// the serving layer for p50/p95/p99 job-latency reporting.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The standard service-latency triple `(p50, p95, p99)` of `xs`.
pub fn latency_percentiles(xs: &[f64]) -> (f64, f64, f64) {
    (percentile(xs, 50.0), percentile(xs, 95.0), percentile(xs, 99.0))
}

/// Index of the minimum element (first on ties); `None` when empty or when
/// any element is NaN.
pub fn argmin(xs: &[f64]) -> Option<usize> {
    if xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    xs.iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN filtered above"))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean(&[1.0, 100.0]);
        assert!((g - 10.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_skips_nonpositive() {
        assert_eq!(geomean(&[0.0, -5.0]), 0.0);
        let g = geomean(&[0.0, 4.0, 9.0]);
        assert!((g - 6.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_pct_basic() {
        assert!((overhead_pct(110.0, 100.0) - 10.0).abs() < 1e-12);
        assert_eq!(overhead_pct(110.0, 0.0), 0.0);
    }

    #[test]
    fn argmin_finds_first_minimum() {
        assert_eq!(argmin(&[3.0, 1.0, 1.0, 2.0]), Some(1));
        assert_eq!(argmin(&[]), None);
        assert_eq!(argmin(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert!((percentile(&xs, 50.0) - 25.0).abs() < 1e-12);
        // Unsorted input gives the same answer.
        let shuffled = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&shuffled, 50.0), percentile(&xs, 50.0));
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Out-of-range p clamps rather than panicking.
        assert_eq!(percentile(&[1.0, 2.0], 150.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], -5.0), 1.0);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let (p50, p95, p99) = latency_percentiles(&xs);
        assert!(p50 <= p95 && p95 <= p99);
        assert!((p50 - 50.5).abs() < 1.0);
        assert!(p99 > 98.0);
    }
}
