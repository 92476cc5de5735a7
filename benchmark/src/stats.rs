//! Order statistics over timing samples.

/// Nearest-rank percentile of `samples` (`q` in `0.0..=1.0`); 0.0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[rank]
}

/// The iteration every wall-clock end-to-end number is taken from. The
/// workloads are deterministic, so host noise only ever adds time: a low
/// percentile estimates the undisturbed cost, and p10 (not the minimum)
/// keeps one lucky sample from deciding it.
pub fn p10(samples: &[f64]) -> f64 {
    percentile(samples, 0.10)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.50)
}

pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// `a / b`, or 0.0 when `b` is 0 — metrics must stay finite to be JSON.
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
    fn percentiles_use_nearest_rank_on_sorted_samples() {
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(p10(&xs), 2.0);
        assert_eq!(median(&xs), 6.0);
        assert_eq!(percentile(&xs, 0.9), 10.0);
        assert_eq!(percentile(&xs, 1.0), 11.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(p10(&[3.0]), 3.0);
    }

    #[test]
    fn p10_ignores_slow_outliers() {
        let mut xs = vec![10.0; 20];
        xs.extend([50.0, 80.0, 200.0]);
        assert_eq!(p10(&xs), 10.0);
    }

    #[test]
    fn ratio_of_zero_base_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
