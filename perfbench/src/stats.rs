//! Order statistics with an honesty guard.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: a p95 from 40 samples is two observations, not a tail.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, refused unless at
/// least [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    at_rank(samples, rank_of(samples.len(), q))
}

/// Median, under the same guard (so at least 20 samples).
pub fn p50(samples: &[f64]) -> Result<f64, String> {
    percentile(samples, 0.5)
}

/// The highest percentile up to `q` that the guard allows, as
/// `(percentile, value)`. Long-running operations cannot gather the 200
/// samples a p95 needs within one run; this reports how far into the
/// tail the run can honestly see instead.
pub fn tail(samples: &[f64], q: f64) -> Result<(f64, f64), String> {
    let n = samples.len();
    let rank = rank_of(n, q).min(n.saturating_sub(MIN_BEYOND)).max(1);
    at_rank(samples, rank).map(|v| (rank as f64 / n as f64, v))
}

fn rank_of(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).max(1)
}

/// The `rank`-th smallest sample (1-based), refused unless at least
/// [`MIN_BEYOND`] samples rank above it.
fn at_rank(samples: &[f64], rank: usize) -> Result<f64, String> {
    let n = samples.len();
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "rank {rank} of {n} samples has {} beyond it; need {MIN_BEYOND}",
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a short list with no guard, for repeated set-up timings,
/// which are few by nature and reported as set-up cost, not a tail.
pub fn plain_median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_beyond() {
        assert!(p50(&ramp(19)).is_err());
        assert_eq!(p50(&ramp(20)), Ok(10.0));
        assert!(percentile(&ramp(199), 0.95).is_err());
        assert_eq!(percentile(&ramp(200), 0.95), Ok(190.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut v = ramp(40);
        v.reverse();
        assert_eq!(p50(&v), Ok(20.0));
    }

    #[test]
    fn tail_falls_back_to_the_highest_guarded_percentile() {
        assert_eq!(tail(&ramp(400), 0.95), Ok((0.95, 380.0)));
        let (q, v) = tail(&ramp(22), 0.95).unwrap();
        assert!((q - 12.0 / 22.0).abs() < 1e-12);
        assert_eq!(v, 12.0);
        assert_eq!(tail(&ramp(11), 0.95), Ok((1.0 / 11.0, 1.0)));
        assert!(tail(&ramp(10), 0.95).is_err());
    }

    #[test]
    fn plain_median_handles_odd_and_even_counts() {
        assert_eq!(plain_median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(plain_median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
