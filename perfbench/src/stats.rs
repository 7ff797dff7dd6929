//! Order statistics for the benchmark's reports.
//!
//! A tail percentile is only reported when the sample supports it: at
//! least [`MIN_TAIL`] samples must lie beyond the selected rank, so a
//! "p99" over 200 samples is refused rather than read off the maximum.

/// Samples that must lie strictly beyond a reported percentile's rank.
pub const MIN_TAIL: usize = 10;

/// A percentile read from a sample, with the sample size behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The selected sample value.
    pub value: f64,
    /// Number of samples the value was selected from.
    pub samples: usize,
}

/// Median of a sample (mean of the middle two for even sizes); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The nearest-rank `q`-quantile of `xs` (`0 < q < 1`). Fails when fewer
/// than [`MIN_TAIL`] samples lie beyond the selected rank.
pub fn percentile(xs: &[f64], q: f64) -> Result<Percentile, String> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    let n = xs.len();
    let beyond = n - rank(n, q).min(n);
    if n == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{} needs at least {MIN_TAIL} samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    Ok(Percentile {
        value: nearest_rank(xs, q),
        samples: n,
    })
}

/// The nearest-rank `q`-quantile with no tail requirement (0 when
/// empty), for per-layer diagnostics.
pub fn nearest_rank(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(xs.len(), q) - 1]
}

/// 1-based nearest rank: the smallest with at least `q·n` samples at or
/// below it. The epsilon keeps 0.99·1000 from rounding up past 990.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_selects_nearest_rank_and_reports_its_sample_count() {
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = percentile(&xs, 0.99).expect("1000 samples support p99");
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(percentile(&xs, 0.5).expect("p50").value, 500.0);
    }

    #[test]
    fn percentile_refuses_a_tail_thinner_than_min_tail() {
        // 1000 samples leave exactly 10 beyond p99; 999 leave 9.
        let ok: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&ok, 0.99).is_ok());
        let thin: Vec<f64> = (0..999).map(f64::from).collect();
        let err = percentile(&thin, 0.99).expect_err("9 samples beyond p99");
        assert!(err.contains("leave 9"), "{err}");
        assert!(percentile(&[], 0.5).is_err());
        // A median needs 20 samples: 10 at or below, 10 beyond.
        let twenty: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5).expect("p50 of 20").value, 9.0);
        assert!(percentile(&twenty[..19], 0.5).is_err());
    }
}
