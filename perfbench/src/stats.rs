//! The benchmark's estimators: medians, quartiles and guarded tail
//! percentiles over raw samples, plus the metric-name rule the result
//! line must obey.

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile; with fewer, the percentile is noise and is not reported.
pub const MIN_BEYOND: usize = 10;

/// The median of `v` (mean of the two middle values for even lengths).
/// `None` for an empty slice.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an outside check computes.
/// `None` below two samples.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are judged against.
pub fn spread(v: &[f64]) -> Option<f64> {
    let q = quartiles(v)?;
    (q[1] != 0.0).then(|| (q[2] - q[0]) / q[1].abs())
}

/// The nearest-rank `q`-quantile of `v`, reported only when at least
/// [`MIN_BEYOND`] samples lie strictly beyond it.
pub fn tail(v: &[f64], q: f64) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let value = s[rank - 1];
    let beyond = s.iter().filter(|&&x| x > value).count();
    (beyond >= MIN_BEYOND).then_some(value)
}

/// Whether `name` is a legal metric or workload name: it starts with a
/// letter or digit and is at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 distinct samples: exactly 10 lie beyond the 90th percentile.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.9), Some(90.0));
        // ... but only one lies beyond the 99th.
        assert_eq!(tail(&v, 0.99), None);
        // 99 samples leave 9 beyond the 90th percentile: not reported.
        assert_eq!(tail(&v[..99], 0.9), None);
        // Ties at the cut are not "beyond" it.
        let mut flat = vec![1.0; 95];
        flat.extend([2.0; 5]);
        assert_eq!(tail(&flat, 0.5), None);
        assert_eq!(tail(&[], 0.9), None);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for good in ["events_per_s", "trace.decode_ms", "x264-capped", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "per/s",
            "µs",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }
}
