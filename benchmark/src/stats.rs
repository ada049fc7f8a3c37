//! Order statistics: exact quantiles over raw samples, the percentile the
//! sample count supports, and the quartile spread the acceptance rules use.

/// The candidate tail percentiles, highest first.
const TAILS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// The highest tail percentile that leaves at least ten samples beyond it
/// (the `choosing-metrics` reporting rule), or the median when even the
/// 75th does not.
pub fn supported_tail(samples: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|q| samples_beyond(samples, *q) >= 10)
        .unwrap_or(0.5)
}

/// How many of `samples` sorted values lie strictly beyond the `q`-quantile
/// [`quantile`] picks.
pub fn samples_beyond(samples: usize, q: f64) -> usize {
    samples.saturating_sub(rank(samples, q) + 1)
}

/// Index of the `q`-quantile in a sorted slice of `len` values (nearest
/// rank, so the result is always a recorded sample).
fn rank(len: usize, q: f64) -> usize {
    if len == 0 {
        return 0;
    }
    let r = (q * len as f64).ceil() as usize;
    r.clamp(1, len) - 1
}

/// The `q`-quantile of `sorted` (ascending), 0 for an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    sorted.get(rank(sorted.len(), q)).copied().unwrap_or(0)
}

/// Sorts the samples and returns them: quantiles are exact, not bucketed,
/// so a timing keeps all its digits.
pub fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

/// Median of a set of runs (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so the spread printed here is the
/// spread the acceptance check computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (0 when undefined).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_follows_the_sample_count() {
        // 162 samples: p95 leaves 8 beyond, p90 leaves 16.
        assert_eq!(supported_tail(162), 0.9);
        assert_eq!(supported_tail(220), 0.95);
        assert_eq!(supported_tail(1_000), 0.99);
        assert_eq!(supported_tail(10_001), 0.999);
        assert_eq!(supported_tail(40), 0.75);
        assert_eq!(supported_tail(12), 0.5);
        for n in [41usize, 100, 199, 200, 201, 999, 1_000, 5_000] {
            let q = supported_tail(n);
            assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
        }
    }

    #[test]
    fn quantile_is_a_recorded_sample() {
        let s = sorted(vec![50, 10, 40, 20, 30]);
        assert_eq!(quantile(&s, 0.5), 30);
        assert_eq!(quantile(&s, 0.0), 10);
        assert_eq!(quantile(&s, 1.0), 50);
        assert_eq!(quantile(&s, 0.99), 50);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(samples_beyond(5, 0.5), 2);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }
}
