//! Order statistics used by every workload: nearest-rank percentiles, the
//! tail-percentile rule, and medians.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Number of samples strictly beyond the nearest-rank `q`-th percentile of
/// `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// 1-based nearest rank of the `q`-th percentile among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding up a
    // whole rank (0.999 * 10000 is 9990.000000000002 in binary floating point).
    ((q / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest candidate percentile with at least [`TAIL_BEYOND`] samples
/// beyond it at sample count `n`, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| n > 0 && beyond(n, q) >= TAIL_BEYOND)
}

/// Nearest-rank percentile of ascending `sorted` samples.
///
/// # Panics
/// On an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// Sort a copy ascending (NaN-free input; failures are recorded as the
/// client timeout, never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count).
///
/// # Panics
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_refuses_percentiles_with_fewer_than_ten_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(q) = tail_percentile(n) {
                assert!(beyond(n, q) >= TAIL_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(beyond(100, 90.0), 10);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
