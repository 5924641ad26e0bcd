//! Order statistics with the sample-size rule every reported percentile
//! obeys: a percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it, and the sample count travels with it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Index of the nearest-rank `p`-th percentile in a sorted sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    // The epsilon keeps an exact product such as 99.9% of 10,000 from
    // rounding up past its rank.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples that lie beyond the `p`-th percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// True when `n` samples support reporting the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile of `values` (any order; `+inf` allowed, so a
/// refused request counts as a miss in every percentile). `None` when the
/// sample is too small to support `p` under [`MIN_BEYOND`].
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if !supports(values.len(), p) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p)])
}

/// Median (mean of the two middle values for an even count). The median
/// is always reported, whatever the count; `None` only when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// (min, max) of a non-empty sample: the spread recorded next to every
/// ratio whose underlying counts do not repeat exactly between runs.
pub fn spread(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(*v), hi.max(*v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(percentile(&vec![1.0; 999], 99.0), None);
        assert!(percentile(&vec![1.0; 1000], 99.0).is_some());
    }

    #[test]
    fn p50_needs_twenty_samples_and_p999_ten_thousand() {
        assert!(!supports(19, 50.0));
        assert!(supports(20, 50.0));
        assert!(!supports(9_999, 99.9));
        assert!(supports(10_000, 99.9));
    }

    #[test]
    fn every_supported_percentile_leaves_ten_beyond() {
        for n in 1..3_000 {
            for p in [50.0, 90.0, 95.0, 99.0] {
                if supports(n, p) {
                    let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
                    let v = percentile(&values, p).expect("supported");
                    let above = values.iter().filter(|x| **x > v).count();
                    assert!(above >= MIN_BEYOND, "n={n} p={p}: only {above} beyond");
                }
            }
        }
    }

    #[test]
    fn misses_count_at_infinity() {
        let mut values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        for v in values.iter_mut().take(11) {
            *v = f64::INFINITY;
        }
        assert_eq!(percentile(&values, 99.0), Some(f64::INFINITY));
        assert!(percentile(&values, 50.0).expect("supported").is_finite());
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(spread(&[2.0, 5.0, 3.0]), (2.0, 5.0));
    }
}
