//! Summary statistics: means, variances, percentiles, box-plot stats.
//!
//! The paper's scatter/box figures (Figs 3, 4, 6) report the 25th, 50th and
//! 75th percentiles with whiskers at "the most extreme datapoints within
//! twice the interquartile range"; [`BoxStats`] computes exactly that.

use serde::{Deserialize, Serialize};

/// Arithmetic mean. Returns 0.0 for an empty slice (a convention that keeps
/// monthly aggregation total: a network with no observations contributes a
/// zero-valued metric rather than a NaN that would poison MI binning).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n−1 denominator). Returns 0.0 for fewer than
/// two observations.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Percentile with linear interpolation between order statistics
/// (R type-7 / NumPy default). `p` is in `[0, 100]`.
///
/// Order statistics follow the IEEE total order ([`f64::total_cmp`]), so
/// NaN input does not panic: NaN ranks after `+∞` and surfaces only in the
/// top percentiles instead of aborting a pipeline phase mid-run.
///
/// # Panics
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    select_percentile(&mut xs.to_vec(), p)
}

/// [`percentile`] by selection instead of a sort; reorders `values`.
///
/// Equal under `total_cmp` means equal bits, so the k-th order statistic
/// is one bit pattern however it is found: `select_nth_unstable_by` puts
/// exactly the value a sort would at rank k, and the interpolation's
/// neighbour at rank k + 1 is the minimum of the part above it. A slice
/// selected once stays valid input, so one copy serves several calls.
pub(crate) fn select_percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside [0, 100]");
    let h = (p / 100.0) * (values.len() - 1) as f64;
    let lo = h.floor() as usize;
    let (_, &mut at_lo, upper) = values.select_nth_unstable_by(lo, f64::total_cmp);
    if h.ceil() as usize == lo {
        return at_lo;
    }
    // Rank lo + 1 exists (h < len - 1), so `upper` is never empty here.
    let at_hi = upper.iter().copied().min_by(f64::total_cmp).unwrap_or(at_lo);
    let frac = h - lo as f64;
    at_lo * (1.0 - frac) + at_hi * frac
}

/// Percentile over an already-sorted slice (ascending). See [`percentile`].
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let h = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = h - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Box-plot statistics in the paper's convention: quartile box, whiskers at
/// the most extreme data points within 2×IQR of the quartiles, plus the mean
/// (Fig 4 plots both mean and median lines).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxStats {
    /// Number of observations.
    pub n: usize,
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Lowest observation ≥ `q1 − 2·IQR`.
    pub whisker_lo: f64,
    /// Highest observation ≤ `q3 + 2·IQR`.
    pub whisker_hi: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl BoxStats {
    /// Compute box statistics. Returns `None` for an empty slice.
    ///
    /// NaN input does not panic: values sort in IEEE total order (NaN
    /// last), and if NaN reaches a quartile the affected whisker bound
    /// becomes NaN, which disables that side's outlier clipping rather
    /// than aborting the caller.
    pub fn compute(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let q1 = percentile_sorted(&sorted, 25.0);
        let med = percentile_sorted(&sorted, 50.0);
        let q3 = percentile_sorted(&sorted, 75.0);
        let iqr = q3 - q1;
        let lo_bound = q1 - 2.0 * iqr;
        let hi_bound = q3 + 2.0 * iqr;
        // A NaN bound compares false against everything; fall back to the
        // unclipped extreme instead of panicking on the find.
        let whisker_lo = sorted.iter().copied().find(|&x| x >= lo_bound).unwrap_or(sorted[0]);
        let whisker_hi = sorted
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= hi_bound)
            .unwrap_or(sorted[sorted.len() - 1]);
        Some(Self { n: sorted.len(), q1, median: med, q3, whisker_lo, whisker_hi, mean: mean(xs) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(variance(&[1.0]), 0.0);
        // var of {1,2,3,4} = 10/6... sample variance = ((−1.5)²+(−0.5)²+0.5²+1.5²)/3 = 5/3
        assert!((variance(&[1.0, 2.0, 3.0, 4.0]) - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert!((percentile(&xs, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_handles_unsorted_input() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 50.0), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn box_stats_basic() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        let b = BoxStats::compute(&xs).unwrap();
        assert_eq!(b.n, 101);
        assert_eq!(b.median, 51.0);
        assert_eq!(b.q1, 26.0);
        assert_eq!(b.q3, 76.0);
        // IQR = 50, bounds = [-74, 176]: whiskers reach the extremes.
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 101.0);
        assert_eq!(b.mean, 51.0);
    }

    #[test]
    fn box_stats_clips_outliers_from_whiskers() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs.push(10_000.0);
        let b = BoxStats::compute(&xs).unwrap();
        assert!(b.whisker_hi < 10_000.0);
        assert!(b.mean > b.median, "mean is pulled up by the outlier");
    }

    #[test]
    fn nan_input_no_longer_panics() {
        // Regression for the determinism contract's R1 fix: these paths
        // used to `expect` on `partial_cmp` and abort on the first NaN.
        let xs = [3.0, f64::NAN, 1.0];
        // NaN sorts last under the IEEE total order: [1.0, 3.0, NaN].
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert!(percentile(&xs, 100.0).is_nan());
        let b = BoxStats::compute(&xs).expect("non-empty");
        assert_eq!(b.n, 3);
        assert_eq!(b.median, 3.0);
        // q3 interpolates into the NaN tail; the high whisker degrades to
        // the unclipped extreme instead of panicking.
        assert!(b.q3.is_nan());
        assert_eq!(b.whisker_lo, 1.0);
        assert!(b.whisker_hi.is_nan());
    }

    #[test]
    fn nan_free_input_is_unaffected_by_total_order_sort() {
        // total_cmp and partial_cmp agree on NaN-free data, so the golden
        // outputs cannot move. Spot-check a mixed-sign sample.
        let xs = [0.5, -1.0, 2.5, 0.0, -0.25];
        assert_eq!(percentile(&xs, 50.0), 0.0);
        let b = BoxStats::compute(&xs).unwrap();
        assert_eq!((b.q1, b.q3), (-0.25, 0.5));
        // IQR = 0.75, hi bound = 2.0: 2.5 is a clipped outlier, so the
        // high whisker falls back to the next point inside the fence.
        assert_eq!((b.whisker_lo, b.whisker_hi), (-1.0, 0.5));
    }

    #[test]
    fn box_stats_empty_is_none() {
        assert!(BoxStats::compute(&[]).is_none());
    }

    #[test]
    fn box_stats_singleton() {
        let b = BoxStats::compute(&[7.0]).unwrap();
        assert_eq!(b.median, 7.0);
        assert_eq!(b.whisker_lo, 7.0);
        assert_eq!(b.whisker_hi, 7.0);
    }
}
