//! The paper's discretization strategy (§5.1.1).
//!
//! > "We bin the data for each metric using 10-equal width bins, with the 5th
//! > percentile value as the lower bound for the first bin, and the 95th
//! > percentile value as the upper bound for the last bin. Networks whose
//! > metric value is below the 5th (above the 95th) percentile are put in the
//! > first (last) bin."
//!
//! Ten bins are used for dependence analysis; five for treatment assignment
//! in the causal QED (§5.2.2) and for learning (§6.1). The bounds do not
//! depend on the bin count, so one fit serves both ([`Binner::with_bins`]).

use crate::summary::select_percentile;
use serde::{Deserialize, Serialize};

/// An equal-width binner with percentile-bounded range and outlier clamping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Binner {
    lo: f64,
    hi: f64,
    n_bins: usize,
}

impl Binner {
    /// Fit a binner to `values` with `n_bins` equal-width bins spanning the
    /// `[p_lo, p_hi]` percentile range of the data.
    ///
    /// Degenerate data (all values equal, or an empty slice) yields a binner
    /// that maps everything to bin 0.
    ///
    /// # Panics
    /// Panics if `n_bins == 0` or the percentile bounds are invalid.
    pub fn fit_percentile(values: &[f64], n_bins: usize, p_lo: f64, p_hi: f64) -> Self {
        assert!(n_bins > 0, "need at least one bin");
        assert!(p_lo < p_hi, "lower percentile must be below upper");
        if values.is_empty() {
            return Self { lo: 0.0, hi: 0.0, n_bins };
        }
        let mut scratch = values.to_vec();
        let lo = select_percentile(&mut scratch, p_lo);
        let hi = select_percentile(&mut scratch, p_hi);
        Self { lo, hi, n_bins }
    }

    /// The paper's default: bounds at the 5th and 95th percentile.
    pub fn fit(values: &[f64], n_bins: usize) -> Self {
        Self::fit_percentile(values, n_bins, 5.0, 95.0)
    }

    /// The same bounds split into `n_bins` bins: what fitting the same
    /// values with `n_bins` would give, with nothing refitted.
    ///
    /// # Panics
    /// Panics if `n_bins == 0`.
    pub fn with_bins(&self, n_bins: usize) -> Self {
        assert!(n_bins > 0, "need at least one bin");
        Self { lo: self.lo, hi: self.hi, n_bins }
    }

    /// Bin index for `x`, in `0..n_bins`. Values below the range clamp to the
    /// first bin, values above (or at the upper bound) to the last.
    pub fn bin(&self, x: f64) -> usize {
        if self.hi <= self.lo {
            return 0; // degenerate: all mass in one bin
        }
        if x <= self.lo {
            return 0;
        }
        if x >= self.hi {
            return self.n_bins - 1;
        }
        let w = (self.hi - self.lo) / self.n_bins as f64;
        let ix = ((x - self.lo) / w) as usize;
        ix.min(self.n_bins - 1)
    }

    /// The bin of every value, as the `u8` codes the entropy counters read.
    ///
    /// # Panics
    /// Panics if there are more than 256 bins.
    pub fn codes(&self, values: &[f64]) -> Vec<u8> {
        assert!(self.n_bins <= 256, "{} bins do not fit a u8 code", self.n_bins);
        values.iter().map(|&x| self.bin(x) as u8).collect()
    }

    /// The half-open value range `[lo, hi)` of bin `ix` (the first and last
    /// bins additionally absorb everything below/above).
    pub fn bin_range(&self, ix: usize) -> (f64, f64) {
        assert!(ix < self.n_bins, "bin index out of range");
        let w = (self.hi - self.lo) / self.n_bins as f64;
        (self.lo + w * ix as f64, self.lo + w * (ix + 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clamping_at_percentile_bounds() {
        // 0..=100 → p5 = 5, p95 = 95.
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        let b = Binner::fit(&values, 10);
        assert_eq!(b.lo, 5.0);
        assert_eq!(b.hi, 95.0);
        assert_eq!(b.bin(-100.0), 0);
        assert_eq!(b.bin(0.0), 0);
        assert_eq!(b.bin(5.0), 0);
        assert_eq!(b.bin(95.0), 9);
        assert_eq!(b.bin(1e9), 9);
    }

    #[test]
    fn equal_width_interior() {
        let b = Binner { lo: 0.0, hi: 10.0, n_bins: 10 };
        assert_eq!(b.bin(0.5), 0);
        assert_eq!(b.bin(1.5), 1);
        assert_eq!(b.bin(9.5), 9);
        assert_eq!(b.bin_range(3), (3.0, 4.0));
    }

    #[test]
    fn with_bins_equals_a_fit_at_that_bin_count() {
        let values: Vec<f64> = (0..97).map(|i| f64::from(i * i % 41) - 3.5).collect();
        let ten = Binner::fit(&values, 10);
        for n_bins in [1, 3, 5, 6, 20, 40] {
            assert_eq!(ten.with_bins(n_bins), Binner::fit(&values, n_bins));
        }
    }

    #[test]
    fn degenerate_data_goes_to_bin_zero() {
        let b = Binner::fit(&[4.2; 50], 10);
        assert_eq!(b.bin(4.2), 0);
        assert_eq!(b.bin(0.0), 0);
        assert_eq!(b.bin(100.0), 0);
    }

    #[test]
    fn empty_data_goes_to_bin_zero() {
        let b = Binner::fit(&[], 10);
        assert_eq!(b.bin(1.0), 0);
    }

    #[test]
    fn heavy_tail_spreads_across_bins() {
        // A long-tailed metric (like the paper's VLAN counts): with raw
        // min/max bounds almost everything would land in bin 0; percentile
        // bounds spread the bulk.
        let mut values: Vec<f64> = (0..990).map(|i| f64::from(i) / 100.0).collect();
        values.extend([1e4, 2e4, 3e4, 4e4, 5e4, 6e4, 7e4, 8e4, 9e4, 1e5]);
        let b = Binner::fit(&values, 10);
        let bins = b.codes(&values);
        let distinct: std::collections::BTreeSet<_> = bins.iter().copied().collect();
        assert!(distinct.len() >= 9, "bulk should occupy most bins, got {distinct:?}");
    }

    /// The bounds' oracle: sort the whole column, then interpolate.
    fn sorted_percentile(values: &[f64], p: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        crate::summary::percentile_sorted(&sorted, p)
    }

    /// Any bit pattern (NaNs of every payload and sign included), the
    /// signed zeros and infinities, and small integers for ties.
    fn any_f64() -> impl Strategy<Value = f64> {
        const SPECIAL: [f64; 6] =
            [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        prop_oneof![
            (0u64..u64::MAX).prop_map(f64::from_bits),
            (0usize..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
            (-3i64..4).prop_map(|v| v as f64),
        ]
    }

    #[test]
    fn one_and_two_values_select_like_a_sort() {
        for values in [vec![-0.0], vec![f64::NAN], vec![0.0, -0.0], vec![f64::NAN, 1.0]] {
            for p in [0.0, 5.0, 50.0, 95.0, 100.0] {
                let want = sorted_percentile(&values, p).to_bits();
                assert_eq!(crate::percentile(&values, p).to_bits(), want, "{values:?} p{p}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn selected_bounds_equal_sorted_bounds_bit_for_bit(
            values in proptest::collection::vec(any_f64(), 1..40),
        ) {
            let ps = [0.0, 5.0, 50.0, 95.0, 100.0];
            for (i, &p_lo) in ps.iter().enumerate() {
                let want_lo = sorted_percentile(&values, p_lo).to_bits();
                prop_assert_eq!(crate::percentile(&values, p_lo).to_bits(), want_lo);
                for &p_hi in &ps[i + 1..] {
                    let b = Binner::fit_percentile(&values, 10, p_lo, p_hi);
                    prop_assert_eq!(b.lo.to_bits(), want_lo);
                    prop_assert_eq!(b.hi.to_bits(), sorted_percentile(&values, p_hi).to_bits());
                }
            }
        }
    }

    proptest! {
        #[test]
        fn bin_is_always_in_range(
            values in proptest::collection::vec(-1e6f64..1e6, 1..200),
            x in -1e7f64..1e7,
            n_bins in 1usize..20,
        ) {
            let b = Binner::fit(&values, n_bins);
            prop_assert!(b.bin(x) < n_bins);
        }

        #[test]
        fn bin_is_monotonic(
            values in proptest::collection::vec(-1e3f64..1e3, 2..200),
            x in -1e3f64..1e3,
            y in -1e3f64..1e3,
        ) {
            let b = Binner::fit(&values, 10);
            let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
            prop_assert!(b.bin(lo) <= b.bin(hi));
        }
    }
}
