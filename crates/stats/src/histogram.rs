//! Empirical CDFs and histograms.
//!
//! Appendix A's figures (11–13) are CDFs over per-network metric values;
//! Figure 7 compares confounder CDFs between matched groups. [`Ecdf`]
//! supports both: evaluation at arbitrary points, tail fractions and the
//! two-sample Kolmogorov–Smirnov distance.

use serde::{Deserialize, Serialize};

/// An empirical cumulative distribution function over a finite sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from any sample (unsorted, NaN-free).
    ///
    /// # Panics
    /// Panics if the sample contains NaN.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| !v.is_nan()), "ECDF input must be NaN-free");
        values.sort_by(|a, b| a.total_cmp(b));
        Self { sorted: values }
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// F(x) = fraction of observations ≤ x. Returns 0.0 for an empty sample.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let cnt = self.sorted.partition_point(|&v| v <= x);
        cnt as f64 / self.sorted.len() as f64
    }

    /// Fraction of observations strictly greater than `x`.
    pub fn frac_above(&self, x: f64) -> f64 {
        1.0 - self.eval(x)
    }

    /// Maximum vertical distance to another ECDF (two-sample
    /// Kolmogorov–Smirnov statistic), evaluated at all jump points of both
    /// samples. Used to quantify Fig 7's "visual equivalence" numerically.
    pub fn ks_distance(&self, other: &Ecdf) -> f64 {
        let mut d = 0.0f64;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        d
    }

    /// The sorted underlying sample.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eval_steps_through_sample() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.eval(99.0), 1.0);
    }

    #[test]
    fn empty_sample() {
        let e = Ecdf::new(vec![]);
        assert_eq!(e.eval(1.0), 0.0);
    }

    #[test]
    fn ks_distance_identical_is_zero() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(e.ks_distance(&e.clone()), 0.0);
    }

    #[test]
    fn ks_distance_disjoint_is_one() {
        let a = Ecdf::new(vec![1.0, 2.0]);
        let b = Ecdf::new(vec![10.0, 20.0]);
        assert_eq!(a.ks_distance(&b), 1.0);
        assert_eq!(b.ks_distance(&a), 1.0);
    }

    proptest! {
        #[test]
        fn eval_is_monotone_nondecreasing(
            values in proptest::collection::vec(-1e3f64..1e3, 1..100),
            a in -1e3f64..1e3,
            b in -1e3f64..1e3,
        ) {
            let e = Ecdf::new(values);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(e.eval(lo) <= e.eval(hi));
        }
    }
}
