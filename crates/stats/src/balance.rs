//! Match-quality diagnostics (§5.2.4).
//!
//! After propensity matching, each confounding practice must be *balanced*
//! between the matched treated and matched untreated groups:
//!
//! * absolute standardized difference of means `|(Z̄ₜ − Z̄ᵤ)/σₜ| < 0.25`, and
//! * variance ratio `σ²ₜ/σ²ᵤ ∈ [0.5, 2]`
//!
//! (thresholds from Stuart [32], as adopted by the paper). The same checks
//! apply to the propensity scores themselves (Table 5's last two columns).

use crate::summary::{mean, variance};
use serde::{Deserialize, Serialize};

/// Standardized difference of means: `(mean(treated) − mean(untreated)) / σ_treated`.
///
/// When the treated group has zero variance the difference is standardized
/// by the pooled std instead; if both are zero the raw mean difference
/// decides (0 → balanced, otherwise ±∞-like sentinel 999.0 flags imbalance).
pub fn std_diff_of_means(treated: &[f64], untreated: &[f64]) -> f64 {
    let diff = mean(treated) - mean(untreated);
    let sd_t = variance(treated).sqrt();
    if sd_t > 1e-12 {
        return diff / sd_t;
    }
    let pooled = ((variance(treated) + variance(untreated)) / 2.0).sqrt();
    if pooled > 1e-12 {
        diff / pooled
    } else if diff.abs() < 1e-12 {
        0.0
    } else {
        999.0 * diff.signum()
    }
}

/// Variance ratio `σ²_treated / σ²_untreated`. Degenerate cases: both zero →
/// 1.0 (trivially balanced); untreated zero only → ∞ (flags imbalance).
pub fn variance_ratio(treated: &[f64], untreated: &[f64]) -> f64 {
    let vt = variance(treated);
    let vu = variance(untreated);
    if vu <= 1e-300 {
        if vt <= 1e-300 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        vt / vu
    }
}

/// Combined balance check for one covariate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BalanceCheck {
    /// Standardized difference of means.
    pub std_diff: f64,
    /// Ratio of variances.
    pub var_ratio: f64,
}

impl BalanceCheck {
    /// Compute both diagnostics.
    pub fn compute(treated: &[f64], untreated: &[f64]) -> Self {
        Self {
            std_diff: std_diff_of_means(treated, untreated),
            var_ratio: variance_ratio(treated, untreated),
        }
    }

    /// Stuart's thresholds: `|std diff| < 0.25` and `var ratio ∈ [0.5, 2]`.
    pub fn is_balanced(&self) -> bool {
        self.std_diff.abs() < 0.25 && (0.5..=2.0).contains(&self.var_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_groups_are_balanced() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let c = BalanceCheck::compute(&xs, &xs);
        assert_eq!(c.std_diff, 0.0);
        assert_eq!(c.var_ratio, 1.0);
        assert!(c.is_balanced());
    }

    #[test]
    fn shifted_means_flag_imbalance() {
        let t = [10.0, 11.0, 12.0, 13.0];
        let u = [1.0, 2.0, 3.0, 4.0];
        let c = BalanceCheck::compute(&t, &u);
        assert!(c.std_diff > 0.25);
        assert!(!c.is_balanced());
    }

    #[test]
    fn inflated_variance_flags_imbalance() {
        let t = [-10.0, -5.0, 0.0, 5.0, 10.0];
        let u = [-1.0, -0.5, 0.0, 0.5, 1.0];
        let c = BalanceCheck::compute(&t, &u);
        assert!(c.std_diff.abs() < 0.25, "means match");
        assert!(c.var_ratio > 2.0);
        assert!(!c.is_balanced());
    }

    #[test]
    fn small_shift_within_threshold_is_balanced() {
        let t = [1.0, 2.0, 3.0, 4.0, 5.0];
        let u = [1.1, 2.1, 3.1, 4.1, 5.1];
        assert!(BalanceCheck::compute(&t, &u).is_balanced());
    }

    #[test]
    fn degenerate_constant_groups() {
        // Both constant & equal → balanced.
        assert!(BalanceCheck::compute(&[2.0, 2.0], &[2.0, 2.0]).is_balanced());
        // Both constant, different value → imbalanced via sentinel.
        let c = BalanceCheck::compute(&[2.0, 2.0], &[3.0, 3.0]);
        assert!(!c.is_balanced());
        // Treated constant, untreated varying → infinite-ish ratio handled.
        let c = BalanceCheck::compute(&[2.0, 2.0], &[1.0, 3.0]);
        assert!(c.var_ratio < 0.5);
        assert!(!c.is_balanced());
    }
}
