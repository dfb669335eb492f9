//! Special functions: log-gamma and log-binomial-coefficient. These back
//! the sign test and the samplers.

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
/// Accurate to ~1e-13 over the positive reals.
///
/// # Panics
/// Panics for `x <= 0` (not needed by any caller and the reflection formula
/// would add untested surface).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7, quoted verbatim from the reference
    // table (some carry more digits than f64 resolves).
    #[allow(clippy::excessive_precision)]
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Natural log of the binomial coefficient C(n, k). Returns `-inf` for
/// `k > n`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n−1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, &f) in facts.iter().enumerate() {
            let lg = ln_gamma((i + 1) as f64);
            assert!((lg - f64::ln(f)).abs() < 1e-10, "Γ({})", i + 1);
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π.
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_gamma_large_argument() {
        // Check at n = 171, near f64 factorial overflow — log-space must
        // still be exact.
        let lg = ln_gamma(171.0);
        // ln(170!) computed by summation.
        let direct: f64 = (1..=170).map(|i| f64::ln(i as f64)).sum();
        assert!((lg - direct).abs() < 1e-8);
    }

    #[test]
    fn ln_choose_small_cases() {
        assert_eq!(ln_choose(5, 6), f64::NEG_INFINITY);
        assert_eq!(ln_choose(5, 0), 0.0);
        assert_eq!(ln_choose(5, 5), 0.0);
        assert!((ln_choose(5, 2) - f64::ln(10.0)).abs() < 1e-10);
        assert!((ln_choose(52, 5) - f64::ln(2_598_960.0)).abs() < 1e-8);
    }
}
