//! L2-regularized logistic regression fitted with IRLS.
//!
//! MPA uses logistic regression to estimate **propensity scores** (§5.2.3):
//! the probability of a case receiving treatment given its 27 confounding
//! practice metrics. Features are standardized internally (zero mean, unit
//! variance) so the ridge penalty is scale-free and IRLS converges quickly
//! even when metrics span orders of magnitude (Appendix A shows 1–2 orders
//! of magnitude spread for complexity metrics).
//!
//! The ridge (`lambda`, default 1e-4) also resolves the quasi-separation
//! that otherwise occurs with strongly related practices — Table 4's CMI
//! results show exactly such near-collinear confounders.

use crate::linalg::Matrix;
use serde::{Deserialize, Serialize};

/// A fitted logistic-regression model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    /// Coefficients in standardized feature space; `[0]` is the intercept.
    beta: Vec<f64>,
    /// Per-feature means used for standardization.
    means: Vec<f64>,
    /// Per-feature standard deviations (1.0 for constant features).
    stds: Vec<f64>,
    /// Iterations actually used.
    iterations: usize,
    /// Whether IRLS converged within tolerance.
    converged: bool,
}

/// Fitting configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogisticConfig {
    /// Ridge penalty on non-intercept coefficients.
    pub lambda: f64,
    /// Maximum IRLS iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the max coefficient change.
    pub tol: f64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        Self { lambda: 1e-4, max_iter: 50, tol: 1e-8 }
    }
}

impl LogisticRegression {
    /// Fit on the rows `rows` of `x`, a row-major matrix of `p` features
    /// per row, against binary labels `y` (`y[k]` labels row `rows[k]`).
    ///
    /// # Panics
    /// Panics if `rows` and `y` lengths differ, `rows` is empty, or a row
    /// lies outside `x`.
    pub fn fit(x: &[f64], p: usize, rows: &[usize], y: &[bool], config: LogisticConfig) -> Self {
        assert_eq!(rows.len(), y.len(), "feature/label length mismatch");
        assert!(!rows.is_empty(), "cannot fit on an empty dataset");
        let mut irls = Irls::new(x, p, rows, y);
        let mut beta = vec![0.0; p + 1];
        let mut converged = false;
        let mut iterations = 0;
        for it in 0..config.max_iter {
            iterations = it + 1;
            irls.pass(&beta);
            // Newton step: (XᵀWX + λI)·δ = Xᵀ(y − p) − λβ, intercept
            // unpenalized.
            for (j, b) in beta.iter().enumerate().skip(1) {
                irls.grad[j] -= config.lambda * b;
                irls.hess[(j, j)] += config.lambda;
            }
            let Some(delta) = irls.hess.solve_spd(&irls.grad) else {
                break; // keep the current (regularized) estimate
            };
            let mut max_change = 0.0f64;
            for (b, d) in beta.iter_mut().zip(&delta) {
                *b += d;
                max_change = max_change.max(d.abs());
            }
            if max_change < config.tol {
                converged = true;
                break;
            }
        }
        Self { beta, means: irls.means, stds: irls.stds, iterations, converged }
    }

    /// Predicted probability P(y = 1 | features).
    ///
    /// # Panics
    /// Panics if `features.len()` differs from the training feature count.
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.means.len(), "feature count mismatch");
        let mut eta = self.beta[0];
        for (j, &f) in features.iter().enumerate() {
            eta += self.beta[j + 1] * (f - self.means[j]) / self.stds[j];
        }
        sigmoid(eta)
    }

    /// Coefficients in standardized space (intercept first).
    pub fn coefficients(&self) -> &[f64] {
        &self.beta
    }

    /// Whether IRLS converged.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Iterations used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// Cells one [`dot_columns`] call sums at once, each in its own running
/// sum, so the CPU overlaps their adds.
const LANES: usize = 8;

/// One fit's IRLS state, allocated once. The standardized design is
/// feature-major, `n` rows per column: the intercept's ones, each feature
/// (zero mean, unit deviation; constant features keep a deviation of 1),
/// then `LANES - 1` zero columns so a group of `LANES` never runs off the
/// end. The rest is the scratch every iteration reuses.
struct Irls {
    cols: Vec<f64>,
    y: Vec<f64>,
    eta: Vec<f64>,
    w: Vec<f64>,
    resid: Vec<f64>,
    wx: Vec<f64>,
    grad: Vec<f64>,
    hess: Matrix,
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Irls {
    fn new(x: &[f64], p: usize, rows: &[usize], y: &[bool]) -> Self {
        let n = rows.len();
        let mut cols = vec![0.0; (p + LANES) * n];
        cols[..n].fill(1.0);
        let (mut means, mut stds) = (Vec::with_capacity(p), Vec::with_capacity(p));
        for (j, col) in cols.chunks_exact_mut(n).skip(1).take(p).enumerate() {
            for (c, &r) in col.iter_mut().zip(rows) {
                *c = x[r * p + j];
            }
            let mean = col.iter().fold(0.0, |s, &v| s + v) / n as f64;
            let var = col.iter().fold(0.0, |s, &v| s + (v - mean) * (v - mean));
            let sd = (var / n as f64).sqrt();
            let sd = if sd > 1e-12 { sd } else { 1.0 };
            col.iter_mut().for_each(|c| *c = (*c - mean) / sd);
            means.push(mean);
            stds.push(sd);
        }
        let y = y.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let (eta, w, resid, wx) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let hess = Matrix::zeros(p + 1, p + 1);
        Self { cols, y, eta, w, resid, wx, grad: vec![0.0; p + 1], hess, means, stds }
    }

    /// One IRLS iteration's Newton system at `beta`, before the ridge: the
    /// gradient Xᵀ(y − p) into `grad` and the Gram matrix XᵀWX into
    /// `hess`, with W = p(1 − p) floored at 1e-9 (so no row has zero
    /// weight). Every sum runs in row order with one accumulator per cell,
    /// the arithmetic of a row-major IRLS: η adds each row's products in
    /// feature order from −0.0, where `Iterator::sum` starts, and a Gram
    /// cell adds (w_r·x_ri)·x_rj.
    fn pass(&mut self, beta: &[f64]) {
        let (n, k) = (self.y.len(), self.grad.len());
        self.eta.fill(-0.0);
        for (col, &b) in self.cols.chunks_exact(n).zip(beta) {
            for (e, &v) in self.eta.iter_mut().zip(col) {
                *e += v * b;
            }
        }
        for (((&e, w), resid), &y) in
            self.eta.iter().zip(&mut self.w).zip(&mut self.resid).zip(&self.y)
        {
            let pr = sigmoid(e);
            *w = (pr * (1.0 - pr)).max(1e-9);
            *resid = y - pr;
        }
        for j0 in (0..k).step_by(LANES) {
            let dots = dot_columns(&self.resid, &self.cols, j0);
            self.grad.iter_mut().skip(j0).zip(dots).for_each(|(g, d)| *g = d);
        }
        for i in 0..k {
            let xi = self.cols.get(i * n..i * n + n).unwrap_or_default();
            for ((wx, &w), &x) in self.wx.iter_mut().zip(&self.w).zip(xi) {
                *wx = w * x;
            }
            for j0 in (i..k).step_by(LANES) {
                for (j, d) in (j0..k).zip(dot_columns(&self.wx, &self.cols, j0)) {
                    self.hess[(i, j)] = d;
                    self.hess[(j, i)] = d;
                }
            }
        }
    }
}

/// `Σ_r u_r·x_r(j0 + c)` for the `LANES` columns `c` from `j0` of the
/// feature-major `cols`, each cell one running sum in row order.
fn dot_columns(u: &[f64], cols: &[f64], j0: usize) -> [f64; LANES] {
    let n = u.len();
    let mut chunks = cols.get(j0 * n..).unwrap_or_default().chunks_exact(n);
    let c: [&[f64]; LANES] = std::array::from_fn(|_| chunks.next().unwrap_or_default());
    // Equal lengths let the compiler drop the subscripts' bounds checks.
    assert!(c.iter().all(|col| col.len() == n), "design ends before column {j0} + {LANES}");
    let mut acc = [0.0; LANES];
    for (r, &ur) in u.iter().enumerate() {
        for (a, col) in acc.iter_mut().zip(&c) {
            *a += ur * col[r];
        }
    }
    acc
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Fit every row of `x` with the default configuration.
    fn fit_rows(x: &[Vec<f64>], y: &[bool]) -> LogisticRegression {
        let p = x.first().map_or(0, Vec::len);
        let rows: Vec<usize> = (0..x.len()).collect();
        LogisticRegression::fit(&x.concat(), p, &rows, y, LogisticConfig::default())
    }

    /// The oracle: IRLS over a row-major design, with fresh vectors every
    /// iteration, as the fit was first written.
    fn row_major_fit(x: &[Vec<f64>], y: &[bool], config: LogisticConfig) -> LogisticRegression {
        let n = x.len();
        let p = x[0].len();
        let k = p + 1;
        let mut means = vec![0.0; p];
        let mut stds = vec![0.0; p];
        for j in 0..p {
            let mut s = 0.0;
            for row in x {
                s += row[j];
            }
            means[j] = s / n as f64;
            let mut v = 0.0;
            for row in x {
                let d = row[j] - means[j];
                v += d * d;
            }
            let sd = (v / n as f64).sqrt();
            stds[j] = if sd > 1e-12 { sd } else { 1.0 };
        }
        let mut design = Vec::with_capacity(n * k);
        for row in x {
            design.push(1.0);
            for j in 0..p {
                design.push((row[j] - means[j]) / stds[j]);
            }
        }
        let yv: Vec<f64> = y.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();

        let mut beta = vec![0.0; k];
        let mut converged = false;
        let mut iterations = 0;
        for it in 0..config.max_iter {
            iterations = it + 1;
            let eta: Vec<f64> = design
                .chunks_exact(k)
                .map(|row| row.iter().zip(&beta).map(|(a, b)| a * b).sum())
                .collect();
            let probs: Vec<f64> = eta.iter().map(|&e| sigmoid(e)).collect();
            let w: Vec<f64> = probs.iter().map(|&pr| (pr * (1.0 - pr)).max(1e-9)).collect();
            let resid: Vec<f64> = yv.iter().zip(&probs).map(|(yy, pp)| yy - pp).collect();
            let mut grad = vec![0.0; k];
            for (row, &vr) in design.chunks_exact(k).zip(&resid) {
                for (o, &a) in grad.iter_mut().zip(row) {
                    *o += a * vr;
                }
            }
            for j in 1..=p {
                grad[j] -= config.lambda * beta[j];
            }
            let mut hess = Matrix::zeros(k, k);
            for (row, &wr) in design.chunks_exact(k).zip(&w) {
                if wr == 0.0 {
                    continue;
                }
                for i in 0..k {
                    let wi = wr * row[i];
                    for j in i..k {
                        hess[(i, j)] += wi * row[j];
                    }
                }
            }
            for i in 0..k {
                for j in 0..i {
                    hess[(i, j)] = hess[(j, i)];
                }
            }
            for j in 1..=p {
                hess[(j, j)] += config.lambda;
            }
            let Some(delta) = hess.solve_spd(&grad) else {
                break;
            };
            let mut max_change = 0.0f64;
            for (b, d) in beta.iter_mut().zip(&delta) {
                *b += d;
                max_change = max_change.max(d.abs());
            }
            if max_change < config.tol {
                converged = true;
                break;
            }
        }
        LogisticRegression { beta, means, stds, iterations, converged }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random designs: binned or continuous features, some columns
        /// constant, labels noisy or separable by one feature (where the
        /// Gram matrix degenerates and `solve_spd` adds jitter), fitted on
        /// a row list with repeats.
        #[test]
        fn feature_major_fit_equals_the_row_major_oracle_bit_for_bit(
            seed in 0u64..u64::MAX,
            n in 2usize..90,
            p in 1usize..12,
            shape in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let constant = rng.random_range(0..p);
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..p)
                        .map(|j| match (j == constant && shape != 0, shape) {
                            (true, _) => 3.0,
                            (_, 1) => rng.random_range(-5.0..5.0) * 1e3,
                            _ => f64::from(rng.random_range(0u32..10)),
                        })
                        .collect()
                })
                .collect();
            let rows: Vec<usize> = (0..n + n / 3).map(|_| rng.random_range(0..n)).collect();
            let y: Vec<bool> = rows
                .iter()
                .map(|&r| match shape {
                    3 => x[r][(constant + 1) % p] > 4.0,
                    _ => rng.random::<f64>() < 0.4,
                })
                .collect();
            let config = if shape == 2 {
                LogisticConfig::default()
            } else {
                LogisticConfig { lambda: 0.5, ..LogisticConfig::default() }
            };
            let picked: Vec<Vec<f64>> = rows.iter().map(|&r| x[r].clone()).collect();
            let want = row_major_fit(&picked, &y, config);
            let got = LogisticRegression::fit(&x.concat(), p, &rows, &y, config);
            let bits = |m: &LogisticRegression| -> Vec<u64> {
                m.beta.iter().chain(&m.means).chain(&m.stds).map(|v| v.to_bits()).collect()
            };
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(got.iterations(), want.iterations());
            prop_assert_eq!(got.converged(), want.converged());
        }
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn learns_a_linear_boundary() {
        // y = 1 iff x0 + x1 > 1, on a grid.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let a = i as f64 / 10.0;
                let b = j as f64 / 10.0;
                x.push(vec![a, b]);
                y.push(a + b > 1.0);
            }
        }
        let m = fit_rows(&x, &y);
        assert!(m.predict_proba(&[1.5, 1.5]) > 0.95);
        assert!(m.predict_proba(&[0.1, 0.1]) < 0.05);
        // Accuracy on training data should be near perfect.
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(row, &label)| (m.predict_proba(row) > 0.5) == label)
            .count();
        assert!(correct as f64 / x.len() as f64 > 0.97);
    }

    #[test]
    fn survives_perfect_separation() {
        // Perfectly separable data diverges without a ridge; with one, the
        // fit must stay finite.
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i)]).collect();
        let y: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let m = fit_rows(&x, &y);
        for b in m.coefficients() {
            assert!(b.is_finite());
        }
        assert!(m.predict_proba(&[39.0]) > 0.9);
        assert!(m.predict_proba(&[0.0]) < 0.1);
    }

    #[test]
    fn handles_constant_features() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![5.0, f64::from(i)]).collect();
        let y: Vec<bool> = (0..30).map(|i| i % 3 == 0).collect();
        let m = fit_rows(&x, &y);
        assert!(m.predict_proba(&[5.0, 3.0]).is_finite());
    }

    #[test]
    fn recovers_known_coefficients_approximately() {
        // Generate from a known model and check sign/ordering of effects.
        let mut rng = StdRng::seed_from_u64(7);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..4000 {
            let a: f64 = rng.random_range(-2.0..2.0);
            let b: f64 = rng.random_range(-2.0..2.0);
            let eta = 0.5 + 2.0 * a - 1.0 * b;
            let p = sigmoid(eta);
            x.push(vec![a, b]);
            y.push(rng.random::<f64>() < p);
        }
        let m = fit_rows(&x, &y);
        let c = m.coefficients();
        assert!(c[1] > 0.0, "effect of a should be positive");
        assert!(c[2] < 0.0, "effect of b should be negative");
        assert!(c[1].abs() > c[2].abs(), "a has the stronger effect");
        assert!(m.converged());
    }

    #[test]
    fn probabilities_are_calibrated_on_balanced_noise() {
        // Labels independent of features → predictions near base rate.
        let mut rng = StdRng::seed_from_u64(11);
        let x: Vec<Vec<f64>> = (0..2000).map(|_| vec![rng.random::<f64>()]).collect();
        let y: Vec<bool> = (0..2000).map(|i| i % 4 == 0).collect(); // 25% positive
        let m = fit_rows(&x, &y);
        let avg: f64 = x.iter().map(|row| m.predict_proba(row)).sum::<f64>() / 2000.0;
        assert!((avg - 0.25).abs() < 0.02, "avg predicted prob {avg}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        fit_rows(&[vec![1.0]], &[true, false]);
    }
}
