//! Minimal dense linear algebra: exactly what IRLS needs.
//!
//! A row-major [`Matrix`] and a Cholesky solver for symmetric
//! positive-definite systems; IRLS forms its own products (`logistic`).
//! Propensity-score models have at most a few dozen features, so an O(p³)
//! solve is instantaneous; clarity and determinism beat sophistication
//! here.

use serde::{Deserialize, Serialize};

/// Row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Solve `A·x = b` for symmetric positive-definite `A` via Cholesky,
    /// adding a tiny ridge if the factorization stalls (near-singular Gram
    /// matrices arise when confounders are collinear, which is exactly the
    /// situation §5.2 warns about).
    ///
    /// Returns `None` only if the matrix stays non-PD after the maximum
    /// jitter — practically impossible with the regularized IRLS caller.
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve_spd needs a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let n = self.rows;
        let mut jitter = 0.0;
        for _ in 0..6 {
            if let Some(chol) = self.cholesky(jitter) {
                // Forward substitution L·y = b.
                let mut y = vec![0.0; n];
                for i in 0..n {
                    let mut s = b[i];
                    for j in 0..i {
                        s -= chol[i * n + j] * y[j];
                    }
                    y[i] = s / chol[i * n + i];
                }
                // Backward substitution Lᵀ·x = y.
                let mut x = vec![0.0; n];
                for i in (0..n).rev() {
                    let mut s = y[i];
                    for j in (i + 1)..n {
                        s -= chol[j * n + i] * x[j];
                    }
                    x[i] = s / chol[i * n + i];
                }
                return Some(x);
            }
            jitter = if jitter == 0.0 { 1e-10 } else { jitter * 100.0 };
        }
        None
    }

    /// Lower-triangular Cholesky factor of `self + jitter·I`, or `None` if a
    /// pivot is non-positive.
    fn cholesky(&self, jitter: f64) -> Option<Vec<f64>> {
        let n = self.rows;
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = self[(i, j)] + if i == j { jitter } else { 0.0 };
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if s <= 0.0 {
                        return None;
                    }
                    l[i * n + i] = s.sqrt();
                } else {
                    l[i * n + j] = s / l[j * n + j];
                }
            }
        }
        Some(l)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `AᵀA` of a row-major `rows × cols` matrix.
    fn gram(rows: usize, cols: usize, a: &[f64]) -> Matrix {
        let mut g = Matrix::zeros(cols, cols);
        for r in 0..rows {
            for i in 0..cols {
                for j in 0..cols {
                    g[(i, j)] += a[r * cols + i] * a[r * cols + j];
                }
            }
        }
        g
    }

    #[test]
    fn solve_spd_recovers_solution() {
        // A = [[4,1],[1,3]], x = [1,2] → b = [6,7].
        let a = Matrix { rows: 2, cols: 2, data: vec![4.0, 1.0, 1.0, 3.0] };
        let x = a.solve_spd(&[6.0, 7.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_spd_handles_near_singular_with_jitter() {
        // Rank-deficient Gram matrix: columns identical.
        let g = gram(3, 2, &[1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let x = g.solve_spd(&[1.0, 1.0]);
        assert!(x.is_some(), "jitter should rescue the solve");
        let x = x.unwrap();
        for v in &x {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn solve_spd_larger_system() {
        // Build SPD A = MᵀM + I and verify A·x ≈ b round trip.
        let m = [1.0, 2.0, 0.5, -1.0, 0.3, 2.2, 0.0, 1.5, -0.7, 2.0, -0.2, 0.1];
        let mut a = gram(4, 3, &m);
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        let b = vec![1.0, -2.0, 0.5];
        let x = a.solve_spd(&b).unwrap();
        for (i, bi) in b.iter().enumerate() {
            let back: f64 = (0..3).map(|j| a[(i, j)] * x[j]).sum();
            assert!((back - bi).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn solve_spd_shape_mismatch_panics() {
        Matrix::zeros(2, 2).solve_spd(&[1.0]);
    }
}
