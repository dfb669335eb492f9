//! # mpa-stats — statistics substrate for Management Plane Analytics
//!
//! Every quantitative technique the paper relies on, implemented from scratch
//! and deterministic:
//!
//! * [`summary`] — means, variances, percentiles and box-plot statistics
//!   (the paper's figures report 25th/50th/75th percentiles with 2×IQR
//!   whiskers).
//! * [`binning`] — the paper's binning strategy (§5.1.1): equal-width bins
//!   bounded by the 5th and 95th percentile, with outliers clamped into the
//!   first/last bin.
//! * [`entropy`] — Shannon entropy, mutual information and conditional mutual
//!   information over `u8` bin codes, counted densely (§5.1), plus the
//!   normalized entropy used for hardware/firmware heterogeneity (§2.2,
//!   line D3).
//! * [`logistic`] — L2-regularized logistic regression fitted with IRLS;
//!   used to estimate propensity scores (§5.2.3).
//! * [`signtest`] — the exact sign test used to judge matched-pair outcome
//!   differences (§5.2.5).
//! * [`balance`] — standardized difference of means and variance ratio, the
//!   match-quality diagnostics of §5.2.4.
//! * [`linalg`] — the small dense-matrix kernel (Cholesky solve) backing IRLS.
//! * [`sampling`] — seeded samplers (Poisson, normal, log-normal, weighted
//!   choice) used by the synthetic-organization generator. These are
//!   implemented here rather than pulled from `rand_distr` so they are
//!   bit-reproducible and unit-tested in-repo.
//! * [`corr`] — Pearson correlation (Appendix A reports correlation
//!   coefficients).
//! * [`histogram`] — empirical CDFs backing the Appendix A figures.
//! * [`special`] — log-gamma / log-choose primitives.

pub mod balance;
pub mod binning;
pub mod corr;
pub mod entropy;
pub mod histogram;
pub mod linalg;
pub mod logistic;
pub mod sampling;
pub mod signtest;
pub mod special;
pub mod summary;

pub use balance::{std_diff_of_means, variance_ratio, BalanceCheck};
pub use binning::Binner;
pub use corr::pearson;
pub use entropy::{conditional_mutual_information, mutual_information, normalized_entropy};
pub use histogram::Ecdf;
pub use linalg::Matrix;
pub use logistic::LogisticRegression;
pub use sampling::Sampler;
pub use signtest::{sign_test, SignTestResult};
pub use summary::{mean, percentile, variance, BoxStats};
