//! # mpa-core — the Management Plane Analytics framework
//!
//! The paper's two goals (§4), built on the workspace substrates:
//!
//! 1. **Which practices impact health?**
//!    * [`dependence`] — statistical dependence via mutual information
//!      (Table 3) and conditional mutual information between practice pairs
//!      (Table 4), on the §5.1.1 binning.
//!    * [`causal`] — the quasi-experimental design of §5.2: treatment
//!      binning, propensity-score estimation, k=1 nearest-neighbour
//!      matching with replacement, balance verification, and the sign test
//!      (Tables 5–8, Figure 7).
//! 2. **Predict health from practices** — [`predict`]: 2-class and 5-class
//!    health models (C4.5 / AdaBoost / oversampling, §6.1, Figures 8–10),
//!    baselines (majority, SVM, random forests), 5-fold cross-validation and
//!    the online month-ahead evaluation (Table 9).
//!
//! Plus [`compare`] (operator opinion vs. analytical evidence — the paper's
//! headline contradictions) and [`report`] (plain-text table rendering used
//! by the reproduction harness).

pub mod causal;
pub mod compare;
pub mod dependence;
pub mod predict;
pub mod report;
pub mod session;

/// The deterministic data-parallel execution engine (re-export of
/// [`mpa_exec`]): worker-thread configuration, order-preserving parallel
/// maps and per-stream RNG seed derivation.
pub mod exec {
    pub use mpa_exec::*;
}

pub use causal::{
    analyze_treatment, CausalAnalysis, CausalConfig, ComparisonResult, TreatmentDesign,
};
pub use compare::{compare_survey, Agreement, OpinionEvidence};
pub use dependence::{cmi_ranking, mi_ranking, CmiEntry, MiEntry};
pub use predict::{
    build_learnset, cross_validation, online_accuracy, HealthClasses, ModelKind,
};
pub use report::TextTable;
pub use session::{
    Analytics, AnalyticsSession, CausalRow, IngestBatch, IngestError, IngestOutcome,
    SessionConfig,
};
