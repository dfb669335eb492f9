//! # MPA — Management Plane Analytics
//!
//! A production-quality Rust reproduction of *Management Plane Analytics*
//! (Gember-Jacobson, Wu, Li, Akella, Mahajan — IMC 2015): infer network
//! management practices from inventory records, configuration snapshots and
//! trouble tickets; discover which practices are statistically and causally
//! related to network health; and predict health from practices.
//!
//! This crate is the facade over the workspace:
//!
//! | module | crate | what it provides |
//! |---|---|---|
//! | [`model`] | `mpa-model` | devices, networks, topology, tickets, time |
//! | [`config`] | `mpa-config` | config languages, snapshots, stanza diffs |
//! | [`synth`] | `mpa-synth` | the synthetic OSP substrate + ground truth |
//! | [`metrics`] | `mpa-metrics` | the 28 practice metrics, case table |
//! | [`stats`] | `mpa-stats` | MI/CMI, logistic, sign test, balance, ... |
//! | [`learn`] | `mpa-learn` | C4.5, AdaBoost, oversampling, forests, SVM |
//! | [`analytics`] | `mpa-core` | dependence, causal QED, prediction |
//!
//! ## Quickstart
//!
//! ```no_run
//! use mpa::prelude::*;
//!
//! // 1. A dataset: generate a synthetic organization (or load your own).
//! let dataset = Scenario::small().generate();
//!
//! // 2. Infer the case table: 28 practice metrics + health per
//! //    (network, month), from raw snapshots/inventory/tickets only.
//! let table = infer_case_table(&dataset);
//!
//! // 3. Which practices relate to health?
//! let ranking = mi_ranking(&table, 30);
//! println!("strongest practice: {}", ranking[0].metric.name());
//!
//! // 4. Does the top practice *cause* poor health?
//! let causal = analyze_treatment(&table, ranking[0].metric, &CausalConfig::default());
//! if let Some(low) = causal.low_bin_comparison() {
//!     println!("1:2 comparison p-value: {:?}", low.p_value());
//! }
//!
//! // 5. Predict health from practices.
//! let accuracy = cross_validation(&table, HealthClasses::Two, ModelKind::Dt, 7).accuracy();
//! println!("2-class CV accuracy: {accuracy:.3}");
//! ```
//!
//! See the `examples/` directory for complete scenarios and DESIGN.md for
//! the system inventory and per-experiment index.

/// Domain model: devices, networks, topology, tickets, time.
pub use mpa_model as model;

/// Configuration substrate: dialects, snapshots, diffs, facts.
pub use mpa_config as config;

/// Synthetic-organization substrate and ground truth.
pub use mpa_synth as synth;

/// Practice-metric inference.
pub use mpa_metrics as metrics;

/// Statistics substrate.
pub use mpa_stats as stats;

/// Learning substrate.
pub use mpa_learn as learn;

/// The MPA analytics (dependence, causal, prediction, comparison).
pub use mpa_core as analytics;

/// The common imports for working with MPA end to end.
pub mod prelude {
    pub use mpa_core::predict::{
        build_learnset, class_distribution, cross_validation, online_accuracy, render_tree,
        HealthClasses, ModelKind,
    };
    pub use mpa_core::{
        analyze_treatment, cmi_ranking, compare_survey, mi_ranking, CausalAnalysis, CausalConfig,
        TextTable,
    };
    pub use mpa_metrics::{infer, infer_case_table, CaseTable, Metric};
    pub use mpa_model::{Network, NetworkId, Ticket};
    pub use mpa_synth::{Dataset, Scenario};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports_work() {
        use crate::prelude::*;
        // Type-level smoke test: names resolve and basic values construct.
        let cfg = CausalConfig::default();
        assert!(cfg.alpha < 0.01);
        assert_eq!(Metric::ALL.len(), 28);
        assert_eq!(HealthClasses::Five.n(), 5);
    }
}
