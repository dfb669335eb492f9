//! # mpa-synth — synthetic online-service-provider substrate
//!
//! The paper's evaluation runs on 17 months of proprietary data from 850+
//! networks of a large online service provider (OSP): inventory records,
//! O(100K) configuration snapshots, and O(10K) trouble tickets. That data is
//! not redistributable, so this crate builds the closest synthetic
//! equivalent — an organization whose *generated* raw data (never its
//! latent intent) is handed to the inference pipeline:
//!
//! * [`profile`] — per-network latent practice profiles sampled to match the
//!   distributions characterized in the paper's Appendix A (device counts,
//!   heterogeneity, protocol usage, VLAN heavy tail, change activity,
//!   automation extent, change-type mixes).
//! * [`catalog`] — the fictional hardware catalog (vendors × roles × model
//!   lines × firmware trains).
//! * [`netgen`] — materializes a profile into a [`mpa_model::Network`]
//!   (devices, topology) plus per-device semantic configurations.
//! * [`ops`] — the operational simulator: month by month, change events
//!   mutate device configs; every mutation renders config text and archives
//!   a snapshot with login metadata, exactly the trail RANCID/HPNA leave.
//! * [`health`] — the **ground-truth structural causal model**: monthly
//!   incident-ticket rates are a function of the *true* causal practices
//!   (documented in DESIGN.md §3). Two practices are confounded-but-not-
//!   causal by construction, so the causal pipeline's findings can be
//!   verified against truth.
//! * [`survey`] — the 51-operator survey of Figure 2.
//! * [`dataset`] — the bundle handed to inference: inventory, snapshot
//!   archive, ticket log, user directory, logging coverage; plus the
//!   ground-truth table used only by validation tests and EXPERIMENTS.md.
//! * [`scenario`] — presets: [`scenario::Scenario::paper`] (850+ networks ×
//!   17 months), plus smaller fixtures for tests and benches.
//! * [`degrade`] — seeded degradation knobs (missing snapshot windows,
//!   truncated histories, clock skew, duplicate/corrupt tickets, ambiguous
//!   logins) that re-introduce the mess the paper's real corpus has and
//!   ours, by construction, lacks.
//! * [`coverage`] — the scenario coverage scan: which stanza kinds, change
//!   types, dialects and degradation knobs a generated corpus actually
//!   exercised, published into the `mpa-obs` RunReport.

pub mod catalog;
pub mod coverage;
pub mod dataset;
pub mod degrade;
pub mod health;
pub mod netgen;
pub mod ops;
pub mod profile;
pub mod scenario;
pub mod survey;

pub use coverage::CoverageReport;
pub use dataset::{Dataset, DatasetSummary, GroundTruth};
pub use degrade::{DegradeSpec, DegradeStats};
pub use health::HealthModel;
pub use profile::{NetworkProfile, OrgConfig};
pub use scenario::Scenario;
pub use survey::{ImpactOpinion, SurveyPractice, SurveyResponse};
