//! # mpa-metrics — inferring management practices from raw network data
//!
//! The paper's §2: management practices "are not explicitly logged", so MPA
//! infers them from three data sources — inventory records, configuration
//! snapshots and trouble-ticket logs. This crate is that inference layer.
//! It consumes **only** the observable parts of a dataset (never the
//! synthetic generator's latent profiles or ground truth) and produces the
//! case table every analysis in `mpa-core` runs on.
//!
//! * [`catalog`] — the 28 practice metrics (Table 1, lines D1–D6 and O1–O4).
//! * [`changes`] — replaying the snapshot archive into per-device change
//!   records (stanza diffs, vendor-agnostic types, automation classification).
//! * [`events`] — grouping device changes into *change events* with the
//!   paper's δ-window chaining heuristic (§2.2, Figure 3).
//! * [`design`] — design metrics: composition counts, hardware/firmware
//!   heterogeneity entropy, protocol usage, routing-instance extraction
//!   (transitive closure of adjacency), referential complexity.
//! * [`table`] — the `(network, month)` case table: 28 metric values plus
//!   the health outcome (incident tickets, maintenance excluded).
//! * [`binned`] — the table's binned view: the §5.1.1 discretization of
//!   every metric and of the tickets, fitted once and read by every
//!   analytic.
//! * [`pipeline`] — end-to-end inference from a [`mpa_synth::Dataset`].

pub mod binned;
pub mod catalog;
pub mod changes;
pub mod design;
pub mod events;
pub mod pipeline;
pub mod table;

pub use binned::{BinnedView, COARSE_BINS, FINE_BINS};
pub use catalog::{Metric, MetricCategory, N_METRICS};
pub use changes::{replay_device_changes, DeviceChange};
pub use events::{group_events, ChangeEvent, DELTA_DEFAULT_MINUTES};
pub use pipeline::{infer, infer_case_table, infer_full, Inference, NetworkInferCtx};
pub use table::{Case, CaseTable, NetworkSummary};
