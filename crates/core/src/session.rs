//! Resident analytics session: the library API behind `mpa-serve`.
//!
//! The batch pipeline is CLI-shaped — generate, infer, analyze and predict
//! each load their inputs, compute and exit. [`AnalyticsSession`] keeps the
//! whole chain resident instead: the dataset (inventory, delta-encoded
//! snapshot archive, ticket stream), the inferred case table, and the
//! derived products (MI ranking, causal comparisons, fitted predictor) live
//! in memory, answer queries in place, and absorb new snapshot/ticket
//! events incrementally.
//!
//! ## Ingest consistency model
//!
//! An [`IngestBatch`] is applied atomically: every event is validated
//! against the current state first (devices and networks must exist,
//! snapshot times must be non-decreasing per device — the archive's own
//! ordering contract), and only then is the dataset mutated. A rejected
//! batch leaves the session untouched.
//!
//! The session keeps one [`mpa_metrics::NetworkInferCtx`] resident: built
//! once with the session (and used for its initial inference), then
//! brought up to date by each batch — only newly interned lines are
//! classified, only the batch's tickets are counted. After application,
//! only the networks a snapshot touched are re-inferred (the context's
//! `infer_network` is the exact parallel unit of the batch pipeline, and
//! reads nothing but the context and the grown dataset); a network that
//! only received tickets keeps its rows and has each row's ticket count
//! re-read through the lookup inference itself uses. The updated case
//! table is therefore **byte-identical** to what a cold batch run over the
//! extended corpus would produce. The derived products are recomputed from
//! that table on the next [`AnalyticsSession::analytics`] call and are
//! therefore byte-identical too. This ingest-equals-batch property is
//! golden- and property-tested (serve test suite and the facade's
//! `serve_session` tests), over sequences of batches.
//!
//! A refresh computes what the daemon serves: the MI ranking, the 1:2
//! matched comparison (the one `/causal/summary` renders) for each of the
//! top `causal_top` practices, and the decision tree. All three read the
//! current table's one binned view, so a refresh fits 29 binners (28
//! metrics and the tickets) however many treatments it matches.

use crate::causal::{CausalConfig, ComparisonResult, TreatmentDesign};
use crate::dependence::{mi_ranking, MiEntry};
use crate::predict::{
    class_distribution, train, FeatureEncoder, HealthClasses, ModelKind, TrainedModel,
};
use mpa_config::{ConfigError, Snapshot};
use mpa_learn::Classifier;
use mpa_metrics::{Case, CaseTable, Metric, NetworkInferCtx, DELTA_DEFAULT_MINUTES};
use mpa_model::{DeviceId, NetworkId, Ticket};
use mpa_synth::Dataset;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Tunables of a session; the defaults mirror the CLI's.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Event-grouping window δ in minutes.
    pub delta_minutes: u64,
    /// How many top-MI practices the causal summary covers.
    pub causal_top: usize,
    /// Health-class granularity of the resident predictor.
    pub classes: HealthClasses,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            delta_minutes: DELTA_DEFAULT_MINUTES,
            causal_top: 5,
            classes: HealthClasses::Two,
        }
    }
}

/// One batch of online events. Snapshots are applied before tickets; the
/// two streams are independent inputs to inference, so their relative
/// order cannot affect the resulting case table.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IngestBatch {
    /// Configuration snapshots, non-decreasing in time per device.
    pub snapshots: Vec<Snapshot>,
    /// Trouble tickets.
    pub tickets: Vec<Ticket>,
}

impl IngestBatch {
    /// Total events in the batch.
    pub fn len(&self) -> usize {
        self.snapshots.len() + self.tickets.len()
    }

    /// Whether the batch carries no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why a batch was rejected (no partial application took place).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// A snapshot names a device the inventory does not know.
    UnknownDevice(DeviceId),
    /// A ticket names a network the organization does not have.
    UnknownNetwork(NetworkId),
    /// A snapshot is older than the device's newest archived snapshot
    /// (or than an earlier snapshot in the same batch).
    OutOfOrder(DeviceId),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            IngestError::UnknownNetwork(n) => write!(f, "unknown network {n}"),
            IngestError::OutOfOrder(d) => {
                write!(f, "snapshot for device {d} is out of order (time went backwards)")
            }
        }
    }
}

/// What an accepted batch did to the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Snapshots appended to the archive.
    pub snapshots: usize,
    /// Tickets appended to the stream.
    pub tickets: usize,
    /// Networks whose case rows were re-inferred: those a snapshot
    /// touched. A network that only received tickets has its rows'
    /// ticket counts updated instead.
    pub networks_reinferred: usize,
    /// The session's event count right after this batch.
    pub events_applied: u64,
}

/// One row of the causal summary: a top-MI practice and its
/// quasi-experimental comparison at the paper's 1:2 point (Table 7's).
#[derive(Debug, Clone)]
pub struct CausalRow {
    /// The treatment practice.
    pub metric: Metric,
    /// The matched comparison of its two lowest treatment bins.
    pub comparison: ComparisonResult,
}

/// Products derived from the case table: recomputed (lazily) after every
/// accepted ingest batch, so they always equal what a cold batch run over
/// the current corpus would compute.
pub struct Analytics {
    /// MI ranking of all practices (the Table 3 ordering).
    pub mi: Vec<MiEntry>,
    /// The 1:2 causal comparison of each of the top `causal_top`
    /// practices; the other comparison points are not computed.
    pub causal: Vec<CausalRow>,
    /// The causal configuration the rows were computed with.
    pub causal_config: CausalConfig,
    /// Feature encoder of the current table's binned view.
    pub encoder: FeatureEncoder,
    /// Decision tree fitted on the current table.
    pub model: TrainedModel,
    /// Cases per health class in the current table.
    pub distribution: Vec<usize>,
}

/// A prediction for one existing case, from the resident model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CasePrediction {
    /// Predicted class index.
    pub predicted: u8,
    /// Predicted class name.
    pub predicted_name: &'static str,
    /// Actual class index (from the case's ticket count).
    pub actual: u8,
    /// Actual class name.
    pub actual_name: &'static str,
}

/// The resident analytics state — see the module docs.
pub struct AnalyticsSession {
    dataset: Dataset,
    config: SessionConfig,
    /// Case rows per network, parallel to `dataset.networks`. The flat
    /// table is their concatenation in that order — exactly the batch
    /// pipeline's merge order, which is what makes per-network replacement
    /// byte-equivalent to a cold run.
    per_network: Vec<Vec<Case>>,
    table: CaseTable,
    /// Device → index into `dataset.networks`.
    device_network: BTreeMap<DeviceId, usize>,
    /// Network id → index into `dataset.networks`.
    network_index: BTreeMap<NetworkId, usize>,
    /// Ticket counts and line classes of the current dataset.
    ctx: NetworkInferCtx,
    events_applied: u64,
    analytics: Option<Analytics>,
}

impl AnalyticsSession {
    /// Build a session by running batch inference over `dataset`.
    pub fn new(dataset: Dataset, config: SessionConfig) -> Self {
        let ctx = NetworkInferCtx::new(&dataset, config.delta_minutes);
        let inference = ctx.infer(&dataset);

        let mut device_network = BTreeMap::new();
        let mut network_index = BTreeMap::new();
        for (ix, net) in dataset.networks.iter().enumerate() {
            network_index.insert(net.id, ix);
            for dev in &net.devices {
                device_network.insert(dev.id, ix);
            }
        }

        // Split the flat table into per-network blocks. Batch inference
        // concatenates each network's rows in `dataset.networks` order, so
        // the blocks are contiguous runs.
        let cases = inference.table.cases();
        let mut per_network: Vec<Vec<Case>> = Vec::with_capacity(dataset.networks.len());
        let mut i = 0;
        for net in &dataset.networks {
            let start = i;
            while i < cases.len() && cases[i].network == net.id {
                i += 1;
            }
            per_network.push(cases[start..i].to_vec());
        }
        debug_assert_eq!(i, cases.len(), "cases not grouped by network order");

        let mut session = Self {
            dataset,
            config,
            per_network,
            table: inference.table,
            device_network,
            network_index,
            ctx,
            events_applied: 0,
            analytics: None,
        };
        session.refresh();
        session
    }

    /// The resident dataset (grown by every accepted ingest batch).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The current case table.
    pub fn table(&self) -> &CaseTable {
        &self.table
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Events applied since the session was built.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// The case rows of one network, or `None` for an unknown network id.
    pub fn network_cases(&self, id: NetworkId) -> Option<&[Case]> {
        self.network_index.get(&id).map(|&ix| self.per_network[ix].as_slice())
    }

    /// Derived analytics, recomputing them if an ingest invalidated the
    /// cache.
    pub fn analytics(&mut self) -> &Analytics {
        self.refresh();
        self.analytics.as_ref().expect("refresh() populates analytics")
    }

    /// Derived analytics if currently materialized. `mpa-serve` refreshes
    /// eagerly after every ingest batch (under its write lock), so its read
    /// paths always find `Some`.
    pub fn analytics_cached(&self) -> Option<&Analytics> {
        self.analytics.as_ref()
    }

    /// Recompute the derived products if stale.
    pub fn refresh(&mut self) {
        if self.analytics.is_some() {
            return;
        }
        let cfg = &self.config;
        let mi = mi_ranking(&self.table, 20);
        let causal_config = CausalConfig::default();
        let top: Vec<&MiEntry> = mi.iter().take(cfg.causal_top).collect();
        // Matching is independent per treatment; fan out like `analyze`.
        // Only the 1:2 point is served, so only it is computed.
        let causal = mpa_exec::par_map(&top, |_, e| CausalRow {
            metric: e.metric,
            comparison: TreatmentDesign::new(&self.table, e.metric, &causal_config)
                .compare(0, &causal_config),
        });
        let encoder = FeatureEncoder::of(self.table.binned(), cfg.classes);
        let model = train(ModelKind::Dt, &encoder.encode(&self.table).view(), cfg.classes);
        let distribution = class_distribution(&self.table, cfg.classes);
        self.analytics =
            Some(Analytics { mi, causal, causal_config, encoder, model, distribution });
    }

    /// Predict the health class of an existing `(network, month)` case with
    /// the resident model. `None` when the case is not in the table (the
    /// month was not logged) or analytics are stale.
    pub fn predict_case(&self, network: NetworkId, month: usize) -> Option<CasePrediction> {
        let analytics = self.analytics.as_ref()?;
        let case = self
            .network_cases(network)?
            .iter()
            .find(|c| c.month == month)?;
        let (row, actual) = analytics.encoder.row(case);
        let predicted = analytics.model.predict(&row);
        let names = self.config.classes.names();
        Some(CasePrediction {
            predicted,
            predicted_name: names[predicted as usize],
            actual,
            actual_name: names[actual as usize],
        })
    }

    /// Validate and apply one event batch — atomic: on `Err` the session is
    /// unchanged. On success the networks a snapshot touched are
    /// re-inferred, those that only received tickets are re-counted, and
    /// the derived analytics cache is invalidated.
    pub fn ingest(&mut self, batch: IngestBatch) -> Result<IngestOutcome, IngestError> {
        // Validate everything before mutating anything. The only push-time
        // failure the archive knows is time going backwards per device, so
        // pre-checking tips (plus within-batch order) makes `push` below
        // infallible.
        let mut batch_tip: BTreeMap<DeviceId, mpa_model::Timestamp> = BTreeMap::new();
        for snap in &batch.snapshots {
            let dev = snap.meta.device;
            if !self.device_network.contains_key(&dev) {
                return Err(IngestError::UnknownDevice(dev));
            }
            let archived_tip = self.dataset.archive.device_metas(dev).last().map(|m| m.time);
            let tip = batch_tip.get(&dev).copied().or(archived_tip);
            if tip.is_some_and(|t| snap.meta.time < t) {
                return Err(IngestError::OutOfOrder(dev));
            }
            batch_tip.insert(dev, snap.meta.time);
        }
        for ticket in &batch.tickets {
            if !self.network_index.contains_key(&ticket.network) {
                return Err(IngestError::UnknownNetwork(ticket.network));
            }
        }

        // Apply. Interning appends new lines to the archive's table in
        // arrival order — the same order a batch load of the extended
        // corpus would intern them in.
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        let mut ticketed: BTreeSet<usize> = BTreeSet::new();
        let n_snapshots = batch.snapshots.len();
        let n_tickets = batch.tickets.len();
        for snap in batch.snapshots {
            // mpa-lint: allow(R7) -- the validation pass above rejected unknown devices before any mutation
            let ix = self.device_network[&snap.meta.device];
            match self.dataset.archive.push(snap) {
                Ok(()) => {}
                Err(ConfigError::OutOfOrderSnapshot { device }) => {
                    // mpa-lint: allow(R7) -- the validation pass above checked per-device time order
                    unreachable!("pre-validated snapshot order for device {device}")
                }
                // mpa-lint: allow(R7) -- OutOfOrderSnapshot is the only error push can produce
                Err(e) => unreachable!("archive push cannot fail here: {e:?}"),
            }
            dirty.insert(ix);
        }
        for ticket in batch.tickets {
            // mpa-lint: allow(R7) -- the validation pass above rejected unknown networks before any mutation
            ticketed.insert(self.network_index[&ticket.network]);
            self.dataset.tickets.push(ticket);
        }
        self.events_applied += (n_snapshots + n_tickets) as u64;

        // Bring the context up to the grown dataset (ticket counts and
        // line classes are pure functions of it), then re-infer only the
        // networks a snapshot touched. Each call reproduces exactly the
        // rows a cold batch run over the extended corpus would emit for
        // that network. Tickets change no row's practice metrics, only its
        // ticket count, so a network that got tickets alone re-reads those.
        self.ctx.extend(&self.dataset);
        for &ix in &dirty {
            let (_, cases, _) = self.ctx.infer_network(&self.dataset, &self.dataset.networks[ix]);
            self.per_network[ix] = cases;
        }
        for &ix in ticketed.difference(&dirty) {
            for case in &mut self.per_network[ix] {
                case.tickets = self.ctx.tickets(case.network, case.month);
            }
        }
        mpa_obs::counters::SERVE_NETWORKS_REINFERRED.add(dirty.len() as u64);

        // Rebuild the flat table in network order and invalidate the
        // derived products.
        let flat: Vec<Case> = self.per_network.iter().flatten().cloned().collect();
        self.table = CaseTable::new(flat);
        self.analytics = None;

        Ok(IngestOutcome {
            snapshots: n_snapshots,
            tickets: n_tickets,
            networks_reinferred: dirty.len(),
            events_applied: self.events_applied,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpa_config::{Login, SnapshotMeta};
    use mpa_model::{Timestamp, TicketId, TicketKind, TicketSeverity};
    use mpa_synth::Scenario;

    fn tiny_session() -> AnalyticsSession {
        AnalyticsSession::new(Scenario::tiny().generate(), SessionConfig::default())
    }

    /// A snapshot that re-states a device's latest config with one appended
    /// comment line, one minute after its newest snapshot.
    fn next_snapshot(ds: &Dataset, dev: DeviceId) -> Snapshot {
        let metas = ds.archive.device_metas(dev);
        let last = metas.last().expect("device has history");
        let mut text = ds
            .archive
            .latest_at(dev, last.time)
            .expect("tip snapshot exists")
            .text;
        text.push_str("! ingest-probe\n");
        Snapshot {
            meta: SnapshotMeta {
                device: dev,
                time: Timestamp(last.time.0 + 1),
                login: Login::new("alice"),
            },
            text,
        }
    }

    #[test]
    fn session_matches_cold_batch_at_startup() {
        let ds = Scenario::tiny().generate();
        let batch = mpa_metrics::infer_case_table(&ds);
        let session = AnalyticsSession::new(ds, SessionConfig::default());
        assert_eq!(session.table(), &batch);
    }

    #[test]
    fn ingest_equals_cold_batch_over_extended_corpus() {
        let mut session = tiny_session();
        let dev = session.dataset().networks[0].devices[0].id;
        let snap = next_snapshot(session.dataset(), dev);
        let ticket = Ticket {
            id: TicketId(900_000),
            network: session.dataset().networks[1].id,
            kind: TicketKind::UserReport,
            opened: session.dataset().period.month_start(1),
            resolved: None,
            devices: vec![],
            severity: TicketSeverity::Medium,
            symptom: "probe".into(),
        };

        // Cold batch: same events applied to a clone of the base dataset,
        // then full inference from scratch.
        let mut extended = session.dataset().clone();
        extended.archive.push(snap.clone()).expect("in order");
        extended.tickets.push(ticket.clone());

        let outcome = session
            .ingest(IngestBatch { snapshots: vec![snap], tickets: vec![ticket] })
            .expect("valid batch");
        assert_eq!(outcome.snapshots, 1);
        assert_eq!(outcome.tickets, 1);
        // The snapshot's network is re-inferred; the ticket's is re-counted.
        assert_eq!(outcome.networks_reinferred, 1);
        assert_eq!(outcome.events_applied, 2);
        assert_eq!(session.events_applied(), 2);

        let cold = AnalyticsSession::new(extended, SessionConfig::default());
        assert_eq!(session.table(), cold.table(), "incremental != cold batch");
        let (a, b) = (session.analytics(), cold.analytics_cached().expect("fresh"));
        assert_eq!(format!("{:?}", a.mi), format!("{:?}", b.mi));
        assert_eq!(a.distribution, b.distribution);
    }

    #[test]
    fn invalid_batches_are_rejected_atomically() {
        let mut session = tiny_session();
        let before = session.table().n_cases();
        let dev = session.dataset().networks[0].devices[0].id;
        let good = next_snapshot(session.dataset(), dev);
        let mut stale = good.clone();
        stale.meta.time = Timestamp(0);

        // Unknown device.
        let mut bogus = good.clone();
        bogus.meta.device = DeviceId(u32::MAX);
        let err = session
            .ingest(IngestBatch { snapshots: vec![good.clone(), bogus], tickets: vec![] })
            .expect_err("unknown device");
        assert_eq!(err, IngestError::UnknownDevice(DeviceId(u32::MAX)));

        // Out-of-order snapshot.
        let err = session
            .ingest(IngestBatch { snapshots: vec![stale], tickets: vec![] })
            .expect_err("stale snapshot");
        assert_eq!(err, IngestError::OutOfOrder(dev));

        // Unknown network on a ticket.
        let ticket = Ticket {
            id: TicketId(1),
            network: NetworkId(u32::MAX),
            kind: TicketKind::MonitoringAlarm,
            opened: Timestamp(1),
            resolved: None,
            devices: vec![],
            severity: TicketSeverity::Low,
            symptom: "x".into(),
        };
        let err = session
            .ingest(IngestBatch { snapshots: vec![good], tickets: vec![ticket] })
            .expect_err("unknown network");
        assert_eq!(err, IngestError::UnknownNetwork(NetworkId(u32::MAX)));

        // Atomicity: nothing above may have mutated the session. The `good`
        // snapshot rode along in two rejected batches and must not have
        // been applied.
        assert_eq!(session.events_applied(), 0);
        assert_eq!(session.table().n_cases(), before);
        let again = next_snapshot(session.dataset(), dev);
        session
            .ingest(IngestBatch { snapshots: vec![again], tickets: vec![] })
            .expect("session still consistent");
    }

    #[test]
    fn predictions_come_from_the_resident_model() {
        let mut session = tiny_session();
        session.refresh();
        let case = session.table().cases()[0].clone();
        let p = session.predict_case(case.network, case.month).expect("case exists");
        let names = session.config().classes.names();
        assert!(names.contains(&p.predicted_name));
        assert!(names.contains(&p.actual_name));
        assert!(session.predict_case(NetworkId(u32::MAX), 0).is_none());
    }
}
