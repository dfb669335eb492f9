//! End-to-end inference: dataset → case table.
//!
//! For every network the pipeline makes a single pass over each device's
//! snapshot history (each distinct snapshot state is analyzed exactly
//! once), deriving:
//!
//! 1. **change records** — stanza diffs of successive snapshots, typed and
//!    classified as automated/manual (O1–O3);
//! 2. **monthly design facts** — the parsed state of the latest snapshot at
//!    each month's end feeds the design metrics (D1–D6);
//! 3. **events** — change records chained with the δ heuristic (O4);
//! 4. **health** — incident tickets per month, planned maintenance excluded.
//!
//! Two interchangeable engines produce the change records and facts: the
//! **delta-native** production path ([`infer`]) replays the archive's
//! line-id deltas through [`DeltaInference`], re-parsing only segments
//! whose line span changed; the **full** oracle ([`infer_full`])
//! materializes every snapshot text and parses each distinct one whole.
//! Their outputs are byte-identical (golden- and property-tested) — the
//! delta path just does string work proportional to changed bytes instead
//! of archive bytes. Only the equivalence tests call the oracle.
//!
//! Network-months without logging coverage are dropped, mirroring the
//! paper's missing-snapshot months (≈11K usable cases out of 850 × 17).

use crate::catalog::{Metric, N_METRICS};
use crate::changes::{DeviceChange, ParsedHistory};
use crate::design::compute_design;
use crate::events::{group_events, DELTA_DEFAULT_MINUTES};
use crate::table::{Case, CaseTable};
use mpa_config::facts::{extract_facts, ConfigFacts};
use mpa_config::typemap::ChangeType;
use mpa_config::{ChangeAction, DeltaInference, KeyId, LineClasses, SnapshotMeta};
use mpa_model::{DeviceId, NetworkId, Role};
use mpa_synth::Dataset;
use std::collections::BTreeMap;

/// History holes longer than this (~45 days, in the simulator's minute
/// units) count as spanned gaps in `infer_gaps_spanned` — wider than any
/// pristine month-to-month cadence, so pristine corpora report few and
/// degraded ones audit their missing windows.
const GAP_SPAN_MINUTES: u64 = 45 * 24 * 60;

/// Everything inference produces. The case table drives the analytics; the
/// per-network change records additionally back the δ-sensitivity and
/// change-characterization figures (Figs 3, 12, 13).
#[derive(Debug, Clone)]
pub struct Inference {
    /// The `(network, month)` case table.
    pub table: CaseTable,
    /// All inferred device changes per network, time-sorted.
    pub device_changes: BTreeMap<NetworkId, Vec<DeviceChange>>,
}

/// Run inference with the default δ = 5 minutes.
pub fn infer_case_table(dataset: &Dataset) -> CaseTable {
    infer(dataset, DELTA_DEFAULT_MINUTES).table
}

/// Run the full inference pipeline with an explicit event window, using
/// the delta-native engine.
pub fn infer(dataset: &Dataset, delta_minutes: u64) -> Inference {
    NetworkInferCtx::new(dataset, delta_minutes).infer(dataset)
}

/// [`infer`] through the full-parse oracle: every distinct snapshot text
/// is materialized and parsed whole. Byte-identical to [`infer`] by
/// contract; the equivalence tests are its only callers.
pub fn infer_full(dataset: &Dataset, delta_minutes: u64) -> Inference {
    NetworkInferCtx::build(dataset, delta_minutes, None).infer(dataset)
}

/// Shared read-only context for inferring individual networks against a
/// dataset: the per-`(network, month)` incident-ticket counts and the line
/// classification, both pure functions of the dataset's ticket stream and
/// archive intern table.
///
/// [`infer`] builds one per batch run; a long-lived caller (the
/// `mpa-serve` resident session) keeps one, brings it up to date with
/// [`Self::extend`] whenever the archive or ticket stream grows, and then
/// re-infers only the networks an ingested snapshot touched. Because
/// [`Self::infer_network`] is the exact parallel unit of the batch
/// pipeline and reads nothing but this context plus the dataset, a
/// per-network re-inference is byte-identical to what a cold batch run
/// over the same (grown) dataset would produce for that network — the
/// foundation of the daemon's ingest-equals-batch guarantee.
pub struct NetworkInferCtx {
    tickets: BTreeMap<(NetworkId, usize), f64>,
    /// Length of the ticket stream `tickets` has counted.
    tickets_counted: usize,
    classes: Option<LineClasses>,
    n_months: usize,
    delta_minutes: u64,
}

impl NetworkInferCtx {
    /// Build the context from the dataset's current tickets and archive.
    pub fn new(dataset: &Dataset, delta_minutes: u64) -> Self {
        // Line classification is a pure function of the archive's intern
        // table: built once, shared read-only by every network's delta
        // engine.
        Self::build(dataset, delta_minutes, Some(LineClasses::new(&dataset.archive)))
    }

    /// `classes` selects the engine for `infer_network`: `Some` runs
    /// delta-native inference, `None` the full-parse oracle.
    fn build(dataset: &Dataset, delta_minutes: u64, classes: Option<LineClasses>) -> Self {
        let mut ctx = Self {
            tickets: BTreeMap::new(),
            tickets_counted: 0,
            classes,
            n_months: dataset.period.n_months(),
            delta_minutes,
        };
        ctx.count_tickets(dataset);
        ctx
    }

    /// Count each ticket `dataset` appended since the last count that
    /// counts toward health, against its `(network, month)`.
    fn count_tickets(&mut self, dataset: &Dataset) {
        for t in dataset.tickets.get(self.tickets_counted..).unwrap_or_default() {
            if !t.kind.counts_toward_health() {
                continue;
            }
            if let Some(m) = dataset.period.month_of(t.opened) {
                *self.tickets.entry((t.network, m)).or_insert(0.0) += 1.0;
            }
        }
        self.tickets_counted = dataset.tickets.len();
    }

    /// Catch up with `dataset` after it grew (its archive and ticket
    /// stream only append): classify the newly interned lines and count
    /// the new tickets. The result equals a context built afresh from the
    /// grown dataset.
    pub fn extend(&mut self, dataset: &Dataset) {
        if let Some(classes) = self.classes.as_mut() {
            classes.extend(&dataset.archive);
        }
        self.count_tickets(dataset);
    }

    /// The health-counting tickets of `network` opened in `month`: the
    /// `tickets` field of that case row.
    pub fn tickets(&self, network: NetworkId, month: usize) -> f64 {
        self.tickets.get(&(network, month)).copied().unwrap_or(0.0)
    }

    /// Infer every network of `dataset` into one case table.
    pub fn infer(&self, dataset: &Dataset) -> Inference {
        // Each network's inference reads only shared immutable state
        // (dataset, ticket counts, line classes) and produces its own case
        // rows, so networks fan out across worker threads; merging in
        // network order keeps the CaseTable identical to a sequential run
        // at any thread count.
        let per_network =
            mpa_exec::par_map(&dataset.networks, |_, network| self.infer_network(dataset, network));

        let mut all_cases = Vec::new();
        let mut device_changes_by_net: BTreeMap<NetworkId, Vec<DeviceChange>> = BTreeMap::new();
        for (network_id, cases, net_changes) in per_network {
            all_cases.extend(cases);
            device_changes_by_net.insert(network_id, net_changes);
        }

        Inference { table: CaseTable::new(all_cases), device_changes: device_changes_by_net }
    }

    /// Infer one network's case rows and change records. `dataset` must be
    /// the dataset this context was built from (or an unmodified clone).
    pub fn infer_network(
        &self,
        dataset: &Dataset,
        network: &mpa_model::Network,
    ) -> (NetworkId, Vec<Case>, Vec<DeviceChange>) {
        infer_network(dataset, network, self)
    }
}

/// Infer all case rows and change records for one network (pure w.r.t. the
/// shared dataset; the parallel unit of `infer`). The context's line
/// classes select the engine: present, delta-native inference; absent,
/// the full-parse oracle.
fn infer_network(
    dataset: &Dataset,
    network: &mpa_model::Network,
    ctx: &NetworkInferCtx,
) -> (NetworkId, Vec<Case>, Vec<DeviceChange>) {
    let mut all_cases = Vec::new();
    let roles: BTreeMap<DeviceId, Role> =
        network.devices.iter().map(|d| (d.id, d.role)).collect();

    // Single analysis pass per device: change records + month-end facts.
    let mut net_changes: Vec<DeviceChange> = Vec::new();
    // facts_by_month[m][device] = facts at end of month m.
    let mut facts_by_month: Vec<BTreeMap<DeviceId, ConfigFacts>> =
        vec![BTreeMap::new(); ctx.n_months];

    // One engine serves every device of the network, so segment parses
    // are shared across devices — stanzas repeat heavily within a network.
    let mut engine = ctx.classes.as_ref().map(|c| DeltaInference::new(&dataset.archive, c));
    let mut pairs: Vec<(KeyId, ChangeAction)> = Vec::new();
    for device in &network.devices {
        let metas = dataset.archive.device_metas(device.id);
        if metas.is_empty() {
            continue;
        }
        // Large holes in a device's history (a degraded corpus's missing
        // collector windows, but also quiet devices in pristine ones) are
        // spanned, not errored on: count them so degraded runs can audit
        // that every gap was walked through. Mode-independent by
        // construction — both engines see the same metas.
        let gaps = metas
            .windows(2)
            .filter(|w| w[1].time.0.saturating_sub(w[0].time.0) > GAP_SPAN_MINUTES)
            .count() as u64;
        if gaps > 0 {
            mpa_obs::counters::INFER_GAPS_SPANNED.add(gaps);
        }
        match engine.as_mut() {
            Some(engine) => infer_device_delta(
                dataset,
                device,
                metas,
                engine,
                &mut pairs,
                &mut net_changes,
                &mut facts_by_month,
            ),
            None => {
                infer_device_full(dataset, device, metas, &mut net_changes, &mut facts_by_month)
            }
        }
    }

    net_changes.sort_by_key(|c| (c.time, c.device));

    for (month, month_facts) in facts_by_month.iter().enumerate() {
        if !dataset.is_logged(network.id, month) {
            continue;
        }
        let start = dataset.period.month_start(month);
        let end = dataset.period.month_end(month);
        let month_changes: Vec<DeviceChange> = net_changes
            .iter()
            .filter(|c| c.time >= start && c.time < end)
            .cloned()
            .collect();
        let events = group_events(&month_changes, ctx.delta_minutes);

        let design = compute_design(network, month_facts);

        let n_changes = month_changes.len() as f64;
        let devices_changed: std::collections::BTreeSet<DeviceId> =
            month_changes.iter().map(|c| c.device).collect();
        let automated = month_changes.iter().filter(|c| c.automated).count() as f64;
        let mut types: Vec<ChangeType> =
            month_changes.iter().flat_map(|c| c.types.iter().copied()).collect();
        types.sort_unstable();
        types.dedup();

        let n_events = events.len() as f64;
        let frac_events = |pred: &dyn Fn(&crate::events::ChangeEvent) -> bool| {
            if events.is_empty() {
                0.0
            } else {
                events.iter().filter(|e| pred(e)).count() as f64 / n_events
            }
        };
        let avg_event_size = if events.is_empty() {
            0.0
        } else {
            events.iter().map(|e| e.n_devices() as f64).sum::<f64>() / n_events
        };

        let mut values = vec![0.0; N_METRICS];
        // mpa-lint: allow(R7) -- Metric::index() is the dense slot in a values vec sized N_METRICS
        let mut set = |m: Metric, v: f64| values[m.index()] = v;
        set(Metric::Workloads, design.workloads);
        set(Metric::Devices, design.devices);
        set(Metric::Vendors, design.vendors);
        set(Metric::Models, design.models);
        set(Metric::Roles, design.roles);
        set(Metric::FirmwareVersions, design.firmware_versions);
        set(Metric::HardwareEntropy, design.hardware_entropy);
        set(Metric::FirmwareEntropy, design.firmware_entropy);
        set(Metric::L2Protocols, design.l2_protocols);
        set(Metric::L3Protocols, design.l3_protocols);
        set(Metric::Vlans, design.vlans);
        set(Metric::BgpInstances, design.bgp_instances);
        set(Metric::OspfInstances, design.ospf_instances);
        set(Metric::AvgBgpInstanceSize, design.avg_bgp_instance_size);
        set(Metric::AvgOspfInstanceSize, design.avg_ospf_instance_size);
        set(Metric::IntraComplexity, design.intra_complexity);
        set(Metric::InterComplexity, design.inter_complexity);
        set(Metric::ConfigChanges, n_changes);
        set(Metric::DevicesChanged, devices_changed.len() as f64);
        set(
            Metric::FracDevicesChanged,
            if network.devices.is_empty() {
                0.0
            } else {
                devices_changed.len() as f64 / network.devices.len() as f64
            },
        );
        set(Metric::FracAutomated, if n_changes > 0.0 { automated / n_changes } else { 0.0 });
        set(Metric::ChangeTypes, types.len() as f64);
        set(Metric::ChangeEvents, n_events);
        set(Metric::AvgDevicesPerEvent, avg_event_size);
        set(Metric::FracIfaceEvents, frac_events(&|e| e.touches(ChangeType::Interface)));
        set(Metric::FracAclEvents, frac_events(&|e| e.touches(ChangeType::Acl)));
        set(Metric::FracRouterEvents, frac_events(&|e| e.touches(ChangeType::Router)));
        set(
            Metric::FracMboxEvents,
            frac_events(&|e| {
                e.devices.iter().any(|d| roles.get(d).is_some_and(|r| r.is_middlebox()))
            }),
        );

        all_cases.push(Case {
            network: network.id,
            month,
            values,
            tickets: ctx.tickets(network.id, month),
        });
    }

    (network.id, all_cases, net_changes)
}

/// Full-parse oracle for one device: materialize every snapshot text,
/// parse each distinct text whole and diff successive parses. Retained as
/// the equivalence oracle for the delta path ([`infer_full`]).
fn infer_device_full(
    dataset: &Dataset,
    device: &mpa_model::Device,
    metas: &[SnapshotMeta],
    net_changes: &mut Vec<DeviceChange>,
    facts_by_month: &mut [BTreeMap<DeviceId, ConfigFacts>],
) {
    let texts = dataset.archive.device_texts(device.id);
    // Parse cache: each *distinct* text of the device (adjacent duplicates
    // never reach the archive, but reverts to an earlier state do) is
    // parsed and fact-extracted exactly once, so the counters below count
    // the same states the delta engine's `(line ids, byte length)` dedup
    // does. Invariant maintained here: hits + misses == snapshots visited.
    let history = ParsedHistory::new(&texts, device.dialect());
    let n_distinct = history.parsed.len() as u64;
    mpa_obs::counters::PARSE_SNAPSHOTS_VISITED.add(metas.len() as u64);
    mpa_obs::counters::PARSE_CACHE_HITS.add(metas.len() as u64 - n_distinct);
    mpa_obs::counters::PARSE_CACHE_MISSES.add(n_distinct);
    mpa_obs::counters::INFER_FULL_PARSES.add(n_distinct);

    history.push_changes(device.id, metas, &dataset.directory, net_changes);

    // Month-end facts: the latest parseable snapshot at or before
    // each month boundary. Facts are memoized per distinct text (its
    // slot), so a quiet device is only analyzed once.
    let mut facts_cache: BTreeMap<usize, ConfigFacts> = BTreeMap::new();
    for (month, month_facts) in facts_by_month.iter_mut().enumerate() {
        let end = dataset.period.month_end(month);
        // partition_point over snapshot times (sorted per archive).
        let upto = metas.partition_point(|m| m.time < end);
        let Some(ix) = (0..upto).rev().find(|&i| history.at(i).is_some()) else {
            continue;
        };
        let facts = facts_cache
            .entry(history.slots[ix])
            .or_insert_with(|| extract_facts(history.at(ix).expect("parseable")));
        month_facts.insert(device.id, facts.clone());
    }
}

/// Delta-native inference for one device: replay the archive's line-id
/// deltas through `engine`, paying string-parse cost only for cache-novel
/// segments. Emits exactly the records `infer_device_full` would
/// (golden- and property-tested), including the parse-cache counter
/// triple — within one archive, a state's `(line ids, byte length)` key
/// identifies its text exactly, so the engine dedups the same states the
/// oracle's full-text dedup does and `hits + misses == visited` holds
/// with the same totals in both.
fn infer_device_delta(
    dataset: &Dataset,
    device: &mpa_model::Device,
    metas: &[SnapshotMeta],
    engine: &mut DeltaInference<'_>,
    pairs: &mut Vec<(KeyId, ChangeAction)>,
    net_changes: &mut Vec<DeviceChange>,
    facts_by_month: &mut [BTreeMap<DeviceId, ConfigFacts>],
) {
    let replay = engine
        .replay_device(device.id, device.dialect())
        .expect("device has snapshots (metas is non-empty)");
    let n_distinct = replay.n_distinct() as u64;
    mpa_obs::counters::PARSE_SNAPSHOTS_VISITED.add(replay.n_snapshots() as u64);
    mpa_obs::counters::PARSE_CACHE_HITS.add(replay.n_snapshots() as u64 - n_distinct);
    mpa_obs::counters::PARSE_CACHE_MISSES.add(n_distinct);

    // Change records from successive parseable snapshots. The merge walk
    // in `changes_between` yields one `(key, action)` pair per stanza
    // `diff_configs` would report, so the counts and deduped type sets
    // below match the oracle's.
    let mut prev_ix: Option<usize> = None;
    for (ix, meta) in metas.iter().enumerate() {
        let slot = replay.slot(ix);
        if !replay.parseable(slot) {
            continue;
        }
        if let Some(pi) = prev_ix {
            engine.changes_between(&replay, replay.slot(pi), slot, pairs);
            if !pairs.is_empty() {
                let mut types: Vec<ChangeType> =
                    pairs.iter().map(|&(k, _)| engine.change_type(k)).collect();
                types.sort_unstable();
                types.dedup();
                net_changes.push(DeviceChange {
                    device: device.id,
                    time: meta.time,
                    login: meta.login.clone(),
                    automated: dataset.directory.is_automated(&meta.login),
                    types,
                    n_stanzas: pairs.len(),
                });
            }
        }
        prev_ix = Some(ix);
    }

    // Month-end facts, memoized per distinct state exactly as in the full
    // path; the parsed config is assembled from cached segments, never
    // from re-rendered text.
    let mut facts_cache: BTreeMap<u32, ConfigFacts> = BTreeMap::new();
    for (month, month_facts) in facts_by_month.iter_mut().enumerate() {
        let end = dataset.period.month_end(month);
        let upto = metas.partition_point(|m| m.time < end);
        let Some(ix) = (0..upto).rev().find(|&i| replay.parseable(replay.slot(i))) else {
            continue;
        };
        let slot = replay.slot(ix);
        let facts = facts_cache.entry(slot).or_insert_with(|| {
            extract_facts(&engine.state_config(&replay, slot).expect("parseable"))
        });
        month_facts.insert(device.id, facts.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpa_synth::Scenario;

    fn tiny() -> Dataset {
        Scenario::tiny().generate()
    }

    #[test]
    fn case_count_matches_coverage() {
        let ds = tiny();
        let table = infer_case_table(&ds);
        assert_eq!(table.n_cases(), ds.coverage.len());
    }

    #[test]
    fn design_metrics_match_inventory_ground_truth() {
        let ds = tiny();
        let table = infer_case_table(&ds);
        for case in table.cases() {
            let net = ds.network(case.network).expect("known network");
            assert_eq!(case.value(Metric::Devices), net.size() as f64);
            let models: std::collections::BTreeSet<_> =
                net.devices.iter().map(|d| d.model).collect();
            assert_eq!(case.value(Metric::Models), models.len() as f64);
            let roles: std::collections::BTreeSet<_> =
                net.devices.iter().map(|d| d.role).collect();
            assert_eq!(case.value(Metric::Roles), roles.len() as f64);
            assert_eq!(case.value(Metric::Workloads), net.workloads.len() as f64);
        }
    }

    #[test]
    fn operational_metrics_track_simulated_events() {
        // The inferred event count should approximate the ground truth
        // (exact equality is not expected: events can merge when two
        // simulated events land within δ of each other).
        let ds = tiny();
        let table = infer_case_table(&ds);
        let mut total_true = 0.0;
        let mut total_inferred = 0.0;
        for case in table.cases() {
            let truth = ds.truth(case.network, case.month).expect("truth exists");
            total_true += f64::from(truth.n_events);
            total_inferred += case.value(Metric::ChangeEvents);
        }
        assert!(total_true > 0.0);
        let ratio = total_inferred / total_true;
        assert!(
            (0.7..=1.05).contains(&ratio),
            "inferred/true event ratio {ratio} (inferred {total_inferred}, true {total_true})"
        );
    }

    #[test]
    fn ticket_counts_exclude_maintenance() {
        let ds = tiny();
        let table = infer_case_table(&ds);
        for case in table.cases() {
            let truth = ds.truth(case.network, case.month).expect("truth");
            assert_eq!(
                case.tickets,
                f64::from(truth.incident_tickets),
                "net {} month {}",
                case.network,
                case.month
            );
        }
    }

    #[test]
    fn automation_fraction_is_sane() {
        let ds = tiny();
        let table = infer_case_table(&ds);
        let col = table.column(Metric::FracAutomated);
        assert!(col.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(col.iter().any(|&v| v > 0.0), "some automation must be detected");
        assert!(col.iter().any(|&v| v < 1.0), "not everything is automated");
    }

    #[test]
    fn fractions_bounded_and_event_sizes_consistent() {
        let ds = tiny();
        let table = infer_case_table(&ds);
        for case in table.cases() {
            for m in [
                Metric::FracDevicesChanged,
                Metric::FracAutomated,
                Metric::FracIfaceEvents,
                Metric::FracAclEvents,
                Metric::FracRouterEvents,
                Metric::FracMboxEvents,
            ] {
                let v = case.value(m);
                assert!((0.0..=1.0).contains(&v), "{m}: {v}");
            }
            if case.value(Metric::ChangeEvents) > 0.0 {
                assert!(case.value(Metric::AvgDevicesPerEvent) >= 1.0);
                assert!(case.value(Metric::ConfigChanges) >= case.value(Metric::ChangeEvents));
                assert!(case.value(Metric::DevicesChanged) <= case.value(Metric::Devices));
            }
        }
    }

    #[test]
    fn delta_and_full_modes_agree_exactly() {
        let ds = tiny();
        let full = infer_full(&ds, DELTA_DEFAULT_MINUTES);
        let delta = infer(&ds, DELTA_DEFAULT_MINUTES);
        assert_eq!(full.device_changes, delta.device_changes);
        assert_eq!(full.table, delta.table);
    }

    #[test]
    fn smaller_delta_yields_at_least_as_many_events() {
        let ds = tiny();
        let fine = infer(&ds, 1);
        let coarse = infer(&ds, 30);
        let sum = |t: &CaseTable| -> f64 { t.column(Metric::ChangeEvents).iter().sum() };
        assert!(sum(&fine.table) >= sum(&coarse.table));
    }
}
