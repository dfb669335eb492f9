//! Scenario coverage: what the generated corpus actually exercised.
//!
//! A synthetic corpus only stresses the code paths its scenario happens to
//! produce — a seed tweak can silently stop generating, say, UDLD stanzas,
//! and every downstream test keeps passing while exercising less. The scan
//! here makes that measurable (following *Test Coverage for Network
//! Configurations*' framing of coverage over config corpora): it reports,
//! per dimension, how often each item of a known universe occurs in a
//! [`Dataset`], with explicit zeros for unexercised items. The binaries
//! that generate or load a corpus put the scan into their `--obs-out`
//! RunReport ([`CoverageReport::into_obs`]), and CI gates on a committed
//! baseline.
//!
//! Dimensions:
//!
//! * `dialect` — devices per config dialect.
//! * `change_type` — network-month occurrences of each vendor-agnostic
//!   change type, from ground truth ([`crate::ops::MonthTruth`]).
//! * `stanza_kind` — stanzas per vendor-native kind (prefixed with the
//!   dialect label), parsed from each device's final archived config.
//! * `degrade_knob` — artifacts touched by each degradation knob.

use crate::dataset::Dataset;
use mpa_config::{known_stanza_kinds, parse_config, ChangeType};
use mpa_model::device::Dialect;
use mpa_model::Timestamp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Label a dialect for report keys.
fn dialect_label(d: Dialect) -> &'static str {
    match d {
        Dialect::BlockKeyword => "block-keyword",
        Dialect::BraceHierarchy => "brace-hierarchy",
    }
}

/// One item of a coverage dimension: a universe member and how often the
/// corpus exercised it (0 = declared but never seen).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageItem {
    /// Item name (e.g. a stanza kind, a change-type label).
    pub name: String,
    /// Occurrences in the scanned dataset.
    pub count: u64,
}

/// One coverage dimension: a named universe of items.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageDimension {
    /// Dimension name (`dialect`, `change_type`, `stanza_kind`,
    /// `degrade_knob`).
    pub name: String,
    /// Items in sorted name order.
    pub items: Vec<CoverageItem>,
}

/// The full scenario coverage report for one dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Dimensions in sorted name order.
    pub dimensions: Vec<CoverageDimension>,
}

impl CoverageReport {
    /// Scan a dataset. Deterministic: iteration is over sorted device ids
    /// and ground truth in network order, and every universe item is
    /// emitted (with a zero count if unexercised).
    pub fn scan(dataset: &Dataset) -> Self {
        let mut dims: BTreeMap<&str, BTreeMap<String, u64>> = BTreeMap::new();

        // Universes first, so unexercised items surface as zeros.
        let dialect_dim = dims.entry("dialect").or_default();
        for d in [Dialect::BlockKeyword, Dialect::BraceHierarchy] {
            dialect_dim.insert(dialect_label(d).to_string(), 0);
        }
        let ct_dim = dims.entry("change_type").or_default();
        for t in ChangeType::ALL {
            ct_dim.insert(t.label().to_string(), 0);
        }
        let sk_dim = dims.entry("stanza_kind").or_default();
        for d in [Dialect::BlockKeyword, Dialect::BraceHierarchy] {
            for kind in known_stanza_kinds(d) {
                sk_dim.insert(format!("{}/{kind}", dialect_label(d)), 0);
            }
        }
        let dk_dim = dims.entry("degrade_knob").or_default();
        for (knob, _) in crate::degrade::DegradeSpec::none().knobs() {
            dk_dim.insert(knob.to_string(), 0);
        }

        // Dialect: devices per dialect.
        let mut device_dialect = BTreeMap::new();
        for n in &dataset.networks {
            for d in &n.devices {
                device_dialect.insert(d.id, d.dialect());
                *dims
                    .get_mut("dialect")
                    .expect("declared above")
                    .get_mut(dialect_label(d.dialect()))
                    .expect("declared above") += 1;
            }
        }

        // Change types: network-month occurrences from ground truth.
        let ct_dim = dims.get_mut("change_type").expect("declared above");
        for truth in &dataset.ground_truth {
            for t in &truth.change_types {
                *ct_dim.get_mut(t.label()).expect("universe covers ALL") += 1;
            }
        }

        // Stanza kinds: parse each device's final archived config. Kinds
        // outside the known table (none today) would be added dynamically.
        let sk_dim = dims.get_mut("stanza_kind").expect("declared above");
        for dev in dataset.archive.devices() {
            let Some(dialect) = device_dialect.get(&dev).copied() else {
                continue;
            };
            let Some(tip) = dataset.archive.latest_at(dev, Timestamp(u64::MAX)) else {
                continue;
            };
            // Archived text is synthesized by our own renderer, so a parse
            // failure would be a generator bug; skip rather than panic to
            // honor the no-panics-under-degradation contract.
            let Ok(parsed) = parse_config(&tip.text, dialect) else {
                continue;
            };
            for stanza in &parsed.stanzas {
                let key = format!("{}/{}", dialect_label(dialect), stanza.kind);
                *sk_dim.entry(key).or_insert(0) += 1;
            }
        }

        // Degradation knobs: artifacts each knob touched.
        let st = &dataset.degrade;
        let dk_dim = dims.get_mut("degrade_knob").expect("declared above");
        for (knob, touched) in [
            ("miss_window", st.snapshots_dropped_window),
            ("truncate", st.snapshots_dropped_truncated),
            ("reorder", st.snapshots_reordered),
            ("dup_ticket", st.tickets_duplicated),
            ("corrupt_ticket", st.tickets_corrupted),
            ("ambiguous_login", st.logins_ambiguated),
        ] {
            *dk_dim.get_mut(knob).expect("declared above") += touched;
        }

        Self {
            dimensions: dims
                .into_iter()
                .map(|(name, items)| CoverageDimension {
                    name: name.to_string(),
                    items: items
                        .into_iter()
                        .map(|(name, count)| CoverageItem { name, count })
                        .collect(),
                })
                .collect(),
        }
    }

    /// The scan as the `coverage` section of an `mpa-obs` RunReport:
    /// dimensions and items in sorted name order, zeros included.
    pub fn into_obs(self) -> Vec<(String, Vec<(String, u64)>)> {
        self.dimensions
            .into_iter()
            .map(|d| (d.name, d.items.into_iter().map(|i| (i.name, i.count)).collect()))
            .collect()
    }

    /// `(exercised, total)` item counts for one dimension, for one-line
    /// summaries (`stanza_kind 32/32`).
    pub fn exercised(&self, dimension: &str) -> (usize, usize) {
        self.dimensions
            .iter()
            .find(|d| d.name == dimension)
            .map_or((0, 0), |d| {
                (d.items.iter().filter(|i| i.count > 0).count(), d.items.len())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::DegradeSpec;
    use crate::Scenario;

    #[test]
    fn small_corpus_exercises_every_tracked_dimension() {
        let ds = Scenario::small().generate();
        let report = CoverageReport::scan(&ds);
        let (ex, total) = report.exercised("dialect");
        assert_eq!((ex, total), (2, 2), "both dialects in play");
        let (ex, total) = report.exercised("change_type");
        // The operational simulator's event families map onto exactly 8
        // change types; the remaining stanza kinds exist as static
        // boilerplate but never *change* — which is precisely the kind of
        // fact this report exists to surface.
        assert_eq!(total, 16);
        assert_eq!(ex, 8, "change types exercised: {ex}/{total}");
        let ct = report.dimensions.iter().find(|d| d.name == "change_type").unwrap();
        for label in ["iface", "vlan", "acl", "router", "pool", "user", "sflow", "qos"] {
            let item = ct.items.iter().find(|i| i.name == label).unwrap();
            assert!(item.count > 0, "event-driven type '{label}' unexercised");
        }
        let (ex, total) = report.exercised("stanza_kind");
        assert_eq!(total, 32);
        assert!(ex >= 30, "stanza kinds exercised: {ex}/{total}");
        // Pristine corpus: no degradation knob fired.
        assert_eq!(report.exercised("degrade_knob").0, 0);
    }

    #[test]
    fn degraded_corpus_lights_up_the_knob_dimension() {
        let ds = Scenario::tiny().with_degrade(DegradeSpec::heavy()).generate();
        let report = CoverageReport::scan(&ds);
        let (ex, total) = report.exercised("degrade_knob");
        assert_eq!(total, 6);
        assert!(ex >= 5, "knobs exercised: {ex}/{total}");
    }

    #[test]
    fn scan_is_deterministic() {
        let ds = Scenario::tiny().generate();
        assert_eq!(CoverageReport::scan(&ds), CoverageReport::scan(&ds));
    }
}
