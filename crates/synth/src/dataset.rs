//! The generated dataset: everything an organization's data sources would
//! hold, plus the ground-truth table used only for validation.
//!
//! A [`Dataset`] is the boundary between synthesis and inference. The
//! inference pipeline (`mpa-metrics`) may read: `networks` (inventory view
//! via `inventory`), `archive`, `tickets`, `directory`, and `coverage`. It
//! must never read `ground_truth` — that field exists so tests and
//! EXPERIMENTS.md can check what the analytics *should* find.

use crate::degrade::DegradeStats;
use crate::ops::MonthTruth;
use mpa_config::{SnapshotArchive, UserDirectory};
use mpa_model::{Inventory, Network, NetworkId, StudyPeriod, Ticket};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Ground truth re-export (per network-month record).
pub type GroundTruth = MonthTruth;

/// A complete synthetic-organization dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// The study period.
    pub period: StudyPeriod,
    /// All networks (devices + topology).
    pub networks: Vec<Network>,
    /// The inventory database (flat view of the device fleet).
    pub inventory: Inventory,
    /// The configuration snapshot archive.
    pub archive: SnapshotArchive,
    /// The trouble-ticket log (incidents and maintenance interleaved).
    pub tickets: Vec<Ticket>,
    /// The user directory classifying automation accounts.
    pub directory: UserDirectory,
    /// Network-months with intact logging; cases outside this set must be
    /// dropped by inference (they model the paper's missing snapshots).
    pub coverage: BTreeSet<(NetworkId, usize)>,
    /// Ground truth per network-month — for validation only.
    pub ground_truth: Vec<GroundTruth>,
    /// What the degradation pass touched (all zeros for pristine
    /// corpora); `kept + dropped == generated` by construction.
    pub degrade: DegradeStats,
}

/// Table 2-style size summary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Months covered.
    pub months: usize,
    /// First and last month labels.
    pub span: (String, String),
    /// Number of networks.
    pub networks: usize,
    /// Number of distinct services hosted.
    pub services: usize,
    /// Total devices.
    pub devices: usize,
    /// Total configuration snapshots.
    pub config_snapshots: usize,
    /// Total bytes of archived configuration text.
    pub config_bytes: usize,
    /// Total tickets (incident + maintenance).
    pub tickets: usize,
    /// Network-months with intact logging (the case count upper bound).
    pub logged_network_months: usize,
}

impl Dataset {
    /// Compute the Table 2 summary.
    pub fn summary(&self) -> DatasetSummary {
        let services: BTreeSet<u32> = self
            .networks
            .iter()
            .flat_map(|n| n.workloads.iter().map(|w| w.service))
            .collect();
        DatasetSummary {
            months: self.period.n_months(),
            span: (
                self.period.month(0).to_string(),
                self.period.month(self.period.n_months() - 1).to_string(),
            ),
            networks: self.networks.len(),
            services: services.len(),
            devices: self.inventory.n_devices(),
            config_snapshots: self.archive.n_snapshots(),
            config_bytes: self.archive.total_bytes(),
            tickets: self.tickets.len(),
            logged_network_months: self.coverage.len(),
        }
    }

    /// Network lookup by id.
    pub fn network(&self, id: NetworkId) -> Option<&Network> {
        self.networks.iter().find(|n| n.id == id)
    }

    /// Whether a network-month has intact logging.
    pub fn is_logged(&self, net: NetworkId, month: usize) -> bool {
        self.coverage.contains(&(net, month))
    }

    /// Ground-truth record for a network-month (validation only).
    pub fn truth(&self, net: NetworkId, month: usize) -> Option<&GroundTruth> {
        self.ground_truth.iter().find(|t| t.network == net && t.month == month)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn summary_counts_are_consistent() {
        let ds = Scenario::tiny().generate();
        let s = ds.summary();
        assert_eq!(s.networks, ds.networks.len());
        assert_eq!(s.devices, ds.networks.iter().map(|n| n.size()).sum::<usize>());
        assert_eq!(s.months, ds.period.n_months());
        assert!(s.config_snapshots >= s.devices, "at least the initial snapshot each");
        assert!(s.tickets > 0);
        assert!(s.logged_network_months <= s.networks * s.months);
        assert!(s.logged_network_months > s.networks * s.months / 2);
        assert!(s.services > 0);
        assert_eq!(s.span.0, "2013-08");
    }

    #[test]
    fn coverage_matches_truth_logged_flags() {
        let ds = Scenario::tiny().generate();
        for t in &ds.ground_truth {
            assert_eq!(ds.is_logged(t.network, t.month), t.logged, "{:?}/{}", t.network, t.month);
        }
    }

    #[test]
    fn lookup_helpers() {
        let ds = Scenario::tiny().generate();
        let first = ds.networks[0].id;
        assert!(ds.network(first).is_some());
        assert!(ds.network(NetworkId(9_999)).is_none());
        assert!(ds.truth(first, 0).is_some());
        assert!(ds.truth(first, 999).is_none());
    }
}
