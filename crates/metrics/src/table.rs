//! The case table: one row per `(network, month)` with all 28 metric values
//! and the health outcome.
//!
//! "We compute the mean value of each management practice and health metric
//! on a monthly basis for each network, giving us ≈11K data points"
//! (§5.1.1). The case table is that data set; every downstream analysis —
//! MI ranking, CMI pairs, propensity matching, decision-tree learning —
//! consumes it, through the table's one [`BinnedView`].

use crate::binned::BinnedView;
use crate::catalog::{Metric, N_METRICS};
use mpa_model::NetworkId;
use serde::{Deserialize, Reader, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One row: a network observed for one month.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Case {
    /// Network.
    pub network: NetworkId,
    /// Month index within the study period.
    pub month: usize,
    /// The 28 metric values, in [`Metric::ALL`] order.
    pub values: Vec<f64>,
    /// Incident tickets this month (maintenance excluded).
    pub tickets: f64,
}

impl Case {
    /// Value of one metric.
    pub fn value(&self, m: Metric) -> f64 {
        self.values[m.index()]
    }
}

/// The full case table.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CaseTable {
    cases: Vec<Case>,
    /// Derived from `cases` on first use, so neither on the wire nor in `==`.
    #[serde(skip)]
    binned: OnceLock<BinnedView>,
}

/// Decoded through the width check of [`CaseTable::new`]: a row short of
/// its 28 values is a decode error that names it, since every analytic
/// indexes rows by metric.
impl Deserialize for CaseTable {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        // The derived reader of the wire fields, declared under this type's
        // name so that its errors read the same.
        #[derive(Deserialize)]
        struct CaseTable {
            cases: Vec<Case>,
        }
        let wire = CaseTable::deserialize(r)?;
        Self::try_new(wire.cases).map_err(|msg| r.error(format!("CaseTable: {msg}")))
    }
}

impl PartialEq for CaseTable {
    fn eq(&self, other: &Self) -> bool {
        self.cases == other.cases
    }
}

/// Per-network mean values across its observed months (the unit of the
/// Appendix A characterization figures).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSummary {
    /// Network.
    pub network: NetworkId,
    /// Mean of each metric across the network's observed months.
    pub values: Vec<f64>,
    /// Mean monthly incident tickets.
    pub tickets: f64,
    /// Months observed.
    pub n_months: usize,
}

impl NetworkSummary {
    /// The means of one network's `rows`, summed in row order; `None` when
    /// there are no rows.
    pub fn of<'a>(network: NetworkId, rows: impl IntoIterator<Item = &'a Case>) -> Option<Self> {
        let mut values = vec![0.0; N_METRICS];
        let mut tickets = 0.0;
        let mut n_months = 0;
        for r in rows {
            for (v, rv) in values.iter_mut().zip(&r.values) {
                *v += rv;
            }
            tickets += r.tickets;
            n_months += 1;
        }
        if n_months == 0 {
            return None;
        }
        let n = n_months as f64;
        for v in &mut values {
            *v /= n;
        }
        Some(Self { network, values, tickets: tickets / n, n_months })
    }

    /// Mean value of one metric.
    pub fn value(&self, m: Metric) -> f64 {
        self.values[m.index()]
    }
}

impl CaseTable {
    /// Build from rows.
    ///
    /// # Panics
    /// Panics if any row does not have exactly 28 values.
    pub fn new(cases: Vec<Case>) -> Self {
        // mpa-lint: allow(R7) -- inference emits every row with all N_METRICS values
        Self::try_new(cases).unwrap_or_else(|msg| panic!("case must carry all 28 metrics: {msg}"))
    }

    /// Build from rows, or say which row does not carry exactly 28 values.
    fn try_new(cases: Vec<Case>) -> Result<Self, String> {
        if let Some((i, c)) = cases.iter().enumerate().find(|(_, c)| c.values.len() != N_METRICS) {
            return Err(format!("row {i} carries {} values, not {N_METRICS}", c.values.len()));
        }
        Ok(Self { cases, binned: OnceLock::new() })
    }

    /// The table's binned view, built on first use (see [`BinnedView`]).
    pub fn binned(&self) -> &BinnedView {
        self.binned.get_or_init(|| BinnedView::new(&self.cases))
    }

    /// All rows.
    pub fn cases(&self) -> &[Case] {
        &self.cases
    }

    /// All rows, moved out of the table; its binned view is dropped.
    pub fn into_cases(self) -> Vec<Case> {
        self.cases
    }

    /// Number of rows.
    pub fn n_cases(&self) -> usize {
        self.cases.len()
    }

    /// One metric's column.
    pub fn column(&self, m: Metric) -> Vec<f64> {
        let ix = m.index();
        self.cases.iter().map(|c| c.values[ix]).collect()
    }

    /// The outcome column (incident tickets).
    pub fn tickets(&self) -> Vec<f64> {
        self.cases.iter().map(|c| c.tickets).collect()
    }

    /// Month indices present, ascending.
    pub fn months(&self) -> Vec<usize> {
        let mut months: Vec<usize> = self.cases.iter().map(|c| c.month).collect();
        months.sort_unstable();
        months.dedup();
        months
    }

    /// A sub-table restricted to a month range `[from, to)` (used by the
    /// online-prediction experiment: train on months `t−M..t`, test on `t`).
    pub fn slice_months(&self, from: usize, to: usize) -> CaseTable {
        CaseTable {
            cases: self.cases.iter().filter(|c| (from..to).contains(&c.month)).cloned().collect(),
            binned: OnceLock::new(),
        }
    }

    /// Per-network means across observed months.
    pub fn network_summaries(&self) -> Vec<NetworkSummary> {
        let mut grouped: BTreeMap<NetworkId, Vec<&Case>> = BTreeMap::new();
        for c in &self.cases {
            grouped.entry(c.network).or_default().push(c);
        }
        grouped
            .into_iter()
            .filter_map(|(network, rows)| NetworkSummary::of(network, rows))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(net: u32, month: usize, devices: f64, tickets: f64) -> Case {
        let mut values = vec![0.0; N_METRICS];
        values[Metric::Devices.index()] = devices;
        Case { network: NetworkId(net), month, values, tickets }
    }

    #[test]
    fn columns_and_accessors() {
        let t = CaseTable::new(vec![case(0, 0, 5.0, 1.0), case(1, 0, 9.0, 3.0)]);
        assert_eq!(t.n_cases(), 2);
        assert_eq!(t.column(Metric::Devices), vec![5.0, 9.0]);
        assert_eq!(t.tickets(), vec![1.0, 3.0]);
        assert_eq!(t.cases()[0].value(Metric::Devices), 5.0);
    }

    #[test]
    #[should_panic(expected = "28 metrics")]
    fn wrong_width_panics() {
        CaseTable::new(vec![Case {
            network: NetworkId(0),
            month: 0,
            values: vec![1.0; 5],
            tickets: 0.0,
        }]);
    }

    #[test]
    fn month_slicing() {
        let t = CaseTable::new(vec![
            case(0, 0, 1.0, 0.0),
            case(0, 1, 2.0, 0.0),
            case(0, 2, 3.0, 0.0),
            case(1, 1, 4.0, 0.0),
        ]);
        assert_eq!(t.months(), vec![0, 1, 2]);
        let s = t.slice_months(1, 3);
        assert_eq!(s.n_cases(), 3);
        assert_eq!(s.months(), vec![1, 2]);
    }

    #[test]
    fn network_summaries_average_across_months() {
        let t = CaseTable::new(vec![
            case(0, 0, 10.0, 2.0),
            case(0, 1, 14.0, 4.0),
            case(1, 0, 100.0, 0.0),
        ]);
        let sums = t.network_summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].network, NetworkId(0));
        assert_eq!(sums[0].value(Metric::Devices), 12.0);
        assert_eq!(sums[0].tickets, 3.0);
        assert_eq!(sums[0].n_months, 2);
        assert_eq!(sums[1].value(Metric::Devices), 100.0);
    }
}
