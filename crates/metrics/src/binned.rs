//! The binned view of a case table: the §5.1.1 discretization, fitted once
//! per table and read by every analytic.
//!
//! The paper bins each metric once: 10 equal-width bins between the 5th and
//! 95th percentile for dependence (§5.1.1), 5 over the same bounds for the
//! QED treatments (§5.2.2) and the learner (§6.1). MI and CMI count the
//! 10-bin codes and the QED reads them as confounders; the treatments and
//! the learner split the same bounds into 5 bins ([`Binner::with_bins`]).
//! [`crate::CaseTable::binned`] builds the view on first use; a table's rows
//! never change after it is built.

use crate::catalog::Metric;
use crate::table::Case;
use mpa_obs::counters::BINNER_FITS;
use mpa_stats::Binner;
use std::collections::BTreeMap;

/// Bins per metric for dependence analysis and the QED confounders (§5.1.1).
pub const FINE_BINS: usize = 10;
/// Bins per metric for QED treatments (§5.2.2) and learning (§6.1).
pub const COARSE_BINS: usize = 5;

/// Every metric and the tickets of one case table, binned once.
#[derive(Debug, Clone)]
pub struct BinnedView {
    /// Each metric's binner at [`FINE_BINS`], in [`Metric::ALL`] order.
    binners: Vec<Binner>,
    /// Codes at [`FINE_BINS`], metric-major: metric `m`'s column is the
    /// `m`-th run of one code per row.
    fine: Vec<u8>,
    tickets: Vec<u8>,
    months: Vec<(usize, Vec<usize>)>,
}

impl BinnedView {
    /// Fit one binner on each metric column and one on the tickets, and
    /// code every row with them. Every row carries all 28 values: only a
    /// table, which checks that, builds a view.
    pub(crate) fn new(cases: &[Case]) -> Self {
        let mut column = Vec::with_capacity(cases.len());
        let (mut binners, mut fine) = (Vec::new(), Vec::new());
        for m in Metric::ALL {
            column.clear();
            // mpa-lint: allow(R7) -- a table checks that every row carries all N_METRICS values
            column.extend(cases.iter().map(|c| c.values[m.index()]));
            let binner = Binner::fit(&column, FINE_BINS);
            fine.extend(binner.codes(&column));
            binners.push(binner);
        }
        column.clear();
        column.extend(cases.iter().map(|c| c.tickets));
        let tickets = Binner::fit(&column, FINE_BINS).codes(&column);
        BINNER_FITS.add(Metric::ALL.len() as u64 + 1);
        let mut months: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, c) in cases.iter().enumerate() {
            months.entry(c.month).or_default().push(i);
        }
        Self { binners, fine, tickets, months: months.into_iter().collect() }
    }

    /// Metric `m`'s binner at [`FINE_BINS`]; [`Binner::with_bins`] splits
    /// its bounds into any other number of bins.
    pub fn binner(&self, m: Metric) -> &Binner {
        // mpa-lint: allow(R7) -- Metric::index() is the dense slot in a vec sized Metric::ALL
        &self.binners[m.index()]
    }

    /// Metric `m`'s code at [`FINE_BINS`] for each row.
    pub fn fine(&self, m: Metric) -> &[u8] {
        let n = self.tickets.len();
        self.fine.get(m.index() * n..(m.index() + 1) * n).unwrap_or_default()
    }

    /// The tickets' code at [`FINE_BINS`] for each row.
    pub fn tickets(&self) -> &[u8] {
        &self.tickets
    }

    /// Each month present, ascending, with its rows in table order.
    pub fn months(&self) -> &[(usize, Vec<usize>)] {
        &self.months
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::N_METRICS;
    use mpa_model::NetworkId;

    fn case(month: usize, devices: f64, tickets: f64) -> Case {
        let mut values = vec![0.0; N_METRICS];
        values[Metric::Devices.index()] = devices;
        Case { network: NetworkId(0), month, values, tickets }
    }

    #[test]
    fn codes_equal_fresh_fits() {
        let cases: Vec<Case> = (0..200u32)
            .map(|i| case(i as usize % 3, f64::from(i * 7 % 101), f64::from(i % 13)))
            .collect();
        let view = BinnedView::new(&cases);
        for m in Metric::ALL {
            let col: Vec<f64> = cases.iter().map(|c| c.value(m)).collect();
            assert_eq!(view.binner(m), &Binner::fit(&col, FINE_BINS), "{m:?}");
            assert_eq!(view.fine(m), Binner::fit(&col, FINE_BINS).codes(&col), "{m:?}");
        }
        let tickets: Vec<f64> = cases.iter().map(|c| c.tickets).collect();
        assert_eq!(view.tickets(), Binner::fit(&tickets, FINE_BINS).codes(&tickets));
        assert!(view.fine(Metric::Devices).contains(&9));
    }

    #[test]
    fn months_group_rows_in_table_order() {
        let view = BinnedView::new(&[case(2, 1.0, 0.0), case(0, 2.0, 0.0), case(2, 3.0, 0.0)]);
        assert_eq!(view.months(), &[(0, vec![1]), (2, vec![0, 2])]);
    }

    #[test]
    fn an_empty_table_has_empty_columns() {
        let view = BinnedView::new(&[]);
        assert!(view.fine(Metric::Devices).is_empty());
        assert!(view.fine(Metric::Roles).is_empty());
        assert!(view.tickets().is_empty());
        assert!(view.months().is_empty());
    }
}
