//! Dependence analysis (§5.1): which practices are statistically related to
//! health, and to each other.
//!
//! Mutual information is chosen over ANOVA/PCA/ICA because "MI does not make
//! assumptions about the nature of the relationship" — it catches the
//! non-monotonic shapes of Figure 4. Metrics and health are discretized
//! with the §5.1.1 binning (10 equal-width bins between the 5th and 95th
//! percentile, outliers clamped); Table 3 reports the **average monthly
//! MI**: MI is computed within each month's cases and averaged across
//! months, which removes cross-month drift from the estimate. Both
//! rankings read the table's binned view, whose bounds are organization-
//! wide (fitted on all months), and count its `u8` codes densely.

use mpa_metrics::{CaseTable, Metric, FINE_BINS};
use mpa_stats::{conditional_mutual_information, mutual_information};
use serde::{Deserialize, Serialize};

/// One row of the MI ranking (Table 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MiEntry {
    /// The practice.
    pub metric: Metric,
    /// Average monthly MI with network health (bits).
    pub mi: f64,
}

/// One row of the CMI pair ranking (Table 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CmiEntry {
    /// First practice of the pair.
    pub a: Metric,
    /// Second practice of the pair.
    pub b: Metric,
    /// CMI(a; b | health) in bits.
    pub cmi: f64,
}

/// Rank all 28 practices by average monthly MI with health (Table 3).
///
/// Months with fewer than `min_cases_per_month` cases are skipped (an MI
/// estimate over a handful of cases is noise).
pub fn mi_ranking(table: &CaseTable, min_cases_per_month: usize) -> Vec<MiEntry> {
    let view = table.binned();
    // Qualifying months with their rows and binned health, shared by every
    // metric.
    let months: Vec<(&[usize], Vec<u8>)> = view
        .months()
        .iter()
        .filter(|(_, rows)| rows.len() >= min_cases_per_month)
        .map(|(_, rows)| (rows.as_slice(), gather(view.tickets(), rows)))
        .collect();

    // Metrics are scored independently; fan out, then sort (the stable sort
    // over the order-preserving map keeps ties in `Metric::ALL` order, same
    // as the sequential path).
    let mut entries: Vec<MiEntry> = mpa_exec::par_map(Metric::ALL.as_slice(), |_, &metric| {
        let codes = view.fine(metric);
        let mut total = 0.0;
        for (rows, ys) in &months {
            total += mutual_information(&gather(codes, rows), ys, FINE_BINS);
        }
        let n_months = months.len();
        MiEntry { metric, mi: if n_months > 0 { total / n_months as f64 } else { 0.0 } }
    });
    entries.sort_by(|a, b| b.mi.total_cmp(&a.mi));
    entries
}

/// The codes of `rows`, in their order.
fn gather(codes: &[u8], rows: &[usize]) -> Vec<u8> {
    rows.iter().map(|&i| codes[i]).collect()
}

/// Rank all practice pairs by CMI given health (Table 4), descending.
pub fn cmi_ranking(table: &CaseTable) -> Vec<CmiEntry> {
    let view = table.binned();
    // All ~378 pairs are independent given the binned columns; fan out and
    // sort. Pair order (hence tie order after the stable sort) matches the
    // sequential double loop.
    let pairs: Vec<(Metric, Metric)> = Metric::ALL
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| Metric::ALL[i + 1..].iter().map(move |&b| (a, b)))
        .collect();
    let mut entries = mpa_exec::par_map(&pairs, |_, &(a, b)| {
        let cmi = conditional_mutual_information(
            view.fine(a),
            view.fine(b),
            view.tickets(),
            FINE_BINS,
        );
        CmiEntry { a, b, cmi }
    });
    entries.sort_by(|a, b| b.cmi.total_cmp(&a.cmi));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpa_metrics::catalog::N_METRICS;
    use mpa_metrics::Case;
    use mpa_model::NetworkId;

    /// Build a synthetic case table where tickets depend strongly on
    /// Devices, weakly on Vlans, and not at all on Workloads; and where
    /// Models is a noisy copy of Roles (for CMI).
    fn synthetic_table() -> CaseTable {
        let mut cases = Vec::new();
        // 600 networks/month keeps the plug-in MI bias ((|X|−1)(|Y|−1)/2n·ln2)
        // well below the signal levels asserted below.
        for month in 0..6 {
            for net in 0..600u32 {
                let mut values = vec![0.0; N_METRICS];
                let devices = f64::from(net % 30) * 4.0;
                let vlans = f64::from((net * 7) % 40);
                let roles = f64::from(net % 5) + 1.0;
                values[Metric::Devices.index()] = devices;
                values[Metric::Vlans.index()] = vlans;
                values[Metric::Roles.index()] = roles;
                values[Metric::Models.index()] = roles * 2.0 + f64::from(net % 2);
                // Hash-scrambled so it shares no modular structure with the
                // drivers of tickets.
                values[Metric::Workloads.index()] =
                    f64::from(net.wrapping_mul(2_654_435_761) >> 13 & 3);
                let tickets = (devices / 10.0 + vlans / 30.0 + f64::from((net + month) % 2)).floor();
                cases.push(Case { network: NetworkId(net), month: month as usize, values, tickets });
            }
        }
        CaseTable::new(cases)
    }

    #[test]
    fn mi_ranking_orders_by_strength() {
        let table = synthetic_table();
        let ranking = mi_ranking(&table, 30);
        assert_eq!(ranking.len(), N_METRICS);
        // Sorted descending.
        for w in ranking.windows(2) {
            assert!(w[0].mi >= w[1].mi);
        }
        let rank_of = |m: Metric| ranking.iter().position(|e| e.metric == m).unwrap();
        assert!(
            rank_of(Metric::Devices) < rank_of(Metric::Workloads),
            "devices drive tickets, workloads are noise"
        );
        assert_eq!(ranking[0].metric, Metric::Devices);
        // Unrelated metric carries little information (the loose bound
        // allows for the plug-in estimator's small positive bias).
        assert!(ranking.iter().find(|e| e.metric == Metric::Workloads).unwrap().mi < 0.08);
    }

    #[test]
    fn mi_skips_thin_months() {
        let table = synthetic_table();
        // min_cases too high → no months qualify → all MI zero.
        let ranking = mi_ranking(&table, 10_000);
        assert!(ranking.iter().all(|e| e.mi == 0.0));
    }

    #[test]
    fn cmi_finds_the_coupled_pair() {
        let table = synthetic_table();
        let ranking = cmi_ranking(&table);
        assert_eq!(ranking.len(), N_METRICS * (N_METRICS - 1) / 2);
        for w in ranking.windows(2) {
            assert!(w[0].cmi >= w[1].cmi);
        }
        // Models ≈ 2·Roles: that pair must rank near the very top among
        // pairs of *informative* metrics.
        let pos = ranking
            .iter()
            .position(|e| {
                (e.a == Metric::Models && e.b == Metric::Roles)
                    || (e.a == Metric::Roles && e.b == Metric::Models)
            })
            .unwrap();
        assert!(pos < 5, "Models/Roles pair ranked {pos}");
    }

    #[test]
    fn constant_metric_has_zero_mi_and_cmi() {
        let table = synthetic_table();
        // HardwareEntropy is all zeros in the synthetic table.
        let ranking = mi_ranking(&table, 30);
        let e = ranking.iter().find(|e| e.metric == Metric::HardwareEntropy).unwrap();
        assert!(e.mi < 1e-9, "constant metric MI {}", e.mi);
        let cmis = cmi_ranking(&table);
        for e in cmis {
            if e.a == Metric::HardwareEntropy || e.b == Metric::HardwareEntropy {
                assert!(e.cmi < 1e-9);
            }
        }
    }
}
