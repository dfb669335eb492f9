//! Causal analysis via quasi-experimental design (§5.2).
//!
//! High MI does not imply causation: practices confound one another
//! (Figures 4–5). MPA's matched design answers "does practice X *cause*
//! worse health?" in four steps:
//!
//! 1. **Treatment definition** (§5.2.2): the treatment metric is binned
//!    into 5 bins (the §5.1.1 binning) and neighbouring bins are compared —
//!    comparison points 1:2, 2:3, 3:4, 4:5. The treatment's bounds and the
//!    confounders' codes come from the table's binned view, so every
//!    treatment of one table shares one discretization.
//! 2. **Matching** (§5.2.3): a logistic-regression **propensity score** is
//!    fit on the other 27 metrics; cases outside the common support are
//!    discarded; each treated case is paired with the nearest untreated
//!    case by score, **with replacement**.
//! 3. **Balance verification** (§5.2.4): |standardized difference of means|
//!    < 0.25 and variance ratio ∈ [0.5, 2] for the scores *and* for every
//!    confounder; otherwise the comparison is declared imbalanced
//!    (Table 8's "Imbal." entries).
//! 4. **Sign test** (§5.2.5): the distribution of per-pair ticket
//!    differences must reject "median = 0" at p < 0.001.

use mpa_metrics::{CaseTable, Metric, COARSE_BINS};
use mpa_stats::logistic::LogisticConfig;
use mpa_stats::signtest::{sign_test_from_diffs, SignTestResult};
use mpa_stats::{BalanceCheck, LogisticRegression};
use serde::{Deserialize, Serialize};

/// Configuration of the causal pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CausalConfig {
    /// Treatment bins (the paper uses 5).
    pub n_treatment_bins: usize,
    /// Significance threshold for the sign test (the paper uses 0.001).
    pub alpha: f64,
    /// Minimum cases per arm for a comparison to be attempted at all.
    pub min_cases: usize,
    /// Maximum confounders allowed to fail balance before the comparison is
    /// declared imbalanced (0 = strict).
    pub max_imbalanced_covariates: usize,
    /// Optional matching caliper, in standard deviations of the logit
    /// propensity score. `None` reproduces the paper's plain
    /// nearest-neighbour matching (match quality is then certified solely
    /// by the §5.2.4 balance checks); `Some(0.2)` is Rosenbaum–Rubin's
    /// classic stricter rule.
    pub caliper_sd: Option<f64>,
}

impl Default for CausalConfig {
    fn default() -> Self {
        Self {
            n_treatment_bins: COARSE_BINS,
            alpha: 0.001,
            min_cases: 30,
            max_imbalanced_covariates: 4,
            caliper_sd: None,
        }
    }
}

/// Result of one neighbouring-bin comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonResult {
    /// 1-based bins compared, e.g. `(1, 2)` for the paper's "1:2".
    pub point: (usize, usize),
    /// Cases in the untreated bin (before matching).
    pub n_untreated: usize,
    /// Cases in the treated bin (before matching).
    pub n_treated: usize,
    /// Matched pairs formed.
    pub n_pairs: usize,
    /// Distinct untreated cases used (with-replacement matching reuses
    /// them; Table 5's "Untreated Matched" column).
    pub n_untreated_matched: usize,
    /// Balance of the propensity scores over matched samples.
    pub score_balance: Option<BalanceCheck>,
    /// Number of the 27 confounders failing balance after matching.
    pub n_imbalanced_covariates: usize,
    /// Sign test over per-pair ticket differences (treated − untreated).
    pub sign: Option<SignTestResult>,
    /// Matched propensity/covariate samples for Figure 7 are summarized via
    /// the matched case indices (into the original table).
    pub matched_treated_ix: Vec<usize>,
    /// Indices of the matched untreated cases (aligned with
    /// `matched_treated_ix`).
    pub matched_untreated_ix: Vec<usize>,
    /// Confounders that failed balance, with their standardized difference
    /// of means (diagnostics for imbalanced comparisons).
    pub imbalanced: Vec<(Metric, f64)>,
}

impl ComparisonResult {
    /// Whether matching achieved acceptable balance.
    pub fn balanced(&self, config: &CausalConfig) -> bool {
        self.score_balance.as_ref().is_some_and(BalanceCheck::is_balanced)
            && self.n_imbalanced_covariates <= config.max_imbalanced_covariates
    }

    /// Whether a causal effect is established at this comparison point:
    /// balance holds *and* the sign test rejects H₀.
    pub fn causal(&self, config: &CausalConfig) -> bool {
        self.balanced(config)
            && self.sign.as_ref().is_some_and(|s| s.significant(config.alpha))
    }

    /// The p-value, if a sign test was possible.
    pub fn p_value(&self) -> Option<f64> {
        self.sign.as_ref().map(|s| s.p_value)
    }
}

/// Full causal analysis of one treatment practice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CausalAnalysis {
    /// The treatment practice.
    pub metric: Metric,
    /// One result per comparison point (1:2 … 4:5).
    pub comparisons: Vec<ComparisonResult>,
}

impl CausalAnalysis {
    /// The 1:2 comparison (the one the paper's Table 7 reports).
    pub fn low_bin_comparison(&self) -> Option<&ComparisonResult> {
        self.comparisons.iter().find(|c| c.point == (1, 2))
    }
}

/// Run the matched-design QED for one treatment metric, at every
/// comparison point.
pub fn analyze_treatment(
    table: &CaseTable,
    treatment: Metric,
    config: &CausalConfig,
) -> CausalAnalysis {
    let design = TreatmentDesign::new(table, treatment, config);
    let comparisons =
        (0..config.n_treatment_bins - 1).map(|b| design.compare(b, config)).collect();
    CausalAnalysis { metric: treatment, comparisons }
}

/// What every comparison point of one treatment shares: the treatment bin
/// of each case, its binned confounders and its ticket count.
pub struct TreatmentDesign {
    bins: Vec<usize>,
    confounders: Vec<Metric>,
    /// Row-major, one row of `confounders.len()` bin indices per case.
    features: Vec<f64>,
    tickets: Vec<f64>,
}

impl TreatmentDesign {
    /// Bin the treatment over its bounds in the table's binned view, and
    /// read the other 27 metrics' codes from that view.
    pub fn new(table: &CaseTable, treatment: Metric, config: &CausalConfig) -> Self {
        let view = table.binned();
        let binner = view.binner(treatment).with_bins(config.n_treatment_bins);
        let codes = binner.codes(&table.column(treatment));

        // Discrete metrics (e.g. number of roles, 1..6) can leave
        // equal-width bins empty, which would make "neighbouring bin"
        // comparisons vacuous. Relabel to the ordered sequence of
        // *populated* bins — the paper's own provision ("more (or fewer)
        // bins can be used if we have an (in)sufficient number of cases in
        // each bin").
        let mut present = codes.clone();
        present.sort_unstable();
        present.dedup();
        let bins = codes.iter().map(|c| present.partition_point(|p| p < c)).collect();

        // Confounders: all 27 other metrics, entered as their 10-bin
        // indices — the §5.1.1 discretization precedes every analysis in
        // the paper, and binning is exactly what lets the propensity model
        // retain common support in the face of heavy-tailed,
        // strongly-related metrics.
        let confounders: Vec<Metric> =
            Metric::ALL.iter().copied().filter(|&m| m != treatment).collect();
        let columns: Vec<&[u8]> = confounders.iter().map(|&m| view.fine(m)).collect();
        let mut features = Vec::with_capacity(table.n_cases() * confounders.len());
        for i in 0..table.n_cases() {
            features.extend(columns.iter().map(|col| f64::from(col[i])));
        }
        Self { bins, confounders, features, tickets: table.tickets() }
    }

    /// The binned confounders of case `i`.
    fn row(&self, i: usize) -> &[f64] {
        let p = self.confounders.len();
        self.features.get(i * p..i * p + p).unwrap_or_default()
    }

    /// Compare bin `b` (untreated) with bin `b + 1` (treated): the
    /// 1-based comparison point `(b + 1, b + 2)`.
    pub fn compare(&self, b: usize, config: &CausalConfig) -> ComparisonResult {
        let bins = &self.bins;
        let untreated_ix: Vec<usize> = (0..bins.len()).filter(|&i| bins[i] == b).collect();
        let treated_ix: Vec<usize> = (0..bins.len()).filter(|&i| bins[i] == b + 1).collect();

        mpa_obs::counters::CAUSAL_COMPARISONS.incr();
        let mut result = ComparisonResult {
            point: (b + 1, b + 2),
            n_untreated: untreated_ix.len(),
            n_treated: treated_ix.len(),
            n_pairs: 0,
            n_untreated_matched: 0,
            score_balance: None,
            n_imbalanced_covariates: 0,
            sign: None,
            matched_treated_ix: Vec::new(),
            matched_untreated_ix: Vec::new(),
            imbalanced: Vec::new(),
        };
        if untreated_ix.len() < config.min_cases || treated_ix.len() < config.min_cases {
            return result;
        }

        // Propensity model: P(treated | binned confounders), fitted on the
        // untreated rows, then the treated ones. The mild ridge guards
        // against the near-collinear confounders Table 4's CMI analysis
        // predicts.
        let rows: Vec<usize> = untreated_ix.iter().chain(&treated_ix).copied().collect();
        let y: Vec<bool> = rows.iter().map(|&i| bins[i] == b + 1).collect();
        let model = LogisticRegression::fit(
            &self.features,
            self.confounders.len(),
            &rows,
            &y,
            LogisticConfig { lambda: 0.5, ..LogisticConfig::default() },
        );
        let score = |i: usize| model.predict_proba(self.row(i));

        let u_scores: Vec<(f64, usize)> = untreated_ix.iter().map(|&i| (score(i), i)).collect();
        let t_scores: Vec<(f64, usize)> = treated_ix.iter().map(|&i| (score(i), i)).collect();

        // Common support: discard treated (untreated) cases whose score falls
        // outside the other arm's score range.
        let range = |v: &[(f64, usize)]| {
            let lo = v.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
            let hi = v.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
            (lo, hi)
        };
        let (u_lo, u_hi) = range(&u_scores);
        let (t_lo, t_hi) = range(&t_scores);
        let n_scored = u_scores.len() + t_scores.len();
        let mut u_kept: Vec<(f64, usize)> =
            u_scores.into_iter().filter(|p| p.0 >= t_lo && p.0 <= t_hi).collect();
        let t_kept: Vec<(f64, usize)> =
            t_scores.into_iter().filter(|p| p.0 >= u_lo && p.0 <= u_hi).collect();
        mpa_obs::counters::CAUSAL_SUPPORT_DROPS
            .add((n_scored - u_kept.len() - t_kept.len()) as u64);
        if u_kept.is_empty() || t_kept.is_empty() {
            return result;
        }

        // k=1 nearest neighbour with replacement on sorted untreated scores.
        // A caliper is *optional* and off by default: with
        // `CausalConfig::default()` (`caliper_sd: None`) every treated case is
        // matched to its nearest untreated neighbour, reproducing the paper's
        // plain nearest-neighbour matching, and match *quality* is certified
        // solely by the §5.2.4 balance checks. When `caliper_sd` is set (e.g.
        // `Some(0.2)`, Rosenbaum–Rubin's classic stricter rule, measured in
        // standard deviations of the logit propensity score), a treated case
        // with no sufficiently close untreated neighbour is dropped rather
        // than force-matched.
        let logit = |p: f64| {
            let p = p.clamp(1e-12, 1.0 - 1e-12);
            (p / (1.0 - p)).ln()
        };
        let all_logits: Vec<f64> =
            u_kept.iter().chain(t_kept.iter()).map(|&(p, _)| logit(p)).collect();
        let caliper = config
            .caliper_sd
            .map(|c| c * mpa_stats::variance(&all_logits).sqrt())
            .unwrap_or(f64::INFINITY);

        u_kept.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut diffs: Vec<i64> = Vec::with_capacity(t_kept.len());
        let mut used_untreated = std::collections::BTreeSet::new();
        for &(ts, ti) in &t_kept {
            let pos = u_kept.partition_point(|p| p.0 < ts);
            let candidates = [pos.checked_sub(1), (pos < u_kept.len()).then_some(pos)];
            let Some((us, ui)) = candidates
                .iter()
                .flatten()
                .map(|&c| u_kept[c])
                .min_by(|a, b| (a.0 - ts).abs().total_cmp(&(b.0 - ts).abs()))
            else {
                continue;
            };
            if (logit(us) - logit(ts)).abs() > caliper {
                mpa_obs::counters::CAUSAL_CALIPER_DROPS.incr();
                continue;
            }
            result.matched_treated_ix.push(ti);
            result.matched_untreated_ix.push(ui);
            used_untreated.insert(ui);
            diffs.push((self.tickets[ti] - self.tickets[ui]).round() as i64);
        }
        result.n_pairs = diffs.len();
        result.n_untreated_matched = used_untreated.len();
        mpa_obs::counters::CAUSAL_MATCHED_PAIRS.add(diffs.len() as u64);

        // Balance over the matched samples (duplicates included: matching with
        // replacement weights untreated cases by reuse).
        let t_s: Vec<f64> = result.matched_treated_ix.iter().map(|&i| score(i)).collect();
        let u_s: Vec<f64> = result.matched_untreated_ix.iter().map(|&i| score(i)).collect();
        result.score_balance = Some(BalanceCheck::compute(&t_s, &u_s));

        // Covariate balance is assessed on the binned values the propensity
        // model consumed (Stuart: check the covariates as they enter the model).
        let p = self.confounders.len();
        for (j, &confounder) in self.confounders.iter().enumerate() {
            let tv: Vec<f64> =
                result.matched_treated_ix.iter().map(|&i| self.features[i * p + j]).collect();
            let uv: Vec<f64> =
                result.matched_untreated_ix.iter().map(|&i| self.features[i * p + j]).collect();
            let check = BalanceCheck::compute(&tv, &uv);
            if !check.is_balanced() {
                result.imbalanced.push((confounder, check.std_diff));
            }
        }
        result.n_imbalanced_covariates = result.imbalanced.len();

        result.sign = Some(sign_test_from_diffs(&diffs));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpa_metrics::catalog::N_METRICS;
    use mpa_metrics::Case;
    use mpa_model::NetworkId;
    use mpa_stats::Sampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Synthetic world with known causality:
    /// * `ChangeEvents` causes tickets (saturating effect);
    /// * `Devices` confounds: it causes both `ChangeEvents` and tickets;
    /// * `IntraComplexity` is a pure proxy of `Devices` with NO effect.
    fn world(n: usize, seed: u64) -> CaseTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = Sampler::new(&mut rng);
        let mut cases = Vec::new();
        for i in 0..n {
            let devices = s.log_normal(2.3, 0.8).clamp(2.0, 400.0);
            let events = (devices / 6.0 + s.log_normal(1.2, 0.7)).clamp(0.0, 200.0);
            let complexity = devices * 1.5 + s.normal(0.0, 4.0);
            let lambda = 0.4 * (1.0 + devices / 10.0).ln() + 0.8 * (1.0 + events / 5.0).ln();
            let tickets = s.poisson(lambda) as f64;
            let mut values = vec![0.0; N_METRICS];
            values[Metric::Devices.index()] = devices;
            values[Metric::ChangeEvents.index()] = events;
            values[Metric::IntraComplexity.index()] = complexity;
            // Give the remaining columns mild noise so the logistic model
            // has nothing degenerate to chew on.
            values[Metric::Vlans.index()] = s.uniform() * 10.0;
            cases.push(Case {
                network: NetworkId(i as u32),
                month: i % 6,
                values,
                tickets,
            });
        }
        CaseTable::new(cases)
    }

    #[test]
    fn finds_the_true_cause_at_the_low_bins() {
        let table = world(6_000, 11);
        let cfg = CausalConfig::default();
        let analysis = analyze_treatment(&table, Metric::ChangeEvents, &cfg);
        let low = analysis.low_bin_comparison().expect("1:2 exists");
        assert!(low.n_pairs > 100, "pairs: {}", low.n_pairs);
        assert!(
            low.causal(&cfg),
            "change events should be causal at 1:2: p={:?} balanced={} imbal={}",
            low.p_value(),
            low.balanced(&cfg),
            low.n_imbalanced_covariates,
        );
        let sign = low.sign.as_ref().unwrap();
        assert_eq!(sign.direction(), 1, "treatment worsens health");
    }

    #[test]
    fn proxy_variable_is_not_causal() {
        let table = world(6_000, 11);
        let cfg = CausalConfig::default();
        let analysis = analyze_treatment(&table, Metric::IntraComplexity, &cfg);
        let low = analysis.low_bin_comparison().expect("1:2 exists");
        // After matching on Devices (and the rest), the proxy's effect
        // disappears: either the comparison is imbalanced or insignificant.
        assert!(
            !low.causal(&cfg),
            "proxy must not be causal: p={:?}",
            low.p_value()
        );
    }

    #[test]
    fn matching_with_replacement_reuses_untreated_cases() {
        let table = world(3_000, 5);
        let cfg = CausalConfig::default();
        let analysis = analyze_treatment(&table, Metric::ChangeEvents, &cfg);
        let low = analysis.low_bin_comparison().unwrap();
        assert!(low.n_untreated_matched <= low.n_pairs);
        assert!(low.n_untreated_matched > 0);
        assert_eq!(low.matched_treated_ix.len(), low.n_pairs);
        assert_eq!(low.matched_untreated_ix.len(), low.n_pairs);
    }

    #[test]
    fn thin_bins_are_skipped() {
        let table = world(100, 3);
        let cfg = CausalConfig { min_cases: 1_000, ..CausalConfig::default() };
        let analysis = analyze_treatment(&table, Metric::ChangeEvents, &cfg);
        for c in &analysis.comparisons {
            assert_eq!(c.n_pairs, 0);
            assert!(c.sign.is_none());
            assert!(!c.causal(&cfg));
        }
    }

    #[test]
    fn comparison_points_are_labelled_one_based() {
        let table = world(2_000, 9);
        let analysis =
            analyze_treatment(&table, Metric::ChangeEvents, &CausalConfig::default());
        let points: Vec<(usize, usize)> =
            analysis.comparisons.iter().map(|c| c.point).collect();
        assert_eq!(points, vec![(1, 2), (2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn balance_improves_over_raw_comparison() {
        // Before matching, treated cases have systematically more devices
        // (the confounder); after matching the device distributions must be
        // balanced for the causal claim to hold.
        let table = world(6_000, 11);
        let cfg = CausalConfig::default();
        let analysis = analyze_treatment(&table, Metric::ChangeEvents, &cfg);
        let low = analysis.low_bin_comparison().unwrap();
        let dev_col = table.column(Metric::Devices);
        let t: Vec<f64> = low.matched_treated_ix.iter().map(|&i| dev_col[i]).collect();
        let u: Vec<f64> = low.matched_untreated_ix.iter().map(|&i| dev_col[i]).collect();
        let check = BalanceCheck::compute(&t, &u);
        assert!(
            check.std_diff.abs() < 0.25,
            "devices balanced after matching: {}",
            check.std_diff
        );
    }
}
