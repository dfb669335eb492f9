//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each function takes a [`Fixture`] and returns a printable artifact. The
//! `repro` binary prints them. DESIGN.md §5 is the index mapping each
//! experiment id to the paper's table/figure.

use crate::fixtures::Fixture;
use mpa_core::predict::{
    class_distribution, cross_validation, online_accuracy, render_tree, HealthClasses, ModelKind,
};
use mpa_core::{CausalConfig, TextTable};
use mpa_learn::ForestVariant;
use mpa_metrics::{group_events, Metric};
use mpa_stats::{pearson, BoxStats, Ecdf};
use mpa_synth::survey::{self};

/// The practices with a *true* causal effect in the generator's health
/// model (DESIGN.md §3) — the ground-truth column of Table 7.
pub const TRUE_CAUSAL: [Metric; 8] = [
    Metric::Devices,
    Metric::ChangeEvents,
    Metric::ChangeTypes,
    Metric::Vlans,
    Metric::Models,
    Metric::Roles,
    Metric::AvgDevicesPerEvent,
    Metric::FracAclEvents,
];

fn truth_label(m: Metric) -> &'static str {
    if TRUE_CAUSAL.contains(&m) {
        "causal"
    } else if matches!(
        m,
        Metric::DevicesChanged
            | Metric::ConfigChanges
            | Metric::FracDevicesChanged
            | Metric::IntraComplexity
            | Metric::FracIfaceEvents
            | Metric::FirmwareVersions
            | Metric::Vendors
            | Metric::HardwareEntropy
            | Metric::FirmwareEntropy
            | Metric::InterComplexity
            | Metric::BgpInstances
            | Metric::AvgBgpInstanceSize
    ) {
        "proxy only"
    } else {
        "no effect"
    }
}

fn box_row(label: &str, b: &BoxStats) -> Vec<String> {
    vec![
        label.to_string(),
        b.n.to_string(),
        TextTable::num(b.whisker_lo),
        TextTable::num(b.q1),
        TextTable::num(b.median),
        TextTable::num(b.q3),
        TextTable::num(b.whisker_hi),
        TextTable::num(b.mean),
    ]
}

fn percentile_row(label: &str, xs: &[f64]) -> Vec<String> {
    if xs.is_empty() {
        return vec![label.to_string(), "0".into(), "-".into(), "-".into(), "-".into(), "-".into(), "-".into()];
    }
    let q = |p| TextTable::num(mpa_stats::percentile(xs, p));
    vec![label.to_string(), xs.len().to_string(), q(10.0), q(25.0), q(50.0), q(75.0), q(90.0)]
}

/// Tickets-vs-practice box stats, one row per occupied bin of the metric.
fn tickets_by_bins(fx: &Fixture, metric: Metric, n_bins: usize, out: &mut String) {
    let table = fx.table();
    let col = table.column(metric);
    let tickets = table.tickets();
    let binner = table.binned().binner(metric).with_bins(n_bins);
    let mut t = TextTable::new(vec!["bin range", "n", "lo", "q1", "median", "q3", "hi", "mean"]);
    for b in 0..n_bins {
        let vals: Vec<f64> = col
            .iter()
            .zip(&tickets)
            .filter(|(&v, _)| binner.bin(v) == b)
            .map(|(_, &tk)| tk)
            .collect();
        if let Some(stats) = BoxStats::compute(&vals) {
            let (lo, hi) = binner.bin_range(b);
            t.row(box_row(&format!("[{lo:.1}, {hi:.1})"), &stats));
        }
    }
    out.push_str(&format!("tickets vs {}:\n{t}\n", metric.name()));
}

// ---------------------------------------------------------------------------
// Section 3: today's practices
// ---------------------------------------------------------------------------

/// Figure 2: the operator survey.
pub fn fig2(fx: &Fixture) -> String {
    let responses = survey::generate_survey(fx.dataset.ground_truth.len() as u64 ^ 42);
    let mut t = TextTable::new(vec!["practice", "no", "low", "medium", "high", "not sure", "majority"]);
    for (p, counts) in survey::tally(&responses) {
        let maj = survey::majority_opinion(&responses, p);
        t.row(vec![
            p.label().to_string(),
            counts[0].to_string(),
            counts[1].to_string(),
            counts[2].to_string(),
            counts[3].to_string(),
            counts[4].to_string(),
            maj.label().to_string(),
        ]);
    }
    format!("Figure 2 — operator survey ({} respondents):\n{t}", responses.len())
}

/// Figure 3: change events per network-month vs grouping window δ.
pub fn fig3(fx: &Fixture) -> String {
    let period = &fx.dataset.period;
    let mut t =
        TextTable::new(vec!["delta (min)", "n", "lo", "q1", "median", "q3", "hi", "mean"]);
    for delta in [0u64, 1, 2, 5, 10, 15, 30] {
        let mut counts: Vec<f64> = Vec::new();
        for (net, changes) in &fx.inference.device_changes {
            for month in 0..period.n_months() {
                if !fx.dataset.is_logged(*net, month) {
                    continue;
                }
                let (start, end) = (period.month_start(month), period.month_end(month));
                let month_changes: Vec<_> = changes
                    .iter()
                    .filter(|c| c.time >= start && c.time < end)
                    .cloned()
                    .collect();
                counts.push(group_events(&month_changes, delta).len() as f64);
            }
        }
        if let Some(stats) = BoxStats::compute(&counts) {
            let label = if delta == 0 { "NA".to_string() } else { delta.to_string() };
            t.row(box_row(&label, &stats));
        }
    }
    format!("Figure 3 — events per network-month vs δ (paper settles on δ=5):\n{t}")
}

/// Table 2: dataset size summary.
pub fn table2(fx: &Fixture) -> String {
    let s = fx.dataset.summary();
    let mut t = TextTable::new(vec!["property", "value"]);
    t.row(vec!["Months".to_string(), format!("{} ({} - {})", s.months, s.span.0, s.span.1)]);
    t.row(vec!["Networks".to_string(), s.networks.to_string()]);
    t.row(vec!["Services".to_string(), s.services.to_string()]);
    t.row(vec!["Devices".to_string(), s.devices.to_string()]);
    t.row(vec![
        "Config snapshots".to_string(),
        format!("{} ({:.1} MB)", s.config_snapshots, s.config_bytes as f64 / 1e6),
    ]);
    t.row(vec!["Tickets".to_string(), s.tickets.to_string()]);
    t.row(vec!["Logged network-months".to_string(), s.logged_network_months.to_string()]);
    format!("Table 2 — dataset summary:\n{t}")
}

// ---------------------------------------------------------------------------
// Section 5.1: dependence
// ---------------------------------------------------------------------------

/// Figure 4: tickets vs four practices with different relationship shapes.
pub fn fig4(fx: &Fixture) -> String {
    let mut out = String::from("Figure 4 — tickets vs selected practices:\n");
    for m in [Metric::L2Protocols, Metric::Models, Metric::FracIfaceEvents, Metric::Roles] {
        tickets_by_bins(fx, m, 6, &mut out);
    }
    out
}

/// Figure 5: relationship between number of models and number of roles.
pub fn fig5(fx: &Fixture) -> String {
    let table = fx.table();
    let roles = table.column(Metric::Roles);
    let models = table.column(Metric::Models);
    let mut t = TextTable::new(vec!["roles", "n", "lo", "q1", "median", "q3", "hi", "mean"]);
    let mut distinct: Vec<i64> = roles.iter().map(|&r| r as i64).collect();
    distinct.sort_unstable();
    distinct.dedup();
    for r in distinct {
        let vals: Vec<f64> = roles
            .iter()
            .zip(&models)
            .filter(|(&rr, _)| rr as i64 == r)
            .map(|(_, &m)| m)
            .collect();
        if let Some(stats) = BoxStats::compute(&vals) {
            t.row(box_row(&r.to_string(), &stats));
        }
    }
    let r = pearson(&roles, &models);
    format!("Figure 5 — models vs roles (Pearson {:.2}):\n{t}", r)
}

/// Figure 6: tickets vs the top two practices.
pub fn fig6(fx: &Fixture) -> String {
    let mut out = String::from("Figure 6 — tickets vs top practices:\n");
    for m in [Metric::Devices, Metric::ChangeEvents] {
        tickets_by_bins(fx, m, 6, &mut out);
    }
    out
}

/// Table 3: top-10 practices by average monthly MI with health.
pub fn table3(fx: &Fixture) -> String {
    let mut t = TextTable::new(vec!["rank", "practice", "category", "avg monthly MI"]);
    for (i, e) in fx.mi().iter().take(10).enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            e.metric.name().to_string(),
            e.metric.category().tag().to_string(),
            format!("{:.3}", e.mi),
        ]);
    }
    format!("Table 3 — top 10 practices by MI with network health:\n{t}")
}

/// Table 4: top-10 practice pairs by CMI given health.
pub fn table4(fx: &Fixture) -> String {
    let cmi = mpa_core::cmi_ranking(fx.table());
    let top10: Vec<Metric> = fx.mi().iter().take(10).map(|e| e.metric).collect();
    let mut t = TextTable::new(vec!["pair", "", "CMI"]);
    for e in cmi.iter().take(10) {
        let star = |m: Metric| {
            if top10.contains(&m) {
                format!("{} *", m.name())
            } else {
                m.name().to_string()
            }
        };
        t.row(vec![star(e.a), star(e.b), format!("{:.3}", e.cmi)]);
    }
    format!("Table 4 — top 10 statistically dependent practice pairs (CMI);\n* = also in the MI top 10:\n{t}")
}

// ---------------------------------------------------------------------------
// Section 5.2: causal analysis
// ---------------------------------------------------------------------------

fn change_events_analysis(fx: &Fixture) -> mpa_core::CausalAnalysis {
    fx.causal_for(Metric::ChangeEvents).cloned().unwrap_or_else(|| {
        mpa_core::analyze_treatment(fx.table(), Metric::ChangeEvents, &CausalConfig::default())
    })
}

/// Table 5: propensity matching results (treatment = number of change events).
pub fn table5(fx: &Fixture) -> String {
    let analysis = change_events_analysis(fx);
    let mut t = TextTable::new(vec![
        "comp. point",
        "untreated",
        "treated",
        "pairs",
        "untreated matched",
        "|std diff| (score)",
        "var ratio (score)",
    ]);
    for c in &analysis.comparisons {
        let (sd, vr) = c
            .score_balance
            .map(|b| (format!("{:.4}", b.std_diff.abs()), format!("{:.4}", b.var_ratio)))
            .unwrap_or_else(|| ("-".into(), "-".into()));
        t.row(vec![
            format!("{}:{}", c.point.0, c.point.1),
            c.n_untreated.to_string(),
            c.n_treated.to_string(),
            c.n_pairs.to_string(),
            c.n_untreated_matched.to_string(),
            sd,
            vr,
        ]);
    }
    format!("Table 5 — matching based on propensity scores (no. of change events):\n{t}")
}

/// Figure 7: confounder distribution equivalence after matching.
pub fn fig7(fx: &Fixture) -> String {
    let analysis = change_events_analysis(fx);
    let table = fx.table();
    let mut out = String::from(
        "Figure 7 — confounder ECDF equivalence after matching (no. of change events):\n",
    );
    for conf in [Metric::Devices, Metric::Vlans] {
        let col = table.column(conf);
        let mut t = TextTable::new(vec!["comp. point", "arm", "n", "p10", "p25", "p50", "p75", "p90"]);
        let mut ks_notes = Vec::new();
        for c in &analysis.comparisons {
            if c.n_pairs == 0 {
                continue;
            }
            let tv: Vec<f64> = c.matched_treated_ix.iter().map(|&i| col[i]).collect();
            let uv: Vec<f64> = c.matched_untreated_ix.iter().map(|&i| col[i]).collect();
            let label = format!("{}:{}", c.point.0, c.point.1);
            let mut row = percentile_row("treated", &tv);
            row.insert(0, label.clone());
            row.truncate(8);
            t.row(row);
            let mut row = percentile_row("untreated", &uv);
            row.insert(0, label.clone());
            row.truncate(8);
            t.row(row);
            let ks = Ecdf::new(tv).ks_distance(&Ecdf::new(uv));
            ks_notes.push(format!("{label}: KS={ks:.3}"));
        }
        out.push_str(&format!("{} (matched arms):\n{t}  {}\n", conf.name(), ks_notes.join("  ")));
    }
    out
}

/// Table 6: sign-test outcomes per comparison point (no. of change events).
pub fn table6(fx: &Fixture) -> String {
    let analysis = change_events_analysis(fx);
    let cfg = CausalConfig::default();
    let mut t = TextTable::new(vec![
        "comp. point",
        "fewer tickets",
        "no effect",
        "more tickets",
        "p-value",
        "verdict",
    ]);
    for c in &analysis.comparisons {
        match &c.sign {
            Some(s) => {
                t.row(vec![
                    format!("{}:{}", c.point.0, c.point.1),
                    s.n_negative.to_string(),
                    s.n_zero.to_string(),
                    s.n_positive.to_string(),
                    TextTable::num(s.p_value),
                    if c.causal(&cfg) { "causal".into() } else { "-".to_string() },
                ]);
            }
            None => {
                t.row(vec![
                    format!("{}:{}", c.point.0, c.point.1),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "no matches".into(),
                ]);
            }
        }
    }
    format!("Table 6 — statistical significance of outcomes (no. of change events):\n{t}")
}

/// Table 7: causal analysis at the 1:2 comparison for the top-10 practices,
/// with the generator's ground truth alongside.
pub fn table7(fx: &Fixture) -> String {
    let cfg = CausalConfig::default();
    let mut t = TextTable::new(vec![
        "treatment practice",
        "pairs",
        "p (1:2)",
        "balance",
        "verdict",
        "ground truth",
    ]);
    for analysis in fx.causal_top10() {
        let Some(c) = analysis.low_bin_comparison() else { continue };
        let balance = if c.n_pairs == 0 {
            "-".to_string()
        } else if c.balanced(&cfg) {
            "ok".to_string()
        } else {
            format!("imbal ({})", c.n_imbalanced_covariates)
        };
        t.row(vec![
            analysis.metric.name().to_string(),
            c.n_pairs.to_string(),
            c.p_value().map_or("-".into(), TextTable::num),
            balance,
            if c.causal(&cfg) { "CAUSAL".into() } else { "-".to_string() },
            truth_label(analysis.metric).to_string(),
        ]);
    }
    format!(
        "Table 7 — causal analysis (1:2) for the top-10 MI practices\n(α = {}; ground truth per DESIGN.md §3):\n{t}",
        cfg.alpha
    )
}

/// Table 8: upper-bin comparisons for the top-10 practices.
pub fn table8(fx: &Fixture) -> String {
    let cfg = CausalConfig::default();
    let mut t = TextTable::new(vec!["treatment practice", "2:3", "3:4", "4:5"]);
    for analysis in fx.causal_top10() {
        let cell = |point: (usize, usize)| -> String {
            let Some(c) = analysis.comparisons.iter().find(|c| c.point == point) else {
                return "-".into();
            };
            if c.n_pairs == 0 {
                "thin".into()
            } else if !c.balanced(&cfg) {
                "Imbal.".into()
            } else {
                c.p_value().map_or("-".into(), TextTable::num)
            }
        };
        t.row(vec![
            analysis.metric.name().to_string(),
            cell((2, 3)),
            cell((3, 4)),
            cell((4, 5)),
        ]);
    }
    format!("Table 8 — causal analysis of the upper bins:\n{t}")
}

// ---------------------------------------------------------------------------
// Section 6: prediction
// ---------------------------------------------------------------------------

/// Figure 8 (plus the §6.1 scalars): per-class precision/recall of the
/// 5-class model ladder, and 2-class accuracy against the baselines.
pub fn fig8(fx: &Fixture) -> String {
    let table = fx.table();
    let mut out = String::from("Figure 8 — 5-class precision/recall (5-fold CV):\n");
    let names = HealthClasses::Five.names();
    let mut t = TextTable::new(vec![
        "model", "metric", names[0], names[1], names[2], names[3], names[4], "accuracy",
    ]);
    for kind in ModelKind::LADDER {
        let ev = cross_validation(table, HealthClasses::Five, kind, 7);
        for (metric, f) in [
            ("precision", true),
            ("recall", false),
        ] {
            let cells: Vec<String> = (0..5u8)
                .map(|c| {
                    let v = if f { ev.precision(c) } else { ev.recall(c) };
                    format!("{v:.2}")
                })
                .collect();
            t.row(vec![
                kind.label().to_string(),
                metric.to_string(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
                cells[3].clone(),
                cells[4].clone(),
                format!("{:.3}", ev.accuracy()),
            ]);
        }
    }
    out.push_str(&t.to_string());

    out.push_str("\n2-class cross-validation (the §6.1 scalars):\n");
    let mut t2 = TextTable::new(vec![
        "model",
        "accuracy",
        "prec(healthy)",
        "rec(healthy)",
        "prec(unhealthy)",
        "rec(unhealthy)",
    ]);
    for kind in [
        ModelKind::Dt,
        ModelKind::DtAb,
        ModelKind::DtOs,
        ModelKind::DtAbOs,
        ModelKind::Majority,
        ModelKind::Svm,
        ModelKind::Forest(ForestVariant::Plain),
        ModelKind::Forest(ForestVariant::Balanced),
        ModelKind::Forest(ForestVariant::Weighted),
    ] {
        let ev = cross_validation(table, HealthClasses::Two, kind, 7);
        t2.row(vec![
            kind.label().to_string(),
            format!("{:.3}", ev.accuracy()),
            format!("{:.2}", ev.precision(0)),
            format!("{:.2}", ev.recall(0)),
            format!("{:.2}", ev.precision(1)),
            format!("{:.2}", ev.recall(1)),
        ]);
    }
    out.push_str(&t2.to_string());
    out
}

/// Figure 9: health class distribution.
pub fn fig9(fx: &Fixture) -> String {
    let table = fx.table();
    let mut out = String::from("Figure 9 — health class distribution:\n");
    for classes in [HealthClasses::Two, HealthClasses::Five] {
        let dist = class_distribution(table, classes);
        let names = classes.names();
        let mut t = TextTable::new(vec!["class", "cases", "share"]);
        for (name, &count) in names.iter().zip(&dist) {
            t.row(vec![
                name.to_string(),
                count.to_string(),
                format!("{:.1}%", 100.0 * count as f64 / table.n_cases() as f64),
            ]);
        }
        out.push_str(&format!("{} classes:\n{t}\n", names.len()));
    }
    out
}

/// Figure 10: the top of the learned decision trees.
pub fn fig10(fx: &Fixture) -> String {
    let table = fx.table();
    let five = render_tree(table, HealthClasses::Five, ModelKind::DtAbOs, 2);
    let two = render_tree(table, HealthClasses::Two, ModelKind::Dt, 2);
    format!("Figure 10 — decision trees (top 2 levels)\n\n(a) 5-class (DT+AB+OS):\n{five}\n(b) 2-class (DT):\n{two}")
}

/// Table 9: online prediction accuracy vs training history.
pub fn table9(fx: &Fixture) -> String {
    let table = fx.table();
    let mut t = TextTable::new(vec!["M (months)", "5 classes", "2 classes"]);
    let max_m = fx.dataset.period.n_months().saturating_sub(1);
    for m in [1usize, 3, 6, 9] {
        if m > max_m {
            continue;
        }
        let (acc5, _) = online_accuracy(table, HealthClasses::Five, ModelKind::DtAbOs, m);
        let (acc2, _) = online_accuracy(table, HealthClasses::Two, ModelKind::Dt, m);
        t.row(vec![m.to_string(), format!("{acc5:.3}"), format!("{acc2:.3}")]);
    }
    format!("Table 9 — online prediction accuracy (train on t−M..t−1, predict t):\n{t}")
}

// ---------------------------------------------------------------------------
// Appendix A characterization
// ---------------------------------------------------------------------------

/// Figure 11: design-practice characterization (per-network CDF percentiles).
pub fn fig11(fx: &Fixture) -> String {
    let sums = fx.table().network_summaries();
    let col = |m: Metric| -> Vec<f64> { sums.iter().map(|s| s.value(m)).collect() };
    let mut out = String::from("Figure 11 — design practices across networks:\n");
    let mut t = TextTable::new(vec!["metric", "n", "p10", "p25", "p50", "p75", "p90"]);
    for m in [
        Metric::HardwareEntropy,
        Metric::FirmwareEntropy,
        Metric::L2Protocols,
        Metric::L3Protocols,
        Metric::Vlans,
        Metric::IntraComplexity,
        Metric::InterComplexity,
        Metric::BgpInstances,
        Metric::OspfInstances,
    ] {
        t.row(percentile_row(m.name(), &col(m)));
    }
    out.push_str(&t.to_string());

    // Headline fractions the paper quotes.
    let hw = Ecdf::new(col(Metric::HardwareEntropy));
    let protos: Vec<f64> = sums
        .iter()
        .map(|s| s.value(Metric::L2Protocols) + s.value(Metric::L3Protocols))
        .collect();
    let vlans = Ecdf::new(col(Metric::Vlans));
    out.push_str(&format!(
        "\nheadlines: hw entropy < 0.3: {:.0}%   hw entropy > 0.67: {:.0}%   protocols >= 8: {:.0}%   vlans < 5: {:.0}%   vlans > 100: {:.0}%\n",
        100.0 * hw.eval(0.3),
        100.0 * hw.frac_above(0.67),
        100.0 * Ecdf::new(protos).frac_above(7.99),
        100.0 * vlans.eval(4.99),
        100.0 * vlans.frac_above(100.0),
    ));
    out
}

/// Figure 12: operational-practice characterization.
pub fn fig12(fx: &Fixture) -> String {
    let sums = fx.table().network_summaries();
    let col = |m: Metric| -> Vec<f64> { sums.iter().map(|s| s.value(m)).collect() };
    let mut out = String::from("Figure 12 — operational practices across networks:\n");

    // (a) changes vs size.
    let sizes = col(Metric::Devices);
    let changes = col(Metric::ConfigChanges);
    out.push_str(&format!(
        "(a) Pearson(changes/month, size) = {:.2} (paper: 0.64)\n",
        pearson(&sizes, &changes)
    ));

    // (b)–(e): percentile tables.
    let mut t = TextTable::new(vec!["metric", "n", "p10", "p25", "p50", "p75", "p90"]);
    for m in [
        Metric::ConfigChanges,
        Metric::FracDevicesChanged,
        Metric::FracAutomated,
        Metric::ChangeEvents,
        Metric::ChangeTypes,
    ] {
        t.row(percentile_row(m.name(), &col(m)));
    }
    out.push_str(&t.to_string());

    // (c) most frequent change types: fraction of changes touching type T.
    let mut t2 = TextTable::new(vec!["change type", "n", "p10", "p25", "p50", "p75", "p90"]);
    use mpa_config::typemap::ChangeType;
    for ct in [
        ChangeType::Interface,
        ChangeType::Pool,
        ChangeType::Acl,
        ChangeType::User,
        ChangeType::Router,
        ChangeType::Vlan,
    ] {
        let fracs: Vec<f64> = fx
            .inference
            .device_changes
            .values()
            .filter(|chs| !chs.is_empty())
            .map(|chs| {
                chs.iter().filter(|c| c.touches(ct)).count() as f64 / chs.len() as f64
            })
            .collect();
        t2.row(percentile_row(ct.label(), &fracs));
    }
    out.push_str(&format!("\n(c) fraction of changes touching each type (per network):\n{t2}"));

    // automation headlines.
    let auto = Ecdf::new(col(Metric::FracAutomated));
    out.push_str(&format!(
        "\nheadlines: networks with >=50% automated changes: {:.0}%   with >=25%: {:.0}%\n",
        100.0 * auto.frac_above(0.5),
        100.0 * auto.frac_above(0.25),
    ));
    out
}

/// Figure 13: change-event characterization.
pub fn fig13(fx: &Fixture) -> String {
    let sums = fx.table().network_summaries();
    let col = |m: Metric| -> Vec<f64> { sums.iter().map(|s| s.value(m)).collect() };
    let mut t = TextTable::new(vec!["metric", "n", "p10", "p25", "p50", "p75", "p90"]);
    t.row(percentile_row("Avg. devices changed per event", &col(Metric::AvgDevicesPerEvent)));
    t.row(percentile_row("Frac. events w/ mbox change", &col(Metric::FracMboxEvents)));
    let small = Ecdf::new(col(Metric::AvgDevicesPerEvent));
    format!(
        "Figure 13 — change events:\n{t}\nheadline: networks with avg event size <= 2 devices: {:.0}% (paper: ~50%)\n",
        100.0 * small.eval(2.0)
    )
}

/// Opinion-vs-evidence comparison (the §1/§9 contradictions). Causal
/// analyses are run for every surveyed practice (not just the MI top 10),
/// so headline rows like the ACL-change fraction always carry a verdict.
pub fn comparison(fx: &Fixture) -> String {
    let responses = survey::generate_survey(42);
    let cfg = CausalConfig::default();
    let causal: Vec<mpa_core::CausalAnalysis> = mpa_synth::survey::SurveyPractice::ALL
        .iter()
        .map(|&p| {
            let metric = mpa_core::compare::survey_metric(p);
            fx.causal_for(metric)
                .cloned()
                .unwrap_or_else(|| mpa_core::analyze_treatment(fx.table(), metric, &cfg))
        })
        .collect();
    let rows = mpa_core::compare_survey(&responses, fx.mi(), &causal, &cfg);
    let mut t = TextTable::new(vec!["practice", "majority opinion", "MI rank", "causal", "verdict"]);
    for r in rows {
        t.row(vec![
            r.practice.label().to_string(),
            r.majority.label().to_string(),
            if r.mi_rank == usize::MAX { "-".into() } else { r.mi_rank.to_string() },
            match r.causal {
                Some(true) => "yes".to_string(),
                Some(false) => "no".to_string(),
                None => "not analyzed".to_string(),
            },
            format!("{:?}", r.agreement),
        ]);
    }
    format!("Opinion vs evidence (paper §5.2.6 / §9):\n{t}")
}

/// Calibration probe: the key distributional facts the synthetic OSP must
/// get right for the reproduction shapes to hold. Used while tuning the
/// generator; kept because it doubles as a dataset health check.
pub fn calibrate(fx: &Fixture) -> String {
    let table = fx.table();
    let mut out = String::new();
    out.push_str(&format!("cases: {}\n", table.n_cases()));

    // Ground-truth rate diagnostics: the share of cases in the "ambiguous"
    // Poisson zone bounds the achievable 2-class accuracy.
    let lambdas: Vec<f64> = fx.dataset.ground_truth.iter().map(|t| t.lambda).collect();
    let q = |p: f64| mpa_stats::percentile(&lambdas, p);
    out.push_str(&format!(
        "lambda quantiles: p10={:.2} p25={:.2} p50={:.2} p75={:.2} p90={:.2} p99={:.2}\n",
        q(10.0),
        q(25.0),
        q(50.0),
        q(75.0),
        q(90.0),
        q(99.0)
    ));
    let ambiguous =
        lambdas.iter().filter(|&&l| (0.5..2.5).contains(&l)).count() as f64 / lambdas.len() as f64;
    out.push_str(&format!("ambiguous-zone (0.5<=lambda<2.5) share: {ambiguous:.2}\n"));

    for (name, classes) in [("2-class", HealthClasses::Two), ("5-class", HealthClasses::Five)] {
        let dist = class_distribution(table, classes);
        let n = table.n_cases() as f64;
        let fracs: Vec<String> =
            dist.iter().map(|&c| format!("{:.1}%", 100.0 * c as f64 / n)).collect();
        out.push_str(&format!("{name}: {dist:?} = {}\n", fracs.join(" / ")));
    }
    for (name, classes) in [("2-class", HealthClasses::Two), ("5-class", HealthClasses::Five)] {
        let dt = cross_validation(table, classes, ModelKind::Dt, 7);
        let maj = cross_validation(table, classes, ModelKind::Majority, 7);
        out.push_str(&format!(
            "{name} CV: DT {:.3} vs majority {:.3}\n",
            dt.accuracy(),
            maj.accuracy()
        ));
    }

    out.push_str("MI ranking (top 12):\n");
    for (i, e) in fx.mi().iter().take(12).enumerate() {
        out.push_str(&format!("  {:2}. {:<34} {:.3}\n", i + 1, e.metric.to_string(), e.mi));
    }
    let rank_of =
        |m: Metric| fx.mi().iter().position(|e| e.metric == m).map(|p| p + 1).unwrap_or(0);
    for m in [Metric::IntraComplexity, Metric::FracIfaceEvents, Metric::FracMboxEvents] {
        out.push_str(&format!("  rank of {}: {}\n", m, rank_of(m)));
    }

    let cfg = CausalConfig::default();
    out.push_str("causal 1:2 (metric, pairs, p, balance, causal, truth):\n");
    for analysis in fx.causal_top10() {
        if let Some(c) = analysis.low_bin_comparison() {
            out.push_str(&format!(
                "  {:<36} pairs={:<5} p={:<9} imbal={:<2} causal={:<5} truth={}\n",
                analysis.metric.to_string(),
                c.n_pairs,
                c.p_value().map_or("n/a".into(), TextTable::num),
                c.n_imbalanced_covariates,
                c.causal(&cfg),
                truth_label(analysis.metric),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Ablations — sensitivity of the pipeline's design choices (not paper
// artifacts; run with `repro ablations` or individually).
// ---------------------------------------------------------------------------

/// Ablation: sensitivity of the dependence ranking to the event-grouping
/// window δ. The paper fixes δ = 5 min from operator feedback; this checks
/// how much the *conclusions* would change with a different choice.
pub fn ablation_delta(fx: &Fixture) -> String {
    let mut out = String::from("Ablation — MI top-10 stability vs event window δ:\n");
    let baseline: Vec<Metric> = fx.mi().iter().take(10).map(|e| e.metric).collect();
    let mut t = TextTable::new(vec!["delta (min)", "top-10 overlap with δ=5", "median events/case"]);
    for delta in [1u64, 5, 15, 30] {
        let inference = mpa_metrics::pipeline::infer(&fx.dataset, delta);
        let mi = mpa_core::mi_ranking(&inference.table, 20);
        let top: Vec<Metric> = mi.iter().take(10).map(|e| e.metric).collect();
        let overlap = top.iter().filter(|m| baseline.contains(m)).count();
        let events = inference.table.column(Metric::ChangeEvents);
        let med = if events.is_empty() { 0.0 } else { mpa_stats::percentile(&events, 50.0) };
        t.row(vec![delta.to_string(), format!("{overlap}/10"), TextTable::num(med)]);
    }
    out.push_str(&t.to_string());
    out.push_str("\nConclusion stability: the top-10 set should barely move across δ —\nthe ranking is driven by month-level aggregates, not by the grouping detail.\n");
    out
}

/// Ablation: dependence-analysis bin count (the paper uses 10).
pub fn ablation_bins(fx: &Fixture) -> String {
    use mpa_stats::{mutual_information, Binner};
    let table = fx.table();
    // The percentile bounds do not depend on the bin count: every
    // granularity splits the metrics' fitted ranges in the binned view.
    let view = table.binned();
    let tickets = table.tickets();
    let mut out = String::from("Ablation — MI vs discretization granularity:\n");
    let mut t = TextTable::new(vec!["bins", "MI(devices)", "MI(change events)", "MI(workloads)"]);
    for bins in [3usize, 5, 10, 20, 40] {
        let ticket_bins = Binner::fit(&tickets, bins).codes(&tickets);
        let mi_of = |m: Metric| {
            let xb = view.binner(m).with_bins(bins).codes(&table.column(m));
            mutual_information(&xb, &ticket_bins, bins)
        };
        t.row(vec![
            bins.to_string(),
            format!("{:.3}", mi_of(Metric::Devices)),
            format!("{:.3}", mi_of(Metric::ChangeEvents)),
            format!("{:.3}", mi_of(Metric::Workloads)),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str("\nMore bins inflate every MI (plug-in bias grows with the table size) —\nincluding the no-effect control column — which is why the paper holds the\nbin count fixed rather than comparing MI across granularities.\n");
    out
}

/// Ablation: oversampling multipliers for the 5-class model (the paper uses
/// poor ×2, moderate/good ×3).
pub fn ablation_oversampling(fx: &Fixture) -> String {
    use mpa_learn::sampling::oversample;
    use mpa_learn::{cross_validate, DecisionTree};
    let set = mpa_core::predict::build_learnset(fx.table(), HealthClasses::Five);
    let mut out = String::from("Ablation — 5-class oversampling multipliers (plain C4.5):\n");
    let mut t = TextTable::new(vec![
        "multipliers [exc,good,mod,poor,vpoor]",
        "accuracy",
        "recall(good)",
        "recall(moderate)",
        "recall(poor)",
    ]);
    for (label, factors) in [
        ("none [1,1,1,1,1]", [1usize, 1, 1, 1, 1]),
        ("paper [1,3,3,2,1]", [1, 3, 3, 2, 1]),
        ("aggressive [1,6,6,4,1]", [1, 6, 6, 4, 1]),
    ] {
        let ev = cross_validate(&set, 5, 7, |train| {
            DecisionTree::fit_default(&oversample(train, &factors))
        });
        t.row(vec![
            label.to_string(),
            format!("{:.3}", ev.accuracy()),
            format!("{:.2}", ev.recall(1)),
            format!("{:.2}", ev.recall(2)),
            format!("{:.2}", ev.recall(3)),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str("\nOversampling trades headline accuracy for intermediate-class recall;\nthe paper's multipliers sit at the knee of that trade.\n");
    out
}

/// Ablation: nearest-neighbour matching with and without the
/// Rosenbaum–Rubin caliper (the paper matches without one).
pub fn ablation_caliper(fx: &Fixture) -> String {
    let mut out = String::from("Ablation — matching caliper (treatment = no. of change events):\n");
    let mut t = TextTable::new(vec!["caliper", "pairs (1:2)", "imbalanced covariates", "p-value"]);
    // The caliper acts only in matching: one design serves all three rows,
    // and only the printed 1:2 point is compared.
    let design =
        mpa_core::TreatmentDesign::new(fx.table(), Metric::ChangeEvents, &CausalConfig::default());
    for (label, caliper) in [("none (paper)", None), ("0.2 sd (R&R)", Some(0.2)), ("0.05 sd", Some(0.05))] {
        let cfg = CausalConfig { caliper_sd: caliper, ..CausalConfig::default() };
        let c = design.compare(0, &cfg);
        t.row(vec![
            label.to_string(),
            c.n_pairs.to_string(),
            c.n_imbalanced_covariates.to_string(),
            c.p_value().map_or("-".into(), TextTable::num),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str("\nTighter calipers buy balance with sample size; the sign test loses power\nas pairs drop — the trade the paper implicitly makes by matching un-calipered\nand certifying quality through the §5.2.4 balance checks instead.\n");
    out
}

/// Ablation: the paper's AdaBoost variant (final tree on last-iteration
/// weights) vs the conventional SAMME ensemble.
pub fn ablation_boostmode(fx: &Fixture) -> String {
    use mpa_learn::boost::BoostConfig;
    use mpa_learn::{cross_validate, AdaBoost, BoostMode};
    let set = mpa_core::predict::build_learnset(fx.table(), HealthClasses::Five);
    let mut out = String::from("Ablation — AdaBoost final-model variants (5-class):\n");
    let mut t = TextTable::new(vec!["variant", "accuracy", "recall(excellent)", "recall(very poor)"]);
    for (label, mode) in [("last-tree (paper §6.1 text)", BoostMode::LastTree), ("SAMME ensemble", BoostMode::Ensemble)] {
        let ev = cross_validate(&set, 5, 7, |train| {
            AdaBoost::fit(train, BoostConfig { mode, ..BoostConfig::default() })
        });
        t.row(vec![
            label.to_string(),
            format!("{:.3}", ev.accuracy()),
            format!("{:.2}", ev.recall(0)),
            format!("{:.2}", ev.recall(4)),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str("\nWith a strong base learner the literal last-tree variant degenerates (the\nfinal weights concentrate on residual noise); the prediction pipeline\ntherefore defaults to the ensemble — see EXPERIMENTS.md §Figure 8.\n");
    out
}

/// Ablation ids.
pub const ABLATIONS: [&str; 5] = [
    "ablation_delta",
    "ablation_bins",
    "ablation_oversampling",
    "ablation_caliper",
    "ablation_boostmode",
];

/// Every experiment id, in DESIGN.md §5 order.
pub const ALL_EXPERIMENTS: [&str; 21] = [
    "fig2", "fig3", "table2", "fig4", "fig5", "table3", "fig6", "table4", "table5", "fig7",
    "table6", "table7", "table8", "fig8", "fig9", "fig10", "table9", "fig11", "fig12", "fig13",
    "comparison",
];

/// Run one experiment by id.
pub fn run(id: &str, fx: &Fixture) -> Option<String> {
    Some(match id {
        "fig2" => fig2(fx),
        "fig3" => fig3(fx),
        "table2" => table2(fx),
        "fig4" => fig4(fx),
        "fig5" => fig5(fx),
        "table3" => table3(fx),
        "fig6" => fig6(fx),
        "table4" => table4(fx),
        "table5" => table5(fx),
        "fig7" => fig7(fx),
        "table6" => table6(fx),
        "table7" => table7(fx),
        "table8" => table8(fx),
        "fig8" => fig8(fx),
        "fig9" => fig9(fx),
        "fig10" => fig10(fx),
        "table9" => table9(fx),
        "fig11" => fig11(fx),
        "fig12" => fig12(fx),
        "fig13" => fig13(fx),
        "comparison" => comparison(fx),
        "calibrate" => calibrate(fx),
        "ablation_delta" => ablation_delta(fx),
        "ablation_bins" => ablation_bins(fx),
        "ablation_oversampling" => ablation_oversampling(fx),
        "ablation_caliper" => ablation_caliper(fx),
        "ablation_boostmode" => ablation_boostmode(fx),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn every_experiment_runs_on_the_tiny_fixture() {
        let fx = fixtures::tiny();
        for id in ALL_EXPERIMENTS {
            let out = run(id, fx).unwrap_or_else(|| panic!("unknown id {id}"));
            assert!(!out.is_empty(), "{id} produced no output");
        }
        assert!(run("calibrate", fx).is_some());
        assert!(run("nope", fx).is_none());
    }

    #[test]
    fn table3_lists_ten_rows() {
        let out = table3(fixtures::tiny());
        // Header + separator + 10 rows + title line.
        assert_eq!(out.lines().count(), 13, "{out}");
    }

    #[test]
    fn fig3_event_counts_decrease_with_delta() {
        let out = fig3(fixtures::tiny());
        // Extract the median column per δ row and check monotone non-increase.
        let medians: Vec<f64> = out
            .lines()
            .skip(3)
            .filter_map(|l| {
                let cells: Vec<&str> = l.split_whitespace().collect();
                if cells.len() >= 8 {
                    cells[4].parse().ok()
                } else {
                    None
                }
            })
            .collect();
        assert!(medians.len() >= 5, "{out}");
        for w in medians.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "median events must not grow with δ: {out}");
        }
    }
}
