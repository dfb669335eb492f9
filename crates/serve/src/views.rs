//! JSON renderers for the daemon's endpoints.
//!
//! Every view is a pure function of the resident session state, emitted
//! with the same hand-rolled JSON primitives the run report uses
//! (`mpa_obs::json`) plus a float formatter. Purity is what makes the
//! ingest-equals-batch contract testable at the HTTP layer: two servers
//! holding equal sessions produce byte-identical response bodies.

use mpa_core::{Analytics, AnalyticsSession};
use mpa_metrics::{Case, Metric, NetworkSummary};
use mpa_model::NetworkId;
use mpa_obs::json::push_str_literal;

/// Append a finite float (shortest round-trip form) or `null`.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Append a `"name": value` pair for every metric, in `Metric::ALL` order.
fn push_metric_values(out: &mut String, values: &[f64]) {
    out.push('{');
    for (i, (m, v)) in Metric::ALL.iter().zip(values).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_literal(out, m.name());
        out.push_str(": ");
        push_f64(out, *v);
    }
    out.push('}');
}

/// `GET /healthz` — liveness plus the corpus shape a client needs to
/// drive the other endpoints (network ids, month count, period bounds).
pub fn healthz(session: &AnalyticsSession) -> String {
    let ds = session.dataset();
    let devices: usize = ds.networks.iter().map(|n| n.devices.len()).sum();
    let mut out = String::with_capacity(256);
    out.push_str("{\"status\": \"ok\"");
    out.push_str(&format!(", \"networks\": {}", ds.networks.len()));
    out.push_str(&format!(", \"devices\": {devices}"));
    out.push_str(&format!(", \"months\": {}", ds.period.n_months()));
    out.push_str(&format!(", \"period_total_minutes\": {}", ds.period.total_minutes()));
    out.push_str(&format!(", \"cases\": {}", session.table().n_cases()));
    out.push_str(&format!(", \"snapshots\": {}", ds.archive.n_snapshots()));
    out.push_str(&format!(", \"tickets\": {}", ds.tickets.len()));
    out.push_str(&format!(", \"events_applied\": {}", session.events_applied()));
    out.push_str(", \"network_ids\": [");
    for (i, net) in ds.networks.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&net.id.0.to_string());
    }
    out.push_str("]}");
    out
}

fn push_case(out: &mut String, case: &Case) {
    out.push_str("{\"month\": ");
    out.push_str(&case.month.to_string());
    out.push_str(", \"tickets\": ");
    push_f64(out, case.tickets);
    out.push_str(", \"values\": ");
    push_metric_values(out, &case.values);
    out.push('}');
}

/// `GET /networks/:id/practices` — the network's inferred practice
/// metrics: one row per observed month plus the across-month means (the
/// Appendix A characterization). `None` for an unknown network id.
pub fn practices(session: &AnalyticsSession, id: NetworkId) -> Option<String> {
    let cases = session.network_cases(id)?;
    let mut out = String::with_capacity(1024);
    out.push_str(&format!("{{\"network\": {}", id.0));
    out.push_str(", \"months\": [");
    for (i, c) in cases.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&c.month.to_string());
    }
    out.push_str("], \"means\": ");
    match NetworkSummary::of(id, cases) {
        Some(means) => {
            push_metric_values(&mut out, &means.values);
            out.push_str(", \"mean_tickets\": ");
            push_f64(&mut out, means.tickets);
        }
        None => out.push_str("null"),
    }
    out.push_str(", \"cases\": [");
    for (i, c) in cases.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_case(&mut out, c);
    }
    out.push_str("]}");
    Some(out)
}

/// `GET /rankings/mi` — the mutual-information practice ranking
/// (Table 3 ordering).
pub fn mi_ranking(analytics: &Analytics) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"entries\": [");
    for (i, e) in analytics.mi.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{{\"rank\": {}, \"practice\": ", i + 1));
        push_str_literal(&mut out, e.metric.name());
        out.push_str(", \"category\": ");
        push_str_literal(&mut out, e.metric.category().tag());
        out.push_str(", \"mi\": ");
        push_f64(&mut out, e.mi);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// `GET /causal/summary` — the quasi-experimental comparison for each
/// top-MI practice (the `mpa-cli analyze` causal table, as JSON).
pub fn causal_summary(analytics: &Analytics) -> String {
    let cfg = &analytics.causal_config;
    let mut out = String::with_capacity(512);
    out.push_str(&format!("{{\"top\": {}, \"rows\": [", analytics.causal.len()));
    for (i, row) in analytics.causal.iter().enumerate() {
        let c = &row.comparison;
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"treatment\": ");
        push_str_literal(&mut out, row.metric.name());
        out.push_str(&format!(", \"pairs\": {}", c.n_pairs));
        out.push_str(", \"p_value\": ");
        match c.p_value() {
            Some(p) => push_f64(&mut out, p),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ", \"balanced\": {}, \"imbalanced_covariates\": {}, \"causal\": {}}}",
            c.balanced(cfg),
            c.n_imbalanced_covariates,
            c.causal(cfg)
        ));
    }
    out.push_str("]}");
    out
}

/// `GET /predict` without parameters — the resident model's class
/// inventory and training distribution.
pub fn predict_overview(session: &AnalyticsSession, analytics: &Analytics) -> String {
    let names = session.config().classes.names();
    let mut out = String::with_capacity(256);
    out.push_str("{\"classes\": [");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_literal(&mut out, name);
    }
    out.push_str("], \"distribution\": [");
    for (i, n) in analytics.distribution.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&n.to_string());
    }
    out.push_str(&format!("], \"cases\": {}}}", session.table().n_cases()));
    out
}

/// `GET /predict?network=N&month=M` — the resident model's verdict on one
/// existing case. `None` when the case is not in the table.
pub fn predict_case(session: &AnalyticsSession, network: NetworkId, month: usize) -> Option<String> {
    let p = session.predict_case(network, month)?;
    let mut out = String::with_capacity(160);
    out.push_str(&format!(
        "{{\"network\": {}, \"month\": {month}, \"predicted\": {}, \"predicted_class\": ",
        network.0, p.predicted
    ));
    push_str_literal(&mut out, p.predicted_name);
    out.push_str(&format!(", \"actual\": {}, \"actual_class\": ", p.actual));
    push_str_literal(&mut out, p.actual_name);
    out.push('}');
    Some(out)
}

/// An error body: `{"error": "..."}`.
pub fn error_body(message: &str) -> String {
    let mut out = String::with_capacity(message.len() + 16);
    out.push_str("{\"error\": ");
    push_str_literal(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpa_core::{AnalyticsSession, SessionConfig};
    use mpa_synth::Scenario;

    fn session() -> AnalyticsSession {
        let mut s = AnalyticsSession::new(Scenario::tiny().generate(), SessionConfig::default());
        s.refresh();
        s
    }

    /// Brace/bracket balance outside string literals — cheap
    /// well-formedness without a parser dependency (the integration tests
    /// parse real responses with serde_json).
    fn assert_balanced(json: &str) {
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in json.chars() {
            match (in_str, esc, c) {
                (true, true, _) => esc = false,
                (true, false, '\\') => esc = true,
                (true, false, '"') => in_str = false,
                (false, _, '"') => in_str = true,
                (false, _, '{' | '[') => depth += 1,
                (false, _, '}' | ']') => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced: {json}");
        }
        assert_eq!(depth, 0, "unbalanced: {json}");
        assert!(!in_str, "unterminated string: {json}");
    }

    #[test]
    fn every_view_renders_well_formed_json() {
        let s = session();
        let a = s.analytics_cached().expect("refreshed");
        let net = s.dataset().networks[0].id;
        let month = s.table().cases()[0].month;
        let first_net = s.table().cases()[0].network;
        for json in [
            healthz(&s),
            practices(&s, net).expect("known network"),
            mi_ranking(a),
            causal_summary(a),
            predict_overview(&s, a),
            predict_case(&s, first_net, month).expect("case exists"),
            error_body("boom \"quoted\""),
        ] {
            assert_balanced(&json);
        }
    }

    #[test]
    fn healthz_reports_the_corpus_shape() {
        let s = session();
        let json = healthz(&s);
        assert!(json.contains("\"status\": \"ok\""));
        assert!(json.contains(&format!("\"cases\": {}", s.table().n_cases())));
        assert!(json.contains("\"events_applied\": 0"));
    }

    #[test]
    fn unknown_network_renders_nothing() {
        let s = session();
        assert!(practices(&s, NetworkId(u32::MAX)).is_none());
        assert!(predict_case(&s, NetworkId(u32::MAX), 0).is_none());
    }

    #[test]
    fn float_formatting_is_null_for_non_finite() {
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        out.push(' ');
        push_f64(&mut out, 1.5);
        assert_eq!(out, "null 1.5");
    }
}
