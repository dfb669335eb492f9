//! Findings aggregation and rendering: human text plus hand-rolled JSON
//! in the same idiom as `mpa-obs`'s `RunReport` (and reusing its JSON
//! string-escaping helpers), so the lint artifact slots next to the run
//! and bench artifacts in CI.

use crate::rules::Rule;
use mpa_obs::json::{push_str_literal, push_u64_object};

/// One rule hit (or waiver defect) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id: `R1`–`R10`, or `W1` (rejected waiver) / `W2` (unused waiver).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source line (or waiver-defect description).
    pub excerpt: String,
    /// Whether a valid inline waiver suppresses this finding.
    pub waived: bool,
    /// The waiver's justification text (empty unless waived).
    pub justification: String,
}

/// Reachability statistics of the audit. Reported as counters
/// so CI can baseline them: a silent parser regression that skips files
/// shows up as a drop in `audit_fns_scanned`, not as a green run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// Non-test functions recognized by the symbol layer.
    pub fns_scanned: u64,
    /// Resolved call edges in the workspace graph.
    pub edges: u64,
    /// Functions reachable from the R7 (panic-safety) roots.
    pub reachable_r7: u64,
    /// Functions reachable from the R8 (hot-path allocation) roots.
    pub reachable_r8: u64,
}

/// Aggregated scan result over a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Root directory the scan ran over (display form).
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Total source lines scanned.
    pub lines_scanned: usize,
    /// Every finding, waived ones included, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Reachability statistics of the call graph the audit walked.
    pub audit: AuditStats,
}

impl Report {
    /// Empty report for the given root.
    pub fn new(root: String) -> Self {
        Self { root, ..Self::default() }
    }

    /// Fold one file's scan into the report.
    pub fn absorb(&mut self, scan: crate::scan::FileScan) {
        self.files_scanned += 1;
        self.lines_scanned += scan.lines;
        self.findings.extend(scan.findings);
    }

    /// Findings not suppressed by a valid waiver (these fail strict mode).
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Strict mode passes iff every finding is waived with a justification.
    pub fn strict_ok(&self) -> bool {
        self.violations().next().is_none()
    }

    /// Counter-style totals, `mpa-obs` registry idiom: stable names, `u64`
    /// values, trackable across PRs by diffing two reports.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let count = |pred: &dyn Fn(&&Finding) -> bool| self.findings.iter().filter(pred).count() as u64;
        let mut out = vec![
            ("lint_files_scanned".to_string(), self.files_scanned as u64),
            ("lint_lines_scanned".to_string(), self.lines_scanned as u64),
        ];
        for r in Rule::ALL {
            let id = r.id();
            out.push((format!("lint_hits_{}", id.to_ascii_lowercase()), count(&|f| f.rule == id)));
            out.push((
                format!("lint_waived_{}", id.to_ascii_lowercase()),
                count(&|f| f.rule == id && f.waived),
            ));
        }
        out.push(("lint_waivers_rejected".to_string(), count(&|f| f.rule == "W1")));
        out.push(("lint_waivers_unused".to_string(), count(&|f| f.rule == "W2")));
        out.push(("lint_violations".to_string(), count(&|f| !f.waived)));
        let a = &self.audit;
        out.push(("audit_fns_scanned".to_string(), a.fns_scanned));
        out.push(("audit_edges".to_string(), a.edges));
        out.push(("audit_reachable_r7".to_string(), a.reachable_r7));
        out.push(("audit_reachable_r8".to_string(), a.reachable_r8));
        out
    }

    /// The report as a JSON document (trailing newline included).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"tool\": \"mpa-lint\",\n  \"root\": ");
        push_str_literal(&mut out, &self.root);
        out.push_str(",\n  \"strict_ok\": ");
        out.push_str(if self.strict_ok() { "true" } else { "false" });
        out.push_str(",\n  \"counters\": ");
        let counters = self.counters();
        let pairs: Vec<(&str, u64)> = counters.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        push_u64_object(&mut out, &pairs, 2);
        out.push_str(",\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\n      \"rule\": ");
            push_str_literal(&mut out, &f.rule);
            out.push_str(",\n      \"file\": ");
            push_str_literal(&mut out, &f.file);
            out.push_str(",\n      \"line\": ");
            out.push_str(&f.line.to_string());
            out.push_str(",\n      \"waived\": ");
            out.push_str(if f.waived { "true" } else { "false" });
            out.push_str(",\n      \"justification\": ");
            push_str_literal(&mut out, &f.justification);
            out.push_str(",\n      \"excerpt\": ");
            push_str_literal(&mut out, &f.excerpt);
            out.push_str("\n    }");
        }
        if self.findings.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }

    /// Human-readable rendering: one line per finding plus a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let slug = Rule::parse(&f.rule).map(Rule::slug).unwrap_or("waiver");
            let status = if f.waived { " (waived)" } else { "" };
            out.push_str(&format!(
                "{} [{}/{}]{} {}:{}\n    {}\n",
                if f.waived { "note" } else { "error" },
                f.rule,
                slug,
                status,
                f.file,
                f.line,
                f.excerpt
            ));
            if f.waived {
                out.push_str(&format!("    waived: {}\n", f.justification));
            }
        }
        let waived = self.findings.iter().filter(|f| f.waived).count();
        let violations = self.findings.len() - waived;
        out.push_str(&format!(
            "mpa-lint: {} files, {} lines scanned; {} finding{} ({} waived, {} violation{})\n",
            self.files_scanned,
            self.lines_scanned,
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            waived,
            violations,
            if violations == 1 { "" } else { "s" },
        ));
        let a = &self.audit;
        out.push_str(&format!(
            "mpa-audit: {} fns, {} call edges; reachable: R7={} R8={}\n",
            a.fns_scanned, a.edges, a.reachable_r7, a.reachable_r8,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, waived: bool) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: "crates/x/src/lib.rs".to_string(),
            line: 3,
            excerpt: "let t = …;".to_string(),
            waived,
            justification: if waived { "fine".to_string() } else { String::new() },
        }
    }

    #[test]
    fn strictness_follows_waiver_status() {
        let mut r = Report::new("/w".to_string());
        r.findings.push(finding("R3", true));
        assert!(r.strict_ok());
        r.findings.push(finding("R4", false));
        assert!(!r.strict_ok());
        assert_eq!(r.violations().count(), 1);
    }

    #[test]
    fn counters_track_hits_and_waivers() {
        let mut r = Report::new("/w".to_string());
        r.files_scanned = 2;
        r.findings.push(finding("R3", true));
        r.findings.push(finding("R3", false));
        r.findings.push(finding("W1", false));
        let c = r.counters();
        let get = |name: &str| c.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(get("lint_hits_r3"), 2);
        assert_eq!(get("lint_waived_r3"), 1);
        assert_eq!(get("lint_waivers_rejected"), 1);
        assert_eq!(get("lint_violations"), 2);
        assert_eq!(get("lint_files_scanned"), 2);
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut r = Report::new("/w".to_string());
        r.findings.push(finding("R1", false));
        let json = r.to_json();
        assert!(json.contains("\"tool\": \"mpa-lint\""));
        assert!(json.contains("\"strict_ok\": false"));
        assert!(json.contains("\"lint_hits_r1\": 1"));
        assert!(json.contains("\"rule\": \"R1\""));
        // Balanced braces/brackets (the report nests two levels deep).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_report_renders() {
        let r = Report::new("/w".to_string());
        assert!(r.to_json().contains("\"findings\": []"));
        assert!(r.render_text().contains("0 findings"));
    }
}
