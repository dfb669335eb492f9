//! Tier-1 enforcement of the determinism contract: a plain `cargo test -q`
//! at the workspace root runs the same audit as the `mpa-lint` binary and
//! fails on any non-waived finding, with the offending file:line in the
//! message. (CI's `--workspace` run additionally exercises the lint's own
//! fixture suite under `crates/lint/tests/`.)

use std::sync::OnceLock;

/// One audit of the workspace, shared by both tests.
fn workspace_report() -> &'static mpa_lint::Report {
    static REPORT: OnceLock<mpa_lint::Report> = OnceLock::new();
    REPORT.get_or_init(|| {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        mpa_lint::audit_workspace(root).expect("workspace audit")
    })
}

fn render(findings: Vec<&mpa_lint::Finding>) -> String {
    findings
        .iter()
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.excerpt))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn workspace_has_zero_unwaived_audit_findings() {
    // Line rules R1–R6 plus the reachability families R7–R10
    // (panic-safety, hot-path allocation, lock discipline, dead counters)
    // over the call graph rooted at `audit_roots.txt`.
    let violations: Vec<_> = workspace_report().violations().collect();
    assert!(
        violations.is_empty(),
        "audit violations (fix them or add a justified waiver):\n{}",
        render(violations)
    );
}

#[test]
fn workspace_has_zero_unwaived_lint_findings() {
    // The determinism contract proper: the line rules R1–R6 and the
    // waiver defects, i.e. every finding that needs no call graph.
    let report = workspace_report();
    assert!(
        report.files_scanned > 40,
        "suspiciously few files scanned ({}); wrong root?",
        report.files_scanned
    );
    let violations: Vec<_> = report
        .violations()
        .filter(|f| !matches!(mpa_lint::Rule::parse(&f.rule), Some(r) if r.needs_graph()))
        .collect();
    assert!(
        violations.is_empty(),
        "determinism-contract violations (fix them or add a justified waiver):\n{}",
        render(violations)
    );
}
