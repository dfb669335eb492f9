//! Tier-1 enforcement: `cargo test -q` runs the same audit as the
//! `mpa-lint` binary over the whole workspace and fails on any non-waived
//! finding — reintroducing a `partial_cmp(..).unwrap()` sort, iterating a
//! `HashMap` in a pipeline crate, or deleting a waiver's justification all
//! break the build here, with the offending file:line in the message.

use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn graph_audit_is_clean_and_covers_the_workspace() {
    let report = mpa_lint::audit_workspace(&workspace_root()).expect("workspace audit");
    // Sanity: the walk actually covered the workspace (all the pipeline
    // crates plus the facade), not an empty or wrong directory.
    assert!(
        report.files_scanned > 40,
        "suspiciously few files scanned ({}); wrong root?",
        report.files_scanned
    );
    let violations: Vec<String> = report
        .violations()
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.excerpt))
        .collect();
    assert!(
        violations.is_empty(),
        "audit violations (fix them or add a justified waiver):\n{}",
        violations.join("\n")
    );
    // Coverage floors: catastrophic symbol-layer regressions (a parser
    // change that drops functions or edges) fail here immediately; the CI
    // baseline gate catches gradual drift at a tighter 10% bound.
    let stats = report.audit;
    assert!(stats.fns_scanned >= 500, "audit shrank: {} fns scanned", stats.fns_scanned);
    assert!(stats.edges >= 1000, "audit shrank: {} call edges", stats.edges);
    assert!(stats.reachable_r7 >= 100, "R7 root cover collapsed: {}", stats.reachable_r7);
    assert!(stats.reachable_r8 > 0, "R8 root cover collapsed: {}", stats.reachable_r8);
}

#[test]
fn every_surviving_waiver_carries_a_justification() {
    let report = mpa_lint::audit_workspace(&workspace_root()).expect("workspace audit");
    for f in &report.findings {
        if f.waived {
            assert!(
                !f.justification.trim().is_empty(),
                "{}:{} waived without justification",
                f.file,
                f.line
            );
        }
    }
}

#[test]
fn json_report_is_emitted_with_counters() {
    let report = mpa_lint::audit_workspace(&workspace_root()).expect("workspace audit");
    let json = report.to_json();
    assert!(json.contains("\"tool\": \"mpa-lint\""));
    for name in ["lint_files_scanned", "lint_hits_r1", "lint_waived_r4", "lint_violations"] {
        assert!(json.contains(name), "counter {name} missing from JSON report");
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}
