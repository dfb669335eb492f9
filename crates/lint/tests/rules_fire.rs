//! Fixture suite for the lint itself: one known-bad snippet per rule plus
//! a waived copy, asserting that each rule fires at exactly the expected
//! file:line, that valid waivers suppress (and carry their justification),
//! and that malformed waivers — empty justification, unknown rule, stale
//! waiver — are themselves rejected.

use mpa_lint::{audit_source_set, scan_source, Finding};
use std::path::Path;

fn scan_fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    // Fixture paths resemble a pipeline crate so no allowlist applies.
    scan_source(&format!("crates/fixture/src/{name}"), &text).findings
}

/// The bad fixture produces exactly one finding, of `rule`, at `line`,
/// not waived; the waived fixture produces the same finding one line
/// lower (below the waiver comment), suppressed with a justification.
fn assert_rule_pair(rule: &str, bad: &str, bad_line: usize, waived: &str, waived_line: usize) {
    let findings = scan_fixture(bad);
    assert_eq!(findings.len(), 1, "{bad}: expected exactly one finding, got {findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule.as_str(), f.line, f.waived), (rule, bad_line, false), "{bad}: {f:?}");
    assert!(f.excerpt.len() > 5, "{bad}: excerpt should carry the source line");

    let findings = scan_fixture(waived);
    assert_eq!(findings.len(), 1, "{waived}: expected exactly one finding, got {findings:?}");
    let f = &findings[0];
    assert_eq!((f.rule.as_str(), f.line, f.waived), (rule, waived_line, true), "{waived}: {f:?}");
    assert!(
        f.justification.starts_with("fixture:"),
        "{waived}: justification not carried through: {f:?}"
    );
}

#[test]
fn r1_float_total_order() {
    assert_rule_pair("R1", "r1_bad.rs", 2, "r1_waived.rs", 3);
}

#[test]
fn r2_hash_iteration_order() {
    assert_rule_pair("R2", "r2_bad.rs", 4, "r2_waived.rs", 5);
}

#[test]
fn r3_wall_clock() {
    assert_rule_pair("R3", "r3_bad.rs", 2, "r3_waived.rs", 3);
}

#[test]
fn r4_thread_identity() {
    assert_rule_pair("R4", "r4_bad.rs", 2, "r4_waived.rs", 3);
}

#[test]
fn r5_unsafe_placement() {
    assert_rule_pair("R5", "r5_bad.rs", 2, "r5_waived.rs", 3);
}

#[test]
fn r6_env_read() {
    assert_rule_pair("R6", "r6_bad.rs", 2, "r6_waived.rs", 3);
}

/// Run the audit over a single fixture file presented at
/// `rel` (the path picks the module name and the serve-boundary rules),
/// against an inline roots manifest.
fn audit_fixture(rel: &str, name: &str, manifest: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    let sources = vec![(rel.to_string(), text)];
    audit_source_set("fixture", &sources, manifest)
        .unwrap_or_else(|e| panic!("{name}: audit failed: {e}"))
        .findings
}

/// Graph-rule analogue of [`assert_rule_pair`]: the bad fixture fires
/// exactly once at `bad_line`; the waived copy fires once at
/// `waived_line`, suppressed with its justification carried through.
fn assert_audit_pair(
    rule: &str,
    rel_dir: &str,
    bad: &str,
    bad_line: usize,
    waived: &str,
    waived_line: usize,
    manifest_root: Option<&str>,
) {
    for (name, line, expect_waived) in [(bad, bad_line, false), (waived, waived_line, true)] {
        let stem = name.trim_end_matches(".rs");
        let manifest = manifest_root
            .map(|root| format!("{} {stem}::{root}", rule))
            .unwrap_or_default();
        let findings = audit_fixture(&format!("{rel_dir}/{name}"), name, &manifest);
        assert_eq!(findings.len(), 1, "{name}: expected exactly one finding, got {findings:?}");
        let f = &findings[0];
        assert_eq!(
            (f.rule.as_str(), f.line, f.waived),
            (rule, line, expect_waived),
            "{name}: {f:?}"
        );
        if expect_waived {
            assert!(
                f.justification.starts_with("fixture:"),
                "{name}: justification not carried through: {f:?}"
            );
        }
    }
}

#[test]
fn r7_panic_in_reachable_path() {
    // One finding in `deep` (reachable from the manifest root); the
    // identical unwrap in `not_called` stays silent — `len() == 1` in the
    // helper is the reachability assertion.
    assert_audit_pair(
        "R7",
        "crates/fixture/src",
        "r7_bad.rs",
        6,
        "r7_waived.rs",
        7,
        Some("root_entry"),
    );
}

#[test]
fn r8_alloc_in_hot_path() {
    assert_audit_pair(
        "R8",
        "crates/fixture/src",
        "r8_bad.rs",
        10,
        "r8_waived.rs",
        11,
        Some("hot_loop"),
    );
}

#[test]
fn r9_lock_across_io() {
    // R9 is scoped to the serve crate by path, not by manifest roots.
    assert_audit_pair("R9", "crates/serve/src", "r9_bad.rs", 6, "r9_waived.rs", 7, None);
}

#[test]
fn r9_is_scoped_to_the_serve_crate() {
    // The same guard-across-IO shape outside `crates/serve/` is not R9's
    // business (other crates hold locks by design, e.g. the obs registry).
    let findings = audit_fixture("crates/fixture/src/r9_bad.rs", "r9_bad.rs", "");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn r10_dead_counter() {
    assert_audit_pair("R10", "crates/fixture/src", "r10_bad.rs", 3, "r10_waived.rs", 4, None);
}

#[test]
fn r10_incremented_counter_is_alive() {
    // Appending an increment anywhere in the source set clears the
    // finding — including the rustfmt line-broken form.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r10_bad.rs");
    let mut text = std::fs::read_to_string(&path).expect("fixture");
    text.push_str("\npub fn bump() {\n    REQUESTS_TOTAL\n        .add(1);\n}\n");
    let sources = vec![("crates/fixture/src/r10_bad.rs".to_string(), text)];
    let findings = audit_source_set("fixture", &sources, "").expect("audit").findings;
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn empty_justification_is_rejected_and_suppresses_nothing() {
    let findings = scan_fixture("waiver_empty.rs");
    assert_eq!(findings.len(), 2, "{findings:?}");
    // The waiver itself is flagged…
    let w1 = findings.iter().find(|f| f.rule == "W1").expect("rejected-waiver finding");
    assert_eq!(w1.line, 2);
    assert!(w1.excerpt.contains("justification"), "{w1:?}");
    // …and the underlying hit stays a violation.
    let r3 = findings.iter().find(|f| f.rule == "R3").expect("R3 finding");
    assert_eq!((r3.line, r3.waived), (3, false));
}

#[test]
fn unused_waiver_is_flagged() {
    let findings = scan_fixture("waiver_unused.rs");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!((findings[0].rule.as_str(), findings[0].line), ("W2", 1));
}

#[test]
fn clean_file_produces_no_findings() {
    let findings = scan_fixture("clean.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn allowlisted_paths_suspend_their_rules_only() {
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/r3_bad.rs"),
    )
    .expect("fixture");
    // Same content, obs-crate path: R3 is allowlisted there.
    assert!(scan_source("crates/obs/src/span.rs", &text).findings.is_empty());
    // …but a pipeline-crate path still fires.
    assert_eq!(scan_source("crates/stats/src/summary.rs", &text).findings.len(), 1);
}
