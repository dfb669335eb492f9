//! Golden-file regression tests: the small-seed pipeline outputs are
//! committed as JSON fixtures under `tests/golden/` and byte-compared on
//! every run, so a storage- or parsing-layer rewrite cannot silently shift
//! results. Regenerate intentionally with:
//!
//! ```text
//! MPA_GOLDEN_WRITE=1 cargo test --test golden_fixtures
//! ```
//!
//! The fixtures cover the three analytic layers the paper reports on: the
//! inferred case table (§2), the MI practice ranking (§4, Table 3) and a
//! QED causal summary (§5, Table 7).

use mpa::prelude::*;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

/// Render every fixture from a fresh small-seed pipeline run.
fn render_fixtures() -> Vec<(&'static str, String)> {
    let dataset = Scenario::small().generate();
    let table = infer_case_table(&dataset);
    let mi = mi_ranking(&table, 10);
    // The paper's Table 7 treatment of interest; any fixed metric works —
    // what matters is that the matched-design arithmetic is pinned.
    let qed = analyze_treatment(&table, Metric::ConfigChanges, &CausalConfig::default());
    vec![
        ("summary_small.json", serde_json::to_string(&dataset.summary()).expect("serializes")),
        ("case_table_small.json", serde_json::to_string(&table).expect("serializes")),
        ("mi_ranking_small.json", serde_json::to_string(&mi).expect("serializes")),
        ("qed_config_changes_small.json", serde_json::to_string(&qed).expect("serializes")),
    ]
}

#[test]
fn small_seed_outputs_match_golden_fixtures() {
    let dir = golden_dir();
    let write = std::env::var("MPA_GOLDEN_WRITE").is_ok_and(|v| v == "1");
    if write {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    for (name, rendered) in render_fixtures() {
        let path = dir.join(name);
        if write {
            std::fs::write(&path, &rendered).expect("write fixture");
            continue;
        }
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
        assert_eq!(
            committed,
            rendered,
            "{name} drifted from the committed fixture; if the change is \
             intentional, regenerate with MPA_GOLDEN_WRITE=1"
        );
    }
}

#[test]
fn both_infer_modes_reproduce_the_golden_case_table() {
    // The committed case table is the oracle for the delta-native engine:
    // both modes must reproduce it byte-for-byte, so an incremental-path
    // bug cannot hide behind a same-session full-path regression.
    if std::env::var("MPA_GOLDEN_WRITE").is_ok_and(|v| v == "1") {
        return; // fixtures are being rewritten by the test above
    }
    let committed = std::fs::read_to_string(golden_dir().join("case_table_small.json"))
        .expect("committed case-table fixture");
    let dataset = Scenario::small().generate();
    let delta = mpa::metrics::DELTA_DEFAULT_MINUTES;
    for (engine, inference) in [
        ("full", mpa::metrics::infer_full(&dataset, delta)),
        ("delta", infer(&dataset, delta)),
    ] {
        let rendered = serde_json::to_string(&inference.table).expect("serializes");
        assert_eq!(committed, rendered, "{engine} engine diverged from the golden case table");
    }
}
