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
//! QED causal summary (§5, Table 7). The dataset hand-off file itself is
//! too large to commit (5 MB), so `dataset_small.fnv1a64` pins its bytes by
//! digest: a wire-format change that encoder and decoder agree on still
//! fails here.

use mpa::prelude::*;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

/// 64-bit FNV-1a, the digest perfbench uses for output fingerprints.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Render every fixture from a fresh small-seed pipeline run.
fn render_fixtures() -> Vec<(&'static str, String)> {
    let dataset = Scenario::small().generate();
    let dataset_json = serde_json::to_string(&dataset).expect("serializes");
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
        ("dataset_small.fnv1a64", format!("{:016x}\n", fnv1a64(dataset_json.as_bytes()))),
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

#[test]
fn dataset_bytes_survive_a_decode_and_re_encode() {
    // The digest above pins the encoder; this pins the decoder against it:
    // whatever the file holds must come back as the same bytes.
    let json = serde_json::to_string(&Scenario::small().generate()).expect("serializes");
    let decoded: Dataset = serde_json::from_str(&json).expect("decodes");
    let again = serde_json::to_string(&decoded).expect("serializes");
    assert!(json == again, "decode + re-encode changed the dataset bytes");
}
