//! Analytics golden: the paper's §5 outputs on the medium preset, pinned
//! bit for bit in `tests/golden/analytics_medium.json`, so a rewrite of the
//! binning, the entropy counting or the matched design cannot shift a
//! single MI, CMI or matched pair unnoticed. Regenerate intentionally with:
//!
//! ```text
//! MPA_GOLDEN_WRITE=1 cargo test --release --test golden_analytics
//! ```
//!
//! The fixture holds Table 3's MI ranking of all 28 practices, Table 4's
//! CMI for all 378 practice pairs, and the matched-design QED at all four
//! comparison points for each of the top 5 MI practices (Tables 5–8).
//! Floats print through the JSON encoder, which round-trips every bit.
//! The medium preset is used because the small one leaves most QED
//! comparisons thin or degenerate.

use mpa::prelude::*;
use std::path::PathBuf;

/// Render the fixture: one JSON object, one entry per line.
fn render_analytics() -> String {
    let table = infer_case_table(&Scenario::medium().generate());
    let mi = mi_ranking(&table, 20);
    let mi_lines: Vec<String> =
        mi.iter().map(|e| serde_json::to_string(e).expect("serializes")).collect();
    let cmi_lines: Vec<String> =
        cmi_ranking(&table).iter().map(|e| serde_json::to_string(e).expect("serializes")).collect();
    let cfg = CausalConfig::default();
    let mut qed_lines = Vec::new();
    for e in mi.iter().take(5) {
        let analysis = analyze_treatment(&table, e.metric, &cfg);
        for c in &analysis.comparisons {
            qed_lines.push(format!(
                "{{\"metric\": {}, \"comparison\": {}}}",
                serde_json::to_string(&e.metric).expect("serializes"),
                serde_json::to_string(c).expect("serializes")
            ));
        }
    }
    format!(
        "{{\"mi\": [\n{}\n],\n\"cmi\": [\n{}\n],\n\"qed\": [\n{}\n]}}\n",
        mi_lines.join(",\n"),
        cmi_lines.join(",\n"),
        qed_lines.join(",\n")
    )
}

#[test]
fn analytics_outputs_match_the_medium_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/analytics_medium.json");
    let rendered = render_analytics();
    if std::env::var("MPA_GOLDEN_WRITE").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert!(
        committed == rendered,
        "analytics_medium.json drifted from the committed fixture; if the change is \
         intentional, regenerate with MPA_GOLDEN_WRITE=1\n\
         --- committed\n{committed}\n--- rendered\n{rendered}"
    );
}
