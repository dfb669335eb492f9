//! Golden-file regression tests for the *degraded* pipeline: a 2-network
//! corpus generated with every degradation knob active (the
//! `Scenario::degraded_demo()` preset) is inferred at 1, 2 and 8 worker
//! threads, and both the case table and the scenario coverage report are
//! byte-compared against committed fixtures. This pins three contracts at
//! once:
//!
//! - degradation is seeded and deterministic (same corpus every run),
//! - inference on messy corpora is thread-invariant and mode-invariant
//!   (delta ≡ full, byte-for-byte, at every thread count),
//! - the coverage scan itself is stable (the CI robustness gate diffs it).
//!
//! Regenerate intentionally with:
//!
//! ```text
//! MPA_GOLDEN_WRITE=1 cargo test --test golden_degraded
//! ```
//!
//! One test function: the worker-thread count is process-global, so the
//! thread sweep must not race a concurrently running test in this binary.

use mpa::analytics::exec;
use mpa::metrics::{infer_full, DELTA_DEFAULT_MINUTES};
use mpa::prelude::*;
use mpa::synth::CoverageReport;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn check_or_write(name: &str, rendered: &str, write: bool) {
    let path = golden_dir().join(name);
    if write {
        std::fs::write(&path, rendered).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        committed, rendered,
        "{name} drifted from the committed fixture; if the change is \
         intentional, regenerate with MPA_GOLDEN_WRITE=1"
    );
}

#[test]
fn degraded_demo_outputs_match_goldens_at_1_2_and_8_threads() {
    let write = std::env::var("MPA_GOLDEN_WRITE").is_ok_and(|v| v == "1");
    if write {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
    }
    let saved = exec::threads();

    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 8] {
        exec::set_threads(threads);
        let dataset = Scenario::degraded_demo().generate();

        // The degradation accounting must balance exactly on every run:
        // nothing generated goes unaccounted, nothing kept is phantom.
        let st = &dataset.degrade;
        assert!(st.snapshots_generated > 0, "degraded demo generated no snapshots");
        assert_eq!(st.snapshots_kept() + st.snapshots_dropped(), st.snapshots_generated);
        assert_eq!(st.snapshots_kept(), dataset.archive.n_snapshots() as u64);
        assert_eq!(st.tickets_generated + st.tickets_duplicated, dataset.tickets.len() as u64);
        assert!(st.snapshots_dropped() > 0, "heavy degradation dropped nothing");

        // Both engines must survive the messy corpus and agree byte-for-byte.
        let full = infer_full(&dataset, DELTA_DEFAULT_MINUTES);
        let delta = infer(&dataset, DELTA_DEFAULT_MINUTES);
        assert_eq!(
            full.device_changes, delta.device_changes,
            "degraded change records diverged at {threads} threads"
        );
        let table_json = serde_json::to_string(&delta.table).expect("serializes");
        let full_json = serde_json::to_string(&full.table).expect("serializes");
        assert_eq!(
            full_json, table_json,
            "degraded case tables diverged between modes at {threads} threads"
        );
        match &reference {
            None => reference = Some(table_json.clone()),
            Some(r0) => assert_eq!(
                r0, &table_json,
                "degraded case table diverged at {threads} threads"
            ),
        }

        let coverage = CoverageReport::scan(&dataset);
        let coverage_json = serde_json::to_string(&coverage).expect("serializes");

        // Compare (or rewrite) the committed fixtures once, on the 1-thread
        // pass; later passes are pinned to it through `reference`.
        if threads == 1 {
            check_or_write("case_table_degraded.json", &table_json, write);
            check_or_write("coverage_report_degraded.json", &coverage_json, write);
        } else {
            // The coverage scan must be thread-invariant too — it feeds a
            // CI gate that runs at whatever width the runner has.
            let one_thread = std::fs::read_to_string(golden_dir().join("coverage_report_degraded.json"))
                .expect("coverage fixture written on the 1-thread pass");
            assert_eq!(one_thread, coverage_json, "coverage drifted at {threads} threads");
        }
    }
    exec::set_threads(saved);
}
