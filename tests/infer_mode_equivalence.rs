//! The delta-native inference engine and the full-parse oracle must be
//! interchangeable: identical change records and byte-identical case
//! tables, at every worker-thread count. (A single test function, because
//! the thread count is process-global and the test harness runs functions
//! concurrently.)

use mpa::analytics::exec;
use mpa::metrics::{infer_full, DELTA_DEFAULT_MINUTES};
use mpa::prelude::*;
use mpa::synth::DegradeSpec;
use proptest::prelude::*;

#[test]
fn delta_and_full_inference_agree_at_1_2_and_8_threads() {
    let saved = exec::threads();
    let dataset = Scenario::tiny().generate();
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 8] {
        exec::set_threads(threads);
        let full = infer_full(&dataset, DELTA_DEFAULT_MINUTES);
        let delta = infer(&dataset, DELTA_DEFAULT_MINUTES);
        assert_eq!(
            full.device_changes, delta.device_changes,
            "change records diverged at {threads} threads"
        );
        let full_json = serde_json::to_string(&full.table).expect("serializes");
        let delta_json = serde_json::to_string(&delta.table).expect("serializes");
        assert_eq!(
            full_json, delta_json,
            "case tables must serialize byte-identically at {threads} threads"
        );
        // And both must match the other thread counts' output.
        match &reference {
            None => reference = Some(delta_json),
            Some(r0) => assert_eq!(r0, &delta_json, "table diverged at {threads} threads"),
        }
    }
    exec::set_threads(saved);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The equivalence must also hold on *degraded* corpora: missing
    // snapshot windows, truncated histories, clock-skewed (re-sorted)
    // timestamps, duplicate/corrupt tickets and ambiguous logins, over
    // both dialects and arbitrary seeds. Neither engine may panic, and
    // the degradation accounting must balance exactly.
    #[test]
    fn delta_and_full_agree_on_degraded_corpora(
        seed in 0u64..10_000,
        knobs in (
            0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64,
            0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64,
        ),
    ) {
        let spec = DegradeSpec {
            miss_window: knobs.0,
            truncate: knobs.1,
            reorder: knobs.2,
            dup_ticket: knobs.3,
            corrupt_ticket: knobs.4,
            ambiguous_login: knobs.5,
        };
        let dataset = Scenario::tiny().with_seed(seed).with_degrade(spec).generate();
        let st = &dataset.degrade;
        prop_assert_eq!(
            st.snapshots_kept() + st.snapshots_dropped(),
            st.snapshots_generated
        );
        prop_assert_eq!(st.snapshots_kept(), dataset.archive.n_snapshots() as u64);
        prop_assert_eq!(
            st.tickets_generated + st.tickets_duplicated,
            dataset.tickets.len() as u64
        );

        let full = infer_full(&dataset, DELTA_DEFAULT_MINUTES);
        let delta = infer(&dataset, DELTA_DEFAULT_MINUTES);
        prop_assert_eq!(&full.device_changes, &delta.device_changes);
        let full_json = serde_json::to_string(&full.table).expect("serializes");
        let delta_json = serde_json::to_string(&delta.table).expect("serializes");
        prop_assert_eq!(full_json, delta_json);
    }
}
