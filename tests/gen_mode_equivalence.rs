//! The delta-native generator and the full-render oracle must be
//! interchangeable: byte-identical snapshot archives (serde bytes, not
//! just logical equality) and byte-identical downstream case tables, at
//! every worker-thread count and on arbitrarily degraded scenarios.
//! (A single thread-sweep function, because the thread count is
//! process-global and the test harness runs functions concurrently.)

use mpa::analytics::exec;
use mpa::metrics::DELTA_DEFAULT_MINUTES;
use mpa::prelude::*;
use mpa::synth::DegradeSpec;
use proptest::prelude::*;

#[test]
fn delta_and_full_generation_agree_at_1_2_and_8_threads() {
    let saved = exec::threads();
    let scenario = Scenario::tiny();
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 8] {
        exec::set_threads(threads);
        let full = scenario.generate_full();
        let delta = scenario.generate();
        let full_archive = serde_json::to_string(&full.archive).expect("serializes");
        let delta_archive = serde_json::to_string(&delta.archive).expect("serializes");
        assert_eq!(
            full_archive, delta_archive,
            "archives must serialize byte-identically at {threads} threads"
        );
        assert_eq!(full.summary(), delta.summary(), "summaries diverged at {threads} threads");
        // The equivalence must survive inference: identical case tables.
        let full_table =
            serde_json::to_string(&infer(&full, DELTA_DEFAULT_MINUTES).table).expect("serializes");
        let delta_table =
            serde_json::to_string(&infer(&delta, DELTA_DEFAULT_MINUTES).table).expect("serializes");
        assert_eq!(full_table, delta_table, "case tables diverged at {threads} threads");
        // And both must match the other thread counts' output.
        match &reference {
            None => reference = Some(delta_archive),
            Some(r0) => assert_eq!(r0, &delta_archive, "archive diverged at {threads} threads"),
        }
    }
    exec::set_threads(saved);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The equivalence must also hold on *degraded* corpora — degradation
    // runs downstream of generation, so any divergence in the emitted
    // archive would cascade into different drop/truncate decisions. Over
    // arbitrary seeds and knob settings the two engines must emit
    // byte-identical archives, identical degradation accounting and
    // byte-identical case tables.
    #[test]
    fn delta_and_full_generation_agree_on_degraded_corpora(
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
        let scenario = Scenario::tiny().with_seed(seed).with_degrade(spec);
        let full = scenario.generate_full();
        let delta = scenario.generate();
        prop_assert_eq!(
            serde_json::to_string(&full.archive).expect("serializes"),
            serde_json::to_string(&delta.archive).expect("serializes")
        );
        prop_assert_eq!(&full.degrade, &delta.degrade);
        prop_assert_eq!(full.tickets.len(), delta.tickets.len());
        let full_table = serde_json::to_string(
            &infer(&full, DELTA_DEFAULT_MINUTES).table
        ).expect("serializes");
        let delta_table = serde_json::to_string(
            &infer(&delta, DELTA_DEFAULT_MINUTES).table
        ).expect("serializes");
        prop_assert_eq!(full_table, delta_table);
    }
}
