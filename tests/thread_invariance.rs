//! The execution engine's core guarantee: pipeline output is bit-for-bit
//! identical at any worker-thread count.
//!
//! One test drives the full pipeline — generation, inference, MI ranking,
//! causal (QED) analysis, forest training, cross-validation and online
//! evaluation — at 1, 2 and 8 threads and asserts the results are equal.
//! (A single test function, because the thread count is process-global and
//! the test harness runs functions concurrently.)

use mpa::analytics::exec;
use mpa::learn::{ForestConfig, RandomForest};
use mpa::prelude::*;

/// Everything the pipeline produces downstream of the case table, captured
/// in comparable form.
#[derive(PartialEq, Debug)]
struct PipelineOutputs {
    table: CaseTable,
    mi: Vec<mpa::analytics::MiEntry>,
    qed: mpa::analytics::CausalAnalysis,
    forest: String,
    cv: String,
    online: String,
}

#[test]
fn pipeline_output_is_identical_at_1_2_and_8_threads() {
    let saved = exec::threads();
    let mut reference: Option<PipelineOutputs> = None;
    for threads in [1usize, 2, 8] {
        exec::set_threads(threads);

        let dataset = Scenario::tiny().generate();
        let table = infer_case_table(&dataset);
        let out = PipelineOutputs {
            mi: mi_ranking(&table, 10),
            qed: analyze_treatment(&table, Metric::ConfigChanges, &CausalConfig::default()),
            forest: {
                let set = build_learnset(&table, HealthClasses::Two);
                format!("{:?}", RandomForest::fit(&set.view(), ForestConfig::default()))
            },
            cv: format!(
                "{:?}",
                cross_validation(&table, HealthClasses::Two, ModelKind::DtAbOs, 7)
            ),
            online: format!(
                "{:?}",
                online_accuracy(&table, HealthClasses::Two, ModelKind::DtAbOs, 6)
            ),
            table,
        };

        match &reference {
            None => reference = Some(out),
            Some(r0) => {
                assert_eq!(r0.table, out.table, "case table diverged at {threads} threads");
                assert_eq!(r0.mi, out.mi, "MI ranking diverged at {threads} threads");
                assert_eq!(r0.qed, out.qed, "QED analysis diverged at {threads} threads");
                assert_eq!(r0.forest, out.forest, "forest diverged at {threads} threads");
                assert_eq!(r0.cv, out.cv, "cross-validation diverged at {threads} threads");
                assert_eq!(r0.online, out.online, "online eval diverged at {threads} threads");
            }
        }
    }
    exec::set_threads(saved);
}
