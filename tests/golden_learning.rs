//! Learning golden: the paper's §6 outputs on the medium preset, pinned
//! bit for bit in `tests/golden/learn_medium.json`, so a rewrite of the
//! tree builder, boosting, oversampling or the forests cannot shift a
//! single prediction unnoticed. Regenerate intentionally with:
//!
//! ```text
//! MPA_GOLDEN_WRITE=1 cargo test --release --test golden_learning
//! ```
//!
//! The fixture holds Figure 8's thirteen 5-fold CV confusion matrices at
//! seed 7 (the model ladder at 2 and 5 classes, the majority and SVM
//! baselines, the three forest variants), Table 9's online accuracy at
//! M = 1, 3, 6 and 9 with its merged confusion matrix, and Figure 10's two
//! rendered trees. The medium preset is used because the small one leaves
//! fewer than 50 training cases for M < 5, so those months are skipped.

use mpa::learn::ForestVariant;
use mpa::prelude::*;
use std::path::PathBuf;

/// Figure 8's cross-validations, in the order the benchmark runs them.
const CV_RUNS: [(ModelKind, HealthClasses); 13] = [
    (ModelKind::Dt, HealthClasses::Two),
    (ModelKind::DtAb, HealthClasses::Two),
    (ModelKind::DtOs, HealthClasses::Two),
    (ModelKind::DtAbOs, HealthClasses::Two),
    (ModelKind::Dt, HealthClasses::Five),
    (ModelKind::DtAb, HealthClasses::Five),
    (ModelKind::DtOs, HealthClasses::Five),
    (ModelKind::DtAbOs, HealthClasses::Five),
    (ModelKind::Majority, HealthClasses::Two),
    (ModelKind::Svm, HealthClasses::Two),
    (ModelKind::Forest(ForestVariant::Plain), HealthClasses::Two),
    (ModelKind::Forest(ForestVariant::Balanced), HealthClasses::Two),
    (ModelKind::Forest(ForestVariant::Weighted), HealthClasses::Two),
];

/// Table 9's online runs and Figure 10's trees.
const TABLE9_RUNS: [(ModelKind, HealthClasses); 2] =
    [(ModelKind::Dt, HealthClasses::Two), (ModelKind::DtAbOs, HealthClasses::Five)];
const FIG10_TREES: [(ModelKind, HealthClasses); 2] =
    [(ModelKind::DtAbOs, HealthClasses::Five), (ModelKind::Dt, HealthClasses::Two)];

/// Render the fixture: one JSON object, one run per line. Labels and
/// confusion matrices print with `{:?}`, which is valid JSON for them.
fn render_learning() -> String {
    let table = infer_case_table(&Scenario::medium().generate());
    let run = |kind: ModelKind, classes: HealthClasses| {
        format!("\"model\": {:?}, \"classes\": {}", kind.label(), classes.n())
    };
    let cv: Vec<String> = CV_RUNS
        .iter()
        .map(|&(kind, classes)| {
            let ev = cross_validation(&table, classes, kind, 7);
            format!("{{{}, \"confusion\": {:?}}}", run(kind, classes), ev.confusion)
        })
        .collect();
    let mut online = Vec::new();
    for (kind, classes) in TABLE9_RUNS {
        for history in [1usize, 3, 6, 9] {
            let (acc, ev) = online_accuracy(&table, classes, kind, history);
            online.push(format!(
                "{{{}, \"history\": {history}, \"accuracy\": \"{acc:?}\", \"confusion\": {:?}}}",
                run(kind, classes),
                ev.confusion
            ));
        }
    }
    let trees: Vec<String> = FIG10_TREES
        .iter()
        .map(|&(kind, classes)| {
            let text = render_tree(&table, classes, kind, 2);
            let text = serde_json::to_string(&text).expect("serializes");
            format!("{{{}, \"tree\": {text}}}", run(kind, classes))
        })
        .collect();
    format!(
        "{{\"cv\": [\n{}\n],\n\"online\": [\n{}\n],\n\"fig10\": [\n{}\n]}}\n",
        cv.join(",\n"),
        online.join(",\n"),
        trees.join(",\n")
    )
}

#[test]
fn learning_outputs_match_the_medium_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/learn_medium.json");
    let rendered = render_learning();
    if std::env::var("MPA_GOLDEN_WRITE").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert!(
        committed == rendered,
        "learn_medium.json drifted from the committed fixture; if the change is \
         intentional, regenerate with MPA_GOLDEN_WRITE=1\n\
         --- committed\n{committed}\n--- rendered\n{rendered}"
    );
}
