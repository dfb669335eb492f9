//! Health forecasting: the paper's online-prediction workflow (§6.2) plus a
//! what-if analysis.
//!
//! ```text
//! cargo run --release --example health_forecast
//! ```
//!
//! Trains a model on months `t−M .. t−1` and predicts month `t` for every
//! viable `t`, sweeping the history length M (the paper's Table 9). Then
//! demonstrates what-if analysis: take an unhealthy-predicted case, reduce
//! its change-event bin, and ask the model again — "will combining
//! configuration changes into fewer, larger changes improve network
//! health?" (§6).

use mpa::learn::Classifier;
use mpa::prelude::*;

fn main() {
    let dataset = Scenario::medium().generate();
    let table = infer_case_table(&dataset);

    println!("online prediction accuracy (train on t-M..t-1, predict month t):");
    println!("{:>4} {:>10} {:>10}", "M", "2-class", "5-class");
    for m in [1usize, 3, 6, 9] {
        if m >= dataset.period.n_months() {
            continue;
        }
        let (acc2, _) = online_accuracy(&table, HealthClasses::Two, ModelKind::Dt, m);
        let (acc5, _) = online_accuracy(&table, HealthClasses::Five, ModelKind::DtAbOs, m);
        println!("{m:>4} {:>9.1}% {:>9.1}%", 100.0 * acc2, 100.0 * acc5);
    }

    // What-if analysis: train a 2-class model on everything, then probe it.
    let set = build_learnset(&table, HealthClasses::Two);
    let model = mpa::analytics::predict::train(ModelKind::Dt, &set.view(), HealthClasses::Two);

    let events_col = Metric::ChangeEvents.index();
    let mut flipped = 0;
    let mut unhealthy = 0;
    for features in (0..set.len()).map(|i| set.row(i)) {
        if model.predict(features) != 1 {
            continue; // only look at unhealthy-predicted cases
        }
        unhealthy += 1;
        if features[events_col] == 0 {
            continue; // already at the lowest change-event bin
        }
        let mut probe = features.to_vec();
        probe[events_col] = 0; // what if changes were batched way down?
        if model.predict(&probe) == 0 {
            flipped += 1;
        }
    }
    println!(
        "\nwhat-if: of {unhealthy} unhealthy-predicted cases, {flipped} flip to healthy when\n\
         change events drop to the lowest bin — the §6 question (\"will combining\n\
         configuration changes into fewer, larger changes improve network health?\")\n\
         answered per-network instead of by gut feeling."
    );
}
