//! Model evaluation: accuracy, per-class precision/recall, confusion
//! matrices and seeded k-fold cross-validation (§6.1 uses 5-fold CV).

use crate::data::{Classifier, LearnSet, View};
use mpa_stats::Sampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Evaluation results over a labelled set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// `confusion[actual][predicted]` counts.
    pub confusion: Vec<Vec<usize>>,
    /// Number of evaluated examples.
    pub n: usize,
}

impl Evaluation {
    /// Empty evaluation for `k` classes.
    pub fn new(n_classes: u8) -> Self {
        let k = usize::from(n_classes);
        Self { confusion: vec![vec![0; k]; k], n: 0 }
    }

    /// Record one prediction.
    pub fn record(&mut self, actual: u8, predicted: u8) {
        self.confusion[usize::from(actual)][usize::from(predicted)] += 1;
        self.n += 1;
    }

    /// Merge another evaluation (e.g., a CV fold) into this one.
    pub fn merge(&mut self, other: &Evaluation) {
        assert_eq!(self.confusion.len(), other.confusion.len(), "class count mismatch");
        for (row, orow) in self.confusion.iter_mut().zip(&other.confusion) {
            for (c, oc) in row.iter_mut().zip(orow) {
                *c += oc;
            }
        }
        self.n += other.n;
    }

    /// Overall accuracy; 0.0 when nothing was evaluated.
    pub fn accuracy(&self) -> f64 {
        let correct: usize = (0..self.confusion.len()).map(|i| self.confusion[i][i]).sum();
        ratio(correct, self.n)
    }

    /// Precision of class `c`: TP / (TP + FP). 0.0 when the class is never
    /// predicted (matching the paper's "no precision ... for the unhealthy
    /// class" description of the majority baseline).
    pub fn precision(&self, c: u8) -> f64 {
        let c = usize::from(c);
        ratio(self.confusion[c][c], self.confusion.iter().map(|row| row[c]).sum())
    }

    /// Recall of class `c`: TP / (TP + FN). 0.0 when the class never occurs.
    pub fn recall(&self, c: u8) -> f64 {
        let c = usize::from(c);
        ratio(self.confusion[c][c], self.confusion[c].iter().sum())
    }
}

/// `num / den`, or 0.0 for an empty denominator.
fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Evaluate a trained classifier on every position of a view.
pub fn evaluate<C: Classifier>(model: &C, view: &View) -> Evaluation {
    let mut ev = Evaluation::new(view.set.n_classes());
    for (&r, label) in view.rows.iter().zip(view.labels()) {
        ev.record(label, model.predict(view.set.row(r)));
    }
    ev
}

/// Seeded k-fold cross-validation. `train` receives each fold's training
/// view and returns a fitted classifier; results are merged across folds.
///
/// Folds are trained and evaluated in parallel (they share nothing but the
/// read-only set and the up-front shuffle), then merged in fold order, so
/// the result is identical at any `mpa_exec` thread count.
///
/// # Panics
/// Panics if `k < 2` or the set has fewer than `k` instances.
pub fn cross_validate<C, F>(set: &LearnSet, k: usize, seed: u64, train: F) -> Evaluation
where
    C: Classifier,
    F: Fn(&View) -> C + Sync,
{
    assert!(k >= 2, "need at least 2 folds");
    assert!(set.len() >= k, "fewer instances than folds");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Sampler::new(&mut rng);
    let mut order: Vec<usize> = (0..set.len()).collect();
    s.shuffle(&mut order);

    let folds: Vec<usize> = (0..k).collect();
    let fold_evals = mpa_exec::par_map(&folds, |_, &fold| {
        let test_ix: Vec<usize> = order.iter().copied().skip(fold).step_by(k).collect();
        let test_set: std::collections::BTreeSet<usize> = test_ix.iter().copied().collect();
        let train_ix = (0..set.len()).filter(|i| !test_set.contains(i)).collect();
        let model = train(&set.view_of(train_ix));
        evaluate(&model, &set.view_of(test_ix))
    });

    let mut result = Evaluation::new(set.n_classes());
    for ev in &fold_evals {
        result.merge(ev);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::MajorityClassifier;
    use crate::data::Instance;
    use crate::tree::DecisionTree;

    fn rule_set(n: usize) -> LearnSet {
        // label = feature0 >= 2, plus a noise feature.
        let instances = (0..n)
            .map(|i| {
                let f0 = (i % 4) as u8;
                Instance {
                    features: vec![f0, (i % 3) as u8],
                    label: u8::from(f0 >= 2),
                    weight: 1.0,
                }
            })
            .collect();
        LearnSet::new(instances, vec![4, 3], 2)
    }

    #[test]
    fn confusion_and_metrics() {
        let mut ev = Evaluation::new(2);
        ev.record(0, 0);
        ev.record(0, 0);
        ev.record(0, 1);
        ev.record(1, 1);
        assert_eq!(ev.n, 4);
        assert_eq!(ev.accuracy(), 0.75);
        assert_eq!(ev.precision(1), 0.5);
        assert_eq!(ev.recall(1), 1.0);
        assert_eq!(ev.precision(0), 1.0);
        assert!((ev.recall(0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn never_predicted_class_has_zero_precision_and_recall() {
        let mut ev = Evaluation::new(2);
        ev.record(0, 0);
        ev.record(1, 0);
        assert_eq!(ev.precision(1), 0.0);
        assert_eq!(ev.recall(1), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Evaluation::new(2);
        a.record(0, 0);
        let mut b = Evaluation::new(2);
        b.record(1, 0);
        a.merge(&b);
        assert_eq!(a.n, 2);
        assert_eq!(a.accuracy(), 0.5);
    }

    #[test]
    fn cross_validation_on_learnable_rule_is_accurate() {
        let set = rule_set(200);
        let ev = cross_validate(&set, 5, 7, DecisionTree::fit_default);
        assert_eq!(ev.n, 200, "every instance tested exactly once");
        assert!(ev.accuracy() > 0.95, "accuracy {}", ev.accuracy());
    }

    #[test]
    fn cross_validation_of_majority_matches_base_rate() {
        let set = rule_set(200); // 50/50 split
        let ev = cross_validate(&set, 4, 7, MajorityClassifier::fit);
        assert!((ev.accuracy() - 0.5).abs() < 0.1, "accuracy {}", ev.accuracy());
    }

    #[test]
    fn cv_is_deterministic_per_seed() {
        let set = rule_set(100);
        let a = cross_validate(&set, 5, 3, DecisionTree::fit_default);
        let b = cross_validate(&set, 5, 3, DecisionTree::fit_default);
        assert_eq!(a, b);
    }
}
