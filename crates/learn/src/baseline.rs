//! The majority-class baseline (§6.1's comparison predictor: 64.8% accuracy
//! for 2-class health, with "no precision or recall for the unhealthy
//! class").

use crate::data::{Classifier, View};
use serde::{Deserialize, Serialize};

/// Predicts the training set's (weighted) majority class for every input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MajorityClassifier {
    label: u8,
}

impl MajorityClassifier {
    /// Fit: record the weighted majority class.
    ///
    /// # Panics
    /// Panics on an empty view.
    pub fn fit(view: &View) -> Self {
        assert!(!view.rows.is_empty(), "cannot fit on an empty dataset");
        let w = view.class_weights();
        let best = w.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1));
        Self { label: best.expect("non-empty").0 as u8 }
    }

    /// The majority label.
    pub fn label(&self) -> u8 {
        self.label
    }
}

impl Classifier for MajorityClassifier {
    fn predict(&self, _features: &[u8]) -> u8 {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Instance, LearnSet};

    #[test]
    fn predicts_the_weighted_majority() {
        let set = LearnSet::new(
            vec![
                Instance { features: vec![0], label: 0, weight: 1.0 },
                Instance { features: vec![1], label: 0, weight: 1.0 },
                Instance { features: vec![2], label: 1, weight: 5.0 },
            ],
            vec![3],
            2,
        );
        let m = MajorityClassifier::fit(&set.view());
        assert_eq!(m.label(), 1, "weight beats count");
        assert_eq!(m.predict(&[0]), 1);
        assert_eq!(m.predict(&[2]), 1);
    }
}
