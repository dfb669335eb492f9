//! AdaBoost for multi-class problems (SAMME), §6.1.
//!
//! > "Over many iterations (we use 15) AdaBoost increases (decreases) the
//! > weight of examples that were classified incorrectly (correctly) by the
//! > learner; the final learner (i.e., decision tree) is built from the last
//! > iteration's weighted examples."
//!
//! The paper's variant therefore returns a *single* tree trained on the
//! final weights ([`BoostMode::LastTree`]); the conventional weighted
//! ensemble vote is also provided ([`BoostMode::Ensemble`]) since it is the
//! textbook SAMME formulation. The prediction pipeline trains the ensemble;
//! the last-tree variant serves the `ablation_boostmode` experiment.

use crate::data::{Classifier, View};
use crate::tree::{DecisionTree, TreeConfig};
use serde::{Deserialize, Serialize};

/// Which final model AdaBoost returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BoostMode {
    /// The paper's variant: one tree trained on the last iteration's weights.
    LastTree,
    /// Standard SAMME: weighted vote over all iteration trees.
    Ensemble,
}

/// Boosting configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoostConfig {
    /// Boosting iterations (the paper uses 15).
    pub iterations: usize,
    /// Mode of the final model.
    pub mode: BoostMode,
    /// Configuration of each weak tree.
    pub tree: TreeConfig,
}

impl Default for BoostConfig {
    fn default() -> Self {
        Self { iterations: 15, mode: BoostMode::LastTree, tree: TreeConfig::default() }
    }
}

/// A trained AdaBoost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaBoost {
    mode: BoostMode,
    n_classes: u8,
    /// `(tree, alpha)` per iteration (Ensemble mode keeps all; LastTree mode
    /// keeps only the final tree with a dummy alpha).
    members: Vec<(DecisionTree, f64)>,
}

impl AdaBoost {
    /// Train with the given configuration. Each round reweights one view of
    /// the training positions in place; no row is copied.
    pub fn fit(view: &View, config: BoostConfig) -> Self {
        assert!(!view.rows.is_empty(), "cannot boost an empty dataset");
        assert!(config.iterations >= 1, "need at least one iteration");
        let set = view.set;
        let k = f64::from(set.n_classes());
        let n = view.rows.len();

        let mut work = View::new(set, view.rows.clone(), vec![1.0 / n as f64; n]);
        let mut members: Vec<(DecisionTree, f64)> = Vec::new();

        for _ in 0..config.iterations {
            mpa_obs::counters::BOOST_ROUNDS.incr();
            let tree = DecisionTree::fit(&work, config.tree);
            // Misclassified positions, predicted in chunks across the
            // worker threads; outputs stay in position order.
            let wrong: Vec<bool> = mpa_exec::par_chunk_map(&work.rows, 512, |chunk| {
                chunk.iter().map(|&r| tree.predict(set.row(r)) != set.labels[r]).collect()
            });
            let missed = work.weights.iter().zip(&wrong).filter(|(_, &x)| x).map(|(&w, _)| w);
            let err = missed.sum::<f64>() / work.total_weight();

            // SAMME requires err < 1 − 1/K; a perfect learner ends boosting.
            if err <= 1e-12 {
                mpa_obs::counters::BOOST_EARLY_STOPS.incr();
                members.push((tree, 10.0)); // overwhelming vote
                break;
            }
            if err >= 1.0 - 1.0 / k {
                // Weak learner is no better than chance: stop; keep what we
                // have (or this tree if it is the first).
                mpa_obs::counters::BOOST_EARLY_STOPS.incr();
                if members.is_empty() {
                    members.push((tree, 1.0));
                }
                break;
            }
            let alpha = ((1.0 - err) / err).ln() + (k - 1.0).ln();

            // Reweight and renormalize.
            for (w, _) in work.weights.iter_mut().zip(&wrong).filter(|(_, &x)| x) {
                *w *= alpha.exp();
            }
            let total: f64 = work.weights.iter().sum();
            for w in &mut work.weights {
                *w /= total;
                // Floor: view weights must stay strictly positive.
                *w = w.max(1e-300);
            }
            members.push((tree, alpha));
        }

        let n_classes = set.n_classes();
        match config.mode {
            BoostMode::Ensemble => Self { mode: BoostMode::Ensemble, n_classes, members },
            BoostMode::LastTree => {
                // Train the final tree on the last iteration's weights.
                let final_tree = DecisionTree::fit(&work, config.tree);
                Self { mode: BoostMode::LastTree, n_classes, members: vec![(final_tree, 1.0)] }
            }
        }
    }

    /// Train with the default configuration (15 iterations, LastTree mode).
    pub fn fit_default(view: &View) -> Self {
        Self::fit(view, BoostConfig::default())
    }

    /// Number of member trees (1 in LastTree mode).
    pub fn n_members(&self) -> usize {
        self.members.len()
    }

    /// The mode the model was trained in.
    pub fn mode(&self) -> BoostMode {
        self.mode
    }

    /// The final tree: in LastTree mode the only one, in Ensemble mode the
    /// last round's tree (one voter of many). Figure 10(a) renders it.
    pub fn final_tree(&self) -> &DecisionTree {
        &self.members.last().expect("at least one member").0
    }
}

impl Classifier for AdaBoost {
    fn predict(&self, features: &[u8]) -> u8 {
        match self.mode {
            BoostMode::LastTree => self.members[0].0.predict(features),
            BoostMode::Ensemble => {
                let mut votes = vec![0.0; usize::from(self.n_classes)];
                for (tree, alpha) in &self.members {
                    // mpa-lint: allow(R7) -- trees emit labels < n_classes, the votes vec's length
                    votes[usize::from(tree.predict(features))] += alpha;
                }
                votes
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .expect("non-empty")
                    .0 as u8
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Instance, LearnSet};
    use crate::eval::evaluate;

    /// An imbalanced set where the minority class is the *local minority* of
    /// its own pocket: cell (4,4) holds 8 minority and 12 majority instances
    /// with identical features. No tree structure can separate them — only
    /// reweighting can flip the pocket's majority label. This isolates
    /// exactly the mechanism §6.1 relies on: boosting "increases the weight
    /// of examples that were classified incorrectly" until the final tree's
    /// leaf majority changes.
    fn skewed() -> LearnSet {
        let mut instances = Vec::new();
        for a in 0..5u8 {
            for b in 0..5u8 {
                if a == 4 && b == 4 {
                    for i in 0..20u8 {
                        instances.push(Instance {
                            features: vec![a, b],
                            label: u8::from(i < 8),
                            weight: 1.0,
                        });
                    }
                } else {
                    for _ in 0..16u8 {
                        instances.push(Instance { features: vec![a, b], label: 0, weight: 1.0 });
                    }
                }
            }
        }
        LearnSet::new(instances, vec![5, 5], 2)
    }

    #[test]
    fn boosting_recovers_a_pruned_away_minority() {
        let set = skewed();
        let cfg_tree = TreeConfig { alpha_fraction: 0.01, max_depth: 10 };
        let plain = DecisionTree::fit(&set.view(), cfg_tree);
        let plain_eval = evaluate(&plain, &set.view());
        assert_eq!(
            plain_eval.recall(1),
            0.0,
            "the pocket's local majority is healthy, so a plain tree misses the minority"
        );

        // Boosting upweights the 8 misclassified instances each round until
        // the pocket's *weighted* majority flips in the final tree.
        let boosted = AdaBoost::fit(
            &set.view(),
            BoostConfig { iterations: 15, mode: BoostMode::LastTree, tree: cfg_tree },
        );
        let eval = evaluate(&boosted, &set.view());
        assert!(eval.recall(1) > 0.9, "boosted recall {}", eval.recall(1));
    }

    #[test]
    fn ensemble_mode_votes() {
        let set = skewed();
        let model = AdaBoost::fit(
            &set.view(),
            BoostConfig {
                iterations: 10,
                mode: BoostMode::Ensemble,
                tree: TreeConfig { alpha_fraction: 0.05, max_depth: 10 },
            },
        );
        assert!(model.n_members() >= 1);
        let eval = evaluate(&model, &set.view());
        assert!(eval.accuracy() > 0.9, "accuracy {}", eval.accuracy());
    }

    #[test]
    fn perfect_learner_short_circuits() {
        // Perfectly separable: first tree is exact; boosting stops early.
        let instances: Vec<Instance> = (0..40)
            .map(|i| Instance { features: vec![(i % 2) as u8], label: (i % 2) as u8, weight: 1.0 })
            .collect();
        let set = LearnSet::new(instances, vec![2], 2);
        let model = AdaBoost::fit(
            &set.view(),
            BoostConfig {
                iterations: 15,
                mode: BoostMode::Ensemble,
                tree: TreeConfig { alpha_fraction: 0.0, max_depth: 5 },
            },
        );
        assert_eq!(model.n_members(), 1);
        assert_eq!(evaluate(&model, &set.view()).accuracy(), 1.0);
    }

    #[test]
    fn multiclass_boosting() {
        let instances: Vec<Instance> = (0..5u8)
            .flat_map(|a| {
                std::iter::repeat_n(
                    Instance { features: vec![a], label: a.min(2), weight: 1.0 },
                    12,
                )
            })
            .collect();
        let set = LearnSet::new(instances, vec![5], 3);
        let model = AdaBoost::fit_default(&set.view());
        assert_eq!(evaluate(&model, &set.view()).accuracy(), 1.0);
        assert_eq!(model.mode(), BoostMode::LastTree);
        assert_eq!(model.n_members(), 1);
    }
}
