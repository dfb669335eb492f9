//! Random forests, including the balanced and weighted variants.
//!
//! Footnote 2 of the paper: "We also experimented with random forests;
//! neither balanced nor weighted random forests improve the accuracy for
//! the minority classes beyond the improvements we are already able to
//! achieve with boosting and oversampling." The benches reproduce that
//! comparison, so all three variants are implemented:
//!
//! * [`ForestVariant::Plain`] — bootstrap sample per tree, random feature
//!   subset (⌈√p⌉) considered at tree level.
//! * [`ForestVariant::Balanced`] — per-tree training set is a balanced
//!   bootstrap: an equal number of samples drawn (with replacement) from
//!   each class.
//! * [`ForestVariant::Weighted`] — classes are weighted inversely to their
//!   frequency, so minority errors cost more during tree induction.

use crate::data::{Classifier, View};
use crate::tree::{DecisionTree, TreeConfig};
use mpa_stats::Sampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Forest flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForestVariant {
    /// Plain bootstrap forest.
    Plain,
    /// Balanced bootstrap per tree.
    Balanced,
    /// Inverse-frequency class weights.
    Weighted,
}

/// Forest configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Variant.
    pub variant: ForestVariant,
    /// RNG seed for bootstraps and feature subsets.
    pub seed: u64,
    /// Per-tree configuration (forests typically grow deep, lightly pruned
    /// trees, so the default α here is much smaller than a lone tree's).
    pub tree: TreeConfig,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 25,
            variant: ForestVariant::Plain,
            seed: 0x666F_7265,
            tree: TreeConfig { alpha_fraction: 0.002, max_depth: 30 },
        }
    }
}

/// A trained random forest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: u8,
}

impl RandomForest {
    /// Train a forest. Each tree trains on a bootstrap view of `view`'s
    /// positions and considers only its ⌈√p⌉ randomly drawn features.
    ///
    /// # Panics
    /// Panics on an empty view or zero trees.
    pub fn fit(view: &View, config: ForestConfig) -> Self {
        assert!(!view.rows.is_empty(), "cannot train a forest on an empty dataset");
        assert!(config.n_trees >= 1, "need at least one tree");
        let set = view.set;
        let n = view.rows.len();
        let p = set.n_features();
        let subset_size = (p as f64).sqrt().ceil() as usize;

        // Per-class position pools (for balanced bootstraps) and class
        // weights: inverse frequency for the weighted variant, else 1.
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); usize::from(set.n_classes())];
        for (pos, label) in view.labels().enumerate() {
            if let Some(pool) = by_class.get_mut(usize::from(label)) {
                pool.push(pos);
            }
        }
        let class_weight: Vec<f64> = by_class
            .iter()
            .map(|pool| match config.variant {
                ForestVariant::Weighted if !pool.is_empty() => n as f64 / pool.len() as f64,
                _ => 1.0,
            })
            .collect();

        // Each tree draws from its own RNG stream keyed by (forest seed,
        // tree index), so trees can be fitted on any number of threads and
        // the forest comes out identical.
        let tree_ixs: Vec<u64> = (0..config.n_trees as u64).collect();
        let trees = mpa_exec::par_map(&tree_ixs, |_, &tree_ix| {
            let mut rng = StdRng::seed_from_u64(mpa_exec::stream_seed(config.seed, tree_ix));
            let mut s = Sampler::new(&mut rng);
            // Bootstrap.
            let sample: Vec<usize> = match config.variant {
                ForestVariant::Plain | ForestVariant::Weighted => {
                    (0..n).map(|_| s.uniform_range(0, n as u64 - 1) as usize).collect()
                }
                ForestVariant::Balanced => {
                    let nonempty: Vec<&Vec<usize>> =
                        by_class.iter().filter(|pool| !pool.is_empty()).collect();
                    let per_class = (n / nonempty.len()).max(1);
                    let mut sample = Vec::with_capacity(per_class * nonempty.len());
                    for pool in &nonempty {
                        // `nonempty` filtered zero-member pools out above,
                        // so the draw bound cannot underflow.
                        let last = pool.len() as u64 - 1;
                        for _ in 0..per_class {
                            sample.extend(pool.get(s.uniform_range(0, last) as usize).copied());
                        }
                    }
                    sample
                }
            };

            // Random feature subset, sorted so the tree scans candidates in
            // the order it would scan all features.
            let mut candidates = s.sample_indices(p, subset_size.clamp(1, p));
            candidates.sort_unstable();
            let rows: Vec<usize> = sample.iter().map(|&pos| view.rows[pos]).collect();
            let weight_of = |r: usize| class_weight.get(usize::from(set.labels[r])).copied();
            let weights = rows.iter().map(|&r| weight_of(r).unwrap_or(1.0)).collect();
            DecisionTree::fit_on(&View::new(set, rows, weights), &candidates, config.tree)
        });
        Self { trees, n_classes: set.n_classes() }
    }

    /// Train with defaults.
    pub fn fit_default(view: &View) -> Self {
        Self::fit(view, ForestConfig::default())
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Classifier for RandomForest {
    fn predict(&self, features: &[u8]) -> u8 {
        // Each tree splits only on its own candidate features, so it reads
        // nothing else of the row.
        let mut votes = vec![0usize; usize::from(self.n_classes)];
        for tree in &self.trees {
            if let Some(v) = votes.get_mut(usize::from(tree.predict(features))) {
                *v += 1;
            }
        }
        votes.iter().enumerate().max_by_key(|(_, &v)| v).expect("non-empty").0 as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Instance, LearnSet};
    use crate::eval::evaluate;

    fn noisy_rule_set(n: usize) -> LearnSet {
        // label depends on features 0 and 1; features 2..5 are noise.
        let instances = (0..n)
            .map(|i| {
                let f0 = (i % 5) as u8;
                let f1 = ((i / 5) % 5) as u8;
                Instance {
                    features: vec![f0, f1, (i % 3) as u8, ((i * 7) % 5) as u8, ((i * 11) % 5) as u8],
                    label: u8::from(f0 + f1 >= 5),
                    weight: 1.0,
                }
            })
            .collect();
        LearnSet::new(instances, vec![5, 5, 3, 5, 5], 2)
    }

    #[test]
    fn forest_learns_the_rule() {
        let set = noisy_rule_set(500);
        let forest = RandomForest::fit_default(&set.view());
        let ev = evaluate(&forest, &set.view());
        assert!(ev.accuracy() > 0.9, "accuracy {}", ev.accuracy());
        assert_eq!(forest.n_trees(), 25);
    }

    #[test]
    fn balanced_forest_improves_minority_recall_on_skewed_data() {
        // 95:5 skew; minority lives at f0=4,f1=4.
        let mut instances = Vec::new();
        for i in 0..400 {
            instances.push(Instance {
                features: vec![(i % 4) as u8, (i % 3) as u8],
                label: 0,
                weight: 1.0,
            });
        }
        for _ in 0..20 {
            instances.push(Instance { features: vec![4, 4], label: 1, weight: 1.0 });
        }
        let set = LearnSet::new(instances, vec![5, 5], 2);
        let balanced = RandomForest::fit(
            &set.view(),
            ForestConfig { variant: ForestVariant::Balanced, ..ForestConfig::default() },
        );
        let ev = evaluate(&balanced, &set.view());
        assert!(ev.recall(1) > 0.9, "balanced recall {}", ev.recall(1));
    }

    #[test]
    fn weighted_forest_runs_and_is_reasonable() {
        let set = noisy_rule_set(300);
        let weighted = RandomForest::fit(
            &set.view(),
            ForestConfig { variant: ForestVariant::Weighted, ..ForestConfig::default() },
        );
        assert!(evaluate(&weighted, &set.view()).accuracy() > 0.85);
    }

    #[test]
    fn deterministic_per_seed() {
        let set = noisy_rule_set(200);
        let a = RandomForest::fit(&set.view(), ForestConfig::default());
        let b = RandomForest::fit(&set.view(), ForestConfig::default());
        assert_eq!(a, b);
        let c = RandomForest::fit(&set.view(), ForestConfig { seed: 99, ..ForestConfig::default() });
        assert_ne!(a, c);
    }
}
