//! Linear SVM baseline (Pegasos), §6.1.
//!
//! "An intuitive place to start is support vector machines ... However, we
//! found the SVMs performed worse than a simple majority classifier. This
//! is due to unhealthy cases being concentrated in a small part of the
//! management practice space." — the benches reproduce that comparison.
//!
//! Features are one-hot encoded (bin b of feature j → one indicator), which
//! is the honest linear treatment of categorical bins; multi-class is
//! one-vs-rest with the margin argmax.

use crate::data::{Classifier, View};
use mpa_stats::Sampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// SVM training configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvmConfig {
    /// Regularization parameter λ of Pegasos.
    pub lambda: f64,
    /// Number of stochastic iterations (per class).
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self { lambda: 1e-4, iterations: 50_000, seed: 0x53564D }
    }
}

/// A trained linear one-vs-rest SVM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvm {
    /// One weight vector (plus bias as last element) per class.
    weights: Vec<Vec<f64>>,
    /// Offsets of each feature's one-hot block.
    offsets: Vec<usize>,
    dim: usize,
}

impl LinearSvm {
    /// Train with the given configuration.
    pub fn fit(view: &View, config: SvmConfig) -> Self {
        assert!(!view.rows.is_empty(), "cannot train an SVM on an empty dataset");
        let mut offsets = Vec::with_capacity(view.set.n_features());
        let mut dim = 0usize;
        for &a in view.set.feature_arity() {
            offsets.push(dim);
            dim += usize::from(a);
        }

        let n = view.rows.len();
        let mut weights = Vec::with_capacity(usize::from(view.set.n_classes()));
        for class in 0..view.set.n_classes() {
            let mut rng = StdRng::seed_from_u64(config.seed ^ u64::from(class));
            let mut s = Sampler::new(&mut rng);
            let mut w = vec![0.0; dim + 1]; // +1 bias
            for t in 1..=config.iterations {
                let i = s.uniform_range(0, n as u64 - 1) as usize;
                let (features, label) = (view.set.row(view.rows[i]), view.set.labels[view.rows[i]]);
                let y = if label == class { 1.0 } else { -1.0 };
                let eta = 1.0 / (config.lambda * t as f64);
                // margin = w·x + b over the active one-hot indices.
                let mut margin = w[dim];
                for (j, &v) in features.iter().enumerate() {
                    // mpa-lint: allow(R7) -- offsets[j] + v indexes feature j's one-hot block; v < its arity by encoding
                    margin += w[offsets[j] + usize::from(v)];
                }
                // Regularization shrink (not applied to bias).
                let shrink = 1.0 - eta * config.lambda;
                for wj in w[..dim].iter_mut() {
                    *wj *= shrink;
                }
                if y * margin < 1.0 {
                    for (j, &v) in features.iter().enumerate() {
                        // mpa-lint: allow(R7) -- offsets[j] + v indexes feature j's one-hot block; v < its arity by encoding
                        w[offsets[j] + usize::from(v)] += eta * y;
                    }
                    w[dim] += eta * y * 0.1; // damped bias update
                }
            }
            weights.push(w);
        }
        Self { weights, offsets, dim }
    }

    /// Train with defaults.
    pub fn fit_default(view: &View) -> Self {
        Self::fit(view, SvmConfig::default())
    }

    fn margin(&self, class: usize, features: &[u8]) -> f64 {
        let w = &self.weights[class];
        let mut m = w[self.dim];
        for (j, &v) in features.iter().enumerate() {
            // mpa-lint: allow(R7) -- offsets[j] + v indexes feature j's one-hot block; v < its arity by encoding
            m += w[self.offsets[j] + usize::from(v)];
        }
        m
    }
}

impl Classifier for LinearSvm {
    fn predict(&self, features: &[u8]) -> u8 {
        let margin = |class| self.margin(class, features);
        let best = (0..self.weights.len()).max_by(|&a, &b| margin(a).total_cmp(&margin(b)));
        best.expect("at least one class") as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Instance, LearnSet};
    use crate::eval::evaluate;

    #[test]
    fn learns_a_linearly_separable_rule() {
        let instances: Vec<Instance> = (0..5u8)
            .flat_map(|a| {
                std::iter::repeat_n(
                    Instance { features: vec![a], label: u8::from(a >= 3), weight: 1.0 },
                    20,
                )
            })
            .collect();
        let set = LearnSet::new(instances, vec![5], 2);
        let svm = LinearSvm::fit(&set.view(), SvmConfig { iterations: 20_000, ..SvmConfig::default() });
        let ev = evaluate(&svm, &set.view());
        assert!(ev.accuracy() > 0.95, "accuracy {}", ev.accuracy());
    }

    #[test]
    fn multiclass_one_vs_rest() {
        let instances: Vec<Instance> = (0..3u8)
            .flat_map(|a| {
                std::iter::repeat_n(Instance { features: vec![a, a], label: a, weight: 1.0 }, 30)
            })
            .collect();
        let set = LearnSet::new(instances, vec![3, 3], 3);
        let svm = LinearSvm::fit_default(&set.view());
        let ev = evaluate(&svm, &set.view());
        assert!(ev.accuracy() > 0.95, "accuracy {}", ev.accuracy());
    }

    #[test]
    fn struggles_when_minority_is_a_small_pocket() {
        // The paper's observation: a linear separator cannot carve out a
        // small pocket of unhealthy cases inside the healthy mass. The
        // pocket (f0=2, f1=2 exactly) is not linearly separable from its
        // neighbours in one-hot space with a dominant majority.
        let mut instances = Vec::new();
        for a in 0..5u8 {
            for b in 0..5u8 {
                let minority = a == 2 && b == 2;
                for _ in 0..(if minority { 3 } else { 20 }) {
                    instances.push(Instance {
                        features: vec![a, b],
                        label: u8::from(minority),
                        weight: 1.0,
                    });
                }
            }
        }
        let set = LearnSet::new(instances, vec![5, 5], 2);
        let svm = LinearSvm::fit_default(&set.view());
        let ev = evaluate(&svm, &set.view());
        assert!(
            ev.recall(1) < 0.5,
            "linear model should miss most of the pocket, recall {}",
            ev.recall(1)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let instances: Vec<Instance> = (0..40)
            .map(|i| Instance { features: vec![(i % 5) as u8], label: (i % 2) as u8, weight: 1.0 })
            .collect();
        let set = LearnSet::new(instances, vec![5], 2);
        let cfg = SvmConfig { iterations: 5_000, ..SvmConfig::default() };
        assert_eq!(LinearSvm::fit(&set.view(), cfg), LinearSvm::fit(&set.view(), cfg));
    }
}
