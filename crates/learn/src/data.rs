//! Learning datasets: binned rows in one flat buffer, and index views over
//! them.
//!
//! Prior to learning, MPA bins every practice metric into 5 equal-width
//! bins and network health into 2 or 5 classes (§6.1). A feature value is
//! therefore a small integer, which keeps decision-tree splitting exact and
//! fast (one child per bin, no threshold search).
//!
//! Every model trains on a [`View`] of a [`LearnSet`]: CV folds, the
//! paper's oversampling, forest bootstraps and AdaBoost's reweighting are
//! all views, so no training path copies a row.

/// One example row, the unit [`LearnSet::new`] packs.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Binned feature values; `features[j] < feature_arity[j]`.
    pub features: Vec<u8>,
    /// Class label, `< n_classes`.
    pub label: u8,
    /// Instance weight (1.0 unless reweighted).
    pub weight: f64,
}

/// A dataset with fixed feature arities and class count: an `n × p`
/// row-major `u8` feature buffer plus a label and a weight column.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnSet {
    features: Vec<u8>,
    pub(crate) labels: Vec<u8>,
    weights: Vec<f64>,
    feature_arity: Vec<u8>,
    n_classes: u8,
}

/// Positions into a [`LearnSet`]'s rows, repeats allowed, with one weight
/// per position. Every sum over a view runs in position order.
#[derive(Debug, Clone, PartialEq)]
pub struct View<'a> {
    pub(crate) set: &'a LearnSet,
    pub(crate) rows: Vec<usize>,
    pub(crate) weights: Vec<f64>,
}

/// Anything that predicts a class from binned features.
pub trait Classifier {
    /// Predict the class of one feature vector.
    fn predict(&self, features: &[u8]) -> u8;
}

impl LearnSet {
    /// Pack rows into a dataset, validating feature/label ranges.
    ///
    /// # Panics
    /// Panics on ragged rows, out-of-range features/labels, or non-positive
    /// weights.
    pub fn new(instances: Vec<Instance>, feature_arity: Vec<u8>, n_classes: u8) -> Self {
        assert!(n_classes >= 2, "need at least two classes");
        let mut features = Vec::with_capacity(instances.len() * feature_arity.len());
        for inst in &instances {
            assert_eq!(inst.features.len(), feature_arity.len(), "ragged feature row");
            for (f, &a) in inst.features.iter().zip(&feature_arity) {
                assert!(*f < a, "feature value {f} out of arity {a}");
            }
            assert!(inst.label < n_classes, "label {} out of range", inst.label);
            assert!(inst.weight > 0.0, "weights must be positive");
            features.extend_from_slice(&inst.features);
        }
        let labels = instances.iter().map(|i| i.label).collect();
        let weights = instances.iter().map(|i| i.weight).collect();
        Self { features, labels, weights, feature_arity, n_classes }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.feature_arity.len()
    }

    /// Arity (bin count) of each feature.
    pub fn feature_arity(&self) -> &[u8] {
        &self.feature_arity
    }

    /// Number of classes.
    pub fn n_classes(&self) -> u8 {
        self.n_classes
    }

    /// The binned features of row `i`.
    pub fn row(&self, i: usize) -> &[u8] {
        let p = self.feature_arity.len();
        &self.features[i * p..i * p + p]
    }

    /// Every row once, in order, with its own weight.
    pub fn view(&self) -> View<'_> {
        self.view_of((0..self.len()).collect())
    }

    /// The given rows, in the given order, each with its own weight.
    pub fn view_of(&self, rows: Vec<usize>) -> View<'_> {
        let weights = rows.iter().map(|&r| self.weights[r]).collect();
        View { set: self, rows, weights }
    }
}

impl<'a> View<'a> {
    /// A view of `rows` of `set` with one weight per position.
    pub(crate) fn new(set: &'a LearnSet, rows: Vec<usize>, weights: Vec<f64>) -> Self {
        assert_eq!(rows.len(), weights.len(), "one weight per position");
        assert!(rows.iter().all(|&r| r < set.len()), "row past the set");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        Self { set, rows, weights }
    }

    /// Label of each position.
    pub fn labels(&self) -> impl Iterator<Item = u8> + '_ {
        self.rows.iter().map(|&r| self.set.labels[r])
    }

    /// Total weight.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Per-class weight totals.
    pub fn class_weights(&self) -> Vec<f64> {
        let mut w = vec![0.0; usize::from(self.set.n_classes)];
        for (label, &wt) in self.labels().zip(&self.weights) {
            if let Some(cw) = w.get_mut(usize::from(label)) {
                *cw += wt;
            }
        }
        w
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Positions per class.
    pub(crate) fn class_counts(view: &View) -> Vec<usize> {
        let mut c = vec![0usize; usize::from(view.set.n_classes())];
        view.labels().for_each(|l| c[usize::from(l)] += 1);
        c
    }

    pub(crate) fn toy() -> LearnSet {
        // label = feature0 > 1
        let instances = (0..4u8)
            .flat_map(|f0| {
                (0..3u8).map(move |f1| Instance {
                    features: vec![f0, f1],
                    label: u8::from(f0 > 1),
                    weight: 1.0,
                })
            })
            .collect();
        LearnSet::new(instances, vec![4, 3], 2)
    }

    #[test]
    fn construction_and_accessors() {
        let s = toy();
        assert_eq!(s.len(), 12);
        assert_eq!(s.n_features(), 2);
        assert_eq!(s.n_classes(), 2);
        assert_eq!(s.row(5), &[1, 2]);
        let v = s.view();
        assert_eq!(v.total_weight(), 12.0);
        assert_eq!(class_counts(&v), vec![6, 6]);
        assert_eq!(v.class_weights(), vec![6.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "out of arity")]
    fn out_of_range_feature_panics() {
        LearnSet::new(
            vec![Instance { features: vec![5], label: 0, weight: 1.0 }],
            vec![4],
            2,
        );
    }

    #[test]
    #[should_panic(expected = "label")]
    fn out_of_range_label_panics() {
        LearnSet::new(
            vec![Instance { features: vec![0], label: 3, weight: 1.0 }],
            vec![4],
            2,
        );
    }

    #[test]
    fn views_repeat_rows_without_copying_them() {
        let s = toy();
        let sub = s.view_of(vec![0, 5, 5, 11]);
        assert_eq!(sub.labels().collect::<Vec<_>>(), vec![0, 0, 0, 1]);
        assert_eq!(class_counts(&sub), vec![3, 1]);
        let w: Vec<f64> = (1..=4).map(f64::from).collect();
        let v = View::new(&s, sub.rows.clone(), w);
        assert_eq!(v.rows.len(), 4);
        assert_eq!(v.total_weight(), 10.0);
        assert_eq!(v.class_weights(), vec![6.0, 4.0]);
    }
}
