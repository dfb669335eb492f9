//! # mpa-learn — learning substrate for Management Plane Analytics
//!
//! Everything §6 of the paper needs, implemented from scratch on binned
//! categorical features:
//!
//! * [`data`] — the learning dataset: one flat row-major buffer of small
//!   categorical features (the 5-bin discretization of §6.1) with label
//!   and weight columns, and the index views every model trains on.
//! * [`tree`] — C4.5-style decision trees: multiway splits chosen by gain
//!   ratio, weighted positions (for boosting), and the paper's α-pruning
//!   ("each branch where the number of data points ... is below a threshold
//!   α is replaced with a leaf", α = 1% of all data). Trees render to text
//!   for Figure 10.
//! * [`boost`] — AdaBoost (multi-class SAMME), 15 iterations; both the
//!   conventional ensemble vote the pipeline uses and the paper's literal
//!   variant (the final tree is trained on the last iteration's weights).
//! * [`sampling`] — minority-class oversampling as repeated view positions.
//! * [`forest`] — random forests, plus the balanced and weighted variants
//!   the paper's footnote 2 compares against.
//! * [`svm`] — a linear one-vs-rest SVM (Pegasos); the baseline §6.1 found
//!   performs worse than a majority classifier.
//! * [`baseline`] — the majority-class predictor.
//! * [`eval`] — accuracy / per-class precision & recall / confusion
//!   matrices, and seeded k-fold cross-validation.

pub mod baseline;
pub mod boost;
pub mod data;
pub mod eval;
pub mod forest;
pub mod sampling;
pub mod svm;
pub mod tree;

pub use baseline::MajorityClassifier;
pub use boost::{AdaBoost, BoostMode};
pub use data::{Classifier, Instance, LearnSet, View};
pub use eval::{cross_validate, evaluate, Evaluation};
pub use forest::{ForestConfig, ForestVariant, RandomForest};
pub use sampling::oversample;
pub use svm::LinearSvm;
pub use tree::{DecisionTree, TreeConfig};
