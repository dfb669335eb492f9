//! C4.5-style decision trees (§6.1).
//!
//! The paper: "we turn to decision tree classifiers (the C4.5 algorithm).
//! Decision trees are better equipped to capture the limited set of
//! unhealthy cases, because they can model arbitrary boundaries between
//! cases. Furthermore, they are intuitive for operators to understand."
//!
//! Implementation notes:
//!
//! * Features are categorical bins → **multiway splits**, one child per bin.
//! * Split selection by **gain ratio** (information gain / split info), the
//!   C4.5 criterion; features with non-positive gain are never split on.
//! * Positions carry **weights** so the same builder serves AdaBoost.
//! * Split search is **one fused pass** per node: every candidate feature's
//!   (bin, class) and bin sums fill one reused scratch buffer, summed in
//!   position order so the floats never depend on the layout.
//! * **α-pruning**: a branch reached by less than `alpha_fraction` of the
//!   total training weight becomes a leaf labelled with the majority class
//!   of the data reaching it (the paper sets α = 1 % of all data).
//! * Prediction for a bin never seen during training falls back to the
//!   node's majority class.

use crate::data::{Classifier, View};
use serde::{Deserialize, Serialize};

/// Tree-building configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Branches reached by less than this fraction of total training weight
    /// are pruned to leaves (the paper's α = 0.01).
    pub alpha_fraction: f64,
    /// Hard depth cap (safety net; the α rule terminates long before).
    pub max_depth: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self { alpha_fraction: 0.01, max_depth: 30 }
    }
}

/// A trained decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        label: u8,
    },
    Split {
        feature: usize,
        /// Majority label at this node (fallback for unseen bins).
        majority: u8,
        /// One child per feature bin.
        children: Vec<Node>,
    },
}

impl DecisionTree {
    /// Train on a weighted view, every feature a candidate.
    ///
    /// # Panics
    /// Panics on an empty view.
    pub fn fit(view: &View, config: TreeConfig) -> Self {
        let all: Vec<usize> = (0..view.set.n_features()).collect();
        Self::fit_on(view, &all, config)
    }

    /// Train considering only `candidates` (ascending feature indices) for
    /// splits, as a random forest's trees do.
    pub(crate) fn fit_on(view: &View, candidates: &[usize], config: TreeConfig) -> Self {
        assert!(!view.rows.is_empty(), "cannot train a tree on an empty dataset");
        let min_weight = config.alpha_fraction * view.total_weight();
        let mut grower = Grower::new(view, candidates, min_weight);
        Self { root: grower.grow(0, view.rows.len(), config.max_depth) }
    }

    /// Train with the default configuration (α = 1 %).
    pub fn fit_default(view: &View) -> Self {
        Self::fit(view, TreeConfig::default())
    }

    /// Total node count (splits + leaves).
    pub fn n_nodes(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { children, .. } => 1 + children.iter().map(count).sum::<usize>(),
            }
        }
        count(&self.root)
    }

    /// Maximum depth (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn depth(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { children, .. } => {
                    1 + children.iter().map(depth).max().unwrap_or(0)
                }
            }
        }
        depth(&self.root)
    }

    /// The feature index at the root split, if the tree is not a single leaf.
    /// §6.2: "the management practice with the strongest statistical
    /// dependence ... is the root of the tree".
    pub fn root_feature(&self) -> Option<usize> {
        match &self.root {
            Node::Leaf { .. } => None,
            Node::Split { feature, .. } => Some(*feature),
        }
    }

    /// Render the top `depth_limit` levels as indented text (Figure 10).
    /// `feature_names` and `class_names` give human-readable labels.
    pub fn render(&self, depth_limit: usize, feature_names: &[&str], class_names: &[&str]) -> String {
        let mut out = String::new();
        render_node(&self.root, 0, depth_limit, feature_names, class_names, &mut out, "");
        out
    }
}

fn render_node(
    node: &Node,
    depth: usize,
    limit: usize,
    features: &[&str],
    classes: &[&str],
    out: &mut String,
    prefix: &str,
) {
    match node {
        Node::Leaf { label } => {
            out.push_str(&format!("{prefix}→ {}\n", classes[usize::from(*label)]));
        }
        Node::Split { feature, majority, children } => {
            if depth >= limit {
                out.push_str(&format!(
                    "{prefix}[{}] … (subtree elided; majority {})\n",
                    features[*feature],
                    classes[usize::from(*majority)]
                ));
                return;
            }
            out.push_str(&format!("{prefix}[{}]\n", features[*feature]));
            let bins = ["very low", "low", "medium", "high", "very high"];
            for (bin, child) in children.iter().enumerate() {
                let bin_name = bins.get(bin).copied().unwrap_or("bin");
                out.push_str(&format!("{prefix}  {bin_name}:\n"));
                render_node(child, depth + 1, limit, features, classes, out, &format!("{prefix}    "));
            }
        }
    }
}

/// Weighted Shannon entropy (nats would do; bits for consistency).
fn entropy_of(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    weights
        .iter()
        .filter(|&&w| w > 0.0)
        .map(|&w| {
            let p = w / total;
            -p * p.log2()
        })
        .sum()
}

/// Gain ratio of one candidate feature from its `cells` (`arity × k`
/// per-(bin, class) sums) and `bins` (per-bin sums); `None` when the split
/// is degenerate (single populated bin or non-positive gain). `parent` is
/// scratch of length `k`.
fn gain_ratio(cells: &[f64], bins: &[f64], total: f64, parent: &mut [f64]) -> Option<f64> {
    let populated = bins.iter().filter(|&&w| w > 0.0).count();
    if populated < 2 || total <= 0.0 {
        return None;
    }
    let k = parent.len();
    parent.fill(0.0);
    for bc in cells.chunks_exact(k) {
        for (a, b) in parent.iter_mut().zip(bc) {
            *a += b;
        }
    }
    let children: f64 =
        bins.iter().zip(cells.chunks_exact(k)).map(|(&w, bc)| w / total * entropy_of(bc)).sum();
    let gain = entropy_of(parent) - children;
    if gain <= 1e-12 {
        return None;
    }
    let split_info = entropy_of(bins);
    if split_info <= 1e-12 {
        return None;
    }
    Some(gain / split_info)
}

/// The C4.5 builder of one fit. A node is a range of `order`, the view's
/// positions; the scratch buffers are sized once and reused by every node.
/// Every sum runs in position order with one accumulator per cell, so the
/// floats match a row-at-a-time builder bit for bit.
struct Grower<'v, 'a> {
    view: &'v View<'a>,
    /// Candidate features, ascending (so `max_by` breaks ties as a scan of
    /// all features would), each with the start of its block in `sums`:
    /// `arity × k` (bin, class) cells, then `arity` bin cells.
    candidates: Vec<(usize, usize)>,
    sums: Vec<f64>,
    class_w: Vec<f64>,
    parent: Vec<f64>,
    order: Vec<usize>,
    spare: Vec<usize>,
    min_weight: f64,
}

impl<'v, 'a> Grower<'v, 'a> {
    fn new(view: &'v View<'a>, features: &[usize], min_weight: f64) -> Self {
        let k = usize::from(view.set.n_classes());
        let mut len = 0;
        let mut candidates = Vec::with_capacity(features.len());
        for &f in features {
            candidates.push((f, len));
            len += usize::from(view.set.feature_arity()[f]) * (k + 1);
        }
        Self {
            view,
            candidates,
            sums: vec![0.0; len],
            class_w: vec![0.0; k],
            parent: vec![0.0; k],
            order: (0..view.rows.len()).collect(),
            spare: Vec::with_capacity(view.rows.len()),
            min_weight,
        }
    }

    fn grow(&mut self, lo: usize, hi: usize, depth_left: usize) -> Node {
        // The node's per-class and total weight.
        let View { set, rows, weights } = self.view;
        self.class_w.fill(0.0);
        let mut weight = 0.0;
        for &p in &self.order[lo..hi] {
            if let Some(cw) = self.class_w.get_mut(usize::from(set.labels[rows[p]])) {
                *cw += weights[p];
            }
            weight += weights[p];
        }
        let classes = self.class_w.iter().enumerate();
        let maj = classes.max_by(|a, b| a.1.total_cmp(b.1)).expect("at least one class").0 as u8;

        // α-pruning and stopping rules.
        if depth_left == 0 || weight < self.min_weight || entropy_of(&self.class_w) <= 1e-12 {
            return Node::Leaf { label: maj };
        }
        let Some(feature) = self.best_split(lo, hi, weight) else {
            return Node::Leaf { label: maj };
        };
        // One child per bin, in bin order; an empty bin is a majority leaf.
        let mut start = lo;
        let children = (0..set.feature_arity()[feature])
            .map(|bin| {
                let run = self.take_bin(start, hi, feature, bin);
                start += run;
                match run {
                    0 => Node::Leaf { label: maj },
                    _ => self.grow(start - run, start, depth_left - 1),
                }
            })
            .collect();
        Node::Split { feature, majority: maj, children }
    }

    /// Split search: one fused pass over the node's positions fills every
    /// candidate's sums, then the best gain ratio wins.
    fn best_split(&mut self, lo: usize, hi: usize, total: f64) -> Option<usize> {
        let View { set, rows, weights } = self.view;
        let (k, arity) = (self.class_w.len(), set.feature_arity());
        self.sums.fill(0.0);
        for &p in &self.order[lo..hi] {
            let (row, c, w) = (set.row(rows[p]), usize::from(set.labels[rows[p]]), weights[p]);
            for &(f, block) in &self.candidates {
                let (b, a) = (usize::from(row[f]), usize::from(arity[f]));
                self.sums[block + b * k + c] += w;
                self.sums[block + a * k + b] += w;
            }
        }
        mpa_obs::counters::LEARN_SPLIT_ROWS.add(((hi - lo) * self.candidates.len()) as u64);

        let (sums, parent) = (&self.sums, &mut self.parent);
        self.candidates
            .iter()
            .filter_map(|&(f, block)| {
                let a = usize::from(arity[f]);
                let end = block + a * k + a;
                let (cells, bins) = sums[block..end].split_at(a * k);
                gain_ratio(cells, bins, total, parent).map(|g| (f, g))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(f, _)| f)
    }

    /// Move the positions in `order[lo..hi]` whose `feature` falls in `bin`
    /// to the front, both parts keeping their order, and count them.
    fn take_bin(&mut self, lo: usize, hi: usize, feature: usize, bin: u8) -> usize {
        let View { set, rows, .. } = self.view;
        let node = &mut self.order[lo..hi];
        self.spare.clear();
        let mut run = 0;
        for i in 0..node.len() {
            let p = node[i];
            if set.row(rows[p])[feature] == bin {
                node[run] = p;
                run += 1;
            } else {
                self.spare.push(p);
            }
        }
        node[run..].copy_from_slice(&self.spare);
        run
    }
}

impl Classifier for DecisionTree {
    fn predict(&self, features: &[u8]) -> u8 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label } => return *label,
                Node::Split { feature, majority, children } => {
                    let b = usize::from(features[*feature]);
                    match children.get(b) {
                        Some(child) => node = child,
                        None => return *majority,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Instance, LearnSet};

    fn set_from(rows: &[(&[u8], u8)], arity: Vec<u8>, n_classes: u8) -> LearnSet {
        LearnSet::new(
            rows.iter()
                .map(|(f, l)| Instance { features: f.to_vec(), label: *l, weight: 1.0 })
                .collect(),
            arity,
            n_classes,
        )
    }

    #[test]
    fn learns_a_single_feature_rule() {
        let rows: Vec<(Vec<u8>, u8)> =
            (0..5u8).flat_map(|a| (0..5u8).map(move |b| (vec![a, b], u8::from(a >= 3)))).collect();
        let refs: Vec<(&[u8], u8)> = rows.iter().map(|(f, l)| (f.as_slice(), *l)).collect();
        let set = set_from(&refs, vec![5, 5], 2);
        let tree = DecisionTree::fit(&set.view(), TreeConfig { alpha_fraction: 0.0, max_depth: 10 });
        assert_eq!(tree.root_feature(), Some(0), "feature 0 is the informative one");
        for (i, label) in set.labels.iter().enumerate() {
            assert_eq!(tree.predict(set.row(i)), *label);
        }
    }

    #[test]
    fn learns_a_conjunction_which_needs_two_levels() {
        // label = (a == 1 && b == 1). Unlike XOR, each feature has positive
        // marginal gain (a true C4.5 can never split on zero-gain XOR), but
        // no single split suffices.
        let rows: Vec<(Vec<u8>, u8)> = (0..2u8)
            .flat_map(|a| (0..2u8).map(move |b| (vec![a, b], a & b)))
            .flat_map(|r| std::iter::repeat_n(r, 10))
            .collect();
        let refs: Vec<(&[u8], u8)> = rows.iter().map(|(f, l)| (f.as_slice(), *l)).collect();
        let set = set_from(&refs, vec![2, 2], 2);
        let tree = DecisionTree::fit(&set.view(), TreeConfig { alpha_fraction: 0.0, max_depth: 10 });
        for (i, label) in set.labels.iter().enumerate() {
            assert_eq!(tree.predict(set.row(i)), *label, "{:?}", set.row(i));
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn c45_cannot_split_on_pure_xor() {
        // Documents the classic C4.5 behaviour: XOR has zero marginal gain
        // for every feature, so the root never splits.
        let rows: Vec<(Vec<u8>, u8)> = (0..2u8)
            .flat_map(|a| (0..2u8).map(move |b| (vec![a, b], a ^ b)))
            .flat_map(|r| std::iter::repeat_n(r, 10))
            .collect();
        let refs: Vec<(&[u8], u8)> = rows.iter().map(|(f, l)| (f.as_slice(), *l)).collect();
        let set = set_from(&refs, vec![2, 2], 2);
        let tree = DecisionTree::fit(&set.view(), TreeConfig { alpha_fraction: 0.0, max_depth: 10 });
        assert_eq!(tree.n_nodes(), 1);
    }

    #[test]
    fn alpha_pruning_stops_splitting_small_branches() {
        // Bin 4 of feature 0 holds 10 instances (6 label-1, 4 label-0,
        // separable by feature 1). With α = 5% of 200 = weight 10... set
        // α = 10% so the 10-instance branch is below threshold: it becomes
        // a leaf labelled with *its own* majority (the paper: "a leaf whose
        // label is the majority class among the data points reaching that
        // leaf"), not the global majority.
        // Majority mass alternates feature 1 so it carries no gain at the
        // root (otherwise the tree may legitimately split on it first).
        let mut rows: Vec<(Vec<u8>, u8)> =
            (0..190).map(|i| (vec![0u8, (i % 2) as u8], 0u8)).collect();
        for i in 0..10u8 {
            // feature1 = 1 → label 1 (6 of them); feature1 = 0 → label 0 (4).
            let f1 = u8::from(i < 6);
            rows.push((vec![4, f1], f1));
        }
        let refs: Vec<(&[u8], u8)> = rows.iter().map(|(f, l)| (f.as_slice(), *l)).collect();
        let set = set_from(&refs, vec![5, 2], 2);

        let pruned = DecisionTree::fit(&set.view(), TreeConfig { alpha_fraction: 0.1, max_depth: 10 });
        // The small branch may not be refined: both feature-1 values predict
        // the branch majority (label 1).
        assert_eq!(pruned.predict(&[4, 0]), 1, "pruned to branch majority");
        assert_eq!(pruned.predict(&[4, 1]), 1);

        let unpruned = DecisionTree::fit(&set.view(), TreeConfig { alpha_fraction: 0.0, max_depth: 10 });
        assert_eq!(unpruned.predict(&[4, 0]), 0, "unpruned tree refines the branch");
        assert_eq!(unpruned.predict(&[4, 1]), 1);
        assert!(pruned.n_nodes() < unpruned.n_nodes());
    }

    #[test]
    fn respects_instance_weights() {
        // Two contradictory labelings of the same feature value; weights
        // decide the majority.
        let set = LearnSet::new(
            vec![
                Instance { features: vec![0], label: 0, weight: 1.0 },
                Instance { features: vec![0], label: 1, weight: 10.0 },
            ],
            vec![2],
            2,
        );
        let tree = DecisionTree::fit_default(&set.view());
        assert_eq!(tree.predict(&[0]), 1);
    }

    #[test]
    fn pure_node_is_a_leaf() {
        let set = set_from(&[(&[0u8][..], 1), (&[1u8][..], 1), (&[2u8][..], 1)], vec![3], 2);
        let tree = DecisionTree::fit_default(&set.view());
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&[2]), 1);
    }

    #[test]
    fn render_shows_feature_names_and_elides_deep_levels() {
        let rows: Vec<(Vec<u8>, u8)> = (0..3u8)
            .flat_map(|a| (0..3u8).map(move |b| (vec![a, b], u8::from(a == 2 && b == 2))))
            .flat_map(|r| std::iter::repeat_n(r, 5))
            .collect();
        let refs: Vec<(&[u8], u8)> = rows.iter().map(|(f, l)| (f.as_slice(), *l)).collect();
        let set = set_from(&refs, vec![3, 3], 2);
        let tree = DecisionTree::fit(&set.view(), TreeConfig { alpha_fraction: 0.0, max_depth: 10 });
        let text = tree.render(1, &["No. of devices", "No. of roles"], &["healthy", "unhealthy"]);
        assert!(text.contains("No. of devices") || text.contains("No. of roles"), "{text}");
        assert!(text.contains("elided") || text.lines().count() > 3);
    }

    #[test]
    fn multiclass_prediction() {
        let rows: Vec<(Vec<u8>, u8)> =
            (0..4u8).flat_map(|a| std::iter::repeat_n((vec![a], a), 20)).collect();
        let refs: Vec<(&[u8], u8)> = rows.iter().map(|(f, l)| (f.as_slice(), *l)).collect();
        let set = set_from(&refs, vec![4], 4);
        let tree = DecisionTree::fit_default(&set.view());
        for c in 0..4u8 {
            assert_eq!(tree.predict(&[c]), c);
        }
    }
}
