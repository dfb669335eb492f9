//! The split-search work counter (`learn_split_rows`), pinned on toy fits.
//! Counters are process-wide, so this file holds a single test: no other
//! fit runs beside it.

use mpa_learn::{DecisionTree, ForestConfig, Instance, LearnSet, RandomForest, TreeConfig};
use mpa_obs::counters::LEARN_SPLIT_ROWS;

fn rows_visited(fit: impl FnOnce()) -> u64 {
    let before = LEARN_SPLIT_ROWS.get();
    fit();
    LEARN_SPLIT_ROWS.get() - before
}

fn row(features: Vec<u8>, label: u8) -> Instance {
    Instance { features, label, weight: 1.0 }
}

#[test]
fn split_search_counts_rows_times_candidate_features() {
    let cfg = TreeConfig { alpha_fraction: 0.0, max_depth: 10 };

    // label = a AND b, 10 rows per cell. The root searches 40 rows × 2
    // features; the tie goes to b, whose bin-1 child (20 rows, label = a)
    // is searched once more. Every other node is pure and never searched.
    let cells = (0..2u8).flat_map(|a| (0..2u8).map(move |b| row(vec![a, b], a & b)));
    let and: Vec<Instance> = cells.flat_map(|r| std::iter::repeat_n(r, 10)).collect();
    let and = LearnSet::new(and, vec![2, 2], 2);
    let visited = rows_visited(|| {
        DecisionTree::fit(&and.view(), cfg);
    });
    assert_eq!(visited, 40 * 2 + 20 * 2);

    // Nine features that each equal the label: the root is the only node
    // searched. A lone tree scans all nine features there; a forest tree
    // scans only its ⌈√9⌉ = 3 candidates, over its 40-row bootstrap.
    let copies: Vec<Instance> = (0..40u8).map(|i| row(vec![i % 2; 9], i % 2)).collect();
    let copies = LearnSet::new(copies, vec![2; 9], 2);
    let visited = rows_visited(|| {
        DecisionTree::fit(&copies.view(), cfg);
    });
    assert_eq!(visited, 40 * 9);
    let forest = ForestConfig { n_trees: 1, ..ForestConfig::default() };
    let visited = rows_visited(|| {
        RandomForest::fit(&copies.view(), forest);
    });
    assert_eq!(visited, 40 * 3);
}
