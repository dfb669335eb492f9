//! Entropy, mutual information and conditional mutual information.
//!
//! The paper uses:
//!
//! * **Normalized entropy** (§2.2, line D3) for hardware/firmware
//!   heterogeneity: `−Σᵢⱼ pᵢⱼ log₂ pᵢⱼ / log₂ N`.
//! * **Mutual information** (§5.1.1) between a binned practice metric and
//!   binned network health: `MI(X;Y) = H(Y) − H(Y|X)`.
//! * **Conditional mutual information** between practice pairs given health:
//!   `CMI(X₁;X₂|Y) = H(X₁|Y) − H(X₁|X₂,Y)`.
//!
//! All quantities use base-2 logarithms (bits) and plug-in (empirical)
//! probability estimates, matching the paper's methodology.
//!
//! The variables are `u8` bin codes below a stated `arity` (10 for the
//! §5.1.1 bins), counted densely: cell `(x, y)` of a joint count sits at
//! `x·arity + y` (10, 100 and 1000 cells at 10 bins). Each entropy sums
//! `−p log₂ p` over the non-zero cells in ascending cell order, which is the
//! symbols' lexicographic order, so it adds the same terms in the same order
//! as counting into an ordered map, bit for bit (the map count is the unit
//! tests' oracle).

/// `−Σ p log₂ p` over the non-zero cells of `counts`, in cell order, with
/// `p = count / n`. 0.0 for an empty sample.
fn entropy_of_counts(counts: &[u32], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = f64::from(c) / n;
            -p * p.log2()
        })
        .sum()
}

/// Mutual information MI(X;Y) = H(Y) − H(Y|X) of paired code columns
/// whose codes are below `arity`, with H(Y|X) = H(X,Y) − H(X); both
/// differences are clamped to ≥ 0 against floating-point cancellation.
///
/// # Panics
/// Panics if the slices differ in length or a code is not below `arity`.
pub fn mutual_information(xs: &[u8], ys: &[u8], arity: usize) -> f64 {
    assert_eq!(xs.len(), ys.len(), "MI needs paired samples");
    let mut c_x = vec![0u32; arity];
    let mut c_y = vec![0u32; arity];
    let mut c_xy = vec![0u32; arity * arity];
    for (&x, &y) in xs.iter().zip(ys) {
        let (x, y) = (usize::from(x), usize::from(y));
        c_x[x] += 1;
        c_y[y] += 1;
        c_xy[x * arity + y] += 1;
    }
    let n = xs.len();
    let h_y_given_x = (entropy_of_counts(&c_xy, n) - entropy_of_counts(&c_x, n)).max(0.0);
    (entropy_of_counts(&c_y, n) - h_y_given_x).max(0.0)
}

/// Conditional mutual information CMI(X₁;X₂|Y) = H(X₁|Y) − H(X₁|X₂,Y) of
/// code columns whose codes are below `arity`.
///
/// Computed via joint entropies: `H(X₁,Y) − H(Y) − H(X₁,X₂,Y) + H(X₂,Y)`.
/// Symmetric in X₁ and X₂.
///
/// # Panics
/// Panics if the slices differ in length or a code is not below `arity`.
pub fn conditional_mutual_information(x1: &[u8], x2: &[u8], ys: &[u8], arity: usize) -> f64 {
    assert_eq!(x1.len(), x2.len(), "CMI needs paired samples");
    assert_eq!(x1.len(), ys.len(), "CMI needs paired samples");
    let mut c_y = vec![0u32; arity];
    let mut c_x1y = vec![0u32; arity * arity];
    let mut c_x2y = vec![0u32; arity * arity];
    let mut c_x1x2y = vec![0u32; arity * arity * arity];
    for ((&a, &b), &y) in x1.iter().zip(x2).zip(ys) {
        let (a, b, y) = (usize::from(a), usize::from(b), usize::from(y));
        c_y[y] += 1;
        c_x1y[a * arity + y] += 1;
        c_x2y[b * arity + y] += 1;
        c_x1x2y[(a * arity + b) * arity + y] += 1;
    }
    let n = x1.len();
    let h_x1y = entropy_of_counts(&c_x1y, n);
    let h_x2y = entropy_of_counts(&c_x2y, n);
    let h_x1x2y = entropy_of_counts(&c_x1x2y, n);
    let h_y = entropy_of_counts(&c_y, n);
    (h_x1y - h_y - h_x1x2y + h_x2y).max(0.0)
}

/// Normalized entropy over category counts, the paper's heterogeneity metric
/// (line D3): `−Σ p log₂ p / log₂ N`, where `N` is the population size
/// (number of devices) and `p` ranges over category fractions.
///
/// Returns 0.0 when there is at most one device or one category: a
/// single-model single-role network is perfectly homogeneous. A value close
/// to 1 indicates significant heterogeneity.
pub fn normalized_entropy(category_counts: &[usize]) -> f64 {
    let n: usize = category_counts.iter().sum();
    if n <= 1 {
        return 0.0;
    }
    let nf = n as f64;
    let h: f64 = category_counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / nf;
            -p * p.log2()
        })
        .sum();
    h / nf.log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The oracle: `−Σ p log₂ p` over an ordered map of symbol counts,
    /// summed in key order.
    fn map_entropy<K: Ord>(keys: impl Iterator<Item = K>) -> f64 {
        let mut counts: BTreeMap<K, f64> = BTreeMap::new();
        let mut n = 0usize;
        for k in keys {
            *counts.entry(k).or_insert(0.0) += 1.0;
            n += 1;
        }
        if n == 0 {
            return 0.0;
        }
        let n = n as f64;
        counts.values().map(|&c| {
            let p = c / n;
            -p * p.log2()
        }).sum()
    }

    /// Shannon entropy (bits) of a code column, counted densely.
    fn entropy(xs: &[u8], arity: usize) -> f64 {
        let mut counts = vec![0u32; arity];
        for &x in xs {
            counts[usize::from(x)] += 1;
        }
        entropy_of_counts(&counts, xs.len())
    }

    fn oracle_mi(xs: &[u8], ys: &[u8]) -> f64 {
        let h_y = map_entropy(ys.iter());
        let h_x = map_entropy(xs.iter());
        let h_xy = map_entropy(xs.iter().zip(ys));
        (h_y - (h_xy - h_x).max(0.0)).max(0.0)
    }

    fn oracle_cmi(x1: &[u8], x2: &[u8], ys: &[u8]) -> f64 {
        if x1.is_empty() {
            return 0.0;
        }
        let h_x1y = map_entropy(x1.iter().zip(ys));
        let h_x2y = map_entropy(x2.iter().zip(ys));
        let h_x1x2y = map_entropy(x1.iter().zip(x2).zip(ys).map(|((a, b), y)| (a, b, y)));
        let h_y = map_entropy(ys.iter());
        (h_x1y - h_y - h_x1x2y + h_x2y).max(0.0)
    }

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy(&[], 1), 0.0);
        assert_eq!(entropy(&[3, 3, 3], 4), 0.0);
        assert!((entropy(&[0, 1], 2) - 1.0).abs() < 1e-12);
        assert!((entropy(&[0, 1, 2, 3], 4) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mi_of_identical_variables_is_their_entropy() {
        let xs = vec![0, 0, 1, 1, 2, 2];
        let mi = mutual_information(&xs, &xs, 3);
        assert!((mi - entropy(&xs, 3)).abs() < 1e-12);
    }

    #[test]
    fn mi_of_independent_variables_is_zero() {
        // A full factorial of (x, y): exactly independent empirically.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                xs.push(x);
                ys.push(y);
            }
        }
        assert!(mutual_information(&xs, &ys, 4).abs() < 1e-12);
    }

    #[test]
    fn mi_is_symmetric() {
        let xs = vec![0, 1, 0, 2, 1, 0, 2, 2, 1, 0];
        let ys = vec![1, 1, 0, 2, 2, 0, 2, 1, 2, 0];
        let a = mutual_information(&xs, &ys, 3);
        let b = mutual_information(&ys, &xs, 3);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn mi_detects_nonmonotonic_dependence() {
        // y = 1 iff x is in the middle — a dependence ANOVA-style linear
        // methods would miss, which is the paper's argument for MI.
        let xs: Vec<u8> = (0..300u16).map(|i| (i % 10) as u8).collect();
        let ys: Vec<u8> = xs.iter().map(|&x| u8::from((3..7).contains(&x))).collect();
        assert!(mutual_information(&xs, &ys, 10) > 0.5);
    }

    #[test]
    fn cmi_symmetric_in_first_two_args() {
        let x1 = vec![0, 1, 0, 2, 1, 0, 2, 2, 1, 0, 1, 2];
        let x2 = vec![1, 1, 0, 2, 2, 0, 2, 1, 2, 0, 0, 1];
        let y = vec![0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0];
        let a = conditional_mutual_information(&x1, &x2, &y, 3);
        let b = conditional_mutual_information(&x2, &x1, &y, 3);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn cmi_zero_when_x1_constant() {
        let x1 = vec![5; 10];
        let x2 = vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0];
        let y = vec![0, 0, 0, 1, 1, 1, 0, 0, 1, 1];
        assert!(conditional_mutual_information(&x1, &x2, &y, 6).abs() < 1e-12);
    }

    #[test]
    fn cmi_detects_conditional_dependence() {
        // x2 = x1 exactly: CMI(x1; x2 | y) = H(x1|y) > 0 when x1 varies
        // within levels of y.
        let x1 = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let y = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let cmi = conditional_mutual_information(&x1, &x1, &y, 2);
        assert!((cmi - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn codes_past_the_arity_panic() {
        mutual_information(&[0, 3], &[0, 1], 3);
    }

    #[test]
    fn normalized_entropy_bounds_and_cases() {
        assert_eq!(normalized_entropy(&[]), 0.0);
        assert_eq!(normalized_entropy(&[5]), 0.0); // one model+role: homogeneous
        assert_eq!(normalized_entropy(&[1]), 0.0);
        // N devices all in distinct categories: H = log2(N), metric = 1.
        let each_own: Vec<usize> = vec![1; 8];
        assert!((normalized_entropy(&each_own) - 1.0).abs() < 1e-12);
        // Two categories of 4 in N=8: H = 1, log2 8 = 3 → 1/3.
        assert!((normalized_entropy(&[4, 4]) - 1.0 / 3.0).abs() < 1e-12);
    }

    /// An arity in 1..=40 and three code columns of one length in 0..=500
    /// below it. Half the cases draw from a random subset of the symbols,
    /// so some codes go unused; a subset of one makes a single-symbol
    /// column.
    fn code_columns() -> impl Strategy<Value = (usize, Vec<u8>, Vec<u8>, Vec<u8>)> {
        (1usize..=40, 0usize..=500, 0u64..u64::MAX).prop_map(|(arity, n, seed)| {
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33) as usize
            };
            let used: Vec<u8> = if next() % 2 == 0 {
                (0..arity as u8).collect()
            } else {
                let k = 1 + next() % arity;
                (0..k).map(|_| (next() % arity) as u8).collect()
            };
            let mut column = || (0..n).map(|_| used[next() % used.len()]).collect::<Vec<u8>>();
            let (a, b, c) = (column(), column(), column());
            (arity, a, b, c)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn dense_counts_match_the_map_oracle_bit_for_bit(columns in code_columns()) {
            let (arity, x1, x2, ys) = columns;
            prop_assert_eq!(entropy(&x1, arity).to_bits(), map_entropy(x1.iter()).to_bits());
            prop_assert_eq!(
                mutual_information(&x1, &ys, arity).to_bits(),
                oracle_mi(&x1, &ys).to_bits()
            );
            prop_assert_eq!(
                conditional_mutual_information(&x1, &x2, &ys, arity).to_bits(),
                oracle_cmi(&x1, &x2, &ys).to_bits()
            );
        }

        #[test]
        fn mi_nonnegative_and_bounded(
            pairs in proptest::collection::vec((0u8..6, 0u8..6), 1..300)
        ) {
            let xs: Vec<u8> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<u8> = pairs.iter().map(|p| p.1).collect();
            let mi = mutual_information(&xs, &ys, 6);
            prop_assert!(mi >= 0.0);
            prop_assert!(mi <= entropy(&xs, 6) + 1e-9);
            prop_assert!(mi <= entropy(&ys, 6) + 1e-9);
        }

        #[test]
        fn cmi_nonnegative(
            triples in proptest::collection::vec((0u8..4, 0u8..4, 0u8..3), 1..300)
        ) {
            let x1: Vec<u8> = triples.iter().map(|t| t.0).collect();
            let x2: Vec<u8> = triples.iter().map(|t| t.1).collect();
            let y: Vec<u8> = triples.iter().map(|t| t.2).collect();
            prop_assert!(conditional_mutual_information(&x1, &x2, &y, 4) >= 0.0);
        }

        #[test]
        fn normalized_entropy_in_unit_interval(
            counts in proptest::collection::vec(0usize..50, 1..20)
        ) {
            let ne = normalized_entropy(&counts);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&ne));
        }
    }
}
