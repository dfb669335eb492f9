//! Minority-class oversampling (§6.1).
//!
//! > "Oversampling directly addresses skew as it repeats the minority class
//! > examples during training. When building a 2-class model we replicate
//! > samples from the unhealthy class twice, and when building a 5-class
//! > model we replicate samples from the poor class twice and the moderate
//! > and good classes thrice."
//!
//! [`oversample`] takes a per-class replication factor: factor 1 keeps a
//! class as-is, factor `k` makes each of its positions appear `k` times.
//! The paper's factors per health granularity live with the health classes
//! (`mpa_core::predict::HealthClasses::oversampling`).

use crate::data::View;

/// Replicate positions per class. `factors[c]` is the total number of
/// copies of each class-`c` position in the output (so 1 = unchanged);
/// copies sit next to their original and keep its weight.
///
/// # Panics
/// Panics if `factors` does not cover all classes or contains a zero.
pub fn oversample<'a>(view: &View<'a>, factors: &[usize]) -> View<'a> {
    assert_eq!(factors.len(), usize::from(view.set.n_classes()), "one factor per class");
    assert!(factors.iter().all(|&f| f >= 1), "factors must be >= 1");
    let mut rows = Vec::new();
    let mut weights = Vec::new();
    for ((&r, &w), label) in view.rows.iter().zip(&view.weights).zip(view.labels()) {
        let copies = factors.get(usize::from(label)).copied().unwrap_or(1);
        rows.extend(std::iter::repeat_n(r, copies));
        weights.extend(std::iter::repeat_n(w, copies));
    }
    View::new(view.set, rows, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::tests::class_counts;
    use crate::data::{Instance, LearnSet};

    fn set_with_counts(counts: &[usize]) -> LearnSet {
        let mut instances = Vec::new();
        for (label, &count) in counts.iter().enumerate() {
            for i in 0..count {
                instances.push(Instance {
                    features: vec![(i % 3) as u8],
                    label: label as u8,
                    weight: 1.0,
                });
            }
        }
        LearnSet::new(instances, vec![3], counts.len() as u8)
    }

    #[test]
    fn factors_multiply_class_counts() {
        let set = set_with_counts(&[100, 10, 8, 5, 7]);
        let over = oversample(&set.view(), &[1, 3, 3, 2, 1]);
        assert_eq!(class_counts(&over), vec![100, 30, 24, 10, 7]);
    }

    #[test]
    fn copies_sit_next_to_their_original() {
        let set = set_with_counts(&[2, 1]);
        let over = oversample(&set.view(), &[1, 2]);
        assert_eq!(over.rows, vec![0, 1, 2, 2]);
        assert_eq!(over.weights, vec![1.0; 4]);
    }

    #[test]
    fn factor_one_is_identity() {
        let set = set_with_counts(&[3, 3]);
        let over = oversample(&set.view(), &[1, 1]);
        assert_eq!(over, set.view());
    }

    #[test]
    #[should_panic(expected = "one factor per class")]
    fn wrong_factor_count_panics() {
        oversample(&set_with_counts(&[2, 2]).view(), &[1]);
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn zero_factor_panics() {
        oversample(&set_with_counts(&[2, 2]).view(), &[1, 0]);
    }
}
