//! Seeded samplers for the synthetic-organization generator.
//!
//! Implemented in-repo (rather than via `rand_distr`) so that every draw is
//! unit-tested, bit-reproducible across platforms, and auditable: the shape
//! of these distributions is what makes the synthetic OSP match the paper's
//! Appendix A characterization.
//!
//! [`Sampler`] wraps any [`rand::Rng`] with the distributions MPA needs:
//! Poisson (ticket and change counts), normal / log-normal (size scales and
//! heavy-tailed metrics), Bernoulli and weighted choice (mixture
//! components).

use rand::Rng;

/// Distribution sampler over a mutable RNG reference.
#[derive(Debug)]
pub struct Sampler<'a, R: Rng> {
    rng: &'a mut R,
}

impl<'a, R: Rng> Sampler<'a, R> {
    /// Wrap an RNG.
    pub fn new(rng: &'a mut R) -> Self {
        Self { rng }
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.rng.random::<f64>()
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn uniform_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        self.rng.random_range(lo..=hi)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller (one value per call; the second is
    /// intentionally discarded to keep the call sequence stateless).
    pub fn normal_std(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal with given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `sd < 0`.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        assert!(sd >= 0.0, "negative standard deviation");
        mean + sd * self.normal_std()
    }

    /// Log-normal: `exp(N(mu, sigma))`. `mu`/`sigma` are in log space.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Poisson with rate `lambda >= 0`.
    ///
    /// Uses Knuth's product method per chunk of rate ≤ 16 and sums the
    /// chunks (Poisson additivity), which is exact, branch-simple and fast
    /// enough for every rate this workspace draws (≤ a few hundred).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0 && lambda.is_finite(), "invalid Poisson rate {lambda}");
        let mut remaining = lambda;
        let mut total = 0u64;
        while remaining > 0.0 {
            let chunk = remaining.min(16.0);
            remaining -= chunk;
            total += self.poisson_knuth(chunk);
        }
        total
    }

    fn poisson_knuth(&mut self, lambda: f64) -> u64 {
        if lambda == 0.0 {
            return 0;
        }
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut prod = self.uniform();
        while prod > limit {
            k += 1;
            prod *= self.uniform();
        }
        k
    }

    /// Index drawn proportionally to `weights` (non-negative, not all zero).
    ///
    /// # Panics
    /// Panics if weights are empty, contain negatives, or sum to zero.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted choice over empty weights");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "weights must be non-negative, got {w}");
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1 // floating-point remainder lands on the last bucket
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.rng.random_range(0..=i);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..n` (reservoir-free: shuffle of an
    /// index vector, deterministic given the RNG state).
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut ix: Vec<usize> = (0..n).collect();
        self.shuffle(&mut ix);
        ix.truncate(k);
        ix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn poisson_zero_rate() {
        let mut r = rng(1);
        let mut s = Sampler::new(&mut r);
        assert_eq!(s.poisson(0.0), 0);
    }

    #[test]
    fn poisson_mean_and_variance_match_rate() {
        let mut r = rng(2);
        let mut s = Sampler::new(&mut r);
        for &lambda in &[0.5, 3.0, 16.0, 75.0] {
            let n = 20_000;
            let draws: Vec<f64> = (0..n).map(|_| s.poisson(lambda) as f64).collect();
            let m = crate::summary::mean(&draws);
            let v = crate::summary::variance(&draws);
            let tol = 4.0 * (lambda / n as f64).sqrt().max(0.02);
            assert!((m - lambda).abs() < tol, "mean {m} vs λ {lambda}");
            assert!((v - lambda).abs() < lambda * 0.15 + 0.05, "var {v} vs λ {lambda}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = rng(3);
        let mut s = Sampler::new(&mut r);
        let draws: Vec<f64> = (0..50_000).map(|_| s.normal(5.0, 2.0)).collect();
        assert!((crate::summary::mean(&draws) - 5.0).abs() < 0.05);
        assert!((crate::summary::variance(&draws).sqrt() - 2.0).abs() < 0.05);
    }

    #[test]
    fn log_normal_median() {
        let mut r = rng(4);
        let mut s = Sampler::new(&mut r);
        let mut draws: Vec<f64> = (0..50_000).map(|_| s.log_normal(2.0, 0.8)).collect();
        draws.sort_by(|a, b| a.total_cmp(b));
        let med = draws[draws.len() / 2];
        // Median of LogNormal(μ, σ) = e^μ.
        assert!((med - 2f64.exp()).abs() / 2f64.exp() < 0.05, "median {med}");
        assert!(draws.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn bernoulli_rate() {
        let mut r = rng(6);
        let mut s = Sampler::new(&mut r);
        let hits = (0..20_000).filter(|_| s.bernoulli(0.3)).count();
        assert!((hits as f64 / 20_000.0 - 0.3).abs() < 0.02);
        assert!(!s.bernoulli(0.0));
        assert!(s.bernoulli(1.0));
        assert!(s.bernoulli(2.0), "clamped above 1");
    }

    #[test]
    fn weighted_choice_proportions() {
        let mut r = rng(7);
        let mut s = Sampler::new(&mut r);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[s.weighted_choice(&w)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight bucket never drawn");
        let frac0 = counts[0] as f64 / 40_000.0;
        assert!((frac0 - 0.25).abs() < 0.02, "bucket 0 fraction {frac0}");
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn weighted_choice_all_zero_panics() {
        let mut r = rng(8);
        Sampler::new(&mut r).weighted_choice(&[0.0, 0.0]);
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = rng(9);
        let mut s = Sampler::new(&mut r);
        let mut xs: Vec<u32> = (0..100).collect();
        s.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, sorted, "astronomically unlikely to be identity");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = rng(10);
        let mut s = Sampler::new(&mut r);
        let ix = s.sample_indices(50, 10);
        assert_eq!(ix.len(), 10);
        let set: std::collections::BTreeSet<_> = ix.iter().collect();
        assert_eq!(set.len(), 10);
        assert!(ix.iter().all(|&i| i < 50));
        assert!(s.sample_indices(5, 0).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let draw = |seed| {
            let mut r = rng(seed);
            let mut s = Sampler::new(&mut r);
            (0..10).map(|_| s.poisson(7.0)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }
}
