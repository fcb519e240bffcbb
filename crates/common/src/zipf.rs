//! Power-law (Zipf) sampling.
//!
//! The paper's impact analysis rests on the observation that "the distribution
//! of queries in search engines takes the form of a power law with a heavy
//! tail" (§3.2). Both the query workload generator and the popularity of
//! synthetic sites use this sampler.
//!
//! Implementation: explicit normalised CDF over ranks `1..=n` with binary
//! search. Building is O(n); sampling is O(log n) and allocation-free. For the
//! `n` used here (≤ a few hundred thousand) this is faster and simpler than
//! rejection-based samplers, and it is exactly reproducible.

use rand::Rng;

/// A Zipf distribution over ranks `0..n` (rank 0 is the most popular item).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// `s ≈ 1.0` matches web query logs; larger `s` concentrates more mass in
    /// the head.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite and positive.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite() && s > 0.0, "Zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating point leaving the last entry at 0.999...:
        *cdf.last_mut().unwrap() = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the distribution has a single rank.
    pub fn is_empty(&self) -> bool {
        false // by construction n > 0
    }

    /// Sample a rank in `0..n` (0 = most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the first rank whose cumulative mass
        // reaches u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of `rank`.
    #[cfg(test)]
    fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_rng;

    #[test]
    fn head_is_heavier_than_tail() {
        let z = Zipf::new(1000, 1.0);
        assert!(z.pmf(0) > z.pmf(10));
        assert!(z.pmf(10) > z.pmf(500));
    }

    #[test]
    fn samples_in_range_and_head_heavy() {
        let z = Zipf::new(100, 1.07);
        let mut rng = derive_rng(1, "zipf-test");
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            let r = z.sample(&mut rng);
            assert!(r < 100);
            counts[r] += 1;
        }
        // Rank 0 should dominate rank 50 by a wide margin.
        assert!(
            counts[0] > counts[50] * 5,
            "head {} tail {}",
            counts[0],
            counts[50]
        );
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(321, 0.9);
        let total: f64 = (0..321).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_rank_always_zero() {
        let z = Zipf::new(1, 1.0);
        let mut rng = derive_rng(2, "zipf-one");
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic]
    fn zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn samples_always_in_range(n in 1usize..500, s in 0.2f64..2.5, seed in 0u64..1000) {
            let z = Zipf::new(n, s);
            let mut rng = crate::rng::derive_rng(seed, "zipf-prop");
            for _ in 0..50 {
                prop_assert!(z.sample(&mut rng) < n);
            }
        }

        #[test]
        fn pmf_is_monotone_decreasing(n in 2usize..300, s in 0.2f64..2.5) {
            let z = Zipf::new(n, s);
            for r in 1..n {
                prop_assert!(z.pmf(r - 1) >= z.pmf(r) - 1e-12);
            }
        }
    }
}
