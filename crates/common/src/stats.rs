//! Small statistics helpers used by experiment reporting: percentiles,
//! cumulative-share curves (the paper's "top 10,000 forms account for 50% of
//! results" is a point on such a curve) and precision/recall.

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `p`-th percentile (0..=100) using nearest-rank on a sorted copy.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Cumulative share curve: given per-item weights, sort descending and return
/// for each rank `r` the fraction of total weight carried by items `0..=r`.
///
/// `cumulative_share(&w)[k-1]` answers "what fraction of results do the top-k
/// items account for" — the exact shape behind the paper's long-tail claim.
pub fn cumulative_share(weights: &[f64]) -> Vec<f64> {
    let mut w = weights.to_vec();
    w.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let total: f64 = w.iter().sum();
    if total <= 0.0 {
        return vec![0.0; w.len()];
    }
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x;
            acc / total
        })
        .collect()
}

/// Smallest k such that the top-k items carry at least `share` of the total.
pub fn rank_reaching_share(weights: &[f64], share: f64) -> usize {
    let curve = cumulative_share(weights);
    curve
        .iter()
        .position(|&c| c >= share)
        .map_or(curve.len(), |p| p + 1)
}

/// Precision / recall / F1 over counted outcomes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PrecisionRecall {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_: usize,
}

impl PrecisionRecall {
    /// Precision = tp / (tp+fp); 1.0 when nothing was predicted.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall = tp / (tp+fn); 1.0 when nothing was expected.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_slice_and_empty() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
    }

    #[test]
    fn cumulative_share_monotone_and_ends_at_one() {
        let w = [5.0, 1.0, 3.0, 1.0];
        let c = cumulative_share(&w);
        assert!((c.last().unwrap() - 1.0).abs() < 1e-12);
        assert!(c.windows(2).all(|p| p[0] <= p[1] + 1e-12));
        assert!((c[0] - 0.5).abs() < 1e-12); // top item has weight 5/10
    }

    #[test]
    fn rank_reaching_share_matches_paper_shape() {
        // A power-law-ish weight vector: a few heads, long tail.
        let mut w: Vec<f64> = (1..=1000).map(|k| 1.0 / k as f64).collect();
        w.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let k50 = rank_reaching_share(&w, 0.5);
        let k85 = rank_reaching_share(&w, 0.85);
        assert!(k50 < k85);
        assert!(k85 < 1000);
    }

    #[test]
    fn pr_f1() {
        let pr = PrecisionRecall {
            tp: 8,
            fp: 2,
            fn_: 2,
        };
        assert!((pr.precision() - 0.8).abs() < 1e-12);
        assert!((pr.recall() - 0.8).abs() < 1e-12);
        assert!((pr.f1() - 0.8).abs() < 1e-12);
        let empty = PrecisionRecall::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.f1(), 1.0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn cumulative_share_is_monotone_in_unit_interval(
            w in prop::collection::vec(0.0f64..100.0, 1..50),
        ) {
            let c = cumulative_share(&w);
            prop_assert_eq!(c.len(), w.len());
            for pair in c.windows(2) {
                prop_assert!(pair[0] <= pair[1] + 1e-9);
            }
            for &v in &c {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
            }
        }

        #[test]
        fn rank_reaching_share_monotone(
            w in prop::collection::vec(0.01f64..100.0, 1..40),
            a in 0.1f64..0.5,
            b in 0.5f64..0.99,
        ) {
            prop_assert!(rank_reaching_share(&w, a) <= rank_reaching_share(&w, b));
        }
    }
}
