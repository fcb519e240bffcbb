//! Indexability-aware template selection (paper §5.2).
//!
//! "The pages we extract should neither have too many results on a single
//! surfaced page nor too few. We present an algorithm that selects a
//! surfacing scheme that tries to ensure such an indexability criterion while
//! also minimizing the surfaced pages and maximizing coverage."
//!
//! Selection is a greedy set cover: repeatedly take the template with the
//! best (new coverage × indexability) per generated URL until marginal gain
//! vanishes or the URL budget is exhausted.

use crate::template::TemplateEval;
use deepweb_common::FxHashSet;

/// Bounds on acceptable per-page result counts.
#[derive(Clone, Copy, Debug)]
pub struct IndexabilityConfig {
    /// Fewer results than this is "too few" (empty-ish pages).
    pub min_results: usize,
    /// More results than this is "too many" (database-dump pages).
    pub max_results: usize,
    /// URL budget across the chosen templates.
    pub max_urls: usize,
}

impl Default for IndexabilityConfig {
    fn default() -> Self {
        IndexabilityConfig {
            min_results: 1,
            max_results: 100,
            max_urls: 500,
        }
    }
}

/// Fraction of a template's sampled submissions whose result counts fall in
/// bounds.
pub(crate) fn indexable_fraction(eval: &TemplateEval, cfg: &IndexabilityConfig) -> f64 {
    if eval.sampled == 0 {
        return 0.0;
    }
    let ok = eval
        .result_counts
        .iter()
        .filter(|&&c| c >= cfg.min_results && c <= cfg.max_results)
        .count();
    // Sampled pages without results count against the template.
    ok as f64 / eval.sampled as f64
}

/// Greedy indexability-aware selection over informative templates. Returns
/// the chosen indexes into `evals`, in pick order.
pub fn select_templates(evals: &[TemplateEval], cfg: &IndexabilityConfig) -> Vec<usize> {
    let mut covered: FxHashSet<u32> = FxHashSet::default();
    let mut chosen: Vec<usize> = Vec::new();
    let mut url_cost = 0usize;
    let mut remaining: Vec<(usize, &TemplateEval)> = (evals.iter().enumerate())
        .filter(|(_, e)| e.informative)
        .collect();
    loop {
        let mut best: Option<(usize, f64)> = None; // (position in remaining, score)
        for (pos, &(_, e)) in remaining.iter().enumerate() {
            if url_cost + e.url_potential > cfg.max_urls && !chosen.is_empty() {
                continue;
            }
            let gain = e
                .sample_records
                .iter()
                .filter(|r| !covered.contains(r))
                .count() as f64;
            // Small floor keeps selection from refusing outright when no
            // template is strictly indexable — the goal is to *minimise*
            // violations, not to surface nothing (paper §5.2).
            let idx_frac = indexable_fraction(e, cfg).max(0.05);
            // +1 smooths zero-gain-but-indexable templates at start.
            let score = (gain + 1.0) * idx_frac / (e.url_potential.max(1) as f64).sqrt();
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((pos, score));
            }
        }
        let Some((pos, score)) = best else { break };
        if score <= 0.0 {
            break;
        }
        let (i, e) = remaining.remove(pos);
        let gain = e
            .sample_records
            .iter()
            .filter(|r| !covered.contains(r))
            .count();
        if gain == 0 && !chosen.is_empty() {
            break; // nothing new left
        }
        covered.extend(e.sample_records.iter().copied());
        url_cost += e.url_potential;
        chosen.push(i);
        if url_cost >= cfg.max_urls {
            break;
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;

    fn eval(
        slots: Vec<usize>,
        informative: bool,
        counts: Vec<usize>,
        records: &[u32],
        potential: usize,
    ) -> TemplateEval {
        TemplateEval {
            template: Template { slots },
            informative,
            distinct_fraction: 1.0,
            sampled: counts.len().max(1),
            result_counts: counts,
            sample_records: records.iter().copied().collect(),
            url_potential: potential,
        }
    }

    #[test]
    fn indexable_fraction_bounds() {
        let cfg = IndexabilityConfig {
            min_results: 1,
            max_results: 10,
            max_urls: 100,
        };
        let e = eval(vec![0], true, vec![5, 11, 0, 3], &[1], 10);
        // 5 and 3 are in bounds; 11 too many; 0 too few.
        assert!((indexable_fraction(&e, &cfg) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn selection_prefers_indexable_high_coverage() {
        let cfg = IndexabilityConfig {
            min_results: 1,
            max_results: 10,
            max_urls: 1000,
        };
        let evals = vec![
            eval(vec![0], true, vec![500, 700], &[1, 2, 3, 4, 5, 6], 5), // dumps
            eval(vec![1], true, vec![5, 7, 3], &[1, 2, 3, 4, 5], 10),    // indexable
        ];
        assert_eq!(select_templates(&evals, &cfg)[0], 1);
    }

    #[test]
    fn uninformative_never_chosen() {
        let cfg = IndexabilityConfig::default();
        let evals = vec![eval(vec![0], false, vec![5], &[1, 2], 10)];
        assert!(select_templates(&evals, &cfg).is_empty());
    }

    #[test]
    fn budget_limits_url_cost() {
        let cfg = IndexabilityConfig {
            min_results: 1,
            max_results: 10,
            max_urls: 15,
        };
        let evals = vec![
            eval(vec![0], true, vec![5], &[1, 2, 3], 10),
            eval(vec![1], true, vec![5], &[4, 5, 6], 10),
            eval(vec![2], true, vec![5], &[7, 8, 9], 10),
        ];
        let chosen = select_templates(&evals, &cfg);
        let url_cost: usize = chosen.iter().map(|&i| evals[i].url_potential).sum();
        assert!(url_cost <= 20, "one overshoot step allowed, not more");
        assert!(chosen.len() <= 2);
    }

    #[test]
    fn redundant_templates_skipped() {
        let cfg = IndexabilityConfig::default();
        let evals = vec![
            eval(vec![0], true, vec![5, 5], &[1, 2, 3], 10),
            eval(vec![1], true, vec![5, 5], &[1, 2, 3], 10), // same records
        ];
        let chosen = select_templates(&evals, &cfg);
        let covered: FxHashSet<u32> = chosen
            .iter()
            .flat_map(|&i| evals[i].sample_records.iter().copied())
            .collect();
        assert_eq!(chosen.len(), 1);
        assert_eq!(covered.len(), 3);
    }
}
