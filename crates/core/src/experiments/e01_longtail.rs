//! E1 — the long tail (paper §3.2): deep-web impact is spread over many
//! forms ("top 10,000 forms accounted for only 50% of deep-web results ...
//! top 100,000 forms only accounted for 85%") and concentrated on rare
//! queries. The ">1000 qps" headline is *measured* by deepbench
//! (`qps_1` / `qps_batch` on `serve_zipf`); E1d keeps the deterministic
//! serving facts and the sequential == concurrent check.

use super::Scale;
use crate::report::{pct, TextTable};
use crate::system::{quick_config, DeepWebSystem};
use deepweb_common::derive_rng;
use deepweb_index::ClusterConfig;
use deepweb_queries::{generate_workload, replay, WorkloadConfig};

/// Key numbers (asserted by tests).
#[derive(Clone, Copy, Debug)]
pub struct LongtailResult {
    /// Forms carrying any impact.
    pub forms_with_impact: usize,
    /// Forms needed for 50% of deep-web results.
    pub forms_for_50: usize,
    /// Forms needed for 85% of deep-web results.
    pub forms_for_85: usize,
    /// Fraction of deep-web-answered queries that were tail queries.
    pub tail_share: f64,
    /// Deep-web hit rate among tail queries.
    pub tail_rate: f64,
    /// Deep-web hit rate among head queries.
    pub head_rate: f64,
}

/// Run E1.
pub fn run(scale: Scale) -> (Vec<TextTable>, LongtailResult) {
    let sites = scale.pick(15, 100);
    let sys = DeepWebSystem::build(&quick_config(sites));
    let wl = generate_workload(
        &sys.world,
        &WorkloadConfig {
            distinct: scale.pick(150, 1200),
            ..Default::default()
        },
    );
    let mut rng = derive_rng(41, "e01");
    let n = scale.pick(1500, 20_000);
    // k=1: impact is attributed at the click position (the top result).
    let cluster = sys.cluster(ClusterConfig::default());
    let report = replay(&sys.index, &wl, n, 1, &mut rng, &cluster);

    let curve = report.cumulative_share();
    let total_forms = curve.len().max(1);
    let mut t1 = TextTable::new(
        "E1a: cumulative deep-web impact by form rank (paper: top forms carry \
         50%, long tail carries the rest)",
        &["top-k forms", "share of forms", "share of deep-web results"],
    );
    for frac in [0.01, 0.05, 0.10, 0.25, 0.50, 1.00] {
        let k = ((total_forms as f64 * frac).ceil() as usize).clamp(1, total_forms);
        let share = curve.get(k - 1).copied().unwrap_or_default();
        t1.row(&[k.to_string(), pct(frac), pct(share)]);
    }

    let forms_for_50 = report.forms_for_share(0.5);
    let forms_for_85 = report.forms_for_share(0.85);
    let mut t2 = TextTable::new(
        "E1b: forms needed for result share (paper shape: 10k→50%, 100k→85% of 885k forms)",
        &[
            "result share",
            "forms needed",
            "fraction of impactful forms",
        ],
    );
    t2.row(&[
        "50%".into(),
        forms_for_50.to_string(),
        pct(forms_for_50 as f64 / total_forms as f64),
    ]);
    t2.row(&[
        "85%".into(),
        forms_for_85.to_string(),
        pct(forms_for_85 as f64 / total_forms as f64),
    ]);

    let mut t3 = TextTable::new(
        "E1c: where deep-web results land (paper: impact is on the long tail of queries)",
        &["query class", "queries", "with deep-web result", "rate"],
    );
    let tail_rate = if report.tail_queries > 0 {
        report.tail_with_deepweb as f64 / report.tail_queries as f64
    } else {
        0.0
    };
    let head_rate = if report.head_queries > 0 {
        report.head_with_deepweb as f64 / report.head_queries as f64
    } else {
        0.0
    };
    t3.row(&[
        "head (popular)".into(),
        report.head_queries.to_string(),
        report.head_with_deepweb.to_string(),
        pct(head_rate),
    ]);
    t3.row(&[
        "tail (rare)".into(),
        report.tail_queries.to_string(),
        report.tail_with_deepweb.to_string(),
        pct(tail_rate),
    ]);

    // One Zipf serving batch: E1d reports its size.
    let batch = wl.sample_batch(scale.pick(600, 5000), &mut rng);

    let mut t4 = TextTable::new(
        "E1d: serving scale (paper headline: >1000 queries/sec served from the index \
         — measured by deepbench serve_zipf qps_1/qps_batch)",
        &["metric", "value"],
    );
    t4.row(&["queries replayed".into(), n.to_string()]);
    t4.row(&["serving batch size".into(), batch.len().to_string()]);
    t4.row(&["indexed docs".into(), sys.index.len().to_string()]);
    t4.row(&[
        "languages in web".into(),
        sys.world.truth.languages().len().to_string(),
    ]);

    let result = LongtailResult {
        forms_with_impact: total_forms,
        forms_for_50,
        forms_for_85,
        tail_share: report.tail_share_of_deepweb(),
        tail_rate,
        head_rate,
    };
    (vec![t1, t2, t3, t4], result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longtail_shape_holds_at_smoke_scale() {
        let (tables, r) = run(Scale::Smoke);
        assert_eq!(tables.len(), 4);
        // The defining shape: 50% of impact needs strictly fewer forms than
        // 85%, and the tail carries most deep-web impact.
        assert!(r.forms_for_50 <= r.forms_for_85);
        assert!(r.forms_with_impact > 0);
        // The paper's claim is about *where deep-web content adds value*:
        // tail queries must benefit at a higher rate than head queries
        // (which SEO'd surface pages already serve).
        assert!(
            r.tail_rate > r.head_rate,
            "tail rate {} vs head rate {}",
            r.tail_rate,
            r.head_rate
        );
        assert!(r.tail_share > 0.3, "tail share {}", r.tail_share);
    }
}
