//! The paper's long-tail analysis (§3.2) end-to-end: surface a web, replay a
//! Zipf query stream, and print the cumulative-impact-by-form-rank curve
//! ("top 10,000 forms accounted for only 50% of deep-web results...").
//!
//! ```text
//! cargo run --example longtail_impact --release
//! ```

use deepweb::common::derive_rng;
use deepweb::index::ClusterConfig;
use deepweb::queries::{generate_workload, replay, WorkloadConfig};
use deepweb::{quick_config, DeepWebSystem};

fn main() {
    let sys = DeepWebSystem::build(&quick_config(25));
    let wl = generate_workload(
        &sys.world,
        &WorkloadConfig {
            distinct: 300,
            ..Default::default()
        },
    );
    let mut rng = derive_rng(1, "longtail-example");
    let cluster = sys.cluster(ClusterConfig::default());
    let report = replay(&sys.index, &wl, 5000, 1, &mut rng, &cluster);

    println!(
        "replayed 5000 queries (Zipf stream over {} distinct)",
        wl.len()
    );
    println!(
        "deep-web page was the top result for {} queries ({} tail, {} head)",
        report.with_deepweb_result, report.tail_with_deepweb, report.head_with_deepweb
    );
    let curve = report.cumulative_share();
    println!("\ncumulative deep-web impact by form rank:");
    for frac in [0.1, 0.25, 0.5, 1.0] {
        let k = ((curve.len() as f64 * frac).ceil() as usize).clamp(1, curve.len().max(1));
        if !curve.is_empty() {
            println!(
                "  top {:>4.0}% of forms → {:>5.1}% of results",
                frac * 100.0,
                curve[k - 1] * 100.0
            );
        }
    }
    println!(
        "\nforms needed for 50% of deep-web results: {} (of {} impactful forms)",
        report.forms_for_share(0.5),
        curve.len()
    );
}
