//! Coverage estimation (paper §5.2): estimate a deep-web site's database
//! size by capture/recapture over random form probes, and phrase the result
//! as the paper's "with probability M%, more than N% exposed" statement.
//!
//! ```text
//! cargo run --example coverage_probe --release
//! ```

use deepweb::common::derive_rng;
use deepweb::coverage::{coverage_of_surfacing, estimate_size};
use deepweb::surfacer::{search_form, Prober, Slot};
use deepweb::webworld::{generate, WebConfig};

fn main() {
    let w = generate(&WebConfig {
        num_sites: 10,
        post_fraction: 0.0,
        ..WebConfig::default()
    });
    let mut rng = derive_rng(7, "coverage-example");
    for t in w.truth.sites.iter().take(5) {
        let Some(form) = search_form(&w.server, &t.host) else {
            continue;
        };
        let slots: Vec<Slot> = form
            .fillable_inputs()
            .iter()
            .filter(|i| !i.options().is_empty())
            .map(|i| Slot::Single {
                input: i.name.clone(),
                values: i.options().iter().map(|s| s.to_string()).collect(),
            })
            .collect();
        if slots.is_empty() {
            continue;
        }
        let prober = Prober::new(&w.server);
        let run = estimate_size(&prober, &form, &slots, 40, &mut rng);
        print!(
            "{:<24} true={:<5} n1={:<4} n2={:<4} overlap={:<3}",
            t.host, t.records, run.n1, run.n2, run.overlap
        );
        match run.estimated_size {
            Some(est) => {
                print!(" est={est:.0}");
                if let Some(c) = coverage_of_surfacing(&run, run.n1, 0.95) {
                    print!(
                        "  → with 95% confidence, >{:.0}% of the site exposed by batch 1",
                        c.lower_bound * 100.0
                    );
                }
                println!();
            }
            None => println!(" est=n/a (no recapture overlap — probe more)"),
        }
    }
}
