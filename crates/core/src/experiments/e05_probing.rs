//! E5 — iterative probing for search boxes (paper §3.2/§4.1): the
//! seed-then-iterate keyword selector extracts large portions of text
//! databases with light load; baselines (seed-only, frequency, random
//! dictionary words) cover less per probe.

use super::{home_pages, Scale};
use crate::report::{pct, TextTable};
use deepweb_common::ThreadPool;
use deepweb_surfacer::keywords::{frequency_keywords, probe_keyword_coverage};
use deepweb_surfacer::{iterative_probing, search_form, KeywordConfig, Prober};
use deepweb_webworld::{generate, vocab, InputTruth, WebConfig};

/// Strategy outcome averaged over sites.
#[derive(Clone, Debug)]
pub struct StrategyResult {
    /// Display name.
    pub name: &'static str,
    /// Mean coverage fraction.
    pub coverage: f64,
    /// Mean probes spent.
    pub probes: f64,
}

/// Run E5.
pub fn run(scale: Scale) -> (Vec<TextTable>, Vec<StrategyResult>) {
    let w = generate(&WebConfig {
        num_sites: scale.pick(20, 60),
        post_fraction: 0.0,
        ..WebConfig::default()
    });
    let (background, home_text) = home_pages(&w);

    // Collect the eligible search-box sites sequentially (truth order), then
    // fan the four probing strategies out per site on the shared pool. The
    // strategies only read the server and the background table, so the
    // in-order fold below is identical to the old sequential loop.
    let max_sites = scale.pick(4, 12);
    struct SiteWork {
        form: deepweb_surfacer::CrawledForm,
        input: String,
        site_text: String,
        records: f64,
    }
    let mut work: Vec<SiteWork> = Vec::new();
    for t in &w.truth.sites {
        if work.len() >= max_sites {
            break;
        }
        let Some((input, _)) = t
            .inputs
            .iter()
            .find(|(_, tr)| matches!(tr, InputTruth::Search))
        else {
            continue;
        };
        let Some(form) = search_form(&w.server, &t.host) else {
            continue;
        };
        work.push(SiteWork {
            form,
            input: input.clone(),
            site_text: home_text.get(&t.host).cloned().unwrap_or_default(),
            records: t.records.max(1) as f64,
        });
    }

    let pool = ThreadPool::new(0);
    let per_site: Vec<[(f64, f64); 4]> = pool.map(work, |_, sw| {
        let SiteWork {
            form,
            input,
            site_text,
            records,
        } = sw;

        // Strategy 1: iterative probing.
        let prober = Prober::new(&w.server);
        let sel = iterative_probing(
            &prober,
            &form,
            &input,
            &[],
            &site_text,
            &background,
            &KeywordConfig::default(),
        );

        // Strategy 2: seed-only (no iteration).
        let prober2 = Prober::new(&w.server);
        let sel2 = iterative_probing(
            &prober2,
            &form,
            &input,
            &[],
            &site_text,
            &background,
            &KeywordConfig {
                iterations: 0,
                ..Default::default()
            },
        );

        // Strategy 3: frequency-ranked site words (Ntoulas-style greedy
        // frequency, no probing feedback).
        let prober3 = Prober::new(&w.server);
        let freq = frequency_keywords(&site_text, 20);
        let cov3 = probe_keyword_coverage(&prober3, &form, &input, &freq);

        // Strategy 4: random dictionary words (wrong-language-agnostic).
        let prober4 = Prober::new(&w.server);
        let dict: Vec<String> = vocab::lexicon("en", 20, 999).into_iter().collect();
        let cov4 = probe_keyword_coverage(&prober4, &form, &input, &dict);

        [
            (sel.covered_records as f64 / records, sel.probes_used as f64),
            (
                sel2.covered_records as f64 / records,
                sel2.probes_used as f64,
            ),
            (cov3.len() as f64 / records, prober3.requests() as f64),
            (cov4.len() as f64 / records, prober4.requests() as f64),
        ]
    });
    let mut totals = [(0.0, 0.0, 0usize); 4]; // (coverage, probes, n)
    for site in &per_site {
        for (total, &(cov, probes)) in totals.iter_mut().zip(site) {
            total.0 += cov;
            total.1 += probes;
            total.2 += 1;
        }
    }

    let names = [
        "iterative probing",
        "seed-only",
        "frequency baseline",
        "random dictionary",
    ];
    let results: Vec<StrategyResult> = names
        .iter()
        .zip(&totals)
        .map(|(&name, &(cov, probes, n))| StrategyResult {
            name,
            coverage: if n > 0 { cov / n as f64 } else { 0.0 },
            probes: if n > 0 { probes / n as f64 } else { 0.0 },
        })
        .collect();

    let mut t = TextTable::new(
        "E5: search-box keyword selection (paper: iterative probing extracts large \
         portions with light load)",
        &["strategy", "mean coverage", "mean probes per site"],
    );
    for r in &results {
        t.row(&[
            r.name.to_string(),
            pct(r.coverage),
            format!("{:.1}", r.probes),
        ]);
    }
    (vec![t], results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterative_beats_baselines() {
        let (_, results) = run(Scale::Smoke);
        let by_name = |n: &str| results.iter().find(|r| r.name == n).unwrap();
        let iterative = by_name("iterative probing");
        let seed_only = by_name("seed-only");
        let random = by_name("random dictionary");
        assert!(
            iterative.coverage > 0.05,
            "iterative coverage {}",
            iterative.coverage
        );
        assert!(iterative.coverage >= seed_only.coverage);
        assert!(
            iterative.coverage > random.coverage,
            "iterative {} vs random {}",
            iterative.coverage,
            random.coverage
        );
    }
}
