//! The parallel pipeline against the sequential reference path: for random
//! small webworlds and random worker counts the output is byte-identical;
//! two forms on one host never race on the URLs they share; every fetch
//! the run makes is accounted exactly once; and no result page is fetched
//! twice.

use deepweb_common::{Result, Url};
use deepweb_surfacer::{
    crawl_and_surface, DocOrigin, IndexabilityConfig, KeywordConfig, SurfacerConfig,
    SurfacingOutcome, TemplateConfig,
};
use deepweb_webworld::{
    generate, http_error, FaultConfig, FaultyFetcher, Fetcher, Response, WebConfig,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Tight budgets so each generated web surfaces in well under a second.
fn tiny_cfg() -> SurfacerConfig {
    SurfacerConfig {
        keywords: KeywordConfig {
            seeds: 4,
            iterations: 1,
            candidates_per_round: 4,
            max_keywords: 6,
            probe_budget: 25,
        },
        templates: TemplateConfig {
            test_sample: 3,
            probe_budget: 60,
        },
        indexability: IndexabilityConfig {
            max_urls: 30,
            ..Default::default()
        },
        max_values_per_input: 4,
        samples_per_class: 4,
        follow_pagination: 1,
        follow_details: 3,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_pipeline_equals_sequential(
        seed in 1u64..10_000,
        num_sites in 2usize..6,
        post_tenths in 0usize..5,
        workers in 2usize..6,
    ) {
        let w = generate(&WebConfig {
            seed,
            num_sites,
            post_fraction: post_tenths as f64 / 10.0,
            ..WebConfig::default()
        });
        let seeds = [Url::new("dir.sim", "/")];
        let sequential = crawl_and_surface(&w.server, &seeds, &tiny_cfg());
        let parallel = crawl_and_surface(
            &w.server,
            &seeds,
            &SurfacerConfig { num_workers: workers, ..tiny_cfg() },
        );
        // Failing cases report the generated (seed, sites, workers)
        // via the proptest harness' input header.
        prop_assert_eq!(
            format!("{:?}", parallel.docs),
            format!("{:?}", sequential.docs)
        );
        prop_assert_eq!(
            format!("{:?}", parallel.reports),
            format!("{:?}", sequential.reports)
        );
    }
}

/// One host, two GET forms with distinct actions over the same 12 records:
/// `/by-make` and `/by-color` slice them differently but link the *same*
/// `/item?id=N` detail URLs.
struct TwoForms;

const MAKES: [&str; 3] = ["honda", "ford", "toyota"];
const COLORS: [&str; 3] = ["red", "green", "blue"];
const RECORDS: usize = 12;

impl TwoForms {
    fn form(action: &str, input: &str, options: &[&str]) -> String {
        let options: String = options
            .iter()
            .map(|o| format!("<option value=\"{o}\">{o}</option>"))
            .collect();
        format!(
            "<form action=\"{action}\" method=\"get\">{input}: <select name=\"{input}\">\
             <option value=\"\">any</option>{options}</select></form>"
        )
    }

    fn listing(keep: impl Fn(usize) -> bool) -> String {
        let ids: Vec<usize> = (0..RECORDS).filter(|&i| keep(i)).collect();
        let links: String = ids
            .iter()
            .map(|i| format!("<li><a href=\"/item?id={i}\">listing {i}</a></li>"))
            .collect();
        format!(
            "<html><head><title>listings</title></head><body><h1>{} results</h1>\
             <ul>{links}</ul></body></html>",
            ids.len()
        )
    }
}

impl Fetcher for TwoForms {
    fn fetch(&self, url: &Url) -> Result<Response> {
        let html = match url.path.as_str() {
            "/" => format!(
                "<html><head><title>two forms</title></head><body>\
                 <p>used cars by make and by color</p>{}{}</body></html>",
                Self::form("/by-make", "make", &MAKES),
                Self::form("/by-color", "color", &COLORS),
            ),
            "/by-make" => Self::listing(|i| url.param("make").is_none_or(|m| MAKES[i % 3] == m)),
            "/by-color" => Self::listing(|i| url.param("color").is_none_or(|c| COLORS[i / 4] == c)),
            "/item" => format!(
                "<html><head><title>listing {0}</title></head><body>\
                 <h1>listing {0}</h1></body></html>",
                url.param("id").unwrap_or_default()
            ),
            _ => return Err(http_error(404, url)),
        };
        Ok(Response { status: 200, html })
    }
}

fn dump(o: &SurfacingOutcome) -> String {
    format!("{:?}\n{:?}\n{:?}", o.docs, o.reports, o.crawl_stats)
}

#[test]
fn same_host_forms_never_run_concurrently() {
    let seeds = [Url::new("twoforms.sim", "/")];
    let faults = FaultConfig::transient(5, 0.3);
    let run = |workers: usize| {
        // Fresh injector per run: failure prefixes are per-URL attempt state.
        let faulty = FaultyFetcher::new(TwoForms, faults);
        let cfg = SurfacerConfig {
            num_workers: workers,
            follow_details: RECORDS,
            ..tiny_cfg()
        };
        crawl_and_surface(&faulty, &seeds, &cfg)
    };
    let sequential = run(1);

    // Reports come out in crawl order, one per form.
    let inputs: Vec<&str> = sequential
        .reports
        .iter()
        .map(|r| r.facet_values[0].0.as_str())
        .collect();
    assert_eq!(inputs, ["make", "color"]);
    // Both forms followed the shared detail links, and some of those URLs
    // have a failure prefix: whichever form reaches one first pays its
    // retries, so a racing schedule would move counters between the reports.
    let discovered = sequential.docs_of(DocOrigin::Discovered).count();
    assert_eq!(discovered, 2 * RECORDS);
    let schedule = FaultyFetcher::new(TwoForms, faults);
    let shared_retries: u64 = (0..RECORDS)
        .map(|i| Url::new("twoforms.sim", "/item").with_param("id", i.to_string()))
        .filter_map(|u| schedule.schedule_for(&u))
        .map(|(_, prefix)| u64::from(prefix))
        .sum();
    assert!(
        shared_retries > 0,
        "fault seed must hit a shared detail URL"
    );
    assert!(sequential.reports[0].retries >= shared_retries);

    for workers in [2, 4] {
        assert_eq!(dump(&run(workers)), dump(&sequential), "workers={workers}");
    }
}

#[test]
fn request_accounting_closes() {
    let w = generate(&WebConfig {
        num_sites: 8,
        ..WebConfig::default()
    });
    let seeds = [Url::new("dir.sim", "/")];
    for faults in [FaultConfig::default(), FaultConfig::transient(7, 0.3)] {
        for workers in [1, 2, 4] {
            // The injector counts every attempt that reaches it, failed or
            // not; with all rates zero it is a plain counting wrapper.
            let web = FaultyFetcher::new(&w.server, faults);
            let cfg = SurfacerConfig {
                num_workers: workers,
                ..tiny_cfg()
            };
            let o = crawl_and_surface(&web, &seeds, &cfg);
            let crawl = o.crawl_stats;
            let accounted = o
                .reports
                .iter()
                .map(|r| r.analysis_requests + r.surfacing_requests)
                .sum::<u64>()
                + crawl.pages_fetched
                + crawl.fetch_failures
                + crawl.retries;
            assert_eq!(
                accounted,
                web.stats().fetches,
                "faults={faults:?} workers={workers}"
            );
            assert!(o.reports.iter().any(|r| r.surfacing_requests > 0));
        }
    }
}

/// Counts the fetches of each URL that reach the wrapped fetcher, keyed by
/// its path and rendered form.
struct UrlCounter<F> {
    inner: F,
    seen: Mutex<BTreeMap<(String, String), u32>>,
}

impl<F: Fetcher> Fetcher for UrlCounter<F> {
    fn fetch(&self, url: &Url) -> Result<Response> {
        let key = (url.path.clone(), url.to_string());
        *self.seen.lock().entry(key).or_default() += 1;
        self.inner.fetch(url)
    }
}

#[test]
fn no_result_page_reaches_the_web_twice() {
    let w = generate(&WebConfig {
        num_sites: 8,
        ..WebConfig::default()
    });
    let seeds = [Url::new("dir.sim", "/")];
    for workers in [1, 2, 4] {
        let web = UrlCounter {
            inner: &w.server,
            seen: Mutex::default(),
        };
        let cfg = SurfacerConfig {
            num_workers: workers,
            ..tiny_cfg()
        };
        crawl_and_surface(&web, &seeds, &cfg);
        let seen = web.seen.into_inner();
        let results: Vec<_> = seen
            .iter()
            .filter(|((path, _), _)| path == "/results")
            .collect();
        assert!(!results.is_empty(), "workers={workers}");
        for ((_, url), n) in results {
            assert_eq!(*n, 1, "{url} fetched {n} times, workers={workers}");
        }
    }
}
