//! Hostile-web robustness tier, end to end (DESIGN.md §16).
//!
//! Three system-level claims:
//! 1. **Determinism under faults**: the same seed and fault schedule produce
//!    a byte-identical index at any worker count, after the build and after
//!    a refresh round.
//! 2. **Retry absorption**: when every fault's failure prefix fits inside
//!    `MAX_RETRIES + 1` attempts, a faulty build indexes *exactly* what a
//!    clean build does — retries make transient chaos invisible downstream.
//! 3. **Hardening**: a fully hostile corpus (broken markup, junk widgets)
//!    surfaces the same URL set as its honest twin and indexes zero junk
//!    URLs, while the robustness report records what was suppressed.

use deepweb::common::{Result, Url};
use deepweb::index::{BatchDoc, Hit};
use deepweb::surfacer::{crawl_and_surface, DocOrigin, HostStatus, MAX_RETRIES};
use deepweb::webworld::{
    grow_site, http_error, FaultConfig, FaultStats, FaultyFetcher, Fetcher, Response,
};
use deepweb::{quick_config, DeepWebSystem, RefreshOutcome, SystemConfig};

fn cfg_with(num_sites: usize, f: impl FnOnce(&mut SystemConfig)) -> SystemConfig {
    let mut cfg = quick_config(num_sites);
    cfg.web.post_fraction = 0.0;
    f(&mut cfg);
    cfg
}

/// Everything that must be identical across equivalent builds: the full doc
/// store (URLs, titles, text, kinds, annotations) plus posting statistics.
fn index_fingerprint(sys: &DeepWebSystem) -> String {
    let stats = sys.index.stats();
    format!("{:?}|{}|{}", sys.index.docs(), stats.terms, stats.postings)
}

fn surfaced_urls(sys: &DeepWebSystem) -> Vec<String> {
    let mut urls: Vec<String> = sys.index.docs().iter().map(|d| d.url.to_string()).collect();
    urls.sort();
    urls
}

#[test]
fn faulty_builds_are_deterministic_at_any_worker_count() {
    let faults = Some(FaultConfig::transient(99, 0.25));
    let reference = DeepWebSystem::build(&cfg_with(8, |c| {
        c.faults = faults;
        c.surfacer.num_workers = 1;
    }));
    let want = index_fingerprint(&reference);
    for workers in [2, 4] {
        let sys = DeepWebSystem::build(&cfg_with(8, |c| {
            c.faults = faults;
            c.surfacer.num_workers = workers;
        }));
        assert_eq!(
            index_fingerprint(&sys),
            want,
            "workers={workers}: faulty build must be byte-identical"
        );
        assert_eq!(
            format!("{:?}", sys.fault_stats),
            format!("{:?}", reference.fault_stats),
            "workers={workers}: same schedule, same fault counters"
        );
    }
    // A different fault seed is a different run (the schedule really bites).
    let other = DeepWebSystem::build(&cfg_with(8, |c| {
        c.faults = Some(FaultConfig::transient(100, 0.25));
    }));
    assert_ne!(
        format!("{:?}", other.fault_stats),
        format!("{:?}", reference.fault_stats)
    );
}

/// Everything one refresh round leaves behind that must not depend on the
/// worker count.
struct RefreshRound {
    outcome: RefreshOutcome,
    fault_stats: Option<FaultStats>,
    requests: u64,
    pending_docs: String,
    merged_hits: Vec<Vec<Hit>>,
}

/// Build an 8-site world, grow three sites (two of them surfaced), run one
/// full refresh round at `workers`, then merge and serve.
fn refresh_round(workers: usize, faults: Option<FaultConfig>) -> RefreshRound {
    let mut sys = DeepWebSystem::build(&cfg_with(8, |c| {
        c.faults = faults;
        c.surfacer.num_workers = workers;
    }));
    let sites = sys.world.server.sites();
    let mut surfaced: Vec<usize> = sys
        .outcome
        .reports
        .iter()
        .filter(|r| r.pages_surfaced > 0)
        .filter_map(|r| sites.iter().position(|s| s.host == r.host))
        .collect();
    surfaced.dedup();
    // The last two surfaced sites grow pages the index has not seen; the
    // first other site changes its fingerprint too.
    let last_two = &surfaced[surfaced.len().saturating_sub(2)..];
    assert_eq!(last_two.len(), 2, "two surfaced sites: {surfaced:?}");
    let other = (0..sites.len())
        .find(|i| !last_two.contains(i))
        .expect("a third site");
    let grown = [other, last_two[0], last_two[1]];
    for idx in grown {
        grow_site(&mut sys.world, idx, 40, 3);
    }
    let n = sys.world.server.sites().len();
    let outcome = sys.refresh(n);
    assert!(outcome.changed >= 3 && outcome.new_docs > 0, "{outcome:?}");
    let requests = sys.world.server.total_requests();
    let pending = sys.fresh_index().snapshot();
    let docs: Vec<&BatchDoc> = pending.segments().iter().flat_map(|s| s.docs()).collect();
    let mut queries: Vec<String> = docs.iter().take(6).map(|d| d.title.clone()).collect();
    queries.push("listings database".to_string());
    let pending_docs = format!("{docs:?}");
    sys.merge_fresh();
    RefreshRound {
        outcome,
        fault_stats: sys.fault_stats,
        requests,
        pending_docs,
        merged_hits: sys.search_batch(&queries, 10, 2),
    }
}

#[test]
fn faulty_refresh_is_deterministic_at_any_worker_count() {
    for faults in [None, Some(FaultConfig::transient(7, 0.3))] {
        let want = refresh_round(1, faults);
        for workers in [2, 4] {
            let got = refresh_round(workers, faults);
            let ctx = format!("workers={workers} faults={faults:?}");
            assert_eq!(got.outcome, want.outcome, "{ctx}");
            assert_eq!(got.fault_stats, want.fault_stats, "{ctx}");
            assert_eq!(got.requests, want.requests, "{ctx}");
            assert_eq!(got.pending_docs, want.pending_docs, "{ctx}");
            assert_eq!(got.merged_hits, want.merged_hits, "{ctx}");
        }
    }
}

#[test]
fn retry_policy_makes_faulty_build_equal_clean_build() {
    let clean = DeepWebSystem::build(&cfg_with(8, |_| {}));
    // Failure prefixes (≤ 2) fit inside `MAX_RETRIES` (3), so every fetch
    // eventually succeeds and the index must come out identical.
    for rate in [0.1, 0.3] {
        let faulty = DeepWebSystem::build(&cfg_with(8, |c| {
            c.faults = Some(FaultConfig::transient(7, rate));
        }));
        let stats = faulty.fault_stats.expect("faults configured");
        assert!(
            stats.transient_500s + stats.timeouts + stats.truncated > 0,
            "rate {rate}: schedule injected nothing ({stats:?})"
        );
        assert_eq!(
            index_fingerprint(&faulty),
            index_fingerprint(&clean),
            "rate {rate}: retries must fully absorb transient faults"
        );
        assert!(faulty.robustness.total_retries() > 0);
        // Degraded-but-surfaced hosts are reported as such, and retrying
        // cost more requests than the clean build.
        assert!(faulty.offline_requests > clean.offline_requests);
    }
}

#[test]
fn hostile_corpus_indexes_no_junk_urls_and_matches_honest_twin() {
    let honest = DeepWebSystem::build(&cfg_with(8, |_| {}));
    let hostile = DeepWebSystem::build(&cfg_with(8, |c| {
        c.web.hostile_fraction = 1.0;
    }));
    // No URL built from a suppressed widget may reach the index: the hidden
    // token, the credential field, the upload and the scripted promo box
    // never become parameters.
    for doc in hostile.index.docs().iter() {
        let url = doc.url.to_string();
        for junk in ["csrf_token=", "password=", "upload=", "promo="] {
            assert!(!url.contains(junk), "junk URL indexed: {url}");
        }
    }
    // Same backends, same honest inputs ⇒ the exact honest URL set, even
    // though every page's markup was mangled and every form carried junk.
    assert_eq!(
        surfaced_urls(&hostile),
        surfaced_urls(&honest),
        "hostile corpus must surface exactly the honest subset"
    );
    // The audit saw and suppressed the junk widgets on every analysed form.
    assert!(
        hostile.robustness.junk_suppressed >= hostile.outcome.reports.len(),
        "expected ≥1 suppressed widget per hostile form: {:?}",
        hostile.robustness.junk_suppressed
    );
    assert!(hostile.robustness.threats_flagged > hostile.robustness.junk_suppressed);
    assert_eq!(honest.robustness.junk_suppressed, 0);
}

#[test]
fn hostile_and_faulty_together_still_build_and_dedupe() {
    let sys = DeepWebSystem::build(&cfg_with(6, |c| {
        c.web.hostile_fraction = 0.5;
        c.faults = Some(FaultConfig::transient(3, 0.2));
    }));
    assert!(sys.index.len() > 10);
    let again = DeepWebSystem::build(&cfg_with(6, |c| {
        c.web.hostile_fraction = 0.5;
        c.faults = Some(FaultConfig::transient(3, 0.2));
    }));
    assert_eq!(index_fingerprint(&sys), index_fingerprint(&again));
}

/// A fetcher where one host is down for good — no failure prefix, no
/// recovery — layered over a real generated web.
struct DeadHost<'a> {
    inner: &'a dyn Fetcher,
    dead: String,
}

impl Fetcher for DeadHost<'_> {
    fn fetch(&self, url: &Url) -> Result<Response> {
        if url.host == self.dead {
            Err(http_error(500, url))
        } else {
            self.inner.fetch(url)
        }
    }
}

#[test]
fn permanently_dead_host_degrades_without_aborting_the_run() {
    let world = deepweb::webworld::generate(&deepweb::webworld::WebConfig {
        num_sites: 6,
        post_fraction: 0.0,
        ..Default::default()
    });
    let dead = world.server.sites()[0].host.clone();
    let fetcher = DeadHost {
        inner: &world.server,
        dead: dead.clone(),
    };
    let cfg = cfg_with(6, |_| {}).surfacer;
    let outcome = crawl_and_surface(&fetcher, &[Url::new("dir.sim", "/")], &cfg);
    let report = outcome.robustness();
    // The dead host produced nothing, but the run completed and the other
    // hosts surfaced normally.
    assert!(
        report.crawl.fetch_failures > 0 || report.crawl.permanent_failures > 0,
        "the dead host's fetches must be accounted: {:?}",
        report.crawl
    );
    assert!(report
        .hosts
        .iter()
        .all(|h| h.host != dead || h.status == HostStatus::Skipped));
    assert!(
        report.count(HostStatus::Surfaced) + report.count(HostStatus::Degraded) > 0,
        "healthy hosts must still surface"
    );
    assert!(
        outcome.docs.iter().all(|d| d.host != dead),
        "no docs can come from the dead host"
    );

    // Sanity: the same web with no dead host surfaces strictly more.
    let healthy = crawl_and_surface(&world.server, &[Url::new("dir.sim", "/")], &cfg);
    assert!(healthy.docs.len() > outcome.docs.len());
}

/// The retry bound reaches every prober end to end. Failure prefixes run up
/// to twice the `MAX_RETRIES + 1` attempts one fetch makes, so the schedule
/// alone says which site home pages the crawl loses: exactly those whose
/// prefix covers every attempt. The build still completes (graceful
/// degradation, not an abort).
#[test]
fn surfacer_config_policy_reaches_probers() {
    let attempts = MAX_RETRIES + 1;
    let faults = FaultConfig {
        seed: 21,
        rate: 0.4,
        max_faults_per_url: 2 * attempts,
    };
    let sys = DeepWebSystem::build(&cfg_with(6, |c| c.faults = Some(faults)));
    let schedule = FaultyFetcher::new(&sys.world.server, faults);
    let outlasts = |url: &Url| {
        schedule
            .schedule_for(url)
            .is_some_and(|(_, prefix)| prefix >= attempts)
    };
    assert!(!outlasts(&Url::new("dir.sim", "/")), "the seed page loads");
    let mut lost = 0;
    for site in sys.world.server.sites() {
        let home = Url::new(site.host.clone(), "/");
        let crawled = sys
            .outcome
            .docs_of(DocOrigin::Surface)
            .any(|d| d.url == home);
        assert_eq!(crawled, !outlasts(&home), "{home}");
        lost += usize::from(outlasts(&home));
    }
    assert!(
        lost > 0,
        "the schedule must outlast some home page's retries"
    );
    let crawl = sys.robustness.crawl;
    assert!(crawl.fetch_failures >= lost as u64, "{crawl:?}");
    assert!(sys.robustness.total_retries() > 0);
    // Degradation is visible: fewer docs than the clean twin, but a live
    // index nonetheless.
    let clean = DeepWebSystem::build(&cfg_with(6, |_| {}));
    assert!(sys.index.len() < clean.index.len());
    assert!(!sys.index.is_empty());
}
