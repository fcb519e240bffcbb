//! The end-to-end surfacing pipeline.
//!
//! Crawl the surface web from seeds → analyse every GET form (input
//! classification, correlation detection, keyword probing) → template search
//! with the informativeness test → indexability-aware template selection →
//! URL generation → fetch + annotate the surfaced pages → follow pagination
//! and detail links ("the web crawler will discover more content over time by
//! pursuing links from deep-web pages", §3.2).
//!
//! What reaches the engine is a page "like any other page" (§3.2): a
//! [`ProducedDoc`] is a URL, a title, text and the filled inputs (§5.1) —
//! a probe outcome's strings moved in, not the raw HTML or its record ids.

use crate::correlate::{
    aligned_range_assignments, candidate_range_pairs, confirm_range, dependent_assignments,
    detect_database_selection, RangePair,
};
use crate::formmodel::{forms_in, CrawledForm};
use crate::hardening::ThreatKind;
use crate::indexability::{select_templates, IndexabilityConfig};
use crate::keywords::{iterative_probing, KeywordConfig};
use crate::probe::{resolve_href, title_of, Assignment, ProbeOutcome, Prober};
use crate::template::{search_templates, Slot, TemplateConfig};
use crate::typed::{classify_typed, is_search_box, TypeClass, TypedValueLibrary};
use crate::urlgen::generate_urls;
use deepweb_common::text::DfTable;
use deepweb_common::{FxHashSet, ThreadPool, Url};
use deepweb_html::Document;
use deepweb_webworld::Fetcher;

/// Surface-crawl depth from the seed.
const CRAWL_DEPTH: usize = 3;

/// Surface-crawl budget per host, in URLs taken off the queue. A generated
/// site links at most 14 pages within [`CRAWL_DEPTH`] (home, search, about,
/// browse and up to 10 browse-listed details), so the cap binds only on a
/// host that links far more; [`CrawlStats::capped_hosts`] counts those.
const CRAWL_PAGES_PER_HOST: usize = 64;

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct SurfacerConfig {
    /// Keyword probing tuning.
    pub keywords: KeywordConfig,
    /// Template search tuning.
    pub templates: TemplateConfig,
    /// Indexability bounds + URL budget per form.
    pub indexability: IndexabilityConfig,
    /// Cap on candidate values per slot.
    pub max_values_per_input: usize,
    /// Library samples probed per candidate type class.
    pub samples_per_class: usize,
    /// Pagination pages followed per surfaced URL.
    pub follow_pagination: usize,
    /// Detail links followed per site.
    pub follow_details: usize,
    /// Worker threads for per-site form surfacing (1 = fully sequential
    /// reference path; 0 = auto, sized to the machine; the parallel path is
    /// output-identical to either).
    pub num_workers: usize,
}

impl Default for SurfacerConfig {
    fn default() -> Self {
        SurfacerConfig {
            keywords: KeywordConfig::default(),
            templates: TemplateConfig::default(),
            indexability: IndexabilityConfig::default(),
            max_values_per_input: 12,
            samples_per_class: 8,
            follow_pagination: 3,
            follow_details: 20,
            num_workers: 1,
        }
    }
}

/// Provenance of a produced document.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DocOrigin {
    /// Ordinary surface page found by the crawl.
    Surface,
    /// Page generated by a form submission.
    Surfaced,
    /// Page reached by following links from surfaced pages.
    Discovered,
}

/// A document produced by the pipeline, ready for indexing.
#[derive(Clone, Debug)]
pub struct ProducedDoc {
    /// Source URL.
    pub url: Url,
    /// Page title.
    pub title: String,
    /// Visible text.
    pub text: String,
    /// Origin.
    pub origin: DocOrigin,
    /// Host the page came from.
    pub host: String,
    /// `(input, value)` annotations for surfaced pages (paper §5.1).
    pub annotations: Vec<(String, String)>,
}

/// Per-site surfacing report.
#[derive(Clone, Debug, Default)]
pub struct SiteReport {
    /// Host analysed.
    pub host: String,
    /// A GET form was found and analysed.
    pub form_analyzed: bool,
    /// The form was POST (skipped).
    pub post_skipped: bool,
    /// Slots constructed.
    pub slots: usize,
    /// Templates evaluated.
    pub templates_tested: usize,
    /// Informative templates.
    pub templates_informative: usize,
    /// URLs generated.
    pub urls_generated: usize,
    /// Pages surfaced (incl. pagination).
    pub pages_surfaced: usize,
    /// Distinct records seen on surfaced pages.
    pub records_covered: usize,
    /// Probes spent on analysis (classification, keywords, templates).
    pub analysis_requests: u64,
    /// Requests spent fetching surfaced pages.
    pub surfacing_requests: u64,
    /// Typed inputs detected: `(input, class)`.
    pub detected_types: Vec<(String, TypeClass)>,
    /// Range pairs detected and validated.
    pub detected_ranges: Vec<RangePair>,
    /// Database-selection detected.
    pub detected_dbsel: bool,
    /// Search boxes detected.
    pub search_boxes: Vec<String>,
    /// Form vocabulary observed on the form: select options and JS
    /// dependency-map values, per input name (feeds the index's facet
    /// vocabulary for annotation-aware serving).
    pub facet_values: Vec<(String, Vec<String>)>,
    /// Retries spent on this site (analysis + surfacing).
    pub retries: u64,
    /// Transient fetch failures observed against this site.
    pub transient_failures: u64,
    /// Permanent fetch failures observed against this site.
    pub permanent_failures: u64,
    /// Widgets the hardening audit removed from probe surface (suppressed
    /// hidden tokens, credential fields, uploads) — each one a family of
    /// junk URLs that never reached the index.
    pub junk_suppressed: usize,
    /// Threats the audit flagged on this site's form.
    pub threats: Vec<(String, ThreatKind)>,
}

/// Robustness accounting for the surface crawl (the BFS before any form is
/// probed).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CrawlStats {
    /// Pages fetched successfully.
    pub pages_fetched: u64,
    /// URLs that still failed after the last retry.
    pub fetch_failures: u64,
    /// Retries spent during the crawl.
    pub retries: u64,
    /// Transient failures observed during the crawl.
    pub transient_failures: u64,
    /// Permanent failures observed during the crawl.
    pub permanent_failures: u64,
    /// Hosts whose crawl stopped at the per-host page budget with links
    /// still queued.
    pub capped_hosts: u64,
}

/// Whole-run outcome.
#[derive(Clone, Debug, Default)]
pub struct SurfacingOutcome {
    /// Everything to index (surface + surfaced + discovered).
    pub docs: Vec<ProducedDoc>,
    /// Per-form reports: hosts in first-appearance order, a host's forms in
    /// crawl order.
    pub reports: Vec<SiteReport>,
    /// Surface-crawl robustness accounting.
    pub crawl_stats: CrawlStats,
}

impl SurfacingOutcome {
    /// Documents of a given origin.
    pub fn docs_of(&self, origin: DocOrigin) -> impl Iterator<Item = &ProducedDoc> {
        self.docs.iter().filter(move |d| d.origin == origin)
    }

    /// Summarise this run's per-host robustness outcomes.
    pub fn robustness(&self) -> RobustnessReport {
        let hosts = self
            .reports
            .iter()
            .map(|r| {
                let failures = r.retries + r.transient_failures + r.permanent_failures;
                let status = if r.post_skipped || r.pages_surfaced == 0 {
                    HostStatus::Skipped
                } else if failures > 0 {
                    HostStatus::Degraded
                } else {
                    HostStatus::Surfaced
                };
                HostOutcome {
                    host: r.host.clone(),
                    status,
                    retries: r.retries,
                }
            })
            .collect();
        RobustnessReport {
            hosts,
            crawl: self.crawl_stats,
            junk_suppressed: self.reports.iter().map(|r| r.junk_suppressed).sum(),
            threats_flagged: self.reports.iter().map(|r| r.threats.len()).sum(),
        }
    }
}

/// How a host came out of a surfacing run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HostStatus {
    /// Fully surfaced with no fetch failures.
    Surfaced,
    /// Surfaced pages, but only after retries or around failed fetches.
    Degraded,
    /// Produced nothing: POST-skipped, uninformative, or all fetches failed.
    Skipped,
}

/// One host's robustness outcome.
#[derive(Clone, Debug)]
pub struct HostOutcome {
    /// Host name.
    pub host: String,
    /// Overall disposition.
    pub status: HostStatus,
    /// Retries spent on the host.
    pub retries: u64,
}

/// Whole-run robustness report: every analysed host's disposition plus the
/// surface-crawl totals. Hosts the crawl never reached (every fetch failed
/// before a form was seen) have no entry here; they show up as
/// [`CrawlStats::fetch_failures`] instead. The report exists so that
/// graceful degradation is *observable*: a build over a faulty web completes
/// and says exactly which hosts it carried, limped through, or dropped.
#[derive(Clone, Debug, Default)]
pub struct RobustnessReport {
    /// Per-host outcomes, in crawl order.
    pub hosts: Vec<HostOutcome>,
    /// Surface-crawl totals.
    pub crawl: CrawlStats,
    /// Total junk widgets suppressed across hosts.
    pub junk_suppressed: usize,
    /// Total threats flagged across hosts (suppressed or advisory).
    pub threats_flagged: usize,
}

impl RobustnessReport {
    /// Number of hosts with the given status.
    pub fn count(&self, status: HostStatus) -> usize {
        self.hosts.iter().filter(|h| h.status == status).count()
    }

    /// Total retries spent across hosts and the crawl.
    pub fn total_retries(&self) -> u64 {
        self.crawl.retries + self.hosts.iter().map(|h| h.retries).sum::<u64>()
    }
}

/// Crawl the surface web (BFS from seeds), returning fetched pages and the
/// set of search-form URLs found.
struct SurfaceCrawl {
    pages: Vec<ProducedDoc>,
    forms: Vec<CrawledForm>,
    per_host_text: deepweb_common::FxHashMap<String, String>,
    background: DfTable,
    stats: CrawlStats,
}

fn crawl_surface(fetcher: &dyn Fetcher, seeds: &[Url]) -> SurfaceCrawl {
    let mut queue: Vec<(Url, usize)> = seeds.iter().map(|u| (u.clone(), 0)).collect();
    let mut visited: FxHashSet<String> = FxHashSet::default();
    let mut pages = Vec::new();
    let mut forms: Vec<CrawledForm> = Vec::new();
    let mut per_host_text: deepweb_common::FxHashMap<String, String> =
        deepweb_common::FxHashMap::default();
    let mut background = DfTable::new();
    let prober = Prober::new(fetcher);
    let mut stats = CrawlStats::default();
    // Unvisited URLs per host taken off the queue. Past the budget they
    // are dropped, and the host is counted at its first drop.
    let mut host_pages: deepweb_common::FxHashMap<String, usize> =
        deepweb_common::FxHashMap::default();
    let mut qi = 0;
    while let Some((url, depth)) = queue.get(qi).cloned() {
        qi += 1;
        let key = url.to_string();
        if visited.contains(&key) {
            continue;
        }
        let taken = host_pages.entry(url.host.clone()).or_default();
        *taken += 1;
        if *taken > CRAWL_PAGES_PER_HOST {
            stats.capped_hosts += u64::from(*taken == CRAWL_PAGES_PER_HOST + 1);
            continue;
        }
        visited.insert(key);
        let Ok(resp) = prober.fetch_response(&url) else {
            // A host that stays down after the last retry degrades the
            // crawl (its pages are missing) but never aborts it.
            stats.fetch_failures += 1;
            continue;
        };
        stats.pages_fetched += 1;
        let doc = Document::parse(&resp.html);
        let text = doc.text();
        background.add_document(&text);
        let host_text = per_host_text.entry(url.host.clone()).or_default();
        host_text.push_str(&text);
        host_text.push(' ');
        for f in forms_in(&url, &doc) {
            if !forms.iter().any(|e| e.action_url == f.action_url) {
                forms.push(f);
            }
        }
        pages.push(ProducedDoc {
            url: url.clone(),
            title: title_of(&doc),
            text,
            origin: DocOrigin::Surface,
            host: url.host.clone(),
            annotations: Vec::new(),
        });
        if depth < CRAWL_DEPTH {
            for a in doc.find_all("a") {
                if let Some(href) = a.attr("href") {
                    // Do not crawl into results pages from browse links; the
                    // surfacer reaches those via form submissions.
                    if let Some(next) = resolve_href(&url, href) {
                        if next.path != "/results" && !visited.contains(&next.to_string()) {
                            queue.push((next, depth + 1));
                        }
                    }
                }
            }
        }
    }
    let tally = prober.stats();
    stats.retries = tally.retries;
    stats.transient_failures = tally.transient_failures;
    stats.permanent_failures = tally.permanent_failures;
    SurfaceCrawl {
        pages,
        forms,
        per_host_text,
        background,
        stats,
    }
}

/// Build slots for a form by classifying its inputs.
fn build_slots(
    prober: &Prober<'_>,
    form: &CrawledForm,
    site_text: &str,
    background: &DfTable,
    lib: &TypedValueLibrary,
    cfg: &SurfacerConfig,
    report: &mut SiteReport,
) -> Vec<Slot> {
    let cap = cfg.max_values_per_input;
    let mut slots: Vec<Slot> = Vec::new();
    let mut consumed: FxHashSet<String> = FxHashSet::default();

    // 1. JS-dependent pair (make/model): one aligned group, both inputs consumed.
    if let Some(dep) = &form.dependents {
        let assignments = dependent_assignments(dep);
        if !assignments.is_empty() {
            consumed.insert(dep.controller.clone());
            consumed.insert(dep.dependent.clone());
            slots.push(Slot::Group {
                label: format!("dep:{}", dep.dependent),
                assignments: assignments.into_iter().take(cap * 4).collect(),
            });
        }
    }

    // 2. Range pairs: mine by name, validate by probing, fill aligned buckets.
    for pair in candidate_range_pairs(form) {
        if consumed.contains(&pair.min_input) || consumed.contains(&pair.max_input) {
            continue;
        }
        if let Some((_, values)) = confirm_range(prober, form, &pair, lib, cap) {
            consumed.insert(pair.min_input.clone());
            consumed.insert(pair.max_input.clone());
            report.detected_ranges.push(pair.clone());
            slots.push(Slot::Group {
                label: format!("range:{}", pair.stem),
                assignments: aligned_range_assignments(&pair, &values),
            });
        }
    }

    // 3. Selects (non-dependent) become plain slots.
    for input in form.fillable_inputs() {
        if consumed.contains(&input.name) {
            continue;
        }
        let options = input.options();
        if !options.is_empty() {
            slots.push(Slot::Single {
                input: input.name.clone(),
                values: options.into_iter().take(cap).map(str::to_string).collect(),
            });
            consumed.insert(input.name.clone());
        }
    }

    // 4. Text boxes: typed first, then search-box probing.
    //
    // Characteristic terms are computed once per form at the widest width
    // any consumer needs (ranking is total — score desc, term asc — so the
    // top-`SEARCH_BOX_PROBES` that search-box detection submits are exactly
    // the prefix of the top-8 used for database-selection probing).
    let char_terms: Vec<String> = background.characteristic_terms(site_text, 8);
    let mut search_box_names: Vec<String> = Vec::new();
    for input in form.fillable_inputs() {
        if consumed.contains(&input.name) || !input.is_text() {
            continue;
        }
        if let Some(class) = classify_typed(prober, form, input, lib, cfg.samples_per_class) {
            report.detected_types.push((input.name.clone(), class));
            slots.push(Slot::Single {
                input: input.name.clone(),
                values: lib.sample(class, cap),
            });
            consumed.insert(input.name.clone());
        } else if is_search_box(prober, form, input, &char_terms) {
            search_box_names.push(input.name.clone());
        }
        // Unclassified text boxes (exact-match author boxes etc.) are left
        // unbound — the paper's "untyped large-domain" case.
    }

    // 5. Search boxes: database-selection detection, then keyword probing.
    for name in search_box_names {
        report.search_boxes.push(name.clone());
        let mut dbsel_handled = false;
        // Try db-selection against the first select slot.
        let select_name = slots.iter().find_map(|s| match s {
            Slot::Single { input, values } if !values.is_empty() => form
                .input(input)
                .and_then(|i| (!i.options().is_empty()).then(|| input.clone())),
            _ => None,
        });
        if let Some(sel_name) = select_name {
            if detect_database_selection(prober, form, &sel_name, &name, &char_terms, 3) {
                report.detected_dbsel = true;
                // Per-select-value keyword sets (paper §4.2).
                let sel_values: Vec<String> = form
                    .input(&sel_name)
                    .map(|i| i.options().into_iter().map(str::to_string).collect())
                    .unwrap_or_default();
                let mut assignments = Vec::new();
                for v in sel_values.into_iter().take(4) {
                    let base = vec![(sel_name.clone(), v.clone())];
                    let sel = iterative_probing(
                        prober,
                        form,
                        &name,
                        &base,
                        site_text,
                        background,
                        &cfg.keywords,
                    );
                    for kw in sel.keywords.into_iter().take(cap / 2) {
                        assignments.push(vec![(sel_name.clone(), v.clone()), (name.clone(), kw)]);
                    }
                }
                if !assignments.is_empty() {
                    // Replace the plain select slot with the correlated group.
                    slots.retain(|s| s.name() != sel_name);
                    slots.push(Slot::Group {
                        label: format!("dbsel:{name}"),
                        assignments,
                    });
                    dbsel_handled = true;
                }
            }
        }
        if !dbsel_handled {
            let sel = iterative_probing(
                prober,
                form,
                &name,
                &[],
                site_text,
                background,
                &cfg.keywords,
            );
            if !sel.keywords.is_empty() {
                slots.push(Slot::Single {
                    input: name.clone(),
                    values: sel.keywords.into_iter().take(cap).collect(),
                });
            }
        }
    }
    // A slot with no filling cannot be bound (`Slot::assignment` cycles
    // through its fillings); a cap of 0 leaves every slot so.
    slots.retain(|slot| slot.cardinality() > 0);
    slots
}

/// Surface one form end-to-end, appending produced docs to `docs`.
fn surface_form(
    fetcher: &dyn Fetcher,
    form: &CrawledForm,
    site_text: &str,
    background: &DfTable,
    lib: &TypedValueLibrary,
    cfg: &SurfacerConfig,
    docs: &mut Vec<ProducedDoc>,
) -> SiteReport {
    let mut report = SiteReport {
        host: form.host.clone(),
        junk_suppressed: form.suppressed_inputs(),
        threats: form.threats.clone(),
        ..Default::default()
    };
    if form.post {
        report.post_skipped = true;
        return report;
    }
    report.form_analyzed = true;
    // Record the form vocabulary (selects + JS dependency map) for serving.
    for input in form.fillable_inputs() {
        let opts: Vec<String> = input.options().iter().map(|s| s.to_string()).collect();
        if !opts.is_empty() {
            report.facet_values.push((input.name.clone(), opts));
        }
    }
    if let Some(dep) = &form.dependents {
        let controllers: Vec<String> = dep.map.iter().map(|(k, _)| k.clone()).collect();
        let dependents: Vec<String> = dep
            .map
            .iter()
            .flat_map(|(_, vs)| vs.iter().cloned())
            .collect();
        report
            .facet_values
            .push((dep.controller.clone(), controllers));
        report
            .facet_values
            .push((dep.dependent.clone(), dependents));
    }
    let prober = Prober::new(fetcher);
    let slots = build_slots(&prober, form, site_text, background, lib, cfg, &mut report);
    report.slots = slots.len();
    let evals = search_templates(&prober, form, &slots, &cfg.templates);
    report.templates_tested = evals.len();
    report.templates_informative = evals.iter().filter(|e| e.informative).count();
    let chosen = select_templates(&evals, &cfg.indexability);
    let urls = generate_urls(form, &slots, &evals, &chosen, cfg.indexability.max_urls);
    report.urls_generated = urls.len();
    report.analysis_requests = prober.requests();

    // Fetch the generated URLs; follow pagination; collect the first
    // `follow_details` distinct detail links, in page order.
    let produced = |out: ProbeOutcome, origin, annotations: Assignment| ProducedDoc {
        url: out.url,
        title: out.title,
        text: out.text,
        origin,
        host: form.host.clone(),
        annotations,
    };
    let mut covered: FxHashSet<u32> = FxHashSet::default();
    let mut detail_queue: Vec<Url> = Vec::new();
    let mut queued: FxHashSet<String> = FxHashSet::default();
    for g in &urls {
        let mut out = prober.fetch(&g.url);
        let mut hops = 0;
        while out.ok {
            covered.extend(out.record_ids.iter().copied());
            for durl in &out.detail_urls {
                if detail_queue.len() < cfg.follow_details && queued.insert(durl.to_string()) {
                    detail_queue.push(durl.clone());
                }
            }
            let next = out.next_page.take();
            docs.push(produced(out, DocOrigin::Surfaced, g.assignment.clone()));
            report.pages_surfaced += 1;
            hops += 1;
            match next {
                Some(next) if hops <= cfg.follow_pagination => out = prober.fetch(&next),
                _ => break,
            }
        }
    }
    // Discovered detail pages.
    for durl in &detail_queue {
        let out = prober.fetch(durl);
        if out.ok {
            docs.push(produced(out, DocOrigin::Discovered, Vec::new()));
        }
    }
    report.records_covered = covered.len();
    report.surfacing_requests = prober.requests() - report.analysis_requests;
    let tally = prober.stats();
    report.retries = tally.retries;
    report.transient_failures = tally.transient_failures;
    report.permanent_failures = tally.permanent_failures;
    report
}

/// Run the full pipeline: crawl from `seeds`, surface every GET form found.
///
/// The surface crawl is a sequential BFS (link-frontier order is part of the
/// output contract), then form surfacing — the dominant cost — fans out
/// across [`SurfacerConfig::num_workers`] threads, one pool task per *host*:
/// hosts in first-appearance order, a host's forms in crawl order inside its
/// task, so a host is only ever probed from one thread (per-host politeness,
/// and the fault injector's per-URL failure prefixes, stay sequential). The
/// pool's workers take the next host as each finishes, so uneven sites
/// balance, and it returns results in input order.
/// Per-form work reads only shared immutable state (crawl text, background
/// DF table, value library), so the output is byte-identical to the
/// sequential `num_workers = 1` path — see the `parallel_matches_sequential`
/// test and DESIGN.md §8.
pub fn crawl_and_surface(
    fetcher: &dyn Fetcher,
    seeds: &[Url],
    cfg: &SurfacerConfig,
) -> SurfacingOutcome {
    let crawl = crawl_surface(fetcher, seeds);
    let lib = TypedValueLibrary::standard();

    let mut hosts: Vec<(&str, Vec<&CrawledForm>)> = Vec::new();
    for form in &crawl.forms {
        match hosts.iter_mut().find(|(host, _)| *host == form.host) {
            Some((_, forms)) => forms.push(form),
            None => hosts.push((&form.host, vec![form])),
        }
    }

    let surfaced = ThreadPool::new(cfg.num_workers).map(hosts, |_, (host, forms)| {
        let site_text = crawl
            .per_host_text
            .get(host)
            .map(String::as_str)
            .unwrap_or_default();
        let mut host_docs = Vec::new();
        let host_reports: Vec<SiteReport> = forms
            .into_iter()
            .map(|form| {
                surface_form(
                    fetcher,
                    form,
                    site_text,
                    &crawl.background,
                    &lib,
                    cfg,
                    &mut host_docs,
                )
            })
            .collect();
        (host_reports, host_docs)
    });

    let mut docs = crawl.pages;
    let mut reports = Vec::new();
    for (host_reports, host_docs) in surfaced {
        reports.extend(host_reports);
        docs.extend(host_docs);
    }
    SurfacingOutcome {
        docs,
        reports,
        crawl_stats: crawl.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepweb_webworld::{generate, WebConfig};

    fn quick_cfg() -> SurfacerConfig {
        SurfacerConfig {
            keywords: KeywordConfig {
                seeds: 6,
                iterations: 1,
                candidates_per_round: 6,
                max_keywords: 8,
                probe_budget: 40,
            },
            templates: TemplateConfig {
                test_sample: 4,
                probe_budget: 120,
            },
            indexability: IndexabilityConfig {
                max_urls: 60,
                ..Default::default()
            },
            max_values_per_input: 6,
            samples_per_class: 5,
            follow_pagination: 1,
            follow_details: 5,
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_surfaces_a_small_web() {
        let w = generate(&WebConfig {
            num_sites: 8,
            ..WebConfig::default()
        });
        let outcome = crawl_and_surface(&w.server, &[Url::new("dir.sim", "/")], &quick_cfg());
        // Surface pages were crawled.
        assert!(outcome.docs_of(DocOrigin::Surface).count() > 8);
        // At least one form got surfaced pages.
        let surfaced = outcome.docs_of(DocOrigin::Surfaced).count();
        assert!(surfaced > 0, "no pages surfaced: {:?}", outcome.reports);
        // Reports exist for every analysed form.
        assert!(!outcome.reports.is_empty());
        // POST forms are skipped.
        for (r, t) in outcome.reports.iter().filter_map(|r| {
            w.truth
                .sites
                .iter()
                .find(|t| t.host == r.host)
                .map(|t| (r, t))
        }) {
            if t.post {
                assert!(r.post_skipped);
                assert_eq!(r.pages_surfaced, 0);
            }
        }
    }

    /// The crawl budget is per host, so a web past 800 sites (about 3 000
    /// crawled pages) still reaches every site's search form.
    #[test]
    fn a_large_web_crawls_every_get_form() {
        let w = generate(&WebConfig {
            num_sites: 1000,
            min_records: 10,
            max_records: 20,
            ..WebConfig::default()
        });
        let crawl = crawl_surface(&w.server, &[Url::new("dir.sim", "/")]);
        assert!(crawl.stats.pages_fetched > 3000, "{:?}", crawl.stats);
        assert_eq!(crawl.stats.capped_hosts, 0);
        let found: FxHashSet<&str> = crawl
            .forms
            .iter()
            .filter(|f| !f.post)
            .map(|f| f.host.as_str())
            .collect();
        let missed: Vec<&str> = w
            .truth
            .sites
            .iter()
            .filter(|t| !t.post && !found.contains(t.host.as_str()))
            .map(|t| t.host.as_str())
            .collect();
        assert!(
            missed.is_empty(),
            "{} GET forms missed: {missed:?}",
            missed.len()
        );
    }

    /// A host linking more pages than the per-host budget is crawled up to
    /// the budget and counted once; the other hosts are crawled in full.
    #[test]
    fn a_host_past_the_budget_is_capped_and_counted() {
        /// `wide.sim/` links 100 pages, `small.sim/` one.
        struct Wide;
        impl Fetcher for Wide {
            fn fetch(&self, url: &Url) -> deepweb_common::Result<deepweb_webworld::Response> {
                let links = match (url.host.as_str(), url.path.as_str()) {
                    ("wide.sim", "/") => 100,
                    ("small.sim", "/") => 1,
                    _ => 0,
                };
                let body: String = (0..links)
                    .map(|i| format!("<a href=\"/p{i}\">page {i}</a>"))
                    .collect();
                Ok(deepweb_webworld::Response {
                    status: 200,
                    html: format!("<html><body>{body}</body></html>"),
                })
            }
        }
        let seeds = [Url::new("wide.sim", "/"), Url::new("small.sim", "/")];
        let crawl = crawl_surface(&Wide, &seeds);
        assert_eq!(crawl.stats.capped_hosts, 1);
        let wide = crawl.pages.iter().filter(|p| p.host == "wide.sim").count();
        assert_eq!(wide, CRAWL_PAGES_PER_HOST);
        assert_eq!(crawl.pages.len(), CRAWL_PAGES_PER_HOST + 2);
    }

    /// A cap of zero values per input leaves every slot without a filling:
    /// the form is analysed, nothing is bound, and nothing is surfaced.
    #[test]
    fn zero_values_per_input_binds_nothing() {
        let w = generate(&WebConfig {
            num_sites: 4,
            ..WebConfig::default()
        });
        let cfg = SurfacerConfig {
            max_values_per_input: 0,
            ..Default::default()
        };
        let outcome = crawl_and_surface(&w.server, &[Url::new("dir.sim", "/")], &cfg);
        assert!(outcome.docs_of(DocOrigin::Surface).count() > 4);
        assert!(!outcome.reports.is_empty());
        assert_eq!(outcome.docs_of(DocOrigin::Surfaced).count(), 0);
    }

    #[test]
    fn surfaced_pages_carry_annotations() {
        let w = generate(&WebConfig {
            num_sites: 8,
            ..WebConfig::default()
        });
        let outcome = crawl_and_surface(&w.server, &[Url::new("dir.sim", "/")], &quick_cfg());
        let with_ann = outcome
            .docs_of(DocOrigin::Surfaced)
            .filter(|d| !d.annotations.is_empty())
            .count();
        assert!(
            with_ann > 0,
            "surfaced pages should be annotated with their inputs"
        );
    }

    #[test]
    fn coverage_is_nontrivial_on_get_sites() {
        let w = generate(&WebConfig {
            num_sites: 8,
            post_fraction: 0.0,
            ..WebConfig::default()
        });
        let outcome = crawl_and_surface(&w.server, &[Url::new("dir.sim", "/")], &quick_cfg());
        let total_covered: usize = outcome.reports.iter().map(|r| r.records_covered).sum();
        assert!(total_covered > 0);
        // At least one site should cover a decent share of its records.
        let best = outcome
            .reports
            .iter()
            .filter_map(|r| {
                w.truth
                    .sites
                    .iter()
                    .find(|t| t.host == r.host)
                    .map(|t| r.records_covered as f64 / t.records.max(1) as f64)
            })
            .fold(0.0f64, f64::max);
        assert!(best > 0.2, "best per-site coverage too low: {best}");
    }

    #[test]
    fn parallel_matches_sequential() {
        let w = generate(&WebConfig {
            num_sites: 8,
            ..WebConfig::default()
        });
        let seeds = [Url::new("dir.sim", "/")];
        let sequential = crawl_and_surface(&w.server, &seeds, &quick_cfg());
        for workers in [2, 4] {
            let cfg = SurfacerConfig {
                num_workers: workers,
                ..quick_cfg()
            };
            let parallel = crawl_and_surface(&w.server, &seeds, &cfg);
            assert_eq!(
                format!("{:?}", parallel.docs),
                format!("{:?}", sequential.docs),
                "docs must be byte-identical at workers={workers}"
            );
            assert_eq!(
                format!("{:?}", parallel.reports),
                format!("{:?}", sequential.reports),
                "reports must be byte-identical at workers={workers}"
            );
        }
    }

    #[test]
    fn discovered_pages_follow_links() {
        let w = generate(&WebConfig {
            num_sites: 8,
            post_fraction: 0.0,
            ..WebConfig::default()
        });
        let outcome = crawl_and_surface(&w.server, &[Url::new("dir.sim", "/")], &quick_cfg());
        assert!(outcome.docs_of(DocOrigin::Discovered).count() > 0);
    }
}
