//! The end-to-end system: generate a web, surface it, index everything, and
//! serve keyword queries — the full loop the paper's production system runs.

use deepweb_common::{ThreadPool, Url};
use deepweb_coverage::content_hash;
use deepweb_index::{
    Annotation, BatchDoc, ClusterConfig, ClusterServer, DocKind, Hit, IndexSearcher, PruningMode,
    SearchIndex, SearchOptions, SearchService, SegmentedIndex,
};
use deepweb_surfacer::{
    crawl_and_surface, fetch_with_retries, resurface_host, DocOrigin, ProducedDoc,
    ReprobeScheduler, RobustnessReport, SurfacerConfig, SurfacingOutcome,
};
use deepweb_webworld::{
    generate, FaultConfig, FaultStats, FaultyFetcher, Fetcher, WebConfig, World,
};
use std::sync::Arc;

/// Configuration of a full system build.
#[derive(Clone, Debug, Default)]
pub struct SystemConfig {
    /// Web generation parameters.
    pub web: WebConfig,
    /// Surfacing parameters.
    pub surfacer: SurfacerConfig,
    /// Serve with annotation-aware scoring (paper §5.1).
    pub use_annotations: bool,
    /// Top-k evaluation strategy for every serving tier (DESIGN.md §14).
    /// Results are byte-identical across modes; [`PruningMode::BlockMax`]
    /// skips provably-losing doc regions of a query with long enough lists
    /// via the block-max index built at the end of [`DeepWebSystem::build`].
    pub pruning: PruningMode,
    /// Optional fault injection: when set, every build/refresh fetch goes
    /// through a [`FaultyFetcher`] with this schedule. The surfacer's
    /// [`MAX_RETRIES`](deepweb_surfacer::MAX_RETRIES) absorbs transient
    /// faults; the build never aborts on a failing host (see
    /// [`DeepWebSystem::robustness`]).
    pub faults: Option<FaultConfig>,
}

/// A quick, test-sized configuration (small web, tight probe budgets).
pub fn quick_config(num_sites: usize) -> SystemConfig {
    SystemConfig {
        web: WebConfig {
            num_sites,
            ..WebConfig::default()
        },
        surfacer: SurfacerConfig {
            keywords: deepweb_surfacer::KeywordConfig {
                seeds: 6,
                iterations: 1,
                candidates_per_round: 6,
                max_keywords: 8,
                probe_budget: 40,
            },
            templates: deepweb_surfacer::TemplateConfig {
                test_sample: 4,
                probe_budget: 120,
            },
            indexability: deepweb_surfacer::IndexabilityConfig {
                max_urls: 80,
                ..Default::default()
            },
            max_values_per_input: 6,
            samples_per_class: 5,
            follow_pagination: 1,
            follow_details: 5,
            ..Default::default()
        },
        use_annotations: false,
        pruning: PruningMode::Exhaustive,
        faults: None,
    }
}

/// The built system.
pub struct DeepWebSystem {
    /// The simulated web (server + ground truth).
    pub world: World,
    /// The search index with surfaced content inserted — shared, not
    /// cloned, with the base of [`DeepWebSystem::fresh_index`]: generation
    /// zero at build time, the merged base after each
    /// [`DeepWebSystem::merge_fresh`].
    pub index: Arc<SearchIndex>,
    /// The surfacing outcome (docs + per-site reports).
    pub outcome: SurfacingOutcome,
    /// Total requests the offline phase issued (crawl + analysis +
    /// surfacing) — the paper's "light load" accounting.
    pub offline_requests: u64,
    /// Per-host robustness outcomes of the build (who surfaced, who
    /// degraded, who was skipped, and how many retries it cost).
    pub robustness: RobustnessReport,
    /// Fault counters accumulated by the injected [`FaultyFetcher`] across
    /// build and refresh rounds; `None` when no fault schedule is configured.
    pub fault_stats: Option<FaultStats>,
    /// Scoring options used at serve time.
    pub options: SearchOptions,
    /// The build configuration, retained so incremental re-surfacing probes
    /// with the same budgets the batch pipeline used.
    config: SystemConfig,
    /// Freshness tier (delta segments + re-probe schedule + the home-page
    /// fingerprints taken at build).
    fresh: FreshState,
}

/// Freshness-tier state: the segmented index serving base + deltas, the
/// round-robin re-probe schedule, and one content fingerprint per site.
struct FreshState {
    segmented: SegmentedIndex,
    scheduler: ReprobeScheduler,
    fingerprints: Vec<u64>,
}

/// What one refresh task hands back for its site: the home-page fingerprint
/// and, when it changed, the re-surface's stale count and its fresh docs
/// already converted — never the whole [`SurfacingOutcome`].
struct SiteProbe {
    idx: usize,
    fingerprint: u64,
    stale: usize,
    fresh: Vec<BatchDoc>,
}

/// What one [`DeepWebSystem::refresh`] round did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RefreshOutcome {
    /// Sites fingerprint-probed this round.
    pub probed: usize,
    /// Sites whose fingerprint changed (re-surfaced this round).
    pub changed: usize,
    /// Documents appended to the round's delta segment: re-surfaced URLs
    /// the index did not hold before the round.
    pub new_docs: usize,
    /// Re-surfaced documents whose URL was already indexed before the
    /// round. The delta tier is append-only: these keep their original
    /// content until the next full rebuild (DESIGN.md §15).
    pub stale_docs: usize,
    /// Sites whose fingerprint probe still failed after its last retry.
    /// They stay schedulable: the next round probes them again.
    pub failed: usize,
}

impl DeepWebSystem {
    /// Build: generate → crawl+surface → index.
    ///
    /// With [`SystemConfig::faults`] set, the whole offline phase runs
    /// through a [`FaultyFetcher`]; hosts that keep failing degrade or get
    /// skipped (recorded in [`DeepWebSystem::robustness`]) but the build
    /// itself always completes.
    pub fn build(cfg: &SystemConfig) -> Self {
        let world = generate(&cfg.web);
        world.server.reset_counts();
        let faulty = cfg.faults.map(|fc| FaultyFetcher::new(&world.server, fc));
        let fetcher: &dyn Fetcher = match &faulty {
            Some(f) => f,
            None => &world.server,
        };
        let outcome = crawl_and_surface(fetcher, &[Url::new("dir.sim", "/")], &cfg.surfacer);
        let fault_stats = faulty.as_ref().map(|f| f.stats());
        drop(faulty);
        let offline_requests = world.server.total_requests();
        // Index build rides the same worker knob as the pipeline: batch the
        // docs and let the pool shard tokenisation, postings construction
        // and the block index (deterministic shard merge — identical output
        // at any worker count), so the system serves either pruning mode
        // without a rebuild. The index keeps the pool: the freshness tier's
        // merges and batched reads run on it too.
        let pool = ThreadPool::new(cfg.surfacer.num_workers);
        let batch: Vec<BatchDoc> = outcome
            .docs
            .iter()
            .map(|doc| to_batch_doc(&world, doc))
            .collect();
        let mut index = SearchIndex::new();
        index.add_batch(&pool, batch);
        // Form vocabulary observed by the crawler extends the facet value
        // sets, so annotation conflicts are detectable even for values with
        // no surfaced page of their own (paper §5.1).
        for report in &outcome.reports {
            for (key, values) in &report.facet_values {
                index.add_facet_values(key, values.iter().cloned());
            }
        }
        let options = SearchOptions {
            use_annotations: cfg.use_annotations,
            pruning: cfg.pruning,
        };
        // Every site's home-page fingerprint as the build saw it, so the
        // first refresh round reacts to any change after the build. Taken
        // off the healthy server, after `offline_requests` is read and
        // before the reset: the pass is neither offline nor serve-time load.
        // It runs after the index is built so the pages it renders and
        // drops are not interleaved with the index's allocations.
        let fingerprints = world
            .server
            .sites()
            .iter()
            .map(|s| {
                world
                    .server
                    .fetch(&Url::new(s.host.clone(), "/"))
                    .map(|r| content_hash(&r.html))
                    .unwrap_or(0)
            })
            .collect();
        world.server.reset_counts();
        let index = Arc::new(index);
        let fresh = FreshState {
            segmented: SegmentedIndex::from_shared(Arc::clone(&index)),
            scheduler: ReprobeScheduler::new(),
            fingerprints,
        };
        DeepWebSystem {
            world,
            index,
            robustness: outcome.robustness(),
            outcome,
            offline_requests,
            fault_stats,
            options,
            config: cfg.clone(),
            fresh,
        }
    }

    /// This system's sequential serving tier as a [`SearchService`] — the
    /// reference [`DeepWebSystem::cluster`] must match byte-for-byte.
    pub fn service(&self) -> IndexSearcher<'_> {
        self.index.searcher(self.options)
    }

    /// Serve a keyword query through the sequential [`SearchService`] tier
    /// (allocation-free kernel, per-thread reusable scratch, DESIGN.md §10).
    pub fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        self.service().search(query, k)
    }

    /// Serve a batch of queries concurrently over `workers` threads
    /// (`0` = auto) through an uncached [`DeepWebSystem::cluster`]. One
    /// result list per query, in batch order — byte-identical to calling
    /// [`DeepWebSystem::search`] per query, at any worker count. Each worker
    /// reuses one query scratch for its whole share of the batch.
    pub fn search_batch(&self, queries: &[String], k: usize, workers: usize) -> Vec<Vec<Hit>> {
        self.cluster(ClusterConfig {
            workers,
            cache: None,
            ..Default::default()
        })
        .search_batch(queries, k)
    }

    /// A cluster-scale serving tier over this system's index and options: an
    /// optional signature-keyed result cache and a worker pool in front of
    /// one kernel call per query (DESIGN.md §13). Every configuration serves
    /// byte-identical results to [`DeepWebSystem::search`].
    pub fn cluster(&self, cfg: ClusterConfig) -> ClusterServer<'_> {
        ClusterServer::new(&self.index, self.options, cfg)
    }

    /// The freshness tier: a [`SegmentedIndex`] serving the build-time base
    /// plus every delta segment appended by [`DeepWebSystem::refresh`].
    ///
    /// Its base *is* [`DeepWebSystem::index`] (one shared allocation, also
    /// after a [`DeepWebSystem::merge_fresh`]). Queries against it are
    /// byte-identical to a from-scratch rebuild over base + delta docs,
    /// before, during and after a [`SegmentedIndex::merge`] (DESIGN.md §15).
    pub fn fresh_index(&self) -> &SegmentedIndex {
        &self.fresh.segmented
    }

    /// Compact the freshness tier: fold all delta segments into the base
    /// (background-mergeable — readers keep serving the old generation until
    /// the one-pointer publish). Returns the number of docs folded in.
    ///
    /// [`DeepWebSystem::index`] is re-pointed at the merged base, so
    /// [`DeepWebSystem::search`], [`DeepWebSystem::search_batch`] and
    /// [`DeepWebSystem::cluster`] serve the refreshed content from here on
    /// (and share one allocation with the freshness tier again).
    pub fn merge_fresh(&mut self) -> usize {
        let segmented = &self.fresh.segmented;
        let folded = segmented.merge();
        self.index = segmented.snapshot().shared_base();
        folded
    }

    /// One incremental re-surfacing round (the freshness loop, §3.2's
    /// "discover more content over time").
    ///
    /// Probes the next `batch` sites in round-robin order: each probe
    /// fetches the site's home page and compares its [`content_hash`]
    /// fingerprint with the last one seen — at build, or by an earlier
    /// round — so a change made before the first round is seen too.
    /// Unchanged sites cost exactly one request. Changed sites are re-surfaced with the build-time budgets
    /// ([`resurface_host`]), one pool task per scheduled site over
    /// [`SurfacerConfig::num_workers`] threads. Every previously-unknown URL
    /// of the round is appended to the freshness tier in schedule order, one
    /// delta segment per round; already-indexed URLs are counted stale
    /// instead (append-only tier — see [`RefreshOutcome::stale_docs`]).
    pub fn refresh(&mut self, batch: usize) -> RefreshOutcome {
        let hosts: Vec<String> = self
            .world
            .server
            .sites()
            .iter()
            .map(|s| s.host.clone())
            .collect();
        // Refresh rounds run under the same fault schedule (and retries) as
        // the build: transient faults are absorbed, persistent
        // ones count as `failed` and the site stays on the schedule.
        let faulty = self
            .config
            .faults
            .map(|fc| FaultyFetcher::new(&self.world.server, fc));
        let fetcher: &dyn Fetcher = match &faulty {
            Some(f) => f,
            None => &self.world.server,
        };
        let world = &self.world;
        let surfacer = &self.config.surfacer;
        let mut out = RefreshOutcome::default();
        let state = &mut self.fresh;
        // Sites can join the world after the build (content growth never
        // removes sites); give them a fingerprint slot so they re-probe
        // cleanly.
        state.fingerprints.resize(hosts.len(), 0);
        let scheduled = state.scheduler.next_batch(hosts.len(), batch);
        // One task per scheduled site (DESIGN.md §8). A task fetches only its
        // own host and a batch never repeats a site, so each host is probed
        // from one thread in the order a sequential round would use. Every
        // URL a task re-surfaces is on its host, so testing staleness against
        // the pre-round snapshot equals testing it after the earlier sites'
        // docs were applied.
        let known = state.segmented.snapshot();
        let fingerprints = &state.fingerprints;
        let probes = ThreadPool::new(surfacer.num_workers).map(scheduled, |_, idx| {
            let host = &hosts[idx];
            let resp = fetch_with_retries(fetcher, &Url::new(host.clone(), "/")).0;
            let mut probe = SiteProbe {
                idx,
                fingerprint: content_hash(&resp.ok()?.html),
                stale: 0,
                fresh: Vec::new(),
            };
            if probe.fingerprint == fingerprints[idx] {
                return Some(probe);
            }
            for doc in &resurface_host(fetcher, host, surfacer).docs {
                debug_assert_eq!(&doc.host, host, "a re-surface stays on its host");
                if known.contains_url(&doc.url) {
                    probe.stale += 1;
                } else {
                    probe.fresh.push(to_batch_doc(world, doc));
                }
            }
            Some(probe)
        });
        let mut fresh_docs = Vec::new();
        for probe in probes {
            out.probed += 1;
            let Some(probe) = probe else {
                out.failed += 1;
                continue;
            };
            if probe.fingerprint == state.fingerprints[probe.idx] {
                continue;
            }
            state.fingerprints[probe.idx] = probe.fingerprint;
            out.changed += 1;
            out.stale_docs += probe.stale;
            fresh_docs.extend(probe.fresh);
        }
        out.new_docs = state.segmented.apply(fresh_docs);
        if let Some(f) = &faulty {
            let s = f.stats();
            match &mut self.fault_stats {
                Some(total) => total.merge(s),
                None => self.fault_stats = Some(s),
            }
        }
        out
    }
}

/// Convert one pipeline doc into an index batch doc — the single mapping
/// both the batch build and the freshness tier use, so delta segments intern
/// annotations exactly like a rebuild would.
fn to_batch_doc(world: &World, doc: &ProducedDoc) -> BatchDoc {
    let kind = match doc.origin {
        DocOrigin::Surface => DocKind::Surface,
        DocOrigin::Surfaced => DocKind::Surfaced,
        DocOrigin::Discovered => DocKind::Discovered,
    };
    let site = world.server.site_by_host(&doc.host).map(|s| s.id);
    // Stored values keep a lowercased display form; matching does not depend
    // on it — the index analyses every annotation value through the text
    // pipeline at ingest and matches by interned ids (DESIGN.md §12).
    let annotations = doc
        .annotations
        .iter()
        .map(|(k, v)| Annotation {
            key: k.clone(),
            value: v.to_ascii_lowercase(),
        })
        .collect();
    BatchDoc {
        url: doc.url.clone(),
        title: doc.title.clone(),
        text: doc.text.clone(),
        kind,
        site,
        annotations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepweb_common::DEFAULT_SEED;
    use deepweb_index::DocKind;

    #[test]
    fn build_and_serve() {
        let sys = DeepWebSystem::build(&quick_config(8));
        assert!(sys.index.len() > 10);
        assert!(sys.offline_requests > 0);
        // Deep-web docs are present.
        let surfaced = sys
            .index
            .docs()
            .iter()
            .filter(|d| d.kind == DocKind::Surfaced)
            .count();
        assert!(surfaced > 0);
        // A query over site content returns hits.
        let site = &sys.world.server.sites()[0];
        let toks = site.table.row_tokens(deepweb_common::RecordId(0));
        if toks.len() >= 2 {
            let q = format!("{} {}", toks[0], toks[1]);
            let _ = sys.search(&q, 5);
        }
    }

    #[test]
    fn search_batch_equals_sequential_serving() {
        let sys = DeepWebSystem::build(&quick_config(6));
        let queries: Vec<String> = [
            "honda civic",
            "used ford focus 1993",
            "",
            "restaurants springfield",
            "zzz no such term",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let expected: Vec<Vec<Hit>> = queries.iter().map(|q| sys.search(q, 5)).collect();
        for workers in [1, 2, 4] {
            assert_eq!(
                sys.search_batch(&queries, 5, workers),
                expected,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn refresh_is_noop_on_an_unchanged_world() {
        let mut sys = DeepWebSystem::build(&quick_config(6));
        let n = sys.world.server.sites().len();
        let out = sys.refresh(n);
        assert_eq!(out.probed, n);
        assert_eq!(out.changed, 0);
        assert_eq!(out.new_docs, 0);
        assert_eq!(sys.fresh_index().num_segments(), 0);
        // Generation zero serves the batch index itself, not a clone.
        let gen = sys.fresh_index().snapshot();
        assert!(std::ptr::eq(gen.base(), &*sys.index));
        // Unchanged probes cost one request per site, and nothing else does.
        assert_eq!(sys.world.server.total_requests(), n as u64);
    }

    /// The index of a GET site the pipeline actually surfaced.
    fn surfaced_site(sys: &DeepWebSystem) -> usize {
        let report = sys.outcome.reports.iter().find(|r| r.pages_surfaced > 0);
        let host = &report.expect("some site surfaced").host;
        let sites = sys.world.server.sites();
        let idx = sites.iter().position(|s| &s.host == host);
        idx.expect("site exists")
    }

    /// The fingerprints are the build's: a site that grows between the
    /// build and the first round is re-surfaced by that round.
    #[test]
    fn growth_before_the_first_round_is_seen() {
        let mut sys = DeepWebSystem::build(&quick_config(6));
        let idx = surfaced_site(&sys);
        deepweb_webworld::grow_site(&mut sys.world, idx, 25, DEFAULT_SEED);
        let n = sys.world.server.sites().len();
        let out = sys.refresh(n);
        assert_eq!(out.changed, 1, "{out:?}");
        assert!(out.new_docs > 0, "{out:?}");
    }

    /// Build a 6-site system, grow one surfaced site's backend by 25
    /// records and run one full refresh round over it.
    fn grown_and_refreshed() -> (DeepWebSystem, RefreshOutcome) {
        let mut sys = DeepWebSystem::build(&quick_config(6));
        let site_idx = surfaced_site(&sys);
        deepweb_webworld::grow_site(&mut sys.world, site_idx, 25, DEFAULT_SEED);
        let n = sys.world.server.sites().len();
        let out = sys.refresh(n);
        assert_eq!(out.probed, n);
        assert_eq!(out.changed, 1, "only the grown site changed");
        assert!(out.new_docs > 0, "growth should surface new pages: {out:?}");
        (sys, out)
    }

    #[test]
    fn refresh_surfaces_grown_content_and_merge_preserves_results() {
        let (mut sys, out) = grown_and_refreshed();
        let n = sys.world.server.sites().len();
        // Re-surfacing revisits known pages too; those stay stale-only.
        assert!(out.stale_docs > 0);
        let opts = sys.options;
        let index_len = sys.index.len();
        let fresh = sys.fresh_index();
        assert_eq!(fresh.num_docs(), index_len + out.new_docs);
        assert!(fresh.num_segments() > 0);
        // Merge folds the deltas without changing any served result.
        let queries = ["honda civic", "listings database", ""];
        let before: Vec<_> = queries
            .iter()
            .map(|q| fresh.snapshot().search(q, 10, opts))
            .collect();
        let folded = fresh.merge();
        assert_eq!(folded, out.new_docs);
        assert_eq!(fresh.num_segments(), 0);
        let after: Vec<_> = queries
            .iter()
            .map(|q| fresh.snapshot().search(q, 10, opts))
            .collect();
        assert_eq!(before, after);
        // A second refresh round sees the new fingerprint: nothing to do.
        let again = sys.refresh(n);
        assert_eq!(again.changed, 0);
        assert_eq!(again.new_docs, 0);
    }

    #[test]
    fn one_round_seals_one_segment_in_schedule_order() {
        let mut sys = DeepWebSystem::build(&quick_config(8));
        let sites = sys.world.server.sites();
        let mut grown: Vec<usize> = sys
            .outcome
            .reports
            .iter()
            .filter(|r| r.pages_surfaced > 0)
            .filter_map(|r| sites.iter().position(|s| s.host == r.host))
            .collect();
        grown.sort_unstable();
        grown.dedup();
        let hosts: Vec<String> = grown.iter().map(|&i| sites[i].host.clone()).collect();
        // Grow the later sites first: the segment follows the schedule, not
        // the order the sites changed in.
        for &idx in grown.iter().rev() {
            deepweb_webworld::grow_site(&mut sys.world, idx, 40, DEFAULT_SEED);
        }
        let n = sys.world.server.sites().len();
        let out = sys.refresh(n);
        assert_eq!(out.changed, grown.len());
        let gen = sys.fresh_index().snapshot();
        assert_eq!(gen.segments().len(), 1, "one round, one segment");
        let mut seg_hosts: Vec<&str> = gen.segments()[0]
            .docs()
            .iter()
            .map(|d| d.url.host.as_str())
            .collect();
        assert_eq!(seg_hosts.len(), out.new_docs);
        seg_hosts.dedup();
        assert!(
            seg_hosts.len() >= 2,
            "two grown sites add docs: {seg_hosts:?}"
        );
        // Each host's docs form one run, and the runs are in schedule order.
        let order: Vec<usize> = seg_hosts
            .iter()
            .map(|h| hosts.iter().position(|g| g == h).expect("a grown host"))
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{seg_hosts:?}");
        // The next round with growth seals exactly one more segment.
        for &idx in &grown {
            deepweb_webworld::grow_site(&mut sys.world, idx, 40, DEFAULT_SEED);
        }
        let again = sys.refresh(n);
        assert_eq!(again.changed, grown.len());
        assert!(again.new_docs > 0);
        assert_eq!(sys.fresh_index().num_segments(), 2);
    }

    #[test]
    fn merge_fresh_repoints_the_serving_tiers_at_the_merged_base() {
        let (mut sys, out) = grown_and_refreshed();
        let opts = sys.options;
        // A term only the grown records carry: the build-time index has no
        // posting for it, the pending segments do.
        let pending = sys.fresh_index().snapshot();
        let query = pending
            .segments()
            .iter()
            .flat_map(|seg| seg.docs())
            .flat_map(|d| d.text.split_whitespace())
            .find(|w| sys.search(w, 10).is_empty() && !pending.search(w, 10, opts).is_empty())
            .expect("grown records carry a term the build never indexed")
            .to_string();
        assert_eq!(sys.merge_fresh(), out.new_docs);
        let merged = sys.fresh_index().snapshot();
        let want = merged.search(&query, 10, opts);
        assert!(!want.is_empty());
        assert_eq!(sys.search(&query, 10), want);
        assert_eq!(
            sys.search_batch(std::slice::from_ref(&query), 10, 2),
            [want]
        );
        assert_eq!(sys.index.len(), merged.num_docs());
        // One allocation again, as at generation zero.
        assert!(std::ptr::eq(merged.base(), &*sys.index));
    }

    #[test]
    fn faulty_build_completes_and_reports_degradation() {
        let mut cfg = quick_config(6);
        cfg.faults = Some(deepweb_webworld::FaultConfig::transient(17, 0.3));
        let sys = DeepWebSystem::build(&cfg);
        assert!(sys.index.len() > 10, "faulty build must still index");
        let stats = sys.fault_stats.expect("fault schedule was configured");
        assert!(stats.fetches > 0);
        assert!(
            stats.transient_500s + stats.timeouts + stats.truncated > 0,
            "a 30% schedule over a whole build must inject something: {stats:?}"
        );
        // The report accounts for every analysed host, and the injected
        // faults show up as retries somewhere.
        assert_eq!(sys.robustness.hosts.len(), sys.outcome.reports.len());
        assert!(sys.robustness.total_retries() > 0);
        // Clean builds carry an all-clean report.
        let clean = DeepWebSystem::build(&quick_config(6));
        assert!(clean.fault_stats.is_none());
        assert_eq!(
            clean
                .robustness
                .count(deepweb_surfacer::HostStatus::Degraded),
            0
        );
        assert_eq!(clean.robustness.total_retries(), 0);
    }

    #[test]
    fn refresh_counts_probes_that_exhaust_retries() {
        let mut cfg = quick_config(4);
        // Every URL faulty, its failure prefix up to twice the attempts one
        // fetch makes: a home page whose prefix covers them all fails its
        // fingerprint probe for good this round.
        let attempts = deepweb_surfacer::MAX_RETRIES + 1;
        let faults = deepweb_webworld::FaultConfig {
            seed: 5,
            rate: 1.0,
            max_faults_per_url: 2 * attempts,
        };
        cfg.faults = Some(faults);
        let mut sys = DeepWebSystem::build(&cfg);
        let schedule = FaultyFetcher::new(&sys.world.server, faults);
        let n = sys.world.server.sites().len();
        let want = sys
            .world
            .server
            .sites()
            .iter()
            .filter_map(|s| schedule.schedule_for(&Url::new(s.host.clone(), "/")))
            .filter(|&(_, prefix)| prefix >= attempts)
            .count();
        assert!(want > 0 && want < n, "{want} of {n}");
        drop(schedule);
        let out = sys.refresh(n);
        assert_eq!(out.probed, n);
        assert_eq!(out.failed, want);
        assert_eq!(
            out.changed, 0,
            "the probes that got through saw the build's page"
        );
        // The failed sites stay on the schedule: the next round's probes are
        // fresh fetch sequences with the same failure prefixes.
        let again = sys.refresh(n);
        assert_eq!(again.failed, want, "new wrapper, new failure prefixes");
    }

    #[test]
    fn serve_time_site_load_is_zero() {
        let sys = DeepWebSystem::build(&quick_config(6));
        sys.world.server.reset_counts();
        let _ = sys.search("honda civic", 10);
        // Surfacing means queries never touch the sites.
        assert_eq!(sys.world.server.total_requests(), 0);
    }
}
