//! `offline_build` — the paper's offline loop, then one freshness round.
//!
//! A run cycles through [`WORLDS`] worlds of [`SITES`] sites. One round is
//! one world's whole life: `DeepWebSystem::build` (generate → crawl +
//! surface → index), a short serve phase over the fresh index, then *grow
//! every 4th site by 40 records → `refresh(all)` → `merge_fresh()`*. Each
//! world comes round four times in a 20 s run and every step of it counts
//! with its best repetition.
//!
//! The worlds are a fixed data set; the seed draws what happens to them
//! (the records each site grows by, the query stream, the verification
//! sample). What a web seed changes most is the domain and form mix, and
//! with it everything: over ten seeds one 200-site world moved `coverage`
//! by 8 % and its doc count by 14 %; even totalled over twenty seed-drawn
//! worlds `requests_per_doc` kept a 2–4 % spread and the peak RSS 15 %.
//! Fixed worlds make `coverage` and `requests_per_doc` repeat exactly on
//! every run, so they can be held to 1 %. Several small worlds rather than
//! one large one so that no single domain mix decides the numbers.

use super::{
    add, add_footprint, insert_busy, insert_pooled_tail, ratio, setup_due, Ctx, LayerMap, Outcome,
    Report, VERIFY_SAMPLE,
};
use crate::fetcher::TimingFetcher;
use crate::serve::{bursts, rounds_for, singles, timed, Laps, Op, Samples, PROBE_PASSES};
use crate::tiers::{cluster_config, tier, TierKind};
use crate::trace::{SpanId, Tracer};
use crate::verify::{check_tier, digest_of, oracle, Digest, Tally};
use deepweb_common::rng::mix;
use deepweb_common::{derive_rng_n, ThreadPool, Url, DEFAULT_SEED};
use deepweb_core::{DeepWebSystem, RefreshOutcome, SystemConfig};
use deepweb_html::Document;
use deepweb_index::{Annotation, BatchDoc, DocKind, IndexStats, PruningMode, SearchIndex};
use deepweb_queries::{generate_workload, WorkloadConfig};
use deepweb_surfacer::{
    analyze_page, crawl_and_surface, DocOrigin, HostStatus, ProducedDoc, SiteReport,
    SurfacerConfig, SurfacingOutcome,
};
use deepweb_webworld::{generate, grow_site, WebConfig, World};
use std::hint::black_box;
use std::time::Instant;

/// Worlds a run cycles through; each is rebuilt four times in a 20 s run
/// and counts with its best repetition. Exact metrics are totals over them.
const WORLDS: usize = 4;
/// Sites per world.
const SITES: usize = 100;
/// Every `GROW_EVERY`-th site grows by `GROW_BY` records before a refresh.
const GROW_EVERY: usize = 4;
const GROW_BY: usize = 40;
/// Distinct head/tail queries generated against each built world.
const DISTINCT: usize = 600;
/// Single queries per round, then `BURSTS` bursts of `BURST`.
const SINGLES: usize = 3_000;
const BURST: usize = 64;
const BURSTS: usize = 32;
/// Passes over the round's queries and bursts.
const SERVE_REPS: usize = 3;
/// Rounds per twenty seconds of `--seconds`: four per world (a round takes
/// about 1 s on the reference box, the thirteen set-ups about 2 s between
/// them).
const ROUNDS_PER_20S: u64 = 16;
/// Worlds the traced run works through.
const TRACED_WORLDS: usize = 3;

/// World `world` of the fixed data set. The worlds do not depend on
/// `--seed` (see the module docs); the seed draws what happens to them.
fn world_config(world: usize, workers: usize) -> SystemConfig {
    SystemConfig {
        web: WebConfig {
            seed: mix(DEFAULT_SEED, "offline-world") ^ (world as u64).wrapping_mul(0x9E37_79B9),
            num_sites: SITES,
            ..WebConfig::default()
        },
        surfacer: SurfacerConfig {
            num_workers: workers,
            ..SurfacerConfig::default()
        },
        use_annotations: false,
        pruning: PruningMode::BlockMax,
        faults: None,
    }
}

/// What must be identical between two builds of one world.
#[derive(Clone, PartialEq, Debug)]
struct BuildFacts {
    stats: IndexStats,
    requests: u64,
    urls: Digest,
    covered: usize,
    truth: usize,
}

fn facts(
    index: &SearchIndex,
    outcome: &SurfacingOutcome,
    requests: u64,
    world: &World,
) -> BuildFacts {
    let mut urls = Digest::default();
    for doc in &outcome.docs {
        urls.text(&doc.url.to_string());
    }
    BuildFacts {
        stats: index.stats(),
        requests,
        urls,
        covered: outcome.reports.iter().map(|r| r.records_covered).sum(),
        truth: world.truth.total_records(),
    }
}

fn system_facts(sys: &DeepWebSystem) -> BuildFacts {
    facts(&sys.index, &sys.outcome, sys.offline_requests, &sys.world)
}

/// The round's query stream: head/tail queries against the built world.
fn round_queries(ctx: &Ctx, sys: &DeepWebSystem, world: usize, n: usize) -> Vec<String> {
    let wl = generate_workload(
        &sys.world,
        &WorkloadConfig {
            distinct: DISTINCT,
            seed: mix(ctx.seed, "offline-queries"),
            ..WorkloadConfig::default()
        },
    );
    let mut rng = derive_rng_n(ctx.seed, "offline-stream", world as u64);
    wl.sample_batch(n, &mut rng)
}

/// Serve phase plus the freshness round of one built world.
fn serve_and_refresh(
    ctx: &Ctx,
    sys: &mut DeepWebSystem,
    world: usize,
    tracer: &Tracer,
    samples: &mut Samples,
    tally: &mut Tally,
) -> RefreshOutcome {
    let request = world as u64;
    let stream = round_queries(ctx, sys, world, SINGLES + BURST * BURSTS);
    let (single_q, burst_q) = stream.split_at(SINGLES);
    {
        let seq = tier(&sys.index, sys.options, TierKind::Sequential);
        let cluster_cfg = TierKind::Cluster(cluster_config(0, Some(1024)));
        // The serve phase is a small part of a round; repeating it gives
        // every query as many tries as a world's build gets in a whole run.
        for _ in 0..SERVE_REPS {
            singles(
                seq.service(),
                single_q,
                samples.lat_slots(world),
                tracer,
                "index.seq.blockmax",
                SpanId::NONE,
            );
            // A fresh cluster each time: a kept one would answer the
            // second pass from its cache.
            let cluster = tier(&sys.index, sys.options, cluster_cfg);
            bursts(
                cluster.service(),
                burst_q,
                &[BURST; BURSTS],
                samples.burst_slots(world),
                tracer,
                "index.cluster.batch",
                SpanId::NONE,
            );
        }
    }

    // Fingerprints are taken before the sites grow, as a live system's
    // would have been.
    tracer.span("core.fresh_init", SpanId::NONE, request, |_| {
        black_box(sys.fresh_index().num_docs());
    });
    let sites = sys.world.server.sites().len();
    let grow_seed = mix(ctx.seed, "offline-grow");
    let mut grown = 0;
    for idx in (0..sites).step_by(GROW_EVERY) {
        grow_site(&mut sys.world, idx, GROW_BY, grow_seed);
        grown += 1;
    }
    let mut laps = Laps::start();
    let out = tracer.span("core.refresh", SpanId::NONE, request, |_| {
        sys.refresh(sites)
    });
    laps.lap();
    let folded = tracer.span("core.merge_fresh", SpanId::NONE, request, |_| {
        sys.merge_fresh()
    });
    laps.lap();
    samples.note_laps(Op::Write, world, 0, &laps.secs);
    samples.note_docs(world, out.new_docs);
    samples.round_done();
    tally.check(out.failed == 0, "refresh probe failed");
    tally.check(out.changed == grown, "refresh saw every grown site");
    tally.check(
        folded == out.new_docs && out.new_docs > 0,
        "merge folded the new docs",
    );
    out
}

/// Before any clock: two builds of world 0 agree, and every tier the
/// rounds time serves the exhaustive oracle's bytes.
fn verify(ctx: &Ctx, tally: &mut Tally) -> Digest {
    let cfg = world_config(0, 0);
    let a = DeepWebSystem::build(&cfg);
    let b = DeepWebSystem::build(&cfg);
    tally.check(
        system_facts(&a) == system_facts(&b),
        "two builds of one world agree",
    );
    let stream = round_queries(ctx, &a, 0, VERIFY_SAMPLE);
    let queries: Vec<&str> = stream.iter().map(String::as_str).collect();
    let want = oracle(&a.index, &queries, crate::serve::K, a.options);
    for (name, kind) in [
        ("sequential", TierKind::Sequential),
        ("broker", TierKind::Broker { workers: 0 }),
        ("cluster", TierKind::Cluster(cluster_config(0, Some(1024)))),
    ] {
        let t = tier(&a.index, a.options, kind);
        check_tier(tally, name, t.service(), &queries, &want, crate::serve::K);
    }
    let mut digest = digest_of(&want);
    digest.word(system_facts(&a).urls.0);
    digest
}

fn new_samples(worlds: usize) -> Samples {
    Samples::new(worlds, SINGLES, BURSTS, BURST * BURSTS)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let mut samples = new_samples(WORLDS);
    // Set-up: the worlds' ground truth, which every build is checked
    // against (the build regenerates its world from the same config).
    let timed_setup = |samples: &mut Samples| -> Vec<usize> {
        let mut laps = Laps::start();
        let truths = (0..WORLDS)
            .map(|w| {
                let truth = generate(&world_config(w, 0).web).truth.total_records();
                laps.lap();
                truth
            })
            .collect();
        samples.note_laps(Op::Setup, 0, 0, &laps.secs);
        samples.setup_done();
        truths
    };
    let truths = timed_setup(&mut samples);
    let digest = verify(ctx, &mut tally);
    if ctx.trace {
        return traced(ctx, tally, digest, &truths);
    }

    let tracer = Tracer::off();
    let mut first_cycle: Vec<BuildFacts> = Vec::new();
    let rounds = rounds_for(ctx.seconds, ROUNDS_PER_20S, WORLDS);
    for round in 0..rounds {
        let world = round % WORLDS;
        let cfg = world_config(world, 0);
        let (mut sys, build_s) = timed(|| DeepWebSystem::build(&cfg));
        samples.note(Op::Build, world, 0, build_s);
        let f = system_facts(&sys);
        tally.check(
            f.truth == truths[world],
            "build regenerated the set-up's world",
        );
        tally.check(
            sys.robustness.count(HostStatus::Degraded) == 0 && sys.robustness.total_retries() == 0,
            "an honest world needs no retry and degrades no host",
        );
        match first_cycle.get(world) {
            Some(first) => tally.check(&f == first, "rebuild of a world equals its first build"),
            None => first_cycle.push(f),
        }
        serve_and_refresh(ctx, &mut sys, world, &tracer, &mut samples, &mut tally);
        if setup_due(round, rounds) {
            tally.check(
                timed_setup(&mut samples) == truths,
                "set-up repeats exactly",
            );
        }
    }
    let sum = |f: fn(&BuildFacts) -> f64| first_cycle.iter().map(f).sum::<f64>();
    let coverage = ratio(sum(|f| f.covered as f64), sum(|f| f.truth as f64));
    let requests_per_doc = ratio(sum(|f| f.requests as f64), sum(|f| f.stats.docs as f64));
    eprintln!(
        "deepbench: offline_build: {rounds} rounds over {WORLDS} worlds x {SITES} sites, {} docs, \
         {} site requests",
        sum(|f| f.stats.docs as f64),
        sum(|f| f.requests as f64)
    );
    Outcome {
        tally,
        digest,
        report: Report::EndToEnd(samples.finish(coverage, requests_per_doc)),
    }
}

/// `deepweb_core`'s private doc conversion, restated over public types so
/// the traced run can re-assemble `build` from the layers' public calls.
fn to_batch_doc(world: &World, doc: &ProducedDoc) -> BatchDoc {
    BatchDoc {
        url: doc.url.clone(),
        title: doc.title.clone(),
        text: doc.text.clone(),
        kind: match doc.origin {
            DocOrigin::Surface => DocKind::Surface,
            DocOrigin::Surfaced => DocKind::Surfaced,
            DocOrigin::Discovered => DocKind::Discovered,
        },
        site: world.server.site_by_host(&doc.host).map(|s| s.id),
        annotations: doc
            .annotations
            .iter()
            .map(|(k, v)| Annotation {
                key: k.clone(),
                value: v.to_ascii_lowercase(),
            })
            .collect(),
    }
}

/// One build re-assembled from public calls, a span around each.
struct Assembled {
    world: World,
    index: SearchIndex,
    outcome: SurfacingOutcome,
    requests: u64,
    fetches: u64,
    fetch_bytes: u64,
    fetch_failed: u64,
    pages: Vec<(Url, String)>,
}

fn assemble(cfg: &SystemConfig, tracer: &Tracer, request: u64) -> Assembled {
    tracer.span("core.build", SpanId::NONE, request, |build| {
        let world = tracer.span("webworld.generate", build, request, |_| generate(&cfg.web));
        world.server.reset_counts();
        let (outcome, fetcher) =
            tracer.span("surfacer.crawl_and_surface", build, request, |surf| {
                let fetcher = TimingFetcher::new(&world.server, tracer, surf, request);
                let outcome =
                    crawl_and_surface(&fetcher, &[Url::new("dir.sim", "/")], &cfg.surfacer);
                (outcome, fetcher)
            });
        let requests = world.server.total_requests();
        let pool = ThreadPool::new(cfg.surfacer.num_workers);
        let batch: Vec<BatchDoc> = outcome
            .docs
            .iter()
            .map(|d| to_batch_doc(&world, d))
            .collect();
        let mut index = SearchIndex::new();
        tracer.span("index.add_batch", build, request, |_| {
            index.add_batch(&pool, batch);
        });
        for report in &outcome.reports {
            for (key, values) in &report.facet_values {
                index.add_facet_values(key, values.iter().cloned());
            }
        }
        tracer.span("index.enable_pruning", build, request, |_| {
            index.enable_pruning()
        });
        let (fetches, fetch_bytes, fetch_failed) =
            (fetcher.count(), fetcher.bytes(), fetcher.failed());
        let pages = fetcher.into_pages();
        Assembled {
            world,
            index,
            outcome,
            requests,
            fetches,
            fetch_bytes,
            fetch_failed,
            pages,
        }
    })
}

/// Replay the recorded pages and doc texts through the parsing entry points
/// of `html`, `surfacer` and `common`, one span per pass.
fn replay(tracer: &Tracer, built: &Assembled, layer: &mut LayerMap) {
    let pages = &built.pages;
    tracer.span("html.tokenize", SpanId::NONE, 0, |_| {
        for (_, body) in pages {
            black_box(deepweb_html::tokenizer::tokenize(body));
        }
    });
    tracer.span("html.parse", SpanId::NONE, 0, |_| {
        for (_, body) in pages {
            black_box(Document::parse(body));
        }
    });
    add(
        layer,
        "html.parse.bytes",
        pages.iter().map(|(_, b)| b.len() as f64).sum(),
    );
    tracer.span("surfacer.formmodel", SpanId::NONE, 0, |_| {
        for (url, body) in pages {
            black_box(analyze_page(url, body));
        }
    });
    let results: Vec<(Url, String)> = pages
        .iter()
        .filter(|(u, _)| u.path == "/results")
        .cloned()
        .collect();
    tracer.span("surfacer.analyze_response", SpanId::NONE, 0, |_| {
        for (url, body) in results {
            black_box(deepweb_surfacer::probe::analyze_response(url, body, &[]));
        }
    });
    tracer.span("common.tokenize", SpanId::NONE, 0, |_| {
        for doc in &built.outcome.docs {
            black_box(deepweb_common::text::tokenize(&doc.text).count());
        }
    });
}

fn traced(ctx: &Ctx, mut tally: Tally, digest: Digest, truths: &[usize]) -> Outcome {
    let tracer = Tracer::on();
    let mut layer = LayerMap::new();
    let mut samples = new_samples(TRACED_WORLDS);
    let mut plain_s = 0.0;
    let mut traced_s = 0.0;
    let mut first: Option<Assembled> = None;
    let (mut tested, mut informative) = (0.0, 0.0);
    for (world, &truth) in truths.iter().enumerate().take(TRACED_WORLDS) {
        let cfg = world_config(world, 0);
        let t0 = Instant::now();
        let mut sys = DeepWebSystem::build(&cfg);
        plain_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let built = assemble(&cfg, &tracer, world as u64);
        traced_s += t0.elapsed().as_secs_f64();
        let f = facts(&built.index, &built.outcome, built.requests, &built.world);
        tally.check(
            f == system_facts(&sys),
            "re-assembled build equals DeepWebSystem::build",
        );
        tally.check(f.truth == truth, "build regenerated the set-up's world");
        tally.check(
            built.fetches == built.requests,
            "wrapper and server count the same requests",
        );
        let stream = round_queries(ctx, &sys, world, VERIFY_SAMPLE);
        let queries: Vec<&str> = stream.iter().map(String::as_str).collect();
        tally.check(
            oracle(&built.index, &queries, crate::serve::K, sys.options)
                == oracle(&sys.index, &queries, crate::serve::K, sys.options),
            "re-assembled index serves the same bytes",
        );

        let crawl = &built.outcome.crawl_stats;
        let reports = &built.outcome.reports;
        let total = |f: fn(&SiteReport) -> f64| reports.iter().map(f).sum::<f64>();
        for (name, v) in [
            ("webworld.fetch.count", built.fetches as f64),
            ("webworld.fetch.bytes", built.fetch_bytes as f64),
            ("webworld.fetch.fail_count", built.fetch_failed as f64),
            ("surfacer.crawl.pages", crawl.pages_fetched as f64),
            (
                "surfacer.retries",
                crawl.retries as f64 + total(|r| r.retries as f64),
            ),
            (
                "surfacer.analysis.requests",
                total(|r| r.analysis_requests as f64),
            ),
            (
                "surfacer.surfacing.requests",
                total(|r| r.surfacing_requests as f64),
            ),
            (
                "surfacer.templates.tested",
                total(|r| r.templates_tested as f64),
            ),
            (
                "surfacer.urls.generated",
                total(|r| r.urls_generated as f64),
            ),
            (
                "surfacer.pages.surfaced",
                total(|r| r.pages_surfaced as f64),
            ),
        ] {
            add(&mut layer, name, v);
        }
        tested += total(|r| r.templates_tested as f64);
        informative += total(|r| r.templates_informative as f64);
        add_footprint(&mut layer, &built.index);
        let out = serve_and_refresh(ctx, &mut sys, world, &tracer, &mut samples, &mut tally);
        add(&mut layer, "core.refresh.changed", out.changed as f64);
        add(&mut layer, "core.refresh.new_docs", out.new_docs as f64);
        add(&mut layer, "core.refresh.stale_docs", out.stale_docs as f64);
        replay(&tracer, &built, &mut layer);
        if first.is_none() {
            first = Some(built);
        }
    }
    // The parallel speed-ups: world 0 again with neither spans nor wrapper,
    // at the machine's width and at one worker, best of three passes each.
    let first = first.expect("TRACED_WORLDS >= 1");
    let seeds = [Url::new("dir.sim", "/")];
    let surface = |workers: usize| {
        let cfg = world_config(0, workers);
        let mut best = f64::INFINITY;
        let mut docs = 0;
        for _ in 0..PROBE_PASSES {
            let t0 = Instant::now();
            let outcome = crawl_and_surface(&first.world.server, &seeds, &cfg.surfacer);
            best = best.min(t0.elapsed().as_secs_f64());
            docs = outcome.docs.len();
        }
        (best, docs)
    };
    let (wall_w0, docs_w0) = surface(0);
    let (wall_w1, docs_w1) = surface(1);
    tally.check(
        docs_w0 == docs_w1 && docs_w1 == first.outcome.docs.len(),
        "one worker surfaces the same docs",
    );
    let mut add_w1 = f64::INFINITY;
    for _ in 0..PROBE_PASSES {
        let batch: Vec<BatchDoc> = first
            .outcome
            .docs
            .iter()
            .map(|d| to_batch_doc(&first.world, d))
            .collect();
        let mut index_w1 = SearchIndex::new();
        let t0 = Instant::now();
        index_w1.add_batch(&ThreadPool::new(1), batch);
        add_w1 = add_w1.min(t0.elapsed().as_secs_f64());
        tally.check(
            index_w1.stats() == first.index.stats(),
            "one worker indexes the same postings",
        );
    }

    let trace = tracer.finish();
    insert_pooled_tail(&mut layer, &trace, &["index.seq.blockmax"]);
    insert_busy(
        &mut layer,
        &trace,
        &[
            ("webworld.generate.busy_s", "webworld.generate"),
            ("webworld.fetch.busy_s", "webworld.fetch"),
            ("surfacer.wall_s", "surfacer.crawl_and_surface"),
            ("index.add_batch.busy_s", "index.add_batch"),
            ("index.enable_pruning.busy_s", "index.enable_pruning"),
            ("html.tokenize.busy_s", "html.tokenize"),
            ("html.parse.busy_s", "html.parse"),
            ("surfacer.formmodel.busy_s", "surfacer.formmodel"),
            (
                "surfacer.analyze_response.busy_s",
                "surfacer.analyze_response",
            ),
            ("common.tokenize.busy_s", "common.tokenize"),
            ("index.seq.blockmax.busy_s", "index.seq.blockmax"),
            ("index.cluster.batch.busy_s", "index.cluster.batch"),
            ("core.fresh_init.busy_s", "core.fresh_init"),
            ("core.refresh.busy_s", "core.refresh"),
            ("core.merge_fresh.busy_s", "core.merge_fresh"),
        ],
    );
    layer.insert(
        "surfacer.self_s",
        trace.self_s("surfacer.crawl_and_surface"),
    );
    layer.insert("core.build.glue_s", trace.self_s("core.build"));
    layer.insert("surfacer.wall_w1_s", wall_w1);
    layer.insert("surfacer.parallel_speedup", ratio(wall_w1, wall_w0));
    layer.insert("index.add_batch.w1_s", add_w1);
    let get = |layer: &LayerMap, name: &str| layer.get(name).copied().unwrap_or(0.0);
    layer.insert(
        "surfacer.templates.informative_ratio",
        ratio(informative, tested),
    );
    layer.insert(
        "surfacer.docs_per_request",
        ratio(
            get(&layer, "index.add_batch.docs"),
            get(&layer, "webworld.fetch.count"),
        ),
    );
    let new_docs = get(&layer, "core.refresh.new_docs");
    layer.insert(
        "core.refresh.useful_ratio",
        ratio(new_docs, new_docs + get(&layer, "core.refresh.stale_docs")),
    );
    layer.insert("trace.overhead_ratio", ratio(traced_s, plain_s));
    layer.insert("bench.traced_rounds", TRACED_WORLDS as f64);
    Outcome {
        tally,
        digest,
        report: Report::PerLayer(layer, trace),
    }
}
