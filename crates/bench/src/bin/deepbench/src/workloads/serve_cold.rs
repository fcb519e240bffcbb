//! `serve_cold` — kernel-bound serving.
//!
//! A synthetic [`DOCS`]-doc corpus (30 Zipf(1.1) terms per doc over a
//! 3 000-term vocabulary: head terms sit in almost every doc, so posting
//! lists are long) and [`QUERIES`] queries of 2–4 terms, no two with the same
//! term signature. One round is [`SINGLES`] single queries through the
//! sequential block-max tier, then [`BURSTS`] bursts of [`BURST`] through a
//! *fresh* cluster (4 partitions × 2 replicas, default cache): inside one
//! cluster's life no signature repeats, so the result cache can never hit —
//! the run asserts `hits == 0` — and every query decodes and scores.

use super::{
    add_footprint, insert_admission, insert_busy, insert_cache, insert_pooled_tail, ratio,
    setup_due, Ctx, LayerMap, Outcome, Report, VERIFY_SAMPLE,
};
use crate::inputs::{distinct_zipf_queries, sample_positions, zipf_docs, CorpusShape};
use crate::serve::{
    bursts, probe_bursts, probe_singles, rounds_for, scratch, singles, Laps, Samples, K,
};
use crate::tiers::{cluster_config, tier, Served, TierKind};
use crate::trace::{SpanId, Tracer};
use crate::verify::{check_tier, digest_of, oracle, Tally};
use deepweb_common::ThreadPool;
use deepweb_index::analysis::analyze_query;
use deepweb_index::{BatchDoc, PruningMode, SearchIndex, SearchOptions};
use std::hint::black_box;
use std::time::Instant;

const DOCS: usize = 60_000;
const SHAPE: CorpusShape = CorpusShape {
    vocab: 3_000,
    doc_len: 30,
};
const QUERIES: usize = 6_000;
const SINGLES: usize = 1_200;
const BURST: usize = 64;
const BURSTS: usize = 24;
/// Rounds per twenty seconds of `--seconds` (a round takes about 0.75 s on
/// the reference box, the thirteen set-ups about 5 s between them).
const ROUNDS_PER_20S: u64 = 15;
/// Rounds of the traced run: 24 000 single-query samples, 240 beyond p99.
const TRACED_ROUNDS: usize = 20;
/// Queries each kernel probe of the traced run serves.
const PROBE: usize = 2_048;

/// Cache capacity of the timed cluster (the library default).
const CACHE: usize = 1_024;

fn options(pruning: PruningMode) -> SearchOptions {
    SearchOptions {
        pruning,
        ..SearchOptions::default()
    }
}

struct Setup {
    index: SearchIndex,
    queries: Vec<String>,
    /// Seconds of each step: corpus, `add_batch`, `enable_pruning`, queries.
    laps: Vec<f64>,
}

/// The set-up steps that are the build.
const BUILD_LAPS: std::ops::Range<usize> = 1..3;

fn corpus(ctx: &Ctx) -> Vec<BatchDoc> {
    zipf_docs(ctx.seed, "cold-corpus", SHAPE, "cold.sim", 0, DOCS)
}

fn setup(ctx: &Ctx, tracer: &Tracer) -> Setup {
    let mut laps = Laps::start();
    let docs = corpus(ctx);
    let pool = ThreadPool::new(0);
    laps.lap();
    let mut index = SearchIndex::new();
    tracer.span("index.add_batch", SpanId::NONE, 0, |_| {
        index.add_batch(&pool, docs);
    });
    laps.lap();
    tracer.span("index.enable_pruning", SpanId::NONE, 0, |_| {
        index.enable_pruning()
    });
    laps.lap();
    let queries = distinct_zipf_queries(ctx.seed, "cold-queries", SHAPE.vocab, QUERIES);
    laps.lap();
    Setup {
        index,
        queries,
        laps: laps.secs,
    }
}

/// Every tier the rounds time, against the exhaustive oracle.
fn verify(ctx: &Ctx, s: &Setup, tally: &mut Tally) -> crate::verify::Digest {
    let picks = sample_positions(ctx.seed, "cold-verify", s.queries.len(), VERIFY_SAMPLE);
    let queries: Vec<&str> = picks.iter().map(|&i| s.queries[i].as_str()).collect();
    let opts = options(PruningMode::BlockMax);
    let want = oracle(&s.index, &queries, K, opts);
    let seq = tier(&s.index, opts, TierKind::Sequential);
    check_tier(tally, "sequential", seq.service(), &queries, &want, K);
    let cluster = cold_cluster(&s.index, 0);
    check_tier(tally, "cluster", cluster.service(), &queries, &want, K);
    tally.check(s.index.len() == DOCS, "every offered doc is indexed");
    digest_of(&want)
}

fn cold_cluster(index: &SearchIndex, workers: usize) -> Served<'_> {
    tier(
        index,
        options(PruningMode::BlockMax),
        TierKind::Cluster(cluster_config(workers, Some(CACHE))),
    )
}

/// One round: the same [`SINGLES`] queries, then the same [`BURSTS`]
/// bursts through a fresh cluster. Returns the seconds of the two phases.
fn round(s: &Setup, tracer: &Tracer, samples: &mut Samples, tally: &mut Tally) -> f64 {
    let (single_q, rest) = s.queries.split_at(SINGLES);
    let seq = tier(
        &s.index,
        options(PruningMode::BlockMax),
        TierKind::Sequential,
    );
    let a = singles(
        seq.service(),
        single_q,
        samples.lat_slots(0),
        tracer,
        "serve.single",
        SpanId::NONE,
    );
    let cluster = cold_cluster(&s.index, 0);
    let b = bursts(
        cluster.service(),
        &rest[..BURST * BURSTS],
        &[BURST; BURSTS],
        samples.burst_slots(0),
        tracer,
        "serve.burst",
        SpanId::NONE,
    );
    tally.check(
        cluster.cache_hits() == 0,
        "a cold stream never hits the result cache",
    );
    samples.round_done();
    a + b
}

fn new_samples() -> Samples {
    Samples::new(1, SINGLES, BURSTS, BURST * BURSTS)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    if ctx.trace {
        return traced(ctx, tally);
    }
    let mut samples = new_samples();
    let off = Tracer::off();
    let timed_setup = |samples: &mut Samples| {
        let s = setup(ctx, &off);
        samples.note_setup(&s.laps, BUILD_LAPS, Some(DOCS));
        s
    };
    let s = timed_setup(&mut samples);
    let digest = verify(ctx, &s, &mut tally);

    let rounds = rounds_for(ctx.seconds, ROUNDS_PER_20S, 1);
    for r in 0..rounds {
        round(&s, &off, &mut samples, &mut tally);
        if setup_due(r, rounds) {
            drop(timed_setup(&mut samples));
        }
    }
    let indexed = s.index.len() as f64;
    Outcome {
        tally,
        digest,
        report: Report::EndToEnd(samples.finish(indexed / DOCS as f64, DOCS as f64 / indexed)),
    }
}

fn traced(ctx: &Ctx, mut tally: Tally) -> Outcome {
    let tracer = Tracer::on();
    let mut layer = LayerMap::new();
    let s = setup(ctx, &tracer);
    let digest = verify(ctx, &s, &mut tally);

    // The same fixed rounds twice: spans off, then on.
    let off = Tracer::off();
    let mut plain = new_samples();
    let plain_s: f64 = (0..TRACED_ROUNDS)
        .map(|_| round(&s, &off, &mut plain, &mut tally))
        .sum();
    let mut samples = new_samples();
    let traced_s: f64 = (0..TRACED_ROUNDS)
        .map(|_| round(&s, &tracer, &mut samples, &mut tally))
        .sum();
    layer.insert("trace.overhead_ratio", ratio(traced_s, plain_s));
    layer.insert("bench.traced_rounds", TRACED_ROUNDS as f64);

    // Kernel and tier probes over one fixed sample, best of three passes.
    let probe = &s.queries[..PROBE];
    let sizes = vec![BURST; PROBE / BURST];
    let batch = &probe[..sizes.iter().sum::<usize>()];
    tracer.span("index.analyze_query", SpanId::NONE, 0, |_| {
        for q in probe {
            black_box(analyze_query(q));
        }
    });
    let index = &s.index;
    let sealed = |mode, kind| move || tier(index, options(mode), kind);
    let exhaustive_s = probe_singles(
        sealed(PruningMode::Exhaustive, TierKind::Sequential),
        probe,
        &tracer,
        "index.seq.exhaustive",
    );
    let blockmax_s = probe_singles(
        sealed(PruningMode::BlockMax, TierKind::Sequential),
        probe,
        &tracer,
        "index.seq.blockmax",
    );
    let broker_s = probe_bursts(
        sealed(PruningMode::BlockMax, TierKind::Broker { workers: 0 }),
        batch,
        &sizes,
        &tracer,
        "index.broker.batch",
    );
    // The cluster whose counters are read back serves one pass of its own.
    let counted = cold_cluster(&s.index, 0);
    bursts(
        counted.service(),
        batch,
        &sizes,
        &mut scratch(sizes.len()),
        &off,
        "",
        SpanId::NONE,
    );
    let cluster_s = probe_bursts(
        || cold_cluster(&s.index, 0),
        batch,
        &sizes,
        &tracer,
        "index.cluster.batch",
    );
    let cluster_w1_s = probe_bursts(|| cold_cluster(&s.index, 1), batch, &sizes, &off, "");
    let fanout_s = probe_singles(
        || cold_cluster(&s.index, 0),
        probe,
        &tracer,
        "index.cluster.single",
    );
    layer.insert("index.seq.exhaustive.busy_s", exhaustive_s);
    layer.insert("index.seq.blockmax.busy_s", blockmax_s);
    layer.insert("index.broker.batch.busy_s", broker_s);
    layer.insert("index.cluster.batch.busy_s", cluster_s);
    layer.insert("index.cluster.single.busy_s", fanout_s);
    layer.insert("index.pruning.speedup", ratio(exhaustive_s, blockmax_s));
    layer.insert("index.cluster.fanout_overhead", ratio(fanout_s, blockmax_s));
    layer.insert(
        "index.cluster.parallel_speedup",
        ratio(cluster_w1_s, cluster_s),
    );
    if let Some(stats) = counted.cluster_stats() {
        insert_cache(&mut layer, stats.cache.unwrap_or_default());
        insert_admission(&mut layer, &stats);
    }

    // Build side: the same batch at one worker, and the footprint.
    let docs = corpus(ctx);
    let mut index_w1 = SearchIndex::new();
    let t0 = Instant::now();
    index_w1.add_batch(&ThreadPool::new(1), docs);
    layer.insert("index.add_batch.w1_s", t0.elapsed().as_secs_f64());
    tally.check(
        index_w1.stats() == s.index.stats(),
        "one worker indexes the same postings",
    );
    add_footprint(&mut layer, &s.index);

    let trace = tracer.finish();
    insert_pooled_tail(&mut layer, &trace, &["serve.single"]);
    insert_busy(
        &mut layer,
        &trace,
        &[
            ("index.add_batch.busy_s", "index.add_batch"),
            ("index.enable_pruning.busy_s", "index.enable_pruning"),
            ("index.analyze_query.busy_s", "index.analyze_query"),
        ],
    );
    Outcome {
        tally,
        digest,
        report: Report::PerLayer(layer, trace),
    }
}
