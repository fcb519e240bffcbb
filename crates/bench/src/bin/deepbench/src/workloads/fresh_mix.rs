//! `fresh_mix` — writes beside reads on `index::segments`.
//!
//! A [`BASE`]-doc synthetic base in a `SegmentedIndex`. One cycle starts
//! from a fresh clone of the sealed base and runs a fixed interleave on one
//! thread: [`READS`] reads, `apply(50 docs)`, … eight times, [`READS`] reads
//! with all eight segments pending, `merge()`, [`READS`] reads on the merged
//! base, then [`BURSTS`] bursts of [`BURST`]. Every cycle does the same
//! work (an index that grew through the run would make late cycles slower
//! than early ones), so every read, apply and merge has a best repetition.
//! It is the only workload where the pending-segment read path (exhaustive
//! fallback), `apply` and `merge` run at all.

use super::{
    add_footprint, insert_pooled_tail, ratio, setup_due, Ctx, LayerMap, Outcome, Report,
    VERIFY_SAMPLE,
};
use crate::inputs::{distinct_zipf_queries, sample_positions, zipf_docs, CorpusShape};
use crate::serve::{bursts, rounds_for, scratch, singles, summarise, timed, Laps, Op, Samples, K};
use crate::tiers::{segmented_tier, tier, TierKind};
use crate::trace::{SpanId, Tracer};
use crate::verify::{check_tier, digest_of, oracle, Digest, Tally};
use deepweb_common::ThreadPool;
use deepweb_index::{BatchDoc, PruningMode, SearchIndex, SearchOptions, SegmentedIndex};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const BASE: usize = 40_000;
const SHAPE: CorpusShape = CorpusShape {
    vocab: 3_000,
    doc_len: 30,
};
const QUERIES: usize = 6_000;
const APPLIES: usize = 8;
const APPLY_DOCS: usize = 50;
const READS: usize = 120;
const BURST: usize = 64;
const BURSTS: usize = 8;
/// Cycles of the traced run: 24 000 single reads, 240 beyond p99.
const TRACED_CYCLES: usize = 20;
/// Cycles per twenty seconds of `--seconds` (a cycle takes about 1 s on the
/// reference box, the thirteen set-ups about 3.5 s between them).
const CYCLES_PER_20S: u64 = 16;
/// Merges the two-thread probe of the traced run reads across.
const PROBE_MERGES: usize = 30;

fn opts() -> SearchOptions {
    SearchOptions {
        pruning: PruningMode::BlockMax,
        ..SearchOptions::default()
    }
}

struct Setup {
    base: SearchIndex,
    deltas: Vec<Vec<BatchDoc>>,
    queries: Vec<String>,
    /// Seconds of each step: base docs, `add_batch`, `enable_pruning`,
    /// deltas and queries.
    laps: Vec<f64>,
}

/// The set-up steps that are the build.
const BUILD_LAPS: std::ops::Range<usize> = 1..3;

fn setup(ctx: &Ctx) -> Setup {
    let mut laps = Laps::start();
    let docs = zipf_docs(ctx.seed, "fresh-base", SHAPE, "fresh.sim", 0, BASE);
    let pool = ThreadPool::new(0);
    laps.lap();
    let mut base = SearchIndex::new();
    base.add_batch(&pool, docs);
    laps.lap();
    base.enable_pruning();
    laps.lap();
    let delta_docs = zipf_docs(
        ctx.seed,
        "fresh-delta",
        SHAPE,
        "fresh.sim",
        BASE,
        APPLIES * APPLY_DOCS,
    );
    let deltas = delta_docs
        .chunks(APPLY_DOCS)
        .map(<[BatchDoc]>::to_vec)
        .collect();
    let queries = distinct_zipf_queries(ctx.seed, "fresh-queries", SHAPE.vocab, QUERIES);
    laps.lap();
    Setup {
        base,
        deltas,
        queries,
        laps: laps.secs,
    }
}

/// What one cycle's writes took, and what it was asked to hold.
struct Cycle {
    /// Seconds (at reference speed) of each write step: the applies in
    /// order, then the merge.
    write_laps: Vec<f64>,
    pending_max: usize,
    /// Docs the tier holds when the cycle ends.
    docs: usize,
}

/// What the verification pass runs on the tier at a point of the cycle.
type Check<'a> = &'a mut dyn FnMut(&SegmentedIndex, &str);

/// Reads of one cycle: a group before each apply, one with every delta
/// pending, one after the merge.
const CYCLE_READS: usize = (APPLIES + 2) * READS;

/// One cycle of the fixed interleave over a fresh clone of the base: the
/// same reads, deltas and bursts every time. `lat` and `burst` keep each
/// operation's best time. `check`, when given, runs with every delta
/// pending and again after the merge (the verification pass; never inside a
/// timed cycle).
fn cycle(
    s: &Setup,
    tracer: &Tracer,
    lat: &mut [u64],
    burst: &mut [u64],
    mut check: Option<Check<'_>>,
) -> Cycle {
    let seg = SegmentedIndex::new(s.base.clone());
    let reader = segmented_tier(&seg, opts());
    let mut out = Cycle {
        write_laps: Vec::with_capacity(APPLIES + 1),
        pending_max: 0,
        docs: 0,
    };
    let (read_q, rest) = s.queries.split_at(CYCLE_READS);
    let mut groups = read_q.chunks(READS).zip(lat.chunks_mut(READS));
    let mut reads = |span: &'static str| {
        let (queries, slots) = groups.next().expect("one read group per step of the cycle");
        singles(reader.service(), queries, slots, tracer, span, SpanId::NONE);
    };
    for (i, delta) in s.deltas.iter().enumerate() {
        reads(if i == 0 {
            "index.read_merged"
        } else {
            "index.read_pending"
        });
        let batch = delta.clone();
        let (added, secs) =
            timed(|| tracer.span("index.apply", SpanId::NONE, i as u64, |_| seg.apply(batch)));
        out.write_laps.push(secs);
        assert_eq!(added, APPLY_DOCS, "delta URLs are new");
        out.pending_max = out.pending_max.max(seg.num_segments());
    }
    reads("index.read_pending");
    if let Some(check) = check.as_mut() {
        check(&seg, "all deltas pending");
    }
    let (folded, secs) = timed(|| tracer.span("index.merge", SpanId::NONE, 0, |_| seg.merge()));
    out.write_laps.push(secs);
    assert_eq!(folded, APPLIES * APPLY_DOCS, "merge folds every delta doc");
    reads("index.read_merged");
    if let Some(check) = check.as_mut() {
        check(&seg, "after the merge");
    }
    bursts(
        reader.service(),
        &rest[..BURST * BURSTS],
        &[BURST; BURSTS],
        burst,
        tracer,
        "index.read_merged.batch",
        SpanId::NONE,
    );
    out.docs = seg.num_docs();
    out
}

/// A cycle whose per-operation times nobody reads.
fn untimed_cycle(s: &Setup, tracer: &Tracer, check: Option<Check<'_>>) -> Cycle {
    cycle(
        s,
        tracer,
        &mut scratch(CYCLE_READS),
        &mut scratch(BURSTS),
        check,
    )
}

/// With every delta pending and again after the merge, the segmented tier
/// serves the bytes of a from-scratch index over base + deltas.
fn verify(ctx: &Ctx, s: &Setup, tally: &mut Tally) -> Digest {
    let mut all = zipf_docs(ctx.seed, "fresh-base", SHAPE, "fresh.sim", 0, BASE);
    all.extend(s.deltas.iter().flatten().cloned());
    let mut reference = SearchIndex::new();
    reference.add_batch(&ThreadPool::new(0), all);
    reference.enable_pruning();
    let picks = sample_positions(ctx.seed, "fresh-verify", s.queries.len(), VERIFY_SAMPLE);
    let queries: Vec<&str> = picks.iter().map(|&i| s.queries[i].as_str()).collect();
    let want = oracle(&reference, &queries, K, opts());
    let sealed = tier(&reference, opts(), TierKind::Sequential);
    check_tier(
        tally,
        "rebuild block-max",
        sealed.service(),
        &queries,
        &want,
        K,
    );
    let mut check = |seg: &SegmentedIndex, when: &str| {
        tally.check(
            seg.num_docs() == reference.len(),
            &format!("doc count {when}"),
        );
        let reader = segmented_tier(seg, opts());
        check_tier(tally, when, reader.service(), &queries, &want, K);
    };
    untimed_cycle(s, &Tracer::off(), Some(&mut check));
    digest_of(&want)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let mut samples = Samples::new(1, CYCLE_READS, BURSTS, BURST * BURSTS);
    let timed_setup = |samples: &mut Samples| {
        let s = setup(ctx);
        samples.note_setup(&s.laps, BUILD_LAPS, None);
        s
    };
    let s = timed_setup(&mut samples);
    let digest = verify(ctx, &s, &mut tally);
    if ctx.trace {
        return traced(&s, tally, digest);
    }

    let off = Tracer::off();
    let cycles = rounds_for(ctx.seconds, CYCLES_PER_20S, 1);
    let mut docs_after = 0;
    samples.note_docs(0, APPLIES * APPLY_DOCS);
    for c in 0..cycles {
        let (lat, burst) = samples.slots(0);
        let done = cycle(&s, &off, lat, burst, None);
        samples.note_laps(Op::Write, 0, 0, &done.write_laps);
        samples.round_done();
        docs_after = done.docs;
        if setup_due(c, cycles) {
            drop(timed_setup(&mut samples));
        }
    }
    eprintln!(
        "deepbench: fresh_mix: {cycles} cycles of {CYCLE_READS} reads, {APPLIES} applies x \
         {APPLY_DOCS} docs, 1 merge, {BURSTS} x {BURST} burst reads"
    );
    let offered = (BASE + APPLIES * APPLY_DOCS) as f64;
    Outcome {
        tally,
        digest,
        report: Report::EndToEnd(
            samples.finish(docs_after as f64 / offered, offered / docs_after as f64),
        ),
    }
}

/// The one two-thread probe: a reader loops while the writer applies and
/// merges; latencies of reads that began during a merge are kept.
fn read_during_merge(s: &Setup) -> Vec<u64> {
    let seg = SegmentedIndex::new(s.base.clone());
    let merging = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let mut during = Vec::new();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let tier = segmented_tier(&seg, opts());
            let mut lat = Vec::new();
            // SeqCst: the flags order the reader against the writer's merge.
            for q in s.queries.iter().cycle() {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                let in_merge = merging.load(Ordering::SeqCst);
                let t0 = Instant::now();
                black_box(tier.service().search(q, K));
                if in_merge {
                    lat.push(t0.elapsed().as_nanos() as u64);
                }
            }
            lat
        });
        for round in 0..PROBE_MERGES {
            for (i, delta) in s.deltas.iter().enumerate() {
                // Each round's docs need URLs of their own: re-applying a
                // known URL is a no-op.
                let batch: Vec<BatchDoc> = delta
                    .iter()
                    .map(|d| BatchDoc {
                        url: deepweb_common::Url::new(
                            "fresh.sim",
                            format!("/r{round}s{i}{}", d.url.path),
                        ),
                        ..d.clone()
                    })
                    .collect();
                seg.apply(batch);
            }
            merging.store(true, Ordering::SeqCst);
            seg.merge();
            merging.store(false, Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
        during = reader.join().expect("reader thread panicked");
    });
    during
}

fn traced(s: &Setup, tally: Tally, digest: Digest) -> Outcome {
    let tracer = Tracer::on();
    let off = Tracer::off();
    let mut layer = LayerMap::new();
    // The same fixed cycles twice: spans off, then on.
    let t0 = Instant::now();
    for _ in 0..TRACED_CYCLES {
        untimed_cycle(s, &off, None);
    }
    let plain_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut pending_max = 0;
    for _ in 0..TRACED_CYCLES {
        pending_max = pending_max.max(untimed_cycle(s, &tracer, None).pending_max);
    }
    let traced_s = t0.elapsed().as_secs_f64();
    layer.insert("trace.overhead_ratio", ratio(traced_s, plain_s));
    layer.insert("bench.traced_rounds", TRACED_CYCLES as f64);
    layer.insert("index.segments.pending_max", pending_max as f64);
    layer.insert(
        "index.apply.docs",
        (TRACED_CYCLES * APPLIES * APPLY_DOCS) as f64,
    );
    add_footprint(&mut layer, &s.base);

    let mut during = read_during_merge(s);
    let probe = summarise(&mut during);
    layer.insert("index.read_during_merge.p50_us", probe.p50_us);
    layer.insert("index.read_during_merge.p99_us", probe.p99_us);
    eprintln!(
        "deepbench: fresh_mix: {} reads began during a merge",
        probe.n
    );

    let trace = tracer.finish();
    insert_pooled_tail(
        &mut layer,
        &trace,
        &["index.read_merged", "index.read_pending"],
    );
    layer.insert("index.apply.busy_s", trace.busy_s("index.apply"));
    layer.insert("index.apply.count", trace.count("index.apply") as f64);
    layer.insert("index.merge.busy_s", trace.busy_s("index.merge"));
    layer.insert("index.merge.count", trace.count("index.merge") as f64);
    layer.insert(
        "index.merge.max_ms",
        trace.max_ns("index.merge") as f64 / 1e6,
    );
    let pending = trace.busy_s("index.read_pending");
    let merged = trace.busy_s("index.read_merged");
    layer.insert("index.read_pending.busy_s", pending);
    layer.insert("index.read_merged.busy_s", merged);
    layer.insert(
        "index.pending_penalty",
        ratio(
            ratio(pending, trace.count("index.read_pending") as f64),
            ratio(merged, trace.count("index.read_merged") as f64),
        ),
    );
    Outcome {
        tally,
        digest,
        report: Report::PerLayer(layer, trace),
    }
}
