//! Concurrent serving determinism and stress tests (DESIGN.md §10).
//!
//! The contract under test: batched fan-out, at any worker count, returns
//! byte-identical `Vec<Hit>` to the sequential `search()` reference, and one
//! broker can be hammered from many OS threads without panics, lost queries,
//! or unstable results.

use deepweb::common::{derive_rng, ThreadPool};
use deepweb::index::{search, search_with_scratch, Hit, QueryBroker, QueryScratch, SearchService};
use deepweb::queries::{generate_workload, WorkloadConfig};
use deepweb::{quick_config, DeepWebSystem};
use std::sync::atomic::{AtomicUsize, Ordering};

fn build_system(sites: usize) -> DeepWebSystem {
    DeepWebSystem::build(&quick_config(sites))
}

fn workload_batch(sys: &DeepWebSystem, distinct: usize, size: usize, label: &str) -> Vec<String> {
    let wl = generate_workload(
        &sys.world,
        &WorkloadConfig {
            distinct,
            ..Default::default()
        },
    );
    let mut rng = derive_rng(101, label);
    wl.sample_batch(size, &mut rng)
}

#[test]
fn search_batch_is_byte_identical_to_sequential_search() {
    let sys = build_system(8);
    let mut batch = workload_batch(&sys, 120, 200, "serving-equality");
    // Edge queries ride along: empty, stopword-only, unknown terms.
    batch.push(String::new());
    batch.push("the of and".into());
    batch.push("zzzzzz qqqqqq".into());
    let expected: Vec<Vec<Hit>> = batch.iter().map(|q| sys.search(q, 10)).collect();
    for workers in [1, 2, 4, 8] {
        assert_eq!(
            sys.search_batch(&batch, 10, workers),
            expected,
            "workers={workers}"
        );
    }
}

/// Hammer one broker from 8 OS threads with interleaved batches: no panics,
/// no lost queries, and every thread sees the same (sequential-reference)
/// results on every iteration.
#[test]
fn broker_survives_8_threads_of_interleaved_batches() {
    let sys = build_system(6);
    let broker = QueryBroker::new(&sys.index, ThreadPool::new(2), sys.options);
    // 8 threads × 4 rounds, each round a different slice of the stream.
    let batches: Vec<Vec<String>> = {
        let wl = generate_workload(
            &sys.world,
            &WorkloadConfig {
                distinct: 100,
                ..Default::default()
            },
        );
        let mut rng = derive_rng(101, "serving-stress");
        wl.sample_batches(4, 48, &mut rng)
    };
    let expected: Vec<Vec<Vec<Hit>>> = batches
        .iter()
        .map(|b| b.iter().map(|q| sys.search(q, 5)).collect())
        .collect();
    let served = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for t in 0..8 {
            let broker = &broker;
            let batches = &batches;
            let expected = &expected;
            let served = &served;
            s.spawn(move || {
                // Interleave: each thread starts at a different batch.
                for round in 0..batches.len() {
                    let bi = (t + round) % batches.len();
                    let results = broker.search_batch(&batches[bi], 5);
                    assert_eq!(results.len(), batches[bi].len(), "lost queries");
                    assert_eq!(&results, &expected[bi], "thread {t} round {round}");
                    served.fetch_add(results.len(), Ordering::SeqCst);
                }
            });
        }
    });
    assert_eq!(served.load(Ordering::SeqCst), 8 * 4 * 48);
}

/// One `QueryScratch` reused across 100 mixed queries (workload + edge
/// cases, varying k, plain and annotation-aware) must return byte-identical
/// hits to a fresh scratch per call and to the `search()` reference — the
/// scratch lifecycle can never leak state between queries.
#[test]
fn scratch_reused_across_100_mixed_queries_is_byte_identical() {
    let sys = build_system(8);
    let mut queries = workload_batch(&sys, 120, 94, "serving-scratch-reuse");
    queries.push(String::new());
    queries.push("the of and".into());
    queries.push("zzzzzz qqqqqq".into());
    queries.push("used honda civic springfield".into());
    queries.push("used ford focus 1993".into());
    queries.push("HONDA honda HoNdA".into());
    assert_eq!(queries.len(), 100);
    let mut reused = QueryScratch::new();
    for (i, q) in queries.iter().enumerate() {
        // Vary k and options across the stream so the reused scratch sees
        // heap shrinkage, early exits (k = 0) and the annotations path.
        let k = [0, 1, 5, 10][i % 4];
        let mut opts = sys.options;
        opts.use_annotations = i % 3 == 0;
        let with_reused = search_with_scratch(&sys.index, q, k, opts, &mut reused);
        let with_fresh = search_with_scratch(&sys.index, q, k, opts, &mut QueryScratch::new());
        assert_eq!(with_reused, with_fresh, "query #{i} {q:?} k={k}");
        assert_eq!(
            with_reused,
            search(&sys.index, q, k, opts),
            "query #{i} {q:?} k={k} diverges from the reference path"
        );
    }
}

/// Regression for ranking determinism across builds: two independent builds
/// of the same world must rank every workload query identically — no
/// ranking tie may lean on map iteration order or build incidentals.
#[test]
fn two_builds_of_the_same_world_rank_identically() {
    let sys_a = build_system(6);
    let sys_b = build_system(6);
    assert_eq!(sys_a.index.len(), sys_b.index.len());
    let wl = generate_workload(
        &sys_a.world,
        &WorkloadConfig {
            distinct: 80,
            ..Default::default()
        },
    );
    for q in &wl.queries {
        assert_eq!(
            sys_a.search(&q.text, 10),
            sys_b.search(&q.text, 10),
            "query {:?} ranks differently across builds",
            q.text
        );
    }
}
