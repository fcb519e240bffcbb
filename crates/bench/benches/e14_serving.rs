//! E14 bench (e06-style): concurrent batched query serving. First prints a
//! measured-qps table for the broker at 1/2/4 workers on one Zipf batch
//! (the E1 ">1000 qps" claim, now with a concurrency axis), then times the
//! serving kernels: whole batches at each worker count (each worker reusing
//! one `QueryScratch` across its share of the batch) and the auto-sized pool
//! (`workers = 0`).
//!
//! Like `e06_pipeline_*`, the speedup must be read off multi-core CI
//! runners; output equality between every path is enforced by the serving
//! determinism tests regardless of core count.

use criterion::{criterion_group, criterion_main, Criterion};
use deepweb_common::derive_rng;
use deepweb_core::{quick_config, DeepWebSystem, TextTable};
use deepweb_queries::{generate_workload, WorkloadConfig};
use std::hint::black_box;
use std::time::Instant;

fn bench(c: &mut Criterion) {
    let sys = DeepWebSystem::build(&quick_config(10));
    let wl = generate_workload(
        &sys.world,
        &WorkloadConfig {
            distinct: 300,
            ..Default::default()
        },
    );
    let mut rng = derive_rng(29, "e14-serving");
    let batch = wl.sample_batch(512, &mut rng);

    // Measured-qps table (one shot per worker count, like E1d).
    let mut table = TextTable::new(
        "E14: batched serving throughput by broker worker count \
         (same batch, byte-identical results)",
        &["workers", "batch size", "throughput (qps)"],
    );
    let reference = sys.search_batch(&batch, 10, 1);
    for workers in [1, 2, 4] {
        let t0 = Instant::now();
        let results = sys.search_batch(&batch, 10, workers);
        let qps = batch.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(results, reference, "workers={workers}");
        table.row(&[
            workers.to_string(),
            batch.len().to_string(),
            format!("{qps:.0}"),
        ]);
    }
    println!("{}", table.render());

    c.bench_function("e14_serve_batch_w1", |b| {
        b.iter(|| black_box(sys.search_batch(&batch, 10, 1)))
    });
    c.bench_function("e14_serve_batch_w2", |b| {
        b.iter(|| black_box(sys.search_batch(&batch, 10, 2)))
    });
    c.bench_function("e14_serve_batch_w4", |b| {
        b.iter(|| black_box(sys.search_batch(&batch, 10, 4)))
    });
    c.bench_function("e14_serve_batch_w0_auto", |b| {
        b.iter(|| black_box(sys.search_batch(&batch, 10, 0)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
