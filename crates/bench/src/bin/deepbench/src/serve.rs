//! Closed-loop serve drivers and the per-run sample store.
//!
//! Loops are closed because the system's front door is a synchronous
//! library call that owns no request queue: an arrival schedule would time
//! the benchmark's own queue. Two client shapes, both stated in the report:
//! one client issuing single queries (latency), and one caller handing
//! bursts to the tier's own pool (throughput).
//!
//! Every timed operation is repeated: a round does the same work as the
//! round before it, a run makes a fixed number of rounds ([`rounds_for`]),
//! and each operation — one query, one burst, one build, one set-up —
//! counts with the **best of its repetitions** ([`Samples`]), each
//! repetition's time first scaled to **reference speed** by the calibration
//! slices taken around it ([`crate::env::to_reference`]). The reason is the
//! box (README.md, *Noise*): its cores switch between clock levels a quarter
//! apart and hold one for seconds or for a whole run, which the slices
//! cancel, and other tenants slow it for moments at a time, which the best
//! repetition, taken in a quiet moment, leaves out.

use crate::env::{slice_ns, to_reference};
use crate::stats::{highest_percentile, percentile_of_sorted, samples_beyond};
use crate::tiers::Served;
use crate::trace::{SpanId, Tracer};
use deepweb_index::SearchService;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Results per query, everywhere.
pub const K: usize = 10;

/// Rounds a run of `seconds` makes, at `per_20s` rounds per twenty seconds
/// asked for and never fewer than `min`. The count is fixed by the command
/// line, not by the clock: a loop that ran until `seconds` had passed would
/// give a slower program fewer tries per operation, a worse best, and so a
/// worse reading on metrics the slow part never touches. The rates are
/// sized on the 2-core reference box so that rounds plus set-up repetitions
/// take about `seconds` there.
pub fn rounds_for(seconds: u64, per_20s: u64, min: usize) -> usize {
    ((seconds * per_20s / 20) as usize).max(min)
}

/// Keep the smaller of a slot's value and a new reading.
fn note(slot: &mut u64, ns: u64) {
    *slot = (*slot).min(ns);
}

/// Wall time of operations between two calibration slices of a closed loop.
const CHUNK_NS: u64 = 2_000_000;

/// The closed loop both client shapes run: `op(i)` for every slot of `best`,
/// one at a time. A calibration slice runs before the first operation and
/// after every [`CHUNK_NS`] of operations; each operation's time is scaled
/// to reference speed by the slice after its chunk and the two before it,
/// and `best[i]` keeps the best scaled time (ns) operation `i` has shown.
/// Returns the wall seconds inside the operations.
fn closed_loop(best: &mut [u64], mut op: impl FnMut(usize)) -> f64 {
    let mut wall = vec![0u64; best.len()];
    let first = slice_ns();
    let mut slices = [first, first, first];
    let (mut start, mut chunk_ns, mut busy_ns) = (0, 0u64, 0u64);
    for i in 0..best.len() {
        let t0 = Instant::now();
        op(i);
        wall[i] = t0.elapsed().as_nanos() as u64;
        chunk_ns += wall[i];
        if chunk_ns >= CHUNK_NS || i + 1 == best.len() {
            slices = [slices[1], slices[2], slice_ns()];
            let scale = to_reference(&slices);
            for (slot, ns) in best[start..=i].iter_mut().zip(&wall[start..=i]) {
                note(slot, (*ns as f64 * scale) as u64);
            }
            busy_ns += chunk_ns;
            (start, chunk_ns) = (i + 1, 0);
        }
    }
    busy_ns as f64 / 1e9
}

/// One client, one query at a time. `best[i]` keeps the best latency (ns at
/// reference speed) query `i` has shown; returns the wall seconds the
/// queries took.
pub fn singles(
    svc: &dyn SearchService,
    queries: &[String],
    best: &mut [u64],
    tracer: &Tracer,
    span: &'static str,
    parent: SpanId,
) -> f64 {
    assert_eq!(queries.len(), best.len(), "one slot per query");
    closed_loop(best, |i| {
        black_box(tracer.span(span, parent, i as u64, |_| svc.search(&queries[i], K)));
    })
}

/// One caller handing `sizes`-shaped bursts of `queries` to the tier's own
/// pool. `best[i]` keeps the best time (ns at reference speed) burst `i` has
/// shown; returns the wall seconds the bursts took.
pub fn bursts(
    svc: &dyn SearchService,
    queries: &[String],
    sizes: &[usize],
    best: &mut [u64],
    tracer: &Tracer,
    span: &'static str,
    parent: SpanId,
) -> f64 {
    assert_eq!(sizes.len(), best.len(), "one slot per burst");
    let mut at = 0;
    closed_loop(best, |i| {
        let batch = &queries[at..at + sizes[i]];
        at += sizes[i];
        black_box(tracer.span(span, parent, i as u64, |_| svc.search_batch(batch, K)));
    })
}

/// Passes a probe of the traced run makes over its fixed sample.
pub const PROBE_PASSES: usize = 3;

/// Sum of a set of slots, in seconds.
pub fn total_s(best: &[u64]) -> f64 {
    best.iter().sum::<u64>() as f64 / 1e9
}

/// A probe of the traced run: [`PROBE_PASSES`] passes of `queries` as
/// single queries, each through a tier `make` stands up anew (so a cache
/// starts cold every pass). Returns the sum of the queries' best latencies.
pub fn probe_singles<'a>(
    make: impl Fn() -> Served<'a>,
    queries: &[String],
    tracer: &Tracer,
    span: &'static str,
) -> f64 {
    let mut best = scratch(queries.len());
    for _ in 0..PROBE_PASSES {
        singles(
            make().service(),
            queries,
            &mut best,
            tracer,
            span,
            SpanId::NONE,
        );
    }
    total_s(&best)
}

/// [`probe_singles`] for bursts: the sum of the bursts' best times.
pub fn probe_bursts<'a>(
    make: impl Fn() -> Served<'a>,
    queries: &[String],
    sizes: &[usize],
    tracer: &Tracer,
    span: &'static str,
) -> f64 {
    let mut best = scratch(sizes.len());
    for _ in 0..PROBE_PASSES {
        bursts(
            make().service(),
            queries,
            sizes,
            &mut best,
            tracer,
            span,
            SpanId::NONE,
        );
    }
    total_s(&best)
}

/// Slots for probes whose per-operation times nobody reads.
pub fn scratch(n: usize) -> Vec<u64> {
    vec![u64::MAX; n]
}

/// Latency summary over a set of per-query times.
pub struct LatencySummary {
    /// Samples.
    pub n: usize,
    /// Median, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// Samples beyond the 99th percentile.
    pub beyond_p99: usize,
    /// Highest percentile with ≥ 10 samples beyond it: (basis points, µs).
    pub highest: Option<(u64, f64)>,
}

/// Summarise `lat` (ns); sorts it in place.
pub fn summarise(lat: &mut [u64]) -> LatencySummary {
    lat.sort_unstable();
    let us = |bp| percentile_of_sorted(lat, bp) as f64 / 1e3;
    LatencySummary {
        n: lat.len(),
        p50_us: us(5_000),
        p99_us: us(9_900),
        beyond_p99: samples_beyond(lat.len(), 9_900),
        highest: highest_percentile(lat.len()).map(|bp| (bp, us(bp))),
    }
}

/// What a timed step belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Op {
    /// Getting the run's inputs ready (`setup_s`).
    Setup,
    /// Making a unit's corpus searchable (`build_s`).
    Build,
    /// Making new docs searchable (`ingest_docs_per_s`).
    Write,
}

/// Seconds between consecutive marks, two calibration slices at every mark:
/// how a set-up, a build or a write path times its steps.
pub struct Laps {
    last: Instant,
    slices: [u64; 2],
    /// The laps so far, scaled to reference speed by the slices around each.
    pub secs: Vec<f64>,
}

impl Laps {
    /// Start the first lap.
    pub fn start() -> Self {
        let slices = [slice_ns(), slice_ns()];
        Laps {
            last: Instant::now(),
            slices,
            secs: Vec::new(),
        }
    }

    /// End the current lap and start the next.
    pub fn lap(&mut self) {
        let wall = self.last.elapsed().as_secs_f64();
        let [b0, b1] = self.slices;
        self.slices = [slice_ns(), slice_ns()];
        let [a0, a1] = self.slices;
        self.secs.push(wall * to_reference(&[b0, b1, a0, a1]));
        self.last = Instant::now();
    }
}

/// One operation between calibration slices: its result and its seconds
/// at reference speed.
pub fn timed<T>(op: impl FnOnce() -> T) -> (T, f64) {
    let mut laps = Laps::start();
    let out = op();
    laps.lap();
    (out, laps.secs[0])
}

/// Best-of-repetitions store for one run. A *unit* is one independent piece
/// of the workload's data (a world on `offline_build`, the one corpus
/// elsewhere); each unit has its own queries, bursts, build and write path.
/// Set-ups, builds and write paths are sequences of *steps* (generate,
/// `add_batch`, `enable_pruning`, …); each step keeps its own best time, so
/// one disturbed step does not spoil a whole repetition.
pub struct Samples {
    units: usize,
    singles_per_unit: usize,
    bursts_per_unit: usize,
    burst_queries_per_unit: usize,
    steps: BTreeMap<(Op, usize, usize), u64>,
    write_docs: BTreeMap<usize, usize>,
    lat_ns: Vec<u64>,
    burst_ns: Vec<u64>,
    rounds: usize,
    setups: usize,
}

/// The end-to-end numbers of one run (peak RSS is added by `main`). Every
/// time in them is at reference speed.
pub struct EndToEnd {
    /// Seconds of one set-up: the sum of its steps' best times.
    pub setup_s: f64,
    /// Seconds to make one unit's corpus searchable: the sum of the build
    /// steps' best times, averaged over units.
    pub build_s: f64,
    /// Content reachable by a query ÷ content offered.
    pub coverage: f64,
    /// Requests (or offered docs) per searchable doc.
    pub requests_per_doc: f64,
    /// Single queries ÷ the sum of their best latencies.
    pub qps_1: f64,
    /// Median over queries of the query's best latency, µs.
    pub p50_best_us: f64,
    /// 99th percentile over queries of the query's best latency, µs.
    pub p99_best_us: f64,
    /// Burst queries ÷ the sum of the bursts' best times.
    pub qps_batch: f64,
    /// Docs made searchable ÷ the sum of the write steps' best times.
    pub ingest_docs_per_s: f64,
}

impl Samples {
    /// Slots for `units` units of `singles` single queries and `bursts`
    /// bursts (`burst_queries` queries in all) each.
    pub fn new(units: usize, singles: usize, bursts: usize, burst_queries: usize) -> Self {
        Samples {
            units,
            singles_per_unit: singles,
            bursts_per_unit: bursts,
            burst_queries_per_unit: burst_queries,
            steps: BTreeMap::new(),
            write_docs: BTreeMap::new(),
            lat_ns: vec![u64::MAX; units * singles],
            burst_ns: vec![u64::MAX; units * bursts],
            rounds: 0,
            setups: 0,
        }
    }

    /// Step `step` of `op` on `unit` took `secs` this time.
    pub fn note(&mut self, op: Op, unit: usize, step: usize, secs: f64) {
        note(
            self.steps.entry((op, unit, step)).or_insert(u64::MAX),
            (secs * 1e9) as u64,
        );
    }

    /// Consecutive steps of `op` on `unit`, from step `first`.
    pub fn note_laps(&mut self, op: Op, unit: usize, first: usize, laps: &[f64]) {
        for (i, &secs) in laps.iter().enumerate() {
            self.note(op, unit, first + i, secs);
        }
    }

    /// One repetition of a single-corpus workload's set-up: every lap is a
    /// set-up step, the laps in `build` are also the corpus's build, and for
    /// a sealed corpus of `sealed_docs` docs that bulk build is the only
    /// write path there is.
    pub fn note_setup(
        &mut self,
        laps: &[f64],
        build: std::ops::Range<usize>,
        sealed_docs: Option<usize>,
    ) {
        self.note_laps(Op::Setup, 0, 0, laps);
        self.note_laps(Op::Build, 0, 0, &laps[build.clone()]);
        if let Some(docs) = sealed_docs {
            self.note_laps(Op::Write, 0, 0, &laps[build]);
            self.note_docs(0, docs);
        }
        self.setups += 1;
    }

    /// `unit`'s write path makes `docs` docs searchable per repetition.
    pub fn note_docs(&mut self, unit: usize, docs: usize) {
        self.write_docs.insert(unit, docs);
    }

    /// A set-up repetition finished.
    pub fn setup_done(&mut self) {
        self.setups += 1;
    }

    /// `unit`'s single-query slots.
    pub fn lat_slots(&mut self, unit: usize) -> &mut [u64] {
        self.slots(unit).0
    }

    /// `unit`'s burst slots.
    pub fn burst_slots(&mut self, unit: usize) -> &mut [u64] {
        self.slots(unit).1
    }

    /// `unit`'s single-query and burst slots together.
    pub fn slots(&mut self, unit: usize) -> (&mut [u64], &mut [u64]) {
        let (n, b) = (self.singles_per_unit, self.bursts_per_unit);
        (
            &mut self.lat_ns[unit * n..(unit + 1) * n],
            &mut self.burst_ns[unit * b..(unit + 1) * b],
        )
    }

    /// A round over some unit finished.
    pub fn round_done(&mut self) {
        self.rounds += 1;
    }

    /// Sum of the best times of every step of `op`, in seconds.
    fn best_s(&self, op: Op) -> f64 {
        let total: u64 = self
            .steps
            .iter()
            .filter(|((o, _, _), _)| *o == op)
            .map(|(_, ns)| ns)
            .sum();
        total as f64 / 1e9
    }

    /// Reduce to the run's end-to-end numbers; prints the sample counts
    /// behind them on stderr. Every slot must have been filled once.
    pub fn finish(mut self, coverage: f64, requests_per_doc: f64) -> EndToEnd {
        let filled = |v: &[u64]| v.iter().all(|&ns| ns != u64::MAX);
        let units_with = |op: Op| {
            (0..self.units).all(|u| {
                self.steps
                    .range((op, u, 0)..(op, u + 1, 0))
                    .next()
                    .is_some()
            })
        };
        assert!(
            filled(&self.lat_ns)
                && filled(&self.burst_ns)
                && units_with(Op::Build)
                && units_with(Op::Write)
                && self.write_docs.len() == self.units
                && self.setups > 0,
            "every unit is measured at least once before a run reports"
        );
        let secs = |v: &[u64]| v.iter().sum::<u64>() as f64 / 1e9;
        let burst_queries = (self.units * self.burst_queries_per_unit) as f64;
        let qps_1 = self.lat_ns.len() as f64 / secs(&self.lat_ns);
        let qps_batch = burst_queries / secs(&self.burst_ns);
        let (setup_s, build_s, write_s) = (
            self.best_s(Op::Setup),
            self.best_s(Op::Build) / self.units as f64,
            self.best_s(Op::Write),
        );
        let lat = summarise(&mut self.lat_ns);
        eprintln!(
            "deepbench: best of repetitions: {} rounds over {} unit(s), {} set-ups; \
             {} single queries ({} beyond p99), {} bursts, {} timed steps",
            self.rounds,
            self.units,
            self.setups,
            lat.n,
            lat.beyond_p99,
            self.burst_ns.len(),
            self.steps.len()
        );
        if let Some((bp, us)) = lat.highest {
            eprintln!(
                "deepbench: highest percentile of the best latencies with >= 10 queries beyond: \
             p{} = {us:.3} us",
                bp as f64 / 100.0
            );
        }
        EndToEnd {
            setup_s,
            build_s,
            coverage,
            requests_per_doc,
            qps_1,
            p50_best_us: lat.p50_us,
            p99_best_us: lat.p99_us,
            qps_batch,
            ingest_docs_per_s: self.write_docs.values().sum::<usize>() as f64 / write_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_count_follows_the_command_line_only() {
        assert_eq!(rounds_for(20, 15, 1), 15);
        assert_eq!(rounds_for(10, 25, 1), 12);
        assert_eq!(rounds_for(1, 15, 1), 1);
        assert_eq!(rounds_for(2, 16, 4), 4);
    }

    #[test]
    fn closed_loop_scales_every_operation_and_returns_wall_time() {
        let mut best = scratch(50);
        let mut calls = 0;
        let busy_s = closed_loop(&mut best, |i| {
            assert_eq!(i, calls, "operations run in order, once each");
            calls += 1;
            black_box(slice_ns());
        });
        assert_eq!(calls, 50);
        assert!(best.iter().all(|&ns| ns > 0 && ns != u64::MAX));
        assert!(busy_s > 0.0);
        // A second pass only ever lowers a slot.
        let first = best.clone();
        closed_loop(&mut best, |_| {
            black_box(slice_ns());
        });
        assert!(best.iter().zip(&first).all(|(now, was)| now <= was));
    }

    #[test]
    fn laps_keep_one_time_per_step() {
        let mut laps = Laps::start();
        black_box(slice_ns());
        laps.lap();
        laps.lap();
        assert_eq!(laps.secs.len(), 2);
        assert!(laps.secs[0] > 0.0);
        let (out, secs) = timed(|| 7);
        assert_eq!(out, 7);
        assert!(secs >= 0.0);
    }

    #[test]
    fn summary_reports_percentiles_in_microseconds() {
        let mut lat: Vec<u64> = (1..=2_000).map(|i| i * 1_000).collect();
        let s = summarise(&mut lat);
        assert_eq!(s.n, 2_000);
        assert_eq!(s.p50_us, 1_000.0);
        assert_eq!(s.p99_us, 1_980.0);
        assert_eq!(s.beyond_p99, 20);
        assert_eq!(s.highest, Some((9_900, 1_980.0)));
    }

    #[test]
    fn samples_keep_the_best_repetition_of_each_operation() {
        let mut s = Samples::new(2, 2, 1, 10);
        for secs in [0.5, 0.25] {
            s.note_laps(Op::Setup, 0, 0, &[secs, 1.0 - secs]);
            s.setup_done();
        }
        for (unit, (slow, fast)) in [(4_000u64, 2_000u64), (8_000, 6_000)]
            .into_iter()
            .enumerate()
        {
            for ns in [slow, fast, slow] {
                s.lat_slots(unit).iter_mut().for_each(|slot| note(slot, ns));
                s.burst_slots(unit)
                    .iter_mut()
                    .for_each(|slot| note(slot, ns * 1_000));
                s.note(Op::Build, unit, 0, ns as f64 / 1e3);
                s.note(Op::Write, unit, 0, ns as f64 / 1e4);
                s.note_docs(unit, 100);
                s.round_done();
            }
        }
        let e = s.finish(1.0, 1.0);
        // Each set-up step keeps its own best: 0.25 + 0.5.
        assert_eq!(e.setup_s, 0.75);
        assert_eq!(e.build_s, (2.0 + 6.0) / 2.0);
        // 4 queries in 2 + 2 + 6 + 6 µs.
        assert_eq!(e.qps_1, 4.0 / 16e-6);
        assert_eq!((e.p50_best_us, e.p99_best_us), (2.0, 6.0));
        // 20 burst queries in 2 + 6 ms.
        assert_eq!(e.qps_batch, 20.0 / 8e-3);
        assert_eq!(e.ingest_docs_per_s, 200.0 / 0.8);
    }
}
