//! The benchmark's own span recorder (choosing-metrics §4).
//!
//! Spans are recorded from the benchmark's files only, around calls into a
//! layer's public functions: `{id, parent, request, name, thread, start_ns,
//! end_ns}`. Each thread appends to its own lane (pool workers are scoped
//! threads that die with their batch, so lanes are numbered slots, not
//! thread-locals), lanes are merged when the run ends and written out as one
//! JSON file. With tracing off, [`Tracer::span`] is one branch around the
//! call, so the end-to-end run and the traced run execute the same code.

use parking_lot::Mutex;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Lanes the recorder spreads threads over.
const LANES: usize = 16;

/// Identifier of a recorded span; `SpanId::NONE` is "no parent".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The root: a span with this parent has none.
    pub const NONE: SpanId = SpanId(0);
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within a trace, starting at 1.
    pub id: u32,
    /// The span that caused this one (0 = none).
    pub parent: u32,
    /// Spans of one request (a build round, a query) share this number.
    pub request: u64,
    /// `layer.operation`, the per-layer metric prefix.
    pub name: &'static str,
    /// Recorder-assigned thread number.
    pub thread: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_NO: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Span recorder; off by default.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU32,
    lanes: Vec<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            lanes: (0..LANES).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Run `f` inside a span. `f` receives the span's id so calls it makes
    /// can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.on {
            return f(SpanId::NONE);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(SpanId(id));
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let thread = THREAD_NO.with(|t| *t);
        self.lanes[thread as usize % LANES].lock().push(Span {
            id,
            parent: parent.0,
            request,
            name,
            thread,
            start_ns,
            end_ns,
        });
        out
    }

    /// Merge the lanes into one trace ordered by start time.
    pub fn finish(self) -> Trace {
        let mut spans: Vec<Span> = self
            .lanes
            .into_iter()
            .flat_map(|lane| lane.into_inner())
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Trace { spans }
    }
}

/// A finished trace.
pub struct Trace {
    /// All spans, ordered by start.
    pub spans: Vec<Span>,
}

/// Total length of the union of `intervals` (each `(start, end)`),
/// clipped to `[lo, hi]`.
pub fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

impl Trace {
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Seconds spent inside spans called `name` (summed across threads).
    pub fn busy_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::dur_ns).sum::<u64>() as f64 / 1e9
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Longest span called `name`, in nanoseconds.
    pub fn max_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::dur_ns).max().unwrap_or(0)
    }

    /// Self time of spans called `name`, in seconds: each span's duration
    /// minus the part of its interval that its child spans cover. Children
    /// on several threads may overlap, hence the union.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut total = 0u64;
        for span in self.named(name) {
            let mut kids: Vec<(u64, u64)> = self
                .spans
                .iter()
                .filter(|c| c.parent == span.id)
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            total += span.dur_ns() - union_ns(&mut kids, span.start_ns, span.end_ns);
        }
        total as f64 / 1e9
    }

    /// Write the trace as one JSON document.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"env\": {header}, \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"thread\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.id, s.parent, s.request, s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut iv = vec![(10, 20), (15, 30), (40, 50), (0, 5), (45, 70)];
        // [10,30) ∪ [40,60) clipped to [8,60] = 20 + 20.
        assert_eq!(union_ns(&mut iv, 8, 60), 40);
        assert_eq!(union_ns(&mut [], 0, 100), 0);
        // A child lying wholly outside the parent covers nothing.
        assert_eq!(union_ns(&mut [(0, 5)], 10, 20), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            request: 0,
            name,
            thread: 1,
            start_ns,
            end_ns,
        };
        let trace = Trace {
            spans: vec![
                span(1, 0, "parent", 0, 100),
                // Two overlapping children on different threads: 10..50 ∪ 30..60.
                span(2, 1, "child", 10, 50),
                span(3, 1, "child", 30, 60),
                // A grandchild does not count against the parent twice.
                span(4, 2, "leaf", 20, 25),
            ],
        };
        assert_eq!(trace.self_s("parent"), 50.0 / 1e9);
        assert_eq!(trace.self_s("child"), (35.0 + 30.0) / 1e9);
        assert_eq!(trace.busy_s("child"), 70.0 / 1e9);
        assert_eq!(trace.count("child"), 2);
        assert_eq!(trace.max_ns("child"), 40);
    }

    #[test]
    fn off_tracer_records_nothing_and_on_tracer_links_parents() {
        let off = Tracer::off();
        assert_eq!(off.span("a", SpanId::NONE, 0, |id| id), SpanId::NONE);
        assert!(off.finish().spans.is_empty());

        let on = Tracer::on();
        on.span("outer", SpanId::NONE, 7, |outer| {
            on.span("inner", outer, 7, |_| ());
        });
        let trace = on.finish();
        assert_eq!(trace.spans.len(), 2);
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.request, 7);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
