//! In-memory span recording for the traced run.
//!
//! The harness wraps every call it makes into a layer (a crate of the
//! workspace) in a span `{id, parent, op, layer, name, start_ns, end_ns}`;
//! spans of one operation share `op`.  Nothing is written while the
//! benchmark runs: the spans stay in memory and are dumped as
//! `<out>/<workload>.trace.json` at exit.  A layer's *self time* is its
//! span's duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded interval; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in the recorder (ids are dense, in opening order).
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation the span belongs to (the rep or request index).
    pub op: u64,
    /// The crate the timed call enters (`harness` for the harness's own
    /// grouping spans).
    pub layer: &'static str,
    /// The timed call.
    pub name: &'static str,
    /// Opening time.
    pub start_ns: u64,
    /// Closing time (equal to `start_ns` while still open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Thread-safe span store; client and worker threads record into one.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; pair with [`Recorder::close`].
    pub fn open(
        &self,
        parent: Option<SpanId>,
        op: u64,
        layer: &'static str,
        name: &'static str,
    ) -> SpanId {
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            op,
            layer,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Close span `id` and return its duration in seconds.
    pub fn close(&self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        let span = &mut spans[id];
        span.end_ns = now;
        span.seconds()
    }

    /// Run `f` inside a span; returns its result and the span's seconds.
    pub fn time<T>(
        &self,
        parent: Option<SpanId>,
        op: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(parent, op, layer, name);
        let value = f();
        (value, self.close(id))
    }

    /// Record a closed interval another thread measured with its own
    /// `Instant`s (worker threads time their posts without touching the
    /// recorder).
    pub fn record(
        &self,
        parent: Option<SpanId>,
        op: u64,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let since = |at: Instant| {
            u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            op,
            layer,
            name,
            start_ns: since(start),
            end_ns: since(end),
        });
        id
    }

    /// Duration of span `id` in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        self.spans.lock().expect("span store poisoned")[id].seconds()
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the union of
/// its children's intervals (clipped to the span, so overlapping siblings —
/// concurrent calls — are not subtracted twice and a child that outlives its
/// parent subtracts only the shared part).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let covered = children.get_mut(&span.id).map_or(0, |intervals| {
                union_ns(intervals, span.start_ns, span.end_ns)
            });
            duration - covered
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Share of span `root`'s duration that its direct children cover (1 − self
/// time / duration): how much of an operation the layer spans attribute.
pub fn covered_frac(spans: &[Span], root: SpanId) -> f64 {
    let duration = spans[root].end_ns.saturating_sub(spans[root].start_ns);
    if duration == 0 {
        return 0.0;
    }
    1.0 - self_ns(spans)[root] as f64 / duration as f64
}

/// Self seconds summed per layer.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns(spans)) {
        *totals.entry(span.layer).or_insert(0.0) += own as f64 / 1e9;
    }
    totals
}

/// The trace document written at exit.
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\"schema\": \"benchmark_trace/v1\", \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"layer_self_seconds\": {{"
    );
    for (index, (layer, seconds)) in layer_self_seconds(spans).iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{layer}\": {seconds:.9}"));
    }
    out.push_str("}, \"spans\": [\n");
    for (index, span) in spans.iter().enumerate() {
        if index > 0 {
            out.push_str(",\n");
        }
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"layer\": \"{}\", \
             \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            span.id, span.op, span.layer, span.name, span.start_ns, span.end_ns
        ));
    }
    out.push_str("\n]}\n");
    out
}
