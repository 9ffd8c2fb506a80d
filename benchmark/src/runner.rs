//! The measurement loop shared by the batch workloads: repeated set-up,
//! time-boxed repetitions with the clock stopped around output checks, and
//! the reduction of samples to the metrics a run prints.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::host::peak_rss_mib;
use crate::metrics::{Samples, END_TO_END, PER_LAYER};
use crate::spans::{trace_json, Recorder};
use treemem::tree::Size;

/// Set-ups per run; `setup_s` is their median (the last one's state is used).
pub const SETUP_REPS: usize = 3;

/// Fewest timed operations of a run, whatever `--seconds` says.
const MIN_REPS: u64 = 3;

/// Arguments of one workload run (the contract's command line).
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Run seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Harness self-check mode: sizes ÷ 20, one rep.
    pub smoke: bool,
    /// Where traces and result files go.
    pub out_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the measurement window.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// `(name, value)` of every metric of the run's kind, catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable detail lines (`rep …`), printed before the result.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Count a failed operation, keeping the first few messages.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }
}

/// A pausable stopwatch: operations run under it, output checks outside.
#[derive(Debug, Default)]
pub struct Stopwatch {
    total: Duration,
}

impl Stopwatch {
    /// Run `f` on the clock.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.total += start.elapsed();
        value
    }

    /// Seconds accumulated so far.
    pub fn seconds(&self) -> f64 {
        self.total.as_secs_f64()
    }
}

/// The exact quality ratios of one operation's output: means over the
/// workload's trees, every tree weighing the same (the paper's Table I and
/// Figure 7 average ratios, not volumes).  They are a pure function of the
/// seed, so every repetition must reproduce them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Mean over trees of chosen-traversal peak / best-postorder peak.
    pub peak_vs_postorder: f64,
    /// Mean, over the trees whose budget forces I/O, of Σ I/O volume /
    /// Σ divisible bound across the tree's schedule cells.
    pub io_vs_bound: f64,
}

/// Accumulates [`Quality`] tree by tree.
#[derive(Debug, Clone, Default)]
pub struct QualityBuilder {
    trees: usize,
    peak_ratios: f64,
    io_trees: usize,
    io_ratios: f64,
}

impl QualityBuilder {
    /// Add one tree: the chosen traversal's peak, the best postorder's, and
    /// the I/O volume and divisible bound summed over the tree's cells.
    pub fn add_tree(&mut self, peak: Size, postorder_peak: Size, io_volume: Size, bound: Size) {
        self.trees += 1;
        self.peak_ratios += peak as f64 / postorder_peak as f64;
        if bound > 0 {
            self.io_trees += 1;
            self.io_ratios += io_volume as f64 / bound as f64;
        }
    }

    /// The means.  An error unless some tree's budget forces I/O: a
    /// workload whose ratio has no denominator measures nothing.
    pub fn finish(&self) -> Result<Quality, String> {
        if self.trees == 0 || self.io_trees == 0 {
            return Err(format!(
                "the workload's budget must force I/O on some tree, got {self:?}"
            ));
        }
        Ok(Quality {
            peak_vs_postorder: self.peak_ratios / self.trees as f64,
            io_vs_bound: self.io_ratios / self.io_trees as f64,
        })
    }
}

/// One traced repetition's per-layer values, keyed by metric name; several
/// calls of one repetition add up.
pub type Rep = BTreeMap<&'static str, f64>;

/// Add `value` to `name` in `rep`.
pub fn add(rep: &mut Rep, name: &'static str, value: f64) {
    *rep.entry(name).or_insert(0.0) += value;
}

/// A workload made of independent cold operations.
pub trait Batch {
    /// Everything set-up builds: generated inputs, servers, references.
    type State;

    /// Generate inputs, start servers and workers, and warm up.
    fn setup(&self, args: &RunArgs) -> Result<Self::State, String>;

    /// Stop what `setup` started.
    fn teardown(&self, _state: Self::State) {}

    /// One cold operation: the program runs under `watch`, its output is
    /// checked off the clock.  `Err` is a failed operation.
    fn op(&self, state: &Self::State, rep: u64, watch: &mut Stopwatch) -> Result<OpFacts, String>;

    /// One traced operation plus its staged replay, recording spans in
    /// `recorder` and per-layer values in `out`.
    fn traced(
        &self,
        state: &Self::State,
        rep: u64,
        recorder: &Recorder,
        out: &mut Rep,
    ) -> Result<(), String>;
}

/// What a successful operation reports.
#[derive(Debug, Clone)]
pub struct OpFacts {
    /// The exact counts of its output.
    pub quality: Quality,
    /// Extra `key=value` detail for the `rep` line.
    pub detail: String,
}

/// Run `setup` [`SETUP_REPS`] times, tearing down all but the last state;
/// returns that state and the median set-up seconds.
pub fn repeated_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
    reps: usize,
) -> Result<(S, f64), String> {
    let mut seconds = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        if let Some(previous) = state.take() {
            teardown(previous);
        }
        let start = Instant::now();
        state = Some(setup()?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    let state = state.ok_or("at least one set-up expected")?;
    Ok((state, perfprof::summarize_seconds(&seconds).median_seconds))
}

/// Drive a batch workload through one run.
pub fn run_batch<B: Batch>(workload: &B, args: &RunArgs) -> Result<Outcome, String> {
    let setup_reps = if args.smoke { 1 } else { SETUP_REPS };
    let (state, setup_s) = repeated_setup(
        || workload.setup(args),
        |state| workload.teardown(state),
        setup_reps,
    )?;
    let result = if args.trace {
        traced_loop(workload, &state, args)
    } else {
        timed_loop(workload, &state, args, setup_s)
    };
    workload.teardown(state);
    result
}

fn window_open(started: Instant, reps: u64, args: &RunArgs) -> bool {
    if args.smoke {
        return reps < 1;
    }
    reps < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds
}

fn timed_loop<B: Batch>(
    workload: &B,
    state: &B::State,
    args: &RunArgs,
    setup_s: f64,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut walls = Vec::new();
    let mut quality: Option<Quality> = None;
    let started = Instant::now();
    while window_open(started, outcome.attempted, args) {
        let rep = outcome.attempted;
        outcome.attempted += 1;
        let mut watch = Stopwatch::default();
        match workload.op(state, rep, &mut watch) {
            Ok(facts) => {
                walls.push(watch.seconds());
                outcome.lines.push(format!(
                    "rep {rep} wall_s={:.6} {}",
                    watch.seconds(),
                    facts.detail
                ));
                match quality {
                    None => quality = Some(facts.quality),
                    Some(first) if first != facts.quality => outcome.fail(format!(
                        "rep {rep}: exact counts {:?} differ from rep 0's {first:?}",
                        facts.quality
                    )),
                    Some(_) => {}
                }
            }
            Err(message) => outcome.fail(format!("rep {rep}: {message}")),
        }
    }
    let quality = quality.ok_or_else(|| {
        format!(
            "no operation of {} succeeded: {}",
            args.workload,
            outcome.failures.join("; ")
        )
    })?;
    let summary = perfprof::summarize_seconds(&walls);
    outcome.lines.push(format!(
        "ops n={} median_s={:.6} min_s={:.6} max_s={:.6}",
        summary.runs, summary.median_seconds, summary.min_seconds, summary.max_seconds
    ));
    outcome.metrics = end_to_end_metrics(setup_s, Timing::of_batch(&walls), quality)?;
    Ok(outcome)
}

/// The three timing metrics of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// `wall_s`: seconds of one operation.
    pub wall_s: f64,
    /// `latency_tail_ms`: the tail of the operation latencies.
    pub tail_ms: f64,
    /// `throughput_rps`: operations per second.
    pub throughput_rps: f64,
}

impl Timing {
    /// A batch workload has one timing: the wall of one cold operation.  It
    /// is estimated by the mean of the fastest quarter of the run's
    /// operations, because on a shared host noise only ever adds time: over
    /// ten runs of this container the medians spread 7–14 % and the
    /// fastest-quarter means 3–5 %.  With one operation in flight and a
    /// dozen samples, the tail and the throughput are the same estimate in
    /// other units (no percentile above the median has ten samples beyond
    /// it).
    pub fn of_batch(walls: &[f64]) -> Timing {
        let mut sorted = walls.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("walls are finite"));
        let fastest = &sorted[..sorted.len().div_ceil(4)];
        let wall_s = fastest.iter().sum::<f64>() / fastest.len() as f64;
        Timing {
            wall_s,
            tail_ms: wall_s * 1e3,
            throughput_rps: 1.0 / wall_s,
        }
    }
}

/// Assemble the end-to-end metrics, catalogue order.
pub fn end_to_end_metrics(
    setup_s: f64,
    timing: Timing,
    quality: Quality,
) -> Result<Vec<(&'static str, f64)>, String> {
    let values = [
        setup_s,
        timing.wall_s,
        timing.tail_ms,
        timing.throughput_rps,
        peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?,
        quality.peak_vs_postorder,
        quality.io_vs_bound,
    ];
    Ok(END_TO_END.iter().map(|def| def.name).zip(values).collect())
}

fn traced_loop<B: Batch>(
    workload: &B,
    state: &B::State,
    args: &RunArgs,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let recorder = Recorder::new();
    let mut samples = Samples::default();
    let mut untraced = Vec::new();
    let started = Instant::now();
    while window_open(started, outcome.attempted, args) {
        let rep = outcome.attempted;
        outcome.attempted += 1;
        let mut watch = Stopwatch::default();
        if let Err(message) = workload.op(state, rep, &mut watch) {
            outcome.fail(format!("rep {rep}: {message}"));
            continue;
        }
        untraced.push(watch.seconds());
        let mut values = Rep::new();
        match workload.traced(state, rep, &recorder, &mut values) {
            Ok(()) => samples.push_rep(values),
            Err(message) => outcome.fail(format!("traced rep {rep}: {message}")),
        }
    }
    let spans = recorder.snapshot();
    write_trace(args, &trace_json(&args.workload, args.seed, &spans))?;
    if let (Some(traced), false) = (samples.median("harness.traced_op_s"), untraced.is_empty()) {
        let plain = perfprof::summarize_seconds(&untraced).median_seconds;
        samples.push("harness.trace_overhead_frac", traced / plain - 1.0);
    }
    samples.push(
        "harness.traced_ops",
        samples.get("harness.traced_op_s").len() as f64,
    );
    outcome.metrics = per_layer_metrics(&samples);
    Ok(outcome)
}

/// Every per-layer metric, catalogue order; layers not entered report 0.
pub fn per_layer_metrics(samples: &Samples) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|def| (def.name, samples.median(def.name).unwrap_or(0.0)))
        .collect()
}

/// Write the trace document to `<out>/<workload>.trace.json`.
pub fn write_trace(args: &RunArgs, document: &str) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join(format!("{}.trace.json", args.workload));
    std::fs::write(&path, document).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
