//! Span self-time arithmetic: nested, overlapping and sibling spans.

use benchmark::spans::{covered_frac, layer_self_seconds, self_ns, Recorder, Span};

fn span(id: usize, parent: Option<usize>, layer: &'static str, start: u64, end: u64) -> Span {
    Span {
        id,
        parent,
        op: 0,
        layer,
        name: "call",
        start_ns: start,
        end_ns: end,
    }
}

#[test]
fn nested_spans_subtract_only_their_direct_children() {
    // root [0, 100] ⊃ engine [10, 90] ⊃ ordering [20, 60].
    let spans = [
        span(0, None, "harness", 0, 100),
        span(1, Some(0), "engine", 10, 90),
        span(2, Some(1), "ordering", 20, 60),
    ];
    assert_eq!(self_ns(&spans), vec![20, 40, 40]);
    assert!((covered_frac(&spans, 0) - 0.8).abs() < 1e-12);
}

#[test]
fn sibling_spans_add_up() {
    // Two disjoint children: [10, 30] and [50, 80].
    let spans = [
        span(0, None, "harness", 0, 100),
        span(1, Some(0), "treemem", 10, 30),
        span(2, Some(0), "minio", 50, 80),
    ];
    assert_eq!(self_ns(&spans), vec![50, 20, 30]);
    let layers = layer_self_seconds(&spans);
    assert!((layers["harness"] - 50e-9).abs() < 1e-18);
    assert!((layers["treemem"] - 20e-9).abs() < 1e-18);
    assert!((layers["minio"] - 30e-9).abs() < 1e-18);
}

#[test]
fn overlapping_children_are_counted_once() {
    // Concurrent posts of two workers: [10, 60] and [40, 90] cover [10, 90].
    let spans = [
        span(0, None, "harness", 0, 100),
        span(1, Some(0), "distrib", 10, 60),
        span(2, Some(0), "distrib", 40, 90),
        // A child fully inside another adds nothing.
        span(3, Some(0), "distrib", 20, 30),
    ];
    assert_eq!(self_ns(&spans)[0], 20);
}

#[test]
fn a_child_outliving_its_parent_subtracts_only_the_shared_part() {
    let spans = [
        span(0, None, "harness", 0, 100),
        span(1, Some(0), "server", 80, 150),
        span(2, Some(0), "server", 0, 0),
    ];
    assert_eq!(self_ns(&spans)[0], 80);
    // An empty root attributes nothing rather than dividing by zero.
    assert_eq!(covered_frac(&spans, 2), 0.0);
}

#[test]
fn the_recorder_nests_what_it_times() {
    let recorder = Recorder::new();
    let root = recorder.open(None, 7, "harness", "op");
    let (value, seconds) = recorder.time(Some(root), 7, "engine", "plan", || 41 + 1);
    recorder.close(root);
    assert_eq!(value, 42);
    let spans = recorder.snapshot();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(root));
    assert_eq!(spans[1].op, 7);
    assert!((spans[1].seconds() - seconds).abs() < 1e-12);
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
}
