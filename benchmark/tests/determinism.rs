//! Seeds: the same seed replays the same `serve_mixed` request bytes and the
//! same exact-count metrics; another seed does not.

use std::path::PathBuf;

use benchmark::metrics::{find, is_exact};
use benchmark::runner::RunArgs;
use benchmark::workloads::serve::{ServeMixed, CLIENTS};
use benchmark::workloads::trees::TraversalTrees;

fn stream(seed: u64) -> Vec<(String, String)> {
    let workload = ServeMixed::new(true);
    let hot = workload.hot_set(seed);
    (0..CLIENTS)
        .flat_map(|client| (0..1_500).map(move |index| (client, index)))
        .map(|(client, index)| {
            let spec = workload.request_at(seed, &hot, client, index);
            (spec.path.to_string(), spec.body)
        })
        .collect()
}

#[test]
fn the_request_sequence_is_a_function_of_the_seed() {
    let first = stream(42);
    assert_eq!(first, stream(42), "same seed, same bytes");
    assert_ne!(first, stream(43), "another seed, another sequence");
    // The mix is the one the workload documents (40/25/25/10 ± sampling).
    let share =
        |path: &str| first.iter().filter(|(p, _)| p == path).count() as f64 / first.len() as f64;
    assert!((share("/schedule") - 0.40).abs() < 0.04);
    assert!((share("/solve") - 0.25).abs() < 0.04);
    assert!((share("/report") - 0.35).abs() < 0.04);
    // The two clients do not replay each other.
    assert_ne!(first[..1_500], first[1_500..]);
}

#[test]
fn the_trees_are_a_function_of_the_seed() {
    let workload = TraversalTrees::new(true);
    assert_eq!(workload.trees(42), workload.trees(42));
    assert_ne!(workload.trees(42), workload.trees(43));
    let names: Vec<&str> = workload.trees(42).iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names[..4],
        [
            "harpoon_tower",
            "nested_dissection_etree",
            "comb",
            "reweight_paper"
        ]
    );
    assert_eq!(names.len(), 3 + 24);
}

fn exact_counts(workload: &str, seed: u64) -> Vec<(&'static str, f64)> {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("determinism");
    let outcome = benchmark::workloads::run(&RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: 1.0,
        trace: false,
        smoke: true,
        out_dir,
    })
    .expect("the smoke run succeeds");
    assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
    outcome
        .metrics
        .into_iter()
        .filter(|(name, _)| find(name).is_some_and(is_exact))
        .collect()
}

#[test]
fn exact_counts_repeat_for_a_seed_and_move_with_it() {
    for workload in ["traversal_trees", "serve_mixed"] {
        let first = exact_counts(workload, 42);
        assert_eq!(first.len(), 2, "{workload}");
        assert_eq!(first, exact_counts(workload, 42), "{workload}");
        assert_ne!(first, exact_counts(workload, 43), "{workload}");
    }
}
