//! End-to-end tests of the `exp` binary: one experiment's output, the whole
//! quick run, and the usage errors.

use std::path::PathBuf;
use std::process::{Command, Output};

use treemem::gadgets::harpoon_tower_postorder_peak;

/// Run `exp` with its results under a per-test temp directory.
fn exp(test: &str, args: &[&str]) -> (Output, PathBuf) {
    let results = std::env::temp_dir().join(format!("exp-{}-{test}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .env("TREEMEM_RESULTS_DIR", &results)
        .output()
        .expect("exp runs");
    (output, results)
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn theorem1_prints_the_closed_form_rows() {
    let (output, results) = exp("theorem1", &["theorem1"]);
    assert!(output.status.success(), "stderr: {}", text(&output.stderr));
    let stdout = text(&output.stdout);
    // Columns: branches, levels, nodes, measured postorder peak, closed form.
    for (branches, levels) in [(2, 1), (4, 3), (8, 2)] {
        let closed = harpoon_tower_postorder_peak(branches, 10_000, 1, levels).to_string();
        let expected = [&branches.to_string(), &levels.to_string(), &closed, &closed];
        let printed = stdout.lines().any(|line| {
            let cells: Vec<&str> = line.split_whitespace().collect();
            cells.len() == 7
                && [cells[0], cells[1], cells[3], cells[4]] == expected.map(String::as_str)
        });
        assert!(
            printed,
            "no row for {branches} branches, {levels} levels:\n{stdout}"
        );
    }
    let csv = std::fs::read_to_string(results.join("exp_theorem1/theorem1_ratios.csv")).unwrap();
    assert!(csv.contains("2,1,7,15001,15001,10002,"), "{csv}");
    std::fs::remove_dir_all(&results).ok();
}

#[test]
fn all_quick_runs_every_experiment() {
    let (output, results) = exp("all", &["all", "--quick"]);
    assert!(output.status.success(), "stderr: {}", text(&output.stderr));
    let written: Vec<String> = std::fs::read_dir(&results)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(written.len(), 8, "{written:?}");
    assert!(results
        .join("exp_minio_sweep/BENCH_minio_sweep.json")
        .exists());
    // The deterministic outputs, pinned: a refactor below `exp` must not
    // move a byte of the paper's tables.  Left out: `runtime`'s microsecond
    // columns and `minio-sweep`'s elapsed/threads fields.  After a
    // deliberate change, replace the literal the failure message prints.
    for (file, fnv1a) in [
        ("exp_ablation/ablation.csv", 0x6e824f3df6659ead),
        ("exp_minio_heuristics/figure7_io.csv", 0x00ac9b30ee5826c5),
        (
            "exp_minio_heuristics/figure7_profile.csv",
            0x3495c4ec8dc63ed0,
        ),
        ("exp_minio_traversals/figure8_io.csv", 0x9fe385ac171e8e6f),
        (
            "exp_minio_traversals/figure8_profile.csv",
            0xa327b2bb7d3f3d99,
        ),
        (
            "exp_minmem_assembly/table1_instances.csv",
            0x2f54da8c4773c688,
        ),
        ("exp_minmem_random/figure9_profile.csv", 0xafdbb08f63badd9f),
        ("exp_minmem_random/table2_instances.csv", 0x1b5157701f1b6720),
        ("exp_theorem1/theorem1_ratios.csv", 0x485b521a67094b32),
    ] {
        let actual = engine::fingerprint64(&std::fs::read_to_string(results.join(file)).unwrap());
        assert_eq!(
            actual, fnv1a,
            "{file} changed; its FNV-1a is now {actual:#018x}"
        );
    }
    std::fs::remove_dir_all(&results).ok();
}

#[test]
fn bad_arguments_exit_2_with_the_usage_line() {
    for args in [
        &["nope"][..],
        &["runtime", "--quik"],
        &["minmem-random", "--seed", "x"],
        &["minmem-random", "--seed"],
        &[],
    ] {
        let (output, results) = exp("usage", args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = text(&output.stderr);
        assert!(stderr.contains("usage: exp <experiment|all>"), "{stderr}");
        assert!(stderr.contains("minmem-assembly, runtime,"), "{stderr}");
        assert!(output.stdout.is_empty() && !results.exists(), "{args:?}");
    }
}
