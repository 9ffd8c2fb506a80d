//! `BENCHMARK.json` and the program's catalogue name the same workloads and
//! metrics, within the contract's limits.

use benchmark::metrics::{END_TO_END, PER_LAYER};
use benchmark::workloads::NAMES;
use engine::json::Json;

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(json: &Json, list: &str) -> Vec<String> {
    json.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("`{list}` is a list"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn the_workloads_and_metrics_are_in_step() {
    let json = benchmark_json();
    assert_eq!(names(&json, "workloads"), NAMES);
    for (list, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = json.get(list).and_then(Json::as_array).unwrap();
        assert_eq!(entries.len(), table.len(), "{list}");
        for (entry, def) in entries.iter().zip(table) {
            let text = |key: &str| entry.get(key).and_then(Json::as_str).unwrap();
            assert_eq!(text("name"), def.name);
            assert_eq!(text("unit"), def.unit, "{}", def.name);
            assert_eq!(text("better"), def.better.as_str(), "{}", def.name);
        }
    }
}

#[test]
fn the_file_is_within_the_contracts_limits() {
    let json = benchmark_json();
    let Json::Obj(fields) = &json else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let seconds = json.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));
    let mut seen = std::collections::BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for name in names(&json, list) {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
    }
    for entry in json.get("workloads").and_then(Json::as_array).unwrap() {
        let why = entry.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    let mut has_setup = false;
    for entry in json.get("end_to_end").and_then(Json::as_array).unwrap() {
        let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
        assert!((0.0..=0.25).contains(&bound));
        has_setup |= entry.get("name").and_then(Json::as_str) == Some("setup_s")
            && entry.get("unit").and_then(Json::as_str) == Some("s")
            && entry.get("better").and_then(Json::as_str) == Some("lower");
    }
    assert!(has_setup);
    for list in ["end_to_end", "per_layer"] {
        for entry in json.get(list).and_then(Json::as_array).unwrap() {
            let unit = entry.get("unit").and_then(Json::as_str).unwrap();
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
