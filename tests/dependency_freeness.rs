//! The workspace is dependency-free by design: it builds in an offline
//! container, every algorithmic substitute (`prng` for `rand`, scoped
//! threads for `crossbeam`) lives in-tree, and nothing may quietly change
//! that.  This
//! test pins the invariant by parsing `Cargo.lock`: every `[[package]]`
//! entry must be a workspace member.  The CI `dependency-freeness` job
//! enforces the same rule without a toolchain, so a violation fails both in
//! seconds on CI and locally under tier-1.

use std::collections::BTreeSet;
use std::path::Path;

/// Every crate of the workspace, plus the root package.
const WORKSPACE_PACKAGES: [&str; 13] = [
    "bench",
    "distrib",
    "engine",
    "minio",
    "multifrontal",
    "ordering",
    "perfprof",
    "prng",
    "server",
    "sparsemat",
    "symbolic",
    "treemem",
    "treemem-repro",
];

fn locked_package_names() -> BTreeSet<String> {
    let lock_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.lock");
    let contents = std::fs::read_to_string(&lock_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", lock_path.display()));
    contents
        .lines()
        .filter_map(|line| line.strip_prefix("name = \""))
        .filter_map(|rest| rest.strip_suffix('"'))
        .map(str::to_string)
        .collect()
}

#[test]
fn cargo_lock_contains_only_workspace_packages() {
    let locked = locked_package_names();
    let expected: BTreeSet<String> = WORKSPACE_PACKAGES.iter().map(|s| s.to_string()).collect();
    let foreign: Vec<&String> = locked.difference(&expected).collect();
    assert!(
        foreign.is_empty(),
        "Cargo.lock lists non-workspace packages {foreign:?}; the workspace is \
         dependency-free by design — implement or stub the functionality in-tree \
         instead of adding a dependency"
    );
    let missing: Vec<&String> = expected.difference(&locked).collect();
    assert!(
        missing.is_empty(),
        "workspace members {missing:?} are missing from Cargo.lock; \
         regenerate the lockfile and update WORKSPACE_PACKAGES if a crate was \
         added or renamed (and update the CI dependency-freeness job's list)"
    );
}

#[test]
fn locked_packages_declare_no_external_dependencies() {
    // A second, stricter angle: every `dependencies = [...]` entry of the
    // lockfile must itself name a workspace package.
    let lock_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.lock");
    let contents = std::fs::read_to_string(lock_path).expect("Cargo.lock is readable");
    let expected: BTreeSet<&str> = WORKSPACE_PACKAGES.into_iter().collect();
    for line in contents.lines() {
        let trimmed = line.trim();
        // Dependency list entries look like ` "name",` (no version suffix
        // for in-workspace path dependencies).
        let Some(name) = trimmed
            .strip_prefix('"')
            .and_then(|rest| rest.strip_suffix("\",").or_else(|| rest.strip_suffix('"')))
        else {
            continue;
        };
        // External dependencies are recorded as "name version"; workspace
        // path dependencies as just "name".
        let package = name.split(' ').next().unwrap_or(name);
        assert!(
            expected.contains(package),
            "Cargo.lock records a dependency on {name:?}, which is not a \
             workspace package"
        );
    }
}
