//! Tier-1 guard of the workspace's invariants.
//!
//! The invariants clippy checks are enforced by CI's `lint` job, not here;
//! this test fails if their setup is deleted — a missing attribute or
//! config line would otherwise turn a lint off silently.  Four invariants
//! no lint can see are line scans: JSON is rendered only by
//! `engine::json::Writer` (the crates' non-test sources), no source file
//! outgrows 1 000 non-test lines, the `serve` binary parses, prints and
//! documents one set of flags, and the docs' backticked references name
//! files and items that still exist.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    fs::read_to_string(workspace_root().join(path))
        .unwrap_or_else(|err| panic!("cannot read {path}: {err}"))
}

/// The lints that keep panics out of the serving path.
const REQUEST_PATH_LINTS: [&str; 7] = [
    "clippy::expect_used",
    "clippy::indexing_slicing",
    "clippy::panic",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::unreachable",
    "clippy::unwrap_used",
];

/// Every lint named by a `#![deny(..)]` of `source`, sorted.
fn denied_lints(source: &str) -> Vec<String> {
    let mut lints: Vec<String> = source
        .split("#![deny(")
        .skip(1)
        .filter_map(|rest| rest.split_once(")]"))
        .flat_map(|(list, _)| list.split(','))
        .map(|lint| lint.trim().to_string())
        .filter(|lint| !lint.is_empty())
        .collect();
    lints.sort();
    lints
}

#[test]
fn every_package_forbids_unsafe_code() {
    let root = read("Cargo.toml");
    assert!(root.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""));
    let (_, members) = root.split_once("members = [").expect("a members list");
    let (members, _) = members.split_once(']').expect("a closed members list");
    let members = members.split(',').map(|m| m.trim().trim_matches('"'));
    for member in members.filter(|m| !m.is_empty()).chain(["."]) {
        let manifest = read(&format!("{member}/Cargo.toml"));
        assert!(manifest.contains("[lints]\nworkspace = true"), "{member}");
    }
}

#[test]
fn the_lint_attributes_and_clippy_configs_are_in_place() {
    for root in [
        "crates/server/src/lib.rs",
        "crates/server/src/bin/serve.rs",
        "crates/distrib/src/lib.rs",
    ] {
        assert_eq!(denied_lints(&read(root)), REQUEST_PATH_LINTS, "{root}");
    }
    for module in ["crates/distrib/src/wire.rs", "crates/engine/src/json.rs"] {
        let lints = denied_lints(&read(module));
        assert!(
            lints.iter().any(|l| l == "clippy::as_conversions"),
            "{module}"
        );
    }
    let system_time = "path = \"std::time::SystemTime\"";
    assert!(read("clippy.toml").contains(system_time));
    let distrib = read("crates/distrib/clippy.toml");
    assert!(distrib.contains(system_time));
    assert!(distrib.contains("path = \"std::time::Instant::now\""));
}

/// Whether `line` holds an escaped-quote JSON key — letters, digits,
/// `_.-` and format braces — followed by a colon (`\"key\":`), the shape of
/// a hand-rolled renderer.
fn renders_a_json_key(line: &str) -> bool {
    let quote = "\\\"";
    line.match_indices(quote).any(|(at, _)| {
        let key = &line[at + quote.len()..];
        let end = key
            .find(|c: char| !(c.is_ascii_alphanumeric() || "_.{}-".contains(c)))
            .unwrap_or(key.len());
        key[end..]
            .strip_prefix(quote)
            .is_some_and(|rest| rest.trim_start_matches(' ').starts_with(':'))
    })
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The lines of `source` before its `#[cfg(test)] mod tests`: the test
/// module is skipped, since clippy's default `items_after_test_module` keeps
/// it last.
fn non_test_lines(source: &str) -> Vec<&str> {
    let lines: Vec<&str> = source.lines().collect();
    let end = lines
        .windows(2)
        .position(|pair| {
            pair[0].trim_start() == "#[cfg(test)]" && pair[1].trim_start().starts_with("mod tests")
        })
        .unwrap_or(lines.len());
    lines[..end].to_vec()
}

/// Every `.rs` file under each crate's `src`.
fn crate_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in fs::read_dir(workspace_root().join("crates")).expect("a crates directory") {
        let src = krate.expect("readable directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files
}

/// `engine::json` owns separators, escaping, `null` floats and the one
/// layout byte-stable documents depend on, so no other non-test source may
/// hold a JSON key in a string literal.
#[test]
fn json_is_rendered_only_by_the_writer() {
    // The matcher must still see what it looks for.
    assert!(renders_a_json_key(r#"format!("{{\"count\": {count}}}")"#));
    assert!(renders_a_json_key(r#"format!("{{\"{name}\" : 1}}")"#));
    assert!(!renders_a_json_key(r#"writer.field("count", count)"#));
    assert!(!renders_a_json_key(
        r#""a \"config_hash\" string: see /solve""#
    ));

    let mut files = crate_sources();
    files.retain(|path| !path.ends_with("engine/src/json.rs"));
    assert!(files.len() > 50, "found only {} sources", files.len());
    let mut hits = Vec::new();
    for path in files {
        let source = fs::read_to_string(&path).expect("readable source");
        for (index, line) in non_test_lines(&source).into_iter().enumerate() {
            if !line.trim_start().starts_with("//") && renders_a_json_key(line) {
                let path = path.strip_prefix(workspace_root()).unwrap_or(&path);
                hits.push(format!("{}:{}: {}", path.display(), index + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "JSON keys outside engine::json (render them with json::Writer):\n{}",
        hits.join("\n")
    );
}

/// Largest non-test line count of one source file.
const MAX_NON_TEST_LINES: usize = 1_000;

/// No `.rs` file under `crates/*/src`, `src` or `examples` holds more than
/// [`MAX_NON_TEST_LINES`] lines before its test module: a file that large
/// holds more than one layer (`engine/src/run.rs` had 1 585 before it was
/// split into `engine/src/run/`).
#[test]
fn no_source_file_exceeds_the_non_test_line_bound() {
    let mut files = crate_sources();
    for dir in ["src", "examples"] {
        rust_files(&workspace_root().join(dir), &mut files);
    }
    assert!(files.len() > 50, "found only {} sources", files.len());
    let mut long: Vec<String> = files
        .iter()
        .filter_map(|path| {
            let source = fs::read_to_string(path).expect("readable source");
            let count = non_test_lines(&source).len();
            let path = path.strip_prefix(workspace_root()).unwrap_or(path);
            (count > MAX_NON_TEST_LINES)
                .then(|| format!("{}: {count} non-test lines", path.display()))
        })
        .collect();
    long.sort();
    assert!(
        long.is_empty(),
        "source files over {MAX_NON_TEST_LINES} non-test lines (split them by layer):\n{}",
        long.join("\n")
    );
}

/// The `--flag` names in `text`, sorted.
fn flag_names(text: &str) -> BTreeSet<String> {
    text.match_indices("--")
        .map(|(at, _)| {
            let name = &text[at + 2..];
            let end = name
                .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .unwrap_or(name.len());
            name[..end].to_string()
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// The three flag lists of the `serve` binary's `source`: the parser's
/// `"--flag" =>` arms, the `usage()` text, and the module doc's `text`
/// synopsis.
fn serve_flag_lists(source: &str) -> [BTreeSet<String>; 3] {
    let arms = source
        .lines()
        .map(str::trim_start)
        .filter(|line| line.starts_with("\"--"))
        .filter_map(|line| line.split_once("\" =>").map(|(flag, _)| flag))
        .flat_map(flag_names)
        .collect();
    let usage = source
        .split_once("fn usage()")
        .and_then(|(_, rest)| rest.split_once("process::exit"))
        .map(|(text, _)| flag_names(text))
        .unwrap_or_default();
    let synopsis = source
        .split_once("//! ```text")
        .and_then(|(_, rest)| rest.split_once("//! ```"))
        .map(|(text, _)| flag_names(text))
        .unwrap_or_default();
    [arms, usage, synopsis]
}

/// `serve`'s flags are listed three times by hand — parsed, printed by
/// `usage()` and documented in the module synopsis — so a flag added to or
/// dropped from one list must be added to or dropped from the others.
#[test]
fn serve_parses_prints_and_documents_the_same_flags() {
    // The matcher must still see a list that lost a flag.
    let snippet = "//! ```text\n//! serve [--addr A] [--max-body-bytes N]\n//! ```\n\
        fn usage() -> ! {\n    eprintln!(\"usage: serve [--addr A]\");\n    \
        std::process::exit(2);\n}\n\
        \"--addr\" => addr = next(),\n\"--max-body-bytes\" => {}\n";
    let [arms, usage, synopsis] = serve_flag_lists(snippet);
    assert_eq!(arms, flag_names("--addr --max-body-bytes"));
    assert_eq!(synopsis, arms);
    assert_eq!(usage, flag_names("--addr"));

    let [arms, usage, synopsis] = serve_flag_lists(&read("crates/server/src/bin/serve.rs"));
    assert!(arms.len() >= 5, "found only {arms:?}");
    assert_eq!(usage, arms, "usage() and the parser disagree");
    assert_eq!(
        synopsis, arms,
        "the module synopsis and the parser disagree"
    );
}

/// What the workspace's sources define — every name after an item keyword
/// and every leading identifier of a variant or field line — and the names
/// they take from `std` / `core`.
struct Definitions {
    names: HashSet<String>,
    external: HashSet<String>,
    /// Every source path, relative to the root with `/` separators.
    files: Vec<String>,
    /// The `name` of every workspace package.
    packages: HashSet<String>,
}

/// The identifier tokens of `text`, in order.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|token| token.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

impl Definitions {
    fn scan() -> Self {
        const ITEMS: &str = "fn struct enum trait type const static mod union macro_rules";
        let mut paths = Vec::new();
        for dir in ["crates", "src", "tests", "examples"] {
            rust_files(&workspace_root().join(dir), &mut paths);
        }
        let mut names = HashSet::new();
        let mut external = HashSet::new();
        let mut files = Vec::new();
        for path in paths {
            let source = fs::read_to_string(&path).expect("readable source");
            for line in source.lines() {
                let tokens: Vec<&str> = identifiers(line).collect();
                for pair in tokens.windows(2) {
                    if ITEMS.split(' ').any(|item| item == pair[0]) {
                        names.insert(pair[1].to_string());
                    }
                }
                // A variant (`Cancelled {`, `FirstFit,`) or a field (`pub bytes: u64`).
                let item = line.trim_start();
                let item = item.strip_prefix("pub(crate) ").unwrap_or(item);
                let item = item.strip_prefix("pub ").unwrap_or(item);
                if let Some(first) = identifiers(item).next() {
                    let rest = item.strip_prefix(first).map(str::trim_start);
                    if rest.is_some_and(|rest| rest.starts_with([',', '(', '{', ':', '='])) {
                        names.insert(first.to_string());
                    }
                }
                for (at, _) in line.match_indices("std::") {
                    let chain = &line[at..];
                    let end = chain
                        .find(|c: char| !(c.is_ascii_alphanumeric() || "_:".contains(c)))
                        .unwrap_or(chain.len());
                    external.extend(identifiers(&chain[..end]).map(str::to_string));
                }
            }
            for statement in source.split(';') {
                if let Some(at) = statement.find("use std::").or(statement.find("use core::")) {
                    external.extend(identifiers(&statement[at..]).map(str::to_string));
                }
            }
            let relative = path.strip_prefix(workspace_root()).unwrap_or(&path);
            files.push(relative.to_string_lossy().replace('\\', "/"));
        }
        let crates = fs::read_dir(workspace_root().join("crates")).expect("a crates directory");
        let packages = crates
            .map(|entry| entry.expect("readable directory entry").path())
            .chain([workspace_root().to_path_buf()])
            .filter_map(|dir| {
                let manifest = fs::read_to_string(dir.join("Cargo.toml")).ok()?;
                let name = manifest
                    .lines()
                    .find_map(|line| line.strip_prefix("name = "))?;
                Some(name.trim_matches('"').to_string())
            })
            .collect();
        Definitions {
            names,
            external,
            files,
            packages,
        }
    }

    /// Why `name` after the cargo flag `flag` (`--bin`, `--example`, `-p`)
    /// names no target, if it does not: a bin is a `src/bin` file or
    /// directory, an example one under `examples`, a package a workspace
    /// package's `name`.
    fn dead_target(&self, flag: &str, name: &str) -> Option<String> {
        let file = |dir: &str| {
            let (file_tail, dir_part) = (format!("{dir}/{name}.rs"), format!("{dir}/{name}/"));
            self.files
                .iter()
                .any(|file| file.ends_with(&file_tail) || file.contains(&dir_part))
        };
        let live = match flag {
            "--bin" => file("src/bin"),
            "--example" => file("examples"),
            _ => self.packages.contains(name),
        };
        (!live).then(|| format!("no {flag} target named `{name}`"))
    }

    /// Why the backticked `span` names nothing in the workspace, if it is a
    /// reference it can check: a `*.rs` path that matches no file (from the
    /// root or as the tail of a source path), or a `crate::…` / `Type::item`
    /// path whose capitalised or last segment is defined nowhere.  Paths into
    /// `std`, `core` and `clippy` are skipped, and so is `Type::item` of a
    /// type the sources take from `std` (`Instant::now`).
    fn dead(&self, span: &str) -> Option<String> {
        if span.contains(char::is_whitespace) {
            return None;
        }
        if span.ends_with(".rs") {
            let tail = format!("/{span}");
            let live = workspace_root().join(span).is_file()
                || self.files.iter().any(|file| file.ends_with(&tail));
            return (!live).then(|| "no such file".to_string());
        }
        let end = span
            .find(|c: char| !(c.is_ascii_alphanumeric() || "_:".contains(c)))
            .unwrap_or(span.len());
        let path = span[..end].trim_end_matches(':');
        let segments: Vec<&str> = path.split("::").collect();
        if segments.len() < 2
            || segments.iter().any(|s| identifiers(s).next() != Some(*s))
            || ["std", "core", "clippy"].contains(&segments[0])
        {
            return None;
        }
        let capitalised = |s: &str| s.starts_with(|c: char| c.is_ascii_uppercase());
        if segments
            .iter()
            .any(|s| capitalised(s) && self.external.contains(*s))
        {
            return None;
        }
        let last = segments.len() - 1;
        segments
            .iter()
            .enumerate()
            .find(|&(at, s)| (at == last || capitalised(s)) && !self.names.contains(*s))
            .map(|(_, s)| format!("`{s}` is defined nowhere"))
    }
}

/// The numbers of `ROADMAP.md`'s item headings: the lines `N. **…` of its
/// "Open items" section, before its suggested order.
fn roadmap_items() -> BTreeSet<usize> {
    let roadmap = read("ROADMAP.md");
    let open = roadmap
        .lines()
        .skip_while(|line| *line != "## Open items")
        .skip(1)
        .take_while(|line| !line.starts_with("## ") && !line.starts_with("**Suggested order"));
    open.filter_map(|line| line.split_once(". **")?.0.parse().ok())
        .collect()
}

/// README.md and the verify skill name files and items in backticks; each
/// `*.rs` path, `crate::…` path and `Type::item` must still exist, so a
/// rename or deletion cannot leave the docs pointing at nothing.  Their
/// commands, fenced blocks included, name cargo targets: each `--bin`,
/// `--example` and `-p` must name a live one.  Each "ROADMAP item N" must
/// name a numbered item heading of `ROADMAP.md`'s open items.
/// `ROADMAP.md` is out of scope: it names deleted items on purpose.
#[test]
fn doc_references_name_live_files_and_items() {
    let defs = Definitions::scan();
    // The matcher must still tell a live reference from a dead one, in each
    // form, and skip the external paths.
    for (span, dead) in [
        ("tests/conformance.rs", false),
        ("numeric/naive.rs", false),
        ("crates/bench/src/traces.rs", true),
        ("treemem::faultinject::FaultPoint", false),
        ("treemem::faultinject::POINTS", true),
        ("FaultPoint::ALL", false),
        ("EvictionPrompt::deficit_bytes", true),
        ("EvictionContext::distance_to_use", true),
        ("CacheCore::run_eviction_round", true),
        ("std::sync::mpsc::no_such_fn", false),
        ("PoisonError::no_such_fn", false),
    ] {
        assert_eq!(defs.dead(span).is_some(), dead, "`{span}`");
    }
    for (flag, name, dead) in [
        ("--bin", "loadgen", true),
        ("--bin", "serve", false),
        ("--example", "out_of_core", false),
        ("-p", "bench", false),
        ("-p", "conformance", true),
    ] {
        assert_eq!(defs.dead_target(flag, name).is_some(), dead, "{flag}");
    }
    let items = roadmap_items();
    assert!(!items.is_empty(), "no numbered item heading in ROADMAP.md");

    let mut dead = Vec::new();
    for doc in ["README.md", ".claude/skills/verify/SKILL.md"] {
        let mut fenced = false;
        // The target flag of the word before, which may end the line before.
        let mut flag: Option<&str> = None;
        // The two words before, which may end the line before.
        let mut before = ["", ""];
        for (index, line) in read(doc).lines().enumerate() {
            for word in line.split_whitespace() {
                let word =
                    word.trim_matches(|c: char| !(c.is_ascii_alphanumeric() || "_-".contains(c)));
                if let Some(why) = flag.and_then(|flag| defs.dead_target(flag, word)) {
                    dead.push(format!("{doc}:{}: {why}", index + 1));
                }
                flag = ["--bin", "--example", "-p"]
                    .into_iter()
                    .find(|f| *f == word);
                if let (["ROADMAP", "item"], Ok(item)) = (before, word.parse::<usize>()) {
                    if !items.contains(&item) {
                        dead.push(format!("{doc}:{}: ROADMAP has no item {item}", index + 1));
                    }
                }
                before = [before[1], word];
            }
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
            }
            if fenced {
                continue;
            }
            for span in line.split('`').skip(1).step_by(2) {
                if let Some(why) = defs.dead(span) {
                    dead.push(format!("{doc}:{}: `{span}`: {why}", index + 1));
                }
            }
        }
    }
    assert!(
        dead.is_empty(),
        "dead references in the docs:\n{}",
        dead.join("\n")
    );
}
