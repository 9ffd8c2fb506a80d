//! Report output: every experiment prints its tables to stdout and writes
//! machine-readable files under the results directory.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A report file to be written under the results directory.
#[derive(Debug, Clone)]
pub struct ReportFile {
    /// File name (relative to the results directory).
    pub name: String,
    /// File contents.
    pub contents: String,
}

impl ReportFile {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, contents: impl Into<String>) -> Self {
        ReportFile {
            name: name.into(),
            contents: contents.into(),
        }
    }
}

/// The results directory: `TREEMEM_RESULTS_DIR`, or `results/` relative to
/// the current directory.  A binary reads it once, in `main`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("TREEMEM_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Write the report files under `results/experiment`, creating the
/// directory if needed, and return the paths written.
pub fn write_report(
    results: &Path,
    experiment: &str,
    files: &[ReportFile],
) -> io::Result<Vec<PathBuf>> {
    let directory = results.join(experiment);
    fs::create_dir_all(&directory)?;
    let mut written = Vec::with_capacity(files.len());
    for file in files {
        let path = directory.join(&file.name);
        fs::write(&path, &file.contents)?;
        written.push(path);
    }
    Ok(written)
}

/// The flags every experiment takes: `--quick` (smaller corpus) and
/// `--seed <n>` (seed of the randomized corpora).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentArgs {
    /// Run with the reduced corpus.
    pub quick: bool,
    /// Seed override for randomized corpora.
    pub seed: u64,
}

impl ExperimentArgs {
    /// Parse the flags after the experiment name.  Anything that is not a
    /// known flag, and a `--seed` without an unsigned integer after it, is
    /// an error naming the offending argument.
    pub fn from_slice(args: &[String]) -> Result<Self, String> {
        let mut quick = false;
        let mut seed = 42;
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--seed" => {
                    let value = iter.next().ok_or("--seed needs a value")?;
                    seed = value
                        .parse()
                        .map_err(|_| format!("--seed '{value}' is not an unsigned integer"))?;
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(ExperimentArgs { quick, seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExperimentArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        ExperimentArgs::from_slice(&args)
    }

    #[test]
    fn argument_parsing() {
        let args = parse(&[]).unwrap();
        assert!(!args.quick);
        assert_eq!(args.seed, 42);
        let args = parse(&["--quick", "--seed", "7"]).unwrap();
        assert!(args.quick);
        assert_eq!(args.seed, 7);
        for bad in [
            &["--quik"][..],
            &["--full"],
            &["--seed"],
            &["--seed", "1e3"],
            &["--seed", "-1"],
            &["extra"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn report_files_are_written() {
        let results = std::env::temp_dir().join(format!("treemem-results-{}", std::process::id()));
        let written = write_report(
            &results,
            "selftest",
            &[ReportFile::new("a.csv", "x,y\n1,2\n")],
        )
        .unwrap();
        assert_eq!(written, [results.join("selftest").join("a.csv")]);
        let content = std::fs::read_to_string(&written[0]).unwrap();
        assert!(content.contains("x,y"));
        std::fs::remove_dir_all(&results).ok();
    }
}
