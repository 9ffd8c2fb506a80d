//! `exp` — the experiments of the source paper, one subcommand each.
//!
//! `exp <name> [--quick] [--seed N]` regenerates one artifact (see the crate
//! documentation for the mapping to the paper's tables and figures) and
//! `exp all` runs the eight in sequence.  Tables go to stdout; CSV/JSON
//! files go to `results/exp_<name>/` (`TREEMEM_RESULTS_DIR` moves
//! `results/`).  `--quick` uses the reduced corpus.  The arguments are
//! parsed once; the corpora, the solver measurements of each corpus and the
//! MinIO sweep grid are each computed at most once per process, on first
//! use; and everything runs on one big-stack thread, so a failed assertion
//! in any experiment fails the process.

mod ablation;
mod minio_heuristics;
mod minio_sweep;
mod minio_traversals;
mod minmem_assembly;
mod minmem_random;
mod runtime;
mod theorem1;

use std::path::PathBuf;
use std::sync::OnceLock;

use bench::{
    default_corpus, measure_corpus, quick_corpus, random_corpus, run_sweep, run_with_big_stack,
    write_report, Corpus, ExperimentArgs, MeasurementSet, ReportFile, SweepReport,
};

/// An experiment's subcommand name and entry point.
type Experiment = (&'static str, fn(&Context));

/// Every experiment, in `exp all` order.
const EXPERIMENTS: [Experiment; 8] = [
    ("minmem-assembly", minmem_assembly::run),
    ("runtime", runtime::run),
    ("minio-heuristics", minio_heuristics::run),
    ("minio-traversals", minio_traversals::run),
    ("minmem-random", minmem_random::run),
    ("theorem1", theorem1::run),
    ("ablation", ablation::run),
    ("minio-sweep", minio_sweep::run),
];

/// What an experiment runs against: the parsed flags, the results directory
/// and the shared computations, each made on first use and reused by every
/// experiment of an `exp all` run, so that a subcommand run alone writes the
/// same bytes.
struct Context {
    args: ExperimentArgs,
    results: PathBuf,
    corpus: OnceLock<Corpus>,
    measurements: OnceLock<Vec<MeasurementSet>>,
    out_of_core: OnceLock<Corpus>,
    out_of_core_measurements: OnceLock<Vec<MeasurementSet>>,
    sweep: OnceLock<SweepReport>,
}

impl Context {
    /// The assembly-tree corpus (quick or full).
    fn corpus(&self) -> &Corpus {
        self.corpus.get_or_init(|| {
            if self.args.quick {
                quick_corpus()
            } else {
                default_corpus()
            }
        })
    }

    /// [`MeasurementSet::measure`] of every tree of [`Context::corpus`], in
    /// corpus order: Table I's peaks and Figure 6's times.
    fn measurements(&self) -> &[MeasurementSet] {
        self.measurements.get_or_init(|| {
            let corpus = self.corpus();
            corpus
                .trees
                .iter()
                .map(|entry| MeasurementSet::measure(&entry.tree))
                .collect()
        })
    }

    /// The corpus of the out-of-core experiments: the assembly corpus plus
    /// one random re-weighting of every tree.  On many synthetic assembly
    /// trees the optimal peak coincides with the largest single-node
    /// requirement, so no budget of the memory sweep requires any I/O (the
    /// profiles would be a tie at zero); the re-weighted variants restore
    /// the out-of-core regime.
    fn out_of_core_corpus(&self) -> &Corpus {
        self.out_of_core.get_or_init(|| {
            let assembly = self.corpus();
            let mut corpus = random_corpus(assembly, 1, self.args.seed);
            corpus.trees.extend(assembly.trees.iter().cloned());
            corpus
        })
    }

    /// [`measure_corpus`] of [`Context::out_of_core_corpus`]: the traversals
    /// the sweep simulates, and Table II's measurements of its re-weighted
    /// trees.
    fn out_of_core_measurements(&self) -> &[MeasurementSet] {
        self.out_of_core_measurements
            .get_or_init(|| measure_corpus(self.out_of_core_corpus()))
    }

    /// The MinIO sweep grid of [`Context::out_of_core_corpus`], from which
    /// Figures 7 and 8 and `minio-sweep` render.
    fn sweep(&self) -> &SweepReport {
        self.sweep
            .get_or_init(|| run_sweep(self.out_of_core_corpus(), self.out_of_core_measurements()))
    }

    /// Write an experiment's files under the results directory.  An
    /// experiment whose output cannot be written has failed.
    fn write_report(&self, experiment: &str, files: &[ReportFile]) {
        match write_report(&self.results, experiment, files) {
            Ok(paths) => println!(
                "Wrote {} report file(s) under {}/",
                paths.len(),
                self.results.join(experiment).display()
            ),
            Err(err) => {
                eprintln!("exp: could not write report files: {err}");
                std::process::exit(1);
            }
        }
    }
}

fn usage(message: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!("exp: {message}");
    eprintln!("usage: exp <experiment|all> [--quick] [--seed N]");
    eprintln!("experiments: {}", names.join(", "));
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, flags)) = argv.split_first() else {
        usage("no experiment named");
    };
    let selected: Vec<Experiment> = EXPERIMENTS
        .into_iter()
        .filter(|(experiment, _)| name == "all" || name == experiment)
        .collect();
    if selected.is_empty() {
        usage(&format!("unknown experiment '{name}'"));
    }
    let args = ExperimentArgs::from_slice(flags).unwrap_or_else(|message| usage(&message));
    let context = Context {
        args,
        results: bench::report::results_dir(),
        corpus: OnceLock::new(),
        measurements: OnceLock::new(),
        out_of_core: OnceLock::new(),
        out_of_core_measurements: OnceLock::new(),
        sweep: OnceLock::new(),
    };
    let banners = selected.len() > 1;
    run_with_big_stack(move || {
        for (experiment, run) in selected {
            if banners {
                println!("\n================================================================");
                println!("== {experiment}");
                println!("================================================================");
            }
            run(&context);
        }
        if banners {
            println!("\nAll experiments completed successfully.");
        }
    });
}
