//! `factor_cli` — run one [`engine::EngineConfig`] end to end and print the
//! [`engine::Report`] as JSON.
//!
//! ```text
//! factor_cli --mtx matrix.mtx [--ordering amd] [--amalgamation 4] \
//!            [--solver minmem] [--policy LSNF] \
//!            [--memory N | --memory-fraction F] [--numeric] [--print-config]
//! factor_cli --kind grid2d --nodes 400 [--seed 42] ...
//! ```
//!
//! `--print-config` dumps the resolved configuration JSON (round-trippable
//! through `EngineConfig::from_json`) to stderr before running.

use engine::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: factor_cli (--mtx PATH | --kind NAME --nodes N [--seed S])\n\
         \x20      [--ordering natural|amd|nd|rcm] [--amalgamation N]\n\
         \x20      [--solver NAME] [--policy NAME]\n\
         \x20      [--memory N | --memory-fraction F] [--numeric] [--print-config]\n\
         \n\
         problem kinds: {}\n\
         solvers: {}\n\
         policies: {}",
        ProblemKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", "),
        Solver::ALL.map(Solver::name).join(", "),
        Policy::ALL.map(Policy::name).join(", ")
    );
    std::process::exit(2);
}

fn parse_config(args: &[String]) -> Result<(EngineConfig, bool), String> {
    let mut mtx: Option<String> = None;
    let mut kind: Option<ProblemKind> = None;
    let mut nodes: Option<usize> = None;
    let mut seed: u64 = 42;
    let mut ordering = OrderingMethod::MinimumDegree;
    let mut amalgamation = 1usize;
    let mut solver = "minmem".to_string();
    let mut policy = "LSNF".to_string();
    let mut memory = MemoryBudget::Unlimited;
    let mut numeric = false;
    let mut print_config = false;

    let mut iter = args.iter();
    let value_of = |flag: &str, iter: &mut std::slice::Iter<'_, String>| {
        iter.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--mtx" => mtx = Some(value_of("--mtx", &mut iter)?),
            "--kind" => {
                let name = value_of("--kind", &mut iter)?;
                kind = Some(
                    ProblemKind::from_name(&name)
                        .ok_or_else(|| format!("unknown problem kind '{name}'"))?,
                );
            }
            "--nodes" => {
                nodes = Some(
                    value_of("--nodes", &mut iter)?
                        .parse()
                        .map_err(|e| format!("--nodes: {e}"))?,
                );
            }
            "--seed" => {
                seed = value_of("--seed", &mut iter)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--ordering" => {
                let name = value_of("--ordering", &mut iter)?;
                ordering = OrderingMethod::from_name(&name)
                    .ok_or_else(|| format!("unknown ordering '{name}'"))?;
            }
            "--amalgamation" => {
                amalgamation = value_of("--amalgamation", &mut iter)?
                    .parse()
                    .map_err(|e| format!("--amalgamation: {e}"))?;
            }
            "--solver" => solver = value_of("--solver", &mut iter)?,
            "--policy" => policy = value_of("--policy", &mut iter)?,
            "--memory" => {
                memory = MemoryBudget::Absolute(
                    value_of("--memory", &mut iter)?
                        .parse()
                        .map_err(|e| format!("--memory: {e}"))?,
                );
            }
            "--memory-fraction" => {
                memory = MemoryBudget::FractionOfPeak(
                    value_of("--memory-fraction", &mut iter)?
                        .parse()
                        .map_err(|e| format!("--memory-fraction: {e}"))?,
                );
            }
            "--numeric" => numeric = true,
            "--print-config" => print_config = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }

    let source = match (mtx, kind) {
        (Some(_), Some(_)) => {
            return Err("--mtx and --kind are mutually exclusive".to_string());
        }
        (Some(path), None) => EngineConfig::matrix_market(path),
        (None, Some(kind)) => {
            let nodes = nodes.ok_or("--kind needs --nodes")?;
            EngineConfig::generated(kind, nodes, seed)
        }
        (None, None) => return Err("one of --mtx or --kind is required".to_string()),
    };
    Ok((
        source
            .with_ordering(ordering)
            .with_amalgamation(amalgamation)
            .with_solver(solver)
            .with_policy(policy)
            .with_memory(memory)
            .with_numeric(numeric),
        print_config,
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let (config, print_config) = match parse_config(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("factor_cli: {message}");
            std::process::exit(2);
        }
    };
    if print_config {
        eprint!("{}", config.to_json());
    }
    match Engine::new().run(&config) {
        Ok(report) => print!("{}", report.to_json()),
        Err(err) => {
            eprintln!("factor_cli: {err}");
            std::process::exit(1);
        }
    }
}
