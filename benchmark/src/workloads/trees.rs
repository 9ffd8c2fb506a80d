//! `traversal_trees`: the paper's own problem.  Prebuilt trees — a harpoon
//! tower (Theorem 1's worst case for postorders), a synthetic
//! nested-dissection elimination tree, a comb (the out-of-core simulator's
//! stress shape) and a forest of the paper's random re-weightings — each
//! planned afresh per operation and scheduled for every solver × policy cell
//! at a quarter of the way from the hardest budget to the peak.

use engine::prelude::*;
use minio::{divisible_lower_bound, schedule_io_with, PolicyRegistry};
use treemem::gadgets::harpoon_tower;
use treemem::random::{comb, nested_dissection_etree, reweight_paper};
use treemem::tree::Size;
use treemem::{SolverRegistry, Tree};

use crate::replay::{check_peaks, check_schedule, policy_metric, solver_metric, Stage};
use crate::runner::{add, Batch, OpFacts, Quality, QualityBuilder, Rep, RunArgs, Stopwatch};
use crate::seeds::derive;
use crate::spans::{covered_frac, Recorder};
use crate::workloads::scaled;

/// The solver axis, in registry names.
pub const SOLVERS: [&str; 3] = ["postorder", "liu", "minmem"];

/// The policy axis, in registry names.
pub const POLICIES: [&str; 3] = ["LSNF", "FirstFit", "BestKComb"];

/// The budget of every cell.
const MEMORY: MemoryBudget = MemoryBudget::FractionOfPeak(0.25);

/// Reweighted trees in the forest.
const FOREST: u64 = 24;

/// The workload.
pub struct TraversalTrees {
    /// Nodes of each of the three large trees.
    nodes: usize,
    /// Nodes of each tree of the reweighted forest.
    forest_nodes: usize,
}

impl TraversalTrees {
    /// Three trees of about 100 000 nodes and a forest of 24 trees of 4 000
    /// (÷ 20 in smoke mode).
    pub fn new(smoke: bool) -> TraversalTrees {
        TraversalTrees {
            nodes: scaled(100_000, smoke),
            forest_nodes: scaled(4_000, smoke),
        }
    }

    /// The trees for run seed `seed`: the harpoon tower, a synthetic
    /// nested-dissection elimination tree and a comb at full size, then the
    /// forest — the paper's random re-weighting (Section VI-E) of small
    /// nested-dissection trees.  One re-weighted tree's ratios swing by
    /// ±10–20 % with its seed; the mean over the forest moves by a fifth of
    /// that, which keeps the exact metrics comparable between seeds.
    pub fn trees(&self, seed: u64) -> Vec<(&'static str, Tree)> {
        // A tower of `levels` levels with 3 branches has 9·(3^levels − 1)/2 + 1
        // nodes; take the deepest one within the node target.
        let mut levels = 1;
        while 9 * (3usize.pow(levels + 1) - 1) / 2 < self.nodes {
            levels += 1;
        }
        let mut trees = vec![
            ("harpoon_tower", harpoon_tower(3, 300, 1, levels as usize)),
            (
                "nested_dissection_etree",
                nested_dissection_etree(self.nodes, derive(seed, "tree", 0)),
            ),
            ("comb", comb(self.nodes / 2, 1_000, derive(seed, "tree", 1))),
        ];
        for index in 0..FOREST {
            let shape = nested_dissection_etree(self.forest_nodes, derive(seed, "forest", index));
            trees.push((
                "reweight_paper",
                reweight_paper(&shape, derive(seed, "forest-weights", index)),
            ));
        }
        trees
    }
}

/// One schedule cell's counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    peak: Size,
    io_volume: Size,
    divisible_bound: Size,
}

/// Fold the cells of one operation (tree-major, solver, then policy) into
/// the exact counts, checking the paper's orderings on the way.
fn quality_of(cells: &[Cell], trees: usize) -> Result<Quality, String> {
    let per_tree = SOLVERS.len() * POLICIES.len();
    if cells.len() != trees * per_tree {
        return Err(format!(
            "expected {} cells, got {}",
            trees * per_tree,
            cells.len()
        ));
    }
    let mut quality = QualityBuilder::default();
    for tree_cells in cells.chunks(per_tree) {
        let peak_of = |solver: usize| tree_cells[solver * POLICIES.len()].peak;
        let (postorder, liu, minmem) = (peak_of(0), peak_of(1), peak_of(2));
        check_peaks(postorder, liu, minmem)?;
        let (mut io_volume, mut bound) = (0, 0);
        for cell in tree_cells {
            if cell.io_volume < cell.divisible_bound {
                return Err(format!(
                    "I/O volume {} below the divisible bound {}",
                    cell.io_volume, cell.divisible_bound
                ));
            }
            io_volume += cell.io_volume;
            bound += cell.divisible_bound;
        }
        quality.add_tree(minmem, postorder, io_volume, bound);
    }
    quality.finish()
}

/// Generated inputs: one prebuilt configuration per tree.
pub struct TreesState {
    configs: Vec<EngineConfig>,
}

impl TreesState {
    fn tree(&self, index: usize) -> &Tree {
        match &self.configs[index].source {
            ProblemSource::Prebuilt { tree } => tree,
            _ => unreachable!("set-up builds prebuilt configurations only"),
        }
    }
}

impl Batch for TraversalTrees {
    type State = TreesState;

    /// Generate the trees, wrap them in configurations, and warm up with one
    /// unchecked pass over every cell.
    fn setup(&self, args: &RunArgs) -> Result<TreesState, String> {
        let configs = self
            .trees(args.seed)
            .into_iter()
            .map(|(_, tree)| EngineConfig::prebuilt(tree).with_memory(MEMORY))
            .collect();
        let state = TreesState { configs };
        self.op(&state, 0, &mut Stopwatch::default())?;
        Ok(state)
    }

    fn op(&self, state: &TreesState, _rep: u64, watch: &mut Stopwatch) -> Result<OpFacts, String> {
        let mut cells = Vec::new();
        for config in &state.configs {
            let engine = Engine::new();
            let plan = watch
                .time(|| engine.plan(config))
                .map_err(|e| e.to_string())?;
            for solver in SOLVERS {
                for policy in POLICIES {
                    let spec = ScheduleSpec::default().solver(solver).policy(policy);
                    let schedule = watch
                        .time(|| plan.schedule_with(&engine, spec))
                        .map_err(|e| format!("{solver} × {policy}: {e}"))?;
                    check_schedule(
                        plan.tree(),
                        schedule.traversal(),
                        schedule.io_run(),
                        schedule.memory_budget(),
                        schedule.divisible_bound(),
                    )
                    .map_err(|e| format!("{solver} × {policy}: {e}"))?;
                    cells.push(Cell {
                        peak: schedule.peak(),
                        io_volume: schedule.io_volume(),
                        divisible_bound: schedule.divisible_bound(),
                    });
                }
            }
        }
        let quality = quality_of(&cells, state.configs.len())?;
        Ok(OpFacts {
            quality,
            detail: format!(
                "peak_vs_postorder={} io_vs_bound={}",
                quality.peak_vs_postorder, quality.io_vs_bound
            ),
        })
    }

    fn traced(
        &self,
        state: &TreesState,
        rep: u64,
        recorder: &Recorder,
        out: &mut Rep,
    ) -> Result<(), String> {
        // The engine entry points of the untraced operation.
        let root = recorder.open(None, rep, "harness", "op");
        let mut engine_cells = Vec::new();
        for config in &state.configs {
            let engine = Engine::new();
            let (plan, seconds) =
                recorder.time(Some(root), rep, "engine", "plan", || engine.plan(config));
            add(out, "engine.plan_s", seconds);
            let plan = plan.map_err(|e| e.to_string())?;
            for solver in SOLVERS {
                for policy in POLICIES {
                    let spec = ScheduleSpec::default().solver(solver).policy(policy);
                    let (schedule, seconds) =
                        recorder.time(Some(root), rep, "engine", "schedule", || {
                            plan.schedule_with(&engine, spec)
                        });
                    add(out, "engine.schedule_s", seconds);
                    let schedule = schedule.map_err(|e| e.to_string())?;
                    engine_cells.push(Cell {
                        peak: schedule.peak(),
                        io_volume: schedule.io_volume(),
                        divisible_bound: schedule.divisible_bound(),
                    });
                }
            }
        }
        add(out, "harness.traced_op_s", recorder.close(root));

        // The staged replay: the registry solvers once per tree, the bound
        // once per solver, the simulator once per cell — what the plan's
        // caches make the engine do.
        let solvers = SolverRegistry::with_builtin();
        let policies = PolicyRegistry::with_builtin();
        let replay = recorder.open(None, rep, "harness", "replay");
        let stage = Stage {
            recorder,
            op: rep,
            parent: Some(replay),
        };
        let mut staged_cells = Vec::new();
        for index in 0..state.configs.len() {
            let tree = state.tree(index);
            for name in SOLVERS {
                let solver = solvers.get_or_err(name).map_err(|e| e.to_string())?;
                let metric = solver_metric(name).expect("the solver axis has metrics");
                let solved = stage.call(out, "treemem", "solve", metric, || solver.solve(tree));
                let budget = MEMORY.resolve(tree.max_mem_req(), solved.peak);
                let bound = stage
                    .call(out, "minio", "divisible_bound", "minio.bound_s", || {
                        divisible_lower_bound(tree, &solved.traversal, budget)
                    })
                    .map_err(|e| e.to_string())?;
                for policy_name in POLICIES {
                    let policy = policies
                        .get_or_err(policy_name)
                        .map_err(|e| e.to_string())?;
                    let metric = policy_metric(policy_name).expect("the policy axis has metrics");
                    let run = stage
                        .call(out, "minio", "schedule_io", metric, || {
                            schedule_io_with(tree, &solved.traversal, budget, policy)
                        })
                        .map_err(|e| e.to_string())?;
                    add(out, "minio.io_volume", run.io_volume as f64);
                    add(out, "minio.files_written", run.files_written as f64);
                    staged_cells.push(Cell {
                        peak: solved.peak,
                        io_volume: run.io_volume,
                        divisible_bound: bound,
                    });
                }
                if name == "minmem" {
                    add(out, "treemem.peak", solved.peak as f64);
                }
            }
        }
        add(out, "harness.replay_s", recorder.close(replay));
        if staged_cells != engine_cells {
            return Err("the staged replay's cells differ from the engine's".to_string());
        }
        quality_of(&engine_cells, state.configs.len())?;

        let spans = recorder.snapshot();
        add(out, "harness.attributed_frac", covered_frac(&spans, root));
        let layer_sum: f64 = [
            "treemem.postorder_s",
            "treemem.liu_s",
            "treemem.minmem_s",
            "minio.lsnf_s",
            "minio.firstfit_s",
            "minio.bestk_s",
            "minio.bound_s",
        ]
        .iter()
        .filter_map(|name| out.get(name))
        .sum();
        let plan_s = out.get("engine.plan_s").copied().unwrap_or(0.0);
        let schedule_s = out.get("engine.schedule_s").copied().unwrap_or(0.0);
        // Planning a prebuilt tree enters no other layer.
        add(out, "engine.plan_self_s", plan_s);
        add(
            out,
            "engine.schedule_self_s",
            (schedule_s - layer_sum).max(0.0),
        );
        Ok(())
    }
}
