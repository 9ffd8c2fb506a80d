//! End-to-end assembly-tree pipeline: pattern → ordering → elimination tree →
//! column counts → amalgamation.
//!
//! `engine::Engine::plan` runs the same chain inline, adding name
//! validation, caching, timings and JSON-serializable configuration; new
//! code should go through it.  These free functions stitch the chain
//! directly: [`assembly_instances`] builds the experiment harness's corpus
//! after the recipe of the paper's data set (291 UF matrices × {amd, MeTiS}
//! orderings × {1, 2, 4, 16} relaxed amalgamations), and
//! [`assembly_tree_for`] is the reference the engine parity tests pin the
//! facade against.

use ordering::OrderingMethod;
use sparsemat::gen::ProblemKind;
use sparsemat::SparsePattern;

use crate::amalgamation::{amalgamate, AssemblyTree};
use crate::colcount::column_counts;
use crate::etree::elimination_tree;

/// Build the assembly tree of `pattern` with the given ordering method and
/// relaxed-amalgamation allowance.
pub fn assembly_tree_for(
    pattern: &SparsePattern,
    method: OrderingMethod,
    amalgamation: usize,
) -> AssemblyTree {
    let perm = method.order(pattern);
    let permuted = perm.apply(pattern);
    let etree = elimination_tree(&permuted);
    let counts = column_counts(&permuted, &etree);
    amalgamate(&etree, &counts, amalgamation)
}

/// One generated instance of the experiment corpus.
#[derive(Debug, Clone)]
pub struct AssemblyInstance {
    /// Human-readable instance name (`problem-n-ordering-amalgamation`).
    pub name: String,
    /// Problem generator used.
    pub problem: ProblemKind,
    /// Number of unknowns of the underlying matrix.
    pub matrix_n: usize,
    /// Ordering method used.
    pub ordering: OrderingMethod,
    /// Relaxed-amalgamation allowance.
    pub amalgamation: usize,
    /// The resulting assembly tree.
    pub assembly: AssemblyTree,
}

/// Configuration of the corpus generated by [`assembly_instances`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Problem kinds to generate.
    pub problems: Vec<ProblemKind>,
    /// Target numbers of unknowns.
    pub sizes: Vec<usize>,
    /// Ordering methods to apply.
    pub orderings: Vec<OrderingMethod>,
    /// Relaxed-amalgamation allowances (the paper uses 1, 2, 4 and 16).
    pub amalgamations: Vec<usize>,
    /// Seed for the random problem generators.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            problems: ProblemKind::ALL.to_vec(),
            sizes: vec![400, 900, 1600],
            orderings: vec![
                OrderingMethod::MinimumDegree,
                OrderingMethod::NestedDissection,
                OrderingMethod::ReverseCuthillMcKee,
                OrderingMethod::Natural,
            ],
            amalgamations: vec![1, 2, 4, 16],
            seed: 0x5eed,
        }
    }
}

impl PipelineConfig {
    /// A small configuration for quick tests and examples.
    pub fn small() -> Self {
        PipelineConfig {
            problems: vec![ProblemKind::Grid2d, ProblemKind::Random],
            sizes: vec![100, 225],
            orderings: vec![OrderingMethod::MinimumDegree, OrderingMethod::Natural],
            amalgamations: vec![1, 4],
            seed: 7,
        }
    }

    /// Number of instances this configuration will produce.
    pub fn instance_count(&self) -> usize {
        self.problems.len() * self.sizes.len() * self.orderings.len() * self.amalgamations.len()
    }
}

/// Generate the full corpus described by `config`.
///
/// Every (problem, size) pair generates one matrix; each (ordering,
/// amalgamation) combination of that matrix becomes one instance, as in the
/// paper's experimental setup.
pub fn assembly_instances(config: &PipelineConfig) -> Vec<AssemblyInstance> {
    let mut instances = Vec::with_capacity(config.instance_count());
    for (problem_index, &problem) in config.problems.iter().enumerate() {
        for (size_index, &size) in config.sizes.iter().enumerate() {
            let seed = config
                .seed
                .wrapping_add(problem_index as u64)
                .wrapping_mul(1_000_003)
                .wrapping_add(size_index as u64);
            let pattern = problem.generate(size, seed);
            for &ordering in &config.orderings {
                let perm = ordering.order(&pattern);
                let permuted = perm.apply(&pattern);
                let etree = elimination_tree(&permuted);
                let counts = column_counts(&permuted, &etree);
                for &amalgamation in &config.amalgamations {
                    let assembly = amalgamate(&etree, &counts, amalgamation);
                    instances.push(AssemblyInstance {
                        name: format!(
                            "{}-{}-{}-a{}",
                            problem.name(),
                            pattern.n(),
                            ordering.name(),
                            amalgamation
                        ),
                        problem,
                        matrix_n: pattern.n(),
                        ordering,
                        amalgamation,
                        assembly,
                    });
                }
            }
        }
    }
    instances
}

#[cfg(test)]
mod tests {
    use super::*;
    use treemem::minmem::min_mem;
    use treemem::postorder::best_postorder;

    #[test]
    fn single_problem_pipeline_produces_usable_trees() {
        let pattern = ProblemKind::Grid2d.generate(225, 3);
        let assembly = assembly_tree_for(&pattern, OrderingMethod::MinimumDegree, 4);
        let tree = &assembly.tree;
        assert!(tree.len() > 10);
        assert!(tree.len() <= pattern.n() + 1);
        // The traversal algorithms accept the tree and agree on sanity bounds.
        let po = best_postorder(tree);
        let opt = min_mem(tree);
        assert!(opt.peak <= po.peak);
        assert!(opt.peak >= tree.max_mem_req());
    }

    #[test]
    fn corpus_has_the_expected_size_and_unique_names() {
        let config = PipelineConfig::small();
        let instances = assembly_instances(&config);
        assert_eq!(instances.len(), config.instance_count());
        let mut names: Vec<&str> = instances.iter().map(|i| i.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            instances.len(),
            "instance names must be unique"
        );
    }

    #[test]
    fn amalgamation_allowance_shrinks_corpus_trees() {
        let config = PipelineConfig::small();
        let instances = assembly_instances(&config);
        for window in instances.chunks(config.amalgamations.len()) {
            // Within a chunk, the same matrix and ordering with increasing
            // allowance: tree sizes must not increase.
            for pair in window.windows(2) {
                assert!(pair[1].assembly.len() <= pair[0].assembly.len());
            }
        }
    }
}
