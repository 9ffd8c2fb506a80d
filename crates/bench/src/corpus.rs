//! Corpus generation for the experiments.
//!
//! The paper uses 291 matrices of the UF Sparse Matrix Collection, each
//! ordered with MeTiS and `amd` and amalgamated with allowances 1, 2, 4 and
//! 16.  The synthetic corpus generated here follows the same recipe on the
//! problem generators of the `sparsemat` crate: every (problem kind, size)
//! pair produces one matrix, and every (ordering, amalgamation) combination
//! of that matrix produces one weighted assembly tree.
//!
//! Corpus construction goes through the `engine` facade: every (problem,
//! size, ordering) cell is one [`engine::EngineConfig`] planned on the
//! [`par_map`] pool, and the amalgamation sweep
//! derives sibling plans with [`engine::Plan::reamalgamate`], which reuses
//! the ordering, elimination tree and column counts instead of recomputing
//! them per allowance.

use std::sync::Arc;

use engine::parallel::{default_threads, par_map};
use engine::{Engine, EngineConfig};
use ordering::OrderingMethod;
use sparsemat::gen::ProblemKind;
use symbolic::PipelineConfig;
use treemem::random::reweight_paper;
use treemem::Tree;

/// One weighted tree of the corpus, with its provenance.
#[derive(Debug, Clone)]
pub struct CorpusTree {
    /// Instance name (`problem-n-ordering-amalgamation`).
    pub name: String,
    /// The weighted assembly tree, shared: planning it
    /// (`EngineConfig::prebuilt(entry.tree.clone())`) bumps a count.
    pub tree: Arc<Tree>,
    /// Number of nodes of the tree (cached for reports).
    pub nodes: usize,
}

/// A corpus of weighted trees.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Human-readable description (printed in reports).
    pub description: String,
    /// The trees.
    pub trees: Vec<CorpusTree>,
}

impl Corpus {
    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

/// Configuration used by the full experiments (a few thousand tree nodes per
/// instance, every generator, every ordering, the paper's amalgamation
/// allowances).
pub fn default_config() -> PipelineConfig {
    PipelineConfig {
        problems: ProblemKind::ALL.to_vec(),
        sizes: vec![400, 900, 2500],
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

/// Configuration used by `--quick` runs and the integration tests.
pub fn quick_config() -> PipelineConfig {
    PipelineConfig {
        problems: vec![
            ProblemKind::Grid2d,
            ProblemKind::Random,
            ProblemKind::PowerLaw,
        ],
        sizes: vec![225, 400],
        orderings: vec![
            OrderingMethod::MinimumDegree,
            OrderingMethod::NestedDissection,
        ],
        amalgamations: vec![1, 4],
        seed: 0x5eed,
    }
}

/// Generate the assembly-tree corpus for the given configuration, fanning
/// one engine plan per (problem, size, ordering) cell over the available
/// cores and deriving the amalgamation sweep from each plan.
///
/// The seeds and instance names follow the historical
/// `symbolic::assembly_instances` recipe, so the corpus is bit-identical to
/// the one the hand-stitched pipeline produced.
pub fn corpus_for(config: &PipelineConfig, description: &str) -> Corpus {
    let engine = Engine::new();
    let mut jobs: Vec<(ProblemKind, usize, OrderingMethod, u64)> = Vec::new();
    for (problem_index, &problem) in config.problems.iter().enumerate() {
        for (size_index, &size) in config.sizes.iter().enumerate() {
            let seed = config
                .seed
                .wrapping_add(problem_index as u64)
                .wrapping_mul(1_000_003)
                .wrapping_add(size_index as u64);
            for &ordering in &config.orderings {
                jobs.push((problem, size, ordering, seed));
            }
        }
    }
    let threads = default_threads(jobs.len());
    let per_job: Vec<Vec<CorpusTree>> =
        par_map(&jobs, threads, |_, &(problem, size, ordering, seed)| {
            let first = *config
                .amalgamations
                .first()
                .expect("at least one amalgamation allowance");
            let base = EngineConfig::generated(problem, size, seed)
                .with_ordering(ordering)
                .with_amalgamation(first);
            let plan = engine.plan(&base).expect("corpus configuration is valid");
            config
                .amalgamations
                .iter()
                .map(|&amalgamation| {
                    let derived;
                    let plan = if amalgamation == first {
                        &plan
                    } else {
                        derived = plan
                            .reamalgamate(amalgamation)
                            .expect("generated sources always re-amalgamate");
                        &derived
                    };
                    CorpusTree {
                        name: format!(
                            "{}-{}-{}-a{}",
                            problem.name(),
                            plan.matrix_n(),
                            ordering.name(),
                            amalgamation
                        ),
                        nodes: plan.tree().len(),
                        tree: Arc::new(plan.tree().clone()),
                    }
                })
                .collect()
        });
    Corpus {
        description: description.to_string(),
        trees: per_job.into_iter().flatten().collect(),
    }
}

/// The full corpus used by the experiments (unless `--quick` is passed).
pub fn default_corpus() -> Corpus {
    corpus_for(&default_config(), "assembly trees, full synthetic corpus")
}

/// A small corpus for quick runs and tests.
pub fn quick_corpus() -> Corpus {
    corpus_for(&quick_config(), "assembly trees, quick synthetic corpus")
}

/// The randomly re-weighted corpus of Section VI-E (Table II / Figure 9):
/// the same tree structures with node weights drawn in `[1, N/500]` and edge
/// weights in `[1, N]`.
pub fn random_corpus(base: &Corpus, variants_per_tree: usize, seed: u64) -> Corpus {
    let mut trees = Vec::with_capacity(base.trees.len() * variants_per_tree);
    for (index, entry) in base.trees.iter().enumerate() {
        for variant in 0..variants_per_tree {
            let tree_seed = seed
                .wrapping_add(index as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(variant as u64);
            trees.push(CorpusTree {
                name: format!("{}-rw{}", entry.name, variant),
                tree: Arc::new(reweight_paper(&entry.tree, tree_seed)),
                nodes: entry.nodes,
            });
        }
    }
    Corpus {
        description: format!("{} (randomly re-weighted)", base.description),
        trees,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_built_corpus_matches_the_legacy_recipe() {
        // The engine-planned corpus must be bit-identical (names and trees)
        // to the historical hand-stitched `assembly_instances` pipeline.
        let config = PipelineConfig::small();
        let instances = symbolic::assembly_instances(&config);
        let corpus = corpus_for(&config, "parity");
        assert_eq!(corpus.len(), instances.len());
        for (entry, instance) in corpus.trees.iter().zip(&instances) {
            assert_eq!(entry.name, instance.name);
            assert_eq!(*entry.tree, instance.assembly.tree, "{}", entry.name);
        }
    }

    #[test]
    fn quick_corpus_is_nonempty_and_named_uniquely() {
        let corpus = quick_corpus();
        assert!(!corpus.is_empty());
        assert_eq!(corpus.len(), quick_config().instance_count());
        let mut names: Vec<&str> = corpus.trees.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len());
    }

    #[test]
    fn random_corpus_keeps_topologies_and_changes_weights() {
        let base = corpus_for(&quick_config(), "base");
        let random = random_corpus(&base, 2, 1);
        assert_eq!(random.len(), 2 * base.len());
        assert!(random.trees[0]
            .tree
            .parents()
            .eq(base.trees[0].tree.parents()));
        assert_ne!(random.trees[0].tree.files(), base.trees[0].tree.files());
    }
}
