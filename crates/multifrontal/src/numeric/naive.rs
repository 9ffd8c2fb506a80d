//! Test-only oracle: the per-column elimination loop as it was written
//! before the one-pass front (at `22655dd`) — every front zeroed and
//! assembled entry by entry with `add`/`get`, the reference kernel run on
//! one pivot, the block copied out of the front with `get`/`set`.  Short
//! enough to read as the definition of the factor; the battery below pins
//! [`super::eliminate_columns`] to it bit for bit.
//!
//! The arena's `take(n, None)` now zeroes only the lower triangle of what
//! it hands out, which is all this loop (and the reference kernel at one
//! pivot) ever reads.

use sparsemat::SymmetricCsr;

use super::{ContributionStore, FactorizationError, SymbolicStructure, STOP_CHECK_COLUMNS};
use crate::dense::{FrontArena, FrontKernel};
use crate::parallel::BudgetLedger;

/// [`super::eliminate_columns`] as at `22655dd`, with the single-pivot
/// `FrontKernel::Reference` in place of the (bit-identical) default kernel.
pub(super) fn eliminate_columns(
    matrix: &SymmetricCsr,
    structure: &SymbolicStructure,
    order: &[usize],
    pending: &mut ContributionStore,
    ledger: &BudgetLedger,
    arena: &mut FrontArena,
    stop: Option<&dyn Fn() -> bool>,
) -> Result<Vec<f64>, FactorizationError> {
    let mut local = std::mem::take(&mut arena.scatter);
    local.resize(structure.n(), usize::MAX);
    let value_count: usize = order.iter().map(|&j| structure.rows(j).len()).sum();
    let mut out: Vec<f64> = Vec::with_capacity(value_count);
    let mut eliminate = || {
        for (step, &j) in order.iter().enumerate() {
            if step % STOP_CHECK_COLUMNS == 0 && stop.is_some_and(|probe| probe()) {
                return Err(FactorizationError::Cancelled);
            }
            let rows = structure.rows(j);
            let front_dim = rows.len();
            let mut front = arena.take(front_dim, None);
            let front_entries = front.len() as i64;
            ledger.record_live(front_entries);

            for (position, &global) in rows.iter().enumerate() {
                local[global] = position;
            }

            // Assemble the original matrix entries of column j.
            let (a_rows, a_values) = matrix.column(j);
            for (&i, &v) in a_rows.iter().zip(a_values) {
                front.add(local[i], 0, v);
            }

            // Extend-add the children contribution blocks, in child order.
            let mut assembled = true;
            for &c in &structure.children[j] {
                let cb_rows = &structure.rows(c)[1..];
                match pending.remove(c) {
                    Some(cb) if cb.n() == cb_rows.len() => {
                        for (a, &ga) in cb_rows.iter().enumerate() {
                            let la = local[ga];
                            for (b, &gb) in cb_rows.iter().enumerate().skip(a) {
                                front.add(local[gb], la, cb.get(b, a));
                            }
                        }
                        ledger.record_live(-(cb.len() as i64));
                        arena.recycle(cb);
                    }
                    None if cb_rows.is_empty() => {}
                    _ => assembled = false,
                }
            }
            for &global in rows {
                local[global] = usize::MAX;
            }
            if !assembled {
                return Err(FactorizationError::InvalidTraversal);
            }

            // Eliminate the fully-summed variable (the first row/column).
            FrontKernel::Reference
                .apply(&mut front, 1)
                .map_err(|_| FactorizationError::NotPositiveDefinite { column: j })?;

            // Extract the factor column.
            out.extend_from_slice(&front.column_major()[..front_dim]);

            // Extract the contribution block (trailing (dim-1) x (dim-1)
            // block).
            let cb_dim = front_dim - 1;
            if cb_dim > 0 && structure.etree.parent(j).is_some() {
                let mut cb = arena.take(cb_dim, None);
                for a in 0..cb_dim {
                    for b in a..cb_dim {
                        cb.set(b, a, front.get(b + 1, a + 1));
                    }
                }
                pending.insert(j, cb);
                ledger.record_live((cb_dim * cb_dim) as i64 - front_entries);
            } else {
                ledger.record_live(-front_entries);
            }
            arena.recycle(front);
        }
        Ok(())
    };
    let outcome = eliminate();
    arena.scatter = local;
    outcome.map(|()| out)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use ordering::OrderingMethod;
    use sparsemat::gen::{spd_matrix_from_pattern, ProblemKind};
    use symbolic::etree::etree_postorder;
    use treemem::minmem::min_mem;
    use treemem::partition::{default_node_work, proportional_cut};

    use super::*;
    use crate::dense::DenseMatrix;
    use crate::memory::per_column_model;

    type Eliminate = fn(
        &SymmetricCsr,
        &SymbolicStructure,
        &[usize],
        &mut ContributionStore,
        &BudgetLedger,
        &mut FrontArena,
        Option<&dyn Fn() -> bool>,
    ) -> Result<Vec<f64>, FactorizationError>;

    /// The oracle, then the served loop.
    const LOOPS: [Eliminate; 2] = [eliminate_columns, super::super::eliminate_columns];

    /// What one loop leaves behind for one column subset, floats as bits.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        values: Result<Vec<u64>, FactorizationError>,
        /// The lower triangle of every pending block, by column.
        blocks: Vec<(usize, Vec<u64>)>,
        measured_peak_entries: u64,
    }

    fn lower_bits(block: &DenseMatrix) -> Vec<u64> {
        let n = block.n();
        (0..n)
            .flat_map(|a| (a..n).map(move |b| block.get(b, a).to_bits()))
            .collect()
    }

    fn copy_store(store: &ContributionStore) -> ContributionStore {
        let mut copy = ContributionStore::new();
        for (column, block) in store.iter() {
            copy.insert(column, block.clone());
        }
        copy
    }

    /// One side of the comparison: a loop with its own arena and pending
    /// store, so the served loop consumes only blocks it produced itself.
    struct Side {
        eliminate: Eliminate,
        arena: FrontArena,
        pending: ContributionStore,
    }

    fn sides() -> [Side; 2] {
        LOOPS.map(|eliminate| Side {
            eliminate,
            arena: FrontArena::new(),
            pending: ContributionStore::new(),
        })
    }

    /// Run `order` on both sides (a stop probe firing at its `cancel_at`-th
    /// poll, if given) and assert they leave the same outcome.
    fn assert_same(
        label: &str,
        matrix: &SymmetricCsr,
        structure: &SymbolicStructure,
        order: &[usize],
        sides: &mut [Side; 2],
        cancel_at: Option<usize>,
    ) -> Outcome {
        let [naive, fast] = sides.each_mut().map(|side| {
            let ledger = BudgetLedger::new(None);
            let polls = Cell::new(0);
            let probe = || {
                polls.set(polls.get() + 1);
                Some(polls.get()) == cancel_at
            };
            let values = (side.eliminate)(
                matrix,
                structure,
                order,
                &mut side.pending,
                &ledger,
                &mut side.arena,
                Some(&probe),
            );
            Outcome {
                values: values.map(|v| v.iter().map(|x| x.to_bits()).collect()),
                blocks: side
                    .pending
                    .iter()
                    .map(|(c, b)| (c, lower_bits(b)))
                    .collect(),
                measured_peak_entries: ledger.measured_peak_entries(),
            }
        });
        assert_eq!(fast, naive, "{label}");
        fast
    }

    fn problem(kind: ProblemKind, method: OrderingMethod) -> (SymmetricCsr, SymbolicStructure) {
        let pattern = kind.generate(300, 7);
        let permutation = method.order(&pattern);
        let matrix = spd_matrix_from_pattern(&pattern, 7).permute(permutation.as_new_to_old());
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        (matrix, structure)
    }

    /// Fronts the served loop seeds from their first child's block.
    fn seeded_fronts(structure: &SymbolicStructure) -> usize {
        (0..structure.n())
            .filter(|&j| {
                structure.children[j]
                    .first()
                    .is_some_and(|&c| structure.rows(c).len() == structure.rows(j).len() + 1)
            })
            .count()
    }

    /// Every `ProblemKind` × {nd, amd, rcm} × {etree postorder, MinMem on
    /// the per-column model} × {the whole order, a proportional cut into
    /// subtree tasks plus the merge fed by their blocks}: factor values,
    /// pending blocks and measured peaks equal the oracle's bit for bit.
    #[test]
    fn the_one_pass_loop_is_the_naive_loop_bit_for_bit() {
        let mut seeded = 0;
        for kind in ProblemKind::ALL {
            for method in [
                OrderingMethod::NestedDissection,
                OrderingMethod::MinimumDegree,
                OrderingMethod::ReverseCuthillMcKee,
            ] {
                let (matrix, structure) = problem(kind, method);
                seeded += seeded_fronts(&structure);
                let model = per_column_model(&structure);
                let partition = proportional_cut(&model, 8, &default_node_work(&model));
                let orders = [
                    ("postorder", etree_postorder(&structure.etree)),
                    ("minmem", min_mem(&model).traversal.reversed().into_order()),
                ];
                for (name, order) in orders {
                    let label = format!("{}/{}/{name}", kind.name(), method.name());
                    let whole =
                        assert_same(&label, &matrix, &structure, &order, &mut sides(), None);
                    assert!(whole.values.is_ok() && whole.blocks.is_empty(), "{label}");

                    let (tasks, merge_order) = partition.split_order(&order);
                    let mut merge = sides();
                    for (task, task_order) in tasks.iter().enumerate() {
                        let mut sides = sides();
                        let label = format!("{label}/task {task}");
                        assert_same(&label, &matrix, &structure, task_order, &mut sides, None);
                        for (merge, side) in merge.iter_mut().zip(sides) {
                            merge.pending.absorb(side.pending);
                        }
                    }
                    let label = format!("{label}/merge");
                    let merged =
                        assert_same(&label, &matrix, &structure, &merge_order, &mut merge, None);
                    assert!(merged.values.is_ok() && merged.blocks.is_empty(), "{label}");
                }
            }
        }
        assert!(seeded > 0, "the battery exercises the seeded fronts");
    }

    /// The failure paths end the same way on both loops: a stop probe
    /// firing at its k-th poll, a suffix whose children's blocks are
    /// missing, a pending block of the wrong dimension, an indefinite
    /// matrix.
    #[test]
    fn the_one_pass_loop_fails_like_the_naive_loop() {
        for kind in ProblemKind::ALL {
            let (matrix, structure) = problem(kind, OrderingMethod::NestedDissection);
            let order = etree_postorder(&structure.etree);
            let n = order.len();
            let label = kind.name();

            for k in 1..=3 {
                let cancelled =
                    assert_same(label, &matrix, &structure, &order, &mut sides(), Some(k));
                if n > (k - 1) * STOP_CHECK_COLUMNS {
                    assert_eq!(cancelled.values, Err(FactorizationError::Cancelled));
                }
            }

            let (prefix, suffix) = order.split_at(2 * n / 3);
            let missing = assert_same(label, &matrix, &structure, suffix, &mut sides(), None);
            assert_eq!(missing.values, Err(FactorizationError::InvalidTraversal));

            let mut after_prefix = sides();
            assert_same(label, &matrix, &structure, prefix, &mut after_prefix, None);
            let pending: Vec<(usize, usize)> = after_prefix[0]
                .pending
                .iter()
                .map(|(column, block)| (column, block.n()))
                .collect();
            for (column, dim) in pending {
                let mut sides = sides();
                for (side, prefix_side) in sides.iter_mut().zip(&after_prefix) {
                    side.pending = copy_store(&prefix_side.pending);
                    side.pending.insert(column, DenseMatrix::zeros(dim + 1));
                }
                let wrong = assert_same(label, &matrix, &structure, suffix, &mut sides, None);
                assert_eq!(wrong.values, Err(FactorizationError::InvalidTraversal));
            }

            // Negate the diagonal of the column eliminated mid-way.
            let negated = order[n / 2];
            let columns = (0..n)
                .map(|j| {
                    let (rows, values) = matrix.column(j);
                    let sign = if j == negated { -1.0 } else { 1.0 };
                    rows.iter()
                        .zip(values)
                        .map(|(&i, &v)| (i, if i == j { sign * v } else { v }))
                        .collect()
                })
                .collect();
            let indefinite = SymmetricCsr::from_lower_columns(n, columns);
            let failed = assert_same(label, &indefinite, &structure, &order, &mut sides(), None);
            assert_eq!(
                failed.values,
                Err(FactorizationError::NotPositiveDefinite { column: negated })
            );
        }
    }

    /// A chain of fronts each covered by its first (only) child, with an
    /// `A` entry in every row — an explicit +0.0 and −0.0 among them — and
    /// values that make Schur updates cancel exactly.  Seeding a front with
    /// its child's block instead of zeros is bit-exact only because no
    /// produced block entry is −0.0 (`0.0 + −0.0` is +0.0): check that on
    /// every block, not just on the factor.
    #[test]
    fn a_covering_first_child_seeds_its_front_without_negative_zeros() {
        let matrix = SymmetricCsr::from_lower_columns(
            4,
            vec![
                vec![(0, 4.0), (1, 2.0), (2, -2.0), (3, 0.0)],
                vec![(1, 2.0), (2, -1.0), (3, -0.0)],
                vec![(2, 3.0), (3, 1.0)],
                vec![(3, 5.0)],
            ],
        );
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        assert_eq!(seeded_fronts(&structure), 3, "a chain of covering blocks");
        let order = [0, 1, 2, 3];
        let mut zeros = 0;
        for k in 1..order.len() {
            let outcome = assert_same(
                "chain",
                &matrix,
                &structure,
                &order[..k],
                &mut sides(),
                None,
            );
            for (column, block) in &outcome.blocks {
                assert!(
                    !block.contains(&(-0.0f64).to_bits()),
                    "block of column {column}"
                );
                zeros += block.iter().filter(|&&bits| bits == 0).count();
            }
        }
        assert!(zeros > 0, "exact cancellations produce +0.0 entries");
        let whole = assert_same("chain", &matrix, &structure, &order, &mut sides(), None);
        assert!(whole.values.is_ok());
    }
}
