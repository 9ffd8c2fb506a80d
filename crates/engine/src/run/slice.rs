//! The task slice: what one subtree task of a cut needs of the problem —
//! its columns of the permuted matrix — so that anyone holding it factors
//! the task without planning.
//!
//! A task is closed under descendants, so the rows of `L` in its columns,
//! and with them every column's elimination-tree parent (the task roots'
//! included), follow from its own columns of `A`.  The slice, renumbered
//! onto the increasing union of its row indices, is a matrix whose other
//! columns are empty, and [`SymbolicStructure::from_pattern`] on that
//! matrix yields exactly the rows and parents the plan's structure holds
//! for those columns, in the same order.  The factor then runs the same
//! `eliminate_columns` over the same values, so its parts are bit-identical
//! to a factor on the whole plan, and the ledger sees the same events.
//! [`Plan::factor_subtree`](crate::Plan::factor_subtree) is "slice, then
//! factor", so a worker process and an in-process caller run one path.
//!
//! Its row indices are `u32`s, as in the matrix they are copied from and
//! as the wire carries them (8 hex digits each), so a slice is encoded and
//! decoded without a conversion.  A slice received from elsewhere is
//! checked for shape ([`TaskSlice::new`]) — a dimension beyond
//! [`MAX_DIMENSION`] first, before anything is sized by it; which columns
//! of `A` it holds, and their values, are the sender's word.  A slice that is not descendant-closed, or whose
//! order puts a parent before its child, derives a tree in which some task
//! column waits for a block no task column leaves: the kernel's typed
//! `InvalidTraversal`, never a panic.

use multifrontal::numeric::SymbolicStructure;
use multifrontal::parallel::{BudgetLedger, FactorColumns};
use multifrontal::{ContributionStore, FactorizationError, FrontArena};
use sparsemat::{SymmetricCsr, MAX_DIMENSION};

use super::numeric::{NumericModel, TaskContext};
use super::EngineError;
use crate::cancel::CancelToken;

/// What [`TaskSlice::factor`] hands back for one subtree task, values only
/// (the coordinator owns the [`SymbolicStructure`]).  Consumed in task
/// order by [`Schedule::execute_distributed`](crate::Schedule::execute_distributed),
/// which copies the values into the run's factor.
#[derive(Debug)]
pub struct SubtreeParts {
    /// The task's factor columns packed in task order: `µ(j)` values for
    /// column `j`.
    pub values: Vec<f64>,
    /// The blocks the task's roots leave for the merge, by global column.
    pub blocks: ContributionStore,
}

/// One subtree task's slice of the problem: its bottom-up column order,
/// and for each of its columns (by increasing index) the lower triangle of
/// that column of the permuted matrix — row indices and values, diagonal
/// first.  Row indices are `u32`, as in the matrix and on the wire.
/// Built by
/// [`DistributedCut::task_slice`](crate::DistributedCut::task_slice) or
/// validated by [`TaskSlice::new`]; either way [`TaskSlice::factor`] can
/// index it without a check.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSlice {
    n: usize,
    order: Vec<usize>,
    /// `order`, sorted.
    columns: Vec<usize>,
    col_ptr: Vec<usize>,
    rows: Vec<u32>,
    values: Vec<f64>,
}

/// Why a slice is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceError {
    /// The problem's dimension exceeds [`MAX_DIMENSION`], the `u32` index
    /// range.
    Dimension,
    /// There is not one count per column of the order, or the counts do
    /// not add up to the row and value arrays.
    Counts,
    /// The order names a column twice, or one at or beyond `n`.
    Columns,
    /// A column's rows do not increase from its own diagonal to below `n`.
    Rows,
    /// A value is NaN or infinite.
    NonFinite,
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt.write_str(match self {
            SliceError::Dimension => "the slice's dimension exceeds the u32 index range",
            SliceError::Counts => "the slice's counts disagree",
            SliceError::Columns => "the slice's order names a column twice or out of range",
            SliceError::Rows => "a slice column's rows do not run from its diagonal below n",
            SliceError::NonFinite => "a slice value is not finite",
        })
    }
}

impl std::error::Error for SliceError {}

impl From<SliceError> for EngineError {
    fn from(error: SliceError) -> Self {
        EngineError::InvalidConfig(format!("task slice: {error}"))
    }
}

impl TaskSlice {
    /// Validate a slice received from elsewhere: `n` is the whole problem's
    /// dimension, `order` the task's bottom-up column order, and `counts`
    /// holds one entry per column, by increasing column, over the
    /// concatenated `rows` and `values`.  A dimension beyond
    /// [`MAX_DIMENSION`] is refused first.
    pub fn new(
        n: usize,
        order: Vec<usize>,
        counts: &[usize],
        rows: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<TaskSlice, SliceError> {
        if n > MAX_DIMENSION {
            return Err(SliceError::Dimension);
        }
        let mut columns = order.clone();
        columns.sort_unstable();
        let k = columns.len();
        let mut col_ptr = Vec::with_capacity(k + 1);
        col_ptr.push(0usize);
        for &count in counts {
            let end = col_ptr[col_ptr.len() - 1].checked_add(count);
            col_ptr.push(end.ok_or(SliceError::Counts)?);
        }
        if counts.len() != k || col_ptr[k] != rows.len() || rows.len() != values.len() {
            return Err(SliceError::Counts);
        }
        if columns.windows(2).any(|pair| pair[0] == pair[1])
            || columns.last().is_some_and(|&last| last >= n)
        {
            return Err(SliceError::Columns);
        }
        for (index, &column) in columns.iter().enumerate() {
            let entries = &rows[col_ptr[index]..col_ptr[index + 1]];
            if entries.first().map(|&first| first as usize) != Some(column)
                || entries.windows(2).any(|pair| pair[0] >= pair[1])
                || entries.last().is_some_and(|&last| last as usize >= n)
            {
                return Err(SliceError::Rows);
            }
        }
        if !values.iter().all(|value| value.is_finite()) {
            return Err(SliceError::NonFinite);
        }
        Ok(TaskSlice {
            n,
            order,
            columns,
            col_ptr,
            rows,
            values,
        })
    }

    /// The slice of `order`'s columns of `numeric`.  `order` must be a cut
    /// task: in range, duplicate-free, closed under descendants, bottom-up.
    pub(super) fn of_task(numeric: &NumericModel, order: &[usize]) -> TaskSlice {
        let matrix = numeric.matrix();
        let mut columns = order.to_vec();
        columns.sort_unstable();
        let mut col_ptr = Vec::with_capacity(columns.len() + 1);
        col_ptr.push(0);
        let (mut rows, mut values) = (Vec::new(), Vec::new());
        for &column in &columns {
            let (column_rows, column_values) = matrix.column(column);
            rows.extend_from_slice(column_rows);
            values.extend_from_slice(column_values);
            col_ptr.push(rows.len());
        }
        TaskSlice {
            n: matrix.n(),
            order: order.to_vec(),
            columns,
            col_ptr,
            rows,
            values,
        }
    }

    /// [`of_task`](Self::of_task) for an `order` from anywhere: an index out
    /// of range or named twice is an invalid configuration, and an order
    /// that leaves out a descendant or puts a parent before its child is
    /// the kernel's invalid traversal — the slice of such an order would
    /// factor to wrong values rather than fail.
    pub(super) fn of_order(
        numeric: &NumericModel,
        order: &[usize],
    ) -> Result<TaskSlice, EngineError> {
        let structure = numeric.structure();
        let n = structure.n();
        let mut position = vec![usize::MAX; n];
        for (step, &column) in order.iter().enumerate() {
            if column >= n {
                return Err(EngineError::InvalidConfig(format!(
                    "subtree column {column} is out of range for an n = {n} problem"
                )));
            }
            if std::mem::replace(&mut position[column], step) != usize::MAX {
                return Err(EngineError::InvalidConfig(format!(
                    "subtree column {column} appears twice in the task order"
                )));
            }
        }
        let bottom_up = order.iter().enumerate().all(|(step, &column)| {
            structure
                .children(column)
                .iter()
                .all(|&child| position[child as usize] < step)
        });
        if !bottom_up {
            return Err(FactorizationError::InvalidTraversal.into());
        }
        Ok(TaskSlice::of_task(numeric, order))
    }

    /// Dimension of the whole problem.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The task's bottom-up column order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Stored entries of each column, by increasing column.
    pub fn counts(&self) -> impl Iterator<Item = usize> + '_ {
        self.col_ptr.windows(2).map(|range| range[1] - range[0])
    }

    /// Row indices of every column's lower triangle, column after column.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The values parallel to [`rows`](Self::rows).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Factor the task: its factor values in task order and the root
    /// blocks it leaves for the merge, keyed by global column.
    pub fn factor(&self, cancel: Option<&CancelToken>) -> Result<SubtreeParts, EngineError> {
        Ok(self.factor_measured(cancel)?.0)
    }

    /// [`factor`](Self::factor), also handing back the peak live entries
    /// the kernel reported to its (unbounded) ledger.
    pub fn factor_measured(
        &self,
        cancel: Option<&CancelToken>,
    ) -> Result<(SubtreeParts, u64), EngineError> {
        let (global, matrix, structure) = self.localized();
        // The task's values, packed column after column in task order.
        let order: Vec<usize> = self
            .order
            .iter()
            .map(|&column| global.partition_point(|&g| (g as usize) < column))
            .collect();
        let mut values = vec![0.0; order.iter().map(|&at| structure.rows(at).len()).sum()];
        let mut part = FactorColumns::packed(&structure, &order, &mut values)?;
        let ledger = BudgetLedger::new(None);
        let context = TaskContext {
            matrix: &matrix,
            structure: &structure,
            ledger: &ledger,
            cancel,
        };
        let (mut roots, arena) = (ContributionStore::new(), &mut FrontArena::new());
        context.factor(&mut part, &mut roots, arena)?;
        let mut blocks = ContributionStore::new();
        for (at, block) in roots {
            blocks.insert(global[at] as usize, block);
        }
        let parts = SubtreeParts { values, blocks };
        Ok((parts, ledger.measured_peak_entries()))
    }

    /// The slice renumbered onto the increasing union of its rows (each
    /// column's first row is the column itself), which keeps the order of
    /// indices and so each column's rows in theirs: the union, the matrix
    /// whose columns outside the task are empty, and its structure.
    fn localized(&self) -> (Vec<u32>, SymmetricCsr, SymbolicStructure) {
        let mut global = self.rows.clone();
        global.sort_unstable();
        global.dedup();
        let local = |index: u32| global.partition_point(|&g| g < index);
        let m = global.len();
        let mut col_ptr = vec![0; m + 1];
        for (index, &column) in self.columns.iter().enumerate() {
            col_ptr[local(column as u32) + 1] = self.col_ptr[index + 1] - self.col_ptr[index];
        }
        for at in 0..m {
            col_ptr[at + 1] += col_ptr[at];
        }
        let rows = self.rows.iter().map(|&row| local(row) as u32).collect();
        // `new` and `of_task` establish `from_csc`'s precondition: each
        // column's rows increase from its diagonal below n.
        let matrix = SymmetricCsr::from_csc(m, col_ptr, rows, self.values.clone());
        let structure = SymbolicStructure::from_pattern(&matrix.pattern());
        (global, matrix, structure)
    }
}

#[cfg(test)]
mod tests {
    use super::super::numeric::TaskContext;
    use super::*;
    use crate::config::{DistributedConfig, EngineConfig};
    use crate::Engine;
    use multifrontal::parallel::column_slices;
    use ordering::OrderingMethod;
    use sparsemat::gen::ProblemKind;

    /// Every task of an 8-task cut, for every problem kind × {nd, amd} ×
    /// amalgamation {1, 16}: the task is closed under descendants, the tree
    /// derived from its slice gives every task column its plan parent (task
    /// roots included), and the slice factors to the bits the plan's whole
    /// structure writes into the factor — values column by column in task
    /// order, root blocks (lower triangles) — with the same ledger peak.
    #[test]
    fn slices_factor_bit_identically_to_the_whole_structure() {
        let engine = Engine::new();
        let mut tasks = 0;
        for kind in ProblemKind::ALL {
            for ordering in [
                OrderingMethod::NestedDissection,
                OrderingMethod::MinimumDegree,
            ] {
                for amalgamation in [1, 16] {
                    let config = EngineConfig::generated(kind, 600, 3)
                        .with_ordering(ordering)
                        .with_amalgamation(amalgamation)
                        .with_numeric(true)
                        .with_distributed(DistributedConfig::with_tasks(8));
                    let plan = engine.plan(&config).unwrap();
                    let cut = plan
                        .schedule(&engine)
                        .unwrap()
                        .distributed_cut(&engine)
                        .unwrap();
                    let numeric = plan.numeric_model().unwrap();
                    let structure = numeric.structure();
                    // The tasks' columns of one factor-shaped array, and the
                    // rest of it for the columns above the cut.
                    let mut parts: Vec<&[usize]> =
                        (0..cut.task_count()).map(|t| cut.task_order(t)).collect();
                    let mut above = vec![true; structure.n()];
                    for &column in parts.concat().iter() {
                        above[column] = false;
                    }
                    let above: Vec<usize> = (0..structure.n()).filter(|&j| above[j]).collect();
                    parts.push(&above);
                    let mut values = vec![f64::NAN; structure.factor_nnz()];
                    let mut parts = column_slices(structure, &mut values, parts).unwrap();
                    for (task, part) in parts.iter_mut().take(cut.task_count()).enumerate() {
                        let cell = format!("{kind:?} {ordering:?} {amalgamation} task {task}");
                        let slice = cut.task_slice(task);
                        for &column in &slice.columns {
                            for &child in structure.children(column) {
                                let child = child as usize;
                                assert!(slice.columns.binary_search(&child).is_ok(), "{cell}");
                            }
                        }
                        let (global, _, local) = slice.localized();
                        for &column in &slice.columns {
                            let at = global.binary_search(&(column as u32)).unwrap();
                            let derived =
                                local.etree.parent(at).map(|parent| global[parent] as usize);
                            assert_eq!(derived, structure.etree.parent(column), "{cell}");
                        }
                        let ledger = BudgetLedger::new(None);
                        let context = TaskContext {
                            matrix: numeric.matrix(),
                            structure,
                            ledger: &ledger,
                            cancel: None,
                        };
                        let mut whole = ContributionStore::new();
                        let arena = &mut FrontArena::new();
                        context.factor(part, &mut whole, arena).unwrap();
                        let (sliced, peak) = slice.factor_measured(None).unwrap();
                        assert_eq!(peak, ledger.measured_peak_entries(), "{cell}");
                        let bits = |values: &[f64]| -> Vec<u64> {
                            values.iter().map(|value| value.to_bits()).collect()
                        };
                        assert_eq!(
                            bits(&sliced.values),
                            bits(&part.columns().concat()),
                            "{cell}"
                        );
                        let blocks = |store: &ContributionStore| -> Vec<(usize, usize, Vec<u64>)> {
                            store
                                .iter()
                                .map(|(column, block)| {
                                    let n = block.n();
                                    let lower = (0..n)
                                        .flat_map(|j| (j..n).map(move |i| block.get(i, j)))
                                        .map(f64::to_bits)
                                        .collect();
                                    (column, n, lower)
                                })
                                .collect()
                        };
                        assert_eq!(blocks(&sliced.blocks), blocks(&whole), "{cell}");
                        tasks += 1;
                    }
                }
            }
        }
        assert!(tasks >= 7 * 2 * 2 * 2, "{tasks} tasks checked");
    }

    /// Whether the tree derived from `slice` hangs a column outside the
    /// task under a task column.
    fn hangs_an_outside_column(slice: &TaskSlice) -> bool {
        let (global, _, structure) = slice.localized();
        let inside = |at: usize| slice.columns.binary_search(&(global[at] as usize)).is_ok();
        (0..global.len())
            .any(|at| inside(at) && structure.children(at).iter().any(|&c| !inside(c as usize)))
    }

    /// Row mutants of every task of a real 4-task cut of every kind: each
    /// column without its last row, each column with a row added between
    /// its last row and n (the next index, the least task column past it,
    /// and n − 1), and each task's order reversed.  Every mutant is refused
    /// by `new`, or factors, or fails typed — never a panic.  A reversed
    /// order with a parent inside its task is an invalid traversal, and so
    /// is every mutant whose derived tree hangs a column outside the task
    /// under a task column; every kind with a task that is not one range
    /// of columns has such a mutant.
    #[test]
    fn mutated_rows_of_real_slices_are_typed_errors() {
        let engine = Engine::new();
        let invalid = |outcome: &Result<SubtreeParts, EngineError>| {
            matches!(
                outcome,
                Err(EngineError::Factorization(
                    FactorizationError::InvalidTraversal
                ))
            )
        };
        let mut factored = 0;
        for kind in ProblemKind::ALL {
            let config = EngineConfig::generated(kind, 200, 1)
                .with_numeric(true)
                .with_distributed(DistributedConfig::with_tasks(4));
            let plan = engine.plan(&config).unwrap();
            let cut = plan
                .schedule(&engine)
                .unwrap()
                .distributed_cut(&engine)
                .unwrap();
            let parent = |column| {
                plan.numeric_model()
                    .unwrap()
                    .structure()
                    .etree
                    .parent(column)
            };
            let mut hung = 0;
            for task in 0..cut.task_count() {
                let slice = cut.task_slice(task);
                let n = slice.n;
                let inner = slice
                    .columns
                    .iter()
                    .any(|&j| parent(j).is_some_and(|p| slice.columns.contains(&p)));
                let mut reversed = slice.clone();
                reversed.order.reverse();
                let outcome = reversed.factor(None);
                assert_eq!(
                    invalid(&outcome),
                    inner,
                    "{kind:?} task {task}: {outcome:?}"
                );

                let mutant = |k: usize, row: Option<usize>| {
                    let mut counts: Vec<usize> = slice.counts().collect();
                    let (mut rows, mut values) = (slice.rows.clone(), slice.values.clone());
                    let end = slice.col_ptr[k + 1];
                    match row {
                        Some(row) => {
                            counts[k] += 1;
                            rows.insert(end, row as u32);
                            values.insert(end, 1e-3);
                        }
                        None => {
                            counts[k] -= 1;
                            rows.remove(end - 1);
                            values.remove(end - 1);
                        }
                    }
                    TaskSlice::new(n, slice.order.clone(), &counts, rows, values)
                };
                for (k, &column) in slice.columns.iter().enumerate() {
                    let last = slice.rows[slice.col_ptr[k + 1] - 1] as usize;
                    let past = slice.columns.iter().find(|&&j| j > last).copied();
                    let mut added = vec![last + 1, n - 1];
                    added.extend(past);
                    added.retain(|&row| row > last && row < n);
                    added.sort_unstable();
                    added.dedup();
                    let mutants = added.into_iter().map(Some).chain([None]);
                    for row in mutants {
                        let Ok(mutant) = mutant(k, row) else {
                            assert!(row.is_none() && last == column, "{kind:?} {column}");
                            continue;
                        };
                        let outcome = mutant.factor(None);
                        if hangs_an_outside_column(&mutant) {
                            assert!(invalid(&outcome), "{kind:?} {column} {row:?}: {outcome:?}");
                            hung += 1;
                        }
                        factored += 1;
                    }
                }
            }
            // Over a task whose columns are one range, no added row hangs
            // an outside column: one below the range is in no row, and one
            // above it lies above every task column.
            let ranges = (0..cut.task_count()).all(|task| {
                let columns = cut.task_slice(task).columns;
                columns.last().map_or(0, |last| last + 1 - columns[0]) == columns.len()
            });
            assert!(
                ranges || hung > 0,
                "{kind:?}: no mutant hangs an outside column"
            );
        }
        assert!(factored > 1000, "{factored} mutants factored");
    }

    fn valid() -> TaskSlice {
        // Columns 1 → 2 (a chain below column 4), n = 5.
        TaskSlice::new(
            5,
            vec![1, 2],
            &[2, 2],
            vec![1, 2, 2, 4],
            vec![4.0, -1.0, 4.0, -1.0],
        )
        .unwrap()
    }

    /// An edit of a slice's arrays, its counts included.
    type Edit = dyn Fn(&mut TaskSlice, &mut Vec<usize>);

    #[test]
    fn hostile_slices_are_typed_errors() {
        let slice = valid();
        let rebuild = |edit: &Edit| {
            let mut slice = slice.clone();
            let mut counts: Vec<usize> = slice.counts().collect();
            edit(&mut slice, &mut counts);
            TaskSlice::new(slice.n, slice.order, &counts, slice.rows, slice.values)
        };
        assert_eq!(rebuild(&|_, _| {}), Ok(slice.clone()));
        let cases: [(&str, &Edit, SliceError); 10] = [
            // Refused by the dimension alone, before any other check.
            (
                "n past u32",
                &|s, _| s.n = MAX_DIMENSION + 1,
                SliceError::Dimension,
            ),
            (
                "n = usize::MAX",
                &|s, _| s.n = usize::MAX,
                SliceError::Dimension,
            ),
            ("row ≥ n", &|s, _| s.rows[3] = 5, SliceError::Rows),
            ("no diagonal", &|s, _| s.rows[0] = 0, SliceError::Rows),
            ("foreign column", &|s, _| s.order[1] = 3, SliceError::Rows),
            ("column twice", &|s, _| s.order[1] = 1, SliceError::Columns),
            ("column ≥ n", &|s, _| s.order[1] = 5, SliceError::Columns),
            (
                "non-finite",
                &|s, _| s.values[0] = f64::NAN,
                SliceError::NonFinite,
            ),
            ("counts", &|_, c| c[0] = 3, SliceError::Counts),
            ("overflow", &|_, c| c[0] = usize::MAX, SliceError::Counts),
        ];
        for (name, edit, expected) in cases {
            assert_eq!(rebuild(edit), Err(expected), "{name}");
        }
        // A slice of the right shape whose derived tree the order does not
        // factor bottom-up passes `new` and fails at factor time, typed:
        // the parent ordered first, or a column outside the task (1, below
        // column 0's rows) hung under a task column (2).
        let traversals: [(&str, &Edit); 2] = [
            ("parent first", &|s, _| s.order = vec![2, 1]),
            ("outside column hung", &|s, c| {
                s.order = vec![0, 2];
                s.rows = vec![0, 1, 2, 2, 4];
                s.values = vec![4.0, -1.0, -1.0, 4.0, -1.0];
                *c = vec![3, 2];
            }),
        ];
        for (name, edit) in traversals {
            let error = rebuild(edit).unwrap().factor(None).err();
            assert!(
                matches!(
                    error,
                    Some(EngineError::Factorization(
                        FactorizationError::InvalidTraversal
                    ))
                ),
                "{name}: {error:?}"
            );
        }
        let (parts, _) = slice.factor_measured(None).unwrap();
        assert_eq!(parts.values.len(), 4);
        assert_eq!(
            parts
                .blocks
                .iter()
                .map(|(c, b)| (c, b.n()))
                .collect::<Vec<_>>(),
            [(2, 1)]
        );
    }
}
