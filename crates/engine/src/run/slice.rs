//! The task slice: what one subtree task of a cut needs of the problem —
//! its columns of the permuted matrix and their elimination-tree parents —
//! so that anyone holding it factors the task without planning.
//!
//! A task is closed under descendants, so the rows of `L` in its columns
//! follow from its own columns of `A` and the parents alone:
//! [`SymbolicStructure::from_etree`] on the slice, renumbered onto the
//! increasing union of its row indices, yields exactly the rows the plan's
//! structure holds for those columns, in the same order.  The factor then
//! runs the same `factor_columns` over the same values, so its parts are
//! bit-identical to a factor on the whole plan, and the ledger sees the
//! same events.  [`Plan::factor_subtree`](crate::Plan::factor_subtree) is
//! "slice, then factor", so a worker process and an in-process caller run
//! one path.

use multifrontal::numeric::SymbolicStructure;
use multifrontal::parallel::BudgetLedger;
use multifrontal::{ContributionStore, FactorizationError, FrontArena};
use sparsemat::{SparsePattern, SymmetricCsr};
use symbolic::EliminationTree;

use super::numeric::{factor_on, NumericModel, SubtreeParts};
use super::EngineError;
use crate::cancel::CancelToken;

/// One subtree task's slice of the problem: its bottom-up column order, and
/// for each of its columns (by increasing index) the lower triangle of that
/// column of the permuted matrix — row indices and values, diagonal first —
/// and its elimination-tree parent.  Built by
/// [`DistributedCut::task_slice`](crate::DistributedCut::task_slice) or
/// validated by [`TaskSlice::new`]; either way [`TaskSlice::factor`] can
/// index it without a check.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSlice {
    n: usize,
    order: Vec<usize>,
    columns: Vec<usize>,
    col_ptr: Vec<usize>,
    rows: Vec<usize>,
    values: Vec<f64>,
    parents: Vec<Option<usize>>,
}

/// Why a slice is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceError {
    /// The per-column arrays differ in length, or the counts do not add up
    /// to the row and value arrays.
    Counts,
    /// The columns do not increase below `n`, or are not exactly the task
    /// order's columns.
    Columns,
    /// A column's rows do not increase from its own diagonal to below `n`.
    Rows,
    /// A value is NaN or infinite.
    NonFinite,
    /// The parents do not form a subtree factored bottom-up: a parent not
    /// above its child, one inside the task ordered before its child, or
    /// one other than the first row below the diagonal its column's rows
    /// imply.
    Parents,
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt.write_str(match self {
            SliceError::Counts => "the slice's counts disagree",
            SliceError::Columns => "the slice's columns are not the task order's",
            SliceError::Rows => "a slice column's rows do not run from its diagonal below n",
            SliceError::NonFinite => "a slice value is not finite",
            SliceError::Parents => "the slice's parents do not form a bottom-up subtree",
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
    /// dimension, `order` the task's bottom-up column order, and `columns`,
    /// `counts` and `parents` run parallel (one entry per column, by
    /// increasing column) over the concatenated `rows` and `values`.
    pub fn new(
        n: usize,
        order: Vec<usize>,
        columns: Vec<usize>,
        counts: &[usize],
        rows: Vec<usize>,
        values: Vec<f64>,
        parents: Vec<Option<usize>>,
    ) -> Result<TaskSlice, SliceError> {
        let k = columns.len();
        let mut col_ptr = Vec::with_capacity(k + 1);
        col_ptr.push(0usize);
        for &count in counts {
            let end = col_ptr[col_ptr.len() - 1].checked_add(count);
            col_ptr.push(end.ok_or(SliceError::Counts)?);
        }
        if counts.len() != k
            || parents.len() != k
            || order.len() != k
            || col_ptr[k] != rows.len()
            || rows.len() != values.len()
        {
            return Err(SliceError::Counts);
        }
        if columns.windows(2).any(|pair| pair[0] >= pair[1])
            || columns.last().is_some_and(|&last| last >= n)
        {
            return Err(SliceError::Columns);
        }
        // Each column's position in the order: the order must name every
        // column exactly once.
        let mut position = vec![usize::MAX; k];
        for (step, column) in order.iter().enumerate() {
            let Ok(index) = columns.binary_search(column) else {
                return Err(SliceError::Columns);
            };
            if std::mem::replace(&mut position[index], step) != usize::MAX {
                return Err(SliceError::Columns);
            }
        }
        for (index, &column) in columns.iter().enumerate() {
            let entries = &rows[col_ptr[index]..col_ptr[index + 1]];
            if entries.first() != Some(&column)
                || entries.windows(2).any(|pair| pair[0] >= pair[1])
                || entries.last().is_some_and(|&last| last >= n)
            {
                return Err(SliceError::Rows);
            }
        }
        if !values.iter().all(|value| value.is_finite()) {
            return Err(SliceError::NonFinite);
        }
        for (index, (&column, parent)) in columns.iter().zip(&parents).enumerate() {
            let Some(parent) = *parent else { continue };
            let inside = columns.binary_search(&parent).ok();
            if parent <= column
                || parent >= n
                || inside.is_some_and(|above| position[above] < position[index])
            {
                return Err(SliceError::Parents);
            }
        }
        Ok(TaskSlice {
            n,
            order,
            columns,
            col_ptr,
            rows,
            values,
            parents,
        })
    }

    /// The slice of `order`'s columns of `numeric`.  `order` must be a cut
    /// task: in range, duplicate-free, closed under descendants, bottom-up.
    pub(super) fn of_task(numeric: &NumericModel, order: &[usize]) -> TaskSlice {
        let matrix = numeric.matrix();
        let etree = &numeric.structure().etree;
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
        let parents = columns.iter().map(|&column| etree.parent(column)).collect();
        TaskSlice {
            n: matrix.n(),
            order: order.to_vec(),
            columns,
            col_ptr,
            rows,
            values,
            parents,
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
                .all(|&child| position[child] < step)
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

    /// The task's columns, increasing.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Stored entries of each column, parallel to [`columns`](Self::columns).
    pub fn counts(&self) -> impl Iterator<Item = usize> + '_ {
        self.col_ptr.windows(2).map(|range| range[1] - range[0])
    }

    /// Row indices of every column's lower triangle, column after column.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The values parallel to [`rows`](Self::rows).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Each column's elimination-tree parent (`None` for a root of the
    /// whole tree), parallel to [`columns`](Self::columns).
    pub fn parents(&self) -> &[Option<usize>] {
        &self.parents
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
        // Local indices: the increasing union of every row (each column's
        // first row is the column itself) and parent.  The renumbering keeps
        // the order of indices, so each column's rows keep theirs.
        let mut global = self.rows.clone();
        global.extend(self.parents.iter().flatten());
        global.sort_unstable();
        global.dedup();
        let local = |index: usize| global.partition_point(|&g| g < index);
        let m = global.len();

        let mut parent = vec![None; m];
        let mut col_ptr = vec![0; m + 1];
        for (index, &column) in self.columns.iter().enumerate() {
            let at = local(column);
            parent[at] = self.parents[index].map(local);
            col_ptr[at + 1] = self.col_ptr[index + 1] - self.col_ptr[index];
        }
        for at in 0..m {
            col_ptr[at + 1] += col_ptr[at];
        }
        // Columns outside the task are empty, so the rows run in the same
        // column order as the slice's.
        let rows: Vec<usize> = self.rows.iter().map(|&row| local(row)).collect();
        let mut edges = Vec::with_capacity(rows.len());
        for (index, &column) in self.columns.iter().enumerate() {
            let at = local(column);
            let below = &rows[self.col_ptr[index] + 1..self.col_ptr[index + 1]];
            edges.extend(below.iter().map(|&row| (row, at)));
        }
        let pattern = SparsePattern::from_edges(m, &edges);
        // `new` and `of_task` establish both constructors' preconditions:
        // each column's rows increase from its diagonal below n, and each
        // parent lies above its child; the renumbering keeps index order.
        let matrix = SymmetricCsr::from_csc(m, col_ptr, rows, self.values.clone());
        let etree = EliminationTree::from_parents(parent);
        let structure = SymbolicStructure::from_etree(&pattern, etree);
        // A column's parent is the first row below its diagonal.
        let consistent = self.columns.iter().all(|&column| {
            let at = local(column);
            structure.rows(at).get(1).copied() == structure.etree.parent(at)
        });
        if !consistent {
            return Err(SliceError::Parents.into());
        }

        let order: Vec<usize> = self.order.iter().map(|&column| local(column)).collect();
        let ledger = BudgetLedger::new(None);
        let local_parts = factor_on(
            &matrix,
            &structure,
            &order,
            ContributionStore::new(),
            &ledger,
            &mut FrontArena::new(),
            cancel,
        )?;
        let mut blocks = ContributionStore::new();
        for (at, block) in local_parts.blocks {
            blocks.insert(global[at], block);
        }
        let parts = SubtreeParts {
            values: local_parts.values,
            blocks,
        };
        Ok((parts, ledger.measured_peak_entries()))
    }
}

#[cfg(test)]
mod tests {
    use super::super::numeric::TaskContext;
    use super::*;
    use crate::config::{DistributedConfig, EngineConfig};
    use crate::Engine;
    use ordering::OrderingMethod;
    use sparsemat::gen::ProblemKind;

    /// Every task of an 8-task cut, for every problem kind × {nd, amd} ×
    /// amalgamation {1, 16}: the slice factors to the bits the plan's whole
    /// structure gives — values, root blocks (lower triangles) — with the
    /// same ledger peak.
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
                    for task in 0..cut.task_count() {
                        let cell = format!("{kind:?} {ordering:?} {amalgamation} task {task}");
                        let ledger = BudgetLedger::new(None);
                        let context = TaskContext {
                            numeric: &numeric,
                            ledger: &ledger,
                            cancel: None,
                        };
                        let whole = context
                            .factor(
                                cut.task_order(task),
                                ContributionStore::new(),
                                &mut FrontArena::new(),
                            )
                            .unwrap();
                        let (sliced, peak) = cut.task_slice(task).factor_measured(None).unwrap();
                        assert_eq!(peak, ledger.measured_peak_entries(), "{cell}");
                        let bits = |values: &[f64]| -> Vec<u64> {
                            values.iter().map(|value| value.to_bits()).collect()
                        };
                        assert_eq!(bits(&sliced.values), bits(&whole.values), "{cell}");
                        let blocks = |parts: &SubtreeParts| -> Vec<(usize, usize, Vec<u64>)> {
                            parts
                                .blocks
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
                        assert_eq!(blocks(&sliced), blocks(&whole), "{cell}");
                        tasks += 1;
                    }
                }
            }
        }
        assert!(tasks >= 7 * 2 * 2 * 2, "{tasks} tasks checked");
    }

    fn valid() -> TaskSlice {
        // Columns 1 → 2 (a chain below column 4), n = 5.
        TaskSlice::new(
            5,
            vec![1, 2],
            vec![1, 2],
            &[2, 2],
            vec![1, 2, 2, 4],
            vec![4.0, -1.0, 4.0, -1.0],
            vec![Some(2), Some(4)],
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
            TaskSlice::new(
                slice.n,
                slice.order,
                slice.columns,
                &counts,
                slice.rows,
                slice.values,
                slice.parents,
            )
        };
        assert_eq!(rebuild(&|_, _| {}), Ok(slice.clone()));
        let cases: [(&str, &Edit, SliceError); 9] = [
            ("row ≥ n", &|s, _| s.rows[3] = 5, SliceError::Rows),
            ("no diagonal", &|s, _| s.rows[0] = 0, SliceError::Rows),
            (
                "column not ordered",
                &|s, _| s.order[1] = 3,
                SliceError::Columns,
            ),
            ("column twice", &|s, _| s.order[1] = 1, SliceError::Columns),
            (
                "parent below",
                &|s, _| s.parents[1] = Some(1),
                SliceError::Parents,
            ),
            (
                "parent first",
                &|s, _| s.order = vec![2, 1],
                SliceError::Parents,
            ),
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
        // A parent the rows contradict passes the cheap checks and fails at
        // factor time, typed.
        let contradicted = rebuild(&|s, _| s.parents[1] = Some(3)).unwrap();
        assert!(matches!(
            contradicted.factor(None),
            Err(EngineError::InvalidConfig(_))
        ));
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
