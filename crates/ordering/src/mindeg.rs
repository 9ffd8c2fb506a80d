//! Quotient-graph minimum-degree ordering (the AMD family).
//!
//! The algorithm repeatedly eliminates a variable of (approximately) minimum
//! degree.  Instead of forming the fill edges explicitly — which would make
//! every step quadratic — the eliminated variables are kept as *elements*: the
//! neighbourhood of a variable is the union of its remaining variable
//! neighbours and of the variables of the elements adjacent to it, exactly as
//! in the classical quotient-graph formulation of Amestoy, Davis and Duff.
//! Degrees are maintained with the standard upper-bound approximation
//! `|A_i| + Σ_{e ∈ E_i} (|L_e| − 1)`, which is what makes the method
//! "approximate" minimum degree; elements absorbed by a new element are
//! removed so the lists stay compact.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sparsemat::SparsePattern;

use crate::perm::Permutation;

/// How many eliminations (or, in RCM, visited vertices) happen between two
/// stop-probe checks.  Probes are a dynamic call, so they are amortised over
/// a batch of pivots; at typical elimination rates this bounds the
/// cancellation latency well below a millisecond.
pub(crate) const STOP_CHECK_INTERVAL: usize = 256;

/// Compute a minimum-degree ordering of `pattern`.
///
/// Returns the elimination order in new-to-old convention.  Deterministic:
/// ties are broken by vertex index.
pub fn minimum_degree(pattern: &SparsePattern) -> Permutation {
    minimum_degree_with_stop(pattern, None).expect("no stop probe, cannot be cancelled")
}

/// [`minimum_degree`] with a cooperative stop probe, checked every 256
/// eliminations.  Returns `None` — discarding all
/// partial work — as soon as the probe reports `true`.  Reached from
/// outside the crate through `OrderingMethod::order_with_stop`.
pub(crate) fn minimum_degree_with_stop(
    pattern: &SparsePattern,
    stop: Option<&(dyn Fn() -> bool + Sync)>,
) -> Option<Permutation> {
    let mut scratch = MinDegree::default();
    scratch.clear();
    for v in 0..pattern.n() {
        scratch.push_row(pattern.neighbors(v).iter().map(|&w| w as usize));
    }
    scratch.run(stop)?;
    Some(Permutation::from_new_to_old(scratch.order().to_vec()))
}

/// The quotient graph of a minimum-degree run, kept between runs: nested
/// dissection orders thousands of small leaves and separators through one
/// of these, and once its buffers have grown to the largest of them a run
/// allocates nothing.
///
/// Every variable `v` owns the segment `start[v]..start[v + 1]` of
/// `adjacency`, as long as its degree in the loaded graph.  Its variable
/// neighbours `A_v` sit at the front of the segment and its adjacent
/// elements `E_v` at the back.  When `v` joins a new element `L_p`,
/// `|A_v| + |E_v|` cannot grow: either `p ∈ A_v`, and `p` leaves `A_v` as it
/// is eliminated, or `v ∈ L_e` for an element `e ∈ E_p ∩ E_v` that `L_p`
/// absorbs.  So the two lists never outgrow the segment.  The members of
/// the elements are appended to one pool, `members`.
///
/// The lists are sets: what the run reads of them — membership, the
/// sorted new element, lengths — does not depend on their order, which is
/// why this layout returns the same order as a list per variable.
#[derive(Default)]
pub(crate) struct MinDegree {
    start: Vec<usize>,
    adjacency: Vec<usize>,
    /// `|A_v|`.
    variables: Vec<usize>,
    /// `|E_v|`.
    elements: Vec<usize>,
    /// Element `e`'s variables `L_e` are `members[member_start[e]..]`, the
    /// first `member_len[e]` of them (none once `e` is absorbed).
    members: Vec<usize>,
    member_start: Vec<usize>,
    member_len: Vec<usize>,
    eliminated: Vec<bool>,
    absorbed: Vec<bool>,
    degree: Vec<usize>,
    stamp: Vec<usize>,
    heap: BinaryHeap<Reverse<(usize, usize)>>,
    /// The element being built.
    element: Vec<usize>,
    order: Vec<usize>,
}

impl MinDegree {
    /// Start loading a new graph; its rows follow through
    /// [`MinDegree::push_row`].
    pub(crate) fn clear(&mut self) {
        self.start.clear();
        self.start.push(0);
        self.adjacency.clear();
    }

    /// Append the row of the next vertex: its neighbours, each once, without
    /// the vertex itself, in any order.
    pub(crate) fn push_row(&mut self, neighbours: impl IntoIterator<Item = usize>) {
        self.adjacency.extend(neighbours);
        self.start.push(self.adjacency.len());
    }

    /// The order of the last [`MinDegree::run`], in new-to-old convention
    /// and the loaded graph's labels.
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// Order the loaded graph by minimum degree, ties broken by label.
    /// `None` if the stop probe fired.
    pub(crate) fn run(&mut self, stop: Option<&(dyn Fn() -> bool + Sync)>) -> Option<()> {
        let MinDegree {
            start,
            adjacency,
            variables,
            elements,
            members,
            member_start,
            member_len,
            eliminated,
            absorbed,
            degree,
            stamp,
            heap,
            element,
            order,
        } = self;
        let n = start.len() - 1;
        variables.clear();
        variables.extend(start.windows(2).map(|row| row[1] - row[0]));
        degree.clear();
        degree.extend_from_slice(variables);
        for list in [&mut *elements, &mut *member_start, &mut *member_len] {
            list.clear();
            list.resize(n, 0);
        }
        for flags in [&mut *eliminated, &mut *absorbed] {
            flags.clear();
            flags.resize(n, false);
        }
        stamp.clear();
        stamp.resize(n, usize::MAX);
        members.clear();
        heap.clear();
        heap.extend(degree.iter().enumerate().map(|(v, &d)| Reverse((d, v))));
        order.clear();

        while order.len() < n {
            if order.len() % STOP_CHECK_INTERVAL == 0 && stop.is_some_and(|probe| probe()) {
                return None;
            }
            // Pop the variable with the smallest (cached) degree, skipping
            // stale heap entries.
            let pivot = loop {
                let Reverse((cached_degree, candidate)) = heap.pop().expect("heap cannot be empty");
                if eliminated[candidate] || cached_degree != degree[candidate] {
                    continue;
                }
                break candidate;
            };
            eliminated[pivot] = true;
            order.push(pivot);

            // Build the element L_pivot = (A_pivot ∪ ⋃_{e ∈ E_pivot} L_e) \ eliminated.
            let mark = order.len();
            element.clear();
            let (front, back) = (start[pivot], start[pivot + 1]);
            for &v in &adjacency[front..front + variables[pivot]] {
                if !eliminated[v] && stamp[v] != mark {
                    stamp[v] = mark;
                    element.push(v);
                }
            }
            for &e in &adjacency[back - elements[pivot]..back] {
                if absorbed[e] {
                    continue;
                }
                for &v in &members[member_start[e]..][..member_len[e]] {
                    if !eliminated[v] && stamp[v] != mark {
                        stamp[v] = mark;
                        element.push(v);
                    }
                }
                // The old element is absorbed by the new one.
                absorbed[e] = true;
                member_len[e] = 0;
            }
            element.sort_unstable();

            // Update every variable of the new element.
            for &v in element.iter() {
                let (front, back) = (start[v], start[v + 1]);
                // Remove variable neighbours that are covered by the new
                // element (they are reachable through it) and eliminated ones.
                let mut kept = front;
                for k in front..front + variables[v] {
                    let w = adjacency[k];
                    if !eliminated[w] && stamp[w] != mark {
                        adjacency[kept] = w;
                        kept += 1;
                    }
                }
                variables[v] = kept - front;
                // Remove absorbed elements, add the new one.
                let mut first = back;
                for k in (back - elements[v]..back).rev() {
                    let e = adjacency[k];
                    if !absorbed[e] {
                        first -= 1;
                        adjacency[first] = e;
                    }
                }
                assert!(kept < first, "the lists of {v} outgrew its segment");
                first -= 1;
                adjacency[first] = pivot;
                elements[v] = back - first;
                // Approximate (upper bound) external degree; the new element
                // is not stored yet.
                let mut approx = variables[v];
                for &e in &adjacency[first..back] {
                    let len = if e == pivot {
                        element.len()
                    } else {
                        member_len[e]
                    };
                    approx += len.saturating_sub(1);
                }
                let approx = approx.min(n - order.len());
                if approx != degree[v] {
                    degree[v] = approx;
                    heap.push(Reverse((approx, v)));
                }
            }
            member_start[pivot] = members.len();
            member_len[pivot] = element.len();
            members.extend_from_slice(element);
            variables[pivot] = 0;
            elements[pivot] = 0;
        }
        Some(())
    }

    /// Elements the scratch's buffers can hold without growing.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        [
            &self.start,
            &self.adjacency,
            &self.variables,
            &self.elements,
            &self.members,
            &self.member_start,
            &self.member_len,
            &self.degree,
            &self.stamp,
            &self.element,
            &self.order,
        ]
        .iter()
        .map(|list| list.capacity())
        .sum::<usize>()
            + self.eliminated.capacity()
            + self.absorbed.capacity()
            + self.heap.capacity()
    }
}

/// Exact number of nonzeros of the Cholesky factor (including the diagonal)
/// for a given elimination order, computed by symbolic elimination on the
/// quotient graph.  Used to compare the quality of orderings in tests and
/// experiments (smaller is better).
pub fn fill_in(pattern: &SparsePattern, perm: &Permutation) -> usize {
    let n = pattern.n();
    assert_eq!(perm.len(), n);
    let permuted = perm.apply(pattern);
    // Symbolic elimination: reach sets via the elimination tree would be
    // cheaper, but an explicit row-merge is simple and exact; we only use it
    // on moderate sizes.
    let mut columns: Vec<Vec<usize>> = permuted.lower_columns();
    let mut total = n; // diagonal
    for j in 0..n {
        columns[j].sort_unstable();
        columns[j].dedup();
        total += columns[j].len();
        if let Some(&first) = columns[j].first() {
            // Merge the remainder of column j into its parent column (the
            // column of the smallest row index below the diagonal).
            let rest: Vec<usize> = columns[j].iter().copied().filter(|&i| i != first).collect();
            columns[first].extend(rest);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::{grid2d_5pt, random_spd_pattern};

    #[test]
    fn orders_every_vertex_exactly_once() {
        let pattern = grid2d_5pt(7, 6);
        let perm = minimum_degree(&pattern);
        assert_eq!(perm.len(), 42);
        let mut seen = [false; 42];
        for k in 0..42 {
            let v = perm.new_to_old(k);
            assert!(!seen[v]);
            seen[v] = true;
        }
    }

    #[test]
    fn star_graph_eliminates_the_centre_late_and_without_fill() {
        // Star: vertex 0 connected to everyone else. Minimum degree must
        // eliminate leaves (degree 1) before the centre (degree n-1); the
        // centre only becomes eligible once its degree has dropped to 1, so
        // it cannot appear before position n-2, and the ordering is fill-free.
        let edges: Vec<(usize, usize)> = (1..8).map(|i| (0, i)).collect();
        let pattern = SparsePattern::from_edges(8, &edges).unwrap();
        let perm = minimum_degree(&pattern);
        assert!(perm.old_to_new(0) >= 6, "centre eliminated too early");
        assert_eq!(
            fill_in(&pattern, &perm),
            2 * 8 - 1,
            "a star admits a fill-free ordering"
        );
    }

    #[test]
    fn path_graph_generates_no_fill() {
        let edges: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let pattern = SparsePattern::from_edges(10, &edges).unwrap();
        let perm = minimum_degree(&pattern);
        // A path ordered by minimum degree has no fill: nnz(L) = 2n - 1.
        assert_eq!(fill_in(&pattern, &perm), 2 * 10 - 1);
    }

    #[test]
    fn beats_the_natural_ordering_on_grids() {
        let pattern = grid2d_5pt(12, 12);
        let md = minimum_degree(&pattern);
        let natural = Permutation::identity(pattern.n());
        let fill_md = fill_in(&pattern, &md);
        let fill_natural = fill_in(&pattern, &natural);
        assert!(
            fill_md < fill_natural,
            "minimum degree ({fill_md}) should beat natural ({fill_natural}) on a grid"
        );
    }

    #[test]
    fn stop_probe_cancels_and_a_quiet_probe_changes_nothing() {
        let pattern = grid2d_5pt(20, 20);
        assert!(minimum_degree_with_stop(&pattern, Some(&|| true)).is_none());
        assert_eq!(
            minimum_degree_with_stop(&pattern, Some(&|| false)),
            Some(minimum_degree(&pattern))
        );
    }

    #[test]
    fn works_on_random_patterns() {
        let pattern = random_spd_pattern(300, 4.0, 17);
        let perm = minimum_degree(&pattern);
        assert_eq!(perm.len(), 300);
        // Determinism.
        assert_eq!(perm, minimum_degree(&pattern));
    }
}
