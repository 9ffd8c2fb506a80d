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
    stop: Option<&dyn Fn() -> bool>,
) -> Option<Permutation> {
    let n = pattern.n();
    if n == 0 {
        return Some(Permutation::identity(0));
    }

    // Variable adjacency (to other variables) and element adjacency.
    let mut variable_adjacency: Vec<Vec<usize>> =
        (0..n).map(|i| pattern.neighbors(i).to_vec()).collect();
    let mut element_adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    // For every eliminated pivot p, the variables of its element L_p.
    let mut element_vars: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut eliminated = vec![false; n];
    let mut absorbed = vec![false; n];
    let mut degree: Vec<usize> = (0..n).map(|i| pattern.degree(i)).collect();

    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|i| Reverse((degree[i], i))).collect();
    let mut order = Vec::with_capacity(n);
    let mut stamp = vec![usize::MAX; n];

    while order.len() < n {
        if order.len() % STOP_CHECK_INTERVAL == 0 {
            if let Some(stop) = stop {
                if stop() {
                    return None;
                }
            }
        }
        // Pop the variable with the smallest (cached) degree, skipping stale
        // heap entries.
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
        let mut element: Vec<usize> = Vec::new();
        for &v in &variable_adjacency[pivot] {
            if !eliminated[v] && stamp[v] != mark {
                stamp[v] = mark;
                element.push(v);
            }
        }
        for &e in &element_adjacency[pivot] {
            if absorbed[e] {
                continue;
            }
            for &v in &element_vars[e] {
                if !eliminated[v] && stamp[v] != mark {
                    stamp[v] = mark;
                    element.push(v);
                }
            }
            // The old element is absorbed by the new one.
            absorbed[e] = true;
            element_vars[e].clear();
        }
        element.sort_unstable();

        // Update every variable of the new element.
        for &v in &element {
            // Remove variable neighbours that are covered by the new element
            // (they are reachable through it) and eliminated/absorbed ones.
            variable_adjacency[v].retain(|&w| !eliminated[w] && stamp[w] != mark);
            // Remove absorbed elements, add the new one.
            element_adjacency[v].retain(|&e| !absorbed[e]);
            element_adjacency[v].push(pivot);
            // Approximate (upper bound) external degree.
            let mut approx = variable_adjacency[v].len();
            for &e in &element_adjacency[v] {
                approx += element_vars_len(&element_vars, &element, pivot, e).saturating_sub(1);
            }
            let approx = approx.min(n - order.len());
            if approx != degree[v] {
                degree[v] = approx;
                heap.push(Reverse((approx, v)));
            }
        }
        element_vars[pivot] = element;
        variable_adjacency[pivot].clear();
        element_adjacency[pivot].clear();
    }

    Some(Permutation::from_new_to_old(order))
}

/// Length of the variable list of element `e`, taking into account that the
/// element being built (`pivot`) is not stored yet.
fn element_vars_len(
    element_vars: &[Vec<usize>],
    pending_element: &[usize],
    pivot: usize,
    e: usize,
) -> usize {
    if e == pivot {
        pending_element.len()
    } else {
        element_vars[e].len()
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
        let pattern = SparsePattern::from_edges(8, &edges);
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
        let pattern = SparsePattern::from_edges(10, &edges);
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
