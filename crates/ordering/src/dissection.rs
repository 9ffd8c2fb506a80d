//! Nested dissection with BFS level-set separators.
//!
//! This is the algorithm family of MeTiS (which the paper uses through the
//! MeshPart toolbox): recursively find a small vertex separator, order the
//! two halves first and the separator last.  Separators are taken as a middle
//! BFS level from a pseudo-peripheral vertex — simpler than multilevel
//! partitioning but it produces the same kind of bushy, balanced elimination
//! trees on discretisation meshes, which is what matters for the shape of the
//! assembly trees.
//!
//! The recursion is an explicit work stack over one private `Workspace`, so a step
//! costs O(its component) in time and nothing in call-stack depth.

use sparsemat::SparsePattern;

use crate::perm::Permutation;
use crate::workspace::Workspace;

/// Subgraphs smaller than this are ordered directly with minimum degree.
pub(crate) const DISSECTION_CUTOFF: usize = 32;

/// Compute a nested-dissection ordering of `pattern`.
pub fn nested_dissection(pattern: &SparsePattern) -> Permutation {
    nested_dissection_with_stop(pattern, None).expect("no stop probe, cannot be cancelled")
}

/// [`nested_dissection`] with a cooperative stop probe, checked at every
/// recursion step and inside the leaf minimum-degree orderings.  Returns
/// `None` — discarding all partial work — as soon as the probe fires.
/// Reached from outside the crate through `OrderingMethod::order_with_stop`.
pub(crate) fn nested_dissection_with_stop(
    pattern: &SparsePattern,
    stop: Option<&dyn Fn() -> bool>,
) -> Option<Permutation> {
    dissect(&mut Workspace::new(pattern), stop).map(Permutation::from_new_to_old)
}

/// Where a set of vertices on the work stack stands.
#[derive(PartialEq)]
enum State {
    /// Active vertices with no active neighbour outside the set.
    Unsplit,
    /// The same, and known to be one connected piece.
    Connected,
    /// A removed separator, ordered once everything it separates is.
    Separator,
}

/// Order every vertex of the workspace's pattern, separators last.  `None`
/// means the stop probe fired.
pub(crate) fn dissect(
    ws: &mut Workspace<'_>,
    stop: Option<&dyn Fn() -> bool>,
) -> Option<Vec<usize>> {
    let n = ws.pattern.n();
    let mut order = Vec::with_capacity(n);
    // Popped innermost first: a separator sits below the pieces it separates.
    let mut work = vec![((0..n).collect::<Vec<usize>>(), State::Unsplit)];
    while let Some((component, state)) = work.pop() {
        if state != State::Separator && stop.is_some_and(|probe| probe()) {
            return None;
        }
        if state == State::Separator || component.len() <= DISSECTION_CUTOFF {
            order_with_minimum_degree(ws, &component, &mut order, stop)?;
            continue;
        }
        // Split into connected pieces first (the input graph may be
        // disconnected; what a separator leaves behind is split below).
        if state == State::Unsplit {
            let pieces = ws.pieces(&component);
            if pieces.len() > 1 {
                work.extend(pieces.into_iter().rev().map(|p| (p, State::Connected)));
                continue;
            }
        }

        // One connected piece: the separator is the middle BFS level of a
        // pseudo-peripheral vertex.
        let (_, eccentricity) = ws.pseudo_peripheral(component[0]);
        let middle = eccentricity / 2;
        let separator: Vec<usize> = component
            .iter()
            .copied()
            .filter(|&v| ws.marked(v) == Some(middle))
            .collect();
        // A dense little blob (eccentricity < 2) has no useful separator.
        if eccentricity < 2 || separator.is_empty() || separator.len() == component.len() {
            order_with_minimum_degree(ws, &component, &mut order, stop)?;
            continue;
        }

        // Deactivate the separator, order what remains, then the separator
        // itself last (with minimum degree among its own vertices).
        for &v in &separator {
            ws.active[v] = false;
        }
        // The BFS reached every vertex of the component: its marks are the
        // membership tags of the split.
        let pieces = ws.tagged_pieces(&component);
        work.push((separator, State::Separator));
        work.extend(pieces.into_iter().rev().map(|p| (p, State::Connected)));
    }
    debug_assert_eq!(order.len(), n);
    Some(order)
}

/// Order the induced subgraph on `vertices` with minimum degree and append
/// the result (in original labels) to `order`.  `None` if the stop probe
/// fired.
fn order_with_minimum_degree(
    ws: &mut Workspace<'_>,
    vertices: &[usize],
    order: &mut Vec<usize>,
    stop: Option<&dyn Fn() -> bool>,
) -> Option<()> {
    if vertices.len() <= 1 {
        order.extend_from_slice(vertices);
        return Some(());
    }
    let local = ws.order_induced(vertices, stop)?;
    order.extend(local.iter().map(|&k| vertices[k]));
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mindeg::{fill_in, minimum_degree};
    use sparsemat::gen::{grid2d_5pt, grid3d_7pt, random_spd_pattern};

    #[test]
    fn orders_every_vertex_exactly_once() {
        for pattern in [
            grid2d_5pt(13, 11),
            grid3d_7pt(5, 5, 5),
            random_spd_pattern(250, 4.0, 3),
        ] {
            let perm = nested_dissection(&pattern);
            assert_eq!(perm.len(), pattern.n());
            let mut seen = vec![false; pattern.n()];
            for k in 0..pattern.n() {
                let v = perm.new_to_old(k);
                assert!(!seen[v]);
                seen[v] = true;
            }
        }
    }

    #[test]
    fn beats_natural_ordering_on_grids() {
        let pattern = grid2d_5pt(16, 16);
        let nd = nested_dissection(&pattern);
        let natural = Permutation::identity(pattern.n());
        assert!(fill_in(&pattern, &nd) < fill_in(&pattern, &natural));
    }

    #[test]
    fn comparable_to_minimum_degree_on_grids() {
        // Nested dissection should be in the same ballpark as minimum degree
        // on a regular grid (within a factor of 2 of fill).
        let pattern = grid2d_5pt(20, 20);
        let nd_fill = fill_in(&pattern, &nested_dissection(&pattern));
        let md_fill = fill_in(&pattern, &minimum_degree(&pattern));
        assert!(
            nd_fill < 2 * md_fill,
            "nd fill {nd_fill} vs md fill {md_fill}"
        );
    }

    #[test]
    fn handles_disconnected_graphs() {
        let pattern = SparsePattern::from_edges(80, &[(0, 1), (40, 41), (41, 42)]);
        let perm = nested_dissection(&pattern);
        assert_eq!(perm.len(), 80);
    }

    #[test]
    fn stop_probe_cancels_and_a_quiet_probe_changes_nothing() {
        let pattern = grid2d_5pt(14, 14);
        assert!(nested_dissection_with_stop(&pattern, Some(&|| true)).is_none());
        assert_eq!(
            nested_dissection_with_stop(&pattern, Some(&|| false)),
            Some(nested_dissection(&pattern))
        );
    }

    #[test]
    fn is_deterministic() {
        let pattern = grid2d_5pt(10, 10);
        assert_eq!(nested_dissection(&pattern), nested_dissection(&pattern));
    }
}
