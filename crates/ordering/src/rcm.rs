//! Reverse Cuthill–McKee ordering.
//!
//! RCM reduces the bandwidth of the matrix; as an elimination ordering it
//! produces long, chain-like elimination trees, which is a useful contrast to
//! the bushy trees of nested dissection in the experiments.

use sparsemat::SparsePattern;

use crate::mindeg::STOP_CHECK_INTERVAL;
use crate::perm::Permutation;
use crate::workspace::Workspace;

/// Compute the reverse Cuthill–McKee ordering of `pattern` (every connected
/// component is ordered from a pseudo-peripheral vertex, neighbours visited
/// by increasing degree, and the overall order is reversed).
pub fn rcm(pattern: &SparsePattern) -> Permutation {
    rcm_with_stop(pattern, None).expect("no stop probe, cannot be cancelled")
}

/// [`rcm`] with a cooperative stop probe; `None` means it fired.
pub(crate) fn rcm_with_stop(
    pattern: &SparsePattern,
    stop: Option<&(dyn Fn() -> bool + Sync)>,
) -> Option<Permutation> {
    cuthill_mckee(&mut Workspace::new(pattern), stop).map(Permutation::from_new_to_old)
}

/// The reversed Cuthill–McKee order of the workspace's pattern, polling
/// `stop` once per connected component and every 256 visited vertices.
pub(crate) fn cuthill_mckee(
    ws: &mut Workspace<'_>,
    stop: Option<&(dyn Fn() -> bool + Sync)>,
) -> Option<Vec<usize>> {
    let pattern = ws.pattern;
    let n = pattern.n();
    // `order` doubles as the BFS queue: `head` is the next vertex to expand.
    let mut order = Vec::with_capacity(n);
    let mut neighbours = Vec::new();
    for component_start in 0..n {
        if !ws.active[component_start] {
            continue;
        }
        let (start, _) = ws.pseudo_peripheral(component_start);
        ws.active[start] = false;
        let first = order.len();
        order.push(start);
        let mut head = first;
        while let Some(&v) = order.get(head) {
            if (head - first) % STOP_CHECK_INTERVAL == 0 && stop.is_some_and(|probe| probe()) {
                return None;
            }
            head += 1;
            neighbours.clear();
            let neighbors = pattern.neighbors(v).iter().map(|&w| w as usize);
            neighbours.extend(neighbors.filter(|&w| ws.active[w]));
            neighbours.sort_unstable_by_key(|&w| (pattern.degree(w), w));
            for &w in &neighbours {
                ws.active[w] = false;
            }
            order.extend_from_slice(&neighbours);
        }
    }
    order.reverse();
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mindeg::fill_in;
    use crate::perm::Permutation;
    use sparsemat::gen::{banded, grid2d_5pt};
    use sparsemat::SparsePattern;

    /// Bandwidth of the permuted pattern: max |new(i) - new(j)| over edges.
    fn bandwidth(pattern: &SparsePattern, perm: &Permutation) -> usize {
        let mut band = 0;
        for i in 0..pattern.n() {
            for &j in pattern.neighbors(i) {
                let a = perm.old_to_new(i);
                let b = perm.old_to_new(j as usize);
                band = band.max(a.abs_diff(b));
            }
        }
        band
    }

    #[test]
    fn orders_every_vertex() {
        let pattern = grid2d_5pt(6, 5);
        let perm = rcm(&pattern);
        assert_eq!(perm.len(), 30);
    }

    #[test]
    fn reduces_bandwidth_of_a_shuffled_band_matrix() {
        // Take a banded matrix, shuffle it, and check RCM recovers a small
        // bandwidth.
        let base = banded(40, 2);
        let shuffle = Permutation::from_new_to_old((0..40).map(|i| (i * 17) % 40).collect());
        let shuffled = shuffle.apply(&base);
        let recovered = rcm(&shuffled);
        assert!(
            bandwidth(&shuffled, &recovered) <= 4,
            "RCM should recover a narrow band"
        );
        let natural = Permutation::identity(40);
        assert!(bandwidth(&shuffled, &recovered) < bandwidth(&shuffled, &natural));
    }

    #[test]
    fn grid_bandwidth_close_to_side_length() {
        let pattern = grid2d_5pt(8, 8);
        let perm = rcm(&pattern);
        assert!(bandwidth(&pattern, &perm) <= 2 * 8);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let pattern = SparsePattern::from_edges(6, &[(0, 1), (2, 3)]).unwrap();
        let perm = rcm(&pattern);
        assert_eq!(perm.len(), 6);
        // Fill-in of a forest is zero regardless of the order used.
        assert_eq!(fill_in(&pattern, &perm), 6 + 2);
    }

    #[test]
    fn pseudo_peripheral_finds_a_path_end() {
        let edges: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let pattern = SparsePattern::from_edges(10, &edges).unwrap();
        let (v, eccentricity) = Workspace::new(&pattern).pseudo_peripheral(5);
        assert!(v == 0 || v == 9);
        assert_eq!(eccentricity, 9);
    }
}
