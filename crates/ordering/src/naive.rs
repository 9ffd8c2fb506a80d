//! Test-only oracles: the orderings as they were written before the shared
//! [`Workspace`](crate::workspace::Workspace) — a fresh level vector per BFS,
//! a `0..n` scan per pseudo-peripheral round, two `HashSet`s per piece split,
//! a `HashMap` per leaf.  O(n) per recursion step, but short enough to read
//! as the definition of the permutation; the battery in `workspace.rs`
//! asserts the fast code returns the same `Vec<usize>`.

use std::collections::VecDeque;

use sparsemat::SparsePattern;

use crate::mindeg::minimum_degree_with_stop;
use crate::perm::Permutation;

/// Nested dissection exactly as at `1132df8`.
pub(crate) fn nested_dissection_naive(pattern: &SparsePattern) -> Permutation {
    let n = pattern.n();
    let mut order = Vec::with_capacity(n);
    let mut active = vec![true; n];
    let all: Vec<usize> = (0..n).collect();
    dissect(pattern, &all, &mut active, &mut order, None).expect("no stop probe");
    Permutation::from_new_to_old(order)
}

/// Recursively order the vertices of `component` (all currently active),
/// appending to `order` (separators last).  `None` means the stop probe
/// fired mid-recursion and `order` holds partial garbage.
fn dissect(
    pattern: &SparsePattern,
    component: &[usize],
    active: &mut Vec<bool>,
    order: &mut Vec<usize>,
    stop: Option<&dyn Fn() -> bool>,
) -> Option<()> {
    if let Some(probe) = stop {
        if probe() {
            return None;
        }
    }
    if component.len() <= crate::dissection::DISSECTION_CUTOFF {
        return order_with_minimum_degree(pattern, component, order, stop);
    }

    // Split the component into its connected pieces first (a previous
    // separator may have disconnected it).
    let pieces = connected_pieces(pattern, component, active);
    if pieces.len() > 1 {
        for piece in pieces {
            dissect(pattern, &piece, active, order, stop)?;
        }
        return Some(());
    }

    // Single connected piece: find a separator from the BFS levels of a
    // pseudo-peripheral vertex.
    let start = pseudo_peripheral(pattern, component[0], active);
    let (levels, eccentricity) = bfs_levels(pattern, start, active);
    if eccentricity < 2 {
        // Dense little blob: no useful separator.
        return order_with_minimum_degree(pattern, component, order, stop);
    }
    let middle = eccentricity / 2;
    let separator: Vec<usize> = component
        .iter()
        .copied()
        .filter(|&v| levels[v] == middle)
        .collect();
    let rest: Vec<usize> = component
        .iter()
        .copied()
        .filter(|&v| levels[v] != middle)
        .collect();
    if separator.is_empty() || rest.is_empty() {
        return order_with_minimum_degree(pattern, component, order, stop);
    }

    // Deactivate the separator, recurse on what remains, then order the
    // separator itself last (with minimum degree among its own vertices).
    for &v in &separator {
        active[v] = false;
    }
    let pieces = connected_pieces(pattern, &rest, active);
    for piece in pieces {
        dissect(pattern, &piece, active, order, stop)?;
    }
    order_with_minimum_degree(pattern, &separator, order, stop)
}

/// Connected pieces of `vertices` in the subgraph induced by `active`.
fn connected_pieces(
    pattern: &SparsePattern,
    vertices: &[usize],
    active: &[bool],
) -> Vec<Vec<usize>> {
    let mut seen: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let in_set: std::collections::HashSet<usize> = vertices.iter().copied().collect();
    let mut pieces = Vec::new();
    for &start in vertices {
        if seen.contains(&start) {
            continue;
        }
        let mut piece = Vec::new();
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(v) = stack.pop() {
            piece.push(v);
            for &w in pattern.neighbors(v) {
                if active[w] && in_set.contains(&w) && !seen.contains(&w) {
                    seen.insert(w);
                    stack.push(w);
                }
            }
        }
        pieces.push(piece);
    }
    pieces
}

/// Order the induced subgraph on `vertices` with minimum degree and append
/// the result (in original labels) to `order`.  `None` if the stop probe
/// fired.
fn order_with_minimum_degree(
    pattern: &SparsePattern,
    vertices: &[usize],
    order: &mut Vec<usize>,
    stop: Option<&dyn Fn() -> bool>,
) -> Option<()> {
    if vertices.len() <= 1 {
        order.extend_from_slice(vertices);
        return Some(());
    }
    // Build the induced subgraph with local labels.
    let mut local_of = std::collections::HashMap::new();
    for (local, &v) in vertices.iter().enumerate() {
        local_of.insert(v, local);
    }
    let mut edges = Vec::new();
    for (local, &v) in vertices.iter().enumerate() {
        for &w in pattern.neighbors(v) {
            if let Some(&other) = local_of.get(&w) {
                if other > local {
                    edges.push((local, other));
                }
            }
        }
    }
    let induced = SparsePattern::from_edges(vertices.len(), &edges);
    let local_perm = minimum_degree_with_stop(&induced, stop)?;
    for k in 0..vertices.len() {
        order.push(vertices[local_perm.new_to_old(k)]);
    }
    Some(())
}

/// Find a pseudo-peripheral vertex of the connected component containing
/// `start`: repeatedly move to a farthest vertex of minimum degree until the
/// eccentricity stops growing.
fn pseudo_peripheral(pattern: &SparsePattern, start: usize, active: &[bool]) -> usize {
    let mut current = start;
    let mut best_eccentricity = 0usize;
    loop {
        let (levels, eccentricity) = bfs_levels(pattern, current, active);
        if eccentricity <= best_eccentricity && best_eccentricity > 0 {
            return current;
        }
        best_eccentricity = eccentricity;
        // Farthest vertices, pick the one of minimum degree.
        let next = (0..pattern.n())
            .filter(|&v| active[v] && levels[v] == eccentricity)
            .min_by_key(|&v| (pattern.degree(v), v));
        match next {
            Some(v) if v != current => current = v,
            _ => return current,
        }
    }
}

/// BFS levels restricted to `active` vertices; unreachable vertices get
/// `usize::MAX`.  Returns the levels and the largest level reached.
fn bfs_levels(pattern: &SparsePattern, start: usize, active: &[bool]) -> (Vec<usize>, usize) {
    let mut levels = vec![usize::MAX; pattern.n()];
    let mut queue = VecDeque::new();
    levels[start] = 0;
    queue.push_back(start);
    let mut max_level = 0;
    while let Some(v) = queue.pop_front() {
        for &w in pattern.neighbors(v) {
            if active[w] && levels[w] == usize::MAX {
                levels[w] = levels[v] + 1;
                max_level = max_level.max(levels[w]);
                queue.push_back(w);
            }
        }
    }
    (levels, max_level)
}

/// Compute the reverse Cuthill–McKee ordering of `pattern` (every connected
/// component is ordered from a pseudo-peripheral vertex, neighbours visited
/// by increasing degree, and the overall order is reversed).
pub(crate) fn rcm_naive(pattern: &SparsePattern) -> Permutation {
    let n = pattern.n();
    let active = vec![true; n];
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for component_start in 0..n {
        if visited[component_start] {
            continue;
        }
        let start = pseudo_peripheral(pattern, component_start, &active);
        let mut queue = VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut neighbours: Vec<usize> = pattern
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&w| !visited[w])
                .collect();
            neighbours.sort_by_key(|&w| (pattern.degree(w), w));
            for w in neighbours {
                visited[w] = true;
                queue.push_back(w);
            }
        }
    }
    order.reverse();
    Permutation::from_new_to_old(order)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use prng::{Rng, StdRng};
    use sparsemat::gen::{grid2d_5pt, power_law_pattern, random_spd_pattern};

    use super::*;
    use crate::dissection::dissect;
    use crate::rcm::cuthill_mckee;
    use crate::workspace::Workspace;
    use crate::{nested_dissection, rcm, OrderingMethod};

    /// `copies` disjoint paths of `length` vertices each.
    fn disjoint_paths(copies: usize, length: usize) -> SparsePattern {
        let edges: Vec<(usize, usize)> = (0..copies * length)
            .filter(|v| v % length != 0)
            .map(|v| (v - 1, v))
            .collect();
        SparsePattern::from_edges(copies * length, &edges)
    }

    fn clique(vertices: std::ops::Range<usize>) -> Vec<(usize, usize)> {
        vertices
            .clone()
            .flat_map(|i| (i + 1..vertices.end).map(move |j| (i, j)))
            .collect()
    }

    /// Sparse random edges over the first `covered` of `n` vertices: many
    /// small components and `n - covered` isolated vertices.
    fn scattered(n: usize, covered: usize, edge_count: usize, seed: u64) -> SparsePattern {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(usize, usize)> = (0..edge_count)
            .map(|_| (rng.gen_range(0..covered), rng.gen_range(0..covered)))
            .collect();
        SparsePattern::from_edges(n, &edges)
    }

    fn battery() -> Vec<(String, SparsePattern)> {
        let mut cases = Vec::new();
        for n in [0, 1, 2, 32, 33] {
            cases.push((format!("empty graph n = {n}"), disjoint_paths(n, 1)));
            cases.push((format!("path n = {n}"), disjoint_paths(1, n)));
            cases.push((
                format!("clique n = {n}"),
                SparsePattern::from_edges(n, &clique(0..n)),
            ));
        }
        for seed in 0..6 {
            let n = 150 + 90 * seed as usize;
            cases.push((
                format!("random n = {n} seed {seed}"),
                random_spd_pattern(n, 3.0, seed),
            ));
            cases.push((
                format!("power law n = {n} seed {seed}"),
                power_law_pattern(n, 3 * n, 1.6, seed),
            ));
            cases.push((
                format!("scattered n = {n} seed {seed}"),
                scattered(n, 2 * n / 3, n / 2, seed),
            ));
        }
        let star: Vec<(usize, usize)> = (1..90).map(|leaf| (0, leaf)).collect();
        cases.push(("star".to_string(), SparsePattern::from_edges(90, &star)));
        cases.push(("path".to_string(), disjoint_paths(1, 400)));
        cases.push(("many paths".to_string(), disjoint_paths(30, 37)));
        cases.push((
            "clique".to_string(),
            SparsePattern::from_edges(48, &clique(0..48)),
        ));
        let mut barbell = clique(0..40);
        barbell.extend(clique(60..100));
        barbell.extend((39..60).map(|v| (v, v + 1)));
        cases.push((
            "two cliques joined by a path".to_string(),
            SparsePattern::from_edges(100, &barbell),
        ));
        cases.push(("grid".to_string(), grid2d_5pt(23, 19)));
        cases
    }

    #[test]
    fn the_workspace_orderings_equal_the_naive_oracles() {
        for (name, pattern) in battery() {
            assert_eq!(
                nested_dissection(&pattern),
                nested_dissection_naive(&pattern),
                "nd on {name}"
            );
            assert_eq!(rcm(&pattern), rcm_naive(&pattern), "rcm on {name}");
        }
    }

    /// The complexity gate is a count, not a timing: marks written by the
    /// workspace (BFS visits, piece tags, leaf labels) stay within
    /// `4 · n · ⌈log₂ n⌉` (measured: 3.05 on the grid, 0.41 on the paths).
    /// The naive code writes `n` levels per BFS and runs at least three BFS
    /// per split — ≥ 3 200 splits on the grid, 2 000 on the paths — which is
    /// 150× and 88× the bound.
    #[test]
    fn touched_vertices_stay_within_n_log_n() {
        for (name, pattern) in [
            ("200 x 200 grid", grid2d_5pt(200, 200)),
            ("2 000 disjoint 40-paths", disjoint_paths(2_000, 40)),
        ] {
            let n = pattern.n();
            let mut ws = Workspace::new(&pattern);
            dissect(&mut ws, None).expect("no stop probe");
            let bound = 4 * n * n.next_power_of_two().ilog2() as usize;
            assert!(
                ws.touched <= bound,
                "{name}: touched {} > {bound}",
                ws.touched
            );
        }
        let isolated = disjoint_paths(100_000, 1);
        let mut ws = Workspace::new(&isolated);
        cuthill_mckee(&mut ws, None).expect("no stop probe");
        assert!(ws.touched <= 4 * isolated.n(), "rcm touched {}", ws.touched);
    }

    #[test]
    fn a_probe_firing_on_its_kth_poll_cancels_and_a_quiet_one_changes_nothing() {
        // 8 components of 300 vertices: every method polls well over 5 times.
        let pattern = disjoint_paths(8, 300);
        for method in OrderingMethod::ALL {
            let polls = Cell::new(0usize);
            let quiet = || {
                polls.set(polls.get() + 1);
                false
            };
            let expected = method.order(&pattern);
            assert_eq!(
                method.order_with_stop(&pattern, Some(&quiet)),
                Some(expected)
            );
            if method == OrderingMethod::Natural {
                continue;
            }
            assert!(
                polls.get() > 8,
                "{} polled {} times",
                method.name(),
                polls.get()
            );
            for k in [1, 2, 3, 5, polls.get()] {
                let polls = Cell::new(0usize);
                let fires_on_kth = || {
                    polls.set(polls.get() + 1);
                    polls.get() == k
                };
                assert!(
                    method
                        .order_with_stop(&pattern, Some(&fires_on_kth))
                        .is_none(),
                    "{} survived a probe firing on poll {k}",
                    method.name()
                );
                assert_eq!(
                    polls.get(),
                    k,
                    "{} kept polling after the probe fired",
                    method.name()
                );
            }
        }
    }

    #[test]
    fn rcm_polls_at_least_once_per_component() {
        let pattern = disjoint_paths(500, 3);
        let polls = Cell::new(0usize);
        let counting = || {
            polls.set(polls.get() + 1);
            false
        };
        cuthill_mckee(&mut Workspace::new(&pattern), Some(&counting)).expect("quiet probe");
        assert!(
            polls.get() >= 500,
            "{} polls for 500 components",
            polls.get()
        );
    }

    /// Scale gates, run by CI in release under a timeout: the code at
    /// `1132df8` needs minutes for the second one.  `Permutation`'s
    /// constructor rejects anything that is not a permutation of `0..n`.
    #[test]
    #[ignore]
    fn nd_orders_a_450_x_450_grid() {
        assert_eq!(nested_dissection(&grid2d_5pt(450, 450)).len(), 202_500);
    }

    #[test]
    #[ignore]
    fn rcm_orders_200_000_isolated_vertices() {
        assert_eq!(rcm(&disjoint_paths(200_000, 1)).len(), 200_000);
    }
}
