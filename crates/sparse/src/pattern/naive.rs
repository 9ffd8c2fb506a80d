//! Test-only oracles: [`SparsePattern::from_edges`] and
//! [`SparsePattern::permute`] as they were written before the counting
//! builds (at `4e30eac`) — one `Vec` per row, each sorted and deduplicated,
//! and a permutation that goes back through the edge list.  Short enough to
//! read as the definition of the pattern; the battery below pins the fast
//! builds to them.

use super::SparsePattern;

/// [`SparsePattern::from_edges`] as at `4e30eac`.
pub(crate) fn from_edges_naive(n: usize, edges: &[(usize, usize)]) -> SparsePattern {
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(i, j) in edges {
        assert!(
            i < n && j < n,
            "index out of range: ({i}, {j}) with n = {n}"
        );
        if i == j {
            continue;
        }
        adjacency[i].push(j);
        adjacency[j].push(i);
    }
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    row_ptr.push(0);
    for list in adjacency.iter_mut() {
        list.sort_unstable();
        list.dedup();
        col_idx.extend_from_slice(list);
        row_ptr.push(col_idx.len());
    }
    SparsePattern {
        n,
        row_ptr,
        col_idx,
    }
}

/// [`SparsePattern::permute`] as at `4e30eac`.
pub(crate) fn permute_naive(pattern: &SparsePattern, perm: &[usize]) -> SparsePattern {
    let n = pattern.n();
    assert_eq!(perm.len(), n, "permutation length mismatch");
    let mut old_to_new = vec![usize::MAX; n];
    for (new, &old) in perm.iter().enumerate() {
        assert!(
            old < n && old_to_new[old] == usize::MAX,
            "not a permutation"
        );
        old_to_new[old] = new;
    }
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(pattern.nnz_off_diagonal() / 2);
    for i in 0..n {
        for &j in pattern.neighbors(i) {
            if j > i {
                edges.push((old_to_new[i], old_to_new[j]));
            }
        }
    }
    from_edges_naive(n, &edges)
}

#[cfg(test)]
mod tests {
    use prng::{Rng, StdRng};

    use super::*;
    use crate::gen::{grid2d_5pt, ProblemKind};

    /// `count` random pairs over `0..n`: duplicates and self loops included.
    fn random_edges(n: usize, count: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
        (0..count)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect()
    }

    /// A seeded Fisher–Yates shuffle of `0..n`.
    fn random_permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        perm
    }

    /// A named edge list over `0..n`.
    type EdgeCase = (String, usize, Vec<(usize, usize)>);

    fn edge_battery() -> Vec<EdgeCase> {
        let mut cases = vec![
            ("n = 0".to_string(), 0, vec![]),
            ("n = 1, no edge".to_string(), 1, vec![]),
            ("n = 1, a self loop".to_string(), 1, vec![(0, 0), (0, 0)]),
            ("isolated vertices".to_string(), 9, vec![(2, 5)]),
            (
                "duplicates both ways".to_string(),
                4,
                vec![(0, 1), (1, 0), (0, 1), (3, 2), (2, 3), (2, 3)],
            ),
            (
                "self loops only".to_string(),
                5,
                (0..5).map(|v| (v, v)).collect(),
            ),
        ];
        let path: Vec<(usize, usize)> = (0..40).map(|v| (v, v + 1)).collect();
        cases.push(("path".to_string(), 41, path.clone()));
        cases.push((
            "reversed path, pairs flipped".to_string(),
            41,
            path.iter().rev().map(|&(i, j)| (j, i)).collect(),
        ));
        let mut rng = StdRng::seed_from_u64(47);
        for round in 0..24 {
            let n = rng.gen_range(1usize..=60);
            let count = rng.gen_range(0..=4 * n);
            let mut edges = random_edges(n, count, &mut rng);
            cases.push((format!("random {round}"), n, edges.clone()));
            edges.reverse();
            cases.push((format!("random {round} reversed"), n, edges));
        }
        cases
    }

    #[test]
    fn counting_builds_equal_the_naive_builds() {
        let mut rng = StdRng::seed_from_u64(7);
        for (name, n, edges) in edge_battery() {
            let pattern = SparsePattern::from_edges(n, &edges);
            assert_eq!(pattern, from_edges_naive(n, &edges), "from_edges on {name}");
            let perm = random_permutation(n, &mut rng);
            assert_eq!(
                pattern.permute(&perm),
                permute_naive(&pattern, &perm),
                "permute on {name}"
            );
        }
    }

    #[test]
    fn every_problem_kind_builds_and_permutes_as_before() {
        let mut rng = StdRng::seed_from_u64(11);
        for kind in ProblemKind::ALL {
            for nodes in [10, 500, 3_000] {
                let pattern = kind.generate(nodes, 3);
                let n = pattern.n();
                let mut edges = Vec::new();
                for i in 0..n {
                    edges.extend(pattern.neighbors(i).iter().map(|&j| (i, j)));
                }
                assert_eq!(
                    pattern,
                    from_edges_naive(n, &edges),
                    "{} at {nodes}",
                    kind.name()
                );
                let perm = random_permutation(n, &mut rng);
                assert_eq!(
                    pattern.permute(&perm),
                    permute_naive(&pattern, &perm),
                    "{} at {nodes}",
                    kind.name()
                );
            }
        }
    }

    /// The scale gate, run by CI in release under a timeout: a 10⁶-vertex
    /// 5-point grid built, permuted by a shuffle and checked symmetric.
    #[test]
    #[ignore]
    fn a_million_vertex_grid_builds_and_permutes() {
        let pattern = grid2d_5pt(1_000, 1_000);
        assert_eq!(pattern.nnz_off_diagonal(), 4 * 1_000 * 999);
        let perm = random_permutation(pattern.n(), &mut StdRng::seed_from_u64(5));
        let permuted = pattern.permute(&perm);
        assert_eq!(permuted.nnz(), pattern.nnz());
        assert!(permuted.is_symmetric());
        assert!((0..permuted.n()).all(|i| permuted
            .neighbors(i)
            .windows(2)
            .all(|pair| pair[0] < pair[1])));
    }
}
