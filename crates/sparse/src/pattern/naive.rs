//! Test-only oracles: [`SparsePattern::from_edges`] and
//! [`SparsePattern::permute`] as they were written before the counting
//! builds (at `4e30eac`) — one `Vec` per row, each sorted and deduplicated,
//! and a permutation that goes back through the edge list — and
//! [`spd_matrix_from_pattern`](crate::gen::spd_matrix_from_pattern) as it
//! was before the one-pass fill (at `afb0a7e`): triplets, a `Vec` per
//! column, sorted and merged, the diagonal inserted.  Short enough to read
//! as the definitions; the batteries below pin the fast builds to them.

use prng::{Rng, StdRng};

use super::{SparsePattern, SymmetricCsr};

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
        col_idx.extend(list.iter().map(|&j| j as u32));
        row_ptr.push(col_idx.len());
    }
    SparsePattern {
        n,
        row_ptr,
        col_idx,
    }
}

/// [`SparsePattern::permute`] as at `4e30eac`.
pub(crate) fn permute_naive(pattern: &SparsePattern, perm: &[u32]) -> SparsePattern {
    let n = pattern.n();
    assert_eq!(perm.len(), n, "permutation length mismatch");
    let mut old_to_new = vec![usize::MAX; n];
    for (new, &old) in perm.iter().enumerate() {
        let old = old as usize;
        assert!(
            old < n && old_to_new[old] == usize::MAX,
            "not a permutation"
        );
        old_to_new[old] = new;
    }
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(pattern.nnz_off_diagonal() / 2);
    for i in 0..n {
        for &j in pattern.neighbors(i) {
            let j = j as usize;
            if j > i {
                edges.push((old_to_new[i], old_to_new[j]));
            }
        }
    }
    from_edges_naive(n, &edges)
}

/// [`spd_matrix_from_pattern`](crate::gen::spd_matrix_from_pattern) as at
/// `afb0a7e`: the lower triangle's triplets (the same draws in the same
/// order), then the triplet builder's conversion — a `Vec` per column,
/// sorted, duplicate rows summed, a missing diagonal inserted.  The
/// conversion's last step sorted each column again, a no-op on merged
/// columns, and is left out.
pub(crate) fn spd_matrix_from_pattern_naive(pattern: &SparsePattern, seed: u64) -> SymmetricCsr {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = pattern.n();
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    let mut diagonal = vec![1.0f64; n];
    for i in 0..n {
        for &j in pattern.neighbors(i) {
            let j = j as usize;
            if j > i {
                let value = -rng.gen_range(0.1..1.0);
                entries.push((j, i, value));
                diagonal[i] += value.abs();
                diagonal[j] += value.abs();
            }
        }
    }
    for (i, &d) in diagonal.iter().enumerate() {
        entries.push((i, i, d));
    }
    let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for &(i, j, v) in &entries {
        columns[j].push((i, v));
    }
    let mut col_ptr = vec![0];
    let (mut row_idx, mut values) = (Vec::new(), Vec::new());
    for (j, column) in columns.iter_mut().enumerate() {
        column.sort_by_key(|&(row, _)| row);
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(column.len() + 1);
        for &(row, value) in column.iter() {
            match merged.last_mut() {
                Some((last_row, last_value)) if *last_row == row => *last_value += value,
                _ => merged.push((row, value)),
            }
        }
        if merged.first().map(|&(row, _)| row) != Some(j) {
            merged.insert(0, (j, 0.0));
        }
        for (row, value) in merged {
            row_idx.push(row as u32);
            values.push(value);
        }
        col_ptr.push(row_idx.len());
    }
    SymmetricCsr {
        n,
        col_ptr,
        row_idx,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{grid2d_5pt, spd_matrix_from_pattern, ProblemKind};

    /// `count` random pairs over `0..n`: duplicates and self loops included.
    fn random_edges(n: usize, count: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
        (0..count)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect()
    }

    /// A seeded Fisher–Yates shuffle of `0..n`.
    fn random_permutation(n: usize, rng: &mut StdRng) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..n as u32).collect();
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
            let pattern = SparsePattern::from_edges(n, &edges).unwrap();
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
                    edges.extend(pattern.neighbors(i).iter().map(|&j| (i, j as usize)));
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

    /// The one-pass fill against the triplet route, bit for bit: every
    /// `ProblemKind` at two sizes and three seeds, in generated order and
    /// under a seeded shuffle, plus n = 0, n = 1 and isolated vertices.
    #[test]
    fn the_one_pass_spd_fill_equals_the_triplet_route() {
        let mut cases = vec![
            (
                "n = 0".to_string(),
                SparsePattern::from_edges(0, &[]).unwrap(),
                1,
            ),
            (
                "n = 1".to_string(),
                SparsePattern::from_edges(1, &[]).unwrap(),
                1,
            ),
            (
                "isolated vertices".to_string(),
                SparsePattern::from_edges(9, &[(2, 5), (7, 5)]).unwrap(),
                2,
            ),
        ];
        let mut rng = StdRng::seed_from_u64(48);
        for kind in ProblemKind::ALL {
            for nodes in [10, 2_000] {
                for seed in 1..=3 {
                    let pattern = kind.generate(nodes, seed);
                    let perm = random_permutation(pattern.n(), &mut rng);
                    let label = format!("{} at {nodes}, seed {seed}", kind.name());
                    cases.push((format!("{label}, shuffled"), pattern.permute(&perm), seed));
                    cases.push((label, pattern, seed));
                }
            }
        }
        let bits = |matrix: &SymmetricCsr| -> Vec<u64> {
            matrix.values.iter().map(|value| value.to_bits()).collect()
        };
        for (name, pattern, seed) in cases {
            let fast = spd_matrix_from_pattern(&pattern, seed);
            let naive = spd_matrix_from_pattern_naive(&pattern, seed);
            assert_eq!(fast.n, naive.n, "{name}");
            assert_eq!(fast.col_ptr, naive.col_ptr, "{name}");
            assert_eq!(fast.row_idx, naive.row_idx, "{name}");
            assert_eq!(bits(&fast), bits(&naive), "{name}");
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
