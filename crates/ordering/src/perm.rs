//! Permutations in new-to-old convention.

use sparsemat::SparsePattern;

/// A permutation of `0..n` in *new-to-old* convention: `perm[k]` is the
/// original index placed at (eliminated at) position `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_to_old: Vec<usize>,
    old_to_new: Vec<usize>,
}

impl Permutation {
    /// Wrap an explicit new-to-old map.
    ///
    /// # Panics
    /// Panics if `new_to_old` is not a permutation of `0..n`.
    pub fn from_new_to_old(new_to_old: Vec<usize>) -> Self {
        let n = new_to_old.len();
        let mut old_to_new = vec![usize::MAX; n];
        for (new, &old) in new_to_old.iter().enumerate() {
            assert!(old < n, "index {old} out of range");
            assert!(old_to_new[old] == usize::MAX, "duplicate index {old}");
            old_to_new[old] = new;
        }
        Permutation {
            new_to_old,
            old_to_new,
        }
    }

    /// The identity permutation.
    pub fn identity(n: usize) -> Self {
        Permutation {
            new_to_old: (0..n).collect(),
            old_to_new: (0..n).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// Original index of the vertex at new position `k`.
    pub fn new_to_old(&self, k: usize) -> usize {
        self.new_to_old[k]
    }

    /// New position of original vertex `i`.
    pub fn old_to_new(&self, i: usize) -> usize {
        self.old_to_new[i]
    }

    /// The full new-to-old map.
    pub fn as_new_to_old(&self) -> &[usize] {
        &self.new_to_old
    }

    /// Apply the permutation to a symmetric pattern (relabel vertex
    /// `perm[k]` as `k`).
    pub fn apply(&self, pattern: &SparsePattern) -> SparsePattern {
        pattern.permute(&self.new_to_old)
    }

    /// Compose with another permutation applied *after* this one:
    /// `(self.then(other))[k] = self[other[k]]`.
    pub fn then(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len());
        let new_to_old = other
            .new_to_old
            .iter()
            .map(|&mid| self.new_to_old[mid])
            .collect();
        Permutation::from_new_to_old(new_to_old)
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        Permutation {
            new_to_old: self.old_to_new.clone(),
            old_to_new: self.new_to_old.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::grid2d_5pt;

    #[test]
    fn identity_and_inverse() {
        let p = Permutation::identity(4);
        assert_eq!(p.len(), 4);
        assert_eq!(p.new_to_old(2), 2);
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn roundtrip_maps() {
        let p = Permutation::from_new_to_old(vec![2, 0, 3, 1]);
        for k in 0..4 {
            assert_eq!(p.old_to_new(p.new_to_old(k)), k);
        }
        let inv = p.inverse();
        for k in 0..4 {
            assert_eq!(inv.new_to_old(k), p.old_to_new(k));
            assert_eq!(inv.old_to_new(k), p.new_to_old(k));
        }
    }

    #[test]
    fn composition() {
        let p = Permutation::from_new_to_old(vec![2, 0, 3, 1]);
        let q = Permutation::from_new_to_old(vec![1, 3, 0, 2]);
        let composed = p.then(&q);
        for k in 0..4 {
            assert_eq!(composed.new_to_old(k), p.new_to_old(q.new_to_old(k)));
        }
    }

    #[test]
    fn apply_keeps_the_edge_count() {
        let pattern = grid2d_5pt(3, 3);
        let p = Permutation::from_new_to_old(vec![8, 7, 6, 5, 4, 3, 2, 1, 0]);
        let permuted = p.apply(&pattern);
        assert_eq!(permuted.nnz(), pattern.nnz());
        assert!(permuted.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn rejects_non_permutations() {
        Permutation::from_new_to_old(vec![0, 0, 1]);
    }
}
