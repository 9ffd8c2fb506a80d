//! A 64-ary bit tree: the ordered set of traversal positions the
//! out-of-core walks keep once a deficit forces them to track residency.
//!
//! Level 0 holds one bit per position of `0..p`; every higher level holds
//! one bit per non-empty word of the level below, up to a single top word.
//! Insert and remove touch at most one word per level — ⌈log₆₄ p⌉ words, 3
//! at p = 10⁵ — and [`BitTree::last_at_most`] finds a predecessor by
//! climbing to the first level with a smaller member and descending along
//! the highest set bits (`leading_zeros`).

/// An ordered set over `0..p`; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct BitTree {
    /// `levels[0]` has one bit per position; `levels[k + 1]` has one bit per
    /// word of `levels[k]`, set exactly when that word is non-zero.  The
    /// last level is a single word.
    levels: Vec<Vec<u64>>,
}

impl BitTree {
    /// The empty set over `0..len`.
    pub(crate) fn new(len: usize) -> BitTree {
        let mut levels = Vec::new();
        let mut bits = len;
        loop {
            let words = bits.div_ceil(64).max(1);
            levels.push(vec![0; words]);
            if words == 1 {
                return BitTree { levels };
            }
            bits = words;
        }
    }

    /// Add `position` (a no-op if it is already a member).
    pub(crate) fn insert(&mut self, position: usize) {
        let mut index = position;
        for level in &mut self.levels {
            let word = &mut level[index / 64];
            let was_empty = *word == 0;
            *word |= 1 << (index % 64);
            if !was_empty {
                return;
            }
            index /= 64;
        }
    }

    /// Drop `position` (a no-op if it is not a member).
    pub(crate) fn remove(&mut self, position: usize) {
        let mut index = position;
        for level in &mut self.levels {
            let word = &mut level[index / 64];
            *word &= !(1 << (index % 64));
            if *word != 0 {
                return;
            }
            index /= 64;
        }
    }

    /// The largest member `≤ bound`, if any.
    pub(crate) fn last_at_most(&self, bound: usize) -> Option<usize> {
        // Climb: look for a member at or below `index` in its word; failing
        // that, search the next level up strictly below this word.
        let mut index = bound;
        let mut level = 0;
        let mut found = loop {
            let word = self.levels[level][index / 64] & (u64::MAX >> (63 - index % 64));
            if word != 0 {
                break index / 64 * 64 + highest_bit(word);
            }
            if index < 64 || level + 1 == self.levels.len() {
                return None;
            }
            index = index / 64 - 1;
            level += 1;
        };
        // Descend along the highest set bits to a level-0 position.
        while level > 0 {
            level -= 1;
            found = found * 64 + highest_bit(self.levels[level][found]);
        }
        Some(found)
    }

    /// The members `> floor`, largest first.
    pub(crate) fn descending_above(&self, floor: usize) -> impl Iterator<Item = usize> + '_ {
        let mut next = self.levels[0].len() * 64 - 1;
        std::iter::from_fn(move || {
            let member = self.last_at_most(next).filter(|&member| member > floor)?;
            // `member > floor`, so `member - 1` cannot underflow.
            next = member - 1;
            Some(member)
        })
    }
}

/// Index of the highest set bit of a non-zero word.
fn highest_bit(word: u64) -> usize {
    63 - word.leading_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use prng::{Rng, StdRng};
    use std::collections::BTreeSet;

    /// The bit tree against a `BTreeSet` oracle under seeded inserts,
    /// removes, predecessor queries and descending scans, at sizes on both
    /// sides of every word and level boundary; 262 145 needs a 4th level.
    #[test]
    fn bit_tree_equals_a_btreeset_oracle() {
        for len in [1usize, 63, 64, 65, 4095, 4096, 4097, 262_145] {
            let mut rng = StdRng::seed_from_u64(len as u64);
            let mut set = BitTree::new(len);
            let mut oracle = BTreeSet::new();
            // The ends of the range and the word edges are hit on purpose.
            let edges = [0, len - 1, len / 2, len / 64 * 64, len.saturating_sub(64)];
            let operations = 4 * len.min(20_000) + 200;
            for round in 0..operations {
                let position = if round % 5 == 0 {
                    edges[rng.gen_range(0..edges.len())].min(len - 1)
                } else {
                    rng.gen_range(0..len)
                };
                // Inserts dominate the first half and removes the second, so
                // the set fills up and then drains.
                let insert_odds = if round < operations / 2 { 3 } else { 1 };
                if rng.gen_range(0..4usize) < insert_odds {
                    set.insert(position);
                    oracle.insert(position);
                } else {
                    set.remove(position);
                    oracle.remove(&position);
                }
                let bound = rng.gen_range(0..len);
                assert_eq!(
                    set.last_at_most(bound),
                    oracle.range(..=bound).next_back().copied(),
                    "len {len}, round {round}, bound {bound}"
                );
                if round % 97 == 0 {
                    let floor = rng.gen_range(0..len);
                    assert!(
                        set.descending_above(floor).take(200).eq(oracle
                            .range(floor + 1..)
                            .rev()
                            .take(200)
                            .copied()),
                        "len {len}, round {round}, floor {floor}"
                    );
                }
            }
            assert!(set.descending_above(0).eq(oracle.range(1..).rev().copied()));
            for &member in &oracle {
                set.remove(member);
            }
            assert_eq!(set.last_at_most(len - 1), None, "len {len}: drained");
            assert!(set.levels.iter().flatten().all(|&word| word == 0));
        }
        assert_eq!(BitTree::new(262_144).levels.len(), 3);
        assert_eq!(BitTree::new(262_145).levels.len(), 4);
    }
}
