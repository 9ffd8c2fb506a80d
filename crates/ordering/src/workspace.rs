//! The scratch state one ordering thread owns, so that every step below it
//! costs O(vertices and edges it looks at), never O(n).
//!
//! **The epoch-stamp invariant.**  `marks[v] == (epoch, value)` means "`v`
//! carries a mark of the current use, and `value` is that mark"; any other
//! stamp means "unmarked".  Bumping `epoch` therefore clears the whole map
//! in O(1), which is what lets a BFS over a 30-vertex component of a
//! 10⁵-vertex graph cost 30.  Stamp and value share one entry of two `u32`s
//! (values are levels and local labels, below `n < u32::MAX`), so a mark is
//! read or written with one 8-byte access.  The map has one live use at a
//! time — BFS levels ([`Workspace::bfs`]), seen tags
//! ([`Workspace::tagged_pieces`]) or a leaf's local labels
//! ([`Workspace::order_induced`]) — and each use starts by taking a fresh
//! epoch, so marks of a finished use can never be read as marks of the
//! next.  The one deliberate read across uses is
//! [`Workspace::tagged_pieces`]: the vertices it splits carry the marks of
//! the use just before it (a BFS, or [`Workspace::pieces`]' membership
//! pass), and those are its membership tags.  When the `u32` epoch would
//! wrap, [`Workspace::next_epoch`] rewrites every stamp — the current use's
//! to 1, all others to 0 — and restarts at 2: O(n), deterministic, and it
//! keeps that one cross-use read intact.
//!
//! A workspace belongs to one thread.  Nested dissection gives a helper
//! thread its own ([`Workspace::on`]), whose active set is the piece it
//! orders, so the two never share a mark or an active flag.

use sparsemat::SparsePattern;

use crate::mindeg::MinDegree;

/// See the module docs.  Built once per `nested_dissection` / `rcm` call,
/// and once per helper thread of a forked dissection; the three n-sized
/// vectors here (one set per thread) are the only n-sized allocations of
/// the call besides its output.  The minimum-degree scratch that orders every
/// leaf and separator grows to the largest of them, not to `n`.
pub(crate) struct Workspace<'p> {
    pub(crate) pattern: &'p SparsePattern,
    /// Vertices still to be ordered around: dissection clears a separator's
    /// entries, Cuthill–McKee a visited vertex's.  Searches never enter an
    /// inactive vertex.
    pub(crate) active: Vec<bool>,
    epoch: u32,
    /// `(stamp, value)` per vertex.
    marks: Vec<(u32, u32)>,
    /// The last BFS's queue, kept as its visit list (levels non-decreasing).
    visited: Vec<usize>,
    stack: Vec<usize>,
    /// The piece being collected.
    piece: Vec<usize>,
    mindeg: MinDegree,
    /// Marks written so far: the unit of the complexity gates.
    #[cfg(test)]
    pub(crate) touched: usize,
    /// Minimum-degree runs of [`Workspace::order_induced`], and those after
    /// which `mindeg` could hold more than before: the unit of the
    /// allocation gate.
    #[cfg(test)]
    pub(crate) leaf_runs: usize,
    #[cfg(test)]
    pub(crate) scratch_growths: usize,
    /// The pieces each fork of this workspace's thread handed a helper.
    #[cfg(test)]
    pub(crate) helper_pieces: Vec<usize>,
}

impl<'p> Workspace<'p> {
    /// A workspace whose every vertex is active.
    ///
    /// # Panics
    /// Panics if the pattern has `u32::MAX` vertices or more: marks hold
    /// levels and local labels as `u32`.
    pub(crate) fn new(pattern: &'p SparsePattern) -> Self {
        Self::with_active(pattern, vec![true; pattern.n()])
    }

    /// A workspace whose active vertices are `vertices`: a helper thread's,
    /// whose pieces have only inactive neighbours outside them.
    pub(crate) fn on<'v>(
        pattern: &'p SparsePattern,
        vertices: impl IntoIterator<Item = &'v usize>,
    ) -> Self {
        let mut active = vec![false; pattern.n()];
        for &v in vertices {
            active[v] = true;
        }
        Self::with_active(pattern, active)
    }

    fn with_active(pattern: &'p SparsePattern, active: Vec<bool>) -> Self {
        let n = pattern.n();
        assert!(
            u32::try_from(n).is_ok_and(|n| n < u32::MAX),
            "{n} vertices do not fit the workspace's u32 marks"
        );
        Workspace {
            pattern,
            active,
            epoch: 0,
            marks: vec![(0, 0); n],
            visited: Vec::new(),
            stack: Vec::new(),
            piece: Vec::new(),
            mindeg: MinDegree::default(),
            #[cfg(test)]
            touched: 0,
            #[cfg(test)]
            leaf_runs: 0,
            #[cfg(test)]
            scratch_growths: 0,
            #[cfg(test)]
            helper_pieces: Vec::new(),
        }
    }

    /// A workspace whose epoch starts at `epoch`, to run the wrap reset.
    #[cfg(test)]
    pub(crate) fn starting_at(pattern: &'p SparsePattern, epoch: u32) -> Self {
        Workspace {
            epoch,
            ..Self::new(pattern)
        }
    }

    /// Start a new use of the marks and return the stamp of the use before
    /// it; see the module docs for the wrap.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            for (stamp, _) in &mut self.marks {
                *stamp = u32::from(*stamp == u32::MAX);
            }
            self.epoch = 1;
        }
        self.epoch += 1;
        self.epoch - 1
    }

    /// `value` is a level or a local label: below `n`, which
    /// [`Workspace::new`] asserts fits a `u32`.
    fn mark(&mut self, v: usize, value: usize) {
        self.marks[v] = (self.epoch, value as u32);
        #[cfg(test)]
        {
            self.touched += 1;
        }
    }

    /// The mark of `v` in the current use, if it has one.
    pub(crate) fn marked(&self, v: usize) -> Option<usize> {
        let (stamp, value) = self.marks[v];
        (stamp == self.epoch).then_some(value as usize)
    }

    /// Vertices the last BFS reached: the size of the connected piece it
    /// started in.
    pub(crate) fn reached(&self) -> usize {
        self.visited.len()
    }

    /// BFS from `start` through active vertices.  Afterwards
    /// [`Workspace::marked`] is the level of every reached vertex; returns
    /// the largest level.
    pub(crate) fn bfs(&mut self, start: usize) -> usize {
        let pattern = self.pattern;
        self.next_epoch();
        self.visited.clear();
        self.visited.push(start);
        self.mark(start, 0);
        let mut head = 0;
        while let Some(&v) = self.visited.get(head) {
            head += 1;
            let level = self.marks[v].1 as usize + 1;
            for &w in pattern.neighbors(v) {
                let w = w as usize;
                // The stamp first: most neighbours are already visited.
                if self.marks[w].0 != self.epoch && self.active[w] {
                    self.mark(w, level);
                    self.visited.push(w);
                }
            }
        }
        self.marks[self.visited[head - 1]].1 as usize
    }

    /// A pseudo-peripheral vertex of the active component containing
    /// `start` — repeatedly move to a farthest vertex of minimum
    /// `(degree, index)` until the eccentricity stops growing — and its
    /// eccentricity.  The levels left behind are those of the returned
    /// vertex.
    pub(crate) fn pseudo_peripheral(&mut self, start: usize) -> (usize, usize) {
        let eccentricity = self.bfs(start);
        self.pseudo_peripheral_after(start, eccentricity)
    }

    /// [`Workspace::pseudo_peripheral`] of `start` after its first sweep:
    /// the last BFS run is [`Workspace::bfs`] of `start`, which returned
    /// `eccentricity`.
    pub(crate) fn pseudo_peripheral_after(
        &mut self,
        start: usize,
        eccentricity: usize,
    ) -> (usize, usize) {
        let (mut current, mut best_eccentricity) = (start, eccentricity);
        loop {
            // The farthest vertices are the tail of the visit list.
            let next = self
                .visited
                .iter()
                .rev()
                .take_while(|&&v| self.marks[v].1 as usize == best_eccentricity)
                .min_by_key(|&&v| (self.pattern.degree(v), v));
            match next {
                Some(&v) if v != current => current = v,
                _ => return (current, best_eccentricity),
            }
            let eccentricity = self.bfs(current);
            if eccentricity <= best_eccentricity && best_eccentricity > 0 {
                return (current, eccentricity);
            }
            best_eccentricity = eccentricity;
        }
    }

    /// Connected pieces of the active vertices among `vertices`: pieces in
    /// order of their first vertex, each in depth-first pop order.
    pub(crate) fn pieces(&mut self, vertices: &[usize]) -> Vec<Vec<usize>> {
        self.next_epoch();
        for &v in vertices {
            if self.active[v] {
                self.mark(v, 0);
            }
        }
        self.tagged_pieces(vertices)
    }

    /// [`Workspace::pieces`] of `vertices` that all carry a mark of the
    /// current use already — a component right after
    /// [`Workspace::pseudo_peripheral`] on it, whose last BFS reached every
    /// one of its vertices — so they need no membership pass.
    pub(crate) fn tagged_pieces(&mut self, vertices: &[usize]) -> Vec<Vec<usize>> {
        let pattern = self.pattern;
        // Marks of this use tag the vertices already put in a piece.
        let member = self.next_epoch();
        let mut pieces = Vec::new();
        for &start in vertices {
            // Inactive, or already in a piece.
            if !self.active[start] || self.marks[start].0 != member {
                continue;
            }
            self.piece.clear();
            self.mark(start, 0);
            self.stack.push(start);
            while let Some(v) = self.stack.pop() {
                self.piece.push(v);
                for &w in pattern.neighbors(v) {
                    let w = w as usize;
                    if self.marks[w].0 == member && self.active[w] {
                        self.mark(w, 0);
                        self.stack.push(w);
                    }
                }
            }
            pieces.push(self.piece.clone());
        }
        pieces
    }

    /// A minimum-degree order of the subgraph induced on `vertices`, in
    /// local labels (a vertex's label is its position in `vertices`).  The
    /// rows go from the labels straight into the reused [`MinDegree`]
    /// scratch, so a leaf builds no pattern.  `None` if the stop probe
    /// fired.
    pub(crate) fn order_induced(
        &mut self,
        vertices: &[usize],
        stop: Option<&(dyn Fn() -> bool + Sync)>,
    ) -> Option<&[usize]> {
        #[cfg(test)]
        let capacity = self.mindeg.capacity();
        let pattern = self.pattern;
        self.next_epoch();
        for (local, &v) in vertices.iter().enumerate() {
            self.mark(v, local);
        }
        let (marks, epoch) = (&self.marks, self.epoch);
        self.mindeg.clear();
        for &v in vertices {
            let labelled = pattern.neighbors(v).iter().map(|&w| marks[w as usize]);
            self.mindeg.push_row(
                labelled
                    .filter(|&(stamp, _)| stamp == epoch)
                    .map(|(_, local)| local as usize),
            );
        }
        self.mindeg.run(stop)?;
        #[cfg(test)]
        {
            self.leaf_runs += 1;
            if self.mindeg.capacity() > capacity {
                self.scratch_growths += 1;
            }
        }
        Some(self.mindeg.order())
    }
}
