//! The scratch state one top-level ordering call owns, so that every step
//! below it costs O(vertices and edges it looks at), never O(n).
//!
//! **The epoch-stamp invariant.**  `stamp[v] == epoch` means "`v` carries a
//! mark of the current use, and `value[v]` is that mark"; any other stamp
//! means "unmarked".  Bumping `epoch` therefore clears the whole map in O(1),
//! which is what lets a BFS over a 30-vertex component of a 10⁵-vertex graph
//! cost 30.  The map has one live use at a time — BFS levels
//! ([`Workspace::bfs`]), member/seen tags ([`Workspace::pieces`]) or a leaf's
//! local labels ([`Workspace::induced_edges`]) — and each use starts by
//! taking fresh epochs, so marks of a finished use can never be read as
//! marks of the next.  `epoch` only grows; a `usize` cannot wrap in any run
//! that finishes.

use sparsemat::SparsePattern;

/// See the module docs.  Built once per `nested_dissection` / `rcm` call;
/// the three n-sized vectors here are the only n-sized allocations of the
/// call besides its output.
pub(crate) struct Workspace<'p> {
    pub(crate) pattern: &'p SparsePattern,
    /// Vertices still to be ordered around: dissection clears a separator's
    /// entries, Cuthill–McKee a visited vertex's.  Searches never enter an
    /// inactive vertex.
    pub(crate) active: Vec<bool>,
    epoch: usize,
    stamp: Vec<usize>,
    value: Vec<usize>,
    /// The last BFS's queue, kept as its visit list (levels non-decreasing).
    visited: Vec<usize>,
    stack: Vec<usize>,
    edges: Vec<(usize, usize)>,
    /// Marks written so far: the unit of the complexity gates.
    #[cfg(test)]
    pub(crate) touched: usize,
}

impl<'p> Workspace<'p> {
    pub(crate) fn new(pattern: &'p SparsePattern) -> Self {
        let n = pattern.n();
        Workspace {
            pattern,
            active: vec![true; n],
            epoch: 0,
            stamp: vec![0; n],
            value: vec![0; n],
            visited: Vec::new(),
            stack: Vec::new(),
            edges: Vec::new(),
            #[cfg(test)]
            touched: 0,
        }
    }

    fn mark(&mut self, v: usize, value: usize) {
        self.stamp[v] = self.epoch;
        self.value[v] = value;
        #[cfg(test)]
        {
            self.touched += 1;
        }
    }

    /// The mark of `v` in the current use, if it has one.
    pub(crate) fn marked(&self, v: usize) -> Option<usize> {
        (self.stamp[v] == self.epoch).then(|| self.value[v])
    }

    /// BFS from `start` through active vertices.  Afterwards
    /// [`Workspace::marked`] is the level of every reached vertex; returns
    /// the largest level.
    fn bfs(&mut self, start: usize) -> usize {
        let pattern = self.pattern;
        self.epoch += 1;
        self.visited.clear();
        self.visited.push(start);
        self.mark(start, 0);
        let mut head = 0;
        while let Some(&v) = self.visited.get(head) {
            head += 1;
            let level = self.value[v] + 1;
            for &w in pattern.neighbors(v) {
                if self.active[w] && self.stamp[w] != self.epoch {
                    self.mark(w, level);
                    self.visited.push(w);
                }
            }
        }
        self.value[self.visited[head - 1]]
    }

    /// A pseudo-peripheral vertex of the active component containing
    /// `start` — repeatedly move to a farthest vertex of minimum
    /// `(degree, index)` until the eccentricity stops growing — and its
    /// eccentricity.  The levels left behind are those of the returned
    /// vertex.
    pub(crate) fn pseudo_peripheral(&mut self, start: usize) -> (usize, usize) {
        let mut current = start;
        let mut best_eccentricity = 0;
        loop {
            let eccentricity = self.bfs(current);
            if eccentricity <= best_eccentricity && best_eccentricity > 0 {
                return (current, eccentricity);
            }
            best_eccentricity = eccentricity;
            // The farthest vertices are the tail of the visit list.
            let next = self
                .visited
                .iter()
                .rev()
                .take_while(|&&v| self.value[v] == eccentricity)
                .min_by_key(|&&v| (self.pattern.degree(v), v));
            match next {
                Some(&v) if v != current => current = v,
                _ => return (current, eccentricity),
            }
        }
    }

    /// Connected pieces of `vertices` in the active subgraph: pieces in
    /// order of their first vertex, each in depth-first pop order.
    pub(crate) fn pieces(&mut self, vertices: &[usize]) -> Vec<Vec<usize>> {
        const MEMBER: usize = 0;
        const SEEN: usize = 1;
        let pattern = self.pattern;
        self.epoch += 1;
        for &v in vertices {
            self.mark(v, MEMBER);
        }
        let mut pieces = Vec::new();
        for &start in vertices {
            if self.value[start] == SEEN {
                continue;
            }
            let mut piece = Vec::new();
            self.mark(start, SEEN);
            self.stack.push(start);
            while let Some(v) = self.stack.pop() {
                piece.push(v);
                for &w in pattern.neighbors(v) {
                    if self.active[w] && self.marked(w) == Some(MEMBER) {
                        self.mark(w, SEEN);
                        self.stack.push(w);
                    }
                }
            }
            pieces.push(piece);
        }
        pieces
    }

    /// The edges of the subgraph induced on `vertices`, in local labels
    /// (a vertex's label is its position in `vertices`), each once.
    pub(crate) fn induced_edges(&mut self, vertices: &[usize]) -> &[(usize, usize)] {
        let pattern = self.pattern;
        self.epoch += 1;
        for (local, &v) in vertices.iter().enumerate() {
            self.mark(v, local);
        }
        self.edges.clear();
        for (local, &v) in vertices.iter().enumerate() {
            for &w in pattern.neighbors(v) {
                match self.marked(w) {
                    Some(other) if other > local => self.edges.push((local, other)),
                    _ => {}
                }
            }
        }
        &self.edges
    }
}
