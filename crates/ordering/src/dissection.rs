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
//! costs O(its component) in time and nothing in call-stack depth.  Every
//! set on the stack writes its order into its own segment of the one n-long
//! output: a split component's pieces take its segment's front, one after
//! another in order of their first vertex, and its separator the tail.
//!
//! **Two threads, one permutation.**  At a split of a component of at least
//! `FORK_THRESHOLD` (2¹⁴) vertices, while helper threads remain
//! (`available_parallelism() − 1`, counted down per fork), the first pieces
//! — a prefix holding about half the split's vertices, at least one piece —
//! are ordered on a scoped helper thread with a workspace of its own, and
//! the other pieces and then the separator on the calling thread.  The order
//! of a piece is a function of its induced subgraph alone: every search starts
//! inside it and never enters an inactive vertex, the separator that bounds
//! it is inactive, and a leaf's minimum degree reads only the marks of its
//! own use.  So neither side reads or writes a vertex of the other, each
//! writes only its own segment, and the permutation is bit-identical to the
//! serial one on any number of cores.  Both threads poll the stop probe
//! where the serial code does; a helper's panic is resumed on the caller.

use sparsemat::SparsePattern;

use crate::perm::Permutation;
use crate::workspace::Workspace;

/// Subgraphs smaller than this are ordered directly with minimum degree.
pub(crate) const DISSECTION_CUTOFF: usize = 32;

/// A split of a component at least this large orders its first piece on a
/// helper thread, while helpers remain.  The measured break-even is far
/// below it: forking every split of ≥ 2¹⁰ vertices was already faster on a
/// 2 025-vertex grid (release, 2 vCPUs, square 5-point grids, minimum of 31
/// runs: 0.66–0.80 against 0.78–1.45 ms; 1.7–2.2 against 2.5–2.9 ms at
/// 4 096, 6.8–8.0 against 10.9–13.1 ms at 16 384), where a thread start
/// costs 0.1–0.25 ms.  The threshold is set higher on purpose: a served
/// problem this large gains several milliseconds, and the smaller ones —
/// every problem of the served mix, whose concurrent requests already keep
/// the cores busy, and the 4 913-vertex 3-D grid — stay on one thread.
pub(crate) const FORK_THRESHOLD: usize = 1 << 14;

/// Compute a nested-dissection ordering of `pattern`.
pub fn nested_dissection(pattern: &SparsePattern) -> Permutation {
    nested_dissection_with_stop(pattern, None).expect("no stop probe, cannot be cancelled")
}

/// [`nested_dissection`] with a cooperative stop probe, checked at every
/// recursion step and inside the leaf minimum-degree orderings, on every
/// thread.  Returns `None` — discarding all partial work — as soon as the
/// probe fires.  Reached from outside the crate through
/// `OrderingMethod::order_with_stop`.
pub(crate) fn nested_dissection_with_stop(
    pattern: &SparsePattern,
    stop: Option<&(dyn Fn() -> bool + Sync)>,
) -> Option<Permutation> {
    // Below the threshold nothing forks, so the host is not asked.
    let helpers = if pattern.n() >= FORK_THRESHOLD {
        std::thread::available_parallelism().map_or(0, |cores| cores.get() - 1)
    } else {
        0
    };
    let fork = Fork {
        threshold: FORK_THRESHOLD,
        helpers,
    };
    dissect(&mut Workspace::new(pattern), stop, fork).map(Permutation::from_new_to_old)
}

/// Which splits go to a helper thread: those of components of at least
/// `threshold` vertices, while `helpers` remain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fork {
    pub(crate) threshold: usize,
    pub(crate) helpers: usize,
}

impl Fork {
    /// Every split on the calling thread.
    #[cfg(test)]
    pub(crate) const SERIAL: Fork = Fork {
        threshold: usize::MAX,
        helpers: 0,
    };
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

/// A set of vertices on the work stack, and where its segment of the
/// output starts.
type Item = (Vec<usize>, State, usize);

/// Order every vertex of the workspace's pattern, separators last.  `None`
/// means the stop probe fired.
pub(crate) fn dissect(
    ws: &mut Workspace<'_>,
    stop: Option<&(dyn Fn() -> bool + Sync)>,
    fork: Fork,
) -> Option<Vec<usize>> {
    let n = ws.pattern.n();
    let mut order = vec![0; n];
    let mut work = vec![((0..n).collect(), State::Unsplit, 0)];
    order_items(ws, &mut work, &mut order, stop, fork)?;
    Some(order)
}

/// Order every set on `work` into its segment of `out`.  `None` means the
/// stop probe fired.
fn order_items(
    ws: &mut Workspace<'_>,
    work: &mut Vec<Item>,
    out: &mut [usize],
    stop: Option<&(dyn Fn() -> bool + Sync)>,
    fork: Fork,
) -> Option<()> {
    // Popped innermost first: a separator sits below the pieces it separates.
    while let Some((component, state, at)) = work.pop() {
        if state != State::Separator && stop.is_some_and(|probe| probe()) {
            return None;
        }
        let segment = &mut out[at..at + component.len()];
        if state == State::Separator || component.len() <= DISSECTION_CUTOFF {
            order_with_minimum_degree(ws, &component, segment, stop)?;
            continue;
        }
        // The separator is the middle BFS level of a pseudo-peripheral
        // vertex.  On the input graph, the first BFS of that search also
        // tells whether the graph is connected; if not, it is split into
        // its connected pieces first (what a separator leaves behind is
        // split below).
        let (_, eccentricity) = if state == State::Unsplit {
            let first = ws.bfs(component[0]);
            if ws.reached() < component.len() {
                let pieces = ws.pieces(&component);
                drop(component);
                split(ws, work, pieces, Vec::new(), (at, segment), stop, fork)?;
                continue;
            }
            ws.pseudo_peripheral_after(component[0], first)
        } else {
            ws.pseudo_peripheral(component[0])
        };

        let middle = eccentricity / 2;
        let separator: Vec<usize> = component
            .iter()
            .copied()
            .filter(|&v| ws.marked(v) == Some(middle))
            .collect();
        // A dense little blob (eccentricity < 2) has no useful separator.
        if eccentricity < 2 || separator.is_empty() || separator.len() == component.len() {
            order_with_minimum_degree(ws, &component, segment, stop)?;
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
        drop(component);
        split(ws, work, pieces, separator, (at, segment), stop, fork)?;
    }
    Some(())
}

/// Queue the `pieces` and then the `separator` (empty for the top level's
/// connected pieces) of a component whose segment of the output starts at
/// `at` — or, for a component of at least `fork.threshold` vertices while
/// helpers remain, order its first pieces on a helper thread and the rest on
/// this one before returning.
fn split(
    ws: &mut Workspace<'_>,
    work: &mut Vec<Item>,
    pieces: Vec<Vec<usize>>,
    separator: Vec<usize>,
    (at, segment): (usize, &mut [usize]),
    stop: Option<&(dyn Fn() -> bool + Sync)>,
    fork: Fork,
) -> Option<()> {
    // Children in stack order, with their offsets in `segment`: the
    // separator's segment is the tail, the pieces' the front.
    let mut children = Vec::with_capacity(pieces.len() + 1);
    let mut end = segment.len() - separator.len();
    if !separator.is_empty() {
        children.push((separator, State::Separator, end));
    }
    for piece in pieces.into_iter().rev() {
        end -= piece.len();
        children.push((piece, State::Connected, end));
    }
    debug_assert_eq!(end, 0);
    if segment.len() < fork.threshold || fork.helpers == 0 {
        work.extend(
            children
                .into_iter()
                .map(|(set, state, k)| (set, state, at + k)),
        );
        return Some(());
    }
    fork_first(ws, children, segment, stop, fork)
}

/// Order the top of `children` — a split's first pieces, holding about half
/// of `segment` — on a helper thread with a workspace of its own, and the
/// other children on this thread; each child's offset is into `segment`.
/// See the module docs for why the two never meet.
fn fork_first(
    ws: &mut Workspace<'_>,
    mut children: Vec<Item>,
    segment: &mut [usize],
    stop: Option<&(dyn Fn() -> bool + Sync)>,
    fork: Fork,
) -> Option<()> {
    // The pieces are the top of `children`, in order, over the front of
    // `segment`.  The helper takes the first one, and each next one while
    // that brings its share closer to half; this thread keeps at least the
    // bottom child.
    let half = segment.len() / 2;
    let (mut first, mut taken) = (children.len(), 0);
    while let Some((piece, _, _)) = first.checked_sub(1).and_then(|top| children.get(top)) {
        if taken > 0 && (first == 1 || 2 * taken + piece.len() >= 2 * half) {
            break;
        }
        taken += piece.len();
        first -= 1;
    }
    if taken == 0 {
        return Some(());
    }
    let mut helper_work = children.split_off(first);
    #[cfg(test)]
    ws.helper_pieces.push(helper_work.len());
    let (head, tail) = segment.split_at_mut(taken);
    for child in &mut children {
        child.2 -= taken;
    }
    // The helpers left after this one, shared between the two sides.
    let spare = fork.helpers - 1;
    let helper_fork = Fork {
        helpers: spare / 2,
        ..fork
    };
    let caller_fork = Fork {
        helpers: spare - spare / 2,
        ..fork
    };
    let pattern = ws.pattern;
    let (ours, theirs) = std::thread::scope(|scope| {
        let helper = std::thread::Builder::new().spawn_scoped(scope, || {
            let vertices = helper_work.iter().flat_map(|(set, _, _)| set);
            let mut own = Workspace::on(pattern, vertices);
            order_items(&mut own, &mut helper_work, head, stop, helper_fork)
        });
        let ours = order_items(ws, &mut children, tail, stop, caller_fork);
        let theirs = helper.ok().map(|handle| {
            handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        });
        (ours, theirs)
    });
    match theirs {
        Some(theirs) => ours.and(theirs),
        // The helper could not start: its pieces are ordered here.
        None => {
            ours?;
            order_items(ws, &mut helper_work, head, stop, caller_fork)
        }
    }
}

/// Order the induced subgraph on `vertices` with minimum degree into
/// `segment` (in original labels).  `None` if the stop probe fired.
fn order_with_minimum_degree(
    ws: &mut Workspace<'_>,
    vertices: &[usize],
    segment: &mut [usize],
    stop: Option<&(dyn Fn() -> bool + Sync)>,
) -> Option<()> {
    if vertices.len() <= 1 {
        segment.copy_from_slice(vertices);
        return Some(());
    }
    let local = ws.order_induced(vertices, stop)?;
    for (slot, &k) in segment.iter_mut().zip(local) {
        *slot = vertices[k];
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mindeg::{fill_in, minimum_degree};
    use sparsemat::gen::{grid2d_5pt, grid3d_7pt, random_spd_pattern, ProblemKind};
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        let pattern = SparsePattern::from_edges(80, &[(0, 1), (40, 41), (41, 42)]).unwrap();
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

    /// Every split forks while helpers remain.
    fn forking(helpers: usize) -> Fork {
        Fork {
            threshold: 0,
            helpers,
        }
    }

    fn order(pattern: &SparsePattern, fork: Fork) -> Vec<usize> {
        dissect(&mut Workspace::new(pattern), None, fork).expect("no stop probe")
    }

    #[test]
    fn forked_orders_equal_the_serial_order() {
        for kind in ProblemKind::ALL {
            for nodes in [300, 3_000] {
                for seed in 0..3 {
                    let pattern = kind.generate(nodes, seed);
                    let serial = order(&pattern, Fork::SERIAL);
                    for helpers in 1..=3 {
                        assert!(
                            order(&pattern, forking(helpers)) == serial,
                            "{} n = {} seed {seed}, {helpers} helpers",
                            kind.name(),
                            pattern.n()
                        );
                    }
                }
            }
        }
        // Eight disjoint 70 × 70 grids: the top-level split has eight equal
        // pieces and no separator.  The helper takes the first four, half
        // the vertices, under the served threshold and one helper as under
        // every fork; the permutation is the serial one either way.
        let grid = grid2d_5pt(70, 70);
        let mut edges = Vec::new();
        for copy in 0..8 {
            let offset = copy * grid.n();
            for v in 0..grid.n() {
                let neighbors = grid.neighbors(v).iter().map(|&w| w as usize);
                edges.extend(neighbors.map(|w| (offset + v, offset + w)));
            }
        }
        let pattern = SparsePattern::from_edges(8 * grid.n(), &edges).unwrap();
        let serial = order(&pattern, Fork::SERIAL);
        let served = Fork {
            threshold: FORK_THRESHOLD,
            helpers: 1,
        };
        for fork in [served, forking(1), forking(2), forking(3)] {
            let mut ws = Workspace::new(&pattern);
            assert!(
                dissect(&mut ws, None, fork) == Some(serial.clone()),
                "{fork:?}"
            );
            assert_eq!(ws.helper_pieces.first(), Some(&4), "{fork:?}");
        }
    }

    #[test]
    fn a_disconnected_top_level_forks_its_first_piece() {
        let pattern = SparsePattern::from_edges(80, &[(0, 1), (40, 41), (41, 42)]).unwrap();
        assert_eq!(order(&pattern, forking(1)), order(&pattern, Fork::SERIAL));
    }

    /// A probe that counts only the polls of the helper thread (or only
    /// those of the calling one) fires on the k-th of them wherever that
    /// falls, and every helper thread has exited when the call returns: a
    /// thread-local guard the probe touches on a helper counts its exits.
    #[test]
    fn a_probe_firing_in_either_thread_cancels_the_forked_order() {
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static GUARD: OnExit = {
                STARTED.fetch_add(1, Ordering::SeqCst);
                OnExit
            };
        }
        let pattern = grid2d_5pt(60, 60);
        let caller = std::thread::current().id();
        let on_a_helper = || std::thread::current().id() != caller;
        let expected = order(&pattern, Fork::SERIAL);
        for on_helper in [false, true] {
            let polls = AtomicUsize::new(0);
            let quiet = || {
                if on_a_helper() {
                    GUARD.with(|_| ());
                }
                if on_a_helper() == on_helper {
                    polls.fetch_add(1, Ordering::SeqCst);
                }
                false
            };
            let ordered = dissect(&mut Workspace::new(&pattern), Some(&quiet), forking(1));
            assert_eq!(ordered.as_ref(), Some(&expected));
            let total = polls.load(Ordering::SeqCst);
            assert!(total > 8, "{total} polls, on the helper: {on_helper}");
            // The caller's first poll comes before the fork.
            for k in [2, 3, total / 2, total] {
                let polls = AtomicUsize::new(0);
                let fires_on_kth = || {
                    if on_a_helper() {
                        GUARD.with(|_| ());
                    }
                    on_a_helper() == on_helper && polls.fetch_add(1, Ordering::SeqCst) + 1 == k
                };
                let started = STARTED.load(Ordering::SeqCst);
                assert!(
                    dissect(
                        &mut Workspace::new(&pattern),
                        Some(&fires_on_kth),
                        forking(1)
                    )
                    .is_none(),
                    "poll {k} of {total}, on the helper: {on_helper}"
                );
                assert!(polls.load(Ordering::SeqCst) >= k);
                assert_eq!(STARTED.load(Ordering::SeqCst), started + 1, "one helper");
                assert_eq!(
                    EXITED.load(Ordering::SeqCst),
                    started + 1,
                    "a helper still runs"
                );
            }
        }
    }

    #[test]
    fn a_helper_panic_reaches_the_caller() {
        let pattern = grid2d_5pt(30, 30);
        let caller = std::thread::current().id();
        let panics_on_the_helper = || {
            assert!(std::thread::current().id() == caller, "helper probe");
            false
        };
        let payload = std::panic::catch_unwind(|| {
            dissect(
                &mut Workspace::new(&pattern),
                Some(&panics_on_the_helper),
                forking(1),
            )
        })
        .expect_err("the helper panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper probe"));
    }

    /// Workspaces whose epoch wraps at every one of the first uses of
    /// their marks — BFS, piece tags, leaf labels, and a piece split right
    /// after the BFS that tagged it — order as a fresh one does.
    #[test]
    fn a_wrapping_epoch_changes_no_order() {
        for pattern in [grid2d_5pt(23, 19), random_spd_pattern(250, 3.0, 4)] {
            let expected = order(&pattern, Fork::SERIAL);
            let rcm_expected: Vec<usize> = crate::rcm(&pattern)
                .as_new_to_old()
                .iter()
                .map(|&v| v as usize)
                .collect();
            for before_wrap in 0..64 {
                let start = u32::MAX - before_wrap;
                let mut ws = Workspace::starting_at(&pattern, start);
                assert_eq!(dissect(&mut ws, None, Fork::SERIAL), Some(expected.clone()));
                let mut ws = Workspace::starting_at(&pattern, start);
                assert_eq!(
                    crate::rcm::cuthill_mckee(&mut ws, None),
                    Some(rcm_expected.clone())
                );
            }
        }
    }

    /// Scale gates beside `naive`'s, run by CI in release: the threshold and
    /// helper count of a two-core host, on inputs large enough to fork.
    #[test]
    #[ignore]
    fn forked_equals_serial_on_a_450_x_450_grid_and_a_30_cube() {
        for pattern in [grid2d_5pt(450, 450), grid3d_7pt(30, 30, 30)] {
            assert!(pattern.n() >= FORK_THRESHOLD);
            let serial = order(&pattern, Fork::SERIAL);
            for helpers in [1, 3] {
                let fork = Fork {
                    threshold: FORK_THRESHOLD,
                    helpers,
                };
                assert!(order(&pattern, fork) == serial, "{helpers} helpers");
            }
        }
    }
}
