//! # minio — out-of-core tree traversals and the MinIO problem
//!
//! When the main memory `M` is smaller than the MinMemory value of a tree,
//! some files must temporarily be written to secondary memory (Section V of
//! the paper).  The *MinIO* problem asks for the traversal and the eviction
//! schedule that minimise the total volume of data written out.  The paper
//! proves MinIO NP-complete — even when the traversal is fixed and even when
//! it is restricted to postorders (Theorem 2, reduction from 2-Partition) —
//! and proposes six greedy eviction heuristics, all implemented here:
//!
//! * **LSNF** (Last Scheduled Node First) — evict the files that will be used
//!   latest; optimal for the *divisible* relaxation where fractions of files
//!   can be written out;
//! * **First Fit** — the first (latest-used) file large enough to cover the
//!   deficit, falling back to LSNF;
//! * **Best Fit** — the file whose size is closest to the deficit;
//! * **First Fill** — the first file smaller than the deficit, repeatedly,
//!   falling back to LSNF;
//! * **Best Fill** — the file closest to the deficit among those smaller than
//!   it, repeatedly, falling back to LSNF;
//! * **Best-K Combination** — the best subset of the first `K` (default 5)
//!   latest-used files.
//!
//! Beyond the paper's catalogue, three policies adapted from the caching
//! literature (LRU ageing, a GDSF-style size-aware rule, an S3-FIFO-style
//! segmented queue) complete the closed set [`Policy`] (see [`policy`]):
//! one enum value per policy, [`Policy::ALL`] for sweeps, and
//! [`FromStr`](std::str::FromStr) for the names configurations carry.
//!
//! The main entry point is [`schedule_io_with`], which simulates an
//! out-of-core execution of a given traversal with a given amount of memory
//! under any [`Policy`] and returns the resulting I/O volume and eviction
//! schedule.  [`check_out_of_core`] implements Algorithm 2 of
//! the paper and validates such a schedule independently.
//! [`divisible_lower_bound`] gives a per-traversal lower bound on the I/O
//! volume by solving the divisible relaxation exactly.  Both walks pay only
//! for their deficits: until the first step that runs short they add and
//! subtract file sizes, and from there on they keep the resident files in
//! an ordered 64-ary bit tree.  A [`Walk`] validates a traversal once for
//! any number of simulations and bounds, each with an optional stop probe.
//!
//! ```
//! use treemem::gadgets::harpoon;
//! use treemem::postorder::best_postorder;
//! use minio::{schedule_io_with, Policy};
//!
//! let tree = harpoon(4, 400, 1);
//! let traversal = best_postorder(&tree).traversal;
//! // Run with less memory than the postorder needs (701): I/O is required.
//! let run = schedule_io_with(&tree, &traversal, 500, Policy::FirstFit).unwrap();
//! assert!(run.io_volume > 0);
//! ```

mod bit_tree;
pub mod exact;
pub mod heuristics;
pub mod policy;
pub mod schedule;

pub use exact::{exact_min_io, ExactMinIo};
pub use heuristics::{divisible_lower_bound, schedule_io_with, MinIoError, OutOfCoreRun, Walk};
pub use policy::{Candidate, EvictionContext, Policy, PolicyRegistry, Session};
pub use schedule::{check_out_of_core, IoSchedule, OutOfCoreCheck};
