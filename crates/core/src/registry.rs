//! The error of a name lookup in one of the workspace's closed sets.
//!
//! [`Solver`](crate::solver::Solver) (MinMemory solvers) and
//! `minio::Policy` (the out-of-core eviction policies) each parse their
//! short stable names with [`FromStr`](std::str::FromStr).  A miss is one typed error,
//! [`UnknownName`], that lists every name the set knows, so callers — in
//! particular the `engine` facade's configuration validation — report the
//! alternatives instead of an anonymous `Option` miss.

/// A name lookup failed: no entry of the set is called `name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownName {
    /// What kind of entry was looked up (`"solver"`, `"policy"`, ...).
    pub kind: &'static str,
    /// The name that was requested.
    pub name: String,
    /// Every name the set does know, in its `ALL` order.
    pub known: Vec<String>,
}

impl std::fmt::Display for UnknownName {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            fmt,
            "unknown {} '{}' (registered: {})",
            self.kind,
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownName {}
