//! The D5 allowlist: every `Ordering::Relaxed` site in the workspace,
//! with the argument for why relaxed ordering is sound *there*.
//!
//! This list is deliberately a compiled constant, not a config file:
//! adding a `Relaxed` means editing this crate, which puts the
//! justification in front of a reviewer. Entries are keyed by file and
//! carry the expected site count; detlint reports a finding when a
//! file's actual count drifts from its entry (new unreviewed site, or
//! a stale entry after a refactor) and when an entry names a file that
//! no longer exists.

/// One allowlisted file.
#[derive(Clone, Copy, Debug)]
pub struct RelaxedAllow {
    /// Workspace-relative path (forward slashes).
    pub file: &'static str,
    /// Number of `Ordering::Relaxed` sites expected in non-test code.
    pub sites: usize,
    /// Why relaxed ordering is sound at those sites.
    pub why: &'static str,
}

/// Every reviewed `Ordering::Relaxed` site in the workspace.
pub const RELAXED_ALLOWLIST: &[RelaxedAllow] = &[
    RelaxedAllow {
        file: "crates/store/src/tamper.rs",
        sites: 1,
        why: "scratch-file name uniquifier: the fetch_add only needs per-process uniqueness \
              of the returned value, never cross-thread ordering, and the name stays out of \
              every trace",
    },
];
