//! Suspended path snapshots — the explorer's unit of work.
//!
//! A fork captures the forking path's live, solver-relevant state instead
//! of just a decision prefix: the concretization journal (values already
//! pinned on the shared prefix) and the errors already recorded on it.
//! Everything in a snapshot is *pool-independent* — directions, `u64`
//! values, rendered errors — because parallel workers keep private term
//! pools, and a snapshot forked on one worker must be resumable (stolen)
//! by any other. Terms are rebuilt structurally during fast-forward; the
//! hash-consed pools guarantee the rebuilt constraint set is identical.

use crate::cow::CowVec;
use crate::error::SymError;

/// A suspended engine state, ready to be resumed by any worker.
///
/// Under the copy-on-write strategy the engine *fast-forwards* through
/// `prefix` — pushing constraints and replaying `journal` without a single
/// solver call — and resumes live execution at the fork point. Under the
/// re-execution oracle strategy, `journal` and `errors` stay empty and the
/// prefix is re-solved from scratch, which is the original engine
/// semantics the differential harness compares against.
#[derive(Clone, Debug, Default)]
pub(crate) struct PathSnapshot {
    /// Branch directions from the root to (and including) the flipped
    /// fork decision.
    pub(crate) prefix: Vec<bool>,
    /// Values pinned by `concretize` on the shared prefix, in call order.
    /// O(chunks) to fork, shared with every sibling until one diverges.
    pub(crate) journal: CowVec<u64>,
    /// Errors recorded on the shared prefix (check-style guards record
    /// and continue, so a fork can extend past them). Restored verbatim
    /// with the path index rewritten to the resuming path's.
    pub(crate) errors: Vec<SymError>,
}

impl PathSnapshot {
    /// The root snapshot: no forced decisions, nothing to restore.
    pub(crate) fn root() -> PathSnapshot {
        PathSnapshot::default()
    }

    /// A prefix-only snapshot — the re-execution oracle's unit of work.
    pub(crate) fn from_prefix(prefix: Vec<bool>) -> PathSnapshot {
        PathSnapshot {
            prefix,
            ..PathSnapshot::default()
        }
    }

    /// Whether this is the root of an exploration (nothing forced).
    pub(crate) fn is_root(&self) -> bool {
        self.prefix.is_empty() && self.journal.is_empty() && self.errors.is_empty()
    }
}
