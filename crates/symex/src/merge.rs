//! State merging, subsumption pruning and join-point bookkeeping.
//!
//! Path count — not solver time — dominates once the fork and solver
//! optimizations are in place, so this module attacks it directly, in the
//! spirit of the path-explosion countermeasures surveyed for hardware
//! symbolic execution: *state merging* at testbench-published join
//! points, *subsumption* of pending states whose constraint set is
//! implied by an already-explored one, and a *heuristic scheduler* next
//! to the exhaustive drain.
//!
//! The unit of sharing is a **join point**: a fork site (structural
//! fingerprint) reached right after the testbench published its live
//! state through [`SymCtx::note_state`](crate::SymCtx::note_state). Two
//! paths arriving at the same site with identical published state marks
//! are at the same *continuation*: everything the suffix does is a
//! function of the published state, the symbolic inputs, and the path
//! constraint set. The first arrival becomes the join's *owner* and
//! explores the whole subtree normally; a later arrival *adopts* the
//! owner's recorded suffix traces — synthesizing one represented path
//! per suffix — instead of re-executing the subtree, provided a
//! soundness check shows its constraint set cannot change any suffix
//! verdict:
//!
//! 1. **structural merge** — the two prefix constraint sets are equal as
//!    fingerprint sets, or differ only in constraints whose variable
//!    support is disjoint from the transitive support closure of the
//!    suffix (so every suffix solver verdict, pinned value and
//!    counterexample model — all defined per independence slice — is
//!    untouched);
//! 2. **subsumption** — otherwise, an incremental-SAT implication query
//!    ([`Solver::check_implied`](symsc_smt::Solver)) proves the two
//!    prefixes mutually imply each other's extra constraints (equivalent
//!    feasible sets ⇒ identical suffix verdicts). Only attempted when
//!    the suffix pins no values and records no errors, because those are
//!    per-slice *models*, not verdicts.
//!
//! Adopted errors are re-solved canonically under the adopter's own
//! prefix (same structural constraint set the exhaustive engine would
//! have solved), which is what keeps merged reports byte-identical to
//! the exhaustive oracle's. All decisions are pure functions of
//! structural fingerprints and canonical constraint sets — the same
//! determinism contract `ForkStrategy::Reexec` pins for forking.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Mutex, MutexGuard, PoisonError};

use symsc_smt::TranscriptStore;

use crate::error::{ErrorKind, SymError};

/// How the explorer orders and prunes pending paths — the path-explosion
/// countermeasure selector.
///
/// [`Exhaustive`](ExploreOrder::Exhaustive) is the reference semantics
/// and the differential oracle: every feasible path is executed. The
/// other orders must report byte-identical verdicts and coverage; they
/// only change *which* paths are physically executed
/// ([`MergeEager`](ExploreOrder::MergeEager)) or in what order
/// ([`CoverageGuided`](ExploreOrder::CoverageGuided)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExploreOrder {
    /// Execute every feasible path (the default; the oracle).
    #[default]
    Exhaustive,
    /// Prioritize pending snapshots whose fork site has an unvisited
    /// `false` direction — KLEE-style coverage-first scheduling. Each
    /// worker picks by the fork sites its own paths have decided, so at
    /// one worker the order is deterministic and with several it depends
    /// on scheduling. A pure visitation order: the explored path set (and
    /// the report) is unchanged at any worker count.
    CoverageGuided,
    /// Merge and subsume paths at testbench-published join points (see
    /// the [module docs](self)). Reports stay byte-identical to
    /// [`Exhaustive`](ExploreOrder::Exhaustive); `stats.paths` still
    /// counts *represented* paths, while `stats.executed_paths` counts
    /// the (much smaller) number physically executed. At one worker the
    /// visitation is depth-first, so every join owner completes its
    /// subtree before any sibling arrives.
    MergeEager,
}

/// One event of a path's structural trace. Recorded only under
/// [`ExploreOrder::MergeEager`]; every fingerprint is pool-independent,
/// so a trace recorded on one worker can be adopted (and its constraint
/// terms rebuilt) on any other.
#[derive(Clone, Debug)]
pub(crate) enum TraceEvent {
    /// A symbolic branch decision at fork-site `site`, taken `dir`.
    Decide { site: u128, dir: bool },
    /// A constraint pushed on the path (decision, assumption or guard).
    Constraint(u128),
    /// A concretization pin `term == value` pushed on the path.
    Pin(u128),
    /// A functional-coverage bin hit.
    Cover(String),
    /// A symbolic input declared (first declaration on the path).
    Input(String),
    /// An error recorded on the path. `cons_hwm` is the number of
    /// constraints pushed *before* the error (trace-local coordinates);
    /// `neg` is the violated condition's negation (the solve focus), or
    /// `None` for errors solved against the bare path constraints.
    Error {
        kind: ErrorKind,
        message: String,
        cons_hwm: usize,
        neg: Option<u128>,
    },
}

/// A completed path's structural trace: its decision vector plus the
/// event stream that produced it. Adoption replays these *as data*.
#[derive(Clone, Debug)]
pub(crate) struct PathTrace {
    pub(crate) taken: Vec<bool>,
    pub(crate) events: Vec<TraceEvent>,
}

/// The first path to arrive at a join key: its decision prefix (the
/// subtree root) and its prefix constraint set as fingerprints.
#[derive(Clone, Debug)]
pub(crate) struct OwnerEntry {
    pub(crate) prefix: Vec<bool>,
    pub(crate) fps: Vec<u128>,
}

/// Merge/subsumption counters, folded into
/// [`ExplorationStats`](crate::ExplorationStats).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MergeCounters {
    pub(crate) merged_paths: u64,
    pub(crate) subsumed_paths: u64,
    pub(crate) join_sites: u64,
    pub(crate) merge_rejects: u64,
}

/// One explored path, as harvested from a worker or synthesized by an
/// adoption: everything needed to reconstruct the canonical report.
pub(crate) struct PathRecord {
    /// The branch directions taken, which identify the path uniquely and
    /// define its canonical (depth-first) position.
    pub(crate) taken: Vec<bool>,
    /// Errors recorded on this path (path indices renumbered at merge).
    pub(crate) errors: Vec<SymError>,
    /// Coverage bins hit on this path.
    pub(crate) coverage: BTreeSet<String>,
    /// `(fork-site fingerprint, direction)` pairs decided on this path.
    pub(crate) branches: BTreeSet<(u128, bool)>,
}

/// The exploration-wide merge state, shared by all workers.
#[derive(Default)]
pub(crate) struct MergeState {
    /// Pool-independent term structure for every fingerprint referenced
    /// by an owner entry or a stored trace.
    pub(crate) store: TranscriptStore,
    /// Join key → first arrival.
    pub(crate) owners: HashMap<u128, OwnerEntry>,
    /// Traces of completed paths — executed and synthesized alike, so
    /// adoption composes (an outer join can adopt paths an inner join
    /// synthesized).
    pub(crate) traces: Vec<PathTrace>,
    /// Live-unit coverage: for every pending-or-running unit of work
    /// (keyed by its forced prefix), a count at the unit's prefix and
    /// every ancestor. `cover[p] > 0` ⇔ some live unit's subtree
    /// intersects the subtree under `p`.
    cover: HashMap<Vec<bool>, u64>,
    pub(crate) counters: MergeCounters,
}

impl MergeState {
    /// Whether any pending or running unit of work can still produce a
    /// path under `prefix` — i.e. the subtree is *not* fully explored.
    pub(crate) fn subtree_active(&self, prefix: &[bool]) -> bool {
        self.cover.get(prefix).copied().unwrap_or(0) > 0
    }

    fn bump(&mut self, prefix: &[bool], up: bool) {
        for k in 0..=prefix.len() {
            let key = prefix[..k].to_vec();
            if up {
                *self.cover.entry(key).or_insert(0) += 1;
            } else {
                let slot = self
                    .cover
                    .get_mut(&key)
                    .expect("removing a unit that was never added");
                *slot -= 1;
                if *slot == 0 {
                    self.cover.remove(&key);
                }
            }
        }
    }
}

/// Cross-worker handle to the merge state (a plain mutex: merge-lock
/// sections are short — solver work happens outside the lock).
#[derive(Default)]
pub(crate) struct MergeShared {
    state: Mutex<MergeState>,
}

impl MergeShared {
    pub(crate) fn new() -> MergeShared {
        MergeShared::default()
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, MergeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a pending-or-running unit of work by its forced prefix.
    pub(crate) fn add_unit(&self, prefix: &[bool]) {
        self.lock().bump(prefix, true);
    }

    /// Removes a completed unit. Callers must add the units it forked
    /// *before* removing it, so a subtree never looks complete early.
    pub(crate) fn remove_unit(&self, prefix: &[bool]) {
        self.lock().bump(prefix, false);
    }

    pub(crate) fn counters(&self) -> MergeCounters {
        self.lock().counters
    }
}

/// FNV-1a over 128-bit words — the join-key mixer. Deterministic and
/// pool-independent, like everything it hashes.
fn fnv128(acc: u128, word: u128) -> u128 {
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    let mut h = acc;
    for chunk in [word as u64, (word >> 64) as u64] {
        h ^= u128::from(chunk);
        h = h.wrapping_mul(PRIME);
    }
    h
}

const FNV_OFFSET: u128 = 0x6C62_272E_07BB_0142_62B8_2175_6295_C58D;

/// Hashes a path's published state marks (tag → digest map).
pub(crate) fn hash_marks(marks: &BTreeMap<String, u64>) -> u128 {
    let mut h = FNV_OFFSET;
    for (tag, digest) in marks {
        for byte in tag.bytes() {
            h = fnv128(h, u128::from(byte));
        }
        h = fnv128(h, u128::from(*digest));
    }
    h
}

/// The join key: a pure function of the fork-site fingerprint and the
/// published state marks — identical on every worker and in every pool.
pub(crate) fn join_key(site: u128, mark_hash: u128) -> u128 {
    fnv128(fnv128(FNV_OFFSET, site), mark_hash)
}

/// An order-sensitive accumulator for peripheral state digests.
///
/// Peripherals fold their observable state — term fingerprints
/// ([`crate::SymWord::fingerprint`]), concrete flags, counters — into a
/// digest and publish it via [`crate::SymCtx::note_state`]. Two states
/// fold to the same digest exactly when their symbolic registers are
/// structurally identical, so the digest is deterministic across pools,
/// workers and fork strategies.
#[derive(Clone, Debug)]
pub struct StateDigest {
    h: u128,
}

impl StateDigest {
    /// A fresh digest (FNV-1a offset basis).
    pub fn new() -> StateDigest {
        StateDigest { h: FNV_OFFSET }
    }

    /// Folds a 128-bit term fingerprint.
    pub fn push(&mut self, fingerprint: u128) {
        self.h = fnv128(self.h, fingerprint);
    }

    /// Folds a concrete 64-bit value (booleans, counters, lengths).
    pub fn push_u64(&mut self, value: u64) {
        self.push(u128::from(value));
    }

    /// Folds a byte string, length-prefixed so distinct concatenations
    /// fold distinctly (used by the campaign orchestrator to fingerprint
    /// specs and serialized results).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.push_u64(bytes.len() as u64);
        for b in bytes {
            self.push(u128::from(*b));
        }
    }

    /// Folds a string (UTF-8 bytes, length-prefixed).
    pub fn push_str(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// Folds a concrete boolean (handshake flags, option discriminants —
    /// the cycle-level model's notification registers fold these).
    pub fn push_bool(&mut self, value: bool) {
        self.push_u64(u64::from(value));
    }

    /// The folded digest, ready for [`crate::SymCtx::note_state`].
    pub fn finish(&self) -> u64 {
        (self.h as u64) ^ ((self.h >> 64) as u64)
    }
}

impl Default for StateDigest {
    fn default() -> StateDigest {
        StateDigest::new()
    }
}

/// A trace's continuation from a join at decision depth `depth`: the
/// remaining decision directions, the event tail (starting at the join
/// decision itself), and how many constraints the trace pushed before
/// the tail (for rebasing error high-water marks).
#[derive(Clone, Debug)]
pub(crate) struct Suffix {
    pub(crate) taken_tail: Vec<bool>,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) pre_cons: usize,
}

impl Suffix {
    /// Whether the suffix pins concretized values or records errors —
    /// per-slice *models* rather than verdicts, which the implication
    /// (subsumption) check cannot preserve.
    pub(crate) fn has_models(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, TraceEvent::Pin(_) | TraceEvent::Error { .. }))
    }
}

/// Splits a completed trace at decision depth `depth` (the join
/// decision's index in `taken`). Returns `None` if the trace has no
/// decision at that depth.
pub(crate) fn split_suffix(trace: &PathTrace, depth: usize) -> Option<Suffix> {
    if trace.taken.len() <= depth {
        return None;
    }
    let mut decides = 0usize;
    let mut pre_cons = 0usize;
    for (i, event) in trace.events.iter().enumerate() {
        match event {
            TraceEvent::Decide { .. } => {
                if decides == depth {
                    return Some(Suffix {
                        taken_tail: trace.taken[depth..].to_vec(),
                        events: trace.events[i..].to_vec(),
                        pre_cons,
                    });
                }
                decides += 1;
            }
            TraceEvent::Constraint(_) | TraceEvent::Pin(_) => pre_cons += 1,
            _ => {}
        }
    }
    None
}

/// The transitive support closure of the suffix constraint set, grown
/// over the `common` prefix constraints: every input name the suffix
/// queries can reach through shared-variable chains. A prefix constraint
/// whose support is disjoint from this closure lives in an independence
/// slice no suffix query ever touches — suffix verdicts, pinned values
/// and counterexample models are invariant to it ("models are defined
/// per slice").
pub(crate) fn suffix_closure(
    store: &mut TranscriptStore,
    suffix_fps: &BTreeSet<u128>,
    prefix: &BTreeSet<u128>,
) -> BTreeSet<String> {
    let mut closure: BTreeSet<String> = BTreeSet::new();
    for &fp in suffix_fps {
        closure.extend(store.support_names(fp).iter().cloned());
    }
    // Fixpoint over *all* prefix constraints (common and diffs alike): a
    // constraint bridging a closure variable to a fresh one pulls the
    // fresh one in, so at fixpoint every prefix constraint has support
    // either fully inside or fully outside the closure — the constraint
    // graph is split into a suffix-observable component and independent
    // slices.
    let mut absorbed: BTreeSet<u128> = BTreeSet::new();
    loop {
        let mut changed = false;
        for &fp in prefix {
            if absorbed.contains(&fp) {
                continue;
            }
            let support = store.support_names(fp);
            if support.iter().any(|name| closure.contains(name)) {
                closure.extend(support.iter().cloned());
                absorbed.insert(fp);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    closure
}

/// Whether `fp`'s support touches the closure — i.e. whether the suffix
/// can observe this prefix constraint at all.
pub(crate) fn touches_closure(
    store: &mut TranscriptStore,
    closure: &BTreeSet<String>,
    fp: u128,
) -> bool {
    store
        .support_names(fp)
        .iter()
        .any(|name| closure.contains(name))
}

/// The structural-merge soundness check: every `diff` constraint's
/// support must be disjoint from the suffix closure (grown over common
/// and diff constraints alike). The adoption path inlines this
/// partitioning to also collect the *harmful* diffs; this composed form
/// is kept for the unit tests.
#[cfg(test)]
pub(crate) fn closure_disjoint(
    store: &mut TranscriptStore,
    suffix_fps: &BTreeSet<u128>,
    common: &BTreeSet<u128>,
    diffs: &BTreeSet<u128>,
) -> bool {
    let prefix: BTreeSet<u128> = common.union(diffs).copied().collect();
    let closure = suffix_closure(store, suffix_fps, &prefix);
    diffs
        .iter()
        .all(|&fp| !touches_closure(store, &closure, fp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_smt::{TermPool, Width};

    #[test]
    fn join_keys_separate_sites_and_marks() {
        let mut marks = BTreeMap::new();
        marks.insert("plic".to_string(), 1u64);
        let a = join_key(10, hash_marks(&marks));
        let b = join_key(11, hash_marks(&marks));
        marks.insert("plic".to_string(), 2u64);
        let c = join_key(10, hash_marks(&marks));
        assert_ne!(a, b, "different sites, different keys");
        assert_ne!(a, c, "different marks, different keys");
        let mut same = BTreeMap::new();
        same.insert("plic".to_string(), 1u64);
        assert_eq!(a, join_key(10, hash_marks(&same)), "keys are pure");
    }

    #[test]
    fn unit_cover_tracks_subtrees() {
        let shared = MergeShared::new();
        shared.add_unit(&[]);
        shared.add_unit(&[true, false]);
        {
            let st = shared.lock();
            assert!(st.subtree_active(&[]));
            assert!(st.subtree_active(&[true]));
            assert!(st.subtree_active(&[true, false]));
            assert!(!st.subtree_active(&[true, false, true]));
            assert!(!st.subtree_active(&[false]));
        }
        shared.remove_unit(&[true, false]);
        {
            let st = shared.lock();
            assert!(!st.subtree_active(&[true]), "only the root unit is live");
            assert!(st.subtree_active(&[]));
        }
        shared.remove_unit(&[]);
        assert!(!shared.lock().subtree_active(&[]));
    }

    #[test]
    fn split_suffix_finds_the_join_decision() {
        let trace = PathTrace {
            taken: vec![true, false, true],
            events: vec![
                TraceEvent::Constraint(1),
                TraceEvent::Decide {
                    site: 10,
                    dir: true,
                },
                TraceEvent::Constraint(2),
                TraceEvent::Pin(3),
                TraceEvent::Decide {
                    site: 20,
                    dir: false,
                },
                TraceEvent::Constraint(4),
                TraceEvent::Cover("bin".to_string()),
                TraceEvent::Decide {
                    site: 30,
                    dir: true,
                },
                TraceEvent::Constraint(5),
            ],
        };
        let suffix = split_suffix(&trace, 1).expect("depth 1 exists");
        assert_eq!(suffix.taken_tail, vec![false, true]);
        assert_eq!(suffix.pre_cons, 3, "constraint 1, 2 and the pin");
        assert!(matches!(
            suffix.events[0],
            TraceEvent::Decide { site: 20, .. }
        ));
        assert!(!suffix.has_models(), "no pins or errors after depth 1");
        let deep = split_suffix(&trace, 2).expect("depth 2 exists");
        assert!(!deep.has_models());
        assert!(split_suffix(&trace, 3).is_none());
    }

    #[test]
    fn closure_check_blocks_connected_diffs_only() {
        let mut pool = TermPool::new();
        let mut store = TranscriptStore::new();
        let i = pool.var("i", Width::W32);
        let t = pool.var("t", Width::W32);
        let four = pool.constant(4, Width::W32);
        let suffix_c = pool.ult(i, four); // suffix speaks about i
        let common_c = pool.ult(t, four); // common speaks about t
        let diff_t = pool.eq(t, four); // diff over t: disjoint from {i}
        let diff_i = pool.eq(i, four); // diff over i: connected
        let sfp = store.encode(&pool, suffix_c);
        let cfp = store.encode(&pool, common_c);
        let dt = store.encode(&pool, diff_t);
        let di = store.encode(&pool, diff_i);
        let suffix: BTreeSet<u128> = [sfp].into();
        let common: BTreeSet<u128> = [cfp].into();
        assert!(closure_disjoint(&mut store, &suffix, &common, &[dt].into()));
        assert!(!closure_disjoint(
            &mut store,
            &suffix,
            &common,
            &[di].into()
        ));

        // A bridging common constraint connects t to i transitively.
        let bridge = pool.eq(i, t);
        let bfp = store.encode(&pool, bridge);
        let common2: BTreeSet<u128> = [cfp, bfp].into();
        assert!(
            !closure_disjoint(&mut store, &suffix, &common2, &[dt].into()),
            "i == t pulls t into the suffix closure"
        );
    }
}
