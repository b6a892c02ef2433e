//! Exploration statistics, matching the columns of the paper's Table 1.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use symsc_smt::SolverStats;

/// Per-direction hit counts of one symbolic fork site.
///
/// A *site* is identified by the structural fingerprint of the branch
/// condition (see [`TermPool::fingerprint`](symsc_smt::TermPool)): two
/// decisions over structurally identical conditions are the same site, on
/// any worker and in any pool. The counts are *paths*, not executions — a
/// path that decides the same site twice in one direction counts once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchCoverage {
    /// Paths on which the site was decided `true`.
    pub taken: u64,
    /// Paths on which the site was decided `false`.
    pub not_taken: u64,
}

impl BranchCoverage {
    /// Whether both directions of the site were exercised.
    pub fn both_directions(&self) -> bool {
        self.taken > 0 && self.not_taken > 0
    }

    /// Directions exercised at this site (0, 1 or 2).
    pub fn directions(&self) -> u64 {
        u64::from(self.taken > 0) + u64::from(self.not_taken > 0)
    }
}

/// Aggregate counters for one exploration.
///
/// The paper reports, per test: result, executed LLVM instructions, wall
/// time, explored paths, and the share of time spent in the SMT solver.
/// Our engine has no LLVM bytecode; `instructions` counts *engine
/// operations* instead (term constructions plus branch decisions), which is
/// the closest native analogue of interpreted instruction count.
#[derive(Clone, Debug, Default)]
pub struct ExplorationStats {
    /// Completed execution paths.
    pub paths: u64,
    /// Engine operations executed (term constructions + branch decisions).
    pub instructions: u64,
    /// Branch decisions taken (included in `instructions`).
    pub decisions: u64,
    /// Total wall-clock exploration time.
    pub time: Duration,
    /// Wall-clock time spent inside the SMT solver, summed over the
    /// engine's threads.
    pub solver_time: Duration,
    /// Time the engine's threads spent executing paths, summed over the
    /// threads: `time` itself for a single-threaded exploration.
    pub busy_time: Duration,
    /// Raw statistics from the SMT layer.
    pub solver: SolverStats,
    /// Copy-on-write path snapshots captured at fork sites (zero under
    /// the re-execution strategy). Scheduling-independent: a snapshot is
    /// captured per feasible fork, a pure function of the path set.
    pub fork_snapshots: u64,
    /// Decisions replayed solver-free while fast-forwarding resumed
    /// snapshots' forced prefixes (included in `decisions`; zero under
    /// the re-execution strategy, which re-solves its prefixes).
    pub fast_forward_decisions: u64,
    /// Symbolic branch coverage: fork-site fingerprint -> per-direction
    /// path counts. Deterministic across worker counts — the map is a pure
    /// function of the explored path set.
    pub branches: BTreeMap<u128, BranchCoverage>,
    /// Paths physically executed by the engine, including partial runs
    /// aborted by a join-point adoption. Equals `paths` under
    /// `ExploreOrder::Exhaustive`; the merge benchmark's reduction
    /// factor is `paths / executed_paths`.
    pub executed_paths: u64,
    /// Represented paths synthesized by structural state merging (equal
    /// or support-disjoint prefix constraint sets at a join point).
    pub merged_paths: u64,
    /// Represented paths synthesized by subsumption — an incremental-SAT
    /// implication query proved the prefixes mutually equivalent.
    pub subsumed_paths: u64,
    /// Join points registered (first arrivals that became subtree owners).
    pub join_sites: u64,
    /// Join-point arrivals that failed the soundness checks and fell
    /// back to normal execution.
    pub merge_rejects: u64,
    /// Pending snapshots promoted out of depth-first order by the
    /// coverage-guided scheduler (sequential runs only).
    pub sched_promotions: u64,
}

impl ExplorationStats {
    /// Fraction of the engine's busy time spent in the solver, in percent
    /// — the paper's "Solver" column. Both times are summed over worker
    /// threads, so the share stays within 100 % at any worker count. Zero
    /// when no time was recorded.
    pub fn solver_share(&self) -> f64 {
        if self.busy_time.is_zero() {
            return 0.0;
        }
        100.0 * self.solver_time.as_secs_f64() / self.busy_time.as_secs_f64()
    }

    /// Executed engine operations per second of wall time.
    pub fn instructions_per_second(&self) -> f64 {
        if self.time.is_zero() {
            return 0.0;
        }
        self.instructions as f64 / self.time.as_secs_f64()
    }

    /// Distinct symbolic fork sites decided during the exploration.
    pub fn branch_sites(&self) -> u64 {
        self.branches.len() as u64
    }

    /// Exercised branch directions, counting each site's `true` and
    /// `false` outcomes separately (at most `2 * branch_sites()`).
    pub fn branches_covered(&self) -> u64 {
        self.branches.values().map(BranchCoverage::directions).sum()
    }

    /// Exercised directions over possible directions, in percent — the
    /// symbolic analogue of branch coverage. Zero when nothing forked.
    pub fn branch_coverage(&self) -> f64 {
        if self.branches.is_empty() {
            return 0.0;
        }
        100.0 * self.branches_covered() as f64 / (2 * self.branch_sites()) as f64
    }
}

impl fmt::Display for ExplorationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "paths: {} | instr: {} | time: {:.3}s | solver: {:.2}% \
             ({} queries, {} cache hits, {} cache misses) | \
             stack: {} slices, {} slice hits, {} subset-unsat, \
             {} model reuse, {} focus skips, {} core calls, {} evictions | \
             incremental: {} contexts, {} assumption solves, \
             {} clauses retained, {} restarts | \
             cow: {} snapshots, {} fast-forward decisions | \
             merge: {} executed, {} merged, {} subsumed, {} joins, \
             {} rejects, {} promotions | \
             branch sites: {} ({}/{} directions)",
            self.paths,
            self.instructions,
            self.time.as_secs_f64(),
            self.solver_share(),
            self.solver.queries,
            self.solver.cache_hits,
            self.solver.cache_misses,
            self.solver.slices,
            self.solver.slice_hits,
            self.solver.cex_subset_hits,
            self.solver.model_reuse_hits,
            self.solver.focus_skips,
            self.solver.sat_core_calls,
            self.solver.evictions,
            self.solver.incremental.contexts,
            self.solver.incremental.assumption_solves,
            self.solver.incremental.clauses_retained,
            self.solver.incremental.restarts,
            self.fork_snapshots,
            self.fast_forward_decisions,
            self.executed_paths,
            self.merged_paths,
            self.subsumed_paths,
            self.join_sites,
            self.merge_rejects,
            self.sched_promotions,
            self.branch_sites(),
            self.branches_covered(),
            2 * self.branch_sites(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_share_handles_zero_time() {
        let s = ExplorationStats::default();
        assert_eq!(s.solver_share(), 0.0);
        assert_eq!(s.instructions_per_second(), 0.0);
    }

    #[test]
    fn solver_share_is_a_percentage() {
        let s = ExplorationStats {
            time: Duration::from_secs(5),
            busy_time: Duration::from_secs(10),
            solver_time: Duration::from_secs(4),
            ..ExplorationStats::default()
        };
        assert!((s.solver_share() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn branch_coverage_counts_directions() {
        let mut s = ExplorationStats::default();
        assert_eq!(s.branch_sites(), 0);
        assert_eq!(s.branch_coverage(), 0.0);
        s.branches.insert(
            1,
            BranchCoverage {
                taken: 3,
                not_taken: 1,
            },
        );
        s.branches.insert(
            2,
            BranchCoverage {
                taken: 2,
                not_taken: 0,
            },
        );
        assert_eq!(s.branch_sites(), 2);
        assert_eq!(s.branches_covered(), 3);
        assert!((s.branch_coverage() - 75.0).abs() < 1e-9);
        assert!(s.branches[&1].both_directions());
        assert!(!s.branches[&2].both_directions());
    }

    #[test]
    fn display_mentions_paths_and_solver() {
        let s = ExplorationStats {
            paths: 7,
            ..ExplorationStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("paths: 7"));
        assert!(text.contains("solver"));
    }
}
