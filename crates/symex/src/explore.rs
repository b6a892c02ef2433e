//! The path explorer: copy-on-write snapshot forking over a worklist of
//! suspended engine snapshots.
//!
//! Exploration runs on a pool of worker threads (see
//! [`Explorer::workers`]). Every pending [`PathSnapshot`] is an
//! independent unit of work: a worker pops one, *fast-forwards* the
//! testbench through its forced prefix — solver-free, replaying the
//! pinned concretizations from the snapshot's journal — and resumes live
//! execution at the fork point, pushing newly captured snapshots back for
//! any worker to steal. Workers keep private term pools and solvers but
//! share one whole-query solver cache, so a feasibility query solved on
//! any worker is a cache hit on every other. Per-worker results are
//! merged into canonical (sequential depth-first) order, so the report is
//! independent of scheduling.
//!
//! The original forked *re-execution* engine — prefixes re-solved from
//! scratch — remains available via [`ForkStrategy::Reexec`] as the
//! differential oracle the snapshot engine is verified against.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

use symsc_smt::{CexCache, QueryCache, Solver};

use crate::ctx::{EngineState, PathTerm, SymCtx};
use crate::error::{ErrorKind, Report};
use crate::merge::{ExploreOrder, MergeShared, PathRecord};
use crate::snapshot::PathSnapshot;
use crate::stats::ExplorationStats;

thread_local! {
    static IN_EXPLORATION: Cell<bool> = const { Cell::new(false) };
}

static HOOK_INSTALL: Once = Once::new();

/// Installs (once, process-wide) a panic hook that silences panics raised
/// while a thread is inside an exploration — path termination is control
/// flow for the engine, not a crash — and forwards everything else to the
/// previously installed hook.
fn install_quiet_hook() {
    HOOK_INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if IN_EXPLORATION.with(Cell::get) {
                return;
            }
            previous(info);
        }));
    });
}

/// How the explorer orders pending paths — the analogue of KLEE's
/// searchers. The paper attributes its fast time-to-first-bug to "KLEE's
/// symbolic exploration heuristics, which attempt to solve the most
/// promising paths first"; the strategy is exposed here so its effect can
/// be measured (see the `exploration` bench).
///
/// Strategies order *visitation*, so they only matter on a sequential
/// exploration ([`Explorer::workers`]`(1)`) — with more workers, paths are
/// claimed greedily by the pool and the merged report is always in
/// canonical depth-first order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Depth-first: follow one execution to the end before backtracking
    /// (stack order). Deterministic; the default.
    DepthFirst,
    /// Breadth-first: explore all paths of depth *n* before any of depth
    /// *n + 1* (queue order). Finds shallow bugs first.
    BreadthFirst,
    /// Random-path selection with a deterministic seed (KLEE's
    /// `random-path` searcher): picks a pending prefix uniformly.
    RandomPath(u64),
}

/// How a fork materializes the other branch — the engine's state-capture
/// strategy.
///
/// Both strategies explore the same path tree and produce byte-identical
/// reports (every report-relevant value is a pure function of the
/// structural constraint set); they differ only in how much work resuming
/// a pending path costs. The differential harness in `crates/bench`
/// (`cow_fork`) holds them to that equivalence bar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForkStrategy {
    /// Copy-on-write snapshots (the default): a fork captures the live
    /// path state — concretization journal, prefix errors — in O(changed
    /// state), and resuming fast-forwards the prefix without any solver
    /// work. The KLEE-style state-forking analogue.
    CowSnapshot,
    /// Forked re-execution: a fork records only the decision prefix and
    /// the resume re-solves it from scratch — O(depth) solver work per
    /// path. The original engine, kept as the differential oracle.
    Reexec,
}

/// Drives the symbolic exploration of a testbench closure.
///
/// The closure is executed once per path. With one worker, all paths share
/// one term pool and one solver; with several, each worker keeps its own
/// pool and solver but all share one whole-query cache.
///
/// # Example
///
/// ```
/// use symsc_symex::{Explorer, Width};
///
/// let report = Explorer::new().max_paths(100).explore(|ctx| {
///     let x = ctx.symbolic("x", Width::W8);
///     let limit = ctx.word(4, Width::W8);
///     ctx.assume(&x.ult(&limit));
///     // One fork per feasible value comparison below:
///     let two = ctx.word(2, Width::W8);
///     if ctx.decide(&x.ult(&two)) {
///         ctx.check(&x.ult(&two), "consistent view");
///     }
/// });
/// assert!(report.completed);
/// assert_eq!(report.stats.paths, 2);
/// ```
#[derive(Clone, Debug)]
pub struct Explorer {
    max_paths: u64,
    max_path_decisions: u64,
    timeout: Option<Duration>,
    query_cache: bool,
    solver_stack: bool,
    incremental: bool,
    strategy: SearchStrategy,
    fork: ForkStrategy,
    order: ExploreOrder,
    workers: usize,
}

/// The cache stack one exploration's solvers are built over. Parallel
/// workers all clone the same handles, so a query or slice solved on any
/// worker is a hit on every other — semantically invisible either way,
/// since cached results are bit-for-bit what a fresh solve computes.
#[derive(Clone)]
struct SolverSetup {
    query: Option<Arc<QueryCache>>,
    cex: Option<Arc<CexCache>>,
    model_reuse: bool,
    incremental: bool,
}

impl SolverSetup {
    fn build(&self) -> Solver {
        Solver::with_stack(self.query.clone(), self.cex.clone(), self.model_reuse)
            .with_incremental(self.incremental)
    }
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer::new()
    }
}

impl Explorer {
    /// An explorer with default budgets (1 million paths, 100k decisions
    /// per path, no timeout, query cache on, one worker per available
    /// hardware thread).
    pub fn new() -> Explorer {
        Explorer {
            max_paths: 1_000_000,
            max_path_decisions: 100_000,
            timeout: None,
            query_cache: true,
            solver_stack: true,
            incremental: true,
            strategy: SearchStrategy::DepthFirst,
            fork: ForkStrategy::CowSnapshot,
            order: ExploreOrder::Exhaustive,
            workers: 0,
        }
    }

    /// Caps the number of explored paths.
    pub fn max_paths(mut self, paths: u64) -> Explorer {
        self.max_paths = paths;
        self
    }

    /// Caps decisions per path (guards against loops over symbolic state).
    pub fn max_path_decisions(mut self, decisions: u64) -> Explorer {
        self.max_path_decisions = decisions;
        self
    }

    /// Stops exploring (marking the report incomplete) after `timeout`.
    pub fn timeout(mut self, timeout: Duration) -> Explorer {
        self.timeout = Some(timeout);
        self
    }

    /// Disables the whole-query solver cache (ablation benchmarks).
    pub fn query_cache(mut self, enabled: bool) -> Explorer {
        self.query_cache = enabled;
        self
    }

    /// Enables or disables the layered solver stack's cache layers — the
    /// counterexample cache and cached-model feasibility witnesses
    /// (default: on). Off reproduces the earlier flat-cache engine for
    /// ablation runs. Independence slicing itself is always on: it is part
    /// of the decision procedure (models are defined per slice), which is
    /// what keeps this switch — like the worker count — incapable of
    /// changing any report.
    pub fn solver_stack(mut self, enabled: bool) -> Explorer {
        self.solver_stack = enabled;
        self
    }

    /// Enables or disables the incremental per-path SAT context (default:
    /// on). When on, each worker keeps the current path's constraint
    /// prefix bit-blasted and asserted in a retained CDCL solver and
    /// decides fork-feasibility probes as assumption solves on top,
    /// carrying learned clauses and activities along the path. Contexts
    /// are worker-local and dropped at every path start, and only
    /// verdict-level probes use them, so — like the cache layers — this
    /// switch cannot change any report, only how fast the core answers.
    pub fn incremental(mut self, enabled: bool) -> Explorer {
        self.incremental = enabled;
        self
    }

    /// Selects the path-selection strategy (default: depth-first). Only
    /// meaningful with [`workers`](Self::workers)`(1)`; see
    /// [`SearchStrategy`].
    pub fn strategy(mut self, strategy: SearchStrategy) -> Explorer {
        self.strategy = strategy;
        self
    }

    /// Selects the fork strategy (default: copy-on-write snapshots).
    /// [`ForkStrategy::Reexec`] restores the original forked
    /// re-execution engine, the differential oracle — both produce
    /// byte-identical reports; see [`ForkStrategy`].
    pub fn fork_strategy(mut self, fork: ForkStrategy) -> Explorer {
        self.fork = fork;
        self
    }

    /// Selects the exploration order (default: exhaustive). See
    /// [`ExploreOrder`]: `CoverageGuided` reorders the sequential
    /// visitation toward unvisited fork-site directions, `MergeEager`
    /// merges and subsumes paths at testbench-published join points
    /// (`SymCtx::note_state`). Both report byte-identically to the
    /// exhaustive oracle.
    pub fn explore_order(mut self, order: ExploreOrder) -> Explorer {
        self.order = order;
        self
    }

    /// Whether the copy-on-write snapshot strategy is active.
    fn cow_enabled(&self) -> bool {
        self.fork == ForkStrategy::CowSnapshot
    }

    /// Sets the number of worker threads. `0` (the default) uses
    /// [`std::thread::available_parallelism`]; `1` runs the exploration
    /// sequentially on the calling thread, preserving the single-threaded
    /// engine's exact behavior (shared pool, strategy-ordered visitation).
    pub fn workers(mut self, workers: usize) -> Explorer {
        self.workers = workers;
        self
    }

    fn resolved_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// The exploration-wide cache stack, per this explorer's config.
    fn solver_setup(&self) -> SolverSetup {
        SolverSetup {
            query: self.query_cache.then(|| Arc::new(QueryCache::new())),
            cex: self.solver_stack.then(|| Arc::new(CexCache::new())),
            model_reuse: self.solver_stack,
            incremental: self.incremental,
        }
    }

    /// Explores all feasible paths of `testbench`.
    ///
    /// The closure runs once per path; it must be deterministic apart from
    /// the engine's branch decisions (re-execution soundness). Panics from
    /// model code are caught and reported as [`ErrorKind::ModelPanic`]
    /// errors with a counterexample; they terminate only their own path.
    ///
    /// With more than one worker the closure is called concurrently from
    /// several threads, hence the `Fn + Sync` bound. Testbenches that
    /// mutate captured state should use [`explore_mut`](Self::explore_mut)
    /// instead.
    pub fn explore<F>(&self, testbench: F) -> Report
    where
        F: Fn(&SymCtx) + Sync,
    {
        let workers = self.resolved_workers();
        if workers <= 1 {
            if self.order == ExploreOrder::MergeEager {
                self.explore_merged_sequential(testbench)
            } else {
                self.explore_sequential(testbench)
            }
        } else {
            self.explore_parallel(&testbench, workers)
        }
    }

    /// Explores all feasible paths of a testbench that mutates captured
    /// state (e.g. collects observations into a `Vec`). Mutable captures
    /// cannot be shared across worker threads, so this always runs
    /// sequentially, like [`workers`](Self::workers)`(1)`.
    pub fn explore_mut<F: FnMut(&SymCtx)>(&self, testbench: F) -> Report {
        if self.order == ExploreOrder::MergeEager {
            self.explore_merged_sequential(testbench)
        } else {
            self.explore_sequential(testbench)
        }
    }

    /// The single-threaded engine: one pool, one solver, strategy-ordered
    /// visitation. This is the reference semantics the parallel engine's
    /// merged reports are defined against.
    fn explore_sequential<F: FnMut(&SymCtx)>(&self, mut testbench: F) -> Report {
        install_quiet_hook();
        let state = Arc::new(Mutex::new(EngineState::new(
            self.max_path_decisions,
            self.solver_setup().build(),
            self.cow_enabled(),
        )));
        let mut worklist: Vec<PathSnapshot> = vec![PathSnapshot::root()];
        let start = Instant::now();
        let mut completed = true;
        let mut paths = 0u64;
        // xorshift state for SearchStrategy::RandomPath.
        let mut rng_state = match self.strategy {
            SearchStrategy::RandomPath(seed) => seed | 1,
            _ => 0,
        };
        let mut promotions = 0u64;
        // CoverageGuided visits paths out of canonical order, so its
        // report is assembled from per-path records like the parallel
        // engine's — a pure function of the explored path set. (The
        // search strategies intentionally report in visitation order.)
        let canonical = self.order == ExploreOrder::CoverageGuided;
        let mut records: Vec<PathRecord> = Vec::new();

        loop {
            let next = if self.order == ExploreOrder::CoverageGuided {
                pick_coverage_guided(&mut worklist, &state, &mut promotions)
            } else {
                self.pick_next(&mut worklist, &mut rng_state)
            };
            let Some(snapshot) = next else { break };
            if paths >= self.max_paths {
                completed = false;
                break;
            }
            if let Some(t) = self.timeout {
                if start.elapsed() >= t {
                    completed = false;
                    break;
                }
            }

            let ctx = SymCtx::new(state.clone());
            ctx.engine().begin_path(snapshot);
            IN_EXPLORATION.with(|f| f.set(true));
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| testbench(&ctx)));
            IN_EXPLORATION.with(|f| f.set(false));
            paths += 1;

            if let Err(payload) = outcome {
                if payload.downcast_ref::<PathTerm>().is_none() {
                    // A genuine model/testbench panic: the C++ analogue is
                    // an abort or unhandled exception. Report it with a
                    // counterexample for the current path.
                    let message = panic_message(payload.as_ref());
                    ctx.engine()
                        .record_error_here(ErrorKind::ModelPanic, message);
                }
            }

            let mut st = ctx.engine();
            st.path_index += 1;
            if canonical {
                // Fold branch directions into the exploration-wide map
                // (the scheduler's signal) while keeping the per-path
                // record for canonical assembly.
                let branches = st.take_path_branches();
                for &(site, dir) in &branches {
                    let entry = st.branches.entry(site).or_default();
                    if dir {
                        entry.taken += 1;
                    } else {
                        entry.not_taken += 1;
                    }
                }
                records.push(PathRecord {
                    taken: st.taken_so_far(),
                    errors: std::mem::take(&mut st.errors),
                    coverage: st.take_path_coverage(),
                    branches,
                });
            } else {
                st.end_path_coverage();
                st.end_path_branches();
            }
            // Push pending prefixes (discovered this run); pick_next
            // applies the search strategy on removal.
            let pending = std::mem::take(&mut st.pending);
            drop(st);
            worklist.extend(pending);
        }

        let st = lock_state(&state);
        if st.budget_exhausted {
            completed = false;
        }
        let time = start.elapsed();
        if canonical {
            let stats = ExplorationStats {
                instructions: st.pool.ops_created() + st.decisions,
                decisions: st.decisions,
                time,
                solver_time: st.solver_time,
                busy_time: time,
                solver: st.solver.stats(),
                fork_snapshots: st.fork_snapshots,
                fast_forward_decisions: st.ff_decisions,
                executed_paths: paths,
                sched_promotions: promotions,
                ..ExplorationStats::default()
            };
            return assemble_records(records, stats, completed);
        }
        Report {
            errors: st.errors.clone(),
            coverage: st.coverage.clone(),
            stats: ExplorationStats {
                paths,
                instructions: st.pool.ops_created() + st.decisions,
                decisions: st.decisions,
                time,
                solver_time: st.solver_time,
                busy_time: time,
                solver: st.solver.stats(),
                fork_snapshots: st.fork_snapshots,
                fast_forward_decisions: st.ff_decisions,
                branches: st.branches.clone(),
                executed_paths: paths,
                sched_promotions: promotions,
                ..ExplorationStats::default()
            },
            completed,
        }
    }

    /// The merging engine: like the sequential depth-first engine, but
    /// paths arriving at a testbench-published join point
    /// ([`SymCtx::note_state`]) adopt the finished subtree of the first
    /// arrival instead of re-executing it, when the adoption soundness
    /// checks pass (see [`crate::merge`]). Adopted subtrees contribute
    /// *synthesized* path records, so the final report is byte-identical
    /// to the exhaustive engine's; only `executed_paths` (and the solver
    /// workload) shrinks.
    ///
    /// Visitation is forced depth-first regardless of the configured
    /// [`SearchStrategy`]: DFS guarantees a join owner's subtree is fully
    /// drained before any path outside it reaches the join, so every
    /// eligible arrival finds a complete subtree to adopt.
    fn explore_merged_sequential<F: FnMut(&SymCtx)>(&self, mut testbench: F) -> Report {
        install_quiet_hook();
        let shared = Arc::new(MergeShared::new());
        let state = Arc::new(Mutex::new(EngineState::new(
            self.max_path_decisions,
            self.solver_setup().build(),
            self.cow_enabled(),
        )));
        lock_state(&state).merge = Some(shared.clone());
        let mut worklist: Vec<PathSnapshot> = vec![PathSnapshot::root()];
        shared.add_unit(&[]);
        let start = Instant::now();
        let mut completed = true;
        let mut executed = 0u64;
        let mut records: Vec<PathRecord> = Vec::new();

        while let Some(snapshot) = worklist.pop() {
            if executed >= self.max_paths {
                completed = false;
                break;
            }
            if let Some(t) = self.timeout {
                if start.elapsed() >= t {
                    completed = false;
                    break;
                }
            }
            let unit: Vec<bool> = snapshot.unit_prefix().to_vec();

            let ctx = SymCtx::new(state.clone());
            ctx.engine().begin_path(snapshot);
            IN_EXPLORATION.with(|f| f.set(true));
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| testbench(&ctx)));
            IN_EXPLORATION.with(|f| f.set(false));
            executed += 1;

            if let Err(payload) = outcome {
                if payload.downcast_ref::<PathTerm>().is_none() {
                    let message = panic_message(payload.as_ref());
                    ctx.engine()
                        .record_error_here(ErrorKind::ModelPanic, message);
                }
            }

            let mut st = ctx.engine();
            st.path_index += 1;
            harvest_records(&mut st, &mut records);
            // Unit accounting order matters: pending subtrees must be
            // visible before this unit retires, or a concurrent arrival
            // could see the owner subtree as drained while forks of it
            // are still queued. (Trivially safe sequentially; kept
            // identical to the parallel discipline.)
            let pending = std::mem::take(&mut st.pending);
            drop(st);
            for snapshot in &pending {
                shared.add_unit(snapshot.unit_prefix());
            }
            shared.remove_unit(&unit);
            worklist.extend(pending);
        }

        let st = lock_state(&state);
        if st.budget_exhausted {
            completed = false;
        }
        let counters = shared.counters();
        let time = start.elapsed();
        let stats = ExplorationStats {
            instructions: st.pool.ops_created() + st.decisions,
            decisions: st.decisions,
            time,
            solver_time: st.solver_time,
            busy_time: time,
            solver: st.solver.stats(),
            fork_snapshots: st.fork_snapshots,
            fast_forward_decisions: st.ff_decisions,
            executed_paths: executed,
            merged_paths: counters.merged_paths,
            subsumed_paths: counters.subsumed_paths,
            join_sites: counters.join_sites,
            merge_rejects: counters.merge_rejects,
            ..ExplorationStats::default()
        };
        assemble_records(records, stats, completed)
    }

    /// The parallel engine: a pool of `workers` threads drains the shared
    /// prefix queue. Each worker keeps a private [`EngineState`] (pool +
    /// solver) and all workers share one whole-query cache; the per-path
    /// results are merged into canonical depth-first order afterwards, so
    /// the report does not depend on scheduling.
    fn explore_parallel<F>(&self, testbench: &F, workers: usize) -> Report
    where
        F: Fn(&SymCtx) + Sync,
    {
        install_quiet_hook();
        let start = Instant::now();
        let setup = self.solver_setup();
        let queue = WorkQueue::new(vec![PathSnapshot::root()]);
        let limits = SharedLimits {
            paths_started: AtomicU64::new(0),
            max_paths: self.max_paths,
            deadline: self.timeout.map(|t| start + t),
            truncated: AtomicBool::new(false),
        };
        // Parallel MergeEager: workers share one merge state. An arrival
        // only adopts while the owner subtree is fully drained, so a
        // subtree still being executed elsewhere is simply executed again
        // here — verdicts stay byte-identical, only `executed_paths`
        // becomes scheduling-dependent.
        let merge = (self.order == ExploreOrder::MergeEager).then(|| Arc::new(MergeShared::new()));
        if let Some(shared) = &merge {
            shared.add_unit(&[]);
        }

        let outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let setup = setup.clone();
                let merge = merge.clone();
                let queue = &queue;
                let limits = &limits;
                handles.push(
                    scope.spawn(move || self.run_worker(queue, limits, testbench, setup, merge)),
                );
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("exploration worker panicked"))
                .collect()
        });

        self.merge_outputs(outputs, &limits, start.elapsed(), merge.as_deref())
    }

    /// One worker's loop: pop a prefix, re-execute, harvest the path
    /// record, feed newly forked prefixes back to the queue.
    fn run_worker<F>(
        &self,
        queue: &WorkQueue,
        limits: &SharedLimits,
        testbench: &F,
        setup: SolverSetup,
        merge: Option<Arc<MergeShared>>,
    ) -> WorkerOutput
    where
        F: Fn(&SymCtx) + Sync,
    {
        let state = Arc::new(Mutex::new(EngineState::new(
            self.max_path_decisions,
            setup.build(),
            self.cow_enabled(),
        )));
        lock_state(&state).merge = merge.clone();
        let mut records = Vec::new();
        let mut executed = 0u64;
        let mut busy_time = Duration::ZERO;

        while let Some(snapshot) = queue.pop() {
            let busy_since = Instant::now();
            let over_budget =
                limits.paths_started.fetch_add(1, AtomicOrdering::SeqCst) >= limits.max_paths;
            let past_deadline = limits
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline);
            if over_budget || past_deadline {
                limits.truncated.store(true, AtomicOrdering::SeqCst);
                queue.halt();
                queue.complete(Vec::new());
                break;
            }
            let unit: Vec<bool> = snapshot.unit_prefix().to_vec();

            let ctx = SymCtx::new(state.clone());
            ctx.engine().begin_path(snapshot);
            IN_EXPLORATION.with(|f| f.set(true));
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| testbench(&ctx)));
            IN_EXPLORATION.with(|f| f.set(false));
            executed += 1;

            if let Err(payload) = outcome {
                if payload.downcast_ref::<PathTerm>().is_none() {
                    let message = panic_message(payload.as_ref());
                    ctx.engine()
                        .record_error_here(ErrorKind::ModelPanic, message);
                }
            }

            let mut st = ctx.engine();
            st.path_index += 1;
            harvest_records(&mut st, &mut records);
            let pending = std::mem::take(&mut st.pending);
            drop(st);
            if let Some(shared) = &merge {
                // Publish the forks' units before retiring this one, so
                // the subtree never looks drained while work remains.
                for snapshot in &pending {
                    shared.add_unit(snapshot.unit_prefix());
                }
                shared.remove_unit(&unit);
            }
            queue.complete(pending);
            busy_time += busy_since.elapsed();
        }

        let st = lock_state(&state);
        WorkerOutput {
            records,
            decisions: st.decisions,
            pool_ops: st.pool.ops_created(),
            solver_time: st.solver_time,
            busy_time,
            solver: st.solver.stats(),
            fork_snapshots: st.fork_snapshots,
            ff_decisions: st.ff_decisions,
            budget_exhausted: st.budget_exhausted,
            executed,
        }
    }

    /// Merges per-worker results into a report in canonical order: path
    /// records sort by their decision vectors (taken-true before
    /// taken-false), which is exactly the order the sequential depth-first
    /// engine visits paths in. Error path indices are renumbered to that
    /// order and coverage bins are re-counted, so the merged report is a
    /// pure function of the explored path set.
    fn merge_outputs(
        &self,
        outputs: Vec<WorkerOutput>,
        limits: &SharedLimits,
        time: Duration,
        merge: Option<&MergeShared>,
    ) -> Report {
        let mut completed = !limits.truncated.load(AtomicOrdering::SeqCst);
        let mut records = Vec::new();
        let mut stats = ExplorationStats {
            time,
            ..ExplorationStats::default()
        };
        for output in outputs {
            records.extend(output.records);
            stats.decisions += output.decisions;
            stats.instructions += output.pool_ops;
            stats.solver_time += output.solver_time;
            stats.busy_time += output.busy_time;
            stats.solver.merge(&output.solver);
            stats.fork_snapshots += output.fork_snapshots;
            stats.fast_forward_decisions += output.ff_decisions;
            stats.executed_paths += output.executed;
            if output.budget_exhausted {
                completed = false;
            }
        }
        stats.instructions += stats.decisions;
        if let Some(shared) = merge {
            let counters = shared.counters();
            stats.merged_paths = counters.merged_paths;
            stats.subsumed_paths = counters.subsumed_paths;
            stats.join_sites = counters.join_sites;
            stats.merge_rejects = counters.merge_rejects;
        }
        assemble_records(records, stats, completed)
    }
}

/// Assembles path records into the canonical report: records sort by
/// their decision vectors (taken-true before taken-false), which is
/// exactly the order the sequential depth-first engine visits paths in.
/// Error path indices are renumbered to that order and coverage bins and
/// branch maps are re-counted, so the report is a pure function of the
/// represented path set — independent of workers, scheduling, and merge
/// decisions.
fn assemble_records(
    mut records: Vec<PathRecord>,
    mut stats: ExplorationStats,
    completed: bool,
) -> Report {
    stats.paths = records.len() as u64;
    records.sort_by(|a, b| cmp_decision_order(&a.taken, &b.taken));
    let mut errors = Vec::new();
    let mut coverage = BTreeMap::new();
    for (index, record) in records.into_iter().enumerate() {
        for mut error in record.errors {
            error.path = index as u64;
            errors.push(error);
        }
        for bin in record.coverage {
            *coverage.entry(bin).or_insert(0) += 1;
        }
        // Per-direction sums are order-independent, so the merged
        // branch map matches the sequential engine's exactly.
        for (site, dir) in record.branches {
            let entry = stats.branches.entry(site).or_default();
            if dir {
                entry.taken += 1;
            } else {
                entry.not_taken += 1;
            }
        }
    }

    Report {
        errors,
        coverage,
        stats,
        completed,
    }
}

/// Harvests one finished run into `records`: either the path's own record,
/// or — if the run was absorbed at a join point — the records synthesized
/// from the adopted subtree (the partial run's own accumulators are
/// dropped; the adoption already folded them in).
fn harvest_records(st: &mut EngineState, records: &mut Vec<PathRecord>) {
    if st.adopted {
        records.append(&mut std::mem::take(&mut st.adopted_records));
        st.errors.clear();
        let _ = st.take_path_coverage();
        let _ = st.take_path_branches();
    } else {
        let record = PathRecord {
            taken: st.taken_so_far(),
            errors: std::mem::take(&mut st.errors),
            coverage: st.take_path_coverage(),
            branches: st.take_path_branches(),
        };
        st.publish_trace();
        records.push(record);
    }
}

/// The coverage-guided sequential pick: prefer the deepest pending
/// snapshot whose flipped fork direction is still unvisited in the
/// exploration-wide branch map; fall back to plain depth-first. A
/// reordering heuristic only — the visited path *set* (and hence the
/// report) is unchanged.
fn pick_coverage_guided(
    worklist: &mut Vec<PathSnapshot>,
    state: &Arc<Mutex<EngineState>>,
    promotions: &mut u64,
) -> Option<PathSnapshot> {
    if worklist.is_empty() {
        return None;
    }
    let pick = {
        let st = lock_state(state);
        worklist.iter().rposition(|snapshot| {
            snapshot
                .flip_site
                .is_some_and(|site| st.branches.get(&site).is_none_or(|cov| cov.not_taken == 0))
        })
    };
    match pick {
        Some(index) if index + 1 != worklist.len() => {
            *promotions += 1;
            Some(worklist.remove(index))
        }
        _ => worklist.pop(),
    }
}

impl Explorer {
    /// Replays a testbench *concretely* on a counterexample: every
    /// `symbolic` input resolves to its recorded value, so exactly one
    /// path executes and no solver is involved. This is the paper's
    /// "compile the bytecode into a machine-native executable and attach a
    /// debugger" step — the error reproduces deterministically.
    ///
    /// The returned report covers that single path (the reproduced errors
    /// carry the replayed input values as their counterexample). Replay is
    /// always sequential; the worker setting does not apply.
    pub fn replay<F: FnMut(&SymCtx)>(
        &self,
        counterexample: &crate::error::Counterexample,
        mut testbench: F,
    ) -> Report {
        install_quiet_hook();
        let state = Arc::new(Mutex::new(EngineState::new(
            self.max_path_decisions,
            self.solver_setup().build(),
            false,
        )));
        lock_state(&state).replay = Some(counterexample.to_map());
        let start = Instant::now();

        let ctx = SymCtx::new(state.clone());
        ctx.engine().begin_path(PathSnapshot::root());
        IN_EXPLORATION.with(|f| f.set(true));
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| testbench(&ctx)));
        IN_EXPLORATION.with(|f| f.set(false));
        if let Err(payload) = outcome {
            if payload.downcast_ref::<PathTerm>().is_none() {
                let message = panic_message(payload.as_ref());
                ctx.engine()
                    .record_error_here(ErrorKind::ModelPanic, message);
            }
        }

        let mut st = lock_state(&state);
        st.end_path_coverage();
        st.end_path_branches();
        let st = &*st;
        let time = start.elapsed();
        Report {
            errors: st.errors.clone(),
            coverage: st.coverage.clone(),
            stats: ExplorationStats {
                paths: 1,
                instructions: st.pool.ops_created() + st.decisions,
                decisions: st.decisions,
                time,
                solver_time: st.solver_time,
                busy_time: time,
                solver: st.solver.stats(),
                fork_snapshots: 0,
                fast_forward_decisions: 0,
                branches: st.branches.clone(),
                executed_paths: 1,
                ..ExplorationStats::default()
            },
            completed: true,
        }
    }

    /// Runs a testbench *concolically* on a concrete assignment: inputs
    /// stay symbolic (so fork sites keep the structural fingerprints the
    /// exploration would compute), but every decision is evaluated under
    /// the assignment instead of solved. Exactly one path executes, no
    /// solver is involved, and — unlike [`replay`](Self::replay), which
    /// constant-folds the inputs and therefore records no fork sites —
    /// the report's `stats.branches` holds real branch coverage, keyed by
    /// the *same* fingerprints symbolic exploration uses.
    ///
    /// This is the coverage-guided fuzzer's execution mode: it makes a
    /// concrete run's coverage directly comparable (and mergeable) with a
    /// symbolic exploration's.
    pub fn trace<F: FnMut(&SymCtx)>(
        &self,
        assignment: &crate::error::Counterexample,
        mut testbench: F,
    ) -> Report {
        install_quiet_hook();
        let state = Arc::new(Mutex::new(EngineState::new(
            self.max_path_decisions,
            self.solver_setup().build(),
            false,
        )));
        lock_state(&state).trace = Some(assignment.to_map());
        let start = Instant::now();

        let ctx = SymCtx::new(state.clone());
        ctx.engine().begin_path(PathSnapshot::root());
        IN_EXPLORATION.with(|f| f.set(true));
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| testbench(&ctx)));
        IN_EXPLORATION.with(|f| f.set(false));
        if let Err(payload) = outcome {
            if payload.downcast_ref::<PathTerm>().is_none() {
                let message = panic_message(payload.as_ref());
                ctx.engine()
                    .record_error_here(ErrorKind::ModelPanic, message);
            }
        }

        let mut st = lock_state(&state);
        st.end_path_coverage();
        st.end_path_branches();
        let st = &*st;
        let time = start.elapsed();
        Report {
            errors: st.errors.clone(),
            coverage: st.coverage.clone(),
            stats: ExplorationStats {
                paths: 1,
                instructions: st.pool.ops_created() + st.decisions,
                decisions: st.decisions,
                time,
                solver_time: st.solver_time,
                busy_time: time,
                solver: st.solver.stats(),
                fork_snapshots: 0,
                fast_forward_decisions: 0,
                branches: st.branches.clone(),
                executed_paths: 1,
                ..ExplorationStats::default()
            },
            completed: true,
        }
    }
}

impl Explorer {
    /// Removes and returns the next snapshot to explore, per the strategy.
    fn pick_next(
        &self,
        worklist: &mut Vec<PathSnapshot>,
        rng_state: &mut u64,
    ) -> Option<PathSnapshot> {
        if worklist.is_empty() {
            return None;
        }
        match self.strategy {
            SearchStrategy::DepthFirst => worklist.pop(),
            SearchStrategy::BreadthFirst => Some(worklist.remove(0)),
            SearchStrategy::RandomPath(_) => {
                // xorshift64*
                let mut x = *rng_state;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *rng_state = x;
                let idx = (x as usize) % worklist.len();
                Some(worklist.swap_remove(idx))
            }
        }
    }
}

/// Exploration-wide budgets shared by all workers.
struct SharedLimits {
    /// Paths claimed so far (including the claim that trips the budget).
    paths_started: AtomicU64,
    max_paths: u64,
    deadline: Option<Instant>,
    /// Set when a worker stopped the exploration early (budget/deadline).
    truncated: AtomicBool,
}

/// A worker's complete contribution: its path records plus the counters of
/// its private engine state.
struct WorkerOutput {
    records: Vec<PathRecord>,
    decisions: u64,
    pool_ops: u64,
    solver_time: Duration,
    /// Time spent executing paths, excluding waits on the queue.
    busy_time: Duration,
    solver: symsc_smt::SolverStats,
    fork_snapshots: u64,
    ff_decisions: u64,
    budget_exhausted: bool,
    /// Testbench runs actually performed (>= `records.len()` only when a
    /// run was absorbed at a join point and synthesized several records).
    executed: u64,
}

/// The shared work queue of pending path snapshots — the work-stealing
/// point of the pool: any worker may resume a snapshot forked on any
/// other (snapshots are pool-independent by construction).
///
/// `in_flight` counts snapshots popped but not yet completed: the queue is
/// only *drained* when it is empty **and** nothing is in flight, because a
/// running path may still fork new snapshots. `halt` wakes everyone up for
/// an early exit (path budget or timeout).
struct WorkQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

struct QueueState {
    queue: Vec<PathSnapshot>,
    in_flight: usize,
    halted: bool,
}

impl WorkQueue {
    fn new(initial: Vec<PathSnapshot>) -> WorkQueue {
        WorkQueue {
            state: Mutex::new(QueueState {
                queue: initial,
                in_flight: 0,
                halted: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the next snapshot, blocking while other workers might still
    /// fork new ones. Returns `None` once the queue has fully drained (or
    /// was halted).
    fn pop(&self) -> Option<PathSnapshot> {
        let mut st = self.lock();
        loop {
            if st.halted {
                return None;
            }
            if let Some(snapshot) = st.queue.pop() {
                st.in_flight += 1;
                return Some(snapshot);
            }
            if st.in_flight == 0 {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks one claimed snapshot as done, adding the snapshots it forked.
    fn complete(&self, forked: Vec<PathSnapshot>) {
        let mut st = self.lock();
        st.queue.extend(forked);
        st.in_flight -= 1;
        // Wake waiters: either new work arrived, or the drain condition
        // (empty + nothing in flight) may now hold.
        self.ready.notify_all();
    }

    /// Stops the exploration early: pending prefixes are abandoned.
    fn halt(&self) {
        let mut st = self.lock();
        st.halted = true;
        self.ready.notify_all();
    }
}

/// Canonical path order: compares two decision vectors with *true before
/// false* at the first differing decision. A pending prefix is spawned at
/// the decision it flips to false, so this is exactly the order in which
/// the sequential depth-first engine completes paths. Distinct paths are
/// never prefixes of one another (re-execution of a common prefix is
/// deterministic), so the tie-break on length is defensive only.
fn cmp_decision_order(a: &[bool], b: &[bool]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match (x, y) {
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            _ => {}
        }
    }
    a.len().cmp(&b.len())
}

fn lock_state(state: &Arc<Mutex<EngineState>>) -> MutexGuard<'_, EngineState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Width;

    #[test]
    fn exhaustive_enumeration_of_small_domain() {
        // Forks once per comparison: the engine should enumerate exactly
        // the feasible orderings.
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let four = ctx.word(4, Width::W8);
            ctx.assume(&x.ult(&four)); // x in 0..4
            let mut found = 4u64;
            for v in 0..4u64 {
                let k = ctx.word(v, Width::W8);
                if ctx.decide(&x.eq(&k)) {
                    found = v;
                    break;
                }
            }
            assert!(found < 4, "x must match one of its four values");
        });
        assert!(report.completed);
        assert!(report.passed());
        assert_eq!(report.stats.paths, 4);
    }

    #[test]
    fn model_panic_is_reported_with_counterexample() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let k = ctx.word(0x2A, Width::W8);
            if ctx.decide(&x.eq(&k)) {
                panic!("boom at 42");
            }
        });
        assert_eq!(report.stats.paths, 2);
        assert_eq!(report.errors.len(), 1);
        let e = &report.errors[0];
        assert_eq!(e.kind, ErrorKind::ModelPanic);
        assert!(e.message.contains("boom"));
        assert_eq!(e.counterexample.value("x"), 0x2A);
    }

    #[test]
    fn path_budget_marks_report_incomplete() {
        let report = Explorer::new().max_paths(2).explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            for v in 0..8u64 {
                let k = ctx.word(v, Width::W8);
                if ctx.decide(&x.eq(&k)) {
                    return;
                }
            }
        });
        assert!(!report.completed);
        assert!(report.stats.paths <= 2);
    }

    #[test]
    fn decision_budget_prevents_symbolic_loops() {
        let report = Explorer::new().max_path_decisions(16).explore(|ctx| {
            let x = ctx.symbolic("x", Width::W32);
            // `x != 0` forever: a loop whose bound is symbolic.
            let mut i = 0u64;
            loop {
                let k = ctx.word32(i as u32);
                if ctx.decide(&x.eq(&k)) {
                    break;
                }
                i += 1;
            }
        });
        assert!(!report.completed);
        let _ = report;
    }

    #[test]
    fn timeout_truncates_search() {
        let report = Explorer::new()
            .timeout(Duration::from_millis(0))
            .explore(|ctx| {
                let x = ctx.symbolic("x", Width::W8);
                let zero = ctx.word(0, Width::W8);
                let _ = ctx.decide(&x.eq(&zero));
            });
        assert!(!report.completed);
    }

    #[test]
    fn nested_forks_cover_the_cross_product() {
        let report = Explorer::new().explore(|ctx| {
            let a = ctx.symbolic("a", Width::W1);
            let b = ctx.symbolic("b", Width::W1);
            let one = ctx.word(1, Width::W1);
            let _ = ctx.decide(&a.eq(&one));
            let _ = ctx.decide(&b.eq(&one));
        });
        assert_eq!(report.stats.paths, 4);
        assert!(report.completed);
    }

    #[test]
    fn errors_found_on_multiple_paths_are_all_recorded() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let two = ctx.word(2, Width::W8);
            let rem = x.urem(&two);
            let zero = ctx.word(0, Width::W8);
            if ctx.decide(&rem.eq(&zero)) {
                ctx.check(&ctx.lit(false), "even values always fail");
            } else {
                ctx.check(&ctx.lit(false), "odd values always fail");
            }
        });
        assert_eq!(report.errors.len(), 2);
        assert_eq!(report.distinct_errors().len(), 2);
        // Counterexamples must actually be even / odd respectively.
        for e in &report.errors {
            let x = e.counterexample.value("x");
            if e.message.contains("even") {
                assert_eq!(x % 2, 0);
            } else {
                assert_eq!(x % 2, 1);
            }
        }
    }

    #[test]
    fn replay_determinism_same_report_twice() {
        let run = || {
            Explorer::new().explore(|ctx| {
                let x = ctx.symbolic("x", Width::W8);
                let ten = ctx.word(10, Width::W8);
                ctx.assume(&x.ult(&ten));
                let five = ctx.word(5, Width::W8);
                if ctx.decide(&x.ult(&five)) {
                    ctx.check(&x.ult(&five), "low half");
                } else {
                    ctx.check(&x.uge(&five), "high half");
                }
            })
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.stats.paths, r2.stats.paths);
        assert_eq!(r1.errors.len(), r2.errors.len());
        assert!(r1.passed() && r2.passed());
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::Width;

    /// A forking ladder with an error on one specific path; used to check
    /// that parallel reports are canonical. The symbolic `check` issues the
    /// same guard query on every path, which is what the shared query
    /// cache absorbs.
    fn ladder(ctx: &SymCtx) {
        let x = ctx.symbolic("x", Width::W8);
        let sixteen = ctx.word(16, Width::W8);
        ctx.assume(&x.ult(&sixteen));
        ctx.check(&x.ult(&sixteen), "in range");
        let mut bits = [false; 4];
        for bit in 0..4u32 {
            let b = x.bit(bit).to_word();
            let one = ctx.word(1, Width::W1);
            bits[bit as usize] = ctx.decide(&b.eq(&one));
        }
        ctx.cover(if bits[0] { "bit0" } else { "nobit0" });
        let needle = bits == [true, true, true, false]; // x == 0b0111
        ctx.check_concrete(!needle, "0b0111 is the needle");
    }

    #[test]
    fn parallel_report_matches_sequential() {
        let seq = Explorer::new().workers(1).explore(ladder);
        for workers in [2, 4, 8] {
            let par = Explorer::new().workers(workers).explore(ladder);
            assert_eq!(par.stats.paths, seq.stats.paths, "{workers} workers");
            assert_eq!(par.errors.len(), seq.errors.len());
            assert_eq!(par.errors[0].kind, seq.errors[0].kind);
            assert_eq!(par.errors[0].message, seq.errors[0].message);
            assert_eq!(par.errors[0].path, seq.errors[0].path);
            assert_eq!(
                par.errors[0].counterexample, seq.errors[0].counterexample,
                "{workers} workers: counterexamples must be identical"
            );
            assert_eq!(par.coverage, seq.coverage, "{workers} workers");
            assert_eq!(par.stats.decisions, seq.stats.decisions);
            assert!(par.completed);
        }
    }

    #[test]
    fn parallel_workers_share_the_query_cache() {
        // Under the re-execution oracle every worker re-solves
        // structurally identical prefix queries; with a shared cache at
        // least some must hit. (The copy-on-write engine eliminates those
        // repeated prefix queries altogether — that is its entire point —
        // so the premise of this test only holds for re-execution.)
        let report = Explorer::new()
            .workers(4)
            .fork_strategy(ForkStrategy::Reexec)
            .explore(ladder);
        assert!(
            report.stats.solver.cache_hits > 0,
            "shared cache shows no hits: {:?}",
            report.stats.solver
        );
    }

    #[test]
    fn cow_matches_reexec_on_the_ladder() {
        // The differential bar at unit scale: both fork strategies, at
        // several worker counts, produce identical reports on the ladder
        // (errors, counterexamples, coverage, branch maps) — and the COW
        // runs actually snapshot and fast-forward.
        let oracle = Explorer::new()
            .workers(1)
            .fork_strategy(ForkStrategy::Reexec)
            .explore(ladder);
        assert_eq!(oracle.stats.fork_snapshots, 0, "re-exec never snapshots");
        assert_eq!(oracle.stats.fast_forward_decisions, 0);
        for workers in [1, 2, 8] {
            let cow = Explorer::new()
                .workers(workers)
                .fork_strategy(ForkStrategy::CowSnapshot)
                .explore(ladder);
            assert_eq!(cow.stats.paths, oracle.stats.paths, "{workers} workers");
            assert_eq!(cow.stats.decisions, oracle.stats.decisions);
            assert_eq!(cow.errors.len(), oracle.errors.len());
            for (c, o) in cow.errors.iter().zip(oracle.errors.iter()) {
                assert_eq!(c.kind, o.kind);
                assert_eq!(c.message, o.message);
                assert_eq!(c.path, o.path);
                assert_eq!(c.counterexample, o.counterexample);
            }
            assert_eq!(cow.coverage, oracle.coverage);
            assert_eq!(cow.stats.branches, oracle.stats.branches);
            assert_eq!(
                cow.stats.fork_snapshots,
                cow.stats.paths - 1,
                "every non-root path resumes a snapshot"
            );
            assert!(cow.stats.fast_forward_decisions > 0);
        }
    }

    #[test]
    fn parallel_path_budget_truncates() {
        let report = Explorer::new().workers(4).max_paths(2).explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            for v in 0..8u64 {
                let k = ctx.word(v, Width::W8);
                if ctx.decide(&x.eq(&k)) {
                    return;
                }
            }
        });
        assert!(!report.completed);
        assert!(report.stats.paths <= 2);
    }

    #[test]
    fn parallel_timeout_truncates() {
        let report = Explorer::new()
            .workers(2)
            .timeout(Duration::from_millis(0))
            .explore(ladder);
        assert!(!report.completed);
    }

    #[test]
    fn parallel_model_panics_are_reported() {
        let report = Explorer::new().workers(4).explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let k = ctx.word(0x2A, Width::W8);
            if ctx.decide(&x.eq(&k)) {
                panic!("boom at 42");
            }
        });
        assert_eq!(report.stats.paths, 2);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].kind, ErrorKind::ModelPanic);
        assert_eq!(report.errors[0].counterexample.value("x"), 0x2A);
    }

    #[test]
    fn explore_mut_supports_mutable_captures() {
        let mut seen = Vec::new();
        let report = Explorer::new().explore_mut(|ctx| {
            let x = ctx.symbolic("x", Width::W1);
            let one = ctx.word(1, Width::W1);
            seen.push(ctx.decide(&x.eq(&one)));
        });
        assert_eq!(report.stats.paths, 2);
        assert_eq!(seen, vec![true, false]);
    }

    #[test]
    fn canonical_order_puts_true_first() {
        assert_eq!(cmp_decision_order(&[true, false], &[false]), Ordering::Less);
        assert_eq!(
            cmp_decision_order(&[false], &[true, true]),
            Ordering::Greater
        );
        assert_eq!(cmp_decision_order(&[true], &[true]), Ordering::Equal);
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use crate::Width;

    fn buggy_bench(ctx: &SymCtx) {
        let x = ctx.symbolic("x", Width::W8);
        let ten = ctx.word(10, Width::W8);
        ctx.check(&x.ult(&ten), "x below 10");
    }

    #[test]
    fn replay_reproduces_the_error_concretely() {
        let explorer = Explorer::new();
        let report = explorer.explore(buggy_bench);
        assert_eq!(report.errors.len(), 1);
        let cex = report.errors[0].counterexample.clone();
        assert!(cex.value("x") >= 10);

        let replayed = explorer.replay(&cex, buggy_bench);
        assert_eq!(replayed.errors.len(), 1, "error reproduces");
        assert_eq!(replayed.stats.paths, 1, "single concrete path");
        assert_eq!(
            replayed.errors[0].counterexample.value("x"),
            cex.value("x"),
            "replay reports the same inputs"
        );
        assert_eq!(
            replayed.stats.solver.queries, replayed.stats.solver.trivial,
            "no real solver work during replay"
        );
    }

    #[test]
    fn replay_of_good_inputs_is_silent() {
        let explorer = Explorer::new();
        let mut good = crate::error::Counterexample::default();
        let _ = &mut good; // value("x") defaults to 0, which passes
        let replayed = explorer.replay(&good, buggy_bench);
        assert!(replayed.passed());
    }

    #[test]
    fn replay_reproduces_model_panics() {
        let bench = |ctx: &SymCtx| {
            let x = ctx.symbolic("x", Width::W8);
            let k = ctx.word(7, Width::W8);
            if ctx.decide(&x.eq(&k)) {
                panic!("boom on 7");
            }
        };
        let explorer = Explorer::new();
        let report = explorer.explore(bench);
        let cex = report.errors[0].counterexample.clone();
        assert_eq!(cex.value("x"), 7);
        let replayed = explorer.replay(&cex, bench);
        assert_eq!(replayed.errors.len(), 1);
        assert!(replayed.errors[0].message.contains("boom"));
    }

    #[test]
    fn trace_records_the_same_fork_sites_as_exploration() {
        // Replay constant-folds the inputs, so `decide` never sees a
        // symbolic condition and the branch map stays empty; trace keeps
        // the inputs symbolic and must record exactly the fork sites the
        // symbolic exploration fingerprints.
        let bench = |ctx: &SymCtx| {
            let x = ctx.symbolic("x", Width::W8);
            let ten = ctx.word(10, Width::W8);
            if ctx.decide(&x.ult(&ten)) {
                ctx.cover("small");
            }
        };
        let explorer = Explorer::new();
        let explored = explorer.explore(bench);
        assert_eq!(explored.stats.paths, 2);
        let sites: Vec<u128> = explored.stats.branches.keys().copied().collect();
        assert_eq!(sites.len(), 1);

        let small = crate::error::Counterexample::from_pairs([("x", 3u64)]);
        let traced = explorer.trace(&small, bench);
        assert!(traced.passed());
        assert_eq!(traced.stats.paths, 1);
        let traced_sites: Vec<u128> = traced.stats.branches.keys().copied().collect();
        assert_eq!(traced_sites, sites, "same structural fingerprints");
        assert_eq!(traced.stats.branches[&sites[0]].taken, 1);
        assert_eq!(traced.stats.branches[&sites[0]].not_taken, 0);
        assert_eq!(traced.coverage.get("small"), Some(&1));
        assert_eq!(
            traced.stats.solver.queries, 0,
            "trace mode never consults the solver"
        );

        let big = crate::error::Counterexample::from_pairs([("x", 200u64)]);
        let traced = explorer.trace(&big, bench);
        assert_eq!(traced.stats.branches[&sites[0]].not_taken, 1);
        assert!(traced.coverage.is_empty());

        // Replay of the same input records no fork sites at all.
        let replayed = explorer.replay(&small, bench);
        assert!(replayed.stats.branches.is_empty());
    }

    #[test]
    fn trace_reports_violations_with_the_traced_inputs() {
        let explorer = Explorer::new();
        let bad = crate::error::Counterexample::from_pairs([("x", 42u64)]);
        let traced = explorer.trace(&bad, buggy_bench);
        assert_eq!(traced.errors.len(), 1);
        assert_eq!(traced.errors[0].counterexample.value("x"), 42);
        assert_eq!(traced.stats.paths, 1);

        let good = crate::error::Counterexample::from_pairs([("x", 3u64)]);
        assert!(explorer.trace(&good, buggy_bench).passed());
    }

    #[test]
    fn trace_handles_assume_concretize_and_panics() {
        let bench = |ctx: &SymCtx| {
            let x = ctx.symbolic("x", Width::W8);
            ctx.assume(&x.ult(&ctx.word(100, Width::W8)));
            let v = x.concretize();
            if v == 7 {
                panic!("boom on 7");
            }
        };
        let explorer = Explorer::new();
        let boom = crate::error::Counterexample::from_pairs([("x", 7u64)]);
        let traced = explorer.trace(&boom, bench);
        assert_eq!(traced.errors.len(), 1);
        assert_eq!(traced.errors[0].kind, ErrorKind::ModelPanic);
        assert_eq!(traced.errors[0].counterexample.value("x"), 7);

        // A traced input violating an assumption ends the path silently.
        let outside = crate::error::Counterexample::from_pairs([("x", 200u64)]);
        let traced = explorer.trace(&outside, bench);
        assert!(traced.passed());
        assert_eq!(traced.stats.paths, 1);
    }
}

#[cfg(test)]
mod strategy_tests {
    use super::*;
    use crate::Width;

    /// A forking ladder: 4 nested decisions -> 16 paths; the path with
    /// x == 0b0111 (bits 0..2 set, bit 3 clear) errors. The first path of
    /// *any* strategy is the root (all decisions default to true), so the
    /// needle is placed one flip away from it: depth-first finds it on
    /// the very next path, breadth-first only after the other one-flip
    /// prefixes of earlier decisions.
    fn ladder(ctx: &SymCtx) {
        let x = ctx.symbolic("x", Width::W8);
        ctx.assume(&x.ult(&ctx.word(16, Width::W8)));
        let mut bits = [false; 4];
        for bit in 0..4u32 {
            let b = x.bit(bit).to_word();
            let one = ctx.word(1, Width::W1);
            bits[bit as usize] = ctx.decide(&b.eq(&one));
        }
        let needle = bits == [true, true, true, false]; // x == 0b0111
        ctx.check_concrete(!needle, "0b0111 is the needle");
    }

    #[test]
    fn all_strategies_find_the_same_errors() {
        for strategy in [
            SearchStrategy::DepthFirst,
            SearchStrategy::BreadthFirst,
            SearchStrategy::RandomPath(7),
            SearchStrategy::RandomPath(1234),
        ] {
            let report = Explorer::new()
                .workers(1)
                .strategy(strategy)
                .explore(ladder);
            assert_eq!(report.stats.paths, 16, "{strategy:?}");
            assert_eq!(report.errors.len(), 1, "{strategy:?}");
            assert_eq!(report.errors[0].counterexample.value("x"), 0b0111);
            assert!(report.completed, "{strategy:?}");
        }
    }

    #[test]
    fn strategies_order_paths_differently() {
        let dfs = Explorer::new()
            .workers(1)
            .strategy(SearchStrategy::DepthFirst)
            .explore(ladder);
        let bfs = Explorer::new()
            .workers(1)
            .strategy(SearchStrategy::BreadthFirst)
            .explore(ladder);
        // DFS pops the most recent fork (the bit-3 flip of the root path)
        // first; BFS drains the older forks (bits 0..2) before it.
        assert_eq!(dfs.errors[0].path, 1, "DFS: needle on the next path");
        assert_eq!(bfs.errors[0].path, 4, "BFS: needle after the level");
    }

    #[test]
    fn random_path_is_deterministic_per_seed() {
        let a = Explorer::new()
            .workers(1)
            .strategy(SearchStrategy::RandomPath(99))
            .explore(ladder);
        let b = Explorer::new()
            .workers(1)
            .strategy(SearchStrategy::RandomPath(99))
            .explore(ladder);
        assert_eq!(a.errors[0].path, b.errors[0].path);
    }
}

#[cfg(test)]
mod coverage_tests {
    use super::*;
    use crate::Width;

    #[test]
    fn coverage_counts_paths_per_bin() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            ctx.assume(&x.ult(&ctx.word(4, Width::W8)));
            ctx.cover("entered");
            if ctx.decide(&x.ult(&ctx.word(2, Width::W8))) {
                ctx.cover("low");
                ctx.cover("low"); // repeated hits on one path count once
            } else {
                ctx.cover("high");
            }
        });
        assert_eq!(report.stats.paths, 2);
        assert_eq!(report.coverage.get("entered"), Some(&2));
        assert_eq!(report.coverage.get("low"), Some(&1));
        assert_eq!(report.coverage.get("high"), Some(&1));
        assert_eq!(report.coverage.get("never"), None, "unhit bins are absent");
    }

    #[test]
    fn coverage_survives_path_termination() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            ctx.cover("before-assume");
            ctx.assume(&x.eq(&ctx.word(200, Width::W8)));
            ctx.cover("after-assume");
            ctx.check_concrete(false, "always fails");
            ctx.cover("unreachable");
        });
        assert_eq!(report.coverage.get("before-assume"), Some(&1));
        assert_eq!(report.coverage.get("after-assume"), Some(&1));
        assert_eq!(report.coverage.get("unreachable"), None);
    }

    #[test]
    fn branch_coverage_tracks_fork_sites_per_direction() {
        let report = Explorer::new().workers(1).explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            ctx.assume(&x.ult(&ctx.word(4, Width::W8)));
            // Site A forks both ways; site B only on the low half.
            if ctx.decide(&x.ult(&ctx.word(2, Width::W8))) {
                let _ = ctx.decide(&x.eq(&ctx.word(0, Width::W8)));
            }
        });
        assert_eq!(report.stats.paths, 3);
        assert_eq!(report.stats.branch_sites(), 2);
        // Site A: taken on 2 paths, not-taken on 1; site B: 1 and 1.
        let mut per_site: Vec<_> = report.stats.branches.values().collect();
        per_site.sort_by_key(|b| (b.taken, b.not_taken));
        assert_eq!((per_site[0].taken, per_site[0].not_taken), (1, 1));
        assert_eq!((per_site[1].taken, per_site[1].not_taken), (2, 1));
        assert_eq!(report.stats.branches_covered(), 4);
        assert!((report.stats.branch_coverage() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn one_sided_branches_cover_half() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            ctx.assume(&x.ult(&ctx.word(4, Width::W8)));
            // Infeasible true side: the site is decided but never taken.
            let _ = ctx.decide(&x.uge(&ctx.word(10, Width::W8)));
        });
        assert_eq!(report.stats.paths, 1);
        assert_eq!(report.stats.branch_sites(), 1);
        assert_eq!(report.stats.branches_covered(), 1);
        assert!((report.stats.branch_coverage() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn branch_maps_merge_identically_across_worker_counts() {
        let bench = |ctx: &SymCtx| {
            let x = ctx.symbolic("x", Width::W8);
            ctx.assume(&x.ult(&ctx.word(16, Width::W8)));
            for bit in 0..4u32 {
                let b = x.bit(bit).to_word();
                let one = ctx.word(1, Width::W1);
                let _ = ctx.decide(&b.eq(&one));
            }
        };
        let seq = Explorer::new().workers(1).explore(bench);
        assert_eq!(seq.stats.branch_sites(), 4);
        for workers in [2, 4, 8] {
            let par = Explorer::new().workers(workers).explore(bench);
            assert_eq!(par.stats.branches, seq.stats.branches, "{workers} workers");
        }
    }

    #[test]
    fn replay_reports_coverage_too() {
        let bench = |ctx: &SymCtx| {
            let x = ctx.symbolic("x", Width::W8);
            if ctx.decide(&x.eq(&ctx.word(5, Width::W8))) {
                ctx.cover("five");
            }
        };
        let explorer = Explorer::new();
        let cex = crate::error::Counterexample::from_pairs([("x", 5u64)]);
        let replayed = explorer.replay(&cex, bench);
        assert_eq!(replayed.coverage.get("five"), Some(&1));
    }
}
