//! The path explorer: copy-on-write snapshot forking over a worklist of
//! suspended engine snapshots.
//!
//! Every pending `PathSnapshot` is an independent unit of work: a
//! worker pops one, *fast-forwards* the testbench through its forced
//! prefix — solver-free, replaying the pinned concretizations from the
//! snapshot's journal — and resumes live execution at the fork point,
//! pushing newly captured snapshots back for any worker to steal.
//!
//! One path runner executes every testbench run, for three callers:
//!
//! - the *reference engine*: one worker, depth-first on the calling
//!   thread, every finished path folded straight into the report. Every
//!   other worker count is tested against its reports.
//! - the *worker loop*: at two or more [`Explorer::workers`], the workers
//!   drain one shared work queue. Workers keep private term pools and
//!   solvers but share the whole [`CacheStack`], so a query or slice
//!   solved on any worker is a cache hit on every other. Per-path records
//!   are assembled into canonical (sequential depth-first) order, so the
//!   report is independent of scheduling.
//! - the *single-path runner* behind [`Explorer::replay`] and
//!   [`Explorer::trace`].
//!
//! The original forked *re-execution* engine — prefixes re-solved from
//! scratch — remains available via [`ForkStrategy::Reexec`] as the
//! differential oracle the snapshot engine is verified against.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

use symsc_smt::{CexCache, Solver};

use crate::ctx::{EngineState, PathTerm, SymCtx};
use crate::error::{Counterexample, ErrorKind, Report, SymError};
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

/// How a fork materializes the other branch — the engine's state-capture
/// strategy.
///
/// Both strategies explore the same path tree and produce byte-identical
/// reports (every report-relevant value is a pure function of the
/// structural constraint set); they differ only in how much work resuming
/// a pending path costs. The `cow_fork` row of the ablation harness in
/// `crates/bench` holds them to that equivalence bar.
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
/// pool and solver but all share one solver cache stack.
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
    solver_stack: bool,
    incremental: bool,
    fork: ForkStrategy,
    workers: usize,
    caches: Option<CacheStack>,
}

/// A solver cache — the one [`CexCache`] memoizing whole queries and
/// slices — that several explorations share (see
/// [`Explorer::cache_stack`]). Cloning the handle shares the cache.
///
/// Sharing is semantically invisible: keys are structural fingerprints
/// that do not depend on any term pool, an exact hit returns the
/// canonical result a fresh solve computes, and subset-UNSAT and
/// cached-model answers only ever decide verdicts, which are unique. A
/// query one exploration solved is therefore a hit for the next one over
/// the same stack, without changing either report.
#[derive(Clone, Default)]
pub struct CacheStack {
    cache: Arc<CexCache>,
}

impl CacheStack {
    /// An empty stack at the default cache capacities.
    pub fn new() -> CacheStack {
        CacheStack::default()
    }
}

impl fmt::Debug for CacheStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The cache can hold tens of thousands of entries.
        f.debug_struct("CacheStack").finish_non_exhaustive()
    }
}

impl Default for Explorer {
    fn default() -> Explorer {
        Explorer::new()
    }
}

impl Explorer {
    /// An explorer with default budgets (1 million paths, 100k decisions
    /// per path, no timeout, solver cache on, one worker per available
    /// hardware thread).
    pub fn new() -> Explorer {
        Explorer {
            max_paths: 1_000_000,
            max_path_decisions: 100_000,
            timeout: None,
            solver_stack: true,
            incremental: true,
            fork: ForkStrategy::CowSnapshot,
            workers: 0,
            caches: None,
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

    /// Enables or disables the solver's cache layers — whole-query and
    /// per-slice memoization, subset-UNSAT proofs and cached-model
    /// feasibility witnesses, all backed by one cache (default: on). Off
    /// sends every query through slicing straight to the core, for
    /// ablation runs. Independence slicing itself is always on: it is part
    /// of the decision procedure (models are defined per slice), which is
    /// what keeps this switch — like the worker count — incapable of
    /// changing any report.
    pub fn solver_stack(mut self, enabled: bool) -> Explorer {
        self.solver_stack = enabled;
        self
    }

    /// Builds the solvers over a shared [`CacheStack`] instead of a
    /// private one per exploration, so queries another exploration over
    /// the same stack solved are cache hits here. The switch still wins:
    /// with [`solver_stack`](Self::solver_stack)`(false)` the shared stack
    /// is not used. Like the switch, sharing cannot change any report.
    pub fn cache_stack(mut self, stack: &CacheStack) -> Explorer {
        self.caches = Some(stack.clone());
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

    /// Selects the fork strategy (default: copy-on-write snapshots).
    /// [`ForkStrategy::Reexec`] restores the original forked
    /// re-execution engine, the differential oracle — both produce
    /// byte-identical reports; see [`ForkStrategy`].
    pub fn fork_strategy(mut self, fork: ForkStrategy) -> Explorer {
        self.fork = fork;
        self
    }

    /// Whether the copy-on-write snapshot strategy is active.
    fn cow_enabled(&self) -> bool {
        self.fork == ForkStrategy::CowSnapshot
    }

    /// Sets the number of worker threads. `0` (the default) uses
    /// [`std::thread::available_parallelism`]; `1` runs the exploration
    /// on the calling thread with one term pool and one solver, spawning
    /// no thread: the reference engine.
    pub fn workers(mut self, workers: usize) -> Explorer {
        self.workers = workers;
        self
    }

    /// The worker count [`explore`](Self::explore) will use: the
    /// configured count, with `0` resolved to the host's available
    /// parallelism.
    pub fn resolved_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// A fresh engine whose solver uses the cache of `caches` unless this
    /// explorer's switch turns it off. An exploration's solvers share the
    /// attached stack, or a fresh private one.
    fn engine(&self, caches: &CacheStack) -> Arc<Mutex<EngineState>> {
        let solver = Solver::with_stack(self.solver_stack.then(|| Arc::clone(&caches.cache)))
            .with_incremental(self.incremental);
        Arc::new(Mutex::new(EngineState::new(
            self.max_path_decisions,
            solver,
            self.cow_enabled(),
        )))
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
            return self.explore_mut(testbench);
        }
        let shared = Workers::new(self);
        let outputs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| shared.run(&testbench)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("exploration worker panicked"))
                .collect()
        });
        shared.finish(outputs)
    }

    /// Explores all feasible paths of a testbench that mutates captured
    /// state (e.g. collects observations into a `Vec`). Mutable captures
    /// cannot be shared across worker threads, so this always runs on the
    /// calling thread, exactly as [`workers`](Self::workers)`(1)` does.
    ///
    /// This is the reference engine: depth-first visitation with one pool
    /// and one solver, every finished path folded straight into the
    /// report. Every other worker count is tested against its reports.
    pub fn explore_mut<F: FnMut(&SymCtx)>(&self, mut testbench: F) -> Report {
        let state = self.engine(&self.caches.clone().unwrap_or_default());
        let start = Instant::now();
        let limits = Limits::new(self, start);
        let mut worklist = vec![PathSnapshot::root()];
        let mut paths = 0u64;
        while let Some(snapshot) = worklist.pop() {
            if !limits.claim() {
                break;
            }
            let mut st = run_path(&state, snapshot, &mut testbench);
            paths += 1;
            st.end_path_coverage();
            st.end_path_branches();
            worklist.append(&mut st.pending);
        }

        let st = lock_state(&state);
        let time = start.elapsed();
        Report {
            errors: st.errors.clone(),
            coverage: st.coverage.clone(),
            stats: ExplorationStats {
                paths,
                time,
                busy_time: time,
                branches: st.branches.clone(),
                executed_paths: paths,
                ..engine_stats(&st)
            },
            completed: !limits.truncated() && !st.budget_exhausted,
        }
    }

    /// Replays a testbench *concretely* on a counterexample: every
    /// `symbolic` input resolves to its recorded value, so exactly one
    /// path executes and no solver is involved. This is the paper's
    /// "compile the bytecode into a machine-native executable and attach a
    /// debugger" step — the error reproduces deterministically.
    ///
    /// The returned report covers that single path (the reproduced errors
    /// carry the replayed input values as their counterexample). Replay
    /// runs on the calling thread; the worker setting does not apply.
    pub fn replay<F: FnMut(&SymCtx)>(
        &self,
        counterexample: &Counterexample,
        testbench: F,
    ) -> Report {
        self.run_single(|st| st.replay = Some(counterexample.to_map()), testbench)
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
    pub fn trace<F: FnMut(&SymCtx)>(&self, assignment: &Counterexample, testbench: F) -> Report {
        self.run_single(|st| st.trace = Some(assignment.to_map()), testbench)
    }

    /// The single-path runner behind [`replay`](Self::replay) and
    /// [`trace`](Self::trace): one path from the root, on a fresh engine
    /// whose inputs `pin` fixes. Neither mode asks the solver anything, so
    /// that engine's solver has no cache layers.
    fn run_single<F: FnMut(&SymCtx)>(
        &self,
        pin: impl FnOnce(&mut EngineState),
        mut testbench: F,
    ) -> Report {
        let mut engine = EngineState::new(self.max_path_decisions, Solver::without_cache(), false);
        pin(&mut engine);
        let state = Arc::new(Mutex::new(engine));
        let start = Instant::now();
        let mut st = run_path(&state, PathSnapshot::root(), &mut testbench);
        st.end_path_coverage();
        st.end_path_branches();
        let time = start.elapsed();
        let counters = engine_stats(&st);
        Report {
            errors: std::mem::take(&mut st.errors),
            coverage: std::mem::take(&mut st.coverage),
            stats: ExplorationStats {
                paths: 1,
                time,
                busy_time: time,
                branches: std::mem::take(&mut st.branches),
                executed_paths: 1,
                ..counters
            },
            completed: true,
        }
    }
}

/// Runs `testbench` once, from `snapshot`, on the engine behind `state` —
/// the one place a testbench runs. Path termination unwinds to here; any
/// other panic is the model's, reported as an [`ErrorKind::ModelPanic`]
/// with the path's counterexample (the C++ analogue is an abort or an
/// unhandled exception). Returns the engine, locked, for the caller to
/// harvest the finished path.
fn run_path<'s, F: FnMut(&SymCtx)>(
    state: &'s Arc<Mutex<EngineState>>,
    snapshot: PathSnapshot,
    testbench: &mut F,
) -> MutexGuard<'s, EngineState> {
    install_quiet_hook();
    let ctx = SymCtx::new(Arc::clone(state));
    ctx.engine().begin_path(snapshot);
    IN_EXPLORATION.with(|f| f.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| testbench(&ctx)));
    IN_EXPLORATION.with(|f| f.set(false));
    let mut st = lock_state(state);
    if let Err(payload) = outcome {
        if payload.downcast_ref::<PathTerm>().is_none() {
            st.record_error_here(ErrorKind::ModelPanic, panic_message(payload.as_ref()));
        }
    }
    st.path_index += 1;
    st
}

/// The counters a finished engine contributes to its exploration's
/// stats; callers fill in the path counts and times.
fn engine_stats(st: &EngineState) -> ExplorationStats {
    ExplorationStats {
        instructions: st.pool.ops_created() + st.decisions,
        decisions: st.decisions,
        solver_time: st.solver_time,
        solver: st.solver.stats(),
        fork_snapshots: st.fork_snapshots,
        fast_forward_decisions: st.ff_decisions,
        ..ExplorationStats::default()
    }
}

/// What the workers of one worker-loop exploration share: the queue of
/// pending snapshots, the budgets and the cache stack.
struct Workers<'e> {
    explorer: &'e Explorer,
    caches: CacheStack,
    queue: WorkQueue,
    limits: Limits,
    start: Instant,
}

/// One finished path, as a worker harvested it: everything needed to
/// reconstruct the canonical report.
struct PathRecord {
    /// The branch directions taken, which identify the path uniquely and
    /// define its canonical (depth-first) position.
    taken: Vec<bool>,
    /// Errors recorded on this path (path indices renumbered at assembly).
    errors: Vec<SymError>,
    /// Coverage bins hit on this path.
    coverage: BTreeSet<String>,
    /// `(fork-site fingerprint, direction)` pairs decided on this path.
    branches: BTreeSet<(u128, bool)>,
}

/// One worker's contribution: its path records, its engine's counters
/// (with its executed paths and busy time) and whether a path exhausted
/// its decision budget.
struct WorkerOutput {
    records: Vec<PathRecord>,
    stats: ExplorationStats,
    budget_exhausted: bool,
}

impl<'e> Workers<'e> {
    fn new(explorer: &'e Explorer) -> Workers<'e> {
        let start = Instant::now();
        Workers {
            explorer,
            caches: explorer.caches.clone().unwrap_or_default(),
            queue: WorkQueue::new(vec![PathSnapshot::root()]),
            limits: Limits::new(explorer, start),
            start,
        }
    }

    /// The worker loop: pop a snapshot, run it on this worker's private
    /// engine, harvest the path records, feed the forked snapshots back
    /// to the queue — until the queue drains or a budget stops it.
    fn run<F: FnMut(&SymCtx)>(&self, mut testbench: F) -> WorkerOutput {
        // A worker unwinding mid-path would leave the others waiting for
        // its forks forever; halting makes them stop instead.
        let _halt = HaltOnUnwind(&self.queue);
        let state = self.explorer.engine(&self.caches);
        let mut records = Vec::new();
        let mut executed = 0u64;
        let mut busy_time = Duration::ZERO;

        while let Some(snapshot) = self.queue.pop() {
            let busy_since = Instant::now();
            if !self.limits.claim() {
                self.queue.halt();
                self.queue.complete(Vec::new());
                break;
            }
            let mut st = run_path(&state, snapshot, &mut testbench);
            executed += 1;
            records.push(PathRecord {
                taken: st.taken_so_far(),
                errors: std::mem::take(&mut st.errors),
                coverage: st.take_path_coverage(),
                branches: st.take_path_branches(),
            });
            let pending = std::mem::take(&mut st.pending);
            drop(st);
            self.queue.complete(pending);
            busy_time += busy_since.elapsed();
        }

        let st = lock_state(&state);
        WorkerOutput {
            records,
            stats: ExplorationStats {
                busy_time,
                executed_paths: executed,
                ..engine_stats(&st)
            },
            budget_exhausted: st.budget_exhausted,
        }
    }

    /// Sums the workers' counters and assembles their path records into
    /// the canonical report.
    fn finish(self, outputs: Vec<WorkerOutput>) -> Report {
        let mut completed = !self.limits.truncated();
        let mut records = Vec::new();
        let mut stats = ExplorationStats {
            time: self.start.elapsed(),
            ..ExplorationStats::default()
        };
        for output in outputs {
            records.extend(output.records);
            stats.add_worker(&output.stats);
            completed &= !output.budget_exhausted;
        }
        assemble_records(records, stats, completed)
    }
}

/// Assembles path records into the canonical report: records sort by
/// their decision vectors (taken-true before taken-false), which is
/// exactly the order the sequential depth-first engine visits paths in.
/// Error path indices are renumbered to that order and coverage bins and
/// branch maps are re-counted, so the report is a pure function of the
/// explored path set — independent of workers and scheduling.
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

/// An exploration's path budget and deadline, shared by its workers.
struct Limits {
    /// Paths claimed so far (including the claim that trips the budget).
    claimed: AtomicU64,
    max_paths: u64,
    deadline: Option<Instant>,
    /// Set when a claim was refused: the exploration stopped early.
    truncated: AtomicBool,
}

impl Limits {
    fn new(explorer: &Explorer, start: Instant) -> Limits {
        Limits {
            claimed: AtomicU64::new(0),
            max_paths: explorer.max_paths,
            deadline: explorer.timeout.map(|t| start + t),
            truncated: AtomicBool::new(false),
        }
    }

    /// Claims one more path. Refused — and the exploration marked
    /// truncated — once the path budget or the deadline is spent.
    fn claim(&self) -> bool {
        let over_budget = self.claimed.fetch_add(1, AtomicOrdering::SeqCst) >= self.max_paths;
        let past_deadline = self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline);
        if over_budget || past_deadline {
            self.truncated.store(true, AtomicOrdering::SeqCst);
            return false;
        }
        true
    }

    fn truncated(&self) -> bool {
        self.truncated.load(AtomicOrdering::SeqCst)
    }
}

/// The shared work queue of pending path snapshots — the work-stealing
/// point of the pool: any worker may resume a snapshot forked on any
/// other (snapshots are pool-independent by construction).
///
/// `in_flight` counts snapshots popped but not yet completed: the queue is
/// only *drained* when it is empty **and** nothing is in flight, because a
/// running path may still fork new snapshots. `halt` wakes everyone up for
/// an early exit (path budget, timeout, or a worker unwinding).
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

    /// Claims the newest snapshot (depth-first), blocking while other
    /// workers might still fork new ones. Returns `None` once the queue
    /// has fully drained (or was halted).
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

/// Halts the queue when its worker unwinds.
struct HaltOnUnwind<'q>(&'q WorkQueue);

impl Drop for HaltOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.halt();
        }
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
    fn parallel_workers_share_the_solver_cache() {
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
    fn a_shared_cache_stack_never_changes_a_report() {
        // The second exploration over one stack answers from what the
        // first one solved, and must still report exactly what a fresh
        // explorer reports.
        let stack = CacheStack::new();
        let shared = Explorer::new().workers(1).cache_stack(&stack);
        let first = shared.explore(ladder);
        let second = shared.explore(ladder);
        let fresh = Explorer::new().workers(1).explore(ladder);
        assert!(!first.passed(), "the ladder's needle check fails");
        // Everything about an error but the time it was found at.
        let errors = |report: &Report| -> Vec<_> {
            report
                .errors
                .iter()
                .map(|e| (e.kind, e.message.clone(), e.counterexample.clone(), e.path))
                .collect()
        };
        for (label, report) in [("second", &second), ("fresh", &fresh)] {
            assert_eq!(errors(report), errors(&first), "{label}: errors");
            assert_eq!(report.stats.paths, first.stats.paths, "{label}: paths");
            assert_eq!(report.coverage, first.coverage, "{label}: coverage");
            assert_eq!(
                report.stats.branches, first.stats.branches,
                "{label}: branch coverage"
            );
        }
        assert!(
            second.stats.solver.sat_core_calls < first.stats.solver.sat_core_calls,
            "the second run must reuse the first one's answers: {:?} vs {:?}",
            second.stats.solver,
            first.stats.solver
        );
    }

    #[test]
    fn switched_off_layers_of_a_shared_stack_are_not_used() {
        let stack = CacheStack::new();
        let off = Explorer::new()
            .workers(1)
            .solver_stack(false)
            .cache_stack(&stack);
        off.explore(ladder);
        let again = off.explore(ladder).stats.solver;
        assert_eq!(
            (
                again.cache_hits,
                again.slice_hits,
                again.cex_subset_hits,
                again.model_reuse_hits
            ),
            (0, 0, 0, 0),
            "{again:?}"
        );
        // Nothing was written into the stack either: an explorer with the
        // layers on finds it as empty as a private one.
        let on = Explorer::new()
            .workers(1)
            .cache_stack(&stack)
            .explore(ladder);
        let fresh = Explorer::new().workers(1).explore(ladder);
        assert_eq!(
            on.stats.solver.sat_core_calls,
            fresh.stats.solver.sat_core_calls
        );
        assert_eq!(on.stats.solver.cache_hits, fresh.stats.solver.cache_hits);
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
    fn a_worker_unwinding_mid_path_halts_the_queue() {
        let queue = WorkQueue::new(vec![PathSnapshot::root()]);
        std::thread::scope(|scope| {
            let crashed = scope.spawn(|| {
                let _halt = HaltOnUnwind(&queue);
                let _claimed = queue.pop();
                panic!("a worker unwinds with its path in flight");
            });
            assert!(crashed.join().is_err());
        });
        // The crashed claim never completes: without the halt, this pop
        // would wait for it forever.
        assert!(queue.pop().is_none());
    }

    #[test]
    fn one_worker_runs_every_path_on_the_calling_thread() {
        // Kill-matrix cells already run on pool threads: a one-worker
        // exploration must never start threads of its own.
        let caller = std::thread::current().id();
        let threads = Mutex::new(Vec::new());
        let report = Explorer::new().workers(1).explore(|ctx| {
            threads.lock().unwrap().push(std::thread::current().id());
            ladder(ctx);
        });
        let threads = threads.into_inner().unwrap();
        assert_eq!(report.stats.paths, 16);
        assert_eq!(threads.len() as u64, report.stats.executed_paths);
        assert!(
            threads.iter().all(|&id| id == caller),
            "a path ran off the calling thread"
        );
    }

    #[test]
    fn every_explored_path_is_executed_and_none_is_merged() {
        // `executed_paths` and `merged_paths` are kept because the
        // benchmark reports them as `symex.executed_paths` and
        // `symex.merged_paths`: every path the report represents is one
        // the engine ran, at any worker count and fork strategy.
        for fork in [ForkStrategy::CowSnapshot, ForkStrategy::Reexec] {
            for workers in [1, 2, 8] {
                let report = Explorer::new()
                    .workers(workers)
                    .fork_strategy(fork)
                    .explore(ladder);
                let stats = &report.stats;
                assert_eq!(stats.paths, 16, "{fork:?} at {workers} workers");
                assert_eq!(
                    (stats.executed_paths, stats.merged_paths),
                    (stats.paths, 0),
                    "{fork:?} at {workers} workers"
                );
            }
        }
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

    /// Forks, checks, concretizes, covers and panics, depending on `x`.
    fn busy_bench(ctx: &SymCtx) {
        let x = ctx.symbolic("x", Width::W8);
        ctx.assume(&x.ult(&ctx.word(200, Width::W8)));
        if ctx.decide(&x.ult(&ctx.word(100, Width::W8))) {
            ctx.cover("low");
        }
        ctx.check(&x.eq(&ctx.word(42, Width::W8)).not(), "x is not 42");
        if x.concretize() == 7 {
            panic!("boom on 7");
        }
    }

    #[test]
    fn replay_and_trace_never_ask_the_solver() {
        // Why the single-path runner's solver needs no cache stack: on
        // every input — passing, failing a check, panicking, violating
        // the assumption — neither mode makes a single query.
        let explorer = Explorer::new();
        for (x, errors) in [(3u64, 0), (7, 1), (42, 1), (150, 0), (250, 0)] {
            let input = crate::error::Counterexample::from_pairs([("x", x)]);
            for (mode, report) in [
                ("replay", explorer.replay(&input, busy_bench)),
                ("trace", explorer.trace(&input, busy_bench)),
            ] {
                assert_eq!(report.errors.len(), errors, "{mode} of x = {x}");
                assert_eq!(report.stats.paths, 1);
                assert_eq!(
                    report.stats.solver.queries, 0,
                    "{mode} of x = {x}: {}",
                    report.stats
                );
            }
        }
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
