//! The symbolic execution context: path constraints, branch decisions,
//! assumptions, assertions and error recording.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use symsc_smt::eval::Evaluator;
use symsc_smt::{Model, SatResult, Solver, TermId, TermPool, Width};

use crate::cow::CowVec;
use crate::error::{Counterexample, ErrorKind, SymError};
use crate::snapshot::PathSnapshot;
use crate::value::{SymBool, SymWord};

/// Internal marker unwound through the testbench to terminate a path.
/// Callers never see it: the explorer catches and interprets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PathTerm;

/// Engine state shared between the explorer and every [`SymCtx`] /
/// [`SymWord`] handle of one exploration.
///
/// Pool and solver live for the *whole* exploration (all paths); the
/// remaining fields are reset per path by
/// [`begin_path`](EngineState::begin_path).
pub(crate) struct EngineState {
    pub(crate) pool: TermPool,
    pub(crate) solver: Solver,
    /// Exploration-level accumulators.
    pub(crate) errors: Vec<SymError>,
    pub(crate) decisions: u64,
    pub(crate) path_index: u64,
    pub(crate) solver_time: Duration,
    pub(crate) started: Instant,
    /// Per-path state.
    pub(crate) constraints: Vec<TermId>,
    forced: Vec<bool>,
    cursor: usize,
    taken: Vec<bool>,
    pub(crate) pending: Vec<PathSnapshot>,
    pub(crate) inputs: Vec<String>,
    /// Copy-on-write fork strategy: a fork captures a [`PathSnapshot`] of
    /// the live path state, and resuming one *fast-forwards* through the
    /// forced prefix without any solver work. When `false`, forks record
    /// a bare decision prefix that is re-solved from scratch — the
    /// original engine, kept as the differential oracle.
    cow: bool,
    /// Values pinned by `concretize` on the current path, in call order.
    /// Restored from the resumed snapshot; consumed during fast-forward,
    /// appended to in the free region.
    journal: CowVec<u64>,
    journal_cursor: usize,
    /// `errors.len()` at path start: errors at or past this index belong
    /// to the current path and travel with snapshots forked from it.
    path_error_base: usize,
    /// Snapshots captured across the whole exploration (stats).
    pub(crate) fork_snapshots: u64,
    /// Decisions replayed solver-free during fast-forward (stats).
    pub(crate) ff_decisions: u64,
    /// Reusable constraint buffer for [`check`](Self::check); avoids a
    /// per-query allocation on the hot path.
    scratch: Vec<TermId>,
    path_decisions: u64,
    max_path_decisions: u64,
    pub(crate) budget_exhausted: bool,
    /// Concrete replay mode: symbolic inputs resolve to these values.
    pub(crate) replay: Option<std::collections::HashMap<String, u64>>,
    /// Concolic trace mode: inputs stay symbolic (so fork-site
    /// fingerprints are the ones exploration would see) but every
    /// decision is *evaluated* under this assignment instead of solved —
    /// a single concrete path with real branch coverage and no solver
    /// work. This is the fuzzer's execution mode.
    pub(crate) trace: Option<std::collections::HashMap<String, u64>>,
    /// Evaluates under `trace` with one memo per path: the assignment is
    /// fixed and the pool only grows, so no term is computed twice.
    trace_eval: Evaluator,
    /// Functional-coverage bins: label -> number of paths that hit it.
    pub(crate) coverage: std::collections::BTreeMap<String, u64>,
    /// Bins hit on the current path (merged into `coverage` per path).
    path_coverage: std::collections::BTreeSet<String>,
    /// Symbolic branch coverage: fork-site fingerprint -> per-direction
    /// path counts (merged from `path_branches` per path).
    pub(crate) branches: std::collections::BTreeMap<u128, crate::stats::BranchCoverage>,
    /// `(site, direction)` pairs decided on the current path. Sites are
    /// structural fingerprints, so they agree across pools and workers.
    path_branches: std::collections::BTreeSet<(u128, bool)>,
    /// A cached satisfying assignment for the current path constraints
    /// (KLEE's "eager evaluation" trick): branch feasibility can often be
    /// answered by evaluating the condition under this model instead of
    /// calling the solver.
    cur_env: Option<std::collections::HashMap<String, u64>>,
}

impl EngineState {
    /// A fresh engine state around a pre-configured `solver`. Parallel
    /// workers receive solvers built over clones of one shared cache
    /// stack, so a query or slice solved on any worker is a hit on every
    /// other.
    pub(crate) fn new(max_path_decisions: u64, solver: Solver, cow: bool) -> EngineState {
        EngineState {
            pool: TermPool::new(),
            solver,
            errors: Vec::new(),
            decisions: 0,
            path_index: 0,
            solver_time: Duration::ZERO,
            started: Instant::now(),
            constraints: Vec::new(),
            forced: Vec::new(),
            cursor: 0,
            taken: Vec::new(),
            pending: Vec::new(),
            inputs: Vec::new(),
            cow,
            journal: CowVec::new(),
            journal_cursor: 0,
            path_error_base: 0,
            fork_snapshots: 0,
            ff_decisions: 0,
            scratch: Vec::new(),
            path_decisions: 0,
            max_path_decisions,
            budget_exhausted: false,
            replay: None,
            trace: None,
            trace_eval: Evaluator::new(),
            coverage: std::collections::BTreeMap::new(),
            path_coverage: std::collections::BTreeSet::new(),
            branches: std::collections::BTreeMap::new(),
            path_branches: std::collections::BTreeSet::new(),
            cur_env: None,
        }
    }

    pub(crate) fn begin_path(&mut self, snapshot: PathSnapshot) {
        // Replay and trace execute exactly one path on a fresh engine;
        // resuming a forked snapshot in those modes would silently replay
        // stale state, so it is a hard error. Callers holding a snapshot
        // must explore it, not replay it.
        assert!(
            (self.replay.is_none() && self.trace.is_none()) || snapshot.is_root(),
            "replay/trace require a fresh engine per path: \
             cannot resume a forked snapshot"
        );
        // A new path invalidates the solver's per-path incremental
        // context: its asserted prefix belongs to the path just ended.
        self.solver.begin_path();
        self.constraints.clear();
        self.forced = snapshot.prefix;
        self.cursor = 0;
        self.taken.clear();
        self.inputs.clear();
        self.path_decisions = 0;
        self.path_coverage.clear();
        self.path_branches.clear();
        self.trace_eval.clear();
        self.journal = snapshot.journal;
        self.journal_cursor = 0;
        // Errors already recorded on the shared prefix resume with this
        // path, re-indexed to it. (Only check-style guards record and
        // continue; killing errors never precede a fork.)
        self.path_error_base = self.errors.len();
        for mut error in snapshot.errors {
            error.path = self.path_index;
            self.errors.push(error);
        }
        if self.cow && !self.forced.is_empty() {
            // Fast-forward holds no cached model: the prefix needs no
            // feasibility answers (the parent already solved them), and
            // the free region re-establishes a model on first use.
            self.cur_env = None;
        } else {
            // The empty assignment satisfies the (empty) constraint set.
            self.cur_env = Some(std::collections::HashMap::new());
        }
    }

    /// Whether the engine is solver-free fast-forwarding a resumed
    /// snapshot's forced prefix (copy-on-write strategy only).
    fn in_fast_forward(&self) -> bool {
        self.cow && self.cursor < self.forced.len()
    }

    /// Marks a coverage bin as hit on the current path.
    pub(crate) fn cover(&mut self, label: &str) {
        self.path_coverage.insert(label.to_string());
    }

    /// Folds the current path's bins into the exploration-level counts.
    pub(crate) fn end_path_coverage(&mut self) {
        for label in std::mem::take(&mut self.path_coverage) {
            *self.coverage.entry(label).or_insert(0) += 1;
        }
    }

    /// The decision directions taken on the current path so far.
    pub(crate) fn taken_so_far(&self) -> Vec<bool> {
        self.taken.clone()
    }

    /// Removes and returns the coverage bins hit on the current path.
    /// The worker loop folds these into the canonical report itself
    /// instead of going through [`end_path_coverage`](Self::end_path_coverage).
    pub(crate) fn take_path_coverage(&mut self) -> std::collections::BTreeSet<String> {
        std::mem::take(&mut self.path_coverage)
    }

    /// Folds the current path's `(site, direction)` pairs into the
    /// exploration-level branch-coverage counts.
    pub(crate) fn end_path_branches(&mut self) {
        for (site, dir) in std::mem::take(&mut self.path_branches) {
            let entry = self.branches.entry(site).or_default();
            if dir {
                entry.taken += 1;
            } else {
                entry.not_taken += 1;
            }
        }
    }

    /// Removes and returns the `(site, direction)` pairs decided on the
    /// current path; the worker loop's canonical assembly counts them.
    pub(crate) fn take_path_branches(&mut self) -> std::collections::BTreeSet<(u128, bool)> {
        std::mem::take(&mut self.path_branches)
    }

    /// The value of `id` under the traced assignment, in trace mode.
    fn trace_value(&mut self, id: TermId) -> Option<u64> {
        let env = self.trace.as_ref()?;
        Some(self.trace_eval.eval(&self.pool, id, env))
    }

    /// Evaluates a width-1 term under the cached model, if one is held.
    fn env_value(&self, cond: TermId) -> Option<bool> {
        self.cur_env
            .as_ref()
            .map(|env| symsc_smt::eval::evaluate(&self.pool, cond, env) == 1)
    }

    fn adopt_model(&mut self, model: &Model) {
        self.cur_env = Some(model.to_env());
    }

    fn check(&mut self, extra: Option<TermId>) -> SatResult {
        let start = Instant::now();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.constraints);
        if let Some(e) = extra {
            self.scratch.push(e);
        }
        // The freshly-pushed constraint is the focus hint: the solver
        // solves its slice first so an infeasible branch short-circuits.
        let result = self
            .solver
            .check_with_focus(&self.pool, &self.scratch, extra);
        self.solver_time += start.elapsed();
        result
    }

    /// Verdict-only feasibility of `self.constraints ∪ {focus}`. The path
    /// constraints are kept satisfiable by construction, which lets the
    /// solver solve only the slice containing `focus` and answer SAT from
    /// cached witness models — much cheaper than a full [`check`], but it
    /// yields no model, so it is only used for fork-feasibility probes.
    fn check_feasible(&mut self, focus: TermId) -> bool {
        let start = Instant::now();
        let feasible = self
            .solver
            .check_feasible(&self.pool, &self.constraints, focus);
        self.solver_time += start.elapsed();
        feasible
    }

    fn record_error(&mut self, kind: ErrorKind, message: String, model: &Model) {
        let counterexample = if let Some(values) = &self.replay {
            Counterexample::from_values(values, &self.inputs)
        } else if let Some(values) = &self.trace {
            Counterexample::from_values(values, &self.inputs)
        } else {
            Counterexample::from_model(model, &self.inputs)
        };
        self.errors.push(SymError {
            kind,
            message,
            counterexample,
            path: self.path_index,
            found_at: self.started.elapsed(),
        });
    }

    /// Records an error against the current path's own feasibility model
    /// (used when the erring condition is already part of the path).
    ///
    /// The model always comes from a *canonical* solve of the path
    /// constraints — never from the cached feasibility witness — so the
    /// counterexample is a pure function of the structural constraint
    /// set. That is what makes a copy-on-write resume and a forced
    /// re-execution of the same path report byte-identical errors even
    /// though their cached-model histories differ.
    pub(crate) fn record_error_here(&mut self, kind: ErrorKind, message: String) {
        if self.replay.is_some() || self.trace.is_some() {
            // The concrete inputs are recorded directly ([`record_error`]
            // reads the replay/trace map); no solver call is needed, and
            // trace mode must stay solver-free.
            let unused = Model::new();
            self.record_error(kind, message, &unused);
            return;
        }
        match self.check(None) {
            SatResult::Sat(model) => self.record_error(kind, message, &model),
            // The path constraints are kept feasible by construction, so
            // UNSAT is an engine or solver bug — and dropping the error
            // would turn a Fail into a Pass.
            SatResult::Unsat => {
                panic!("engine invariant violated: an erring path's constraints are infeasible")
            }
        }
    }

    fn kill_path(&self) -> ! {
        std::panic::panic_any(PathTerm)
    }

    fn count_decision(&mut self) {
        if self.in_fast_forward() {
            self.ff_decisions += 1;
        }
        self.decisions += 1;
        self.path_decisions += 1;
        if self.path_decisions > self.max_path_decisions {
            // A runaway loop over symbolic state; truncate this path and
            // mark the exploration incomplete.
            self.budget_exhausted = true;
            self.kill_path();
        }
    }

    /// Captures the opposite fork of the current decision as a pending
    /// unit of work. Under the copy-on-write strategy this snapshots the
    /// live path state (journal, prefix errors) so the fork resumes
    /// without re-solving the prefix; under the re-execution oracle it
    /// records only the decision prefix, exactly as the original engine.
    fn push_fork(&mut self) {
        let mut prefix = self.taken.clone();
        prefix.push(false);
        let snapshot = if self.cow {
            self.fork_snapshots += 1;
            PathSnapshot {
                prefix,
                journal: self.journal.clone(),
                errors: self.errors[self.path_error_base..].to_vec(),
            }
        } else {
            PathSnapshot::from_prefix(prefix)
        };
        self.pending.push(snapshot);
    }

    /// Resolves a symbolic condition to a concrete branch direction,
    /// forking (enqueueing the opposite prefix) when both are feasible.
    pub(crate) fn decide(&mut self, cond: TermId) -> bool {
        if let Some(c) = self.pool.const_value(cond) {
            return c == 1;
        }
        self.count_decision();
        // The fork-site id: a structural fingerprint, so the same program
        // point yields the same id in every pool and on every worker.
        // Recorded for forced (replayed) and free decisions alike — a
        // path's covered set is independent of how it was reached.
        let site = self.pool.fingerprint(cond);

        if let Some(value) = self.trace_value(cond) {
            let dir = value == 1;
            self.taken.push(dir);
            self.path_branches.insert((site, dir));
            return dir;
        }

        if self.cursor < self.forced.len() {
            let dir = self.forced[self.cursor];
            self.cursor += 1;
            let c = if dir { cond } else { self.pool.not(cond) };
            // Keep the cached model only if it satisfies the new constraint.
            if self.env_value(c) != Some(true) {
                self.cur_env = None;
            }
            return self.take_branch(site, c, dir);
        }

        let not_cond = self.pool.not(cond);
        match self.env_value(cond) {
            Some(true) => {
                // True branch witnessed by the cached model: only the
                // forking check needs the solver, and only as a verdict.
                if self.check_feasible(not_cond) {
                    self.push_fork();
                }
                self.take_branch(site, cond, true)
            }
            Some(false) => {
                // False branch witnessed; prefer true if it is feasible.
                // Whether it is, is a verdict: with the incremental context
                // on, a refuted true branch is settled there as an
                // assumption solve, and only a feasible one pays for the
                // canonical solve whose model the path adopts. The UNSAT
                // verdict seeds the same whole-query and focus-slice keys
                // the canonical solve would, so no later model can differ.
                let verdict = if self.solver.incremental_enabled() && !self.check_feasible(cond) {
                    SatResult::Unsat
                } else {
                    self.check(Some(cond))
                };
                match verdict {
                    SatResult::Sat(model) => {
                        self.push_fork();
                        self.adopt_model(&model);
                        self.take_branch(site, cond, true)
                    }
                    SatResult::Unsat => self.take_branch(site, not_cond, false),
                }
            }
            None => match self.check(Some(cond)) {
                SatResult::Sat(model) => {
                    if self.check_feasible(not_cond) {
                        self.push_fork();
                    }
                    self.adopt_model(&model);
                    self.take_branch(site, cond, true)
                }
                // The path itself is feasible, so the negation must be.
                SatResult::Unsat => self.take_branch(site, not_cond, false),
            },
        }
    }

    /// Takes direction `dir` at fork site `site`: pushes the branch's
    /// constraint `c` onto the path and records the decision in the
    /// path's branches. Returns `dir`.
    fn take_branch(&mut self, site: u128, c: TermId, dir: bool) -> bool {
        self.constraints.push(c);
        self.taken.push(dir);
        self.path_branches.insert((site, dir));
        dir
    }

    /// Adds an assumption; kills the path if it becomes infeasible.
    pub(crate) fn assume(&mut self, cond: TermId) {
        if self.pool.is_true(cond) {
            return;
        }
        if self.pool.is_false(cond) {
            self.kill_path();
        }
        self.count_decision();
        if let Some(value) = self.trace_value(cond) {
            if value != 1 {
                self.kill_path();
            }
            return;
        }
        if self.in_fast_forward() {
            // The forking path already survived this assumption, so the
            // prefix stays feasible with `cond`: push it without solving.
            self.constraints.push(cond);
            return;
        }
        if self.env_value(cond) != Some(true) {
            match self.check(Some(cond)) {
                SatResult::Sat(model) => self.adopt_model(&model),
                SatResult::Unsat => self.kill_path(),
            }
        }
        self.constraints.push(cond);
    }

    /// Checks an assertion. If the negation is feasible, records an error
    /// with a counterexample; the path then continues under the asserted
    /// condition (KLEE terminates only the erring fork).
    pub(crate) fn check_assert(&mut self, cond: TermId, message: &str) {
        self.check_guard(cond, ErrorKind::AssertionFailed, message);
    }

    /// Guards a division: records a [`ErrorKind::DivisionByZero`] if the
    /// divisor can be zero, then continues under `divisor != 0`.
    pub(crate) fn check_div_guard(&mut self, nonzero: TermId) {
        self.check_guard(nonzero, ErrorKind::DivisionByZero, "divisor can be zero");
    }

    fn check_guard(&mut self, cond: TermId, kind: ErrorKind, message: &str) {
        if self.pool.is_true(cond) {
            return;
        }
        self.count_decision();
        // Replay folds its inputs to constants; trace evaluates them.
        let concrete = if self.replay.is_some() {
            self.pool.const_value(cond)
        } else {
            self.trace_value(cond)
        };
        if let Some(value) = concrete {
            // Replay and trace: the check either holds under the concrete
            // input or it is a finding — there is no "other fork" to
            // continue on, and no solver to ask.
            if value != 1 {
                self.record_error_here(kind, message.to_string());
                self.kill_path();
            }
            return;
        }
        if self.in_fast_forward() {
            // The forking path already ran this guard: a violation it
            // found travels in the snapshot's restored errors, and the path
            // continued under `cond` either way. Re-recording (or
            // re-solving) here would duplicate work the parent did.
            self.constraints.push(cond);
            return;
        }
        let not_cond = self.pool.not(cond);
        // The cached model may witness the violation (skipping the
        // feasibility probe), but the recorded counterexample always
        // comes from the canonical full solve below: the cached model
        // depends on how the path was reached (resumed or re-executed),
        // the canonical model only on the structural constraint set —
        // which is what keeps COW and re-exec reports byte-identical.
        let violated = if self.env_value(not_cond) != Some(true)
            && self.solver.incremental_enabled()
            && !self.check_feasible(not_cond)
        {
            // Verdict-only fast path: a passing check is an UNSAT verdict
            // and needs no model, so the incremental per-path context can
            // answer it as an assumption solve on the retained prefix. A
            // feasible violation falls through to the full solve below,
            // which produces the canonical counterexample model — so the
            // report is byte-identical with the probe on or off.
            false
        } else if let SatResult::Sat(model) = self.check(Some(not_cond)) {
            self.record_error(kind, message.to_string(), &model);
            true
        } else {
            false
        };
        if violated {
            // Continue only if the condition itself can still hold.
            if self.pool.is_false(cond) {
                self.kill_path();
            }
            if self.env_value(cond) != Some(true) {
                match self.check(Some(cond)) {
                    SatResult::Sat(model) => self.adopt_model(&model),
                    SatResult::Unsat => self.kill_path(),
                }
            }
        } else if self.env_value(cond) != Some(true) {
            // No violation exists, so `cond` is implied by the path; the
            // cached model (a path model) must satisfy it.
            debug_assert!(self.cur_env.is_none(), "path model violates implied cond");
            if let SatResult::Sat(model) = self.check(Some(cond)) {
                self.adopt_model(&model);
            }
        }
        self.constraints.push(cond);
    }

    /// KLEE-style concretization: pick a satisfying value for `id`, pin the
    /// path to it, and return it.
    ///
    /// The value comes from a *canonical* solve of the path constraints
    /// (not the cached witness model), so it is a pure function of the
    /// structural constraint set — a resumed snapshot replays the same
    /// value from its journal that a forced re-execution would recompute.
    pub(crate) fn concretize(&mut self, id: TermId, width: Width) -> u64 {
        if let Some(value) = self.trace_value(id) {
            // Concolic: the traced assignment already fixes every input.
            return value;
        }
        if let Some(value) = self.pool.const_value(id) {
            // Already concrete (always the case in replay mode, which
            // constant-folds the inputs): nothing to pin, nothing to solve.
            return value;
        }
        if self.in_fast_forward() {
            // The forking path already pinned this value; consume it from
            // the journal and rebuild the pin constraint solver-free.
            let value = *self
                .journal
                .get(self.journal_cursor)
                .expect("concretization journal underran the forced prefix");
            self.journal_cursor += 1;
            let k = self.pool.constant(value, width);
            let pin = self.pool.eq(id, k);
            self.constraints.push(pin);
            return value;
        }
        match self.check(None) {
            SatResult::Sat(model) => {
                self.adopt_model(&model);
                let env = self.cur_env.as_ref().expect("model adopted above");
                let value = symsc_smt::eval::evaluate(&self.pool, id, env);
                let k = self.pool.constant(value, width);
                let pin = self.pool.eq(id, k);
                self.constraints.push(pin);
                if self.cow {
                    debug_assert_eq!(
                        self.journal_cursor,
                        self.journal.len(),
                        "free-region journal appends follow the replayed entries"
                    );
                    self.journal.push(value);
                    self.journal_cursor += 1;
                }
                value
            }
            // Ending the path here would drop it from a report that still
            // says it is complete.
            SatResult::Unsat => panic!(
                "engine invariant violated: concretize on a path whose constraints are infeasible"
            ),
        }
    }

    /// Records a non-assertion error (out-of-bounds, division by zero, …)
    /// on the current path and terminates the path, mirroring how KLEE
    /// terminates a path at a memory error.
    pub(crate) fn fail_path(&mut self, kind: ErrorKind, message: String) -> ! {
        self.record_error_here(kind, message);
        self.kill_path()
    }
}

/// Handle to the running symbolic execution, passed to testbenches.
///
/// Cloning is cheap (reference-counted); [`SymWord`]s hold their own clone
/// so model code can operate on symbolic values without carrying the
/// context around explicitly.
#[derive(Clone)]
pub struct SymCtx {
    pub(crate) inner: Arc<Mutex<EngineState>>,
}

impl std::fmt::Debug for SymCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.engine();
        f.debug_struct("SymCtx")
            .field("path", &st.path_index)
            .field("constraints", &st.constraints.len())
            .field("errors", &st.errors.len())
            .finish()
    }
}

impl SymCtx {
    pub(crate) fn new(inner: Arc<Mutex<EngineState>>) -> SymCtx {
        SymCtx { inner }
    }

    /// Locks the engine state. Path termination unwinds a
    /// [`PathTerm`] panic *through* held guards, which poisons the mutex;
    /// that poisoning is benign (`kill_path` only fires at points where the
    /// state is consistent), so the poison flag is deliberately cleared.
    pub(crate) fn engine(&self) -> MutexGuard<'_, EngineState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Declares a fresh symbolic input of the given width — the analogue
    /// of `klee_int("name")`.
    ///
    /// Re-declaring the same name on a later path returns the same
    /// variable, which is what re-execution requires.
    pub fn symbolic(&self, name: &str, width: Width) -> SymWord {
        let id = {
            let mut st = self.engine();
            if !st.inputs.iter().any(|n| n == name) {
                st.inputs.push(name.to_string());
            }
            match &st.replay {
                // Concrete replay: the "symbolic" input is the recorded
                // counterexample value.
                Some(values) => {
                    let value = values.get(name).copied().unwrap_or(0);
                    st.pool.constant(value, width)
                }
                None => st.pool.var(name, width),
            }
        };
        SymWord::from_raw(self.clone(), id, width)
    }

    /// A concrete word of the given width.
    pub fn word(&self, value: u64, width: Width) -> SymWord {
        let id = self.engine().pool.constant(value, width);
        SymWord::from_raw(self.clone(), id, width)
    }

    /// A concrete 32-bit word (the natural TLM register width).
    pub fn word32(&self, value: u32) -> SymWord {
        self.word(u64::from(value), Width::W32)
    }

    /// A concrete boolean.
    pub fn lit(&self, value: bool) -> SymBool {
        let id = {
            let mut st = self.engine();
            if value {
                st.pool.tru()
            } else {
                st.pool.fls()
            }
        };
        SymBool::from_raw(self.clone(), id)
    }

    /// Constrains the path with `cond` — the analogue of `klee_assume`.
    /// If the assumption is infeasible the current path terminates
    /// silently.
    pub fn assume(&self, cond: &SymBool) {
        let id = cond.id();
        self.engine().assume(id);
    }

    /// Asserts `cond`; any feasible violation is recorded as an
    /// [`ErrorKind::AssertionFailed`] with a counterexample. Execution
    /// continues on the non-violating fork, like KLEE terminating only the
    /// erring path.
    pub fn check(&self, cond: &SymBool, message: &str) {
        let id = cond.id();
        self.engine().check_assert(id, message);
    }

    /// Asserts an already-concrete condition (e.g. a counter in the mock
    /// HART). A violation is recorded as an [`ErrorKind::AssertionFailed`]
    /// with the current path's counterexample and terminates the path.
    pub fn check_concrete(&self, cond: bool, message: &str) {
        let b = self.lit(cond);
        self.check(&b, message);
    }

    /// Resolves a symbolic condition to a concrete `bool`, forking the
    /// exploration if both directions are feasible. Model code uses this
    /// for every control-flow decision over symbolic data.
    pub fn decide(&self, cond: &SymBool) -> bool {
        let id = cond.id();
        self.engine().decide(id)
    }

    /// Records a non-assertion error (memory fault, trap, protocol
    /// violation) and terminates the current path.
    pub fn fail(&self, kind: ErrorKind, message: impl Into<String>) -> ! {
        self.engine().fail_path(kind, message.into())
    }

    /// Marks a functional-coverage bin as hit on the current path. The
    /// report counts, per bin, how many explored paths reached it —
    /// verification-closure data for testbench review (which scenarios
    /// the symbolic exploration actually drove).
    pub fn cover(&self, label: &str) {
        self.engine().cover(label);
    }

    /// Number of errors recorded so far in this exploration.
    pub fn error_count(&self) -> usize {
        self.engine().errors.len()
    }

    /// The current path's index (0-based).
    pub fn path_index(&self) -> u64 {
        self.engine().path_index
    }

    pub(crate) fn with_pool<R>(&self, f: impl FnOnce(&mut TermPool) -> R) -> R {
        f(&mut self.engine().pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;

    #[test]
    fn concrete_conditions_do_not_fork() {
        let report = Explorer::new().explore(|ctx| {
            let t = ctx.lit(true);
            assert!(ctx.decide(&t));
            let f = ctx.lit(false);
            assert!(!ctx.decide(&f));
        });
        assert_eq!(report.stats.paths, 1);
        assert_eq!(report.stats.decisions, 0);
    }

    #[test]
    fn symbolic_condition_forks_two_paths() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let zero = ctx.word(0, Width::W8);
            let c = x.eq(&zero);
            let _ = ctx.decide(&c);
        });
        assert_eq!(report.stats.paths, 2);
        assert!(report.completed);
    }

    #[test]
    fn assume_prunes_infeasible_branches() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let five = ctx.word(5, Width::W8);
            ctx.assume(&x.eq(&five));
            // x == 5 is now forced; this branch cannot fork.
            let c = x.eq(&five);
            assert!(ctx.decide(&c));
        });
        assert_eq!(report.stats.paths, 1);
        assert!(report.passed());
    }

    #[test]
    fn failing_assert_produces_counterexample() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let ten = ctx.word(10, Width::W8);
            ctx.check(&x.ult(&ten), "x must be below 10");
        });
        assert_eq!(report.errors.len(), 1);
        let e = &report.errors[0];
        assert_eq!(e.kind, ErrorKind::AssertionFailed);
        assert!(e.counterexample.value("x") >= 10);
    }

    #[test]
    fn passing_assert_is_silent() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let big = ctx.word(255, Width::W8);
            ctx.check(&x.ule(&big), "trivially true");
        });
        assert!(report.passed());
    }

    /// An engine whose path constraints contradict each other, as a
    /// solver slip would leave them: `x == 1` and `x == 2`.
    fn contradictory_engine() -> (EngineState, TermId) {
        let mut st = EngineState::new(100, Solver::new(), false);
        let x = st.pool.var("x", Width::W8);
        for value in [1, 2] {
            let k = st.pool.constant(value, Width::W8);
            let pin = st.pool.eq(x, k);
            st.constraints.push(pin);
        }
        (st, x)
    }

    #[test]
    #[should_panic(expected = "an erring path's constraints are infeasible")]
    fn recording_an_error_on_an_infeasible_path_panics() {
        let (mut st, _) = contradictory_engine();
        st.record_error_here(ErrorKind::AssertionFailed, "dropped".to_string());
    }

    #[test]
    #[should_panic(expected = "concretize on a path whose constraints are infeasible")]
    fn concretizing_on_an_infeasible_path_panics() {
        let (mut st, x) = contradictory_engine();
        st.concretize(x, Width::W8);
    }

    /// `x < 4` is assumed, so the model the path adopts refutes
    /// `x == target` when `target` is 4 or more and merely misses it
    /// otherwise: either way `decide` asks about a branch its witness
    /// makes false. The trailing check's counterexample is a canonical
    /// model solved after that decision.
    fn witness_missed_bench(target: u64) -> impl Fn(&SymCtx) + Sync {
        move |ctx| {
            let x = ctx.symbolic("x", Width::W8);
            ctx.assume(&x.ult(&ctx.word(4, Width::W8)));
            if ctx.decide(&x.eq(&ctx.word(target, Width::W8))) {
                ctx.cover("taken");
            }
            ctx.check(&x.ult(&ctx.word(3, Width::W8)), "x stays below 3");
        }
    }

    /// Everything a report says, without its timings and work counters.
    fn report_view(report: &crate::Report) -> String {
        let mut view = format!(
            "paths={} decisions={} completed={}\n",
            report.stats.paths, report.stats.decisions, report.completed
        );
        for error in &report.errors {
            view += &format!("{error}\n");
        }
        for (label, count) in &report.coverage {
            view += &format!("cover {label}={count}\n");
        }
        for (site, bc) in &report.stats.branches {
            view += &format!("branch {site:032x}={}/{}\n", bc.taken, bc.not_taken);
        }
        view
    }

    fn reports_with_context_on_and_off(target: u64) -> (crate::Report, crate::Report) {
        let run = |incremental| {
            Explorer::new()
                .incremental(incremental)
                .explore(witness_missed_bench(target))
        };
        (run(true), run(false))
    }

    /// Fresh canonical solves and retained-context (assumption) solves.
    fn solves(st: &EngineState) -> (u64, u64) {
        let stats = st.solver.stats();
        let assumption = stats.incremental.assumption_solves;
        (stats.sat_core_calls - assumption, assumption)
    }

    /// The bench's prefix on a bare engine: `x < 4` assumed, and the
    /// condition `x == target`, which the adopted witness makes false.
    fn witness_missed_engine(target: u64) -> (EngineState, TermId) {
        let mut st = EngineState::new(100, Solver::new(), false);
        let x = st.pool.var("x", Width::W8);
        let four = st.pool.constant(4, Width::W8);
        let below = st.pool.ult(x, four);
        st.assume(below);
        let k = st.pool.constant(target, Width::W8);
        let cond = st.pool.eq(x, k);
        assert_eq!(
            st.env_value(cond),
            Some(false),
            "the witness misses x == {target}"
        );
        (st, cond)
    }

    #[test]
    fn witness_refuted_branch_is_settled_by_an_assumption_solve() {
        let (mut st, cond) = witness_missed_engine(200);
        let (fresh, assumption) = solves(&st);
        assert!(!st.decide(cond));
        assert_eq!(
            solves(&st),
            (fresh, assumption + 1),
            "no fresh canonical solve"
        );
        assert!(st.pending.is_empty(), "a refuted branch does not fork");

        let (on, off) = reports_with_context_on_and_off(200);
        assert_eq!(on.stats.paths, 1);
        assert_eq!(on.errors.len(), 1);
        assert_eq!(report_view(&on), report_view(&off));
    }

    #[test]
    fn witness_missed_feasible_branch_still_forks() {
        let (mut st, cond) = witness_missed_engine(2);
        let (fresh, _) = solves(&st);
        assert!(st.decide(cond));
        assert_eq!(solves(&st).0, fresh + 1, "the adopted model is canonical");
        assert_eq!(st.pending.len(), 1, "the false branch is queued");

        let (on, off) = reports_with_context_on_and_off(2);
        assert_eq!(on.stats.paths, 2);
        assert_eq!(on.coverage.get("taken"), Some(&1));
        assert_eq!(report_view(&on), report_view(&off));
    }

    #[test]
    fn fail_terminates_path_but_not_exploration() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let zero = ctx.word(0, Width::W8);
            if ctx.decide(&x.eq(&zero)) {
                ctx.fail(ErrorKind::OutOfBounds, "zero is out of bounds");
            }
        });
        assert_eq!(report.stats.paths, 2);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].kind, ErrorKind::OutOfBounds);
        assert_eq!(report.errors[0].counterexample.value("x"), 0);
    }
}
