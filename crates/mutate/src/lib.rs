//! # symsc-mutate — mutation testing for the T1–T5 oracle
//!
//! The paper validates its test suite against six hand-picked injected
//! faults (IF1–IF6, Table 2). This crate turns that spot check into a
//! *mutation-testing* harness: it derives dozens of first-order mutants of
//! the PLIC by sweeping the parameters of the open mutation registry
//! ([`MutationOp`]), runs the symbolic suite against every mutant, and
//! reports the **kill matrix** — which test kills which mutant, the
//! overall kill rate, and the mutants that survive all five tests.
//!
//! A mutant is *killed* when at least one test that passes on the fixed
//! PLIC fails on the mutated one. Surviving mutants are either genuine
//! oracle gaps (behavior no test observes) or *equivalent mutants* whose
//! change is semantically invisible (e.g. a duplicated notification that
//! the kernel's override rules absorb).
//!
//! The matrix also records each exploration's **symbolic branch coverage**
//! (fork sites and directions, see
//! `symsc_symex::ExplorationStats::branches`); the
//! [`KillMatrix::coverage_kill_correlation`] column quantifies how well a
//! test's branch coverage predicts its kill count. On this suite the
//! correlation is *negative*: the decode-interface tests T4/T5 fork the
//! most but kill nothing, because every mutant lives in the delivery
//! logic their coverage never touches — raw coverage is a poor oracle
//! proxy, which is the point of measuring kills directly. Everything in
//! [`KillMatrix::stable_view`] is a pure function of the explored path
//! sets, so the rendered matrix is byte-identical across worker counts.
//!
//! The matrix is generic over its test suite ([`KillSuite`]): the
//! register-level suite T1–T5 ([`TestId`]), the cross-level equivalence
//! suite X1–X3 ([`CrossId`], every mutant injected into each abstraction
//! level in turn) and the firmware drivers F1–F5 of `symsc-firmware` all
//! run through the one [`run_kill_matrix_with`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::panic;
use std::sync::mpsc;
use std::thread;

use symsc_plic::{InjectedFault, Mutation, MutationOp, PlicConfig, ThresholdCmp};
use symsc_testbench::{run_cross_test, run_test, CrossId, SuiteParams, TestId};
use symsysc_core::{CacheStack, SolverStats, TestOutcome, Verifier};

/// A generated (or preset) mutant: a named [`MutationOp`] instance.
#[derive(Clone, Debug)]
pub struct Mutant {
    name: String,
    description: String,
    op: MutationOp,
    preset: Option<InjectedFault>,
}

impl Mutant {
    /// A mutant with an explicit name and description.
    pub fn new(name: &str, description: &str, op: MutationOp) -> Mutant {
        Mutant {
            name: name.to_string(),
            description: description.to_string(),
            op,
            preset: None,
        }
    }

    /// The mutant for one of the paper's named fault presets.
    pub fn from_preset(fault: InjectedFault) -> Mutant {
        Mutant {
            name: Mutation::name(&fault),
            description: fault.description(),
            op: fault.op(),
            preset: Some(fault),
        }
    }

    /// The preset this mutant corresponds to, if any.
    pub fn preset(&self) -> Option<InjectedFault> {
        self.preset
    }
}

impl Mutation for Mutant {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn description(&self) -> String {
        self.description.clone()
    }

    fn op(&self) -> MutationOp {
        self.op
    }
}

/// The paper's six injected faults as mutants (IF1–IF6, in order).
pub fn presets() -> Vec<Mutant> {
    InjectedFault::ALL
        .iter()
        .copied()
        .map(Mutant::from_preset)
        .collect()
}

/// Generates the first-order mutant sweep for `config`.
///
/// Parameters are derived from the configuration (source count, priority
/// width), so the same sweep adapts to the full FE310 and the scaled test
/// configurations. The sweep deliberately includes mutants expected to be
/// *equivalent* (e.g. [`MutationOp::DuplicateNotify`]) — finding them
/// alive is part of validating the harness. Presets are not repeated;
/// duplicate operators (possible on very small configurations) are pruned.
pub fn generate(config: &PlicConfig) -> Vec<Mutant> {
    let s = config.sources;
    let mut out: Vec<Mutant> = Vec::new();

    // Gateway bound off-by-N (the +1 case is preset IF1).
    for delta in [2i32, -1, -2] {
        let sign = if delta >= 0 { "p" } else { "m" };
        out.push(Mutant::new(
            &format!("gateway_bound_{sign}{}", delta.unsigned_abs()),
            &format!("gateway accepts ids 1..=sources{delta:+}"),
            MutationOp::GatewayBoundOffset(delta),
        ));
    }

    // Dropped notifications across the id range; `s + 1` is rejected by
    // the gateway before the hook and must survive (equivalent mutant).
    for id in [1, 2, s / 2 - 1, s / 2, s, s + 1] {
        out.push(Mutant::new(
            &format!("drop_notify_{id}"),
            &format!("e_run notification dropped for interrupt id {id}"),
            MutationOp::DropNotifyForId(id),
        ));
    }

    out.push(Mutant::new(
        "dup_notify",
        "gateway notifies e_run twice (absorbed by override rules)",
        MutationOp::DuplicateNotify,
    ));

    // Sticky pending bits at several ids (id 7 is preset IF5).
    for id in [1, 3, s - 3, s] {
        out.push(Mutant::new(
            &format!("early_clear_{id}"),
            &format!("clear_pending returns early for id {id}"),
            MutationOp::EarlyClearReturnForId(id),
        ));
    }

    // Boundary/factor sweep of the late-notify timing fault; a boundary
    // of `s` leaves no valid id above it and must survive.
    for (boundary, factor) in [(0, 10), (s / 4, 10), (s / 2, 2), (s, 10)] {
        out.push(Mutant::new(
            &format!("late_notify_a{boundary}_x{factor}"),
            &format!("{factor}x delivery latency for ids above {boundary}"),
            MutationOp::LateNotifyAboveBoundary {
                boundary: Some(boundary),
                factor,
            },
        ));
    }

    // Threshold comparison flavors (>= is preset IF6).
    out.push(Mutant::new(
        "cmp_always",
        "threshold ignored: every enabled pending interrupt is eligible",
        MutationOp::ThresholdCompare(ThresholdCmp::AlwaysPass),
    ));
    out.push(Mutant::new(
        "cmp_never",
        "threshold comparison never passes: delivery is dead",
        MutationOp::ThresholdCompare(ThresholdCmp::NeverPass),
    ));

    out.push(Mutant::new(
        "tiebreak_highest",
        "priority ties select the highest id instead of the lowest",
        MutationOp::TieBreakHighestId,
    ));

    // Stuck-at-0 priority datapath bits.
    for bit in [0u8, 1, 2] {
        out.push(Mutant::new(
            &format!("stuck_prio_bit_{bit}"),
            &format!("bit {bit} of every priority register reads as zero"),
            MutationOp::StuckPriorityBit(bit),
        ));
    }

    // No test disables a source, so a stuck-at-1 enable bit must survive.
    out.push(Mutant::new(
        "stuck_enable_1",
        "enable bit of source 1 reads as always set",
        MutationOp::StuckEnableForId(1),
    ));

    out.push(Mutant::new(
        "claim_skips_clear",
        "claim returns the interrupt but leaves its pending bit set",
        MutationOp::ClaimSkipsClear,
    ));
    out.push(Mutant::new(
        "complete_keeps_eip",
        "completion leaves hart_eip set, blocking further interrupts",
        MutationOp::CompleteKeepsEip,
    ));

    // Prune operators that collide with each other (tiny configurations)
    // or with a preset: the presets run as their own matrix rows.
    let preset_ops: Vec<MutationOp> = InjectedFault::ALL.iter().map(|f| f.op()).collect();
    let mut seen: Vec<MutationOp> = Vec::new();
    out.retain(|m| {
        let op = m.op();
        if preset_ops.contains(&op) || seen.contains(&op) {
            return false;
        }
        seen.push(op);
        true
    });
    out
}

/// The complete mutant registry for `config`: the six IF presets followed
/// by the generated first-order sweep, in stable registry order. This is
/// the population every matrix harness and the campaign orchestrator
/// iterate over.
pub fn registry(config: &PlicConfig) -> Vec<Mutant> {
    let mut out = presets();
    out.extend(generate(config));
    out
}

/// Resolves one mutant of the registry by name. Campaign journals persist
/// mutant selections as names; resume reconstructs the operators through
/// this lookup, so a name that no longer resolves is a spec mismatch.
pub fn by_name(config: &PlicConfig, name: &str) -> Option<Mutant> {
    registry(config).into_iter().find(|m| m.name == name)
}

/// A test suite that can fill the columns of a [`KillMatrix`].
///
/// The matrix runs every test once on the fixed configuration (the
/// baseline row) and once per mutant and injection side. A suite with a
/// single model under test has no sides: the mutant simply replaces the
/// fixed configuration. The cross-level suite has two, injecting the
/// mutant into one abstraction level while the other stays fixed as its
/// oracle.
pub trait KillSuite: Copy + fmt::Display + Send + Sync {
    /// The first word of [`KillMatrix::stable_view`].
    const VIEW_HEADER: &'static str;
    /// The injection sides, in cell order; empty for a single-model suite.
    const SIDES: &'static [&'static str] = &[];

    /// Runs this test for one cell: `fixed` is the unmutated
    /// configuration, `mutated` the one carrying the mutant (equal to
    /// `fixed` on the baseline row), and `side` one of
    /// [`SIDES`](Self::SIDES) — `None` on the baseline row and for a
    /// single-model suite.
    fn run_cell(
        self,
        fixed: PlicConfig,
        mutated: PlicConfig,
        side: Option<&str>,
        verifier: &Verifier,
    ) -> TestOutcome;
}

impl KillSuite for TestId {
    const VIEW_HEADER: &'static str = "kill-matrix";

    fn run_cell(
        self,
        _fixed: PlicConfig,
        mutated: PlicConfig,
        _side: Option<&str>,
        verifier: &Verifier,
    ) -> TestOutcome {
        run_test(self, mutated, &SuiteParams::default(), verifier)
    }
}

/// The cross-level suite judges a mutant against the *other abstraction
/// level* rather than against encoded expectations: every mutant is
/// injected into the cycle-level model (fixed TLM model as oracle) and
/// into the TLM model (fixed cycle model as oracle). Mutants that survive
/// the T suite because no test encodes the affected behavior — the
/// canonical example is `stuck_enable_1`, invisible behind the
/// enable-all idiom — die here to X3's symbolic enable word.
impl KillSuite for CrossId {
    const VIEW_HEADER: &'static str = "cross-kill-matrix";
    const SIDES: &'static [&'static str] = &["cycle", "tlm"];

    fn run_cell(
        self,
        fixed: PlicConfig,
        mutated: PlicConfig,
        side: Option<&str>,
        verifier: &Verifier,
    ) -> TestOutcome {
        if side == Some("tlm") {
            run_cross_test(self, mutated, fixed, verifier)
        } else {
            run_cross_test(self, fixed, mutated, verifier)
        }
    }
}

/// The injection sides of suite `S` in cell order: one unnamed side for
/// a single-model suite.
fn sides<S: KillSuite>() -> Vec<Option<&'static str>> {
    if S::SIDES.is_empty() {
        vec![None]
    } else {
        S::SIDES.iter().copied().map(Some).collect()
    }
}

/// One (mutant, test, side) cell of the kill matrix. Every field is a
/// pure function of the explored path set — deterministic across worker
/// counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellResult {
    /// The test failed on the mutant (and passes on the baseline).
    pub killed: bool,
    /// Distinct errors the test reported on the mutant.
    pub distinct_errors: usize,
    /// Paths explored.
    pub paths: u64,
    /// Distinct symbolic fork sites decided.
    pub branch_sites: u64,
    /// Branch directions exercised (at most `2 * branch_sites`).
    pub branches_covered: u64,
}

/// The suite's result on the unmutated baseline configuration for one test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaselineRow<S> {
    /// Which test.
    pub test: S,
    /// Whether the baseline passes (it must, for kills to be meaningful).
    pub passed: bool,
    /// Paths explored.
    pub paths: u64,
    /// Distinct symbolic fork sites decided.
    pub branch_sites: u64,
    /// Branch directions exercised.
    pub branches_covered: u64,
}

/// One mutant's row: its verdict under every test and side.
#[derive(Clone, Debug)]
pub struct MutantRow {
    /// The mutant's name.
    pub name: String,
    /// One-line description of the seeded defect.
    pub description: String,
    /// The operator that was injected.
    pub op: MutationOp,
    /// Whether this row is one of the paper's IF presets.
    pub preset: bool,
    /// Per-cell results, side by side: for each injection side in
    /// [`KillSuite::SIDES`] order (a single one for a single-model suite),
    /// one cell per test, parallel to [`KillMatrix::tests`].
    pub cells: Vec<CellResult>,
}

impl MutantRow {
    /// Whether any test killed this mutant, on any side.
    pub fn killed(&self) -> bool {
        self.cells.iter().any(|c| c.killed)
    }
}

/// The full kill matrix: tests × sides × mutants, plus the baseline row.
#[derive(Clone, Debug)]
pub struct KillMatrix<S> {
    /// The (unmutated) configuration every run derives from.
    pub config: PlicConfig,
    /// The tests that ran (columns).
    pub tests: Vec<S>,
    /// Baseline results (the suite on the unmutated configuration).
    pub baseline: Vec<BaselineRow<S>>,
    /// One row per mutant.
    pub mutants: Vec<MutantRow>,
    /// Solver statistics summed over every cell, baseline included: which
    /// layer answered the matrix's queries. Work counters, not results —
    /// they depend on the worker count, so the
    /// [`stable_view`](Self::stable_view) leaves them out.
    pub solver: SolverStats,
}

impl<S: KillSuite> KillMatrix<S> {
    /// Killed mutants over total mutants, in percent.
    pub fn kill_rate(&self) -> f64 {
        if self.mutants.is_empty() {
            return 0.0;
        }
        let killed = self.mutants.iter().filter(|m| m.killed()).count();
        100.0 * killed as f64 / self.mutants.len() as f64
    }

    /// The mutants no test killed.
    pub fn survivors(&self) -> Vec<&MutantRow> {
        self.mutants.iter().filter(|m| !m.killed()).collect()
    }

    /// Whether the named mutant exists in the matrix and was killed.
    pub fn killed_mutant(&self, name: &str) -> bool {
        self.mutants.iter().any(|m| m.name == name && m.killed())
    }

    /// Whether some test killed `mutant` with the mutant injected on
    /// `side`, one of [`KillSuite::SIDES`].
    pub fn killed_on(&self, mutant: &MutantRow, side: &str) -> bool {
        let n = self.tests.len();
        S::SIDES
            .iter()
            .position(|&s| s == side)
            .is_some_and(|k| mutant.cells[k * n..(k + 1) * n].iter().any(|c| c.killed))
    }

    /// Kills per test on any side, parallel to [`tests`](Self::tests).
    pub fn kills_per_test(&self) -> Vec<usize> {
        let n = self.tests.len();
        (0..n)
            .map(|t| {
                self.mutants
                    .iter()
                    .filter(|m| m.cells.iter().skip(t).step_by(n).any(|c| c.killed))
                    .count()
            })
            .collect()
    }

    /// The label of every cell of a row, parallel to
    /// [`MutantRow::cells`]: the test name, suffixed with `@side` for a
    /// suite with injection sides (`T1`, `X1@cycle`).
    pub fn cell_labels(&self) -> Vec<String> {
        let mut labels = Vec::new();
        for side in sides::<S>() {
            for t in &self.tests {
                labels.push(match side {
                    Some(side) => format!("{t}@{side}"),
                    None => t.to_string(),
                });
            }
        }
        labels
    }

    /// Pearson correlation between a test's baseline branch coverage
    /// (directions exercised) and its kill count. Zero when degenerate
    /// (fewer than two tests, or no variance on either axis).
    pub fn coverage_kill_correlation(&self) -> f64 {
        let xs: Vec<f64> = self
            .baseline
            .iter()
            .map(|b| b.branches_covered as f64)
            .collect();
        let ys: Vec<f64> = self.kills_per_test().iter().map(|&k| k as f64).collect();
        pearson(&xs, &ys)
    }

    /// A deterministic rendering of the whole matrix. Contains no timing
    /// and no worker-dependent data, so two runs of the same matrix — at
    /// any worker counts or fork strategies — produce byte-identical
    /// strings.
    pub fn stable_view(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} sources={} maxp={} variant={:?}",
            S::VIEW_HEADER,
            self.config.sources,
            self.config.max_priority,
            self.config.variant
        );
        for b in &self.baseline {
            let _ = writeln!(
                s,
                "baseline {}: {} paths={} sites={} covered={}",
                b.test,
                if b.passed { "pass" } else { "FAIL" },
                b.paths,
                b.branch_sites,
                b.branches_covered
            );
        }
        let labels = self.cell_labels();
        for m in &self.mutants {
            let _ = write!(
                s,
                "mutant {}{}:",
                m.name,
                if m.preset { " [preset]" } else { "" }
            );
            for (label, cell) in labels.iter().zip(&m.cells) {
                let verdict = if cell.killed {
                    format!("kill({})", cell.distinct_errors)
                } else {
                    "pass".to_string()
                };
                let _ = write!(
                    s,
                    " {label}={verdict} paths={} sites={} covered={}",
                    cell.paths, cell.branch_sites, cell.branches_covered
                );
            }
            let _ = writeln!(s, " => {}", if m.killed() { "killed" } else { "SURVIVED" });
        }
        let killed = self.mutants.iter().filter(|m| m.killed()).count();
        let _ = writeln!(s, "killed {}/{}", killed, self.mutants.len());
        s
    }
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 || n != ys.len() {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Runs `tests` against the unmutated `config` and against every mutant.
///
/// `config` should be the *fixed* variant (mutants are judged against a
/// passing baseline, the usual mutation-testing setup); a failing baseline
/// test is recorded as such and kills nothing. `workers` is the number of
/// cells run at a time, each explored on one thread (`0` = one per
/// hardware thread) — the matrix content is identical for any value.
pub fn run_kill_matrix<S: KillSuite>(
    config: PlicConfig,
    mutants: &[Mutant],
    tests: &[S],
    workers: usize,
) -> KillMatrix<S> {
    run_kill_matrix_with(config, mutants, tests, |name| {
        Verifier::new(name).workers(workers)
    })
}

/// Like [`run_kill_matrix`], but with full control over the verifier each
/// exploration uses (fork strategy, cache layers, budgets).
///
/// The cells run side by side on a pool of threads as wide as the worker
/// count ([`Verifier::workers`]) of the verifier returned for the first
/// cell; each cell explores with `workers(1)` on its pool thread. A pool
/// of one runs the cells one after another, in matrix order.
///
/// `verifier` is called exactly once per cell, on the calling thread, in
/// matrix order: first the baseline cells in test order, then each
/// mutant's row in order. Each call is made when a pool thread asks for
/// its next cell (the first one before the pool starts, to size it). It
/// receives the cell's name — `"T1"` for a baseline cell, `"T1/IF1"` for
/// a mutant cell, `"X1/IF1/cycle"` with an injection side. Every verifier
/// configuration is a pure optimization of the same exhaustive
/// exploration, so the matrix content must be identical for any choice —
/// the regression tests pin this.
///
/// Every cell's verifier is built over one [`CacheStack`] that lives for
/// this call, so the near-identical mutants stop re-proving the verdicts
/// an earlier cell proved. The stack is invisible in the matrix content;
/// a verifier that switches a cache layer off does not use that layer.
///
/// # Panics
///
/// Re-raises the panic of a cell that panicked, once the other pool
/// threads have finished.
pub fn run_kill_matrix_with<S: KillSuite, F: Fn(&str) -> Verifier>(
    config: PlicConfig,
    mutants: &[Mutant],
    tests: &[S],
    verifier: F,
) -> KillMatrix<S> {
    let mut cells: Vec<Cell<S>> = tests
        .iter()
        .map(|&test| Cell {
            test,
            mutated: config,
            side: None,
            name: test.to_string(),
        })
        .collect();
    for mutant in mutants {
        let mutated = config.mutate(mutant.op);
        for side in sides::<S>() {
            for &test in tests {
                let name = match side {
                    Some(side) => format!("{test}/{}/{side}", mutant.name),
                    None => format!("{test}/{}", mutant.name),
                };
                cells.push(Cell {
                    test,
                    mutated,
                    side,
                    name,
                });
            }
        }
    }
    let (results, solver) = run_cells(config, &cells, verifier);

    let (baseline_cells, mutant_cells) = results.split_at(tests.len());
    let baseline: Vec<BaselineRow<S>> = tests
        .iter()
        .zip(baseline_cells)
        .map(|(&test, cell)| BaselineRow {
            test,
            passed: !cell.killed,
            paths: cell.paths,
            branch_sites: cell.branch_sites,
            branches_covered: cell.branches_covered,
        })
        .collect();
    let row_len = tests.len() * sides::<S>().len();
    let rows: Vec<MutantRow> = mutants
        .iter()
        .enumerate()
        .map(|(m, mutant)| MutantRow {
            name: mutant.name.clone(),
            description: mutant.description.clone(),
            op: mutant.op,
            preset: mutant.preset.is_some(),
            cells: mutant_cells[m * row_len..(m + 1) * row_len]
                .iter()
                .zip(baseline.iter().cycle())
                .map(|(&cell, base)| CellResult {
                    killed: base.passed && cell.killed,
                    ..cell
                })
                .collect(),
        })
        .collect();

    KillMatrix {
        config,
        tests: tests.to_vec(),
        baseline,
        mutants: rows,
        solver,
    }
}

/// One exploration of a kill matrix: `test` on the `mutated`
/// configuration, with the mutant injected on `side`.
struct Cell<S> {
    test: S,
    mutated: PlicConfig,
    side: Option<&'static str>,
    name: String,
}

/// Runs `cells` on the pool [`run_kill_matrix_with`] describes. Returns
/// one result per cell, in cell order, whose `killed` flag says only
/// that the test failed, and the solver statistics summed over the cells.
fn run_cells<S: KillSuite, F: Fn(&str) -> Verifier>(
    fixed: PlicConfig,
    cells: &[Cell<S>],
    verifier: F,
) -> (Vec<CellResult>, SolverStats) {
    let stack = CacheStack::new();
    let mut verifiers = cells.iter().map(|cell| verifier(&cell.name));
    let first = verifiers.next();
    let width = first
        .as_ref()
        .map_or(0, |v| v.explorer().resolved_workers().min(cells.len()));
    let mut jobs = first.into_iter().chain(verifiers).enumerate();

    let mut done: Vec<(usize, CellResult, SolverStats)> = thread::scope(|scope| {
        // A pool thread asks for work by sending a reply channel; the
        // calling thread answers with the next cell and its verifier, or
        // drops the reply once every cell is handed out. The loop ends
        // when every pool thread is gone, finished or panicked.
        let (ask, asks) = mpsc::channel::<mpsc::Sender<(usize, Verifier)>>();
        let pool: Vec<_> = (0..width)
            .map(|_| {
                let ask = ask.clone();
                scope.spawn(move || {
                    let mut results = Vec::new();
                    loop {
                        let (reply, job) = mpsc::channel();
                        if ask.send(reply).is_err() {
                            break;
                        }
                        let Ok((i, verifier)) = job.recv() else {
                            break;
                        };
                        let cell = &cells[i];
                        let o = cell
                            .test
                            .run_cell(fixed, cell.mutated, cell.side, &verifier);
                        let result = CellResult {
                            killed: !o.passed(),
                            distinct_errors: o.report.distinct_errors().len(),
                            paths: o.report.stats.paths,
                            branch_sites: o.report.stats.branch_sites(),
                            branches_covered: o.report.stats.branches_covered(),
                        };
                        results.push((i, result, o.report.stats.solver));
                    }
                    results
                })
            })
            .collect();
        drop(ask);
        for reply in asks {
            if let Some((i, verifier)) = jobs.next() {
                // Cannot fail: the asking thread is waiting for this reply.
                let _ = reply.send((i, verifier.cache_stack(&stack).workers(1)));
            }
        }
        pool.into_iter()
            .flat_map(|thread| thread.join().unwrap_or_else(|e| panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, ..)| i);
    let mut solver = SolverStats::default();
    for (_, _, stats) in &done {
        solver.merge(stats);
    }
    (
        done.into_iter().map(|(_, result, _)| result).collect(),
        solver,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_plic::PlicVariant;

    #[test]
    fn presets_are_the_six_paper_faults() {
        let p = presets();
        let names: Vec<String> = p.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, ["IF1", "IF2", "IF3", "IF4", "IF5", "IF6"]);
        assert!(p.iter().all(|m| m.preset().is_some()));
    }

    #[test]
    fn generated_sweep_is_large_and_disjoint_from_presets() {
        let mutants = generate(&PlicConfig::fe310_scaled());
        assert!(mutants.len() >= 20, "only {} mutants", mutants.len());
        let preset_ops: Vec<MutationOp> = InjectedFault::ALL.iter().map(|f| f.op()).collect();
        for (i, a) in mutants.iter().enumerate() {
            assert!(!preset_ops.contains(&a.op()), "{} is a preset", a.name);
            for b in &mutants[i + 1..] {
                assert_ne!(a.op(), b.op(), "{} and {} collide", a.name, b.name);
            }
        }
    }

    #[test]
    fn generated_sweep_adapts_to_tiny_configs() {
        let mut tiny = PlicConfig::small();
        tiny.sources = 4;
        let mutants = generate(&tiny);
        // Ids collapse onto each other but the sweep stays duplicate-free.
        for (i, a) in mutants.iter().enumerate() {
            for b in &mutants[i + 1..] {
                assert_ne!(a.op(), b.op());
            }
        }
    }

    /// A killed mutant and a known-equivalent survivor.
    fn two_mutants() -> Vec<Mutant> {
        vec![
            Mutant::new(
                "cmp_never",
                "delivery dead",
                MutationOp::ThresholdCompare(ThresholdCmp::NeverPass),
            ),
            Mutant::new("dup_notify", "double notify", MutationOp::DuplicateNotify),
        ]
    }

    #[test]
    fn kill_matrix_kills_and_spares_as_expected() {
        let config = PlicConfig::small().variant(PlicVariant::Fixed);
        let matrix = run_kill_matrix(config, &two_mutants(), &[TestId::T1], 1);
        assert!(matrix.baseline[0].passed, "baseline T1 must pass");
        assert!(matrix.baseline[0].branch_sites > 0, "T1 forks symbolically");
        assert!(matrix.mutants[0].killed(), "dead delivery must be caught");
        assert!(
            !matrix.mutants[1].killed(),
            "duplicate notify is equivalent"
        );
        assert!((matrix.kill_rate() - 50.0).abs() < 1e-9);
        assert_eq!(matrix.survivors().len(), 1);
        assert_eq!(matrix.kills_per_test(), vec![1]);
        let view = matrix.stable_view();
        assert!(view.contains("mutant cmp_never"));
        assert!(view.contains("SURVIVED"));
        assert!(view.contains("killed 1/2"));
    }

    #[test]
    fn cross_matrix_kills_symmetrically_and_spares_equivalents() {
        let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
        let mutants = vec![
            Mutant::new(
                "cmp_never",
                "delivery dead",
                MutationOp::ThresholdCompare(ThresholdCmp::NeverPass),
            ),
            Mutant::new("dup_notify", "double notify", MutationOp::DuplicateNotify),
            Mutant::new(
                "stuck_enable_1",
                "enable bit 1 stuck high",
                MutationOp::StuckEnableForId(1),
            ),
        ];
        let matrix = run_kill_matrix(config, &mutants, &[CrossId::X1, CrossId::X3], 1);
        assert!(
            matrix.baseline.iter().all(|b| b.passed),
            "baseline must pass"
        );
        let dead = &matrix.mutants[0];
        assert!(
            matrix.killed_on(dead, "cycle") && matrix.killed_on(dead, "tlm"),
            "dead delivery diverges whichever level carries it"
        );
        assert!(
            !matrix.mutants[1].killed(),
            "duplicate notify is equivalent at both levels"
        );
        // The headline: the T-suite survivor falls to X3's symbolic
        // enable word, in both directions.
        assert!(matrix.killed_mutant("stuck_enable_1"));
        let view = matrix.stable_view();
        assert!(view.contains("cross-kill-matrix"));
        assert!(view.contains("X3@cycle"));
        assert!(view.contains("X1@tlm"));
        assert!(view.contains("killed 2/3"));
    }

    /// Runs a two-mutant matrix over `tests`, `workers` cells at a time,
    /// and returns the names the verifier factory received, in call order.
    fn factory_calls<S: KillSuite>(config: PlicConfig, tests: &[S], workers: usize) -> Vec<String> {
        let calls = std::cell::RefCell::new(Vec::new());
        let matrix = run_kill_matrix_with(config, &two_mutants(), tests, |name| {
            calls.borrow_mut().push(name.to_string());
            Verifier::new(name).workers(workers)
        });
        assert_eq!(matrix.mutants.len(), 2);
        calls.into_inner()
    }

    #[test]
    fn the_factory_is_called_once_per_tlm_cell_in_order() {
        let config = PlicConfig::small().variant(PlicVariant::Fixed);
        for workers in [1, 2] {
            assert_eq!(
                factory_calls(config, &[TestId::T1, TestId::T3], workers),
                [
                    "T1",
                    "T3",
                    "T1/cmp_never",
                    "T3/cmp_never",
                    "T1/dup_notify",
                    "T3/dup_notify"
                ],
                "{workers} cells at a time"
            );
        }
    }

    #[test]
    fn the_factory_is_called_once_per_cross_cell_in_order() {
        let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
        for workers in [1, 2] {
            assert_eq!(
                factory_calls(config, &[CrossId::X1, CrossId::X3], workers),
                [
                    "X1",
                    "X3",
                    "X1/cmp_never/cycle",
                    "X3/cmp_never/cycle",
                    "X1/cmp_never/tlm",
                    "X3/cmp_never/tlm",
                    "X1/dup_notify/cycle",
                    "X3/dup_notify/cycle",
                    "X1/dup_notify/tlm",
                    "X3/dup_notify/tlm"
                ],
                "{workers} cells at a time"
            );
        }
    }

    #[test]
    fn cells_side_by_side_render_like_cells_in_turn() {
        let config = PlicConfig::small().variant(PlicVariant::Fixed);
        let tests = [TestId::T1, TestId::T3];
        assert_eq!(
            run_kill_matrix(config, &two_mutants(), &tests, 2).stable_view(),
            run_kill_matrix(config, &two_mutants(), &tests, 1).stable_view()
        );
    }

    /// A one-test suite whose cell on `dup_notify` panics.
    #[derive(Clone, Copy, Debug)]
    struct PanicsOnDupNotify;

    impl fmt::Display for PanicsOnDupNotify {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("P")
        }
    }

    impl KillSuite for PanicsOnDupNotify {
        const VIEW_HEADER: &'static str = "panicking-matrix";

        fn run_cell(
            self,
            _fixed: PlicConfig,
            _mutated: PlicConfig,
            _side: Option<&str>,
            verifier: &Verifier,
        ) -> TestOutcome {
            let outcome = verifier.run(|_| {});
            if outcome.name == "P/dup_notify" {
                panic!("cell {} panicked", outcome.name);
            }
            outcome
        }
    }

    #[test]
    fn a_panicking_cell_panics_the_matrix() {
        let config = PlicConfig::small().variant(PlicVariant::Fixed);
        for workers in [1, 2] {
            let payload = panic::catch_unwind(|| {
                run_kill_matrix(config, &two_mutants(), &[PanicsOnDupNotify], workers)
            })
            .expect_err("the cell's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("cell P/dup_notify panicked"),
                "{workers} cells at a time"
            );
        }
    }

    #[test]
    fn pearson_handles_degenerate_inputs() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
        let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]);
        assert!((r - 1.0).abs() < 1e-9);
        let r = pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]);
        assert!((r + 1.0).abs() < 1e-9);
    }
}
