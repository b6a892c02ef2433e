//! The four workloads. Each one is set up once per process
//! ([`Workload::prepare`]) and then repeated ([`Prepared::rep`]); a
//! repetition runs the workload's one user-facing operation, checks its
//! outputs against the pins, and — when traced — reads the per-layer
//! numbers from outside the engine.

mod campaign;
mod fuzz;
mod kill_matrix;
mod table1;

use std::time::Instant;

use symsc_smt::SolverStats;
use symsc_symex::{ExplorationStats, SymCtx};
use symsysc_core::{TestOutcome, Verifier};

use crate::metrics::Values;
use crate::trace::{Intervals, Spans};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 1: T1–T5 on the faithful FE310-shaped PLIC.
    Table1,
    /// T1–T5 × the mutant registry on the fixed PLIC.
    KillMatrix,
    /// A campaign from start to report, then resume and status.
    Campaign,
    /// The TLM and cycle-level fuzz lanes.
    FuzzLanes,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Table1,
        Workload::KillMatrix,
        Workload::Campaign,
        Workload::FuzzLanes,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::KillMatrix => "kill_matrix",
            Workload::Campaign => "campaign",
            Workload::FuzzLanes => "fuzz_lanes",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sets the workload up: builds its inputs from `seed`, its engine
    /// objects and loads its pins. This is what `setup_s` times.
    pub fn prepare(self, seed: u64) -> Result<Box<dyn Prepared>, String> {
        Ok(match self {
            Workload::Table1 => Box::new(table1::Table1::prepare()?),
            Workload::KillMatrix => Box::new(kill_matrix::KillMatrix::prepare()?),
            Workload::Campaign => Box::new(campaign::Campaign::prepare(seed)?),
            Workload::FuzzLanes => Box::new(fuzz::FuzzLanes::prepare(seed)?),
        })
    }
}

/// A set-up workload, ready to repeat.
pub trait Prepared {
    /// Runs one repetition, traced or not.
    fn rep(&mut self, traced: bool) -> Rep;

    /// Per-layer numbers that combine the traced repetitions' medians with
    /// the untraced repetition the traced pass starts with.
    fn combine(&self, _untraced: &Rep, _layers: &mut Values) {}

    /// How the traced pass runs, for the printed summary.
    fn trace_note(&self) -> &'static str {
        "traced at the untraced worker count"
    }
}

/// What one repetition measured and checked.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time of the user-facing operation, seconds.
    pub wall: f64,
    /// Process CPU time over the same interval, seconds.
    pub cpu: f64,
    /// Latency of each unit of the operation, seconds, for `unit_tail_s`:
    /// Table 1's tests, the kill matrix's cells, the gaps between the
    /// campaign's job completions, the fuzz lanes' executions.
    pub units: Vec<f64>,
    /// Per-layer readings (traced repetitions; a few are free and also
    /// recorded untraced). The traced pass reports each name's median.
    pub layers: Values,
    /// Units whose outcome was checked.
    pub checked: u64,
    /// One message per unit whose outcome differs from the expectation.
    pub mismatches: Vec<String>,
}

impl Rep {
    /// Checks one unit.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// Runs `bench` under `verifier`; when `spans` is given, every call of
/// the closure (one per executed path) is recorded as a span.
fn explore<F: Fn(&SymCtx) + Sync>(
    verifier: &Verifier,
    bench: F,
    spans: Option<&Spans>,
) -> TestOutcome {
    match spans {
        Some(spans) => verifier.run(|ctx: &SymCtx| {
            let _span = spans.enter();
            bench(ctx)
        }),
        None => verifier.run(bench),
    }
}

/// Engine and solver totals over the explorations of one repetition.
#[derive(Default)]
struct EngineTotals {
    solver: SolverStats,
    paths: u64,
    executed_paths: u64,
    instructions: u64,
    fork_snapshots: u64,
    fast_forward_decisions: u64,
    merged_paths: u64,
    /// Summed wall time of the explorations.
    explore_s: f64,
}

impl EngineTotals {
    fn add(&mut self, stats: &ExplorationStats, started: Instant) {
        self.explore_s += started.elapsed().as_secs_f64();
        self.solver.merge(&stats.solver);
        self.paths += stats.paths;
        self.executed_paths += stats.executed_paths;
        self.instructions += stats.instructions;
        self.fork_snapshots += stats.fork_snapshots;
        self.fast_forward_decisions += stats.fast_forward_decisions;
        self.merged_paths += stats.merged_paths;
    }

    /// The `smt.*`, `symex.*` and `testbench.*` layers, given the closure
    /// spans of the same explorations and the repetition's CPU time.
    fn layers(&self, closures: &Intervals, cpu: f64, out: &mut Values) {
        let s = &self.solver;
        let solve = s.solve_time.as_secs_f64();
        let core = s.sat_core_time.as_secs_f64();
        let slice = s.slicing_time.as_secs_f64();
        let cex = s.cex_time.as_secs_f64();
        let count = |n: u64| n as f64;
        out.extend([
            ("smt.solve_s", solve),
            ("smt.core_s", core),
            ("smt.slice_s", slice),
            ("smt.cex_s", cex),
            ("smt.other_s", solve - core - slice - cex),
            ("smt.core_share", if cpu > 0.0 { core / cpu } else { 0.0 }),
            ("smt.queries", count(s.queries)),
            ("smt.trivial", count(s.trivial)),
            ("smt.cache_hits", count(s.cache_hits)),
            ("smt.slice_hits", count(s.slice_hits)),
            ("smt.subset_unsat_hits", count(s.cex_subset_hits)),
            ("smt.model_reuse_hits", count(s.model_reuse_hits)),
            ("smt.above_core_rate", s.above_core_rate()),
            ("smt.core_calls", count(s.sat_core_calls)),
            ("smt.conflicts", count(s.sat_conflicts)),
            (
                "smt.assumption_solves",
                count(s.incremental.assumption_solves),
            ),
            ("symex.paths", count(self.paths)),
            ("symex.executed_paths", count(self.executed_paths)),
            ("symex.instructions", count(self.instructions)),
            ("symex.fork_snapshots", count(self.fork_snapshots)),
            (
                "symex.fast_forward_decisions",
                count(self.fast_forward_decisions),
            ),
            ("symex.merged_paths", count(self.merged_paths)),
            (
                "symex.explore_self_s",
                self.explore_s - closures.covered().as_secs_f64(),
            ),
            ("testbench.native_s", closures.busy().as_secs_f64() - solve),
        ]);
    }
}
