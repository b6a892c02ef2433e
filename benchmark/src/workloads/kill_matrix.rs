//! `kill_matrix` — `run_kill_matrix_with` over T1–T5 × all 33 registry
//! mutants plus the 5 baselines: 170 short explorations on the fixed
//! PLIC. It uses the solver differently from `table1`: many fresh
//! mid-size queries, 170 engine set-ups and copy-on-write forks instead
//! of one huge query. The PLIC is the fixed scaled FE310 (16 sources).
//!
//! Cell boundaries come from the `Verifier` factory handed to the matrix,
//! which it calls right before each cell: one cell lasts from its factory
//! call to the next one (the last cell, to the matrix's return).
//!
//! The traced repetition runs the cells itself, through the same
//! `test_bench` + `Verifier::run` calls the matrix makes, so it can time
//! each cell and read its statistics; its kill flags are checked against
//! the same pins as the untraced matrix.

use std::cell::RefCell;
use std::time::Instant;

use symsc_mutate::{registry, run_kill_matrix_with, Mutant};
use symsc_plic::{Mutation, PlicConfig, PlicVariant};
use symsc_testbench::{test_bench, SuiteParams, TestId};
use symsysc_core::Verifier;

use super::{explore, EngineTotals, Prepared, Rep};
use crate::host::{CpuClock, WORKERS};
use crate::pins::{self, KillPins};
use crate::stats::{median, tail};
use crate::trace::Spans;

/// Per-column layer names.
const COLUMN_LAYERS: [&str; 5] = [
    "mutate.col_T1_s",
    "mutate.col_T2_s",
    "mutate.col_T3_s",
    "mutate.col_T4_s",
    "mutate.col_T5_s",
];

pub struct KillMatrix {
    config: PlicConfig,
    mutants: Vec<Mutant>,
    pins: KillPins,
}

fn verifier(name: &str) -> Verifier {
    Verifier::new(name).workers(WORKERS)
}

impl KillMatrix {
    pub fn prepare() -> Result<KillMatrix, String> {
        let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
        let mutants = registry(&config);
        let pins = pins::load("kill_matrix.txt", KillPins::parse)?;
        let pinned: Vec<&str> = pins.mutants.iter().map(|(n, _)| n.as_str()).collect();
        let names: Vec<String> = mutants.iter().map(Mutation::name).collect();
        if pinned != names {
            return Err(format!(
                "kill_matrix.txt pins mutants {pinned:?}, the registry has {names:?}"
            ));
        }
        if pins.tests != TestId::ALL.map(TestId::name) {
            return Err(format!("kill_matrix.txt pins tests {:?}", pins.tests));
        }
        Ok(KillMatrix {
            config,
            mutants,
            pins,
        })
    }
}

impl Prepared for KillMatrix {
    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let spans = Spans::new();
        let mut totals = EngineTotals::default();
        let cpu = CpuClock::start();
        let start = Instant::now();
        let (baseline, kills) = if traced {
            self.cells(&spans, &mut totals, &mut rep)
        } else {
            let starts = RefCell::new(Vec::new());
            let matrix = run_kill_matrix_with(self.config, &self.mutants, &TestId::ALL, |name| {
                starts.borrow_mut().push(Instant::now());
                verifier(name)
            });
            let mut bounds = starts.into_inner();
            bounds.push(Instant::now());
            rep.units = bounds
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64())
                .collect();
            (
                matrix.baseline.iter().map(|b| b.passed).collect(),
                matrix
                    .mutants
                    .iter()
                    .map(|m| m.cells.iter().map(|c| c.killed).collect())
                    .collect(),
            )
        };
        rep.wall = start.elapsed().as_secs_f64();
        rep.cpu = cpu.elapsed_s();
        if traced {
            totals.layers(&spans.take(), rep.cpu, &mut rep.layers);
        }

        for (test, passed) in TestId::ALL.iter().zip(&baseline) {
            rep.check(*passed, || {
                format!("baseline {test} fails on the fixed PLIC")
            });
        }
        for ((name, pinned), flags) in self.pins.mutants.iter().zip(&kills) {
            for ((test, pin), killed) in TestId::ALL.iter().zip(pinned).zip(flags) {
                rep.check(pin == killed, || {
                    format!("{test}/{name}: killed={killed}, pinned killed={pin}")
                });
            }
        }
        rep
    }
}

impl KillMatrix {
    /// Runs every cell itself, in the matrix's order, timing each one;
    /// returns the baseline verdicts and the kill flags, and fills the
    /// cell times and the per-cell layers.
    fn cells(
        &self,
        spans: &Spans,
        totals: &mut EngineTotals,
        rep: &mut Rep,
    ) -> (Vec<bool>, Vec<Vec<bool>>) {
        let params = SuiteParams::default();
        let mut cell_s: Vec<f64> = Vec::new();
        let mut column_s = [0.0; 5];
        let mut run = |test: TestId, config: PlicConfig, name: &str, column: usize| {
            let started = Instant::now();
            let outcome = explore(
                &verifier(name),
                test_bench(test, config, params),
                Some(spans),
            );
            let secs = started.elapsed().as_secs_f64();
            totals.add(&outcome.report.stats, started);
            cell_s.push(secs);
            column_s[column] += secs;
            outcome.passed()
        };
        let baseline: Vec<bool> = TestId::ALL
            .iter()
            .enumerate()
            .map(|(col, &test)| run(test, self.config, test.name(), col))
            .collect();
        let kills: Vec<Vec<bool>> = self
            .mutants
            .iter()
            .map(|mutant| {
                let config = self.config.mutate(mutant.op());
                TestId::ALL
                    .iter()
                    .enumerate()
                    .map(|(col, &test)| {
                        let name = format!("{}/{}", test.name(), Mutation::name(mutant));
                        let passed = run(test, config, &name, col);
                        baseline[col] && !passed
                    })
                    .collect()
            })
            .collect();

        rep.layers
            .insert("mutate.cell_p50_s", median(&cell_s).unwrap_or(0.0));
        rep.layers.insert(
            "mutate.cell_tail_s",
            tail(&cell_s).map_or(0.0, |(_, value)| value),
        );
        rep.layers.extend(COLUMN_LAYERS.into_iter().zip(column_s));
        rep.units = cell_s;
        (baseline, kills)
    }
}
