//! `table1` — the paper's Table 1: T1–T5 through `test_bench` +
//! `Verifier::run` on the faithful PLIC. T2 is one path whose time is
//! almost all bit-blasting and CDCL, so a solver-core change shows here
//! first.
//!
//! The PLIC is the faithful FE310 (32 priority levels, one hart) cut to
//! 36 of its 51 sources. At 51 sources T2 alone takes about 55 s, and a
//! benchmark run may take about 30 s: the benchmark makes 92 runs in
//! under an hour. At 36 sources T2 is still one query of about 20 s, with
//! the paper's verdicts on all five tests.

use std::time::Instant;

use symsc_plic::PlicConfig;
use symsc_testbench::{test_bench, SuiteParams, TestId};
use symsysc_core::Verifier;

use super::{explore, EngineTotals, Prepared, Rep};
use crate::host::{CpuClock, WORKERS};
use crate::pins::{self, Table1Pins};
use crate::trace::Spans;

/// The benchmark's PLIC: the faithful (buggy) FE310 at 36 sources.
pub fn config() -> PlicConfig {
    PlicConfig {
        sources: 36,
        ..PlicConfig::fe310()
    }
}

/// Per-test layer names.
const TEST_LAYERS: [&str; 5] = [
    "table1.T1_s",
    "table1.T2_s",
    "table1.T3_s",
    "table1.T4_s",
    "table1.T5_s",
];

pub struct Table1 {
    config: PlicConfig,
    params: SuiteParams,
    verifiers: Vec<(TestId, Verifier)>,
    pins: Table1Pins,
}

impl Table1 {
    pub fn prepare() -> Result<Table1, String> {
        let pins = pins::load("table1.txt", Table1Pins::parse)?;
        let names: Vec<&str> = pins.tests.iter().map(|(t, ..)| t.as_str()).collect();
        if names != TestId::ALL.map(TestId::name) {
            return Err(format!("table1.txt pins tests {names:?}, expected T1..T5"));
        }
        Ok(Table1 {
            config: config(),
            params: SuiteParams::default(),
            verifiers: TestId::ALL
                .iter()
                .map(|&t| (t, Verifier::new(t.name()).workers(WORKERS)))
                .collect(),
            pins,
        })
    }
}

impl Prepared for Table1 {
    fn rep(&mut self, traced: bool) -> Rep {
        let spans = Spans::new();
        let spans = traced.then_some(&spans);
        let mut rep = Rep::default();
        let mut totals = EngineTotals::default();
        let cpu = CpuClock::start();
        let start = Instant::now();
        let cases = self.verifiers.iter().zip(&self.pins.tests).zip(TEST_LAYERS);
        for (((test, verifier), (_, failures, pinned)), layer) in cases {
            let started = Instant::now();
            let outcome = explore(verifier, test_bench(*test, self.config, self.params), spans);
            let secs = started.elapsed().as_secs_f64();
            rep.units.push(secs);
            rep.layers.insert(layer, secs);
            totals.add(&outcome.report.stats, started);

            let errors = outcome.report.distinct_errors();
            let mut labels: Vec<&str> = errors
                .iter()
                .filter_map(|e| self.pins.label_of(&e.message))
                .collect();
            labels.sort_unstable();
            rep.check(errors.len() == *failures && labels == *pinned, || {
                format!(
                    "{test}: {} with labels {labels:?}, pinned {failures} failures {pinned:?}",
                    outcome.result_label()
                )
            });
        }
        rep.wall = start.elapsed().as_secs_f64();
        rep.cpu = cpu.elapsed_s();
        if let Some(spans) = spans {
            totals.layers(&spans.take(), rep.cpu, &mut rep.layers);
        }
        rep
    }
}
