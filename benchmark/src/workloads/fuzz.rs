//! `fuzz_lanes` — `Fuzzer::run` with the TLM and cycle-level input
//! runners on the fixed scaled FE310, at 32768 and 16384 executions. The
//! DUV models (Peripheral Kernel, TLM PLIC, `ReferencePlic`, `CyclePlic`)
//! and term construction run concretely with zero SAT calls: the bypass
//! workload for every solver change, where the prediction is no change.
//!
//! Any finding on the fixed model is a false positive, so a lane passes
//! only with zero findings, the same coverage and corpus on every
//! repetition of a seed, and the pinned sizes where a seed is pinned.
//! The firmware lane is left out: it reports divergences on the fixed
//! model for about half of all seeds (see the README).
//!
//! The runners are always the timed ones: each execution's time is a unit
//! of `unit_tail_s`. Timing adds two clock reads and one uncontended lock
//! to an execution of about half a millisecond.

use std::time::Instant;

use symsc_fuzz::{run_cycle_input, run_input, Fuzzer, InputOutcome, InputRunner};
use symsc_plic::{PlicConfig, PlicVariant};

use super::{Prepared, Rep};
use crate::host::{CpuClock, WORKERS};
use crate::pins::{self, FuzzPins};
use crate::stats::{median, tail};
use crate::trace::Spans;

/// Spans of the timed runners (an `InputRunner` is a plain `fn`).
static RUNNER_SPANS: Spans = Spans::new();

fn timed_tlm(config: PlicConfig, bytes: &[u8]) -> InputOutcome {
    let _span = RUNNER_SPANS.enter();
    run_input(config, bytes)
}

fn timed_cycle(config: PlicConfig, bytes: &[u8]) -> InputOutcome {
    let _span = RUNNER_SPANS.enter();
    run_cycle_input(config, bytes)
}

struct Lane {
    name: &'static str,
    budget: u64,
    fuzzer: Fuzzer,
    /// `execs_per_s`, `exec_p50_s`, `exec_tail_s`, `runner_s`,
    /// `engine_s`, `coverage`, `corpus`.
    layers: [&'static str; 7],
    /// Coverage and corpus sizes of this process's first repetition.
    first: Option<(u64, u64)>,
}

pub struct FuzzLanes {
    seed: u64,
    lanes: [Lane; 2],
    pins: FuzzPins,
}

impl FuzzLanes {
    pub fn prepare(seed: u64) -> Result<FuzzLanes, String> {
        let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
        let lane = |name, runner: InputRunner, budget, layers| Lane {
            name,
            budget,
            fuzzer: Fuzzer::new(config)
                .runner(runner)
                .seed(seed)
                .workers(WORKERS)
                .max_execs(budget),
            layers,
            first: None,
        };
        Ok(FuzzLanes {
            seed,
            lanes: [
                lane(
                    "tlm",
                    timed_tlm,
                    32768,
                    [
                        "fuzz.tlm.execs_per_s",
                        "fuzz.tlm.exec_p50_s",
                        "fuzz.tlm.exec_tail_s",
                        "fuzz.tlm.runner_s",
                        "fuzz.tlm.engine_s",
                        "fuzz.tlm.coverage",
                        "fuzz.tlm.corpus",
                    ],
                ),
                lane(
                    "cycle",
                    timed_cycle,
                    16384,
                    [
                        "fuzz.cycle.execs_per_s",
                        "fuzz.cycle.exec_p50_s",
                        "fuzz.cycle.exec_tail_s",
                        "fuzz.cycle.runner_s",
                        "fuzz.cycle.engine_s",
                        "fuzz.cycle.coverage",
                        "fuzz.cycle.corpus",
                    ],
                ),
            ],
            pins: pins::load("fuzz_lanes.txt", FuzzPins::parse)?,
        })
    }
}

impl Prepared for FuzzLanes {
    fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let cpu = CpuClock::start();
        let start = Instant::now();
        for lane in &mut self.lanes {
            RUNNER_SPANS.take();
            let started = Instant::now();
            let report = lane.fuzzer.run();
            let lane_s = started.elapsed().as_secs_f64();
            let calls = RUNNER_SPANS.take();
            let execs = calls.durations();

            let sizes = (report.coverage.len() as u64, report.corpus.len() as u64);
            let expected = *lane.first.get_or_insert(sizes);
            let pinned = self.pins.lanes.get(&(lane.name.to_string(), self.seed));
            rep.check(
                report.findings.is_empty()
                    && report.execs >= lane.budget
                    && sizes == expected
                    && pinned.is_none_or(|&p| p == sizes),
                || {
                    format!(
                        "{} lane: {} findings, {} execs, (coverage, corpus) {sizes:?}, \
                         first repetition {expected:?}, pinned {pinned:?}",
                        lane.name,
                        report.findings.len(),
                        report.execs
                    )
                },
            );

            if traced {
                let runner_s = calls.covered().as_secs_f64();
                let values = [
                    report.execs as f64 / lane_s,
                    median(&execs).unwrap_or(0.0),
                    tail(&execs).map_or(0.0, |(_, value)| value),
                    runner_s,
                    lane_s - runner_s,
                    sizes.0 as f64,
                    sizes.1 as f64,
                ];
                rep.layers.extend(lane.layers.into_iter().zip(values));
            }
            rep.units.extend(execs);
        }
        rep.wall = start.elapsed().as_secs_f64();
        rep.cpu = cpu.elapsed_s();
        rep
    }
}
