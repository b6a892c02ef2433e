//! Two-way seed exchange between the fuzzer and the symbolic engine.
//!
//! Because the byte grammar, the trace assignment and the symbolic input
//! model are lossless encodings of one another ([`crate::grammar`]), the
//! two engines can trade work in both directions:
//!
//! * **symbolic → fuzz**: bounded symbolic exploration of a *probe* — the
//!   differential harness with most slots pinned ([`OpPin`]) so the fork
//!   space stays tractable — yields counterexample models, which encode
//!   directly into fuzz seeds ([`seeds_from_symbolic`]). Replayed as
//!   round 0 of a campaign they kill on the first execution.
//! * **fuzz → symbolic**: a fuzz-found divergence is re-executed through
//!   `symsc-symex` — as a concolic trace ([`confirm_by_trace`], same
//!   fork-site fingerprints as exploration) or as a constant-folded
//!   replay ([`confirm_by_replay`]) — for independent path confirmation.

use std::collections::BTreeSet;

use symsc_plic::PlicConfig;
use symsc_symex::{Explorer, Report};

use crate::grammar::Program;
use crate::harness::{differential_bench, op, scripted_bench, OpPin};

/// Harvests fuzz seeds from a bounded symbolic exploration of the probe
/// described by `pins`: every distinct counterexample model is encoded
/// as a byte input. Deduplicated, in discovery order.
///
/// The exploration runs on one worker, so which paths fit `max_paths`
/// is the depth-first prefix, not a scheduling outcome. Callers that want
/// parallelism run several probes at once (the campaign's job queue).
pub fn seeds_from_symbolic(config: PlicConfig, pins: &[OpPin], max_paths: u64) -> Vec<Vec<u8>> {
    let report = Explorer::new()
        .workers(1)
        .max_paths(max_paths)
        .explore(scripted_bench(config, pins.to_vec()));
    let mut seen: BTreeSet<Vec<u8>> = BTreeSet::new();
    let mut out = Vec::new();
    for error in report.distinct_errors() {
        let bytes = Program::from_assignment(&error.counterexample, pins.len()).encode();
        if seen.insert(bytes.clone()) {
            out.push(bytes);
        }
    }
    out
}

/// Probe: a single fully symbolic trigger. Exercises the gateway's id
/// validation — against a gateway-bound mutant the explorer produces the
/// out-of-bounds model directly.
pub fn gateway_probe() -> Vec<OpPin> {
    vec![OpPin::kind(op::TRIGGER)]
}

/// Which differential harness a probe's bounded exploration (and the
/// fuzz lane its seeds feed) runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeLane {
    /// The TLM model against the concrete [`ReferencePlic`] oracle
    /// ([`crate::harness`]).
    ///
    /// [`ReferencePlic`]: symsc_plic::reference::ReferencePlic
    Tlm,
    /// The cycle-level model against the fixed TLM oracle
    /// ([`crate::cycle`]); the configuration's mutation rides the
    /// cycle-level side.
    Cross,
}

/// A named symbolic probe: a pin script plus the path budget its bounded
/// exploration runs under. The campaign orchestrator schedules one probe
/// job per `(probe, mutant)` pair and streams the resulting seeds into
/// that mutant's fuzz lane — the streaming lift of
/// [`seeds_from_symbolic`].
#[derive(Clone, Debug)]
pub struct Probe {
    /// Stable probe name (journaled; part of the campaign spec).
    pub name: String,
    /// The pin script handed to [`scripted_bench`] (or its cross-level
    /// analog).
    pub pins: Vec<OpPin>,
    /// Path budget of the bounded exploration.
    pub max_paths: u64,
    /// The differential harness the probe explores.
    pub lane: ProbeLane,
}

impl Probe {
    /// Runs the probe against `config` and returns the exported seeds.
    pub fn run(&self, config: PlicConfig) -> Vec<Vec<u8>> {
        match self.lane {
            ProbeLane::Tlm => seeds_from_symbolic(config, &self.pins, self.max_paths),
            ProbeLane::Cross => {
                crate::cycle::seeds_from_cycle_symbolic(config, &self.pins, self.max_paths)
            }
        }
    }
}

/// The standard probe set: the gateway probe, masking probes on a low
/// and a mid-range source, and the same masking script explored on the
/// cross-level lane. Stable names and order — campaign specs reference
/// probes by name.
pub fn probe_registry(config: &PlicConfig) -> Vec<Probe> {
    vec![
        Probe {
            name: "gateway".to_string(),
            pins: gateway_probe(),
            max_paths: 64,
            lane: ProbeLane::Tlm,
        },
        Probe {
            name: "masking_3".to_string(),
            pins: masking_probe(3),
            max_paths: 400,
            lane: ProbeLane::Tlm,
        },
        Probe {
            name: format!("masking_{}", config.sources / 2),
            pins: masking_probe(config.sources / 2),
            max_paths: 400,
            lane: ProbeLane::Tlm,
        },
        Probe {
            name: "cross_3".to_string(),
            pins: masking_probe(3),
            max_paths: 96,
            lane: ProbeLane::Cross,
        },
    ]
}

/// Probe: arm source `irq` with a symbolic priority, enable everything,
/// set a symbolic threshold, fire and step. Exercises the
/// priority-vs-threshold comparison — against a threshold-compare mutant
/// the explorer finds the masking boundary.
pub fn masking_probe(irq: u32) -> Vec<OpPin> {
    vec![
        OpPin {
            kind: Some(op::SET_PRIORITY as u8),
            a: Some(irq),
            b: None,
        },
        OpPin::fixed(op::WRITE_ENABLE, u32::MAX, 0),
        OpPin {
            kind: Some(op::SET_THRESHOLD as u8),
            a: None,
            b: Some(0),
        },
        OpPin::fixed(op::TRIGGER, irq, 0),
        OpPin::fixed(op::STEP, 0, 0),
        OpPin::fixed(op::CLAIM, 0, 0),
    ]
}

/// Confirms a fuzz finding by re-executing the input as a concolic trace:
/// the engine re-derives the divergence on the exact fork-site path the
/// fuzzer covered (zero solver queries).
pub fn confirm_by_trace(config: PlicConfig, bytes: &[u8]) -> Report {
    let program = Program::decode(bytes);
    Explorer::new().trace(
        &program.to_assignment(),
        differential_bench(config, program.len()),
    )
}

/// Confirms a fuzz finding by constant-folded replay (the PR-0 replay
/// entry point): an independent second execution mode.
pub fn confirm_by_replay(config: PlicConfig, bytes: &[u8]) -> Report {
    let program = Program::decode(bytes);
    Explorer::new().replay(
        &program.to_assignment(),
        differential_bench(config, program.len()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Fuzzer;
    use symsc_plic::config::InjectedFault;
    use symsc_plic::PlicVariant;

    fn scaled() -> PlicConfig {
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
    }

    #[test]
    fn symbolic_gateway_model_becomes_an_instant_fuzz_kill() {
        let mutated = scaled().fault(InjectedFault::If1OffByOneGateway);
        let seeds = seeds_from_symbolic(mutated, &gateway_probe(), 64);
        assert!(!seeds.is_empty(), "exploration must find the OOB model");
        let report = Fuzzer::new(mutated)
            .seed(1)
            .seeds(seeds)
            .stop_on_finding(true)
            .max_execs(32)
            .run();
        assert!(report.killed());
        assert_eq!(report.findings[0].exec, 1);
    }

    #[test]
    fn symbolic_masking_model_kills_the_threshold_mutant() {
        let mutated = scaled().fault(InjectedFault::If6ThresholdOffByOne);
        let seeds = seeds_from_symbolic(mutated, &masking_probe(3), 400);
        assert!(
            !seeds.is_empty(),
            "exploration must find the boundary model"
        );
        let killed = seeds.iter().any(|s| !confirm_by_trace(mutated, s).passed());
        assert!(killed, "an exported seed must reproduce the divergence");
    }

    #[test]
    fn a_probe_cut_by_its_budget_returns_the_same_seeds_every_run() {
        // The smoke campaign's budget of 16 paths covers a fifth of the
        // masking probe's 81, and every tenth path diverges: the seeds
        // must come from the same 16 paths on every run.
        let mutated = scaled().fault(InjectedFault::If6ThresholdOffByOne);
        let first = seeds_from_symbolic(mutated, &masking_probe(3), 16);
        assert!(!first.is_empty(), "the budget reaches a diverging path");
        assert_eq!(seeds_from_symbolic(mutated, &masking_probe(3), 16), first);
    }

    #[test]
    fn probes_are_clean_on_the_fixed_model() {
        assert!(seeds_from_symbolic(scaled(), &gateway_probe(), 64).is_empty());
        assert!(seeds_from_symbolic(scaled(), &masking_probe(3), 400).is_empty());
    }

    #[test]
    fn fuzz_findings_confirm_by_trace_and_replay() {
        // the IF6 boundary program from the harness tests
        let mut input = Vec::new();
        input.extend_from_slice(&[op::SET_PRIORITY as u8, 3, 0, 0, 0, 5]);
        input.extend_from_slice(&[op::WRITE_ENABLE as u8, 0xFF, 0xFF, 0xFF, 0xFF, 0]);
        input.extend_from_slice(&[op::SET_THRESHOLD as u8, 5, 0, 0, 0, 0]);
        input.extend_from_slice(&[op::TRIGGER as u8, 3, 0, 0, 0, 0]);
        input.extend_from_slice(&[op::STEP as u8, 0, 0, 0, 0, 0]);
        let mutated = scaled().fault(InjectedFault::If6ThresholdOffByOne);
        let traced = confirm_by_trace(mutated, &input);
        let replayed = confirm_by_replay(mutated, &input);
        assert!(!traced.passed());
        assert!(!replayed.passed());
        assert_eq!(
            traced.first_error().unwrap().message,
            replayed.first_error().unwrap().message
        );
        // both engines report the traced input bytes back verbatim
        let p = Program::decode(&input);
        assert_eq!(
            Program::from_assignment(&traced.first_error().unwrap().counterexample, p.len()),
            p
        );
    }
}
