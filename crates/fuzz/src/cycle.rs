//! The cross-level fuzz lane ([`Lane::Cross`]): the cycle-level PLIC as
//! a second [`InputRunner`](crate::engine::InputRunner), differentially
//! checked against the *fixed TLM model* instead of the concrete
//! reference.
//!
//! The lane reuses the slot decoder and operation selectors of the TLM
//! lane verbatim ([`crate::harness::op`]), so corpus machinery, probe
//! scripts and counterexample round-trips work unchanged. The
//! configuration's mutation is carried by the **cycle-level side**; the
//! TLM oracle runs with the mutation stripped — a fuzz campaign over a
//! mutated config therefore hunts for concrete inputs on which the
//! mutated cycle model diverges from the clean TLM model, the concrete
//! complement of the solver-checked X suite.

use symsc_plic::PlicConfig;
use symsc_rtl::CrossChecker;
use symsc_symex::{SymCtx, Width};

use crate::engine::InputOutcome;
use crate::grammar::OP_KINDS;
use crate::harness::op;
use crate::lane::{decode_slot, pin_mod, Lane, OpPin};

/// The cross-level differential testbench, one operation slot per pin.
pub(crate) fn run_cycle_program(ctx: &SymCtx, config: PlicConfig, pins: &[OpPin]) {
    let sources = config.sources;
    let bitmap_words = config.bitmap_words() as u32;

    // The mutation under test lives in the cycle-level model; the TLM
    // side is the clean oracle.
    let mut tlm_config = config;
    tlm_config.mutation = None;
    let mut x = CrossChecker::new(ctx, tlm_config, config);

    for (i, pin) in pins.iter().enumerate() {
        let (kind, a_w, b_w) = decode_slot(ctx, i, pin, OP_KINDS);
        match kind {
            // Same id range as the TLM lane (`0..=sources+1`); the TLM
            // decode rejects invalid ids as a no-op, and the paired
            // direct store mirrors that by skipping them.
            op::SET_PRIORITY => {
                let (irq_t, irq) = pin_mod(ctx, &a_w, sources + 2);
                let (val_t, _) = pin_mod(ctx, &b_w.zero_ext(Width::W32), config.max_priority + 1);
                if (1..=sources).contains(&irq) {
                    x.set_priority(&irq_t, &val_t);
                }
            }
            op::WRITE_ENABLE => {
                let (_, widx) = pin_mod(ctx, &b_w.zero_ext(Width::W32), bitmap_words);
                // Both levels' bitmap writers ignore out-of-range flags
                // identically, so the raw word goes through unmasked.
                x.write_enable_word(0, widx, &a_w);
            }
            op::SET_THRESHOLD => {
                let (thr_t, _) = pin_mod(ctx, &a_w, config.max_priority + 1);
                x.set_threshold(0, &thr_t);
            }
            op::TRIGGER => {
                let (irq_t, _) = pin_mod(ctx, &a_w, sources + 2);
                x.trigger(&irq_t);
            }
            op::STEP => {
                x.step();
                let expect = x.cycle().model().next_request(0, true);
                ctx.check(
                    &x.plic().next_deliverable().eq(&expect),
                    "next deliverable interrupt agrees across levels",
                );
            }
            op::CLAIM => {
                let _ = x.claim(0);
            }
            op::COMPLETE => {
                let (irq_t, _) = pin_mod(ctx, &a_w, sources + 2);
                x.complete(0, &irq_t);
            }
            // The cross lane's read op is the full register sweep — every
            // visible register pair checked on the solver.
            op::READ_PENDING => {
                x.check_registers();
            }
            _ => unreachable!("kind is reduced modulo OP_KINDS"),
        }
    }
    x.check_lines();
}

/// Executes one cross-level fuzz input as a concolic trace and collects
/// its coverage and errors — the cycle lane's
/// [`InputRunner`](crate::engine::InputRunner).
pub fn run_cycle_input(config: PlicConfig, bytes: &[u8]) -> InputOutcome {
    InputOutcome::from(&Lane::Cross.trace(config, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Fuzzer;
    use crate::exchange::{masking_probe, seeds_from_symbolic};
    use symsc_plic::{MutationOp, PlicVariant};

    fn scaled() -> PlicConfig {
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
    }

    /// arm irq 3 (prio 5), trigger it, step, claim, complete, step —
    /// the cross-lane twin of the TLM harness's `arm_and_fire`.
    fn arm_and_fire() -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&[op::SET_PRIORITY as u8, 3, 0, 0, 0, 5]);
        p.extend_from_slice(&[op::WRITE_ENABLE as u8, 0xFF, 0xFF, 0xFF, 0xFF, 0]);
        p.extend_from_slice(&[op::TRIGGER as u8, 3, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::STEP as u8, 0, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::CLAIM as u8, 0, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::COMPLETE as u8, 3, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::STEP as u8, 0, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::READ_PENDING as u8, 0, 0, 0, 0, 0]);
        p
    }

    #[test]
    fn the_levels_agree_on_the_happy_path() {
        let outcome = run_cycle_input(scaled(), &arm_and_fire());
        assert_eq!(outcome.errors, Vec::new(), "unexpected divergence");
        assert!(!outcome.coverage.is_empty());
    }

    #[test]
    fn a_cycle_campaign_is_clean_on_the_fixed_model() {
        let report = Fuzzer::new(scaled())
            .runner(run_cycle_input)
            .seed(31)
            .max_execs(48)
            .batch(12)
            .seeds(vec![arm_and_fire()])
            .run();
        assert_eq!(report.findings, Vec::new(), "fixed model must not diverge");
        assert!(!report.corpus.is_empty());
    }

    #[test]
    fn cycle_campaigns_are_byte_identical_across_worker_counts() {
        let run = |workers| {
            Fuzzer::new(scaled())
                .runner(run_cycle_input)
                .seed(17)
                .workers(workers)
                .max_execs(36)
                .batch(12)
                .seeds(vec![arm_and_fire()])
                .run()
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one.corpus, eight.corpus);
        assert_eq!(one.coverage, eight.coverage);
        assert_eq!(one.findings, eight.findings);
    }

    #[test]
    fn a_cycle_side_mutant_falls_to_the_seeded_campaign() {
        let mutated = scaled().mutate(MutationOp::ClaimSkipsClear);
        let report = Fuzzer::new(mutated)
            .runner(run_cycle_input)
            .seed(5)
            .seeds(vec![arm_and_fire()])
            .stop_on_finding(true)
            .max_execs(48)
            .run();
        assert!(report.killed(), "claim-skips-clear must diverge on replay");
    }

    #[test]
    fn cycle_findings_replay_to_the_same_divergence() {
        let mutated = scaled().mutate(MutationOp::TieBreakHighestId);
        // Two equal-priority requests: the tie-break mutant claims the
        // higher id, the TLM oracle the lower.
        let mut p = Vec::new();
        p.extend_from_slice(&[op::WRITE_ENABLE as u8, 0xFF, 0xFF, 0xFF, 0xFF, 0]);
        p.extend_from_slice(&[op::SET_PRIORITY as u8, 4, 0, 0, 0, 2]);
        p.extend_from_slice(&[op::SET_PRIORITY as u8, 9, 0, 0, 0, 2]);
        p.extend_from_slice(&[op::TRIGGER as u8, 4, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::TRIGGER as u8, 9, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::STEP as u8, 0, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::CLAIM as u8, 0, 0, 0, 0, 0]);
        let outcome = run_cycle_input(mutated, &p);
        // The trace kills on the first divergent check — the STEP's
        // next-deliverable comparison fires before the claim itself.
        assert!(
            outcome
                .errors
                .iter()
                .any(|(_, m)| m.contains("agrees across levels")),
            "tie-break divergence must surface on an equivalence check: {:?}",
            outcome.errors
        );
        let again = run_cycle_input(mutated, &p);
        assert_eq!(outcome.errors, again.errors, "replay is deterministic");
    }

    #[test]
    fn a_cross_probe_exports_seeds_against_a_threshold_mutant() {
        use symsc_plic::ThresholdCmp;
        let mutated = scaled().mutate(MutationOp::ThresholdCompare(ThresholdCmp::OrEqual));
        let seeds = seeds_from_symbolic(Lane::Cross, mutated, &masking_probe(3), 64);
        assert!(
            !seeds.is_empty(),
            "exploration must find the boundary model"
        );
        let killed = seeds
            .iter()
            .any(|s| !run_cycle_input(mutated, s).errors.is_empty());
        assert!(killed, "an exported seed must reproduce the divergence");
        // The same probe on the unmutated model exports nothing.
        assert!(seeds_from_symbolic(Lane::Cross, scaled(), &masking_probe(3), 64).is_empty());
    }
}
