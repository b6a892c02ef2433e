//! The cross-level test suite X1–X3: the TLM PLIC and the cycle-level
//! model driven from one symbolic transaction stream, with the *other
//! level as the oracle*.
//!
//! Where T1–T5 encode expected behavior in the testbench (latency
//! bounds, claim-order formulas), the X tests assert only *equivalence*:
//! interrupt lines, notification counts, claim ids and the architectural
//! register file must agree at every step, path by path on the solver.
//! A mutant injected at either level is caught with no expected-value
//! bookkeeping at all — every existing stimulus pattern doubles as an
//! equivalence oracle.
//!
//! | Test | Stimulus (all symbolic) |
//! |------|-------------------------|
//! | X1   | one interrupt id over `0..=sources+1` (invalid ends included), priority, full handshake, register sweep |
//! | X2   | two distinct valid ids with independent priorities; claim order resolved by equivalence |
//! | X3   | masking: symbolic priority, threshold *and enable word* — enables stay symbolic terms |

use symsc_plic::PlicConfig;
use symsc_rtl::CrossChecker;
use symsc_symex::{SymCtx, Width};
use symsysc_core::{TestOutcome, Verifier};

/// Identifier of one cross-level equivalence test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrossId {
    /// Basic interaction: one symbolic interrupt through the full
    /// claim/complete handshake, with a register sweep.
    X1,
    /// Claim order: two symbolic interrupts with symbolic priorities.
    X2,
    /// Masking: symbolic priority, threshold and enable word.
    X3,
}

impl CrossId {
    /// All cross-level tests, in order.
    pub const ALL: [CrossId; 3] = [CrossId::X1, CrossId::X2, CrossId::X3];

    /// Parses the label back into the identifier (the inverse of
    /// [`name`](CrossId::name)).
    pub fn from_name(name: &str) -> Option<CrossId> {
        CrossId::ALL.into_iter().find(|t| t.name() == name)
    }

    /// The test's label ("X1" … "X3").
    pub fn name(self) -> &'static str {
        match self {
            CrossId::X1 => "X1",
            CrossId::X2 => "X2",
            CrossId::X3 => "X3",
        }
    }

    /// A one-line description.
    pub fn description(self) -> &'static str {
        match self {
            CrossId::X1 => "cross-level basic interaction: symbolic id, handshake, register sweep",
            CrossId::X2 => "cross-level claim order: two symbolic ids with symbolic priorities",
            CrossId::X3 => "cross-level masking: symbolic priority, threshold and enable word",
        }
    }
}

impl std::fmt::Display for CrossId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// **X1 — cross-level basic interaction.** One symbolic interrupt over
/// `0..=sources+1` (so the two gateways' invalid-id handling is compared
/// too), symbolic priority, delivery, claim, completion, redelivery
/// window, and a full register sweep at the end.
fn x1_basic_interaction(ctx: &SymCtx, tlm: PlicConfig, cycle: PlicConfig) {
    let mut x = CrossChecker::new(ctx, tlm, cycle);
    let sources = x.config().sources;
    x.enable_all();

    let i = ctx.symbolic("i_interrupt", Width::W32);
    ctx.assume(&i.ule(&ctx.word32(sources + 1)));
    let valid = i.uge(&ctx.word32(1)).and(&i.ule(&ctx.word32(sources)));
    let p = ctx.symbolic("priority", Width::W32);
    ctx.assume(&p.uge(&ctx.word32(1)));
    ctx.assume(&p.ule(&ctx.word32(x.config().max_priority)));
    // The direct priority store bypasses the register decode, so pin it
    // to a valid slot on the invalid-id branches.
    let slot = i.select(&valid, &ctx.word32(1));
    x.set_priority(&slot, &p);

    x.trigger(&i);
    if ctx.decide(&valid) {
        ctx.cover("x1/valid-id");
    } else {
        ctx.cover("x1/invalid-id");
    }
    x.step();

    let id = x.claim(0);
    ctx.check(
        &valid.implies(&id.eq(&i)),
        "both levels claim the triggered id",
    );
    x.complete(0, &id);
    x.step();
    x.step();
    x.check_registers();
}

/// **X2 — cross-level claim order.** Two distinct valid symbolic ids
/// with independent symbolic priorities fire back to back; the claim
/// order is *not* recomputed in the testbench — the TLM level's answer
/// is checked against the cycle level's comparison tree on the solver.
fn x2_claim_order(ctx: &SymCtx, tlm: PlicConfig, cycle: PlicConfig) {
    let mut x = CrossChecker::new(ctx, tlm, cycle);
    let n = ctx.word32(x.config().sources);
    let maxp = ctx.word32(x.config().max_priority);
    let one = ctx.word32(1);
    x.enable_all();

    let i = ctx.symbolic("i_interrupt", Width::W32);
    let j = ctx.symbolic("j_interrupt", Width::W32);
    ctx.assume(&i.uge(&one));
    ctx.assume(&i.ule(&n));
    ctx.assume(&j.uge(&one));
    ctx.assume(&j.ule(&n));
    ctx.assume(&i.ne(&j));

    let p_i = ctx.symbolic("i_priority", Width::W32);
    let p_j = ctx.symbolic("j_priority", Width::W32);
    ctx.assume(&p_i.uge(&one));
    ctx.assume(&p_i.ule(&maxp));
    ctx.assume(&p_j.uge(&one));
    ctx.assume(&p_j.ule(&maxp));
    x.set_priority(&i, &p_i);
    x.set_priority(&j, &p_j);

    x.trigger(&i);
    x.trigger(&j);
    x.step();

    let first = x.claim(0);
    x.complete(0, &first);
    x.step();
    let second = x.claim(0);
    ctx.check(&second.ne(&first), "the two claims take distinct ids");
    x.complete(0, &second);
    x.step();
    x.check_registers();
}

/// **X3 — cross-level masking.** Symbolic priority, symbolic threshold
/// *and a symbolic enable word*: the enables remain unresolved symbolic
/// terms through both levels' bitmap logic, so an enable-path mutant at
/// either level forks into a divergent path instead of hiding behind the
/// enable-all idiom of T1–T3 and X1/X2 (this is the test that kills
/// `stuck_enable_1` by equivalence).
fn x3_masking(ctx: &SymCtx, tlm: PlicConfig, cycle: PlicConfig) {
    let mut x = CrossChecker::new(ctx, tlm, cycle);
    let maxp = ctx.word32(x.config().max_priority);
    x.enable_all();

    let i = ctx.symbolic("i_interrupt", Width::W32);
    ctx.assume(&i.uge(&ctx.word32(1)));
    ctx.assume(&i.ule(&ctx.word32(x.config().sources)));
    let priority = ctx.symbolic("priority", Width::W32);
    let threshold = ctx.symbolic("threshold", Width::W32);
    ctx.assume(&priority.ule(&maxp));
    ctx.assume(&threshold.ule(&maxp));
    let enables = ctx.symbolic("enables", Width::W32);

    x.set_priority(&i, &priority);
    x.set_threshold(0, &threshold);
    x.write_enable_word(0, 0, &enables);

    x.trigger(&i);
    x.step();

    let id = x.claim(0);
    x.complete(0, &id);
    x.step();
    x.check_registers();
}

/// Builds the cross-level testbench closure for `test`, with the TLM
/// model built from `tlm_config` and the cycle model from
/// `cycle_config` (inject a mutation into exactly one of them to use
/// the other as the oracle). The closure is `Fn + Send + Sync`, so it
/// runs under the multi-worker explorer like any other bench.
pub fn cross_bench(
    test: CrossId,
    tlm_config: PlicConfig,
    cycle_config: PlicConfig,
) -> impl Fn(&SymCtx) + Send + Sync {
    move |ctx: &SymCtx| match test {
        CrossId::X1 => x1_basic_interaction(ctx, tlm_config, cycle_config),
        CrossId::X2 => x2_claim_order(ctx, tlm_config, cycle_config),
        CrossId::X3 => x3_masking(ctx, tlm_config, cycle_config),
    }
}

/// Runs one cross-level test to full exploration under the given
/// verifier budgets.
pub fn run_cross_test(
    test: CrossId,
    tlm_config: PlicConfig,
    cycle_config: PlicConfig,
    verifier: &Verifier,
) -> TestOutcome {
    verifier.run(cross_bench(test, tlm_config, cycle_config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_plic::{InjectedFault, MutationOp, PlicVariant};

    fn fixed() -> PlicConfig {
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
    }

    fn run(test: CrossId, tlm: PlicConfig, cycle: PlicConfig) -> TestOutcome {
        run_cross_test(test, tlm, cycle, &Verifier::new(test.name()))
    }

    #[test]
    fn the_fixed_plic_is_equivalent_on_all_three_tests() {
        for test in CrossId::ALL {
            let o = run(test, fixed(), fixed());
            assert!(o.passed(), "{test}: {o}");
        }
    }

    #[test]
    fn x1_catches_gateway_and_notify_mutants_in_the_cycle_model() {
        for op in [
            MutationOp::GatewayBoundOffset(2),
            MutationOp::DropNotifyForId(2),
            MutationOp::ClaimSkipsClear,
        ] {
            let o = run(CrossId::X1, fixed(), fixed().mutate(op));
            assert!(!o.passed(), "X1 must catch cycle-side {op:?}");
        }
    }

    #[test]
    fn x2_catches_tiebreak_and_retrigger_mutants_in_the_cycle_model() {
        for op in [MutationOp::TieBreakHighestId, MutationOp::SkipRetrigger] {
            let o = run(CrossId::X2, fixed(), fixed().mutate(op));
            assert!(!o.passed(), "X2 must catch cycle-side {op:?}");
        }
    }

    #[test]
    fn x3_catches_threshold_and_enable_mutants_in_the_cycle_model() {
        for op in [
            MutationOp::ThresholdCompare(symsc_plic::ThresholdCmp::OrEqual),
            MutationOp::StuckEnableForId(1),
        ] {
            let o = run(CrossId::X3, fixed(), fixed().mutate(op));
            assert!(!o.passed(), "X3 must catch cycle-side {op:?}");
        }
    }

    #[test]
    fn the_oracle_works_in_both_directions() {
        // The same faults the T suite detects via injected TLM faults
        // are caught by X tests with the cycle model as the oracle.
        let o = run(
            CrossId::X1,
            fixed().fault(InjectedFault::If2DropNotifyId13),
            fixed(),
        );
        assert!(!o.passed(), "X1 must catch the TLM-side IF2");
        let o = run(
            CrossId::X3,
            fixed().fault(InjectedFault::If6ThresholdOffByOne),
            fixed(),
        );
        assert!(!o.passed(), "X3 must catch the TLM-side IF6");
    }
}
