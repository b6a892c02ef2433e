//! The five symbolic unit tests of the paper's §5.1.
//!
//! Each test is an ordinary closure over the symbolic context; the same
//! closure serves full exploration ([`run_test`]), counterexample replay
//! and the random-testing baseline (which replays it on sampled concrete
//! inputs).
//!
//! Scaling note: the paper's T5 writes "up to 1000 bytes" of symbolic
//! data; this reproduction defaults to 16 bytes
//! ([`SuiteParams::max_txn_bytes`]) so that full exploration fits in a CI
//! run. The parameter is adjustable; the decode/boundary behavior the test
//! targets is identical at any size.

use symsc_pk::Kernel;
use symsc_plic::config::THRESHOLD_BASE;
use symsc_plic::{Plic, PlicConfig};
use symsc_symex::{SymCtx, SymWord, Width};
use symsc_tlm::{BlockingTransport, Command, GenericPayload};
use symsysc_core::{TestOutcome, Verifier};

use crate::hart::MockHart;

/// Identifier of one of the paper's five symbolic tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TestId {
    /// Basic interaction test.
    T1,
    /// Interrupt sequence (priority order) test — the paper's Fig. 6.
    T2,
    /// Interrupt masking (threshold) test.
    T3,
    /// TLM read interface test.
    T4,
    /// TLM write interface test.
    T5,
}

impl TestId {
    /// All five tests, in paper order.
    pub const ALL: [TestId; 5] = [TestId::T1, TestId::T2, TestId::T3, TestId::T4, TestId::T5];

    /// Parses the paper's label back into the identifier (the inverse of
    /// [`name`](TestId::name); used by campaign specs that persist test
    /// selections as text).
    pub fn from_name(name: &str) -> Option<TestId> {
        TestId::ALL.into_iter().find(|t| t.name() == name)
    }

    /// The paper's label ("T1" … "T5").
    pub fn name(self) -> &'static str {
        match self {
            TestId::T1 => "T1",
            TestId::T2 => "T2",
            TestId::T3 => "T3",
            TestId::T4 => "T4",
            TestId::T5 => "T5",
        }
    }

    /// A one-line description (paper §5.1).
    pub fn description(self) -> &'static str {
        match self {
            TestId::T1 => "basic interaction: symbolic interrupt, latency, pending, claim, cleanup",
            TestId::T2 => {
                "interrupt sequence: two symbolic lines, symbolic priorities, claim order"
            }
            TestId::T3 => "interrupt masking: symbolic priority vs symbolic threshold",
            TestId::T4 => "TLM read interface: symbolic address and length",
            TestId::T5 => "TLM write interface: symbolic address, length and data",
        }
    }
}

impl std::fmt::Display for TestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunable testbench parameters (scaling knobs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuiteParams {
    /// Buffer size (bytes) for the symbolic-length T4/T5 transactions.
    /// The paper used up to 1000; the default here is 16 for tractable
    /// full exploration.
    pub max_txn_bytes: u32,
}

impl Default for SuiteParams {
    fn default() -> SuiteParams {
        SuiteParams { max_txn_bytes: 16 }
    }
}

/// Instantiates the DUV and its environment: kernel, PLIC, mock HART,
/// with the initialization step already run (all processes started once).
fn setup(ctx: &SymCtx, config: PlicConfig) -> (Kernel, Plic, MockHart) {
    let mut kernel = Kernel::new();
    let plic = Plic::new(ctx, &mut kernel, config);
    let hart = MockHart::new();
    plic.connect_hart(hart.target());
    kernel.step();
    (kernel, plic, hart)
}

fn write_reg(ctx: &SymCtx, kernel: &mut Kernel, plic: &mut Plic, addr: u32, value: &SymWord) {
    let mut txn = GenericPayload::write(ctx, ctx.word32(addr), 4);
    txn.set_word(0, value.clone());
    plic.b_transport(ctx, kernel, &mut txn);
    ctx.check_concrete(txn.response.is_ok(), "register write must succeed");
}

/// **T1 — basic interaction test.** Triggers a symbolic interrupt and
/// checks delivery within the specified latency, the pending bit, a TLM
/// claim, and the cleanup afterwards. The id ranges over `0..=sources+1`,
/// so the gateway's handling of invalid ids is exercised too (this is what
/// exposes F1 on the faithful PLIC and IF1 under fault injection).
fn t1_basic_interaction(ctx: &SymCtx, config: PlicConfig) {
    let (mut kernel, mut plic, hart) = setup(ctx, config);
    plic.enable_all_sources(ctx);
    for irq in 1..=config.sources {
        plic.set_priority(ctx, irq, 1);
    }

    let i = ctx.symbolic("i_interrupt", Width::W32);
    ctx.assume(&i.ule(&ctx.word32(config.sources + 1)));
    let one = ctx.word32(1);
    let valid = i.uge(&one).and(&i.ule(&ctx.word32(config.sources)));

    plic.trigger_interrupt(ctx, &mut kernel, &i);
    if ctx.decide(&valid) {
        ctx.cover("t1/valid-id");
    } else {
        ctx.cover("t1/invalid-id");
    }

    // Latency: delivery happens exactly one clock cycle after the trigger.
    kernel.run_until(config.clock_cycle);
    if hart.triggered() == 1 {
        ctx.cover("t1/delivered");
    }
    let fired = ctx.lit(hart.triggered() == 1);
    ctx.check(
        &valid.implies(&fired),
        "interrupt delivered within one clock cycle",
    );

    ctx.check(
        &valid.implies(&plic.pending_bit_symbolic(&i)),
        "pending bit set for triggered interrupt",
    );

    let claimed = hart.claim(ctx, &mut kernel, &mut plic);
    ctx.check(
        &valid.implies(&claimed.eq(&i)),
        "triggered interrupt is claimable",
    );
    ctx.check(
        &valid.implies(&plic.pending_bit_symbolic(&i).not()),
        "pending bit cleared after claim",
    );

    if hart.triggered() > 0 {
        hart.complete(ctx, &mut kernel, &mut plic, &claimed);
        kernel.step();
    }
}

/// **T2 — interrupt sequence test** (the paper's Fig. 6). Two distinct
/// symbolic interrupt lines with symbolic priorities fire simultaneously
/// in zero simulation time; the higher-priority one (lowest id on ties)
/// must be delivered and claimed first, cleaned up, and the second one
/// must follow after completion.
fn t2_interrupt_priority(ctx: &SymCtx, config: PlicConfig) {
    let (mut kernel, mut plic, hart) = setup(ctx, config);

    let i = ctx.symbolic("i_interrupt", Width::W32);
    let j = ctx.symbolic("j_interrupt", Width::W32);
    let n = ctx.word32(config.sources);
    let zero = ctx.word32(0);
    // generate two valid different interrupt ids
    ctx.assume(&i.ule(&n));
    ctx.assume(&i.ugt(&zero));
    ctx.assume(&j.ule(&n));
    ctx.assume(&j.ugt(&zero));
    ctx.assume(&i.ne(&j));

    let p_i = ctx.symbolic("i_priority", Width::W32);
    let p_j = ctx.symbolic("j_priority", Width::W32);
    let one = ctx.word32(1);
    let maxp = ctx.word32(config.max_priority);
    ctx.assume(&p_i.uge(&one));
    ctx.assume(&p_i.ule(&maxp));
    ctx.assume(&p_j.uge(&one));
    ctx.assume(&p_j.ule(&maxp));

    plic.enable_all_sources(ctx);
    plic.set_priority_symbolic(&i, &p_i);
    plic.set_priority_symbolic(&j, &p_j);

    // Trigger both in zero simulation time.
    plic.trigger_interrupt(ctx, &mut kernel, &i);
    plic.trigger_interrupt(ctx, &mut kernel, &j);

    kernel.step(); // advance time to next event
    ctx.check_concrete(
        hart.triggered() == 1,
        "PLIC should have triggered an external interrupt",
    );

    // Is the correct interrupt claimable first?
    let first = hart.claim(ctx, &mut kernel, &mut plic);
    let lower = i.select(&i.ult(&j), &j);
    let j_wins = j.select(&p_j.ugt(&p_i), &lower);
    let expected_first = i.select(&p_i.ugt(&p_j), &j_wins);
    ctx.check(
        &first.eq(&expected_first),
        "interrupt with the highest priority (lowest id on ties) claimed first",
    );
    ctx.check(
        &plic.pending_bit_symbolic(&first).not(),
        "Interrupt was not cleared after claim",
    );

    hart.complete(ctx, &mut kernel, &mut plic, &first);
    kernel.step(); // advance time to next event

    // The second, lower-prioritized interrupt must follow.
    ctx.check_concrete(
        hart.triggered() == 2,
        "remaining interrupt delivered after completion",
    );
    let second = hart.claim(ctx, &mut kernel, &mut plic);
    let expected_second = j.select(&first.eq(&i), &i);
    ctx.check(
        &second.eq(&expected_second),
        "remaining interrupt claimed second",
    );
    hart.complete(ctx, &mut kernel, &mut plic, &second);
}

/// **T3 — interrupt masking test.** A symbolic interrupt line with a
/// symbolic priority against a symbolic threshold: the interrupt may only
/// fire if its priority is non-zero *and* strictly above the threshold.
fn t3_interrupt_masking(ctx: &SymCtx, config: PlicConfig) {
    let (mut kernel, mut plic, hart) = setup(ctx, config);
    plic.enable_all_sources(ctx);

    let i = ctx.symbolic("i_interrupt", Width::W32);
    let one = ctx.word32(1);
    ctx.assume(&i.uge(&one));
    ctx.assume(&i.ule(&ctx.word32(config.sources)));

    let priority = ctx.symbolic("priority", Width::W32);
    let threshold = ctx.symbolic("threshold", Width::W32);
    let maxp = ctx.word32(config.max_priority);
    ctx.assume(&priority.ule(&maxp));
    ctx.assume(&threshold.ule(&maxp));

    plic.set_priority_symbolic(&i, &priority);
    write_reg(
        ctx,
        &mut kernel,
        &mut plic,
        THRESHOLD_BASE as u32,
        &threshold,
    );

    plic.trigger_interrupt(ctx, &mut kernel, &i);
    kernel.step();

    let zero = ctx.word32(0);
    let eligible = priority.ugt(&zero).and(&priority.ugt(&threshold));
    if hart.triggered() >= 1 {
        ctx.cover("t3/fired");
    } else {
        ctx.cover("t3/masked");
    }
    let fired = ctx.lit(hart.triggered() >= 1);
    ctx.check(
        &fired.implies(&eligible),
        "interrupt fired only if priority is non-zero and above the threshold",
    );
}

/// **T4 — TLM read interface test.** Triggers an interrupt, then issues a
/// read at a fully symbolic address with a symbolic length. No functional
/// assertions: the engine hunts for generic decode errors (alignment,
/// unmapped addresses, boundary overruns).
fn t4_tlm_read_interface(ctx: &SymCtx, config: PlicConfig, params: SuiteParams) {
    let (mut kernel, mut plic, _hart) = setup(ctx, config);
    plic.enable_all_sources(ctx);
    plic.set_priority(ctx, 6, 1);
    plic.trigger_interrupt(ctx, &mut kernel, &ctx.word32(6));

    let addr = ctx.symbolic("addr", Width::W32);
    let len = ctx.symbolic("len", Width::W32);
    ctx.assume(&len.ule(&ctx.word32(params.max_txn_bytes)));

    let mut txn =
        GenericPayload::with_symbolic_length(ctx, Command::Read, addr, len, params.max_txn_bytes);
    plic.b_transport(ctx, &mut kernel, &mut txn);
    if txn.response.is_ok() {
        ctx.cover("t4/accepted");
    } else {
        ctx.cover("t4/rejected");
    }
}

/// **T5 — TLM write interface test.** Triggers an interrupt (without
/// letting the PLIC thread run — the race that exposes F6), then issues a
/// word-aligned write of symbolic data at a symbolic address with a
/// symbolic length.
fn t5_tlm_write_interface(ctx: &SymCtx, config: PlicConfig, params: SuiteParams) {
    let (mut kernel, mut plic, _hart) = setup(ctx, config);
    plic.enable_all_sources(ctx);
    plic.set_priority(ctx, 6, 1);
    plic.trigger_interrupt(ctx, &mut kernel, &ctx.word32(6));

    let addr = ctx.symbolic("addr", Width::W32);
    let len = ctx.symbolic("len", Width::W32);
    let three = ctx.word32(3);
    let zero = ctx.word32(0);
    // The write test focuses on write handling: keep the transaction
    // word-aligned (the alignment assert is T4's finding).
    ctx.assume(&addr.and(&three).eq(&zero));
    ctx.assume(&len.and(&three).eq(&zero));
    ctx.assume(&len.ule(&ctx.word32(params.max_txn_bytes)));

    let mut txn =
        GenericPayload::with_symbolic_length(ctx, Command::Write, addr, len, params.max_txn_bytes);
    for k in 0..txn.data_words() {
        txn.set_word(k, ctx.symbolic(&format!("data_{k}"), Width::W32));
    }
    plic.b_transport(ctx, &mut kernel, &mut txn);
}

/// Builds the testbench closure for `test` — usable with
/// [`Verifier::run`], [`Verifier::replay`] and the random baseline. The
/// closure is `Fn + Send + Sync` (all captures are `Copy` configuration),
/// so it can be explored by a multi-worker
/// [`Explorer`](symsc_symex::Explorer).
pub fn test_bench(
    test: TestId,
    config: PlicConfig,
    params: SuiteParams,
) -> impl Fn(&SymCtx) + Send + Sync {
    move |ctx: &SymCtx| match test {
        TestId::T1 => t1_basic_interaction(ctx, config),
        TestId::T2 => t2_interrupt_priority(ctx, config),
        TestId::T3 => t3_interrupt_masking(ctx, config),
        TestId::T4 => t4_tlm_read_interface(ctx, config, params),
        TestId::T5 => t5_tlm_write_interface(ctx, config, params),
    }
}

/// Runs one test to full exploration under the given verifier budgets.
pub fn run_test(
    test: TestId,
    config: PlicConfig,
    params: &SuiteParams,
    verifier: &Verifier,
) -> TestOutcome {
    verifier.run(test_bench(test, config, *params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_plic::{InjectedFault, PlicVariant};

    // Unit tests run the shape-preserving scaled configuration so that
    // debug-mode `cargo test` stays fast; the integration tests and the
    // table binaries run the full FE310.
    fn faithful() -> PlicConfig {
        PlicConfig::fe310_scaled()
    }

    fn fixed() -> PlicConfig {
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
    }

    fn run(test: TestId, config: PlicConfig) -> TestOutcome {
        run_test(
            test,
            config,
            &SuiteParams::default(),
            &Verifier::new(test.name()),
        )
    }

    // ----- Table 1: the faithful PLIC -----

    #[test]
    fn table1_t1_fails_with_one_error() {
        let o = run(TestId::T1, faithful());
        assert_eq!(o.result_label(), "Fail (1)", "{o}");
        // F1: the forgotten gateway assertion.
        assert!(o.report.errors[0].message.contains("out of range"));
    }

    #[test]
    fn table1_t2_passes() {
        let o = run(TestId::T2, faithful());
        assert!(o.passed(), "{o}");
    }

    #[test]
    fn table1_t3_passes() {
        let o = run(TestId::T3, faithful());
        assert!(o.passed(), "{o}");
    }

    #[test]
    fn table1_t4_fails_with_three_errors() {
        let o = run(TestId::T4, faithful());
        assert_eq!(o.result_label(), "Fail (3)", "{o}");
        let messages: Vec<&str> = o
            .report
            .distinct_errors()
            .iter()
            .map(|e| e.message.as_str())
            .collect();
        assert!(
            messages.iter().any(|m| m.contains("aligned")),
            "F2: {messages:?}"
        );
        assert!(
            messages.iter().any(|m| m.contains("no register mapping")),
            "F3: {messages:?}"
        );
        assert!(
            messages.iter().any(|m| m.contains("boundary")),
            "F5(read): {messages:?}"
        );
    }

    #[test]
    fn table1_t5_fails_with_four_errors() {
        let o = run(TestId::T5, faithful());
        assert_eq!(o.result_label(), "Fail (4)", "{o}");
        let messages: Vec<&str> = o
            .report
            .distinct_errors()
            .iter()
            .map(|e| e.message.as_str())
            .collect();
        assert!(
            messages.iter().any(|m| m.contains("no register mapping")),
            "F3: {messages:?}"
        );
        assert!(
            messages.iter().any(|m| m.contains("does not allow")),
            "F4: {messages:?}"
        );
        assert!(
            messages.iter().any(|m| m.contains("boundary")),
            "F5: {messages:?}"
        );
        assert!(
            messages
                .iter()
                .any(|m| m.contains("without external interrupt in flight")),
            "F6: {messages:?}"
        );
    }

    // ----- the fixed PLIC passes everything -----

    #[test]
    fn fixed_plic_passes_all_five_tests() {
        for test in TestId::ALL {
            let o = run(test, fixed());
            assert!(o.passed(), "{test} on fixed PLIC: {o}");
        }
    }

    // ----- Table 2: injected faults (detection pattern) -----

    #[test]
    fn t1_detects_if1_if2_if4_if5() {
        for fault in [
            InjectedFault::If1OffByOneGateway,
            InjectedFault::If2DropNotifyId13,
            InjectedFault::If4LateNotifyHighIds,
            InjectedFault::If5EarlyClearReturn,
        ] {
            let o = run(TestId::T1, fixed().fault(fault));
            assert!(!o.passed(), "T1 must detect {}", fault.label());
        }
    }

    #[test]
    fn t1_misses_if3_and_if6() {
        for fault in [
            InjectedFault::If3SkipRetrigger,
            InjectedFault::If6ThresholdOffByOne,
        ] {
            let o = run(TestId::T1, fixed().fault(fault));
            assert!(o.passed(), "T1 must not detect {}: {o}", fault.label());
        }
    }

    #[test]
    fn t2_detects_if2_if3_if5() {
        for fault in [
            InjectedFault::If2DropNotifyId13,
            InjectedFault::If3SkipRetrigger,
            InjectedFault::If5EarlyClearReturn,
        ] {
            let o = run(TestId::T2, fixed().fault(fault));
            assert!(!o.passed(), "T2 must detect {}", fault.label());
        }
    }

    #[test]
    fn t2_misses_if1_if4_if6() {
        for fault in [
            InjectedFault::If1OffByOneGateway,
            InjectedFault::If4LateNotifyHighIds,
            InjectedFault::If6ThresholdOffByOne,
        ] {
            let o = run(TestId::T2, fixed().fault(fault));
            assert!(o.passed(), "T2 must not detect {}: {o}", fault.label());
        }
    }

    #[test]
    fn t3_detects_exactly_if6() {
        let o = run(
            TestId::T3,
            fixed().fault(InjectedFault::If6ThresholdOffByOne),
        );
        assert!(!o.passed(), "T3 must detect IF6");
        for fault in [
            InjectedFault::If1OffByOneGateway,
            InjectedFault::If3SkipRetrigger,
            InjectedFault::If4LateNotifyHighIds,
        ] {
            let o = run(TestId::T3, fixed().fault(fault));
            assert!(o.passed(), "T3 must not detect {}: {o}", fault.label());
        }
    }

    #[test]
    fn t4_t5_miss_all_injected_faults() {
        // The interface tests target decode bugs, not interrupt logic.
        for test in [TestId::T4, TestId::T5] {
            for fault in [
                InjectedFault::If2DropNotifyId13,
                InjectedFault::If6ThresholdOffByOne,
            ] {
                let o = run(test, fixed().fault(fault));
                assert!(o.passed(), "{test} must not detect {}: {o}", fault.label());
            }
        }
    }

    // ----- counterexample quality -----

    #[test]
    fn t1_counterexample_is_an_invalid_id() {
        let o = run(TestId::T1, faithful());
        let cex = &o.report.errors[0].counterexample;
        let id = cex.value("i_interrupt");
        let n = u64::from(faithful().sources);
        assert!(id == 0 || id == n + 1, "invalid id, got {id}");
    }

    #[test]
    fn t1_counterexample_replays() {
        let v = Verifier::new("T1");
        let o = run_test(TestId::T1, faithful(), &SuiteParams::default(), &v);
        let cex = o.report.errors[0].counterexample.clone();
        let replayed = v.replay(
            &cex,
            test_bench(TestId::T1, faithful(), SuiteParams::default()),
        );
        assert!(!replayed.passed(), "the bug reproduces concretely");
    }

    #[test]
    fn if2_counterexample_names_id_13() {
        let o = run(TestId::T1, fixed().fault(InjectedFault::If2DropNotifyId13));
        let cex = &o.report.errors[0].counterexample;
        assert_eq!(cex.value("i_interrupt"), 13);
    }

    #[test]
    fn if6_counterexample_has_priority_equal_threshold() {
        let o = run(
            TestId::T3,
            fixed().fault(InjectedFault::If6ThresholdOffByOne),
        );
        let cex = &o.report.errors[0].counterexample;
        assert_eq!(
            cex.value("priority"),
            cex.value("threshold"),
            "IF6 fires exactly at equality"
        );
        assert!(cex.value("priority") > 0);
    }
}
