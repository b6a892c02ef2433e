//! The five firmware-in-the-loop tests F1–F5.
//!
//! Each test runs a bare-metal RV32I driver on the symbolic [`Cpu`]
//! (`symsc_iss::Cpu`) against the TLM PLIC through the bus: symbolic
//! MMIO read results and symbolic interrupt-arrival timing fork the
//! exploration through firmware branches *and* the peripheral's decode
//! logic at once, and every check is phrased over driver-visible state —
//! the register file at halt and the memory-mapped log buffer — the
//! cross-level discipline of the TLM suites lifted to software.

use symsc_iss::{asm, StepOutcome};
use symsc_mutate::KillSuite;
use symsc_plic::PlicConfig;
use symsc_symex::{SymCtx, Width};
use symsysc_core::{TestOutcome, Verifier};

use crate::soc::{enable_all_masks, service_driver, Soc, CLAIM, IN_BASE, LOG_BASE, THRESHOLD};

/// Identifier of one firmware test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FirmwareId {
    /// Claim/complete driver loop (T1's scenario, driven by software).
    F1,
    /// Priority-threshold masking driver (symbolic MMIO data flow).
    F2,
    /// WFI-paced ISR loop servicing two interrupts in priority order.
    F3,
    /// Nested two-source arbitration under symbolic arrival timing.
    F4,
    /// Racy double-claim driver with source 1 deliberately disabled.
    F5,
}

impl FirmwareId {
    /// All five firmware tests, in order.
    pub const ALL: [FirmwareId; 5] = [
        FirmwareId::F1,
        FirmwareId::F2,
        FirmwareId::F3,
        FirmwareId::F4,
        FirmwareId::F5,
    ];

    /// The suite label ("F1" … "F5").
    pub fn name(self) -> &'static str {
        match self {
            FirmwareId::F1 => "F1",
            FirmwareId::F2 => "F2",
            FirmwareId::F3 => "F3",
            FirmwareId::F4 => "F4",
            FirmwareId::F5 => "F5",
        }
    }

    /// A one-line description.
    pub fn description(self) -> &'static str {
        match self {
            FirmwareId::F1 => "claim/complete driver: symbolic id, latency, log, cleanup",
            FirmwareId::F2 => "threshold driver: symbolic threshold through RAM and MMIO",
            FirmwareId::F3 => "wfi-paced ISR loop: two symbolic sources in priority order",
            FirmwareId::F4 => "nested arbitration: second source at a symbolic arrival time",
            FirmwareId::F5 => "racy double claim with source 1 disabled by the driver",
        }
    }
}

impl std::fmt::Display for FirmwareId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Instruction budget for a driver phase — generous; real drivers here
/// retire well under a hundred instructions per phase.
const FUEL: u64 = 400;

/// **F1 — claim/complete driver loop.** The software analog of T1: the
/// driver enables every source over MMIO, sleeps, services one
/// interrupt and halts. A symbolic id over `0..=sources+1` forks the
/// valid/invalid gateway split through the *firmware's* wfi — an invalid
/// id must leave the driver parked forever.
fn f1_claim_complete(ctx: &SymCtx, config: PlicConfig) {
    let mut soc = Soc::new(ctx, config, service_driver(&enable_all_masks(&config), 1));
    for irq in 1..=config.sources {
        soc.plic.borrow().set_priority(ctx, irq, 1);
    }
    let boot = soc.run(ctx, FUEL);
    ctx.check_concrete(boot == StepOutcome::Wfi, "driver boots to its wfi park");

    let i = ctx.symbolic("i_interrupt", Width::W32);
    ctx.assume(&i.ule(&ctx.word32(config.sources + 1)));
    let valid = i
        .uge(&ctx.word32(1))
        .and(&i.ule(&ctx.word32(config.sources)));
    soc.plic
        .borrow()
        .trigger_interrupt(ctx, &mut soc.kernel, &i);
    if ctx.decide(&valid) {
        ctx.cover("f1/valid-id");
    } else {
        ctx.cover("f1/invalid-id");
    }

    let now = soc.kernel.time();
    soc.kernel.run_until(now + config.clock_cycle);
    let fired = ctx.lit(*soc.cpu.interrupt_line().borrow());
    ctx.check(
        &valid.implies(&fired),
        "delivery within one clock of the trigger",
    );
    soc.fence(ctx);

    let outcome = soc.run(ctx, FUEL);
    let done = ctx.lit(outcome == StepOutcome::Halted);
    ctx.check(&valid.implies(&done), "valid id serviced to completion");
    ctx.check(
        &valid.not().implies(&done.not()),
        "an invalid id must not wake the driver",
    );
    if outcome == StepOutcome::Halted {
        ctx.check(
            &soc.cpu.reg(ctx, 13).eq(&i),
            "driver claimed the fired source",
        );
        ctx.check(&soc.log_word(0).eq(&i), "log buffer records the claimed id");
        ctx.check(
            &soc.plic.borrow().pending_bit_symbolic(&i).not(),
            "pending bit cleared by the driver's claim",
        );
        ctx.check_concrete(!soc.plic.borrow().hart_eip(), "completion lowered EIP");
    }
}

/// The F2 driver: load the threshold from the input RAM word, program it
/// over MMIO (a *symbolic* store to the peripheral), enable everything,
/// then one claim/complete service.
fn threshold_driver(enable_masks: &[u32]) -> Vec<u32> {
    let mut p = Vec::new();
    p.extend(asm::li(9, IN_BASE));
    p.push(asm::lw(9, 9, 0));
    p.extend(asm::li(10, THRESHOLD));
    p.push(asm::sw(9, 10, 0));
    for (w, mask) in enable_masks.iter().enumerate() {
        p.extend(asm::li(10, crate::soc::ENABLE0 + 4 * w as u32));
        p.extend(asm::li(11, *mask));
        p.push(asm::sw(11, 10, 0));
    }
    p.extend(asm::li(5, LOG_BASE));
    p.extend(asm::li(6, CLAIM));
    p.push(asm::wfi());
    p.push(asm::lw(13, 6, 0));
    p.push(asm::sw(13, 5, 0));
    p.push(asm::sw(13, 6, 0));
    p.push(asm::ebreak());
    p
}

/// **F2 — priority-threshold masking driver.** The threshold is a
/// symbolic word that flows RAM → register file → MMIO store → PLIC: the
/// interrupt may wake the driver iff `priority > 0 && priority >
/// threshold`, checked in both directions.
fn f2_threshold_mask(ctx: &SymCtx, config: PlicConfig) {
    const IRQ: u32 = 3;
    let mut soc = Soc::new(ctx, config, threshold_driver(&enable_all_masks(&config)));

    let maxp = ctx.word32(config.max_priority);
    let priority = ctx.symbolic("priority", Width::W32);
    let threshold = ctx.symbolic("threshold", Width::W32);
    ctx.assume(&priority.ule(&maxp));
    ctx.assume(&threshold.ule(&maxp));
    soc.plic
        .borrow()
        .set_priority_symbolic(&ctx.word32(IRQ), &priority);
    soc.ram.borrow_mut().set_word(0, threshold.clone());

    let boot = soc.run(ctx, FUEL);
    ctx.check_concrete(
        boot == StepOutcome::Wfi,
        "driver programs the PLIC and parks",
    );
    soc.plic
        .borrow()
        .trigger_interrupt(ctx, &mut soc.kernel, &ctx.word32(IRQ));
    let now = soc.kernel.time();
    soc.kernel.run_until(now + config.clock_cycle);
    let fired = ctx.lit(*soc.cpu.interrupt_line().borrow());
    let eligible = priority.ugt(&ctx.word32(0)).and(&priority.ugt(&threshold));
    ctx.check(
        &eligible.implies(&fired),
        "unmasked interrupt wakes the driver",
    );
    ctx.check(&fired.implies(&eligible), "masked interrupt must not fire");
    soc.fence(ctx);

    let outcome = soc.run(ctx, FUEL);
    if ctx.decide(&eligible) {
        ctx.cover("f2/fired");
        ctx.check_concrete(
            outcome == StepOutcome::Halted,
            "driver completes the unmasked service",
        );
        if outcome == StepOutcome::Halted {
            ctx.check(
                &soc.cpu.reg(ctx, 13).eq(&ctx.word32(IRQ)),
                "driver claimed the fired source",
            );
            ctx.check(
                &soc.log_word(0).eq(&ctx.word32(IRQ)),
                "log records the claim",
            );
            ctx.check_concrete(!soc.plic.borrow().hart_eip(), "completion lowered EIP");
        }
    } else {
        ctx.cover("f2/masked");
        ctx.check_concrete(outcome == StepOutcome::Wfi, "masked driver stays parked");
        ctx.check(
            &soc.plic.borrow().pending_bit(IRQ),
            "masked interrupt stays pending",
        );
    }
}

/// **F3 — WFI-paced ISR loop.** Two distinct symbolic sources with
/// symbolic priorities fire in zero simulation time; the service loop
/// must log them in priority order (lowest id on ties), with each
/// iteration paced by a fresh wfi wake — exactly T2's property, read off
/// the firmware's log buffer instead of the mock HART.
fn f3_isr_priority_order(ctx: &SymCtx, config: PlicConfig) {
    let mut soc = Soc::new(ctx, config, service_driver(&enable_all_masks(&config), 2));

    let n = ctx.word32(config.sources);
    let one = ctx.word32(1);
    let i = ctx.symbolic("i_interrupt", Width::W32);
    let j = ctx.symbolic("j_interrupt", Width::W32);
    ctx.assume(&i.uge(&one));
    ctx.assume(&i.ule(&n));
    ctx.assume(&j.uge(&one));
    ctx.assume(&j.ule(&n));
    ctx.assume(&i.ne(&j));
    let maxp = ctx.word32(config.max_priority);
    let p_i = ctx.symbolic("i_priority", Width::W32);
    let p_j = ctx.symbolic("j_priority", Width::W32);
    ctx.assume(&p_i.uge(&one));
    ctx.assume(&p_i.ule(&maxp));
    ctx.assume(&p_j.uge(&one));
    ctx.assume(&p_j.ule(&maxp));
    soc.plic.borrow().set_priority_symbolic(&i, &p_i);
    soc.plic.borrow().set_priority_symbolic(&j, &p_j);

    let boot = soc.run(ctx, FUEL);
    ctx.check_concrete(boot == StepOutcome::Wfi, "driver boots to its wfi park");
    soc.plic
        .borrow()
        .trigger_interrupt(ctx, &mut soc.kernel, &i);
    soc.plic
        .borrow()
        .trigger_interrupt(ctx, &mut soc.kernel, &j);
    let now = soc.kernel.time();
    soc.kernel.run_until(now + config.clock_cycle);
    ctx.check_concrete(
        *soc.cpu.interrupt_line().borrow(),
        "simultaneous triggers wake the driver",
    );
    soc.fence(ctx);

    let outcome = soc.run(ctx, FUEL);
    ctx.check_concrete(
        outcome == StepOutcome::Halted,
        "both interrupts serviced through the ISR loop",
    );
    if outcome == StepOutcome::Halted {
        let lower = i.select(&i.ult(&j), &j);
        let j_wins = j.select(&p_j.ugt(&p_i), &lower);
        let expected_first = i.select(&p_i.ugt(&p_j), &j_wins);
        let expected_second = j.select(&expected_first.eq(&i), &i);
        ctx.check(
            &soc.log_word(0).eq(&expected_first),
            "highest priority (lowest id on ties) logged first",
        );
        ctx.check(
            &soc.log_word(1).eq(&expected_second),
            "remaining interrupt logged second",
        );
        ctx.check(
            &soc.cpu.reg(ctx, 13).eq(&expected_second),
            "last claim left in x13",
        );
        ctx.check(
            &soc.plic.borrow().pending_bit_symbolic(&i).not(),
            "first source no longer pending",
        );
        ctx.check(
            &soc.plic.borrow().pending_bit_symbolic(&j).not(),
            "second source no longer pending",
        );
        ctx.check_concrete(!soc.plic.borrow().hart_eip(), "completion lowered EIP");
    }
}

/// **F4 — nested two-source arbitration.** Source 2 fires first; source
/// 5's arrival time is *symbolic*: either simultaneous (the PLIC must
/// arbitrate by symbolic priority) or nested mid-service — injected
/// between the driver's claim and completion, timed by running the hart
/// on an exact instruction budget (`StepOutcome::OutOfFuel` pauses).
fn f4_nested_arbitration(ctx: &SymCtx, config: PlicConfig) {
    const A: u32 = 2;
    const B: u32 = 5;
    let mut soc = Soc::new(ctx, config, service_driver(&enable_all_masks(&config), 2));

    let one = ctx.word32(1);
    let maxp = ctx.word32(config.max_priority);
    let p_a = ctx.symbolic("a_priority", Width::W32);
    let p_b = ctx.symbolic("b_priority", Width::W32);
    ctx.assume(&p_a.uge(&one));
    ctx.assume(&p_a.ule(&maxp));
    ctx.assume(&p_b.uge(&one));
    ctx.assume(&p_b.ule(&maxp));
    soc.plic
        .borrow()
        .set_priority_symbolic(&ctx.word32(A), &p_a);
    soc.plic
        .borrow()
        .set_priority_symbolic(&ctx.word32(B), &p_b);

    let boot = soc.run(ctx, FUEL);
    ctx.check_concrete(boot == StepOutcome::Wfi, "driver boots to its wfi park");
    soc.plic
        .borrow()
        .trigger_interrupt(ctx, &mut soc.kernel, &ctx.word32(A));

    // Symbolic arrival time for B: 0 = with A, 1 = mid-service of A.
    let b_arrival = ctx.symbolic("b_arrival", Width::W32);
    ctx.assume(&b_arrival.ule(&one));
    let simultaneous = b_arrival.eq(&ctx.word32(0));
    if ctx.decide(&simultaneous) {
        ctx.cover("f4/simultaneous");
        soc.plic
            .borrow()
            .trigger_interrupt(ctx, &mut soc.kernel, &ctx.word32(B));
        let now = soc.kernel.time();
        soc.kernel.run_until(now + config.clock_cycle);
        soc.fence(ctx);

        let outcome = soc.run(ctx, FUEL);
        ctx.check_concrete(outcome == StepOutcome::Halted, "both sources serviced");
        if outcome == StepOutcome::Halted {
            let a = ctx.word32(A);
            let b = ctx.word32(B);
            // Higher priority first; A wins ties (lower id).
            let expected_first = a.select(&p_a.uge(&p_b), &b);
            let expected_second = b.select(&expected_first.eq(&a), &a);
            ctx.check(
                &soc.log_word(0).eq(&expected_first),
                "arbitration winner logged first",
            );
            ctx.check(
                &soc.log_word(1).eq(&expected_second),
                "arbitration loser logged second",
            );
        }
    } else {
        ctx.cover("f4/nested");
        let now = soc.kernel.time();
        soc.kernel.run_until(now + config.clock_cycle);
        soc.fence(ctx);

        // Wake and stop right after the claim of A: one budget unit
        // retires the wfi, the next retires the claim load.
        let o = soc.run(ctx, 1);
        ctx.check_concrete(o == StepOutcome::OutOfFuel, "wfi retires on the wake");
        let o = soc.run(ctx, 1);
        ctx.check_concrete(o == StepOutcome::OutOfFuel, "claim load retires");
        // A is claimed and in flight; B arrives nested, mid-service.
        soc.plic
            .borrow()
            .trigger_interrupt(ctx, &mut soc.kernel, &ctx.word32(B));

        let outcome = soc.run(ctx, FUEL);
        ctx.check_concrete(
            outcome == StepOutcome::Halted,
            "nested arrival serviced after completion",
        );
        if outcome == StepOutcome::Halted {
            ctx.check(
                &soc.log_word(0).eq(&ctx.word32(A)),
                "in-flight source logged first",
            );
            ctx.check(
                &soc.log_word(1).eq(&ctx.word32(B)),
                "nested source logged second",
            );
        }
    }
    ctx.check_concrete(
        !soc.plic.borrow().hart_eip(),
        "EIP low once the driver is done",
    );
}

/// The F5 driver: like the service driver, but with source 1 left
/// disabled and a deliberately racy *double* claim before the single
/// completion — the second read must return 0 (no interrupt).
fn racy_driver(enable_masks: &[u32]) -> Vec<u32> {
    let mut p = Vec::new();
    for (w, mask) in enable_masks.iter().enumerate() {
        p.extend(asm::li(10, crate::soc::ENABLE0 + 4 * w as u32));
        p.extend(asm::li(11, *mask));
        p.push(asm::sw(11, 10, 0));
    }
    p.extend(asm::li(5, LOG_BASE));
    p.extend(asm::li(6, CLAIM));
    p.push(asm::wfi());
    p.push(asm::lw(13, 6, 0)); // claim
    p.push(asm::lw(14, 6, 0)); // racy second claim before completing
    p.push(asm::sw(13, 5, 0)); // log first claim
    p.push(asm::sw(14, 5, 4)); // log second claim
    p.push(asm::sw(13, 6, 0)); // complete the first claim only
    p.push(asm::ebreak());
    p
}

/// **F5 — racy double claim with a disabled source.** The driver never
/// enables source 1; a symbolic id forks delivery against the mask. The
/// `stuck_enable_1` mutant (enable bit 1 stuck at one) wakes the driver
/// on the masked path — the kill no TLM suite can make, because T1–T5
/// all enable every source. The double claim pins claim-gating: the
/// second read with the first claim still in flight must return 0.
fn f5_racy_disabled_source(ctx: &SymCtx, config: PlicConfig) {
    let mut masks = enable_all_masks(&config);
    masks[0] &= !0b10; // source 1 stays disabled
    let mut soc = Soc::new(ctx, config, racy_driver(&masks));
    for irq in 1..=config.sources {
        soc.plic.borrow().set_priority(ctx, irq, 1);
    }
    let boot = soc.run(ctx, FUEL);
    ctx.check_concrete(boot == StepOutcome::Wfi, "driver boots to its wfi park");

    let i = ctx.symbolic("i_interrupt", Width::W32);
    ctx.assume(&i.uge(&ctx.word32(1)));
    ctx.assume(&i.ule(&ctx.word32(config.sources)));
    soc.plic
        .borrow()
        .trigger_interrupt(ctx, &mut soc.kernel, &i);
    let deliverable = i.ne(&ctx.word32(1));

    let now = soc.kernel.time();
    soc.kernel.run_until(now + config.clock_cycle);
    let fired = ctx.lit(*soc.cpu.interrupt_line().borrow());
    ctx.check(&deliverable.implies(&fired), "enabled source delivered");
    ctx.check(
        &fired.implies(&deliverable),
        "the disabled source must stay masked",
    );
    soc.fence(ctx);

    let outcome = soc.run(ctx, FUEL);
    if ctx.decide(&deliverable) {
        ctx.cover("f5/serviced");
        ctx.check_concrete(outcome == StepOutcome::Halted, "enabled source serviced");
        if outcome == StepOutcome::Halted {
            ctx.check(
                &soc.cpu.reg(ctx, 13).eq(&i),
                "first claim is the fired source",
            );
            ctx.check(
                &soc.cpu.reg(ctx, 14).eq(&ctx.word32(0)),
                "racy second claim returns no interrupt",
            );
            ctx.check(&soc.log_word(0).eq(&i), "log records the first claim");
            ctx.check(
                &soc.log_word(1).eq(&ctx.word32(0)),
                "log records the empty second claim",
            );
            ctx.check(
                &soc.plic.borrow().pending_bit_symbolic(&i).not(),
                "pending cleared by the first claim",
            );
            ctx.check_concrete(!soc.plic.borrow().hart_eip(), "completion lowered EIP");
        }
    } else {
        ctx.cover("f5/disabled");
        ctx.check_concrete(
            outcome == StepOutcome::Wfi,
            "driver must sleep through the disabled source",
        );
        ctx.check(
            &soc.plic.borrow().pending_bit_symbolic(&i),
            "disabled source stays latched pending",
        );
        ctx.check(
            &soc.cpu.reg(ctx, 13).eq(&ctx.word32(0)),
            "nothing was claimed",
        );
    }
}

/// Builds the testbench closure for `test` — usable with
/// [`Verifier::run`], [`Verifier::replay`] and the fuzz lanes. All
/// captures are `Copy` configuration, so the closure is `Fn + Send +
/// Sync` and explorable by a multi-worker explorer.
pub fn firmware_bench(test: FirmwareId, config: PlicConfig) -> impl Fn(&SymCtx) + Send + Sync {
    move |ctx: &SymCtx| match test {
        FirmwareId::F1 => f1_claim_complete(ctx, config),
        FirmwareId::F2 => f2_threshold_mask(ctx, config),
        FirmwareId::F3 => f3_isr_priority_order(ctx, config),
        FirmwareId::F4 => f4_nested_arbitration(ctx, config),
        FirmwareId::F5 => f5_racy_disabled_source(ctx, config),
    }
}

/// Runs one firmware test to full exploration under `verifier`.
pub fn run_firmware_test(test: FirmwareId, config: PlicConfig, verifier: &Verifier) -> TestOutcome {
    verifier.run(firmware_bench(test, config))
}

/// The firmware kill matrix: every PLIC mutant against every firmware
/// test, the software-driven analog of the register-level T1–T5 matrix
/// (`symsc_mutate::run_kill_matrix_with` over [`FirmwareId`] columns).
impl KillSuite for FirmwareId {
    const VIEW_HEADER: &'static str = "fw-kill-matrix";

    fn run_cell(
        self,
        _fixed: PlicConfig,
        mutated: PlicConfig,
        _side: Option<&str>,
        verifier: &Verifier,
    ) -> TestOutcome {
        run_firmware_test(self, mutated, verifier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_mutate::{run_kill_matrix, run_kill_matrix_with, Mutant};
    use symsc_plic::{MutationOp, PlicVariant, ThresholdCmp};

    fn fixed() -> PlicConfig {
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
    }

    #[test]
    fn all_five_firmware_tests_pass_on_the_fixed_plic() {
        for test in FirmwareId::ALL {
            let o = run_firmware_test(test, fixed(), &Verifier::new(test.name()));
            assert!(o.passed(), "{test} on fixed PLIC: {o}");
        }
    }

    #[test]
    fn f5_kills_the_stuck_enable_mutant_no_tlm_test_can() {
        // `stuck_enable_1` survives T1–T5 (they enable every source); F5
        // leaves source 1 disabled and must catch it.
        let config = fixed().mutate(symsc_plic::MutationOp::StuckEnableForId(1));
        let o = run_firmware_test(FirmwareId::F5, config, &Verifier::new("F5"));
        assert!(!o.passed(), "F5 must kill stuck_enable_1: {o}");
    }

    #[test]
    fn f2_kills_the_threshold_comparison_mutants() {
        for op in [
            symsc_plic::MutationOp::ThresholdCompare(symsc_plic::ThresholdCmp::AlwaysPass),
            symsc_plic::MutationOp::ThresholdCompare(symsc_plic::ThresholdCmp::NeverPass),
        ] {
            let o = run_firmware_test(FirmwareId::F2, fixed().mutate(op), &Verifier::new("F2"));
            assert!(!o.passed(), "F2 must kill {op:?}");
        }
    }

    #[test]
    fn a_small_firmware_matrix_kills_the_presets_it_should() {
        let config = PlicConfig::fe310_scaled().variant(PlicVariant::Fixed);
        let mutants = symsc_mutate::presets();
        let matrix = run_kill_matrix(config, &mutants, &[FirmwareId::F1, FirmwareId::F2], 1);
        assert!(
            matrix.baseline.iter().all(|b| b.passed),
            "{}",
            matrix.stable_view()
        );
        // IF1 (gateway off-by-one) falls to F1's invalid-id branch; IF6
        // (threshold off-by-one) to F2's two-sided eligibility check.
        assert!(matrix.killed_mutant("IF1"), "{}", matrix.stable_view());
        assert!(matrix.killed_mutant("IF6"), "{}", matrix.stable_view());
    }

    #[test]
    fn the_factory_is_called_once_per_firmware_cell_in_order() {
        let mutants = vec![
            Mutant::new(
                "cmp_never",
                "delivery dead",
                MutationOp::ThresholdCompare(ThresholdCmp::NeverPass),
            ),
            Mutant::new("dup_notify", "double notify", MutationOp::DuplicateNotify),
        ];
        for workers in [1, 2] {
            let calls = std::cell::RefCell::new(Vec::new());
            let matrix = run_kill_matrix_with(
                fixed(),
                &mutants,
                &[FirmwareId::F1, FirmwareId::F2],
                |name| {
                    calls.borrow_mut().push(name.to_string());
                    Verifier::new(name).workers(workers)
                },
            );
            assert_eq!(matrix.mutants.len(), 2);
            assert_eq!(
                calls.into_inner(),
                [
                    "F1",
                    "F2",
                    "F1/cmp_never",
                    "F2/cmp_never",
                    "F1/dup_notify",
                    "F2/dup_notify"
                ],
                "{workers} cells at a time"
            );
        }
    }
}
