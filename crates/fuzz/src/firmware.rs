//! The firmware fuzz lane: byte strings decode into *environment
//! schedules* — interrupt arrivals, priority/threshold/enable pokes and
//! clock ticks — injected around a fixed RV32I service driver running on
//! the symbolic ISS, with the same binary executing on the
//! [`RefMachine`](symsc_firmware::RefMachine) golden model as the
//! differential oracle.
//!
//! The stimulus grammar reuses the byte layout of
//! [`Program`](crate::grammar::Program) (6-byte slots,
//! `op{i}_kind`/`op{i}_a`/`op{i}_b` variables), so corpus machinery, seed
//! exchange and counterexample round-trips work unchanged; only the
//! *interpretation* differs. Each slot is applied at
//! a driver park boundary: the DUV's simulated time is advanced one
//! clock so scheduled deliveries land, both harts resume, and their step
//! outcomes must agree. After the whole schedule, the differential
//! checks compare the driver-visible machine state — the full register
//! file and the memory-mapped log buffer — between DUV and golden run.
//!
//! Coverage is the usual structural `(fork-site fingerprint, direction)`
//! map of the concolic trace, which here spans both the firmware's
//! decode chains *and* the peripheral's internal fork sites — one
//! coverage space for software and hardware branches.

use symsc_firmware::soc::{enable_all_masks, service_driver, Soc, LOG_WORD0, RAM_WORDS};
use symsc_firmware::RefMachine;
use symsc_plic::config::ENABLE_BASE;
use symsc_plic::PlicConfig;
use symsc_symex::{SymCtx, Width};
use symsc_tlm::{BlockingTransport, GenericPayload};

use crate::engine::{trace_input, InputOutcome};
use crate::harness::pin_mod;

/// Operation selectors of the firmware schedule (`kind % FW_OP_KINDS`).
pub mod fwop {
    /// Raise an interrupt line (`0..=sources+1`, invalid ids included).
    pub const TRIGGER: u32 = 0;
    /// Advance simulated time by one clock cycle.
    pub const TICK: u32 = 1;
    /// Backdoor-write `priority[irq]` on both machines.
    pub const SET_PRIORITY: u32 = 2;
    /// Backdoor-write the HART-0 threshold on both machines.
    pub const SET_THRESHOLD: u32 = 3;
    /// Toggle one source's enable bit (bus write on the DUV side).
    pub const ENABLE: u32 = 4;
}

/// Number of schedule operation kinds.
pub const FW_OP_KINDS: u8 = 5;

/// Interrupts the fixed driver services before halting.
pub const FW_SERVICES: u32 = 3;

/// Instruction budget per resume (generous; the driver is loop-bounded).
const FW_FUEL: u64 = 600;

/// The firmware differential testbench over `len` symbolic schedule
/// slots: the fixed service driver on the TLM-backed [`Soc`] versus the
/// same binary on the golden [`RefMachine`].
pub fn firmware_differential_bench(
    config: PlicConfig,
    len: usize,
) -> impl Fn(&SymCtx) + Send + Sync + 'static {
    move |ctx: &SymCtx| run_schedule(ctx, config, len)
}

fn resume_both(ctx: &SymCtx, duv: &mut Soc, gold: &mut RefMachine) {
    // Let any scheduled DUV delivery land before the harts resume (the
    // golden machine delivers eagerly, so only the DUV needs the clock).
    let clock = duv.plic.borrow().config().clock_cycle;
    let now = duv.kernel.time();
    duv.kernel.run_until(now + clock);
    let d = duv.run(ctx, FW_FUEL);
    let g = gold.run(ctx, FW_FUEL);
    ctx.check_concrete(
        d == g,
        &format!("driver outcomes agree with the golden machine ({d:?} vs {g:?})"),
    );
}

fn run_schedule(ctx: &SymCtx, config: PlicConfig, len: usize) {
    let program = service_driver(&enable_all_masks(&config), FW_SERVICES);
    let mut duv = Soc::new(ctx, config, program.clone());
    let mut gold = RefMachine::new(ctx, config.sources, program);
    for irq in 1..=config.sources {
        duv.plic.borrow().set_priority(ctx, irq, 1);
        gold.plic.borrow_mut().set_priority(irq, 1);
    }
    let mut enable_shadow = enable_all_masks(&config);
    resume_both(ctx, &mut duv, &mut gold);

    let sources = config.sources;
    for i in 0..len {
        let kind_w = ctx.symbolic(&format!("op{i}_kind"), Width::W8);
        let a_w = ctx.symbolic(&format!("op{i}_a"), Width::W32);
        let b_w = ctx.symbolic(&format!("op{i}_b"), Width::W8);
        let (_, kind) = pin_mod(ctx, &kind_w.zero_ext(Width::W32), u32::from(FW_OP_KINDS));
        match kind {
            fwop::TRIGGER => {
                let (irq_t, irq) = pin_mod(ctx, &a_w, sources + 2);
                duv.plic
                    .borrow()
                    .trigger_interrupt(ctx, &mut duv.kernel, &irq_t);
                gold.plic.borrow_mut().trigger(irq);
            }
            fwop::TICK => {}
            fwop::SET_PRIORITY => {
                let (_, irq) = pin_mod(ctx, &a_w, sources);
                let irq = irq + 1;
                let (_, prio) = pin_mod(ctx, &b_w.zero_ext(Width::W32), config.max_priority + 1);
                duv.plic.borrow().set_priority(ctx, irq, prio);
                gold.plic.borrow_mut().set_priority(irq, prio);
            }
            fwop::SET_THRESHOLD => {
                let (_, thr) = pin_mod(ctx, &a_w, config.max_priority + 1);
                duv.plic.borrow().set_threshold(ctx.word32(thr));
                gold.plic.borrow_mut().set_threshold(thr);
            }
            fwop::ENABLE => {
                let (_, irq) = pin_mod(ctx, &a_w, sources);
                let irq = irq + 1;
                let (_, on) = pin_mod(ctx, &b_w.zero_ext(Width::W32), 2);
                let widx = (irq / 32) as usize;
                if on == 1 {
                    enable_shadow[widx] |= 1 << (irq % 32);
                } else {
                    enable_shadow[widx] &= !(1 << (irq % 32));
                }
                // The DUV sees the toggle as the bus write a driver (or
                // a second core) would issue; the golden model is poked
                // directly.
                let addr = ctx.word32(ENABLE_BASE as u32 + 4 * widx as u32);
                let mut txn = GenericPayload::write(ctx, addr, 4);
                txn.set_word(0, ctx.word32(enable_shadow[widx]));
                duv.plic
                    .borrow_mut()
                    .b_transport(ctx, &mut duv.kernel, &mut txn);
                ctx.check_concrete(txn.response.is_ok(), "enable write must decode");
                gold.plic.borrow_mut().set_enabled(irq, on == 1);
            }
            _ => unreachable!("kind is reduced modulo FW_OP_KINDS"),
        }
        resume_both(ctx, &mut duv, &mut gold);
    }

    for r in 0..32 {
        ctx.check(
            &duv.cpu.reg(ctx, r).eq(&gold.cpu.reg(ctx, r)),
            "register file agrees with the golden machine",
        );
    }
    for slot in 0..(RAM_WORDS - LOG_WORD0) {
        ctx.check(
            &duv.log_word(slot).eq(&gold.log_word(slot)),
            "log buffer agrees with the golden machine",
        );
    }
}

/// Executes one firmware fuzz input as a concolic trace and collects its
/// coverage and errors — the firmware lane's
/// [`InputRunner`](crate::engine::InputRunner).
pub fn run_firmware_input(config: PlicConfig, bytes: &[u8]) -> InputOutcome {
    trace_input(config, bytes, firmware_differential_bench)
}

/// Handcrafted schedule seeds: protocol-shaped stimuli every campaign
/// replays first (the firmware analog of [`crate::corpus::dictionary`]).
pub fn firmware_dictionary(config: &PlicConfig) -> Vec<Vec<u8>> {
    let s = config.sources;
    let slot = |kind: u32, a: u32, b: u8| -> Vec<u8> {
        let mut v = vec![kind as u8];
        v.extend_from_slice(&a.to_le_bytes());
        v.push(b);
        v
    };
    let cat = |slots: &[Vec<u8>]| slots.concat();
    vec![
        // Three plain services, one trigger at a time.
        cat(&[
            slot(fwop::TRIGGER, 3, 0),
            slot(fwop::TRIGGER, 7, 0),
            slot(fwop::TRIGGER, 1, 0),
        ]),
        // Simultaneous arrivals with a priority split.
        cat(&[
            slot(fwop::SET_PRIORITY, 4, 7),
            slot(fwop::TRIGGER, 2, 0),
            slot(fwop::TRIGGER, 5, 0),
            slot(fwop::TICK, 0, 0),
        ]),
        // Threshold masking around the boundary.
        cat(&[
            slot(fwop::SET_THRESHOLD, 1, 0),
            slot(fwop::TRIGGER, 3, 0),
            slot(fwop::SET_THRESHOLD, 0, 0),
            slot(fwop::TRIGGER, 4, 0),
        ]),
        // Disable source 2 (`a` decodes as `1 + a % sources`), fire it,
        // re-enable, fire again.
        cat(&[
            slot(fwop::ENABLE, 1, 0),
            slot(fwop::TRIGGER, 2, 0),
            slot(fwop::ENABLE, 1, 1),
            slot(fwop::TRIGGER, 2, 0),
        ]),
        // Invalid and boundary ids through the gateway.
        cat(&[
            slot(fwop::TRIGGER, s + 1, 0),
            slot(fwop::TRIGGER, s, 0),
            slot(fwop::TRIGGER, s.wrapping_mul(7), 0),
        ]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Fuzzer;
    use symsc_plic::PlicVariant;

    fn scaled() -> PlicConfig {
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
    }

    #[test]
    fn the_fixed_duv_matches_the_golden_machine_on_the_dictionary() {
        for (i, seed) in firmware_dictionary(&scaled()).iter().enumerate() {
            let outcome = run_firmware_input(scaled(), seed);
            assert_eq!(outcome.errors, Vec::new(), "dictionary entry {i} diverged");
            assert!(!outcome.coverage.is_empty());
        }
    }

    #[test]
    fn an_invalid_trigger_delivers_nothing_on_either_machine() {
        // Threshold 4 masks irq 13 (priority 1) while it goes pending;
        // lowering the threshold unmasks it without a delivery attempt.
        // The invalid trigger of id 0 that follows must not deliver it:
        // the DUV's gateway drops the id with no side effect, and so must
        // the golden machine.
        let slot = |kind: u32, a: u32| {
            let mut v = vec![kind as u8];
            v.extend_from_slice(&a.to_le_bytes());
            v.push(0);
            v
        };
        let schedule = [
            slot(fwop::SET_THRESHOLD, 4),
            slot(fwop::TRIGGER, 13),
            slot(fwop::SET_THRESHOLD, 0),
            slot(fwop::TRIGGER, 0),
        ]
        .concat();
        let outcome = run_firmware_input(scaled(), &schedule);
        assert_eq!(outcome.errors, Vec::new(), "invalid trigger diverged");
    }

    #[test]
    fn a_firmware_campaign_is_clean_on_the_fixed_model() {
        let report = Fuzzer::new(scaled())
            .runner(run_firmware_input)
            .seed(21)
            .max_execs(48)
            .batch(12)
            .seeds(firmware_dictionary(&scaled()))
            .run();
        assert_eq!(report.findings, Vec::new(), "fixed model must not diverge");
        assert!(!report.corpus.is_empty());
    }

    #[test]
    fn firmware_campaigns_are_byte_identical_across_worker_counts() {
        let run = |workers| {
            Fuzzer::new(scaled())
                .runner(run_firmware_input)
                .seed(9)
                .workers(workers)
                .max_execs(36)
                .batch(12)
                .seeds(firmware_dictionary(&scaled()))
                .run()
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one.corpus, eight.corpus);
        assert_eq!(one.coverage, eight.coverage);
        assert_eq!(one.findings, eight.findings);
    }

    #[test]
    fn the_enable_dictionary_entry_kills_the_stuck_enable_mutant() {
        let mutated = scaled().mutate(symsc_plic::MutationOp::StuckEnableForId(2));
        let report = Fuzzer::new(mutated)
            .runner(run_firmware_input)
            .seed(2)
            .seeds(firmware_dictionary(&scaled()))
            .stop_on_finding(true)
            .max_execs(48)
            .run();
        assert!(
            report.killed(),
            "stuck enable must diverge on the disable seed"
        );
    }

    #[test]
    fn firmware_finding_inputs_replay_to_the_same_divergence() {
        let mutated = scaled().fault(symsc_plic::config::InjectedFault::If6ThresholdOffByOne);
        let report = Fuzzer::new(mutated)
            .runner(run_firmware_input)
            .seed(4)
            .seeds(firmware_dictionary(&scaled()))
            .stop_on_finding(true)
            .max_execs(96)
            .run();
        assert!(report.killed(), "IF6 must fall to the threshold seed");
        let finding = &report.findings[0];
        let again = run_firmware_input(mutated, &finding.input);
        assert!(
            again
                .errors
                .iter()
                .any(|(k, m)| *k == finding.kind && *m == finding.message),
            "replaying the finding input must reproduce it"
        );
    }
}
