//! The TLM lane's differential testbench: one decoded program, executed
//! against the PLIC TLM model with the concrete [`ReferencePlic`] as
//! oracle ([`Lane::Tlm`](crate::lane::Lane::Tlm)).

use std::cell::Cell;
use std::cell::RefCell;
use std::rc::Rc;

use symsc_pk::{Kernel, SimTime};
use symsc_plic::config::{CLAIM_BASE, ENABLE_BASE, PENDING_BASE, THRESHOLD_BASE};
use symsc_plic::reference::ReferencePlic;
use symsc_plic::{InterruptTarget, Plic, PlicConfig};
use symsc_symex::{SymCtx, SymWord, Width};
use symsc_tlm::{BlockingTransport, GenericPayload};

use crate::grammar::OP_KINDS;
use crate::lane::{decode_slot, pin_mod, OpPin};

/// Operation selectors (`kind % OP_KINDS`), in the order the enumerate
/// chain probes them.
pub mod op {
    /// Write `priority[irq]` over TLM (`irq` ranges over `0..=sources+1`
    /// so invalid decodes are exercised).
    pub const SET_PRIORITY: u32 = 0;
    /// Write one word of the enable bitmap over TLM.
    pub const WRITE_ENABLE: u32 = 1;
    /// Write the HART-0 threshold register over TLM.
    pub const SET_THRESHOLD: u32 = 2;
    /// Raise an external interrupt line (`0..=sources+1`).
    pub const TRIGGER: u32 = 3;
    /// Advance simulated time by one clock cycle and cross-check the
    /// interrupt line, notification count and next deliverable id.
    pub const STEP: u32 = 4;
    /// Read `claim_response` and cross-check the claimed id.
    pub const CLAIM: u32 = 5;
    /// Write `claim_response` (completion handshake).
    pub const COMPLETE: u32 = 6;
    /// Read one word of the pending bitmap and cross-check it.
    pub const READ_PENDING: u32 = 7;
}

struct CountingTarget {
    rises: Rc<Cell<u32>>,
}

impl InterruptTarget for CountingTarget {
    fn trigger_external_interrupt(&mut self) {
        self.rises.set(self.rises.get() + 1);
    }
}

fn write_word(
    ctx: &SymCtx,
    kernel: &mut Kernel,
    plic: &mut Plic,
    addr: &SymWord,
    value: &SymWord,
) -> bool {
    let mut txn = GenericPayload::write(ctx, addr.clone(), 4);
    txn.set_word(0, value.clone());
    plic.b_transport(ctx, kernel, &mut txn);
    txn.response.is_ok()
}

fn read_word(
    ctx: &SymCtx,
    kernel: &mut Kernel,
    plic: &mut Plic,
    addr: &SymWord,
) -> (SymWord, bool) {
    let mut txn = GenericPayload::read(ctx, addr.clone(), 4);
    plic.b_transport(ctx, kernel, &mut txn);
    (txn.word(0).clone(), txn.response.is_ok())
}

/// The TLM lane's differential testbench, one operation slot per pin.
pub(crate) fn run_program(ctx: &SymCtx, config: PlicConfig, pins: &[OpPin]) {
    let sources = config.sources;
    let bitmap_words = config.bitmap_words() as u32;

    let mut kernel = Kernel::new();
    let mut plic = Plic::new(ctx, &mut kernel, config);
    let rises = Rc::new(Cell::new(0u32));
    plic.connect_hart(Rc::new(RefCell::new(CountingTarget {
        rises: rises.clone(),
    })));
    kernel.step();

    let mut oracle = ReferencePlic::new(sources);
    // The shadow protocol mirrors the kernel-level delivery contract:
    // `trigger`/`complete` schedule a delivery attempt one clock cycle
    // out (duplicates collapse, earliest wins — the kernel's notify
    // override rule), and each STEP consumes attempts that have come due.
    let mut now = SimTime::ZERO;
    let mut shadow_due: Option<SimTime> = None;
    let mut shadow_eip = false;
    let mut shadow_rises = 0u32;

    let schedule_attempt = |due: &mut Option<SimTime>, at: SimTime| {
        *due = Some(match *due {
            Some(d) if d <= at => d,
            _ => at,
        });
    };

    for (i, pin) in pins.iter().enumerate() {
        let (kind, a_w, b_w) = decode_slot(ctx, i, pin, OP_KINDS);
        match kind {
            op::SET_PRIORITY => {
                let (irq_t, irq) = pin_mod(ctx, &a_w, sources + 2);
                let (val_t, val) = pin_mod(ctx, &b_w.zero_ext(Width::W32), config.max_priority + 1);
                let addr = irq_t.mul(&ctx.word32(4));
                let ok = write_word(ctx, &mut kernel, &mut plic, &addr, &val_t);
                let valid = (1..=sources).contains(&irq);
                ctx.check_concrete(ok == valid, "priority write status matches decode");
                if valid {
                    oracle.set_priority(irq, val);
                }
            }
            op::WRITE_ENABLE => {
                let (widx_t, widx) = pin_mod(ctx, &b_w.zero_ext(Width::W32), bitmap_words);
                let addr = ctx
                    .word32(ENABLE_BASE as u32)
                    .add(&widx_t.mul(&ctx.word32(4)));
                let mut mask = 0u32;
                for j in 0..32u32 {
                    if (1..=sources).contains(&(32 * widx + j)) {
                        mask |= 1 << j;
                    }
                }
                let val_t = a_w.and(&ctx.word32(mask));
                let mut bits = 0u32;
                for j in 0..32u32 {
                    if mask & (1 << j) != 0 && ctx.decide(&a_w.bit(j)) {
                        bits |= 1 << j;
                    }
                }
                let ok = write_word(ctx, &mut kernel, &mut plic, &addr, &val_t);
                ctx.check_concrete(ok, "enable write must succeed");
                for j in 0..32u32 {
                    if mask & (1 << j) != 0 {
                        oracle.set_enabled(32 * widx + j, bits & (1 << j) != 0);
                    }
                }
            }
            op::SET_THRESHOLD => {
                let (thr_t, thr) = pin_mod(ctx, &a_w, config.max_priority + 1);
                let addr = ctx.word32(THRESHOLD_BASE as u32);
                let ok = write_word(ctx, &mut kernel, &mut plic, &addr, &thr_t);
                ctx.check_concrete(ok, "threshold write must succeed");
                oracle.set_threshold(thr);
            }
            op::TRIGGER => {
                let (irq_t, irq) = pin_mod(ctx, &a_w, sources + 2);
                plic.trigger_interrupt(ctx, &mut kernel, &irq_t);
                if (1..=sources).contains(&irq) {
                    let _ = oracle.trigger(irq);
                    schedule_attempt(&mut shadow_due, now + config.clock_cycle);
                }
            }
            op::STEP => {
                now += config.clock_cycle;
                kernel.run_until(now);
                if shadow_due.is_some_and(|d| d <= now) {
                    shadow_due = None;
                    if !shadow_eip && oracle.next_deliverable().is_some() {
                        shadow_eip = true;
                        shadow_rises += 1;
                    }
                }
                ctx.check_concrete(
                    plic.hart_eip() == shadow_eip,
                    "external interrupt line matches reference",
                );
                ctx.check_concrete(
                    rises.get() == shadow_rises,
                    "interrupt notification count matches reference",
                );
                let expect = oracle.next_deliverable().unwrap_or(0);
                ctx.check(
                    &plic.next_deliverable().eq(&ctx.word32(expect)),
                    "next deliverable interrupt matches reference",
                );
            }
            op::CLAIM => {
                let addr = ctx.word32(CLAIM_BASE as u32);
                let (word, ok) = read_word(ctx, &mut kernel, &mut plic, &addr);
                ctx.check_concrete(ok, "claim read must succeed");
                let expect = oracle.claim();
                ctx.check(
                    &word.eq(&ctx.word32(expect)),
                    "claimed id matches reference",
                );
            }
            op::COMPLETE => {
                let (irq_t, _) = pin_mod(ctx, &a_w, sources + 2);
                let addr = ctx.word32(CLAIM_BASE as u32);
                let ok = write_word(ctx, &mut kernel, &mut plic, &addr, &irq_t);
                ctx.check_concrete(ok, "completion write must succeed");
                shadow_eip = false;
                schedule_attempt(&mut shadow_due, now + config.clock_cycle);
            }
            op::READ_PENDING => {
                let (widx_t, widx) = pin_mod(ctx, &b_w.zero_ext(Width::W32), bitmap_words);
                let addr = ctx
                    .word32(PENDING_BASE as u32)
                    .add(&widx_t.mul(&ctx.word32(4)));
                let (word, ok) = read_word(ctx, &mut kernel, &mut plic, &addr);
                ctx.check_concrete(ok, "pending read must succeed");
                let mut expect = 0u32;
                for j in 0..32u32 {
                    let id = 32 * widx + j;
                    if (1..=sources).contains(&id) && oracle.is_pending(id) {
                        expect |= 1 << j;
                    }
                }
                ctx.check(
                    &word.eq(&ctx.word32(expect)),
                    "pending bitmap matches reference",
                );
            }
            _ => unreachable!("kind is reduced modulo OP_KINDS"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::Lane;
    use symsc_plic::PlicVariant;

    fn scaled() -> PlicConfig {
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
    }

    fn trace(config: PlicConfig, bytes: &[u8]) -> symsc_symex::Report {
        Lane::Tlm.trace(config, bytes)
    }

    /// arm irq 3 (prio 5), trigger it, step, claim, complete, step.
    fn arm_and_fire() -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&[op::SET_PRIORITY as u8, 3, 0, 0, 0, 5]);
        p.extend_from_slice(&[op::WRITE_ENABLE as u8, 0xFF, 0xFF, 0xFF, 0xFF, 0]);
        p.extend_from_slice(&[op::TRIGGER as u8, 3, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::STEP as u8, 0, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::CLAIM as u8, 0, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::COMPLETE as u8, 3, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::STEP as u8, 0, 0, 0, 0, 0]);
        p
    }

    #[test]
    fn fixed_model_agrees_with_reference_on_the_happy_path() {
        let report = trace(scaled(), &arm_and_fire());
        assert!(report.passed(), "unexpected divergence: {report}");
        assert_eq!(report.stats.paths, 1);
    }

    #[test]
    fn invalid_priority_write_is_rejected_on_both_sides() {
        // irq decode 0 and sources+1 are both invalid addresses.
        let mut p = Vec::new();
        p.extend_from_slice(&[op::SET_PRIORITY as u8, 0, 0, 0, 0, 5]);
        p.extend_from_slice(&[op::SET_PRIORITY as u8, 17, 0, 0, 0, 5]);
        let report = trace(scaled(), &p);
        assert!(report.passed(), "unexpected divergence: {report}");
    }

    #[test]
    fn trace_uses_no_solver_queries() {
        let report = trace(scaled(), &arm_and_fire());
        assert_eq!(report.stats.solver.queries, 0);
    }

    #[test]
    fn if6_threshold_boundary_diverges() {
        // priority == threshold: the fixed model masks the interrupt,
        // IF6's `>=` delivers it.
        let mut p = Vec::new();
        p.extend_from_slice(&[op::SET_PRIORITY as u8, 3, 0, 0, 0, 5]);
        p.extend_from_slice(&[op::WRITE_ENABLE as u8, 0xFF, 0xFF, 0xFF, 0xFF, 0]);
        p.extend_from_slice(&[op::SET_THRESHOLD as u8, 5, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::TRIGGER as u8, 3, 0, 0, 0, 0]);
        p.extend_from_slice(&[op::STEP as u8, 0, 0, 0, 0, 0]);
        assert!(trace(scaled(), &p).passed());
        let mutated = scaled().fault(symsc_plic::config::InjectedFault::If6ThresholdOffByOne);
        let report = trace(mutated, &p);
        assert!(!report.passed(), "IF6 must diverge at the boundary");
    }

    #[test]
    fn if1_gateway_overflow_is_an_engine_error() {
        let p = [op::TRIGGER as u8, 17, 0, 0, 0, 0];
        assert!(trace(scaled(), &p).passed());
        let mutated = scaled().fault(symsc_plic::config::InjectedFault::If1OffByOneGateway);
        let report = trace(mutated, &p);
        assert!(!report.passed());
        assert_eq!(
            report.first_error().unwrap().kind,
            symsc_symex::ErrorKind::OutOfBounds
        );
    }
}
