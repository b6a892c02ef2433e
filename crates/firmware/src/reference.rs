//! The golden machine for the firmware differential oracle: the same
//! driver binary, the same CPU, but the PLIC aperture is backed by the
//! concrete [`ReferencePlic`] spec model instead of the TLM DUV.
//!
//! Delivery on the golden side is *eager*: a trigger or completion
//! immediately re-evaluates `next_deliverable` and latches the CPU's
//! interrupt line on an EIP rise. The DUV reaches the same driver-visible
//! states through the kernel's one-clock `e_run` notification — the fuzz
//! lane advances simulated time at each stimulus so the two line up, and
//! any residual difference a driver can observe (registers, log buffer,
//! halt vs. park) is exactly what the differential checks report.

use std::cell::RefCell;
use std::rc::Rc;

use symsc_iss::{Cpu, StepOutcome};
use symsc_pk::Kernel;
use symsc_plic::config::{CLAIM_BASE, ENABLE_BASE, THRESHOLD_BASE};
use symsc_plic::reference::ReferencePlic;
use symsc_symex::{SymCtx, SymWord};
use symsc_tlm::{BlockingTransport, Command, GenericPayload, ResponseStatus, Router};

use crate::soc::{SymRam, PLIC_BASE, PLIC_SIZE, RAM_BASE, RAM_WORDS};

/// A [`BlockingTransport`] façade over the [`ReferencePlic`]: decodes the
/// same register map as the TLM PLIC (priorities, enable bitmap,
/// threshold, claim/complete) and keeps the golden CPU's latched
/// interrupt line in step with the spec model's delivery rule.
pub struct RefPlicBus {
    plic: ReferencePlic,
    threshold: u32,
    eip: bool,
    line: Rc<RefCell<bool>>,
}

impl RefPlicBus {
    /// A bus over a fresh [`ReferencePlic`] with `sources` sources, wired
    /// to the golden CPU's interrupt-line latch.
    pub fn new(sources: u32, line: Rc<RefCell<bool>>) -> RefPlicBus {
        RefPlicBus {
            plic: ReferencePlic::new(sources),
            threshold: 0,
            eip: false,
            line,
        }
    }

    /// The spec model behind the bus.
    pub fn plic(&self) -> &ReferencePlic {
        &self.plic
    }

    /// Raises the external interrupt line `irq`, then re-evaluates
    /// delivery. Invalid ids are ignored with no side effect, matching the
    /// fixed DUV's gateway: they attempt no delivery either.
    pub fn trigger(&mut self, irq: u32) {
        if self.plic.trigger(irq).is_ok() {
            self.attempt_delivery();
        }
    }

    /// Backdoor priority write (testbench setup), mirrored on the DUV.
    pub fn set_priority(&mut self, irq: u32, priority: u32) {
        self.plic.set_priority(irq, priority);
    }

    /// Backdoor per-source enable (testbench setup).
    pub fn set_enabled(&mut self, irq: u32, enabled: bool) {
        self.plic.set_enabled(irq, enabled);
    }

    /// Backdoor threshold write (testbench setup).
    pub fn set_threshold(&mut self, threshold: u32) {
        self.threshold = threshold;
        self.plic.set_threshold(threshold);
    }

    fn attempt_delivery(&mut self) {
        if !self.eip && self.plic.next_deliverable().is_some() {
            self.eip = true;
            *self.line.borrow_mut() = true;
        }
    }
}

impl BlockingTransport for RefPlicBus {
    fn b_transport(&mut self, ctx: &SymCtx, _kernel: &mut Kernel, payload: &mut GenericPayload) {
        let addr = payload.address.concretize();
        if !addr.is_multiple_of(4) {
            payload.response = ResponseStatus::AddressError;
            return;
        }
        let sources = u64::from(self.plic.sources());
        payload.response = ResponseStatus::Ok;
        match payload.command {
            Command::Write => {
                let value = payload.word(0).concretize() as u32;
                if (4..=4 * sources).contains(&addr) {
                    self.plic.set_priority((addr / 4) as u32, value);
                } else if (ENABLE_BASE..ENABLE_BASE + 4 * sources.div_ceil(32)).contains(&addr) {
                    let widx = ((addr - ENABLE_BASE) / 4) as u32;
                    for j in 0..32u32 {
                        let id = 32 * widx + j;
                        if (1..=self.plic.sources()).contains(&id) {
                            self.plic.set_enabled(id, value & (1 << j) != 0);
                        }
                    }
                } else if addr == THRESHOLD_BASE {
                    self.threshold = value;
                    self.plic.set_threshold(value);
                } else if addr == CLAIM_BASE {
                    // Completion: the line may rise again immediately if
                    // something else is deliverable.
                    self.eip = false;
                    self.attempt_delivery();
                } else {
                    payload.response = ResponseStatus::AddressError;
                }
            }
            Command::Read => {
                let value = if (4..=4 * sources).contains(&addr) {
                    self.plic.priority((addr / 4) as u32)
                } else if addr == THRESHOLD_BASE {
                    self.threshold
                } else if addr == CLAIM_BASE {
                    self.plic.claim()
                } else {
                    payload.response = ResponseStatus::AddressError;
                    return;
                };
                payload.set_word(0, ctx.word32(value));
            }
        }
    }
}

/// The golden machine: the same CPU and scratch RAM as [`crate::Soc`],
/// with [`RefPlicBus`] behind the PLIC aperture. Its kernel never has
/// scheduled activity — delivery is eager — so `run` parks exactly when
/// the spec model has nothing deliverable latched.
pub struct RefMachine {
    /// A kernel with no scheduled processes (the co-sim loop requires
    /// one; it never advances time here).
    pub kernel: Kernel,
    /// The spec-model bus target.
    pub plic: Rc<RefCell<RefPlicBus>>,
    /// Scratch RAM (inputs + log buffer), same map as the DUV's.
    pub ram: Rc<RefCell<SymRam>>,
    /// The golden hart.
    pub cpu: Cpu,
    /// The interconnect.
    pub bus: Router,
}

impl RefMachine {
    /// Builds the golden machine for `sources` interrupt sources with
    /// `program` loaded at address zero.
    pub fn new(ctx: &SymCtx, sources: u32, program: Vec<u32>) -> RefMachine {
        let kernel = Kernel::new();
        let cpu = Cpu::new(ctx, program);
        let plic = Rc::new(RefCell::new(RefPlicBus::new(sources, cpu.interrupt_line())));
        let ram = Rc::new(RefCell::new(SymRam::new(ctx, RAM_WORDS)));
        let mut bus = Router::new();
        bus.map("ref-plic", u64::from(PLIC_BASE), PLIC_SIZE, plic.clone());
        bus.map(
            "ref-ram",
            u64::from(RAM_BASE),
            (RAM_WORDS * 4) as u64,
            ram.clone(),
        );
        RefMachine {
            kernel,
            plic,
            ram,
            cpu,
            bus,
        }
    }

    /// Runs the golden hart for up to `fuel` retired instructions.
    pub fn run(&mut self, ctx: &SymCtx, fuel: u64) -> StepOutcome {
        self.cpu.run(ctx, &mut self.kernel, &mut self.bus, fuel)
    }

    /// Reads log-buffer entry `slot`.
    pub fn log_word(&self, slot: usize) -> SymWord {
        self.ram.borrow().word(crate::soc::LOG_WORD0 + slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soc::{enable_all_masks, service_driver};
    use symsc_plic::PlicConfig;
    use symsc_symex::Explorer;

    #[test]
    fn the_golden_machine_services_a_claim_complete_loop() {
        let report = Explorer::new().explore(|ctx| {
            let config = PlicConfig::fe310_scaled();
            let program = service_driver(&enable_all_masks(&config), 2);
            let mut m = RefMachine::new(ctx, config.sources, program);
            for irq in 1..=config.sources {
                m.plic.borrow_mut().set_priority(irq, 1);
            }
            assert_eq!(m.run(ctx, 400), StepOutcome::Wfi);
            m.plic.borrow_mut().trigger(3);
            m.plic.borrow_mut().trigger(7);
            assert_eq!(m.run(ctx, 400), StepOutcome::Halted);
            assert_eq!(m.log_word(0).as_const(), Some(3));
            assert_eq!(m.log_word(1).as_const(), Some(7));
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn invalid_trigger_ids_are_ignored_like_the_fixed_gateway() {
        let report = Explorer::new().explore(|ctx| {
            let config = PlicConfig::fe310_scaled();
            let program = service_driver(&enable_all_masks(&config), 1);
            let mut m = RefMachine::new(ctx, config.sources, program);
            for irq in 1..=config.sources {
                m.plic.borrow_mut().set_priority(irq, 1);
            }
            assert_eq!(m.run(ctx, 400), StepOutcome::Wfi);
            m.plic.borrow_mut().trigger(0);
            m.plic.borrow_mut().trigger(config.sources + 1);
            assert_eq!(m.run(ctx, 400), StepOutcome::Wfi, "no wake on invalid ids");
        });
        assert!(report.passed(), "{report}");
    }
}
