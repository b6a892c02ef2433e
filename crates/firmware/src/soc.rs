//! The miniature virtual prototype the firmware suites run on: symbolic
//! CPU + bus router + TLM PLIC + scratch RAM, co-simulated under one
//! kernel.

use std::cell::RefCell;
use std::rc::Rc;

use symsc_iss::{Cpu, StepOutcome};
use symsc_pk::Kernel;
use symsc_plic::config::{CLAIM_BASE, ENABLE_BASE, THRESHOLD_BASE};
use symsc_plic::{InterruptTarget, Plic, PlicConfig};
use symsc_symex::{SymCtx, SymWord};
use symsc_tlm::{BlockingTransport, Command, GenericPayload, ResponseStatus, Router};

/// Bus base of the PLIC aperture (the FE310 memory map).
pub const PLIC_BASE: u32 = 0x0C00_0000;
/// Size of the PLIC aperture.
pub const PLIC_SIZE: u64 = 0x40_0000;
/// Bus base of the scratch RAM (driver inputs + log buffer).
pub const RAM_BASE: u32 = 0x4000_0000;
/// Scratch RAM size in 32-bit words.
pub const RAM_WORDS: usize = 16;
/// Bus address of the driver-input area (word 0 of the RAM).
pub const IN_BASE: u32 = RAM_BASE;
/// Bus address of the memory-mapped log buffer (word 8 of the RAM).
pub const LOG_BASE: u32 = RAM_BASE + 0x20;
/// First RAM word index of the log buffer.
pub const LOG_WORD0: usize = 8;

/// Bus address of the first enable bitmap word.
pub const ENABLE0: u32 = PLIC_BASE + ENABLE_BASE as u32;
/// Bus address of the HART-0 priority threshold register.
pub const THRESHOLD: u32 = PLIC_BASE + THRESHOLD_BASE as u32;
/// Bus address of the HART-0 claim/complete register.
pub const CLAIM: u32 = PLIC_BASE + CLAIM_BASE as u32;

/// Raises the CPU's latched interrupt line when the PLIC notifies the
/// HART — the wire between `connect_hart` and `Cpu::interrupt_line`.
pub struct CpuIrqLine {
    flag: Rc<RefCell<bool>>,
}

impl InterruptTarget for CpuIrqLine {
    fn trigger_external_interrupt(&mut self) {
        *self.flag.borrow_mut() = true;
    }
}

/// A word-addressed scratch RAM with symbolic contents, used for driver
/// inputs (the testbench preloads words) and the driver's log buffer.
pub struct SymRam {
    words: Vec<SymWord>,
}

impl SymRam {
    /// A RAM of `words` 32-bit words, all zero.
    pub fn new(ctx: &SymCtx, words: usize) -> SymRam {
        SymRam {
            words: (0..words).map(|_| ctx.word32(0)).collect(),
        }
    }

    /// Word count.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the RAM has zero words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads word `index`.
    pub fn word(&self, index: usize) -> SymWord {
        self.words[index].clone()
    }

    /// Overwrites word `index` (testbench preloading).
    pub fn set_word(&mut self, index: usize, value: SymWord) {
        self.words[index] = value;
    }
}

impl BlockingTransport for SymRam {
    fn b_transport(&mut self, ctx: &SymCtx, _kernel: &mut Kernel, payload: &mut GenericPayload) {
        let addr = payload.address.concretize() as usize;
        let index = addr / 4;
        if !addr.is_multiple_of(4) || index >= self.words.len() {
            payload.response = ResponseStatus::AddressError;
            return;
        }
        match payload.command {
            Command::Read => {
                let w = self.words[index].clone();
                payload.set_word(0, w);
            }
            Command::Write => self.words[index] = payload.word(0).clone(),
        }
        let _ = ctx;
        payload.response = ResponseStatus::Ok;
    }
}

/// The firmware-in-the-loop platform: one symbolic RV32I hart, the TLM
/// PLIC and a scratch RAM behind a [`Router`], co-simulated under one
/// kernel. [`Soc::run`] is the co-simulation loop.
pub struct Soc {
    /// The simulation kernel.
    pub kernel: Kernel,
    /// The device under verification.
    pub plic: Rc<RefCell<Plic>>,
    /// Scratch RAM (inputs + log buffer).
    pub ram: Rc<RefCell<SymRam>>,
    /// The driver's hart.
    pub cpu: Cpu,
    /// The interconnect.
    pub bus: Router,
}

impl Soc {
    /// Builds the platform for `config` with `program` loaded at address
    /// zero, the PLIC's HART-0 line wired to the CPU's latched interrupt
    /// flag, and the kernel's initialization step already run.
    pub fn new(ctx: &SymCtx, config: PlicConfig, program: Vec<u32>) -> Soc {
        let mut kernel = Kernel::new();
        let plic = Rc::new(RefCell::new(Plic::new(ctx, &mut kernel, config)));
        let cpu = Cpu::new(ctx, program);
        plic.borrow().connect_hart(Rc::new(RefCell::new(CpuIrqLine {
            flag: cpu.interrupt_line(),
        })));
        kernel.step();

        let ram = Rc::new(RefCell::new(SymRam::new(ctx, RAM_WORDS)));
        let mut bus = Router::new();
        bus.map("plic", u64::from(PLIC_BASE), PLIC_SIZE, plic.clone());
        bus.map(
            "ram",
            u64::from(RAM_BASE),
            (RAM_WORDS * 4) as u64,
            ram.clone(),
        );

        Soc {
            kernel,
            plic,
            ram,
            cpu,
            bus,
        }
    }

    /// Co-simulates up to `fuel` retired instructions, stepping the
    /// kernel whenever the hart sleeps.
    pub fn run(&mut self, ctx: &SymCtx, fuel: u64) -> StepOutcome {
        self.cpu.run(ctx, &mut self.kernel, &mut self.bus, fuel)
    }

    /// Reads log-buffer entry `slot` (driver-visible state for checks).
    pub fn log_word(&self, slot: usize) -> SymWord {
        self.ram.borrow().word(LOG_WORD0 + slot)
    }
}

/// The claim/complete service driver shared by the firmware suites and
/// the fuzz lane's fixed binary: enable the sources of `enable_masks`
/// (one 32-bit store per bitmap word), then service `services`
/// interrupts — sleep in `wfi`, claim into x13, append the claimed id to
/// the log buffer, complete — and halt.
///
/// Register conventions: x5 log cursor, x6 = &claim, x7 remaining
/// services, x13 last claimed id, x14 scratch.
pub fn service_driver(enable_masks: &[u32], services: u32) -> Vec<u32> {
    use symsc_iss::asm;
    let mut p = Vec::new();
    for (w, mask) in enable_masks.iter().enumerate() {
        p.extend(asm::li(10, ENABLE0 + 4 * w as u32));
        p.extend(asm::li(11, *mask));
        p.push(asm::sw(11, 10, 0));
    }
    p.extend(asm::li(5, LOG_BASE));
    p.extend(asm::li(6, CLAIM));
    p.extend(asm::li(7, services));
    let loop_head = (p.len() * 4) as i32;
    p.push(asm::beq(7, 0, 8 * 4)); // done: skip the 7-instruction body
    p.push(asm::wfi());
    p.push(asm::lw(13, 6, 0)); // claim
    p.push(asm::sw(13, 5, 0)); // log
    p.push(asm::addi(5, 5, 4));
    p.push(asm::sw(13, 6, 0)); // complete
    p.push(asm::addi(7, 7, -1));
    let here = (p.len() * 4) as i32;
    p.push(asm::jal(0, loop_head - here));
    p.push(asm::ebreak());
    p
}

/// All-ones enable masks for every bitmap word of `config`.
pub fn enable_all_masks(config: &PlicConfig) -> Vec<u32> {
    vec![0xFFFF_FFFF; config.bitmap_words()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_plic::PlicVariant;
    use symsc_symex::Explorer;

    fn fixed() -> PlicConfig {
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
    }

    #[test]
    fn service_driver_claims_a_concrete_interrupt() {
        let report = Explorer::new().explore(|ctx| {
            let config = fixed();
            let mut soc = Soc::new(ctx, config, service_driver(&enable_all_masks(&config), 1));
            for irq in 1..=config.sources {
                soc.plic.borrow().set_priority(ctx, irq, 1);
            }
            // Boot: enables written, then the driver parks in wfi.
            assert_eq!(soc.run(ctx, 200), StepOutcome::Wfi);
            soc.plic
                .borrow()
                .trigger_interrupt(ctx, &mut soc.kernel, &ctx.word32(9));
            assert_eq!(soc.run(ctx, 200), StepOutcome::Halted);
            assert_eq!(soc.cpu.reg(ctx, 13).as_const(), Some(9));
            assert_eq!(soc.log_word(0).as_const(), Some(9));
            assert!(!soc.plic.borrow().hart_eip(), "completion reached the PLIC");
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn service_driver_paces_two_services_through_wfi() {
        let report = Explorer::new().explore(|ctx| {
            let config = fixed();
            let mut soc = Soc::new(ctx, config, service_driver(&enable_all_masks(&config), 2));
            for irq in 1..=config.sources {
                soc.plic.borrow().set_priority(ctx, irq, 1);
            }
            assert_eq!(soc.run(ctx, 200), StepOutcome::Wfi);
            soc.plic
                .borrow()
                .trigger_interrupt(ctx, &mut soc.kernel, &ctx.word32(3));
            soc.plic
                .borrow()
                .trigger_interrupt(ctx, &mut soc.kernel, &ctx.word32(7));
            assert_eq!(soc.run(ctx, 400), StepOutcome::Halted);
            // Equal priorities: lowest id first.
            assert_eq!(soc.log_word(0).as_const(), Some(3));
            assert_eq!(soc.log_word(1).as_const(), Some(7));
            assert!(!soc.plic.borrow().hart_eip());
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn ram_rejects_misaligned_and_out_of_range_accesses() {
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut ram = SymRam::new(ctx, 4);
            let mut txn = GenericPayload::read(ctx, ctx.word32(2), 4);
            ram.b_transport(ctx, &mut kernel, &mut txn);
            assert_eq!(txn.response, ResponseStatus::AddressError);
            let mut txn = GenericPayload::read(ctx, ctx.word32(16), 4);
            ram.b_transport(ctx, &mut kernel, &mut txn);
            assert_eq!(txn.response, ResponseStatus::AddressError);
        });
        assert!(report.passed());
    }
}
