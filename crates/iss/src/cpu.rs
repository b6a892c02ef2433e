//! The RV32I-subset interpreter with a symbolic register file.

use std::cell::RefCell;
use std::rc::Rc;

use symsc_pk::Kernel;
use symsc_symex::{CowVec, SymCtx, SymWord};
use symsc_tlm::{BlockingTransport, GenericPayload};

/// Why [`Cpu::step`] (or [`Cpu::run`]) stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction retired; execution can continue.
    Running,
    /// `ebreak` — the program finished (this ISS's exit convention).
    Halted,
    /// `wfi` with no interrupt pending: the hart is parked until the
    /// interrupt line rises (advance the kernel and retry).
    Wfi,
    /// [`Cpu::run`]'s instruction budget ran out before the program
    /// halted, trapped or parked — distinct from [`StepOutcome::Trap`]
    /// so a testbench can tell "driver is wrong" from "fuel too small".
    OutOfFuel,
    /// The hart cannot continue: fetch outside the program, an undecodable
    /// instruction, or a failed bus access.
    Trap(String),
}

/// A single RV32I hart with symbolic registers.
///
/// Data accesses go through a [`BlockingTransport`] (typically the bus
/// [`Router`](symsc_tlm::Router)); the program counter and the program
/// itself are concrete, while register *values* may be symbolic —
/// branches on symbolic data fork the exploration.
pub struct Cpu {
    regs: CowVec<SymWord>,
    pc: u32,
    program_base: u32,
    program: Vec<u32>,
    interrupt_flag: Rc<RefCell<bool>>,
    retired: u64,
}

/// A copy-on-write capture of a hart's architectural state.
///
/// The register file rides the [`CowVec`] chunks, so taking a snapshot is
/// a handful of reference-count bumps — forked paths share the register
/// prefix and copy a chunk only when they diverge, the same discipline
/// the kernel and PLIC snapshots follow. The program itself is immutable
/// and deliberately *not* captured.
#[derive(Clone, Debug)]
pub struct CpuSnapshot {
    regs: CowVec<SymWord>,
    pc: u32,
    retired: u64,
    interrupt_pending: bool,
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("pc", &format_args!("{:#x}", self.pc))
            .field("retired", &self.retired)
            .finish()
    }
}

impl Cpu {
    /// A hart with all registers zero, executing `program` from address 0.
    pub fn new(ctx: &SymCtx, program: Vec<u32>) -> Cpu {
        Cpu::with_base(ctx, program, 0)
    }

    /// A hart executing `program` from `program_base`.
    pub fn with_base(ctx: &SymCtx, program: Vec<u32>, program_base: u32) -> Cpu {
        Cpu {
            regs: (0..32).map(|_| ctx.word32(0)).collect(),
            pc: program_base,
            program_base,
            program,
            interrupt_flag: Rc::new(RefCell::new(false)),
            retired: 0,
        }
    }

    /// The external-interrupt line into this hart: set it to `true` (e.g.
    /// from a PLIC's interrupt-target wiring) to wake a `wfi`.
    pub fn interrupt_line(&self) -> Rc<RefCell<bool>> {
        self.interrupt_flag.clone()
    }

    /// Captures the architectural state (registers, pc, fuel spent,
    /// interrupt line) as a copy-on-write snapshot.
    pub fn snapshot(&self) -> CpuSnapshot {
        CpuSnapshot {
            regs: self.regs.clone(),
            pc: self.pc,
            retired: self.retired,
            interrupt_pending: *self.interrupt_flag.borrow(),
        }
    }

    /// Restores a snapshot taken from this hart (or a same-program twin).
    /// The interrupt line value is written back through the shared cell,
    /// so PLIC wiring established via [`Cpu::interrupt_line`] stays live.
    pub fn restore(&mut self, snapshot: &CpuSnapshot) {
        self.regs = snapshot.regs.clone();
        self.pc = snapshot.pc;
        self.retired = snapshot.retired;
        *self.interrupt_flag.borrow_mut() = snapshot.interrupt_pending;
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads register `r` (x0 always reads zero).
    ///
    /// # Panics
    ///
    /// Panics if `r >= 32`.
    pub fn reg(&self, ctx: &SymCtx, r: u32) -> SymWord {
        assert!(r < 32);
        if r == 0 {
            ctx.word32(0)
        } else {
            self.regs.get(r as usize).expect("32 registers").clone()
        }
    }

    /// Writes register `r` (writes to x0 are discarded).
    ///
    /// # Panics
    ///
    /// Panics if `r >= 32`.
    pub fn set_reg(&mut self, _ctx: &SymCtx, r: u32, value: SymWord) {
        assert!(r < 32);
        if r != 0 {
            self.regs.set(r as usize, value);
        }
    }

    fn fetch(&self) -> Option<u32> {
        let offset = self.pc.checked_sub(self.program_base)?;
        if offset % 4 != 0 {
            return None;
        }
        self.program.get((offset / 4) as usize).copied()
    }

    /// Executes one instruction.
    pub fn step(
        &mut self,
        ctx: &SymCtx,
        kernel: &mut Kernel,
        bus: &mut dyn BlockingTransport,
    ) -> StepOutcome {
        let Some(inst) = self.fetch() else {
            return StepOutcome::Trap(format!("fetch outside program at {:#x}", self.pc));
        };

        let opcode = inst & 0x7F;
        let rd = (inst >> 7) & 0x1F;
        let rs1 = (inst >> 15) & 0x1F;
        let rs2 = (inst >> 20) & 0x1F;
        let funct3 = (inst >> 12) & 0x7;
        let funct7 = inst >> 25;
        let imm_i = (inst as i32) >> 20;
        let imm_s = (((inst >> 25) << 5) | ((inst >> 7) & 0x1F)) as i32;
        let imm_s = (imm_s << 20) >> 20; // sign-extend 12 bits
        let mut next_pc = self.pc.wrapping_add(4);

        match opcode {
            0b0110111 => {
                // lui
                let v = ctx.word32(inst & 0xFFFF_F000);
                self.set_reg(ctx, rd, v);
            }
            0b0010111 => {
                // auipc
                let v = ctx.word32(self.pc.wrapping_add(inst & 0xFFFF_F000));
                self.set_reg(ctx, rd, v);
            }
            0b1101111 => {
                // jal
                let imm = ((inst & 0x8000_0000) as i32 >> 11) as u32 & 0xFFF0_0000
                    | (inst & 0x000F_F000)
                    | ((inst >> 9) & 0x800)
                    | ((inst >> 20) & 0x7FE);
                self.set_reg(ctx, rd, ctx.word32(next_pc));
                next_pc = self.pc.wrapping_add(imm);
            }
            0b1100111 => {
                // jalr: the target feeds the concrete PC — concretize.
                let base = self.reg(ctx, rs1);
                let target = base.add(&ctx.word32(imm_i as u32));
                let target = (target.concretize() as u32) & !1;
                self.set_reg(ctx, rd, ctx.word32(next_pc));
                next_pc = target;
            }
            0b1100011 => {
                // branches
                let imm = ((inst & 0x8000_0000) as i32 >> 19) as u32 & 0xFFFF_F000
                    | ((inst << 4) & 0x800)
                    | ((inst >> 20) & 0x7E0)
                    | ((inst >> 7) & 0x1E);
                let a = self.reg(ctx, rs1);
                let b = self.reg(ctx, rs2);
                let cond = match funct3 {
                    0b000 => a.eq(&b),
                    0b001 => a.ne(&b),
                    0b100 => a.slt(&b),
                    0b101 => b.sle(&a),
                    0b110 => a.ult(&b),
                    0b111 => b.ule(&a),
                    _ => return StepOutcome::Trap(format!("bad branch funct3 {funct3}")),
                };
                if ctx.decide(&cond) {
                    next_pc = self.pc.wrapping_add(imm);
                }
            }
            0b0000011 => {
                // lw
                if funct3 != 0b010 {
                    return StepOutcome::Trap(format!("unsupported load funct3 {funct3}"));
                }
                let addr = self.reg(ctx, rs1).add(&ctx.word32(imm_i as u32));
                let mut txn = GenericPayload::read(ctx, addr, 4);
                bus.b_transport(ctx, kernel, &mut txn);
                if !txn.response.is_ok() {
                    return StepOutcome::Trap(format!("load fault: {:?}", txn.response));
                }
                let value = txn.word(0).clone();
                self.set_reg(ctx, rd, value);
            }
            0b0100011 => {
                // sw
                if funct3 != 0b010 {
                    return StepOutcome::Trap(format!("unsupported store funct3 {funct3}"));
                }
                let addr = self.reg(ctx, rs1).add(&ctx.word32(imm_s as u32));
                let mut txn = GenericPayload::write(ctx, addr, 4);
                txn.set_word(0, self.reg(ctx, rs2));
                bus.b_transport(ctx, kernel, &mut txn);
                if !txn.response.is_ok() {
                    return StepOutcome::Trap(format!("store fault: {:?}", txn.response));
                }
            }
            0b0010011 => {
                // OP-IMM
                let a = self.reg(ctx, rs1);
                let imm = ctx.word32(imm_i as u32);
                let one = ctx.word32(1);
                let zero = ctx.word32(0);
                let v = match funct3 {
                    0b000 => a.add(&imm),
                    0b010 => one.select(&a.slt(&imm), &zero),
                    0b011 => one.select(&a.ult(&imm), &zero),
                    0b100 => a.xor(&imm),
                    0b110 => a.or(&imm),
                    0b111 => a.and(&imm),
                    0b001 => a.shl(&ctx.word32(rs2)), // shamt field
                    0b101 => {
                        if funct7 & 0b0100000 != 0 {
                            a.ashr(&ctx.word32(rs2))
                        } else {
                            a.lshr(&ctx.word32(rs2))
                        }
                    }
                    _ => unreachable!("funct3 is 3 bits"),
                };
                self.set_reg(ctx, rd, v);
            }
            0b0110011 => {
                // OP
                let a = self.reg(ctx, rs1);
                let b = self.reg(ctx, rs2);
                let one = ctx.word32(1);
                let zero = ctx.word32(0);
                let mask31 = ctx.word32(31);
                let v = match (funct3, funct7) {
                    (0b000, 0) => a.add(&b),
                    (0b000, 0b0100000) => a.sub(&b),
                    (0b001, 0) => a.shl(&b.and(&mask31)),
                    (0b010, 0) => one.select(&a.slt(&b), &zero),
                    (0b011, 0) => one.select(&a.ult(&b), &zero),
                    (0b100, 0) => a.xor(&b),
                    (0b101, 0) => a.lshr(&b.and(&mask31)),
                    (0b101, 0b0100000) => a.ashr(&b.and(&mask31)),
                    (0b110, 0) => a.or(&b),
                    (0b111, 0) => a.and(&b),
                    _ => {
                        return StepOutcome::Trap(format!(
                            "unsupported OP funct3={funct3} funct7={funct7:#x}"
                        ))
                    }
                };
                self.set_reg(ctx, rd, v);
            }
            0b1110011 => match inst {
                0x0010_0073 => return StepOutcome::Halted, // ebreak
                0x1050_0073 => {
                    // wfi: retire only when the interrupt line is up, and
                    // consume the latched wake — the next wfi parks again
                    // until a fresh notify arrives (ISR-loop pacing).
                    let mut flag = self.interrupt_flag.borrow_mut();
                    if !*flag {
                        return StepOutcome::Wfi;
                    }
                    *flag = false;
                }
                _ => return StepOutcome::Trap(format!("unsupported SYSTEM {inst:#010x}")),
            },
            _ => return StepOutcome::Trap(format!("unsupported opcode {opcode:#09b}")),
        }

        self.pc = next_pc;
        self.retired += 1;
        StepOutcome::Running
    }

    /// Runs until `ebreak`, a trap, a stuck `wfi` (nothing left in the
    /// kernel to wake it), or `max_instructions` retirements.
    ///
    /// On `wfi` the kernel is stepped so simulation time advances while
    /// the hart sleeps — the usual ISS/kernel co-simulation loop.
    pub fn run(
        &mut self,
        ctx: &SymCtx,
        kernel: &mut Kernel,
        bus: &mut dyn BlockingTransport,
        max_instructions: u64,
    ) -> StepOutcome {
        let budget_end = self.retired + max_instructions;
        while self.retired < budget_end {
            match self.step(ctx, kernel, bus) {
                StepOutcome::Running => {}
                StepOutcome::Wfi => {
                    if !kernel.step() {
                        return StepOutcome::Wfi; // nothing will ever wake us
                    }
                }
                done => return done,
            }
        }
        StepOutcome::OutOfFuel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;
    use symsc_symex::{Explorer, Width};
    use symsc_tlm::ResponseStatus;

    /// A 16-word scratch RAM for load/store tests.
    struct Ram {
        words: Vec<SymWord>,
    }

    impl Ram {
        fn new(ctx: &SymCtx) -> Ram {
            Ram {
                words: (0..16).map(|_| ctx.word32(0)).collect(),
            }
        }
    }

    impl BlockingTransport for Ram {
        fn b_transport(&mut self, ctx: &SymCtx, _k: &mut Kernel, p: &mut GenericPayload) {
            let addr = p.address.concretize() as usize;
            let idx = addr / 4;
            if !addr.is_multiple_of(4) || idx >= self.words.len() {
                p.response = ResponseStatus::AddressError;
                return;
            }
            match p.command {
                symsc_tlm::Command::Read => {
                    let w = self.words[idx].clone();
                    p.set_word(0, w);
                }
                symsc_tlm::Command::Write => self.words[idx] = p.word(0).clone(),
            }
            let _ = ctx;
            p.response = ResponseStatus::Ok;
        }
    }

    fn run_program(
        program: Vec<u32>,
        setup: impl Fn(&SymCtx, &mut Cpu) + Sync,
        check: impl Fn(&SymCtx, &Cpu, StepOutcome) + Sync,
    ) -> symsc_symex::Report {
        Explorer::new().explore(move |ctx| {
            let mut kernel = Kernel::new();
            let mut ram = Ram::new(ctx);
            let mut cpu = Cpu::new(ctx, program.clone());
            setup(ctx, &mut cpu);
            let outcome = cpu.run(ctx, &mut kernel, &mut ram, 1000);
            check(ctx, &cpu, outcome);
        })
    }

    #[test]
    fn arithmetic_and_immediates() {
        let mut program = vec![asm::addi(1, 0, 100)];
        program.extend([
            asm::addi(2, 1, -58), // x2 = 42
            asm::add(3, 1, 2),    // x3 = 142
            asm::sub(4, 1, 2),    // x4 = 58
            asm::xori(5, 2, 0xFF),
            asm::slli(6, 2, 4),
            asm::ebreak(),
        ]);
        let report = run_program(
            program,
            |_, _| {},
            |ctx, cpu, outcome| {
                assert_eq!(outcome, StepOutcome::Halted);
                assert_eq!(cpu.reg(ctx, 2).as_const(), Some(42));
                assert_eq!(cpu.reg(ctx, 3).as_const(), Some(142));
                assert_eq!(cpu.reg(ctx, 4).as_const(), Some(58));
                assert_eq!(cpu.reg(ctx, 5).as_const(), Some(42 ^ 0xFF));
                assert_eq!(cpu.reg(ctx, 6).as_const(), Some(42 << 4));
            },
        );
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let program = vec![asm::addi(0, 0, 5), asm::add(1, 0, 0), asm::ebreak()];
        let report = run_program(
            program,
            |_, _| {},
            |ctx, cpu, outcome| {
                assert_eq!(outcome, StepOutcome::Halted);
                assert_eq!(cpu.reg(ctx, 1).as_const(), Some(0));
            },
        );
        assert!(report.passed());
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let program = vec![
            asm::addi(1, 0, 0xBC), // value
            asm::sw(1, 0, 8),      // mem[8] = x1
            asm::lw(2, 0, 8),      // x2 = mem[8]
            asm::ebreak(),
        ];
        let report = run_program(
            program,
            |_, _| {},
            |ctx, cpu, outcome| {
                assert_eq!(outcome, StepOutcome::Halted);
                assert_eq!(cpu.reg(ctx, 2).as_const(), Some(0xBC));
            },
        );
        assert!(report.passed());
    }

    #[test]
    fn symbolic_branch_forks_and_both_sides_verify() {
        // if (x1 < 10) x2 = 1 else x2 = 2
        let program = vec![
            asm::sltiu(3, 1, 10), // x3 = (x1 <u 10)
            asm::beq(3, 0, 12),   // if !x3 jump to else
            asm::addi(2, 0, 1),   // then: x2 = 1
            asm::jal(0, 8),       // skip else
            asm::addi(2, 0, 2),   // else: x2 = 2
            asm::ebreak(),
        ];
        let report = run_program(
            program,
            |ctx, cpu| {
                let x = ctx.symbolic("x", Width::W32);
                cpu.set_reg(ctx, 1, x);
            },
            |ctx, cpu, outcome| {
                assert_eq!(outcome, StepOutcome::Halted);
                let x = ctx.symbolic("x", Width::W32);
                let ten = ctx.word32(10);
                let expected = ctx.word32(1).select(&x.ult(&ten), &ctx.word32(2));
                ctx.check(&cpu.reg(ctx, 2).eq(&expected), "both branch arms correct");
            },
        );
        assert!(report.passed(), "{report}");
        assert_eq!(report.stats.paths, 2, "symbolic branch forks");
    }

    #[test]
    fn countdown_loop_terminates() {
        // x1 = 5; while (x1 != 0) x1 -= 1; x2 = 99
        let program = vec![
            asm::addi(1, 0, 5),
            asm::beq(1, 0, 12), // loop: if x1 == 0 exit
            asm::addi(1, 1, -1),
            asm::jal(0, -8), // back to loop head
            asm::addi(2, 0, 99),
            asm::ebreak(),
        ];
        let report = run_program(
            program,
            |_, _| {},
            |ctx, cpu, outcome| {
                assert_eq!(outcome, StepOutcome::Halted);
                assert_eq!(cpu.reg(ctx, 1).as_const(), Some(0));
                assert_eq!(cpu.reg(ctx, 2).as_const(), Some(99));
                assert!(cpu.retired() > 15, "loop iterated");
            },
        );
        assert!(report.passed());
    }

    #[test]
    fn fetch_outside_program_traps() {
        let program = vec![asm::jal(0, 0x100)];
        let report = run_program(
            program,
            |_, _| {},
            |_, _, outcome| {
                assert!(matches!(outcome, StepOutcome::Trap(m) if m.contains("fetch")));
            },
        );
        assert!(report.passed());
    }

    #[test]
    fn load_fault_traps() {
        let program = vec![asm::lw(1, 0, 0x100), asm::ebreak()]; // beyond RAM
        let report = run_program(
            program,
            |_, _| {},
            |_, _, outcome| {
                assert!(matches!(outcome, StepOutcome::Trap(m) if m.contains("load fault")));
            },
        );
        assert!(report.passed());
    }

    #[test]
    fn jalr_returns_through_a_register() {
        let program = vec![
            asm::jal(1, 12),    // call +12, x1 = return address (4)
            asm::addi(2, 2, 1), // executed after return
            asm::ebreak(),
            asm::addi(2, 0, 10), // callee: x2 = 10
            asm::jalr(0, 1, 0),  // return
        ];
        let report = run_program(
            program,
            |_, _| {},
            |ctx, cpu, outcome| {
                assert_eq!(outcome, StepOutcome::Halted);
                assert_eq!(cpu.reg(ctx, 2).as_const(), Some(11));
            },
        );
        assert!(report.passed());
    }

    #[test]
    fn fuel_exhaustion_is_out_of_fuel_not_a_silent_halt() {
        // An infinite loop must exhaust the budget with the distinct
        // OutOfFuel outcome, never Halted or a decode trap.
        let program = vec![asm::jal(0, 0)];
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut ram = Ram::new(ctx);
            let mut cpu = Cpu::new(ctx, program.clone());
            let outcome = cpu.run(ctx, &mut kernel, &mut ram, 25);
            assert_eq!(outcome, StepOutcome::OutOfFuel);
            assert_eq!(cpu.retired(), 25, "budget spent exactly");
        });
        assert!(report.passed());
    }

    #[test]
    fn fuel_exhaustion_mid_li_sequence_is_out_of_fuel() {
        // li expands to lui+addi; a budget of 1 stops between the two.
        // The partial upper-immediate write must be visible and the
        // outcome must say OutOfFuel so the caller can refuel and resume.
        let value = 0x1234_5678u32;
        let mut program = asm::li(1, value);
        assert!(program.len() >= 2, "li must be a multi-instruction burst");
        program.push(asm::ebreak());
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut ram = Ram::new(ctx);
            let mut cpu = Cpu::new(ctx, program.clone());
            let outcome = cpu.run(ctx, &mut kernel, &mut ram, 1);
            assert_eq!(outcome, StepOutcome::OutOfFuel);
            assert_eq!(cpu.retired(), 1);
            // Refuelling resumes mid-sequence and completes the load.
            let outcome = cpu.run(ctx, &mut kernel, &mut ram, 10);
            assert_eq!(outcome, StepOutcome::Halted);
            assert_eq!(cpu.reg(ctx, 1).as_const(), Some(u64::from(value)));
        });
        assert!(report.passed());
    }

    #[test]
    fn fuel_exhaustion_inside_wfi_is_out_of_fuel() {
        // A wfi with kernel activity but no interrupt burns fuel-less
        // kernel steps; when the kernel goes quiet the outcome is Wfi,
        // but if the budget dies first while instructions retire around
        // the park, the caller must see OutOfFuel.
        let program = vec![
            asm::addi(1, 1, 1), // spin: x1 += 1
            asm::jal(0, -4),
        ];
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut ram = Ram::new(ctx);
            let mut cpu = Cpu::new(ctx, program.clone());
            let outcome = cpu.run(ctx, &mut kernel, &mut ram, 7);
            assert_eq!(outcome, StepOutcome::OutOfFuel);

            // A parked wfi with a dead kernel still reports Wfi, not fuel.
            let mut parked = Cpu::new(ctx, vec![asm::wfi(), asm::ebreak()]);
            let outcome = parked.run(ctx, &mut kernel, &mut ram, 7);
            assert_eq!(outcome, StepOutcome::Wfi);
            assert_eq!(parked.retired(), 0, "wfi did not retire");
        });
        assert!(report.passed());
    }

    #[test]
    fn interrupt_on_exact_fuel_boundary_wakes_before_out_of_fuel() {
        // The interrupt line rises exactly when the last unit of fuel is
        // spent: wfi retires with that final unit and the program halts
        // on the next run call, rather than the wake being lost.
        let program = vec![asm::wfi(), asm::addi(1, 0, 7), asm::ebreak()];
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut ram = Ram::new(ctx);
            let mut cpu = Cpu::new(ctx, program.clone());
            let line = cpu.interrupt_line();

            // Budget 1, line down: parked, no fuel spent on the park.
            assert_eq!(cpu.run(ctx, &mut kernel, &mut ram, 1), StepOutcome::Wfi);
            assert_eq!(cpu.retired(), 0);

            // Line rises; the same single unit of fuel now retires the
            // wfi itself — OutOfFuel, not a lost wake.
            *line.borrow_mut() = true;
            assert_eq!(
                cpu.run(ctx, &mut kernel, &mut ram, 1),
                StepOutcome::OutOfFuel
            );
            assert_eq!(cpu.retired(), 1, "the wfi retired on the boundary");

            // Refuel: execution continues past the wfi to the halt.
            assert_eq!(cpu.run(ctx, &mut kernel, &mut ram, 5), StepOutcome::Halted);
            assert_eq!(cpu.reg(ctx, 1).as_const(), Some(7));
        });
        assert!(report.passed());
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let program = vec![
            asm::addi(1, 0, 5),
            asm::addi(2, 0, 9),
            asm::add(3, 1, 2),
            asm::ebreak(),
        ];
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut ram = Ram::new(ctx);
            let mut cpu = Cpu::new(ctx, program.clone());
            assert_eq!(
                cpu.run(ctx, &mut kernel, &mut ram, 2),
                StepOutcome::OutOfFuel
            );
            let snap = cpu.snapshot();

            assert_eq!(cpu.run(ctx, &mut kernel, &mut ram, 10), StepOutcome::Halted);
            assert_eq!(cpu.reg(ctx, 3).as_const(), Some(14));
            assert_eq!(cpu.retired(), 3);

            cpu.restore(&snap);
            assert_eq!(cpu.pc(), 8);
            assert_eq!(cpu.retired(), 2);
            assert_eq!(cpu.reg(ctx, 3).as_const(), Some(0), "add undone");

            // Replay from the snapshot reaches the same halt state.
            assert_eq!(cpu.run(ctx, &mut kernel, &mut ram, 10), StepOutcome::Halted);
            assert_eq!(cpu.reg(ctx, 3).as_const(), Some(14));
        });
        assert!(report.passed());
    }

    #[test]
    fn signed_ops_match_two_complement() {
        let program = vec![
            asm::addi(1, 0, -5),
            asm::addi(2, 0, 3),
            asm::slt(3, 1, 2),  // -5 < 3 (signed) = 1
            asm::sltu(4, 1, 2), // huge < 3 (unsigned) = 0
            asm::srai(5, 1, 1), // -5 >> 1 = -3 (arith)
            asm::ebreak(),
        ];
        let report = run_program(
            program,
            |_, _| {},
            |ctx, cpu, outcome| {
                assert_eq!(outcome, StepOutcome::Halted);
                assert_eq!(cpu.reg(ctx, 3).as_const(), Some(1));
                assert_eq!(cpu.reg(ctx, 4).as_const(), Some(0));
                assert_eq!(cpu.reg(ctx, 5).as_const(), Some((-3i32) as u32 as u64));
            },
        );
        assert!(report.passed());
    }
}
