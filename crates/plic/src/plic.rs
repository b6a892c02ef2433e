//! The PLIC module façade: construction, the interrupt gateway, and the
//! TLM register interface.

use std::cell::RefCell;
use std::rc::Rc;

use symsc_pk::Kernel;
use symsc_symex::{SymArray, SymCtx, SymWord, Width};
use symsc_tlm::{
    Access, BlockingTransport, CheckMode, GenericPayload, RegisterBank, RegisterModel,
};

use crate::config::{
    PlicConfig, PlicVariant, CLAIM_BASE, CONTEXT_STRIDE, ENABLE_BASE, ENABLE_STRIDE, PENDING_BASE,
    PRIORITY_BASE, THRESHOLD_BASE,
};
use crate::process::RunThread;
use crate::state::PlicState;

/// The HART side of the interrupt line: what the PLIC notifies when an
/// external interrupt becomes deliverable (`trigger_external_interrupt()`
/// in the VP).
pub trait InterruptTarget {
    /// Called by the PLIC's `run` thread when it raises the external
    /// interrupt pending signal toward this HART.
    fn trigger_external_interrupt(&mut self);
}

/// What a register region decodes to (regions are per HART where the
/// architecture says so).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RegionKind {
    Priority,
    Pending,
    Enable(usize),
    Threshold(usize),
    Claim(usize),
}

/// The Platform-Level Interrupt Controller TLM peripheral.
///
/// # Example
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use symsc_pk::Kernel;
/// use symsc_plic::{Plic, PlicConfig, PlicVariant, InterruptTarget};
/// use symsc_symex::Explorer;
///
/// struct Hart { triggered: bool }
/// impl InterruptTarget for Hart {
///     fn trigger_external_interrupt(&mut self) { self.triggered = true; }
/// }
///
/// let report = Explorer::new().explore(|ctx| {
///     let mut kernel = Kernel::new();
///     let plic = Plic::new(ctx, &mut kernel, PlicConfig::fe310().variant(PlicVariant::Fixed));
///     let hart = Rc::new(RefCell::new(Hart { triggered: false }));
///     plic.connect_hart(hart.clone());
///     kernel.step(); // initialization
///
///     plic.enable_all_sources(ctx);
///     plic.set_priority(ctx, 5, 3);
///     plic.trigger_interrupt(ctx, &mut kernel, &ctx.word32(5));
///     kernel.step(); // deliver
///     assert!(hart.borrow().triggered);
/// });
/// assert!(report.passed());
/// ```
pub struct Plic {
    state: Rc<RefCell<PlicState>>,
    bank: RegisterBank,
    kinds: Vec<RegionKind>,
}

impl std::fmt::Debug for Plic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plic")
            .field("state", &*self.state.borrow())
            .finish()
    }
}

impl Plic {
    /// Instantiates the PLIC: builds the register map, creates the `e_run`
    /// event and spawns the translated `run` thread on `kernel`.
    pub fn new(ctx: &SymCtx, kernel: &mut Kernel, config: PlicConfig) -> Plic {
        let e_run = kernel.create_event("plic.e_run");
        let state = Rc::new(RefCell::new(PlicState::new(ctx, config, e_run)));
        kernel.spawn("plic.run", RunThread::new(state.clone()));

        let check_mode = match config.variant {
            PlicVariant::Faithful => CheckMode::Assert,
            PlicVariant::Fixed => CheckMode::TlmError,
        };
        let words = config.bitmap_words();
        let mut bank = RegisterBank::new(check_mode)
            .region(
                "interrupt_priorities",
                PRIORITY_BASE,
                config.sources as usize,
                Access::ReadWrite,
            )
            .region("pending_interrupts", PENDING_BASE, words, Access::ReadOnly);
        let mut kinds = vec![RegionKind::Priority, RegionKind::Pending];
        for hart in 0..config.harts as usize {
            bank = bank.region(
                &format!("enabled_interrupts_hart{hart}"),
                ENABLE_BASE + hart as u64 * ENABLE_STRIDE,
                words,
                Access::ReadWrite,
            );
            kinds.push(RegionKind::Enable(hart));
        }
        for hart in 0..config.harts as usize {
            let ctx_base = hart as u64 * CONTEXT_STRIDE;
            bank = bank
                .region(
                    &format!("priority_threshold_hart{hart}"),
                    THRESHOLD_BASE + ctx_base,
                    1,
                    Access::ReadWrite,
                )
                .region(
                    &format!("claim_response_hart{hart}"),
                    CLAIM_BASE + ctx_base,
                    1,
                    Access::ReadWrite,
                );
            kinds.push(RegionKind::Threshold(hart));
            kinds.push(RegionKind::Claim(hart));
        }

        Plic { state, bank, kinds }
    }

    /// The static configuration.
    pub fn config(&self) -> PlicConfig {
        self.state.borrow().config
    }

    /// The register decode (exposed for examples that print the map).
    pub fn bank(&self) -> &RegisterBank {
        &self.bank
    }

    /// Connects HART 0's interrupt line (the FE310 convenience).
    pub fn connect_hart(&self, target: Rc<RefCell<dyn InterruptTarget>>) {
        self.connect_hart_n(0, target);
    }

    /// Connects the interrupt line of HART `hart`.
    ///
    /// # Panics
    ///
    /// Panics if `hart` is out of range for the configuration.
    pub fn connect_hart_n(&self, hart: usize, target: Rc<RefCell<dyn InterruptTarget>>) {
        self.state.borrow_mut().targets[hart] = Some(target);
    }

    /// The interrupt gateway (custom interface function of the paper's
    /// testbenches): an external source raises interrupt `irq`.
    pub fn trigger_interrupt(&self, _ctx: &SymCtx, kernel: &mut Kernel, irq: &SymWord) {
        self.state.borrow_mut().gateway_trigger(kernel, irq);
    }

    /// Whether the external-interrupt-pending flag toward HART 0 is up.
    pub fn hart_eip(&self) -> bool {
        self.hart_eip_n(0)
    }

    /// Whether the external-interrupt-pending flag toward `hart` is up.
    pub fn hart_eip_n(&self, hart: usize) -> bool {
        self.state.borrow().hart_eip[hart]
    }

    /// Testbench convenience: enable every source for every HART.
    pub fn enable_all_sources(&self, ctx: &SymCtx) {
        let st = &mut *self.state.borrow_mut();
        for hart in 0..st.config.harts as usize {
            for flag in 0..st.enabled[hart].len() {
                st.enabled[hart].set(flag, ctx.word(1, Width::W1));
            }
        }
    }

    /// Testbench convenience: set `priority[irq]` directly (concrete id).
    ///
    /// # Panics
    ///
    /// Panics if `irq` is out of range.
    pub fn set_priority(&self, ctx: &SymCtx, irq: u32, priority: u32) {
        let st = &mut *self.state.borrow_mut();
        assert!(
            irq >= 1 && irq <= st.config.sources,
            "set_priority: id {irq} out of range"
        );
        st.priorities.set(irq as usize, ctx.word32(priority));
    }

    /// Testbench convenience: set `priority[irq]` to a symbolic value.
    pub fn set_priority_symbolic(&self, irq: &SymWord, priority: &SymWord) {
        let st = &mut *self.state.borrow_mut();
        st.priorities.store(irq, priority);
    }

    /// Testbench convenience: set the HART-0 threshold.
    pub fn set_threshold(&self, threshold: SymWord) {
        self.set_threshold_n(0, threshold);
    }

    /// Testbench convenience: set the threshold of `hart`.
    pub fn set_threshold_n(&self, hart: usize, threshold: SymWord) {
        self.state.borrow_mut().threshold[hart] = threshold;
    }

    /// Direct view of the pending bit of a concrete id (for assertions).
    pub fn pending_bit(&self, irq: u32) -> symsc_symex::SymBool {
        self.state.borrow().pending_bit(irq)
    }

    /// The pending bit of a symbolic id (for assertions on symbolic
    /// stimulus, e.g. the paper's T1).
    pub fn pending_bit_symbolic(&self, irq: &SymWord) -> symsc_symex::SymBool {
        self.state.borrow().pending_bit_symbolic(irq)
    }

    /// The best interrupt deliverable to HART 0 right now (id 0 if none);
    /// exposed for oracle-based property tests.
    pub fn next_deliverable(&self) -> SymWord {
        self.next_deliverable_n(0)
    }

    /// The best interrupt deliverable to `hart` right now (id 0 if none).
    pub fn next_deliverable_n(&self, hart: usize) -> SymWord {
        self.state.borrow().next_pending_interrupt(hart, true)
    }

    /// Captures the register state — priorities, pending and enable
    /// bitmaps, thresholds, `hart_eip` lines — as a cheap snapshot. The
    /// bitmaps are [`SymArray`]s backed by copy-on-write chunked storage,
    /// so the capture (and any clone of it) is a handful of Arc bumps; a
    /// post-snapshot register write copies only the chunk it lands in.
    pub fn snapshot(&self) -> PlicSnapshot {
        let st = self.state.borrow();
        PlicSnapshot {
            priorities: st.priorities.clone(),
            pending: st.pending.clone(),
            enabled: st.enabled.clone(),
            threshold: st.threshold.clone(),
            hart_eip: st.hart_eip.clone(),
        }
    }

    /// Restores the register state captured by
    /// [`snapshot`](Plic::snapshot). Writes made after the snapshot are
    /// discarded; sibling snapshots taken from the same state are never
    /// affected (each holds its own copy-on-write view).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot comes from a PLIC with a different
    /// source/HART topology.
    pub fn restore(&self, snapshot: &PlicSnapshot) {
        let mut st = self.state.borrow_mut();
        assert_eq!(
            snapshot.priorities.len(),
            st.priorities.len(),
            "snapshot topology mismatch: source count differs"
        );
        assert_eq!(
            snapshot.threshold.len(),
            st.threshold.len(),
            "snapshot topology mismatch: HART count differs"
        );
        st.priorities = snapshot.priorities.clone();
        st.pending = snapshot.pending.clone();
        st.enabled = snapshot.enabled.clone();
        st.threshold = snapshot.threshold.clone();
        st.hart_eip = snapshot.hart_eip.clone();
    }
}

/// An immutable capture of a [`Plic`]'s register state.
///
/// Produced by [`Plic::snapshot`]; consumed by [`Plic::restore`]. Both
/// the capture and `clone` cost O(chunks) Arc bumps — the symbolic
/// register words themselves are never deep-copied — so a path engine
/// can hold one snapshot per pending fork.
#[derive(Clone, Debug)]
pub struct PlicSnapshot {
    priorities: SymArray,
    pending: SymArray,
    enabled: Vec<SymArray>,
    threshold: Vec<SymWord>,
    hart_eip: Vec<bool>,
}

/// The word-level register backend: routes decoded accesses to the PLIC
/// state, including the claim/complete side effects.
struct PlicRegs {
    state: Rc<RefCell<PlicState>>,
    kinds: Vec<RegionKind>,
}

impl RegisterModel for PlicRegs {
    fn read_word(
        &mut self,
        ctx: &SymCtx,
        _kernel: &mut Kernel,
        region: usize,
        word_index: &SymWord,
    ) -> SymWord {
        let st = &mut *self.state.borrow_mut();
        match self.kinds[region] {
            RegionKind::Priority => {
                // word w holds priority[w + 1]
                let one = ctx.word32(1);
                let irq = word_index.add(&one);
                st.priorities.select(&irq)
            }
            RegionKind::Pending => st.bitmap_register_word(&st.pending.clone(), word_index),
            RegionKind::Enable(hart) => {
                st.bitmap_register_word(&st.enabled[hart].clone(), word_index)
            }
            RegionKind::Threshold(hart) => st.threshold[hart].clone(),
            RegionKind::Claim(hart) => st.claim(hart),
        }
    }

    fn write_word(
        &mut self,
        ctx: &SymCtx,
        kernel: &mut Kernel,
        region: usize,
        word_index: &SymWord,
        value: &SymWord,
    ) {
        let st = &mut *self.state.borrow_mut();
        match self.kinds[region] {
            RegionKind::Priority => {
                let one = ctx.word32(1);
                let irq = word_index.add(&one);
                st.priorities.store(&irq, value);
            }
            RegionKind::Pending => unreachable!("pending region is read-only"),
            RegionKind::Enable(hart) => {
                let config = st.config;
                let mut map = st.enabled[hart].clone();
                crate::state::PlicState::bitmap_register_write(
                    &mut map, &config, word_index, value, ctx,
                );
                st.enabled[hart] = map;
            }
            RegionKind::Threshold(hart) => st.threshold[hart] = value.clone(),
            RegionKind::Claim(hart) => st.complete(kernel, hart, value),
        }
    }
}

impl BlockingTransport for Plic {
    fn b_transport(&mut self, ctx: &SymCtx, kernel: &mut Kernel, payload: &mut GenericPayload) {
        let mut regs = PlicRegs {
            state: self.state.clone(),
            kinds: self.kinds.clone(),
        };
        self.bank.transport(&mut regs, ctx, kernel, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_pk::SimTime;
    use symsc_symex::{Explorer, Width};
    use symsc_tlm::{Command, ResponseStatus};

    struct Hart {
        triggered: u32,
    }

    impl InterruptTarget for Hart {
        fn trigger_external_interrupt(&mut self) {
            self.triggered += 1;
        }
    }

    fn fixed() -> PlicConfig {
        PlicConfig::fe310().variant(PlicVariant::Fixed)
    }

    fn read_reg(
        ctx: &SymCtx,
        kernel: &mut Kernel,
        plic: &mut Plic,
        addr: u32,
    ) -> (SymWord, ResponseStatus) {
        let mut p = GenericPayload::read(ctx, ctx.word32(addr), 4);
        plic.b_transport(ctx, kernel, &mut p);
        let status = p.response;
        (p.word(0).clone(), status)
    }

    fn write_reg(
        ctx: &SymCtx,
        kernel: &mut Kernel,
        plic: &mut Plic,
        addr: u32,
        value: &SymWord,
    ) -> ResponseStatus {
        let mut p = GenericPayload::write(ctx, ctx.word32(addr), 4);
        p.set_word(0, value.clone());
        plic.b_transport(ctx, kernel, &mut p);
        p.response
    }

    #[test]
    fn register_map_round_trips() {
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut plic = Plic::new(ctx, &mut kernel, fixed());
            kernel.step();

            // priority[5] at 0x4 + 4*(5-1) = 0x14
            let st = write_reg(ctx, &mut kernel, &mut plic, 0x14, &ctx.word32(3));
            assert!(st.is_ok());
            let (v, st) = read_reg(ctx, &mut kernel, &mut plic, 0x14);
            assert!(st.is_ok());
            ctx.check(&v.eq(&ctx.word32(3)), "priority[5] readback");

            // enable word 0 at 0x2000
            let st = write_reg(ctx, &mut kernel, &mut plic, 0x2000, &ctx.word32(0xFF));
            assert!(st.is_ok());
            let (v, _) = read_reg(ctx, &mut kernel, &mut plic, 0x2000);
            ctx.check(&v.eq(&ctx.word32(0xFF)), "enable readback");

            // threshold at 0x20_0000
            let st = write_reg(ctx, &mut kernel, &mut plic, 0x20_0000, &ctx.word32(2));
            assert!(st.is_ok());
            let (v, _) = read_reg(ctx, &mut kernel, &mut plic, 0x20_0000);
            ctx.check(&v.eq(&ctx.word32(2)), "threshold readback");
        });
        assert!(report.passed());
    }

    #[test]
    fn pending_region_is_read_only() {
        Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut plic = Plic::new(ctx, &mut kernel, fixed());
            kernel.step();
            let st = write_reg(ctx, &mut kernel, &mut plic, 0x1000, &ctx.word32(1));
            assert_eq!(st, ResponseStatus::CommandError);
        });
    }

    #[test]
    fn full_interrupt_life_cycle() {
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut plic = Plic::new(ctx, &mut kernel, fixed());
            let hart = Rc::new(RefCell::new(Hart { triggered: 0 }));
            plic.connect_hart(hart.clone());
            kernel.step(); // init

            plic.enable_all_sources(ctx);
            plic.set_priority(ctx, 9, 4);
            plic.trigger_interrupt(ctx, &mut kernel, &ctx.word32(9));
            assert_eq!(hart.borrow().triggered, 0, "not before the clock edge");
            kernel.step(); // e_run fires one cycle later
            assert_eq!(hart.borrow().triggered, 1);
            assert!(plic.hart_eip());

            // Claim: read 0x20_0004.
            let (claimed, st) = read_reg(ctx, &mut kernel, &mut plic, 0x20_0004);
            assert!(st.is_ok());
            ctx.check(&claimed.eq(&ctx.word32(9)), "claims irq 9");
            ctx.check(&plic.pending_bit(9).not(), "pending cleared by claim");

            // Complete: write the id back.
            let st = write_reg(ctx, &mut kernel, &mut plic, 0x20_0004, &claimed);
            assert!(st.is_ok());
            assert!(!plic.hart_eip());

            // No further interrupt: the re-trigger finds nothing.
            kernel.step();
            assert_eq!(hart.borrow().triggered, 1);
        });
        assert!(report.passed(), "life cycle must be clean: {report}");
    }

    #[test]
    fn retrigger_after_complete_delivers_second_interrupt() {
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut plic = Plic::new(ctx, &mut kernel, fixed());
            let hart = Rc::new(RefCell::new(Hart { triggered: 0 }));
            plic.connect_hart(hart.clone());
            kernel.step();

            plic.enable_all_sources(ctx);
            plic.set_priority(ctx, 3, 5);
            plic.set_priority(ctx, 8, 2);
            plic.trigger_interrupt(ctx, &mut kernel, &ctx.word32(3));
            plic.trigger_interrupt(ctx, &mut kernel, &ctx.word32(8));
            kernel.step();
            assert_eq!(hart.borrow().triggered, 1);

            // Claim returns the higher-priority irq 3.
            let (first, _) = read_reg(ctx, &mut kernel, &mut plic, 0x20_0004);
            ctx.check(&first.eq(&ctx.word32(3)), "higher priority first");
            write_reg(ctx, &mut kernel, &mut plic, 0x20_0004, &first);

            // The completion re-notifies e_run; irq 8 is still pending.
            kernel.step();
            assert_eq!(hart.borrow().triggered, 2, "second delivery");
            let (second, _) = read_reg(ctx, &mut kernel, &mut plic, 0x20_0004);
            ctx.check(&second.eq(&ctx.word32(8)), "then the lower one");
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn eip_suppresses_retrigger_until_complete() {
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let plic = Plic::new(ctx, &mut kernel, fixed());
            let hart = Rc::new(RefCell::new(Hart { triggered: 0 }));
            plic.connect_hart(hart.clone());
            kernel.step();

            plic.enable_all_sources(ctx);
            plic.set_priority(ctx, 2, 1);
            plic.set_priority(ctx, 4, 1);
            plic.trigger_interrupt(ctx, &mut kernel, &ctx.word32(2));
            kernel.step();
            assert_eq!(hart.borrow().triggered, 1);
            // A second interrupt while eip is raised must not re-trigger.
            plic.trigger_interrupt(ctx, &mut kernel, &ctx.word32(4));
            kernel.step();
            assert_eq!(hart.borrow().triggered, 1, "suppressed while eip");
        });
        assert!(report.passed());
    }

    #[test]
    fn transaction_accumulates_delay() {
        Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut plic = Plic::new(ctx, &mut kernel, fixed());
            kernel.step();
            let mut p = GenericPayload::read(ctx, ctx.word32(0x1000), 4);
            assert_eq!(p.delay, SimTime::ZERO);
            plic.b_transport(ctx, &mut kernel, &mut p);
            assert!(p.delay > SimTime::ZERO, "TLM timing annotation");
        });
    }

    #[test]
    fn symbolic_priority_write_reaches_symbolic_slot() {
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut plic = Plic::new(ctx, &mut kernel, fixed());
            kernel.step();
            let irq = ctx.symbolic("irq", Width::W32);
            ctx.assume(&irq.uge(&ctx.word32(1)));
            ctx.assume(&irq.ule(&ctx.word32(51)));
            // priority[irq] lives at 4 * irq.
            let four = ctx.word32(4);
            let addr = irq.mul(&four);
            let mut p = GenericPayload::write(ctx, addr.clone(), 4);
            p.set_word(0, ctx.word32(6));
            plic.b_transport(ctx, &mut kernel, &mut p);
            assert_eq!(p.response, ResponseStatus::Ok);
            let mut r = GenericPayload::read(ctx, addr, 4);
            plic.b_transport(ctx, &mut kernel, &mut r);
            ctx.check(&r.word(0).eq(&ctx.word32(6)), "symbolic slot readback");
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn claim_read_before_thread_runs_is_safe_in_both_variants() {
        // The F6 race is on the *write*; a claim read straight after
        // trigger returns the pending id in both variants.
        for variant in [PlicVariant::Faithful, PlicVariant::Fixed] {
            let report = Explorer::new().explore(move |ctx| {
                let mut kernel = Kernel::new();
                let cfg = PlicConfig::fe310().variant(variant);
                let mut plic = Plic::new(ctx, &mut kernel, cfg);
                kernel.step();
                plic.enable_all_sources(ctx);
                plic.set_priority(ctx, 6, 1);
                plic.trigger_interrupt(ctx, &mut kernel, &ctx.word32(6));
                // No kernel.step(): the PLIC thread has not run yet.
                let (claimed, st) = read_reg(ctx, &mut kernel, &mut plic, 0x20_0004);
                assert!(st.is_ok());
                ctx.check(&claimed.eq(&ctx.word32(6)), "claimable before delivery");
            });
            assert!(report.passed(), "variant {variant:?}: {report}");
        }
    }

    #[test]
    fn f6_race_write_before_thread_runs() {
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut plic = Plic::new(ctx, &mut kernel, PlicConfig::fe310());
            kernel.step();
            plic.enable_all_sources(ctx);
            plic.set_priority(ctx, 6, 1);
            plic.trigger_interrupt(ctx, &mut kernel, &ctx.word32(6));
            // Completion write racing ahead of the PLIC thread: F6.
            write_reg(ctx, &mut kernel, &mut plic, 0x20_0004, &ctx.word32(6));
        });
        assert_eq!(report.distinct_errors().len(), 1);
        assert!(report.errors[0]
            .message
            .contains("without external interrupt in flight"));
    }

    #[test]
    fn misaligned_access_faithful_vs_fixed() {
        // Faithful: assertion (F2). Fixed: AddressError.
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut plic = Plic::new(ctx, &mut kernel, PlicConfig::fe310());
            kernel.step();
            let mut p = GenericPayload::read(ctx, ctx.word32(0x6), 4);
            plic.b_transport(ctx, &mut kernel, &mut p);
        });
        assert_eq!(report.distinct_errors().len(), 1);

        Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let mut plic = Plic::new(ctx, &mut kernel, fixed());
            kernel.step();
            let mut p = GenericPayload::read(ctx, ctx.word32(0x6), 4);
            plic.b_transport(ctx, &mut kernel, &mut p);
            assert_eq!(p.response, ResponseStatus::AddressError);
        });
    }

    #[test]
    fn write_command_enum_is_exposed() {
        // Guard against accidental API regressions used by testbenches.
        assert_ne!(Command::Read, Command::Write);
    }

    // ----- multi-HART -----

    #[test]
    fn two_harts_deliver_and_claim_independently() {
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let cfg = fixed().harts(2);
            let mut plic = Plic::new(ctx, &mut kernel, cfg);
            let h0 = Rc::new(RefCell::new(Hart { triggered: 0 }));
            let h1 = Rc::new(RefCell::new(Hart { triggered: 0 }));
            plic.connect_hart_n(0, h0.clone());
            plic.connect_hart_n(1, h1.clone());
            kernel.step();

            // Enable irq 3 only for hart 0 and irq 5 only for hart 1,
            // through the real per-hart enable registers.
            plic.set_priority(ctx, 3, 1);
            plic.set_priority(ctx, 5, 1);
            write_reg(ctx, &mut kernel, &mut plic, 0x2000, &ctx.word32(1 << 3));
            write_reg(ctx, &mut kernel, &mut plic, 0x2080, &ctx.word32(1 << 5));

            plic.trigger_interrupt(ctx, &mut kernel, &ctx.word32(3));
            plic.trigger_interrupt(ctx, &mut kernel, &ctx.word32(5));
            kernel.step();
            assert_eq!(h0.borrow().triggered, 1, "hart 0 notified");
            assert_eq!(h1.borrow().triggered, 1, "hart 1 notified");

            // Each hart claims its own enabled interrupt.
            let (c0, _) = read_reg(ctx, &mut kernel, &mut plic, 0x20_0004);
            ctx.check(&c0.eq(&ctx.word32(3)), "hart 0 claims irq 3");
            let (c1, _) = read_reg(ctx, &mut kernel, &mut plic, 0x20_1004);
            ctx.check(&c1.eq(&ctx.word32(5)), "hart 1 claims irq 5");

            // Completion is per hart too.
            write_reg(ctx, &mut kernel, &mut plic, 0x20_0004, &c0);
            assert!(!plic.hart_eip_n(0));
            assert!(plic.hart_eip_n(1), "hart 1 still in flight");
            write_reg(ctx, &mut kernel, &mut plic, 0x20_1004, &c1);
            assert!(!plic.hart_eip_n(1));
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn per_hart_thresholds_mask_independently() {
        let report = Explorer::new().explore(|ctx| {
            let mut kernel = Kernel::new();
            let cfg = fixed().harts(2);
            let plic = Plic::new(ctx, &mut kernel, cfg);
            let h0 = Rc::new(RefCell::new(Hart { triggered: 0 }));
            let h1 = Rc::new(RefCell::new(Hart { triggered: 0 }));
            plic.connect_hart_n(0, h0.clone());
            plic.connect_hart_n(1, h1.clone());
            kernel.step();

            plic.enable_all_sources(ctx);
            plic.set_priority(ctx, 4, 2);
            plic.set_threshold_n(1, ctx.word32(5)); // masks priority 2
            plic.trigger_interrupt(ctx, &mut kernel, &ctx.word32(4));
            kernel.step();
            assert_eq!(h0.borrow().triggered, 1, "hart 0 delivered");
            assert_eq!(h1.borrow().triggered, 0, "hart 1 masked");
        });
        assert!(report.passed(), "{report}");
    }
}
