//! The cross-level checker: one symbolic transaction stream driving the
//! TLM PLIC and the cycle-level model in lockstep, with observable
//! equivalence asserted path by path on the solver.
//!
//! Every operation is applied to *both* models — the TLM side through
//! its real blocking-transport/gateway interfaces, the cycle side
//! through the [`CycleAdapter`]'s timing contract — and every
//! observation is cross-checked: interrupt lines and notification
//! counts concretely per path, claim ids and the architectural register
//! file as symbolic equalities the solver discharges. A mutant injected
//! into either level therefore fails against the other level as oracle,
//! with no expected-value bookkeeping in the testbench at all.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use symsc_pk::{Kernel, SimTime};
use symsc_plic::config::{
    CLAIM_BASE, CONTEXT_STRIDE, ENABLE_BASE, ENABLE_STRIDE, PENDING_BASE, PRIORITY_BASE,
    THRESHOLD_BASE,
};
use symsc_plic::{InterruptTarget, Plic, PlicConfig};
use symsc_symex::{SymCtx, SymWord};
use symsc_tlm::{BlockingTransport, GenericPayload};

use crate::adapter::CycleAdapter;

/// The TLM side's interrupt sink: counts rising edges of the external
/// interrupt line, the cross-level twin of the cycle model's rise
/// counters.
struct CountingTarget {
    rises: Rc<Cell<u32>>,
}

impl InterruptTarget for CountingTarget {
    fn trigger_external_interrupt(&mut self) {
        self.rises.set(self.rises.get() + 1);
    }
}

/// Drives the TLM PLIC and the cycle-level model from one transaction
/// stream and asserts observable equivalence after every step.
pub struct CrossChecker {
    ctx: SymCtx,
    kernel: Kernel,
    plic: Plic,
    rises: Vec<Rc<Cell<u32>>>,
    adapter: CycleAdapter,
    now: SimTime,
}

impl CrossChecker {
    /// Builds the paired testbench: the TLM model from `tlm_config`, the
    /// cycle model from `cycle_config`. The two configurations must
    /// agree on topology (sources, harts, clock) — they are *meant* to
    /// differ in variant or injected mutation, which is what the checker
    /// detects.
    ///
    /// # Panics
    ///
    /// Panics if the configurations disagree on topology.
    pub fn new(ctx: &SymCtx, tlm_config: PlicConfig, cycle_config: PlicConfig) -> CrossChecker {
        assert_eq!(
            tlm_config.sources, cycle_config.sources,
            "cross-check requires the same source count at both levels"
        );
        assert_eq!(
            tlm_config.harts, cycle_config.harts,
            "cross-check requires the same hart count at both levels"
        );
        assert_eq!(
            tlm_config.clock_cycle, cycle_config.clock_cycle,
            "cross-check requires the same clock at both levels"
        );
        let mut kernel = Kernel::new();
        let plic = Plic::new(ctx, &mut kernel, tlm_config);
        let rises: Vec<Rc<Cell<u32>>> = (0..tlm_config.harts)
            .map(|_| Rc::new(Cell::new(0)))
            .collect();
        for (hart, count) in rises.iter().enumerate() {
            plic.connect_hart_n(
                hart,
                Rc::new(RefCell::new(CountingTarget {
                    rises: Rc::clone(count),
                })),
            );
        }
        kernel.step();
        let adapter = CycleAdapter::new(ctx, cycle_config, tlm_config.clock_cycle);
        CrossChecker {
            ctx: ctx.clone(),
            kernel,
            plic,
            rises,
            adapter,
            now: SimTime::ZERO,
        }
    }

    /// The TLM side's configuration.
    pub fn config(&self) -> PlicConfig {
        self.plic.config()
    }

    /// The TLM model under check.
    pub fn plic(&self) -> &Plic {
        &self.plic
    }

    /// The cycle-level model under check.
    pub fn cycle(&self) -> &CycleAdapter {
        &self.adapter
    }

    /// Current simulated time (whole clock periods since reset).
    pub fn now(&self) -> SimTime {
        self.now
    }

    // ----- stimulus (applied to both levels) -----

    /// Enables every source for every hart at both levels.
    pub fn enable_all(&mut self) {
        self.plic.enable_all_sources(&self.ctx);
        self.adapter.model_mut().enable_all();
    }

    /// Sets `priority[irq]` (symbolic id, symbolic value) at both
    /// levels. Direct stores bypass the register decode, so the caller
    /// must constrain `irq` to `1..=sources`.
    pub fn set_priority(&mut self, irq: &SymWord, priority: &SymWord) {
        self.plic.set_priority_symbolic(irq, priority);
        self.adapter
            .model_mut()
            .set_priority_symbolic(irq, priority);
    }

    /// Sets `hart`'s threshold register at both levels (through the TLM
    /// register decode on the TLM side).
    pub fn set_threshold(&mut self, hart: usize, value: &SymWord) {
        let addr = (THRESHOLD_BASE + hart as u64 * CONTEXT_STRIDE) as u32;
        self.tlm_write(addr, value);
        self.adapter.model_mut().write_threshold(hart, value);
    }

    /// Writes word `word_index` of `hart`'s enable bitmap (symbolic
    /// value) at both levels.
    pub fn write_enable_word(&mut self, hart: usize, word_index: u32, value: &SymWord) {
        let addr = (ENABLE_BASE + hart as u64 * ENABLE_STRIDE) as u32 + 4 * word_index;
        self.tlm_write(addr, value);
        let index = self.ctx.word32(word_index);
        self.adapter
            .model_mut()
            .write_enable_word(hart, &index, value);
    }

    /// Fires interrupt line `irq` (symbolic) at both gateways.
    pub fn trigger(&mut self, irq: &SymWord) {
        self.plic
            .trigger_interrupt(&self.ctx, &mut self.kernel, irq);
        self.adapter.trigger(irq);
    }

    // ----- the clock, with the line checks -----

    /// Advances both levels by one clock period, then cross-checks the
    /// per-hart interrupt lines and notification counts.
    pub fn step(&mut self) {
        self.now += self.config().clock_cycle;
        self.kernel.run_until(self.now);
        self.adapter.advance(self.now);
        self.check_lines();
    }

    /// Advances both levels by `periods` clock periods, checking the
    /// lines after each.
    pub fn step_n(&mut self, periods: u32) {
        for _ in 0..periods {
            self.step();
        }
    }

    /// Cross-checks the interrupt line and rise count of every hart
    /// (concrete per path — the lines are concrete at both levels).
    pub fn check_lines(&self) {
        for hart in 0..self.config().harts as usize {
            self.ctx.check_concrete(
                self.plic.hart_eip_n(hart) == self.adapter.model().eip_n(hart),
                "external interrupt line agrees across levels",
            );
            self.ctx.check_concrete(
                self.rises[hart].get() == self.adapter.model().rises_n(hart),
                "interrupt notification count agrees across levels",
            );
        }
    }

    // ----- the handshake -----

    /// Claims on `hart` at both levels and checks the claimed ids are
    /// equal on the solver. Returns the TLM side's id.
    pub fn claim(&mut self, hart: usize) -> SymWord {
        let addr = (CLAIM_BASE + hart as u64 * CONTEXT_STRIDE) as u32;
        let tlm_id = self.tlm_read(addr);
        let cycle_id = self.adapter.claim(hart);
        self.ctx
            .check(&tlm_id.eq(&cycle_id), "claimed id agrees across levels");
        tlm_id
    }

    /// Completes `id` on `hart` at both levels (the effects — line drop,
    /// redelivery — are cross-checked by the following steps).
    pub fn complete(&mut self, hart: usize, id: &SymWord) {
        let addr = (CLAIM_BASE + hart as u64 * CONTEXT_STRIDE) as u32;
        self.tlm_write(addr, id);
        self.adapter.complete(hart, id);
    }

    // ----- the register sweep -----

    /// Reads every side-effect-free architectural register at both
    /// levels — priority words, the pending bitmap, every hart's enable
    /// bitmap and threshold — and checks each pair equal on the solver.
    /// (The claim register is excluded: reading it is the handshake.)
    pub fn check_registers(&mut self) {
        let config = self.config();
        for w in 0..config.sources {
            let tlm = self.tlm_read((PRIORITY_BASE + 4 * u64::from(w)) as u32);
            let cycle = self.adapter.model().read_priority_word(&self.ctx.word32(w));
            self.ctx
                .check(&tlm.eq(&cycle), "priority register agrees across levels");
        }
        for w in 0..config.bitmap_words() as u32 {
            let tlm = self.tlm_read((PENDING_BASE + 4 * u64::from(w)) as u32);
            let cycle = self.adapter.model().read_pending_word(&self.ctx.word32(w));
            self.ctx
                .check(&tlm.eq(&cycle), "pending bitmap agrees across levels");
        }
        for hart in 0..config.harts as usize {
            for w in 0..config.bitmap_words() as u32 {
                let addr = (ENABLE_BASE + hart as u64 * ENABLE_STRIDE) as u32 + 4 * w;
                let tlm = self.tlm_read(addr);
                let cycle = self
                    .adapter
                    .model()
                    .read_enable_word(hart, &self.ctx.word32(w));
                self.ctx
                    .check(&tlm.eq(&cycle), "enable bitmap agrees across levels");
            }
            let addr = (THRESHOLD_BASE + hart as u64 * CONTEXT_STRIDE) as u32;
            let tlm = self.tlm_read(addr);
            let cycle = self.adapter.model().read_threshold(hart);
            self.ctx
                .check(&tlm.eq(&cycle), "threshold register agrees across levels");
        }
    }

    // ----- TLM transport helpers -----

    fn tlm_read(&mut self, addr: u32) -> SymWord {
        let mut txn = GenericPayload::read(&self.ctx, self.ctx.word32(addr), 4);
        self.plic.b_transport(&self.ctx, &mut self.kernel, &mut txn);
        self.ctx
            .check_concrete(txn.response.is_ok(), "TLM register read must succeed");
        txn.word(0).clone()
    }

    fn tlm_write(&mut self, addr: u32, value: &SymWord) {
        let mut txn = GenericPayload::write(&self.ctx, self.ctx.word32(addr), 4);
        txn.set_word(0, value.clone());
        self.plic.b_transport(&self.ctx, &mut self.kernel, &mut txn);
        self.ctx
            .check_concrete(txn.response.is_ok(), "TLM register write must succeed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_plic::{MutationOp, PlicVariant};
    use symsc_symex::{Explorer, Width};

    fn fixed() -> PlicConfig {
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
    }

    fn basic_scenario(ctx: &SymCtx, tlm: PlicConfig, cycle: PlicConfig) {
        let mut x = CrossChecker::new(ctx, tlm, cycle);
        x.enable_all();
        let sources = x.config().sources;
        let irq = ctx.symbolic("irq", Width::W32);
        ctx.assume(&irq.uge(&ctx.word32(1)));
        ctx.assume(&irq.ule(&ctx.word32(sources)));
        let prio = ctx.symbolic("prio", Width::W32);
        ctx.assume(&prio.uge(&ctx.word32(1)));
        ctx.assume(&prio.ule(&ctx.word32(x.config().max_priority)));
        x.set_priority(&irq, &prio);
        x.trigger(&irq);
        x.step();
        let id = x.claim(0);
        x.complete(0, &id);
        x.step();
        x.check_registers();
    }

    #[test]
    fn the_two_levels_agree_on_the_fixed_plic() {
        let report = Explorer::new().explore(|ctx| basic_scenario(ctx, fixed(), fixed()));
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn a_cycle_side_mutant_is_caught_by_the_tlm_oracle() {
        let report = Explorer::new().explore(|ctx| {
            basic_scenario(ctx, fixed(), fixed().mutate(MutationOp::ClaimSkipsClear));
        });
        assert!(!report.passed(), "the pending bitmap sweep must diverge");
    }

    #[test]
    fn a_tlm_side_mutant_is_caught_by_the_cycle_oracle() {
        let report = Explorer::new().explore(|ctx| {
            basic_scenario(ctx, fixed().mutate(MutationOp::DropNotifyForId(2)), fixed());
        });
        assert!(
            !report.passed(),
            "the interrupt line check must diverge on irq 2"
        );
    }

    #[test]
    fn stuck_enable_is_caught_only_with_symbolic_enables() {
        // With every source enabled the stuck-enable mutant is invisible
        // (the TLM-only matrix survivor); a symbolic enable word makes
        // the cycle side deliver where the TLM side stays masked.
        let report = Explorer::new().max_paths(512).explore(|ctx| {
            let mut x = CrossChecker::new(
                ctx,
                fixed(),
                fixed().mutate(MutationOp::StuckEnableForId(1)),
            );
            let enables = ctx.symbolic("enables", Width::W32);
            x.write_enable_word(0, 0, &enables);
            let irq = ctx.word32(1);
            x.set_priority(&irq, &ctx.word32(1));
            x.trigger(&irq);
            x.step();
        });
        assert!(
            !report.passed(),
            "the line check must diverge when bit 1 is 0"
        );
    }
}
