//! The cycle-accurate adapter: the timing contract between loosely-timed
//! TLM transactions and the clocked [`CyclePlic`].
//!
//! # Timing table
//!
//! The contract pinned here (and by the unit tests below) is what makes
//! a TLM trace and a cycle trace comparable at all:
//!
//! | TLM-side event                          | Cycle-side effect                         |
//! |-----------------------------------------|-------------------------------------------|
//! | `b_transport` register access           | 0 edges — combinational, completes within the current cycle |
//! | `kernel.run_until(now + k·clock_cycle)` | `advance(now + k·clock_cycle)` → exactly `k` posedges |
//! | `trigger_interrupt(irq)`                | IP bit latches in the *current* cycle (0 edges) |
//! | gateway notification → delivery scan    | notification register rises 1 edge after the trigger (IF4-stretched ids: `factor` edges) |
//! | claim read (`CLAIM_BASE`)               | comparison tree resolves combinationally; IP clears in the same cycle |
//! | complete write (`CLAIM_BASE`)           | notification register drops combinationally; rescan fires 1 edge later |
//!
//! Reads are side-effect-free except claim; back-to-back claims within
//! one cycle each resolve against the state the previous claim left
//! behind (the tree is combinational, the IP clear is immediate), which
//! matches the TLM model's blocking-transport semantics exactly. A read
//! issued *mid-handshake* — after claim, before complete — must see the
//! claimed source's IP bit already clear at both levels.

use symsc_pk::SimTime;
use symsc_plic::config::{
    CONTEXT_STRIDE, ENABLE_BASE, ENABLE_STRIDE, PENDING_BASE, PRIORITY_BASE, THRESHOLD_BASE,
};
use symsc_plic::PlicConfig;
use symsc_symex::{SymCtx, SymWord};
use symsc_tlm::{Command, GenericPayload, ResponseStatus};

use crate::cycle::{CyclePlic, CycleSnapshot};

/// Drives a [`CyclePlic`] on the TLM testbench's clock: simulated-time
/// deltas become posedges, register-file accesses stay combinational.
pub struct CycleAdapter {
    model: CyclePlic,
    ctx: SymCtx,
    clock: SimTime,
    /// Simulated time up to which the model has been clocked.
    clocked_to: SimTime,
}

impl CycleAdapter {
    /// A fresh adapter over a reset [`CyclePlic`]. `clock` is the TLM
    /// configuration's `clock_cycle`, so one kernel quantum equals one
    /// posedge.
    pub fn new(ctx: &SymCtx, config: PlicConfig, clock: SimTime) -> CycleAdapter {
        CycleAdapter {
            model: CyclePlic::new(ctx, config),
            ctx: ctx.clone(),
            clock,
            clocked_to: SimTime::ZERO,
        }
    }

    /// The wrapped cycle-level model.
    pub fn model(&self) -> &CyclePlic {
        &self.model
    }

    /// Mutable access to the wrapped model (fault injection in tests).
    pub fn model_mut(&mut self) -> &mut CyclePlic {
        &mut self.model
    }

    /// The clock period the adapter converts simulated time with.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Simulated time the model has been clocked to.
    pub fn clocked_to(&self) -> SimTime {
        self.clocked_to
    }

    /// Clocks the model forward to simulated time `to`: one posedge per
    /// whole clock period elapsed. Partial periods remain pending, so
    /// interleaved `advance` calls never double-clock an edge.
    pub fn advance(&mut self, to: SimTime) {
        while self.clocked_to + self.clock <= to {
            self.model.posedge();
            self.clocked_to += self.clock;
        }
    }

    /// An interrupt line fires (0 edges: the IP latch is set in the
    /// current cycle, mirroring the TLM gateway's immediate store).
    pub fn trigger(&mut self, irq: &SymWord) {
        self.model.trigger(irq);
    }

    /// A claim by `hart` (combinational: resolves and clears in-cycle).
    pub fn claim(&mut self, hart: usize) -> SymWord {
        self.model.claim(hart)
    }

    /// A completion by `hart` (combinational drop, rescan next edge).
    pub fn complete(&mut self, hart: usize, completed_id: &SymWord) {
        self.model.complete(hart, completed_id);
    }

    /// Routes a TLM payload with a *concrete* address to the matching
    /// typed register accessor — the decode mirror of the TLM model's
    /// `PlicRegs`, used by the adapter unit tests and the concrete fuzz
    /// lane. Symbolic-address traffic should use the typed accessors
    /// directly; a payload whose address has no concrete value gets
    /// [`ResponseStatus::AddressError`].
    pub fn transport(&mut self, payload: &mut GenericPayload) {
        let Some(addr) = payload.address.as_const() else {
            payload.response = ResponseStatus::AddressError;
            return;
        };
        let config = self.model.config();
        let sources = u64::from(config.sources);
        let bitmap_words = config.bitmap_words() as u64;
        let harts = u64::from(config.harts);
        let priority_end = PRIORITY_BASE + 4 * sources;
        let pending_end = PENDING_BASE + 4 * bitmap_words;
        let enable_end = ENABLE_BASE + ENABLE_STRIDE * (harts - 1) + 4 * bitmap_words;
        let word = |offset: u64, base: u64| self.ctx.word32(((offset - base) / 4) as u32);
        let response = match payload.command {
            Command::Read => {
                let value = if (PRIORITY_BASE..priority_end).contains(&addr) {
                    Some(self.model.read_priority_word(&word(addr, PRIORITY_BASE)))
                } else if (PENDING_BASE..pending_end).contains(&addr) {
                    Some(self.model.read_pending_word(&word(addr, PENDING_BASE)))
                } else if (ENABLE_BASE..enable_end).contains(&addr) {
                    let hart = ((addr - ENABLE_BASE) / ENABLE_STRIDE) as usize;
                    let offset = (addr - ENABLE_BASE) % ENABLE_STRIDE;
                    (offset < 4 * bitmap_words).then(|| {
                        self.model
                            .read_enable_word(hart, &self.ctx.word32((offset / 4) as u32))
                    })
                } else {
                    self.context_register(addr).map(|(hart, claim)| {
                        if claim {
                            self.model.claim(hart)
                        } else {
                            self.model.read_threshold(hart)
                        }
                    })
                };
                match value {
                    Some(value) => {
                        payload.set_word(0, value);
                        ResponseStatus::Ok
                    }
                    None => ResponseStatus::AddressError,
                }
            }
            Command::Write => {
                let value = payload.word(0).clone();
                if (PRIORITY_BASE..priority_end).contains(&addr) {
                    self.model
                        .write_priority_word(&word(addr, PRIORITY_BASE), &value);
                    ResponseStatus::Ok
                } else if (ENABLE_BASE..enable_end).contains(&addr)
                    && (addr - ENABLE_BASE) % ENABLE_STRIDE < 4 * bitmap_words
                {
                    let hart = ((addr - ENABLE_BASE) / ENABLE_STRIDE) as usize;
                    let offset = (addr - ENABLE_BASE) % ENABLE_STRIDE;
                    self.model.write_enable_word(
                        hart,
                        &self.ctx.word32((offset / 4) as u32),
                        &value,
                    );
                    ResponseStatus::Ok
                } else if let Some((hart, claim)) = self.context_register(addr) {
                    if claim {
                        self.model.complete(hart, &value);
                    } else {
                        self.model.write_threshold(hart, &value);
                    }
                    ResponseStatus::Ok
                } else {
                    ResponseStatus::AddressError
                }
            }
        };
        payload.response = response;
    }

    /// Decodes a context-block address into `(hart, is_claim_register)`.
    fn context_register(&self, addr: u64) -> Option<(usize, bool)> {
        let harts = u64::from(self.model.config().harts);
        if addr < THRESHOLD_BASE {
            return None;
        }
        let hart = (addr - THRESHOLD_BASE) / CONTEXT_STRIDE;
        if hart >= harts {
            return None;
        }
        match addr - THRESHOLD_BASE - hart * CONTEXT_STRIDE {
            0 => Some((hart as usize, false)),
            4 => Some((hart as usize, true)),
            _ => None,
        }
    }

    /// Snapshot of the wrapped model plus the adapter clock position.
    pub fn snapshot(&self) -> (CycleSnapshot, SimTime) {
        (self.model.snapshot(), self.clocked_to)
    }

    /// Restores a snapshot captured by [`snapshot`](CycleAdapter::snapshot).
    pub fn restore(&mut self, snapshot: &(CycleSnapshot, SimTime)) {
        self.model.restore(&snapshot.0);
        self.clocked_to = snapshot.1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_plic::config::CLAIM_BASE;
    use symsc_plic::PlicVariant;
    use symsc_symex::Explorer;

    fn clock() -> SimTime {
        SimTime::from_ns(10)
    }

    fn fixed() -> PlicConfig {
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
    }

    fn armed(ctx: &SymCtx) -> CycleAdapter {
        let config = fixed();
        let mut a = CycleAdapter::new(ctx, config, clock());
        for irq in 1..=config.sources {
            a.model_mut()
                .write_priority_word(&ctx.word32(irq - 1), &ctx.word32(1));
        }
        a.model_mut()
            .write_enable_word(0, &ctx.word32(0), &ctx.word32(u32::MAX));
        a
    }

    #[test]
    fn advance_converts_whole_periods_only() {
        let report = Explorer::new().explore(|ctx| {
            let mut a = armed(ctx);
            a.trigger(&ctx.word32(3));
            // Half a period: no edge, no delivery.
            a.advance(SimTime::from_ns(5));
            assert_eq!(a.model().cycles(), 0);
            ctx.check_concrete(!a.model().eip(), "no edge before a full period");
            // Completing the first period plus one more: two edges total.
            a.advance(SimTime::from_ns(20));
            assert_eq!(a.model().cycles(), 2);
            ctx.check_concrete(a.model().eip(), "delivery on the first edge");
            // Re-advancing to the same time is a no-op.
            a.advance(SimTime::from_ns(20));
            assert_eq!(a.model().cycles(), 2);
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn read_mid_handshake_sees_the_claimed_ip_bit_clear() {
        let report = Explorer::new().explore(|ctx| {
            let mut a = armed(ctx);
            a.trigger(&ctx.word32(3));
            a.advance(clock());
            let id = a.claim(0);
            ctx.check(&id.eq(&ctx.word32(3)), "claim resolves the request");
            // Mid-handshake (claim done, complete not yet written): the
            // pending bitmap must already show the bit clear, in the
            // same cycle, with no edge in between.
            let mut read = GenericPayload::read(ctx, ctx.word32(PENDING_BASE as u32), 4);
            a.transport(&mut read);
            assert!(read.response.is_ok());
            ctx.check(
                &read.word(0).eq(&ctx.word32(0)),
                "IP bit clears combinationally with the claim",
            );
            ctx.check_concrete(a.model().eip(), "notification still high mid-handshake");
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn back_to_back_claims_in_adjacent_cycles() {
        let report = Explorer::new().explore(|ctx| {
            let mut a = armed(ctx);
            a.model_mut()
                .write_priority_word(&ctx.word32(6), &ctx.word32(3));
            a.trigger(&ctx.word32(2));
            a.trigger(&ctx.word32(7));
            a.advance(clock());
            // Cycle 1: claim the winner, complete, and let the rescan
            // fire on the next edge.
            let id = a.claim(0);
            ctx.check(&id.eq(&ctx.word32(7)), "first claim takes the best request");
            a.complete(0, &id);
            ctx.check_concrete(!a.model().eip(), "complete drops the line in-cycle");
            a.advance(clock() * 2);
            // Cycle 2: the rescan redelivered; the second claim takes
            // the surviving request.
            ctx.check_concrete(a.model().eip(), "rescan fires one edge after complete");
            let id = a.claim(0);
            ctx.check(&id.eq(&ctx.word32(2)), "second claim takes the survivor");
            let id = a.claim(0);
            ctx.check(&id.eq(&ctx.word32(0)), "third claim is spurious");
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn transport_decodes_the_register_map() {
        let report = Explorer::new().explore(|ctx| {
            let mut a = CycleAdapter::new(ctx, fixed(), clock());
            // priority[5] at PRIORITY_BASE + 4*(5-1)
            let addr = ctx.word32((PRIORITY_BASE + 16) as u32);
            let mut w = GenericPayload::write(ctx, addr.clone(), 4);
            w.set_word(0, ctx.word32(3));
            a.transport(&mut w);
            assert!(w.response.is_ok());
            let mut r = GenericPayload::read(ctx, addr, 4);
            a.transport(&mut r);
            assert!(r.response.is_ok());
            ctx.check(&r.word(0).eq(&ctx.word32(3)), "priority[5] readback");

            // threshold, hart 0
            let addr = ctx.word32(THRESHOLD_BASE as u32);
            let mut w = GenericPayload::write(ctx, addr.clone(), 4);
            w.set_word(0, ctx.word32(2));
            a.transport(&mut w);
            assert!(w.response.is_ok());
            let mut r = GenericPayload::read(ctx, addr, 4);
            a.transport(&mut r);
            ctx.check(&r.word(0).eq(&ctx.word32(2)), "threshold readback");

            // claim register read on an idle model returns 0
            let mut r = GenericPayload::read(ctx, ctx.word32(CLAIM_BASE as u32), 4);
            a.transport(&mut r);
            assert!(r.response.is_ok());
            ctx.check(&r.word(0).eq(&ctx.word32(0)), "spurious claim is 0");

            // unmapped hole
            let mut r = GenericPayload::read(ctx, ctx.word32(0x3000), 4);
            a.transport(&mut r);
            assert!(!r.response.is_ok());
        });
        assert!(report.passed(), "{report}");
    }
}
