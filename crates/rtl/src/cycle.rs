//! The cycle-level PLIC: the same architectural contract as the TLM
//! peripheral, implemented as synchronous hardware would be.
//!
//! Where the TLM model is event-driven (the gateway notifies `e_run`, the
//! kernel schedules the run thread), this model is *clocked*: state only
//! advances on [`CyclePlic::posedge`], and the delivery scan is a pending
//! notification countdown in whole clock cycles. Where the TLM model
//! selects the best interrupt with a linear priority scan, this model
//! evaluates an explicit pairwise **comparison tree** — the reduction
//! shape a synthesized priority encoder would have. The two
//! implementations share *no* selection or scheduling code; only the
//! symbolic term layer underneath ([`SymArray`]/[`SymWord`] over
//! copy-on-write storage) is common, which is exactly what makes the
//! cross-level equivalence check meaningful.
//!
//! Every [`MutationOp`] hook of the TLM model is mirrored here with the
//! same semantics (and the same assertion/error strings where the fault
//! is variant-visible), so a mutant can be injected into *either* level
//! and caught by equivalence against the other.

use symsc_plic::{MutationOp, PlicConfig, PlicVariant, ThresholdCmp};
use symsc_symex::{ErrorKind, SymArray, SymBool, SymCtx, SymWord, Width};

/// The cycle-level PLIC model.
///
/// Register state is symbolic ([`SymArray`] flags, [`SymWord`]
/// thresholds) over the engine's copy-on-write storage, so COW forking
/// works on this model unchanged.
/// The handshake state (`eip`, rise counters, the notification countdown)
/// is concrete per path, like the TLM model's `hart_eip`.
pub struct CyclePlic {
    ctx: SymCtx,
    config: PlicConfig,
    /// `priority[irq]`, index 0 unused (id 0 is reserved).
    priorities: SymArray,
    /// Gateway latches: the IP bits, one 1-bit flag per id.
    pending: SymArray,
    /// Per-hart enable flags.
    enabled: Vec<SymArray>,
    /// Per-hart priority threshold registers.
    threshold: Vec<SymWord>,
    /// Per-hart external-interrupt notification registers.
    eip: Vec<bool>,
    /// Per-hart rising-edge counters on the notification line (the
    /// observable the TLM testbenches read from their mock harts).
    rises: Vec<u32>,
    /// Cycles until the delivery scan fires, `None` when idle. A single
    /// slot with earliest-wins scheduling — the synchronous equivalent of
    /// the kernel's timed-notification override rule on `e_run`.
    due: Option<u32>,
    /// Posedges seen since reset (debug/trace only).
    cycles: u64,
}

impl std::fmt::Debug for CyclePlic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CyclePlic")
            .field("config", &self.config)
            .field("eip", &self.eip)
            .field("due", &self.due)
            .field("cycles", &self.cycles)
            .finish()
    }
}

impl CyclePlic {
    /// A freshly reset cycle-level PLIC for `config`.
    pub fn new(ctx: &SymCtx, config: PlicConfig) -> CyclePlic {
        let flags = config.sources as usize + 1;
        let harts = config.harts as usize;
        CyclePlic {
            ctx: ctx.clone(),
            config,
            priorities: SymArray::filled(ctx, flags, 0, Width::W32),
            pending: SymArray::filled(ctx, flags, 0, Width::W1),
            enabled: (0..harts)
                .map(|_| SymArray::filled(ctx, flags, 0, Width::W1))
                .collect(),
            threshold: (0..harts).map(|_| ctx.word32(0)).collect(),
            eip: vec![false; harts],
            rises: vec![0; harts],
            due: None,
            cycles: 0,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> PlicConfig {
        self.config
    }

    /// Posedges since reset.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The hart-0 notification register.
    pub fn eip(&self) -> bool {
        self.eip[0]
    }

    /// The notification register of `hart`.
    pub fn eip_n(&self, hart: usize) -> bool {
        self.eip[hart]
    }

    /// Rising edges seen on hart 0's notification line.
    pub fn rises(&self) -> u32 {
        self.rises[0]
    }

    /// Rising edges seen on `hart`'s notification line.
    pub fn rises_n(&self, hart: usize) -> u32 {
        self.rises[hart]
    }

    // ----- the clock -----

    /// One positive clock edge: the notification countdown decrements,
    /// and the delivery scan runs in the cycle it reaches zero.
    pub fn posedge(&mut self) {
        self.cycles += 1;
        match self.due {
            Some(d) if d <= 1 => {
                self.due = None;
                self.deliver();
            }
            Some(d) => self.due = Some(d - 1),
            None => {}
        }
    }

    /// Schedules the delivery scan `cycles` edges out; an earlier pending
    /// schedule wins (the kernel's notify-override rule, synchronously).
    fn schedule(&mut self, cycles: u32) {
        self.due = Some(match self.due {
            Some(d) if d <= cycles => d,
            _ => cycles,
        });
    }

    /// The delivery scan: per hart, raise the notification register when
    /// an eligible request exists and none is in flight. This is the
    /// synchronous twin of the TLM run thread's body.
    fn deliver(&mut self) {
        let ctx = self.ctx.clone();
        let zero = ctx.word32(0);
        for hart in 0..self.config.harts as usize {
            if self.eip[hart] {
                continue;
            }
            let due = self.next_request(hart, true).ne(&zero);
            if ctx.decide(&due) {
                self.eip[hart] = true;
                self.rises[hart] += 1;
            }
        }
    }

    // ----- the comparison tree -----

    /// One leaf of the priority tournament: `(id, priority)` for `irq`,
    /// masked to `(0, 0)` when the request is not eligible. All mutation
    /// hooks touching eligibility live here, with the TLM semantics.
    fn request_leaf(&self, hart: usize, irq: u32, consider_threshold: bool) -> (SymWord, SymWord) {
        let ctx = &self.ctx;
        let zero = ctx.word32(0);
        let one_bit = ctx.word(1, Width::W1);
        let mut prio = self.priorities.get(irq as usize).clone();
        if let Some(MutationOp::StuckPriorityBit(bit)) = self.config.mutation {
            prio = prio.and(&ctx.word32(!(1u32 << bit)));
        }
        let pend = self.pending.get(irq as usize).eq(&one_bit);
        let mut enab = self.enabled[hart].get(irq as usize).eq(&one_bit);
        if self.config.mutation == Some(MutationOp::StuckEnableForId(irq)) {
            enab = ctx.lit(true);
        }
        let mut eligible = pend.and(&enab).and(&prio.ugt(&zero));
        if consider_threshold {
            let passes = match self.config.mutation {
                Some(MutationOp::ThresholdCompare(ThresholdCmp::OrEqual)) => {
                    prio.uge(&self.threshold[hart])
                }
                Some(MutationOp::ThresholdCompare(ThresholdCmp::AlwaysPass)) => ctx.lit(true),
                Some(MutationOp::ThresholdCompare(ThresholdCmp::NeverPass)) => ctx.lit(false),
                _ => prio.ugt(&self.threshold[hart]),
            };
            eligible = eligible.and(&passes);
        }
        let id = ctx.word32(irq).select(&eligible, &zero);
        let prio = prio.select(&eligible, &zero);
        (id, prio)
    }

    /// The winning request id for `hart`, or 0 when nothing is eligible.
    ///
    /// A pairwise tournament reduction over the per-source leaves — the
    /// log-depth comparator tree of a hardware priority encoder, not the
    /// TLM model's linear scan. With the strict `>` comparator the
    /// *leftmost* maximum survives every layer (lowest id wins ties, the
    /// RISC-V PLIC rule); the [`MutationOp::TieBreakHighestId`] hook
    /// relaxes it to `>=`, letting the rightmost maximum through instead.
    pub fn next_request(&self, hart: usize, consider_threshold: bool) -> SymWord {
        let tie_high = self.config.mutation == Some(MutationOp::TieBreakHighestId);
        let mut layer: Vec<(SymWord, SymWord)> = (1..=self.config.sources)
            .map(|irq| self.request_leaf(hart, irq, consider_threshold))
            .collect();
        if layer.is_empty() {
            return self.ctx.word32(0);
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if let [left, right] = pair {
                    let (lid, lp) = left;
                    let (rid, rp) = right;
                    let right_wins = if tie_high { rp.uge(lp) } else { rp.ugt(lp) };
                    next.push((rid.select(&right_wins, lid), rp.select(&right_wins, lp)));
                } else {
                    next.push(pair[0].clone());
                }
            }
            layer = next;
        }
        layer.swap_remove(0).0
    }

    /// Whether `hart` has a deliverable request this cycle, as a symbolic
    /// boolean (pure dataflow).
    pub fn has_request(&self, hart: usize) -> SymBool {
        self.next_request(hart, true).ne(&self.ctx.word32(0))
    }

    // ----- the gateway -----

    /// An interrupt line fires: validate the id, latch the IP bit this
    /// cycle, and schedule the delivery scan one cycle out. Validation
    /// matches the TLM gateway exactly, including the variant-visible
    /// assertion and out-of-bounds error strings — the two levels must
    /// fail identically, or the cross-check would flag the fault model
    /// itself as a divergence.
    pub fn trigger(&mut self, irq: &SymWord) {
        let ctx = self.ctx.clone();
        let one = ctx.word32(1);
        let bound = match self.config.mutation {
            Some(MutationOp::GatewayBoundOffset(delta)) => {
                self.config.sources.saturating_add_signed(delta)
            }
            _ => self.config.sources,
        };
        let valid = irq.uge(&one).and(&irq.ule(&ctx.word32(bound)));
        match self.config.variant {
            PlicVariant::Faithful => {
                if ctx.decide(&valid.not()) {
                    panic!("assertion failed: interrupt id out of range in trigger_interrupt");
                }
            }
            PlicVariant::Fixed => {
                if ctx.decide(&valid.not()) {
                    return;
                }
            }
        }
        let n = ctx.word32(self.config.sources);
        if ctx.decide(&irq.ugt(&n)) {
            ctx.fail(
                ErrorKind::OutOfBounds,
                "write past the end of the pending-interrupt array",
            );
        }
        self.pending.store(irq, &ctx.word(1, Width::W1));
        if let Some(MutationOp::DropNotifyForId(id)) = self.config.mutation {
            if ctx.decide(&irq.eq(&ctx.word32(id))) {
                return;
            }
        }
        let mut cycles = 1u32;
        if let Some(MutationOp::LateNotifyAboveBoundary { boundary, factor }) = self.config.mutation
        {
            let above = ctx.word32(boundary.unwrap_or_else(|| self.config.if4_boundary()));
            if ctx.decide(&irq.ugt(&above)) {
                cycles = factor;
            }
        }
        self.schedule(cycles);
        if self.config.mutation == Some(MutationOp::DuplicateNotify) {
            self.schedule(cycles);
        }
    }

    /// Clears the IP latch of `irq` (with the early-clear mutation hook).
    fn clear_pending(&mut self, irq: &SymWord) {
        if let Some(MutationOp::EarlyClearReturnForId(id)) = self.config.mutation {
            let sticky = self.ctx.word32(id);
            if self.ctx.clone().decide(&irq.eq(&sticky)) {
                return;
            }
        }
        self.pending
            .store(irq, &self.ctx.word(0, Width::W1).clone());
    }

    // ----- the claim/complete handshake -----

    /// A claim by `hart`: combinationally resolve the comparison tree
    /// (threshold ignored, per the PLIC spec), clear the winner's IP
    /// latch, return its id (0 when nothing is pending).
    pub fn claim(&mut self, hart: usize) -> SymWord {
        let best = self.next_request(hart, false);
        let zero = self.ctx.word32(0);
        if self.ctx.clone().decide(&best.ne(&zero))
            && self.config.mutation != Some(MutationOp::ClaimSkipsClear)
        {
            self.clear_pending(&best);
        }
        best
    }

    /// A completion by `hart` (the claim/complete handshake's closing
    /// write; the completed id is ignored, as in the TLM model): drop the
    /// notification register and schedule a rescan one cycle out.
    pub fn complete(&mut self, hart: usize, _completed_id: &SymWord) {
        if self.config.variant == PlicVariant::Faithful {
            assert!(
                self.eip[hart],
                "assertion failed: claim_response written without external interrupt in flight"
            );
        }
        if self.config.mutation != Some(MutationOp::CompleteKeepsEip) {
            self.eip[hart] = false;
        }
        if self.config.mutation == Some(MutationOp::SkipRetrigger) {
            return;
        }
        if let Some(MutationOp::DropNotifyForId(id)) = self.config.mutation {
            let best = self.next_request(hart, false);
            let dropped = self.ctx.word32(id);
            if self.ctx.clone().decide(&best.eq(&dropped)) {
                return;
            }
        }
        self.schedule(1);
    }

    // ----- the architectural register file -----

    /// Priority register word `w` (holds `priority[w + 1]`).
    pub fn read_priority_word(&self, word_index: &SymWord) -> SymWord {
        let irq = word_index.add(&self.ctx.word32(1));
        self.priorities.select(&irq)
    }

    /// Writes priority register word `w` (i.e. `priority[w + 1]`).
    pub fn write_priority_word(&mut self, word_index: &SymWord, value: &SymWord) {
        let irq = word_index.add(&self.ctx.word32(1));
        self.priorities.store(&irq, value);
    }

    /// One 32-bit word of the pending bitmap, in the architectural
    /// register format (bit `b` of word `w` is source `32 * w + b`).
    pub fn read_pending_word(&self, word_index: &SymWord) -> SymWord {
        self.bitmap_word(&self.pending, word_index)
    }

    /// One 32-bit word of `hart`'s enable bitmap.
    pub fn read_enable_word(&self, hart: usize, word_index: &SymWord) -> SymWord {
        self.bitmap_word(&self.enabled[hart], word_index)
    }

    /// Writes one 32-bit word of `hart`'s enable bitmap.
    pub fn write_enable_word(&mut self, hart: usize, word_index: &SymWord, value: &SymWord) {
        let ctx = self.ctx.clone();
        let words = self.config.bitmap_words() as u32;
        let mut map = self.enabled[hart].clone();
        for w in 0..words {
            let here = word_index.eq(&ctx.word32(w));
            for b in 0..32 {
                let flag = (w * 32 + b) as usize;
                if flag >= map.len() {
                    break;
                }
                let bit = value.extract(b, b);
                let merged = bit.select(&here, map.get(flag));
                map.set(flag, merged);
            }
        }
        self.enabled[hart] = map;
    }

    /// `hart`'s threshold register.
    pub fn read_threshold(&self, hart: usize) -> SymWord {
        self.threshold[hart].clone()
    }

    /// Writes `hart`'s threshold register.
    pub fn write_threshold(&mut self, hart: usize, value: &SymWord) {
        self.threshold[hart] = value.clone();
    }

    fn bitmap_word(&self, map: &SymArray, word_index: &SymWord) -> SymWord {
        let ctx = &self.ctx;
        let words = self.config.bitmap_words() as u32;
        let mut out = ctx.word32(0);
        for w in 0..words {
            let mut composed: Option<SymWord> = None;
            for b in (0..32).rev() {
                let flag = (w * 32 + b) as usize;
                let bit = if flag < map.len() {
                    map.get(flag).clone()
                } else {
                    ctx.word(0, Width::W1)
                };
                composed = Some(match composed {
                    None => bit,
                    Some(c) => c.concat(&bit),
                });
            }
            let composed = composed.expect("32 bits composed");
            let here = word_index.eq(&ctx.word32(w));
            out = composed.select(&here, &out);
        }
        out
    }

    /// Testbench convenience: enable every source for every hart (flag 0
    /// included), mirroring the TLM model's `enable_all_sources` so the
    /// two levels' enable bitmaps stay register-identical.
    pub fn enable_all(&mut self) {
        let one = self.ctx.word(1, Width::W1);
        for map in &mut self.enabled {
            for flag in 0..map.len() {
                map.set(flag, one.clone());
            }
        }
    }

    /// Testbench convenience: `priority[irq] = priority` for a symbolic
    /// id (the mirror of the TLM model's `set_priority_symbolic`; no
    /// bounds decode, so the caller must constrain `irq` to valid ids).
    pub fn set_priority_symbolic(&mut self, irq: &SymWord, priority: &SymWord) {
        self.priorities.store(irq, priority);
    }

    // ----- snapshot / restore -----

    /// Captures the full model state — register file *and* handshake
    /// state machine — as a cheap copy-on-write snapshot, mirroring
    /// `PlicSnapshot`.
    pub fn snapshot(&self) -> CycleSnapshot {
        CycleSnapshot {
            priorities: self.priorities.clone(),
            pending: self.pending.clone(),
            enabled: self.enabled.clone(),
            threshold: self.threshold.clone(),
            eip: self.eip.clone(),
            rises: self.rises.clone(),
            due: self.due,
        }
    }

    /// Restores the state captured by [`snapshot`](CyclePlic::snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot comes from a model with a different
    /// source/hart topology.
    pub fn restore(&mut self, snapshot: &CycleSnapshot) {
        assert_eq!(
            snapshot.priorities.len(),
            self.priorities.len(),
            "snapshot topology mismatch: source count differs"
        );
        assert_eq!(
            snapshot.threshold.len(),
            self.threshold.len(),
            "snapshot topology mismatch: hart count differs"
        );
        self.priorities = snapshot.priorities.clone();
        self.pending = snapshot.pending.clone();
        self.enabled = snapshot.enabled.clone();
        self.threshold = snapshot.threshold.clone();
        self.eip = snapshot.eip.clone();
        self.rises = snapshot.rises.clone();
        self.due = snapshot.due;
    }
}

/// An immutable capture of a [`CyclePlic`]'s state (registers plus the
/// handshake state machine). Capture and clone cost O(chunks) Arc bumps.
#[derive(Clone, Debug)]
pub struct CycleSnapshot {
    priorities: SymArray,
    pending: SymArray,
    enabled: Vec<SymArray>,
    threshold: Vec<SymWord>,
    eip: Vec<bool>,
    rises: Vec<u32>,
    due: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use symsc_symex::Explorer;

    fn fixed() -> PlicConfig {
        PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
    }

    fn armed(ctx: &SymCtx, config: PlicConfig) -> CyclePlic {
        let mut m = CyclePlic::new(ctx, config);
        for irq in 1..=config.sources {
            m.write_priority_word(&ctx.word32(irq - 1), &ctx.word32(1));
            m.write_enable_word(0, &ctx.word32(irq / 32), &ctx.word32(u32::MAX));
        }
        m
    }

    #[test]
    fn trigger_latches_ip_and_delivers_one_edge_later() {
        let report = Explorer::new().explore(|ctx| {
            let mut m = armed(ctx, fixed());
            m.trigger(&ctx.word32(3));
            ctx.check(
                &m.read_pending_word(&ctx.word32(0)).eq(&ctx.word32(1 << 3)),
                "IP latches in the trigger cycle",
            );
            ctx.check_concrete(!m.eip(), "no delivery before the edge");
            m.posedge();
            ctx.check_concrete(m.eip() && m.rises() == 1, "delivery on the next edge");
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn claim_resolves_the_tree_and_clears_ip() {
        let report = Explorer::new().explore(|ctx| {
            let mut m = armed(ctx, fixed());
            m.write_priority_word(&ctx.word32(4), &ctx.word32(7));
            m.trigger(&ctx.word32(2));
            m.trigger(&ctx.word32(5));
            m.posedge();
            let id = m.claim(0);
            ctx.check(&id.eq(&ctx.word32(5)), "higher priority wins");
            let id = m.claim(0);
            ctx.check(&id.eq(&ctx.word32(2)), "then the remaining request");
            let id = m.claim(0);
            ctx.check(&id.eq(&ctx.word32(0)), "spurious claim returns 0");
            m.complete(0, &ctx.word32(2));
            ctx.check_concrete(!m.eip(), "completion drops the line");
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn ties_break_toward_the_lowest_id() {
        let report = Explorer::new().explore(|ctx| {
            let mut m = armed(ctx, fixed());
            m.trigger(&ctx.word32(9));
            m.trigger(&ctx.word32(4));
            m.posedge();
            let id = m.claim(0);
            ctx.check(&id.eq(&ctx.word32(4)), "equal priorities pick the lower id");
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn tiebreak_mutant_picks_the_highest_id() {
        let report = Explorer::new().explore(|ctx| {
            let mut m = armed(ctx, fixed().mutate(MutationOp::TieBreakHighestId));
            m.trigger(&ctx.word32(9));
            m.trigger(&ctx.word32(4));
            m.posedge();
            let id = m.claim(0);
            ctx.check(&id.eq(&ctx.word32(9)), "the mutant lets the highest id win");
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn snapshot_round_trips() {
        let report = Explorer::new().explore(|ctx| {
            let mut m = armed(ctx, fixed());
            m.trigger(&ctx.word32(3));
            let snap = m.snapshot();
            m.posedge();
            ctx.check(&m.claim(0).eq(&ctx.word32(3)), "the trigger is claimed");
            ctx.check(&m.claim(0).eq(&ctx.word32(0)), "and claimed only once");
            m.restore(&snap);
            m.posedge();
            ctx.check(&m.claim(0).eq(&ctx.word32(3)), "restore re-arms the claim");
        });
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn the_countdown_is_a_single_earliest_wins_slot() {
        let report = Explorer::new().explore(|ctx| {
            // IF4 stretches delivery above the boundary; a later trigger
            // of a low id overrides the countdown to the earlier slot,
            // and the stretched notification is absorbed (the kernel's
            // override rule, synchronously).
            let config = fixed().mutate(MutationOp::LateNotifyAboveBoundary {
                boundary: Some(4),
                factor: 3,
            });
            let mut m = armed(ctx, config);
            m.trigger(&ctx.word32(9)); // due in 3 cycles
            m.posedge();
            ctx.check_concrete(!m.eip(), "stretched delivery still pending");
            m.trigger(&ctx.word32(2)); // due next cycle, overrides
            m.posedge();
            ctx.check_concrete(m.eip(), "the earlier schedule wins");
            let id = m.claim(0);
            ctx.check(&id.eq(&ctx.word32(2)), "only the scan is shared");
            m.complete(0, &id);
            m.posedge();
            m.posedge();
            ctx.check_concrete(
                m.eip() && m.rises() == 2,
                "the rescan redelivers the absorbed request",
            );
        });
        assert!(report.passed(), "{report}");
    }
}
