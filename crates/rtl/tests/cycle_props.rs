//! Property tests: seeded random concrete stimulus driving the
//! cycle-level PLIC against the purely concrete [`ReferencePlic`] oracle
//! over thousands of cycles.
//!
//! The stimulus is fully concrete, so every symbolic term the model
//! builds constant-folds and each walk is a single exploration path; the
//! value of the suite is volume (every posedge cross-checks lines,
//! pending bits, the delivery scan and the claim stream) and the seeded
//! reproducibility of any divergence.

use symsc_plic::{PlicConfig, PlicVariant, ReferencePlic};
use symsc_rng::Rng;
use symsc_rtl::CyclePlic;
use symsc_symex::{Explorer, SymCtx};

fn fixed() -> PlicConfig {
    PlicConfig::fe310_scaled().variant(PlicVariant::Fixed)
}

/// The notification-protocol shadow: the reference model is purely
/// functional, so the walk tracks the cycle model's single-slot
/// notification countdown itself (the same protocol the concrete fuzz
/// harness uses against the TLM model).
struct Shadow {
    due: Option<u32>,
    eip: bool,
    rises: u32,
}

impl Shadow {
    fn schedule(&mut self, cycles: u32) {
        self.due = Some(match self.due {
            Some(d) if d <= cycles => d,
            _ => cycles,
        });
    }

    fn posedge(&mut self, oracle: &ReferencePlic) {
        match self.due {
            Some(d) if d <= 1 => {
                self.due = None;
                if !self.eip && oracle.next_deliverable().is_some() {
                    self.eip = true;
                    self.rises += 1;
                }
            }
            Some(d) => self.due = Some(d - 1),
            None => {}
        }
    }
}

/// Cross-checks every observable after a posedge: the interrupt line,
/// the rise count, the delivery scan, and the whole pending bitmap.
fn check_observables(ctx: &SymCtx, model: &CyclePlic, oracle: &ReferencePlic, shadow: &Shadow) {
    ctx.check_concrete(
        model.eip() == shadow.eip,
        "interrupt line matches reference",
    );
    ctx.check_concrete(
        model.rises() == shadow.rises,
        "notification count matches reference",
    );
    let best = oracle.next_deliverable().unwrap_or(0);
    ctx.check(
        &model.next_request(0, true).eq(&ctx.word32(best)),
        "delivery scan matches reference",
    );
    let config = model.config();
    for w in 0..config.bitmap_words() as u32 {
        let mut expected = 0u32;
        for b in 0..32 {
            let irq = w * 32 + b;
            if irq >= 1 && irq <= config.sources && oracle.is_pending(irq) {
                expected |= 1 << b;
            }
        }
        ctx.check(
            &model
                .read_pending_word(&ctx.word32(w))
                .eq(&ctx.word32(expected)),
            "pending bitmap matches reference",
        );
    }
}

/// One seeded random walk of `cycles` posedges with interleaved register
/// traffic, triggers and claim/complete handshakes.
fn random_walk(ctx: &SymCtx, seed: u64, cycles: u32) {
    let config = fixed();
    let mut rng = Rng::seed_from_u64(seed);
    let mut model = CyclePlic::new(ctx, config);
    let mut oracle = ReferencePlic::new(config.sources);
    let mut shadow = Shadow {
        due: None,
        eip: false,
        rises: 0,
    };
    // The test's own mirror of the enable words (the model takes whole
    // 32-bit register writes, the oracle per-source bits).
    let mut enable_words = vec![0u32; config.bitmap_words()];

    for _ in 0..cycles {
        match rng.gen_range_inclusive(0, 99) {
            // Sparse priority range so ties are common.
            0..=14 => {
                let irq = rng.gen_range_inclusive(1, u64::from(config.sources)) as u32;
                let prio = rng.gen_range_inclusive(0, 3) as u32;
                model.write_priority_word(&ctx.word32(irq - 1), &ctx.word32(prio));
                oracle.set_priority(irq, prio);
            }
            15..=29 => {
                let irq = rng.gen_range_inclusive(1, u64::from(config.sources)) as u32;
                let on = rng.gen_range_inclusive(0, 1) == 1;
                let (w, b) = ((irq / 32) as usize, irq % 32);
                if on {
                    enable_words[w] |= 1 << b;
                } else {
                    enable_words[w] &= !(1 << b);
                }
                model.write_enable_word(0, &ctx.word32(w as u32), &ctx.word32(enable_words[w]));
                oracle.set_enabled(irq, on);
            }
            // Low thresholds so delivery actually happens.
            30..=36 => {
                let thr = rng.gen_range_inclusive(0, 2) as u32;
                model.write_threshold(0, &ctx.word32(thr));
                oracle.set_threshold(thr);
            }
            // Triggers range over 0..=sources+1: the fixed gateway must
            // drop both invalid ends silently.
            37..=64 => {
                let irq = rng.gen_range_inclusive(0, u64::from(config.sources) + 1) as u32;
                model.trigger(&ctx.word32(irq));
                if oracle.trigger(irq).is_ok() {
                    shadow.schedule(1);
                }
            }
            65..=79 => {
                let id = model.claim(0);
                let expected = oracle.claim();
                ctx.check(
                    &id.eq(&ctx.word32(expected)),
                    "claimed id matches reference",
                );
            }
            // Completes fire whether or not a claim is in flight — the
            // fixed variant tolerates spurious completion.
            80..=89 => {
                model.complete(0, &ctx.word32(0));
                shadow.eip = false;
                shadow.schedule(1);
            }
            _ => {}
        }
        model.posedge();
        shadow.posedge(&oracle);
        check_observables(ctx, &model, &oracle, &shadow);
    }
}

#[test]
fn seeded_random_walks_match_the_reference() {
    for seed in [1, 0xDEC0DE, 0x5EED_CAFE, u64::MAX / 7] {
        let report = Explorer::new().explore(|ctx| random_walk(ctx, seed, 1500));
        assert!(report.passed(), "seed {seed:#x}: {report}");
    }
}

#[test]
fn priority_ties_drain_in_ascending_id_order() {
    let report = Explorer::new().explore(|ctx| {
        let config = fixed();
        let mut model = CyclePlic::new(ctx, config);
        let mut oracle = ReferencePlic::new(config.sources);
        model.enable_all();
        let mut rng = Rng::seed_from_u64(0x71E5);
        for irq in 1..=config.sources {
            model.write_priority_word(&ctx.word32(irq - 1), &ctx.word32(2));
            oracle.set_priority(irq, 2);
            oracle.set_enabled(irq, true);
        }
        // Trigger a random subset; equal priorities must drain lowest
        // id first at both levels.
        for irq in 1..=config.sources {
            if rng.gen_range_inclusive(0, 1) == 1 {
                model.trigger(&ctx.word32(irq));
                oracle.trigger(irq).unwrap();
            }
        }
        model.posedge();
        for expected in oracle.drain() {
            let id = model.claim(0);
            ctx.check(&id.eq(&ctx.word32(expected)), "tie drains lowest id first");
        }
        let id = model.claim(0);
        ctx.check(&id.eq(&ctx.word32(0)), "drained model claims 0");
    });
    assert!(report.passed(), "{report}");
}

#[test]
fn threshold_boundary_gates_delivery_but_not_claim() {
    let report = Explorer::new().explore(|ctx| {
        let config = fixed();
        for (prio, thr, delivers) in [(2u32, 2u32, false), (3, 2, true), (1, 0, true)] {
            let mut model = CyclePlic::new(ctx, config);
            model.enable_all();
            model.write_priority_word(&ctx.word32(4), &ctx.word32(prio));
            model.write_threshold(0, &ctx.word32(thr));
            model.trigger(&ctx.word32(5));
            model.posedge();
            ctx.check_concrete(
                model.eip() == delivers,
                "delivery honors the strict threshold comparison",
            );
            let id = model.claim(0);
            ctx.check(
                &id.eq(&ctx.word32(5)),
                "claim ignores the threshold (per spec)",
            );
        }
    });
    assert!(report.passed(), "{report}");
}

#[test]
fn spurious_claim_returns_zero_and_changes_nothing() {
    let report = Explorer::new().explore(|ctx| {
        let mut model = CyclePlic::new(ctx, fixed());
        model.enable_all();
        let (eip, rises) = (model.eip(), model.rises());
        let id = model.claim(0);
        ctx.check(&id.eq(&ctx.word32(0)), "claim on idle controller is 0");
        assert_eq!(
            (model.eip(), model.rises()),
            (eip, rises),
            "spurious claim is side-effect-free"
        );
        let pending = model.read_pending_word(&ctx.word32(0));
        ctx.check(&pending.eq(&ctx.word32(0)), "nothing became pending");
        let again = model.claim(0);
        ctx.check(&again.eq(&ctx.word32(0)), "a second claim is 0 too");
    });
    assert!(report.passed(), "{report}");
}

#[test]
fn complete_without_claim_is_tolerated_by_the_fixed_variant() {
    let report = Explorer::new().explore(|ctx| {
        let mut model = CyclePlic::new(ctx, fixed());
        model.complete(0, &ctx.word32(3));
        model.posedge();
        ctx.check_concrete(!model.eip(), "nothing to redeliver");
    });
    assert!(report.passed(), "{report}");
}

#[test]
fn complete_without_claim_trips_the_faithful_assertion() {
    let report = Explorer::new().explore(|ctx| {
        let mut model = CyclePlic::new(ctx, PlicConfig::fe310_scaled());
        model.complete(0, &ctx.word32(3));
    });
    assert!(!report.passed(), "the faithful variant must assert");
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.message.contains("without external interrupt in flight")),
        "{report}"
    );
}
