//! Shared exploration workloads for the bench binaries.
//!
//! The rows of the ablation table ([`crate::ablation`]) measure the
//! *same* testbenches so their numbers compose — `solver_stack`,
//! `incremental` and `parallel` all explore [`t1_pattern`] at 32 sources;
//! the testbench closures live here rather than being copied per row.

use symsc_pk::Kernel;
use symsc_plic::{Plic, PlicConfig, PlicVariant};
use symsc_symex::{SymCtx, Width};
use symsc_tlm::{BlockingTransport, GenericPayload};

/// The PLIC claim/complete register address used by the workloads.
pub const CLAIM_ADDR: u32 = 0x20_0004;

/// The benchmark PLIC configuration: FE310 layout, fixed arbitration,
/// `sources` interrupt lines.
pub fn bench_config(sources: u32) -> PlicConfig {
    let mut cfg = PlicConfig::fe310().variant(PlicVariant::Fixed);
    cfg.sources = sources;
    cfg.max_priority = 7;
    cfg
}

/// The T1-pattern testbench (the paper's basic-interaction test): a
/// symbolic interrupt id is triggered, enumerated with one `decide` per
/// source (one execution path per id, like the claim ladder), and claimed
/// through the real TLM claim register with symbolic checks. `Fn + Send +
/// Sync`, so it runs on the multi-worker explorer.
pub fn t1_pattern(cfg: PlicConfig) -> impl Fn(&SymCtx) + Send + Sync {
    move |ctx: &SymCtx| {
        let mut kernel = Kernel::new();
        let mut plic = Plic::new(ctx, &mut kernel, cfg);
        kernel.step();
        plic.enable_all_sources(ctx);
        for irq in 1..=cfg.sources {
            plic.set_priority(ctx, irq, 1);
        }

        let i = ctx.symbolic("i_interrupt", Width::W32);
        let one = ctx.word32(1);
        let n = ctx.word32(cfg.sources);
        ctx.assume(&i.uge(&one));
        ctx.assume(&i.ule(&n));
        // The same guard query on every path: the shared cache absorbs it.
        ctx.check(&i.ule(&n), "id in range");

        plic.trigger_interrupt(ctx, &mut kernel, &i);
        kernel.step();

        ctx.check(&plic.pending_bit_symbolic(&i), "pending after trigger");

        // Claim ladder: one execution path per source id.
        for k in 1..=cfg.sources {
            if ctx.decide(&i.eq(&ctx.word32(k))) {
                let mut claim = GenericPayload::read(ctx, ctx.word32(CLAIM_ADDR), 4);
                plic.b_transport(ctx, &mut kernel, &mut claim);
                ctx.check_concrete(claim.response.is_ok(), "claim read succeeds");
                ctx.check(&claim.word(0).eq(&i), "claimed id matches trigger");
                break;
            }
        }
    }
}

/// How many delay bins [`t1_cross_pattern`] enumerates.
pub const CROSS_DELAY_BINS: u32 = 4;

/// The T1-pattern testbench crossed with an *independent* symbolic delay:
/// alongside the interrupt-id ladder, a second ladder enumerates a
/// `t_delay` input that shares no variable with `i_interrupt`. The path
/// count is the cross product (`sources × CROSS_DELAY_BINS`), and the two
/// constraint families occupy disjoint independence slices — the workload
/// the slicing layer exists for. Focused feasibility checks on one ladder
/// skip the other ladder's slice entirely, and each slice's results are
/// reused across the whole cross product by the counterexample cache.
pub fn t1_cross_pattern(cfg: PlicConfig) -> impl Fn(&SymCtx) + Send + Sync {
    let t1 = t1_pattern(cfg);
    move |ctx: &SymCtx| {
        let delay = ctx.symbolic("t_delay", Width::W32);
        let bins = ctx.word32(CROSS_DELAY_BINS);
        ctx.assume(&delay.ult(&bins));
        // Delay ladder: a fork per bin, independent of the id ladder.
        for d in 0..CROSS_DELAY_BINS {
            if ctx.decide(&delay.eq(&ctx.word32(d))) {
                ctx.cover(&format!("delay{d}"));
                break;
            }
        }
        t1(ctx);
    }
}

/// A probe-dense claim ladder: the fork-cost stress workload for the
/// ablation table's `cow_fork` row. It keeps the decision shape of T1 — a symbolic
/// claim id enumerated with one `decide` per source — but replaces the
/// peripheral model with a per-step multiplicative bound check
/// (`x * (x + i) < n * (n + i)`, provably true for `x < n`). Every step
/// of every path's shared prefix therefore carries an assertion probe
/// the solver must refute through a bit-blasted multiplier, while the
/// native per-path work stays negligible: the wall-clock difference
/// between fork strategies is almost entirely the re-solved prefix work
/// that copy-on-write snapshot resumption eliminates. (The `sources`
/// field of `cfg` sets the ladder depth; the peripheral itself is not
/// instantiated.)
pub fn claim_ladder(cfg: PlicConfig) -> impl Fn(&SymCtx) + Send + Sync {
    let n = cfg.sources;
    move |ctx: &SymCtx| {
        let x = ctx.symbolic("claim", Width::W16);
        ctx.assume(&x.ult(&ctx.word(u64::from(n), Width::W16)));
        for i in 0..n {
            let xi = x.add(&ctx.word(u64::from(i), Width::W16));
            let bound = ctx.word(u64::from(n * (n + i)), Width::W16);
            ctx.check(&x.mul(&xi).ult(&bound), "claim product bound");
            if ctx.decide(&x.eq(&ctx.word(u64::from(i), Width::W16))) {
                ctx.cover(&format!("claimed_{i}"));
                return;
            }
        }
    }
}
