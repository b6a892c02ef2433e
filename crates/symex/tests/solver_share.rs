//! The "Solver" column at more than one worker: solver time and busy time
//! are both summed over the worker threads, so the share is a percentage.

use symsc_symex::{Explorer, SymCtx, Width};

/// A ladder of nonlinear branch conditions: every fork is a real SAT
/// query, so the solver takes most of each path's time.
fn solver_heavy_bench(ctx: &SymCtx) {
    let x = ctx.symbolic("x", Width::W32);
    let y = ctx.symbolic("y", Width::W32);
    let product = x.mul(&y);
    for k in 1..=6u64 {
        let hit = product.eq(&ctx.word(k * 7919, Width::W32));
        if ctx.decide(&hit) {
            ctx.cover(&format!("k{k}"));
            return;
        }
    }
}

#[test]
fn two_worker_solver_share_stays_a_percentage() {
    let report = Explorer::new().workers(2).explore(solver_heavy_bench);
    let stats = &report.stats;
    assert_eq!(stats.paths, 7);
    assert!(stats.solver_time <= stats.busy_time);
    let share = stats.solver_share();
    assert!(
        share > 0.0 && share <= 100.0,
        "solver share {share:.2} % at two workers"
    );
}
