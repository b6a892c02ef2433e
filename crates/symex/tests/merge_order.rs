//! Integration: exploration orders are pure optimizations.
//!
//! `MergeEager` adopts finished join-point subtrees instead of
//! re-executing them and `CoverageGuided` reorders the visitation; for
//! both, everything the exhaustive engine reports —
//! path count, errors with counterexamples, coverage bins, branch maps —
//! must stay byte-identical. Only the *work* counters (executed paths,
//! decisions, solver traffic) may differ.

use symsc_symex::{ExploreOrder, Explorer, ForkStrategy, Report, SymCtx, Width};

/// Everything in a report that must not depend on the exploration order.
/// (Work counters — `decisions`, `executed_paths`, solver stats — and
/// `stats.time` legitimately differ between orders.)
fn stable_view(report: &Report) -> String {
    use std::fmt::Write;
    let mut view = String::new();
    writeln!(
        view,
        "paths={} completed={}",
        report.stats.paths, report.completed
    )
    .unwrap();
    for error in &report.errors {
        writeln!(
            view,
            "error path={} kind={:?} msg={} cex={}",
            error.path, error.kind, error.message, error.counterexample
        )
        .unwrap();
    }
    for (point, count) in &report.coverage {
        writeln!(view, "cover {point}={count}").unwrap();
    }
    for (site, bc) in &report.stats.branches {
        writeln!(view, "branch {site:032x}={}/{}", bc.taken, bc.not_taken).unwrap();
    }
    view
}

/// A testbench with a clean join point: a 4-way ladder over the delay
/// input `d`, then a device state independent of which bin was taken,
/// then a 5-way ladder over the id input `i` with an error in the
/// `i == 2` arm. Exhaustive exploration walks 4 x 5 = 20 paths; the
/// merging engine executes the `i`-ladder once and adopts it from the
/// other three delay bins.
fn fenced_bench(ctx: &SymCtx) {
    let d = ctx.symbolic("d", Width::W8);
    let mut bin = 3u64;
    for b in 0..3u64 {
        let hit = d.eq(&ctx.word(b, Width::W8));
        if ctx.decide(&hit) {
            bin = b;
            break;
        }
    }
    ctx.cover(&format!("bin{bin}"));
    // The join: downstream behavior depends only on this published state.
    ctx.note_state("dev", 7);
    let i = ctx.symbolic("i", Width::W8);
    for id in 0..4u64 {
        let hit = i.eq(&ctx.word(id, Width::W8));
        if ctx.decide(&hit) {
            ctx.cover(&format!("id{id}"));
            if id == 2 {
                // Fails exactly on this arm, on every delay bin: the
                // counterexample's `d` value must still reflect the bin.
                ctx.check(&i.ne(&ctx.word(2, Width::W8)), "id 2 is reserved");
            }
            return;
        }
    }
    ctx.cover("id_big");
}

/// A join whose arrivals carry structurally different but logically
/// equivalent range constraints on the suffix variable: the structural
/// diff check fails (both prefixes speak about `i`), so adoption must go
/// through the incremental-SAT implication query.
fn subsumable_bench(ctx: &SymCtx) {
    let s = ctx.symbolic("s", Width::W8);
    let i = ctx.symbolic("i", Width::W32);
    let low = s.ule(&ctx.word(100, Width::W8));
    if ctx.decide(&low) {
        // Range form: i <= 255.
        ctx.assume(&i.ule(&ctx.word(255, Width::W32)));
        ctx.cover("range_form");
    } else {
        // Mask form: i & 0xFF == i — the same fact, different structure.
        ctx.assume(&i.and(&ctx.word(0xFF, Width::W32)).eq(&i));
        ctx.cover("mask_form");
    }
    ctx.note_state("dev", 1);
    for id in 0..3u64 {
        let hit = i.eq(&ctx.word(id, Width::W32));
        if ctx.decide(&hit) {
            ctx.cover(&format!("id{id}"));
            return;
        }
    }
    ctx.cover("id_big");
}

fn explorer(order: ExploreOrder) -> Explorer {
    Explorer::new().workers(1).explore_order(order)
}

#[test]
fn merged_report_is_byte_identical_to_exhaustive() {
    let exhaustive = explorer(ExploreOrder::Exhaustive).explore(fenced_bench);
    let merged = explorer(ExploreOrder::MergeEager).explore(fenced_bench);
    assert_eq!(stable_view(&exhaustive), stable_view(&merged));
    assert_eq!(exhaustive.stats.paths, 20, "4 delay bins x 5 id outcomes");
    assert_eq!(exhaustive.stats.executed_paths, 20);
}

#[test]
fn merging_executes_fewer_paths() {
    let merged = explorer(ExploreOrder::MergeEager).explore(fenced_bench);
    assert_eq!(merged.stats.paths, 20, "represented paths are exhaustive");
    assert!(
        merged.stats.executed_paths < merged.stats.paths,
        "merging must save executions ({} executed, {} represented)",
        merged.stats.executed_paths,
        merged.stats.paths
    );
    assert!(merged.stats.merged_paths > 0, "structural merges happened");
    assert!(merged.stats.join_sites > 0, "the join was registered");
}

#[test]
fn merged_counterexamples_resolve_per_bin() {
    // The error lives in the adopted suffix; its counterexample must be
    // re-solved under each adopter's prefix, so every delay bin reports
    // its own distinct `d` value with `i = 2`.
    let merged = explorer(ExploreOrder::MergeEager).explore(fenced_bench);
    assert_eq!(merged.errors.len(), 4, "one error per delay bin");
    let mut d_values: Vec<u64> = merged
        .errors
        .iter()
        .map(|e| e.counterexample.value("d"))
        .collect();
    for error in &merged.errors {
        assert_eq!(error.counterexample.value("i"), 2);
    }
    d_values.sort_unstable();
    d_values.dedup();
    assert_eq!(d_values.len(), 4, "each bin pins a distinct d");
}

#[test]
fn subsumption_uses_the_implication_query() {
    let exhaustive = explorer(ExploreOrder::Exhaustive).explore(subsumable_bench);
    let merged = explorer(ExploreOrder::MergeEager).explore(subsumable_bench);
    assert_eq!(stable_view(&exhaustive), stable_view(&merged));
    assert!(
        merged.stats.subsumed_paths > 0,
        "equivalent range constraints must be proven by implication \
         (stats: {})",
        merged.stats
    );
    assert!(merged.stats.executed_paths < merged.stats.paths);
}

#[test]
fn merging_is_identical_under_both_fork_strategies() {
    // The trace machinery differs between COW fast-forward (carried
    // error events) and re-execution (re-recorded live); the reports and
    // the merge effect must not.
    let cow = explorer(ExploreOrder::MergeEager)
        .fork_strategy(ForkStrategy::CowSnapshot)
        .explore(fenced_bench);
    let reexec = explorer(ExploreOrder::MergeEager)
        .fork_strategy(ForkStrategy::Reexec)
        .explore(fenced_bench);
    assert_eq!(stable_view(&cow), stable_view(&reexec));
    assert_eq!(cow.stats.executed_paths, reexec.stats.executed_paths);
    assert_eq!(cow.stats.merged_paths, reexec.stats.merged_paths);
}

#[test]
fn merged_parallel_report_matches_sequential() {
    // Parallel MergeEager may adopt less (subtrees in flight elsewhere
    // are executed, not adopted), but the report must stay identical.
    let sequential = explorer(ExploreOrder::MergeEager).explore(fenced_bench);
    for workers in [2, 8] {
        let parallel = explorer(ExploreOrder::MergeEager)
            .workers(workers)
            .explore(fenced_bench);
        assert_eq!(
            stable_view(&sequential),
            stable_view(&parallel),
            "merged report changed between 1 and {workers} workers"
        );
    }
}

#[test]
fn coverage_guided_report_matches_exhaustive() {
    let exhaustive = explorer(ExploreOrder::Exhaustive).explore(fenced_bench);
    let guided = explorer(ExploreOrder::CoverageGuided).explore(fenced_bench);
    assert_eq!(stable_view(&exhaustive), stable_view(&guided));
    assert_eq!(guided.stats.executed_paths, guided.stats.paths);
}

#[test]
fn coverage_guided_promotes_unvisited_sites() {
    // A breadth-heavy bench: the root forks several independent sites, so
    // after the first path finishes, deeper pending snapshots flip sites
    // already seen while shallower ones are fresh — promotions must fire.
    let bench = |ctx: &SymCtx| {
        let a = ctx.symbolic("a", Width::W8);
        let b = ctx.symbolic("b", Width::W8);
        let c = ctx.symbolic("c", Width::W8);
        let zero = ctx.word(0, Width::W8);
        let mut hits = 0u32;
        for (name, v) in [("a", &a), ("b", &b), ("c", &c)] {
            if ctx.decide(&v.eq(&zero)) {
                ctx.cover(name);
                hits += 1;
            }
        }
        ctx.check_concrete(hits <= 3, "unreachable");
    };
    let exhaustive = explorer(ExploreOrder::Exhaustive).explore(bench);
    let guided = explorer(ExploreOrder::CoverageGuided).explore(bench);
    assert_eq!(stable_view(&exhaustive), stable_view(&guided));
    assert!(
        guided.stats.sched_promotions > 0,
        "the scheduler should have promoted at least one snapshot \
         (stats: {})",
        guided.stats
    );
}
