//! Property suite for the layered solver stack (independence slicing +
//! counterexample cache + model reuse).
//!
//! A seeded in-tree PRNG generates constraint sets over *six* variables,
//! with each constraint touching a small random subset of them — so the
//! sets decompose into several independence slices, which is the regime
//! the stack optimizes. The properties, mirroring the determinism contract
//! in `solver.rs`:
//!
//! 1. The full stack and the flat (cache-free) path agree on every verdict
//!    *and* every model, bit for bit.
//! 2. Several solvers sharing one cache stack — each replaying the corpus
//!    in a different order, like parallel workers racing — still agree
//!    with the flat baseline exactly.
//! 3. `check_feasible` (the verdict-only fast path with subset-model
//!    reuse) agrees with a flat full check of base ∪ {focus} whenever its
//!    precondition (feasible base) holds.

use std::collections::HashMap;
use std::sync::Arc;

use symsc_rng::Rng;
use symsc_smt::eval::evaluate;
use symsc_smt::{CexCache, SatResult, Solver, TermId, TermPool, Width};

const W: Width = Width::W8;
const SEED: u64 = 0x51_1CE5;
const CORPUS: usize = 64;
const VARS: usize = 6;

/// One constraint: a random binary-op tree over 1–2 of the six variables,
/// compared against a random bound. Pool-independent by construction.
#[derive(Clone, Debug)]
struct Constraint {
    vars: [usize; 2],
    ops: Vec<u32>,
    cmp: u32,
    bound: u8,
}

fn build(pool: &mut TermPool, c: &Constraint) -> TermId {
    let mut stack: Vec<TermId> = vec![
        pool.var(&format!("v{}", c.vars[0]), W),
        pool.var(&format!("v{}", c.vars[1]), W),
        pool.constant(u64::from(c.bound).rotate_left(3) & 0xff, W),
    ];
    for op in &c.ops {
        let a = stack[(op >> 8) as usize % stack.len()];
        let b = stack[(op >> 16) as usize % stack.len()];
        let t = match op % 5 {
            0 => pool.add(a, b),
            1 => pool.sub(a, b),
            2 => pool.and(a, b),
            3 => pool.xor(a, b),
            _ => pool.mul(a, b),
        };
        stack.push(t);
    }
    let lhs = *stack.last().unwrap();
    let rhs = pool.constant(u64::from(c.bound), W);
    match c.cmp % 3 {
        0 => pool.eq(lhs, rhs),
        1 => pool.ult(lhs, rhs),
        _ => pool.ult(rhs, lhs),
    }
}

/// Each corpus entry: 2–5 constraints over random variable pairs, plus one
/// extra constraint reserved as a `check_feasible` focus. Constraints are
/// drawn from a small shared pool, so the *same* constraint (and hence the
/// same independence slice) recurs across many entries — the overlap
/// profile of real path-exploration queries, and what the slice-granular
/// cache layers exist to exploit.
fn corpus() -> Vec<(Vec<Constraint>, Constraint)> {
    let mut rng = Rng::seed_from_u64(SEED);
    let gen_constraint = |rng: &mut Rng| {
        let a = rng.gen_range_inclusive(0, VARS as u64 - 1) as usize;
        // Half the constraints are single-variable (vars[0] == vars[1]).
        let b = if rng.gen_range_inclusive(0, 1) == 0 {
            a
        } else {
            rng.gen_range_inclusive(0, VARS as u64 - 1) as usize
        };
        Constraint {
            vars: [a, b],
            ops: (0..rng.gen_range_inclusive(1, 3))
                .map(|_| rng.next_u32())
                .collect(),
            cmp: rng.next_u32(),
            bound: rng.next_u32() as u8,
        }
    };
    let shared: Vec<Constraint> = (0..20).map(|_| gen_constraint(&mut rng)).collect();
    (0..CORPUS)
        .map(|_| {
            let n = rng.gen_range_inclusive(2, 5) as usize;
            let set = (0..n)
                .map(|_| {
                    let i = rng.gen_range_inclusive(0, shared.len() as u64 - 1) as usize;
                    shared[i].clone()
                })
                .collect();
            let focus =
                shared[rng.gen_range_inclusive(0, shared.len() as u64 - 1) as usize].clone();
            (set, focus)
        })
        .collect()
}

type EntryResult = (bool, Option<Vec<(String, u64)>>);

fn solve_entry(pool: &mut TermPool, solver: &mut Solver, entry: &[Constraint]) -> EntryResult {
    let terms: Vec<TermId> = entry.iter().map(|c| build(pool, c)).collect();
    match solver.check(pool, &terms) {
        SatResult::Sat(model) => {
            let env: HashMap<String, u64> = model.to_env();
            for (term, c) in terms.iter().zip(entry) {
                assert_eq!(evaluate(pool, *term, &env), 1, "model must satisfy {c:?}");
            }
            let mut pairs: Vec<(String, u64)> =
                model.iter().map(|(k, v)| (k.to_string(), v)).collect();
            pairs.sort();
            (true, Some(pairs))
        }
        SatResult::Unsat => (false, None),
    }
}

fn replay_in_order(solver: &mut Solver, order: &[usize]) -> Vec<(usize, EntryResult)> {
    let mut pool = TermPool::new();
    let sets = corpus();
    order
        .iter()
        .map(|&i| (i, solve_entry(&mut pool, solver, &sets[i].0)))
        .collect()
}

#[test]
fn layered_and_flat_agree_on_verdicts_and_models() {
    let mut flat_pool = TermPool::new();
    let mut flat = Solver::without_cache();
    let sets = corpus();
    let baseline: Vec<EntryResult> = sets
        .iter()
        .map(|(set, _)| solve_entry(&mut flat_pool, &mut flat, set))
        .collect();
    assert!(baseline.iter().any(|(sat, _)| *sat), "corpus has sat sets");
    assert!(
        baseline.iter().any(|(sat, _)| !*sat),
        "corpus has unsat sets"
    );

    let mut pool = TermPool::new();
    let mut layered = Solver::new();
    let first: Vec<EntryResult> = sets
        .iter()
        .map(|(set, _)| solve_entry(&mut pool, &mut layered, set))
        .collect();
    assert_eq!(baseline, first, "stack on vs off: identical results");
    // The multi-variable corpus must actually exercise the slice layers:
    // only cache-missed queries are partitioned (one slice minimum each),
    // so more slices than misses means some set split into several.
    let stats = layered.stats();
    assert!(stats.slices > stats.cache_misses, "sets split into slices");
    assert!(
        stats.slice_hits + stats.cex_subset_hits > 0,
        "slice-level reuse occurred: {stats:?}"
    );

    // A second replay answers everything from the caches — and still
    // returns the same models.
    let core_before = layered.stats().sat_core_calls;
    let second: Vec<EntryResult> = sets
        .iter()
        .map(|(set, _)| solve_entry(&mut pool, &mut layered, set))
        .collect();
    assert_eq!(baseline, second);
    assert_eq!(layered.stats().sat_core_calls, core_before);
}

#[test]
fn shared_stack_is_order_independent_across_solvers() {
    // Eight "workers": solvers sharing one cache, each replaying the
    // corpus in a different seeded permutation. Every result must equal
    // the flat baseline regardless of who populated which cache entry
    // first.
    let mut flat_pool = TermPool::new();
    let mut flat = Solver::without_cache();
    let sets = corpus();
    let baseline: Vec<EntryResult> = sets
        .iter()
        .map(|(set, _)| solve_entry(&mut flat_pool, &mut flat, set))
        .collect();

    let cache = Arc::new(CexCache::new());
    let mut rng = Rng::seed_from_u64(SEED ^ 0xFF);
    for worker in 0..8 {
        let mut order: Vec<usize> = (0..sets.len()).collect();
        // Fisher–Yates with the seeded generator.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range_inclusive(0, i as u64) as usize;
            order.swap(i, j);
        }
        let mut solver = Solver::with_stack(Some(Arc::clone(&cache)));
        for (i, result) in replay_in_order(&mut solver, &order) {
            assert_eq!(
                baseline[i], result,
                "worker {worker} disagrees with the flat baseline on set {i}"
            );
        }
    }
}

#[test]
fn check_feasible_matches_flat_full_check() {
    let sets = corpus();
    let mut flat_pool = TermPool::new();
    let mut flat = Solver::without_cache();
    let mut layered_pool = TermPool::new();
    let mut layered = Solver::new();
    let mut feasible_cases = 0;

    for (set, focus) in &sets {
        // Precondition of check_feasible: the base must be satisfiable.
        let base_flat: Vec<TermId> = set.iter().map(|c| build(&mut flat_pool, c)).collect();
        if !flat.check(&flat_pool, &base_flat).is_sat() {
            continue;
        }
        feasible_cases += 1;

        let focus_flat = build(&mut flat_pool, focus);
        let mut full = base_flat.clone();
        full.push(focus_flat);
        let expected = flat.check(&flat_pool, &full).is_sat();

        let base: Vec<TermId> = set.iter().map(|c| build(&mut layered_pool, c)).collect();
        // Warm the path the engine takes: the base set has been checked
        // (and its slice models cached) before any branch probe on it.
        assert!(layered.check(&layered_pool, &base).is_sat());
        let focus_id = build(&mut layered_pool, focus);
        let got = layered.check_feasible(&layered_pool, &base, focus_id);
        assert_eq!(expected, got, "feasibility mismatch on {set:?} + {focus:?}");
    }
    assert!(feasible_cases > 10, "corpus exercises the feasibility path");
    let stats = layered.stats();
    assert!(
        stats.focus_skips > 0,
        "multi-slice bases produce focus skips: {stats:?}"
    );
}
