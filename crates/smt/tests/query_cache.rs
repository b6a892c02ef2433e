//! Corpus-replay correctness suite for the solver's whole-query memo (the
//! exact map of its one `CexCache`).
//!
//! A seeded in-tree PRNG generates a corpus of constraint sets (random
//! term trees compared against random bounds, so the corpus mixes sat and
//! unsat queries). The same corpus is then solved with the cache off, with
//! a private cache, and through a shared cache from a second term pool.
//! The cache must be semantically invisible: identical verdicts, models
//! that really satisfy the constraints (checked through the independent
//! evaluator), and hit/miss counters that account for every lookup.

use std::collections::HashMap;
use std::sync::Arc;

use symsc_rng::Rng;
use symsc_smt::eval::evaluate;
use symsc_smt::{CexCache, SatResult, Solver, TermId, TermPool, Width};

const W: Width = Width::W8;
const SEED: u64 = 0x5EED_CAC4E;
const CORPUS: usize = 48;

/// One constraint: a random binary-op tree compared against a bound.
#[derive(Clone, Debug)]
enum Cmp {
    Eq,
    Ult,
    Ugt,
}

#[derive(Clone, Debug)]
struct Constraint {
    ops: Vec<u32>,
    cmp: Cmp,
    bound: u8,
}

/// Builds the constraint's term in `pool`. The op stream drives a tiny
/// stack machine over vars/constants so the same `Constraint` rebuilds
/// the structurally identical term in any pool.
fn build(pool: &mut TermPool, c: &Constraint) -> TermId {
    let mut stack: Vec<TermId> = vec![
        pool.var("v0", W),
        pool.var("v1", W),
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
    match c.cmp {
        Cmp::Eq => pool.eq(lhs, rhs),
        Cmp::Ult => pool.ult(lhs, rhs),
        Cmp::Ugt => pool.ult(rhs, lhs),
    }
}

/// Generates the corpus: each entry is a set of 1–3 constraints.
fn corpus() -> Vec<Vec<Constraint>> {
    let mut rng = Rng::seed_from_u64(SEED);
    (0..CORPUS)
        .map(|_| {
            let n = rng.gen_range_inclusive(1, 3) as usize;
            (0..n)
                .map(|_| Constraint {
                    ops: (0..rng.gen_range_inclusive(1, 4))
                        .map(|_| rng.next_u32())
                        .collect(),
                    cmp: match rng.gen_range_inclusive(0, 2) {
                        0 => Cmp::Eq,
                        1 => Cmp::Ult,
                        _ => Cmp::Ugt,
                    },
                    bound: rng.next_u32() as u8,
                })
                .collect()
        })
        .collect()
}

/// A sat flag plus the model's sorted `(name, value)` pairs, if any.
type EntryResult = (bool, Option<Vec<(String, u64)>>);

/// Solves every corpus entry with `solver` over `pool`, returning per-entry
/// `(is_sat, model)` pairs and checking each sat model against the
/// independent evaluator.
fn replay(pool: &mut TermPool, solver: &mut Solver) -> Vec<EntryResult> {
    corpus()
        .iter()
        .map(|entry| {
            let terms: Vec<TermId> = entry.iter().map(|c| build(pool, c)).collect();
            let result = solver.check(pool, &terms);
            match result {
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
        })
        .collect()
}

#[test]
fn cache_on_and_off_agree_on_verdicts_and_models() {
    let mut pool_off = TermPool::new();
    let mut uncached = Solver::without_cache();
    let baseline = replay(&mut pool_off, &mut uncached);
    assert!(
        baseline.iter().any(|(sat, _)| *sat),
        "corpus has sat entries"
    );
    assert!(
        baseline.iter().any(|(sat, _)| !*sat),
        "corpus has unsat entries"
    );

    let mut pool_on = TermPool::new();
    let mut cached = Solver::new();
    let first = replay(&mut pool_on, &mut cached);
    // Thanks to fingerprint-canonical models, cached and uncached runs
    // agree not just on verdicts but on the exact models.
    assert_eq!(baseline, first);

    // Replaying the same corpus through the same solver hits for every
    // query and changes nothing.
    let second = replay(&mut pool_on, &mut cached);
    assert_eq!(baseline, second);
}

#[test]
fn hit_and_miss_counters_account_for_every_lookup() {
    // Constant-folded (trivial) queries are answered before the cache, so
    // the accounting identity is hits + misses + trivial = queries.
    let mut pool = TermPool::new();
    let mut solver = Solver::new();
    replay(&mut pool, &mut solver);
    let after_first = solver.stats();
    assert!(after_first.cache_misses > 0, "corpus reaches the cache");
    assert_eq!(
        after_first.cache_hits + after_first.cache_misses + after_first.trivial,
        after_first.queries
    );

    replay(&mut pool, &mut solver);
    let after_second = solver.stats();
    assert_eq!(
        after_second.cache_hits + after_second.cache_misses + after_second.trivial,
        after_second.queries
    );
    // Every second-pass query repeats a first-pass one: all cache lookups
    // hit, and the miss counter does not move.
    assert_eq!(
        after_second.cache_hits - after_first.cache_hits,
        after_first.cache_misses
    );
    assert_eq!(after_second.cache_misses, after_first.cache_misses);

    let mut uncached = Solver::without_cache();
    replay(&mut pool, &mut uncached);
    let stats = uncached.stats();
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 0);
}

#[test]
fn shared_cache_replays_across_term_pools() {
    // A second solver with a *different* pool but the same shared cache
    // must hit on every query: cache keys are structural fingerprints,
    // not pool-local term ids.
    let cache = Arc::new(CexCache::new());
    let mut pool_a = TermPool::new();
    let mut solver_a = Solver::with_stack(Some(Arc::clone(&cache)));
    let results_a = replay(&mut pool_a, &mut solver_a);
    let stats_a = solver_a.stats();
    assert_eq!(stats_a.cache_hits, 0);
    assert_eq!(stats_a.cache_misses, stats_a.queries - stats_a.trivial);

    let mut pool_b = TermPool::new();
    let mut solver_b = Solver::with_stack(Some(cache));
    let results_b = replay(&mut pool_b, &mut solver_b);
    let stats_b = solver_b.stats();
    assert_eq!(results_a, results_b);
    assert_eq!(stats_b.cache_misses, 0);
    assert_eq!(stats_b.cache_hits, stats_b.queries - stats_b.trivial);
}
