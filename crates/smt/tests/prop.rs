//! Property-based tests for the SMT stack.
//!
//! Strategy: generate random term trees from a seeded in-tree PRNG (the
//! workspace builds offline, so `proptest` is unavailable — each property
//! is a deterministic loop over `symsc_rng` with a fixed seed, which also
//! makes every failure immediately reproducible), then check three
//! invariants.
//!
//! 1. *Folding soundness* — the pool's construction-time simplifications
//!    never change semantics: `evaluate(build(ops), env)` equals a shadow
//!    interpretation of the same ops directly on `u64`.
//! 2. *Planted satisfiability* — for a random term `t` and random
//!    environment `env`, the constraint `t == eval(t, env)` is satisfiable
//!    and the returned model really satisfies it (checked through the
//!    independent evaluator).
//! 3. *Planted unsatisfiability* — `x == c1 && x == c2` with `c1 != c2`
//!    is reported unsatisfiable.
//!
//! A fourth property checks the memoizing [`Evaluator`]: one memo, kept
//! across many roots of one growing pool, answers like the shadow
//! interpreter, and again after `clear()` under a new assignment.

use std::collections::HashMap;

use symsc_rng::Rng;
use symsc_smt::eval::{evaluate, Evaluator};
use symsc_smt::{SatResult, Solver, TermId, TermPool, Width};

const W: Width = Width::W8;

/// A tiny op language mirrored both into the pool and a shadow interpreter.
#[derive(Clone, Debug)]
enum Node {
    Var(u8),
    Const(u8),
    Not(Box<Node>),
    Neg(Box<Node>),
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Xor(Box<Node>, Box<Node>),
    Add(Box<Node>, Box<Node>),
    Sub(Box<Node>, Box<Node>),
    Mul(Box<Node>, Box<Node>),
    Udiv(Box<Node>, Box<Node>),
    Urem(Box<Node>, Box<Node>),
    Shl(Box<Node>, Box<Node>),
    Lshr(Box<Node>, Box<Node>),
    IteUlt(Box<Node>, Box<Node>, Box<Node>, Box<Node>),
}

/// Samples a random term tree of height at most `depth`.
fn gen_node(rng: &mut Rng, depth: u32) -> Node {
    // At depth 0 always emit a leaf; otherwise emit one ~1/4 of the time
    // so trees stay varied in shape.
    if depth == 0 || rng.gen_range_inclusive(0, 3) == 0 {
        return if rng.gen_bool() {
            Node::Var(rng.gen_range_inclusive(0, 2) as u8)
        } else {
            Node::Const(rng.next_u32() as u8)
        };
    }
    let sub = |rng: &mut Rng| Box::new(gen_node(rng, depth - 1));
    match rng.gen_range_inclusive(0, 12) {
        0 => Node::Not(sub(rng)),
        1 => Node::Neg(sub(rng)),
        2 => Node::And(sub(rng), sub(rng)),
        3 => Node::Or(sub(rng), sub(rng)),
        4 => Node::Xor(sub(rng), sub(rng)),
        5 => Node::Add(sub(rng), sub(rng)),
        6 => Node::Sub(sub(rng), sub(rng)),
        7 => Node::Mul(sub(rng), sub(rng)),
        8 => Node::Udiv(sub(rng), sub(rng)),
        9 => Node::Urem(sub(rng), sub(rng)),
        10 => Node::Shl(sub(rng), sub(rng)),
        11 => Node::Lshr(sub(rng), sub(rng)),
        _ => Node::IteUlt(sub(rng), sub(rng), sub(rng), sub(rng)),
    }
}

fn gen_env(rng: &mut Rng) -> [u8; 3] {
    [
        rng.next_u32() as u8,
        rng.next_u32() as u8,
        rng.next_u32() as u8,
    ]
}

fn build(pool: &mut TermPool, node: &Node) -> TermId {
    match node {
        Node::Var(i) => pool.var(&format!("v{i}"), W),
        Node::Const(c) => pool.constant(u64::from(*c), W),
        Node::Not(a) => {
            let a = build(pool, a);
            pool.not(a)
        }
        Node::Neg(a) => {
            let a = build(pool, a);
            pool.neg(a)
        }
        Node::And(a, b) => {
            let (a, b) = (build(pool, a), build(pool, b));
            pool.and(a, b)
        }
        Node::Or(a, b) => {
            let (a, b) = (build(pool, a), build(pool, b));
            pool.or(a, b)
        }
        Node::Xor(a, b) => {
            let (a, b) = (build(pool, a), build(pool, b));
            pool.xor(a, b)
        }
        Node::Add(a, b) => {
            let (a, b) = (build(pool, a), build(pool, b));
            pool.add(a, b)
        }
        Node::Sub(a, b) => {
            let (a, b) = (build(pool, a), build(pool, b));
            pool.sub(a, b)
        }
        Node::Mul(a, b) => {
            let (a, b) = (build(pool, a), build(pool, b));
            pool.mul(a, b)
        }
        Node::Udiv(a, b) => {
            let (a, b) = (build(pool, a), build(pool, b));
            pool.udiv(a, b)
        }
        Node::Urem(a, b) => {
            let (a, b) = (build(pool, a), build(pool, b));
            pool.urem(a, b)
        }
        Node::Shl(a, b) => {
            let (a, b) = (build(pool, a), build(pool, b));
            pool.shl(a, b)
        }
        Node::Lshr(a, b) => {
            let (a, b) = (build(pool, a), build(pool, b));
            pool.lshr(a, b)
        }
        Node::IteUlt(c1, c2, t, e) => {
            let (c1, c2) = (build(pool, c1), build(pool, c2));
            let cond = pool.ult(c1, c2);
            let (t, e) = (build(pool, t), build(pool, e));
            pool.ite(cond, t, e)
        }
    }
}

/// Ground-truth interpreter over `u8` semantics, written independently of
/// the pool's folding rules.
fn shadow(node: &Node, env: &[u8; 3]) -> u8 {
    match node {
        Node::Var(i) => env[*i as usize],
        Node::Const(c) => *c,
        Node::Not(a) => !shadow(a, env),
        Node::Neg(a) => shadow(a, env).wrapping_neg(),
        Node::And(a, b) => shadow(a, env) & shadow(b, env),
        Node::Or(a, b) => shadow(a, env) | shadow(b, env),
        Node::Xor(a, b) => shadow(a, env) ^ shadow(b, env),
        Node::Add(a, b) => shadow(a, env).wrapping_add(shadow(b, env)),
        Node::Sub(a, b) => shadow(a, env).wrapping_sub(shadow(b, env)),
        Node::Mul(a, b) => shadow(a, env).wrapping_mul(shadow(b, env)),
        Node::Udiv(a, b) => shadow(a, env).checked_div(shadow(b, env)).unwrap_or(0xFF),
        Node::Urem(a, b) => {
            let a = shadow(a, env);
            a.checked_rem(shadow(b, env)).unwrap_or(a)
        }
        Node::Shl(a, b) => {
            let s = shadow(b, env);
            if s >= 8 {
                0
            } else {
                shadow(a, env) << s
            }
        }
        Node::Lshr(a, b) => {
            let s = shadow(b, env);
            if s >= 8 {
                0
            } else {
                shadow(a, env) >> s
            }
        }
        Node::IteUlt(c1, c2, t, e) => {
            if shadow(c1, env) < shadow(c2, env) {
                shadow(t, env)
            } else {
                shadow(e, env)
            }
        }
    }
}

fn env_map(env: &[u8; 3]) -> HashMap<String, u64> {
    (0..3)
        .map(|i| (format!("v{i}"), u64::from(env[i])))
        .collect()
}

#[test]
fn folding_preserves_semantics() {
    let mut rng = Rng::seed_from_u64(0x5EED_0001);
    for case in 0..256 {
        let node = gen_node(&mut rng, 4);
        let env = gen_env(&mut rng);
        let mut pool = TermPool::new();
        let t = build(&mut pool, &node);
        let via_pool = evaluate(&pool, t, &env_map(&env));
        let via_shadow = u64::from(shadow(&node, &env));
        assert_eq!(
            via_pool,
            via_shadow,
            "case {case}: term {} under {env:?}",
            pool.display(t)
        );
    }
}

#[test]
fn one_evaluator_memo_serves_many_roots() {
    let mut rng = Rng::seed_from_u64(0x5EED_0005);
    let mut pool = TermPool::new();
    let mut evaluator = Evaluator::new();
    let env = gen_env(&mut rng);
    let map = env_map(&env);
    // Build and evaluate in creation order: the pool grows between calls
    // and the memo carries every shared subterm over.
    let mut roots = Vec::new();
    for case in 0..256 {
        let node = gen_node(&mut rng, 4);
        let t = build(&mut pool, &node);
        assert_eq!(
            evaluator.eval(&pool, t, &map),
            u64::from(shadow(&node, &env)),
            "case {case}: term {} under {env:?}",
            pool.display(t)
        );
        roots.push((node, t));
    }
    // A new assignment after `clear()`: every root again, same order.
    evaluator.clear();
    let env = gen_env(&mut rng);
    let map = env_map(&env);
    for (case, (node, t)) in roots.iter().enumerate() {
        assert_eq!(
            evaluator.eval(&pool, *t, &map),
            u64::from(shadow(node, &env)),
            "case {case} after clear: term {} under {env:?}",
            pool.display(*t)
        );
    }
}

#[test]
fn planted_constraint_is_sat() {
    let mut rng = Rng::seed_from_u64(0x5EED_0002);
    for case in 0..256 {
        let node = gen_node(&mut rng, 4);
        let env = gen_env(&mut rng);
        let mut pool = TermPool::new();
        let t = build(&mut pool, &node);
        let planted = evaluate(&pool, t, &env_map(&env));
        let c = pool.constant(planted, W);
        let constraint = pool.eq(t, c);
        let mut solver = Solver::new();
        match solver.check(&pool, &[constraint]) {
            SatResult::Sat(model) => {
                let value = evaluate(&pool, constraint, &model.to_env());
                assert_eq!(value, 1, "case {case}: model {model} violates constraint");
            }
            SatResult::Unsat => {
                panic!("case {case}: planted constraint reported unsat");
            }
        }
    }
}

#[test]
fn contradictory_equalities_are_unsat() {
    let mut rng = Rng::seed_from_u64(0x5EED_0003);
    for _ in 0..256 {
        let c1 = rng.next_u32() as u8;
        let c2 = rng.next_u32() as u8;
        if c1 == c2 {
            continue;
        }
        let mut pool = TermPool::new();
        let x = pool.var("x", W);
        let k1 = pool.constant(u64::from(c1), W);
        let k2 = pool.constant(u64::from(c2), W);
        let e1 = pool.eq(x, k1);
        let e2 = pool.eq(x, k2);
        let mut solver = Solver::new();
        assert_eq!(solver.check(&pool, &[e1, e2]), SatResult::Unsat);
    }
}

#[test]
fn model_round_trips_through_eval() {
    // x + a == b always has the unique solution x = b - a.
    let mut rng = Rng::seed_from_u64(0x5EED_0004);
    for _ in 0..256 {
        let a = rng.next_u32() as u8;
        let b = rng.next_u32() as u8;
        let mut pool = TermPool::new();
        let x = pool.var("x", W);
        let ka = pool.constant(u64::from(a), W);
        let kb = pool.constant(u64::from(b), W);
        let sum = pool.add(x, ka);
        let c = pool.eq(sum, kb);
        let mut solver = Solver::new();
        match solver.check(&pool, &[c]) {
            SatResult::Sat(m) => {
                assert_eq!(m.value_or_zero("x") as u8, b.wrapping_sub(a));
            }
            SatResult::Unsat => panic!("always satisfiable"),
        }
    }
}

// ----- width-parametric properties (the shapes above, at 16/32/64 bits) -----

macro_rules! width_props {
    ($modname:ident, $width:expr, $mask:expr) => {
        mod $modname {
            use super::*;

            /// Unique-solution equation: x + a == b over the width.
            #[test]
            fn addition_inverts() {
                let mut rng = Rng::seed_from_u64(0x5EED_0010);
                for _ in 0..64 {
                    let a = rng.next_u64() & $mask;
                    let b = rng.next_u64() & $mask;
                    let mut pool = TermPool::new();
                    let x = pool.var("x", $width);
                    let ka = pool.constant(a, $width);
                    let kb = pool.constant(b, $width);
                    let sum = pool.add(x, ka);
                    let c = pool.eq(sum, kb);
                    match Solver::new().check(&pool, &[c]) {
                        SatResult::Sat(m) => {
                            let got = m.value_or_zero("x");
                            assert_eq!(got, b.wrapping_sub(a) & $mask);
                        }
                        SatResult::Unsat => panic!("always satisfiable"),
                    }
                }
            }

            /// Signed comparison agrees with two's-complement host math.
            #[test]
            fn signed_less_than_matches_host() {
                let mut rng = Rng::seed_from_u64(0x5EED_0011);
                for _ in 0..64 {
                    let a = rng.next_u64() & $mask;
                    let b = rng.next_u64() & $mask;
                    let mut pool = TermPool::new();
                    let ka = pool.constant(a, $width);
                    let kb = pool.constant(b, $width);
                    let lt = pool.slt(ka, kb);
                    let sa = $width.sign_extend_to_64(a) as i64;
                    let sb = $width.sign_extend_to_64(b) as i64;
                    assert_eq!(pool.is_true(lt), sa < sb);
                }
            }

            /// Shift round trip: (x << k) >> k recovers the low bits.
            #[test]
            fn shift_round_trip() {
                let mut rng = Rng::seed_from_u64(0x5EED_0012);
                for _ in 0..64 {
                    let x = rng.next_u64() & $mask;
                    let k = rng.gen_range_inclusive(0, 7) as u32;
                    let mut pool = TermPool::new();
                    let kx = pool.constant(x, $width);
                    let kk = pool.constant(u64::from(k), $width);
                    let left = pool.shl(kx, kk);
                    let back = pool.lshr(left, kk);
                    let expected = ((x << k) & $mask) >> k;
                    assert_eq!(pool.const_value(back), Some(expected));
                }
            }

            /// The solver can invert a multiplication by an odd constant
            /// (odd constants are units modulo 2^n, so a solution exists).
            #[test]
            fn odd_multiplier_inverts() {
                let mut rng = Rng::seed_from_u64(0x5EED_0013);
                for _ in 0..64 {
                    let m = (rng.next_u64() & $mask) | 1; // force odd
                    let target = rng.next_u64() & $mask;
                    let mut pool = TermPool::new();
                    let x = pool.var("x", $width);
                    let km = pool.constant(m, $width);
                    let kt = pool.constant(target, $width);
                    let prod = pool.mul(x, km);
                    let c = pool.eq(prod, kt);
                    match Solver::new().check(&pool, &[c]) {
                        SatResult::Sat(model) => {
                            let got = model.value_or_zero("x");
                            assert_eq!(got.wrapping_mul(m) & $mask, target);
                        }
                        SatResult::Unsat => {
                            panic!("odd multiplier must be invertible");
                        }
                    }
                }
            }
        }
    };
}

width_props!(w16, Width::W16, 0xFFFFu64);
width_props!(w32, Width::W32, 0xFFFF_FFFFu64);
width_props!(w64, Width::W64, u64::MAX);
