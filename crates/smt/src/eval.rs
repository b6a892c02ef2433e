//! Concrete evaluation of terms under a variable assignment.
//!
//! Used to verify solver models, to replay counterexamples, as the
//! ground-truth oracle for the property tests that check the bit-blaster,
//! and — through one long-lived [`Evaluator`] per path — to decide every
//! branch of a concolic trace.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::fxhash::FxHashMap;
use crate::term::{Term, TermId, TermPool, Width};

/// Evaluates `root` under `assignment` (variable name → value).
///
/// Variables absent from the assignment evaluate to zero, matching the
/// solver's treatment of don't-care variables.
///
/// The traversal is iterative, so arbitrarily deep terms (as produced by
/// long symbolic-execution paths) cannot overflow the stack.
///
/// # Example
///
/// ```
/// use std::collections::HashMap;
/// use symsc_smt::{TermPool, Width};
/// use symsc_smt::eval::evaluate;
///
/// let mut pool = TermPool::new();
/// let x = pool.var("x", Width::W32);
/// let one = pool.constant(1, Width::W32);
/// let succ = pool.add(x, one);
/// let mut env = HashMap::new();
/// env.insert("x".to_string(), 41u64);
/// assert_eq!(evaluate(&pool, succ, &env), 42);
/// ```
pub fn evaluate(pool: &TermPool, root: TermId, assignment: &HashMap<String, u64>) -> u64 {
    Evaluator::new().eval(pool, root, assignment)
}

/// An evaluator whose memo outlives one call: a sequence of evaluations
/// over one pool under one assignment computes each term at most once.
///
/// The memo maps [`TermId`]s to values. That is sound for as long as
/// every call passes the same pool and the same assignment: a pool only
/// grows (interning never changes the term behind an existing id), so a
/// memoized value stays the value of its id under that assignment. Call
/// [`clear`](Self::clear) before evaluating under another assignment.
///
/// # Example
///
/// ```
/// use std::collections::HashMap;
/// use symsc_smt::{TermPool, Width};
/// use symsc_smt::eval::Evaluator;
///
/// let mut pool = TermPool::new();
/// let x = pool.var("x", Width::W8);
/// let one = pool.constant(1, Width::W8);
/// let env = HashMap::from([("x".to_string(), 7u64)]);
/// let mut evaluator = Evaluator::new();
/// let succ = pool.add(x, one);
/// assert_eq!(evaluator.eval(&pool, succ, &env), 8);
/// // The pool grows; `x + 1` is not computed again.
/// let twice = pool.add(succ, succ);
/// assert_eq!(evaluator.eval(&pool, twice, &env), 16);
/// ```
#[derive(Debug, Default)]
pub struct Evaluator {
    /// `Some(value)` once computed; `None` while expanded and waiting for
    /// its operands (within one call only).
    memo: FxHashMap<TermId, Option<u64>>,
    stack: Vec<(TermId, bool)>,
    /// The pool the memo belongs to (checked in debug builds).
    pool_id: Option<u64>,
}

impl Evaluator {
    /// An evaluator with an empty memo.
    pub fn new() -> Evaluator {
        Evaluator::default()
    }

    /// Forgets every memoized value, so the next call may pass another
    /// pool or another assignment.
    pub fn clear(&mut self) {
        self.memo.clear();
        self.pool_id = None;
    }

    /// Evaluates `root` under `assignment`, exactly like [`evaluate`], but
    /// reuses (and extends) the memo of every earlier call since the last
    /// [`clear`](Self::clear).
    pub fn eval(
        &mut self,
        pool: &TermPool,
        root: TermId,
        assignment: &HashMap<String, u64>,
    ) -> u64 {
        let memo_pool = *self.pool_id.get_or_insert(pool.pool_id());
        debug_assert_eq!(
            memo_pool,
            pool.pool_id(),
            "an evaluator's memo belongs to one pool"
        );
        self.stack.push((root, false));
        while let Some((id, operands_done)) = self.stack.pop() {
            let term = pool.term(id);
            if !operands_done {
                // Terms are shared DAGs: an id already computed, or
                // expanded and queued, is never expanded again — without
                // this, nodes reachable through many parents would be
                // re-expanded exponentially.
                if let Entry::Vacant(slot) = self.memo.entry(id) {
                    slot.insert(None);
                    self.stack.push((id, true));
                    push_operands(term, &mut self.stack);
                }
                continue;
            }
            // The operands were pushed above this entry, and none can be
            // waiting below it (an operand's id is smaller than its
            // user's, so the graph is acyclic): all are computed by now.
            let memo = &self.memo;
            let get = |x: TermId| memo[&x].expect("operands are computed first");
            let value = apply(pool, term, pool.width(id), get, assignment);
            self.memo.insert(id, Some(value));
        }
        self.memo[&root].expect("the root is computed last")
    }
}

fn push_operands(term: &Term, stack: &mut Vec<(TermId, bool)>) {
    match *term {
        Term::Const { .. } | Term::Var { .. } => {}
        Term::Not(a) | Term::Neg(a) => stack.push((a, false)),
        Term::And(a, b)
        | Term::Or(a, b)
        | Term::Xor(a, b)
        | Term::Add(a, b)
        | Term::Sub(a, b)
        | Term::Mul(a, b)
        | Term::Udiv(a, b)
        | Term::Urem(a, b)
        | Term::Shl(a, b)
        | Term::Lshr(a, b)
        | Term::Ashr(a, b)
        | Term::Eq(a, b)
        | Term::Ult(a, b)
        | Term::Ule(a, b)
        | Term::Slt(a, b)
        | Term::Sle(a, b)
        | Term::Concat(a, b) => {
            stack.push((a, false));
            stack.push((b, false));
        }
        Term::Ite(c, t, e) => {
            stack.push((c, false));
            stack.push((t, false));
            stack.push((e, false));
        }
        Term::ZeroExt { arg, .. } | Term::SignExt { arg, .. } | Term::Extract { arg, .. } => {
            stack.push((arg, false))
        }
    }
}

/// The value of `term`, of width `width`, given its operands' values
/// (`get`): the one place the operators' semantics live.
fn apply(
    pool: &TermPool,
    term: &Term,
    width: Width,
    get: impl Fn(TermId) -> u64,
    assignment: &HashMap<String, u64>,
) -> u64 {
    let value = match *term {
        Term::Const { value, .. } => value,
        Term::Var { ref name, .. } => assignment.get(&**name as &str).copied().unwrap_or(0),
        Term::Not(a) => !get(a),
        Term::Neg(a) => get(a).wrapping_neg(),
        Term::And(a, b) => get(a) & get(b),
        Term::Or(a, b) => get(a) | get(b),
        Term::Xor(a, b) => get(a) ^ get(b),
        Term::Add(a, b) => get(a).wrapping_add(get(b)),
        Term::Sub(a, b) => get(a).wrapping_sub(get(b)),
        Term::Mul(a, b) => get(a).wrapping_mul(get(b)),
        // Division by zero follows the SMT-LIB bvudiv/bvurem
        // semantics: all-ones and the dividend respectively.
        Term::Udiv(a, b) => get(a).checked_div(get(b)).unwrap_or(width.mask()),
        Term::Urem(a, b) => {
            let a = get(a);
            a.checked_rem(get(b)).unwrap_or(a)
        }
        Term::Shl(a, b) => {
            let s = get(b);
            if s >= u64::from(width.bits()) {
                0
            } else {
                get(a) << s
            }
        }
        Term::Lshr(a, b) => {
            let s = get(b);
            if s >= u64::from(width.bits()) {
                0
            } else {
                get(a) >> s
            }
        }
        Term::Ashr(a, b) => {
            let aw = pool.width(a);
            let sx = aw.sign_extend_to_64(get(a)) as i64;
            let s = get(b).min(63);
            (sx >> s) as u64
        }
        Term::Eq(a, b) => u64::from(get(a) == get(b)),
        Term::Ult(a, b) => u64::from(get(a) < get(b)),
        Term::Ule(a, b) => u64::from(get(a) <= get(b)),
        Term::Slt(a, b) => {
            let w = pool.width(a);
            u64::from((w.sign_extend_to_64(get(a)) as i64) < (w.sign_extend_to_64(get(b)) as i64))
        }
        Term::Sle(a, b) => {
            let w = pool.width(a);
            u64::from((w.sign_extend_to_64(get(a)) as i64) <= (w.sign_extend_to_64(get(b)) as i64))
        }
        Term::Ite(c, t, e) => {
            if get(c) == 1 {
                get(t)
            } else {
                get(e)
            }
        }
        Term::ZeroExt { arg, .. } => get(arg),
        Term::SignExt { arg, .. } => {
            let aw = pool.width(arg);
            aw.sign_extend_to_64(get(arg))
        }
        Term::Extract { arg, lo, .. } => get(arg) >> lo,
        Term::Concat(a, b) => {
            let wl = pool.width(b);
            (get(a) << wl.bits()) | get(b)
        }
    };
    width.truncate(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, u64)]) -> HashMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn evaluates_arithmetic() {
        let mut p = TermPool::new();
        let x = p.var("x", Width::W16);
        let y = p.var("y", Width::W16);
        let prod = p.mul(x, y);
        let sum = p.add(prod, x);
        assert_eq!(evaluate(&p, sum, &env(&[("x", 3), ("y", 5)])), 18);
    }

    #[test]
    fn missing_variables_default_to_zero() {
        let mut p = TermPool::new();
        let x = p.var("missing", Width::W32);
        let one = p.constant(1, Width::W32);
        let s = p.add(x, one);
        assert_eq!(evaluate(&p, s, &HashMap::new()), 1);
    }

    #[test]
    fn evaluates_predicates_and_ite() {
        let mut p = TermPool::new();
        let x = p.var("x", Width::W8);
        let ten = p.constant(10, Width::W8);
        let small = p.ult(x, ten);
        let a = p.constant(1, Width::W8);
        let b = p.constant(2, Width::W8);
        let sel = p.ite(small, a, b);
        assert_eq!(evaluate(&p, sel, &env(&[("x", 5)])), 1);
        assert_eq!(evaluate(&p, sel, &env(&[("x", 50)])), 2);
    }

    #[test]
    fn evaluates_signed_compare() {
        let mut p = TermPool::new();
        let x = p.var("x", Width::W8);
        let zero = p.constant(0, Width::W8);
        let neg = p.slt(x, zero);
        assert_eq!(evaluate(&p, neg, &env(&[("x", 0x80)])), 1);
        assert_eq!(evaluate(&p, neg, &env(&[("x", 0x7F)])), 0);
    }

    #[test]
    fn evaluates_structure_ops() {
        let mut p = TermPool::new();
        let x = p.var("x", Width::W8);
        let hi = p.extract(x, 7, 4);
        let lo = p.extract(x, 3, 0);
        let swapped = p.concat(lo, hi);
        assert_eq!(evaluate(&p, swapped, &env(&[("x", 0xAB)])), 0xBA);
        let z = p.zero_ext(x, Width::W32);
        assert_eq!(evaluate(&p, z, &env(&[("x", 0xFF)])), 0xFF);
        let s = p.sign_ext(x, Width::W16);
        assert_eq!(evaluate(&p, s, &env(&[("x", 0xFF)])), 0xFFFF);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut p = TermPool::new();
        let one = p.constant(1, Width::W32);
        let mut acc = p.var("x", Width::W32);
        for _ in 0..50_000 {
            acc = p.add(acc, one);
        }
        // Hash-consing cannot collapse this chain (each step is distinct),
        // so this genuinely exercises the iterative traversal.
        assert_eq!(evaluate(&p, acc, &env(&[("x", 0)])), 50_000);
    }

    #[test]
    fn division_semantics_match_builders() {
        let mut p = TermPool::new();
        let x = p.var("x", Width::W8);
        let y = p.var("y", Width::W8);
        let q = p.udiv(x, y);
        let r = p.urem(x, y);
        assert_eq!(evaluate(&p, q, &env(&[("x", 7), ("y", 0)])), 0xFF);
        assert_eq!(evaluate(&p, r, &env(&[("x", 7), ("y", 0)])), 7);
        assert_eq!(evaluate(&p, q, &env(&[("x", 7), ("y", 2)])), 3);
        assert_eq!(evaluate(&p, r, &env(&[("x", 7), ("y", 2)])), 1);
    }
}
