//! Bit-blasting: lowering bitvector terms to an [`Aig`].
//!
//! Every term becomes a vector of AIG literals, least-significant bit first.
//! The blaster memoizes per [`TermId`], so shared subterms (guaranteed by the
//! pool's hash-consing) become shared subcircuits.
//!
//! A variable may be *narrowed* before it is first blasted: its bits above
//! a given count are then the constant false instead of fresh inputs, and
//! the AIG's constant folding shrinks every comparator, adder and mux
//! they feed. Only the incremental verdict context narrows, and only
//! variables whose unsigned upper bound it asserts (see
//! [`SolverCtx`](crate::SolverCtx)).

use crate::aig::{Aig, AigLit};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::term::{Term, TermId, TermPool};

/// Lowers terms into an AIG, tracking which AIG inputs belong to which
/// bitvector variable so models can be read back.
#[derive(Debug, Default)]
pub struct Blaster {
    aig: Aig,
    bits: FxHashMap<TermId, Vec<AigLit>>,
    var_bits: FxHashMap<String, Vec<AigLit>>,
    /// Live low-bit counts of the narrowed variables.
    narrowed: FxHashMap<TermId, u32>,
    next_tag: u32,
}

impl Blaster {
    /// Creates an empty blaster.
    pub fn new() -> Blaster {
        Blaster::default()
    }

    /// The underlying AIG.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// Mutable access to the underlying AIG (used by the CNF stage).
    pub fn aig_mut(&mut self) -> &mut Aig {
        &mut self.aig
    }

    /// The input literals allocated for each variable (LSB first).
    /// Iteration order is unspecified.
    pub fn var_bits(&self) -> &FxHashMap<String, Vec<AigLit>> {
        &self.var_bits
    }

    /// Whether `id` has been blasted already.
    pub(crate) fn is_blasted(&self, id: TermId) -> bool {
        self.bits.contains_key(&id)
    }

    /// Blasts variable `var` with only its low `live` bits as inputs once
    /// it is first reached; the bits above are the constant false. Sound
    /// only while a conjunct bounding `var` below `2^live` is asserted.
    pub(crate) fn narrow(&mut self, var: TermId, live: u32) {
        debug_assert!(
            !self.is_blasted(var),
            "narrowing an already-blasted variable"
        );
        self.narrowed.insert(var, live);
    }

    /// The live low-bit count of a narrowed variable.
    pub(crate) fn narrowed(&self, var: TermId) -> Option<u32> {
        self.narrowed.get(&var).copied()
    }

    /// Blasts `id`, returning its bits (LSB first). Results are memoized.
    pub fn blast(&mut self, pool: &TermPool, id: TermId) -> Vec<AigLit> {
        // Iterative post-order so deep constraint chains cannot overflow the
        // call stack. The visited set is essential: terms are DAGs with
        // heavy sharing, and re-expanding shared nodes is exponential.
        let mut order: Vec<TermId> = Vec::new();
        let mut visited: FxHashSet<TermId> = FxHashSet::default();
        let mut stack: Vec<(TermId, bool)> = vec![(id, false)];
        while let Some((t, expanded)) = stack.pop() {
            if self.bits.contains_key(&t) {
                continue;
            }
            if expanded {
                order.push(t);
                continue;
            }
            if !visited.insert(t) {
                continue;
            }
            stack.push((t, true));
            for child in children(pool.term(t)) {
                stack.push((child, false));
            }
        }
        for t in order {
            if !self.bits.contains_key(&t) {
                let bits = self.blast_node(pool, t);
                debug_assert_eq!(bits.len(), pool.width(t).bits() as usize);
                self.bits.insert(t, bits);
            }
        }
        self.bits[&id].clone()
    }

    fn get(&self, t: TermId) -> &[AigLit] {
        &self.bits[&t]
    }

    fn blast_node(&mut self, pool: &TermPool, id: TermId) -> Vec<AigLit> {
        let width = pool.width(id).bits() as usize;
        match pool.term(id).clone() {
            Term::Const { value, .. } => (0..width)
                .map(|i| self.aig.constant(value >> i & 1 == 1))
                .collect(),
            Term::Var { name, .. } => {
                let live = self.narrowed(id).map_or(width, |live| live as usize);
                let bits: Vec<AigLit> = (0..width)
                    .map(|i| {
                        if i >= live {
                            return AigLit::FALSE;
                        }
                        let tag = self.next_tag;
                        self.next_tag += 1;
                        self.aig.input(tag)
                    })
                    .collect();
                self.var_bits.insert(name.to_string(), bits.clone());
                bits
            }
            Term::Not(a) => self.get(a).iter().map(|l| l.not()).collect(),
            Term::Neg(a) => {
                let inv: Vec<AigLit> = self.get(a).iter().map(|l| l.not()).collect();
                let one = self.const_bits(1, width);
                self.adder(&inv, &one, AigLit::FALSE)
            }
            Term::And(a, b) => self.zip_with(a, b, |g, x, y| g.and(x, y)),
            Term::Or(a, b) => self.zip_with(a, b, |g, x, y| g.or(x, y)),
            Term::Xor(a, b) => self.zip_with(a, b, |g, x, y| g.xor(x, y)),
            Term::Add(a, b) => {
                let (x, y) = (self.get(a).to_vec(), self.get(b).to_vec());
                self.adder(&x, &y, AigLit::FALSE)
            }
            Term::Sub(a, b) => {
                let x = self.get(a).to_vec();
                let y: Vec<AigLit> = self.get(b).iter().map(|l| l.not()).collect();
                self.adder(&x, &y, AigLit::TRUE)
            }
            Term::Mul(a, b) => {
                let (x, y) = (self.get(a).to_vec(), self.get(b).to_vec());
                self.multiplier(&x, &y)
            }
            Term::Udiv(a, b) => {
                let (x, y) = (self.get(a).to_vec(), self.get(b).to_vec());
                let (q, _r) = self.divider(&x, &y);
                // bvudiv x 0 = ones
                let zero = self.is_zero(&y);
                q.iter()
                    .map(|&l| self.aig.mux(zero, AigLit::TRUE, l))
                    .collect()
            }
            Term::Urem(a, b) => {
                let (x, y) = (self.get(a).to_vec(), self.get(b).to_vec());
                let (_q, r) = self.divider(&x, &y);
                // bvurem x 0 = x
                let zero = self.is_zero(&y);
                r.iter()
                    .zip(x.iter())
                    .map(|(&rl, &xl)| self.aig.mux(zero, xl, rl))
                    .collect()
            }
            Term::Shl(a, b) => self.shifter(a, b, ShiftKind::Left),
            Term::Lshr(a, b) => self.shifter(a, b, ShiftKind::LogicalRight),
            Term::Ashr(a, b) => self.shifter(a, b, ShiftKind::ArithmeticRight),
            Term::Eq(a, b) => {
                let (x, y) = (self.get(a).to_vec(), self.get(b).to_vec());
                let eq_bits: Vec<AigLit> = x
                    .iter()
                    .zip(y.iter())
                    .map(|(&p, &q)| self.aig.xnor(p, q))
                    .collect();
                vec![self.aig.and_many(eq_bits)]
            }
            Term::Ult(a, b) => {
                let lt = self.unsigned_less(a, b, false);
                vec![lt]
            }
            Term::Ule(a, b) => {
                let le = self.unsigned_less(a, b, true);
                vec![le]
            }
            Term::Slt(a, b) => {
                let lt = self.signed_less(a, b, false);
                vec![lt]
            }
            Term::Sle(a, b) => {
                let le = self.signed_less(a, b, true);
                vec![le]
            }
            Term::Ite(c, t, e) => {
                let sel = self.get(c)[0];
                let (tv, ev) = (self.get(t).to_vec(), self.get(e).to_vec());
                tv.iter()
                    .zip(ev.iter())
                    .map(|(&x, &y)| self.aig.mux(sel, x, y))
                    .collect()
            }
            Term::ZeroExt { arg, .. } => {
                let mut bits = self.get(arg).to_vec();
                bits.resize(width, AigLit::FALSE);
                bits
            }
            Term::SignExt { arg, .. } => {
                let mut bits = self.get(arg).to_vec();
                let sign = *bits.last().expect("non-empty");
                bits.resize(width, sign);
                bits
            }
            Term::Extract { arg, hi, lo } => self.get(arg)[lo as usize..=hi as usize].to_vec(),
            Term::Concat(hi, lo) => {
                let mut bits = self.get(lo).to_vec();
                bits.extend_from_slice(self.get(hi));
                bits
            }
        }
    }

    fn const_bits(&self, value: u64, width: usize) -> Vec<AigLit> {
        (0..width)
            .map(|i| self.aig.constant(value >> i & 1 == 1))
            .collect()
    }

    fn zip_with(
        &mut self,
        a: TermId,
        b: TermId,
        mut f: impl FnMut(&mut Aig, AigLit, AigLit) -> AigLit,
    ) -> Vec<AigLit> {
        let (x, y) = (self.get(a).to_vec(), self.get(b).to_vec());
        x.iter()
            .zip(y.iter())
            .map(|(&p, &q)| f(&mut self.aig, p, q))
            .collect()
    }

    /// Ripple-carry adder. Returns `width` sum bits (carry-out discarded).
    fn adder(&mut self, a: &[AigLit], b: &[AigLit], carry_in: AigLit) -> Vec<AigLit> {
        let mut carry = carry_in;
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b.iter()) {
            let xy = self.aig.xor(x, y);
            let sum = self.aig.xor(xy, carry);
            let c1 = self.aig.and(x, y);
            let c2 = self.aig.and(xy, carry);
            carry = self.aig.or(c1, c2);
            out.push(sum);
        }
        out
    }

    /// Shift-and-add multiplier (modulo 2^width).
    fn multiplier(&mut self, a: &[AigLit], b: &[AigLit]) -> Vec<AigLit> {
        let width = a.len();
        let mut acc = vec![AigLit::FALSE; width];
        for (i, &bi) in b.iter().enumerate() {
            // partial = (a << i) & replicate(bi)
            let mut partial = vec![AigLit::FALSE; width];
            for j in i..width {
                partial[j] = self.aig.and(a[j - i], bi);
            }
            acc = self.adder(&acc, &partial, AigLit::FALSE);
        }
        acc
    }

    /// Restoring long division. Returns `(quotient, remainder)`.
    ///
    /// The divide-by-zero case is patched by the caller; the raw circuit
    /// yields `q = ones, r = a` for `b = 0` by construction anyway, but we
    /// do not rely on that.
    fn divider(&mut self, a: &[AigLit], b: &[AigLit]) -> (Vec<AigLit>, Vec<AigLit>) {
        let width = a.len();
        let mut rem = vec![AigLit::FALSE; width];
        let mut quot = vec![AigLit::FALSE; width];
        for i in (0..width).rev() {
            // rem = (rem << 1) | a[i]
            rem.rotate_right(1);
            rem[0] = a[i];
            // ge = rem >= b  (unsigned)
            let ge = self.bits_ge(&rem, b);
            // if ge { rem -= b }
            let nb: Vec<AigLit> = b.iter().map(|l| l.not()).collect();
            let diff = self.adder(&rem, &nb, AigLit::TRUE);
            rem = rem
                .iter()
                .zip(diff.iter())
                .map(|(&keep, &sub)| self.aig.mux(ge, sub, keep))
                .collect();
            quot[i] = ge;
        }
        (quot, rem)
    }

    fn is_zero(&mut self, bits: &[AigLit]) -> AigLit {
        let any = self.aig.or_many(bits.iter().copied());
        any.not()
    }

    /// `a >= b` over raw bit slices (unsigned).
    fn bits_ge(&mut self, a: &[AigLit], b: &[AigLit]) -> AigLit {
        // a >= b  <=>  !(a < b)
        let lt = self.bits_ult(a, b);
        lt.not()
    }

    /// `a < b` over raw bit slices (unsigned). Ripple from MSB.
    fn bits_ult(&mut self, a: &[AigLit], b: &[AigLit]) -> AigLit {
        let mut lt = AigLit::FALSE;
        let mut eq = AigLit::TRUE;
        for i in (0..a.len()).rev() {
            let a_lt_b = self.aig.and(a[i].not(), b[i]);
            let here = self.aig.and(eq, a_lt_b);
            lt = self.aig.or(lt, here);
            let same = self.aig.xnor(a[i], b[i]);
            eq = self.aig.and(eq, same);
        }
        lt
    }

    fn unsigned_less(&mut self, a: TermId, b: TermId, or_equal: bool) -> AigLit {
        let (x, y) = (self.get(a).to_vec(), self.get(b).to_vec());
        let lt = self.bits_ult(&x, &y);
        if !or_equal {
            return lt;
        }
        let eq_bits: Vec<AigLit> = x
            .iter()
            .zip(y.iter())
            .map(|(&p, &q)| self.aig.xnor(p, q))
            .collect();
        let eq = self.aig.and_many(eq_bits);
        self.aig.or(lt, eq)
    }

    fn signed_less(&mut self, a: TermId, b: TermId, or_equal: bool) -> AigLit {
        // Signed compare == unsigned compare with the sign bits flipped.
        let mut x = self.get(a).to_vec();
        let mut y = self.get(b).to_vec();
        let msb = x.len() - 1;
        x[msb] = x[msb].not();
        y[msb] = y[msb].not();
        let lt = self.bits_ult(&x, &y);
        if !or_equal {
            return lt;
        }
        let eq_bits: Vec<AigLit> = x
            .iter()
            .zip(y.iter())
            .map(|(&p, &q)| self.aig.xnor(p, q))
            .collect();
        let eq = self.aig.and_many(eq_bits);
        self.aig.or(lt, eq)
    }

    fn shifter(&mut self, a: TermId, amount: TermId, kind: ShiftKind) -> Vec<AigLit> {
        let bits = self.get(a).to_vec();
        let amt = self.get(amount).to_vec();
        let width = bits.len();
        let fill_default = AigLit::FALSE;
        let sign = *bits.last().expect("non-empty");
        let fill = match kind {
            ShiftKind::ArithmeticRight => sign,
            _ => fill_default,
        };

        // Barrel shifter over the log2(width) low bits of the amount.
        let stages = usize::BITS - (width - 1).leading_zeros(); // ceil(log2(width))
        let mut cur = bits;
        for s in 0..stages {
            let shift = 1usize << s;
            let sel = amt[s as usize];
            let mut next = Vec::with_capacity(width);
            for i in 0..width {
                let shifted = match kind {
                    ShiftKind::Left => {
                        if i >= shift {
                            cur[i - shift]
                        } else {
                            AigLit::FALSE
                        }
                    }
                    ShiftKind::LogicalRight | ShiftKind::ArithmeticRight => {
                        if i + shift < width {
                            cur[i + shift]
                        } else {
                            fill
                        }
                    }
                };
                next.push(self.aig.mux(sel, shifted, cur[i]));
            }
            cur = next;
        }

        // Overshift: amount >= width → all zero (or all sign for ashr).
        // That happens when any amount bit at position >= stages is set, or
        // when the low `stages` bits encode a value >= width (only possible
        // if width is not a power of two).
        let mut over = AigLit::FALSE;
        for &l in amt.iter().skip(stages as usize) {
            over = self.aig.or(over, l);
        }
        if !width.is_power_of_two() {
            let low = &amt[..stages as usize];
            let wconst = self.const_bits(width as u64, stages as usize);
            let ge = self.bits_ge_slices(low, &wconst);
            over = self.aig.or(over, ge);
        }
        cur.iter().map(|&l| self.aig.mux(over, fill, l)).collect()
    }

    fn bits_ge_slices(&mut self, a: &[AigLit], b: &[AigLit]) -> AigLit {
        let lt = self.bits_ult(a, b);
        lt.not()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithmeticRight,
}

/// The operands of `term`.
pub(crate) fn children(term: &Term) -> Vec<TermId> {
    match *term {
        Term::Const { .. } | Term::Var { .. } => vec![],
        Term::Not(a) | Term::Neg(a) => vec![a],
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
        | Term::Concat(a, b) => vec![a, b],
        Term::Ite(c, t, e) => vec![c, t, e],
        Term::ZeroExt { arg, .. } | Term::SignExt { arg, .. } | Term::Extract { arg, .. } => {
            vec![arg]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Width;
    use std::collections::HashMap;

    /// Blasts `id`, then evaluates the circuit with the given variable
    /// values and compares against the term evaluator.
    fn check_against_eval(pool: &TermPool, id: TermId, env_pairs: &[(&str, u64)]) {
        let mut blaster = Blaster::new();
        let bits = blaster.blast(pool, id);

        let env: HashMap<String, u64> =
            env_pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let expected = crate::eval::evaluate(pool, id, &env);

        // Build tag -> bool from the variable assignment.
        let var_bits = blaster.var_bits().clone();
        let mut tag_value: HashMap<u32, bool> = HashMap::new();
        for (name, lits) in &var_bits {
            let value = env.get(name).copied().unwrap_or(0);
            for (i, lit) in lits.iter().enumerate() {
                if let crate::aig::AigNode::Input(tag) = blaster.aig().node(lit.node()) {
                    tag_value.insert(tag, value >> i & 1 == 1);
                }
            }
        }
        let lookup = |tag: u32| tag_value.get(&tag).copied().unwrap_or(false);
        let mut actual = 0u64;
        for (i, &bit) in bits.iter().enumerate() {
            if blaster.aig().evaluate(bit, &lookup) {
                actual |= 1 << i;
            }
        }
        assert_eq!(
            actual,
            expected,
            "circuit/eval mismatch for {} under {env_pairs:?}",
            pool.display(id)
        );
    }

    fn binop_cases(
        f: impl Fn(&mut TermPool, TermId, TermId) -> TermId,
        width: Width,
        cases: &[(u64, u64)],
    ) {
        for &(x, y) in cases {
            let mut p = TermPool::new();
            let a = p.var("a", width);
            let b = p.var("b", width);
            let r = f(&mut p, a, b);
            check_against_eval(&p, r, &[("a", x), ("b", y)]);
        }
    }

    const CASES8: &[(u64, u64)] = &[
        (0, 0),
        (1, 1),
        (3, 5),
        (0xFF, 1),
        (0x80, 0x7F),
        (200, 100),
        (7, 0),
        (0, 9),
        (0xAB, 0xCD),
        (255, 255),
    ];

    #[test]
    fn adder_matches_eval() {
        binop_cases(|p, a, b| p.add(a, b), Width::W8, CASES8);
    }

    #[test]
    fn subtractor_matches_eval() {
        binop_cases(|p, a, b| p.sub(a, b), Width::W8, CASES8);
    }

    #[test]
    fn multiplier_matches_eval() {
        binop_cases(|p, a, b| p.mul(a, b), Width::W8, CASES8);
    }

    #[test]
    fn divider_matches_eval() {
        binop_cases(|p, a, b| p.udiv(a, b), Width::W8, CASES8);
        binop_cases(|p, a, b| p.urem(a, b), Width::W8, CASES8);
    }

    #[test]
    fn shifts_match_eval() {
        let shift_cases: &[(u64, u64)] = &[
            (0xAB, 0),
            (0xAB, 1),
            (0xAB, 4),
            (0xAB, 7),
            (0xAB, 8),
            (0xAB, 200),
            (0x80, 3),
        ];
        binop_cases(|p, a, b| p.shl(a, b), Width::W8, shift_cases);
        binop_cases(|p, a, b| p.lshr(a, b), Width::W8, shift_cases);
        binop_cases(|p, a, b| p.ashr(a, b), Width::W8, shift_cases);
    }

    #[test]
    fn shifts_match_eval_non_power_of_two_width() {
        let w = Width::new(5).unwrap();
        let cases: &[(u64, u64)] = &[
            (0b10110, 0),
            (0b10110, 2),
            (0b10110, 4),
            (0b10110, 5),
            (0b10110, 7),
        ];
        binop_cases(|p, a, b| p.shl(a, b), w, cases);
        binop_cases(|p, a, b| p.lshr(a, b), w, cases);
        binop_cases(|p, a, b| p.ashr(a, b), w, cases);
    }

    #[test]
    fn comparisons_match_eval() {
        binop_cases(|p, a, b| p.ult(a, b), Width::W8, CASES8);
        binop_cases(|p, a, b| p.ule(a, b), Width::W8, CASES8);
        binop_cases(|p, a, b| p.slt(a, b), Width::W8, CASES8);
        binop_cases(|p, a, b| p.sle(a, b), Width::W8, CASES8);
        binop_cases(|p, a, b| p.eq(a, b), Width::W8, CASES8);
    }

    #[test]
    fn bitwise_match_eval() {
        binop_cases(|p, a, b| p.and(a, b), Width::W8, CASES8);
        binop_cases(|p, a, b| p.or(a, b), Width::W8, CASES8);
        binop_cases(|p, a, b| p.xor(a, b), Width::W8, CASES8);
    }

    #[test]
    fn unary_and_structure_match_eval() {
        for &(x, _) in CASES8 {
            let mut p = TermPool::new();
            let a = p.var("a", Width::W8);
            let n = p.not(a);
            check_against_eval(&p, n, &[("a", x)]);

            let mut p = TermPool::new();
            let a = p.var("a", Width::W8);
            let n = p.neg(a);
            check_against_eval(&p, n, &[("a", x)]);

            let mut p = TermPool::new();
            let a = p.var("a", Width::W8);
            let e = p.extract(a, 6, 2);
            check_against_eval(&p, e, &[("a", x)]);

            let mut p = TermPool::new();
            let a = p.var("a", Width::W8);
            let z = p.zero_ext(a, Width::W16);
            check_against_eval(&p, z, &[("a", x)]);

            let mut p = TermPool::new();
            let a = p.var("a", Width::W8);
            let s = p.sign_ext(a, Width::W16);
            check_against_eval(&p, s, &[("a", x)]);
        }
    }

    #[test]
    fn ite_matches_eval() {
        for &(x, y) in CASES8 {
            for c in [0u64, 1] {
                let mut p = TermPool::new();
                let cond = p.var("c", Width::W1);
                let a = p.var("a", Width::W8);
                let b = p.var("b", Width::W8);
                let r = p.ite(cond, a, b);
                check_against_eval(&p, r, &[("a", x), ("b", y), ("c", c)]);
            }
        }
    }

    #[test]
    fn concat_matches_eval() {
        let mut p = TermPool::new();
        let a = p.var("a", Width::W8);
        let b = p.var("b", Width::W8);
        let c = p.concat(a, b);
        check_against_eval(&p, c, &[("a", 0xAB), ("b", 0xCD)]);
    }
}
