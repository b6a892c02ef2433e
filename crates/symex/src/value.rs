//! Symbolic values: words and booleans.
//!
//! A [`SymWord`] is a bitvector expression bound to its execution context.
//! Arithmetic never forks paths; only *observing* a symbolic boolean (via
//! [`SymCtx::decide`](crate::SymCtx::decide) or [`SymBool::decide`]) does.
//! This split keeps peripheral models looking like ordinary Rust: data
//! flows through operators, control flow goes through `decide`.

use std::fmt;
use std::ops::{Add, BitAnd, BitOr, BitXor, Not, Shl, Shr, Sub};

use symsc_smt::{TermId, Width};

use crate::ctx::SymCtx;
use crate::error::ErrorKind;

/// A symbolic bitvector value (1–64 bits).
#[derive(Clone)]
pub struct SymWord {
    ctx: SymCtx,
    id: TermId,
    width: Width,
}

impl fmt::Debug for SymWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = self.ctx.with_pool(|p| p.display(self.id));
        write!(f, "SymWord({text})")
    }
}

macro_rules! binop_method {
    ($(#[$doc:meta])* $name:ident, $pool_op:ident) => {
        $(#[$doc])*
        pub fn $name(&self, rhs: &SymWord) -> SymWord {
            let id = self
                .ctx
                .with_pool(|p| p.$pool_op(self.id, rhs.id));
            SymWord::from_raw(self.ctx.clone(), id, self.width)
        }
    };
}

macro_rules! cmp_method {
    ($(#[$doc:meta])* $name:ident, $pool_op:ident) => {
        $(#[$doc])*
        pub fn $name(&self, rhs: &SymWord) -> SymBool {
            let id = self
                .ctx
                .with_pool(|p| p.$pool_op(self.id, rhs.id));
            SymBool::from_raw(self.ctx.clone(), id)
        }
    };
}

impl SymWord {
    pub(crate) fn from_raw(ctx: SymCtx, id: TermId, width: Width) -> SymWord {
        SymWord { ctx, id, width }
    }

    /// The width of this word.
    pub fn width(&self) -> Width {
        self.width
    }

    /// The underlying term id (for engine-integration code).
    pub fn id(&self) -> TermId {
        self.id
    }

    /// The execution context this word is bound to.
    pub fn ctx(&self) -> &SymCtx {
        &self.ctx
    }

    /// The concrete value if this word folded to a constant.
    pub fn as_const(&self) -> Option<u64> {
        self.ctx.with_pool(|p| p.const_value(self.id))
    }

    /// The term's structural fingerprint: a Merkle-style hash that is
    /// identical for structurally identical terms across pools and
    /// workers.
    pub fn fingerprint(&self) -> u128 {
        self.ctx.with_pool(|p| p.fingerprint(self.id))
    }

    /// A concrete word in the same context.
    pub fn constant_like(&self, value: u64) -> SymWord {
        self.ctx.word(value, self.width)
    }

    binop_method!(
        /// Wrapping addition.
        add, add
    );
    binop_method!(
        /// Wrapping subtraction.
        sub, sub
    );
    binop_method!(
        /// Wrapping multiplication.
        mul, mul
    );
    binop_method!(
        /// Bitwise and.
        and, and
    );
    binop_method!(
        /// Bitwise or.
        or, or
    );
    binop_method!(
        /// Bitwise exclusive or.
        xor, xor
    );
    binop_method!(
        /// Logical shift left (amounts ≥ width yield zero).
        shl, shl
    );
    binop_method!(
        /// Logical shift right (amounts ≥ width yield zero).
        lshr, lshr
    );
    binop_method!(
        /// Arithmetic shift right (amounts ≥ width replicate the sign).
        ashr, ashr
    );

    /// Bitwise complement.
    pub fn not(&self) -> SymWord {
        let id = self.ctx.with_pool(|p| p.not(self.id));
        SymWord::from_raw(self.ctx.clone(), id, self.width)
    }

    /// Unsigned division. If the divisor can be zero on the current path,
    /// a [`ErrorKind::DivisionByZero`] error is recorded (the software-trap
    /// class of the paper) and the path continues under `divisor != 0`.
    pub fn udiv(&self, rhs: &SymWord) -> SymWord {
        self.guard_div(rhs);
        let id = self.ctx.with_pool(|p| p.udiv(self.id, rhs.id));
        SymWord::from_raw(self.ctx.clone(), id, self.width)
    }

    /// Unsigned remainder, with the same divide-by-zero check as
    /// [`udiv`](Self::udiv).
    pub fn urem(&self, rhs: &SymWord) -> SymWord {
        self.guard_div(rhs);
        let id = self.ctx.with_pool(|p| p.urem(self.id, rhs.id));
        SymWord::from_raw(self.ctx.clone(), id, self.width)
    }

    fn guard_div(&self, rhs: &SymWord) {
        let zero = self.ctx.word(0, rhs.width);
        let nonzero = rhs.ne(&zero);
        self.ctx.engine().check_div_guard(nonzero.id());
    }

    cmp_method!(
        /// Equality.
        eq, eq
    );
    cmp_method!(
        /// Disequality.
        ne, ne
    );
    cmp_method!(
        /// Unsigned less-than.
        ult, ult
    );
    cmp_method!(
        /// Unsigned less-or-equal.
        ule, ule
    );
    cmp_method!(
        /// Unsigned greater-than.
        ugt, ugt
    );
    cmp_method!(
        /// Unsigned greater-or-equal.
        uge, uge
    );
    cmp_method!(
        /// Signed less-than.
        slt, slt
    );
    cmp_method!(
        /// Signed less-or-equal.
        sle, sle
    );

    /// If-then-else over words: `cond ? self : other`.
    pub fn select(&self, cond: &SymBool, other: &SymWord) -> SymWord {
        let id = self.ctx.with_pool(|p| p.ite(cond.id(), self.id, other.id));
        SymWord::from_raw(self.ctx.clone(), id, self.width)
    }

    /// Zero-extends to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is narrower than the current width.
    pub fn zero_ext(&self, width: Width) -> SymWord {
        let id = self.ctx.with_pool(|p| p.zero_ext(self.id, width));
        SymWord::from_raw(self.ctx.clone(), id, width)
    }

    /// Sign-extends to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is narrower than the current width.
    pub fn sign_ext(&self, width: Width) -> SymWord {
        let id = self.ctx.with_pool(|p| p.sign_ext(self.id, width));
        SymWord::from_raw(self.ctx.clone(), id, width)
    }

    /// Extracts bits `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid for this width.
    pub fn extract(&self, hi: u32, lo: u32) -> SymWord {
        let (id, width) = self.ctx.with_pool(|p| {
            let id = p.extract(self.id, hi, lo);
            (id, p.width(id))
        });
        SymWord::from_raw(self.ctx.clone(), id, width)
    }

    /// Concatenation: `self` becomes the upper bits, `lo` the lower bits.
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 64 bits.
    pub fn concat(&self, lo: &SymWord) -> SymWord {
        let (id, width) = self.ctx.with_pool(|p| {
            let id = p.concat(self.id, lo.id);
            (id, p.width(id))
        });
        SymWord::from_raw(self.ctx.clone(), id, width)
    }

    /// The boolean value of bit `index`.
    pub fn bit(&self, index: u32) -> SymBool {
        let word = self.extract(index, index);
        SymBool::from_raw(self.ctx.clone(), word.id)
    }

    /// Forces this word to a concrete value: if constant, returns it;
    /// otherwise asks the solver for a satisfying value and *constrains the
    /// path* to that value (KLEE-style concretization).
    ///
    /// The pinned value is canonical — a pure function of the path's
    /// structural constraint set, never of solver-cache state or query
    /// history — and the pin is journaled, so a path resumed from a
    /// copy-on-write fork snapshot fast-forwards to the identical value
    /// the original run pinned (see `ForkStrategy`).
    ///
    /// Prefer symbolic assertions; use this only where the model genuinely
    /// needs a native integer (e.g. a loop bound).
    pub fn concretize(&self) -> u64 {
        if let Some(v) = self.as_const() {
            return v;
        }
        self.ctx.engine().concretize(self.id, self.width)
    }
}

macro_rules! std_binop {
    ($trait:ident, $method:ident, $impl_method:ident) => {
        impl $trait for &SymWord {
            type Output = SymWord;
            fn $method(self, rhs: &SymWord) -> SymWord {
                self.$impl_method(rhs)
            }
        }
        impl $trait for SymWord {
            type Output = SymWord;
            fn $method(self, rhs: SymWord) -> SymWord {
                SymWord::$impl_method(&self, &rhs)
            }
        }
    };
}

std_binop!(Add, add, add);
std_binop!(Sub, sub, sub);
std_binop!(BitAnd, bitand, and);
std_binop!(BitOr, bitor, or);
std_binop!(BitXor, bitxor, xor);
std_binop!(Shl, shl, shl);
std_binop!(Shr, shr, lshr);

impl Not for &SymWord {
    type Output = SymWord;
    fn not(self) -> SymWord {
        SymWord::not(self)
    }
}

/// A symbolic boolean (width-1 bitvector).
#[derive(Clone)]
pub struct SymBool {
    ctx: SymCtx,
    id: TermId,
}

impl fmt::Debug for SymBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = self.ctx.with_pool(|p| p.display(self.id));
        write!(f, "SymBool({text})")
    }
}

impl SymBool {
    pub(crate) fn from_raw(ctx: SymCtx, id: TermId) -> SymBool {
        SymBool { ctx, id }
    }

    /// The underlying term id.
    pub fn id(&self) -> TermId {
        self.id
    }

    /// The execution context this boolean is bound to.
    pub fn ctx(&self) -> &SymCtx {
        &self.ctx
    }

    /// The concrete value if this boolean folded to a constant.
    pub fn as_const(&self) -> Option<bool> {
        self.ctx
            .with_pool(|p| p.const_value(self.id).map(|v| v == 1))
    }

    /// The term's structural fingerprint (see [`SymWord::fingerprint`]).
    pub fn fingerprint(&self) -> u128 {
        self.ctx.with_pool(|p| p.fingerprint(self.id))
    }

    /// Logical conjunction.
    pub fn and(&self, rhs: &SymBool) -> SymBool {
        let id = self.ctx.with_pool(|p| p.and(self.id, rhs.id));
        SymBool::from_raw(self.ctx.clone(), id)
    }

    /// Logical disjunction.
    pub fn or(&self, rhs: &SymBool) -> SymBool {
        let id = self.ctx.with_pool(|p| p.or(self.id, rhs.id));
        SymBool::from_raw(self.ctx.clone(), id)
    }

    /// Logical negation.
    pub fn not(&self) -> SymBool {
        let id = self.ctx.with_pool(|p| p.not(self.id));
        SymBool::from_raw(self.ctx.clone(), id)
    }

    /// Logical implication `self -> rhs`.
    pub fn implies(&self, rhs: &SymBool) -> SymBool {
        let id = self.ctx.with_pool(|p| p.implies(self.id, rhs.id));
        SymBool::from_raw(self.ctx.clone(), id)
    }

    /// Resolves to a concrete `bool`, forking if both directions are
    /// feasible. Shorthand for [`SymCtx::decide`](crate::SymCtx::decide).
    pub fn decide(&self) -> bool {
        self.ctx.decide(self)
    }

    /// Converts to a 1-bit [`SymWord`].
    pub fn to_word(&self) -> SymWord {
        SymWord::from_raw(self.ctx.clone(), self.id, Width::W1)
    }
}

impl crate::ctx::SymCtx {
    /// Reports a division-by-zero style guard failure helper; used by the
    /// TLM layer for modeled memory copies.
    pub fn guard_in_bounds(&self, ok: &SymBool, message: &str) {
        if self.decide(&ok.not()) {
            self.fail(ErrorKind::OutOfBounds, message);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::explore::Explorer;
    use crate::Width;

    #[test]
    fn arithmetic_folds_for_concrete_values() {
        Explorer::new().explore(|ctx| {
            let a = ctx.word(6, Width::W32);
            let b = ctx.word(7, Width::W32);
            let p = a.mul(&b);
            assert_eq!(p.as_const(), Some(42));
            let s = &a + &b;
            assert_eq!(s.as_const(), Some(13));
            let d = a.sub(&b);
            assert_eq!(d.as_const(), Some(0xFFFF_FFFF));
        });
    }

    #[test]
    fn operators_compose_symbolically() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let mask = ctx.word(0x0F, Width::W8);
            let low = &x & &mask;
            let sixteen = ctx.word(16, Width::W8);
            // low nibble is always < 16
            ctx.check(&low.ult(&sixteen), "nibble bound");
        });
        assert!(report.passed());
        assert_eq!(report.stats.paths, 1);
    }

    #[test]
    fn bit_extraction() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            ctx.assume(&x.eq(&ctx.word(0b1010_0001, Width::W8)));
            let b0 = x.bit(0).to_word();
            let b1 = x.bit(1).to_word();
            ctx.check(&b0.eq(&ctx.word(1, Width::W1)), "bit 0 set");
            ctx.check(&b1.eq(&ctx.word(0, Width::W1)), "bit 1 clear");
        });
        assert!(report.passed());
    }

    #[test]
    fn division_by_possible_zero_reports_trap() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let hundred = ctx.word(100, Width::W8);
            let _ = hundred.udiv(&x); // x may be 0
        });
        assert_eq!(report.errors.len(), 1);
        assert_eq!(
            report.errors[0].kind,
            crate::error::ErrorKind::DivisionByZero
        );
        assert_eq!(report.errors[0].counterexample.value("x"), 0);
    }

    #[test]
    fn division_by_assumed_nonzero_is_silent() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let zero = ctx.word(0, Width::W8);
            ctx.assume(&x.ne(&zero));
            let hundred = ctx.word(100, Width::W8);
            let _ = hundred.udiv(&x);
        });
        assert!(report.passed());
    }

    #[test]
    fn select_follows_condition() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let five = ctx.word(5, Width::W8);
            let small = x.ult(&five);
            let a = ctx.word(1, Width::W8);
            let b = ctx.word(2, Width::W8);
            let picked = a.select(&small, &b);
            // (x < 5 && picked == 1) || (x >= 5 && picked == 2)
            let ok_small = small.implies(&picked.eq(&a));
            let ok_big = small.not().implies(&picked.eq(&b));
            ctx.check(&ok_small.and(&ok_big), "select semantics");
        });
        assert!(report.passed());
    }

    #[test]
    fn concretize_pins_the_value() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            let ten = ctx.word(10, Width::W8);
            ctx.assume(&x.ult(&ten));
            let v = x.concretize();
            assert!(v < 10);
            // After concretization the word behaves like that constant.
            let k = ctx.word(v, Width::W8);
            ctx.check(&x.eq(&k), "concretization pins value");
        });
        assert!(report.passed());
    }
}

#[cfg(test)]
mod signed_tests {
    use crate::explore::Explorer;
    use crate::Width;

    #[test]
    fn ashr_replicates_the_sign() {
        let report = Explorer::new().explore(|ctx| {
            let neg = ctx.word(0x80, Width::W8);
            let one = ctx.word(1, Width::W8);
            let r = neg.ashr(&one);
            assert_eq!(r.as_const(), Some(0xC0));
        });
        assert!(report.passed());
    }

    #[test]
    fn sign_ext_widens_negative_values() {
        let report = Explorer::new().explore(|ctx| {
            let x = ctx.symbolic("x", Width::W8);
            ctx.assume(&x.eq(&ctx.word(0xFF, Width::W8)));
            let wide = x.sign_ext(Width::W32);
            ctx.check(&wide.eq(&ctx.word32(0xFFFF_FFFF)), "-1 stays -1");
            // And it is still signed-less-than zero at the wider width.
            let zero = ctx.word32(0);
            ctx.check(&wide.slt(&zero), "negative after widening");
        });
        assert!(report.passed());
    }
}
