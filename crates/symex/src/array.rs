//! Symbolic-index arrays.
//!
//! KLEE models memory as flat arrays that can be read and written at
//! symbolic offsets without forking. [`SymArray`] reproduces that for
//! word arrays: `select` builds an if-then-else chain over the entries and
//! `store` merges the new value into every entry under an equality guard.
//! Both are pure dataflow — no path forks — so a peripheral register file
//! indexed by a symbolic address stays single-path, exactly as in KLEE.

use symsc_smt::Width;

use crate::cow::CowVec;
use crate::ctx::SymCtx;
use crate::value::SymWord;

/// A fixed-size array of words supporting symbolic indices.
///
/// The words live in a [`CowVec`], so cloning an array — as the
/// peripheral snapshot/restore APIs do at every fork — costs a handful of
/// Arc bumps, and a post-fork write copies only the chunk it lands in.
///
/// # Example
///
/// ```
/// use symsc_symex::{Explorer, Width};
/// use symsc_symex::array::SymArray;
///
/// let report = Explorer::new().explore(|ctx| {
///     let mut a = SymArray::filled(ctx, 4, 0, Width::W32);
///     let i = ctx.symbolic("i", Width::W32);
///     let four = ctx.word32(4);
///     ctx.assume(&i.ult(&four));
///     a.store(&i, &ctx.word32(7));
///     let read_back = a.select(&i);
///     ctx.check(&read_back.eq(&ctx.word32(7)), "read-after-write");
/// });
/// assert!(report.passed());
/// ```
#[derive(Clone, Debug)]
pub struct SymArray {
    ctx: SymCtx,
    words: CowVec<SymWord>,
    width: Width,
}

impl SymArray {
    /// An array of `len` words, all holding the concrete `fill` value.
    pub fn filled(ctx: &SymCtx, len: usize, fill: u64, width: Width) -> SymArray {
        let words: CowVec<SymWord> = (0..len).map(|_| ctx.word(fill, width)).collect();
        SymArray {
            ctx: ctx.clone(),
            words,
            width,
        }
    }

    /// An array built from explicit words.
    ///
    /// # Panics
    ///
    /// Panics if the words differ in width or `words` is empty.
    pub fn from_words(ctx: &SymCtx, words: Vec<SymWord>) -> SymArray {
        assert!(!words.is_empty(), "SymArray must be non-empty");
        let width = words[0].width();
        assert!(
            words.iter().all(|w| w.width() == width),
            "SymArray words must share a width"
        );
        SymArray {
            ctx: ctx.clone(),
            words: words.into_iter().collect(),
            width,
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the array is empty (never true for constructed arrays).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The element width.
    pub fn width(&self) -> Width {
        self.width
    }

    /// Reads at a *concrete* index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> &SymWord {
        self.words.get(index).expect("SymArray index out of range")
    }

    /// Writes at a *concrete* index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize, value: SymWord) {
        assert_eq!(value.width(), self.width, "width mismatch");
        self.words.set(index, value);
    }

    /// Reads at a symbolic index without forking (ite chain). Out-of-range
    /// indices read as zero; callers are expected to bounds-check first,
    /// as KLEE's memory model reports such accesses separately.
    pub fn select(&self, index: &SymWord) -> SymWord {
        let mut acc = self.ctx.word(0, self.width);
        for (i, w) in self.words.iter().enumerate() {
            let k = self.ctx.word(i as u64, index.width());
            let here = index.eq(&k);
            acc = w.select(&here, &acc);
        }
        acc
    }

    /// Writes at a symbolic index without forking (guarded merge into each
    /// entry). Out-of-range indices write nowhere.
    pub fn store(&mut self, index: &SymWord, value: &SymWord) {
        assert_eq!(value.width(), self.width, "width mismatch");
        for i in 0..self.words.len() {
            let k = self.ctx.word(i as u64, index.width());
            let here = index.eq(&k);
            let merged = value.select(&here, self.words.get(i).expect("in range"));
            self.words.set(i, merged);
        }
    }

    /// Iterates over the words (concrete order).
    pub fn iter(&self) -> impl Iterator<Item = &SymWord> + '_ {
        self.words.iter()
    }

    /// Like [`select`](SymArray::select), but with KLEE-style memory
    /// checking: if the index can exceed the array bounds on the current
    /// path, an [`OutOfBounds`](crate::ErrorKind::OutOfBounds) error is
    /// recorded with a counterexample and the erring path terminates; the
    /// surviving path continues under `index < len`.
    pub fn select_checked(&self, index: &SymWord, what: &str) -> SymWord {
        self.bounds_guard(index, what);
        self.select(index)
    }

    /// Like [`store`](SymArray::store), with the same bounds checking as
    /// [`select_checked`](SymArray::select_checked).
    pub fn store_checked(&mut self, index: &SymWord, value: &SymWord, what: &str) {
        self.bounds_guard(index, what);
        self.store(index, value);
    }

    fn bounds_guard(&self, index: &SymWord, what: &str) {
        let len = self.ctx.word(self.words.len() as u64, index.width());
        let oob = index.uge(&len);
        if self.ctx.decide(&oob) {
            self.ctx.fail(
                crate::ErrorKind::OutOfBounds,
                format!("index out of bounds accessing {what}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;

    #[test]
    fn concrete_access_round_trip() {
        Explorer::new().explore(|ctx| {
            let mut a = SymArray::filled(ctx, 3, 0, Width::W32);
            a.set(1, ctx.word32(42));
            assert_eq!(a.get(1).as_const(), Some(42));
            assert_eq!(a.get(0).as_const(), Some(0));
            assert_eq!(a.len(), 3);
        });
    }

    #[test]
    fn symbolic_select_does_not_fork() {
        let report = Explorer::new().explore(|ctx| {
            let mut a = SymArray::filled(ctx, 4, 0, Width::W32);
            for i in 0..4 {
                a.set(i, ctx.word32(i as u32 * 10));
            }
            let i = ctx.symbolic("i", Width::W32);
            ctx.assume(&i.ult(&ctx.word32(4)));
            let v = a.select(&i);
            let ten_i = i.mul(&ctx.word32(10));
            ctx.check(&v.eq(&ten_i), "select reads entry i");
        });
        assert!(report.passed());
        assert_eq!(report.stats.paths, 1, "select must not fork");
    }

    #[test]
    fn symbolic_store_updates_exactly_one_entry() {
        let report = Explorer::new().explore(|ctx| {
            let mut a = SymArray::filled(ctx, 4, 5, Width::W32);
            let i = ctx.symbolic("i", Width::W32);
            ctx.assume(&i.ult(&ctx.word32(4)));
            a.store(&i, &ctx.word32(99));
            // Entry i is 99; all others still 5.
            let j = ctx.symbolic("j", Width::W32);
            ctx.assume(&j.ult(&ctx.word32(4)));
            let v = a.select(&j);
            let same = j.eq(&i);
            let expect_hit = same.implies(&v.eq(&ctx.word32(99)));
            let expect_miss = same.not().implies(&v.eq(&ctx.word32(5)));
            ctx.check(&expect_hit.and(&expect_miss), "single-entry store");
        });
        assert!(report.passed());
    }

    #[test]
    fn out_of_range_select_reads_zero() {
        let report = Explorer::new().explore(|ctx| {
            let a = SymArray::filled(ctx, 2, 7, Width::W32);
            let big = ctx.word32(100);
            let v = a.select(&big);
            ctx.check(&v.eq(&ctx.word32(0)), "oob reads zero");
        });
        assert!(report.passed());
    }

    #[test]
    fn width_mismatch_is_reported_as_model_panic() {
        // Inside an exploration, model panics become ModelPanic errors.
        let report = Explorer::new().max_paths(1).explore(|ctx| {
            let mut a = SymArray::filled(ctx, 2, 0, Width::W32);
            a.set(0, ctx.word(1, Width::W8));
        });
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].kind, crate::ErrorKind::ModelPanic);
        assert!(report.errors[0].message.contains("width mismatch"));
    }
}

#[cfg(test)]
mod checked_tests {
    use super::*;
    use crate::explore::Explorer;
    use crate::ErrorKind;

    #[test]
    fn checked_select_reports_possible_overrun() {
        let report = Explorer::new().explore(|ctx| {
            let a = SymArray::filled(ctx, 4, 0, Width::W32);
            let i = ctx.symbolic("i", Width::W32);
            ctx.assume(&i.ule(&ctx.word32(5))); // 4 and 5 overrun
            let _ = a.select_checked(&i, "scratch array");
        });
        assert_eq!(report.distinct_errors().len(), 1);
        let e = &report.errors[0];
        assert_eq!(e.kind, ErrorKind::OutOfBounds);
        assert!(e.counterexample.value("i") >= 4);
        assert_eq!(report.stats.paths, 2, "error path + in-bounds path");
    }

    #[test]
    fn checked_store_is_silent_when_bounded() {
        let report = Explorer::new().explore(|ctx| {
            let mut a = SymArray::filled(ctx, 4, 0, Width::W32);
            let i = ctx.symbolic("i", Width::W32);
            ctx.assume(&i.ult(&ctx.word32(4)));
            a.store_checked(&i, &ctx.word32(9), "scratch array");
            let v = a.select_checked(&i, "scratch array");
            ctx.check(&v.eq(&ctx.word32(9)), "round trip");
        });
        assert!(report.passed(), "{report}");
        assert_eq!(report.stats.paths, 1);
    }
}
