//! Hash-consed bitvector terms.
//!
//! All terms live in a [`TermPool`]. Construction performs aggressive
//! constant folding and identity rewriting, so a computation over constants
//! never allocates more than the folded result. Identical terms are shared
//! (hash-consing), which both bounds memory and makes the bit-blaster reuse
//! subcircuits.
//!
//! Booleans are width-1 bitvectors; there is no separate Bool sort.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::fxhash::FxHashMap;

/// A bitvector width between 1 and 64 bits inclusive.
///
/// # Example
///
/// ```
/// use symsc_smt::Width;
/// assert_eq!(Width::W32.bits(), 32);
/// assert_eq!(Width::new(7).unwrap().mask(), 0x7F);
/// assert!(Width::new(65).is_none());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Width(u8);

impl Width {
    /// One bit: the boolean width.
    pub const W1: Width = Width(1);
    /// Eight bits.
    pub const W8: Width = Width(8);
    /// Sixteen bits.
    pub const W16: Width = Width(16);
    /// Thirty-two bits: the natural width of TLM register traffic.
    pub const W32: Width = Width(32);
    /// Sixty-four bits: the widest supported bitvector.
    pub const W64: Width = Width(64);

    /// Creates a width, returning `None` unless `1 <= bits <= 64`.
    pub fn new(bits: u32) -> Option<Width> {
        if (1..=64).contains(&bits) {
            Some(Width(bits as u8))
        } else {
            None
        }
    }

    /// The number of bits.
    pub fn bits(self) -> u32 {
        u32::from(self.0)
    }

    /// A mask with the low `bits()` bits set.
    pub fn mask(self) -> u64 {
        if self.0 == 64 {
            u64::MAX
        } else {
            (1u64 << self.0) - 1
        }
    }

    /// The most-significant-bit mask (the sign bit for signed views).
    pub fn sign_bit(self) -> u64 {
        1u64 << (self.0 - 1)
    }

    /// Truncates `value` to this width.
    pub fn truncate(self, value: u64) -> u64 {
        value & self.mask()
    }

    /// Sign-extends the low `bits()` bits of `value` to 64 bits.
    pub fn sign_extend_to_64(self, value: u64) -> u64 {
        let v = self.truncate(value);
        if v & self.sign_bit() != 0 {
            v | !self.mask()
        } else {
            v
        }
    }
}

impl fmt::Debug for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Index of a term inside its [`TermPool`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// The raw pool index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The structure of a term. Obtained through [`TermPool::term`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A constant bitvector value (already truncated to its width).
    Const {
        /// The value, with all bits above the width zero.
        value: u64,
        /// The width of the constant.
        width: Width,
    },
    /// A free variable, identified by name.
    Var {
        /// The variable name. One name maps to exactly one width per pool.
        name: Box<str>,
        /// The width of the variable.
        width: Width,
    },
    /// Bitwise complement.
    Not(TermId),
    /// Two's-complement negation.
    Neg(TermId),
    /// Bitwise and.
    And(TermId, TermId),
    /// Bitwise or.
    Or(TermId, TermId),
    /// Bitwise exclusive or.
    Xor(TermId, TermId),
    /// Wrapping addition.
    Add(TermId, TermId),
    /// Wrapping subtraction.
    Sub(TermId, TermId),
    /// Wrapping multiplication.
    Mul(TermId, TermId),
    /// Unsigned division. Division by zero yields the all-ones vector
    /// (SMT-LIB `bvudiv` semantics).
    Udiv(TermId, TermId),
    /// Unsigned remainder. Remainder by zero yields the dividend
    /// (SMT-LIB `bvurem` semantics).
    Urem(TermId, TermId),
    /// Logical shift left. Shift amounts `>= width` yield zero.
    Shl(TermId, TermId),
    /// Logical shift right. Shift amounts `>= width` yield zero.
    Lshr(TermId, TermId),
    /// Arithmetic shift right. Shift amounts `>= width` replicate the sign.
    Ashr(TermId, TermId),
    /// Equality; the result has width 1.
    Eq(TermId, TermId),
    /// Unsigned less-than; the result has width 1.
    Ult(TermId, TermId),
    /// Unsigned less-or-equal; the result has width 1.
    Ule(TermId, TermId),
    /// Signed less-than; the result has width 1.
    Slt(TermId, TermId),
    /// Signed less-or-equal; the result has width 1.
    Sle(TermId, TermId),
    /// If-then-else: the condition has width 1, branches share a width.
    Ite(TermId, TermId, TermId),
    /// Zero extension to a strictly larger width.
    ZeroExt {
        /// The term being extended.
        arg: TermId,
        /// The target width.
        width: Width,
    },
    /// Sign extension to a strictly larger width.
    SignExt {
        /// The term being extended.
        arg: TermId,
        /// The target width.
        width: Width,
    },
    /// Bit extraction: bits `lo..=hi` of `arg` (inclusive, `hi >= lo`).
    Extract {
        /// The term whose bits are extracted.
        arg: TermId,
        /// The highest extracted bit index.
        hi: u8,
        /// The lowest extracted bit index.
        lo: u8,
    },
    /// Concatenation: `hi` becomes the upper bits, `lo` the lower bits.
    Concat(TermId, TermId),
}

/// An arena of hash-consed terms.
///
/// All constructor methods fold constants and apply cheap local identities,
/// so the solver never sees trivially reducible structure. Identical terms
/// always get identical [`TermId`]s within one pool.
///
/// # Example
///
/// ```
/// use symsc_smt::{TermPool, Width};
/// let mut pool = TermPool::new();
/// let a = pool.constant(3, Width::W32);
/// let b = pool.constant(4, Width::W32);
/// let sum = pool.add(a, b);
/// assert_eq!(pool.const_value(sum), Some(7)); // folded at construction
/// ```
#[derive(Debug)]
pub struct TermPool {
    terms: Vec<Term>,
    widths: Vec<Width>,
    fps: Vec<u128>,
    supports: Vec<Support>,
    dedup: FxHashMap<Term, TermId>,
    vars: FxHashMap<Box<str>, TermId>,
    ops_created: u64,
    pool_id: u64,
}

/// Process-unique pool identities, used by the incremental solver context
/// to detect that a [`TermId`] it memoized came from a different pool.
static POOL_IDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn next_pool_id() -> u64 {
    POOL_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl Default for TermPool {
    fn default() -> TermPool {
        TermPool {
            terms: Vec::new(),
            widths: Vec::new(),
            fps: Vec::new(),
            supports: Vec::new(),
            dedup: FxHashMap::default(),
            vars: FxHashMap::default(),
            ops_created: 0,
            pool_id: next_pool_id(),
        }
    }
}

impl Clone for TermPool {
    /// Clones the pool's contents under a *fresh* identity: the clone may
    /// intern terms the original never sees, so anything that memoized
    /// [`TermId`]s against the original (the incremental solver context)
    /// must not accept them from the clone.
    fn clone(&self) -> TermPool {
        TermPool {
            terms: self.terms.clone(),
            widths: self.widths.clone(),
            fps: self.fps.clone(),
            supports: self.supports.clone(),
            dedup: self.dedup.clone(),
            vars: self.vars.clone(),
            ops_created: self.ops_created,
            pool_id: next_pool_id(),
        }
    }
}

/// The free-variable support of a term: the set of variables the term's
/// value depends on, identified by their intern ordinal within the owning
/// pool.
///
/// Supports are memoized per term at intern time (alongside the structural
/// fingerprint), so reading the support of any term — however deep — is an
/// O(1) index. The solver's independence slicing uses them to partition a
/// constraint set into connected components that can be decided separately.
///
/// Pools rarely intern more than a handful of variables, so the common
/// representation is a bitmask over the first 128 ordinals; larger pools
/// fall back to a shared sorted set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Support {
    /// Bitmask over variable ordinals `0..128` (the common case).
    Mask(u128),
    /// Explicit sorted ordinal set, used once ordinals reach 128.
    Set(Arc<BTreeSet<u32>>),
}

impl Support {
    /// The empty support (constants depend on no variables).
    pub const EMPTY: Support = Support::Mask(0);

    fn singleton(ordinal: u32) -> Support {
        if ordinal < 128 {
            Support::Mask(1 << ordinal)
        } else {
            Support::Set(Arc::new(std::iter::once(ordinal).collect()))
        }
    }

    /// Whether the term depends on no variables.
    pub fn is_empty(&self) -> bool {
        match self {
            Support::Mask(m) => *m == 0,
            Support::Set(s) => s.is_empty(),
        }
    }

    /// Number of distinct variables in the support.
    pub fn len(&self) -> usize {
        match self {
            Support::Mask(m) => m.count_ones() as usize,
            Support::Set(s) => s.len(),
        }
    }

    fn to_set(&self) -> BTreeSet<u32> {
        match self {
            Support::Mask(m) => (0..128).filter(|o| m >> o & 1 == 1).collect(),
            Support::Set(s) => (**s).clone(),
        }
    }

    /// Whether two supports share at least one variable.
    pub fn intersects(&self, other: &Support) -> bool {
        match (self, other) {
            (Support::Mask(a), Support::Mask(b)) => a & b != 0,
            (Support::Mask(m), Support::Set(s)) | (Support::Set(s), Support::Mask(m)) => {
                s.iter().take_while(|&&o| o < 128).any(|&o| m >> o & 1 == 1)
            }
            (Support::Set(a), Support::Set(b)) => {
                let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                small.iter().any(|o| big.contains(o))
            }
        }
    }

    /// The union of two supports.
    pub fn union(&self, other: &Support) -> Support {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        match (self, other) {
            (Support::Mask(a), Support::Mask(b)) => Support::Mask(a | b),
            (a, b) => {
                let mut set = a.to_set();
                set.extend(b.to_set());
                Support::Set(Arc::new(set))
            }
        }
    }
}

/// 128-bit FNV-1a offset basis (the standard constant).
const FP_BASIS: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV prime.
const FP_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

fn fp_mix(mut h: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FP_PRIME);
    }
    h
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> TermPool {
        TermPool::default()
    }

    /// This pool's process-unique identity. [`TermId`]s are dense indices
    /// with no pool tag of their own; long-lived consumers compare pool
    /// identities to reject ids minted by someone else.
    pub fn pool_id(&self) -> u64 {
        self.pool_id
    }

    /// Number of distinct terms in the pool.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the pool holds no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Total constructor invocations, counting calls that were folded or
    /// deduplicated. This is the "executed instructions" proxy used by the
    /// symbolic engine's statistics.
    pub fn ops_created(&self) -> u64 {
        self.ops_created
    }

    /// The structure of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this pool.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// The width of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this pool.
    pub fn width(&self, id: TermId) -> Width {
        self.widths[id.index()]
    }

    /// Returns the constant value of `id` if it is a constant.
    pub fn const_value(&self, id: TermId) -> Option<u64> {
        match self.terms[id.index()] {
            Term::Const { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Whether `id` is the width-1 constant 1.
    pub fn is_true(&self, id: TermId) -> bool {
        self.const_value(id) == Some(1) && self.width(id) == Width::W1
    }

    /// Whether `id` is the width-1 constant 0.
    pub fn is_false(&self, id: TermId) -> bool {
        self.const_value(id) == Some(0) && self.width(id) == Width::W1
    }

    /// All variables interned in this pool as `(name, width, id)`, in an
    /// unspecified order.
    pub fn variables(&self) -> impl Iterator<Item = (&str, Width, TermId)> + '_ {
        self.vars
            .iter()
            .map(move |(name, &id)| (&**name, self.width(id), id))
    }

    // Both the structural fingerprint and the variable support are
    // computed exactly once, here at intern time; `fingerprint` and
    // `support` are O(1) indexed reads afterwards. `Solver::check` relies
    // on this: canonicalizing and slicing a constraint set touches only
    // memoized data, never re-deriving either from the term structure.
    fn intern(&mut self, term: Term, width: Width) -> TermId {
        self.ops_created += 1;
        if let Some(&id) = self.dedup.get(&term) {
            return id;
        }
        let fp = self.structural_fp(&term, width);
        let support = self.structural_support(&term);
        let id = TermId(self.terms.len() as u32);
        self.dedup.insert(term.clone(), id);
        self.terms.push(term);
        self.widths.push(width);
        self.fps.push(fp);
        self.supports.push(support);
        id
    }

    /// The structural fingerprint of `id`: a 128-bit Merkle-style hash of
    /// the term's shape, computed with fixed constants (no per-process
    /// hasher state). Structurally identical terms have equal fingerprints
    /// *across* pools, which is what makes fingerprints usable as
    /// pool-independent canonical keys — the shared solver cache and the
    /// deterministic operand/constraint orderings are built on them.
    pub fn fingerprint(&self, id: TermId) -> u128 {
        self.fps[id.index()]
    }

    /// The memoized free-variable support of `id` (see [`Support`]).
    ///
    /// Constant folding guarantees that every non-constant term depends on
    /// at least one variable, so a non-empty support is the rule for
    /// anything a constraint set can contain after trivial filtering.
    pub fn support(&self, id: TermId) -> &Support {
        &self.supports[id.index()]
    }

    fn structural_support(&self, term: &Term) -> Support {
        match term {
            Term::Const { .. } => Support::EMPTY,
            // The ordinal of a fresh variable is the number of variables
            // interned before it (`var` registers it right after intern).
            Term::Var { .. } => Support::singleton(self.vars.len() as u32),
            Term::Not(a) | Term::Neg(a) => self.support(*a).clone(),
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
            | Term::Concat(a, b) => self.support(*a).union(self.support(*b)),
            Term::Ite(c, t, e) => self
                .support(*c)
                .union(self.support(*t))
                .union(self.support(*e)),
            Term::ZeroExt { arg, .. } | Term::SignExt { arg, .. } | Term::Extract { arg, .. } => {
                self.support(*arg).clone()
            }
        }
    }

    /// Orders a commutative operand pair canonically by structural
    /// fingerprint. Creation order (TermId) would also work within one
    /// pool, but would make the interned shape — and therefore solver
    /// models — depend on the history of the pool; fingerprints make it a
    /// function of the operands' structure alone.
    fn commute(&self, a: TermId, b: TermId) -> (TermId, TermId) {
        if self.fingerprint(a) <= self.fingerprint(b) {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn structural_fp(&self, term: &Term, width: Width) -> u128 {
        fn tag(term: &Term) -> u8 {
            match term {
                Term::Const { .. } => 0,
                Term::Var { .. } => 1,
                Term::Not(_) => 2,
                Term::Neg(_) => 3,
                Term::And(..) => 4,
                Term::Or(..) => 5,
                Term::Xor(..) => 6,
                Term::Add(..) => 7,
                Term::Sub(..) => 8,
                Term::Mul(..) => 9,
                Term::Udiv(..) => 10,
                Term::Urem(..) => 11,
                Term::Shl(..) => 12,
                Term::Lshr(..) => 13,
                Term::Ashr(..) => 14,
                Term::Eq(..) => 15,
                Term::Ult(..) => 16,
                Term::Ule(..) => 17,
                Term::Slt(..) => 18,
                Term::Sle(..) => 19,
                Term::Ite(..) => 20,
                Term::ZeroExt { .. } => 21,
                Term::SignExt { .. } => 22,
                Term::Extract { .. } => 23,
                Term::Concat(..) => 24,
            }
        }
        let mut h = fp_mix(FP_BASIS, &[tag(term), width.bits() as u8]);
        let child = |h: u128, id: TermId| fp_mix(h, &self.fingerprint(id).to_le_bytes());
        match term {
            Term::Const { value, .. } => h = fp_mix(h, &value.to_le_bytes()),
            Term::Var { name, .. } => h = fp_mix(h, name.as_bytes()),
            Term::Not(a) | Term::Neg(a) => h = child(h, *a),
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
                h = child(h, *a);
                h = child(h, *b);
            }
            Term::Ite(c, t, e) => {
                h = child(h, *c);
                h = child(h, *t);
                h = child(h, *e);
            }
            Term::ZeroExt { arg, .. } | Term::SignExt { arg, .. } => h = child(h, *arg),
            Term::Extract { arg, hi, lo } => {
                h = child(h, *arg);
                h = fp_mix(h, &[*hi, *lo]);
            }
        }
        h
    }

    /// Interns a constant, truncating `value` to `width`.
    pub fn constant(&mut self, value: u64, width: Width) -> TermId {
        let value = width.truncate(value);
        self.intern(Term::Const { value, width }, width)
    }

    /// The width-1 constant 1 ("true").
    pub fn tru(&mut self) -> TermId {
        self.constant(1, Width::W1)
    }

    /// The width-1 constant 0 ("false").
    pub fn fls(&mut self) -> TermId {
        self.constant(0, Width::W1)
    }

    /// Interns a free variable. Repeated calls with the same name return the
    /// same term.
    ///
    /// # Panics
    ///
    /// Panics if the name was previously interned at a different width.
    pub fn var(&mut self, name: &str, width: Width) -> TermId {
        if let Some(&id) = self.vars.get(name) {
            assert_eq!(
                self.width(id),
                width,
                "variable {name:?} re-declared at a different width"
            );
            return id;
        }
        let boxed: Box<str> = name.into();
        let id = self.intern(
            Term::Var {
                name: boxed.clone(),
                width,
            },
            width,
        );
        self.vars.insert(boxed, id);
        id
    }

    fn assert_same_width(&self, a: TermId, b: TermId, op: &str) -> Width {
        let (wa, wb) = (self.width(a), self.width(b));
        assert_eq!(wa, wb, "{op}: operand widths differ ({wa} vs {wb})");
        wa
    }

    /// Bitwise complement of `a`.
    pub fn not(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(v) = self.const_value(a) {
            return self.constant(!v, w);
        }
        if let Term::Not(inner) = *self.term(a) {
            self.ops_created += 1;
            return inner; // not(not x) = x
        }
        self.intern(Term::Not(a), w)
    }

    /// Two's-complement negation of `a`.
    pub fn neg(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        if let Some(v) = self.const_value(a) {
            return self.constant(v.wrapping_neg(), w);
        }
        if let Term::Neg(inner) = *self.term(a) {
            self.ops_created += 1;
            return inner; // neg(neg x) = x
        }
        self.intern(Term::Neg(a), w)
    }

    /// Bitwise and.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "and");
        let (a, b) = self.commute(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => return self.constant(x & y, w),
            (Some(0), _) | (_, Some(0)) => return self.constant(0, w),
            (Some(x), _) if x == w.mask() => return b,
            (_, Some(y)) if y == w.mask() => return a,
            _ => {}
        }
        if a == b {
            self.ops_created += 1;
            return a;
        }
        if self.is_complement_pair(a, b) {
            return self.constant(0, w);
        }
        self.intern(Term::And(a, b), w)
    }

    /// Bitwise or.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "or");
        let (a, b) = self.commute(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => return self.constant(x | y, w),
            (Some(0), _) => return b,
            (_, Some(0)) => return a,
            (Some(x), _) if x == w.mask() => return self.constant(w.mask(), w),
            (_, Some(y)) if y == w.mask() => return self.constant(w.mask(), w),
            _ => {}
        }
        if a == b {
            self.ops_created += 1;
            return a;
        }
        if self.is_complement_pair(a, b) {
            return self.constant(w.mask(), w);
        }
        self.intern(Term::Or(a, b), w)
    }

    /// Bitwise exclusive or.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "xor");
        let (a, b) = self.commute(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => return self.constant(x ^ y, w),
            (Some(0), _) => return b,
            (_, Some(0)) => return a,
            (Some(x), _) if x == w.mask() => return self.not(b),
            (_, Some(y)) if y == w.mask() => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.constant(0, w);
        }
        self.intern(Term::Xor(a, b), w)
    }

    fn is_complement_pair(&self, a: TermId, b: TermId) -> bool {
        matches!(*self.term(a), Term::Not(x) if x == b)
            || matches!(*self.term(b), Term::Not(x) if x == a)
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "add");
        let (a, b) = self.commute(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => return self.constant(x.wrapping_add(y), w),
            (Some(0), _) => return b,
            (_, Some(0)) => return a,
            _ => {}
        }
        self.intern(Term::Add(a, b), w)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "sub");
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => return self.constant(x.wrapping_sub(y), w),
            (_, Some(0)) => return a,
            _ => {}
        }
        if a == b {
            return self.constant(0, w);
        }
        self.intern(Term::Sub(a, b), w)
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "mul");
        let (a, b) = self.commute(a, b);
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => return self.constant(x.wrapping_mul(y), w),
            (Some(0), _) | (_, Some(0)) => return self.constant(0, w),
            (Some(1), _) => return b,
            (_, Some(1)) => return a,
            _ => {}
        }
        self.intern(Term::Mul(a, b), w)
    }

    /// Unsigned division (`bvudiv` semantics: `x / 0 = all-ones`).
    pub fn udiv(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "udiv");
        match (self.const_value(a), self.const_value(b)) {
            (Some(_), Some(0)) | (None, Some(0)) => return self.constant(w.mask(), w),
            (Some(x), Some(y)) => return self.constant(x / y, w),
            (_, Some(1)) => return a,
            _ => {}
        }
        self.intern(Term::Udiv(a, b), w)
    }

    /// Unsigned remainder (`bvurem` semantics: `x % 0 = x`).
    pub fn urem(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "urem");
        match (self.const_value(a), self.const_value(b)) {
            (_, Some(0)) => return a,
            (Some(x), Some(y)) => return self.constant(x % y, w),
            (_, Some(1)) => return self.constant(0, w),
            _ => {}
        }
        self.intern(Term::Urem(a, b), w)
    }

    /// Logical shift left; amounts `>= width` yield zero.
    pub fn shl(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "shl");
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => {
                let v = if y >= u64::from(w.bits()) { 0 } else { x << y };
                return self.constant(v, w);
            }
            (Some(0), _) => return self.constant(0, w),
            (_, Some(0)) => return a,
            _ => {}
        }
        self.intern(Term::Shl(a, b), w)
    }

    /// Logical shift right; amounts `>= width` yield zero.
    pub fn lshr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "lshr");
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => {
                let v = if y >= u64::from(w.bits()) { 0 } else { x >> y };
                return self.constant(v, w);
            }
            (Some(0), _) => return self.constant(0, w),
            (_, Some(0)) => return a,
            _ => {}
        }
        self.intern(Term::Lshr(a, b), w)
    }

    /// Arithmetic shift right; amounts `>= width` replicate the sign bit.
    pub fn ashr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "ashr");
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => {
                let sx = w.sign_extend_to_64(x) as i64;
                let shift = y.min(63);
                return self.constant((sx >> shift) as u64, w);
            }
            (_, Some(0)) => return a,
            _ => {}
        }
        self.intern(Term::Ashr(a, b), w)
    }

    /// Equality predicate (width-1 result).
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "eq");
        let (a, b) = self.commute(a, b);
        if a == b {
            return self.tru();
        }
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            return if x == y { self.tru() } else { self.fls() };
        }
        if w == Width::W1 {
            // eq(x, true) = x ; eq(x, false) = not x
            match (self.const_value(a), self.const_value(b)) {
                (Some(1), _) => return b,
                (_, Some(1)) => return a,
                (Some(0), _) => return self.not(b),
                (_, Some(0)) => return self.not(a),
                _ => {}
            }
        }
        self.intern(Term::Eq(a, b), Width::W1)
    }

    /// Disequality predicate (width-1 result).
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than predicate (width-1 result).
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "ult");
        if a == b {
            return self.fls();
        }
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => return if x < y { self.tru() } else { self.fls() },
            (_, Some(0)) => return self.fls(), // x < 0 is false
            (Some(x), _) if x == w.mask() => return self.fls(), // ones < x is false
            _ => {}
        }
        self.intern(Term::Ult(a, b), Width::W1)
    }

    /// Unsigned less-or-equal predicate (width-1 result).
    pub fn ule(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "ule");
        if a == b {
            return self.tru();
        }
        match (self.const_value(a), self.const_value(b)) {
            (Some(x), Some(y)) => return if x <= y { self.tru() } else { self.fls() },
            (Some(0), _) => return self.tru(), // 0 <= x
            (_, Some(y)) if y == w.mask() => return self.tru(), // x <= ones
            _ => {}
        }
        self.intern(Term::Ule(a, b), Width::W1)
    }

    /// Unsigned greater-than predicate (width-1 result).
    pub fn ugt(&mut self, a: TermId, b: TermId) -> TermId {
        self.ult(b, a)
    }

    /// Unsigned greater-or-equal predicate (width-1 result).
    pub fn uge(&mut self, a: TermId, b: TermId) -> TermId {
        self.ule(b, a)
    }

    /// Signed less-than predicate (width-1 result).
    pub fn slt(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "slt");
        if a == b {
            return self.fls();
        }
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            let (sx, sy) = (w.sign_extend_to_64(x) as i64, w.sign_extend_to_64(y) as i64);
            return if sx < sy { self.tru() } else { self.fls() };
        }
        self.intern(Term::Slt(a, b), Width::W1)
    }

    /// Signed less-or-equal predicate (width-1 result).
    pub fn sle(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.assert_same_width(a, b, "sle");
        if a == b {
            return self.tru();
        }
        if let (Some(x), Some(y)) = (self.const_value(a), self.const_value(b)) {
            let (sx, sy) = (w.sign_extend_to_64(x) as i64, w.sign_extend_to_64(y) as i64);
            return if sx <= sy { self.tru() } else { self.fls() };
        }
        self.intern(Term::Sle(a, b), Width::W1)
    }

    /// If-then-else.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is not width 1 or the branches differ in width.
    pub fn ite(&mut self, cond: TermId, then: TermId, els: TermId) -> TermId {
        assert_eq!(self.width(cond), Width::W1, "ite: condition must be w1");
        let w = self.assert_same_width(then, els, "ite");
        if let Some(c) = self.const_value(cond) {
            self.ops_created += 1;
            return if c == 1 { then } else { els };
        }
        if then == els {
            self.ops_created += 1;
            return then;
        }
        if w == Width::W1 {
            match (self.const_value(then), self.const_value(els)) {
                (Some(1), Some(0)) => return cond,
                (Some(0), Some(1)) => return self.not(cond),
                _ => {}
            }
        }
        self.intern(Term::Ite(cond, then, els), w)
    }

    /// Zero-extends `a` to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the width of `a`.
    pub fn zero_ext(&mut self, a: TermId, width: Width) -> TermId {
        let wa = self.width(a);
        assert!(width >= wa, "zero_ext: target narrower than source");
        if width == wa {
            self.ops_created += 1;
            return a;
        }
        if let Some(v) = self.const_value(a) {
            return self.constant(v, width);
        }
        self.intern(Term::ZeroExt { arg: a, width }, width)
    }

    /// Sign-extends `a` to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the width of `a`.
    pub fn sign_ext(&mut self, a: TermId, width: Width) -> TermId {
        let wa = self.width(a);
        assert!(width >= wa, "sign_ext: target narrower than source");
        if width == wa {
            self.ops_created += 1;
            return a;
        }
        if let Some(v) = self.const_value(a) {
            return self.constant(wa.sign_extend_to_64(v), width);
        }
        self.intern(Term::SignExt { arg: a, width }, width)
    }

    /// Extracts bits `lo..=hi` of `a` (a `hi - lo + 1`-bit result).
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi` is out of range for the width of `a`.
    pub fn extract(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        let wa = self.width(a);
        assert!(hi >= lo && hi < wa.bits(), "extract: bad range {hi}..{lo}");
        let w = Width::new(hi - lo + 1).expect("extract width in range");
        if lo == 0 && w == wa {
            self.ops_created += 1;
            return a;
        }
        if let Some(v) = self.const_value(a) {
            return self.constant(v >> lo, w);
        }
        self.intern(
            Term::Extract {
                arg: a,
                hi: hi as u8,
                lo: lo as u8,
            },
            w,
        )
    }

    /// Concatenates `hi` (upper bits) with `lo` (lower bits).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 64 bits.
    pub fn concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let (wh, wl) = (self.width(hi), self.width(lo));
        let w = Width::new(wh.bits() + wl.bits()).expect("concat: combined width exceeds 64 bits");
        if let (Some(h), Some(l)) = (self.const_value(hi), self.const_value(lo)) {
            return self.constant((h << wl.bits()) | l, w);
        }
        self.intern(Term::Concat(hi, lo), w)
    }

    /// Boolean implication `a -> b` over width-1 terms.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// A human-readable rendering of the term, for diagnostics.
    pub fn display(&self, id: TermId) -> String {
        match self.term(id) {
            Term::Const { value, width } => format!("{value}#{width}"),
            Term::Var { name, .. } => name.to_string(),
            Term::Not(a) => format!("~{}", self.display(*a)),
            Term::Neg(a) => format!("-{}", self.display(*a)),
            Term::And(a, b) => format!("({} & {})", self.display(*a), self.display(*b)),
            Term::Or(a, b) => format!("({} | {})", self.display(*a), self.display(*b)),
            Term::Xor(a, b) => format!("({} ^ {})", self.display(*a), self.display(*b)),
            Term::Add(a, b) => format!("({} + {})", self.display(*a), self.display(*b)),
            Term::Sub(a, b) => format!("({} - {})", self.display(*a), self.display(*b)),
            Term::Mul(a, b) => format!("({} * {})", self.display(*a), self.display(*b)),
            Term::Udiv(a, b) => format!("({} /u {})", self.display(*a), self.display(*b)),
            Term::Urem(a, b) => format!("({} %u {})", self.display(*a), self.display(*b)),
            Term::Shl(a, b) => format!("({} << {})", self.display(*a), self.display(*b)),
            Term::Lshr(a, b) => format!("({} >> {})", self.display(*a), self.display(*b)),
            Term::Ashr(a, b) => format!("({} >>s {})", self.display(*a), self.display(*b)),
            Term::Eq(a, b) => format!("({} == {})", self.display(*a), self.display(*b)),
            Term::Ult(a, b) => format!("({} <u {})", self.display(*a), self.display(*b)),
            Term::Ule(a, b) => format!("({} <=u {})", self.display(*a), self.display(*b)),
            Term::Slt(a, b) => format!("({} <s {})", self.display(*a), self.display(*b)),
            Term::Sle(a, b) => format!("({} <=s {})", self.display(*a), self.display(*b)),
            Term::Ite(c, t, e) => format!(
                "ite({}, {}, {})",
                self.display(*c),
                self.display(*t),
                self.display(*e)
            ),
            Term::ZeroExt { arg, width } => {
                format!("zext({}, {width})", self.display(*arg))
            }
            Term::SignExt { arg, width } => {
                format!("sext({}, {width})", self.display(*arg))
            }
            Term::Extract { arg, hi, lo } => {
                format!("{}[{hi}:{lo}]", self.display(*arg))
            }
            Term::Concat(a, b) => format!("({} ++ {})", self.display(*a), self.display(*b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_bounds() {
        assert!(Width::new(0).is_none());
        assert!(Width::new(65).is_none());
        assert_eq!(Width::new(64), Some(Width::W64));
        assert_eq!(Width::W64.mask(), u64::MAX);
        assert_eq!(Width::W1.mask(), 1);
    }

    #[test]
    fn width_sign_extend() {
        assert_eq!(Width::W8.sign_extend_to_64(0x80), 0xFFFF_FFFF_FFFF_FF80);
        assert_eq!(Width::W8.sign_extend_to_64(0x7F), 0x7F);
    }

    #[test]
    fn constants_are_shared() {
        let mut p = TermPool::new();
        let a = p.constant(5, Width::W32);
        let b = p.constant(5, Width::W32);
        assert_eq!(a, b);
        let c = p.constant(5, Width::W16);
        assert_ne!(a, c);
    }

    #[test]
    fn constant_truncates() {
        let mut p = TermPool::new();
        let a = p.constant(0x1FF, Width::W8);
        assert_eq!(p.const_value(a), Some(0xFF));
    }

    #[test]
    fn var_same_name_same_id() {
        let mut p = TermPool::new();
        let a = p.var("x", Width::W32);
        let b = p.var("x", Width::W32);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "different width")]
    fn var_width_conflict_panics() {
        let mut p = TermPool::new();
        p.var("x", Width::W32);
        p.var("x", Width::W16);
    }

    #[test]
    fn add_folds_and_identities() {
        let mut p = TermPool::new();
        let x = p.var("x", Width::W8);
        let zero = p.constant(0, Width::W8);
        assert_eq!(p.add(x, zero), x);
        let a = p.constant(250, Width::W8);
        let b = p.constant(10, Width::W8);
        let s = p.add(a, b);
        assert_eq!(p.const_value(s), Some(4)); // wraps
    }

    #[test]
    fn and_or_identities() {
        let mut p = TermPool::new();
        let x = p.var("x", Width::W8);
        let zero = p.constant(0, Width::W8);
        let ones = p.constant(0xFF, Width::W8);
        assert_eq!(p.and(x, zero), zero);
        assert_eq!(p.and(x, ones), x);
        assert_eq!(p.or(x, zero), x);
        assert_eq!(p.or(x, ones), ones);
        assert_eq!(p.and(x, x), x);
        let nx = p.not(x);
        let none = p.and(x, nx);
        assert_eq!(p.const_value(none), Some(0));
        let all = p.or(x, nx);
        assert_eq!(p.const_value(all), Some(0xFF));
    }

    #[test]
    fn xor_self_is_zero() {
        let mut p = TermPool::new();
        let x = p.var("x", Width::W32);
        let z = p.xor(x, x);
        assert_eq!(p.const_value(z), Some(0));
    }

    #[test]
    fn double_not_cancels() {
        let mut p = TermPool::new();
        let x = p.var("x", Width::W32);
        let nx = p.not(x);
        assert_eq!(p.not(nx), x);
    }

    #[test]
    fn shift_folding() {
        let mut p = TermPool::new();
        let a = p.constant(0b1010, Width::W8);
        let two = p.constant(2, Width::W8);
        let big = p.constant(9, Width::W8);
        let l = p.shl(a, two);
        assert_eq!(p.const_value(l), Some(0b101000));
        let r = p.lshr(a, two);
        assert_eq!(p.const_value(r), Some(0b10));
        let overshift = p.shl(a, big);
        assert_eq!(p.const_value(overshift), Some(0));
    }

    #[test]
    fn ashr_semantics() {
        let mut p = TermPool::new();
        let a = p.constant(0x80, Width::W8);
        let one = p.constant(1, Width::W8);
        let r = p.ashr(a, one);
        assert_eq!(p.const_value(r), Some(0xC0));
        let big = p.constant(100, Width::W8);
        let r2 = p.ashr(a, big);
        assert_eq!(p.const_value(r2), Some(0xFF));
    }

    #[test]
    fn division_by_zero_semantics() {
        let mut p = TermPool::new();
        let x = p.var("x", Width::W8);
        let zero = p.constant(0, Width::W8);
        let d = p.udiv(x, zero);
        assert_eq!(p.const_value(d), Some(0xFF)); // bvudiv x 0 = ones
        assert_eq!(p.urem(x, zero), x); // bvurem x 0 = x
    }

    #[test]
    fn predicates_fold() {
        let mut p = TermPool::new();
        let a = p.constant(3, Width::W8);
        let b = p.constant(4, Width::W8);
        let lt = p.ult(a, b);
        assert!(p.is_true(lt));
        let gt = p.ult(b, a);
        assert!(p.is_false(gt));
        let x = p.var("x", Width::W8);
        let refl_eq = p.eq(x, x);
        assert!(p.is_true(refl_eq));
        let refl_ule = p.ule(x, x);
        assert!(p.is_true(refl_ule));
    }

    #[test]
    fn signed_predicates_fold() {
        let mut p = TermPool::new();
        let minus_one = p.constant(0xFF, Width::W8);
        let one = p.constant(1, Width::W8);
        let r = p.slt(minus_one, one);
        assert!(p.is_true(r)); // -1 <s 1
        let r2 = p.ult(minus_one, one);
        assert!(p.is_false(r2)); // 255 <u 1 is false
    }

    #[test]
    fn ite_folds() {
        let mut p = TermPool::new();
        let t = p.tru();
        let f = p.fls();
        let a = p.var("a", Width::W8);
        let b = p.var("b", Width::W8);
        assert_eq!(p.ite(t, a, b), a);
        assert_eq!(p.ite(f, a, b), b);
        let c = p.var("c", Width::W1);
        assert_eq!(p.ite(c, a, a), a);
        assert_eq!(p.ite(c, t, f), c);
        let nc = p.not(c);
        assert_eq!(p.ite(c, f, t), nc);
    }

    #[test]
    fn extensions_and_extract() {
        let mut p = TermPool::new();
        let a = p.constant(0xAB, Width::W8);
        let z = p.zero_ext(a, Width::W32);
        assert_eq!(p.const_value(z), Some(0xAB));
        assert_eq!(p.width(z), Width::W32);
        let s = p.sign_ext(a, Width::W16);
        assert_eq!(p.const_value(s), Some(0xFFAB));
        let nib = p.extract(a, 7, 4);
        assert_eq!(p.const_value(nib), Some(0xA));
        assert_eq!(p.width(nib), Width::new(4).unwrap());
        let x = p.var("x", Width::W16);
        assert_eq!(p.extract(x, 15, 0), x);
        assert_eq!(p.zero_ext(x, Width::W16), x);
    }

    #[test]
    fn concat_folds() {
        let mut p = TermPool::new();
        let hi = p.constant(0xAB, Width::W8);
        let lo = p.constant(0xCD, Width::W8);
        let c = p.concat(hi, lo);
        assert_eq!(p.const_value(c), Some(0xABCD));
        assert_eq!(p.width(c), Width::W16);
    }

    #[test]
    fn commutative_canonicalization_shares_terms() {
        let mut p = TermPool::new();
        let x = p.var("x", Width::W32);
        let y = p.var("y", Width::W32);
        assert_eq!(p.add(x, y), p.add(y, x));
        assert_eq!(p.and(x, y), p.and(y, x));
        assert_eq!(p.eq(x, y), p.eq(y, x));
    }

    #[test]
    fn display_is_readable() {
        let mut p = TermPool::new();
        let x = p.var("x", Width::W8);
        let one = p.constant(1, Width::W8);
        let s = p.add(x, one);
        let e = p.eq(s, one);
        let text = p.display(e);
        assert!(text.contains('x'), "display: {text}");
        assert!(text.contains("=="), "display: {text}");
    }

    #[test]
    fn ops_created_counts_folded_calls() {
        let mut p = TermPool::new();
        let before = p.ops_created();
        let a = p.constant(1, Width::W8);
        let b = p.constant(2, Width::W8);
        let _ = p.add(a, b); // folds to a constant, still counted
        assert!(p.ops_created() > before);
    }

    #[test]
    fn supports_track_free_variables() {
        let mut p = TermPool::new();
        let x = p.var("x", Width::W32);
        let y = p.var("y", Width::W32);
        let z = p.var("z", Width::W32);
        let k = p.constant(7, Width::W32);

        assert!(p.support(k).is_empty());
        assert_eq!(p.support(x).len(), 1);

        let xy = p.add(x, y);
        assert_eq!(p.support(xy).len(), 2);
        assert!(p.support(xy).intersects(p.support(x)));
        assert!(p.support(xy).intersects(p.support(y)));
        assert!(!p.support(xy).intersects(p.support(z)));

        // Supports survive structural rewrites: x + y - y folds back to x.
        let back = p.sub(xy, y);
        assert!(p.support(back).intersects(p.support(x)));

        let cond = p.eq(x, k);
        let ite = p.ite(cond, y, z);
        assert_eq!(p.support(ite).len(), 3);
    }

    #[test]
    fn support_falls_back_to_sets_past_128_variables() {
        let mut p = TermPool::new();
        let first = p.var("v0", Width::W8);
        let vars: Vec<TermId> = (1..=130)
            .map(|i| p.var(&format!("v{i}"), Width::W8))
            .collect();
        let late = vars[vars.len() - 1]; // ordinal 130: needs the Set form
        assert!(matches!(p.support(late), Support::Set(_)));
        let mixed = p.add(first, late);
        assert_eq!(p.support(mixed).len(), 2);
        assert!(p.support(mixed).intersects(p.support(first)));
        assert!(p.support(mixed).intersects(p.support(late)));
        assert!(!p.support(late).intersects(p.support(first)));
        // Set–set intersection across two large unions.
        let a = p.add(vars[128], vars[129]);
        let b = p.add(vars[129], first);
        assert!(p.support(a).intersects(p.support(b)));
        // v129 is shared between the two unions.
        assert_eq!(p.support(a).union(p.support(b)).len(), 3);
    }
}
