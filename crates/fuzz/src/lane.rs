//! The three differential lanes behind one enum: one testbench
//! constructor, one slot decoder and one decode-and-trace.
//!
//! Every lane's testbench is an ordinary symbolic testbench closure — the
//! same shape as the paper's T1–T5 — and is executed in three modes
//! without any code change:
//!
//! * **concolic trace** (`Explorer::trace`): the fuzzer's execution mode.
//!   Inputs stay symbolic terms, every `decide` is evaluated under the
//!   fuzz input's variable assignment, and the `(fork-site fingerprint,
//!   direction)` pairs recorded are *identical* to the ones full symbolic
//!   exploration would record on the same path. That is what makes fuzz
//!   coverage and symbolic branch coverage directly comparable.
//! * **full exploration** (`Explorer::explore`): used by the seed
//!   exchange to harvest counterexample models as fuzz seeds.
//! * **replay** (`Explorer::replay`): used to confirm fuzz findings.
//!
//! All lanes read the byte grammar of [`Program`]: 6-byte slots, each
//! decoded by `decode_slot` into the variables `op{i}_kind`, `op{i}_a`
//! and `op{i}_b`. Every operand is interpreted modulo its arm-specific
//! range, so any byte string is a valid stimulus. Concrete values are
//! pinned with the *enumerate* idiom (a `decide` equality chain over the
//! reduced term): in trace mode the chain evaluates; under exploration it
//! forks — either way the same term structure, hence the same fork-site
//! fingerprints.

use symsc_plic::PlicConfig;
use symsc_symex::{Explorer, Report, SymCtx, SymWord, Width};

use crate::grammar::Program;

/// A differential lane: which model runs the decoded slots, against
/// which oracle. The set is closed, and each lane's
/// [`InputRunner`](crate::engine::InputRunner) is a plain `fn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// The TLM model against the concrete [`ReferencePlic`] oracle
    /// ([`crate::harness`]).
    ///
    /// [`ReferencePlic`]: symsc_plic::reference::ReferencePlic
    Tlm,
    /// The cycle-level model against the fixed TLM oracle
    /// ([`crate::cycle`]); the configuration's mutation rides the
    /// cycle-level side.
    Cross,
    /// The service driver on the TLM-backed SoC against the golden
    /// machine ([`crate::firmware`]); the slots are environment
    /// schedules.
    Firmware,
}

impl Lane {
    /// The lane's differential testbench with per-slot pinning (see
    /// [`OpPin`]): one slot per pin.
    pub fn bench(
        self,
        config: PlicConfig,
        pins: Vec<OpPin>,
    ) -> impl Fn(&SymCtx) + Send + Sync + 'static {
        move |ctx: &SymCtx| match self {
            Lane::Tlm => crate::harness::run_program(ctx, config, &pins),
            Lane::Cross => crate::cycle::run_cycle_program(ctx, config, &pins),
            Lane::Firmware => crate::firmware::run_schedule(ctx, config, &pins),
        }
    }

    /// Decodes `bytes` and executes the program as a concolic trace of
    /// the lane's testbench over fully symbolic slots (zero solver
    /// queries).
    pub fn trace(self, config: PlicConfig, bytes: &[u8]) -> Report {
        let program = Program::decode(bytes);
        Explorer::new().trace(
            &program.to_assignment(),
            self.bench(config, vec![OpPin::free(); program.len()]),
        )
    }
}

/// Per-slot constraints: `Some` pins the variable to a concrete value
/// with an `assume`, `None` leaves it fully symbolic. Used by the seed
/// exchange to carve tractable scenario slices out of the full program
/// space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpPin {
    /// Pin the operation selector.
    pub kind: Option<u8>,
    /// Pin the primary operand.
    pub a: Option<u32>,
    /// Pin the secondary operand.
    pub b: Option<u8>,
}

impl OpPin {
    /// A fully symbolic slot.
    pub fn free() -> OpPin {
        OpPin::default()
    }

    /// A slot with the operation selector pinned and both operands free.
    pub fn kind(kind: u32) -> OpPin {
        OpPin {
            kind: Some(kind as u8),
            ..OpPin::default()
        }
    }

    /// A fully pinned slot.
    pub fn fixed(kind: u32, a: u32, b: u8) -> OpPin {
        OpPin {
            kind: Some(kind as u8),
            a: Some(a),
            b: Some(b),
        }
    }
}

/// Declares slot `i`'s variables `op{i}_kind`, `op{i}_a` and `op{i}_b`,
/// in that order, and assumes `pin`. Returns the selector reduced modulo
/// `kinds` with [`pin_mod`], then the `a` (32-bit) and `b` (8-bit)
/// operand terms.
pub(crate) fn decode_slot(
    ctx: &SymCtx,
    i: usize,
    pin: &OpPin,
    kinds: u8,
) -> (u32, SymWord, SymWord) {
    let kind_w = ctx.symbolic(&format!("op{i}_kind"), Width::W8);
    let a = ctx.symbolic(&format!("op{i}_a"), Width::W32);
    let b = ctx.symbolic(&format!("op{i}_b"), Width::W8);
    if let Some(k) = pin.kind {
        ctx.assume(&kind_w.eq(&ctx.word(u64::from(k), Width::W8)));
    }
    if let Some(v) = pin.a {
        ctx.assume(&a.eq(&ctx.word32(v)));
    }
    if let Some(v) = pin.b {
        ctx.assume(&b.eq(&ctx.word(u64::from(v), Width::W8)));
    }
    let (_, kind) = pin_mod(ctx, &kind_w.zero_ext(Width::W32), u32::from(kinds));
    (kind, a, b)
}

/// Reduces `w` modulo `range` and pins a concrete value with an
/// enumerate chain. Returns the *term* (for the model) and the *value*
/// (for the oracle); on any single path the two agree.
pub(crate) fn pin_mod(ctx: &SymCtx, w: &SymWord, range: u32) -> (SymWord, u32) {
    debug_assert!(range >= 1);
    let m = w.urem(&ctx.word32(range));
    for k in 0..range.saturating_sub(1) {
        if ctx.decide(&m.eq(&ctx.word32(k))) {
            return (m, k);
        }
    }
    (m, range - 1)
}
