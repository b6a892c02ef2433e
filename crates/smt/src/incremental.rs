//! Per-path incremental solving: a retained bit-blast + CDCL context.
//!
//! Along one exploration path the constraint set only grows: every
//! `decide()` pushes a conjunct, and every fork probe asks about the same
//! prefix plus one fresh condition. The layered solver answers most of
//! those probes above the SAT core; this module makes the ones that *do*
//! reach the core cheap as well. A [`SolverCtx`] keeps the path prefix
//! bit-blasted, Tseitin-encoded and asserted in a single [`SatSolver`]
//! whose learned clauses, variable activities and saved phases persist,
//! and decides each probe as one assumption solve on top
//! ([`SatSolver::solve_with_assumptions`]). New conjuncts append — the
//! AIG, the node→variable map and the clause database never rebuild.
//!
//! # Determinism
//!
//! An assumption solve's model depends on the solver's accumulated
//! history (activities, phases, learned clauses), so it is *not* the
//! canonical model the deterministic one-shot core would produce. The
//! context is therefore only ever used for verdicts
//! ([`Solver::check_feasible`](crate::Solver::check_feasible)), where
//! SAT/UNSAT is unique and hence history-independent; nothing a context
//! computes is written to any cache except UNSAT verdicts, which are
//! canonical facts. Model-producing queries keep using the fresh
//! deterministic core, so reports stay byte-identical whether the
//! incremental layer is on or off.
//!
//! # Narrowing and cubes
//!
//! Because a context only returns verdicts, it may also solve an
//! equisatisfiable formula instead of the literal one. Two steps do so:
//!
//! - **Narrowing.** Before new prefix conjuncts are blasted, their
//!   unsigned upper bounds on variables (`x ≤ c`, `x < c`, `¬(c < x)`,
//!   `¬(c ≤ x)`) are read off, and each bounded variable this context
//!   has not blasted yet gets constant-false bits above the bound's bit
//!   length. The bound stays asserted, so no model is lost. Only the
//!   prefix is read: the focus is merely assumed.
//! - **Cubes.** An assumption solve that runs past `CUBE_BUDGET`
//!   (5,000) conflicts is split on the live bits of the focus cone's
//!   narrowed *index variables*: those compared for equality against at
//!   least two distinct constants, the shape of a symbolic array index.
//!   Every value of those bits is one assumption solve, and the probe is
//!   SAT exactly when some cube is.
//!
//! Both change only conflicts and time, never a verdict.

use crate::aig::AigLit;
use crate::blast::{children, Blaster};
use crate::cnf;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::sat::{Lit, SatSolver, SatStats, Var};
use crate::term::{Term, TermId, TermPool};

/// Conflicts one assumption solve may spend before it is split into cubes.
/// Lower budgets also cube queries that would finish unsplit just past
/// them, which costs more than it saves.
const CUBE_BUDGET: u64 = 5_000;

/// Most bits one cube split fixes: at most 2^12 = 4,096 cubes.
const MAX_CUBE_BITS: usize = 12;

/// Counters for the incremental per-path solving layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Fresh per-path solver contexts created.
    pub contexts: u64,
    /// Probes decided by an assumption solve in a retained context.
    pub assumption_solves: u64,
    /// Learnt clauses alive at the start of each assumption solve, summed
    /// across solves — a proxy for how much learned work carried over.
    pub clauses_retained: u64,
    /// CDCL restarts performed inside retained contexts.
    pub restarts: u64,
    /// Variable bits blasted as constant false because an asserted prefix
    /// conjunct bounds the variable below them.
    pub narrowed_bits: u64,
    /// Assumption solves that ran past the cube budget (5,000 conflicts)
    /// and were split into cubes.
    pub cube_escalations: u64,
    /// Cube solves those escalations ran.
    pub cubes: u64,
}

impl IncrementalStats {
    /// Merges `other` into `self` (summing all counters).
    pub fn merge(&mut self, other: &IncrementalStats) {
        self.contexts += other.contexts;
        self.assumption_solves += other.assumption_solves;
        self.clauses_retained += other.clauses_retained;
        self.restarts += other.restarts;
        self.narrowed_bits += other.narrowed_bits;
        self.cube_escalations += other.cube_escalations;
        self.cubes += other.cubes;
    }
}

/// A retained incremental solving context for one path's constraint
/// prefix.
///
/// The context is append-only: [`extend_prefix`](SolverCtx::extend_prefix)
/// asserts newly pushed conjuncts on top of everything already loaded, and
/// [`solve_assuming`](SolverCtx::solve_assuming) decides the prefix plus
/// one focus condition without asserting the focus — so a probe on `¬c`
/// never poisons the context for a later prefix that contains `c`.
///
/// A context is bound to the [`TermPool`] it was created against
/// ([`TermPool::pool_id`]): [`TermId`]s are dense indices with no pool tag,
/// and the blaster memoizes per id, so ids minted by another pool must be
/// rejected rather than silently resolved to the wrong term.
#[derive(Debug)]
pub struct SolverCtx {
    blaster: Blaster,
    sat: SatSolver,
    node_var: FxHashMap<u32, Var>,
    /// Sorted fingerprints of the conjuncts asserted so far.
    loaded: Vec<u128>,
    pool_id: u64,
    /// Set when asserting the prefix itself conflicted at the root level;
    /// the caller falls back to the fresh deterministic core.
    failed: bool,
    /// Narrowing and cube counters not yet collected by
    /// [`take_stats`](SolverCtx::take_stats).
    stats: IncrementalStats,
}

impl SolverCtx {
    /// Creates an empty context bound to `pool`.
    pub fn new(pool: &TermPool) -> SolverCtx {
        SolverCtx {
            blaster: Blaster::new(),
            sat: SatSolver::new(),
            node_var: FxHashMap::default(),
            loaded: Vec::new(),
            pool_id: pool.pool_id(),
            failed: false,
            stats: IncrementalStats::default(),
        }
    }

    /// Whether this context can serve a probe whose base prefix has the
    /// given sorted fingerprints: same pool, not failed, and everything
    /// already asserted is still part of the prefix (constraint sets only
    /// grow along a path; anything else needs a fresh context).
    pub fn compatible(&self, pool: &TermPool, base_fps: &[u128]) -> bool {
        !self.failed && self.pool_id == pool.pool_id() && is_sorted_subset(&self.loaded, base_fps)
    }

    /// Asserts every not-yet-loaded conjunct of `base` (canonicalized
    /// `(fingerprint, id)` entries, sorted by fingerprint) as a unit on
    /// top of the retained clause database, narrowing the variables they
    /// bound first.
    ///
    /// Only call when [`compatible`](SolverCtx::compatible) holds for the
    /// base's fingerprints.
    pub fn extend_prefix(&mut self, pool: &TermPool, base: &[(u128, TermId)]) {
        debug_assert!(self.compatible(pool, &base.iter().map(|&(fp, _)| fp).collect::<Vec<_>>()));
        let fresh: Vec<TermId> = base
            .iter()
            .filter(|&(fp, _)| self.loaded.binary_search(fp).is_err())
            .map(|&(_, id)| id)
            .collect();
        self.narrow_bounded(pool, &fresh);
        for id in fresh {
            let bits = self.blaster.blast(pool, id);
            debug_assert_eq!(bits.len(), 1, "prefix conjuncts are boolean");
            if !cnf::assert_roots(
                self.blaster.aig(),
                &[bits[0]],
                &mut self.sat,
                &mut self.node_var,
            ) {
                // A feasible-by-construction prefix cannot conflict; if it
                // somehow does, poison the context instead of guessing.
                self.failed = true;
                return;
            }
        }
        self.loaded = base.iter().map(|&(fp, _)| fp).collect();
    }

    /// Narrows every variable that one of the new prefix `conjuncts`
    /// bounds from above, unless this context has blasted it already: its
    /// bits above the tightest bound's bit length become constant false.
    fn narrow_bounded(&mut self, pool: &TermPool, conjuncts: &[TermId]) {
        let mut bounds: Vec<(TermId, u64)> = conjuncts
            .iter()
            .filter_map(|&c| upper_bound(pool, c))
            .collect();
        // Sorted by variable, then bound: the first entry is the tightest.
        bounds.sort_unstable();
        bounds.dedup_by_key(|&mut (var, _)| var);
        for (var, max) in bounds {
            let width = pool.width(var).bits();
            let live = u64::BITS - max.leading_zeros();
            if live < width && !self.blaster.is_blasted(var) {
                self.blaster.narrow(var, live);
                self.stats.narrowed_bits += u64::from(width - live);
            }
        }
    }

    /// Decides `prefix ∪ {focus}` with the focus posted as an assumption.
    /// Returns `None` when the context cannot answer (poisoned prefix or
    /// an inconsistent clause database) and the caller should fall back to
    /// a fresh solve.
    ///
    /// A solve that runs past the cube budget (5,000 conflicts) is split
    /// into cubes on the focus cone's narrowed index variables, or
    /// continues unbudgeted when the cone has none.
    pub fn solve_assuming(&mut self, pool: &TermPool, focus: TermId) -> Option<bool> {
        self.solve_budgeted(pool, focus, CUBE_BUDGET)
    }

    /// [`solve_assuming`](SolverCtx::solve_assuming) with `budget`
    /// conflicts before the cube split.
    pub(crate) fn solve_budgeted(
        &mut self,
        pool: &TermPool,
        focus: TermId,
        budget: u64,
    ) -> Option<bool> {
        if self.failed || !self.sat.is_ok() {
            return None;
        }
        let bits = self.blaster.blast(pool, focus);
        debug_assert_eq!(bits.len(), 1, "focus must be boolean");
        let root = bits[0];
        if root == AigLit::TRUE {
            // AIG simplification proved the focus; the prefix is feasible
            // by the caller's precondition.
            return Some(true);
        }
        if root == AigLit::FALSE {
            return Some(false);
        }
        let lit = cnf::encode_lit(self.blaster.aig(), root, &mut self.sat, &mut self.node_var);
        if let Some(verdict) = self.sat.solve_limited(&[lit], budget) {
            return Some(verdict);
        }
        let cube_bits = self.cube_bits(pool, focus);
        if cube_bits.is_empty() {
            return Some(self.sat.solve_with_assumptions(&[lit]));
        }
        self.stats.cube_escalations += 1;
        Some(self.solve_cubes(lit, &cube_bits))
    }

    /// The bits an escalated solve on `focus` splits on: the live input
    /// bits of the narrowed variables that the focus cone compares for
    /// equality against at least two distinct constants. Variables rank by
    /// distinct-constant count, then by name, and are taken whole while
    /// they fit in [`MAX_CUBE_BITS`].
    fn cube_bits(&mut self, pool: &TermPool, focus: TermId) -> Vec<Lit> {
        // Each narrowed variable's live bit count and compared constants.
        let mut constants: FxHashMap<TermId, (usize, Vec<u64>)> = FxHashMap::default();
        let mut visited: FxHashSet<TermId> = FxHashSet::default();
        let mut stack = vec![focus];
        while let Some(t) = stack.pop() {
            if !visited.insert(t) {
                continue;
            }
            let term = pool.term(t);
            if let Term::Eq(a, b) = *term {
                let compared = match (pool.const_value(a), pool.const_value(b)) {
                    (None, Some(k)) => Some((a, k)),
                    (Some(k), None) => Some((b, k)),
                    _ => None,
                };
                if let Some((var, k)) = compared {
                    if let Some(live) = self.blaster.narrowed(var) {
                        let entry = constants.entry(var).or_insert((live as usize, Vec::new()));
                        entry.1.push(k);
                    }
                }
            }
            stack.extend(children(term));
        }
        let mut ranked: Vec<(usize, &str, TermId, usize)> = constants
            .into_iter()
            .filter_map(|(var, (live, mut ks))| {
                ks.sort_unstable();
                ks.dedup();
                let Term::Var { name, .. } = pool.term(var) else {
                    unreachable!("only variables are narrowed")
                };
                (ks.len() >= 2).then_some((ks.len(), &**name, var, live))
            })
            .collect();
        ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
        let mut bits = Vec::new();
        for (_, _, var, live) in ranked {
            if live == 0 || bits.len() + live > MAX_CUBE_BITS {
                continue;
            }
            let inputs = self.blaster.blast(pool, var);
            for &input in &inputs[..live] {
                bits.push(cnf::encode_lit(
                    self.blaster.aig(),
                    input,
                    &mut self.sat,
                    &mut self.node_var,
                ));
            }
        }
        bits
    }

    /// Decides the assumed `focus` as the disjunction of one assumption
    /// solve per value of `bits`, in increasing binary order (bit `k` of
    /// the cube index is the value of `bits[k]`). The assumptions list the
    /// focus and then the bits from the slowest-changing down, so each
    /// solve keeps the trail of the prefix it shares with the one before.
    fn solve_cubes(&mut self, focus: Lit, bits: &[Lit]) -> bool {
        let n = bits.len();
        let mut assumptions = vec![focus; n + 1];
        for cube in 0u32..1 << n {
            for (k, &bit) in bits.iter().enumerate() {
                assumptions[n - k] = Lit::new(bit.var(), cube >> k & 1 == 0);
            }
            self.stats.cubes += 1;
            if self.sat.solve_sharing_prefix(&assumptions) {
                return true;
            }
        }
        false
    }

    /// The narrowing and cube counters gathered since the last call.
    pub(crate) fn take_stats(&mut self) -> IncrementalStats {
        std::mem::take(&mut self.stats)
    }

    /// Number of learnt clauses currently alive in the retained database.
    pub fn learnt_alive(&self) -> usize {
        self.sat.num_learnt()
    }

    /// The retained SAT core's cumulative counters.
    pub fn sat_stats(&self) -> SatStats {
        self.sat.stats()
    }
}

/// `(x, c)` when `conjunct` states `x ≤ c` for a variable `x`: one of
/// `x ≤ c`, `x < c + 1`, `¬(c < x)` or `¬(c + 1 ≤ x)`.
fn upper_bound(pool: &TermPool, conjunct: TermId) -> Option<(TermId, u64)> {
    let (negated, atom) = match *pool.term(conjunct) {
        Term::Not(inner) => (true, inner),
        _ => (false, conjunct),
    };
    let (lhs, rhs, strict) = match *pool.term(atom) {
        Term::Ule(a, b) => (a, b, false),
        Term::Ult(a, b) => (a, b, true),
        _ => return None,
    };
    // ¬(c < x) is x ≤ c, and ¬(c ≤ x) is x < c.
    let (var, bound, strict) = if negated {
        (rhs, lhs, !strict)
    } else {
        (lhs, rhs, strict)
    };
    if !matches!(pool.term(var), Term::Var { .. }) {
        return None;
    }
    let c = pool.const_value(bound)?;
    if strict {
        c.checked_sub(1).map(|max| (var, max))
    } else {
        Some((var, c))
    }
}

/// Whether sorted `a` is a subset of sorted `b` (two-pointer merge walk).
fn is_sorted_subset(a: &[u128], b: &[u128]) -> bool {
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Width;
    use crate::Solver;

    fn canon(pool: &TermPool, cs: &[TermId]) -> Vec<(u128, TermId)> {
        let mut entries: Vec<(u128, TermId)> =
            cs.iter().map(|&c| (pool.fingerprint(c), c)).collect();
        entries.sort_unstable_by_key(|&(fp, _)| fp);
        entries.dedup_by_key(|&mut (fp, _)| fp);
        entries
    }

    #[test]
    fn sorted_subset_walk() {
        assert!(is_sorted_subset(&[], &[]));
        assert!(is_sorted_subset(&[], &[1]));
        assert!(is_sorted_subset(&[2], &[1, 2, 3]));
        assert!(is_sorted_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_sorted_subset(&[4], &[1, 2, 3]));
        assert!(!is_sorted_subset(&[1, 2], &[2, 3]));
        assert!(!is_sorted_subset(&[1], &[]));
    }

    #[test]
    fn growing_prefix_reuses_the_context() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let ten = pool.constant(10, Width::W8);
        let five = pool.constant(5, Width::W8);
        let three = pool.constant(3, Width::W8);
        let seven = pool.constant(7, Width::W8);
        let c1 = pool.ult(x, ten);
        let c2 = pool.ult(x, five);
        let eq3 = pool.eq(x, three);
        let eq7 = pool.eq(x, seven);

        let mut ctx = SolverCtx::new(&pool);
        let base1 = canon(&pool, &[c1]);
        ctx.extend_prefix(&pool, &base1);
        assert_eq!(ctx.solve_assuming(&pool, eq3), Some(true));
        assert_eq!(ctx.solve_assuming(&pool, eq7), Some(true));

        // Grow the prefix: x < 5 joins. The old load stays valid.
        let base2 = canon(&pool, &[c1, c2]);
        assert!(ctx.compatible(&pool, &base2.iter().map(|&(fp, _)| fp).collect::<Vec<_>>()));
        ctx.extend_prefix(&pool, &base2);
        assert_eq!(ctx.solve_assuming(&pool, eq3), Some(true));
        assert_eq!(ctx.solve_assuming(&pool, eq7), Some(false), "x < 5 now");
        // And a failed assumption must not poison later probes.
        assert_eq!(ctx.solve_assuming(&pool, eq3), Some(true));
    }

    #[test]
    fn shrunk_prefix_is_incompatible() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let k = pool.constant(9, Width::W8);
        let c = pool.ult(x, k);
        let mut ctx = SolverCtx::new(&pool);
        ctx.extend_prefix(&pool, &canon(&pool, &[c]));
        assert!(!ctx.compatible(&pool, &[]), "loaded ⊄ empty prefix");
    }

    #[test]
    fn foreign_pool_is_rejected() {
        let mut pool_a = TermPool::new();
        let x = pool_a.var("x", Width::W8);
        let k = pool_a.constant(3, Width::W8);
        let c = pool_a.ult(x, k);
        let entries = canon(&pool_a, &[c]);
        let fps: Vec<u128> = entries.iter().map(|&(fp, _)| fp).collect();

        let ctx = SolverCtx::new(&pool_a);
        assert!(ctx.compatible(&pool_a, &fps));
        let pool_b = pool_a.clone(); // fresh identity by design
        assert!(!ctx.compatible(&pool_b, &fps));
    }

    /// `base ∧ focus` decided afresh by a cache-less flat solver.
    fn fresh_verdict(pool: &TermPool, base: &[TermId], focus: TermId) -> bool {
        let mut all = base.to_vec();
        all.push(focus);
        Solver::without_cache()
            .with_incremental(false)
            .check(pool, &all)
            .is_sat()
    }

    /// `x ≤ max` in one of the four bound forms the context reads.
    fn upper(pool: &mut TermPool, x: TermId, max: u64, form: usize) -> TermId {
        let w = pool.width(x);
        match form {
            0 => {
                let c = pool.constant(max, w);
                pool.ule(x, c)
            }
            1 => {
                let c = pool.constant(max + 1, w);
                pool.ult(x, c)
            }
            2 => {
                let c = pool.constant(max, w);
                let above = pool.ult(c, x);
                pool.not(above)
            }
            _ => {
                let c = pool.constant(max + 1, w);
                let at_least = pool.ule(c, x);
                pool.not(at_least)
            }
        }
    }

    #[test]
    fn upper_bounds_are_read_in_all_four_forms() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W32);
        for form in 0..4 {
            let c = upper(&mut pool, x, 20, form);
            assert_eq!(upper_bound(&pool, c), Some((x, 20)), "form {form}");
        }
        // Lower bounds and bounds on non-variables are not upper bounds.
        let k = pool.constant(20, Width::W32);
        let lower = pool.ule(k, x);
        let strict_lower = pool.ult(k, x);
        let one = pool.constant(1, Width::W32);
        let sum = pool.add(x, one);
        let on_sum = pool.ule(sum, k);
        for c in [lower, strict_lower, on_sum] {
            assert_eq!(upper_bound(&pool, c), None, "{}", pool.display(c));
        }
    }

    #[test]
    fn cubed_symbolic_array_chains_match_fresh_solves() {
        // `SymArray` shapes: a store at symbolic `i` and a select at
        // symbolic `j` over n entries, with both indices bounded to
        // n - 1 by prefix conjuncts pushed first. A zero budget cubes
        // every probe whose cone holds the index chains.
        for n in [8u64, 12, 16] {
            for form in 0..4 {
                let mut pool = TermPool::new();
                let w = Width::W32;
                let i = pool.var("i", w);
                let j = pool.var("j", w);
                let v = pool.var("v", w);
                let bound_i = upper(&mut pool, i, n - 1, form);
                let bound_j = upper(&mut pool, j, n - 1, (form + 1) % 4);
                let base = vec![bound_i, bound_j];

                let mut entries: Vec<TermId> = (0..n).map(|k| pool.constant(3 * k, w)).collect();
                for (k, entry) in entries.iter_mut().enumerate() {
                    let kc = pool.constant(k as u64, w);
                    let here = pool.eq(i, kc);
                    *entry = pool.ite(here, v, *entry);
                }
                let mut read = pool.constant(0, w);
                for (k, &entry) in entries.iter().enumerate() {
                    let kc = pool.constant(k as u64, w);
                    let here = pool.eq(j, kc);
                    read = pool.ite(here, entry, read);
                }

                let same = pool.eq(i, j);
                let reads_v = pool.eq(read, v);
                let misses_v = pool.ne(read, v);
                let zero = pool.constant(0, w);
                let last = pool.constant(n - 1, w);
                let past = pool.constant(n, w);
                let top = pool.constant(3 * (n - 1), w);
                let big = pool.constant(1 << 20, w);
                let v_big = pool.eq(v, big);
                // Cubed, and SAT in only the first cube or (for n a power
                // of two) only in the last.
                let i_zero = pool.eq(i, zero);
                let j_last = pool.eq(j, last);
                let first_cube = pool.and(same, i_zero);
                let last_cube = pool.and(same, j_last);
                let probes = [
                    pool.and(reads_v, first_cube),
                    pool.and(reads_v, last_cube),
                    pool.and(same, reads_v),
                    pool.and(same, misses_v),
                    pool.eq(read, top),
                    pool.ugt(read, big),
                    pool.and(reads_v, v_big),
                    pool.slt(i, zero),
                    pool.sle(last, j),
                    pool.eq(j, past),
                    pool.slt(read, zero),
                ];

                let mut ctx = SolverCtx::new(&pool);
                ctx.extend_prefix(&pool, &canon(&pool, &base));
                for &probe in &probes {
                    assert_eq!(
                        ctx.solve_budgeted(&pool, probe, 0),
                        Some(fresh_verdict(&pool, &base, probe)),
                        "n = {n}, form {form}: {}",
                        pool.display(probe)
                    );
                }
                let stats = ctx.take_stats();
                let live = u64::from(u64::BITS - (n - 1).leading_zeros());
                assert_eq!(stats.narrowed_bits, 2 * (32 - live), "n = {n}");
                assert!(stats.cube_escalations >= 4, "n = {n}: {stats:?}");
                assert!(stats.cubes >= 1 << (2 * live), "n = {n}: {stats:?}");
            }
        }
    }

    #[test]
    fn a_bound_after_its_variable_was_blasted_narrows_nothing() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W32);
        let five = pool.constant(5, Width::W32);
        let not_five = pool.ne(x, five);
        let bound = upper(&mut pool, x, 10, 0);
        let seven = pool.constant(7, Width::W32);
        let big = pool.constant(200, Width::W32);
        let is_seven = pool.eq(x, seven);
        let is_big = pool.eq(x, big);

        // Blasted by an earlier prefix conjunct.
        let mut ctx = SolverCtx::new(&pool);
        ctx.extend_prefix(&pool, &canon(&pool, &[not_five]));
        ctx.extend_prefix(&pool, &canon(&pool, &[not_five, bound]));
        // Blasted by an earlier probe.
        let mut probed = SolverCtx::new(&pool);
        assert_eq!(probed.solve_budgeted(&pool, is_seven, 0), Some(true));
        probed.extend_prefix(&pool, &canon(&pool, &[not_five, bound]));

        let base = [not_five, bound];
        for ctx in [&mut ctx, &mut probed] {
            assert_eq!(ctx.take_stats().narrowed_bits, 0);
            for probe in [is_seven, is_big] {
                assert_eq!(
                    ctx.solve_budgeted(&pool, probe, 0),
                    Some(fresh_verdict(&pool, &base, probe))
                );
            }
        }
    }

    #[test]
    fn a_bound_in_the_focus_never_narrows() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W32);
        let y = pool.var("y", Width::W32);
        let unrelated = upper(&mut pool, y, 3, 0);
        let small = upper(&mut pool, x, 3, 0);
        let big = pool.constant(200, Width::W32);
        let is_big = pool.eq(x, big);

        let mut ctx = SolverCtx::new(&pool);
        ctx.extend_prefix(&pool, &canon(&pool, &[unrelated]));
        assert_eq!(ctx.take_stats().narrowed_bits, 30, "only y narrows");
        assert_eq!(ctx.solve_budgeted(&pool, small, 0), Some(true));
        assert_eq!(
            ctx.solve_budgeted(&pool, is_big, 0),
            Some(true),
            "the probe on x <= 3 was only assumed"
        );
        assert_eq!(ctx.take_stats().narrowed_bits, 0);
    }
}
