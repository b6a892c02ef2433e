//! A CDCL SAT solver in the MiniSat tradition.
//!
//! Features: two-watched-literal propagation, VSIDS variable ordering with
//! an indexed binary heap, first-UIP conflict analysis with cheap clause
//! minimization, phase saving, Luby-sequence restarts and activity-based
//! learnt-clause database reduction.
//!
//! The solver is incremental in the MiniSat style: clauses may be added
//! between solves, and [`SatSolver::solve_with_assumptions`] decides the
//! formula under a set of assumption literals posted as pseudo-decisions.
//! Learned clauses, variable activities and saved phases all survive from
//! one call to the next, which matches the workload of re-execution based
//! symbolic exploration: along one path the constraint set only grows, so
//! the conjuncts seen so far can stay asserted while each fork probe is a
//! single assumption on top.
//!
//! # Storage
//!
//! Every clause lives in one flat arena of `u32` words: a [`HEADER`] of
//! three words (length and flags, then the `f64` activity as two words)
//! followed by the literal codes. Watchers and reasons name a clause by
//! its arena offset. A watcher of a binary clause carries the [`BINARY`]
//! tag and the clause's other literal as its blocker, so a binary
//! implication never reads the arena. Literal values are a byte per
//! literal code. After each learnt-database reduction the deleted clauses'
//! watchers are dropped and the arena is compacted.
//!
//! The layout does not steer the search: the same formula and calls give
//! the same decisions, propagations, conflicts, learnt clauses and models
//! as a clause-per-allocation layout would (`tests/sat_trajectory.rs` pins
//! this). Models are part of the explorer's reports, so this is what keeps
//! them canonical.

use std::fmt;

/// A propositional variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// The variable's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable with a polarity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Builds a literal from a variable; `negated` selects polarity.
    pub fn new(var: Var, negated: bool) -> Lit {
        Lit(var.0 << 1 | u32::from(negated))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is the negative polarity.
    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negated() {
            write!(f, "¬v{}", self.0 >> 1)
        } else {
            write!(f, "v{}", self.0 >> 1)
        }
    }
}

/// Literal values, indexed by literal code.
const L_FALSE: u8 = 0;
const L_TRUE: u8 = 1;
const L_UNDEF: u8 = 2;

/// An arena offset of a clause header.
type CRef = u32;

const NO_REASON: CRef = u32::MAX;

/// Header words before a clause's literals: `len << 2 | flags`, then the
/// activity's low and high words.
const HEADER: usize = 3;
const LEARNT: u32 = 1;
const DELETED: u32 = 2;

/// Watcher tag: the clause is binary and the blocker is its other literal.
/// Arena offsets stay below it.
const BINARY: u32 = 1 << 31;

#[derive(Clone, Copy, Debug)]
struct Watcher {
    /// Arena offset, tagged with [`BINARY`] for two-literal clauses.
    cref: u32,
    blocker: Lit,
}

/// Cumulative solver counters, useful for benchmark reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of clauses learnt.
    pub learnt_clauses: u64,
}

/// The CDCL solver.
///
/// # Example
///
/// ```
/// use symsc_smt::sat::{Lit, SatSolver};
///
/// let mut s = SatSolver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// // (a | b) & (!a | b) & (!b | a)  =>  a = b = true
/// s.add_clause(&[Lit::new(a, false), Lit::new(b, false)]);
/// s.add_clause(&[Lit::new(a, true), Lit::new(b, false)]);
/// s.add_clause(&[Lit::new(b, true), Lit::new(a, false)]);
/// assert!(s.solve());
/// assert!(s.value(a) && s.value(b));
/// ```
#[derive(Debug)]
pub struct SatSolver {
    /// The clause arena (see the module docs).
    arena: Vec<u32>,
    /// Live learnt clauses, in creation order.
    learnts: Vec<CRef>,
    watches: Vec<Vec<Watcher>>,
    vals: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<CRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: Vec<u32>,
    heap_pos: Vec<i32>,
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    reduce_count: u64,
    stats: SatStats,
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const CLA_DECAY: f64 = 1.0 / 0.999;

impl Default for SatSolver {
    fn default() -> SatSolver {
        SatSolver::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> SatSolver {
        SatSolver {
            arena: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            vals: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            reduce_count: 0,
            stats: SatStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SatStats {
        self.stats
    }

    /// Number of learnt clauses currently alive in the database (survivors
    /// of [`reduce_db`](Self::reduce_db), not the cumulative count).
    pub fn num_learnt(&self) -> usize {
        self.learnts.len()
    }

    /// Whether the clause database is still consistent. Once a root-level
    /// conflict makes this `false`, every later solve returns `false`.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.level.len() as u32);
        self.vals.extend([L_UNDEF, L_UNDEF]);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_pos.push(-1);
        self.heap_insert(v.0);
        v
    }

    fn value_lit(&self, l: Lit) -> u8 {
        self.vals[l.code()]
    }

    /// The model value of `v` after a successful [`solve`](Self::solve).
    /// Unassigned (don't-care) variables read as `false`.
    pub fn value(&self, v: Var) -> bool {
        self.value_lit(Lit::new(v, false)) == L_TRUE
    }

    /// Adds a clause. Returns `false` if the formula became trivially
    /// unsatisfiable (empty clause or root-level conflict).
    ///
    /// May be called between solves: the solver first backtracks to the
    /// root level, so only level-0 assignments participate in the
    /// satisfied/false-literal filtering below.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.backtrack(0);
        if !self.ok {
            return false;
        }
        // Sort, dedupe, drop false literals, detect tautology / satisfied.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut filtered = Vec::with_capacity(c.len());
        for (i, &l) in c.iter().enumerate() {
            if i + 1 < c.len() && c[i + 1] == l.negated() {
                return true; // tautology: l and !l both present
            }
            match self.value_lit(l) {
                L_TRUE => return true, // satisfied at root level
                L_FALSE => {}          // drop
                _ => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(filtered[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(&filtered, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        debug_assert!(lits.len() >= 2);
        let start = self.arena.len();
        assert!(
            start + HEADER + lits.len() < BINARY as usize,
            "clause arena exceeds 2^31 words"
        );
        let cr = start as CRef;
        // Activity 0.0 is the all-zero bit pattern.
        self.arena.extend([
            (lits.len() as u32) << 2 | if learnt { LEARNT } else { 0 },
            0,
            0,
        ]);
        self.arena.extend(lits.iter().map(|l| l.0));
        let tag = if lits.len() == 2 { BINARY } else { 0 };
        self.watches[lits[0].code()].push(Watcher {
            cref: cr | tag,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watcher {
            cref: cr | tag,
            blocker: lits[0],
        });
        if learnt {
            self.learnts.push(cr);
            self.stats.learnt_clauses += 1;
        }
        cr
    }

    fn clause_len(&self, cr: CRef) -> usize {
        (self.arena[cr as usize] >> 2) as usize
    }

    fn clause_lits(&self, cr: CRef) -> &[u32] {
        let start = cr as usize + HEADER;
        &self.arena[start..start + self.clause_len(cr)]
    }

    fn clause_activity(&self, cr: CRef) -> f64 {
        let i = cr as usize;
        f64::from_bits(u64::from(self.arena[i + 1]) | u64::from(self.arena[i + 2]) << 32)
    }

    fn set_clause_activity(&mut self, cr: CRef, activity: f64) {
        let i = cr as usize;
        let bits = activity.to_bits();
        self.arena[i + 1] = bits as u32;
        self.arena[i + 2] = (bits >> 32) as u32;
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: CRef) {
        debug_assert_eq!(self.value_lit(l), L_UNDEF);
        let v = l.var().index();
        self.vals[l.code()] = L_TRUE;
        self.vals[l.code() ^ 1] = L_FALSE;
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation. Returns the offset of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<CRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negated();
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut kept = 0;
            let mut conflict = None;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Quick skip via blocker.
                let blocker_val = self.vals[w.blocker.code()];
                if blocker_val == L_TRUE {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                if w.cref & BINARY != 0 {
                    ws[kept] = w;
                    kept += 1;
                    let cr = w.cref & !BINARY;
                    if blocker_val == L_FALSE {
                        // Store the conflict as [other, false_lit]: analysis
                        // bumps variables in clause order.
                        let lits = cr as usize + HEADER;
                        self.arena[lits] = w.blocker.0;
                        self.arena[lits + 1] = false_lit.0;
                        conflict = Some(cr);
                        break;
                    }
                    self.unchecked_enqueue(w.blocker, cr);
                    continue;
                }
                let cr = w.cref as usize;
                debug_assert_eq!(self.arena[cr] & DELETED, 0);
                let lits = cr + HEADER;
                // Ensure the false literal is at position 1.
                if self.arena[lits] == false_lit.0 {
                    self.arena.swap(lits, lits + 1);
                }
                debug_assert_eq!(self.arena[lits + 1], false_lit.0);
                let first = Lit(self.arena[lits]);
                let watcher = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && self.vals[first.code()] == L_TRUE {
                    ws[kept] = watcher;
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let end = lits + (self.arena[cr] >> 2) as usize;
                if let Some(k) =
                    (lits + 2..end).find(|&k| self.vals[self.arena[k] as usize] != L_FALSE)
                {
                    self.arena.swap(lits + 1, k);
                    self.watches[self.arena[lits + 1] as usize].push(watcher);
                    continue;
                }
                // Clause is unit or conflicting; keep this watcher.
                ws[kept] = watcher;
                kept += 1;
                if self.vals[first.code()] == L_FALSE {
                    conflict = Some(w.cref);
                    break;
                }
                self.unchecked_enqueue(first, w.cref);
            }
            if conflict.is_some() {
                // Keep the remaining watchers and bail out.
                let rest = ws.len() - i;
                ws.copy_within(i.., kept);
                kept += rest;
                self.qhead = self.trail.len();
            }
            ws.truncate(kept);
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v] >= 0 {
            self.heap_sift_up(self.heap_pos[v] as usize);
        }
    }

    fn bump_clause(&mut self, cr: CRef) {
        let activity = self.clause_activity(cr) + self.cla_inc;
        self.set_clause_activity(cr, activity);
        if activity > 1e20 {
            // Every clause, original or learnt, carries an activity.
            let mut c = 0;
            while c < self.arena.len() {
                let rescaled = self.clause_activity(c as CRef) * 1e-20;
                self.set_clause_activity(c as CRef, rescaled);
                c += HEADER + self.clause_len(c as CRef);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: CRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot for the asserting literal
        let mut to_clear: Vec<usize> = Vec::new();
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let current = self.decision_level();

        loop {
            debug_assert_ne!(confl, NO_REASON);
            self.bump_clause(confl);
            // A reason clause's implied literal is the one resolved on. Long
            // clauses keep it at position 0; binary clauses are not reordered
            // on implication, so it is skipped by variable.
            let implied = p.map(|l| l.var().index());
            let start = confl as usize + HEADER;
            for k in start..start + self.clause_len(confl) {
                let q = Lit(self.arena[k]);
                let v = q.var().index();
                if Some(v) == implied {
                    continue;
                }
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v] >= current {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            while !self.seen[self.trail[index - 1].var().index()] {
                index -= 1;
            }
            index -= 1;
            let pl = self.trail[index];
            let v = pl.var().index();
            confl = self.reason[v];
            self.seen[v] = false;
            path_count -= 1;
            p = Some(pl);
            if path_count == 0 {
                break;
            }
        }
        learnt[0] = p.expect("asserting literal").negated();

        // Cheap clause minimization: drop literals implied by the rest.
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.literal_redundant(l))
            .collect();
        learnt.truncate(1);
        learnt.extend(keep);

        for v in to_clear {
            self.seen[v] = false;
        }
        // seen[] for removed/kept literals cleared above; the asserting
        // literal's variable was already cleared inside the loop.

        // Compute the backtrack level (second-highest level in the clause).
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt_level)
    }

    /// A literal is redundant if its reason clause is entirely made of
    /// seen literals (or root-level literals).
    fn literal_redundant(&self, l: Lit) -> bool {
        let v = l.var().index();
        let r = self.reason[v];
        if r == NO_REASON {
            return false;
        }
        self.clause_lits(r).iter().all(|&q| {
            let qv = Lit(q).var().index();
            qv == v || self.seen[qv] || self.level[qv] == 0
        })
    }

    fn backtrack(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.phase[v] = !l.is_negated();
            self.vals[l.code()] = L_UNDEF;
            self.vals[l.code() ^ 1] = L_UNDEF;
            self.reason[v] = NO_REASON;
            if self.heap_pos[v] < 0 {
                self.heap_insert(v as u32);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap_pop() {
            let lit = Lit::new(Var(v), !self.phase[v as usize]);
            if self.value_lit(lit) == L_UNDEF {
                return Some(lit);
            }
        }
        None
    }

    /// Whether `cr` is the reason of its first literal's current value.
    fn locked(&self, cr: CRef) -> bool {
        let lit0 = Lit(self.arena[cr as usize + HEADER]);
        self.reason[lit0.var().index()] == cr && self.value_lit(lit0) == L_TRUE
    }

    fn reduce_db(&mut self) {
        self.reduce_count += 1;
        // Candidates in creation order; the stable sort keeps that order
        // among equal activities.
        let mut candidates: Vec<(f64, CRef)> = self
            .learnts
            .iter()
            .filter(|&&cr| self.clause_len(cr) > 2)
            .map(|&cr| (self.clause_activity(cr), cr))
            .collect();
        candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let target = candidates.len() / 2;
        let mut removed = 0;
        for &(_, cr) in &candidates {
            if removed >= target {
                break;
            }
            if self.locked(cr) {
                continue;
            }
            self.arena[cr as usize] |= DELETED;
            removed += 1;
        }
        self.collect_garbage();
    }

    /// Drops the watchers of deleted clauses, compacts the arena and remaps
    /// every offset held in watchers, reasons and `learnts`.
    fn collect_garbage(&mut self) {
        let mut old = std::mem::take(&mut self.arena);
        // A stable filter: propagation visits watchers in list order.
        for ws in &mut self.watches {
            ws.retain(|w| w.cref & BINARY != 0 || old[w.cref as usize] & DELETED == 0);
        }
        let mut live = 0;
        let mut c = 0;
        while c < old.len() {
            let len = HEADER + (old[c] >> 2) as usize;
            if old[c] & DELETED == 0 {
                live += len;
            }
            c += len;
        }
        let mut arena = Vec::with_capacity(live);
        let mut c = 0;
        while c < old.len() {
            let end = c + HEADER + (old[c] >> 2) as usize;
            if old[c] & DELETED == 0 {
                let to = arena.len() as CRef;
                arena.extend_from_slice(&old[c..end]);
                // The copied activity frees this word for the new offset.
                old[c + 1] = to;
            }
            c = end;
        }
        let moved = |cr: CRef| old[cr as usize + 1];
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                w.cref = moved(w.cref & !BINARY) | (w.cref & BINARY);
            }
        }
        for l in &self.trail {
            let v = l.var().index();
            if self.reason[v] != NO_REASON {
                debug_assert_eq!(old[self.reason[v] as usize] & DELETED, 0);
                self.reason[v] = moved(self.reason[v]);
            }
        }
        self.learnts.retain(|&cr| old[cr as usize] & DELETED == 0);
        for cr in &mut self.learnts {
            *cr = moved(*cr);
        }
        self.arena = arena;
    }

    /// Solves the formula. Returns `true` if satisfiable; the model is then
    /// available through [`value`](Self::value).
    pub fn solve(&mut self) -> bool {
        self.solve_with_assumptions(&[])
    }

    /// Solves the formula under `assumptions`, posted as pseudo-decisions
    /// before any branching. Returns `true` if satisfiable together with
    /// the assumptions; the model is then available through
    /// [`value`](Self::value).
    ///
    /// `false` means unsatisfiable *under the assumptions*: unless the
    /// clause database itself became unsatisfiable (a root-level
    /// conflict), the solver stays usable and a later call with different
    /// assumptions may succeed. Learned clauses are derived from the
    /// clause database alone — assumptions enter the trail as decisions,
    /// never as antecedents — so everything learned here remains valid
    /// for every future call.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return false;
        }
        let mut restarts = 0u64;
        loop {
            let conflict_budget = luby(restarts) * 100;
            match self.search(conflict_budget, assumptions) {
                SearchResult::Sat => return true,
                SearchResult::Unsat => {
                    self.ok = false;
                    return false;
                }
                SearchResult::AssumpUnsat => {
                    self.backtrack(0);
                    return false;
                }
                SearchResult::Restart => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    self.backtrack(0);
                }
            }
        }
    }

    fn search(&mut self, conflict_budget: u64, assumptions: &[Lit]) -> SearchResult {
        let mut conflicts = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts += 1;
                if self.decision_level() == 0 {
                    return SearchResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.backtrack(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], NO_REASON);
                } else {
                    let cr = self.attach_clause(&learnt, true);
                    self.bump_clause(cr);
                    self.unchecked_enqueue(learnt[0], cr);
                }
                self.var_inc *= VAR_DECAY;
                self.cla_inc *= CLA_DECAY;
            } else {
                if conflicts >= conflict_budget {
                    return SearchResult::Restart;
                }
                if self.learnts.len() > 2000 + 500 * self.reduce_count as usize {
                    self.reduce_db();
                }
                // Re-establish assumptions before any free branching: one
                // pseudo-decision level per assumption, in order, so
                // conflict analysis can backtrack through them and the
                // next iteration repairs whatever it undid.
                let mut posted = false;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.value_lit(a) {
                        L_TRUE => {
                            // Already implied: dummy level keeps the
                            // level-index == assumption-index mapping.
                            self.trail_lim.push(self.trail.len());
                        }
                        L_FALSE => return SearchResult::AssumpUnsat,
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, NO_REASON);
                            posted = true;
                            break;
                        }
                    }
                }
                if posted {
                    continue; // propagate the assumption first
                }
                match self.pick_branch() {
                    None => return SearchResult::Sat,
                    Some(next) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(next, NO_REASON);
                    }
                }
            }
        }
    }

    // ----- indexed max-heap ordered by var activity -----

    fn heap_insert(&mut self, v: u32) {
        self.heap_pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top as usize] = -1;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i] as usize] <= self.activity[self.heap[parent] as usize] {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.heap.len()
                && self.activity[self.heap[l] as usize] > self.activity[self.heap[largest] as usize]
            {
                largest = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r] as usize] > self.activity[self.heap[largest] as usize]
            {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap_swap(i, largest);
            i = largest;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a] as usize] = a as i32;
        self.heap_pos[self.heap[b] as usize] = b as i32;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchResult {
    Sat,
    Unsat,
    /// Unsatisfiable only under the current assumptions; the clause
    /// database itself is still consistent.
    AssumpUnsat,
    Restart,
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
fn luby(i: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = i;
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut SatSolver, vars: &mut Vec<Var>, i: usize, neg: bool) -> Lit {
        while vars.len() <= i {
            vars.push(s.new_var());
        }
        Lit::new(vars[i], neg)
    }

    #[test]
    fn luby_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = SatSolver::new();
        assert!(s.solve());
    }

    #[test]
    fn single_unit_clause() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[Lit::new(v, false)]));
        assert!(s.solve());
        assert!(s.value(v));
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[Lit::new(v, false)]));
        assert!(!s.add_clause(&[Lit::new(v, true)]) || !s.solve());
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = SatSolver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[Lit::new(v, false), Lit::new(v, true)]));
        assert!(s.solve());
    }

    #[test]
    fn implication_chain_propagates() {
        // x0 & (x0 -> x1) & (x1 -> x2) ... forces all true.
        let mut s = SatSolver::new();
        let vars: Vec<Var> = (0..20).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::new(vars[0], false)]);
        for w in vars.windows(2) {
            s.add_clause(&[Lit::new(w[0], true), Lit::new(w[1], false)]);
        }
        assert!(s.solve());
        for &v in &vars {
            assert!(s.value(v));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: classic small UNSAT instance that requires
        // real search, not just propagation.
        let mut s = SatSolver::new();
        let mut vars = Vec::new();
        // p[i][j] = pigeon i in hole j ; var index = i*2 + j
        for i in 0..3 {
            let a = lit(&mut s, &mut vars, i * 2, false);
            let b = lit(&mut s, &mut vars, i * 2 + 1, false);
            s.add_clause(&[a, b]); // every pigeon somewhere
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    let a = lit(&mut s, &mut vars, i1 * 2 + j, true);
                    let b = lit(&mut s, &mut vars, i2 * 2 + j, true);
                    s.add_clause(&[a, b]); // no two share a hole
                }
            }
        }
        assert!(!s.solve());
    }

    #[test]
    fn pigeonhole_5_into_4_is_unsat() {
        let (pigeons, holes) = (5usize, 4usize);
        let mut s = SatSolver::new();
        let mut vars = Vec::new();
        for i in 0..pigeons {
            let clause: Vec<Lit> = (0..holes)
                .map(|j| lit(&mut s, &mut vars, i * holes + j, false))
                .collect();
            s.add_clause(&clause);
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    let a = lit(&mut s, &mut vars, i1 * holes + j, true);
                    let b = lit(&mut s, &mut vars, i2 * holes + j, true);
                    s.add_clause(&[a, b]);
                }
            }
        }
        assert!(!s.solve());
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn random_3sat_models_satisfy_all_clauses() {
        // Deterministic pseudo-random satisfiable-ish instances: generate a
        // planted solution, emit clauses consistent with it, check that the
        // found model satisfies every clause.
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _round in 0..10 {
            let n = 30usize;
            let mut s = SatSolver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            let planted: Vec<bool> = (0..n).map(|_| next() & 1 == 1).collect();
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..120 {
                let mut clause = Vec::new();
                // Ensure at least one literal agrees with the planted model.
                let forced = (next() as usize) % n;
                clause.push(Lit::new(vars[forced], !planted[forced]));
                for _ in 0..2 {
                    let v = (next() as usize) % n;
                    clause.push(Lit::new(vars[v], next() & 1 == 1));
                }
                clauses.push(clause);
            }
            for c in &clauses {
                assert!(s.add_clause(c));
            }
            assert!(s.solve(), "planted instance must be satisfiable");
            for c in &clauses {
                assert!(
                    c.iter().any(|&l| s.value(l.var()) != l.is_negated()),
                    "model violates clause {c:?}"
                );
            }
        }
    }

    #[test]
    fn assumptions_flip_verdict_without_poisoning() {
        // (a | b) with assumptions probing each polarity: the same solver
        // instance must answer SAT/UNSAT per call and stay consistent.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::new(a, false), Lit::new(b, false)]);
        assert!(!s.solve_with_assumptions(&[Lit::new(a, true), Lit::new(b, true)]));
        assert!(s.is_ok(), "assumption UNSAT must not poison the solver");
        assert!(s.solve_with_assumptions(&[Lit::new(a, true)]));
        assert!(s.value(b), "!a forces b");
        assert!(s.solve_with_assumptions(&[Lit::new(b, true)]));
        assert!(s.value(a), "!b forces a");
        assert!(s.solve(), "still satisfiable with no assumptions");
    }

    #[test]
    fn clauses_added_between_solves_take_effect() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::new(a, false), Lit::new(b, false)]);
        assert!(s.solve());
        // Grow the formula after a solve: force !a, so b carries a|b.
        assert!(s.add_clause(&[Lit::new(a, true)]));
        assert!(s.solve());
        assert!(!s.value(a), "unit !a must hold");
        assert!(s.value(b), "a|b with !a forces b");
        // And a new variable allocated after solving works too.
        let c = s.new_var();
        assert!(s.add_clause(&[Lit::new(c, false)]));
        assert!(s.solve());
        assert!(s.value(c));
    }

    #[test]
    fn assumption_probes_on_a_growing_formula() {
        // At-most-one-per-hole constraints for 4 pigeons / 3 holes: probe
        // placements via assumptions, then grow the formula to the full
        // (UNSAT) pigeonhole instance in the same solver.
        let (pigeons, holes) = (4usize, 3usize);
        let mut s = SatSolver::new();
        let mut vars = Vec::new();
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in (i1 + 1)..pigeons {
                    let a = lit(&mut s, &mut vars, i1 * holes + j, true);
                    let b = lit(&mut s, &mut vars, i2 * holes + j, true);
                    s.add_clause(&[a, b]);
                }
            }
        }
        // Two pigeons in one hole: rejected, solver stays consistent.
        assert!(
            !s.solve_with_assumptions(&[Lit::new(vars[0], false), Lit::new(vars[holes], false),])
        );
        assert!(s.is_ok());
        // A proper partial placement: accepted.
        assert!(s.solve_with_assumptions(&[
            Lit::new(vars[0], false),             // pigeon 0 in hole 0
            Lit::new(vars[holes + 1], false),     // pigeon 1 in hole 1
            Lit::new(vars[2 * holes + 2], false), // pigeon 2 in hole 2
        ]));
        // Grow to the full pigeonhole instance: now genuinely UNSAT.
        for i in 0..pigeons {
            let clause: Vec<Lit> = (0..holes)
                .map(|j| lit(&mut s, &mut vars, i * holes + j, false))
                .collect();
            s.add_clause(&clause);
        }
        assert!(!s.solve());
        assert!(s.stats().conflicts > 0, "full instance needs search");
    }

    #[test]
    fn xor_chain_requires_learning() {
        // Encode x0 ^ x1 ^ ... ^ x7 = 1 via CNF of pairwise xors with
        // auxiliary variables, then also assert x-parity = 0 on a subset to
        // create conflicts.
        let mut s = SatSolver::new();
        let n = 8;
        let x: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        // t_i = x_0 ^ ... ^ x_i
        let mut t_prev = x[0];
        for &xi in x.iter().skip(1) {
            let t = s.new_var();
            // t = t_prev ^ x_i  (4 clauses)
            let (a, b, c) = (
                Lit::new(t_prev, false),
                Lit::new(xi, false),
                Lit::new(t, false),
            );
            s.add_clause(&[a.negated(), b.negated(), c.negated()]);
            s.add_clause(&[a, b, c.negated()]);
            s.add_clause(&[a.negated(), b, c]);
            s.add_clause(&[a, b.negated(), c]);
            t_prev = t;
        }
        // Parity must be 1.
        s.add_clause(&[Lit::new(t_prev, false)]);
        assert!(s.solve());
        let parity = x.iter().fold(false, |acc, &v| acc ^ s.value(v));
        assert!(parity, "xor chain parity must be 1");
    }

    /// Offsets of every clause header in the arena, in order.
    fn clause_offsets(s: &SatSolver) -> Vec<CRef> {
        let mut offsets = Vec::new();
        let mut c = 0;
        while c < s.arena.len() {
            offsets.push(c as CRef);
            c += HEADER + s.clause_len(c as CRef);
        }
        offsets
    }

    /// Every watcher, reason and `learnts` entry names a live clause
    /// header, and binary tags match clause lengths.
    fn assert_offsets_live(s: &SatSolver) {
        let offsets = clause_offsets(s);
        let live =
            |cr: CRef| offsets.binary_search(&cr).is_ok() && s.arena[cr as usize] & DELETED == 0;
        for (code, ws) in s.watches.iter().enumerate() {
            for w in ws {
                let cr = w.cref & !BINARY;
                assert!(live(cr), "watcher of {code} names a dead clause {cr}");
                assert_eq!(w.cref & BINARY != 0, s.clause_len(cr) == 2);
                let lits = s.clause_lits(cr);
                assert!(lits.contains(&(code as u32)) && lits.contains(&w.blocker.0));
            }
        }
        for l in &s.trail {
            let r = s.reason[l.var().index()];
            assert!(r == NO_REASON || live(r), "reason of {l:?} is dead");
        }
        for &cr in &s.learnts {
            assert!(live(cr) && s.arena[cr as usize] & LEARNT != 0);
        }
    }

    /// Whether assignment `x` (bit i = variable i) makes `l` true.
    fn holds(x: u32, l: Lit) -> bool {
        (x >> l.var().0 & 1 == 1) != l.is_negated()
    }

    #[test]
    fn garbage_collection_keeps_verdicts_and_reasons() {
        // Interleave clause additions, plain and assumption solves and
        // learnt-database reductions (with reasons on the trail after a SAT
        // answer) on small seeded formulas; every verdict is checked by
        // enumeration and every offset after each collection.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut shrinks = 0;
        // Pigeons into at least as many holes: satisfiable, but placing
        // pigeons by assumption makes conflicts and long learnt clauses.
        for (pigeons, holes) in [(3usize, 4usize), (3, 5), (4, 4)] {
            let n = pigeons * holes;
            let mut s = SatSolver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            let mut clauses: Vec<Vec<Lit>> = Vec::new();
            for i in 0..pigeons {
                clauses.push(
                    (0..holes)
                        .map(|j| Lit::new(vars[i * holes + j], false))
                        .collect(),
                );
            }
            for j in 0..holes {
                for i1 in 0..pigeons {
                    for i2 in (i1 + 1)..pigeons {
                        clauses.push(vec![
                            Lit::new(vars[i1 * holes + j], true),
                            Lit::new(vars[i2 * holes + j], true),
                        ]);
                    }
                }
            }
            for c in &clauses {
                assert!(s.add_clause(c));
            }
            // The formula's models, by enumeration.
            let mut models: Vec<u32> = (0..1u32 << n)
                .filter(|&x| clauses.iter().all(|c| c.iter().any(|&l| holds(x, l))))
                .collect();
            let mut rounds = 0;
            for step in 0..400 {
                match next() % 8 {
                    0 => {
                        let len = 3 + (next() % 2) as usize;
                        let c: Vec<Lit> = (0..len)
                            .map(|_| Lit::new(vars[next() as usize % n], next() & 1 == 1))
                            .collect();
                        // Keep the formula satisfiable so solves keep learning.
                        let kept: Vec<u32> = models
                            .iter()
                            .copied()
                            .filter(|&x| c.iter().any(|&l| holds(x, l)))
                            .collect();
                        if kept.len() >= 2 {
                            assert!(s.add_clause(&c));
                            clauses.push(c);
                            models = kept;
                        }
                    }
                    1 => {
                        assert!(s.solve());
                        for c in &clauses {
                            assert!(c.iter().any(|&l| s.value(l.var()) != l.is_negated()));
                        }
                    }
                    _ => {
                        let k = 2 + (next() % 3) as usize;
                        let assumptions: Vec<Lit> = (0..k)
                            .map(|_| Lit::new(vars[next() as usize % n], next() & 1 == 1))
                            .collect();
                        let sat = s.solve_with_assumptions(&assumptions);
                        let expected = models
                            .iter()
                            .any(|&x| assumptions.iter().all(|&l| holds(x, l)));
                        assert_eq!(sat, expected);
                        assert!(s.is_ok());
                        if sat {
                            for l in &assumptions {
                                assert_eq!(s.value(l.var()), !l.is_negated());
                            }
                        }
                    }
                }
                if step % 100 == 99 {
                    // Reduce right after a SAT answer, so locked clauses hold
                    // reasons that must be remapped.
                    assert!(s.solve());
                    let before = s.arena.len();
                    let learnt_before = s.num_learnt();
                    s.reduce_db();
                    rounds += 1;
                    assert_offsets_live(&s);
                    assert!(s.arena.len() <= before);
                    if s.num_learnt() < learnt_before {
                        assert!(
                            s.arena.len() < before,
                            "deleting clauses must shrink the arena"
                        );
                        shrinks += 1;
                    }
                }
            }
            assert!(rounds >= 3);
            assert!(s.solve());
        }
        assert!(shrinks >= 3, "only {shrinks} reductions deleted a clause");
    }
}
