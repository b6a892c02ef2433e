//! The top-level SMT façade: a layered query-optimization stack in front
//! of the bit-blasting SAT core.
//!
//! A query descends through the layers until one of them can answer it:
//!
//! ```text
//!   Solver::check / check_feasible
//!     1. constant filtering + fingerprint canonicalization   (trivial)
//!     2. whole-query memo cache                              (QueryCache)
//!     3. independence slicing: partition into connected
//!        components by variable support; focused feasibility
//!        checks solve only the focus component               (slicing)
//!     4. per-slice counterexample cache: exact hit,
//!        subset-UNSAT proof, cached-model witness            (CexCache)
//!     5. bit-blast + CDCL                                    (SAT core)
//! ```
//!
//! # Determinism contract
//!
//! Everything downstream (counterexamples, path models, the parallel
//! explorer's canonical merge) relies on `check` being a *pure function of
//! the constraint set's structure*: same structural fingerprints in, same
//! verdict and bit-for-bit the same model out, regardless of pool history,
//! worker count or cache state. The layers preserve this as follows:
//!
//! - The canonical model of a query is defined as the *stitch* of the
//!   canonical models of its independent slices (solved in fingerprint
//!   order, each by the deterministic SAT core). Slicing is therefore not
//!   an optional optimization but part of the decision procedure itself;
//!   enabling or disabling the cache layers cannot change any model.
//! - Cache hits (whole-query or per-slice) return exactly the canonical
//!   result a fresh solve would compute, so shared caches are
//!   semantically invisible.
//! - Subset-UNSAT proofs and reused-model witnesses can depend on cache
//!   *contents* (which vary with timing across workers), so they are only
//!   used where a verdict — never a model — is reported:
//!   [`Solver::check_feasible`]. Verdicts are unique, hence pure.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::blast::Blaster;
use crate::cex::CexCache;
use crate::cnf::{load_aig, CnfResult};
use crate::incremental::{IncrementalStats, SolverCtx};
use crate::model::Model;
use crate::sat::SatSolver;
use crate::term::{Support, TermId, TermPool, Width};

/// Result of a satisfiability query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// The constraints are satisfiable; a concrete model is attached.
    Sat(Model),
    /// The constraints are unsatisfiable.
    Unsat,
}

impl SatResult {
    /// Whether the result is [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Extracts the model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            SatResult::Unsat => None,
        }
    }
}

/// Accumulated solver statistics across all queries of one [`Solver`],
/// with per-layer hit and time counters for the query stack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total queries issued (including cache hits and trivially-decided).
    pub queries: u64,
    /// Queries answered satisfiable.
    pub sat: u64,
    /// Queries answered unsatisfiable.
    pub unsat: u64,
    /// Queries answered from the whole-query cache.
    pub cache_hits: u64,
    /// Non-trivial queries that missed the whole-query cache (zero when
    /// the cache is disabled — misses are only counted when a cache was
    /// actually consulted).
    pub cache_misses: u64,
    /// Queries decided without reaching the SAT core (constant folding).
    pub trivial: u64,
    /// Wall-clock time spent inside `check`/`check_feasible` end to end.
    pub solve_time: Duration,
    /// Independent slices examined (solved or answered) across queries.
    pub slices: u64,
    /// Slices answered by an exact-key counterexample-cache hit.
    pub slice_hits: u64,
    /// Slices proved UNSAT by a cached UNSAT subset.
    pub cex_subset_hits: u64,
    /// Feasibility slices answered SAT by re-evaluating a cached model.
    pub model_reuse_hits: u64,
    /// Slices skipped outright by focused feasibility checks (their
    /// satisfiability was implied by the feasible base).
    pub focus_skips: u64,
    /// Cache-missed queries fully answered by the slice layers — i.e.
    /// answered above the SAT core without a whole-query cache hit.
    pub sliced_hits: u64,
    /// Invocations of the bit-blast + CDCL core (one per solved slice).
    pub sat_core_calls: u64,
    /// Time spent partitioning constraint sets into slices.
    pub slicing_time: Duration,
    /// Time spent in counterexample-cache lookups, subset reasoning and
    /// witness evaluation.
    pub cex_time: Duration,
    /// Time spent bit-blasting and in the SAT core.
    pub sat_core_time: Duration,
    /// Conflicts analyzed by the SAT core across all invocations (fresh
    /// and incremental alike) — the work metric the incremental layer is
    /// meant to reduce.
    pub sat_conflicts: u64,
    /// Entries evicted from the bounded caches by this solver's inserts.
    pub evictions: u64,
    /// Implication queries issued through [`Solver::check_implied`]
    /// (subsumption probes from the state-merging engine).
    pub implication_queries: u64,
    /// Implication queries that proved `premises ⊨ hypothesis`.
    pub implications_proved: u64,
    /// Counters for the incremental per-path context layer.
    pub incremental: IncrementalStats,
}

impl SolverStats {
    /// Merges `other` into `self` (summing counters and times). Used when
    /// combining per-worker solver statistics into one report.
    pub fn merge(&mut self, other: &SolverStats) {
        self.queries += other.queries;
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.trivial += other.trivial;
        self.solve_time += other.solve_time;
        self.slices += other.slices;
        self.slice_hits += other.slice_hits;
        self.cex_subset_hits += other.cex_subset_hits;
        self.model_reuse_hits += other.model_reuse_hits;
        self.focus_skips += other.focus_skips;
        self.sliced_hits += other.sliced_hits;
        self.sat_core_calls += other.sat_core_calls;
        self.slicing_time += other.slicing_time;
        self.cex_time += other.cex_time;
        self.sat_core_time += other.sat_core_time;
        self.sat_conflicts += other.sat_conflicts;
        self.evictions += other.evictions;
        self.implication_queries += other.implication_queries;
        self.implications_proved += other.implications_proved;
        self.incremental.merge(&other.incremental);
    }

    /// Queries that were not decided by constant folding.
    pub fn non_trivial(&self) -> u64 {
        self.queries - self.trivial
    }

    /// Queries answered above the SAT core: whole-query cache hits plus
    /// queries the slice layers answered outright.
    pub fn answered_above_core(&self) -> u64 {
        self.cache_hits + self.sliced_hits
    }

    /// Fraction of non-trivial queries answered above the SAT core.
    pub fn above_core_rate(&self) -> f64 {
        if self.non_trivial() == 0 {
            0.0
        } else {
            self.answered_above_core() as f64 / self.non_trivial() as f64
        }
    }
}

const CACHE_SHARDS: usize = 16;
/// Default per-shard capacity of the whole-query cache (16 shards).
const DEFAULT_QUERY_SHARD_CAPACITY: usize = 4096;

/// One bounded shard: the memo map plus FIFO insertion order.
#[derive(Debug, Default)]
struct QueryShard {
    map: HashMap<Vec<u128>, SatResult>,
    order: std::collections::VecDeque<Vec<u128>>,
}

/// A sharded, thread-safe, bounded memo cache of whole solver queries.
///
/// Keys are the sorted structural fingerprints of the constraint set
/// ([`TermPool::fingerprint`]), so a key names the same logical query in
/// *any* pool: one `QueryCache` can be shared between solvers working over
/// different (per-worker) pools, which is exactly what the parallel
/// explorer does via [`Solver::with_shared_cache`].
///
/// Sharing is semantically transparent. Constraint sets are sliced and
/// blasted in fingerprint order and the SAT core is deterministic, so the
/// model a cache hit returns is bit-for-bit the model a fresh solve would
/// have produced.
///
/// Each shard holds at most a fixed number of entries; when full, the
/// oldest entry (FIFO) is evicted. Eviction order depends only on the
/// sequence of inserts, and because cached results equal fresh solves,
/// cache contents can never affect results — only speed.
#[derive(Debug)]
pub struct QueryCache {
    shards: [Mutex<QueryShard>; CACHE_SHARDS],
    capacity: usize,
}

impl Default for QueryCache {
    fn default() -> QueryCache {
        QueryCache::new()
    }
}

impl QueryCache {
    /// Creates an empty cache with the default per-shard capacity.
    pub fn new() -> QueryCache {
        QueryCache::with_capacity(DEFAULT_QUERY_SHARD_CAPACITY)
    }

    /// Creates an empty cache holding at most `per_shard` entries per
    /// shard (FIFO eviction).
    pub fn with_capacity(per_shard: usize) -> QueryCache {
        QueryCache {
            shards: std::array::from_fn(|_| Mutex::new(QueryShard::default())),
            capacity: per_shard.max(1),
        }
    }

    fn shard(&self, key: &[u128]) -> &Mutex<QueryShard> {
        // Cheap deterministic fold of the key into a shard index. The
        // fingerprints themselves are already well-mixed hashes.
        let folded = key
            .iter()
            .fold(0u64, |acc, fp| acc.rotate_left(7) ^ (*fp as u64));
        &self.shards[(folded as usize) % CACHE_SHARDS]
    }

    fn lock_shard(&self, key: &[u128]) -> MutexGuard<'_, QueryShard> {
        // A panic while holding the guard cannot leave the map in an
        // inconsistent state (plain HashMap ops), so poisoning is benign.
        self.shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a normalized key.
    pub fn lookup(&self, key: &[u128]) -> Option<SatResult> {
        self.lock_shard(key).map.get(key).cloned()
    }

    /// Stores a result under a normalized key, evicting the shard's
    /// oldest entry if it is full. Returns the number of evictions (0/1).
    pub fn insert(&self, key: Vec<u128>, result: SatResult) -> u64 {
        let mut shard = self.lock_shard(&key);
        if shard.map.contains_key(&key) {
            return 0;
        }
        let mut evicted = 0;
        if shard.map.len() >= self.capacity {
            if let Some(old) = shard.order.pop_front() {
                shard.map.remove(&old);
                evicted = 1;
            }
        }
        shard.order.push_back(key.clone());
        shard.map.insert(key, result);
        evicted
    }

    /// Number of cached queries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How many cached subset models a feasibility check will evaluate as
/// candidate witnesses before giving up and bit-blasting.
const MODEL_REUSE_CANDIDATES: usize = 4;

/// A stateless-per-query SMT solver with the layered query stack.
///
/// Caches are keyed on sorted *structural fingerprints*, which identify a
/// query independently of the pool that interned it. A solver can keep
/// private caches ([`Solver::new`]) or share them with other solvers over
/// other pools ([`Solver::with_stack`]) — the parallel explorer shares one
/// query cache and one counterexample cache across all workers so sibling
/// paths stop re-solving identical queries and slices.
#[derive(Debug)]
pub struct Solver {
    stats: SolverStats,
    cache: Option<Arc<QueryCache>>,
    cex: Option<Arc<CexCache>>,
    model_reuse: bool,
    incremental: bool,
    /// The current path's retained incremental context (see
    /// [`SolverCtx`]); dropped by [`begin_path`](Solver::begin_path) and
    /// whenever the probe's prefix is not an extension of what is loaded.
    ctx: Option<SolverCtx>,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with the full stack and fresh private caches.
    pub fn new() -> Solver {
        Solver::with_stack(
            Some(Arc::new(QueryCache::new())),
            Some(Arc::new(CexCache::new())),
            true,
        )
    }

    /// Creates a solver with every cache layer disabled (ablation /
    /// benchmarks): all queries go through slicing straight to the core.
    pub fn without_cache() -> Solver {
        Solver::with_stack(None, None, false)
    }

    /// Creates a solver whose whole-query cache is an existing (possibly
    /// shared) one, with a private counterexample cache.
    pub fn with_shared_cache(cache: Arc<QueryCache>) -> Solver {
        Solver::with_stack(Some(cache), Some(Arc::new(CexCache::new())), true)
    }

    /// Creates a solver with an explicit layer configuration: `cache` is
    /// the whole-query memo layer, `cex` the per-slice counterexample
    /// cache, `model_reuse` enables cached-model witnesses in
    /// [`check_feasible`](Solver::check_feasible) (it has no effect
    /// without `cex`). Any `Arc` may be shared across solvers/threads.
    pub fn with_stack(
        cache: Option<Arc<QueryCache>>,
        cex: Option<Arc<CexCache>>,
        model_reuse: bool,
    ) -> Solver {
        Solver {
            stats: SolverStats::default(),
            cache,
            cex,
            model_reuse,
            incremental: true,
            ctx: None,
        }
    }

    /// Enables or disables the incremental per-path SAT context (default:
    /// enabled). Purely an ablation/benchmark knob: verdicts are
    /// identical either way, only core work and layer statistics change.
    pub fn with_incremental(mut self, enabled: bool) -> Solver {
        self.incremental = enabled;
        if !enabled {
            self.ctx = None;
        }
        self
    }

    /// Whether the incremental per-path context is enabled.
    pub fn incremental_enabled(&self) -> bool {
        self.incremental
    }

    /// Marks the start of a new exploration path: the previous path's
    /// incremental context (if any) is dropped, so the next focused probe
    /// builds a fresh prefix. Contexts are strictly worker-local and
    /// path-local — this is what keeps the parallel merge deterministic.
    pub fn begin_path(&mut self) {
        self.ctx = None;
    }

    /// The whole-query cache backing this solver, if enabled.
    pub fn cache(&self) -> Option<&Arc<QueryCache>> {
        self.cache.as_ref()
    }

    /// The counterexample cache backing this solver, if enabled.
    pub fn cex_cache(&self) -> Option<&Arc<CexCache>> {
        self.cex.as_ref()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Decides whether the conjunction of `constraints` (each a width-1
    /// term from `pool`) is satisfiable.
    ///
    /// # Panics
    ///
    /// Panics if any constraint term is not of width 1.
    pub fn check(&mut self, pool: &TermPool, constraints: &[TermId]) -> SatResult {
        self.check_with_focus(pool, constraints, None)
    }

    /// Like [`check`](Solver::check), with an optional *focus* hint: the
    /// freshly-added constraint the caller just pushed. The focus slice is
    /// solved first, so an infeasible branch condition short-circuits
    /// before unrelated slices are (re)solved. The hint affects work
    /// order only, never the verdict or the model — slices are
    /// independent, and a SAT answer always stitches every slice.
    pub fn check_with_focus(
        &mut self,
        pool: &TermPool,
        constraints: &[TermId],
        focus: Option<TermId>,
    ) -> SatResult {
        let start = Instant::now();
        self.stats.queries += 1;

        let entries = match self.canonicalize(pool, constraints) {
            Some(entries) => entries,
            None => {
                // A constant-false constraint: trivially UNSAT.
                self.stats.trivial += 1;
                self.stats.unsat += 1;
                self.stats.solve_time += start.elapsed();
                return SatResult::Unsat;
            }
        };
        if entries.is_empty() {
            self.stats.trivial += 1;
            self.stats.sat += 1;
            self.stats.solve_time += start.elapsed();
            return SatResult::Sat(Model::new());
        }
        let key: Vec<u128> = entries.iter().map(|&(fp, _)| fp).collect();

        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.lookup(&key) {
                self.stats.cache_hits += 1;
                match hit {
                    SatResult::Sat(_) => self.stats.sat += 1,
                    SatResult::Unsat => self.stats.unsat += 1,
                }
                self.stats.solve_time += start.elapsed();
                return hit;
            }
            self.stats.cache_misses += 1;
        }

        let core_before = self.stats.sat_core_calls;
        let result = self.solve_sliced(pool, &entries, focus);
        if self.stats.sat_core_calls == core_before {
            self.stats.sliced_hits += 1;
        }
        match &result {
            SatResult::Sat(_) => self.stats.sat += 1,
            SatResult::Unsat => self.stats.unsat += 1,
        }
        if let Some(cache) = &self.cache {
            self.stats.evictions += cache.insert(key, result.clone());
        }
        self.stats.solve_time += start.elapsed();
        result
    }

    /// Decides whether `base ∪ {focus}` is satisfiable, where the caller
    /// guarantees that `base` alone *is* satisfiable (the symbolic engine
    /// maintains its path constraints feasible by construction).
    ///
    /// Under that precondition only the connected component containing
    /// `focus` needs solving: every other slice is a subset of the
    /// feasible base and cannot contribute a contradiction. No model is
    /// returned, so this path may also answer SAT from a cached witness
    /// model (evaluated concretely) — sound for the verdict, but not the
    /// canonical model, which is why this entry point is verdict-only.
    ///
    /// # Panics
    ///
    /// Panics if any constraint term is not of width 1.
    pub fn check_feasible(&mut self, pool: &TermPool, base: &[TermId], focus: TermId) -> bool {
        let start = Instant::now();
        self.stats.queries += 1;
        assert_eq!(
            pool.width(focus),
            Width::W1,
            "focus constraint {} is not boolean",
            pool.display(focus)
        );

        if pool.is_true(focus) {
            // base ∪ {true} = base, feasible by precondition.
            self.stats.trivial += 1;
            self.stats.sat += 1;
            self.stats.solve_time += start.elapsed();
            return true;
        }
        let mut all: Vec<TermId> = Vec::with_capacity(base.len() + 1);
        all.extend_from_slice(base);
        all.push(focus);
        let entries = match self.canonicalize(pool, &all) {
            Some(entries) => entries,
            None => {
                self.stats.trivial += 1;
                self.stats.unsat += 1;
                self.stats.solve_time += start.elapsed();
                return false;
            }
        };
        let focus_fp = pool.fingerprint(focus);
        // If the focus dedups into the base, the query *is* the base.
        if base.iter().any(|&c| pool.fingerprint(c) == focus_fp) {
            self.stats.trivial += 1;
            self.stats.sat += 1;
            self.stats.solve_time += start.elapsed();
            return true;
        }
        let key: Vec<u128> = entries.iter().map(|&(fp, _)| fp).collect();

        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.lookup(&key) {
                self.stats.cache_hits += 1;
                let sat = hit.is_sat();
                if sat {
                    self.stats.sat += 1;
                } else {
                    self.stats.unsat += 1;
                }
                self.stats.solve_time += start.elapsed();
                return sat;
            }
            self.stats.cache_misses += 1;
        }

        let t_slice = Instant::now();
        let slices = partition(pool, &entries);
        self.stats.slicing_time += t_slice.elapsed();
        let fi = slices
            .iter()
            .position(|s| s.iter().any(|&i| entries[i].0 == focus_fp))
            .expect("focus constraint must land in some slice");
        self.stats.focus_skips += (slices.len() - 1) as u64;
        self.stats.slices += 1;

        let slice_entries: Vec<(u128, TermId)> = slices[fi].iter().map(|&i| entries[i]).collect();
        let core_before = self.stats.sat_core_calls;
        let verdict = if self.incremental {
            self.solve_focus_incremental(pool, &entries, &slice_entries, focus, focus_fp)
        } else {
            self.solve_slice(pool, &slice_entries, true)
        };
        if self.stats.sat_core_calls == core_before {
            self.stats.sliced_hits += 1;
        }
        let sat = verdict.is_sat();
        if sat {
            self.stats.sat += 1;
        } else {
            self.stats.unsat += 1;
            // An UNSAT verdict is the whole query's canonical answer
            // (no model involved), so it may seed the whole-query cache.
            if let Some(cache) = &self.cache {
                self.stats.evictions += cache.insert(key, SatResult::Unsat);
            }
        }
        self.stats.solve_time += start.elapsed();
        sat
    }

    /// Decides whether `premises ⊨ hypothesis`, i.e. whether
    /// `premises ∧ ¬hypothesis` is unsatisfiable. The caller guarantees
    /// that `premises` alone is satisfiable (it is a feasible path's
    /// constraint set), which makes this a [`check_feasible`] query on the
    /// negated hypothesis — verdict-only, so it rides the whole layered
    /// stack including cached witness models.
    ///
    /// This is the subsumption entry point used by the state-merging
    /// engine: a pending prefix whose constraint set is mutually implied
    /// by an already-explored state (over identical published peripheral
    /// state) can be dropped.
    ///
    /// [`check_feasible`]: Solver::check_feasible
    ///
    /// # Panics
    ///
    /// Panics if `hypothesis` or any premise is not of width 1.
    pub fn check_implied(
        &mut self,
        pool: &mut TermPool,
        premises: &[TermId],
        hypothesis: TermId,
    ) -> bool {
        self.stats.implication_queries += 1;
        let negated = pool.not(hypothesis);
        let implied = !self.check_feasible(pool, premises, negated);
        if implied {
            self.stats.implications_proved += 1;
        }
        implied
    }

    /// Constant-filters and canonicalizes a constraint set: sorted by
    /// structural fingerprint, duplicates removed. Returns `None` if a
    /// constant-false constraint makes the set trivially UNSAT. The
    /// fingerprint list is the cache key; the id list in the same order is
    /// the blast order, so the SAT instance (and hence the returned model)
    /// is a function of the constraint structure alone.
    fn canonicalize(
        &mut self,
        pool: &TermPool,
        constraints: &[TermId],
    ) -> Option<Vec<(u128, TermId)>> {
        let mut live: Vec<TermId> = Vec::with_capacity(constraints.len());
        for &c in constraints {
            assert_eq!(
                pool.width(c),
                Width::W1,
                "constraint {} is not boolean",
                pool.display(c)
            );
            if pool.is_false(c) {
                return None;
            }
            if !pool.is_true(c) {
                live.push(c);
            }
        }
        let mut entries: Vec<(u128, TermId)> =
            live.iter().map(|&c| (pool.fingerprint(c), c)).collect();
        entries.sort_unstable_by_key(|&(fp, _)| fp);
        entries.dedup_by_key(|&mut (fp, _)| fp);
        Some(entries)
    }

    /// Solves a canonicalized non-empty query slice by slice and stitches
    /// the canonical model. `focus` only promotes one slice to the front
    /// of the work order.
    fn solve_sliced(
        &mut self,
        pool: &TermPool,
        entries: &[(u128, TermId)],
        focus: Option<TermId>,
    ) -> SatResult {
        let t_slice = Instant::now();
        let slices = partition(pool, entries);
        self.stats.slicing_time += t_slice.elapsed();
        self.stats.slices += slices.len() as u64;

        let mut order: Vec<usize> = (0..slices.len()).collect();
        if let Some(f) = focus {
            let ffp = pool.fingerprint(f);
            if let Some(pos) = order
                .iter()
                .position(|&si| slices[si].iter().any(|&i| entries[i].0 == ffp))
            {
                let fi = order.remove(pos);
                order.insert(0, fi);
            }
        }

        let mut models: Vec<Option<Model>> = vec![None; slices.len()];
        for &si in &order {
            let slice_entries: Vec<(u128, TermId)> =
                slices[si].iter().map(|&i| entries[i]).collect();
            match self.solve_slice(pool, &slice_entries, false) {
                SatResult::Sat(m) => models[si] = Some(m),
                SatResult::Unsat => return SatResult::Unsat,
            }
        }

        // Stitch: slices constrain disjoint variable sets, so the union
        // of their canonical models is the query's canonical model.
        let mut model = Model::new();
        for m in models.into_iter().flatten() {
            for (name, value) in m.iter() {
                model.insert(name.to_string(), value);
            }
        }
        let env = model.to_env();
        for &(_, c) in entries {
            assert_eq!(
                crate::eval::evaluate(pool, c, &env),
                1,
                "stitched model {model} does not satisfy {}",
                pool.display(c)
            );
        }
        SatResult::Sat(model)
    }

    /// Decides one slice through the counterexample-cache layer, falling
    /// through to the SAT core. With `verdict_only`, cached subset models
    /// may additionally witness SAT — such results carry a non-canonical
    /// model and are never written back to any cache.
    fn solve_slice(
        &mut self,
        pool: &TermPool,
        entries: &[(u128, TermId)],
        verdict_only: bool,
    ) -> SatResult {
        if let Some(hit) = self.cex_layers(pool, entries, verdict_only) {
            return hit;
        }
        let key: Vec<u128> = entries.iter().map(|&(fp, _)| fp).collect();
        let t_core = Instant::now();
        self.stats.sat_core_calls += 1;
        let ordered: Vec<TermId> = entries.iter().map(|&(_, id)| id).collect();
        let result = self.blast_and_solve(pool, &ordered);
        self.stats.sat_core_time += t_core.elapsed();
        if let Some(cex) = &self.cex {
            // The core's answer for this slice key is canonical: safe to
            // share across solvers and to stitch into future models.
            self.stats.evictions += cex.insert(key, result.clone());
        }
        result
    }

    /// The counterexample-cache layers of [`solve_slice`](Self::solve_slice)
    /// alone: exact hit, subset-UNSAT proof and (verdict-only) cached-model
    /// witnesses. `None` means every layer missed and a core solve is due.
    fn cex_layers(
        &mut self,
        pool: &TermPool,
        entries: &[(u128, TermId)],
        verdict_only: bool,
    ) -> Option<SatResult> {
        let cex = self.cex.as_ref()?;
        let key: Vec<u128> = entries.iter().map(|&(fp, _)| fp).collect();
        let t0 = Instant::now();
        if let Some(hit) = cex.lookup_exact(&key) {
            self.stats.slice_hits += 1;
            self.stats.cex_time += t0.elapsed();
            return Some(hit);
        }
        if cex.subset_unsat(&key) {
            self.stats.cex_subset_hits += 1;
            self.stats.cex_time += t0.elapsed();
            return Some(SatResult::Unsat);
        }
        if verdict_only && self.model_reuse {
            for m in cex.subset_models(&key, MODEL_REUSE_CANDIDATES) {
                let env = m.to_env();
                if entries
                    .iter()
                    .all(|&(_, c)| crate::eval::evaluate(pool, c, &env) == 1)
                {
                    self.stats.model_reuse_hits += 1;
                    self.stats.cex_time += t0.elapsed();
                    return Some(SatResult::Sat(m));
                }
            }
        }
        self.stats.cex_time += t0.elapsed();
        None
    }

    /// The incremental core for focused feasibility checks: keep the
    /// path's already-pushed constraints asserted in a retained CDCL
    /// context ([`SolverCtx`]) and decide the probe as a single
    /// assumption solve on top, reusing learned clauses, activities and
    /// the bit-blasted CNF from every earlier probe on this path.
    ///
    /// Sits below the cex layers, exactly where the fresh core sits. On
    /// UNSAT, the focus slice's key is seeded into the caches: with the
    /// base feasible (the caller's precondition) and the whole set UNSAT,
    /// the focus slice must itself be UNSAT — slices are
    /// variable-disjoint — and an UNSAT verdict is canonical. A SAT
    /// answer caches nothing: the witness assignment depends on solver
    /// history, and only canonical results may be shared.
    fn solve_focus_incremental(
        &mut self,
        pool: &TermPool,
        entries: &[(u128, TermId)],
        slice_entries: &[(u128, TermId)],
        focus: TermId,
        focus_fp: u128,
    ) -> SatResult {
        if let Some(hit) = self.cex_layers(pool, slice_entries, true) {
            return hit;
        }
        let base: Vec<(u128, TermId)> = entries
            .iter()
            .copied()
            .filter(|&(fp, _)| fp != focus_fp)
            .collect();
        let base_fps: Vec<u128> = base.iter().map(|&(fp, _)| fp).collect();
        let reusable = self
            .ctx
            .as_ref()
            .is_some_and(|c| c.compatible(pool, &base_fps));
        if !reusable {
            self.ctx = Some(SolverCtx::new(pool));
            self.stats.incremental.contexts += 1;
        }
        let t_core = Instant::now();
        let ctx = self.ctx.as_mut().expect("context ensured above");
        ctx.extend_prefix(pool, &base);
        self.stats.incremental.clauses_retained += ctx.learnt_alive() as u64;
        let before = ctx.sat_stats();
        let verdict = ctx.solve_assuming(pool, focus);
        let after = ctx.sat_stats();
        self.stats.sat_conflicts += after.conflicts - before.conflicts;
        self.stats.incremental.restarts += after.restarts - before.restarts;
        self.stats.incremental.merge(&ctx.take_stats());
        self.stats.sat_core_time += t_core.elapsed();
        match verdict {
            Some(true) => {
                self.stats.sat_core_calls += 1;
                self.stats.incremental.assumption_solves += 1;
                // Verdict-only: the empty model is never reported or
                // cached, only `is_sat()` is read.
                SatResult::Sat(Model::new())
            }
            Some(false) => {
                self.stats.sat_core_calls += 1;
                self.stats.incremental.assumption_solves += 1;
                if let Some(cex) = &self.cex {
                    let key: Vec<u128> = slice_entries.iter().map(|&(fp, _)| fp).collect();
                    self.stats.evictions += cex.insert(key, SatResult::Unsat);
                }
                SatResult::Unsat
            }
            // Context unusable (poisoned prefix or foreign pool): fall
            // back to the fresh deterministic core.
            None => self.solve_slice(pool, slice_entries, true),
        }
    }

    /// The SAT core: bit-blast the (canonically ordered) constraints into
    /// an AIG, load as CNF, run CDCL, read the model back.
    fn blast_and_solve(&mut self, pool: &TermPool, constraints: &[TermId]) -> SatResult {
        let mut blaster = Blaster::new();
        let mut roots = Vec::with_capacity(constraints.len());
        for &c in constraints {
            let bits = blaster.blast(pool, c);
            debug_assert_eq!(bits.len(), 1);
            roots.push(bits[0]);
        }

        let mut sat = SatSolver::new();
        let node_var = match load_aig(blaster.aig(), &roots, &mut sat) {
            CnfResult::TriviallyUnsat => return SatResult::Unsat,
            CnfResult::Loaded(map) => map,
        };

        let satisfiable = sat.solve();
        self.stats.sat_conflicts += sat.stats().conflicts;
        if !satisfiable {
            return SatResult::Unsat;
        }

        // Read the model back through the variable → AIG-input mapping.
        let mut model = Model::new();
        for (name, bits) in blaster.var_bits() {
            let mut value = 0u64;
            for (i, lit) in bits.iter().enumerate() {
                let node_true = node_var
                    .get(&lit.node())
                    .map(|&v| sat.value(v))
                    .unwrap_or(false); // outside the cone: don't-care
                if node_true ^ lit.complemented() {
                    value |= 1 << i;
                }
            }
            model.insert(name.clone(), value);
        }

        // Every build checks that the model satisfies each constraint
        // concretely: a SAT-core slip must not become a report.
        let env = model.to_env();
        for &c in constraints {
            assert_eq!(
                crate::eval::evaluate(pool, c, &env),
                1,
                "model {model} does not satisfy {}",
                pool.display(c)
            );
        }

        SatResult::Sat(model)
    }
}

/// Partitions a canonicalized entry list into connected components by
/// shared variable support. Components are returned in canonical order
/// (by smallest member index, i.e. smallest fingerprint), each with its
/// members sorted — so both the partition and every slice key are pure
/// functions of the constraint set's structure.
fn partition(pool: &TermPool, entries: &[(u128, TermId)]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(Support, Vec<usize>)> = Vec::new();
    for (i, &(_, id)) in entries.iter().enumerate() {
        let sup = pool.support(id);
        let hits: Vec<usize> = (0..groups.len())
            .filter(|&g| groups[g].0.intersects(sup))
            .collect();
        match hits.split_first() {
            None => groups.push((sup.clone(), vec![i])),
            Some((&first, rest)) => {
                groups[first].0 = groups[first].0.union(sup);
                groups[first].1.push(i);
                // Merge later intersecting groups into the first; reverse
                // order keeps the removal indices valid.
                for &g in rest.iter().rev() {
                    let (s, mut members) = groups.remove(g);
                    groups[first].0 = groups[first].0.union(&s);
                    groups[first].1.append(&mut members);
                }
            }
        }
    }
    let mut slices: Vec<Vec<usize>> = groups
        .into_iter()
        .map(|(_, mut members)| {
            members.sort_unstable();
            members
        })
        .collect();
    slices.sort_by_key(|s| s[0]);
    slices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_query_is_sat() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        assert!(s.check(&pool, &[]).is_sat());
        assert_eq!(s.stats().trivial, 1);
    }

    #[test]
    fn constant_true_and_false() {
        let mut pool = TermPool::new();
        let t = pool.tru();
        let f = pool.fls();
        let mut s = Solver::new();
        assert!(s.check(&pool, &[t]).is_sat());
        assert_eq!(s.check(&pool, &[t, f]), SatResult::Unsat);
    }

    #[test]
    fn linear_equation_has_model() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W16);
        let three = pool.constant(3, Width::W16);
        let product = pool.mul(x, three);
        let target = pool.constant(21, Width::W16);
        let c = pool.eq(product, target);
        let mut s = Solver::new();
        match s.check(&pool, &[c]) {
            SatResult::Sat(m) => {
                assert_eq!(m.value_or_zero("x").wrapping_mul(3) & 0xFFFF, 21);
            }
            SatResult::Unsat => panic!("3x = 21 is satisfiable"),
        }
    }

    #[test]
    fn contradiction_is_unsat() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let five = pool.constant(5, Width::W8);
        let six = pool.constant(6, Width::W8);
        let c1 = pool.eq(x, five);
        let c2 = pool.eq(x, six);
        let mut s = Solver::new();
        assert_eq!(s.check(&pool, &[c1, c2]), SatResult::Unsat);
    }

    #[test]
    fn range_constraints_are_respected() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W32);
        let lo = pool.constant(100, Width::W32);
        let hi = pool.constant(110, Width::W32);
        let c1 = pool.ule(lo, x);
        let c2 = pool.ult(x, hi);
        let mut s = Solver::new();
        match s.check(&pool, &[c1, c2]) {
            SatResult::Sat(m) => {
                let v = m.value_or_zero("x");
                assert!((100..110).contains(&v), "x = {v}");
            }
            SatResult::Unsat => panic!("satisfiable range"),
        }
    }

    #[test]
    fn unsat_range() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let five = pool.constant(5, Width::W8);
        let c1 = pool.ult(x, five); // x < 5
        let ten = pool.constant(10, Width::W8);
        let c2 = pool.ugt(x, ten); // x > 10
        let mut s = Solver::new();
        assert_eq!(s.check(&pool, &[c1, c2]), SatResult::Unsat);
    }

    #[test]
    fn cache_hits_are_counted() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let one = pool.constant(1, Width::W8);
        let c = pool.eq(x, one);
        let mut s = Solver::new();
        let r1 = s.check(&pool, &[c]);
        let r2 = s.check(&pool, &[c]);
        assert_eq!(r1, r2);
        assert_eq!(s.stats().cache_hits, 1);
        assert_eq!(s.stats().cache_misses, 1);
    }

    #[test]
    fn hit_miss_trivial_counters_add_up() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let one = pool.constant(1, Width::W8);
        let two = pool.constant(2, Width::W8);
        let c1 = pool.eq(x, one);
        let c2 = pool.eq(x, two);
        let t = pool.tru();
        let mut s = Solver::new();
        let _ = s.check(&pool, &[c1]); // miss
        let _ = s.check(&pool, &[c1]); // hit
        let _ = s.check(&pool, &[c2]); // miss
        let _ = s.check(&pool, &[c1, c2]); // miss (different set)
        let _ = s.check(&pool, &[t]); // trivial
        let _ = s.check(&pool, &[]); // trivial
        let stats = s.stats();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 3);
        assert_eq!(stats.trivial, 2);
        assert_eq!(
            stats.queries,
            stats.cache_hits + stats.cache_misses + stats.trivial,
            "every query is exactly one of hit/miss/trivial"
        );
    }

    #[test]
    fn without_cache_counts_no_hits_or_misses() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let one = pool.constant(1, Width::W8);
        let c = pool.eq(x, one);
        let mut s = Solver::without_cache();
        let r1 = s.check(&pool, &[c]);
        let r2 = s.check(&pool, &[c]);
        assert_eq!(r1, r2);
        assert_eq!(s.stats().cache_hits, 0);
        assert_eq!(s.stats().cache_misses, 0);
    }

    #[test]
    fn shared_cache_spans_pools_and_solvers() {
        // Build the same structural query in two unrelated pools; the
        // second solver must hit the entry the first one stored, and the
        // models must agree exactly.
        let cache = Arc::new(QueryCache::new());

        let mut pool_a = TermPool::new();
        let xa = pool_a.var("x", Width::W16);
        let ka = pool_a.constant(1234, Width::W16);
        let ca = pool_a.eq(xa, ka);
        let mut solver_a = Solver::with_shared_cache(Arc::clone(&cache));
        let ra = solver_a.check(&pool_a, &[ca]);

        let mut pool_b = TermPool::new();
        // Different construction history: intern unrelated junk first so
        // the TermIds differ, then the same structural constraint.
        let _junk = pool_b.var("y", Width::W32);
        let kb = pool_b.constant(1234, Width::W16);
        let xb = pool_b.var("x", Width::W16);
        let cb = pool_b.eq(xb, kb);
        let mut solver_b = Solver::with_shared_cache(Arc::clone(&cache));
        let rb = solver_b.check(&pool_b, &[cb]);

        assert_eq!(ra, rb, "same structure, same verdict and model");
        assert_eq!(solver_a.stats().cache_misses, 1);
        assert_eq!(solver_b.stats().cache_hits, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn models_identical_between_cached_and_fresh_solves() {
        // The cache must be semantically transparent: a hit returns
        // exactly what a fresh solve would compute.
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let y = pool.var("y", Width::W8);
        let lim = pool.constant(100, Width::W8);
        let sum = pool.add(x, y);
        let c1 = pool.ult(sum, lim);
        let c2 = pool.ugt(x, y);
        let mut cached = Solver::new();
        let mut fresh = Solver::without_cache();
        let r_miss = cached.check(&pool, &[c1, c2]);
        let r_hit = cached.check(&pool, &[c1, c2]);
        let r_fresh = fresh.check(&pool, &[c1, c2]);
        assert_eq!(r_miss, r_hit);
        assert_eq!(r_miss, r_fresh);
    }

    #[test]
    fn distinct_symbolic_pair_ordering() {
        // The shape at the heart of the paper's T2: two distinct interrupt
        // ids, both in range, and an ordering query between them.
        let mut pool = TermPool::new();
        let i = pool.var("i", Width::W32);
        let j = pool.var("j", Width::W32);
        let n = pool.constant(51, Width::W32);
        let zero = pool.constant(0, Width::W32);
        let in_range_i1 = pool.ult(i, n);
        let in_range_i2 = pool.ugt(i, zero);
        let in_range_j1 = pool.ult(j, n);
        let in_range_j2 = pool.ugt(j, zero);
        let distinct = pool.ne(i, j);
        let i_lt_j = pool.ult(i, j);
        let mut s = Solver::new();
        let r = s.check(
            &pool,
            &[
                in_range_i1,
                in_range_i2,
                in_range_j1,
                in_range_j2,
                distinct,
                i_lt_j,
            ],
        );
        match r {
            SatResult::Sat(m) => {
                let (iv, jv) = (m.value_or_zero("i"), m.value_or_zero("j"));
                assert!(iv > 0 && iv < 51 && jv > 0 && jv < 51 && iv < jv);
            }
            SatResult::Unsat => panic!("satisfiable"),
        }
        // And the negation of the ordering is also satisfiable.
        let j_lt_i = pool.ult(j, i);
        let r2 = s.check(
            &pool,
            &[
                in_range_i1,
                in_range_i2,
                in_range_j1,
                in_range_j2,
                distinct,
                j_lt_i,
            ],
        );
        assert!(r2.is_sat());
    }

    #[test]
    fn division_constraint() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let y = pool.var("y", Width::W8);
        let q = pool.udiv(x, y);
        let seven = pool.constant(7, Width::W8);
        let c1 = pool.eq(q, seven);
        let two = pool.constant(2, Width::W8);
        let c2 = pool.eq(y, two);
        let mut s = Solver::new();
        match s.check(&pool, &[c1, c2]) {
            SatResult::Sat(m) => {
                assert_eq!(m.value_or_zero("x") / 2, 7);
            }
            SatResult::Unsat => panic!("x/2 = 7 is satisfiable"),
        }
    }

    #[test]
    fn partition_splits_independent_variables() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let y = pool.var("y", Width::W8);
        let z = pool.var("z", Width::W8);
        let k = pool.constant(3, Width::W8);
        let cx = pool.ult(x, k); // slice {x}
        let cy = pool.ugt(y, k); // slice {y}
        let cyz = pool.ult(y, z); // joins y with z
        let cz = pool.ne(z, k); // slice {y,z}

        let canon = |cs: &[TermId], pool: &TermPool| {
            let mut entries: Vec<(u128, TermId)> =
                cs.iter().map(|&c| (pool.fingerprint(c), c)).collect();
            entries.sort_unstable_by_key(|&(fp, _)| fp);
            entries
        };

        let two_slices = canon(&[cx, cy, cyz, cz], &pool);
        let slices = partition(&pool, &two_slices);
        assert_eq!(slices.len(), 2);
        // Each entry lands in exactly one slice.
        let total: usize = slices.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
        // Canonical order: slices sorted by smallest member index, members
        // sorted within.
        assert_eq!(slices[0][0], 0);
        for s in &slices {
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }

        let three_slices = canon(&[cx, cy, cz], &pool);
        assert_eq!(partition(&pool, &three_slices).len(), 3);
    }

    #[test]
    fn independent_slices_solve_and_stitch() {
        // Two unrelated constraints: the model must cover both variables
        // and must equal the flat (no-cache) result exactly.
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let y = pool.var("y", Width::W8);
        let k1 = pool.constant(7, Width::W8);
        let k2 = pool.constant(200, Width::W8);
        let cx = pool.eq(x, k1);
        let cy = pool.eq(y, k2);

        let mut layered = Solver::new();
        let mut flat = Solver::without_cache();
        let r1 = layered.check(&pool, &[cx, cy]);
        let r2 = flat.check(&pool, &[cx, cy]);
        assert_eq!(r1, r2);
        match r1 {
            SatResult::Sat(m) => {
                assert_eq!(m.value_or_zero("x"), 7);
                assert_eq!(m.value_or_zero("y"), 200);
            }
            SatResult::Unsat => panic!("satisfiable"),
        }
        assert_eq!(layered.stats().slices, 2);
        // Two slices, each needing the core once.
        assert_eq!(layered.stats().sat_core_calls, 2);
    }

    #[test]
    fn slice_cache_hits_across_different_whole_queries() {
        // The x-slice repeats across two queries whose y-slices differ:
        // the whole-query cache misses both times, but the slice layer
        // answers the x-slice from the counterexample cache.
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let y = pool.var("y", Width::W8);
        let k1 = pool.constant(7, Width::W8);
        let k2 = pool.constant(9, Width::W8);
        let k3 = pool.constant(11, Width::W8);
        let cx = pool.eq(x, k1);
        let cy1 = pool.eq(y, k2);
        let cy2 = pool.eq(y, k3);

        let mut s = Solver::new();
        let r1 = s.check(&pool, &[cx, cy1]);
        let r2 = s.check(&pool, &[cx, cy2]);
        assert!(r1.is_sat() && r2.is_sat());
        assert_eq!(s.stats().cache_hits, 0, "whole-query keys differ");
        assert_eq!(s.stats().slice_hits, 1, "x-slice reused");
        assert_eq!(s.stats().sat_core_calls, 3, "x once, each y once");
        // The reused slice model stitches identically to a fresh solve.
        let mut fresh = Solver::without_cache();
        assert_eq!(fresh.check(&pool, &[cx, cy2]), r2);
    }

    #[test]
    fn subset_unsat_proves_without_solving() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let five = pool.constant(5, Width::W8);
        let ten = pool.constant(10, Width::W8);
        let lt = pool.ult(x, five);
        let gt = pool.ugt(x, ten);
        let mut s = Solver::new();
        assert_eq!(s.check(&pool, &[lt, gt]), SatResult::Unsat);
        let core_after_first = s.stats().sat_core_calls;
        // A superset of the UNSAT core: proved by subset reasoning, no
        // new SAT-core call.
        let seven = pool.constant(7, Width::W8);
        let extra = pool.ne(x, seven);
        assert_eq!(s.check(&pool, &[lt, gt, extra]), SatResult::Unsat);
        assert_eq!(s.stats().sat_core_calls, core_after_first);
        assert_eq!(s.stats().cex_subset_hits, 1);
    }

    #[test]
    fn check_feasible_agrees_with_check() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let five = pool.constant(5, Width::W8);
        let base = vec![pool.ult(x, five)]; // x < 5: feasible
        let three = pool.constant(3, Width::W8);
        let can_be_three = pool.eq(x, three);
        let seven = pool.constant(7, Width::W8);
        let cannot_be_seven = pool.eq(x, seven);

        let mut s = Solver::new();
        assert!(s.check_feasible(&pool, &base, can_be_three));
        assert!(!s.check_feasible(&pool, &base, cannot_be_seven));

        let mut flat = Solver::without_cache();
        let mut with_extra = base.clone();
        with_extra.push(can_be_three);
        assert!(flat.check(&pool, &with_extra).is_sat());
        with_extra.pop();
        with_extra.push(cannot_be_seven);
        assert!(!flat.check(&pool, &with_extra).is_sat());
    }

    #[test]
    fn check_feasible_skips_unrelated_slices() {
        // The base contains an expensive unrelated slice on y; a focused
        // feasibility check on an x-constraint never touches it.
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let y = pool.var("y", Width::W8);
        let k = pool.constant(100, Width::W8);
        let cy = pool.ult(y, k);
        let five = pool.constant(5, Width::W8);
        let base = vec![cy, pool.ult(x, five)];
        let three = pool.constant(3, Width::W8);
        let focus = pool.eq(x, three);

        let mut s = Solver::new();
        assert!(s.check_feasible(&pool, &base, focus));
        assert_eq!(s.stats().focus_skips, 1, "the y-slice was skipped");
        assert_eq!(s.stats().sat_core_calls, 1, "only the x-slice solved");
    }

    #[test]
    fn model_reuse_witnesses_feasibility() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let ten = pool.constant(10, Width::W8);
        let lt = pool.ult(x, ten);
        let mut s = Solver::new();
        // Seed the counterexample cache with the canonical model of {lt}.
        let seeded = s.check(&pool, &[lt]);
        let seeded_value = match &seeded {
            SatResult::Sat(m) => m.value_or_zero("x"),
            SatResult::Unsat => panic!("x < 10 is satisfiable"),
        };
        // Focused feasibility of a superset the cached model satisfies:
        // answered by evaluation, not the core.
        let bound = pool.constant(seeded_value.wrapping_add(1), Width::W8);
        let focus = pool.ult(x, bound); // cached x-value satisfies this
        let core_before = s.stats().sat_core_calls;
        assert!(s.check_feasible(&pool, &[lt], focus));
        assert_eq!(s.stats().sat_core_calls, core_before);
        assert_eq!(s.stats().model_reuse_hits, 1);
    }

    #[test]
    fn bounded_query_cache_evicts_fifo_and_counts() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Width::W8);
        let mut s = Solver::with_stack(Some(Arc::new(QueryCache::with_capacity(1))), None, false);
        // Enough distinct single-constraint queries to overflow every
        // 1-entry shard and force evictions.
        for v in 0..64 {
            let k = pool.constant(v, Width::W8);
            let c = pool.eq(x, k);
            assert!(s.check(&pool, &[c]).is_sat());
        }
        assert!(s.stats().evictions > 0, "1-entry shards must evict");
        // Correctness is unaffected: resolving an evicted query gives the
        // same canonical model as the first time.
        let k = pool.constant(0, Width::W8);
        let c = pool.eq(x, k);
        let again = s.check(&pool, &[c]);
        let mut fresh = Solver::without_cache();
        assert_eq!(again, fresh.check(&pool, &[c]));
    }
}
