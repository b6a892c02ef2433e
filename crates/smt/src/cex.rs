//! The solver's one cache: the canonical result of every whole query and
//! every independent *slice* (connected component of the constraint
//! graph) the stack has decided, keyed on sorted structural fingerprints.
//!
//! The exact map memoizes both kinds of key. Slice keys alone
//! ([`CexCache::insert`]) are also indexed for two kinds of cross-query
//! reasoning:
//!
//! - **Subset-UNSAT**: if a cached UNSAT key is a subset of the current
//!   slice, the slice is UNSAT — adding constraints never makes an
//!   unsatisfiable core satisfiable.
//! - **Subset-SAT candidates**: cached models of subset keys are cheap
//!   *candidate witnesses* for the current slice; the solver concretely
//!   evaluates them (via [`eval`](crate::eval)) before paying for a
//!   bit-blast. A candidate that satisfies every constraint proves SAT.
//!
//! Both directions are indexed by a key's smallest fingerprint: any subset
//! of `K` must contain some element of `K`, and probing the index bucket
//! of the *minimum* element of each candidate keeps buckets small while
//! still finding every stored subset whose minimum is in `K`. Whole keys
//! stay out of the index: a multi-slice key only repeats its slices'
//! facts, and it would crowd the bounded buckets.
//!
//! Entries are keyed on structural fingerprints, so one `CexCache` is
//! shared across per-worker term pools. Exact-key hits return the
//! canonical result the SAT core produced (a whole query's is the stitch
//! of its slices'), which is what keeps sliced model stitching
//! bit-for-bit deterministic at any worker count. Subset reasoning is only
//! ever used where a verdict (not a canonical model) is needed.
//!
//! All shards are bounded with deterministic FIFO eviction; evictions only
//! forget memoized answers, never change them.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::model::Model;
use crate::solver::SatResult;

const SHARDS: usize = 16;
/// Default per-shard entry budget for the exact-result map.
const DEFAULT_SHARD_CAPACITY: usize = 4096;
/// At most this many keys are indexed per minimum-fingerprint bucket;
/// further keys with the same minimum simply aren't subset-indexed.
const INDEX_KEYS_PER_FP: usize = 8;

/// Exact query and slice results with FIFO eviction order.
#[derive(Debug, Default)]
struct ExactShard {
    map: HashMap<Vec<u128>, SatResult>,
    order: VecDeque<Vec<u128>>,
}

/// Subset index: minimum fingerprint of a key → the stored keys starting
/// with it. Bounded per bucket and per shard (FIFO over buckets).
#[derive(Debug, Default)]
struct IndexShard {
    map: HashMap<u128, Vec<Vec<u128>>>,
    order: VecDeque<u128>,
}

/// A sharded, thread-safe, bounded cache of whole-query and per-slice
/// solver results with subset reasoning over the slices. See the module
/// docs for the layering contract.
#[derive(Debug)]
pub struct CexCache {
    exact: [Mutex<ExactShard>; SHARDS],
    unsat_index: [Mutex<IndexShard>; SHARDS],
    sat_index: [Mutex<IndexShard>; SHARDS],
    capacity: usize,
}

impl Default for CexCache {
    fn default() -> CexCache {
        CexCache::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Shard contents are plain maps; a panic mid-operation cannot leave
    // them logically inconsistent, so poisoning is benign.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Two-pointer subset test over sorted fingerprint keys.
fn is_subset(sub: &[u128], sup: &[u128]) -> bool {
    let mut it = sup.iter();
    'outer: for x in sub {
        for y in it.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

impl CexCache {
    /// Creates an empty cache with the default per-shard capacity.
    pub fn new() -> CexCache {
        CexCache::with_capacity(DEFAULT_SHARD_CAPACITY)
    }

    /// Creates an empty cache holding at most `per_shard` exact entries
    /// (and `per_shard` index buckets) per shard, evicted FIFO.
    pub fn with_capacity(per_shard: usize) -> CexCache {
        CexCache {
            exact: std::array::from_fn(|_| Mutex::new(ExactShard::default())),
            unsat_index: std::array::from_fn(|_| Mutex::new(IndexShard::default())),
            sat_index: std::array::from_fn(|_| Mutex::new(IndexShard::default())),
            capacity: per_shard.max(1),
        }
    }

    fn exact_shard(&self, key: &[u128]) -> &Mutex<ExactShard> {
        let folded = key
            .iter()
            .fold(0u64, |acc, fp| acc.rotate_left(7) ^ (*fp as u64));
        &self.exact[(folded as usize) % SHARDS]
    }

    fn index_shard(index: &[Mutex<IndexShard>; SHARDS], min_fp: u128) -> &Mutex<IndexShard> {
        &index[(min_fp as usize) % SHARDS]
    }

    /// The canonical cached result for exactly this key, if present.
    pub fn lookup_exact(&self, key: &[u128]) -> Option<SatResult> {
        lock(self.exact_shard(key)).map.get(key).cloned()
    }

    /// Whether some cached UNSAT key is a subset of `key` (which proves
    /// `key` UNSAT). `key` must be sorted.
    pub fn subset_unsat(&self, key: &[u128]) -> bool {
        for &fp in key {
            let shard = lock(Self::index_shard(&self.unsat_index, fp));
            if let Some(bucket) = shard.map.get(&fp) {
                if bucket.iter().any(|cand| is_subset(cand, key)) {
                    return true;
                }
            }
        }
        false
    }

    /// Cached models of strict subsets of `key`, as candidate witnesses,
    /// in deterministic (index) order, at most `limit` of them.
    pub fn subset_models(&self, key: &[u128], limit: usize) -> Vec<Model> {
        let mut out = Vec::new();
        for &fp in key {
            let candidates: Vec<Vec<u128>> = {
                let shard = lock(Self::index_shard(&self.sat_index, fp));
                match shard.map.get(&fp) {
                    Some(bucket) => bucket
                        .iter()
                        .filter(|cand| cand.len() < key.len() && is_subset(cand, key))
                        .cloned()
                        .collect(),
                    None => Vec::new(),
                }
            };
            for cand in candidates {
                // The model lives in the exact map; it may have been
                // evicted since it was indexed — then the index entry is
                // just stale and the candidate is skipped.
                if let Some(SatResult::Sat(m)) = self.lookup_exact(&cand) {
                    out.push(m);
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
        }
        out
    }

    /// Stores the canonical result of a whole query under `key` (sorted
    /// fingerprints), unindexed. Returns the number of entries evicted to
    /// make room.
    pub(crate) fn insert_query(&self, key: Vec<u128>, result: SatResult) -> u64 {
        let mut shard = lock(self.exact_shard(&key));
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

    /// Stores the canonical result of a slice under `key` (sorted
    /// fingerprints) and indexes it for subset reasoning. Returns the
    /// number of entries evicted to make room.
    pub fn insert(&self, key: Vec<u128>, result: SatResult) -> u64 {
        let min_fp = match key.first() {
            Some(&fp) => fp,
            None => return 0,
        };
        let index = match result {
            SatResult::Sat(_) => &self.sat_index,
            SatResult::Unsat => &self.unsat_index,
        };
        let mut evicted = self.insert_query(key.clone(), result);
        let mut shard = lock(Self::index_shard(index, min_fp));
        if !shard.map.contains_key(&min_fp) {
            if shard.map.len() >= self.capacity {
                if let Some(old) = shard.order.pop_front() {
                    shard.map.remove(&old);
                    evicted += 1;
                }
            }
            shard.order.push_back(min_fp);
            shard.map.insert(min_fp, Vec::new());
        }
        let bucket = shard.map.get_mut(&min_fp).expect("bucket just ensured");
        if bucket.len() < INDEX_KEYS_PER_FP && !bucket.contains(&key) {
            bucket.push(key);
        }
        evicted
    }

    /// Number of exact entries across all shards.
    pub fn len(&self) -> usize {
        self.exact.iter().map(|s| lock(s).map.len()).sum()
    }

    /// Whether the cache holds no exact entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(pairs: &[(&str, u64)]) -> Model {
        let mut m = Model::new();
        for (k, v) in pairs {
            m.insert((*k).to_string(), *v);
        }
        m
    }

    #[test]
    fn subset_test_is_order_aware() {
        assert!(is_subset(&[], &[1, 2, 3]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(is_subset(&[1, 2, 3], &[1, 2, 3]));
        assert!(!is_subset(&[4], &[1, 2, 3]));
        assert!(!is_subset(&[1, 2, 3, 4], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[1, 2, 3]));
    }

    #[test]
    fn exact_roundtrip_and_subset_unsat() {
        let cache = CexCache::new();
        cache.insert(vec![10, 20], SatResult::Unsat);
        assert_eq!(cache.lookup_exact(&[10, 20]), Some(SatResult::Unsat));
        assert_eq!(cache.lookup_exact(&[10]), None);
        // A superset of a cached UNSAT key is UNSAT.
        assert!(cache.subset_unsat(&[5, 10, 20, 30]));
        assert!(!cache.subset_unsat(&[10, 30]));
    }

    #[test]
    fn subset_models_come_from_sat_subsets_only() {
        let cache = CexCache::new();
        cache.insert(vec![10], SatResult::Sat(model(&[("x", 1)])));
        cache.insert(vec![20], SatResult::Unsat);
        cache.insert(vec![10, 30], SatResult::Sat(model(&[("x", 3)])));
        let ms = cache.subset_models(&[10, 20, 30], 8);
        // {10} and {10, 30} are SAT subsets; {20} is UNSAT and skipped.
        assert_eq!(ms.len(), 2);
        // The full key itself is never a "subset" candidate.
        let none = cache.subset_models(&[10], 8);
        assert!(none.is_empty());
    }

    #[test]
    fn eviction_is_fifo_and_counted() {
        let cache = CexCache::with_capacity(2);
        // Keys engineered into one shard: the shard fold of a 1-element
        // key is fp % 16, so multiples of 16 collide.
        assert_eq!(cache.insert(vec![16], SatResult::Unsat), 0);
        assert_eq!(cache.insert(vec![32], SatResult::Unsat), 0);
        // Evicts the exact entry [16]; its index shard (16 % 16 = 0) is
        // the one [32] and [48] map to as well, so a bucket goes too.
        assert_eq!(cache.insert(vec![48], SatResult::Unsat), 2);
        assert_eq!(cache.lookup_exact(&[16]), None);
        assert_eq!(cache.lookup_exact(&[32]), Some(SatResult::Unsat));
        assert_eq!(cache.lookup_exact(&[48]), Some(SatResult::Unsat));
    }
}
