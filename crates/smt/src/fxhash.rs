//! A multiply-rotate hasher for the solver's in-memory maps.
//!
//! Hash-consing hashes every term a model builds, the evaluator's memo
//! hashes every [`TermId`](crate::TermId) it visits, and below the term
//! layer the blaster, the AIG's structural hash and the CNF node map hash
//! every node of every query. All are private lookup structures keyed by
//! data the process built itself, so they need speed, not the flood
//! resistance SipHash buys with its per-process random keys. This is the Fx scheme (rustc's hasher): each
//! word is folded in as `(h.rotl(5) ^ word) * K`.
//!
//! Nothing may iterate a map built on this hasher into a fingerprint,
//! model or report: the iteration order is a function of the keys alone,
//! and is an unspecified one.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier: odd, so the multiply permutes the low bits that
/// `HashMap` takes its bucket index from.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The hasher state: one word.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` on [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` on [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn hashing_is_a_function_of_the_key_alone() {
        assert_eq!(hash_of(&"op3_kind"), hash_of(&"op3_kind"));
        assert_ne!(hash_of(&"op3_kind"), hash_of(&"op3_a"));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn dense_ids_land_in_distinct_buckets() {
        // The bucket index is the hash's low bits; an odd multiplier maps
        // distinct small ids to distinct low bits.
        let buckets: std::collections::BTreeSet<u64> =
            (0u32..1024).map(|i| hash_of(&i) & 1023).collect();
        assert_eq!(buckets.len(), 1024);
    }
}
