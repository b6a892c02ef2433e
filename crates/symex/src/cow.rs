//! Copy-on-write persistent containers for snapshot forking.
//!
//! A fork must capture the forking path's live state — concretization
//! journal, register words, scheduler maps — in O(changed state), not
//! O(total state). [`CowVec`] is the workhorse: an Arc-chunked vector
//! whose clone is a handful of reference-count bumps. Writes go through
//! [`Arc::make_mut`], so a chunk is deep-copied only the first time a
//! fork diverges from its siblings inside that chunk (clone-on-first-
//! write). [`CowEnv`] layers a name → value environment on top for
//! snapshot-friendly variable maps.

use std::collections::HashMap;
use std::sync::Arc;

/// Entries per chunk. Small enough that a diverging write copies little,
/// large enough that a clone touches few Arcs. 32 words ≈ one cache line
/// of pointers per 1024 entries.
const CHUNK: usize = 32;

/// A persistent vector: `clone` is O(len / CHUNK) reference-count bumps,
/// and a write after a clone copies only the chunk it lands in.
///
/// # Example
///
/// ```
/// use symsc_symex::cow::CowVec;
///
/// let mut a: CowVec<u64> = CowVec::new();
/// a.push(1);
/// a.push(2);
/// let b = a.clone();      // O(chunks), shares storage
/// a.set(0, 99);           // copies one chunk; b is untouched
/// assert_eq!(a.get(0), Some(&99));
/// assert_eq!(b.get(0), Some(&1));
/// ```
#[derive(Clone, Debug)]
pub struct CowVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T: Clone> Default for CowVec<T> {
    fn default() -> CowVec<T> {
        CowVec::new()
    }
}

impl<T: Clone> CowVec<T> {
    /// An empty vector.
    pub fn new() -> CowVec<T> {
        CowVec {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        self.chunks[index / CHUNK].get(index % CHUNK)
    }

    /// Overwrites the entry at `index`, copying its chunk if shared.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize, value: T) {
        assert!(index < self.len, "CowVec::set out of range");
        let chunk = Arc::make_mut(&mut self.chunks[index / CHUNK]);
        chunk[index % CHUNK] = value;
    }

    /// Appends an entry, copying the last chunk if shared.
    pub fn push(&mut self, value: T) {
        if self.len.is_multiple_of(CHUNK) {
            let mut fresh = Vec::with_capacity(CHUNK);
            fresh.push(value);
            self.chunks.push(Arc::new(fresh));
        } else {
            let chunk = Arc::make_mut(self.chunks.last_mut().expect("partial chunk"));
            chunk.push(value);
        }
        self.len += 1;
    }

    /// Shortens the vector to `new_len` entries (no-op if already shorter).
    pub fn truncate(&mut self, new_len: usize) {
        if new_len >= self.len {
            return;
        }
        let keep_chunks = new_len.div_ceil(CHUNK);
        self.chunks.truncate(keep_chunks);
        if !new_len.is_multiple_of(CHUNK) {
            let chunk = Arc::make_mut(self.chunks.last_mut().expect("partial chunk"));
            chunk.truncate(new_len % CHUNK);
        }
        self.len = new_len;
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// Iterates over the entries in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Builds a vector from an iterator of entries.
    pub fn from_iter_items(items: impl IntoIterator<Item = T>) -> CowVec<T> {
        let mut v = CowVec::new();
        for item in items {
            v.push(item);
        }
        v
    }
}

impl<T: Clone> FromIterator<T> for CowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> CowVec<T> {
        CowVec::from_iter_items(iter)
    }
}

impl<T: Clone + PartialEq> PartialEq for CowVec<T> {
    fn eq(&self, other: &CowVec<T>) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Clone + Eq> Eq for CowVec<T> {}

/// A persistent `name -> u64` environment with fork semantics.
///
/// Bindings live in a [`CowVec`] of slots; the name → slot index map is
/// Arc-shared and copied only when a *new* name is bound after a fork.
/// Assigning an existing name touches one slot chunk. [`fork`](CowEnv::fork)
/// is therefore O(chunks) and two forks never observe each other's writes.
#[derive(Clone, Debug, Default)]
pub struct CowEnv {
    index: Arc<HashMap<String, usize>>,
    slots: CowVec<u64>,
}

impl CowEnv {
    /// An empty environment.
    pub fn new() -> CowEnv {
        CowEnv::default()
    }

    /// Number of bound names.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no names are bound.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Binds `name` to `value`, creating the binding if absent.
    pub fn bind(&mut self, name: &str, value: u64) {
        if let Some(&slot) = self.index.get(name) {
            self.slots.set(slot, value);
            return;
        }
        let index = Arc::make_mut(&mut self.index);
        index.insert(name.to_string(), self.slots.len());
        self.slots.push(value);
    }

    /// Overwrites an existing binding; returns `false` if `name` is unbound.
    pub fn assign(&mut self, name: &str, value: u64) -> bool {
        match self.index.get(name) {
            Some(&slot) => {
                self.slots.set(slot, value);
                true
            }
            None => false,
        }
    }

    /// The value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.index
            .get(name)
            .map(|&slot| *self.slots.get(slot).expect("slot in range"))
    }

    /// A copy-on-write fork: O(chunks) now, divergence pays per chunk.
    pub fn fork(&self) -> CowEnv {
        self.clone()
    }

    /// Flattens into an ordinary map (e.g. for the term evaluator).
    pub fn to_map(&self) -> HashMap<String, u64> {
        self.index
            .iter()
            .map(|(name, &slot)| (name.clone(), *self.slots.get(slot).expect("slot in range")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_round_trip_across_chunks() {
        let mut v = CowVec::new();
        for i in 0..100u64 {
            v.push(i);
        }
        assert_eq!(v.len(), 100);
        for i in 0..100u64 {
            assert_eq!(v.get(i as usize), Some(&i));
        }
        assert_eq!(v.get(100), None);
        let collected: Vec<u64> = v.iter().copied().collect();
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clone_shares_until_written() {
        let mut a: CowVec<u64> = (0..64).collect();
        let b = a.clone();
        a.set(0, 999);
        a.set(63, 888);
        assert_eq!(b.get(0), Some(&0));
        assert_eq!(b.get(63), Some(&63));
        assert_eq!(a.get(0), Some(&999));
        assert_eq!(a.get(63), Some(&888));
        assert_eq!(a.get(1), b.get(1), "untouched entries stay shared");
    }

    #[test]
    fn push_after_clone_does_not_leak_into_sibling() {
        let mut a: CowVec<u64> = (0..33).collect(); // partial second chunk
        let mut b = a.clone();
        a.push(100);
        b.push(200);
        assert_eq!(a.len(), 34);
        assert_eq!(b.len(), 34);
        assert_eq!(a.get(33), Some(&100));
        assert_eq!(b.get(33), Some(&200));
    }

    #[test]
    fn truncate_drops_tail_only() {
        let mut a: CowVec<u64> = (0..70).collect();
        let b = a.clone();
        a.truncate(40);
        assert_eq!(a.len(), 40);
        assert_eq!(a.get(39), Some(&39));
        assert_eq!(a.get(40), None);
        assert_eq!(b.len(), 70, "sibling unaffected");
        a.truncate(500);
        assert_eq!(a.len(), 40, "growing truncate is a no-op");
        a.truncate(0);
        assert!(a.is_empty());
    }

    #[test]
    fn equality_is_structural() {
        let a: CowVec<u64> = (0..50).collect();
        let mut b: CowVec<u64> = (0..50).collect();
        assert_eq!(a, b);
        b.set(17, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn env_bind_assign_get() {
        let mut env = CowEnv::new();
        assert!(env.is_empty());
        env.bind("x", 1);
        env.bind("y", 2);
        assert_eq!(env.get("x"), Some(1));
        assert_eq!(env.get("y"), Some(2));
        assert_eq!(env.get("z"), None);
        assert!(env.assign("x", 10));
        assert!(!env.assign("z", 10));
        assert_eq!(env.get("x"), Some(10));
        env.bind("x", 11); // bind on existing name assigns
        assert_eq!(env.get("x"), Some(11));
        assert_eq!(env.len(), 2);
    }

    #[test]
    fn env_forks_are_isolated() {
        let mut parent = CowEnv::new();
        for i in 0..40u64 {
            parent.bind(&format!("v{i}"), i);
        }
        let mut left = parent.fork();
        let mut right = parent.fork();
        left.assign("v3", 1000);
        right.bind("fresh", 7);
        right.assign("v3", 2000);
        assert_eq!(parent.get("v3"), Some(3));
        assert_eq!(left.get("v3"), Some(1000));
        assert_eq!(right.get("v3"), Some(2000));
        assert_eq!(left.get("fresh"), None);
        assert_eq!(right.get("fresh"), Some(7));
        assert_eq!(parent.to_map().len(), 40);
        assert_eq!(right.to_map().len(), 41);
    }
}
