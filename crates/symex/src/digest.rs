//! An order-sensitive 128-bit FNV-1a accumulator.

/// FNV-1a over 128-bit words. Deterministic and pool-independent, like
/// everything it hashes.
fn fnv128(acc: u128, word: u128) -> u128 {
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    let mut h = acc;
    for chunk in [word as u64, (word >> 64) as u64] {
        h ^= u128::from(chunk);
        h = h.wrapping_mul(PRIME);
    }
    h
}

const FNV_OFFSET: u128 = 0x6C62_272E_07BB_0142_62B8_2175_6295_C58D;

/// An order-sensitive digest of 128-bit words, counters and byte
/// strings. Equal sequences of pushes fold to equal digests on every
/// host and in every build, which is what lets the campaign orchestrator
/// fingerprint its specs with it: a journal or store written by one
/// build resumes under another.
#[derive(Clone, Debug)]
pub struct StateDigest {
    h: u128,
}

impl StateDigest {
    /// A fresh digest (FNV-1a offset basis).
    pub fn new() -> StateDigest {
        StateDigest { h: FNV_OFFSET }
    }

    /// Folds a 128-bit word.
    pub fn push(&mut self, fingerprint: u128) {
        self.h = fnv128(self.h, fingerprint);
    }

    /// Folds a 64-bit value (counters, lengths).
    pub fn push_u64(&mut self, value: u64) {
        self.push(u128::from(value));
    }

    /// Folds a byte string, length-prefixed so distinct concatenations
    /// fold distinctly.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.push_u64(bytes.len() as u64);
        for b in bytes {
            self.push(u128::from(*b));
        }
    }

    /// Folds a string (UTF-8 bytes, length-prefixed).
    pub fn push_str(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// The folded 64-bit digest.
    pub fn finish(&self) -> u64 {
        (self.h as u64) ^ ((self.h >> 64) as u64)
    }
}

impl Default for StateDigest {
    fn default() -> StateDigest {
        StateDigest::new()
    }
}
