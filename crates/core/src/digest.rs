//! Deterministic hashing: FNV-1a for fingerprints, and a word hasher for
//! the canonical state digest and the kernel's hash maps.
//!
//! Several layers of the model need a stable, platform-independent digest of
//! some canonical listing: the hwcost timing model derives deterministic
//! place-and-route jitter from the design name, the bounded model checker
//! folds the state digests it discovers into one exploration hash, and the
//! golden tests pin digests of whole runs. All of them use 64-bit FNV-1a
//! with the standard offset basis and prime so that digests are
//! reproducible across hosts, processes, and `--jobs` settings.
//!
//! [`WordHasher`] takes each integer as one 64-bit step instead of eight
//! byte steps. The model checker's per-state canonical digest
//! (`ptstore-modelcheck`'s `canon`) feeds it every field of a state, and
//! every hash map in `ptstore-kernel` is a [`WordHashMap`]: keyed by page
//! numbers, object addresses, ids and paths, with no per-process seed, so
//! a map costs one multiply per integer key and behaves the same in every
//! run.

use core::hash::{BuildHasherDefault, Hasher};
use std::collections::HashMap;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
///
/// ```
/// use ptstore_core::digest::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write(b"hart0 itlb ...");
/// h.write_u8(b'\n');
/// let digest = h.finish();
/// assert_eq!(digest, Fnv1a::hash_bytes(b"hart0 itlb ...\n"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET_BASIS)
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest accumulated so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// One-shot digest of a byte slice.
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }
}

/// A word-at-a-time hasher. Each integer is one step: the state xor the
/// integer, times an odd constant as a 64×64→128-bit product, whose two
/// halves xored are the new state. `usize` is widened to 64 bits, and the
/// signed types go through their unsigned twins (`Hasher`'s defaults). A
/// byte slice is its little-endian 8-byte words, then one tail word: the
/// last `len % 8` bytes with that count in the top byte.
/// [`Hasher::finish`] folds once more. There is no seed, so a hash is a
/// pure function of what was fed.
#[derive(Debug, Default)]
pub struct WordHasher(u64);

/// A `HashMap` hashed by [`WordHasher`]: deterministic, and one multiply
/// per integer key. Build one with `WordHashMap::default()`.
pub type WordHashMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Multiplies `x` by an odd constant (2^64 over the golden ratio) and
/// folds the 128-bit product to 64 bits.
#[inline]
fn fold(x: u64) -> u64 {
    let product = u128::from(x) * 0x9e37_79b9_7f4a_7c15;
    (product as u64) ^ (product >> 64) as u64
}

impl WordHasher {
    #[inline]
    fn step(&mut self, word: u64) {
        self.0 = fold(self.0 ^ word);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        fold(self.0)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.step(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let mut tail = [0; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        tail[7] = words.remainder().len() as u8;
        self.step(u64::from_le_bytes(tail));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.step(i.into());
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.step(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.step(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.step(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.step(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use core::hash::BuildHasher;

    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(Fnv1a::hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash_bytes(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Fnv1a::new();
        h.write(b"hello ");
        h.write(b"world");
        assert_eq!(h.finish(), Fnv1a::hash_bytes(b"hello world"));
    }

    #[test]
    fn the_word_hasher_takes_an_integer_as_one_word() {
        let hashed = |feed: &dyn Fn(&mut WordHasher)| {
            let mut h = WordHasher::default();
            feed(&mut h);
            h.finish()
        };
        let five = hashed(&|h| h.write_u64(5));
        assert_eq!(hashed(&|h| h.write_u16(5)), five);
        assert_eq!(hashed(&|h| h.write_usize(5)), five);
        assert_eq!(
            hashed(&|h| h.write_i64(-1)),
            hashed(&|h| h.write_u64(u64::MAX))
        );
        // Bytes: the whole little-endian words, then the tail tagged with
        // its length, so trailing zero bytes still count.
        let bytes = [1, 0, 0, 0, 0, 0, 0, 0, 2];
        let words = hashed(&|h| {
            h.write_u64(1);
            h.write_u64(2 | 1 << 56);
        });
        assert_eq!(hashed(&|h| h.write(&bytes)), words);
        assert_ne!(hashed(&|h| h.write(&[1])), hashed(&|h| h.write(&[1, 0])));
        // Pinned outputs: the canonical digest feeds this hasher, so a
        // change here moves every model-checker exploration hash.
        let map_hash = BuildHasherDefault::<WordHasher>::default();
        assert_eq!(map_hash.hash_one(5u64), 0xf4c8_6953_8318_23ff);
        assert_eq!(map_hash.hash_one("/srv/tenant.bin"), 0x9316_2de0_c5e4_ccb0);
    }
}
