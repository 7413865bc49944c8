//! One 4 KiB physical frame with adaptive backing.
//!
//! Page tables are sparse: a typical page-table page holds a handful of live
//! PTEs out of 512 slots. Backing every touched frame with 4 KiB would make
//! the 30 000-process fork-stress experiment (paper §V-D1) cost gigabytes of
//! host memory, so a frame starts as all-zero, is promoted to a sparse
//! 8-byte-word map on first write, and only becomes a dense byte array when
//! it accumulates enough distinct words. A frame is written a whole word at
//! a time: [`crate::PhysMem`] merges a sub-word write into its word first.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use ptstore_core::{Fnv1a, PAGE_SIZE};

/// 8-byte words in one frame.
pub const PAGE_WORDS: usize = (PAGE_SIZE / 8) as usize;

/// Number of distinct 8-byte words after which a sparse frame is promoted to
/// dense backing.
const DENSE_PROMOTION_WORDS: usize = 96;

/// Multiply-shift hasher for the 9-bit word indices. The default SipHash
/// is DoS-resistant but costs more than the modeled memory access it keys;
/// word indices are attacker-independent model state, so a single odd
/// multiply (Fibonacci hashing) is enough to spread the low bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordIndexHasher(u64);

impl Hasher for WordIndexHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.0 = u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The word map: a `HashMap` whose hash is one multiply.
pub type WordMap = HashMap<u16, u64, BuildHasherDefault<WordIndexHasher>>;

/// A 4 KiB physical frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Frame {
    /// Never written: reads as zero.
    #[default]
    Zero,
    /// Sparse backing: 8-byte words keyed by word index within the page.
    /// Absent words read as zero.
    Words(WordMap),
    /// Dense backing: the full page.
    Dense(Box<[u8; PAGE_SIZE as usize]>),
}

impl Frame {
    /// A fresh all-zero frame.
    pub fn new() -> Self {
        Frame::Zero
    }

    /// Reads an aligned 8-byte word. `word_index` is the offset divided by 8.
    ///
    /// # Panics
    /// Panics if `word_index >= 512`.
    #[inline]
    pub fn read_word(&self, word_index: u16) -> u64 {
        assert!((word_index as u64) < PAGE_SIZE / 8);
        match self {
            Frame::Zero => 0,
            Frame::Words(map) => map.get(&word_index).copied().unwrap_or(0),
            Frame::Dense(bytes) => {
                let off = word_index as usize * 8;
                u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
            }
        }
    }

    /// Writes an aligned 8-byte word, promoting the backing as needed.
    ///
    /// # Panics
    /// Panics if `word_index >= 512`.
    #[inline]
    pub fn write_word(&mut self, word_index: u16, value: u64) {
        assert!((word_index as u64) < PAGE_SIZE / 8);
        match self {
            Frame::Zero => {
                if value != 0 {
                    let mut map = WordMap::default();
                    map.insert(word_index, value);
                    *self = Frame::Words(map);
                }
            }
            Frame::Words(map) => {
                if value == 0 {
                    map.remove(&word_index);
                } else {
                    map.insert(word_index, value);
                    if map.len() > DENSE_PROMOTION_WORDS {
                        self.promote_to_dense();
                    }
                }
            }
            Frame::Dense(bytes) => {
                let off = word_index as usize * 8;
                bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
            }
        }
    }

    /// Reads `out.len()` consecutive words from word index `first` into
    /// `out`: one pass over the backing, where as many [`Self::read_word`]
    /// calls would make one map probe each.
    ///
    /// # Panics
    /// Panics if the words run past the end of the frame.
    #[inline]
    pub(crate) fn read_words(&self, first: usize, out: &mut [u64]) {
        let range = first..first + out.len();
        assert!(range.end <= PAGE_WORDS, "words {range:?} leave the frame");
        match self {
            Frame::Zero => out.fill(0),
            Frame::Words(map) => {
                out.fill(0);
                for (&i, &v) in map {
                    if range.contains(&usize::from(i)) {
                        out[usize::from(i) - first] = v;
                    }
                }
            }
            Frame::Dense(bytes) => {
                let chunks = bytes[8 * first..8 * range.end].chunks_exact(8);
                for (w, chunk) in out.iter_mut().zip(chunks) {
                    *w = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                }
            }
        }
    }

    /// True when every byte of the frame is zero. Used by the kernel's
    /// zero-check defense against allocator-metadata attacks (paper §V-E3).
    #[inline]
    pub fn is_zero(&self) -> bool {
        match self {
            Frame::Zero => true,
            Frame::Words(map) => map.values().all(|&v| v == 0),
            Frame::Dense(bytes) => bytes.iter().all(|&b| b == 0),
        }
    }

    /// Resets the frame to all-zero, releasing its backing.
    #[inline]
    pub fn clear(&mut self) {
        *self = Frame::Zero;
    }

    /// The frame's non-zero words as `(index, word)` pairs in ascending
    /// index order: the same listing whichever backing (zero / sparse /
    /// dense) holds them, and for sparse frames as long as the words they
    /// hold rather than the page. [`Self::content_digest`] folds it, and
    /// the page-table scan reads its entries from it; a zero word is never
    /// a valid PTE.
    pub fn nonzero_words(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        let mut sparse: Vec<(u16, u64)> = match self {
            Frame::Words(map) => map
                .iter()
                .filter(|&(_, &v)| v != 0)
                .map(|(&i, &v)| (i, v))
                .collect(),
            _ => Vec::new(),
        };
        sparse.sort_unstable();
        let dense: &[u8] = match self {
            Frame::Dense(bytes) => &bytes[..],
            _ => &[],
        };
        let dense = (0..).zip(dense.chunks_exact(8)).filter_map(|(i, chunk)| {
            let v = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            (v != 0).then_some((i, v))
        });
        sparse.into_iter().chain(dense)
    }

    /// FNV-1a digest of the frame's contents: the `(index, value)` pairs of
    /// [`Self::nonzero_words`], folded in order — therefore identical for
    /// equal contents regardless of which backing representation holds
    /// them. The model checker's canonical state hash folds every
    /// reachable page-table page through this instead of 512
    /// bounds-checked bus reads.
    pub fn content_digest(&self) -> u64 {
        let mut f = Fnv1a::new();
        for (i, v) in self.nonzero_words() {
            f.write_u64(u64::from(i));
            f.write_u64(v);
        }
        f.finish()
    }

    /// Approximate host-memory footprint of the backing, for diagnostics.
    pub fn backing_bytes(&self) -> usize {
        match self {
            Frame::Zero => 0,
            Frame::Words(map) => map.len() * 16,
            Frame::Dense(_) => PAGE_SIZE as usize,
        }
    }

    fn promote_to_dense(&mut self) {
        if let Frame::Words(map) = self {
            let mut bytes = Box::new([0u8; PAGE_SIZE as usize]);
            for (&wi, &v) in map.iter() {
                let off = wi as usize * 8;
                bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
            }
            *self = Frame::Dense(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use ptstore_core::{PhysAddr, PhysPageNum};

    use super::*;
    use crate::PhysMem;

    #[test]
    fn zero_frame_reads_zero() {
        let f = Frame::new();
        assert_eq!(f.read_word(0), 0);
        assert_eq!(f.read_word(511), 0);
        assert!(f.is_zero());
        assert_eq!(f.backing_bytes(), 0);
        // A page never written reads zero through the byte path too.
        let m = PhysMem::new(PAGE_SIZE);
        assert_eq!(m.read_u8(PhysAddr::new(4095)).expect("in range"), 0);
        assert!(matches!(m.page(PhysPageNum::new(0)), Ok(Frame::Zero)));
    }

    #[test]
    fn word_write_read_round_trip() {
        let mut f = Frame::new();
        f.write_word(3, 0xdead_beef_cafe_f00d);
        assert_eq!(f.read_word(3), 0xdead_beef_cafe_f00d);
        assert_eq!(f.read_word(2), 0);
        assert!(!f.is_zero());
        assert!(matches!(f, Frame::Words(_)));
    }

    #[test]
    fn writing_zero_to_zero_frame_stays_zero() {
        let mut f = Frame::new();
        f.write_word(0, 0);
        assert!(matches!(f, Frame::Zero));
    }

    #[test]
    fn zeroing_last_word_makes_frame_zero_again() {
        let mut f = Frame::new();
        f.write_word(7, 42);
        f.write_word(7, 0);
        assert!(f.is_zero());
    }

    #[test]
    fn byte_access_within_words() {
        let mut m = PhysMem::new(PAGE_SIZE);
        let (page, byte) = (PhysPageNum::new(0), PhysAddr::new(10));
        m.write_u8(byte, 0xAB).expect("in range");
        assert_eq!(m.read_u8(byte).expect("in range"), 0xAB);
        // Byte 10 lives in word 1 at lane 2.
        let f = m.page(page).expect("in range");
        assert!(matches!(f, Frame::Words(_)));
        assert_eq!(f.read_word(1), 0xAB_u64 << 16);
        m.write_u8(byte, 0).expect("in range");
        assert!(m.page(page).expect("in range").is_zero());
    }

    #[test]
    fn promotion_to_dense_preserves_content() {
        let mut f = Frame::new();
        for i in 0..(DENSE_PROMOTION_WORDS as u16 + 8) {
            f.write_word(i, i as u64 + 1);
        }
        assert!(matches!(f, Frame::Dense(_)));
        for i in 0..(DENSE_PROMOTION_WORDS as u16 + 8) {
            assert_eq!(f.read_word(i), i as u64 + 1);
        }
        assert_eq!(f.read_word(500), 0);
    }

    #[test]
    fn dense_byte_ops() {
        let mut m = PhysMem::new(PAGE_SIZE);
        let (page, byte) = (PhysPageNum::new(0), PhysAddr::new(4095));
        for i in 0..(DENSE_PROMOTION_WORDS as u64 + 8) {
            m.write_u64(PhysAddr::new(8 * i), u64::MAX)
                .expect("in range");
        }
        assert!(matches!(m.page(page), Ok(Frame::Dense(_))));
        m.write_u8(byte, 0x7f).expect("in range");
        assert_eq!(m.read_u8(byte).expect("in range"), 0x7f);
        // The byte landed in the top lane of the last word, in place.
        let f = m.page(page).expect("in range");
        assert!(matches!(f, Frame::Dense(_)));
        assert_eq!(f.read_word(511), 0x7f << 56);
        assert!(!f.is_zero());
        m.zero_page(page);
        assert!(m.page_is_zero(page));
        assert!(matches!(m.page(page), Ok(Frame::Zero)));
    }

    #[test]
    #[should_panic]
    fn out_of_range_word_panics() {
        Frame::new().read_word(512);
    }

    #[test]
    fn content_digest_is_representation_independent() {
        // Zero vs never-written sparse vs zero-filled dense: same digest,
        // the empty fold.
        assert_eq!(Frame::Zero.content_digest(), Fnv1a::new().finish());
        let mut sparse = Frame::new();
        sparse.write_word(9, 1);
        sparse.write_word(9, 0);
        assert_eq!(sparse.content_digest(), Fnv1a::new().finish());

        // Sparse vs dense with identical contents: same digest.
        let mut a = Frame::new();
        a.write_word(3, 0xdead_beef);
        let mut b = Frame::new();
        for i in 0..(DENSE_PROMOTION_WORDS as u16 + 8) {
            b.write_word(i, 7);
        }
        assert!(matches!(b, Frame::Dense(_)));
        for i in 0..(DENSE_PROMOTION_WORDS as u16 + 8) {
            b.write_word(i, 0);
        }
        b.write_word(3, 0xdead_beef);
        assert!(matches!(b, Frame::Dense(_)));
        assert_eq!(a.content_digest(), b.content_digest());

        // And it matches the definitional fold over non-zero words.
        let mut f = Fnv1a::new();
        for i in 0..512u16 {
            let v = a.read_word(i);
            if v != 0 {
                f.write_u64(u64::from(i));
                f.write_u64(v);
            }
        }
        assert_eq!(a.content_digest(), f.finish());
    }
}
