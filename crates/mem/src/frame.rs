//! One 4 KiB physical frame with adaptive backing.
//!
//! Page tables are sparse: a typical page-table page holds a handful of live
//! PTEs out of 512 slots. Backing every touched frame with 4 KiB would make
//! the 30 000-process fork-stress experiment (paper §V-D1) cost gigabytes of
//! host memory, so a frame starts as all-zero, becomes on first write a
//! sparse listing of its non-zero 8-byte words in index order, and only
//! becomes a dense byte array when it holds more than 96 of them. A frame
//! is written a whole word at a time: [`crate::PhysMem`] merges a sub-word
//! write into its word first.

use ptstore_core::PAGE_SIZE;

/// 8-byte words in one frame.
pub const PAGE_WORDS: usize = (PAGE_SIZE / 8) as usize;

/// Number of non-zero 8-byte words after which a sparse frame is promoted to
/// dense backing.
const DENSE_PROMOTION_WORDS: usize = 96;

/// Words of a [`SparseWords`] presence bitmap: one bit per word of the
/// frame.
const BITMAP: usize = PAGE_WORDS / 64;

/// Words of a [`SparseWords`] header: the bitmap, then the packed prefix
/// counts.
const HEADER: usize = BITMAP + 1;

/// A frame is at most three words, so a 512-frame chunk copy moves 12 KiB.
const _: () = assert!(size_of::<Frame>() <= 24);

/// A sparse frame's non-zero words in index order, behind a rank index, in
/// one allocation:
///
/// * words `0..8`, the presence bitmap: bit `i % 64` of word `i / 64` is set
///   when word `i` of the frame is non-zero;
/// * word 8, the prefix counts: byte `b` holds the number of bits set in
///   bitmap words `0..b` (at most 97, so a byte holds it);
/// * the rest, the listing: the non-zero words in index order.
///
/// Word `i` is at the rank of its bit in the listing: byte `i / 64` of the
/// counts plus the bits set below it in its bitmap word, one masked
/// popcount. A write that adds or removes a word moves the listing's tail,
/// and the `Vec` amortises its growth. The listing is never empty: removing
/// its last word makes the frame [`Frame::Zero`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseWords(Vec<u64>);

impl SparseWords {
    /// The listing of a frame whose one non-zero word is `value` at `index`.
    fn one(index: usize, value: u64) -> Self {
        let mut words = Vec::with_capacity(HEADER + 1);
        words.resize(HEADER, 0);
        let mut sparse = SparseWords(words);
        sparse.set(index, value);
        sparse
    }

    /// The header and the listing.
    #[inline]
    fn parts(&self) -> (&[u64; HEADER], &[u64]) {
        self.0
            .split_first_chunk()
            .expect("a sparse frame starts with its header")
    }

    /// Whether word `index` is listed, and where it is or would go in the
    /// listing.
    #[inline]
    fn locate(head: &[u64; HEADER], index: usize) -> (bool, usize) {
        let (bits, b) = (head[index / 64], index % 64);
        let before = (head[BITMAP] >> (8 * (index / 64))) as u8;
        let rank = usize::from(before) + (bits & ((1 << b) - 1)).count_ones() as usize;
        (bits >> b & 1 == 1, rank)
    }

    /// Word `index`; an unlisted word reads as zero.
    #[inline]
    fn get(&self, index: usize) -> u64 {
        let (head, listing) = self.parts();
        match Self::locate(head, index) {
            (true, rank) => listing[rank],
            (false, _) => 0,
        }
    }

    /// Sets word `index` to `value`, listing or unlisting it as needed.
    fn set(&mut self, index: usize, value: u64) {
        let (present, rank) = Self::locate(self.parts().0, index);
        let (w, bit) = (index / 64, 1 << (index % 64));
        // One in each count byte above `w`: the counts that include `bit`.
        let above = (0x0101_0101_0101_0101_u64 << (8 * w)) << 8;
        match (present, value != 0) {
            (true, true) => self.0[HEADER + rank] = value,
            (true, false) => {
                self.0[w] &= !bit;
                self.0[BITMAP] -= above;
                self.0.remove(HEADER + rank);
            }
            (false, true) => {
                self.0[w] |= bit;
                self.0[BITMAP] += above;
                self.0.insert(HEADER + rank, value);
            }
            (false, false) => {}
        }
    }

    /// Number of listed words.
    #[inline]
    fn len(&self) -> usize {
        self.0.len() - HEADER
    }

    /// The listed words as `(index, word)` pairs in index order: each
    /// listed word takes the next set bit of the bitmap as its index.
    #[inline]
    fn iter(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        let (head, listing) = self.parts();
        let bitmap = &head[..BITMAP];
        let (mut w, mut rest) = (0, bitmap[0]);
        listing.iter().map(move |&word| {
            // The bitmap has one set bit per listed word.
            while rest == 0 {
                w += 1;
                rest = bitmap[w];
            }
            let index = 64 * w as u16 + rest.trailing_zeros() as u16;
            rest &= rest - 1;
            (index, word)
        })
    }
}

/// A 4 KiB physical frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Frame {
    /// Never written: reads as zero.
    #[default]
    Zero,
    /// Sparse backing: the non-zero 8-byte words, in index order. Absent
    /// words read as zero.
    Sparse(SparseWords),
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
            Frame::Sparse(words) => words.get(word_index.into()),
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
                    *self = Frame::Sparse(SparseWords::one(word_index.into(), value));
                }
            }
            Frame::Sparse(words) => {
                words.set(word_index.into(), value);
                match words.len() {
                    0 => *self = Frame::Zero,
                    n if n > DENSE_PROMOTION_WORDS => self.promote_to_dense(),
                    _ => {}
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
    /// calls would locate each word on its own.
    ///
    /// # Panics
    /// Panics if the words run past the end of the frame.
    #[inline]
    pub(crate) fn read_words(&self, first: usize, out: &mut [u64]) {
        let range = first..first + out.len();
        assert!(range.end <= PAGE_WORDS, "words {range:?} leave the frame");
        match self {
            Frame::Zero => out.fill(0),
            Frame::Sparse(words) => {
                out.fill(0);
                for (i, v) in words.iter() {
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
            // A sparse listing is never empty.
            Frame::Sparse(_) => false,
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
    /// dense) holds them. A sparse frame lends its own listing, so this
    /// costs the words it holds rather than the page. The page-table scan
    /// reads its entries from it (a zero word is never a valid PTE), and
    /// the model checker's canonical state hashes it.
    #[inline]
    pub fn nonzero_words(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        let sparse = match self {
            Frame::Sparse(words) => Some(words.iter()),
            _ => None,
        };
        let dense: &[u8] = match self {
            Frame::Dense(bytes) => &bytes[..],
            _ => &[],
        };
        let dense = (0..).zip(dense.chunks_exact(8)).filter_map(|(i, chunk)| {
            let v = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            (v != 0).then_some((i, v))
        });
        sparse.into_iter().flatten().chain(dense)
    }

    fn promote_to_dense(&mut self) {
        let mut bytes = Box::new([0u8; PAGE_SIZE as usize]);
        for (i, v) in self.nonzero_words() {
            let off = usize::from(i) * 8;
            bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
        }
        *self = Frame::Dense(bytes);
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
        assert!(matches!(f, Frame::Zero));
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
        assert!(matches!(f, Frame::Sparse(_)));
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
        assert!(matches!(f, Frame::Sparse(_)));
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
    fn listing_is_representation_independent() {
        let listing = |f: &Frame| f.nonzero_words().collect::<Vec<_>>();
        // Zero vs emptied sparse vs zero-filled dense: the empty listing.
        assert_eq!(listing(&Frame::Zero), []);
        let mut sparse = Frame::new();
        sparse.write_word(9, 1);
        sparse.write_word(9, 0);
        assert_eq!(listing(&sparse), []);

        // Sparse vs dense with identical contents: the same listing.
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
        assert_eq!(listing(&a), listing(&b));

        // And it is the definitional list of non-zero words.
        let nonzero: Vec<(u16, u64)> = (0..512u16)
            .map(|i| (i, a.read_word(i)))
            .filter(|&(_, v)| v != 0)
            .collect();
        assert_eq!(listing(&a), nonzero);
    }
}
