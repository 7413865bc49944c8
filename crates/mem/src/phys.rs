//! The physical frame store.

use ptstore_core::{AccessError, PhysAddr, PhysPageNum, PAGE_SIZE};

use crate::frame::{Frame, PAGE_WORDS};

/// Frames per second-level chunk. A chunk spans 2 MiB of physical memory,
/// so a 4 GiB machine needs a 2048-slot root table (16 KiB of pointers).
const CHUNK_FRAMES: u64 = 512;

/// Simulated physical memory: a bounded, sparse, two-level direct-indexed
/// table from physical page number to [`Frame`]. The root holds one slot per
/// 512-frame chunk; a chunk is allocated on the first write into its range,
/// so untouched regions cost nothing beyond the root table, and lookups are
/// two array indexings with no hashing. The prototype system carries a 4 GiB
/// DDR3 SO-DIMM (paper Table II).
#[derive(Debug, Clone, Default)]
pub struct PhysMem {
    chunks: Vec<Option<Box<[Frame]>>>,
    /// Number of frames currently holding non-[`Frame::Zero`] backing.
    touched: usize,
    size: u64,
}

impl PhysMem {
    /// Memory of `size` bytes starting at physical address zero.
    ///
    /// # Panics
    /// Panics unless `size` is a non-zero multiple of the page size.
    pub fn new(size: u64) -> Self {
        assert!(
            size > 0 && size.is_multiple_of(PAGE_SIZE),
            "size must be page-aligned"
        );
        let chunk_count = (size / PAGE_SIZE).div_ceil(CHUNK_FRAMES) as usize;
        Self {
            chunks: vec![None; chunk_count],
            touched: 0,
            size,
        }
    }

    /// Total memory size in bytes.
    #[inline]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Total memory size in pages.
    #[inline]
    pub fn page_count(&self) -> u64 {
        self.size / PAGE_SIZE
    }

    /// Number of frames with live backing (diagnostics).
    pub fn touched_frames(&self) -> usize {
        self.touched
    }

    /// Approximate host memory used by frame backings (diagnostics).
    pub fn backing_bytes(&self) -> usize {
        self.chunks
            .iter()
            .flatten()
            .flat_map(|chunk| chunk.iter())
            .map(Frame::backing_bytes)
            .sum()
    }

    #[inline]
    fn check_range(&self, addr: PhysAddr, len: u64) -> Result<(), AccessError> {
        let end = addr
            .as_u64()
            .checked_add(len)
            .ok_or(AccessError::OutOfRange { addr })?;
        if end > self.size {
            return Err(AccessError::OutOfRange { addr });
        }
        Ok(())
    }

    /// The frame for `ppn`, if its chunk has been allocated. `ppn` must be
    /// in range (callers go through [`Self::check_range`] first).
    #[inline]
    fn frame(&self, ppn: u64) -> Option<&Frame> {
        self.chunks[(ppn / CHUNK_FRAMES) as usize]
            .as_deref()
            .map(|chunk| &chunk[(ppn % CHUNK_FRAMES) as usize])
    }

    /// Mutable access to the frame for `ppn`, allocating its chunk on
    /// demand. The `touched` counter is kept in sync with the frame's
    /// before/after zero-ness around the mutation.
    #[inline]
    fn with_frame_mut<R>(&mut self, ppn: u64, f: impl FnOnce(&mut Frame) -> R) -> R {
        let slot = &mut self.chunks[(ppn / CHUNK_FRAMES) as usize];
        let chunk =
            slot.get_or_insert_with(|| vec![Frame::Zero; CHUNK_FRAMES as usize].into_boxed_slice());
        let frame = &mut chunk[(ppn % CHUNK_FRAMES) as usize];
        let was_backed = !matches!(frame, Frame::Zero);
        let result = f(frame);
        let is_backed = !matches!(frame, Frame::Zero);
        match (was_backed, is_backed) {
            (false, true) => self.touched += 1,
            (true, false) => self.touched -= 1,
            _ => {}
        }
        result
    }

    /// Reads an aligned u64.
    ///
    /// # Errors
    /// [`AccessError::Misaligned`] or [`AccessError::OutOfRange`].
    #[inline]
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64, AccessError> {
        if !addr.is_aligned(8) {
            return Err(AccessError::Misaligned { addr, required: 8 });
        }
        self.check_range(addr, 8)?;
        let ppn = addr.as_u64() >> 12;
        let word = (addr.page_offset() / 8) as u16;
        Ok(self.frame(ppn).map(|f| f.read_word(word)).unwrap_or(0))
    }

    /// Writes an aligned u64.
    ///
    /// # Errors
    /// [`AccessError::Misaligned`] or [`AccessError::OutOfRange`].
    #[inline]
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) -> Result<(), AccessError> {
        if !addr.is_aligned(8) {
            return Err(AccessError::Misaligned { addr, required: 8 });
        }
        self.check_range(addr, 8)?;
        let ppn = addr.as_u64() >> 12;
        let word = (addr.page_offset() / 8) as u16;
        self.with_frame_mut(ppn, |f| f.write_word(word, value));
        Ok(())
    }

    /// The frame behind page `ppn`, for reading many of its words at once;
    /// a page never written reads as [`Frame::Zero`]. The one frame reader
    /// behind [`Self::read_page`], [`Self::page_digest`] and the bus's
    /// multi-word read.
    ///
    /// # Errors
    /// [`AccessError::OutOfRange`] at the page's base address when `ppn` is
    /// outside physical memory — the error a read of its first word gives.
    #[inline]
    pub(crate) fn page(&self, ppn: PhysPageNum) -> Result<&Frame, AccessError> {
        static ZERO: Frame = Frame::Zero;
        self.check_range(ppn.base_addr(), PAGE_SIZE)?;
        Ok(self.frame(ppn.as_u64()).unwrap_or(&ZERO))
    }

    /// Reads the whole page `ppn` as its 512 words, in index order: one
    /// range check and one frame lookup, where 512 [`Self::read_u64`] calls
    /// would make 512 of each. The page-table scan reads a table page
    /// through this.
    ///
    /// # Errors
    /// [`AccessError::OutOfRange`] at the page's base address when `ppn` is
    /// outside physical memory — the error a read of its first word gives.
    #[inline]
    pub fn read_page(&self, ppn: PhysPageNum) -> Result<[u64; PAGE_WORDS], AccessError> {
        self.page(ppn).map(Frame::words)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`AccessError::OutOfRange`].
    #[inline]
    pub fn read_u8(&self, addr: PhysAddr) -> Result<u8, AccessError> {
        self.check_range(addr, 1)?;
        let ppn = addr.as_u64() >> 12;
        Ok(self
            .frame(ppn)
            .map(|f| f.read_byte(addr.page_offset() as u16))
            .unwrap_or(0))
    }

    /// Writes one byte.
    ///
    /// # Errors
    /// [`AccessError::OutOfRange`].
    #[inline]
    pub fn write_u8(&mut self, addr: PhysAddr, value: u8) -> Result<(), AccessError> {
        self.check_range(addr, 1)?;
        let ppn = addr.as_u64() >> 12;
        self.with_frame_mut(ppn, |f| f.write_byte(addr.page_offset() as u16, value));
        Ok(())
    }

    /// Reads an aligned u16 (compressed-instruction fetch parcel).
    ///
    /// # Errors
    /// [`AccessError::Misaligned`] or [`AccessError::OutOfRange`].
    #[inline]
    pub fn read_u16(&self, addr: PhysAddr) -> Result<u16, AccessError> {
        if !addr.is_aligned(2) {
            return Err(AccessError::Misaligned { addr, required: 2 });
        }
        self.check_range(addr, 2)?;
        let ppn = addr.as_u64() >> 12;
        let off = addr.page_offset() as u16;
        Ok(self
            .frame(ppn)
            .map(|f| {
                let lo = f.read_byte(off) as u16;
                let hi = f.read_byte(off + 1) as u16;
                lo | (hi << 8)
            })
            .unwrap_or(0))
    }

    /// Writes an aligned u16.
    ///
    /// # Errors
    /// [`AccessError::Misaligned`] or [`AccessError::OutOfRange`].
    #[inline]
    pub fn write_u16(&mut self, addr: PhysAddr, value: u16) -> Result<(), AccessError> {
        if !addr.is_aligned(2) {
            return Err(AccessError::Misaligned { addr, required: 2 });
        }
        self.check_range(addr, 2)?;
        let ppn = addr.as_u64() >> 12;
        let off = addr.page_offset() as u16;
        self.with_frame_mut(ppn, |f| {
            f.write_byte(off, value as u8);
            f.write_byte(off + 1, (value >> 8) as u8);
        });
        Ok(())
    }

    /// Reads an aligned u32 (instruction fetch granularity).
    ///
    /// # Errors
    /// [`AccessError::Misaligned`] or [`AccessError::OutOfRange`].
    #[inline]
    pub fn read_u32(&self, addr: PhysAddr) -> Result<u32, AccessError> {
        if !addr.is_aligned(4) {
            return Err(AccessError::Misaligned { addr, required: 4 });
        }
        self.check_range(addr, 4)?;
        let ppn = addr.as_u64() >> 12;
        let word_index = (addr.page_offset() / 8) as u16;
        let word = self
            .frame(ppn)
            .map(|f| f.read_word(word_index))
            .unwrap_or(0);
        Ok(if addr.page_offset() % 8 < 4 {
            word as u32
        } else {
            (word >> 32) as u32
        })
    }

    /// Writes an aligned u32.
    ///
    /// # Errors
    /// [`AccessError::Misaligned`] or [`AccessError::OutOfRange`].
    #[inline]
    pub fn write_u32(&mut self, addr: PhysAddr, value: u32) -> Result<(), AccessError> {
        if !addr.is_aligned(4) {
            return Err(AccessError::Misaligned { addr, required: 4 });
        }
        self.check_range(addr, 4)?;
        let ppn = addr.as_u64() >> 12;
        let word_index = (addr.page_offset() / 8) as u16;
        let low_half = addr.page_offset() % 8 < 4;
        self.with_frame_mut(ppn, |f| {
            let word = f.read_word(word_index);
            let new = if low_half {
                (word & 0xffff_ffff_0000_0000) | value as u64
            } else {
                (word & 0x0000_0000_ffff_ffff) | ((value as u64) << 32)
            };
            f.write_word(word_index, new);
        });
        Ok(())
    }

    /// Canonical FNV-1a content digest of page `ppn` (DRAM's-eye view),
    /// per [`Frame::content_digest`]: the non-zero `(index, word)` pairs in
    /// ascending index order, one frame lookup instead of 512
    /// bounds-checked reads. The model checker hashes every reachable
    /// page-table page per explored state through this.
    ///
    /// # Errors
    /// [`AccessError::OutOfRange`] when `ppn` is outside physical memory.
    #[inline]
    pub fn page_digest(&self, ppn: PhysPageNum) -> Result<u64, AccessError> {
        self.page(ppn).map(Frame::content_digest)
    }

    /// True when the whole page is zero — the kernel's allocator-metadata
    /// defense checks this before using a page as a page table (paper §V-E3).
    #[inline]
    pub fn page_is_zero(&self, ppn: PhysPageNum) -> bool {
        self.chunks
            .get((ppn.as_u64() / CHUNK_FRAMES) as usize)
            .and_then(|slot| slot.as_deref())
            .map(|chunk| chunk[(ppn.as_u64() % CHUNK_FRAMES) as usize].is_zero())
            .unwrap_or(true)
    }

    /// Zeroes a whole page (releases its backing).
    pub fn zero_page(&mut self, ppn: PhysPageNum) {
        if let Some(chunk) = self
            .chunks
            .get_mut((ppn.as_u64() / CHUNK_FRAMES) as usize)
            .and_then(|slot| slot.as_deref_mut())
        {
            let frame = &mut chunk[(ppn.as_u64() % CHUNK_FRAMES) as usize];
            if !matches!(frame, Frame::Zero) {
                self.touched -= 1;
            }
            frame.clear();
        }
    }

    /// Copies a whole page (used by fork's eager page-table copy).
    ///
    /// # Errors
    /// [`AccessError::OutOfRange`] when either page is outside memory.
    pub fn copy_page(&mut self, src: PhysPageNum, dst: PhysPageNum) -> Result<(), AccessError> {
        self.check_range(src.base_addr(), PAGE_SIZE)?;
        self.check_range(dst.base_addr(), PAGE_SIZE)?;
        match self.frame(src.as_u64()).cloned() {
            Some(f) => {
                self.with_frame_mut(dst.as_u64(), |d| *d = f);
            }
            None => self.zero_page(dst),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use ptstore_core::GIB;

    use super::*;

    #[test]
    fn u64_round_trip_and_default_zero() {
        let mut m = PhysMem::new(16 * PAGE_SIZE);
        assert_eq!(m.read_u64(PhysAddr::new(0x100)).unwrap(), 0);
        m.write_u64(PhysAddr::new(0x100), 77).unwrap();
        assert_eq!(m.read_u64(PhysAddr::new(0x100)).unwrap(), 77);
    }

    #[test]
    fn alignment_enforced() {
        let mut m = PhysMem::new(16 * PAGE_SIZE);
        assert!(matches!(
            m.read_u64(PhysAddr::new(0x101)),
            Err(AccessError::Misaligned { .. })
        ));
        assert!(matches!(
            m.write_u32(PhysAddr::new(0x102), 1),
            Err(AccessError::Misaligned { .. })
        ));
    }

    #[test]
    fn range_enforced() {
        let m = PhysMem::new(PAGE_SIZE);
        assert!(m.read_u64(PhysAddr::new(PAGE_SIZE - 8)).is_ok());
        assert!(matches!(
            m.read_u64(PhysAddr::new(PAGE_SIZE)),
            Err(AccessError::OutOfRange { .. })
        ));
        assert!(matches!(
            m.read_u8(PhysAddr::new(u64::MAX)),
            Err(AccessError::OutOfRange { .. })
        ));
    }

    #[test]
    fn u32_halves_of_a_word() {
        let mut m = PhysMem::new(PAGE_SIZE);
        m.write_u64(PhysAddr::new(0x8), 0x1111_2222_3333_4444)
            .unwrap();
        assert_eq!(m.read_u32(PhysAddr::new(0x8)).unwrap(), 0x3333_4444);
        assert_eq!(m.read_u32(PhysAddr::new(0xc)).unwrap(), 0x1111_2222);
        m.write_u32(PhysAddr::new(0xc), 0xdead_beef).unwrap();
        assert_eq!(
            m.read_u64(PhysAddr::new(0x8)).unwrap(),
            0xdead_beef_3333_4444
        );
    }

    #[test]
    fn zero_page_check_and_clear() {
        let mut m = PhysMem::new(16 * PAGE_SIZE);
        let ppn = PhysPageNum::new(2);
        assert!(m.page_is_zero(ppn));
        m.write_u64(ppn.base_addr() + 8, 5).unwrap();
        assert!(!m.page_is_zero(ppn));
        m.zero_page(ppn);
        assert!(m.page_is_zero(ppn));
        assert_eq!(m.read_u64(ppn.base_addr() + 8).unwrap(), 0);
    }

    #[test]
    fn copy_page_copies_and_clears() {
        let mut m = PhysMem::new(16 * PAGE_SIZE);
        let a = PhysPageNum::new(1);
        let b = PhysPageNum::new(2);
        m.write_u64(a.base_addr() + 16, 99).unwrap();
        m.copy_page(a, b).unwrap();
        assert_eq!(m.read_u64(b.base_addr() + 16).unwrap(), 99);
        // Copying a zero page over b clears it.
        m.copy_page(PhysPageNum::new(3), b).unwrap();
        assert!(m.page_is_zero(b));
    }

    #[test]
    fn sparse_backing_is_cheap() {
        let mut m = PhysMem::new(4 * GIB);
        for i in 0..1000u64 {
            m.write_u64(PhysAddr::new(i * PAGE_SIZE + 8), i + 1)
                .unwrap();
        }
        assert_eq!(m.touched_frames(), 1000);
        // 1000 single-word sparse frames are far below dense cost.
        assert!(m.backing_bytes() < 1000 * 64);
    }

    #[test]
    fn touched_counter_tracks_zeroing_and_cross_chunk_pages() {
        let mut m = PhysMem::new(4 * GIB);
        // Pages in two different chunks.
        let a = PhysPageNum::new(3);
        let b = PhysPageNum::new(CHUNK_FRAMES + 5);
        m.write_u64(a.base_addr(), 1).unwrap();
        m.write_u64(b.base_addr(), 2).unwrap();
        assert_eq!(m.touched_frames(), 2);
        m.copy_page(a, b).unwrap();
        assert_eq!(m.touched_frames(), 2);
        m.zero_page(a);
        assert_eq!(m.touched_frames(), 1);
        // Zeroing a never-touched page in an unallocated chunk is a no-op.
        m.zero_page(PhysPageNum::new(7 * CHUNK_FRAMES + 1));
        assert_eq!(m.touched_frames(), 1);
        m.copy_page(PhysPageNum::new(9), b).unwrap();
        assert_eq!(m.touched_frames(), 0);
    }

    #[test]
    fn read_page_matches_word_reads_in_every_backing() {
        let mut m = PhysMem::new(CHUNK_FRAMES * PAGE_SIZE + PAGE_SIZE);
        let (zero, sparse, dense) = (
            PhysPageNum::new(1),
            PhysPageNum::new(2),
            PhysPageNum::new(3),
        );
        m.write_u64(sparse.base_addr() + 8 * 7, 0x77).unwrap();
        for i in 0..PAGE_WORDS as u64 {
            m.write_u64(dense.base_addr() + 8 * i, i + 1).unwrap();
        }
        for ppn in [zero, sparse, dense, PhysPageNum::new(CHUNK_FRAMES)] {
            let words = m.read_page(ppn).unwrap();
            for (i, &w) in words.iter().enumerate() {
                assert_eq!(Ok(w), m.read_u64(ppn.base_addr() + 8 * i as u64));
            }
        }
        assert_eq!(m.read_page(sparse).unwrap()[7], 0x77);
        let outside = PhysPageNum::new(CHUNK_FRAMES + 1);
        assert_eq!(
            m.read_page(outside),
            Err(AccessError::OutOfRange {
                addr: outside.base_addr()
            })
        );
    }

    #[test]
    fn last_page_of_memory_is_addressable() {
        let mut m = PhysMem::new(CHUNK_FRAMES * PAGE_SIZE + PAGE_SIZE);
        let last = PhysPageNum::new(CHUNK_FRAMES);
        m.write_u64(last.base_addr() + 8, 42).unwrap();
        assert_eq!(m.read_u64(last.base_addr() + 8).unwrap(), 42);
        assert!(!m.page_is_zero(last));
    }
}
