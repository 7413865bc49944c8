//! The physical frame store.

use std::sync::Arc;

use ptstore_core::{AccessError, PhysAddr, PhysPageNum, PAGE_SIZE};

use crate::frame::Frame;

/// Frames per second-level chunk. A chunk spans 2 MiB of physical memory,
/// so a 4 GiB machine needs a 2048-slot root table (16 KiB of pointers).
const CHUNK_FRAMES: u64 = 512;

/// Simulated physical memory: a bounded, sparse, two-level direct-indexed
/// table from physical page number to [`Frame`]. The root holds one slot per
/// 512-frame chunk; a chunk is allocated on the first write into its range,
/// so untouched regions cost nothing beyond the root table, and lookups are
/// two array indexings with no hashing. The prototype system carries a 4 GiB
/// DDR3 SO-DIMM (paper Table II).
///
/// Chunks are shared copy-on-write between clones: cloning a `PhysMem`
/// copies one pointer per chunk, and the first write that changes a frame
/// of a shared chunk copies that chunk, once. A write that leaves its frame
/// as it was (a zero into a never-written word, say) copies and allocates
/// nothing. The model checker clones a whole machine per explored
/// transition, so a clone costs the root table, not the frames it holds.
#[derive(Debug, Clone, Default)]
pub struct PhysMem {
    chunks: Vec<Option<Arc<[Frame]>>>,
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

    /// The frame for `ppn`, if its chunk has been allocated.
    #[inline]
    fn frame(&self, ppn: u64) -> Option<&Frame> {
        self.chunks
            .get((ppn / CHUNK_FRAMES) as usize)?
            .as_deref()
            .map(|chunk| &chunk[(ppn % CHUNK_FRAMES) as usize])
    }

    /// Mutable access to the frame for `ppn`, allocating its chunk on
    /// demand and copying it first if a clone shares it. A caller whose
    /// mutation may leave the frame as it was checks that first when the
    /// chunk is absent or shared.
    #[inline]
    fn with_frame_mut<R>(&mut self, ppn: u64, f: impl FnOnce(&mut Frame) -> R) -> R {
        let slot = &mut self.chunks[(ppn / CHUNK_FRAMES) as usize];
        let chunk = slot.get_or_insert_with(|| (0..CHUNK_FRAMES).map(|_| Frame::Zero).collect());
        f(&mut Arc::make_mut(chunk)[(ppn % CHUNK_FRAMES) as usize])
    }

    /// Reads the `bytes`-byte value at `addr`, which is aligned to `bytes`
    /// and so lies within one 8-byte word: the one reader behind the
    /// fixed-width accessors.
    #[inline]
    fn load(&self, addr: PhysAddr, bytes: u64) -> Result<u64, AccessError> {
        if !addr.is_aligned(bytes) {
            return Err(AccessError::Misaligned {
                addr,
                required: bytes,
            });
        }
        self.check_range(addr, bytes)?;
        let word = self
            .frame(addr.as_u64() >> 12)
            .map_or(0, |f| f.read_word((addr.page_offset() / 8) as u16));
        Ok((word >> (8 * (addr.page_offset() % 8))) & (u64::MAX >> (64 - 8 * bytes)))
    }

    /// Writes the low `bytes` bytes of `value` at `addr`, which is aligned
    /// to `bytes`: the one writer behind the fixed-width accessors. A write
    /// that leaves its word as it was neither allocates a chunk nor copies
    /// a shared one.
    #[inline]
    fn store(&mut self, addr: PhysAddr, bytes: u64, value: u64) -> Result<(), AccessError> {
        if !addr.is_aligned(bytes) {
            return Err(AccessError::Misaligned {
                addr,
                required: bytes,
            });
        }
        self.check_range(addr, bytes)?;
        let ppn = addr.as_u64() >> 12;
        let index = (addr.page_offset() / 8) as u16;
        let shift = 8 * (addr.page_offset() % 8);
        let mask = (u64::MAX >> (64 - 8 * bytes)) << shift;
        let merge = |old: u64| (old & !mask) | ((value << shift) & mask);
        // Only a write into an absent or shared chunk can allocate or copy
        // one, so only such a write first checks that it changes its word.
        let chunk = self.chunks[(ppn / CHUNK_FRAMES) as usize].as_ref();
        if chunk.is_none_or(|c| Arc::strong_count(c) > 1) {
            let old = self.frame(ppn).map_or(0, |f| f.read_word(index));
            if merge(old) == old {
                return Ok(());
            }
        }
        // A whole-word write replaces the word without reading it.
        self.with_frame_mut(ppn, |f| {
            let new = if bytes == 8 {
                value
            } else {
                merge(f.read_word(index))
            };
            f.write_word(index, new);
        });
        Ok(())
    }

    /// Reads an aligned u64.
    ///
    /// # Errors
    /// [`AccessError::Misaligned`] or [`AccessError::OutOfRange`].
    #[inline]
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64, AccessError> {
        self.load(addr, 8)
    }

    /// Writes an aligned u64.
    ///
    /// # Errors
    /// [`AccessError::Misaligned`] or [`AccessError::OutOfRange`].
    #[inline]
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) -> Result<(), AccessError> {
        self.store(addr, 8, value)
    }

    /// The frame behind page `ppn`, for reading many of its words at once;
    /// a page never written reads as [`Frame::Zero`]. The one frame reader
    /// behind [`Self::nonzero_words`] and the bus's multi-word read.
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

    /// The non-zero words of page `ppn` as `(index, word)` pairs in index
    /// order, per [`Frame::nonzero_words`]: one range check and one frame
    /// lookup, and work in proportion to the words the page holds (a sparse
    /// page lends its own listing). The page-table scan reads a table page
    /// through this.
    ///
    /// # Errors
    /// [`AccessError::OutOfRange`] at the page's base address when `ppn` is
    /// outside physical memory — the error a read of its first word gives.
    #[inline]
    pub fn nonzero_words(
        &self,
        ppn: PhysPageNum,
    ) -> Result<impl Iterator<Item = (u16, u64)> + '_, AccessError> {
        self.page(ppn).map(Frame::nonzero_words)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`AccessError::OutOfRange`].
    #[inline]
    pub fn read_u8(&self, addr: PhysAddr) -> Result<u8, AccessError> {
        self.load(addr, 1).map(|v| v as u8)
    }

    /// Writes one byte.
    ///
    /// # Errors
    /// [`AccessError::OutOfRange`].
    #[inline]
    pub fn write_u8(&mut self, addr: PhysAddr, value: u8) -> Result<(), AccessError> {
        self.store(addr, 1, value.into())
    }

    /// Reads an aligned u16 (compressed-instruction fetch parcel).
    ///
    /// # Errors
    /// [`AccessError::Misaligned`] or [`AccessError::OutOfRange`].
    #[inline]
    pub fn read_u16(&self, addr: PhysAddr) -> Result<u16, AccessError> {
        self.load(addr, 2).map(|v| v as u16)
    }

    /// Writes an aligned u16.
    ///
    /// # Errors
    /// [`AccessError::Misaligned`] or [`AccessError::OutOfRange`].
    #[inline]
    pub fn write_u16(&mut self, addr: PhysAddr, value: u16) -> Result<(), AccessError> {
        self.store(addr, 2, value.into())
    }

    /// Reads an aligned u32 (instruction fetch granularity).
    ///
    /// # Errors
    /// [`AccessError::Misaligned`] or [`AccessError::OutOfRange`].
    #[inline]
    pub fn read_u32(&self, addr: PhysAddr) -> Result<u32, AccessError> {
        self.load(addr, 4).map(|v| v as u32)
    }

    /// Writes an aligned u32.
    ///
    /// # Errors
    /// [`AccessError::Misaligned`] or [`AccessError::OutOfRange`].
    #[inline]
    pub fn write_u32(&mut self, addr: PhysAddr, value: u32) -> Result<(), AccessError> {
        self.store(addr, 4, value.into())
    }

    /// True when the whole page is zero — the kernel's allocator-metadata
    /// defense checks this before using a page as a page table (paper §V-E3).
    #[inline]
    pub fn page_is_zero(&self, ppn: PhysPageNum) -> bool {
        self.frame(ppn.as_u64()).is_none_or(Frame::is_zero)
    }

    /// Zeroes a whole page (releases its backing).
    pub fn zero_page(&mut self, ppn: PhysPageNum) {
        let ppn = ppn.as_u64();
        if self.frame(ppn).is_some_and(|f| !matches!(f, Frame::Zero)) {
            self.with_frame_mut(ppn, Frame::clear);
        }
    }

    /// Copies a whole page (used by fork's eager page-table copy).
    ///
    /// # Errors
    /// [`AccessError::OutOfRange`] when either page is outside memory.
    pub fn copy_page(&mut self, src: PhysPageNum, dst: PhysPageNum) -> Result<(), AccessError> {
        let frame = self.page(src)?.clone();
        if self.page(dst)? != &frame {
            self.with_frame_mut(dst.as_u64(), |d| *d = frame);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use ptstore_core::GIB;

    use super::*;
    use crate::frame::PAGE_WORDS;

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
        // 1000 single-word frames stay sparse, far below dense cost.
        for i in 0..1000u64 {
            let frame = m.page(PhysPageNum::new(i)).unwrap();
            assert!(matches!(frame, Frame::Sparse(_)), "page {i}");
            assert_eq!(frame.nonzero_words().count(), 1, "page {i}");
        }
    }

    #[test]
    fn copy_and_zero_across_chunks() {
        let mut m = PhysMem::new(4 * GIB);
        // Pages in two different chunks.
        let a = PhysPageNum::new(3);
        let b = PhysPageNum::new(CHUNK_FRAMES + 5);
        m.write_u64(a.base_addr(), 1).unwrap();
        m.write_u64(b.base_addr() + 8, 2).unwrap();
        m.copy_page(a, b).unwrap();
        assert_eq!(m.read_u64(b.base_addr()).unwrap(), 1);
        assert_eq!(m.read_u64(b.base_addr() + 8).unwrap(), 0);
        m.zero_page(a);
        assert!(m.page_is_zero(a));
        assert_eq!(m.read_u64(b.base_addr()).unwrap(), 1, "b keeps the copy");
        // Zeroing a never-written page in an unallocated chunk is a no-op.
        let far = PhysPageNum::new(7 * CHUNK_FRAMES + 1);
        m.zero_page(far);
        assert!(m.page_is_zero(far));
        assert!(m.chunks[7].is_none(), "zeroing allocated no chunk");
        m.copy_page(PhysPageNum::new(9), b).unwrap();
        assert!(m.page_is_zero(b));
    }

    #[test]
    fn nonzero_words_lists_exactly_the_nonzero_slots_in_order() {
        let mut m = PhysMem::new(CHUNK_FRAMES * PAGE_SIZE + PAGE_SIZE);
        // A zero page, a sparse one, a dense one, a dense one with every
        // fifth word written back to zero, and a page of a chunk never
        // allocated.
        let pages = [1, 2, 3, 4, CHUNK_FRAMES].map(PhysPageNum::new);
        let [_, sparse, dense, rezeroed, _] = pages;
        for i in [7, 300, 2, 511] {
            m.write_u64(sparse.base_addr() + 8 * i, 0x70 + i).unwrap();
        }
        for page in [dense, rezeroed] {
            for i in 0..PAGE_WORDS as u64 {
                m.write_u64(page.base_addr() + 8 * i, i + 1).unwrap();
            }
        }
        for i in (0..PAGE_WORDS as u64).step_by(5) {
            m.write_u64(rezeroed.base_addr() + 8 * i, 0).unwrap();
        }
        for (ppn, want) in pages.into_iter().zip([0, 4, PAGE_WORDS, 409, 0]) {
            let listed: Vec<(u16, u64)> = m.nonzero_words(ppn).unwrap().collect();
            let nonzero: Vec<(u16, u64)> = (0..PAGE_WORDS as u16)
                .map(|i| (i, m.read_u64(ppn.base_addr() + 8 * u64::from(i)).unwrap()))
                .filter(|&(_, w)| w != 0)
                .collect();
            assert_eq!(listed, nonzero, "page {ppn:?}");
            assert_eq!(listed.len(), want, "page {ppn:?}");
        }
        let outside = PhysPageNum::new(CHUNK_FRAMES + 1);
        assert_eq!(
            m.nonzero_words(outside).err(),
            Some(AccessError::OutOfRange {
                addr: outside.base_addr()
            })
        );
    }

    /// A stored machine must be able to cross threads, so the chunks are
    /// shared through `Arc`, not `Rc`.
    #[test]
    fn memory_is_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<PhysMem>();
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
