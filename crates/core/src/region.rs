//! The contiguous physical secure region holding page tables and tokens.
//!
//! PMP requires each region to cover contiguous physical addresses (paper
//! §III-C2), so the region is described by a page-aligned `[base, base+size)`
//! interval. The kernel grows it *downward* on demand: it allocates contiguous
//! pages adjacent to the boundary from the normal zone, releases them into the
//! PTStore zone, and lowers the base via the SBI (paper §IV-C1). In the
//! prototype the region sits at the top of physical memory, so growth moves
//! `base` toward lower addresses while `end` stays fixed.

use core::fmt;

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::error::RegionError;

/// A contiguous, page-aligned physical memory interval marked secure.
///
/// ```
/// use ptstore_core::{PhysAddr, SecureRegion, MIB};
/// # fn main() -> Result<(), ptstore_core::RegionError> {
/// let r = SecureRegion::new(PhysAddr::new(0xFC00_0000), 64 * MIB)?;
/// assert!(r.contains(PhysAddr::new(0xFC00_1000)));
/// assert!(!r.contains(PhysAddr::new(0xFBFF_F000)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecureRegion {
    base: PhysAddr,
    size: u64,
}

impl SecureRegion {
    /// Creates a secure region covering `[base, base + size)`.
    ///
    /// # Errors
    /// Returns [`RegionError::Unaligned`] unless both `base` and `size` are
    /// page-aligned, [`RegionError::Empty`] for a zero size, and
    /// [`RegionError::Overflow`] when the end would overflow.
    pub fn new(base: PhysAddr, size: u64) -> Result<Self, RegionError> {
        if !base.is_aligned(PAGE_SIZE) || !size.is_multiple_of(PAGE_SIZE) {
            return Err(RegionError::Unaligned);
        }
        if size == 0 {
            return Err(RegionError::Empty);
        }
        base.as_u64()
            .checked_add(size)
            .ok_or(RegionError::Overflow)?;
        Ok(Self { base, size })
    }

    /// The inclusive start of the region.
    #[inline]
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// The exclusive end of the region.
    #[inline]
    pub fn end(&self) -> PhysAddr {
        self.base + self.size
    }

    /// Region size in bytes.
    #[inline]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Region size in pages.
    #[inline]
    pub fn page_count(&self) -> u64 {
        self.size / PAGE_SIZE
    }

    /// True when `addr` lies inside the region.
    #[inline]
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// True when the whole `[addr, addr+len)` range lies inside the region.
    #[inline]
    pub fn contains_range(&self, addr: PhysAddr, len: u64) -> bool {
        match addr.as_u64().checked_add(len) {
            Some(end) => addr >= self.base && end <= self.end().as_u64(),
            None => false,
        }
    }

    /// True when the non-empty range `[addr, addr+len)` shares at least one
    /// byte with the region.
    #[inline]
    pub fn overlaps(&self, addr: PhysAddr, len: u64) -> bool {
        addr < self.end() && self.base.as_u64() < addr.as_u64() + len
    }

    /// Grows the region downward by `bytes`, keeping the end fixed.
    ///
    /// This models the dynamic adjustment of paper §IV-C1: the kernel has just
    /// released `bytes` of contiguous pages ending at the old base into the
    /// PTStore zone, and the boundary moves down to absorb them.
    ///
    /// # Errors
    /// Returns [`RegionError::Unaligned`] for a non-page-multiple `bytes` and
    /// [`RegionError::NotContiguous`] if the new base would underflow.
    pub fn grow_down(&self, bytes: u64) -> Result<Self, RegionError> {
        if !bytes.is_multiple_of(PAGE_SIZE) {
            return Err(RegionError::Unaligned);
        }
        let new_base = self
            .base
            .as_u64()
            .checked_sub(bytes)
            .ok_or(RegionError::NotContiguous)?;
        Ok(Self {
            base: PhysAddr::new(new_base),
            size: self.size + bytes,
        })
    }

    /// Replaces the base boundary, keeping the end fixed.
    ///
    /// # Errors
    /// Returns [`RegionError::Unaligned`] for an unaligned base and
    /// [`RegionError::NotContiguous`] when `new_base` is not below the
    /// current end.
    pub fn with_base(&self, new_base: PhysAddr) -> Result<Self, RegionError> {
        if !new_base.is_aligned(PAGE_SIZE) {
            return Err(RegionError::Unaligned);
        }
        if new_base >= self.end() {
            return Err(RegionError::NotContiguous);
        }
        Ok(Self {
            base: new_base,
            size: self.end().offset_from(new_base),
        })
    }
}

impl fmt::Display for SecureRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {}) ({} KiB)",
            self.base,
            self.end(),
            self.size / 1024
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::MIB;

    #[test]
    fn rejects_bad_geometry() {
        assert_eq!(
            SecureRegion::new(PhysAddr::new(0x123), PAGE_SIZE),
            Err(RegionError::Unaligned)
        );
        assert_eq!(
            SecureRegion::new(PhysAddr::new(0x1000), 100),
            Err(RegionError::Unaligned)
        );
        assert_eq!(
            SecureRegion::new(PhysAddr::new(0x1000), 0),
            Err(RegionError::Empty)
        );
        assert_eq!(
            SecureRegion::new(PhysAddr::new(u64::MAX - PAGE_SIZE + 1), 2 * PAGE_SIZE),
            Err(RegionError::Overflow)
        );
    }

    #[test]
    fn containment_is_half_open() {
        let r = SecureRegion::new(PhysAddr::new(0x10000), 2 * PAGE_SIZE).unwrap();
        assert!(r.contains(PhysAddr::new(0x10000)));
        assert!(r.contains(PhysAddr::new(0x11fff)));
        assert!(!r.contains(PhysAddr::new(0x12000)));
        assert!(!r.contains(PhysAddr::new(0xffff)));
    }

    #[test]
    fn overlaps_edges() {
        let r = SecureRegion::new(PhysAddr::new(0x10000), PAGE_SIZE).unwrap();
        assert!(r.overlaps(PhysAddr::new(0xf000), PAGE_SIZE + 1));
        assert!(!r.overlaps(PhysAddr::new(0xf000), PAGE_SIZE));
        assert!(r.overlaps(PhysAddr::new(0x10fff), 1));
        assert!(!r.overlaps(PhysAddr::new(0x11000), PAGE_SIZE));
        assert!(r.overlaps(PhysAddr::new(0), 2 * MIB));
    }

    #[test]
    fn contains_range_edges() {
        let r = SecureRegion::new(PhysAddr::new(0x10000), PAGE_SIZE).unwrap();
        assert!(r.contains_range(PhysAddr::new(0x10000), PAGE_SIZE));
        assert!(!r.contains_range(PhysAddr::new(0x10000), PAGE_SIZE + 1));
        assert!(!r.contains_range(PhysAddr::new(0x10ff8), 16));
        assert!(!r.contains_range(PhysAddr::new(u64::MAX), 2));
    }

    #[test]
    fn grow_down_keeps_end_fixed() {
        let r = SecureRegion::new(PhysAddr::new(0xFC00_0000), 64 * MIB).unwrap();
        let grown = r.grow_down(16 * MIB).unwrap();
        assert_eq!(grown.end(), r.end());
        assert_eq!(grown.size(), 80 * MIB);
        assert_eq!(grown.base(), PhysAddr::new(0xFB00_0000));
    }

    #[test]
    fn with_base_validates() {
        let r = SecureRegion::new(PhysAddr::new(0x20000), 2 * PAGE_SIZE).unwrap();
        assert!(r.with_base(PhysAddr::new(0x20001)).is_err());
        assert_eq!(
            r.with_base(r.end()).unwrap_err(),
            RegionError::NotContiguous
        );
        let moved = r.with_base(PhysAddr::new(0x10000)).unwrap();
        assert_eq!(moved.size(), 0x22000 - 0x10000);
        assert_eq!(moved.end(), r.end());
    }
}
