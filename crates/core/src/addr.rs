//! Physical/virtual address newtypes and page-granularity helpers.
//!
//! PTStore's secure-region check is performed on **physical** addresses
//! (§III-C2 of the paper); keeping [`PhysAddr`] and [`VirtAddr`] as distinct
//! types makes it impossible to accidentally feed a virtual address to the
//! PMP, which is exactly the class of confusion the design warns about.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// Base-2 kibibyte (1024 bytes).
pub const KIB: u64 = 1024;
/// Base-2 mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// Base-2 gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// log2 of the page size (4 KiB pages, as on every RV64 Sv scheme).
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes.
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// A physical memory address.
///
/// ```
/// use ptstore_core::addr::{PhysAddr, PAGE_SIZE};
/// let pa = PhysAddr::new(0x8000_0123);
/// assert_eq!(pa.page_offset(), 0x123);
/// assert_eq!(pa.page_align_down().as_u64() % PAGE_SIZE, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

/// A virtual memory address (39/48/57 significant sign-extended bits,
/// depending on the active [`PagingScheme`](crate::paging::PagingScheme)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

/// A physical page number (`PhysAddr >> PAGE_SHIFT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysPageNum(u64);

/// A virtual page number (`VirtAddr >> PAGE_SHIFT`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtPageNum(u64);

macro_rules! addr_impls {
    ($t:ident) => {
        impl $t {
            /// Wraps a raw address value.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw address value.
            #[inline]
            pub const fn as_u64(self) -> u64 {
                self.0
            }

            /// Returns the offset of this address within its page.
            #[inline]
            pub const fn page_offset(self) -> u64 {
                self.0 & (PAGE_SIZE - 1)
            }

            /// Rounds down to the containing page boundary.
            #[inline]
            pub const fn page_align_down(self) -> Self {
                Self(self.0 & !(PAGE_SIZE - 1))
            }

            /// True when the address is a multiple of `align` (a power of two).
            #[inline]
            pub const fn is_aligned(self, align: u64) -> bool {
                self.0 & (align - 1) == 0
            }

            /// Byte offset from `base` to `self`.
            ///
            /// # Panics
            /// Panics if `self < base`.
            #[inline]
            pub fn offset_from(self, base: Self) -> u64 {
                self.0
                    .checked_sub(base.0)
                    .expect("offset_from: address below base")
            }

            /// Adds a byte offset, checking for overflow.
            #[inline]
            pub fn checked_add(self, rhs: u64) -> Option<Self> {
                self.0.checked_add(rhs).map(Self)
            }
        }

        impl Add<u64> for $t {
            type Output = Self;
            #[inline]
            fn add(self, rhs: u64) -> Self {
                Self(self.0 + rhs)
            }
        }

        impl AddAssign<u64> for $t {
            #[inline]
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl Sub<u64> for $t {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: u64) -> Self {
                Self(self.0 - rhs)
            }
        }

        impl From<u64> for $t {
            #[inline]
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$t> for u64 {
            #[inline]
            fn from(a: $t) -> u64 {
                a.0
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }
    };
}

addr_impls!(PhysAddr);
addr_impls!(VirtAddr);

macro_rules! pagenum_impls {
    ($pn:ident, $addr:ident) => {
        impl $pn {
            /// Wraps a raw page number.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw page number.
            #[inline]
            pub const fn as_u64(self) -> u64 {
                self.0
            }

            /// The base address of this page.
            #[inline]
            pub const fn base_addr(self) -> $addr {
                $addr::new(self.0 << PAGE_SHIFT)
            }
        }

        impl From<$addr> for $pn {
            #[inline]
            fn from(a: $addr) -> Self {
                Self(a.as_u64() >> PAGE_SHIFT)
            }
        }

        impl From<$pn> for $addr {
            #[inline]
            fn from(p: $pn) -> Self {
                p.base_addr()
            }
        }

        impl Add<u64> for $pn {
            type Output = Self;
            #[inline]
            fn add(self, rhs: u64) -> Self {
                Self(self.0 + rhs)
            }
        }

        impl Sub<u64> for $pn {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: u64) -> Self {
                Self(self.0 - rhs)
            }
        }

        impl fmt::Display for $pn {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }
    };
}

pagenum_impls!(PhysPageNum, PhysAddr);
pagenum_impls!(VirtPageNum, VirtAddr);

impl VirtAddr {
    /// Extracts the 9-bit VPN slice for page-table level `level`
    /// (0 = leaf; the root level is `scheme.root_level()`). Every RV64 Sv
    /// scheme uses the same per-level geometry, so this needs no scheme
    /// parameter — only the *number* of meaningful levels differs.
    ///
    /// # Panics
    /// Panics if `level > 4` (beyond Sv57's root).
    #[inline]
    pub fn vpn_slice(self, level: usize) -> u64 {
        assert!(level <= 4, "Sv57 has levels 0..=4");
        (self.0 >> (PAGE_SHIFT as u64 + 9 * level as u64)) & 0x1ff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_alignment_round_trip() {
        let pa = PhysAddr::new(0x8000_1234);
        assert_eq!(pa.page_align_down().as_u64(), 0x8000_1000);
        let aligned = PhysAddr::new(0x8000_2000);
        assert_eq!(aligned.page_align_down(), aligned);
    }

    #[test]
    fn page_number_conversions() {
        let pa = PhysAddr::new(0x8000_3456);
        let ppn = PhysPageNum::from(pa);
        assert_eq!(ppn.as_u64(), 0x8000_3456 >> 12);
        assert_eq!(ppn.base_addr().as_u64(), 0x8000_3000);
    }

    #[test]
    fn vpn_slices_cover_all_sv_levels() {
        // 0b_vvvvvvvvv_wwwwwwwww_xxxxxxxxx_oooooooooooo
        let va = VirtAddr::new((0x1AB << 30) | (0x0CD << 21) | (0x0EF << 12) | 0x123);
        assert_eq!(va.vpn_slice(2), 0x1AB);
        assert_eq!(va.vpn_slice(1), 0x0CD);
        assert_eq!(va.vpn_slice(0), 0x0EF);
        assert_eq!(va.page_offset(), 0x123);
        // The Sv48/Sv57 slices of the same (low) address are zero.
        assert_eq!(va.vpn_slice(3), 0);
        assert_eq!(va.vpn_slice(4), 0);
        // A high Sv57 address exercises the upper slices.
        let high = VirtAddr::new((0x155 << 48) | (0x0AA << 39));
        assert_eq!(high.vpn_slice(4), 0x155);
        assert_eq!(high.vpn_slice(3), 0x0AA);
    }

    #[test]
    fn offset_from_and_arith() {
        let base = PhysAddr::new(0x1000);
        assert_eq!((base + 0x234).offset_from(base), 0x234);
        assert_eq!((base + 0x234) - 0x34, PhysAddr::new(0x1200));
    }

    #[test]
    #[should_panic(expected = "address below base")]
    fn offset_from_underflow_panics() {
        PhysAddr::new(0x100).offset_from(PhysAddr::new(0x200));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(PhysAddr::new(0xdead).to_string(), "0xdead");
        assert_eq!(format!("{:x}", VirtAddr::new(0xbeef)), "beef");
    }
}
