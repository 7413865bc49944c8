//! RV64 page-table entries.
//!
//! Sv39, Sv48 and Sv57 share one 64-bit entry format (`PPN[53:10] |
//! flags[7:0]`); only the number of levels differs.

use core::fmt;

use ptstore_core::{PhysAddr, PhysPageNum};

/// The low-byte flag bits of an RV64 PTE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PteFlags(u8);

impl PteFlags {
    /// Valid (present).
    pub const V: u8 = 1 << 0;
    /// Readable.
    pub const R: u8 = 1 << 1;
    /// Writable.
    pub const W: u8 = 1 << 2;
    /// Executable.
    pub const X: u8 = 1 << 3;
    /// User-accessible.
    pub const U: u8 = 1 << 4;
    /// Global mapping.
    pub const G: u8 = 1 << 5;
    /// Accessed.
    pub const A: u8 = 1 << 6;
    /// Dirty.
    pub const D: u8 = 1 << 7;

    /// Empty flag set.
    pub const fn new() -> Self {
        Self(0)
    }

    /// From a raw bit pattern.
    pub const fn from_bits(bits: u8) -> Self {
        Self(bits)
    }

    /// Raw bit pattern.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Valid bit set?
    pub const fn valid(self) -> bool {
        self.0 & Self::V != 0
    }

    /// Readable?
    pub const fn readable(self) -> bool {
        self.0 & Self::R != 0
    }

    /// Writable?
    pub const fn writable(self) -> bool {
        self.0 & Self::W != 0
    }

    /// Executable?
    pub const fn executable(self) -> bool {
        self.0 & Self::X != 0
    }

    /// User-accessible?
    pub const fn user(self) -> bool {
        self.0 & Self::U != 0
    }

    /// Global?
    pub const fn global(self) -> bool {
        self.0 & Self::G != 0
    }

    /// Accessed?
    pub const fn accessed(self) -> bool {
        self.0 & Self::A != 0
    }

    /// Dirty?
    pub const fn dirty(self) -> bool {
        self.0 & Self::D != 0
    }

    /// Leaf entries have at least one of R/W/X; pointers to next-level
    /// tables have none.
    pub const fn is_leaf(self) -> bool {
        self.0 & (Self::R | Self::W | Self::X) != 0
    }

    /// Returns a copy with extra bits set.
    pub const fn with(self, bits: u8) -> Self {
        Self(self.0 | bits)
    }

    /// Returns a copy with bits cleared.
    pub const fn without(self, bits: u8) -> Self {
        Self(self.0 & !bits)
    }

    /// Kernel read/write data leaf flags (`V|R|W|A|D`, supervisor-only).
    pub const fn kernel_rw() -> Self {
        Self(Self::V | Self::R | Self::W | Self::A | Self::D)
    }

    /// Kernel read/execute code leaf flags.
    pub const fn kernel_rx() -> Self {
        Self(Self::V | Self::R | Self::X | Self::A | Self::D)
    }

    /// User read/write data leaf flags.
    pub const fn user_rw() -> Self {
        Self(Self::V | Self::R | Self::W | Self::U | Self::A | Self::D)
    }

    /// User read/execute code leaf flags.
    pub const fn user_rx() -> Self {
        Self(Self::V | Self::R | Self::X | Self::U | Self::A | Self::D)
    }

    /// User read-only data leaf flags (e.g. copy-on-write pages).
    pub const fn user_ro() -> Self {
        Self(Self::V | Self::R | Self::U | Self::A)
    }
}

impl fmt::Display for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (bit, ch) in [
            (Self::D, 'd'),
            (Self::A, 'a'),
            (Self::G, 'g'),
            (Self::U, 'u'),
            (Self::X, 'x'),
            (Self::W, 'w'),
            (Self::R, 'r'),
            (Self::V, 'v'),
        ] {
            write!(f, "{}", if self.0 & bit != 0 { ch } else { '-' })?;
        }
        Ok(())
    }
}

/// One 64-bit RV64 page-table entry: `PPN[53:10] | flags[7:0]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pte(u64);

impl Pte {
    /// The invalid (zero) entry.
    pub const fn invalid() -> Self {
        Self(0)
    }

    /// From the raw 64-bit memory representation.
    pub const fn from_bits(bits: u64) -> Self {
        Self(bits)
    }

    /// Raw 64-bit memory representation.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// A leaf entry mapping `ppn` with `flags`.
    pub const fn leaf(ppn: PhysPageNum, flags: PteFlags) -> Self {
        Self((ppn.as_u64() << 10) | flags.bits() as u64)
    }

    /// A non-leaf entry pointing at the next-level table in `ppn`.
    pub const fn table(ppn: PhysPageNum) -> Self {
        Self((ppn.as_u64() << 10) | PteFlags::V as u64)
    }

    /// The flag byte.
    pub const fn flags(self) -> PteFlags {
        PteFlags::from_bits(self.0 as u8)
    }

    /// The physical page number field.
    pub const fn ppn(self) -> PhysPageNum {
        PhysPageNum::new((self.0 >> 10) & ((1 << 44) - 1))
    }

    /// The physical address of the page this entry points at.
    pub const fn phys_addr(self) -> PhysAddr {
        PhysAddr::new(self.ppn().as_u64() << 12)
    }

    /// Valid bit set?
    pub const fn is_valid(self) -> bool {
        self.flags().valid()
    }

    /// Valid leaf?
    pub const fn is_leaf(self) -> bool {
        self.is_valid() && self.flags().is_leaf()
    }

    /// Valid pointer to a next-level table?
    pub const fn is_table(self) -> bool {
        self.is_valid() && !self.flags().is_leaf()
    }

    /// Returns a copy with the given flag bits ORed in (A/D updates).
    pub const fn with_flags(self, bits: u8) -> Self {
        Self(self.0 | bits as u64)
    }
}

impl fmt::Display for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pte{{ppn={} {}}}", self.ppn(), self.flags())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_round_trip() {
        let ppn = PhysPageNum::new(0x12345);
        let pte = Pte::leaf(ppn, PteFlags::user_rw());
        assert!(pte.is_valid());
        assert!(pte.is_leaf());
        assert!(!pte.is_table());
        assert_eq!(pte.ppn(), ppn);
        assert_eq!(pte.phys_addr(), PhysAddr::new(0x12345 << 12));
        assert!(pte.flags().user());
        assert!(pte.flags().writable());
        assert!(!pte.flags().executable());
    }

    #[test]
    fn table_entry_is_not_leaf() {
        let pte = Pte::table(PhysPageNum::new(7));
        assert!(pte.is_valid());
        assert!(pte.is_table());
        assert!(!pte.is_leaf());
    }

    #[test]
    fn invalid_entry() {
        let pte = Pte::invalid();
        assert!(!pte.is_valid());
        assert!(!pte.is_leaf());
        assert!(!pte.is_table());
    }

    #[test]
    fn token_fields_are_invalid_ptes() {
        // Paper §V-E2: 8-byte-aligned pointers have V=0 when read as PTEs.
        for ptr in [0xFC12_3000u64, 0x8000_0040, 0xFFFF_FFF8] {
            assert!(!Pte::from_bits(ptr).is_valid());
        }
    }

    #[test]
    fn ad_update_preserves_ppn() {
        let pte = Pte::leaf(
            PhysPageNum::new(99),
            PteFlags::from_bits(PteFlags::V | PteFlags::R),
        );
        let updated = pte.with_flags(PteFlags::A | PteFlags::D);
        assert_eq!(updated.ppn(), pte.ppn());
        assert!(updated.flags().accessed());
        assert!(updated.flags().dirty());
    }

    #[test]
    fn flag_display_shape() {
        assert_eq!(PteFlags::user_rw().to_string(), "da-u-wrv");
        assert_eq!(PteFlags::kernel_rx().to_string(), "da--x-rv");
    }
}
