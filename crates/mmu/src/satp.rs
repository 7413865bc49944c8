//! The `satp` CSR with PTStore's S-bit extension.
//!
//! Standard RV64 `satp` layout: `MODE[63:60] | ASID[59:44] | PPN[43:0]`.
//! The MODE field selects the paging scheme — 0 Bare, 8 Sv39, 9 Sv48,
//! 10 Sv57 ([`PagingScheme`]) — and this model encodes/decodes all three.
//! PTStore adds an **S-bit** telling the walker whether the secure-region
//! origin check is armed (paper §IV-A1): it is off during early boot (the
//! region does not exist yet) and switched on once the kernel has moved all
//! page tables into the secure region. The paper does not pin down which bit
//! encodes S; this model repurposes the top ASID bit (bit 59), shrinking the
//! usable ASID space to 15 bits — documented as a model choice.

use core::fmt;

use ptstore_core::{PagingScheme, PhysPageNum};

const MODE_SHIFT: u64 = 60;
const MODE_BARE: u64 = 0;
const S_BIT: u64 = 1 << 59;
const ASID_SHIFT: u64 = 44;
const ASID_MASK: u64 = 0x7fff; // 15 bits after the S-bit carve-out
const PPN_MASK: u64 = (1 << 44) - 1;

/// A decoded `satp` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Satp {
    /// The active translation scheme; `None` is Bare mode.
    pub scheme: Option<PagingScheme>,
    /// PTStore: the walker secure-region check is armed.
    pub s_bit: bool,
    /// Address-space identifier (15 bits in this model).
    pub asid: u16,
    /// Root page-table physical page number.
    pub root_ppn: PhysPageNum,
}

impl Satp {
    /// Bare mode: no translation (M-mode boot state).
    pub const fn bare() -> Self {
        Self {
            scheme: None,
            s_bit: false,
            asid: 0,
            root_ppn: PhysPageNum::new(0),
        }
    }

    /// Translation under `scheme`, rooted at `root_ppn`.
    pub const fn new(scheme: PagingScheme, root_ppn: PhysPageNum, asid: u16, s_bit: bool) -> Self {
        Self {
            scheme: Some(scheme),
            s_bit,
            asid,
            root_ppn,
        }
    }

    /// True when translation is enabled (any scheme; false = Bare).
    pub const fn translating(&self) -> bool {
        self.scheme.is_some()
    }

    /// Encodes to the raw CSR value.
    pub fn to_bits(self) -> u64 {
        let mode = self.scheme.map_or(MODE_BARE, PagingScheme::satp_mode);
        (mode << MODE_SHIFT)
            | (if self.s_bit { S_BIT } else { 0 })
            | (((self.asid as u64) & ASID_MASK) << ASID_SHIFT)
            | (self.root_ppn.as_u64() & PPN_MASK)
    }

    /// Decodes from the raw CSR value. Unknown modes decode as Bare.
    pub fn from_bits(bits: u64) -> Self {
        Self {
            scheme: PagingScheme::from_satp_mode(bits >> MODE_SHIFT),
            s_bit: bits & S_BIT != 0,
            asid: ((bits >> ASID_SHIFT) & ASID_MASK) as u16,
            root_ppn: PhysPageNum::new(bits & PPN_MASK),
        }
    }
}

impl fmt::Display for Satp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.scheme {
            Some(scheme) => write!(
                f,
                "{scheme} root={} asid={} s={}",
                self.root_ppn,
                self.asid,
                if self.s_bit { 1 } else { 0 }
            ),
            None => f.write_str("bare"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        for scheme in PagingScheme::ALL {
            let s = Satp::new(scheme, PhysPageNum::new(0xFC123), 0x1abc, true);
            let decoded = Satp::from_bits(s.to_bits());
            assert_eq!(decoded, s, "{scheme}");
            assert!(decoded.s_bit);
            assert_eq!(decoded.asid, 0x1abc);
            assert_eq!(decoded.scheme, Some(scheme));
        }
    }

    #[test]
    fn mode_field_encodes_the_scheme() {
        let bits =
            |scheme| Satp::new(scheme, PhysPageNum::new(1), 0, false).to_bits() >> MODE_SHIFT;
        assert_eq!(bits(PagingScheme::Sv39), 8);
        assert_eq!(bits(PagingScheme::Sv48), 9);
        assert_eq!(bits(PagingScheme::Sv57), 10);
        assert_eq!(Satp::bare().to_bits() >> MODE_SHIFT, 0);
    }

    #[test]
    fn bare_round_trip() {
        assert_eq!(Satp::from_bits(Satp::bare().to_bits()), Satp::bare());
        assert!(!Satp::bare().translating());
    }

    #[test]
    fn s_bit_independent_of_asid() {
        let without = Satp::new(PagingScheme::Sv39, PhysPageNum::new(1), 0x7fff, false);
        let with = Satp::new(PagingScheme::Sv39, PhysPageNum::new(1), 0x7fff, true);
        assert_ne!(without.to_bits(), with.to_bits());
        assert_eq!(Satp::from_bits(without.to_bits()).asid, 0x7fff);
        assert_eq!(Satp::from_bits(with.to_bits()).asid, 0x7fff);
    }

    #[test]
    fn root_table_is_the_ppn_page() {
        let s = Satp::new(PagingScheme::Sv48, PhysPageNum::new(0x1000), 0, false);
        assert_eq!(
            s.root_ppn.base_addr(),
            ptstore_core::PhysAddr::new(0x1000 << 12)
        );
    }

    #[test]
    fn unknown_mode_is_bare() {
        let bits = 5u64 << MODE_SHIFT;
        assert_eq!(Satp::from_bits(bits).scheme, None);
    }

    #[test]
    fn displays_scheme_name() {
        let s = Satp::new(PagingScheme::Sv57, PhysPageNum::new(2), 7, true);
        assert_eq!(s.to_string(), "sv57 root=0x2 asid=7 s=1");
        assert_eq!(Satp::bare().to_string(), "bare");
    }
}
