//! The RV64 paging schemes: Sv39, Sv48 and Sv57.
//!
//! The paper evaluates PTStore on Sv39 only, but nothing in the mechanism
//! — PMP S-bit, PTW origin check, tokens — depends on the number of
//! translation levels. [`PagingScheme`] is the one description of a
//! scheme (levels, VA width, `satp` mode encoding, canonical form); the
//! `satp` CSR mode field selects it at run time, so the walk depth is a
//! value, never a type parameter.
//!
//! All RV64 Sv schemes share the same geometry per level: 9-bit VPN
//! slices above a 12-bit page offset, so a leaf at level `n` maps a
//! `4 KiB << (9n)` superpage.

use core::fmt;
use core::str::FromStr;

use crate::addr::VirtAddr;

/// Bits of virtual address translated per page-table level (all Sv
/// schemes: 512-entry tables).
pub const BITS_PER_LEVEL: u32 = 9;

/// The paging scheme a `satp` value encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PagingScheme {
    /// 3-level Sv39 (the paper's prototype scheme, 512 GiB).
    #[default]
    Sv39,
    /// 4-level Sv48 (256 TiB).
    Sv48,
    /// 5-level Sv57 (128 PiB).
    Sv57,
}

impl PagingScheme {
    /// Every scheme, in `satp` mode order.
    pub const ALL: [PagingScheme; 3] = [PagingScheme::Sv39, PagingScheme::Sv48, PagingScheme::Sv57];

    /// Number of translation levels.
    #[inline]
    pub const fn levels(self) -> usize {
        match self {
            PagingScheme::Sv39 => 3,
            PagingScheme::Sv48 => 4,
            PagingScheme::Sv57 => 5,
        }
    }

    /// The root table's level (`levels - 1`; 2 for Sv39, up to 4 for Sv57).
    #[inline]
    pub const fn root_level(self) -> usize {
        self.levels() - 1
    }

    /// Significant (sign-extended) virtual-address bits.
    #[inline]
    pub const fn va_bits(self) -> u32 {
        match self {
            PagingScheme::Sv39 => 39,
            PagingScheme::Sv48 => 48,
            PagingScheme::Sv57 => 57,
        }
    }

    /// The `satp.MODE` encoding of this scheme (8, 9, or 10).
    #[inline]
    pub const fn satp_mode(self) -> u64 {
        match self {
            PagingScheme::Sv39 => 8,
            PagingScheme::Sv48 => 9,
            PagingScheme::Sv57 => 10,
        }
    }

    /// The scheme's architectural name, lowercase (`"sv39"`, ...).
    #[inline]
    pub const fn name(self) -> &'static str {
        match self {
            PagingScheme::Sv39 => "sv39",
            PagingScheme::Sv48 => "sv48",
            PagingScheme::Sv57 => "sv57",
        }
    }

    /// Decodes a `satp.MODE` field; `None` for Bare (0) and reserved
    /// encodings.
    #[inline]
    pub fn from_satp_mode(mode: u64) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.satp_mode() == mode)
    }

    /// True when `va` is canonical for this scheme: bits `63..VA_BITS-1`
    /// all equal bit `VA_BITS-1`.
    #[inline]
    pub fn is_canonical(self, va: VirtAddr) -> bool {
        let upper = (va.as_u64() as i64) >> (self.va_bits() - 1);
        upper == 0 || upper == -1
    }
}

impl fmt::Display for PagingScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PagingScheme {
    type Err = UnknownScheme;

    fn from_str(s: &str) -> Result<Self, UnknownScheme> {
        Self::ALL
            .into_iter()
            .find(|scheme| scheme.name() == s)
            .ok_or(UnknownScheme)
    }
}

/// Error parsing a [`PagingScheme`] name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownScheme;

impl fmt::Display for UnknownScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("unknown paging scheme (expected sv39, sv48, or sv57)")
    }
}

impl std::error::Error for UnknownScheme {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SHIFT;

    #[test]
    fn scheme_constants_match_the_privileged_spec() {
        for s in PagingScheme::ALL {
            // No wildcard arm: a new scheme does not compile until its
            // spec constants are written down here.
            let (levels, satp_mode) = match s {
                PagingScheme::Sv39 => (3, 8),
                PagingScheme::Sv48 => (4, 9),
                PagingScheme::Sv57 => (5, 10),
            };
            assert_eq!(s.levels(), levels, "{s}");
            assert_eq!(s.satp_mode(), satp_mode, "{s}");
            // 12-bit offset + 9 bits per level = the VA width.
            assert_eq!(
                PAGE_SHIFT + BITS_PER_LEVEL * s.levels() as u32,
                s.va_bits(),
                "{s}"
            );
            assert_eq!(s.root_level(), s.levels() - 1, "{s}");
        }
    }

    #[test]
    fn satp_mode_round_trips() {
        for s in PagingScheme::ALL {
            assert_eq!(PagingScheme::from_satp_mode(s.satp_mode()), Some(s));
        }
        assert_eq!(PagingScheme::from_satp_mode(0), None); // Bare
        assert_eq!(PagingScheme::from_satp_mode(11), None); // reserved
    }

    #[test]
    fn names_parse_and_display() {
        for s in PagingScheme::ALL {
            assert_eq!(s.name().parse::<PagingScheme>(), Ok(s));
        }
        assert!("sv64".parse::<PagingScheme>().is_err());
        assert_eq!(
            UnknownScheme.to_string(),
            "unknown paging scheme (expected sv39, sv48, or sv57)"
        );
    }

    #[test]
    fn canonical_widens_with_the_scheme() {
        // The classic Sv39 non-canonical probe is canonical under Sv48+.
        let probe = VirtAddr::new(0x0000_0040_0000_0000);
        assert!(!PagingScheme::Sv39.is_canonical(probe));
        assert!(PagingScheme::Sv48.is_canonical(probe));
        assert!(PagingScheme::Sv57.is_canonical(probe));
        // The kernel high half is canonical everywhere.
        let kernel = VirtAddr::new(0xffff_ffc0_0000_0000);
        for s in PagingScheme::ALL {
            assert!(s.is_canonical(kernel), "{s}");
            assert!(s.is_canonical(VirtAddr::new(0)), "{s}");
        }
        // Just past the sign-extension boundary is never canonical.
        assert!(!PagingScheme::Sv48.is_canonical(VirtAddr::new(0x0001_0000_0000_0000)));
        assert!(!PagingScheme::Sv57.is_canonical(VirtAddr::new(0x0200_0000_0000_0000)));
    }
}
