//! Error types shared across the PTStore model.

use core::fmt;

use crate::addr::PhysAddr;
use crate::channel::{AccessKind, Channel};

/// Why a physical memory access was denied.
///
/// These correspond to the *access fault* exceptions the modified BOOM core
/// raises (paper §IV-A1) plus model-level range/alignment errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessError {
    /// A regular instruction touched the secure region (paper Fig. 1, ②).
    SecureRegionDenied {
        /// Faulting physical address.
        addr: PhysAddr,
        /// What the access attempted.
        kind: AccessKind,
    },
    /// `ld.pt`/`sd.pt` touched memory *outside* the secure region — the new
    /// instructions only access the secure region (paper §IV-A1).
    SecureInstructionOutsideRegion {
        /// Faulting physical address.
        addr: PhysAddr,
        /// What the access attempted.
        kind: AccessKind,
    },
    /// The PTW fetched a page table from outside the secure region while
    /// `satp.S` was set (paper Fig. 1, ⑤).
    PtwOutsideRegion {
        /// Faulting physical address of the page-table fetch.
        addr: PhysAddr,
    },
    /// An ordinary PMP permission violation (R/W/X/L rules).
    PmpDenied {
        /// Faulting physical address.
        addr: PhysAddr,
        /// What the access attempted.
        kind: AccessKind,
        /// Which channel issued it.
        channel: Channel,
    },
    /// Access beyond the end of simulated physical memory.
    OutOfRange {
        /// Faulting physical address.
        addr: PhysAddr,
    },
    /// Misaligned multi-byte access.
    Misaligned {
        /// Faulting physical address.
        addr: PhysAddr,
        /// Required alignment in bytes.
        required: u64,
    },
}

impl AccessError {
    /// The faulting physical address.
    pub fn addr(&self) -> PhysAddr {
        match *self {
            AccessError::SecureRegionDenied { addr, .. }
            | AccessError::SecureInstructionOutsideRegion { addr, .. }
            | AccessError::PtwOutsideRegion { addr }
            | AccessError::PmpDenied { addr, .. }
            | AccessError::OutOfRange { addr }
            | AccessError::Misaligned { addr, .. } => addr,
        }
    }

    /// True when this fault was raised by PTStore's secure-region logic (as
    /// opposed to baseline PMP/range checking).
    pub fn is_ptstore_fault(&self) -> bool {
        matches!(
            self,
            AccessError::SecureRegionDenied { .. }
                | AccessError::SecureInstructionOutsideRegion { .. }
                | AccessError::PtwOutsideRegion { .. }
        )
    }

    /// The trace-layer verdict corresponding to this denial. Range and
    /// alignment faults are model-level, not PMP decisions; they map to the
    /// generic denial tag.
    pub fn trace_verdict(&self) -> ptstore_trace::Verdict {
        match self {
            AccessError::SecureRegionDenied { .. } => ptstore_trace::Verdict::SecureRegionDenied,
            AccessError::SecureInstructionOutsideRegion { .. } => {
                ptstore_trace::Verdict::SecureInstructionOutsideRegion
            }
            AccessError::PtwOutsideRegion { .. } => ptstore_trace::Verdict::PtwOutsideRegion,
            AccessError::PmpDenied { .. }
            | AccessError::OutOfRange { .. }
            | AccessError::Misaligned { .. } => ptstore_trace::Verdict::PmpDenied,
        }
    }
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::SecureRegionDenied { addr, kind } => {
                write!(f, "regular {kind} denied inside secure region at {addr}")
            }
            AccessError::SecureInstructionOutsideRegion { addr, kind } => {
                write!(f, "ld.pt/sd.pt {kind} outside secure region at {addr}")
            }
            AccessError::PtwOutsideRegion { addr } => {
                write!(f, "page-table walk outside secure region at {addr}")
            }
            AccessError::PmpDenied {
                addr,
                kind,
                channel,
            } => write!(f, "pmp denied {kind} via {channel} at {addr}"),
            AccessError::OutOfRange { addr } => {
                write!(f, "physical address {addr} out of range")
            }
            AccessError::Misaligned { addr, required } => {
                write!(
                    f,
                    "misaligned access at {addr} (requires {required}-byte alignment)"
                )
            }
        }
    }
}

impl std::error::Error for AccessError {}

/// Errors configuring or resizing the secure region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionError {
    /// Base or size not page-aligned (PMP granule).
    Unaligned,
    /// Zero-sized region.
    Empty,
    /// Base + size overflows the physical address space.
    Overflow,
    /// A boundary update would not keep the region contiguous (PMP requires
    /// contiguous physical addresses; paper §III-C2).
    NotContiguous,
    /// No free PMP entry to hold the region.
    NoPmpEntry,
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RegionError::Unaligned => "secure region base/size must be page-aligned",
            RegionError::Empty => "secure region must be non-empty",
            RegionError::Overflow => "secure region overflows the physical address space",
            RegionError::NotContiguous => "secure region update breaks contiguity",
            RegionError::NoPmpEntry => "no free pmp entry for the secure region",
        })
    }
}

impl std::error::Error for RegionError {}

/// Why token validation failed (paper §III-C3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenError {
    /// The PCB's token pointer does not point into the secure region, so the
    /// "token" could be attacker-controlled normal memory.
    TokenOutsideSecureRegion,
    /// The token's user pointer does not point back at the PCB's token slot.
    UserPointerMismatch,
    /// The page-table pointer in the token differs from the one in the PCB.
    PageTablePointerMismatch,
    /// The token slot is empty (cleared token, e.g. after process exit).
    Cleared,
}

impl fmt::Display for TokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TokenError::TokenOutsideSecureRegion => "token pointer outside secure region",
            TokenError::UserPointerMismatch => "token user pointer does not match pcb",
            TokenError::PageTablePointerMismatch => "token page-table pointer does not match pcb",
            TokenError::Cleared => "token has been cleared",
        })
    }
}

impl std::error::Error for TokenError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_error_addr_and_classification() {
        let e = AccessError::SecureRegionDenied {
            addr: PhysAddr::new(0x1000),
            kind: AccessKind::Write,
        };
        assert_eq!(e.addr(), PhysAddr::new(0x1000));
        assert!(e.is_ptstore_fault());

        let e = AccessError::OutOfRange {
            addr: PhysAddr::new(0x2000),
        };
        assert!(!e.is_ptstore_fault());
    }

    #[test]
    fn displays_nonempty() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(AccessError::PtwOutsideRegion {
                addr: PhysAddr::new(1),
            }),
            Box::new(RegionError::NotContiguous),
            Box::new(TokenError::UserPointerMismatch),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
