//! Access kinds and the PTStore access-channel abstraction.
//!
//! In hardware, PTStore distinguishes three ways an access can reach physical
//! memory: a regular load/store/fetch, the dedicated `ld.pt`/`sd.pt`
//! instructions, and the page-table walker. The processor grants the secure
//! region exclusively to the latter two (paper §III-C1). In this model every
//! access carries its originating [`Channel`] so the PMP can apply the same
//! rule.

use core::fmt;

/// What an access does to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data read (regular load, `ld.pt`, or PTW fetch).
    Read,
    /// A data write (regular store, `sd.pt`, or PTW A/D-bit update).
    Write,
    /// An instruction fetch.
    Execute,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Execute => "execute",
        })
    }
}

/// The hardware path an access was issued from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Ordinary load/store/fetch instructions. Denied inside the secure
    /// region (paper Fig. 1, arrow 2).
    Regular,
    /// The new `ld.pt`/`sd.pt` instructions. Granted inside the secure region
    /// and *only* there (paper Fig. 1, arrow 4; §III-C2).
    SecurePt,
    /// The page-table walker in the MMU. Once `satp.S` is set, restricted to
    /// the secure region (paper Fig. 1, arrow 5; §IV-A1).
    Ptw,
}

impl Channel {
    /// True for the dedicated page-table access instructions.
    #[inline]
    pub const fn is_secure_instruction(self) -> bool {
        matches!(self, Channel::SecurePt)
    }

    /// True for walker-originated accesses.
    #[inline]
    pub const fn is_walker(self) -> bool {
        matches!(self, Channel::Ptw)
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Channel::Regular => "regular",
            Channel::SecurePt => "ld.pt/sd.pt",
            Channel::Ptw => "ptw",
        })
    }
}

impl From<Channel> for ptstore_trace::Chan {
    fn from(c: Channel) -> Self {
        match c {
            Channel::Regular => ptstore_trace::Chan::Regular,
            Channel::SecurePt => ptstore_trace::Chan::SecurePt,
            Channel::Ptw => ptstore_trace::Chan::Ptw,
        }
    }
}

impl From<AccessKind> for ptstore_trace::Access {
    fn from(k: AccessKind) -> Self {
        match k {
            AccessKind::Read => ptstore_trace::Access::Read,
            AccessKind::Write => ptstore_trace::Access::Write,
            AccessKind::Execute => ptstore_trace::Access::Execute,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_predicates() {
        assert!(Channel::SecurePt.is_secure_instruction());
        assert!(!Channel::Regular.is_secure_instruction());
        assert!(Channel::Ptw.is_walker());
        assert!(!Channel::SecurePt.is_walker());
    }

    #[test]
    fn display_nonempty() {
        for c in [Channel::Regular, Channel::SecurePt, Channel::Ptw] {
            assert!(!c.to_string().is_empty());
        }
        for k in [AccessKind::Read, AccessKind::Write, AccessKind::Execute] {
            assert!(!k.to_string().is_empty());
        }
    }
}
