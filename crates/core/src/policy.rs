//! The distilled PTStore access-control decision procedure.
//!
//! [`PmpUnit::check`](crate::pmp::PmpUnit::check) is the full hardware path;
//! this module exposes the same decision as a pure function of three bits —
//! *is the address in the secure region*, *which channel issued the access*,
//! and *is the walker check armed* — so the security argument of the paper
//! (§III-B, Fig. 1) can be stated, tested, and property-checked in isolation.

use crate::channel::Channel;

/// The outcome of the PTStore access-control matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessDecision {
    /// The access proceeds (still subject to baseline PMP R/W/X bits).
    Allow,
    /// Regular instruction inside the secure region (paper Fig. 1, ②).
    DenyRegularInSecure,
    /// `ld.pt`/`sd.pt` outside the secure region (paper §IV-A1).
    DenySecureInstructionOutside,
    /// Walker fetch outside the secure region while `satp.S` is set
    /// (paper Fig. 1, ⑤).
    DenyPtwOutside,
}

impl AccessDecision {
    /// True when the access is permitted.
    pub const fn is_allow(self) -> bool {
        matches!(self, AccessDecision::Allow)
    }
}

/// Evaluates the PTStore access matrix.
///
/// | channel    | in secure region | outside (satp.S=1) | outside (satp.S=0) |
/// |------------|------------------|--------------------|--------------------|
/// | regular    | deny             | allow              | allow              |
/// | ld.pt/sd.pt| allow            | deny               | deny               |
/// | ptw        | allow            | deny               | allow              |
///
/// ```
/// use ptstore_core::{check_access, AccessDecision, Channel};
/// assert!(check_access(Channel::SecurePt, true, true).is_allow());
/// assert_eq!(
///     check_access(Channel::Regular, true, true),
///     AccessDecision::DenyRegularInSecure
/// );
/// ```
pub const fn check_access(
    channel: Channel,
    in_secure_region: bool,
    satp_s: bool,
) -> AccessDecision {
    match (channel, in_secure_region) {
        (Channel::Regular, true) => AccessDecision::DenyRegularInSecure,
        (Channel::Regular, false) => AccessDecision::Allow,
        (Channel::SecurePt, true) => AccessDecision::Allow,
        (Channel::SecurePt, false) => AccessDecision::DenySecureInstructionOutside,
        (Channel::Ptw, true) => AccessDecision::Allow,
        (Channel::Ptw, false) => {
            if satp_s {
                AccessDecision::DenyPtwOutside
            } else {
                AccessDecision::Allow
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full 3×2×2 matrix, written out as the paper's Fig. 1 arrows.
    #[test]
    fn full_matrix() {
        use AccessDecision::*;
        use Channel::*;
        let cases = [
            (Regular, true, true, DenyRegularInSecure),
            (Regular, true, false, DenyRegularInSecure),
            (Regular, false, true, Allow),
            (Regular, false, false, Allow),
            (SecurePt, true, true, Allow),
            (SecurePt, true, false, Allow),
            (SecurePt, false, true, DenySecureInstructionOutside),
            (SecurePt, false, false, DenySecureInstructionOutside),
            (Ptw, true, true, Allow),
            (Ptw, true, false, Allow),
            (Ptw, false, true, DenyPtwOutside),
            (Ptw, false, false, Allow),
        ];
        for (ch, sec, satp_s, want) in cases {
            assert_eq!(
                check_access(ch, sec, satp_s),
                want,
                "{ch} sec={sec} s={satp_s}"
            );
        }
    }

    /// Security invariant: no channel other than ld.pt/sd.pt and the PTW can
    /// ever be allowed into the secure region.
    #[test]
    fn secure_region_exclusivity() {
        for satp_s in [false, true] {
            assert!(!check_access(Channel::Regular, true, satp_s).is_allow());
            assert!(check_access(Channel::SecurePt, true, satp_s).is_allow());
            assert!(check_access(Channel::Ptw, true, satp_s).is_allow());
        }
    }

    /// Security invariant: once satp.S is armed, every page-table fetch the
    /// walker performs outside the region is refused, which is exactly what
    /// stops PT-Injection.
    #[test]
    fn armed_walker_refuses_outside() {
        assert_eq!(
            check_access(Channel::Ptw, false, true),
            AccessDecision::DenyPtwOutside
        );
    }
}
