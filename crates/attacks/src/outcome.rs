//! Attack outcome classification.

use core::fmt;

/// Which defense layer stopped an attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockedBy {
    /// The PMP S-bit: a regular instruction faulted inside the secure region
    /// (paper Fig. 1 ②).
    SecureRegionPmp,
    /// The page-table walker refused a table outside the secure region
    /// (paper Fig. 1 ⑤).
    PtwOriginCheck,
    /// Token validation rejected a page-table pointer (paper §III-C3).
    TokenCheck,
    /// The zero-check caught a non-free page-table page (paper §V-E3).
    ZeroCheck,
    /// Virtual-isolation page permissions (the baseline's defense).
    PagePermissions,
    /// The target had no mapping (PT-Rand's hidden placement, pre-leak).
    UnmappedTarget,
    /// The reused secure-region data was not valid as PTEs — all fields are
    /// 8-byte-aligned pointers, so their present bits are clear (§V-E2).
    InvalidAsPte,
}

impl fmt::Display for BlockedBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BlockedBy::SecureRegionPmp => "secure-region PMP (S-bit)",
            BlockedBy::PtwOriginCheck => "PTW origin check (satp.S)",
            BlockedBy::TokenCheck => "token mechanism",
            BlockedBy::ZeroCheck => "zero-check on PT pages",
            BlockedBy::PagePermissions => "page permissions (virtual isolation)",
            BlockedBy::UnmappedTarget => "unmapped target (randomisation)",
            BlockedBy::InvalidAsPte => "aligned pointers are invalid PTEs",
        })
    }
}

/// How an attack run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The attack achieved its goal directly.
    Succeeded,
    /// The attack achieved its goal after an information-disclosure step
    /// (how randomisation-based defenses fall, §VI-1).
    SucceededViaLeak,
    /// A defense layer stopped it.
    Blocked(BlockedBy),
    /// The attack "worked" but gained nothing the defense cares about
    /// (the VM-metadata case of §V-E4: only user-space mappings moved).
    HarmlessToKernel,
}

impl AttackOutcome {
    /// True when the attacker reached their goal (leak-assisted counts).
    pub fn attacker_won(&self) -> bool {
        matches!(
            self,
            AttackOutcome::Succeeded | AttackOutcome::SucceededViaLeak
        )
    }
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackOutcome::Succeeded => f.write_str("SUCCEEDED"),
            AttackOutcome::SucceededViaLeak => f.write_str("SUCCEEDED (via info leak)"),
            AttackOutcome::Blocked(by) => write!(f, "blocked by {by}"),
            AttackOutcome::HarmlessToKernel => f.write_str("no kernel impact"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAYERS: [BlockedBy; 7] = [
        BlockedBy::SecureRegionPmp,
        BlockedBy::PtwOriginCheck,
        BlockedBy::TokenCheck,
        BlockedBy::ZeroCheck,
        BlockedBy::PagePermissions,
        BlockedBy::UnmappedTarget,
        BlockedBy::InvalidAsPte,
    ];

    fn outcomes() -> impl Iterator<Item = AttackOutcome> {
        [
            AttackOutcome::Succeeded,
            AttackOutcome::SucceededViaLeak,
            AttackOutcome::HarmlessToKernel,
        ]
        .into_iter()
        .chain(LAYERS.map(AttackOutcome::Blocked))
    }

    /// Whether the attacker won, and a phrase the display must carry. The
    /// match has no wildcard arm, here or inside `Blocked(..)`, so a new
    /// outcome or defense layer does not compile until it is listed here.
    fn expected(outcome: &AttackOutcome) -> (bool, &'static str) {
        match outcome {
            AttackOutcome::Succeeded => (true, "SUCCEEDED"),
            AttackOutcome::SucceededViaLeak => (true, "leak"),
            AttackOutcome::Blocked(BlockedBy::SecureRegionPmp) => (false, "S-bit"),
            AttackOutcome::Blocked(BlockedBy::PtwOriginCheck) => (false, "satp.S"),
            AttackOutcome::Blocked(BlockedBy::TokenCheck) => (false, "token"),
            AttackOutcome::Blocked(BlockedBy::ZeroCheck) => (false, "zero-check"),
            AttackOutcome::Blocked(BlockedBy::PagePermissions) => (false, "virtual isolation"),
            AttackOutcome::Blocked(BlockedBy::UnmappedTarget) => (false, "randomisation"),
            AttackOutcome::Blocked(BlockedBy::InvalidAsPte) => (false, "invalid PTEs"),
            AttackOutcome::HarmlessToKernel => (false, "no kernel impact"),
        }
    }

    #[test]
    fn attacker_won_classification() {
        for outcome in outcomes() {
            assert_eq!(outcome.attacker_won(), expected(&outcome).0, "{outcome}");
        }
    }

    #[test]
    fn displays_are_informative() {
        for outcome in outcomes() {
            let phrase = expected(&outcome).1;
            assert!(
                outcome.to_string().contains(phrase),
                "{outcome} lacks {phrase:?}"
            );
        }
    }

    /// Every defense layer renders a distinct, non-empty explanation.
    #[test]
    fn every_blocked_by_variant_displays_distinctly() {
        let mut seen = std::collections::BTreeSet::new();
        for by in LAYERS {
            let s = by.to_string();
            assert!(!s.is_empty(), "{by:?} renders empty");
            assert!(seen.insert(s.clone()), "duplicate display {s:?}");
            assert!(
                AttackOutcome::Blocked(by).to_string().contains(&s),
                "outcome display embeds the layer"
            );
        }
    }
}
