//! Drain policies for the batched-shootdown machinery.
//!
//! With deferred shootdowns on, each hart queues its remote `(asid, vpn)`
//! invalidations and a *drain* delivers the whole queue in one IPI round.
//! Two drain kinds are **mandatory under every policy**:
//!
//! * **Security boundaries** — secure-region adjustment, context switch,
//!   hart handoff, end of every unmap/protect operation (including error
//!   paths), CoW breaks. Skipping one leaves a remote TLB entry alive past
//!   the point where the kernel's security argument assumed it dead; the
//!   fault campaign's `drain-drop` class proves the invariant oracle flags
//!   exactly that.
//! * **ASID reuse** — once the 15-bit ASID space has rolled over, every
//!   allocation hands out a value some earlier address-space generation
//!   used. Queued invalidations tagged with that ASID belong to the *old*
//!   generation; draining before the new space goes live keeps deferred
//!   state from straddling generations.
//!
//! What the policy selects is the *additional*, purely performance-placed
//! drains: none ([`DrainPolicy::Boundary`]) or one whenever the active
//! hart's queue reaches a depth ([`DrainPolicy::Watermark`]). An early
//! drain delivers every entry it takes, so it can only shrink remote
//! staleness windows: the warm-TLB proptest
//! `tests/deferred_shootdowns.rs::drained_tlb_state_matches_eager` checks
//! after every op that a watermark kernel's TLBs equal an eager kernel's.
//!
//! No policy drains at every ASID allocation: every operation that queues
//! an invalidation drains before it returns, and a hart handoff drains the
//! outgoing hart, so the queue is already empty whenever an address space
//! is created and such a drain would never fire.

use core::fmt;
use core::str::FromStr;

/// Queue depth at which [`DrainPolicy::Watermark`] drains when no explicit
/// depth is given (`--drain-policy watermark`).
pub const DEFAULT_WATERMARK_DEPTH: u32 = 8;

/// When, beyond the mandatory security boundaries and ASID reuse, the
/// active hart's deferred-shootdown queue is drained. `Boundary` is the
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DrainPolicy {
    /// Drain only at the mandatory points: security boundaries, and ASID
    /// reuse after rollover. Deepest queues, fewest IPI rounds.
    #[default]
    Boundary,
    /// Additionally drain the moment the active hart's queue reaches
    /// `depth` entries. Caps queue depth (and each drain's batch size) at
    /// the cost of extra IPI rounds between boundaries.
    Watermark {
        /// Queue depth (in queued page invalidations) that triggers an
        /// early drain. Must be non-zero.
        depth: u32,
    },
}

impl DrainPolicy {
    /// The watermark depth, when this policy has one.
    pub fn watermark_depth(self) -> Option<u32> {
        match self {
            DrainPolicy::Boundary => None,
            DrainPolicy::Watermark { depth } => Some(depth),
        }
    }
}

impl fmt::Display for DrainPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainPolicy::Boundary => f.write_str("boundary"),
            DrainPolicy::Watermark { depth } => write!(f, "watermark:{depth}"),
        }
    }
}

/// Why a drain-policy string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainPolicyParseError(String);

impl fmt::Display for DrainPolicyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown drain policy `{}` (expected `boundary` or `watermark[:depth]`)",
            self.0
        )
    }
}

impl std::error::Error for DrainPolicyParseError {}

impl FromStr for DrainPolicy {
    type Err = DrainPolicyParseError;

    /// Parses `boundary`, `watermark` (default depth
    /// [`DEFAULT_WATERMARK_DEPTH`]) or `watermark:<depth>` — the
    /// `--drain-policy` flag vocabulary.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "boundary" => Ok(DrainPolicy::Boundary),
            "watermark" => Ok(DrainPolicy::Watermark {
                depth: DEFAULT_WATERMARK_DEPTH,
            }),
            other => match other.strip_prefix("watermark:") {
                Some(depth) => depth
                    .parse::<u32>()
                    .ok()
                    .filter(|&d| d > 0)
                    .map(|depth| DrainPolicy::Watermark { depth })
                    .ok_or_else(|| DrainPolicyParseError(other.into())),
                None => Err(DrainPolicyParseError(other.into())),
            },
        }
    }
}

/// A planted perturbation of the drain machinery (the `ptstore-fault`
/// drain tap; see [`Kernel::inject_drain_fault`](crate::Kernel::inject_drain_fault)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainFault {
    /// The next drain silently discards one queued `(asid, vpn)` entry
    /// (`index`, modulo the deduplicated queue length) before the batched
    /// broadcast — the remote TLBs that entry targeted are never flushed.
    /// This models a missed-drain kernel bug; on a security boundary the
    /// invariant oracle's TLB-hygiene sweep must flag the stale entry.
    DropQueuedNext {
        /// Which deduplicated queue slot is lost.
        index: u64,
    },
    /// The next watermark-triggered early drain is skipped whole: the
    /// queue keeps its entries past the configured depth until the next
    /// mandatory boundary drain delivers them. Benign by design — the
    /// watermark placement is pure performance.
    SkipWatermarkNext,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_flag_vocabulary() {
        assert_eq!("boundary".parse(), Ok(DrainPolicy::Boundary));
        assert_eq!(
            "watermark".parse(),
            Ok(DrainPolicy::Watermark {
                depth: DEFAULT_WATERMARK_DEPTH
            })
        );
        assert_eq!(
            "watermark:3".parse(),
            Ok(DrainPolicy::Watermark { depth: 3 })
        );
        for bad in [
            "",
            "watermark:",
            "watermark:0",
            "watermark:x",
            "eager",
            "asid-recycle",
        ] {
            assert!(
                bad.parse::<DrainPolicy>().is_err(),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn displays_round_trip() {
        for p in [DrainPolicy::Boundary, DrainPolicy::Watermark { depth: 17 }] {
            assert_eq!(p.to_string().parse(), Ok(p));
        }
    }

    #[test]
    fn policy_helpers() {
        assert_eq!(DrainPolicy::default(), DrainPolicy::Boundary);
        for p in [DrainPolicy::Boundary, DrainPolicy::Watermark { depth: 4 }] {
            // No wildcard arm: a new policy does not compile until its
            // helper's answer is written down here.
            let depth = match p {
                DrainPolicy::Boundary => None,
                DrainPolicy::Watermark { depth } => Some(depth),
            };
            assert_eq!(p.watermark_depth(), depth, "{p}");
        }
    }

    #[test]
    fn drain_faults_compare() {
        assert_ne!(
            DrainFault::DropQueuedNext { index: 0 },
            DrainFault::SkipWatermarkNext
        );
    }
}
