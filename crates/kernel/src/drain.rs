//! Drain policies for the batched-shootdown machinery.
//!
//! PR 8's deferral drains the per-hart `(asid, vpn)` flush queue at fixed
//! security boundaries only. A production kernel also drains *early* for
//! performance (bounding queue depth, and with it the worst-case remote
//! staleness window and the size of each IPI round) and at ASID-lifecycle
//! events (so a recycled ASID can never go live while invalidations for
//! its previous generation still sit in a queue). [`DrainPolicy`] names
//! those placements.
//!
//! Two drain kinds are **mandatory under every policy** and are not
//! negotiable through this knob:
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
//! drains: nothing ([`DrainPolicy::Boundary`]), a queue-depth watermark
//! ([`DrainPolicy::Watermark`]), or paranoid generation hygiene that
//! treats every ASID hand-out as a potential reuse
//! ([`DrainPolicy::AsidRecycle`]). Early drains are behaviour-preserving:
//! they flush queued pages sooner than a boundary would, which can only
//! shrink remote staleness windows — the policy-differential tests pin
//! final TLB state byte-identical across policies.

use core::fmt;
use core::str::FromStr;

use serde::{Deserialize, Serialize};

/// Queue depth at which [`DrainPolicy::Watermark`] drains when no explicit
/// depth is given (`--drain-policy watermark`).
pub const DEFAULT_WATERMARK_DEPTH: u32 = 8;

/// When, beyond the mandatory security boundaries, the active hart's
/// deferred-shootdown queue is drained. See the module docs for the
/// policy × event matrix; `Boundary` is the default and reproduces PR 8's
/// behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
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
    /// Additionally drain at *every* ASID allocation, treating each
    /// hand-out as a potential reuse — the conservative policy a kernel
    /// with a small ASID space effectively runs. (Reuse after rollover
    /// drains under every policy; this variant merely refuses to rely on
    /// the rollover bookkeeping.)
    AsidRecycle,
}

impl DrainPolicy {
    /// The watermark depth, when this policy has one.
    pub fn watermark_depth(self) -> Option<u32> {
        match self {
            DrainPolicy::Watermark { depth } => Some(depth),
            _ => None,
        }
    }

    /// True when this policy drains at every ASID allocation (not just at
    /// reuse after rollover, which is mandatory under every policy).
    pub fn drains_on_asid_alloc(self) -> bool {
        matches!(self, DrainPolicy::AsidRecycle)
    }
}

impl fmt::Display for DrainPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainPolicy::Boundary => f.write_str("boundary"),
            DrainPolicy::Watermark { depth } => write!(f, "watermark:{depth}"),
            DrainPolicy::AsidRecycle => f.write_str("asid-recycle"),
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
            "unknown drain policy `{}` (expected `boundary`, `watermark[:depth]`, \
             or `asid-recycle`)",
            self.0
        )
    }
}

impl std::error::Error for DrainPolicyParseError {}

impl FromStr for DrainPolicy {
    type Err = DrainPolicyParseError;

    /// Parses `boundary`, `watermark` (default depth
    /// [`DEFAULT_WATERMARK_DEPTH`]), `watermark:<depth>`, or
    /// `asid-recycle` — the `--drain-policy` flag vocabulary.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "boundary" => Ok(DrainPolicy::Boundary),
            "watermark" => Ok(DrainPolicy::Watermark {
                depth: DEFAULT_WATERMARK_DEPTH,
            }),
            "asid-recycle" => Ok(DrainPolicy::AsidRecycle),
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
        assert_eq!("asid-recycle".parse(), Ok(DrainPolicy::AsidRecycle));
        for bad in ["", "watermark:", "watermark:0", "watermark:x", "eager"] {
            assert!(
                bad.parse::<DrainPolicy>().is_err(),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn displays_round_trip() {
        for p in [
            DrainPolicy::Boundary,
            DrainPolicy::Watermark { depth: 17 },
            DrainPolicy::AsidRecycle,
        ] {
            assert_eq!(p.to_string().parse(), Ok(p));
        }
    }

    #[test]
    fn policy_helpers() {
        assert_eq!(DrainPolicy::default(), DrainPolicy::Boundary);
        for p in [
            DrainPolicy::Boundary,
            DrainPolicy::Watermark { depth: 4 },
            DrainPolicy::AsidRecycle,
        ] {
            // No wildcard arm: a new policy does not compile until its
            // helpers' answers are written down here.
            let (depth, on_alloc) = match p {
                DrainPolicy::Boundary => (None, false),
                DrainPolicy::Watermark { depth } => (Some(depth), false),
                DrainPolicy::AsidRecycle => (None, true),
            };
            assert_eq!(p.watermark_depth(), depth, "{p}");
            assert_eq!(p.drains_on_asid_alloc(), on_alloc, "{p}");
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
