//! Exhaustive coverage of the oracle's violation vocabulary.
//!
//! Every [`Violation`] variant is a distinct promise the invariant oracle
//! makes about the machine; each must render an explanation a campaign
//! report can print verbatim. [`context`] matches every variant with no
//! wildcard arm, so a new variant does not compile until it is covered
//! here: a variant nothing can name in a test is a variant no campaign has
//! ever demanded.

use ptstore_core::{PhysPageNum, TokenError};
use ptstore_fault::Violation;

fn all_violations() -> Vec<Violation> {
    let ppn = PhysPageNum::new(0xabcd);
    let parent = PhysPageNum::new(0x1200);
    vec![
        Violation::PtPageOutsideRegion { ppn },
        Violation::ReachableUnknownPtPage { ppn, parent },
        Violation::UnreadablePtPage { ppn },
        Violation::UserLeafIntoRegion { ppn },
        Violation::SatpRootMismatch { hart: 7, pid: 9 },
        Violation::TokenBindingBroken {
            pid: 9,
            err: TokenError::UserPointerMismatch,
        },
        Violation::PmpRegionMismatch,
        Violation::PmpEnforcementMismatch,
        Violation::SatpSBitMismatch { hart: 5 },
        Violation::TlbMapsPtPage { hart: 1, ppn },
        Violation::TlbStaleTranslation {
            hart: 3,
            asid: 42,
            vpn: 0x5678,
        },
    ]
}

/// The context (pages, harts, pids, ASIDs, VPNs, token errors) each
/// rendered violation must carry, so a failing campaign run is debuggable
/// from its log.
fn context(v: &Violation) -> Vec<String> {
    match v {
        Violation::PtPageOutsideRegion { ppn }
        | Violation::UnreadablePtPage { ppn }
        | Violation::UserLeafIntoRegion { ppn } => vec![ppn.to_string()],
        Violation::ReachableUnknownPtPage { ppn, parent } => {
            vec![ppn.to_string(), parent.to_string()]
        }
        Violation::SatpRootMismatch { hart, pid } => {
            vec![format!("hart {hart}"), format!("pid {pid}")]
        }
        Violation::TokenBindingBroken { pid, err } => vec![format!("pid {pid}"), err.to_string()],
        Violation::PmpRegionMismatch | Violation::PmpEnforcementMismatch => vec![],
        Violation::SatpSBitMismatch { hart } => vec![format!("hart {hart}")],
        Violation::TlbMapsPtPage { hart, ppn } => vec![format!("hart {hart}"), ppn.to_string()],
        Violation::TlbStaleTranslation { hart, asid, vpn } => vec![
            format!("hart {hart}"),
            format!("asid {asid}"),
            format!("vpn {vpn:#x}"),
        ],
    }
}

/// Each variant displays non-empty and distinctly from every other.
#[test]
fn every_violation_variant_displays_distinctly() {
    let mut seen = std::collections::BTreeSet::new();
    for v in all_violations() {
        let s = v.to_string();
        assert!(!s.is_empty(), "{v:?} renders empty");
        assert!(seen.insert(s.clone()), "duplicate display {s:?}");
    }
}

#[test]
fn violation_displays_carry_context() {
    for v in all_violations() {
        let s = v.to_string();
        for c in context(&v) {
            assert!(s.contains(&c), "{s:?} lacks {c:?}");
        }
    }
}
