//! Property-based tests for the PTStore core invariants.

use proptest::prelude::*;
use ptstore_core::prelude::*;
use ptstore_core::{check_access, AccessDecision, PmpEntry, PrivilegeMode, PMP_ENTRY_COUNT};

const PAGE: u64 = PAGE_SIZE;

prop_compose! {
    /// An arbitrary page-aligned secure region inside a 4 GiB address space.
    fn arb_region()(base_page in 1u64..1_000_000, pages in 1u64..10_000) -> SecureRegion {
        SecureRegion::new(PhysAddr::new(base_page * PAGE), pages * PAGE).unwrap()
    }
}

proptest! {
    /// The PMP check and the distilled policy function always agree about
    /// PTStore-specific denials.
    #[test]
    fn pmp_matches_policy(region in arb_region(), addr in 0u64..(1u64 << 42), satp_s in any::<bool>()) {
        let mut pmp = PmpUnit::new();
        pmp.install_secure_region(&region).unwrap();
        let pa = PhysAddr::new(addr);
        let in_region = region.contains(pa);
        let ctx = AccessContext::supervisor(satp_s);
        for channel in [Channel::Regular, Channel::SecurePt, Channel::Ptw] {
            let decision = check_access(channel, in_region, satp_s);
            let hw = pmp.check(pa, AccessKind::Read, channel, ctx);
            prop_assert_eq!(
                decision.is_allow(),
                hw.is_ok(),
                "channel={} addr={:#x} in_region={} satp_s={}",
                channel, addr, in_region, satp_s
            );
            if let Err(e) = hw {
                let want = match decision {
                    AccessDecision::DenyRegularInSecure =>
                        matches!(e, AccessError::SecureRegionDenied { .. }),
                    AccessDecision::DenySecureInstructionOutside =>
                        matches!(e, AccessError::SecureInstructionOutsideRegion { .. }),
                    AccessDecision::DenyPtwOutside =>
                        matches!(e, AccessError::PtwOutsideRegion { .. }),
                    AccessDecision::Allow => false,
                };
                prop_assert!(want, "error kind mismatch: {:?} vs {:?}", decision, e);
            }
        }
    }

    /// Growing the secure region downward preserves the end boundary, keeps
    /// the region contiguous, and never *shrinks* coverage: every address
    /// secure before stays secure after.
    #[test]
    fn grow_down_is_monotone(region in arb_region(), extra_pages in 1u64..1_000, probe in 0u64..(1u64 << 42)) {
        prop_assume!(region.base().as_u64() >= extra_pages * PAGE);
        let grown = region.grow_down(extra_pages * PAGE).unwrap();
        prop_assert_eq!(grown.end(), region.end());
        prop_assert_eq!(grown.size(), region.size() + extra_pages * PAGE);
        let pa = PhysAddr::new(probe);
        if region.contains(pa) {
            prop_assert!(grown.contains(pa));
        }
    }

    /// A token round-trips through validation: it accepts exactly the
    /// (pt, slot) pair the token was issued for. Both fields are 8-byte
    /// aligned, so bit 0 of each (a PTE's V bit) is clear (paper §V-E2).
    #[test]
    fn token_round_trip_and_binding(
        pt in (1u64..u64::MAX / 16).prop_map(|x| x * 8),
        slot in (1u64..u64::MAX / 16).prop_map(|x| x * 8),
        other_pt in (1u64..u64::MAX / 16).prop_map(|x| x * 8),
        other_slot in (1u64..u64::MAX / 16).prop_map(|x| x * 8),
    ) {
        let t = Token::new(PhysAddr::new(pt), PhysAddr::new(slot));
        prop_assert_eq!((t.pt_ptr.as_u64() & 1, t.user_ptr.as_u64() & 1), (0, 0));
        prop_assert!(t.validate(PhysAddr::new(pt), PhysAddr::new(slot)).is_ok());
        if other_slot != slot {
            prop_assert!(t.validate(PhysAddr::new(pt), PhysAddr::new(other_slot)).is_err());
        }
        if other_pt != pt {
            prop_assert!(t.validate(PhysAddr::new(other_pt), PhysAddr::new(slot)).is_err());
        }
    }

    /// pmpaddr encoding round-trips for 4-byte-aligned addresses.
    #[test]
    fn pmpaddr_round_trip(addr in (0u64..(1u64 << 54)).prop_map(|x| x & !0b11)) {
        let pa = PhysAddr::new(addr);
        prop_assert_eq!(PmpEntry::decode_addr(PmpEntry::encode_addr(pa)), pa);
    }

    /// Page alignment is idempotent and lands on the containing page's
    /// base.
    #[test]
    fn alignment_laws(addr in 0u64..(u64::MAX - PAGE)) {
        let pa = PhysAddr::new(addr);
        let down = pa.page_align_down();
        prop_assert!(down <= pa);
        prop_assert!(down.is_aligned(PAGE));
        prop_assert_eq!(down.page_align_down(), down);
        prop_assert!(pa.as_u64() - down.as_u64() < PAGE);
    }
}

proptest! {
    /// For naturally aligned power-of-two regions, a NAPOT encoding and a
    /// TOR pair must produce identical PMP matching decisions — the two
    /// address modes are interchangeable representations.
    #[test]
    fn napot_and_tor_agree(
        size_log2 in 3u32..24,
        base_mult in 1u64..1000,
        probe in 0u64..(1u64 << 36),
    ) {
        use ptstore_core::{PmpAddressMode, PmpEntry, PmpPermissions};
        let size = 1u64 << size_log2;
        let base = base_mult * size; // naturally aligned
        // NAPOT unit.
        let mut napot = PmpUnit::new();
        napot.set_entry(
            0,
            PmpEntry {
                cfg: PmpPermissions::new()
                    .with_read()
                    .with_write()
                    .with_secure()
                    .with_mode(PmpAddressMode::Napot),
                addr: (base >> 2) | ((size >> 3) - 1),
            },
        );
        // TOR pair.
        let mut tor = PmpUnit::new();
        tor.set_entry(0, PmpEntry {
            cfg: PmpPermissions::new(),
            addr: base >> 2,
        });
        tor.set_entry(
            1,
            PmpEntry {
                cfg: PmpPermissions::new()
                    .with_read()
                    .with_write()
                    .with_secure()
                    .with_mode(PmpAddressMode::Tor),
                addr: (base + size) >> 2,
            },
        );
        let pa = PhysAddr::new(probe & !0b111);
        let ctx = AccessContext::supervisor(true);
        for channel in [Channel::Regular, Channel::SecurePt, Channel::Ptw] {
            let a = napot.check(pa, AccessKind::Write, channel, ctx).is_ok();
            let b = tor.check(pa, AccessKind::Write, channel, ctx).is_ok();
            prop_assert_eq!(
                a, b,
                "napot/tor disagree at {:#x} (region {:#x}+{:#x}, {})",
                pa.as_u64(), base, size, channel
            );
        }
        // And both agree on secure-region membership: a regular read is
        // refused inside the region and allowed outside it.
        prop_assert_eq!(
            napot.check(pa, AccessKind::Read, Channel::Regular, ctx),
            tor.check(pa, AccessKind::Read, Channel::Regular, ctx)
        );
    }
}

/// The test page the range-decision property splits with PMP entries.
const SPLIT_PAGE: u64 = 0x40_000;

prop_compose! {
    /// One entry of any mode and any L/S/R/W/X bits, with its address
    /// within half a page of [`SPLIT_PAGE`] so that programs split it.
    fn arb_split_entry()(
        mode in 0u8..4,
        bits in any::<u8>(),
        at in (SPLIT_PAGE - PAGE / 2)..(SPLIT_PAGE + PAGE + PAGE / 2),
        napot_log2 in 3u32..14,
    ) -> PmpEntry {
        use ptstore_core::{PmpAddressMode, PmpPermissions};
        let mode = PmpAddressMode::from_encoding(mode);
        let addr = if mode == PmpAddressMode::Napot {
            let size = 1u64 << napot_log2;
            ((at & !(size - 1)) >> 2) | ((size >> 3) - 1)
        } else {
            at >> 2
        };
        // L, S, X, W and R: everything but the A field and reserved bit 6.
        let cfg = PmpPermissions::from_bits(bits & 0b1010_0111).with_mode(mode);
        PmpEntry { cfg, addr }
    }
}

/// `e` as raised at `addr` instead.
fn raised_at(e: AccessError, addr: PhysAddr) -> AccessError {
    match e {
        AccessError::SecureRegionDenied { kind, .. } => {
            AccessError::SecureRegionDenied { addr, kind }
        }
        AccessError::SecureInstructionOutsideRegion { kind, .. } => {
            AccessError::SecureInstructionOutsideRegion { addr, kind }
        }
        AccessError::PtwOutsideRegion { .. } => AccessError::PtwOutsideRegion { addr },
        AccessError::PmpDenied { kind, channel, .. } => AccessError::PmpDenied {
            addr,
            kind,
            channel,
        },
        AccessError::OutOfRange { .. } => AccessError::OutOfRange { addr },
        AccessError::Misaligned { required, .. } => AccessError::Misaligned { addr, required },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Splitting a range into the runs `decide_run` reports loses nothing:
    /// `check` gives every 4-byte-aligned address (every word and every
    /// NA4 granule) of a run the run's verdict, raised at that address, and
    /// names the run's entry, and no run stops before its entry's reach
    /// ends, for any 8-entry program and any channel, kind, privilege,
    /// `satp.S` and S-bit enforcement.
    #[test]
    fn decide_run_agrees_with_check_at_every_word(
        entries in proptest::collection::vec(arb_split_entry(), PMP_ENTRY_COUNT..PMP_ENTRY_COUNT + 1),
        first_word in 0u64..512,
        words in 1u64..=512,
        channel in prop_oneof![Just(Channel::Regular), Just(Channel::SecurePt), Just(Channel::Ptw)],
        kind in prop_oneof![Just(AccessKind::Read), Just(AccessKind::Write), Just(AccessKind::Execute)],
        mode in prop_oneof![
            Just(PrivilegeMode::User),
            Just(PrivilegeMode::Supervisor),
            Just(PrivilegeMode::Machine)
        ],
        satp_s in any::<bool>(),
        enforce in any::<bool>(),
    ) {
        use ptstore_trace::{TraceEvent, TraceSink};
        let mut pmp = PmpUnit::new();
        for (i, e) in entries.into_iter().enumerate() {
            pmp.set_entry(i, e);
        }
        pmp.set_secure_enforcement(enforce);
        let sink = TraceSink::with_capacity(1);
        pmp.set_trace_sink(Some(sink.clone()));
        let ctx = AccessContext { mode, satp_s, hart: 0 };
        let start = SPLIT_PAGE + 8 * first_word;
        let end = (start + 8 * words).min(SPLIT_PAGE + PAGE);
        let mut at = start;
        while at < end {
            let run = pmp.decide_run(PhysAddr::new(at), end - at, kind, channel, ctx);
            prop_assert!(run.len >= 1 && at + run.len <= end, "run {:?} at {:#x}", run, at);
            for a in (at..at + run.len).step_by(4) {
                let pa = PhysAddr::new(a);
                let verdict = pmp.check(pa, kind, channel, ctx);
                let entry = match sink.events().last() {
                    Some(TraceEvent::PmpCheck { entry, .. }) => entry.map(usize::from),
                    other => panic!("check traced {other:?}"),
                };
                prop_assert_eq!(verdict, run.verdict.map_err(|e| raised_at(e, pa)), "at {:#x}", a);
                prop_assert_eq!(entry, run.entry, "at {:#x}", a);
            }
            at += run.len;
            // The run is the longest one: the next address in the range
            // is decided by another entry (or by one, after none).
            if at < end {
                let _ = pmp.check(PhysAddr::new(at), kind, channel, ctx);
                let next = match sink.events().last() {
                    Some(TraceEvent::PmpCheck { entry, .. }) => entry.map(usize::from),
                    other => panic!("check traced {other:?}"),
                };
                prop_assert!(next != run.entry, "run {:?} stops short of {:#x}", run, at);
            }
        }
    }
}
