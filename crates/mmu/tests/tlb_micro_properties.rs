//! Property tests for the TLB's micro-TLB front end.
//!
//! The direct-mapped micro-TLB in front of the associative scan is a pure
//! host-performance memoization: every lookup must return what the scan
//! over the live entries would, and the hit/miss statistics must count
//! exactly those results. These tests drive one TLB through a random
//! interleaving of inserts, lookups, and all three sfence flush shapes —
//! including tiny capacities where round-robin eviction fires constantly,
//! and base-page inserts that replace a superpage under the same
//! `(vpn, asid)` — and check every lookup against a reference read from
//! [`Tlb::entries`].

use proptest::prelude::*;
use ptstore_core::{AccessKind, PhysPageNum, PrivilegeMode, VirtPageNum, PAGE_SIZE};
use ptstore_mmu::{PteFlags, Tlb, TlbEntry};

/// Small key space so collisions, aliasing, and micro-slot conflicts
/// (vpns that map to the same direct-mapped slot) are the common case.
const VPNS: u64 = 40;
const ASIDS: u16 = 3;
/// Span (in pages) of the superpage entries mixed into the stream. Small
/// enough that spans overlap and collide inside the key space, large enough
/// to cover several micro-TLB slots.
const HUGE_SPAN: u64 = 8;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert {
        vpn: u64,
        asid: u16,
        global: bool,
        huge: bool,
    },
    Lookup {
        vpn: u64,
        asid: u16,
    },
    FlushPage {
        vpn: u64,
        asid: u16,
    },
    FlushAsid {
        asid: u16,
    },
    FlushAll,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..VPNS, 0..ASIDS, any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
            |(vpn, asid, global, huge, on_base)| {
                // Half the base-page inserts land on a superpage base, where
                // they replace a superpage of the same (vpn, asid).
                let vpn = if on_base { vpn & !(HUGE_SPAN - 1) } else { vpn };
                Op::Insert { vpn, asid, global, huge }
            }
        ),
        8 => (0..VPNS, 0..ASIDS).prop_map(|(vpn, asid)| Op::Lookup { vpn, asid }),
        2 => (0..VPNS, 0..ASIDS).prop_map(|(vpn, asid)| Op::FlushPage { vpn, asid }),
        1 => (0..ASIDS).prop_map(|asid| Op::FlushAsid { asid }),
        1 => Just(Op::FlushAll),
    ]
}

fn entry(vpn: u64, asid: u16, global: bool, huge: bool) -> TlbEntry {
    let flags = if global {
        PteFlags::kernel_rw().with(PteFlags::G)
    } else {
        PteFlags::kernel_rw()
    };
    // Superpage entries store span-aligned bases, like the MMU refill path.
    let vpn = if huge { vpn & !(HUGE_SPAN - 1) } else { vpn };
    TlbEntry {
        vpn: VirtPageNum::new(vpn),
        asid,
        // Encode the key in the ppn so a stale micro-TLB hit for the wrong
        // key would be visible in the returned entry, not just in timing.
        ppn: PhysPageNum::new(0x4000 + vpn * 0x10 + u64::from(asid)),
        flags,
        page_size: if huge {
            HUGE_SPAN * PAGE_SIZE
        } else {
            PAGE_SIZE
        },
    }
}

/// What the lookup must return: the first live entry in slot order that
/// covers `vpn` for `asid` or globally. Every entry is kernel RW, so a
/// supervisor read hits exactly when such an entry exists.
fn reference(tlb: &Tlb, vpn: u64, asid: u16) -> Option<TlbEntry> {
    let vpn = VirtPageNum::new(vpn);
    tlb.entries()
        .find(|e| e.covers(vpn) && (e.asid == asid || e.flags.global()))
        .copied()
}

/// Hit and miss counts the reference implies so far.
#[derive(Debug, Default)]
struct Expected {
    hits: u64,
    misses: u64,
}

/// Looks `(vpn, asid)` up and checks the result and the counters against
/// the reference.
fn check_lookup(
    tlb: &mut Tlb,
    vpn: u64,
    asid: u16,
    expected: &mut Expected,
) -> Result<(), TestCaseError> {
    let want = reference(tlb, vpn, asid);
    if want.is_some() {
        expected.hits += 1;
    } else {
        expected.misses += 1;
    }
    let got = tlb.lookup(
        VirtPageNum::new(vpn),
        asid,
        AccessKind::Read,
        PrivilegeMode::Supervisor,
    );
    prop_assert_eq!(got, want, "lookup ({:#x}, {})", vpn, asid);
    prop_assert_eq!(tlb.stats().hits, expected.hits);
    prop_assert_eq!(tlb.stats().misses, expected.misses);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every lookup returns the reference entry and counts as the hit or
    /// miss it implies, across arbitrary interleavings of inserts, lookups,
    /// and flushes — at capacities small enough that round-robin eviction
    /// constantly recycles slots.
    #[test]
    fn micro_tlb_never_diverges_from_scan(
        capacity in 2usize..10,
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let mut tlb = Tlb::new(capacity);
        let mut expected = Expected::default();

        for op in ops {
            match op {
                Op::Insert { vpn, asid, global, huge } => {
                    tlb.insert(entry(vpn, asid, global, huge));
                }
                Op::Lookup { vpn, asid } => check_lookup(&mut tlb, vpn, asid, &mut expected)?,
                Op::FlushPage { vpn, asid } => tlb.flush_page(VirtPageNum::new(vpn), asid),
                Op::FlushAsid { asid } => tlb.flush_asid(asid),
                Op::FlushAll => tlb.flush_all(),
            }
            prop_assert_eq!(tlb.occupancy(), tlb.entries().count());
        }

        // Sweep the whole key space at the end: any stale micro entry the
        // random lookups missed surfaces here.
        for vpn in 0..VPNS {
            for asid in 0..ASIDS {
                check_lookup(&mut tlb, vpn, asid, &mut expected)?;
            }
        }
    }
}
