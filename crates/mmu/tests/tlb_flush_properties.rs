//! Property tests for the TLB flush operations (`sfence.vma` shapes).
//!
//! The interesting corners are ASID aliasing — the same virtual page cached
//! for several address spaces, where a targeted flush must remove exactly
//! its own key — and flushing at full occupancy, where the freed slot must
//! be reusable without triggering round-robin eviction of an innocent
//! entry.

use proptest::prelude::*;
use ptstore_core::{AccessKind, PhysPageNum, PrivilegeMode, VirtPageNum, PAGE_SIZE};
use ptstore_mmu::{PteFlags, Tlb, TlbEntry};

/// Key space small enough that aliasing and collisions are the common case.
const VPNS: u64 = 4;
const ASIDS: u16 = 3;

fn entry(vpn: u64, asid: u16, global: bool) -> TlbEntry {
    let flags = if global {
        PteFlags::kernel_rw().with(PteFlags::G)
    } else {
        PteFlags::kernel_rw()
    };
    TlbEntry {
        vpn: VirtPageNum::new(vpn),
        asid,
        // Encode the key in the ppn so hits are attributable.
        ppn: PhysPageNum::new(0x1000 + vpn * 0x10 + u64::from(asid)),
        flags,
        page_size: PAGE_SIZE,
    }
}

fn hits(tlb: &mut Tlb, vpn: u64, asid: u16) -> bool {
    tlb.lookup(
        VirtPageNum::new(vpn),
        asid,
        AccessKind::Read,
        PrivilegeMode::Supervisor,
    )
    .is_some()
}

/// The reference model: the de-duplicated surviving entries. `insert`
/// replaces an existing (vpn, asid) mapping, so later inserts win.
fn model(inserts: &[(u64, u16, bool)]) -> Vec<(u64, u16, bool)> {
    let mut out: Vec<(u64, u16, bool)> = Vec::new();
    for &(vpn, asid, global) in inserts {
        out.retain(|&(v, a, _)| !(v == vpn && a == asid));
        out.push((vpn, asid, global));
    }
    out
}

/// What a lookup of (vpn, asid) should find given the surviving entries:
/// an exact ASID match or any global entry for that page.
fn model_hits(entries: &[(u64, u16, bool)], vpn: u64, asid: u16) -> bool {
    entries
        .iter()
        .any(|&(v, a, g)| v == vpn && (a == asid || g))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `sfence.vma va, asid` removes exactly its own (vpn, asid) key: the
    /// same page cached under other ASIDs — and other pages of the same
    /// ASID — survive.
    #[test]
    fn flush_page_is_exact_under_asid_aliasing(
        inserts in proptest::collection::vec(
            (0..VPNS, 0..ASIDS, any::<bool>()),
            1..16,
        ),
        target_vpn in 0..VPNS,
        target_asid in 0..ASIDS,
    ) {
        // Big enough that nothing is evicted: the model is exact.
        let mut tlb = Tlb::new((VPNS as usize) * (ASIDS as usize));
        for &(vpn, asid, global) in &inserts {
            tlb.insert(entry(vpn, asid, global));
        }
        prop_assert_eq!(tlb.stats().evictions, 0);

        tlb.flush_page(VirtPageNum::new(target_vpn), target_asid);
        let mut surviving = model(&inserts);
        surviving.retain(|&(v, a, _)| !(v == target_vpn && a == target_asid));

        prop_assert_eq!(tlb.entries().count(), surviving.len());
        for vpn in 0..VPNS {
            for asid in 0..ASIDS {
                prop_assert_eq!(
                    hits(&mut tlb, vpn, asid),
                    model_hits(&surviving, vpn, asid),
                    "lookup ({}, {}) after flush_page({}, {})",
                    vpn, asid, target_vpn, target_asid
                );
            }
        }
    }

    /// `sfence.vma x0, asid` removes every non-global entry of that address
    /// space and nothing else; global entries keep hitting under any ASID.
    #[test]
    fn flush_asid_spares_globals_and_other_spaces(
        inserts in proptest::collection::vec(
            (0..VPNS, 0..ASIDS, any::<bool>()),
            1..16,
        ),
        target_asid in 0..ASIDS,
    ) {
        let mut tlb = Tlb::new((VPNS as usize) * (ASIDS as usize));
        for &(vpn, asid, global) in &inserts {
            tlb.insert(entry(vpn, asid, global));
        }

        tlb.flush_asid(target_asid);
        let mut surviving = model(&inserts);
        surviving.retain(|&(_, a, g)| a != target_asid || g);

        prop_assert_eq!(tlb.entries().count(), surviving.len());
        for vpn in 0..VPNS {
            for asid in 0..ASIDS {
                prop_assert_eq!(
                    hits(&mut tlb, vpn, asid),
                    model_hits(&surviving, vpn, asid),
                    "lookup ({}, {}) after flush_asid({})",
                    vpn, asid, target_asid
                );
            }
        }
    }

    /// Flushing one page of a *full* TLB frees exactly one slot, and the
    /// next insert takes that slot instead of evicting a live entry.
    #[test]
    fn flush_page_at_full_occupancy_frees_one_slot(
        capacity in 2usize..8,
        victim in 0u64..8,
    ) {
        let victim = victim % capacity as u64;
        let mut tlb = Tlb::new(capacity);
        // Distinct vpns, one ASID: fills every slot without replacement.
        for vpn in 0..capacity as u64 {
            tlb.insert(entry(vpn, 1, false));
        }
        prop_assert_eq!(tlb.entries().count(), capacity);
        prop_assert_eq!(tlb.stats().evictions, 0);

        tlb.flush_page(VirtPageNum::new(victim), 1);
        prop_assert_eq!(tlb.entries().count(), capacity - 1);
        prop_assert!(!hits(&mut tlb, victim, 1));

        // Re-inserting fills the hole; everything else still hits and no
        // round-robin eviction fires.
        tlb.insert(entry(victim, 1, false));
        prop_assert_eq!(tlb.entries().count(), capacity);
        prop_assert_eq!(tlb.stats().evictions, 0);
        for vpn in 0..capacity as u64 {
            prop_assert!(hits(&mut tlb, vpn, 1), "vpn {} after refill", vpn);
        }
    }

    /// Flushing an entire ASID at full occupancy leaves the other address
    /// space intact even when every page aliases across the two.
    #[test]
    fn flush_asid_at_full_occupancy_keeps_the_other_space(
        pages in 1usize..4,
    ) {
        // Every vpn cached for both ASIDs: the TLB is exactly full.
        let mut tlb = Tlb::new(pages * 2);
        for vpn in 0..pages as u64 {
            tlb.insert(entry(vpn, 1, false));
            tlb.insert(entry(vpn, 2, false));
        }
        prop_assert_eq!(tlb.entries().count(), pages * 2);

        tlb.flush_asid(1);
        prop_assert_eq!(tlb.entries().count(), pages);
        for vpn in 0..pages as u64 {
            prop_assert!(!hits(&mut tlb, vpn, 1), "asid 1 vpn {} flushed", vpn);
            prop_assert!(hits(&mut tlb, vpn, 2), "asid 2 vpn {} kept", vpn);
        }
    }
}
