//! Property tests: the TLB is a transparent cache (translation results with
//! a TLB in front must equal raw walker results), and the walker composes
//! mappings correctly.

use proptest::prelude::*;
use ptstore_core::{
    AccessContext, AccessKind, Channel, PagingScheme, PhysAddr, PhysPageNum, PrivilegeMode,
    SecureRegion, VirtAddr, MIB, PAGE_SIZE,
};
use ptstore_mem::Bus;
use ptstore_mmu::{Mmu, PageTableWalker, Pte, PteFlags, Satp};

/// Builds a machine with a secure region and a root table in it.
fn machine() -> (Bus, SecureRegion, PhysAddr) {
    let mut bus = Bus::new(256 * MIB);
    let region = SecureRegion::new(PhysAddr::new(192 * MIB), 64 * MIB).unwrap();
    bus.install_secure_region(&region).unwrap();
    let root = region.base();
    (bus, region, root)
}

/// Maps `va -> ppn` with a full 3-level chain inside the secure region,
/// using table pages at deterministic offsets per (va) to avoid collisions.
fn map_page(
    bus: &mut Bus,
    region: &SecureRegion,
    root: PhysAddr,
    idx: u64,
    va: VirtAddr,
    ppn: PhysPageNum,
    flags: PteFlags,
) {
    let ctx = AccessContext::supervisor(true);
    let l1 = region.base() + (1 + idx * 2) * PAGE_SIZE;
    let l0 = region.base() + (2 + idx * 2) * PAGE_SIZE;
    // Only install the intermediate entries if the slots are still empty, so
    // multiple mappings in the same run stay consistent for distinct vpn2.
    let root_slot = root + va.vpn_slice(2) * 8;
    let cur = bus.read::<u64>(root_slot, Channel::SecurePt, ctx).unwrap();
    let l1 = if Pte::from_bits(cur).is_table() {
        Pte::from_bits(cur).phys_addr()
    } else {
        bus.write::<u64>(
            root_slot,
            Pte::table(PhysPageNum::from(l1)).bits(),
            Channel::SecurePt,
            ctx,
        )
        .unwrap();
        l1
    };
    let l1_slot = l1 + va.vpn_slice(1) * 8;
    let cur = bus.read::<u64>(l1_slot, Channel::SecurePt, ctx).unwrap();
    let l0 = if Pte::from_bits(cur).is_table() {
        Pte::from_bits(cur).phys_addr()
    } else {
        bus.write::<u64>(
            l1_slot,
            Pte::table(PhysPageNum::from(l0)).bits(),
            Channel::SecurePt,
            ctx,
        )
        .unwrap();
        l0
    };
    bus.write::<u64>(
        l0 + va.vpn_slice(0) * 8,
        Pte::leaf(ppn, flags).bits(),
        Channel::SecurePt,
        ctx,
    )
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any user page mapping, translation through the MMU (TLB + walker,
    /// any access order) equals the raw walker result, byte for byte.
    #[test]
    fn tlb_is_transparent(
        vpns in proptest::collection::btree_set(1u64..(1 << 20), 1..12),
        offsets in proptest::collection::vec(0u64..PAGE_SIZE, 1..12),
    ) {
        let (mut bus, region, root) = machine();
        let satp = Satp::new(PagingScheme::Sv39, PhysPageNum::from(root), 3, true);
        let vpns: Vec<u64> = vpns.into_iter().collect();
        for (i, &vpn) in vpns.iter().enumerate() {
            let va = VirtAddr::new(vpn << 12);
            map_page(
                &mut bus,
                &region,
                root,
                i as u64,
                va,
                PhysPageNum::new(0x1000 + i as u64),
                PteFlags::user_rw(),
            );
        }
        let mut mmu = Mmu::new();
        mmu.satp = satp;
        let walker = PageTableWalker::new();
        // Access each page several times, interleaved, comparing MMU vs
        // walker each time.
        for round in 0..3 {
            for (i, &vpn) in vpns.iter().enumerate() {
                let off = offsets[(i + round) % offsets.len()];
                let va = VirtAddr::new((vpn << 12) + off);
                let via_mmu = mmu
                    .translate_data(&mut bus, va, AccessKind::Read, PrivilegeMode::User)
                    .expect("mapped")
                    .pa();
                let via_walker = walker
                    .translate(&mut bus, satp, va, AccessKind::Read, PrivilegeMode::User)
                    .expect("mapped")
                    .pa;
                prop_assert_eq!(via_mmu, via_walker, "va {}", va);
            }
        }
        // With ≤ 8 distinct pages the D-TLB should be serving hits by now.
        if vpns.len() <= 8 {
            prop_assert!(mmu.dtlb_stats().hits > 0);
        }
    }

    /// Unmapped or permission-violating accesses fault identically through
    /// the TLB path and the raw walker.
    #[test]
    fn faults_are_consistent(vpn in 1u64..(1 << 20), write in any::<bool>()) {
        let (mut bus, region, root) = machine();
        let satp = Satp::new(PagingScheme::Sv39, PhysPageNum::from(root), 3, true);
        let va = VirtAddr::new(vpn << 12);
        // Map read-only.
        let read_only = PteFlags::from_bits(PteFlags::V | PteFlags::R | PteFlags::U | PteFlags::A);
        map_page(&mut bus, &region, root, 0, va, PhysPageNum::new(0x1000), read_only);
        let mut mmu = Mmu::new();
        mmu.satp = satp;
        let kind = if write { AccessKind::Write } else { AccessKind::Read };
        let via_mmu = mmu.translate_data(&mut bus, va, kind, PrivilegeMode::User);
        let via_walker =
            PageTableWalker::new().translate(&mut bus, satp, va, kind, PrivilegeMode::User);
        prop_assert_eq!(via_mmu.is_ok(), via_walker.is_ok());
        if write {
            prop_assert!(via_mmu.is_err(), "read-only page rejects writes");
        }
        // A wholly unmapped address faults in both.
        let other = VirtAddr::new(((vpn ^ 1) << 12) | 0x8);
        prop_assert!(mmu
            .translate_data(&mut bus, other, AccessKind::Read, PrivilegeMode::User)
            .is_err());
    }

    /// satp.S taints every walk: whatever the mapping, tables outside the
    /// secure region are rejected iff the bit is set.
    #[test]
    fn satp_s_gates_origin(vpn in 1u64..(1 << 20), s_bit in any::<bool>()) {
        let mut bus = Bus::new(256 * MIB);
        let region = SecureRegion::new(PhysAddr::new(192 * MIB), 64 * MIB).unwrap();
        bus.install_secure_region(&region).unwrap();
        // Root table in NORMAL memory (an injected table).
        let root = PhysAddr::new(8 * MIB);
        let ctx = AccessContext::supervisor(false);
        let va = VirtAddr::new(vpn << 12);
        // 1 GiB identity superpage covering the va (ppn aligned).
        let gib_ppn = (va.as_u64() >> 30) << 18;
        bus.write::<u64>(
            root + va.vpn_slice(2) * 8,
            Pte::leaf(PhysPageNum::new(gib_ppn), PteFlags::user_rw()).bits(),
            Channel::Regular,
            ctx,
        )
        .unwrap();
        let satp = Satp::new(PagingScheme::Sv39, PhysPageNum::from(root), 1, s_bit);
        let out = PageTableWalker::new().translate(
            &mut bus,
            satp,
            va,
            AccessKind::Read,
            PrivilegeMode::User,
        );
        prop_assert_eq!(out.is_err(), s_bit, "satp.S={} should gate the walk", s_bit);
    }
}
