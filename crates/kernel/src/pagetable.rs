//! Address-space bookkeeping and the kernel virtual-memory layout.
//!
//! The authoritative page tables live in simulated physical memory and are
//! read by the hardware walker; [`AddressSpace`] additionally keeps a
//! Rust-side shadow of the *user* mappings so fork/exit can iterate them
//! without re-walking (the Linux analogue is the mm vma machinery); page
//! migration derives each page's sharers from these shadows.

use std::collections::BTreeMap;

use ptstore_core::{PhysAddr, PhysPageNum, VirtAddr, MIB, PAGE_SIZE};
use ptstore_mmu::PteFlags;

/// Base of the kernel's direct map of all physical memory
/// (`va = DIRECT_MAP_BASE + pa`). The top 256 GiB of the address space —
/// canonical under every paging scheme (Sv39/Sv48/Sv57), since bits 63..38
/// are all set.
pub const DIRECT_MAP_BASE: u64 = 0xFFFF_FFC0_0000_0000;

/// Pages spanned by one huge (2 MiB, level-1 leaf) user mapping.
pub const HUGE_PAGE_SPAN: u64 = 2 * MIB / PAGE_SIZE;

/// Base virtual address of user program text.
pub const USER_TEXT_BASE: u64 = 0x0000_0000_0001_0000;

/// Base of the user heap (`brk` starts here).
pub const USER_HEAP_BASE: u64 = 0x0000_0000_2000_0000;

/// Base of the user mmap area.
pub const USER_MMAP_BASE: u64 = 0x0000_0000_4000_0000;

/// Top of the user stack (grows down).
pub const USER_STACK_TOP: u64 = 0x0000_0000_7FFF_F000;

/// Default number of stack pages mapped eagerly at exec.
pub const USER_STACK_PAGES: u64 = 2;

/// Translates a physical address through the kernel direct map.
#[inline]
pub fn direct_map_va(pa: PhysAddr) -> VirtAddr {
    VirtAddr::new(DIRECT_MAP_BASE + pa.as_u64())
}

/// Inverts [`direct_map_va`]; `None` when `va` is not a direct-map address.
#[inline]
pub fn direct_map_pa(va: VirtAddr) -> Option<PhysAddr> {
    va.as_u64().checked_sub(DIRECT_MAP_BASE).map(PhysAddr::new)
}

/// The physical address of the PTE slot for `va` at `level` within the page
/// table rooted/paged at `table`.
#[inline]
pub fn pte_slot(table: PhysPageNum, va: VirtAddr, level: usize) -> PhysAddr {
    PhysAddr::new(table.base_addr().as_u64() + va.vpn_slice(level) * 8)
}

/// Pages one user leaf spans: [`HUGE_PAGE_SPAN`] for a 2 MiB block, else 1.
pub(crate) fn leaf_pages(huge: bool) -> u64 {
    if huge {
        HUGE_PAGE_SPAN
    } else {
        1
    }
}

/// One user-page mapping in the Rust-side shadow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserMapping {
    /// Mapped physical page — for a huge mapping, the naturally aligned
    /// base of the 2 MiB block.
    pub ppn: PhysPageNum,
    /// Leaf flags currently installed.
    pub flags: PteFlags,
    /// True when this mapping is copy-on-write-shared.
    pub cow: bool,
    /// True for a 2 MiB mapping (one level-1 leaf PTE spanning
    /// [`HUGE_PAGE_SPAN`] pages); the shadow key is the span-aligned vpn.
    pub huge: bool,
}

/// One process address space: the root page-table page, its ASID, the
/// page-table pages backing it, and the shadow of user mappings.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    /// Root page-table page.
    pub root: PhysPageNum,
    /// Address-space identifier (15-bit in this model).
    pub asid: u16,
    /// Every page-table page owned by this address space (root included);
    /// freed on destruction.
    pub pt_pages: Vec<PhysPageNum>,
    /// Shadow of user leaf mappings: vpn → mapping.
    pub user: BTreeMap<u64, UserMapping>,
}

impl AddressSpace {
    /// Number of user pages mapped.
    pub fn user_page_count(&self) -> usize {
        self.user.len()
    }

    /// Looks up the shadow mapping of `va`'s page. A covering huge mapping
    /// is reported as the 4 KiB view at `va`: the returned `ppn` is the page
    /// within the block and `huge` stays true so callers can find the real
    /// span-aligned entry.
    pub fn mapping(&self, va: VirtAddr) -> Option<UserMapping> {
        let vpn = va.as_u64() >> ptstore_core::PAGE_SHIFT;
        self.leaf(va).map(|(key, m)| UserMapping {
            ppn: m.ppn + (vpn - key),
            ..m
        })
    }

    /// The shadow entry of the leaf covering `va`, with the vpn it is
    /// keyed at: `va`'s own page, or the span-aligned base of a covering
    /// huge mapping.
    pub(crate) fn leaf(&self, va: VirtAddr) -> Option<(u64, UserMapping)> {
        let vpn = va.as_u64() >> ptstore_core::PAGE_SHIFT;
        if let Some(m) = self.user.get(&vpn) {
            return Some((vpn, *m));
        }
        let base = vpn & !(HUGE_PAGE_SPAN - 1);
        self.user.get(&base).filter(|m| m.huge).map(|m| (base, *m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptstore_core::PagingScheme;

    #[test]
    fn direct_map_round_trip() {
        let pa = PhysAddr::new(0x8000_1234);
        let va = direct_map_va(pa);
        assert_eq!(direct_map_pa(va), Some(pa));
        assert!(PagingScheme::Sv39.is_canonical(va));
        assert_eq!(direct_map_pa(VirtAddr::new(0x1000)), None);
    }

    #[test]
    fn pte_slot_computation() {
        let table = PhysPageNum::new(0x100);
        let va = VirtAddr::new(0x4000_1000);
        let slot = pte_slot(table, va, 0);
        assert_eq!(slot.as_u64(), (0x100 << 12) + va.vpn_slice(0) * 8);
        assert!(slot.is_aligned(8));
    }

    #[test]
    #[allow(
        clippy::assertions_on_constants,
        reason = "the layout *is* the constant under test"
    )]
    fn layout_is_disjoint_and_ordered() {
        assert!(USER_TEXT_BASE < USER_HEAP_BASE);
        assert!(USER_HEAP_BASE < USER_MMAP_BASE);
        assert!(USER_MMAP_BASE < USER_STACK_TOP);
        // Direct map is in the canonical upper half of *every* scheme, so
        // one layout serves Sv39, Sv48, and Sv57 alike.
        for scheme in PagingScheme::ALL {
            assert!(
                scheme.is_canonical(VirtAddr::new(DIRECT_MAP_BASE)),
                "direct map must be canonical under {scheme}"
            );
        }
    }

    #[test]
    fn shadow_bookkeeping() {
        let mut aspace = AddressSpace {
            root: PhysPageNum::new(1),
            asid: 7,
            ..Default::default()
        };
        let va = VirtAddr::new(USER_TEXT_BASE);
        aspace.user.insert(
            va.as_u64() >> 12,
            UserMapping {
                ppn: PhysPageNum::new(0x55),
                flags: PteFlags::user_rx(),
                cow: false,
                huge: false,
            },
        );
        assert_eq!(aspace.user_page_count(), 1);
        let m = aspace
            .mapping(VirtAddr::new(USER_TEXT_BASE + 0x123))
            .unwrap();
        assert_eq!(m.ppn, PhysPageNum::new(0x55));
        assert!(aspace
            .mapping(VirtAddr::new(USER_TEXT_BASE + 0x1000))
            .is_none());
    }

    #[test]
    fn huge_mapping_reports_per_page_view() {
        let mut aspace = AddressSpace::default();
        let base_vpn = (USER_MMAP_BASE >> 12) & !(HUGE_PAGE_SPAN - 1);
        aspace.user.insert(
            base_vpn,
            UserMapping {
                ppn: PhysPageNum::new(0x1000),
                flags: PteFlags::user_rw(),
                cow: false,
                huge: true,
            },
        );
        let m = aspace
            .mapping(VirtAddr::new((base_vpn + 5) * PAGE_SIZE + 0x40))
            .unwrap();
        assert_eq!(m.ppn, PhysPageNum::new(0x1005));
        assert!(m.huge);
        // One page past the span is unmapped.
        assert!(aspace
            .mapping(VirtAddr::new((base_vpn + HUGE_PAGE_SPAN) * PAGE_SIZE))
            .is_none());
        // A non-huge entry at a span-aligned vpn never masquerades as huge.
        let mut small = AddressSpace::default();
        small.user.insert(
            base_vpn,
            UserMapping {
                ppn: PhysPageNum::new(0x2000),
                flags: PteFlags::user_rw(),
                cow: false,
                huge: false,
            },
        );
        assert!(small
            .mapping(VirtAddr::new((base_vpn + 1) * PAGE_SIZE))
            .is_none());
    }
}
