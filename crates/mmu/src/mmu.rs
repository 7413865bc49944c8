//! The MMU front-end: TLB lookup, walk on miss, refill.

use ptstore_core::{AccessKind, PhysAddr, PrivilegeMode, VirtAddr, VirtPageNum, PAGE_SIZE};
use ptstore_trace::{TlbUnit, TraceSink};
use serde::{Deserialize, Serialize};

use ptstore_mem::Bus;

use crate::satp::Satp;
use crate::tlb::{Tlb, TlbEntry, TlbStats};
use crate::walker::{PageTableWalker, TranslateError, WalkOutcome};

/// How a translation was served — the cycle model charges differently for
/// hits and walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TranslationOutcome {
    /// Served from the TLB.
    TlbHit {
        /// Translated physical address.
        pa: PhysAddr,
    },
    /// Served by a page-table walk of `fetches` levels.
    Walk {
        /// Translated physical address.
        pa: PhysAddr,
        /// Number of page-table fetches performed.
        fetches: u32,
    },
}

impl TranslationOutcome {
    /// The translated physical address.
    pub fn pa(&self) -> PhysAddr {
        match *self {
            TranslationOutcome::TlbHit { pa } | TranslationOutcome::Walk { pa, .. } => pa,
        }
    }

    /// True when served from the TLB.
    pub fn is_hit(&self) -> bool {
        matches!(self, TranslationOutcome::TlbHit { .. })
    }
}

/// The memory-management unit: split I/D TLBs in front of the shared walker.
///
/// Prototype geometry (paper Table II): 32-entry I-TLB, 8-entry D-TLB.
#[derive(Debug, Clone)]
pub struct Mmu {
    itlb: Tlb,
    dtlb: Tlb,
    walker: PageTableWalker,
    /// Current `satp` (owned by the hart; updated on `switch_mm`).
    pub satp: Satp,
    /// Id of the owning hart (0 on single-hart machines).
    hart_id: usize,
}

impl Default for Mmu {
    fn default() -> Self {
        Self::new()
    }
}

impl Mmu {
    /// An MMU with the prototype's TLB geometry and translation off.
    pub fn new() -> Self {
        Self::with_tlb_sizes(32, 8)
    }

    /// An MMU with custom TLB sizes (for ablation experiments).
    ///
    /// # Panics
    /// Panics if either capacity is zero.
    pub fn with_tlb_sizes(itlb: usize, dtlb: usize) -> Self {
        Self {
            itlb: Tlb::with_unit(itlb, TlbUnit::Instruction),
            dtlb: Tlb::with_unit(dtlb, TlbUnit::Data),
            walker: PageTableWalker::new(),
            satp: Satp::bare(),
            hart_id: 0,
        }
    }

    /// Attaches (or detaches) a trace sink on both TLBs. Walk-step events are
    /// emitted through the bus's sink, so attach the same sink there.
    pub fn set_trace_sink(&mut self, sink: Option<TraceSink>) {
        self.itlb.set_trace_sink(sink.clone());
        self.dtlb.set_trace_sink(sink);
    }

    /// Attributes this MMU (TLB events and walker fetches) to `hart`.
    pub fn set_hart_id(&mut self, hart: usize) {
        self.hart_id = hart;
        self.itlb.set_hart(hart as u32);
        self.dtlb.set_hart(hart as u32);
        self.walker.set_hart(hart);
    }

    /// The hart this MMU belongs to.
    pub fn hart_id(&self) -> usize {
        self.hart_id
    }

    /// Translates a data access.
    ///
    /// # Errors
    /// See [`PageTableWalker::translate`].
    pub fn translate_data(
        &mut self,
        bus: &mut Bus,
        va: VirtAddr,
        kind: AccessKind,
        mode: PrivilegeMode,
    ) -> Result<TranslationOutcome, TranslateError> {
        Self::translate_in(&mut self.dtlb, &self.walker, self.satp, bus, va, kind, mode)
    }

    /// Translates an instruction fetch.
    ///
    /// # Errors
    /// See [`PageTableWalker::translate`].
    pub fn translate_fetch(
        &mut self,
        bus: &mut Bus,
        va: VirtAddr,
        mode: PrivilegeMode,
    ) -> Result<TranslationOutcome, TranslateError> {
        Self::translate_in(
            &mut self.itlb,
            &self.walker,
            self.satp,
            bus,
            va,
            AccessKind::Execute,
            mode,
        )
    }

    fn translate_in(
        tlb: &mut Tlb,
        walker: &PageTableWalker,
        satp: Satp,
        bus: &mut Bus,
        va: VirtAddr,
        kind: AccessKind,
        mode: PrivilegeMode,
    ) -> Result<TranslationOutcome, TranslateError> {
        if !satp.translating() || mode == PrivilegeMode::Machine {
            return Ok(TranslationOutcome::TlbHit {
                pa: PhysAddr::new(va.as_u64()),
            });
        }
        let vpn = VirtPageNum::from(va);
        if let Some(e) = tlb.lookup(vpn, satp.asid, kind, mode) {
            return Ok(TranslationOutcome::TlbHit {
                pa: PhysAddr::new(e.ppn_for(vpn).base_addr().as_u64() + va.page_offset()),
            });
        }
        let WalkOutcome {
            pa,
            flags,
            fetches,
            page_size,
        } = walker.translate(bus, satp, va, kind, mode)?;
        // Refill at leaf granularity: one entry covers the whole superpage
        // span (vpn/ppn stored span-aligned; the walker has already checked
        // the leaf's alignment).
        let span_pages = page_size / PAGE_SIZE;
        tlb.insert(TlbEntry {
            vpn: VirtPageNum::new(vpn.as_u64() & !(span_pages - 1)),
            asid: satp.asid,
            ppn: ptstore_core::PhysPageNum::new((pa.as_u64() >> 12) & !(span_pages - 1)),
            flags,
            page_size,
        });
        Ok(TranslationOutcome::Walk { pa, fetches })
    }

    /// `sfence.vma x0, x0` over both TLBs.
    pub fn sfence_all(&mut self) {
        self.itlb.flush_all();
        self.dtlb.flush_all();
    }

    /// `sfence.vma va, asid` over both TLBs.
    pub fn sfence_page(&mut self, va: VirtAddr, asid: u16) {
        let vpn = VirtPageNum::from(va);
        self.itlb.flush_page(vpn, asid);
        self.dtlb.flush_page(vpn, asid);
    }

    /// `sfence.vma x0, asid` over both TLBs.
    pub fn sfence_asid(&mut self, asid: u16) {
        self.itlb.flush_asid(asid);
        self.dtlb.flush_asid(asid);
    }

    /// I-TLB statistics.
    pub fn itlb_stats(&self) -> TlbStats {
        self.itlb.stats()
    }

    /// D-TLB statistics.
    pub fn dtlb_stats(&self) -> TlbStats {
        self.dtlb.stats()
    }

    /// Read-only I-TLB view (invariant oracle / diagnostics).
    pub fn itlb(&self) -> &Tlb {
        &self.itlb
    }

    /// Read-only D-TLB view (invariant oracle / diagnostics).
    pub fn dtlb(&self) -> &Tlb {
        &self.dtlb
    }
}

const _: () = {
    // The D-TLB granularity assumption baked into refill.
    assert!(PAGE_SIZE == 4096);
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::{Pte, PteFlags};
    use ptstore_core::{AccessContext, Channel, PagingScheme, PhysPageNum, SecureRegion, MIB};

    fn machine() -> (Bus, Mmu, SecureRegion) {
        let mut bus = Bus::new(256 * MIB);
        let region = SecureRegion::new(PhysAddr::new(192 * MIB), 64 * MIB).unwrap();
        bus.install_secure_region(&region).unwrap();
        (bus, Mmu::new(), region)
    }

    fn map(
        bus: &mut Bus,
        region: &SecureRegion,
        va: VirtAddr,
        data_ppn: u64,
        flags: PteFlags,
    ) -> Satp {
        let ctx = AccessContext::supervisor(true);
        let root = region.base();
        let l1 = region.base() + PAGE_SIZE;
        let l0 = region.base() + 2 * PAGE_SIZE;
        bus.write::<u64>(
            root + va.vpn_slice(2) * 8,
            Pte::table(PhysPageNum::from(l1)).bits(),
            Channel::SecurePt,
            ctx,
        )
        .unwrap();
        bus.write::<u64>(
            l1 + va.vpn_slice(1) * 8,
            Pte::table(PhysPageNum::from(l0)).bits(),
            Channel::SecurePt,
            ctx,
        )
        .unwrap();
        bus.write::<u64>(
            l0 + va.vpn_slice(0) * 8,
            Pte::leaf(PhysPageNum::new(data_ppn), flags).bits(),
            Channel::SecurePt,
            ctx,
        )
        .unwrap();
        Satp::new(PagingScheme::Sv39, PhysPageNum::from(root), 1, true)
    }

    #[test]
    fn miss_then_hit() {
        let (mut bus, mut mmu, region) = machine();
        let va = VirtAddr::new(0x4000_0123);
        mmu.satp = map(&mut bus, &region, va, 0x100, PteFlags::user_rw());
        let first = mmu
            .translate_data(&mut bus, va, AccessKind::Read, PrivilegeMode::User)
            .unwrap();
        assert!(!first.is_hit());
        assert_eq!(first.pa(), PhysAddr::new((0x100 << 12) | 0x123));
        let second = mmu
            .translate_data(&mut bus, va, AccessKind::Read, PrivilegeMode::User)
            .unwrap();
        assert!(second.is_hit());
        assert_eq!(second.pa(), first.pa());
        assert_eq!(mmu.dtlb_stats().hits, 1);
        assert_eq!(mmu.dtlb_stats().misses, 1);
    }

    #[test]
    fn sfence_forces_rewalk() {
        let (mut bus, mut mmu, region) = machine();
        let va = VirtAddr::new(0x4000_0000);
        mmu.satp = map(&mut bus, &region, va, 0x100, PteFlags::user_rw());
        mmu.translate_data(&mut bus, va, AccessKind::Read, PrivilegeMode::User)
            .unwrap();
        mmu.sfence_all();
        let after = mmu
            .translate_data(&mut bus, va, AccessKind::Read, PrivilegeMode::User)
            .unwrap();
        assert!(!after.is_hit());
    }

    #[test]
    fn stale_tlb_translation_still_hits_pmp() {
        // The §V-E5 scenario: a stale writable D-TLB entry points at a page
        // that has since been absorbed into the secure region. The stale
        // translation succeeds — but the physical write faults in the PMP.
        let (mut bus, mut mmu, region) = machine();
        let va = VirtAddr::new(0x5000_0000);
        let victim_page = (region.base() - PAGE_SIZE).as_u64() >> 12;
        mmu.satp = map(&mut bus, &region, va, victim_page, PteFlags::user_rw());
        let out = mmu
            .translate_data(&mut bus, va, AccessKind::Write, PrivilegeMode::User)
            .unwrap();
        // Kernel now grows the secure region over the victim page WITHOUT
        // flushing the TLB (the modelled bug).
        let grown = region.grow_down(PAGE_SIZE).unwrap();
        bus.update_secure_region(&grown).unwrap();
        // Stale translation still hits...
        let stale = mmu
            .translate_data(&mut bus, va, AccessKind::Write, PrivilegeMode::User)
            .unwrap();
        assert!(stale.is_hit());
        assert_eq!(stale.pa(), out.pa());
        // ...but the physical store is refused: PTStore checks physical
        // addresses, not virtual mappings.
        let ctx = AccessContext::user(true);
        assert!(bus
            .write::<u64>(stale.pa(), 0xbad, Channel::Regular, ctx)
            .is_err());
    }

    #[test]
    fn machine_mode_bypasses_translation() {
        let (mut bus, mut mmu, _region) = machine();
        mmu.satp = Satp::new(PagingScheme::Sv39, PhysPageNum::new(0x999), 1, true);
        let out = mmu
            .translate_data(
                &mut bus,
                VirtAddr::new(0x42),
                AccessKind::Read,
                PrivilegeMode::Machine,
            )
            .unwrap();
        assert_eq!(out.pa(), PhysAddr::new(0x42));
    }

    #[test]
    fn huge_page_refill_covers_the_span() {
        let (mut bus, mut mmu, region) = machine();
        let ctx = AccessContext::supervisor(true);
        // Root -> level-1 leaf: a single 2 MiB page at VA 0x4000_0000.
        let root = region.base();
        let l1 = region.base() + PAGE_SIZE;
        let va = VirtAddr::new(0x4000_0000);
        bus.write::<u64>(
            root + va.vpn_slice(2) * 8,
            Pte::table(PhysPageNum::from(l1)).bits(),
            Channel::SecurePt,
            ctx,
        )
        .unwrap();
        bus.write::<u64>(
            l1 + va.vpn_slice(1) * 8,
            Pte::leaf(PhysPageNum::new(0x400), PteFlags::user_rw()).bits(),
            Channel::SecurePt,
            ctx,
        )
        .unwrap();
        mmu.satp = Satp::new(PagingScheme::Sv39, PhysPageNum::from(root), 1, true);
        let first = mmu
            .translate_data(&mut bus, va, AccessKind::Read, PrivilegeMode::User)
            .unwrap();
        assert!(!first.is_hit());
        // A different 4 KiB page inside the same 2 MiB leaf hits the one
        // cached span entry.
        let other = VirtAddr::new(0x4000_0000 + 37 * PAGE_SIZE + 0x10);
        let second = mmu
            .translate_data(&mut bus, other, AccessKind::Read, PrivilegeMode::User)
            .unwrap();
        assert!(second.is_hit());
        assert_eq!(
            second.pa(),
            PhysAddr::new((0x400 << 12) + 37 * PAGE_SIZE + 0x10)
        );
    }

    #[test]
    fn itlb_and_dtlb_are_separate() {
        let (mut bus, mut mmu, region) = machine();
        let va = VirtAddr::new(0x4000_0000);
        mmu.satp = map(&mut bus, &region, va, 0x100, PteFlags::user_rx());
        mmu.translate_fetch(&mut bus, va, PrivilegeMode::User)
            .unwrap();
        assert_eq!(mmu.itlb_stats().misses, 1);
        assert_eq!(mmu.dtlb_stats().misses, 0);
        // A data read of the same page misses the D-TLB separately.
        mmu.translate_data(&mut bus, va, AccessKind::Read, PrivilegeMode::User)
            .unwrap();
        assert_eq!(mmu.dtlb_stats().misses, 1);
    }
}
