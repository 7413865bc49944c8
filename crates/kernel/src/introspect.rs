//! The attacker-facing surface and experiment introspection.
//!
//! Under the paper's threat model (§III-A) the attacker owns a user process
//! and wields a kernel memory-corruption primitive: repeated arbitrary reads
//! and writes of kernel *virtual* addresses using regular instructions. The
//! primitive therefore goes through the kernel address-space translation and
//! the regular-channel bus path — which is exactly where each defense does or
//! does not stop it:
//!
//! * **PTStore**: translation succeeds (page tables are mapped in the direct
//!   map like any memory) but the physical access faults in the PMP.
//! * **Virtual isolation**: translation fails on write (PT pages read-only).
//! * **PT-Rand**: translation fails (no direct-map alias); with the leaked
//!   offset, the randomised window translates fine and the write lands.
//! * **None**: everything works.

use ptstore_core::{
    AccessError, AccessKind, Channel, PhysAddr, PhysPageNum, PrivilegeMode, VirtAddr,
};
use ptstore_mmu::{walk, PageTableWalker, Satp, TranslateError};

use crate::config::DefenseMode;
use crate::error::KernelError;
use crate::kernel::{Kernel, PT_RAND_GLOBAL_PA, PT_RAND_WINDOW_BASE};
#[cfg(test)]
use crate::pagetable::direct_map_pa;
use crate::process::Pid;

/// Why an attacker memory access failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackerFault {
    /// The kernel page tables provided no (or insufficient) mapping.
    PageFault,
    /// The physical access was denied (PTStore's PMP firing).
    AccessFault(AccessError),
}

impl AttackerFault {
    /// True when the denial came from PTStore hardware checks.
    pub fn is_ptstore(&self) -> bool {
        matches!(self, AttackerFault::AccessFault(e) if e.is_ptstore_fault())
    }
}

impl Kernel {
    /// Translates a kernel virtual address the way the attacker's corrupted
    /// kernel code path would: through the *kernel* address space (identity
    /// satp root = kernel root), honouring PTE permissions, including the
    /// PT-Rand randomised window.
    fn attacker_translate(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<PhysAddr, AttackerFault> {
        // PT-Rand window: a software-managed alias the kernel uses for page
        // tables; translation is a fixed offset (the secret).
        if self.cfg.defense == DefenseMode::PtRand {
            let base = PT_RAND_WINDOW_BASE + self.pt_rand_offset;
            if va.as_u64() >= base && va.as_u64() < base + self.cfg.mem_size {
                return Ok(PhysAddr::new(va.as_u64() - base));
            }
        }
        let satp = Satp::new(self.cfg.scheme, self.kernel_root(), 0, self.satp_s_bit());
        PageTableWalker::new()
            .translate(&mut self.bus, satp, va, kind, PrivilegeMode::Supervisor)
            .map(|o| o.pa)
            .map_err(|e| match e {
                TranslateError::PageFault { .. } => AttackerFault::PageFault,
                TranslateError::AccessFault(ae) => AttackerFault::AccessFault(ae),
            })
    }

    /// The attacker's arbitrary 8-byte read (regular load).
    #[expect(
        clippy::disallowed_methods,
        reason = "the §III-A attacker's regular load; the PMP adjudicates it, which is the point"
    )]
    pub fn attacker_read_u64(&mut self, va: VirtAddr) -> Result<u64, AttackerFault> {
        let pa = self.attacker_translate(va, AccessKind::Read)?;
        let ctx = self.kctx();
        self.bus
            .read::<u64>(pa, Channel::Regular, ctx)
            .map_err(AttackerFault::AccessFault)
    }

    /// The attacker's arbitrary 8-byte write (regular store).
    #[expect(
        clippy::disallowed_methods,
        reason = "the §III-A attacker's regular store; must hit the PMP S-bit, not the kernel \
                  channel"
    )]
    pub fn attacker_write_u64(&mut self, va: VirtAddr, value: u64) -> Result<(), AttackerFault> {
        let pa = self.attacker_translate(va, AccessKind::Write)?;
        let ctx = self.kctx();
        self.bus
            .write::<u64>(pa, value, Channel::Regular, ctx)
            .map_err(AttackerFault::AccessFault)
    }

    /// The attacker's arbitrary write at a **physical** address through a
    /// *stale D-TLB translation* — the §V-E5 TLB-inconsistency scenario. The
    /// translation step is bypassed (the stale TLB already produced `pa`);
    /// only the physical-access checks remain.
    #[expect(
        clippy::disallowed_methods,
        reason = "§V-E5 stale-TLB store: the attacker bypasses translation, never the physical \
                  checks"
    )]
    pub fn attacker_write_phys_via_stale_tlb(
        &mut self,
        pa: PhysAddr,
        value: u64,
    ) -> Result<(), AttackerFault> {
        let ctx = self.kctx();
        self.bus
            .write::<u64>(pa, value, Channel::Regular, ctx)
            .map_err(AttackerFault::AccessFault)
    }

    /// Leaks the PT-Rand secret offset by reading the kernel global that
    /// stores it (information disclosure, §VI-1). Returns the randomised
    /// window base.
    pub fn attacker_leak_pt_rand_window(&mut self) -> Result<u64, AttackerFault> {
        let global_va = self.direct_map(PhysAddr::new(PT_RAND_GLOBAL_PA));
        let offset = self.attacker_read_u64(global_va)?;
        Ok(PT_RAND_WINDOW_BASE + offset)
    }

    // ------------------------------------------------------------------
    // Experiment introspection (addresses the attacker "knows" — the threat
    // model grants knowledge of kernel data-structure locations)
    // ------------------------------------------------------------------

    /// Physical address of `pid`'s PCB.
    pub fn pcb_addr(&self, pid: Pid) -> Option<PhysAddr> {
        self.procs.get(pid).map(|p| p.pcb_addr)
    }

    /// Physical address of `pid`'s PCB page-table-pointer field.
    pub fn pcb_pt_ptr_slot(&self, pid: Pid) -> Option<PhysAddr> {
        self.procs.get(pid).map(|p| p.pt_ptr_slot())
    }

    /// Physical address of `pid`'s PCB token-pointer field.
    pub fn pcb_token_slot(&self, pid: Pid) -> Option<PhysAddr> {
        self.procs.get(pid).map(|p| p.token_slot())
    }

    /// `pid`'s root page-table page.
    pub fn process_root(&self, pid: Pid) -> Option<PhysPageNum> {
        self.procs.get(pid).map(|p| p.aspace.root)
    }

    /// The physical address of the leaf PTE mapping `va` in `pid`'s address
    /// space (what PT-Tampering wants to overwrite).
    pub fn pte_phys_addr(&mut self, pid: Pid, va: VirtAddr) -> Result<PhysAddr, KernelError> {
        let root = self.procs.live(pid)?.aspace.root;
        self.user_leaf_slot(root, va, false)
    }

    /// The physical address and level of the PTE actually mapping `va` in
    /// `pid`'s address space, superpage leaves included — what the
    /// huge-page tampering attack wants to overwrite (a level-1 slot whose
    /// corruption redirects a whole 2 MiB of translations at once).
    pub fn leaf_pte_phys_addr(
        &mut self,
        pid: Pid,
        va: VirtAddr,
    ) -> Result<(PhysAddr, usize), KernelError> {
        let root = self.procs.live(pid)?.aspace.root;
        let top = self.cfg.scheme.root_level();
        let (slot, level, pte) = walk(root, va, top, 0, |slot, _| self.pt_read(slot))?;
        pte.is_leaf()
            .then_some((slot, level))
            .ok_or(KernelError::BadAddress)
    }

    /// Reads kernel memory through the kernel's own regular channel (tests
    /// and experiment verification).
    pub fn mem_read_public(&mut self, pa: PhysAddr) -> Result<u64, KernelError> {
        self.mem_read(pa)
    }

    /// Reads a PTE through the kernel's own (legitimate) channel — used by
    /// tests to verify attack side effects.
    pub fn read_pte_raw(&mut self, slot: PhysAddr) -> Result<u64, KernelError> {
        self.pt_read(slot)
    }

    /// Whether `pa` currently falls in the PMP secure region.
    pub fn is_secure_phys(&self, pa: PhysAddr) -> bool {
        self.secure_region().is_some_and(|r| r.contains(pa))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelConfig;
    use ptstore_core::MIB;

    fn small(cfg: KernelConfig) -> Kernel {
        Kernel::boot(
            cfg.with_mem_size(256 * MIB)
                .with_initial_secure_size(16 * MIB),
        )
        .expect("boot")
    }

    #[test]
    fn attacker_reads_kernel_memory_via_direct_map() {
        let mut k = small(KernelConfig::cfi_ptstore());
        let pcb = k.pcb_addr(1).unwrap();
        let va = k.direct_map(pcb + crate::process::PCB_OFF_PID);
        assert_eq!(k.attacker_read_u64(va).unwrap(), 1, "pid readable");
    }

    #[test]
    fn attacker_write_to_pte_blocked_only_by_ptstore() {
        // PTStore: blocked by PMP.
        let mut k = small(KernelConfig::cfi_ptstore());
        let pte = k
            .pte_phys_addr(1, VirtAddr::new(crate::pagetable::USER_TEXT_BASE))
            .unwrap();
        let va = k.direct_map(pte);
        let err = k.attacker_write_u64(va, 0xdead).unwrap_err();
        assert!(err.is_ptstore());

        // Baseline: succeeds.
        let mut k = small(KernelConfig::cfi());
        let pte = k
            .pte_phys_addr(1, VirtAddr::new(crate::pagetable::USER_TEXT_BASE))
            .unwrap();
        let va = k.direct_map(pte);
        k.attacker_write_u64(va, 0xdead).unwrap();
    }

    #[test]
    fn virtual_isolation_blocks_via_page_permissions() {
        let mut k = small(KernelConfig::cfi().with_defense(DefenseMode::VirtualIsolation));
        let pte = k
            .pte_phys_addr(1, VirtAddr::new(crate::pagetable::USER_TEXT_BASE))
            .unwrap();
        let va = k.direct_map(pte);
        // Reads are fine (RO mapping), writes page-fault.
        k.attacker_read_u64(va).unwrap();
        assert_eq!(
            k.attacker_write_u64(va, 0xdead).unwrap_err(),
            AttackerFault::PageFault
        );
    }

    #[test]
    fn pt_rand_blocks_direct_map_but_leaks() {
        let mut k = small(KernelConfig::cfi().with_defense(DefenseMode::PtRand));
        let pte = k
            .pte_phys_addr(1, VirtAddr::new(crate::pagetable::USER_TEXT_BASE))
            .unwrap();
        let dm = k.direct_map(pte);
        // Direct-map alias removed: page fault.
        assert_eq!(
            k.attacker_write_u64(dm, 0xdead).unwrap_err(),
            AttackerFault::PageFault
        );
        // Leak the secret, then write through the randomised window.
        let window = k.attacker_leak_pt_rand_window().unwrap();
        let via_window = VirtAddr::new(window + pte.as_u64());
        k.attacker_write_u64(via_window, 0xdead).unwrap();
    }

    #[test]
    fn direct_map_helpers_round_trip() {
        let k = small(KernelConfig::baseline());
        let pa = PhysAddr::new(0x123000);
        assert_eq!(direct_map_pa(k.direct_map(pa)), Some(pa));
    }
}
