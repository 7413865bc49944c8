//! The attack scenarios of the paper (§II-B, §V-E), plus two extras the
//! design implies, written from the attacker's seat.

use core::fmt;

use ptstore_core::{AccessKind, PhysAddr, VirtAddr, MIB};
use ptstore_kernel::pagetable::USER_TEXT_BASE;
use ptstore_kernel::process::{Pid, VmPerms, PCB_OFF_PT_PTR, PCB_OFF_TOKEN_PTR};
use ptstore_kernel::{AttackerFault, DefenseMode, Kernel, KernelError};

use crate::outcome::{AttackOutcome, BlockedBy};

/// The attack classes of §II-B and §V-E.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Flip permission bits / remap pages by writing PTEs directly.
    PtTampering,
    /// Point a PCB's page-table pointer at a crafted fake table.
    PtInjection,
    /// Point a victim PCB's page-table pointer at another process's table.
    PtReuse,
    /// Corrupt allocator metadata to overlap a new page table with a live
    /// one (§V-E3).
    AllocatorMetadata,
    /// Corrupt VM-area metadata so the kernel composes malicious PTEs
    /// (§V-E4).
    VmMetadata,
    /// Exploit a stale writable TLB entry to dodge virtual-memory-based
    /// protections (§V-E5).
    TlbInconsistency,
    /// Point the page-table pointer at *non-page-table data inside the
    /// secure region* (a token page) so the walker consumes it (§V-E2).
    SecureDataReuse,
    /// Forge a token in normal memory and point the PCB's token pointer at
    /// it — tokens are only credible because they live in the secure region.
    TokenForging,
    /// Overwrite a 2 MiB superpage leaf (a level-1 PTE) so one corrupted
    /// slot redirects an entire 2 MiB of translations at physical page 0 —
    /// the highest-leverage single-PTE write the paging structure offers.
    HugePageTampering,
}

impl AttackKind {
    /// All nine, in paper order (§II-B attacks then the §V-E extras, then
    /// the superpage variant the generic paging API makes expressible).
    pub const ALL: [AttackKind; 9] = [
        AttackKind::PtTampering,
        AttackKind::PtInjection,
        AttackKind::PtReuse,
        AttackKind::AllocatorMetadata,
        AttackKind::VmMetadata,
        AttackKind::TlbInconsistency,
        AttackKind::SecureDataReuse,
        AttackKind::TokenForging,
        AttackKind::HugePageTampering,
    ];
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AttackKind::PtTampering => "PT-Tampering",
            AttackKind::PtInjection => "PT-Injection",
            AttackKind::PtReuse => "PT-Reuse",
            AttackKind::AllocatorMetadata => "Allocator metadata",
            AttackKind::VmMetadata => "VM metadata",
            AttackKind::TlbInconsistency => "TLB inconsistency",
            AttackKind::SecureDataReuse => "Secure-data reuse",
            AttackKind::TokenForging => "Token forging",
            AttackKind::HugePageTampering => "Huge-page tampering",
        })
    }
}

/// PT-Tampering: write the victim's text-page PTE through the kernel direct
/// map, flipping the W bit so "immutable" code becomes writable (the DEP
/// bypass of §I / §II-B).
pub fn pt_tampering(k: &mut Kernel) -> AttackOutcome {
    let victim = k.current_pid();
    let pte_pa = k
        .pte_phys_addr(victim, VirtAddr::new(USER_TEXT_BASE))
        .expect("victim text is mapped");
    let before = k.read_pte_raw(pte_pa).expect("kernel can read its own PTE");
    overwrite_pte(k, pte_pa, before | 0b100) // set W
}

/// Writes `tampered` over the PTE at `slot` through the kernel direct map.
/// Under PT-Rand a page fault is not the end: randomisation falls to
/// information disclosure (§VI-1), so the attacker leaks the window offset
/// and writes through the window.
fn overwrite_pte(k: &mut Kernel, slot: PhysAddr, tampered: u64) -> AttackOutcome {
    match k.attacker_write_u64(k.direct_map(slot), tampered) {
        Ok(()) => {
            let after = k.read_pte_raw(slot).expect("readable");
            debug_assert_eq!(after, tampered, "write landed");
            AttackOutcome::Succeeded
        }
        Err(f) if f.is_ptstore() => AttackOutcome::Blocked(BlockedBy::SecureRegionPmp),
        Err(AttackerFault::PageFault) => match k.cfg().defense {
            DefenseMode::VirtualIsolation => AttackOutcome::Blocked(BlockedBy::PagePermissions),
            DefenseMode::PtRand => {
                let window = match k.attacker_leak_pt_rand_window() {
                    Ok(w) => w,
                    Err(_) => return AttackOutcome::Blocked(BlockedBy::UnmappedTarget),
                };
                let via = VirtAddr::new(window + slot.as_u64());
                match k.attacker_write_u64(via, tampered) {
                    Ok(()) => AttackOutcome::SucceededViaLeak,
                    Err(_) => AttackOutcome::Blocked(BlockedBy::UnmappedTarget),
                }
            }
            _ => AttackOutcome::Blocked(BlockedBy::UnmappedTarget),
        },
        Err(AttackerFault::AccessFault(_)) => AttackOutcome::Blocked(BlockedBy::SecureRegionPmp),
    }
}

/// Switches to `victim`'s address space and touches VA `0x3000` from it.
/// A token check refusing the switch and a walker origin check refusing
/// the probe are verdicts of their own; `other` maps any other result.
fn switch_and_probe(
    k: &mut Kernel,
    victim: Pid,
    other: impl FnOnce(Result<PhysAddr, KernelError>) -> AttackOutcome,
) -> AttackOutcome {
    match k.activate_address_space(victim) {
        Err(KernelError::TokenInvalid(_)) => return AttackOutcome::Blocked(BlockedBy::TokenCheck),
        Err(e) => panic!("unexpected switch_mm error: {e}"),
        Ok(()) => {}
    }
    match k.touch_user(VirtAddr::new(0x3000), AccessKind::Read) {
        Err(KernelError::Access(e)) if e.is_ptstore_fault() => {
            AttackOutcome::Blocked(BlockedBy::PtwOriginCheck)
        }
        probe => other(probe),
    }
}

/// PT-Injection: craft a fake root page table in normal memory (a 1 GiB
/// user-RWX identity superpage), hijack the victim's PCB page-table pointer,
/// and wait for the kernel to load it into `satp`.
pub fn pt_injection(k: &mut Kernel) -> AttackOutcome {
    let victim = k.current_pid();

    // Step 1: the attacker sprays a fake page table into memory they can
    // reach — a page of their own address space whose physical address they
    // learned. (mmap + touch + leak.)
    let user_page = k.sys_mmap(ptstore_core::PAGE_SIZE).expect("mmap");
    let fake_root_pa = k
        .touch_user(user_page, AccessKind::Write)
        .expect("touch")
        .page_align_down();
    // Fake PTE: VPN2 slot 0 → 1 GiB superpage at PA 0, user RWX.
    let fake_pte = 0xdf; // ppn=0 | D A - U X W R V
    let dm = k.direct_map(fake_root_pa);
    if k.attacker_write_u64(dm, fake_pte).is_err() {
        // Can't even build the fake table (not the defense the paper
        // credits, but record it faithfully).
        return AttackOutcome::Blocked(BlockedBy::UnmappedTarget);
    }

    // Step 2: hijack the PCB's page-table pointer (always possible — PCBs
    // live in normal memory).
    let pcb = k.pcb_addr(victim).expect("victim exists");
    let pt_slot_va = k.direct_map(pcb + PCB_OFF_PT_PTR);
    k.attacker_write_u64(pt_slot_va, fake_root_pa.as_u64())
        .expect("PCB fields are attackable in every mode");

    // Step 3: the kernel switches to the victim; step 4: the fake table is
    // live in satp, and the next translation decides.
    switch_and_probe(k, victim, |probe| match probe {
        Ok(pa) => {
            debug_assert_eq!(pa, PhysAddr::new(0x3000), "identity superpage used");
            AttackOutcome::Succeeded
        }
        Err(_) => AttackOutcome::Blocked(BlockedBy::UnmappedTarget),
    })
}

/// PT-Reuse: replace a victim's page-table pointer with the attacker
/// process's own, so the victim (imagine it root-privileged) executes under
/// the attacker's address space. The sophisticated variant also copies the
/// attacker's token pointer — the token's back-pointer still gives it away.
pub fn pt_reuse(k: &mut Kernel) -> AttackOutcome {
    // Two processes: a victim and the attacker's.
    let victim = k.sys_fork().expect("spawn victim");
    let attacker = k.sys_fork().expect("spawn attacker process");

    let victim_pcb = k.pcb_addr(victim).expect("victim exists");
    let attacker_pcb = k.pcb_addr(attacker).expect("attacker exists");

    // Arbitrary-read the attacker's pt pointer and token pointer.
    let att_pt = k
        .attacker_read_u64(k.direct_map(attacker_pcb + PCB_OFF_PT_PTR))
        .expect("PCBs are readable");
    let att_token = k
        .attacker_read_u64(k.direct_map(attacker_pcb + PCB_OFF_TOKEN_PTR))
        .expect("PCBs are readable");

    // Arbitrary-write them into the victim's PCB.
    k.attacker_write_u64(k.direct_map(victim_pcb + PCB_OFF_PT_PTR), att_pt)
        .expect("PCBs are writable");
    k.attacker_write_u64(k.direct_map(victim_pcb + PCB_OFF_TOKEN_PTR), att_token)
        .expect("PCBs are writable");

    // The kernel schedules the victim.
    match k.do_switch_to(victim) {
        Err(KernelError::TokenInvalid(_)) => AttackOutcome::Blocked(BlockedBy::TokenCheck),
        Err(e) => panic!("unexpected switch error: {e}"),
        Ok(()) => {
            // Victim now runs on the attacker's page tables.
            let root = k.mmu().satp.root_ppn.base_addr().as_u64();
            debug_assert_eq!(root, att_pt & !0xfff);
            AttackOutcome::Succeeded
        }
    }
}

/// Allocator-metadata attack (§V-E3): corrupt the allocator so the next
/// page-table allocation overlaps a live page table, then trigger it via
/// `fork`.
pub fn allocator_metadata(k: &mut Kernel) -> AttackOutcome {
    let victim_root = k.process_root(k.current_pid()).expect("victim exists");
    // The modelled metadata corruption: the free lists now hand out the
    // victim's root page.
    k.inject_allocator_overlap(victim_root);
    match k.sys_fork() {
        Err(KernelError::PageNotZero) => AttackOutcome::Blocked(BlockedBy::ZeroCheck),
        // Either the fork completed on the overlapped page, or it destroyed
        // the victim's live page table mid-way (observed as a bad-address
        // failure while copying mappings) — both mean the overlap landed.
        Ok(_) | Err(KernelError::BadAddress) => AttackOutcome::Succeeded,
        Err(e) => panic!("unexpected fork error: {e}"),
    }
}

/// VM-metadata attack (§V-E4): corrupt a victim VMA's permissions so the
/// kernel later composes attacker-chosen PTEs. The paper's observation: VMAs
/// describe *user-space* memory only, so the kernel address space — and
/// PTStore's protection — are unaffected.
pub fn vm_metadata(k: &mut Kernel) -> AttackOutcome {
    let victim = k.current_pid();
    // Corrupt the stack VMA to RWX (the modelled mm-metadata corruption).
    {
        let p = k.procs.get_mut(victim).expect("victim exists");
        let stack_va = VirtAddr::new(ptstore_kernel::pagetable::USER_STACK_TOP - 0x800);
        let vma = p.vma_for_mut(stack_va).expect("stack vma");
        vma.perms = VmPerms {
            read: true,
            write: true,
            exec: true,
        };
    }
    // Kernel faults in a fresh stack page from the tampered metadata.
    let grow_va = VirtAddr::new(
        ptstore_kernel::pagetable::USER_STACK_TOP
            - ptstore_kernel::pagetable::USER_STACK_PAGES * ptstore_core::PAGE_SIZE,
    );
    // Unmap-then-touch isn't needed: touch an unpopulated stack page? All
    // eager stack pages exist, so retouch the lowest one after unmapping is
    // modelled by extending the VMA downward instead:
    {
        let p = k.procs.get_mut(victim).expect("victim exists");
        let vma = p.vma_for_mut(grow_va).expect("stack vma");
        vma.start -= ptstore_core::PAGE_SIZE;
    }
    let fresh = VirtAddr::new(grow_va.as_u64() - 0x1000);
    k.touch_user(fresh, AccessKind::Write)
        .expect("demand map from tampered vma");
    // The composed PTE is user-RWX — nasty for the process, irrelevant for
    // the kernel: it cannot map kernel addresses or the secure region.
    let mapping = k
        .procs
        .get(victim)
        .and_then(|p| p.aspace.mapping(fresh))
        .expect("mapped");
    debug_assert!(mapping.flags.user() && mapping.flags.executable());
    AttackOutcome::HarmlessToKernel
}

/// TLB-inconsistency attack (§V-E5): a (buggy) missing `sfence.vma` left the
/// attacker a stale *writable* D-TLB translation onto a physical page that
/// now holds a page table. VM-based defenses never see the write; PTStore's
/// PMP checks the physical address at access time.
pub fn tlb_inconsistency(k: &mut Kernel) -> AttackOutcome {
    let victim = k.current_pid();
    let pte_pa = k
        .pte_phys_addr(victim, VirtAddr::new(USER_TEXT_BASE))
        .expect("victim text mapped");
    let before = k.read_pte_raw(pte_pa).expect("readable");
    // The stale TLB entry already translated the attacker's VA to `pte_pa`;
    // only the physical access remains.
    match k.attacker_write_phys_via_stale_tlb(pte_pa, before | 0b100) {
        Ok(()) => AttackOutcome::Succeeded,
        Err(f) if f.is_ptstore() => AttackOutcome::Blocked(BlockedBy::SecureRegionPmp),
        Err(_) => AttackOutcome::Blocked(BlockedBy::PagePermissions),
    }
}

/// Secure-data reuse (§V-E2): instead of injecting a fake table in normal
/// memory, point the victim's page-table pointer at *existing data in the
/// secure region* — a token page. The PTW origin check passes (the page IS
/// in the region), but every token field is an 8-byte-aligned pointer, so
/// as PTEs their present bits are clear and translation still fails.
pub fn secure_data_reuse(k: &mut Kernel) -> AttackOutcome {
    // Without a secure region the notion degenerates to ordinary injection
    // of attacker-reachable data — run that equivalent instead.
    if k.secure_region().is_none() {
        return pt_injection(k);
    }
    let victim = k.current_pid();
    // The attacker learns the token page address by reading the victim's
    // PCB token pointer (normal memory, always readable).
    let pcb = k.pcb_addr(victim).expect("victim exists");
    let token_ptr = match k.attacker_read_u64(k.direct_map(pcb + PCB_OFF_TOKEN_PTR)) {
        Ok(v) if v != 0 => PhysAddr::new(v),
        _ => return AttackOutcome::Blocked(BlockedBy::UnmappedTarget),
    };
    let fake_root_page = token_ptr.page_align_down();
    k.attacker_write_u64(k.direct_map(pcb + PCB_OFF_PT_PTR), fake_root_page.as_u64())
        .expect("PCB fields are attackable in every mode");

    // The walker now consumes the data page as a root table.
    switch_and_probe(k, victim, |probe| match probe {
        Ok(_) => AttackOutcome::Succeeded,
        // §V-E2: pointer-valued fields have V=0 — invalid PTEs, page fault.
        Err(KernelError::SegFault) => AttackOutcome::Blocked(BlockedBy::InvalidAsPte),
        Err(e) => panic!("unexpected probe error: {e}"),
    })
}

/// Token forging: the attacker builds a perfectly *consistent* fake token
/// in memory they can write — `{pt_ptr: fake_root, user_ptr: victim_slot}` —
/// and points the victim PCB's token pointer at it alongside the hijacked
/// page-table pointer. If the kernel trusted any memory as token storage,
/// this would pass validation; PTStore only accepts tokens read with
/// `ld.pt` from the secure region, which the attacker cannot write.
pub fn token_forging(k: &mut Kernel) -> AttackOutcome {
    if k.secure_region().is_none() {
        // Baselines have no token mechanism at all: the equivalent is plain
        // injection, which succeeds.
        return pt_injection(k);
    }
    let victim = k.current_pid();
    // Attacker-reachable scratch memory for the forged token + fake root.
    let user_page = k.sys_mmap(2 * ptstore_core::PAGE_SIZE).expect("mmap");
    let scratch_pa = k
        .touch_user(user_page, AccessKind::Write)
        .expect("touch")
        .page_align_down();
    let fake_root = scratch_pa;
    let forged_token = scratch_pa + 0x800;

    let pcb = k.pcb_addr(victim).expect("victim exists");
    let victim_token_slot = pcb + PCB_OFF_TOKEN_PTR;
    // Forge: token.pt_ptr = fake_root; token.user_ptr = victim's token slot.
    k.attacker_write_u64(k.direct_map(forged_token), fake_root.as_u64())
        .expect("scratch writable");
    k.attacker_write_u64(k.direct_map(forged_token + 8), victim_token_slot.as_u64())
        .expect("scratch writable");
    // Hijack both PCB fields consistently.
    k.attacker_write_u64(k.direct_map(pcb + PCB_OFF_PT_PTR), fake_root.as_u64())
        .expect("pcb writable");
    k.attacker_write_u64(k.direct_map(victim_token_slot), forged_token.as_u64())
        .expect("pcb writable");

    // With tokens ablated (or broken) the forged credential is accepted,
    // and the PTW origin check is the next line of defense.
    switch_and_probe(k, victim, |_| AttackOutcome::Succeeded)
}

/// Huge-page tampering: the victim owns a 2 MiB anonymous huge mapping, so
/// a single level-1 leaf PTE translates 512 pages at once. The attacker
/// overwrites that one slot through the direct map, keeping the user flags
/// but pointing the span at physical page 0 — kernel text and data become
/// user-readable/writable through an innocent-looking user VA. Same primitive
/// as PT-Tampering, 512× the blast radius; the defenses must not care which
/// level the corrupted slot lives at.
pub fn huge_page_tampering(k: &mut Kernel) -> AttackOutcome {
    let victim = k.current_pid();
    let va = k.sys_mmap_huge(2 * MIB).expect("huge mmap");
    let (slot_pa, level) = k
        .leaf_pte_phys_addr(victim, va)
        .expect("huge mapping present");
    debug_assert_eq!(level, 1, "2 MiB mapping must be a level-1 leaf");
    let before = k
        .read_pte_raw(slot_pa)
        .expect("kernel can read its own PTE");
    // Keep V|R|W|U|A|D, zero the PPN: the span now aliases PA 0..2 MiB.
    overwrite_pte(k, slot_pa, before & 0x3ff)
}

/// Dispatches one attack scenario.
pub fn run(kind: AttackKind, k: &mut Kernel) -> AttackOutcome {
    match kind {
        AttackKind::PtTampering => pt_tampering(k),
        AttackKind::PtInjection => pt_injection(k),
        AttackKind::PtReuse => pt_reuse(k),
        AttackKind::AllocatorMetadata => allocator_metadata(k),
        AttackKind::VmMetadata => vm_metadata(k),
        AttackKind::TlbInconsistency => tlb_inconsistency(k),
        AttackKind::SecureDataReuse => secure_data_reuse(k),
        AttackKind::TokenForging => token_forging(k),
        AttackKind::HugePageTampering => huge_page_tampering(k),
    }
}
