//! The machine-wide invariant oracle.
//!
//! [`Invariants::check`] inspects a [`Kernel`] from the DRAM's-eye view —
//! raw physical reads that bypass the PMP, exactly what a verification
//! harness (not software running *on* the machine) is allowed to do — and
//! verifies the state properties the PTStore mechanism is supposed to
//! make unbreakable:
//!
//! 1. **Containment** — every page-table page any process (or the kernel)
//!    can reach by walking from a root lives inside the secure region and
//!    is tracked by its owning address space; no user-accessible leaf
//!    maps secure-region storage.
//! 2. **Binding** — each hart's `satp` root is the address-space root of
//!    the process it is running, and (under PTStore) that root's token
//!    binds it to the owning PCB.
//! 3. **PMP consistency** — the PMP's installed region and S-bit
//!    enforcement mirror the kernel's configuration, and every hart's
//!    `satp.S` matches the configured PTW origin check.
//! 4. **TLB hygiene** — no live TLB entry grants user access to a
//!    page-table page or to secure-region storage; and no user TLB entry
//!    is *stale* — every cached translation either matches what a live
//!    address space's page tables say today (permission upgrades in the
//!    tables are tolerated; the cached entry grants less), belongs to no
//!    live ASID, or has its invalidation still queued for a deferred
//!    drain. A translation that fails all three is a remote invalidation
//!    the drain machinery lost — the missed-drain bug class the
//!    `DrainDrop` fault injects.
//!
//! The oracle deliberately does **not** check attacker-writable kernel
//! data (PCB fields of non-running processes, user memory contents):
//! under the paper's threat model those may be arbitrarily corrupt at any
//! time, and the mechanism's promise is only that corruption never
//! *reaches* the translation machinery. Checking exactly the promised
//! surface is what lets the campaign demand zero violations from the
//! unmodified mechanism.

use std::collections::BTreeSet;

use ptstore_core::{PhysAddr, PhysPageNum, SecureRegion, TokenError};
use ptstore_kernel::process::Process;
use ptstore_kernel::{Kernel, Pid, ProcState};
use ptstore_mmu::{table_entries, walk, Tlb, TlbEntry};
use ptstore_trace::TraceEvent;

/// One invariant violation, with enough context to debug the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A tracked or reachable page-table page lies outside the secure
    /// region.
    PtPageOutsideRegion {
        /// The offending page.
        ppn: PhysPageNum,
    },
    /// A walk from a root reached a next-level table no address space
    /// tracks (a stray or corrupted pointer).
    ReachableUnknownPtPage {
        /// The untracked page the walk reached.
        ppn: PhysPageNum,
        /// The page holding the pointer.
        parent: PhysPageNum,
    },
    /// A page-table page could not be read back raw (the walk was
    /// redirected outside physical memory).
    UnreadablePtPage {
        /// The unreadable page.
        ppn: PhysPageNum,
    },
    /// A user-accessible leaf maps storage inside the secure region.
    UserLeafIntoRegion {
        /// The mapped secure-region page.
        ppn: PhysPageNum,
    },
    /// A hart's `satp` root does not match the address space of the
    /// process it runs.
    SatpRootMismatch {
        /// The hart.
        hart: usize,
        /// The process the hart believes it is running.
        pid: Pid,
    },
    /// The running process's token fails validation against its PCB.
    TokenBindingBroken {
        /// The mm owner whose binding failed.
        pid: Pid,
        /// Why validation failed.
        err: TokenError,
    },
    /// The PMP's installed secure region disagrees with the kernel's.
    PmpRegionMismatch,
    /// PMP S-bit enforcement state disagrees with the configuration.
    PmpEnforcementMismatch,
    /// A hart's `satp.S` disagrees with the configured PTW origin check.
    SatpSBitMismatch {
        /// The hart.
        hart: usize,
    },
    /// A TLB entry grants user access to page-table storage.
    TlbMapsPtPage {
        /// The hart owning the TLB.
        hart: usize,
        /// The cached physical page.
        ppn: PhysPageNum,
    },
    /// A TLB entry caches a translation a live address space's page
    /// tables no longer back, and its invalidation is not queued for any
    /// deferred drain: a shootdown the drain machinery lost.
    TlbStaleTranslation {
        /// The hart owning the TLB.
        hart: usize,
        /// The entry's address-space identifier.
        asid: u16,
        /// The entry's (base) virtual page number.
        vpn: u64,
    },
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::PtPageOutsideRegion { ppn } => {
                write!(f, "page-table page {ppn} outside the secure region")
            }
            Violation::ReachableUnknownPtPage { ppn, parent } => {
                write!(f, "walk reached untracked table {ppn} via {parent}")
            }
            Violation::UnreadablePtPage { ppn } => {
                write!(f, "page-table page {ppn} unreadable")
            }
            Violation::UserLeafIntoRegion { ppn } => {
                write!(f, "user leaf maps secure-region page {ppn}")
            }
            Violation::SatpRootMismatch { hart, pid } => {
                write!(f, "hart {hart} satp root does not match pid {pid}")
            }
            Violation::TokenBindingBroken { pid, err } => {
                write!(f, "token binding broken for pid {pid}: {err}")
            }
            Violation::PmpRegionMismatch => f.write_str("PMP region != kernel region"),
            Violation::PmpEnforcementMismatch => {
                f.write_str("PMP S-bit enforcement != configuration")
            }
            Violation::SatpSBitMismatch { hart } => {
                write!(f, "hart {hart} satp.S != configured origin check")
            }
            Violation::TlbMapsPtPage { hart, ppn } => {
                write!(f, "hart {hart} TLB grants user access to pt page {ppn}")
            }
            Violation::TlbStaleTranslation { hart, asid, vpn } => {
                write!(
                    f,
                    "hart {hart} TLB caches stale translation (asid {asid}, vpn {vpn:#x})"
                )
            }
        }
    }
}

/// The result of one oracle sweep.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// Individual checks evaluated.
    pub checks: u64,
    /// Violations found (empty on a healthy machine).
    pub violations: Vec<Violation>,
}

impl InvariantReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The invariant oracle (see the module docs for the invariant list).
pub struct Invariants;

impl Invariants {
    /// Sweeps every invariant over `k` and reports. Emits a
    /// [`TraceEvent::InvariantCheck`] into the kernel's trace sink when
    /// one is attached. Read-only: the machine is not perturbed and no
    /// cycles are charged.
    pub fn check(k: &Kernel) -> InvariantReport {
        let mut rep = InvariantReport::default();
        let region = k.secure_region();
        let known = known_pt_pages(k);

        if k.cfg().defense.is_ptstore() {
            if let Some(region) = region {
                check_containment(k, &region, &known, &mut rep);
                check_pmp(k, &region, &mut rep);
                check_tlbs(k, &region, &known, &mut rep);
                check_tlb_staleness(k, &mut rep);
            }
        }
        check_satp_binding(k, region.as_ref(), &mut rep);

        if let Some(sink) = k.trace_sink() {
            sink.emit(TraceEvent::InvariantCheck {
                checks: rep.checks.min(u64::from(u32::MAX)) as u32,
                violations: rep.violations.len().min(u32::MAX as usize) as u32,
            });
        }
        rep
    }
}

/// Every page-table page the kernel's bookkeeping claims exists: the
/// kernel template plus each mm owner's root and tracked table pages.
/// The model checker hashes exactly this set, so a landed PTE flip always
/// lands in a hashed page.
pub fn known_pt_pages(k: &Kernel) -> BTreeSet<PhysPageNum> {
    let mut known: BTreeSet<PhysPageNum> = BTreeSet::new();
    known.insert(k.kernel_root());
    known.extend(k.kernel_pt_pages().iter().copied());
    for p in space_owners(k) {
        known.insert(p.aspace.root);
        known.extend(p.aspace.pt_pages.iter().copied());
    }
    known
}

/// The processes owning a live address space, in pid order. Threads
/// (`mm_owner = Some`) share their owner's tables. Zombies freed their
/// tables at exit: the stale `root` field may alias a page since
/// reallocated to another address space, even as a lower-level table
/// that would be misread at root level.
fn space_owners(k: &Kernel) -> impl Iterator<Item = &Process> {
    k.procs
        .iter()
        .filter(|p| p.mm_owner.is_none() && p.state != ProcState::Zombie)
}

/// Invariant 1: containment. Tracked pages live in the region; walking
/// from every root reaches only tracked, in-region tables; user leaves
/// never map region storage.
fn check_containment(
    k: &Kernel,
    region: &SecureRegion,
    known: &BTreeSet<PhysPageNum>,
    rep: &mut InvariantReport,
) {
    for &ppn in known {
        rep.checks += 1;
        if !region.contains(ppn.base_addr()) {
            rep.violations.push(Violation::PtPageOutsideRegion { ppn });
        }
    }
    let root_level = k.cfg().scheme.root_level();
    let mut stack: Vec<(PhysPageNum, usize)> = core::iter::once(k.kernel_root())
        .chain(space_owners(k).map(|p| p.aspace.root))
        .map(|root| (root, root_level))
        .collect();
    let mut visited: BTreeSet<PhysPageNum> = BTreeSet::new();
    while let Some((page, level)) = stack.pop() {
        if !visited.insert(page) {
            continue;
        }
        let Ok(entries) = table_entries(page, k.bus.mem()) else {
            rep.violations
                .push(Violation::UnreadablePtPage { ppn: page });
            continue;
        };
        for (_, pte) in entries {
            if !pte.is_valid() {
                continue;
            }
            rep.checks += 1;
            if pte.is_leaf() {
                // A superpage leaf at level L spans 512^L pages: flag the
                // mapping if *any* of that span reaches into the region.
                let span_bytes = ptstore_core::PAGE_SIZE << (9 * level);
                let pa = pte.phys_addr();
                if pte.flags().user() && region.overlaps(pa, span_bytes) {
                    rep.violations
                        .push(Violation::UserLeafIntoRegion { ppn: pte.ppn() });
                }
                continue;
            }
            // A valid non-leaf below level 0 cannot exist in any scheme;
            // treat the child as an untracked table either way.
            let child = pte.ppn();
            if !region.contains(child.base_addr()) {
                rep.violations
                    .push(Violation::PtPageOutsideRegion { ppn: child });
            } else if !known.contains(&child) {
                rep.violations.push(Violation::ReachableUnknownPtPage {
                    ppn: child,
                    parent: page,
                });
            } else if level > 0 {
                stack.push((child, level - 1));
            }
        }
    }
}

/// Invariant 2: each hart's `satp` root matches the process it runs; the
/// running process's token binds root, PCB, and token slot together.
fn check_satp_binding(k: &Kernel, region: Option<&SecureRegion>, rep: &mut InvariantReport) {
    for hart in &k.harts {
        let satp = hart.mmu.satp;
        if satp.scheme.is_none() {
            continue; // Bare mode: no root to bind
        }
        rep.checks += 1;
        let pid = hart.current;
        if pid == 0 {
            // Idle harts sit on the kernel template.
            if satp.root_ppn != k.kernel_root() {
                rep.violations
                    .push(Violation::SatpRootMismatch { hart: hart.id, pid });
            }
            continue;
        }
        let owner = k.mm_owner_of(pid);
        let Some(proc_root) = k.procs.get(owner).map(|p| p.aspace.root) else {
            rep.violations
                .push(Violation::SatpRootMismatch { hart: hart.id, pid });
            continue;
        };
        if satp.root_ppn != proc_root {
            rep.violations
                .push(Violation::SatpRootMismatch { hart: hart.id, pid });
            continue;
        }
        if k.cfg().defense.is_ptstore() && k.cfg().token_checks {
            rep.checks += 1;
            if let Err(err) = validate_active_token(k, owner, proc_root, region) {
                rep.violations
                    .push(Violation::TokenBindingBroken { pid: owner, err });
            }
        }
    }
}

/// Raw-reads `owner`'s PCB slots and token and revalidates the binding
/// the way `switch_mm` would.
fn validate_active_token(
    k: &Kernel,
    owner: Pid,
    proc_root: PhysPageNum,
    region: Option<&SecureRegion>,
) -> Result<(), TokenError> {
    let (Some(pt_slot), Some(tok_slot)) = (k.pcb_pt_ptr_slot(owner), k.pcb_token_slot(owner))
    else {
        return Err(TokenError::Cleared);
    };
    let mem = k.bus.mem();
    let pcb_pt = mem.read_u64(pt_slot).map_err(|_| TokenError::Cleared)?;
    let tok_ptr = mem.read_u64(tok_slot).map_err(|_| TokenError::Cleared)?;
    let tok_addr = PhysAddr::new(tok_ptr);
    if !region.is_some_and(|r| r.contains_range(tok_addr, ptstore_core::TOKEN_SIZE)) {
        return Err(TokenError::TokenOutsideSecureRegion);
    }
    let pt = mem.read_u64(tok_addr).map_err(|_| TokenError::Cleared)?;
    let user = mem
        .read_u64(tok_addr + 8)
        .map_err(|_| TokenError::Cleared)?;
    let token = ptstore_core::Token::new(PhysAddr::new(pt), PhysAddr::new(user));
    token.validate(PhysAddr::new(pcb_pt), tok_slot)?;
    // The PCB pointer must also be the root the hart is actually using.
    if PhysAddr::new(pcb_pt) != proc_root.base_addr() {
        return Err(TokenError::PageTablePointerMismatch);
    }
    Ok(())
}

/// Invariant 3: the PMP mirrors the kernel's region and enforcement
/// configuration; every translating hart carries the configured `satp.S`.
fn check_pmp(k: &Kernel, region: &SecureRegion, rep: &mut InvariantReport) {
    rep.checks += 1;
    if k.bus.pmp().secure_region() != Some(*region) {
        rep.violations.push(Violation::PmpRegionMismatch);
    }
    rep.checks += 1;
    if k.bus.pmp().secure_enforcement() != k.cfg().pmp_s_bit_check {
        rep.violations.push(Violation::PmpEnforcementMismatch);
    }
    for hart in &k.harts {
        if hart.mmu.satp.scheme.is_none() {
            continue;
        }
        rep.checks += 1;
        if hart.mmu.satp.s_bit != k.satp_s_bit() {
            rep.violations
                .push(Violation::SatpSBitMismatch { hart: hart.id });
        }
    }
}

/// Invariant 4: no TLB entry grants user access to page-table storage
/// (tracked pages or anything inside the region).
fn check_tlbs(
    k: &Kernel,
    region: &SecureRegion,
    known: &BTreeSet<PhysPageNum>,
    rep: &mut InvariantReport,
) {
    fn scan(
        hart: usize,
        tlb: &Tlb,
        region: &SecureRegion,
        known: &BTreeSet<PhysPageNum>,
        rep: &mut InvariantReport,
    ) {
        for entry in tlb.entries() {
            rep.checks += 1;
            // A span entry (superpage) covers page_size/4K frames; any of
            // them touching pt storage is a violation.
            let span_pages = entry.page_size / ptstore_core::PAGE_SIZE;
            let base = entry.ppn.as_u64();
            let touches_known = known
                .range(entry.ppn..PhysPageNum::new(base + span_pages))
                .next()
                .is_some();
            let touches_region = region.overlaps(entry.ppn.base_addr(), entry.page_size);
            if entry.flags.user() && (touches_known || touches_region) {
                rep.violations.push(Violation::TlbMapsPtPage {
                    hart,
                    ppn: entry.ppn,
                });
            }
        }
    }
    for hart in &k.harts {
        scan(hart.id, hart.mmu.itlb(), region, known, rep);
        scan(hart.id, hart.mmu.dtlb(), region, known, rep);
    }
}

/// Invariant 4 (staleness half): every user TLB entry is *current* — some
/// live address space with the entry's ASID still backs the cached
/// translation — unless it is exempt: its invalidation is queued for a
/// deferred drain (pending, not lost), or no live address space owns the
/// ASID at all (a dead process's leftovers, unreachable until the ASID is
/// recycled — and recycling force-drains and flushes first).
fn check_tlb_staleness(k: &Kernel, rep: &mut InvariantReport) {
    // Post-rollover ASIDs can collide across live address spaces, so an
    // entry is judged against *every* live space carrying its ASID and
    // accepted when any of them backs it.
    let spaces: Vec<(u16, PhysPageNum)> = space_owners(k)
        .map(|p| (p.aspace.asid, p.aspace.root))
        .collect();
    let pending = k.queued_flush_pairs();
    let root_level = k.cfg().scheme.root_level();
    for hart in &k.harts {
        for tlb in [hart.mmu.itlb(), hart.mmu.dtlb()] {
            for entry in tlb.entries() {
                if !entry.flags.user() {
                    continue;
                }
                rep.checks += 1;
                let span = entry.span_pages();
                let queued = pending
                    .iter()
                    .any(|&(a, v)| a == entry.asid && v.wrapping_sub(entry.vpn.as_u64()) < span);
                if queued {
                    continue;
                }
                let mut owners = spaces.iter().filter(|&&(a, _)| a == entry.asid).peekable();
                if owners.peek().is_none() {
                    continue;
                }
                if !owners.any(|&(_, root)| entry_backed_by(k, root, entry, root_level)) {
                    rep.violations.push(Violation::TlbStaleTranslation {
                        hart: hart.id,
                        asid: entry.asid,
                        vpn: entry.vpn.as_u64(),
                    });
                }
            }
        }
    }
}

/// True when a raw walk from `root` reaches a valid leaf that still backs
/// `entry`'s base page: same physical page, and at least the cached
/// permissions (the tables granting *more* than the TLB caches is the
/// benign permission-upgrade case; granting less means a tightening whose
/// shootdown never arrived).
fn entry_backed_by(k: &Kernel, root: PhysPageNum, entry: &TlbEntry, root_level: usize) -> bool {
    let read = |slot, _| k.bus.mem().read_u64(slot);
    let Ok((_, level, pte)) = walk(root, entry.vpn.base_addr(), root_level, 0, read) else {
        return false;
    };
    if !pte.is_leaf() {
        return false;
    }
    let offset = entry.vpn.as_u64() & ((1u64 << (9 * level)) - 1);
    if pte.ppn().as_u64() + offset != entry.ppn.as_u64() {
        return false;
    }
    let f = pte.flags();
    f.user()
        && (!entry.flags.readable() || f.readable())
        && (!entry.flags.writable() || f.writable())
        && (!entry.flags.executable() || f.executable())
}
