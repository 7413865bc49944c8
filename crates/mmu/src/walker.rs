//! The page-table walk, and the hardware walker with the PTStore origin
//! check built on it.
//!
//! [`walk`] is the one descent through a page-table tree in the workspace.
//! It is generic only over how an entry is read: the hardware walker reads
//! over the bus on [`Channel::Ptw`], the kernel through its charged
//! page-table channel, and the invariant oracle raw from DRAM.
//!
//! Every hardware walker fetch is a bus access on [`Channel::Ptw`]. When
//! the `satp.S` bit is armed, the PMP refuses walker fetches outside the
//! secure region, so an attacker who redirects a page-table pointer at a
//! crafted table in normal memory gets an access fault instead of a
//! translation — the PT-Injection defense (paper Fig. 1 ⑤, §III-C2).

use core::fmt;

use ptstore_core::{
    AccessContext, AccessError, AccessKind, Channel, PhysAddr, PhysPageNum, PrivilegeMode,
    VirtAddr, PAGE_SIZE,
};
use ptstore_mem::{Bus, PhysMem};
use ptstore_trace::TraceEvent;
use serde::{Deserialize, Serialize};

use crate::pte::{Pte, PteFlags};
use crate::satp::Satp;

/// Descends from the table page `root` toward `va`, starting at level
/// `top` and going no lower than `floor`, reading each entry through
/// `read(slot, level)`.
///
/// Stops at the first entry that is not a valid pointer to a next-level
/// table (an invalid entry or a leaf), or at `floor` whatever the entry
/// there holds, and returns that entry's slot, level, and value.
///
/// # Errors
/// The first error `read` returns, unchanged; no read follows it.
///
/// # Panics
/// If `floor > top`, or `top` is above Sv57's root level (4).
#[inline]
pub fn walk<E>(
    root: PhysPageNum,
    va: VirtAddr,
    top: usize,
    floor: usize,
    mut read: impl FnMut(PhysAddr, usize) -> Result<u64, E>,
) -> Result<(PhysAddr, usize, Pte), E> {
    let mut table = root;
    for level in (floor..=top).rev() {
        let slot = table.base_addr() + va.vpn_slice(level) * 8;
        let pte = Pte::from_bits(read(slot, level)?);
        if level == floor || !pte.is_table() {
            return Ok((slot, level, pte));
        }
        table = pte.ppn();
    }
    unreachable!("walk floor {floor} above top {top}");
}

/// The non-zero entries of the table page `table`, raw from DRAM, in slot
/// order, each paired with its slot address: the page's
/// [`PhysMem::nonzero_words`] listing. A zero slot is an invalid entry, so
/// a scan for valid ones loses nothing, and a sparse table costs the
/// entries it holds rather than 512 slots.
///
/// # Errors
/// The page's read error when `table` lies outside physical memory.
pub fn table_entries(
    table: PhysPageNum,
    mem: &PhysMem,
) -> Result<impl Iterator<Item = (PhysAddr, Pte)> + '_, AccessError> {
    let base = table.base_addr();
    Ok(mem
        .nonzero_words(table)?
        .map(move |(i, word)| (base + u64::from(i) * 8, Pte::from_bits(word))))
}

/// Why a translation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TranslateError {
    /// The classic page fault: invalid entry, permission mismatch, or
    /// malformed superpage.
    PageFault {
        /// Faulting virtual address.
        va: VirtAddr,
        /// The kind of access that faulted.
        kind: AccessKind,
    },
    /// The walk itself was refused by the PMP — with `satp.S` armed this is
    /// PTStore rejecting a page table outside the secure region.
    AccessFault(AccessError),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::PageFault { va, kind } => write!(f, "page fault on {kind} at {va}"),
            TranslateError::AccessFault(e) => write!(f, "walker access fault: {e}"),
        }
    }
}

impl std::error::Error for TranslateError {}

impl From<AccessError> for TranslateError {
    fn from(e: AccessError) -> Self {
        TranslateError::AccessFault(e)
    }
}

/// A successful walk: the physical address plus what the walk cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkOutcome {
    /// Translated physical address.
    pub pa: PhysAddr,
    /// Flags of the leaf PTE (cached into the TLB).
    pub flags: PteFlags,
    /// Number of page-table fetches performed (1..=levels of the scheme:
    /// up to 3 for Sv39, 4 for Sv48, 5 for Sv57).
    pub fetches: u32,
    /// Page size of the leaf in bytes (4 KiB, 2 MiB, 1 GiB, ...).
    pub page_size: u64,
}

/// The scheme-generic walker: the active [`PagingScheme`] is read from the
/// `satp` MODE field each walk, exactly as hardware does. The model runs
/// with `SUM=1` (supervisor may read/write user pages — the kernel copies
/// syscall buffers directly) and without `MXR`; both simplifications are
/// noted here for fidelity.
///
/// [`PagingScheme`]: ptstore_core::PagingScheme
///
/// The walker holds no translation state; the only field is the id of the
/// hart it walks for, stamped into the access contexts of its PTE fetches.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageTableWalker {
    hart: usize,
}

impl PageTableWalker {
    /// A new walker for hart 0.
    pub const fn new() -> Self {
        Self { hart: 0 }
    }

    /// Attributes subsequent walks to `hart`.
    pub fn set_hart(&mut self, hart: usize) {
        self.hart = hart;
    }

    /// Translates `va` for an access of `kind` in `mode`, updating PTE A/D
    /// bits as real hardware does. The walk is scheme-generic: the number
    /// of levels and the canonical-form check come from `satp.scheme`, and
    /// a leaf at level *n* maps a `512^n`-page superpage.
    ///
    /// # Errors
    /// [`TranslateError::PageFault`] on invalid/insufficient mappings;
    /// [`TranslateError::AccessFault`] when a page-table fetch is denied by
    /// the PMP (the PTStore origin check).
    pub fn translate(
        &self,
        bus: &mut Bus,
        satp: Satp,
        va: VirtAddr,
        kind: AccessKind,
        mode: PrivilegeMode,
    ) -> Result<WalkOutcome, TranslateError> {
        let scheme = match satp.scheme {
            Some(scheme) if mode != PrivilegeMode::Machine => scheme,
            // Bare (or M-mode, which ignores translation): identity mapping.
            _ => {
                return Ok(WalkOutcome {
                    pa: PhysAddr::new(va.as_u64()),
                    flags: PteFlags::from_bits(0xff),
                    fetches: 0,
                    page_size: PAGE_SIZE,
                });
            }
        };
        if !scheme.is_canonical(va) {
            return Err(TranslateError::PageFault { va, kind });
        }

        let ctx = AccessContext {
            mode,
            satp_s: satp.s_bit,
            hart: self.hart,
        };
        let top = scheme.root_level();
        let fetch = |pte_addr: PhysAddr, level: usize| {
            let raw = bus.read::<u64>(pte_addr, Channel::Ptw, ctx);
            if let Some(sink) = bus.trace_sink() {
                match raw {
                    Ok(pte) => sink.emit(TraceEvent::PtwStep {
                        va: va.as_u64(),
                        level: level as u8,
                        pte_addr: pte_addr.as_u64(),
                        pte,
                    }),
                    Err(AccessError::PtwOutsideRegion { .. }) => {
                        sink.emit(TraceEvent::PtwOriginRejected {
                            va: va.as_u64(),
                            pte_addr: pte_addr.as_u64(),
                        });
                    }
                    Err(_) => {}
                }
            }
            raw.map_err(TranslateError::from)
        };
        let (pte_addr, level, pte) = walk(satp.root_ppn, va, top, 0, fetch)?;
        // An invalid entry, or a table pointer where a leaf must be.
        if !pte.is_leaf() {
            return Err(TranslateError::PageFault { va, kind });
        }
        Self::check_leaf_perms(pte.flags(), kind, mode, va)?;
        // Superpage PPN alignment check.
        let span_pages = 1u64 << (9 * level);
        if !pte.ppn().as_u64().is_multiple_of(span_pages) {
            return Err(TranslateError::PageFault { va, kind });
        }
        // A/D update through the walker's own (checked) channel.
        let mut new_flags = PteFlags::A;
        if kind == AccessKind::Write {
            new_flags |= PteFlags::D;
        }
        if pte.flags().bits() & new_flags != new_flags {
            bus.write::<u64>(
                pte_addr,
                pte.with_flags(new_flags).bits(),
                Channel::Ptw,
                ctx,
            )?;
        }
        let page_size = PAGE_SIZE * span_pages;
        let offset = va.as_u64() & (page_size - 1);
        Ok(WalkOutcome {
            pa: PhysAddr::new(pte.ppn().base_addr().as_u64() + offset),
            flags: pte.flags(),
            // One fetch per level from the root down to the leaf.
            fetches: (top - level + 1) as u32,
            page_size,
        })
    }

    fn check_leaf_perms(
        flags: PteFlags,
        kind: AccessKind,
        mode: PrivilegeMode,
        va: VirtAddr,
    ) -> Result<(), TranslateError> {
        let fault = || TranslateError::PageFault { va, kind };
        let allowed = match kind {
            AccessKind::Read => flags.readable(),
            AccessKind::Write => flags.writable(),
            AccessKind::Execute => flags.executable(),
        };
        if !allowed {
            return Err(fault());
        }
        match mode {
            PrivilegeMode::User => {
                if !flags.user() {
                    return Err(fault());
                }
            }
            PrivilegeMode::Supervisor => {
                // SUM=1 for data; supervisor never executes user pages.
                if flags.user() && kind == AccessKind::Execute {
                    return Err(fault());
                }
            }
            PrivilegeMode::Machine => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use ptstore_core::{PagingScheme, SecureRegion, MIB};
    use ptstore_mem::PAGE_WORDS;

    /// Builds a table chain for `scheme` mapping `va -> data_ppn` with a leaf
    /// at `leaf_level`, using one page per level starting at `base`.
    #[allow(
        clippy::too_many_arguments,
        reason = "a test fixture spelling out every level of one mapping beats a builder"
    )]
    fn build_chain(
        bus: &mut Bus,
        scheme: PagingScheme,
        base: PhysAddr,
        va: VirtAddr,
        data_ppn: PhysPageNum,
        flags: PteFlags,
        leaf_level: usize,
        ctx: AccessContext,
    ) {
        let mut table = base;
        for level in ((leaf_level + 1)..scheme.levels()).rev() {
            let next = table + PAGE_SIZE;
            bus.write::<u64>(
                table + va.vpn_slice(level) * 8,
                Pte::table(PhysPageNum::from(next)).bits(),
                Channel::SecurePt,
                ctx,
            )
            .unwrap();
            table = next;
        }
        bus.write::<u64>(
            table + va.vpn_slice(leaf_level) * 8,
            Pte::leaf(data_ppn, flags).bits(),
            Channel::SecurePt,
            ctx,
        )
        .unwrap();
    }

    // ---- `walk` stop rules, at every level of every scheme ----

    /// A VA with a distinct, non-zero VPN slice at every Sv57 level.
    const WALK_VA: VirtAddr = VirtAddr::new(0x0123_4567_89ab_c000);

    /// The table page holding the level-`level` entry of [`chain`].
    fn table_page(level: usize) -> PhysPageNum {
        PhysPageNum::new(0x100 + level as u64)
    }

    /// The slot of the level-`level` entry for [`WALK_VA`] in [`chain`].
    fn chain_slot(level: usize) -> PhysAddr {
        table_page(level).base_addr() + WALK_VA.vpn_slice(level) * 8
    }

    /// Sparse memory holding a table pointer at every level from `top`
    /// down to 0 along [`WALK_VA`]; the level-0 entry points at a page
    /// past the chain.
    fn chain(top: usize) -> BTreeMap<PhysAddr, u64> {
        (0..=top)
            .map(|level| {
                let next = match level {
                    0 => PhysPageNum::new(0x200),
                    _ => table_page(level - 1),
                };
                (chain_slot(level), Pte::table(next).bits())
            })
            .collect()
    }

    type WalkResult = Result<(PhysAddr, usize, Pte), (&'static str, usize)>;

    /// Walks `mem` from the chain's root, logging every read; the read at
    /// `fail_at` returns an error instead.
    fn logged_walk(
        mem: &BTreeMap<PhysAddr, u64>,
        top: usize,
        floor: usize,
        fail_at: Option<usize>,
    ) -> (WalkResult, Vec<(PhysAddr, usize)>) {
        let mut reads = Vec::new();
        let r = walk(table_page(top), WALK_VA, top, floor, |slot, level| {
            reads.push((slot, level));
            if fail_at == Some(level) {
                return Err(("refused", level));
            }
            Ok(mem.get(&slot).copied().unwrap_or(0))
        });
        (r, reads)
    }

    /// The reads of a walk from `top` that ends at `last`, in order.
    fn reads_down_to(top: usize, last: usize) -> Vec<(PhysAddr, usize)> {
        (last..=top).rev().map(|l| (chain_slot(l), l)).collect()
    }

    #[test]
    fn walk_stops_at_an_invalid_entry() {
        for scheme in PagingScheme::ALL {
            let top = scheme.root_level();
            for level in 0..=top {
                let mut mem = chain(top);
                mem.insert(chain_slot(level), 0);
                let (r, reads) = logged_walk(&mem, top, 0, None);
                let want = (chain_slot(level), level, Pte::invalid());
                assert_eq!(r, Ok(want), "{scheme} level {level}");
                assert_eq!(reads, reads_down_to(top, level), "{scheme} level {level}");
            }
        }
    }

    #[test]
    fn walk_stops_at_a_leaf_at_any_level() {
        for scheme in PagingScheme::ALL {
            let top = scheme.root_level();
            for level in 0..=top {
                let leaf = Pte::leaf(PhysPageNum::new(0x4_0000), PteFlags::user_rw());
                let mut mem = chain(top);
                mem.insert(chain_slot(level), leaf.bits());
                let (r, reads) = logged_walk(&mem, top, 0, None);
                assert_eq!(
                    r,
                    Ok((chain_slot(level), level, leaf)),
                    "{scheme} level {level}"
                );
                assert_eq!(reads, reads_down_to(top, level), "{scheme} level {level}");
            }
        }
    }

    #[test]
    fn walk_returns_the_table_pointer_at_its_floor() {
        for scheme in PagingScheme::ALL {
            let top = scheme.root_level();
            let mem = chain(top);
            for floor in 0..=top {
                let (r, reads) = logged_walk(&mem, top, floor, None);
                let pointer = Pte::from_bits(mem[&chain_slot(floor)]);
                assert!(pointer.is_table());
                assert_eq!(
                    r,
                    Ok((chain_slot(floor), floor, pointer)),
                    "{scheme} floor {floor}"
                );
                assert_eq!(reads, reads_down_to(top, floor), "{scheme} floor {floor}");
            }
        }
    }

    #[test]
    fn walk_propagates_a_read_error_unchanged() {
        for scheme in PagingScheme::ALL {
            let top = scheme.root_level();
            let mem = chain(top);
            for level in 0..=top {
                let (r, reads) = logged_walk(&mem, top, 0, Some(level));
                assert_eq!(r, Err(("refused", level)), "{scheme} level {level}");
                assert_eq!(reads, reads_down_to(top, level), "{scheme} level {level}");
            }
        }
    }

    #[test]
    fn table_entries_lists_the_nonzero_slots_in_order() {
        let mut mem = PhysMem::new(4 * MIB);
        let tables = [0x300, 0x301, 0x302, 0x303].map(PhysPageNum::new);
        let [_, sparse, dense, rezeroed] = tables;
        let slots = |table: PhysPageNum, step| {
            (0..PAGE_WORDS as u64)
                .step_by(step)
                .map(move |i| table.base_addr() + i * 8)
        };
        // A zero page, every 97th slot, every slot, and every slot with
        // every third one written back to zero.
        for slot in slots(sparse, 97)
            .chain(slots(dense, 1))
            .chain(slots(rezeroed, 1))
        {
            mem.write_u64(slot, slot.as_u64() | 1).unwrap();
        }
        for slot in slots(rezeroed, 3) {
            mem.write_u64(slot, 0).unwrap();
        }
        for (table, want) in tables.into_iter().zip([0, 6, PAGE_WORDS, 341]) {
            let entries: Vec<_> = table_entries(table, &mem).unwrap().collect();
            let nonzero = slots(table, 1).filter(|&slot| mem.read_u64(slot) != Ok(0));
            assert_eq!(entries.len(), want, "{table:?}");
            assert!(entries.iter().map(|&(slot, _)| slot).eq(nonzero));
            for (slot, pte) in entries {
                assert_eq!(Ok(pte.bits()), mem.read_u64(slot));
            }
        }
    }

    #[test]
    fn table_entries_fails_like_a_read_of_the_first_slot() {
        let mem = PhysMem::new(4 * MIB);
        let outside = PhysPageNum::new(4 * MIB / PAGE_SIZE);
        let err = table_entries(outside, &mem).err();
        assert_eq!(err, mem.read_u64(outside.base_addr()).err());
        assert!(err.is_some());
    }

    fn secured_bus() -> (Bus, SecureRegion) {
        let mut bus = Bus::new(256 * MIB);
        let region = SecureRegion::new(PhysAddr::new(192 * MIB), 64 * MIB).unwrap();
        bus.install_secure_region(&region).unwrap();
        (bus, region)
    }

    #[test]
    fn walk_inside_secure_region_succeeds() {
        let (mut bus, region) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        let root = region.base();
        let va = VirtAddr::new(0x4000_1000);
        let data = PhysPageNum::new(0x100);
        build_chain(
            &mut bus,
            PagingScheme::Sv39,
            root,
            va,
            data,
            PteFlags::user_rw(),
            0,
            ctx,
        );

        let satp = Satp::new(PagingScheme::Sv39, PhysPageNum::from(root), 1, true);
        let out = PageTableWalker::new()
            .translate(&mut bus, satp, va, AccessKind::Read, PrivilegeMode::User)
            .unwrap();
        assert_eq!(out.pa, PhysAddr::new(0x100 << 12));
        assert_eq!(out.fetches, 3);
        assert_eq!(out.page_size, PAGE_SIZE);
    }

    #[test]
    fn injected_table_outside_region_is_refused() {
        let (mut bus, _region) = secured_bus();
        // Attacker crafts a "page table" in normal memory.
        let fake_root = PhysAddr::new(4 * MIB);
        let ctx_plain = AccessContext::supervisor(false);
        bus.write::<u64>(
            fake_root,
            Pte::leaf(PhysPageNum::new(0), PteFlags::user_rw()).bits(),
            Channel::Regular,
            ctx_plain,
        )
        .unwrap();

        let satp = Satp::new(PagingScheme::Sv39, PhysPageNum::from(fake_root), 1, true);
        let err = PageTableWalker::new()
            .translate(
                &mut bus,
                satp,
                VirtAddr::new(0),
                AccessKind::Read,
                PrivilegeMode::User,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            TranslateError::AccessFault(AccessError::PtwOutsideRegion { .. })
        ));
    }

    #[test]
    fn same_injection_succeeds_without_ptstore() {
        // Baseline machine: no satp.S. The injected table is happily used —
        // this is the attack PTStore closes.
        let mut bus = Bus::new(64 * MIB);
        let fake_root = PhysAddr::new(4 * MIB);
        let ctx = AccessContext::supervisor(false);
        // Identity-ish 1 GiB superpage leaf at VPN2=0: ppn must be 1GiB-aligned.
        bus.write::<u64>(
            fake_root,
            Pte::leaf(PhysPageNum::new(0), PteFlags::user_rw()).bits(),
            Channel::Regular,
            ctx,
        )
        .unwrap();
        let satp = Satp::new(PagingScheme::Sv39, PhysPageNum::from(fake_root), 1, false);
        let out = PageTableWalker::new()
            .translate(
                &mut bus,
                satp,
                VirtAddr::new(0x1234),
                AccessKind::Read,
                PrivilegeMode::User,
            )
            .unwrap();
        assert_eq!(out.pa, PhysAddr::new(0x1234));
        assert_eq!(out.page_size, ptstore_core::GIB);
    }

    #[test]
    fn permission_checks() {
        let (mut bus, region) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        let root = region.base();
        let va = VirtAddr::new(0x4000_0000);
        // Kernel-only RW page.
        build_chain(
            &mut bus,
            PagingScheme::Sv39,
            root,
            va,
            PhysPageNum::new(0x200),
            PteFlags::kernel_rw(),
            0,
            ctx,
        );
        let satp = Satp::new(PagingScheme::Sv39, PhysPageNum::from(root), 1, true);
        let w = PageTableWalker::new();
        // User access to a kernel page faults.
        assert!(matches!(
            w.translate(&mut bus, satp, va, AccessKind::Read, PrivilegeMode::User),
            Err(TranslateError::PageFault { .. })
        ));
        // Supervisor read/write fine; execute denied (no X).
        w.translate(
            &mut bus,
            satp,
            va,
            AccessKind::Write,
            PrivilegeMode::Supervisor,
        )
        .unwrap();
        assert!(w
            .translate(
                &mut bus,
                satp,
                va,
                AccessKind::Execute,
                PrivilegeMode::Supervisor
            )
            .is_err());
    }

    #[test]
    fn ad_bits_are_set_by_hardware() {
        let (mut bus, region) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        let root = region.base();
        // `build_chain` puts the level-0 table two pages above the root.
        let l0 = region.base() + 2 * PAGE_SIZE;
        let va = VirtAddr::new(0x4000_0000);
        // Leaf without A/D.
        let flags = PteFlags::from_bits(PteFlags::V | PteFlags::R | PteFlags::W | PteFlags::U);
        build_chain(
            &mut bus,
            PagingScheme::Sv39,
            root,
            va,
            PhysPageNum::new(0x300),
            flags,
            0,
            ctx,
        );
        let satp = Satp::new(PagingScheme::Sv39, PhysPageNum::from(root), 1, true);
        PageTableWalker::new()
            .translate(&mut bus, satp, va, AccessKind::Write, PrivilegeMode::User)
            .unwrap();
        let leaf_raw = bus
            .read::<u64>(l0 + va.vpn_slice(0) * 8, Channel::SecurePt, ctx)
            .unwrap();
        let leaf = Pte::from_bits(leaf_raw);
        assert!(leaf.flags().accessed());
        assert!(leaf.flags().dirty());
    }

    #[test]
    fn invalid_and_noncanonical_fault() {
        let (mut bus, region) = secured_bus();
        let satp = Satp::new(
            PagingScheme::Sv39,
            PhysPageNum::from(region.base()),
            1,
            true,
        );
        let w = PageTableWalker::new();
        // Empty root: invalid entry.
        assert!(matches!(
            w.translate(
                &mut bus,
                satp,
                VirtAddr::new(0x1000),
                AccessKind::Read,
                PrivilegeMode::User
            ),
            Err(TranslateError::PageFault { .. })
        ));
        // Non-canonical address.
        assert!(matches!(
            w.translate(
                &mut bus,
                satp,
                VirtAddr::new(0x0000_8000_0000_0000),
                AccessKind::Read,
                PrivilegeMode::User
            ),
            Err(TranslateError::PageFault { .. })
        ));
    }

    #[test]
    fn bare_mode_is_identity() {
        let mut bus = Bus::new(16 * MIB);
        let out = PageTableWalker::new()
            .translate(
                &mut bus,
                Satp::bare(),
                VirtAddr::new(0x1234),
                AccessKind::Read,
                PrivilegeMode::Machine,
            )
            .unwrap();
        assert_eq!(out.pa, PhysAddr::new(0x1234));
        assert_eq!(out.fetches, 0);
    }

    #[test]
    fn misaligned_superpage_faults() {
        let (mut bus, region) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        let root = region.base();
        // 1 GiB leaf at level 2 with a PPN that is not 512*512-aligned.
        bus.write::<u64>(
            root,
            Pte::leaf(PhysPageNum::new(3), PteFlags::user_rw()).bits(),
            Channel::SecurePt,
            ctx,
        )
        .unwrap();
        let satp = Satp::new(PagingScheme::Sv39, PhysPageNum::from(root), 1, true);
        assert!(matches!(
            PageTableWalker::new().translate(
                &mut bus,
                satp,
                VirtAddr::new(0),
                AccessKind::Read,
                PrivilegeMode::User
            ),
            Err(TranslateError::PageFault { .. })
        ));
    }

    #[test]
    fn deeper_schemes_walk_more_levels() {
        for (scheme, expected_fetches) in [
            (PagingScheme::Sv39, 3u32),
            (PagingScheme::Sv48, 4),
            (PagingScheme::Sv57, 5),
        ] {
            let (mut bus, region) = secured_bus();
            let ctx = AccessContext::supervisor(true);
            let va = VirtAddr::new(0x4000_1000);
            build_chain(
                &mut bus,
                scheme,
                region.base(),
                va,
                PhysPageNum::new(0x100),
                PteFlags::user_rw(),
                0,
                ctx,
            );
            let satp = Satp::new(scheme, PhysPageNum::from(region.base()), 1, true);
            let out = PageTableWalker::new()
                .translate(&mut bus, satp, va, AccessKind::Read, PrivilegeMode::User)
                .unwrap();
            assert_eq!(out.pa, PhysAddr::new(0x100_000), "{scheme}");
            assert_eq!(out.fetches, expected_fetches, "{scheme}");
            assert_eq!(out.page_size, PAGE_SIZE, "{scheme}");
        }
    }

    #[test]
    fn canonical_form_tracks_the_scheme() {
        // Bit 38 set with zero upper bits: non-canonical under Sv39,
        // perfectly canonical under Sv48/Sv57.
        let va = VirtAddr::new(0x0000_0040_0000_0000);
        let (mut bus, region) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        build_chain(
            &mut bus,
            PagingScheme::Sv48,
            region.base(),
            va,
            PhysPageNum::new(0x200),
            PteFlags::user_rw(),
            0,
            ctx,
        );
        let root = PhysPageNum::from(region.base());
        let sv48 = Satp::new(PagingScheme::Sv48, root, 1, true);
        let out = PageTableWalker::new()
            .translate(&mut bus, sv48, va, AccessKind::Read, PrivilegeMode::User)
            .unwrap();
        assert_eq!(out.pa, PhysAddr::new(0x200_000));
        // The same address under Sv39 faults before any fetch.
        let sv39 = Satp::new(PagingScheme::Sv39, root, 1, true);
        assert!(matches!(
            PageTableWalker::new().translate(
                &mut bus,
                sv39,
                va,
                AccessKind::Read,
                PrivilegeMode::User
            ),
            Err(TranslateError::PageFault { .. })
        ));
    }

    #[test]
    fn two_mib_leaf_early_exits() {
        let (mut bus, region) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        let va = VirtAddr::new(0x4020_1000);
        // Level-1 leaf: PPN must be 512-page aligned.
        build_chain(
            &mut bus,
            PagingScheme::Sv39,
            region.base(),
            va,
            PhysPageNum::new(0x200),
            PteFlags::user_rw(),
            1,
            ctx,
        );
        let satp = Satp::new(
            PagingScheme::Sv39,
            PhysPageNum::from(region.base()),
            1,
            true,
        );
        let out = PageTableWalker::new()
            .translate(&mut bus, satp, va, AccessKind::Write, PrivilegeMode::User)
            .unwrap();
        assert_eq!(out.fetches, 2);
        assert_eq!(out.page_size, 2 * MIB);
        // PA = superpage base + offset within the 2 MiB span.
        assert_eq!(out.pa, PhysAddr::new((0x200 << 12) + 0x1000));
    }

    #[test]
    fn huge_leaf_outside_region_is_refused_when_armed() {
        // The origin check applies to the walk that *finds* a huge leaf just
        // as it does for 4 KiB chains: the table holding the 2 MiB leaf
        // lives outside the secure region, so the fetch is rejected.
        let (mut bus, region) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        let va = VirtAddr::new(0x4020_0000);
        // Root (inside region) points at an attacker table outside it.
        let fake_l1 = PhysAddr::new(4 * MIB);
        bus.write::<u64>(
            region.base() + va.vpn_slice(2) * 8,
            Pte::table(PhysPageNum::from(fake_l1)).bits(),
            Channel::SecurePt,
            ctx,
        )
        .unwrap();
        let ctx_plain = AccessContext::supervisor(false);
        bus.write::<u64>(
            fake_l1 + va.vpn_slice(1) * 8,
            Pte::leaf(PhysPageNum::new(0x200), PteFlags::user_rw()).bits(),
            Channel::Regular,
            ctx_plain,
        )
        .unwrap();
        let satp = Satp::new(
            PagingScheme::Sv39,
            PhysPageNum::from(region.base()),
            1,
            true,
        );
        let err = PageTableWalker::new()
            .translate(&mut bus, satp, va, AccessKind::Read, PrivilegeMode::User)
            .unwrap_err();
        assert!(matches!(
            err,
            TranslateError::AccessFault(AccessError::PtwOutsideRegion { .. })
        ));
    }
}
