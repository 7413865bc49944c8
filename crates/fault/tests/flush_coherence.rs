//! Every replacing page-table write must invalidate the translation it
//! replaces. Each test warms hart 1 with the old translation (a 2 MiB span
//! entry, or a copy-on-write read-only entry), performs the operation on
//! hart 0, then checks that the oracle is clean and that hart 1 re-walks or
//! faults instead of consuming the stale entry. The last two tests cover
//! page migration during secure-region growth, where a stale entry would
//! sit in the local TLB, or a mapping left unrepointed would sit in a page
//! table, and point into the grown region.

use ptstore_core::{AccessKind, PrivilegeMode, VirtAddr, MIB, PAGE_SIZE};
use ptstore_fault::Invariants;
use ptstore_kernel::process::VmPerms;
use ptstore_kernel::{DrainFault, Kernel, KernelConfig, Pid};
use ptstore_mmu::{TranslateError, TranslationOutcome};

fn boot_smp(deferred: bool) -> Kernel {
    let cfg = KernelConfig::cfi_ptstore()
        .with_mem_size(256 * MIB)
        .with_initial_secure_size(16 * MIB)
        .with_harts(2)
        .with_deferred_shootdowns(deferred);
    Kernel::boot(cfg).expect("smp kernel boots")
}

/// Translates `va` on hart 1 through init's address space, then parks the
/// hart again: a hart that ran init earlier and still caches its
/// translations.
fn remote(
    k: &mut Kernel,
    va: VirtAddr,
    kind: AccessKind,
) -> Result<TranslationOutcome, TranslateError> {
    let parked = k.harts[1].mmu.satp;
    k.harts[1].mmu.satp = k.harts[0].mmu.satp;
    let out = k.harts[1]
        .mmu
        .translate_data(&mut k.bus, va, kind, PrivilegeMode::User);
    k.harts[1].mmu.satp = parked;
    out
}

/// Maps one 2 MiB page and caches it on hart 1 as a span entry.
fn warm_huge(k: &mut Kernel) -> VirtAddr {
    let va = k.sys_mmap_huge(2 * MIB).expect("huge mmap");
    remote(k, va, AccessKind::Read).expect("remote walk");
    let hit = remote(k, va + PAGE_SIZE, AccessKind::Read).expect("remote hit");
    assert!(matches!(hit, TranslationOutcome::TlbHit { .. }));
    va
}

/// Maps `va` copy-on-write in init (a forked child shares it) and caches
/// the read-only entry on hart 1; returns the shared frame's address.
fn warm_cow(k: &mut Kernel, va: VirtAddr) -> u64 {
    k.user_write_u64(va, 1).expect("stamp");
    k.sys_fork().expect("fork");
    remote(k, va, AccessKind::Read).expect("remote walk");
    let hit = remote(k, va, AccessKind::Read).expect("remote hit");
    assert!(matches!(hit, TranslationOutcome::TlbHit { .. }));
    hit.pa().as_u64()
}

fn assert_clean(k: &Kernel) {
    let rep = Invariants::check(k);
    assert!(rep.ok(), "{:?}", rep.violations);
}

fn assert_faults(k: &mut Kernel, va: VirtAddr, kind: AccessKind) {
    let out = remote(k, va, kind);
    assert!(
        matches!(out, Err(TranslateError::PageFault { .. })),
        "hart 1 used a stale entry: {out:?}"
    );
}

/// Asserts hart 1 walks the tables to a frame other than `old`.
fn assert_rewalks_away_from(k: &mut Kernel, va: VirtAddr, old: u64) {
    let out = remote(k, va, AccessKind::Read).expect("still mapped");
    assert!(matches!(out, TranslationOutcome::Walk { .. }), "{out:?}");
    assert_ne!(out.pa().as_u64(), old, "still the shared frame");
}

#[test]
fn huge_munmap_evicts_the_remote_span_entry() {
    let mut k = boot_smp(false);
    let va = warm_huge(&mut k);
    k.sys_munmap(va, 2 * MIB).expect("munmap");
    assert_clean(&k);
    assert_faults(&mut k, va + PAGE_SIZE, AccessKind::Read);
}

#[test]
fn huge_mprotect_evicts_the_remote_writable_span_entry() {
    let mut k = boot_smp(false);
    let va = warm_huge(&mut k);
    k.sys_mprotect(va, 2 * MIB, VmPerms::RO).expect("mprotect");
    assert_clean(&k);
    assert_faults(&mut k, va + PAGE_SIZE, AccessKind::Write);
}

/// Every caller of the split flushes a page inside the span right after
/// it, and that flush alone would also evict the span entry. Dropping it
/// from the batched drain isolates the split's own invalidation.
#[test]
fn huge_split_evicts_the_remote_span_entry_by_itself() {
    let mut k = boot_smp(true);
    let va = warm_huge(&mut k);
    // Queued (sorted): the span base from the split, then the page.
    k.inject_drain_fault(DrainFault::DropQueuedNext { index: 1 });
    k.sys_munmap(va + PAGE_SIZE, PAGE_SIZE).expect("munmap");
    assert!(!k.drain_fault_pending());
    assert_clean(&k);
    assert_faults(&mut k, va + PAGE_SIZE, AccessKind::Read);
}

#[test]
fn cow_break_evicts_the_remote_read_only_entry() {
    let mut k = boot_smp(false);
    let va = k.sys_mmap(PAGE_SIZE).expect("mmap");
    let shared = warm_cow(&mut k, va);
    k.user_write_u64(va, 2).expect("CoW break on hart 0");
    assert_clean(&k);
    assert_rewalks_away_from(&mut k, va, shared);
}

#[test]
fn huge_cow_break_evicts_the_remote_span_entry() {
    let mut k = boot_smp(false);
    let va = k.sys_mmap_huge(2 * MIB).expect("huge mmap");
    let shared = warm_cow(&mut k, va);
    k.user_write_u64(va, 2).expect("CoW break on hart 0");
    assert_clean(&k);
    assert_rewalks_away_from(&mut k, va, shared);
}

#[test]
fn migration_repoints_a_page_hot_in_the_local_tlb() {
    let mut cfg = KernelConfig::cfi_ptstore()
        .with_mem_size(64 * MIB)
        .with_initial_secure_size(4 * MIB);
    cfg.adjust_chunk = MIB;
    let mut k = Kernel::boot(cfg).expect("boots");
    // Stamp user pages until the normal zone is full; the last ones sit
    // just below the secure region, in the chunk the adjustment takes.
    // The lowest 512 are then freed as migration targets.
    let base = k.sys_mmap(64 * MIB).expect("mmap");
    let page = |i: u64| base + i * PAGE_SIZE;
    let mut n = 0;
    while k.user_write_u64(page(n), n).is_ok() {
        n += 1;
    }
    k.sys_munmap(base, 512 * PAGE_SIZE).expect("munmap");
    let hot = page(n - 1);
    assert_eq!(k.user_read_u64(hot), Ok(n - 1));

    k.adjust_secure_region().expect("adjustment");
    assert!(k.stats.migrated_pages > 0);
    assert_eq!(k.user_read_u64(hot), Ok(n - 1));
    let pa = k.touch_user(hot, AccessKind::Read).expect("mapped");
    assert!(!k.is_secure_phys(pa));
    assert_clean(&k);
}

#[test]
fn migration_repoints_every_sharer_of_a_page() {
    let mut cfg = KernelConfig::cfi_ptstore()
        .with_mem_size(64 * MIB)
        .with_initial_secure_size(4 * MIB);
    cfg.adjust_chunk = MIB;
    let mut k = Kernel::boot(cfg).expect("boots");
    // As above, but 1,024 pages are freed: room for three children, a
    // copy-on-write copy and the migration targets.
    let base = k.sys_mmap(64 * MIB).expect("mmap");
    let page = |i: u64| base + i * PAGE_SIZE;
    let mut n = 0;
    while k.user_write_u64(page(n), n).is_ok() {
        n += 1;
    }
    k.sys_munmap(base, 1024 * PAGE_SIZE).expect("munmap");
    let hot = page(n - 1);
    let before = k.touch_user(hot, AccessKind::Read).expect("mapped");
    let kids: Vec<Pid> = (0..3).map(|_| k.sys_fork().expect("fork")).collect();
    // The middle child breaks sharing, so the page's remaining sharers
    // are not a contiguous run of pids.
    k.do_switch_to(kids[1]).expect("switch");
    k.user_write_u64(hot, u64::MAX)
        .expect("copy-on-write break");

    k.adjust_secure_region().expect("adjustment");
    let mut frames = Vec::new();
    for pid in [1, kids[0], kids[2]] {
        k.do_switch_to(pid).expect("switch");
        assert_eq!(k.user_read_u64(hot), Ok(n - 1), "pid {pid}");
        frames.push(k.touch_user(hot, AccessKind::Read).expect("mapped"));
    }
    assert!(frames.iter().all(|&pa| pa == frames[0]), "{frames:?}");
    assert_ne!(frames[0], before, "the page did not move");
    assert!(!k.is_secure_phys(frames[0]));
    k.do_switch_to(kids[1]).expect("switch");
    assert_eq!(k.user_read_u64(hot), Ok(u64::MAX));
    assert_clean(&k);
}
