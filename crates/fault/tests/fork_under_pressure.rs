//! Fork under memory pressure. A table the child needs can grow the
//! secure region mid-copy, and a page the zones cannot supply fails the
//! fork. Either way the parent and the machine must stay consistent: the
//! first test checks that the copy follows pages the growth migrated, the
//! others that a failed fork leaves nothing behind.

use ptstore_core::{VirtAddr, MIB, PAGE_SIZE};
use ptstore_fault::Invariants;
use ptstore_kernel::{Kernel, KernelConfig, KernelError};

fn assert_clean(k: &Kernel) {
    let rep = Invariants::check(k);
    let v = &rep.violations;
    assert!(rep.ok(), "{} violations, first {:?}", v.len(), v.first());
}

/// Touches `pages` pages of a fresh mapping, `stride` bytes apart.
fn touch_spread(k: &mut Kernel, pages: u64, stride: u64) -> VirtAddr {
    let base = k.sys_mmap(pages * stride).expect("mmap");
    for i in 0..pages {
        k.sys_touch(base + i * stride, true).expect("touch");
    }
    base
}

#[test]
fn fork_copies_the_pages_a_mid_fork_adjustment_migrates() {
    let mut cfg = KernelConfig::cfi_ptstore()
        .with_mem_size(64 * MIB)
        .with_initial_secure_size(MIB);
    cfg.adjust_chunk = MIB;
    let mut k = Kernel::boot(cfg).expect("boots");
    // One leaf table per page, so the child's copy needs more tables than
    // the region has free and grows it partway through.
    touch_spread(&mut k, 150, 2 * MIB);
    // Freed below, as the targets the growth migrates pages to.
    let spare = touch_spread(&mut k, 4096, PAGE_SIZE);
    // Fill the normal zone from the top down, so the chunk below the
    // region holds these pages when it grows.
    let fill = k.sys_mmap(64 * MIB).expect("mmap");
    let mut n = 0;
    while k.normal_free_pages() > 64 {
        k.sys_touch(fill + n * PAGE_SIZE, true).expect("touch");
        n += 1;
    }
    k.sys_munmap(spare, 4096 * PAGE_SIZE).expect("munmap");
    let stamped = fill + (n - 1) * PAGE_SIZE;
    k.user_write_u64(stamped, 0x5eed).expect("stamp");
    let migrated = k.stats.migrated_pages;

    let child = k.sys_fork().expect("fork");
    assert!(k.stats.migrated_pages > migrated, "no page moved mid-fork");
    assert_clean(&k);
    assert_eq!(k.user_read_u64(stamped), Ok(0x5eed));
    k.do_switch_to(child).expect("switch");
    assert_eq!(k.user_read_u64(stamped), Ok(0x5eed));
    k.sys_exit(0).expect("child exits");
    assert_eq!(k.sys_wait(), Ok((child, 0)));
    assert_clean(&k);
}

#[test]
fn a_failed_fork_leaves_nothing_behind() {
    let cfg = KernelConfig::cfi_ptstore_no_adjust()
        .with_mem_size(256 * MIB)
        .with_initial_secure_size(MIB);
    let mut k = Kernel::boot(cfg).expect("boots");
    let normal_before = k.normal_free_pages();
    // Leaf tables 2 MiB apart use up the PT zone until three pages are
    // free: the child's root and its text tables, but not the table of
    // the first mmap page.
    let base = k.sys_mmap(256 * 2 * MIB).expect("mmap");
    let mut pages = 0;
    while k.pt_area_free_pages() > Some(3) {
        k.sys_touch(base + pages * 2 * MIB, true).expect("touch");
        pages += 1;
    }
    assert_eq!(k.pt_area_free_pages(), Some(3));

    assert_eq!(k.sys_fork(), Err(KernelError::OutOfMemory));
    assert_eq!(k.procs.pids().collect::<Vec<_>>(), [1]);
    assert_eq!(k.pt_area_free_pages(), Some(3));
    assert_clean(&k);
    assert_eq!(k.sys_wait(), Err(KernelError::InvalidState));
    // Every page init mapped goes back: the failed copy holds no
    // reference to any of them.
    k.sys_munmap(base, pages * 2 * MIB).expect("munmap");
    assert_eq!(k.normal_free_pages(), normal_before);
}

#[test]
fn a_fork_that_fails_at_the_pcb_frees_the_childs_root() {
    let cfg = KernelConfig::cfi_ptstore()
        .with_mem_size(64 * MIB)
        .with_initial_secure_size(8 * MIB);
    let mut k = Kernel::boot(cfg).expect("boots");
    // Fill the PCB slab's page (16 PCBs of 256 bytes), then the normal
    // zone, so the next PCB needs a slab page that cannot be had.
    for _ in 0..15 {
        k.sys_fork().expect("fork");
    }
    let base = k.sys_mmap(64 * MIB).expect("mmap");
    let mut pages = 0;
    while k.sys_touch(base + pages * PAGE_SIZE, true).is_ok() {
        pages += 1;
    }
    assert_eq!(k.normal_free_pages(), 0);
    let pt_free = k.pt_area_free_pages();

    assert_eq!(k.sys_fork(), Err(KernelError::OutOfMemory));
    assert_eq!(k.procs.len(), 16);
    assert_eq!(k.pt_area_free_pages(), pt_free);
    assert_clean(&k);
}
