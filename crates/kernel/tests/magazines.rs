//! Allocation-magazine properties: with `alloc_magazines` on, per-hart
//! LIFO caches front the page-table-page and PCB allocations. The knob
//! must change *only* the allocator work — every functional counter
//! (forks, exits, faults, zero-checks) and every security outcome stays
//! identical, the zero-check defense still fires on every table page
//! (magazine hits included), and a fork/exit storm costs strictly fewer
//! cycles. Drains (slab reclaim, secure-region adjustment) must return
//! the caches to canonical allocator state.

use ptstore_core::{VirtAddr, MIB, PAGE_SIZE};
use ptstore_kernel::{Kernel, KernelConfig};

fn boot(magazines: bool) -> Kernel {
    let cfg = KernelConfig::cfi_ptstore()
        .with_mem_size(128 * MIB)
        .with_initial_secure_size(8 * MIB)
        .with_alloc_magazines(magazines);
    Kernel::boot(cfg).expect("kernel boots")
}

/// Fork/exit/wait churn: each round builds a child address space (table
/// pages + a PCB), dirties some CoW pages, and tears it all down.
fn storm(k: &mut Kernel, rounds: usize) {
    let heap_base = k.procs.get(1).expect("init").brk;
    k.sys_brk(heap_base + 8 * PAGE_SIZE).expect("brk");
    for i in 0..8 {
        k.sys_touch(VirtAddr::new(heap_base + i * PAGE_SIZE), true)
            .expect("touch heap");
    }
    for _ in 0..rounds {
        let child = k.sys_fork().expect("fork");
        k.do_yield().expect("switch to child");
        assert_eq!(k.current_pid(), child);
        for i in 0..8 {
            k.sys_touch(VirtAddr::new(heap_base + i * PAGE_SIZE), true)
                .expect("child CoW write");
        }
        k.sys_exit(0).expect("child exit");
        let (reaped, code) = k.sys_wait().expect("reap child");
        assert_eq!((reaped, code), (child, 0));
    }
}

#[test]
fn storm_is_functionally_identical_and_cheaper() {
    let mut plain = boot(false);
    let mut magged = boot(true);
    storm(&mut plain, 12);
    storm(&mut magged, 12);

    // Same functional story, defense included: every table page — magazine
    // hits too — went through the zero-check.
    assert_eq!(plain.stats.forks, magged.stats.forks);
    assert_eq!(plain.stats.exits, magged.stats.exits);
    assert_eq!(plain.stats.cow_faults, magged.stats.cow_faults);
    assert_eq!(plain.stats.zero_checks, magged.stats.zero_checks);
    assert_eq!(plain.stats.zero_check_failures, 0);
    assert_eq!(magged.stats.zero_check_failures, 0);
    assert_eq!(plain.stats.pt_pages_live, magged.stats.pt_pages_live);
    assert!(plain.security_log.is_empty() && magged.security_log.is_empty());

    // The storm reuses table pages and PCBs round after round: with
    // magazines those reuses skip the buddy/slab work entirely.
    assert!(
        magged.cycles.total() < plain.cycles.total(),
        "magazines {} !< plain {}",
        magged.cycles.total(),
        plain.cycles.total()
    );
}

#[test]
fn drain_restores_canonical_state() {
    let mut k = boot(true);
    storm(&mut k, 6);
    // The storm parked table pages (and PCBs) in hart 0's magazines.
    let drained = k.drain_magazines().expect("drain");
    assert!(drained > 0, "storm left objects in the magazines");
    assert_eq!(k.drain_magazines().expect("second drain"), 0);
    // Reclaim flushes implicitly, so shrink sees every empty page.
    storm(&mut k, 2);
    k.reclaim_slabs().expect("reclaim");
    assert_eq!(k.drain_magazines().expect("post-reclaim"), 0);
    // The machine is still fully functional afterwards.
    storm(&mut k, 2);
}

#[test]
fn magazines_off_by_default() {
    let k = Kernel::boot(
        KernelConfig::cfi_ptstore()
            .with_mem_size(128 * MIB)
            .with_initial_secure_size(8 * MIB),
    )
    .expect("kernel boots");
    assert!(
        !k.cfg().alloc_magazines,
        "goldens pin the knob-off behavior"
    );
}
