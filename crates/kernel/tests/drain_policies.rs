//! Drain-policy differentials and the ASID-rollover regression.
//!
//! Early drains are pure *placement*: every entry a `Watermark` policy
//! drains ahead of time would otherwise ride the next mandatory security
//! boundary, so the work done (faults, forks) must be identical across
//! policies — only the IPI round-trip counts and the queue-depth
//! high-water mark may move. (That a watermark kernel's TLBs match an
//! eager kernel's after every op, with remote TLBs warm, is the
//! `deferred_shootdowns.rs` proptest's job.) The rollover half pins the
//! one drain no policy may skip: an ASID handed out *after* the 15-bit
//! allocator wraps is a reuse, and the new address space must never
//! observe a deferred invalidation queued against its previous life.

use ptstore_core::{AccessKind, PrivilegeMode, VirtAddr, MIB, PAGE_SIZE};
use ptstore_kernel::{DrainPolicy, Kernel, KernelConfig};

fn boot(harts: usize, deferred: bool, policy: DrainPolicy) -> Kernel {
    let cfg = KernelConfig::cfi_ptstore()
        .with_mem_size(128 * MIB)
        .with_initial_secure_size(8 * MIB)
        .with_harts(harts)
        .with_deferred_shootdowns(deferred)
        .with_drain_policy(policy);
    Kernel::boot(cfg).expect("kernel boots")
}

/// Fork/exit storm: each child dirties `pages` CoW pages, and its exit
/// tears them down page-by-page — the deepest queue the kernel builds.
fn fork_stress(k: &mut Kernel, rounds: usize, pages: u64) {
    let heap_base = k.procs.get(1).expect("init").brk;
    k.sys_brk(heap_base + pages * PAGE_SIZE).expect("brk");
    for i in 0..pages {
        k.sys_touch(VirtAddr::new(heap_base + i * PAGE_SIZE), true)
            .expect("touch parent heap");
    }
    for _ in 0..rounds {
        let child = k.sys_fork().expect("fork");
        k.do_yield().expect("switch to child");
        assert_eq!(k.current_pid(), child);
        for i in 0..pages {
            k.sys_touch(VirtAddr::new(heap_base + i * PAGE_SIZE), true)
                .expect("child CoW write");
        }
        k.sys_exit(0).expect("child exits");
    }
}

#[test]
fn watermark_bounds_queue_depth_with_identical_state() {
    for harts in [2usize, 4] {
        let mut boundary = boot(harts, true, DrainPolicy::Boundary);
        let mut watermark = boot(harts, true, DrainPolicy::Watermark { depth: 2 });
        fork_stress(&mut boundary, 3, 8);
        fork_stress(&mut watermark, 3, 8);

        // Identical work...
        assert_eq!(boundary.stats.forks, watermark.stats.forks);
        assert_eq!(boundary.stats.page_faults, watermark.stats.page_faults);
        // ...but the watermark capped the queue at its depth while the
        // boundary policy let the teardown batch build up.
        assert!(
            watermark.stats.deferred_queue_peak < boundary.stats.deferred_queue_peak,
            "{harts} harts: watermark peak {} !< boundary peak {}",
            watermark.stats.deferred_queue_peak,
            boundary.stats.deferred_queue_peak
        );
        assert_eq!(watermark.stats.deferred_queue_peak, 2);
        assert!(watermark.stats.watermark_drains > 0);
        assert_eq!(boundary.stats.watermark_drains, 0);
        // Early drains cost extra IPI rounds — the trade-off the policy
        // matrix documents.
        assert!(watermark.stats.deferred_drains > boundary.stats.deferred_drains);
    }
}

#[test]
fn single_hart_policies_are_cycle_identical() {
    let mut machines = [
        boot(1, true, DrainPolicy::Boundary),
        boot(1, true, DrainPolicy::Watermark { depth: 2 }),
    ];
    for k in &mut machines {
        fork_stress(k, 3, 8);
    }
    let [a, b] = machines;
    assert_eq!(a.cycles.total(), b.cycles.total());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats.watermark_drains, 0);
    assert_eq!(a.stats.asid_recycle_drains, 0);
}

/// Warms `hart`'s D-TLB at `va` through init's address space, then parks
/// the hart's satp back on its own root.
fn warm_remote_and_park(k: &mut Kernel, hart: usize, va: VirtAddr) {
    let parked = k.harts[hart].mmu.satp;
    k.harts[hart].mmu.satp = k.harts[0].mmu.satp;
    k.harts[hart]
        .mmu
        .translate_data(&mut k.bus, va, AccessKind::Read, PrivilegeMode::User)
        .expect("remote warm resolves");
    k.harts[hart].mmu.satp = parked;
}

/// True when any hart's TLB still holds an entry for `(asid, vpn)`.
fn any_tlb_holds(k: &Kernel, asid: u16, vpn: u64) -> bool {
    k.harts.iter().any(|h| {
        h.mmu
            .itlb()
            .entries()
            .chain(h.mmu.dtlb().entries())
            .any(|e| e.asid == asid && e.covers(ptstore_core::VirtPageNum::new(vpn)))
    })
}

/// The regression the mandatory ASID-reuse drain exists for: fast-
/// forward the allocator to its wrap point, manufacture a queued deferred
/// invalidation plus a still-cached remote translation against the ASID
/// about to be recycled, then allocate. The new address space must come
/// up with zero pending flushes and no stale entry, at every hart count,
/// under both eager and deferred shootdowns, under both policies.
#[test]
fn recycled_asid_never_observes_stale_deferred_invalidations() {
    for harts in [1usize, 2, 4] {
        for deferred in [false, true] {
            for policy in [DrainPolicy::Boundary, DrainPolicy::Watermark { depth: 64 }] {
                let mut k = boot(harts, deferred, policy);
                let heap_base = k.procs.get(1).expect("init").brk;
                k.sys_brk(heap_base + PAGE_SIZE).expect("brk");
                k.sys_touch(VirtAddr::new(heap_base), true).expect("touch");

                // First wrap the allocator: the next fork takes 0x7fff and
                // rolls over, marking every later allocation a reuse.
                k.set_next_asid(0x7fff);
                let child = k.sys_fork().expect("fork at wrap point");
                assert!(k.asid_rollover_happened());

                // Manufacture the hazard against init's ASID (1) — the
                // value the wrapped allocator hands out next: a queued
                // invalidation plus a remote hart still caching the page.
                let va = VirtAddr::new(heap_base);
                if harts > 1 {
                    warm_remote_and_park(&mut k, harts - 1, va);
                    assert!(any_tlb_holds(&k, 1, va.as_u64() >> 12));
                }
                k.inject_deferred_flush(va, 1);
                let was_pending = k.pending_deferred_flushes();
                assert_eq!(was_pending > 0, deferred && harts > 1);

                // The reuse allocation must force the drain...
                let grandchild = k.sys_fork().expect("fork over recycled asid");
                assert_ne!(child, grandchild);
                assert_eq!(k.pending_deferred_flushes(), 0);
                if was_pending > 0 {
                    assert!(
                        k.stats.asid_recycle_drains > 0,
                        "{harts} harts {policy}: reuse drain not recorded"
                    );
                }
                // ...and no hart may still translate through the ASID's
                // previous life.
                assert!(
                    !any_tlb_holds(&k, 1, va.as_u64() >> 12),
                    "{harts} harts deferred={deferred} {policy}: stale entry survived recycle"
                );
            }
        }
    }
}
