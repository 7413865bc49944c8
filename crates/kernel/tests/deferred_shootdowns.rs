//! Shootdown-coalescing properties: with `deferred_shootdowns` on, queued
//! page invalidations that drain at the end of the mapping operation (or a
//! security boundary), or early at a queue-depth watermark, must leave
//! **every hart's TLBs in exactly the state** the eager per-page
//! broadcasts would have produced — at 1, 2, and 4 harts, across random
//! heap churn that warms remote TLBs between operations. On top of state equality, the modeled IPI traffic must
//! *strictly decrease* on the workloads batching targets: fork/exit storms
//! (address-space teardown unmaps page-by-page) and huge-page splits under
//! `mprotect` (a span flush plus per-page permission downgrades). On a
//! single hart the knob must be a true no-op: cycle- and stat-identical.

use proptest::prelude::*;
use ptstore_core::{AccessKind, PrivilegeMode, VirtAddr, MIB, PAGE_SIZE};
use ptstore_kernel::process::VmPerms;
use ptstore_kernel::{DrainPolicy, Kernel, KernelConfig};

fn boot(harts: usize, deferred: bool) -> Kernel {
    boot_policy(harts, deferred, DrainPolicy::Boundary)
}

fn boot_policy(harts: usize, deferred: bool, policy: DrainPolicy) -> Kernel {
    let cfg = KernelConfig::cfi_ptstore()
        .with_mem_size(128 * MIB)
        .with_initial_secure_size(8 * MIB)
        .with_harts(harts)
        .with_deferred_shootdowns(deferred)
        .with_drain_policy(policy);
    Kernel::boot(cfg).expect("kernel boots")
}

/// Every TLB entry of every hart, as a sorted canonical listing.
fn tlb_state(k: &Kernel) -> Vec<String> {
    let mut v = Vec::new();
    for h in &k.harts {
        for e in h.mmu.itlb().entries() {
            v.push(format!("hart{} itlb {e:?}", h.id));
        }
        for e in h.mmu.dtlb().entries() {
            v.push(format!("hart{} dtlb {e:?}", h.id));
        }
    }
    v.sort();
    v
}

/// Mirrors init's satp onto `hart` and warms its D-TLB at `va` (ignoring
/// faults: an unmapped page warms nothing, identically on both kernels).
fn warm_remote(k: &mut Kernel, hart: usize, va: VirtAddr) {
    k.harts[hart].mmu.satp = k.harts[0].mmu.satp;
    let _ = k.harts[hart]
        .mmu
        .translate_data(&mut k.bus, va, AccessKind::Read, PrivilegeMode::User);
}

/// One step of the heap-churn workload, applied to both kernels.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Grow the heap by `pages` and write-touch each new page.
    Grow { pages: u8 },
    /// `mprotect` a small run of heap pages read-only (or back to RW).
    Protect { page: u8, pages: u8, ro: bool },
    /// `munmap` a small run of heap pages.
    Unmap { page: u8, pages: u8 },
    /// Re-touch a heap page (demand-remaps after an unmap).
    Touch { page: u8 },
    /// Warm a remote hart's D-TLB at a heap page.
    Warm { hart: u8, page: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (1u8..8).prop_map(|pages| Op::Grow { pages }),
        3 => (0u8..64, 1u8..8, any::<bool>())
            .prop_map(|(page, pages, ro)| Op::Protect { page, pages, ro }),
        3 => (0u8..64, 1u8..8).prop_map(|(page, pages)| Op::Unmap { page, pages }),
        2 => (0u8..64).prop_map(|page| Op::Touch { page }),
        2 => (0u8..4, 0u8..64).prop_map(|(hart, page)| Op::Warm { hart, page }),
    ]
}

/// Runs one op on a kernel; the return value (which both kernels must
/// agree on) is the op's coarse outcome, for divergence diagnostics.
fn run_op(k: &mut Kernel, heap_base: u64, grown: &mut u64, op: Op) -> String {
    let page_va = |page: u8, grown: u64| {
        let idx = if grown == 0 {
            0
        } else {
            u64::from(page) % grown
        };
        VirtAddr::new(heap_base + idx * PAGE_SIZE)
    };
    match op {
        Op::Grow { pages } => {
            let pages = u64::from(pages);
            let new_brk = heap_base + (*grown + pages) * PAGE_SIZE;
            let r = k.sys_brk(new_brk).map(|_| ());
            let mut out = format!("grow {r:?}");
            if r.is_ok() {
                for i in *grown..*grown + pages {
                    // A write-touch can fault when earlier mprotect churn
                    // left the heap head read-only; both kernels must agree.
                    let va = VirtAddr::new(heap_base + i * PAGE_SIZE);
                    let t = k.sys_touch(va, true);
                    out.push_str(if t.is_ok() { "+" } else { "-" });
                }
                *grown += pages;
            }
            out
        }
        Op::Protect { page, pages, ro } => {
            if *grown == 0 {
                return "protect skipped".into();
            }
            let va = page_va(page, *grown);
            let len = u64::from(pages) * PAGE_SIZE;
            let perms = if ro { VmPerms::RO } else { VmPerms::RW };
            let r = k.sys_mprotect(va, len, perms);
            format!("protect {r:?}")
        }
        Op::Unmap { page, pages } => {
            if *grown == 0 {
                return "unmap skipped".into();
            }
            let va = page_va(page, *grown);
            let r = k.sys_munmap(va, u64::from(pages) * PAGE_SIZE);
            format!("unmap {r:?}")
        }
        Op::Touch { page } => {
            if *grown == 0 {
                return "touch skipped".into();
            }
            // A write into a read-only range segfaults identically on both
            // kernels; read-touches always resolve.
            let r = k.sys_touch(page_va(page, *grown), false);
            format!("touch {r:?}")
        }
        Op::Warm { hart, page } => {
            let hart = usize::from(hart) % k.harts.len();
            if hart == 0 || *grown == 0 {
                return "warm skipped".into();
            }
            warm_remote(k, hart, page_va(page, *grown));
            "warmed".into()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Deferred-then-drained flushes are TLB-state-equivalent to eager
    /// broadcasts at 1, 2, and 4 harts, step by step, whether they drain
    /// only at the end of each op (`Boundary`) or also early, mid-op, as
    /// soon as two pages are queued (`Watermark`).
    #[test]
    fn drained_tlb_state_matches_eager(
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        for harts in [1usize, 2, 4] {
            let mut eager = boot(harts, false);
            let mut drained = [
                boot_policy(harts, true, DrainPolicy::Boundary),
                boot_policy(harts, true, DrainPolicy::Watermark { depth: 2 }),
            ];
            let heap_base = eager.procs.get(1).expect("init").brk;
            for k in &drained {
                prop_assert_eq!(heap_base, k.procs.get(1).expect("init").brk);
            }
            let mut ge = 0u64;
            let mut gd = [0u64; 2];
            for (step, &op) in ops.iter().enumerate() {
                let want = run_op(&mut eager, heap_base, &mut ge, op);
                for (k, grown) in drained.iter_mut().zip(&mut gd) {
                    let policy = k.cfg.drain_policy;
                    let got = run_op(k, heap_base, grown, op);
                    prop_assert_eq!(
                        &want, &got,
                        "{}: outcome diverged at step {} ({:?})", policy, step, op
                    );
                    // Every mapping operation ends on a drained queue (its
                    // own end-of-op drain).
                    prop_assert_eq!(k.pending_deferred_flushes(), 0);
                    prop_assert_eq!(
                        tlb_state(&eager),
                        tlb_state(k),
                        "{}: TLB diverged at {} harts, step {} ({:?})",
                        policy, harts, step, op
                    );
                }
            }
            // Page-level bookkeeping agreed throughout.
            for k in &drained {
                prop_assert_eq!(eager.stats.page_faults, k.stats.page_faults);
                prop_assert_eq!(eager.stats.sfences, k.stats.sfences);
            }
        }
    }

    /// With one hart the knob is inert: the same workload produces the
    /// same cycle total and the same counters, bit for bit.
    #[test]
    fn single_hart_is_cycle_identical(
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let mut eager = boot(1, false);
        let mut deferred = boot(1, true);
        let heap_base = eager.procs.get(1).expect("init").brk;
        let (mut ge, mut gd) = (0u64, 0u64);
        for &op in &ops {
            let a = run_op(&mut eager, heap_base, &mut ge, op);
            let b = run_op(&mut deferred, heap_base, &mut gd, op);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(eager.cycles.total(), deferred.cycles.total());
        prop_assert_eq!(eager.stats, deferred.stats);
        prop_assert_eq!(deferred.stats.deferred_drains, 0);
    }
}

/// Forks a child, switches to it, lets it dirty `pages` CoW heap pages,
/// and reaps it through exit — the teardown unmap storm is the batching
/// target. Repeated `rounds` times.
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
        assert_eq!(k.current_pid(), child, "child scheduled");
        for i in 0..pages {
            k.sys_touch(VirtAddr::new(heap_base + i * PAGE_SIZE), true)
                .expect("child CoW write");
        }
        k.sys_exit(0).expect("child exits");
        assert_eq!(k.current_pid(), 1, "back on init");
    }
}

#[test]
fn fork_stress_ipis_strictly_decrease() {
    let mut eager = boot(2, false);
    let mut deferred = boot(2, true);
    fork_stress(&mut eager, 4, 8);
    fork_stress(&mut deferred, 4, 8);

    // Same work happened...
    assert_eq!(eager.stats.forks, deferred.stats.forks);
    assert_eq!(eager.stats.cow_faults, deferred.stats.cow_faults);
    assert_eq!(eager.stats.exits, deferred.stats.exits);
    // ...with strictly less IPI traffic, and the drains prove why.
    assert!(
        deferred.stats.shootdown_ipis < eager.stats.shootdown_ipis,
        "deferred {} !< eager {}",
        deferred.stats.shootdown_ipis,
        eager.stats.shootdown_ipis
    );
    assert!(deferred.stats.tlb_shootdowns < eager.stats.tlb_shootdowns);
    assert!(deferred.stats.deferred_drains > 0);
    assert!(deferred.stats.deferred_pages_coalesced > deferred.stats.deferred_drains);
    // Remote TLB hygiene held: both machines end in the same TLB state.
    assert_eq!(tlb_state(&eager), tlb_state(&deferred));
}

/// Maps a huge block, then `mprotect`s a 16-page interior run read-only —
/// forcing a split (span flush) plus 16 per-page permission downgrades,
/// all of which must ride one batched broadcast.
fn huge_split(k: &mut Kernel) {
    let va = k.sys_mmap_huge(2 * MIB).expect("huge mmap");
    k.sys_touch(va, true).expect("touch huge");
    k.sys_mprotect(va + 4 * PAGE_SIZE, 16 * PAGE_SIZE, VmPerms::RO)
        .expect("interior mprotect splits");
}

#[test]
fn huge_split_ipis_strictly_decrease() {
    for harts in [2usize, 4] {
        let mut eager = boot(harts, false);
        let mut deferred = boot(harts, true);
        huge_split(&mut eager);
        huge_split(&mut deferred);
        assert!(
            deferred.stats.shootdown_ipis < eager.stats.shootdown_ipis,
            "{harts} harts: deferred {} !< eager {}",
            deferred.stats.shootdown_ipis,
            eager.stats.shootdown_ipis
        );
        assert!(deferred.stats.tlb_shootdowns < eager.stats.tlb_shootdowns);
        // The split + downgrades coalesced into a single drain.
        assert_eq!(deferred.stats.deferred_drains, 1);
        assert!(deferred.stats.deferred_pages_coalesced >= 17);
        assert_eq!(tlb_state(&eager), tlb_state(&deferred));
    }
}
