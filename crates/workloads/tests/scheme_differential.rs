//! Scheme-differential anchors: the paging scheme (Sv39/Sv48/Sv57, a
//! runtime `PagingScheme` every page-table walk reads its levels from)
//! must change *walk depth only*, never behavior the mechanism promises
//! about.
//!
//! Three claims, each asserted here:
//!
//! 1. **Security verdicts are scheme-independent.** The full attack ×
//!    defense battery renders byte-identical verdict text under every
//!    scheme, at 1, 2, and 4 harts — PTStore's checks fire on physical
//!    addresses and credentials, not on how many levels the walk has.
//! 2. **Sv39 cycle totals are the seed goldens.** Making the walker
//!    generic must not move a single cycle on the default scheme.
//! 3. **Workloads see identical behavior, deeper schemes only pay walk
//!    cycles.** The syscall battery performs the same work (same syscall
//!    and sfence counts) under every scheme; Sv48/Sv57 cost strictly more
//!    cycles than Sv39 (one/two extra levels per hardware walk).

use ptstore_attacks::security_matrix_with;
use ptstore_core::{PagingScheme, VirtAddr, MIB, PAGE_SIZE};
use ptstore_kernel::process::VmPerms;
use ptstore_kernel::{Kernel, KernelConfig, KernelStats};
use ptstore_workloads::run_huge_page;

// ---------------------------------------------------------------------
// 1. Attack battery: byte-identical verdicts across schemes and harts
// ---------------------------------------------------------------------

/// The whole matrix rendered as one verdict string (the same lines
/// `reproduce security` prints).
fn matrix_text(harts: usize, scheme: PagingScheme) -> String {
    security_matrix_with(harts, scheme)
        .iter()
        .map(|r| {
            let tokens = if r.tokens { "" } else { " [tokens off]" };
            format!("{r}{tokens}\n")
        })
        .collect()
}

#[test]
fn security_verdicts_are_byte_identical_across_schemes() {
    for harts in [1usize, 2, 4] {
        let sv39 = matrix_text(harts, PagingScheme::Sv39);
        for scheme in [PagingScheme::Sv48, PagingScheme::Sv57] {
            assert_eq!(
                sv39,
                matrix_text(harts, scheme),
                "verdicts diverged between sv39 and {} at {harts} hart(s)",
                scheme.name()
            );
        }
    }
}

// ---------------------------------------------------------------------
// 2 + 3. Syscall battery: Sv39 goldens hold; other schemes do the same
// work for strictly more walk cycles
// ---------------------------------------------------------------------

/// The five configurations of `smp_differential.rs`, same geometry.
fn configs() -> [(&'static str, KernelConfig); 5] {
    let geom = |c: KernelConfig| {
        c.with_mem_size(256 * MIB)
            .with_initial_secure_size(16 * MIB)
    };
    [
        ("baseline", geom(KernelConfig::baseline())),
        ("cfi", geom(KernelConfig::cfi())),
        ("cfi_ptstore", geom(KernelConfig::cfi_ptstore())),
        (
            "cfi_ptstore_no_adjust",
            geom(KernelConfig::cfi_ptstore_no_adjust()),
        ),
        ("ptstore_only", geom(KernelConfig::ptstore_only())),
    ]
}

/// The fixed syscall mix of `smp_differential.rs`, parameterised by
/// paging scheme.
fn syscall_battery(cfg: KernelConfig, scheme: PagingScheme) -> (u64, KernelStats) {
    let mut k = Kernel::boot(cfg.with_scheme(scheme)).expect("boot");
    let brk0 = k.procs.get(1).expect("init").brk;
    k.sys_brk(brk0 + 2 * PAGE_SIZE).expect("brk");
    k.sys_touch(VirtAddr::new(brk0), true).expect("touch brk");
    k.sys_touch(VirtAddr::new(brk0 + PAGE_SIZE), true)
        .expect("touch brk2");
    let c1 = k.sys_fork().expect("fork c1");
    let c2 = k.sys_fork().expect("fork c2");
    k.do_switch_to(c1).expect("switch c1");
    k.sys_touch(VirtAddr::new(brk0), true).expect("cow 1");
    k.sys_touch(VirtAddr::new(brk0 + PAGE_SIZE), true)
        .expect("cow 2");
    let va = k.sys_mmap(4 * PAGE_SIZE).expect("mmap");
    for i in 0..4 {
        k.sys_touch(VirtAddr::new(va.as_u64() + i * PAGE_SIZE), true)
            .expect("touch map");
    }
    k.sys_mprotect(va, 2 * PAGE_SIZE, VmPerms::RO)
        .expect("mprotect");
    k.sys_touch(va, false).expect("ro read");
    k.sys_munmap(va, 4 * PAGE_SIZE).expect("munmap");
    let fd = k.sys_open("/tmp/XXX").expect("open");
    k.sys_write(fd, &[0xA5; 48]).expect("write");
    k.sys_close(fd).expect("close");
    let (r, w) = k.sys_pipe().expect("pipe");
    k.sys_write(w, &[1; 16]).expect("pipe write");
    k.sys_read(r, 16).expect("pipe read");
    k.sys_signal_install(7).expect("signal install");
    k.sys_signal_catch(7).expect("signal catch");
    k.sys_exec().expect("exec");
    k.sys_exit(0).expect("exit c1");
    assert_eq!(k.current_pid(), c2, "scheduler picked c2 after c1 exited");
    k.sys_yield().expect("yield");
    k.do_switch_to(c2).expect("switch c2");
    k.sys_exit(0).expect("exit c2");
    k.sys_wait().expect("wait 1");
    k.sys_wait().expect("wait 2");
    (k.cycles.total(), k.stats)
}

/// The pre-SMP seed goldens (identical to `smp_differential.rs`): making
/// the walker scheme-generic must not move one Sv39 cycle.
const GOLDEN_SYSCALLS: [(u64, u64); 5] = [
    (57_943, 22),
    (59_644, 22),
    (61_404, 22),
    (61_404, 22),
    (59_703, 22),
];

#[test]
fn sv39_battery_still_reproduces_the_seed_goldens() {
    for ((name, cfg), (cycles, sfences)) in configs().iter().zip(GOLDEN_SYSCALLS) {
        let (got_cycles, stats) = syscall_battery(*cfg, PagingScheme::Sv39);
        assert_eq!(
            (got_cycles, stats.sfences),
            (cycles, sfences),
            "{name} diverged from the pre-generic-paging seed golden"
        );
    }
}

#[test]
fn battery_does_identical_work_under_every_scheme() {
    for harts in [1usize, 2, 4] {
        for (name, cfg) in configs() {
            let cfg = cfg.with_harts(harts);
            let (sv39_cycles, sv39_stats) = syscall_battery(cfg, PagingScheme::Sv39);
            let mut prev = sv39_cycles;
            for scheme in [PagingScheme::Sv48, PagingScheme::Sv57] {
                let (cycles, stats) = syscall_battery(cfg, scheme);
                // Same work: every kernel statistic matches — syscalls,
                // sfences, faults, CoW breaks, token checks. Only cycle
                // totals and page-table page counts may move (deeper
                // schemes allocate extra intermediate tables, and each of
                // those pages is zero-checked on allocation).
                let depth_free = |mut s: KernelStats| {
                    s.pt_pages_live = 0;
                    s.pt_pages_peak = 0;
                    s.zero_checks = 0;
                    s
                };
                assert_eq!(
                    depth_free(stats),
                    depth_free(sv39_stats),
                    "{name}: kernel stats diverged under {} at {harts} hart(s)",
                    scheme.name()
                );
                assert!(
                    stats.pt_pages_peak > sv39_stats.pt_pages_peak,
                    "{name}: {} should need more tables than sv39",
                    scheme.name()
                );
                assert!(
                    cycles > prev,
                    "{name}: {} must pay for its extra walk level at {harts} hart(s) \
                     ({cycles} vs {prev})",
                    scheme.name()
                );
                prev = cycles;
            }
        }
    }
}

#[test]
fn battery_is_deterministic_under_every_scheme() {
    for scheme in PagingScheme::ALL {
        let cfg = configs()[2].1; // cfi_ptstore
        assert_eq!(
            syscall_battery(cfg, scheme),
            syscall_battery(cfg, scheme),
            "{} battery not run-to-run deterministic",
            scheme.name()
        );
    }
}

// ---------------------------------------------------------------------
// Huge-page lifecycle across schemes and harts
// ---------------------------------------------------------------------

#[test]
fn huge_page_lifecycle_is_scheme_and_hart_invariant_in_work() {
    for harts in [1usize, 2, 4] {
        for scheme in PagingScheme::ALL {
            let cfg = KernelConfig::cfi_ptstore()
                .with_mem_size(256 * MIB)
                .with_initial_secure_size(16 * MIB)
                .with_harts(harts)
                .with_scheme(scheme);
            let run = || {
                let mut k = Kernel::boot(cfg).expect("boot");
                let r = run_huge_page(&mut k, 2).expect("lifecycle");
                (r, k.stats)
            };
            let (first, stats) = run();
            assert_eq!(
                first.touched_pages,
                12,
                "{} at {harts} hart(s): lifecycle work changed",
                scheme.name()
            );
            assert_eq!(
                (first, stats),
                run(),
                "{} at {harts} hart(s): lifecycle not deterministic",
                scheme.name()
            );
        }
    }
}
