//! SPEC CINT2006-shaped workloads (Figure 5).
//!
//! The paper runs the integer subset (FPU disabled) with reference inputs;
//! `400.perlbench` is excluded (RISC-V compilation failure). What drives the
//! *relative* overheads in Figure 5 is each benchmark's kernel-interaction
//! profile — syscall rate, paging behaviour, and working-set growth — on top
//! of a dominant user-mode compute time. The profiles below encode published
//! characteristics qualitatively (mcf/omnetpp/xalancbmk page-heavy,
//! libquantum/hmmer almost pure compute) at a scale the simulator executes in
//! milliseconds.

use ptstore_core::{VirtAddr, PAGE_SIZE};
use ptstore_kernel::{CostKind, Kernel};

use crate::report::timed;

/// One benchmark's kernel-interaction profile (scaled-down "reference run").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// User-mode compute cycles (the dominant term).
    pub user_cycles: u64,
    /// Total anonymous memory the run touches (pages, drives page faults).
    pub working_set_pages: u64,
    /// read/write/stat-ish syscalls over the run.
    pub syscalls: u64,
    /// brk/mmap growth events.
    pub vm_calls: u64,
}

/// The 11 CINT2006 benchmarks the paper runs (perlbench excluded).
pub const SPEC_CINT2006: [SpecProfile; 11] = [
    SpecProfile {
        name: "401.bzip2",
        user_cycles: 60_000_000,
        working_set_pages: 220,
        syscalls: 260,
        vm_calls: 14,
    },
    SpecProfile {
        name: "403.gcc",
        user_cycles: 48_000_000,
        working_set_pages: 900,
        syscalls: 2_400,
        vm_calls: 160,
    },
    SpecProfile {
        name: "429.mcf",
        user_cycles: 42_000_000,
        working_set_pages: 1_700,
        syscalls: 140,
        vm_calls: 24,
    },
    SpecProfile {
        name: "445.gobmk",
        user_cycles: 55_000_000,
        working_set_pages: 130,
        syscalls: 900,
        vm_calls: 12,
    },
    SpecProfile {
        name: "456.hmmer",
        user_cycles: 62_000_000,
        working_set_pages: 60,
        syscalls: 110,
        vm_calls: 8,
    },
    SpecProfile {
        name: "458.sjeng",
        user_cycles: 58_000_000,
        working_set_pages: 170,
        syscalls: 90,
        vm_calls: 6,
    },
    SpecProfile {
        name: "462.libquantum",
        user_cycles: 64_000_000,
        working_set_pages: 30,
        syscalls: 60,
        vm_calls: 4,
    },
    SpecProfile {
        name: "464.h264ref",
        user_cycles: 57_000_000,
        working_set_pages: 110,
        syscalls: 600,
        vm_calls: 10,
    },
    SpecProfile {
        name: "471.omnetpp",
        user_cycles: 44_000_000,
        working_set_pages: 1_200,
        syscalls: 700,
        vm_calls: 90,
    },
    SpecProfile {
        name: "473.astar",
        user_cycles: 50_000_000,
        working_set_pages: 500,
        syscalls: 120,
        vm_calls: 18,
    },
    SpecProfile {
        name: "483.xalancbmk",
        user_cycles: 46_000_000,
        working_set_pages: 1_000,
        syscalls: 1_800,
        vm_calls: 120,
    },
];

/// Runs one SPEC-shaped benchmark to completion, returning total cycles.
///
/// # Panics
/// Panics on kernel errors — the benchmarks must complete successfully, as
/// they do in the paper ("all the benchmarks complete successfully").
pub fn run_spec(k: &mut Kernel, p: &SpecProfile) -> u64 {
    timed(k, |k| {
        // exec gives the benchmark a clean address space.
        k.sys_exec().expect("exec");
        // The working set: mmap + first-touch page faults spread through the
        // run. Interleave compute with faults/syscalls the way a real run
        // amortises them.
        let region = k
            .sys_mmap(p.working_set_pages * PAGE_SIZE)
            .expect("mmap working set");
        let chunks = 16u64;
        let pages_per_chunk = p.working_set_pages.div_ceil(chunks);
        let sys_per_chunk = p.syscalls / chunks;
        let vm_per_chunk = p.vm_calls.max(1).div_ceil(chunks);
        for c in 0..chunks {
            // User compute slice.
            k.charge(CostKind::User, p.user_cycles / chunks);
            // Fault in this chunk of the working set.
            for i in 0..pages_per_chunk {
                let page = c * pages_per_chunk + i;
                if page >= p.working_set_pages {
                    break;
                }
                k.sys_touch(VirtAddr::new(region.as_u64() + page * PAGE_SIZE), true)
                    .expect("touch");
            }
            // I/O-ish syscalls (input reading, logging) — the log line is
            // never read back, so the write is length-only on the host.
            for _ in 0..sys_per_chunk {
                k.sys_write_discard(1, 4).expect("write");
            }
            for _ in 0..vm_per_chunk {
                let brk = k.procs.get(k.current_pid()).expect("cur").brk;
                k.sys_brk(brk + PAGE_SIZE).expect("brk");
            }
        }
        k.sys_munmap(region, p.working_set_pages * PAGE_SIZE)
            .expect("munmap");
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{measure, standard_configs};
    use ptstore_core::MIB;

    #[test]
    fn all_benchmarks_complete() {
        let mut k = ptstore_kernel::Kernel::boot(
            ptstore_kernel::KernelConfig::cfi_ptstore()
                .with_mem_size(512 * MIB)
                .with_initial_secure_size(16 * MIB),
        )
        .expect("boot");
        for p in &SPEC_CINT2006 {
            let cycles = run_spec(&mut k, p);
            assert!(cycles > p.user_cycles, "{}: kernel adds time", p.name);
        }
    }

    #[test]
    fn spec_overheads_are_cpu_bound_small() {
        // Figure 5: CFI+PTStore < 0.91 % on CPU-bound benchmarks; PTStore
        // alone < 0.29 %. Check the two extremes of the suite.
        let configs = standard_configs(512 * MIB, 16 * MIB);
        let profiles = [
            &SPEC_CINT2006[6], /* libquantum */
            &SPEC_CINT2006[2], /* mcf */
        ];
        let grid = measure(
            1,
            &configs,
            &profiles,
            |p| p.name.to_string(),
            |p, k| run_spec(k, p),
        );
        for series in grid {
            let both = series.overhead_of("CFI+PTStore").expect("present");
            assert!(
                both < 2.0,
                "{} CFI+PTStore overhead {both:.3}% too large for a CPU-bound run",
                series.benchmark
            );
        }
    }
}
