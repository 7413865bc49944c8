//! The §V-D1 fork stress: create many processes *simultaneously* (the paper
//! uses 30 000 — "larger will make the original kernel unstable") so the
//! default 64 MiB secure region must be adjusted repeatedly, then tear all
//! of them down.

use ptstore_kernel::{Kernel, KernelConfig, KernelError, Snapshot};

/// Result of one fork-stress run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForkStressResult {
    /// Processes actually created.
    pub created: u64,
    /// Total cycles for create + teardown.
    pub cycles: u64,
    /// Secure-region adjustments performed.
    pub adjustments: u64,
    /// Pages migrated during adjustments.
    pub migrated_pages: u64,
    /// Final secure-region size in bytes (PTStore mode).
    pub final_region_size: Option<u64>,
    /// Peak live page-table pages.
    pub pt_pages_peak: u64,
}

/// Creates `count` processes at the same time, then exits and reaps them.
///
/// # Errors
/// Propagates kernel errors (e.g. OOM when adjustment is impossible).
pub fn run_fork_stress(k: &mut Kernel, count: u64) -> Result<ForkStressResult, KernelError> {
    let cycles_before = k.cycles.total();
    let stats_before = k.stats;
    fork_exit_reap(k, count)?;
    let d = k.stats.delta(&stats_before);
    Ok(ForkStressResult {
        created: count,
        cycles: k.cycles.since(cycles_before),
        adjustments: d.adjustments,
        migrated_pages: d.migrated_pages,
        final_region_size: k.secure_region().map(|r| r.size()),
        pt_pages_peak: k.stats.pt_pages_peak,
    })
}

/// Forks `count` children of the current process, then tears them down:
/// each child in fork order runs and exits, and the parent reaps them all.
///
/// # Errors
/// Propagates the first kernel error.
pub(crate) fn fork_exit_reap(k: &mut Kernel, count: u64) -> Result<(), KernelError> {
    let children = (0..count)
        .map(|_| k.sys_fork())
        .collect::<Result<Vec<_>, _>>()?;
    for &child in &children {
        k.do_switch_to(child)?;
        k.sys_exit(0)?;
    }
    for _ in &children {
        k.sys_wait()?;
    }
    Ok(())
}

/// The four §V-D1 configurations at a chosen scale: baseline, CFI,
/// CFI+PTStore (64 MiB-equivalent region), CFI+PTStore-Adj (large region,
/// adjustment never fires). `mem_size`/`small_region`/`large_region` are
/// scaled down for tests and up for the paper-scale run.
pub fn stress_configs(mem_size: u64, small_region: u64, large_region: u64) -> [KernelConfig; 4] {
    [
        KernelConfig::baseline().with_mem_size(mem_size),
        KernelConfig::cfi().with_mem_size(mem_size),
        KernelConfig::cfi_ptstore()
            .with_mem_size(mem_size)
            .with_initial_secure_size(small_region),
        KernelConfig::cfi_ptstore_no_adjust()
            .with_mem_size(mem_size)
            .with_initial_secure_size(large_region),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::overhead_pct;
    use ptstore_core::MIB;

    /// A scaled-down §V-D1: 600 processes, 2 MiB initial region vs 64 MiB.
    #[test]
    fn stress_shape_matches_paper() {
        let configs = stress_configs(512 * MIB, 2 * MIB, 64 * MIB);
        let mut results = Vec::new();
        for cfg in configs {
            let mut k = Kernel::boot(cfg).expect("boot");
            let r = run_fork_stress(&mut k, 600).expect("stress");
            results.push((cfg.label(), r));
        }
        let base = results[0].1.cycles;
        let cfi = overhead_pct(results[1].1.cycles, base);
        let ptstore = overhead_pct(results[2].1.cycles, base);
        let ptstore_adj = overhead_pct(results[3].1.cycles, base);

        // Adjustment fired only in the small-region configuration.
        assert_eq!(results[0].1.adjustments, 0);
        assert_eq!(results[1].1.adjustments, 0);
        assert!(results[2].1.adjustments > 0, "64MiB-equivalent must adjust");
        assert_eq!(results[3].1.adjustments, 0, "-Adj never adjusts");

        // Ordering of the paper's 2.84% / 6.83% / 3.77%:
        assert!(cfi > 0.0, "CFI {cfi:.2}%");
        assert!(
            ptstore > ptstore_adj,
            "adjusting config costs more: {ptstore:.2}% vs {ptstore_adj:.2}%"
        );
        assert!(
            ptstore_adj > cfi,
            "PTStore adds over CFI: {ptstore_adj:.2}% vs {cfi:.2}%"
        );
        // Region grew and stayed grown.
        let grown = results[2].1.final_region_size.expect("region");
        assert!(grown > 2 * MIB);
    }

    #[test]
    fn stress_is_leak_free() {
        let mut k = Kernel::boot(
            KernelConfig::cfi_ptstore()
                .with_mem_size(256 * MIB)
                .with_initial_secure_size(4 * MIB),
        )
        .expect("boot");
        let free_before = k.normal_free_pages();
        run_fork_stress(&mut k, 100).expect("stress");
        assert_eq!(k.procs.len(), 1, "only init remains");
        // Slab caches retain empty backing pages; release them before
        // accounting.
        k.reclaim_slabs().expect("reclaim");
        // Normal zone may have permanently ceded pages to the secure region;
        // account for that.
        let ceded =
            k.secure_region().unwrap().size().saturating_sub(4 * MIB) / ptstore_core::PAGE_SIZE;
        assert_eq!(k.normal_free_pages() + ceded, free_before);
    }
}
