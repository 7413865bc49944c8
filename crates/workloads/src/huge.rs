//! Huge-page (2 MiB superpage) lifecycle workload.
//!
//! Exercises the whole secure huge-mapping path end to end: `mmap` of 2 MiB
//! blocks mapped as single level-1 leaves inside the secure page tables,
//! demand-free touches across each span (one TLB span entry covers all 512
//! pages), fork with whole-block CoW sharing, a CoW break that privatises an
//! entire block, an `mprotect` of a sub-range that forces a superpage split
//! back to 4 KiB PTEs, and teardown. Every step goes through the same
//! `sd.pt` channel and token checks as 4 KiB mappings — the point of the
//! generic paging API is that the defense does not care about the leaf level.

use ptstore_core::{AccessKind, VirtAddr, MIB, PAGE_SIZE};
use ptstore_kernel::process::VmPerms;
use ptstore_kernel::{Kernel, KernelError};
use serde::{Deserialize, Serialize};

/// Result of one huge-page lifecycle run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HugePageResult {
    /// 2 MiB blocks mapped.
    pub blocks: u64,
    /// Total cycles for the whole lifecycle.
    pub cycles: u64,
    /// Pages touched through the huge mappings.
    pub touched_pages: u64,
    /// sfence.vma operations issued (span flushes + split/CoW flushes).
    pub sfences: u64,
}

/// Maps `blocks` 2 MiB huge blocks, touches them, forks (CoW over whole
/// blocks), breaks CoW on one block from the child, splits another via a
/// partial `mprotect`, then unmaps everything.
///
/// # Errors
/// Propagates kernel errors (e.g. OOM when no order-9 block is free).
pub fn run_huge_page(k: &mut Kernel, blocks: u64) -> Result<HugePageResult, KernelError> {
    assert!(
        blocks >= 2,
        "the lifecycle needs one block to CoW-break and one to split"
    );
    let cycles_before = k.cycles.total();
    let sfences_before = k.stats.sfences;

    // Map and touch: a stride across each block shows one leaf serving many
    // pages (the TLB refills once per span, not once per page).
    let base = k.sys_mmap_huge(blocks * 2 * MIB)?;
    let mut touched = 0u64;
    for b in 0..blocks {
        for page in [0u64, 1, 127, 255, 511] {
            let va = VirtAddr::new(base.as_u64() + b * 2 * MIB + page * PAGE_SIZE);
            k.touch_user(va, AccessKind::Write)?;
            touched += 1;
        }
    }

    // Fork: the child shares every block CoW (one shadow entry per block,
    // no per-page entries until a split). The child's first write privatises
    // all 2 MiB of block 0 in one break.
    let child = k.sys_fork()?;
    k.do_switch_to(child)?;
    let cow_va = VirtAddr::new(base.as_u64() + 7 * PAGE_SIZE);
    k.touch_user(cow_va, AccessKind::Write)?;
    touched += 1;
    k.sys_exit(0)?;
    k.sys_wait()?;

    // Partial mprotect of block 1: 64 pages of a 512-page span go read-only,
    // so the kernel must split the superpage back into 4 KiB PTEs first.
    let sub = VirtAddr::new(base.as_u64() + 2 * MIB + 16 * PAGE_SIZE);
    k.sys_mprotect(sub, 64 * PAGE_SIZE, VmPerms::RO)?;
    let ro_probe = VirtAddr::new(sub.as_u64());
    assert!(
        k.touch_user(ro_probe, AccessKind::Write).is_err(),
        "split range must be read-only"
    );
    k.touch_user(ro_probe, AccessKind::Read)?;
    touched += 1;

    // Teardown: whole-block unmaps where spans survived, page unmaps where
    // the split left 4 KiB mappings.
    k.sys_munmap(base, blocks * 2 * MIB)?;

    Ok(HugePageResult {
        blocks,
        cycles: k.cycles.since(cycles_before),
        touched_pages: touched,
        sfences: k.stats.sfences - sfences_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptstore_core::PagingScheme;
    use ptstore_kernel::KernelConfig;

    fn boot(cfg: KernelConfig) -> Kernel {
        Kernel::boot(
            cfg.with_mem_size(256 * MIB)
                .with_initial_secure_size(16 * MIB),
        )
        .expect("boot")
    }

    #[test]
    fn lifecycle_runs_under_every_defense() {
        for cfg in [
            KernelConfig::baseline(),
            KernelConfig::cfi(),
            KernelConfig::cfi_ptstore(),
            KernelConfig::cfi_ptstore_no_adjust(),
        ] {
            let mut k = boot(cfg);
            let r = run_huge_page(&mut k, 2).expect("lifecycle");
            assert_eq!(r.blocks, 2);
            assert!(r.cycles > 0);
            assert_eq!(r.touched_pages, 12);
        }
    }

    #[test]
    fn lifecycle_is_leak_free() {
        let mut k = boot(KernelConfig::cfi_ptstore());
        let free_before = k.normal_free_pages();
        run_huge_page(&mut k, 2).expect("lifecycle");
        k.reclaim_slabs().expect("reclaim");
        let ceded = k
            .secure_region()
            .map(|r| r.size().saturating_sub(16 * MIB) / PAGE_SIZE)
            .unwrap_or(0);
        assert_eq!(k.normal_free_pages() + ceded, free_before);
    }

    #[test]
    fn lifecycle_is_scheme_invariant_in_shape() {
        // The same lifecycle completes under every paging scheme; cycle
        // counts may differ (deeper walks), the work must not.
        for scheme in PagingScheme::ALL {
            let mut k = boot(KernelConfig::cfi_ptstore().with_scheme(scheme));
            let r = run_huge_page(&mut k, 2).expect("lifecycle");
            assert_eq!(r.touched_pages, 12, "{scheme:?}");
        }
    }
}
