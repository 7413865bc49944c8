//! The cycle cost model.
//!
//! The evaluation reports *relative* overheads between kernel configurations
//! running the same workload; absolute cycle counts therefore only need to be
//! internally consistent. Costs are grouped per [`CostKind`] so experiments
//! can attribute where time went (e.g. how much of the fork-stress overhead
//! is secure-region adjustment). Constants were calibrated so the harness
//! lands near the paper's anchors: CFI ≈ 2.8 % on fork-heavy microbenchmarks,
//! PTStore-without-adjustment ≈ +1 %, adjustment under the 30 000-process
//! stress ≈ +3 % (paper §V-D1), and kernel-bound macro overheads < 0.9 % for
//! PTStore alone (§V-D2).

use std::collections::BTreeMap;

use core::fmt;

/// Where cycles were spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostKind {
    /// User-mode computation.
    User,
    /// Kernel entry/exit and generic kernel path work.
    Kernel,
    /// Memory accesses through the bus (1 cycle each, L1-hit model).
    MemAccess,
    /// Page-table walks on TLB misses.
    TlbMiss,
    /// Clang CFI indirect-call checks.
    CfiCheck,
    /// Page allocator work.
    PageAlloc,
    /// Page-table writes (the `set_pXd` path; same cost for `sd`/`sd.pt`).
    PtWrite,
    /// Token issue/copy/clear/validate.
    Token,
    /// Secure-region dynamic adjustment (scan, migrate, SBI).
    Adjustment,
    /// SBI calls (M-mode round trip).
    Sbi,
    /// Permission-switch trampolines of the virtual-isolation baseline.
    VirtIsolationSwitch,
    /// TLB shootdowns / sfence.vma.
    TlbFlush,
    /// Context switch machinery.
    ContextSwitch,
    /// Page-fault handling.
    PageFault,
    /// Cross-hart IPIs: TLB-shootdown broadcast, acks, and remote-walker
    /// quiescence during secure-region adjustment.
    Ipi,
    /// Block/char I/O and networking stand-ins.
    Io,
}

impl CostKind {
    /// Every kind, in declaration (and `Ord`) order. The discriminant is
    /// the index into [`CycleCounter`]'s accumulator array.
    pub const ALL: [CostKind; 16] = [
        CostKind::User,
        CostKind::Kernel,
        CostKind::MemAccess,
        CostKind::TlbMiss,
        CostKind::CfiCheck,
        CostKind::PageAlloc,
        CostKind::PtWrite,
        CostKind::Token,
        CostKind::Adjustment,
        CostKind::Sbi,
        CostKind::VirtIsolationSwitch,
        CostKind::TlbFlush,
        CostKind::ContextSwitch,
        CostKind::PageFault,
        CostKind::Ipi,
        CostKind::Io,
    ];
}

/// Tunable cost constants (cycles).
pub mod cost {
    /// One L1-hit memory access.
    pub const MEM_ACCESS: u64 = 1;
    /// One page-table fetch during a walk (L2/DRAM-ish).
    pub const PTW_FETCH: u64 = 18;
    /// Syscall entry (trap, save, dispatch).
    pub const SYSCALL_ENTRY: u64 = 140;
    /// Syscall exit (restore, sret).
    pub const SYSCALL_EXIT: u64 = 110;
    /// One Clang CFI indirect-call check (jump-table clamp + branch).
    pub const CFI_CHECK: u64 = 7;
    /// Buddy allocator single-page alloc fast path.
    pub const PAGE_ALLOC: u64 = 90;
    /// Buddy allocator free fast path.
    pub const PAGE_FREE: u64 = 60;
    /// Extra cost of allocating from the PTStore zone instead of the normal
    /// zone (separate zone lists, GFP_PTSTORE routing).
    pub const PTSTORE_ZONE_EXTRA: u64 = 4;
    /// Zeroing a fresh 4 KiB page (512 store-words, write-combined).
    pub const ZERO_PAGE: u64 = 512;
    /// PTStore zero-check of a candidate page-table page; on an already-zero
    /// page this replaces the zeroing pass, so only the *check* residual is
    /// charged (paper §V-E3).
    pub const ZERO_CHECK_RESIDUAL: u64 = 8;
    /// Token issue (slab alloc + two `sd.pt` + PCB store).
    pub const TOKEN_ISSUE: u64 = 14;
    /// Token copy on fork.
    pub const TOKEN_COPY: u64 = 28;
    /// Token clear at exit.
    pub const TOKEN_CLEAR: u64 = 6;
    /// Token validation before a `satp` switch (two `ld.pt` + compares).
    pub const TOKEN_VALIDATE: u64 = 22;
    /// Base cost of one secure-region adjustment (boundary math, zone
    /// bookkeeping, retry).
    pub const ADJUST_BASE: u64 = 205_000;
    /// Migrating one in-use page out of the about-to-be-absorbed range
    /// during `alloc_contig_range`.
    pub const ADJUST_MIGRATE_PAGE: u64 = 150;
    /// Scanning one free page while assembling the contiguous range.
    pub const ADJUST_SCAN_PAGE: u64 = 41;
    /// One SBI ecall round trip to M-mode.
    pub const SBI_CALL: u64 = 700;
    /// Virtual-isolation write-window open+close (trampoline, permission
    /// flip, local TLB maintenance) around a batch of page-table writes.
    pub const VIRT_ISO_WINDOW: u64 = 260;
    /// sfence.vma (full).
    pub const SFENCE_ALL: u64 = 80;
    /// sfence.vma (page).
    pub const SFENCE_PAGE: u64 = 30;
    /// Context-switch base (register file, kernel stack, scheduler
    /// bookkeeping, cache warmup share).
    pub const CONTEXT_SWITCH: u64 = 2_400;
    /// Page-fault trap overhead (besides servicing).
    pub const PAGE_FAULT: u64 = 420;
    /// Process-creation base cost besides paging (PCB, fds, accounting).
    pub const FORK_BASE: u64 = 2_600;
    /// exec() base cost.
    pub const EXEC_BASE: u64 = 3_400;
    /// exit()/wait() base cost.
    pub const EXIT_BASE: u64 = 1_400;
    /// Copying one byte between user and kernel buffers (amortised).
    pub const COPY_BYTE_X8: u64 = 1; // per 8 bytes
    /// Sending one IPI to one remote hart (CLINT MSIP write + fabric).
    pub const IPI_SEND: u64 = 320;
    /// The initiator's wait for one remote hart's acknowledgement
    /// (interrupt delivery + remote trap entry, pipelined across harts).
    pub const IPI_ACK_WAIT: u64 = 180;
    /// A remote hart's cost to take the IPI trap and return.
    pub const IPI_RECV: u64 = 450;
}

/// A cycle accumulator with a per-kind breakdown.
///
/// `charge` sits on the hot path of every modeled memory access, so the
/// per-kind accumulators are a flat array indexed by the `CostKind`
/// discriminant rather than a map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleCounter {
    total: u64,
    by_kind: [u64; CostKind::ALL.len()],
}

impl CycleCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` under `kind`.
    #[inline]
    pub fn charge(&mut self, kind: CostKind, cycles: u64) {
        self.total += cycles;
        self.by_kind[kind as usize] += cycles;
    }

    /// Total cycles.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cycles attributed to `kind`.
    pub fn of(&self, kind: CostKind) -> u64 {
        self.by_kind[kind as usize]
    }

    /// Full breakdown: the kinds charged so far, sorted, with their totals.
    pub fn breakdown(&self) -> BTreeMap<CostKind, u64> {
        CostKind::ALL
            .iter()
            .zip(self.by_kind)
            .filter(|&(_, v)| v != 0)
            .map(|(&k, v)| (k, v))
            .collect()
    }

    /// Cycles elapsed since an earlier snapshot total.
    pub fn since(&self, earlier_total: u64) -> u64 {
        self.total - earlier_total
    }
}

impl fmt::Display for CycleCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.total)?;
        let charged = self.breakdown();
        if !charged.is_empty() {
            write!(f, " (")?;
            let mut first = true;
            for (k, v) in charged {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{k:?}={v}")?;
                first = false;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_kind() {
        let mut c = CycleCounter::new();
        c.charge(CostKind::Kernel, 100);
        c.charge(CostKind::Kernel, 50);
        c.charge(CostKind::Token, 22);
        assert_eq!(c.total(), 172);
        assert_eq!(c.of(CostKind::Kernel), 150);
        assert_eq!(c.of(CostKind::Token), 22);
        assert_eq!(c.of(CostKind::Io), 0);
    }

    #[test]
    fn since_snapshot() {
        let mut c = CycleCounter::new();
        c.charge(CostKind::User, 10);
        let snap = c.total();
        c.charge(CostKind::User, 32);
        assert_eq!(c.since(snap), 32);
    }

    #[test]
    fn display_contains_total() {
        let mut c = CycleCounter::new();
        c.charge(CostKind::Sbi, 700);
        assert!(c.to_string().contains("700"));
    }
}
