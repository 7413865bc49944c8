//! Kernel event counters and the security event log.

use core::fmt;

use ptstore_core::{PhysAddr, PhysPageNum, TokenError};
use ptstore_trace::Snapshot;

use crate::process::Pid;

/// Aggregate kernel event counters (the model's `/proc/stat`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Syscalls dispatched.
    pub syscalls: u64,
    /// Successful forks.
    pub forks: u64,
    /// execs.
    pub execs: u64,
    /// Process exits.
    pub exits: u64,
    /// Context switches (`switch_mm` + `switch_to`).
    pub context_switches: u64,
    /// Page faults handled.
    pub page_faults: u64,
    /// Of which copy-on-write breaks.
    pub cow_faults: u64,
    /// Of which demand-zero/demand-map faults.
    pub demand_faults: u64,
    /// Secure-region dynamic adjustments performed (paper §IV-C1).
    pub adjustments: u64,
    /// Pages migrated by `alloc_contig_range` during adjustments.
    pub migrated_pages: u64,
    /// Zero-checks performed on fresh page-table pages (paper §V-E3).
    pub zero_checks: u64,
    /// Zero-checks that failed (attacks caught).
    pub zero_check_failures: u64,
    /// Token validations performed (paper §III-C3).
    pub token_validations: u64,
    /// Token validations that failed (attacks caught).
    pub token_failures: u64,
    /// TLB flush operations issued.
    pub sfences: u64,
    /// Cross-hart TLB-shootdown broadcasts (one per mapping change that had
    /// to reach remote harts; always 0 on single-hart machines).
    pub tlb_shootdowns: u64,
    /// Individual shootdown IPIs delivered to (and acked by) remote harts.
    pub shootdown_ipis: u64,
    /// Deferred-shootdown queue drains: batched IPI rounds that replaced a
    /// run of per-page broadcasts (0 unless `deferred_shootdowns` is on).
    pub deferred_drains: u64,
    /// Page invalidations coalesced into those drains (each would have been
    /// its own broadcast on the eager path).
    pub deferred_pages_coalesced: u64,
    /// Of those drains, how many a `Watermark` drain policy triggered early
    /// (queue depth reached the configured watermark before any boundary).
    pub watermark_drains: u64,
    /// Drains forced by the ASID lifecycle: an ASID recycled after the
    /// allocator rolled over found invalidations still queued and flushed
    /// them before going live.
    pub asid_recycle_drains: u64,
    /// High-water mark of any hart's deferred-shootdown queue depth (the
    /// statistic watermark policies exist to bound).
    pub deferred_queue_peak: u64,
    /// Cross-hart mailbox messages drained at hart activation; always 0 on
    /// single-hart machines.
    pub hart_msgs_merged: u64,
    /// Handle resolutions rejected because the process had been reaped.
    pub stale_handle_rejects: u64,
    /// Page-table pages currently allocated.
    pub pt_pages_live: u64,
    /// High-water mark of live page-table pages.
    pub pt_pages_peak: u64,
}

impl Snapshot for KernelStats {
    /// Field-wise difference; the `pt_pages_live`/`pt_pages_peak`/
    /// `deferred_queue_peak` gauges keep their current (absolute) values
    /// rather than subtracting.
    fn delta(&self, earlier: &Self) -> Self {
        KernelStats {
            syscalls: self.syscalls - earlier.syscalls,
            forks: self.forks - earlier.forks,
            execs: self.execs - earlier.execs,
            exits: self.exits - earlier.exits,
            context_switches: self.context_switches - earlier.context_switches,
            page_faults: self.page_faults - earlier.page_faults,
            cow_faults: self.cow_faults - earlier.cow_faults,
            demand_faults: self.demand_faults - earlier.demand_faults,
            adjustments: self.adjustments - earlier.adjustments,
            migrated_pages: self.migrated_pages - earlier.migrated_pages,
            zero_checks: self.zero_checks - earlier.zero_checks,
            zero_check_failures: self.zero_check_failures - earlier.zero_check_failures,
            token_validations: self.token_validations - earlier.token_validations,
            token_failures: self.token_failures - earlier.token_failures,
            sfences: self.sfences - earlier.sfences,
            tlb_shootdowns: self.tlb_shootdowns - earlier.tlb_shootdowns,
            shootdown_ipis: self.shootdown_ipis - earlier.shootdown_ipis,
            deferred_drains: self.deferred_drains - earlier.deferred_drains,
            deferred_pages_coalesced: self.deferred_pages_coalesced
                - earlier.deferred_pages_coalesced,
            watermark_drains: self.watermark_drains - earlier.watermark_drains,
            asid_recycle_drains: self.asid_recycle_drains - earlier.asid_recycle_drains,
            deferred_queue_peak: self.deferred_queue_peak,
            hart_msgs_merged: self.hart_msgs_merged - earlier.hart_msgs_merged,
            stale_handle_rejects: self.stale_handle_rejects - earlier.stale_handle_rejects,
            pt_pages_live: self.pt_pages_live,
            pt_pages_peak: self.pt_pages_peak,
        }
    }
}

/// Security-relevant events the kernel logged (defense firings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityEvent {
    /// A `switch_mm` token validation rejected a page-table pointer.
    TokenRejected {
        /// Victim process.
        pid: Pid,
        /// Why validation failed.
        err: TokenError,
    },
    /// A candidate page-table page was not all-zero at allocation.
    PtPageNotZero {
        /// The dirty page.
        ppn: PhysPageNum,
    },
    /// The PCB's token pointer did not point into the secure region.
    TokenPointerOutsideRegion {
        /// Victim process.
        pid: Pid,
        /// The bogus pointer.
        ptr: PhysAddr,
    },
}

impl fmt::Display for SecurityEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityEvent::TokenRejected { pid, err } => {
                write!(f, "pid {pid}: token rejected ({err})")
            }
            SecurityEvent::PtPageNotZero { ppn } => {
                write!(f, "page-table page {ppn} not zero at allocation")
            }
            SecurityEvent::TokenPointerOutsideRegion { pid, ptr } => {
                write!(f, "pid {pid}: token pointer {ptr} outside secure region")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_counters() {
        let a = KernelStats {
            forks: 10,
            syscalls: 100,
            ..Default::default()
        };
        let mut b = a.snapshot();
        b.forks = 25;
        b.syscalls = 180;
        let d = b.delta(&a);
        assert_eq!(d.forks, 15);
        assert_eq!(d.syscalls, 80);
    }

    #[test]
    fn security_events_display() {
        let e = SecurityEvent::TokenRejected {
            pid: 7,
            err: TokenError::UserPointerMismatch,
        };
        assert!(e.to_string().contains("pid 7"));
        let e = SecurityEvent::PtPageNotZero {
            ppn: PhysPageNum::new(0x123),
        };
        assert!(e.to_string().contains("0x123"));
    }
}
