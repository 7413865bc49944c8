//! Per-channel access counters gathered by the bus.

use core::fmt;

use ptstore_core::{AccessKind, Channel};
use ptstore_trace::Snapshot;

/// Counters for every (channel, kind) combination plus faults, maintained by
/// [`Bus`](crate::bus::Bus). The cycle model and the evaluation harness read
/// these to attribute time and to verify experiments actually exercised the
/// paths they claim (e.g. that the PTStore kernel really issues `sd.pt`
/// stores for every page-table write).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Regular-channel reads.
    pub regular_reads: u64,
    /// Regular-channel writes.
    pub regular_writes: u64,
    /// Instruction fetches.
    pub fetches: u64,
    /// `ld.pt` reads.
    pub secure_reads: u64,
    /// `sd.pt` writes.
    pub secure_writes: u64,
    /// Page-table-walker fetches.
    pub ptw_reads: u64,
    /// Walker A/D-bit updates.
    pub ptw_writes: u64,
    /// Accesses denied by the PMP/PTStore checks.
    pub faults: u64,
}

impl AccessStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a successful access.
    pub fn record(&mut self, channel: Channel, kind: AccessKind) {
        match (channel, kind) {
            (Channel::Regular, AccessKind::Read) => self.regular_reads += 1,
            (Channel::Regular, AccessKind::Write) => self.regular_writes += 1,
            (Channel::Regular, AccessKind::Execute) => self.fetches += 1,
            (Channel::SecurePt, AccessKind::Read) => self.secure_reads += 1,
            (Channel::SecurePt, AccessKind::Write) => self.secure_writes += 1,
            (Channel::SecurePt, AccessKind::Execute) => self.fetches += 1,
            (Channel::Ptw, AccessKind::Read) => self.ptw_reads += 1,
            (Channel::Ptw, AccessKind::Write) => self.ptw_writes += 1,
            (Channel::Ptw, AccessKind::Execute) => self.ptw_reads += 1,
        }
    }

    /// Records a denied access.
    pub fn record_fault(&mut self) {
        self.faults += 1;
    }

    /// Total successful accesses.
    pub fn total(&self) -> u64 {
        self.regular_reads
            + self.regular_writes
            + self.fetches
            + self.secure_reads
            + self.secure_writes
            + self.ptw_reads
            + self.ptw_writes
    }

    /// Total accesses through the dedicated `ld.pt`/`sd.pt` channel.
    pub fn secure_total(&self) -> u64 {
        self.secure_reads + self.secure_writes
    }
}

impl Snapshot for AccessStats {
    fn delta(&self, earlier: &Self) -> Self {
        AccessStats {
            regular_reads: self.regular_reads - earlier.regular_reads,
            regular_writes: self.regular_writes - earlier.regular_writes,
            fetches: self.fetches - earlier.fetches,
            secure_reads: self.secure_reads - earlier.secure_reads,
            secure_writes: self.secure_writes - earlier.secure_writes,
            ptw_reads: self.ptw_reads - earlier.ptw_reads,
            ptw_writes: self.ptw_writes - earlier.ptw_writes,
            faults: self.faults - earlier.faults,
        }
    }
}

impl fmt::Display for AccessStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "r/w/f={}/{}/{} ld.pt/sd.pt={}/{} ptw={}/{} faults={}",
            self.regular_reads,
            self.regular_writes,
            self.fetches,
            self.secure_reads,
            self.secure_writes,
            self.ptw_reads,
            self.ptw_writes,
            self.faults
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_to_right_counter() {
        let mut s = AccessStats::new();
        s.record(Channel::Regular, AccessKind::Read);
        s.record(Channel::Regular, AccessKind::Write);
        s.record(Channel::Regular, AccessKind::Execute);
        s.record(Channel::SecurePt, AccessKind::Read);
        s.record(Channel::SecurePt, AccessKind::Write);
        s.record(Channel::Ptw, AccessKind::Read);
        s.record(Channel::Ptw, AccessKind::Write);
        assert_eq!(s.regular_reads, 1);
        assert_eq!(s.regular_writes, 1);
        assert_eq!(s.fetches, 1);
        assert_eq!(s.secure_reads, 1);
        assert_eq!(s.secure_writes, 1);
        assert_eq!(s.ptw_reads, 1);
        assert_eq!(s.ptw_writes, 1);
        assert_eq!(s.total(), 7);
        assert_eq!(s.secure_total(), 2);
    }

    #[test]
    fn since_subtracts() {
        let mut s = AccessStats::new();
        s.record(Channel::Regular, AccessKind::Read);
        let snap = s.snapshot();
        s.record(Channel::Regular, AccessKind::Read);
        s.record_fault();
        let d = s.delta(&snap);
        assert_eq!(d.regular_reads, 1);
        assert_eq!(d.faults, 1);
    }

    #[test]
    fn display_nonempty() {
        assert!(!AccessStats::new().to_string().is_empty());
    }
}
