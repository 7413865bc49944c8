//! Always-on per-layer counters.
//!
//! Counters are updated for every emitted event even when the ring buffer
//! has wrapped, so they summarise the *whole* run while the ring holds the
//! most recent window.

use crate::event::{TokenOp, TraceEvent};
use crate::json::JsonWriter;
use crate::snapshot::Snapshot;

/// Event totals per layer, plus denial breakdowns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// PMP adjudications (every physical access under enforcement).
    pub pmp_checks: u64,
    /// PMP denials — the S-bit or bounds check firing.
    pub pmp_denials: u64,
    /// Bus read transactions.
    pub bus_reads: u64,
    /// Bus write transactions.
    pub bus_writes: u64,
    /// Bus instruction fetches.
    pub bus_fetches: u64,
    /// Individual page-table-walk levels fetched.
    pub ptw_steps: u64,
    /// Walks refused because the table lay outside the secure region.
    pub ptw_origin_rejections: u64,
    /// TLB lookups that hit.
    pub tlb_hits: u64,
    /// TLB lookups that missed (and walked).
    pub tlb_misses: u64,
    /// Local TLB flushes (page- or ASID-scoped).
    pub tlb_flushes: u64,
    /// Cross-hart shootdown rounds.
    pub tlb_shootdowns: u64,
    /// Token issue/validate/clear operations.
    pub token_ops: u64,
    /// Token validations that failed.
    pub token_rejections: u64,
    /// Syscall entries.
    pub syscalls: u64,
    /// Secure-region grow/shrink/move events.
    pub region_moves: u64,
    /// Faults injected by the campaign driver.
    pub faults_injected: u64,
    /// Faults injected into IPI/shootdown handling.
    pub ipi_faults: u64,
    /// Invariant-oracle sweeps.
    pub invariant_checks: u64,
    /// Total violations those sweeps reported.
    pub invariant_violations: u64,
}

impl TraceCounters {
    /// Applies one event to the totals.
    pub fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::PmpCheck { verdict, .. } => {
                self.pmp_checks += 1;
                if verdict.is_denied() {
                    self.pmp_denials += 1;
                }
            }
            TraceEvent::BusRead { .. } => self.bus_reads += 1,
            TraceEvent::BusWrite { .. } => self.bus_writes += 1,
            TraceEvent::BusFetch { .. } => self.bus_fetches += 1,
            TraceEvent::PtwStep { .. } => self.ptw_steps += 1,
            TraceEvent::PtwOriginRejected { .. } => self.ptw_origin_rejections += 1,
            TraceEvent::TlbHit { .. } => self.tlb_hits += 1,
            TraceEvent::TlbMiss { .. } => self.tlb_misses += 1,
            TraceEvent::TlbFlush { .. } => self.tlb_flushes += 1,
            TraceEvent::TlbShootdown { .. } => self.tlb_shootdowns += 1,
            TraceEvent::Token { op, ok, .. } => {
                self.token_ops += 1;
                if !ok && *op == TokenOp::Validate {
                    self.token_rejections += 1;
                }
            }
            TraceEvent::SyscallEnter { .. } => self.syscalls += 1,
            TraceEvent::SyscallExit { .. } => {}
            TraceEvent::RegionMove { .. } => self.region_moves += 1,
            TraceEvent::FaultInjected { .. } => self.faults_injected += 1,
            TraceEvent::IpiFault { .. } => self.ipi_faults += 1,
            TraceEvent::InvariantCheck { violations, .. } => {
                self.invariant_checks += 1;
                self.invariant_violations += u64::from(*violations);
            }
        }
    }

    /// Serialises the counters as one JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.num_field("pmp_checks", self.pmp_checks);
        w.num_field("pmp_denials", self.pmp_denials);
        w.num_field("bus_reads", self.bus_reads);
        w.num_field("bus_writes", self.bus_writes);
        w.num_field("bus_fetches", self.bus_fetches);
        w.num_field("ptw_steps", self.ptw_steps);
        w.num_field("ptw_origin_rejections", self.ptw_origin_rejections);
        w.num_field("tlb_hits", self.tlb_hits);
        w.num_field("tlb_misses", self.tlb_misses);
        w.num_field("tlb_flushes", self.tlb_flushes);
        w.num_field("tlb_shootdowns", self.tlb_shootdowns);
        w.num_field("token_ops", self.token_ops);
        w.num_field("token_rejections", self.token_rejections);
        w.num_field("syscalls", self.syscalls);
        w.num_field("region_moves", self.region_moves);
        w.num_field("faults_injected", self.faults_injected);
        w.num_field("ipi_faults", self.ipi_faults);
        w.num_field("invariant_checks", self.invariant_checks);
        w.num_field("invariant_violations", self.invariant_violations);
        w.finish()
    }
}

impl Snapshot for TraceCounters {
    fn delta(&self, earlier: &Self) -> Self {
        Self {
            pmp_checks: self.pmp_checks - earlier.pmp_checks,
            pmp_denials: self.pmp_denials - earlier.pmp_denials,
            bus_reads: self.bus_reads - earlier.bus_reads,
            bus_writes: self.bus_writes - earlier.bus_writes,
            bus_fetches: self.bus_fetches - earlier.bus_fetches,
            ptw_steps: self.ptw_steps - earlier.ptw_steps,
            ptw_origin_rejections: self.ptw_origin_rejections - earlier.ptw_origin_rejections,
            tlb_hits: self.tlb_hits - earlier.tlb_hits,
            tlb_misses: self.tlb_misses - earlier.tlb_misses,
            tlb_flushes: self.tlb_flushes - earlier.tlb_flushes,
            tlb_shootdowns: self.tlb_shootdowns - earlier.tlb_shootdowns,
            token_ops: self.token_ops - earlier.token_ops,
            token_rejections: self.token_rejections - earlier.token_rejections,
            syscalls: self.syscalls - earlier.syscalls,
            region_moves: self.region_moves - earlier.region_moves,
            faults_injected: self.faults_injected - earlier.faults_injected,
            ipi_faults: self.ipi_faults - earlier.ipi_faults,
            invariant_checks: self.invariant_checks - earlier.invariant_checks,
            invariant_violations: self.invariant_violations - earlier.invariant_violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Access, Chan, Verdict};

    #[test]
    fn records_and_deltas() {
        let mut c = TraceCounters::default();
        c.record(&TraceEvent::PmpCheck {
            addr: 0,
            kind: Access::Read,
            channel: Chan::Regular,
            entry: None,
            verdict: Verdict::Allowed,
        });
        c.record(&TraceEvent::PmpCheck {
            addr: 0,
            kind: Access::Write,
            channel: Chan::Regular,
            entry: Some(1),
            verdict: Verdict::SecureRegionDenied,
        });
        let snap = c.snapshot();
        c.record(&TraceEvent::BusRead {
            addr: 8,
            width: 8,
            channel: Chan::Regular,
        });
        assert_eq!(c.pmp_checks, 2);
        assert_eq!(c.pmp_denials, 1);
        let d = c.delta(&snap);
        assert_eq!(d.pmp_checks, 0);
        assert_eq!(d.bus_reads, 1);
    }
}
