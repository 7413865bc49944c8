//! Translation lookaside buffers.
//!
//! The prototype core has a 32-entry I-TLB and an 8-entry D-TLB (paper
//! Table II). Entries cache the leaf PTE's physical page and *permissions*;
//! a hit is validated against the cached permissions only. That is exactly
//! the surface the TLB-inconsistency attack of §V-E5 exploits — a stale
//! writable entry lets software keep writing a page whose PTE was already
//! tightened — and the reason PTStore's physical-address PMP check matters:
//! it still intercepts the access after the (stale) translation.

use ptstore_core::{AccessKind, PhysPageNum, PrivilegeMode, VirtPageNum, PAGE_SIZE};
use ptstore_trace::{FlushScope, SinkSlot, Snapshot, TlbUnit, TraceEvent, TraceSink};

use crate::pte::PteFlags;

/// One cached translation. A superpage leaf is cached as a single entry
/// spanning `page_size / 4 KiB` consecutive pages (`vpn`/`ppn` hold the
/// span-aligned bases), so one 2 MiB mapping costs one slot, not 512.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page (span-aligned base for superpage entries).
    pub vpn: VirtPageNum,
    /// Address-space identifier the entry belongs to.
    pub asid: u16,
    /// Cached physical page (span-aligned base for superpage entries).
    pub ppn: PhysPageNum,
    /// Cached leaf permissions.
    pub flags: PteFlags,
    /// Size of the cached leaf in bytes (4 KiB, 2 MiB, 1 GiB, ...).
    pub page_size: u64,
}

impl TlbEntry {
    /// Number of 4 KiB pages this entry spans (1 for a base-page entry).
    pub fn span_pages(&self) -> u64 {
        self.page_size / PAGE_SIZE
    }

    /// True when `vpn` falls inside this entry's span.
    pub fn covers(&self, vpn: VirtPageNum) -> bool {
        vpn.as_u64().wrapping_sub(self.vpn.as_u64()) < self.span_pages()
    }

    /// The physical page backing `vpn` (which must be covered).
    pub fn ppn_for(&self, vpn: VirtPageNum) -> PhysPageNum {
        PhysPageNum::new(self.ppn.as_u64() + (vpn.as_u64() - self.vpn.as_u64()))
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by capacity replacement.
    pub evictions: u64,
    /// Flush operations served.
    pub flushes: u64,
}

impl Snapshot for TlbStats {
    fn delta(&self, earlier: &Self) -> Self {
        TlbStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            flushes: self.flushes - earlier.flushes,
        }
    }
}

/// Slots in the direct-mapped micro-TLB fronting the associative scan.
const MICRO_TLB_SLOTS: usize = 16;

/// One micro-TLB slot: the memoized result of the associative scan for a
/// specific `(vpn, asid)` key.
#[derive(Debug, Clone, Copy)]
struct MicroEntry {
    vpn: VirtPageNum,
    asid: u16,
    entry: TlbEntry,
}

/// A fully associative TLB with round-robin replacement.
///
/// A small direct-mapped micro-TLB (host-side only) fronts the associative
/// scan: it memoizes the scan result per `(vpn, asid)` and is conservatively
/// invalidated by every mutation — insert (for both the new entry and the
/// one it replaces), eviction, and all three flush scopes — so a micro hit
/// returns exactly what the scan would. Modeled behaviour (hit/miss
/// accounting, trace events, returned entries) is that of the scan alone.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<Option<TlbEntry>>,
    next_victim: usize,
    micro: [Option<MicroEntry>; MICRO_TLB_SLOTS],
    stats: TlbStats,
    unit: TlbUnit,
    /// Owning hart, stamped into trace events (0 on single-hart machines).
    hart: u32,
    trace: SinkSlot,
}

impl Tlb {
    /// A TLB with `capacity` entries.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_unit(capacity, TlbUnit::Data)
    }

    /// A TLB with `capacity` entries, tagged as `unit` in trace events.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn with_unit(capacity: usize, unit: TlbUnit) -> Self {
        assert!(capacity > 0, "tlb capacity must be non-zero");
        Self {
            entries: vec![None; capacity],
            next_victim: 0,
            micro: [None; MICRO_TLB_SLOTS],
            stats: TlbStats::default(),
            unit,
            hart: 0,
            trace: SinkSlot::default(),
        }
    }

    #[inline]
    fn micro_index(vpn: VirtPageNum) -> usize {
        (vpn.as_u64() as usize) & (MICRO_TLB_SLOTS - 1)
    }

    /// Drops any memoized scan result for `vpn` (any ASID sharing its slot).
    #[inline]
    fn micro_invalidate_vpn(&mut self, vpn: VirtPageNum) {
        self.micro[Self::micro_index(vpn)] = None;
    }

    #[inline]
    fn micro_invalidate_all(&mut self) {
        self.micro = [None; MICRO_TLB_SLOTS];
    }

    /// Tags this TLB's trace events with the owning hart's id.
    pub fn set_hart(&mut self, hart: u32) {
        self.hart = hart;
    }

    /// Attaches (or detaches) a trace sink for hit/miss/flush events.
    pub fn set_trace_sink(&mut self, sink: Option<TraceSink>) {
        self.trace.set(sink);
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Looks up `vpn` for `asid`; on a hit, validates `kind`/`mode` against
    /// the *cached* flags and returns the entry. Global entries match any
    /// ASID. A permission mismatch on a hit reports the entry anyway — the
    /// caller decides whether that is a page fault (hardware re-walks on
    /// permission faults; the model treats cached-deny as a miss so the
    /// walker gives the authoritative answer).
    pub fn lookup(
        &mut self,
        vpn: VirtPageNum,
        asid: u16,
        kind: AccessKind,
        mode: PrivilegeMode,
    ) -> Option<TlbEntry> {
        let idx = Self::micro_index(vpn);
        let found = match self.micro[idx] {
            Some(m) if m.vpn == vpn && m.asid == asid => Some(m.entry),
            _ => {
                let found = self.scan(vpn, asid);
                if let Some(entry) = found {
                    self.micro[idx] = Some(MicroEntry { vpn, asid, entry });
                }
                found
            }
        };
        match found {
            Some(e) if Self::permits(e.flags, kind, mode) => {
                self.stats.hits += 1;
                if let Some(sink) = self.trace.get() {
                    sink.emit(TraceEvent::TlbHit {
                        unit: self.unit,
                        vpn: vpn.as_u64(),
                        asid,
                        hart: self.hart,
                    });
                }
                Some(e)
            }
            _ => {
                self.stats.misses += 1;
                if let Some(sink) = self.trace.get() {
                    sink.emit(TraceEvent::TlbMiss {
                        unit: self.unit,
                        vpn: vpn.as_u64(),
                        asid,
                        hart: self.hart,
                    });
                }
                None
            }
        }
    }

    /// The associative scan behind [`Self::lookup`]: first slot whose entry
    /// covers `vpn` in this address space (or globally). Superpage entries
    /// match every page in their span.
    #[inline]
    fn scan(&self, vpn: VirtPageNum, asid: u16) -> Option<TlbEntry> {
        self.entries
            .iter()
            .flatten()
            .copied()
            .find(|e| e.covers(vpn) && (e.asid == asid || e.flags.global()))
    }

    fn permits(flags: PteFlags, kind: AccessKind, mode: PrivilegeMode) -> bool {
        let rwx = match kind {
            AccessKind::Read => flags.readable(),
            AccessKind::Write => flags.writable(),
            AccessKind::Execute => flags.executable(),
        };
        let priv_ok = match mode {
            PrivilegeMode::User => flags.user(),
            PrivilegeMode::Supervisor => !(flags.user() && kind == AccessKind::Execute),
            PrivilegeMode::Machine => true,
        };
        rwx && priv_ok
    }

    /// Drops memoized scan results affected by a mutation of `entry`: the
    /// single slot for a base-page entry, everything for a superpage entry
    /// (whose span may be memoized under any covered vpn).
    #[inline]
    fn micro_invalidate_entry(&mut self, entry: &TlbEntry) {
        if entry.span_pages() == 1 {
            self.micro_invalidate_vpn(entry.vpn);
        } else {
            self.micro_invalidate_all();
        }
    }

    /// Inserts (or replaces) a translation.
    pub fn insert(&mut self, entry: TlbEntry) {
        // The scan result for the covered vpns changes whatever branch we
        // take.
        self.micro_invalidate_entry(&entry);
        // Replace an existing mapping of the same (vpn, asid) first. The
        // replaced entry may span more pages than the new one, so its
        // memoized lookups go too.
        if let Some(slot) = self
            .entries
            .iter_mut()
            .find(|s| matches!(s, Some(e) if e.vpn == entry.vpn && e.asid == entry.asid))
        {
            if let Some(old) = slot.replace(entry) {
                self.micro_invalidate_entry(&old);
            }
            return;
        }
        if let Some(slot) = self.entries.iter_mut().find(|s| s.is_none()) {
            *slot = Some(entry);
            return;
        }
        // Round-robin eviction.
        if let Some(victim) = self.entries[self.next_victim] {
            self.micro_invalidate_entry(&victim);
        }
        self.entries[self.next_victim] = Some(entry);
        self.next_victim = (self.next_victim + 1) % self.entries.len();
        self.stats.evictions += 1;
    }

    /// `sfence.vma x0, x0`: flush everything.
    pub fn flush_all(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = None);
        self.micro_invalidate_all();
        self.stats.flushes += 1;
        self.emit_flush(FlushScope::All);
    }

    /// `sfence.vma va, asid`: flush one page of one address space. A
    /// superpage entry covering `vpn` is flushed whole, as on hardware.
    pub fn flush_page(&mut self, vpn: VirtPageNum, asid: u16) {
        let mut flushed_superpage = false;
        for slot in self.entries.iter_mut() {
            if matches!(slot, Some(e) if e.covers(vpn) && e.asid == asid) {
                flushed_superpage |= slot.unwrap().span_pages() > 1;
                *slot = None;
            }
        }
        if flushed_superpage {
            self.micro_invalidate_all();
        } else {
            self.micro_invalidate_vpn(vpn);
        }
        self.stats.flushes += 1;
        self.emit_flush(FlushScope::Page {
            vpn: vpn.as_u64(),
            asid,
        });
    }

    /// `sfence.vma x0, asid`: flush one address space (non-global entries).
    pub fn flush_asid(&mut self, asid: u16) {
        for slot in self.entries.iter_mut() {
            if matches!(slot, Some(e) if e.asid == asid && !e.flags.global()) {
                *slot = None;
            }
        }
        self.micro_invalidate_all();
        self.stats.flushes += 1;
        self.emit_flush(FlushScope::Asid { asid });
    }

    fn emit_flush(&self, scope: FlushScope) {
        if let Some(sink) = self.trace.get() {
            sink.emit(TraceEvent::TlbFlush {
                unit: self.unit,
                scope,
                hart: self.hart,
            });
        }
    }

    /// Iterates over the live entries (diagnostics / invariant oracle).
    /// Order is slot order; no accounting is touched.
    pub fn entries(&self) -> impl Iterator<Item = &TlbEntry> {
        self.entries.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(vpn: u64, asid: u16, ppn: u64, flags: PteFlags) -> TlbEntry {
        TlbEntry {
            vpn: VirtPageNum::new(vpn),
            asid,
            ppn: PhysPageNum::new(ppn),
            flags,
            page_size: PAGE_SIZE,
        }
    }

    #[test]
    fn hit_and_miss() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(5, 1, 100, PteFlags::user_rw()));
        let hit = tlb
            .lookup(
                VirtPageNum::new(5),
                1,
                AccessKind::Read,
                PrivilegeMode::User,
            )
            .unwrap();
        assert_eq!(hit.ppn, PhysPageNum::new(100));
        assert!(tlb
            .lookup(
                VirtPageNum::new(6),
                1,
                AccessKind::Read,
                PrivilegeMode::User
            )
            .is_none());
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn asid_isolation_and_global() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(5, 1, 100, PteFlags::user_rw()));
        tlb.insert(entry(7, 1, 200, PteFlags::kernel_rw().with(PteFlags::G)));
        // Other ASID misses the private entry...
        assert!(tlb
            .lookup(
                VirtPageNum::new(5),
                2,
                AccessKind::Read,
                PrivilegeMode::User
            )
            .is_none());
        // ...but hits the global one.
        assert!(tlb
            .lookup(
                VirtPageNum::new(7),
                2,
                AccessKind::Read,
                PrivilegeMode::Supervisor
            )
            .is_some());
    }

    #[test]
    fn permission_mismatch_is_miss() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(5, 1, 100, PteFlags::user_ro()));
        assert!(tlb
            .lookup(
                VirtPageNum::new(5),
                1,
                AccessKind::Write,
                PrivilegeMode::User
            )
            .is_none());
        // Kernel page invisible to user.
        tlb.insert(entry(6, 1, 101, PteFlags::kernel_rw()));
        assert!(tlb
            .lookup(
                VirtPageNum::new(6),
                1,
                AccessKind::Read,
                PrivilegeMode::User
            )
            .is_none());
        // Supervisor cannot execute user pages.
        tlb.insert(entry(7, 1, 102, PteFlags::user_rx()));
        assert!(tlb
            .lookup(
                VirtPageNum::new(7),
                1,
                AccessKind::Execute,
                PrivilegeMode::Supervisor
            )
            .is_none());
    }

    #[test]
    fn stale_entry_survives_without_flush() {
        // The TLB-inconsistency surface: the PTE was tightened but no
        // sfence.vma was issued, so writes keep hitting.
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(5, 1, 100, PteFlags::user_rw()));
        // (PTE in memory now changed to read-only — TLB does not know.)
        assert!(tlb
            .lookup(
                VirtPageNum::new(5),
                1,
                AccessKind::Write,
                PrivilegeMode::User
            )
            .is_some());
        // After the fence the stale entry is gone.
        tlb.flush_page(VirtPageNum::new(5), 1);
        assert!(tlb
            .lookup(
                VirtPageNum::new(5),
                1,
                AccessKind::Write,
                PrivilegeMode::User
            )
            .is_none());
    }

    #[test]
    fn replacement_is_bounded() {
        let mut tlb = Tlb::new(2);
        for i in 0..10 {
            tlb.insert(entry(i, 1, i + 100, PteFlags::user_rw()));
        }
        assert_eq!(tlb.entries().count(), 2);
        assert_eq!(tlb.stats().evictions, 8);
    }

    #[test]
    fn insert_replaces_same_vpn() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(5, 1, 100, PteFlags::user_rw()));
        tlb.insert(entry(5, 1, 999, PteFlags::user_rw()));
        assert_eq!(tlb.entries().count(), 1);
        let hit = tlb
            .lookup(
                VirtPageNum::new(5),
                1,
                AccessKind::Read,
                PrivilegeMode::User,
            )
            .unwrap();
        assert_eq!(hit.ppn, PhysPageNum::new(999));
    }

    #[test]
    fn flush_asid_spares_globals() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(1, 1, 100, PteFlags::user_rw()));
        tlb.insert(entry(2, 1, 200, PteFlags::kernel_rw().with(PteFlags::G)));
        tlb.flush_asid(1);
        assert_eq!(tlb.entries().count(), 1);
        assert!(tlb
            .lookup(
                VirtPageNum::new(2),
                1,
                AccessKind::Read,
                PrivilegeMode::Supervisor
            )
            .is_some());
    }

    #[test]
    fn flush_all_empties() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(1, 1, 100, PteFlags::user_rw()));
        tlb.flush_all();
        assert_eq!(tlb.entries().count(), 0);
    }

    #[test]
    fn superpage_entry_covers_its_span() {
        let mut tlb = Tlb::new(4);
        // One 2 MiB entry: vpn/ppn bases 512-aligned, spanning 512 pages.
        let huge = TlbEntry {
            vpn: VirtPageNum::new(0x200),
            asid: 1,
            ppn: PhysPageNum::new(0x4000),
            flags: PteFlags::user_rw(),
            page_size: 512 * PAGE_SIZE,
        };
        tlb.insert(huge);
        // Any page in the span hits, with the right offset applied.
        let hit = tlb
            .lookup(
                VirtPageNum::new(0x200 + 17),
                1,
                AccessKind::Read,
                PrivilegeMode::User,
            )
            .unwrap();
        assert_eq!(
            hit.ppn_for(VirtPageNum::new(0x200 + 17)),
            PhysPageNum::new(0x4000 + 17)
        );
        // One page past the span misses.
        assert!(tlb
            .lookup(
                VirtPageNum::new(0x200 + 512),
                1,
                AccessKind::Read,
                PrivilegeMode::User
            )
            .is_none());
        assert_eq!(tlb.entries().count(), 1);
    }

    #[test]
    fn replacing_a_superpage_with_a_base_page_drops_its_span() {
        let mut tlb = Tlb::new(4);
        tlb.insert(TlbEntry {
            page_size: 8 * PAGE_SIZE,
            ..entry(0x200, 1, 0x4000, PteFlags::user_rw())
        });
        // Memoize a non-base page of the span, then replace the superpage
        // under the same (vpn, asid) with a base page.
        assert!(tlb
            .lookup(
                VirtPageNum::new(0x203),
                1,
                AccessKind::Read,
                PrivilegeMode::User
            )
            .is_some());
        tlb.insert(entry(0x200, 1, 0x5000, PteFlags::user_rw()));
        assert_eq!(tlb.entries().count(), 1);
        assert!(tlb
            .lookup(
                VirtPageNum::new(0x203),
                1,
                AccessKind::Read,
                PrivilegeMode::User
            )
            .is_none());
    }

    #[test]
    fn flushing_any_covered_page_drops_the_superpage() {
        let mut tlb = Tlb::new(4);
        let huge = TlbEntry {
            vpn: VirtPageNum::new(0x200),
            asid: 1,
            ppn: PhysPageNum::new(0x4000),
            flags: PteFlags::user_rw(),
            page_size: 512 * PAGE_SIZE,
        };
        tlb.insert(huge);
        // Warm the micro-TLB under a non-base vpn, then flush via another.
        tlb.lookup(
            VirtPageNum::new(0x200 + 3),
            1,
            AccessKind::Read,
            PrivilegeMode::User,
        )
        .unwrap();
        tlb.flush_page(VirtPageNum::new(0x200 + 100), 1);
        assert_eq!(tlb.entries().count(), 0);
        assert!(tlb
            .lookup(
                VirtPageNum::new(0x200 + 3),
                1,
                AccessKind::Read,
                PrivilegeMode::User
            )
            .is_none());
    }
}
