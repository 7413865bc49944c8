//! The PMP-checked memory bus.
//!
//! Every access names its originating [`Channel`]; the bus consults the
//! [`PmpUnit`] (with the PTStore S-bit rules) *before* touching memory and
//! raises the access fault the modified core would raise (paper §IV-A1).
//!
//! Data moves through three width-generic accessors — [`Bus::read`],
//! [`Bus::write`], and [`Bus::fetch`] — parameterised over the RV64 transfer
//! widths via the sealed [`BusData`] trait. [`Bus::read_u64_run`] reads
//! many consecutive words with exactly the checks, counts and trace of a
//! loop of word reads, deciding the PMP once per run of words one entry
//! decides ([`PmpUnit::decide_run`]). The whole-page operations
//! ([`Bus::zero_page`], [`Bus::secure_page_is_zero`]) are decided over
//! every word of the page the same way.

use ptstore_core::{
    AccessContext, AccessError, AccessKind, Channel, PhysAddr, PhysPageNum, PmpRun, PmpUnit,
    SecureRegion, PAGE_SIZE,
};
use ptstore_trace::{SinkSlot, TraceEvent, TraceSink, Verdict};

use crate::phys::PhysMem;
use crate::stats::AccessStats;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u8 {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// A primitive the bus can move in one transfer.
///
/// Sealed over exactly `u8`, `u16`, `u32`, and `u64` — the RV64 load/store
/// widths. Parameterises the width-generic [`Bus::read`], [`Bus::write`], and
/// [`Bus::fetch`] accessors.
pub trait BusData: sealed::Sealed + Copy {
    /// Transfer width in bytes.
    const WIDTH: u8;

    #[doc(hidden)]
    fn load(mem: &PhysMem, addr: PhysAddr) -> Result<Self, AccessError>;

    #[doc(hidden)]
    fn store(mem: &mut PhysMem, addr: PhysAddr, value: Self) -> Result<(), AccessError>;
}

macro_rules! bus_data {
    ($($ty:ty, $width:literal, $read:ident, $write:ident;)*) => {
        $(impl BusData for $ty {
            const WIDTH: u8 = $width;

            #[inline]
            fn load(mem: &PhysMem, addr: PhysAddr) -> Result<Self, AccessError> {
                mem.$read(addr)
            }

            #[inline]
            fn store(mem: &mut PhysMem, addr: PhysAddr, value: Self) -> Result<(), AccessError> {
                mem.$write(addr, value)
            }
        })*
    };
}

bus_data! {
    u8, 1, read_u8, write_u8;
    u16, 2, read_u16, write_u16;
    u32, 4, read_u32, write_u32;
    u64, 8, read_u64, write_u64;
}

/// Physical memory behind a PMP with the PTStore extension.
///
/// ```
/// use ptstore_core::prelude::*;
/// use ptstore_mem::Bus;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut bus = Bus::new(256 * MIB);
/// let region = SecureRegion::new(PhysAddr::new(192 * MIB), 64 * MIB)?;
/// bus.install_secure_region(&region)?;
/// let ctx = AccessContext::supervisor(true);
///
/// // The kernel writes a PTE with sd.pt...
/// bus.write::<u64>(PhysAddr::new(192 * MIB), 0x1234, Channel::SecurePt, ctx)?;
/// // ...while an attacker-controlled regular store faults.
/// assert!(bus
///     .write::<u64>(PhysAddr::new(192 * MIB), 0, Channel::Regular, ctx)
///     .is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Bus {
    mem: PhysMem,
    pmp: PmpUnit,
    stats: AccessStats,
    trace: SinkSlot,
}

impl Bus {
    /// A bus over `size` bytes of fresh memory and a clear PMP.
    ///
    /// # Panics
    /// Panics unless `size` is a non-zero multiple of the page size.
    pub fn new(size: u64) -> Self {
        Self {
            mem: PhysMem::new(size),
            pmp: PmpUnit::new(),
            stats: AccessStats::new(),
            trace: SinkSlot::default(),
        }
    }

    /// Attaches (or, with `None`, detaches) a trace sink. The sink is also
    /// forwarded to the PMP so check verdicts and bus transfers interleave in
    /// one event stream.
    pub fn set_trace_sink(&mut self, sink: Option<TraceSink>) {
        self.pmp.set_trace_sink(sink.clone());
        self.trace.set(sink);
    }

    /// The attached trace sink, if any. The MMU walker borrows this to emit
    /// walk-step events into the same stream.
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.get()
    }

    /// Installs the secure region into the PMP (the boot-time SBI call).
    ///
    /// # Errors
    /// See [`PmpUnit::install_secure_region`].
    pub fn install_secure_region(
        &mut self,
        region: &SecureRegion,
    ) -> Result<(), ptstore_core::RegionError> {
        self.pmp.install_secure_region(region)
    }

    /// Moves the secure region boundary (the SBI `set` call used by dynamic
    /// adjustment).
    ///
    /// # Errors
    /// See [`PmpUnit::update_secure_region`].
    pub fn update_secure_region(
        &mut self,
        region: &SecureRegion,
    ) -> Result<(), ptstore_core::RegionError> {
        self.pmp.update_secure_region(region)
    }

    /// The installed secure region, if any.
    pub fn secure_region(&self) -> Option<SecureRegion> {
        self.pmp.secure_region()
    }

    /// Direct access to the PMP unit (M-mode CSR interface).
    pub fn pmp(&self) -> &PmpUnit {
        &self.pmp
    }

    /// Mutable access to the PMP unit (M-mode CSR interface).
    pub fn pmp_mut(&mut self) -> &mut PmpUnit {
        &mut self.pmp
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Raw physical memory, bypassing the PMP.
    ///
    /// This is the *DRAM's-eye view* used by the simulator infrastructure
    /// itself (loading programs at boot, assertions in tests). Kernel and
    /// attacker code must go through the checked accessors instead.
    pub fn mem_unchecked(&mut self) -> &mut PhysMem {
        &mut self.mem
    }

    /// Read-only raw view of physical memory, bypassing the PMP.
    pub fn mem(&self) -> &PhysMem {
        &self.mem
    }

    #[inline]
    fn guard(
        &mut self,
        addr: PhysAddr,
        kind: AccessKind,
        channel: Channel,
        ctx: AccessContext,
    ) -> Result<(), AccessError> {
        match self.pmp.check(addr, kind, channel, ctx) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.stats.record_fault();
                Err(e)
            }
        }
    }

    /// Checked read of one `W`-sized value.
    ///
    /// # Errors
    /// PMP/PTStore denials, misalignment, or out-of-range access.
    #[inline]
    pub fn read<W: BusData>(
        &mut self,
        addr: PhysAddr,
        channel: Channel,
        ctx: AccessContext,
    ) -> Result<W, AccessError> {
        self.guard(addr, AccessKind::Read, channel, ctx)?;
        let v = W::load(&self.mem, addr)?;
        self.stats.record(channel, AccessKind::Read);
        if let Some(sink) = self.trace.get() {
            sink.emit(TraceEvent::BusRead {
                addr: addr.as_u64(),
                width: W::WIDTH,
                channel: channel.into(),
            });
        }
        Ok(v)
    }

    /// Checked write of one `W`-sized value.
    ///
    /// # Errors
    /// PMP/PTStore denials, misalignment, or out-of-range access.
    #[inline]
    pub fn write<W: BusData>(
        &mut self,
        addr: PhysAddr,
        value: W,
        channel: Channel,
        ctx: AccessContext,
    ) -> Result<(), AccessError> {
        self.guard(addr, AccessKind::Write, channel, ctx)?;
        W::store(&mut self.mem, addr, value)?;
        self.stats.record(channel, AccessKind::Write);
        if let Some(sink) = self.trace.get() {
            sink.emit(TraceEvent::BusWrite {
                addr: addr.as_u64(),
                width: W::WIDTH,
                channel: channel.into(),
            });
        }
        Ok(())
    }

    /// Checked instruction fetch of one `W`-sized parcel. Fetches always use
    /// the regular channel — there is no `fetch.pt` (paper §III-C1).
    ///
    /// # Errors
    /// PMP/PTStore denials, misalignment, or out-of-range access.
    #[inline]
    pub fn fetch<W: BusData>(
        &mut self,
        addr: PhysAddr,
        ctx: AccessContext,
    ) -> Result<W, AccessError> {
        self.guard(addr, AccessKind::Execute, Channel::Regular, ctx)?;
        let v = W::load(&self.mem, addr)?;
        self.stats.record(Channel::Regular, AccessKind::Execute);
        if let Some(sink) = self.trace.get() {
            sink.emit(TraceEvent::BusFetch {
                addr: addr.as_u64(),
                width: W::WIDTH,
            });
        }
        Ok(v)
    }

    /// Flips bit `bit` of the 8-byte word at `addr` through the checked
    /// write path: the old value is sampled raw (DRAM's-eye view, no charge),
    /// then the flipped word is stored via [`Bus::write`] on `channel` under
    /// `ctx`, so the PMP adjudicates the fault exactly as it would a rogue
    /// store. Used by the `ptstore-fault` injector to model single-bit PTE
    /// corruption attempts.
    ///
    /// # Errors
    /// PMP/PTStore denials, misalignment, or out-of-range access — in which
    /// case memory is unchanged.
    pub fn inject_bit_flip(
        &mut self,
        addr: PhysAddr,
        bit: u32,
        channel: Channel,
        ctx: AccessContext,
    ) -> Result<u64, AccessError> {
        let old = self.mem.read_u64(addr)?;
        let new = old ^ (1u64 << (bit % 64));
        self.write::<u64>(addr, new, channel, ctx)?;
        Ok(new)
    }

    /// Checked read of consecutive 8-byte words from `addr` into `buf`, in
    /// address order, stopping after the first word `stop` accepts. Returns
    /// the number of words read, with `Ok(true)` when the last of them is
    /// the accepted one, `Ok(false)` when `buf` filled without one, and
    /// otherwise the error of the first word that failed; the words before
    /// it are read. Only `buf[..read]` is meaningful.
    ///
    /// The bus sees what a loop of [`Bus::read::<u64>`](Bus::read) calls,
    /// stopped at the same word, shows it: every word read is counted and,
    /// with a sink attached, traced as a `PmpCheck` and a `BusRead`, and a
    /// failed word counts and traces as that read would. On the host, each
    /// run of words that one PMP entry (or none) decides costs one
    /// [`PmpUnit::decide_run`] and one frame lookup per page.
    pub fn read_u64_run(
        &mut self,
        addr: PhysAddr,
        buf: &mut [u64],
        channel: Channel,
        ctx: AccessContext,
        mut stop: impl FnMut(u64) -> bool,
    ) -> (usize, Result<bool, AccessError>) {
        let mut read = 0;
        while read < buf.len() {
            let at = addr + 8 * read as u64;
            let run = self.pmp.decide_run(
                at,
                8 * (buf.len() - read) as u64,
                AccessKind::Read,
                channel,
                ctx,
            );
            let in_page = ((PAGE_SIZE - at.page_offset()) / 8) as usize;
            let n = (run.len.div_ceil(8) as usize).min(in_page);
            let frame = match run.verdict {
                Ok(()) if at.is_aligned(8) => self.mem.page(PhysPageNum::from(at)).ok(),
                _ => None,
            };
            let Some(frame) = frame else {
                // A denied, misaligned or out-of-range word: the word read
                // itself raises, counts and traces its error.
                match self.read::<u64>(at, channel, ctx) {
                    Ok(w) => buf[read] = w,
                    Err(e) => return (read, Err(e)),
                }
                read += 1;
                if stop(buf[read - 1]) {
                    return (read, Ok(true));
                }
                continue;
            };
            frame.read_words((at.page_offset() / 8) as usize, &mut buf[read..read + n]);
            let found = buf[read..read + n].iter().position(|&w| stop(w));
            let taken = found.map_or(n, |i| i + 1);
            for _ in 0..taken {
                self.stats.record(channel, AccessKind::Read);
            }
            if self.pmp.trace_sink().is_some() || self.trace.get().is_some() {
                for word_at in (0..taken as u64).map(|i| at + 8 * i) {
                    self.trace_check(word_at, AccessKind::Read, channel, run);
                    if let Some(sink) = self.trace.get() {
                        sink.emit(TraceEvent::BusRead {
                            addr: word_at.as_u64(),
                            width: 8,
                            channel: channel.into(),
                        });
                    }
                }
            }
            read += taken;
            if found.is_some() {
                return (read, Ok(true));
            }
        }
        (read, Ok(false))
    }

    /// The one check of a whole-page operation: every word of the page is
    /// decided, one [`PmpUnit::decide_run`] per run, and the page passes
    /// only if every word would. It counts and traces as one word's check
    /// — the page base's when the page passes, the first denied word's
    /// when it fails.
    fn guard_page(
        &mut self,
        ppn: PhysPageNum,
        kind: AccessKind,
        channel: Channel,
        ctx: AccessContext,
    ) -> Result<(), AccessError> {
        let base = ppn.base_addr();
        let first = self.pmp.decide_run(base, PAGE_SIZE, kind, channel, ctx);
        let (mut off, mut run) = (0, first);
        while run.verdict.is_ok() {
            // The next run starts at the first word past this one.
            off += run.len.next_multiple_of(8);
            if off >= PAGE_SIZE {
                (off, run) = (0, first);
                break;
            }
            run = self
                .pmp
                .decide_run(base + off, PAGE_SIZE - off, kind, channel, ctx);
        }
        self.trace_check(base + off, kind, channel, run);
        run.verdict.inspect_err(|_| self.stats.record_fault())
    }

    /// Traces `run`'s decision for the access at `addr`, as
    /// [`PmpUnit::check`] would.
    fn trace_check(&self, addr: PhysAddr, kind: AccessKind, channel: Channel, run: PmpRun) {
        if let Some(sink) = self.pmp.trace_sink() {
            sink.emit(TraceEvent::PmpCheck {
                addr: addr.as_u64(),
                kind: kind.into(),
                channel: channel.into(),
                entry: run.entry.map(|e| e as u8),
                verdict: match &run.verdict {
                    Ok(()) => Verdict::Allowed,
                    Err(e) => e.trace_verdict(),
                },
            });
        }
    }

    /// Checked whole-page zero test (reads via `ld.pt`, so only meaningful
    /// for secure-region pages). Every word of the page must pass the PMP;
    /// it counts and traces as a single read.
    ///
    /// # Errors
    /// The first denied word's PMP/PTStore denial.
    pub fn secure_page_is_zero(
        &mut self,
        ppn: PhysPageNum,
        ctx: AccessContext,
    ) -> Result<bool, AccessError> {
        self.guard_page(ppn, AccessKind::Read, Channel::SecurePt, ctx)?;
        self.stats.record(Channel::SecurePt, AccessKind::Read);
        Ok(self.mem.page_is_zero(ppn))
    }

    /// Checked whole-page clear on `channel`. Every word of the page must
    /// pass the PMP; it counts and traces as one 8-byte store to the page
    /// base, then the page is cleared in bulk.
    ///
    /// # Errors
    /// The first denied word's PMP/PTStore denial, or
    /// [`AccessError::OutOfRange`] at the base of a page outside memory —
    /// in which case memory is unchanged.
    pub fn zero_page(
        &mut self,
        ppn: PhysPageNum,
        channel: Channel,
        ctx: AccessContext,
    ) -> Result<(), AccessError> {
        self.guard_page(ppn, AccessKind::Write, channel, ctx)?;
        self.mem.page(ppn)?;
        self.stats.record(channel, AccessKind::Write);
        if let Some(sink) = self.trace.get() {
            sink.emit(TraceEvent::BusWrite {
                addr: ppn.base_addr().as_u64(),
                width: 8,
                channel: channel.into(),
            });
        }
        self.mem.zero_page(ppn);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptstore_core::{PmpAddressMode, PmpEntry, PmpPermissions, MIB};

    fn secured_bus() -> (Bus, SecureRegion) {
        let mut bus = Bus::new(256 * MIB);
        let region = SecureRegion::new(PhysAddr::new(192 * MIB), 64 * MIB).unwrap();
        bus.install_secure_region(&region).unwrap();
        (bus, region)
    }

    #[test]
    fn channel_rules_enforced_end_to_end() {
        let (mut bus, region) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        let inside = region.base() + 0x40;
        let outside = PhysAddr::new(MIB);

        bus.write::<u64>(inside, 7, Channel::SecurePt, ctx).unwrap();
        assert_eq!(bus.read::<u64>(inside, Channel::SecurePt, ctx).unwrap(), 7);
        assert!(bus.read::<u64>(inside, Channel::Regular, ctx).is_err());
        assert!(bus.write::<u64>(inside, 0, Channel::Regular, ctx).is_err());
        assert!(bus.read::<u64>(outside, Channel::SecurePt, ctx).is_err());
        assert!(bus.read::<u64>(outside, Channel::Regular, ctx).is_ok());
        // Stats: 2 secure ok (w+r), faults 3.
        assert_eq!(bus.stats().secure_reads + bus.stats().secure_writes, 2);
        assert_eq!(bus.stats().faults, 3);
    }

    #[test]
    fn ptw_channel_respects_satp_s() {
        let (mut bus, region) = secured_bus();
        let inside = region.base();
        let outside = PhysAddr::new(2 * MIB);
        assert!(bus
            .read::<u64>(inside, Channel::Ptw, AccessContext::supervisor(true))
            .is_ok());
        assert!(bus
            .read::<u64>(outside, Channel::Ptw, AccessContext::supervisor(true))
            .is_err());
        assert!(bus
            .read::<u64>(outside, Channel::Ptw, AccessContext::supervisor(false))
            .is_ok());
    }

    #[test]
    fn boundary_update_takes_effect_immediately() {
        let (mut bus, region) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        let new_page = region.base() - PAGE_SIZE;
        // Before adjustment the page is normal memory.
        bus.write::<u64>(new_page, 1, Channel::Regular, ctx)
            .unwrap();
        let grown = region.grow_down(PAGE_SIZE).unwrap();
        bus.update_secure_region(&grown).unwrap();
        assert!(bus
            .write::<u64>(new_page, 2, Channel::Regular, ctx)
            .is_err());
        assert!(bus
            .write::<u64>(new_page, 2, Channel::SecurePt, ctx)
            .is_ok());
        assert_eq!(bus.secure_region(), Some(grown));
    }

    #[test]
    fn secure_page_zero_check() {
        let (mut bus, region) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        let ppn = PhysPageNum::from(region.base());
        assert!(bus.secure_page_is_zero(ppn, ctx).unwrap());
        bus.write::<u64>(region.base() + 8, 3, Channel::SecurePt, ctx)
            .unwrap();
        assert!(!bus.secure_page_is_zero(ppn, ctx).unwrap());
        // Zero check on a normal page faults (it reads via ld.pt).
        assert!(bus.secure_page_is_zero(PhysPageNum::new(1), ctx).is_err());
    }

    /// `read_u64_run`'s reference: a loop of word reads that stops at the
    /// same word.
    fn read_loop(
        bus: &mut Bus,
        addr: PhysAddr,
        words: usize,
        channel: Channel,
        ctx: AccessContext,
        stop: impl Fn(u64) -> bool,
    ) -> (Vec<u64>, Result<bool, AccessError>) {
        let mut read = Vec::new();
        for i in 0..words as u64 {
            match bus.read::<u64>(addr + 8 * i, channel, ctx) {
                Ok(w) => read.push(w),
                Err(e) => return (read, Err(e)),
            }
            if stop(read[read.len() - 1]) {
                return (read, Ok(true));
            }
        }
        (read, Ok(false))
    }

    /// A read-only NA4 entry over one word.
    fn read_only_na4(addr: PhysAddr) -> PmpEntry {
        PmpEntry {
            cfg: PmpPermissions::new()
                .with_read()
                .with_mode(PmpAddressMode::Na4),
            addr: PmpEntry::encode_addr(addr),
        }
    }

    #[test]
    fn range_read_is_a_loop_of_word_reads() {
        let (mut bus, region) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        let secure = region.base() + 2 * PAGE_SIZE;
        let plain = PhysAddr::new(16 * PAGE_SIZE);
        for (i, v) in [(3u64, 0x31), (4, 0x41), (200, 0x2001), (511, 0x5111)] {
            bus.write::<u64>(secure + 8 * i, v, Channel::SecurePt, ctx)
                .unwrap();
            bus.write::<u64>(plain + 8 * i, v, Channel::Regular, ctx)
                .unwrap();
        }
        // An NA4 entry granting nothing over word 40 of the plain page
        // denies the middle of a regular read of it.
        bus.pmp_mut().set_entry(
            2,
            PmpEntry {
                cfg: PmpPermissions::new().with_mode(PmpAddressMode::Na4),
                addr: PmpEntry::encode_addr(plain + 8 * 40),
            },
        );
        let mut small = Bus::new(MIB);
        small
            .write::<u64>(PhysAddr::new(MIB - 8), 7, Channel::Regular, ctx)
            .unwrap();
        // Runs both reads on clones of `bus`, each with its own sink, and
        // returns how the run ended once every observable agrees.
        let same = |bus: &Bus, addr, words, channel, stop: &dyn Fn(u64) -> bool| {
            let (mut run_bus, mut loop_bus) = (bus.clone(), bus.clone());
            let (run_sink, loop_sink) = (TraceSink::new(), TraceSink::new());
            run_bus.set_trace_sink(Some(run_sink.clone()));
            loop_bus.set_trace_sink(Some(loop_sink.clone()));
            let mut buf = vec![0; words];
            let (read, end) = run_bus.read_u64_run(addr, &mut buf, channel, ctx, stop);
            let (want, want_end) = read_loop(&mut loop_bus, addr, words, channel, ctx, stop);
            assert_eq!((&buf[..read], end), (&want[..], want_end), "at {addr}");
            assert_eq!(run_bus.stats(), loop_bus.stats(), "at {addr}");
            assert_eq!(run_sink.events(), loop_sink.events(), "at {addr}");
            (read, end)
        };
        let nonzero = |w: u64| w != 0;
        let never = |_: u64| false;
        let ch = Channel::SecurePt;
        assert_eq!(same(&bus, secure, 512, ch, &nonzero), (4, Ok(true)));
        assert_eq!(same(&bus, secure + 8 * 4, 508, ch, &nonzero), (1, Ok(true)));
        assert_eq!(
            same(&bus, secure + 8 * 5, 507, ch, &nonzero),
            (196, Ok(true))
        );
        assert_eq!(
            same(&bus, secure + 8 * 201, 311, ch, &nonzero),
            (311, Ok(true))
        );
        assert_eq!(
            same(&bus, secure, 512, Channel::Ptw, &never),
            (512, Ok(false))
        );
        let ch = Channel::Regular;
        assert!(matches!(
            same(&bus, plain, 512, ch, &never),
            (40, Err(AccessError::PmpDenied { .. }))
        ));
        assert_eq!(
            same(&bus, plain + 8 * 41, 300, ch, &nonzero),
            (160, Ok(true))
        );
        // Across the secure region's base, and across a page boundary.
        assert!(matches!(
            same(&bus, region.base() - 64, 16, ch, &never),
            (8, Err(AccessError::SecureRegionDenied { .. }))
        ));
        assert_eq!(same(&bus, plain - 32, 8, ch, &nonzero), (8, Ok(true)));
        assert!(matches!(
            same(&bus, plain + 4, 4, ch, &never),
            (0, Err(AccessError::Misaligned { .. }))
        ));
        assert!(matches!(
            same(&small, PhysAddr::new(MIB - 16), 4, ch, &never),
            (2, Err(AccessError::OutOfRange { .. }))
        ));
    }

    #[test]
    fn a_page_split_by_a_denying_entry_fails_whole() {
        // A read-only NA4 at index 0 outranks the secure TOR pair (1, 2).
        let mut bus = Bus::new(256 * MIB);
        let region = SecureRegion::new(PhysAddr::new(192 * MIB), 64 * MIB).unwrap();
        let ppn = PhysPageNum::from(region.base() + PAGE_SIZE);
        let middle = ppn.base_addr() + PAGE_SIZE / 2;
        bus.pmp_mut().set_entry(0, read_only_na4(middle));
        bus.install_secure_region(&region).unwrap();
        let ctx = AccessContext::supervisor(true);
        bus.write::<u64>(ppn.base_addr() + 8, 5, Channel::SecurePt, ctx)
            .unwrap();
        let sink = TraceSink::new();
        bus.set_trace_sink(Some(sink.clone()));
        let denied = AccessError::SecureInstructionOutsideRegion {
            addr: middle,
            kind: AccessKind::Read,
        };
        assert_eq!(bus.secure_page_is_zero(ppn, ctx), Err(denied));
        assert_eq!(
            bus.zero_page(ppn, Channel::SecurePt, ctx),
            Err(AccessError::SecureInstructionOutsideRegion {
                addr: middle,
                kind: AccessKind::Write,
            })
        );
        assert_eq!(bus.mem().read_u64(ppn.base_addr() + 8), Ok(5));
        // A regular clear of a plain page the entry splits fails too.
        let plain = PhysPageNum::new(16);
        bus.pmp_mut()
            .set_entry(0, read_only_na4(plain.base_addr() + PAGE_SIZE / 2));
        bus.write::<u64>(plain.base_addr(), 9, Channel::Regular, ctx)
            .unwrap();
        assert!(matches!(
            bus.zero_page(plain, Channel::Regular, ctx),
            Err(AccessError::PmpDenied { addr, .. }) if addr == plain.base_addr() + PAGE_SIZE / 2
        ));
        assert_eq!(bus.mem().read_u64(plain.base_addr()), Ok(9));
        // One check per call, traced at the denied word, counted as a fault.
        let checks: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::PmpCheck { addr, verdict, .. } => Some((addr, verdict)),
                _ => None,
            })
            .collect();
        assert_eq!(checks.len(), 4, "{checks:?}");
        assert_eq!(
            checks[0],
            (middle.as_u64(), Verdict::SecureInstructionOutsideRegion)
        );
        assert_eq!(bus.stats().faults, 3);
        // With the entry gone the clear passes as one store to the base.
        bus.pmp_mut().set_entry(0, PmpEntry::default());
        let before = *bus.stats();
        bus.zero_page(plain, Channel::Regular, ctx).unwrap();
        assert_eq!(bus.stats().regular_writes, before.regular_writes + 1);
        assert!(bus.mem().page_is_zero(plain));
        assert!(matches!(
            sink.events().last(),
            Some(TraceEvent::BusWrite { addr, width: 8, .. }) if *addr == plain.base_addr().as_u64()
        ));
    }

    #[test]
    fn fetch_from_secure_region_denied() {
        let (mut bus, region) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        assert!(bus.fetch::<u32>(region.base(), ctx).is_err());
        assert!(bus.fetch::<u32>(PhysAddr::new(0x1000), ctx).is_ok());
    }

    #[test]
    fn all_widths_round_trip() {
        let (mut bus, _) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        let base = PhysAddr::new(0x4000);
        bus.write::<u8>(base, 0xab, Channel::Regular, ctx).unwrap();
        bus.write::<u16>(base + 2, 0xbeef, Channel::Regular, ctx)
            .unwrap();
        bus.write::<u32>(base + 4, 0xdead_beef, Channel::Regular, ctx)
            .unwrap();
        bus.write::<u64>(base + 8, 0x0123_4567_89ab_cdef, Channel::Regular, ctx)
            .unwrap();
        assert_eq!(bus.read::<u8>(base, Channel::Regular, ctx).unwrap(), 0xab);
        assert_eq!(
            bus.read::<u16>(base + 2, Channel::Regular, ctx).unwrap(),
            0xbeef
        );
        assert_eq!(
            bus.read::<u32>(base + 4, Channel::Regular, ctx).unwrap(),
            0xdead_beef
        );
        assert_eq!(
            bus.read::<u64>(base + 8, Channel::Regular, ctx).unwrap(),
            0x0123_4567_89ab_cdef
        );
    }

    #[test]
    fn trace_sink_sees_transfers_and_denials() {
        let (mut bus, region) = secured_bus();
        let ctx = AccessContext::supervisor(true);
        let sink = ptstore_trace::TraceSink::new();
        bus.set_trace_sink(Some(sink.clone()));

        bus.write::<u64>(region.base(), 1, Channel::SecurePt, ctx)
            .unwrap();
        assert!(bus
            .read::<u64>(region.base(), Channel::Regular, ctx)
            .is_err());
        bus.fetch::<u32>(PhysAddr::new(0x1000), ctx).unwrap();

        let counters = sink.counters();
        assert_eq!(counters.bus_writes, 1);
        assert_eq!(counters.bus_fetches, 1);
        // Three PMP checks, one denial.
        assert_eq!(counters.pmp_checks, 3);
        assert_eq!(counters.pmp_denials, 1);
        let denial = sink.last_denial().expect("denied read must be traced");
        assert_eq!(
            denial.rejecting_layer(),
            Some(ptstore_trace::RejectingLayer::PmpSBit)
        );
    }
}
