//! The PMP-checked memory bus.
//!
//! Every access names its originating [`Channel`]; the bus consults the
//! [`PmpUnit`] (with the PTStore S-bit rules) *before* touching memory and
//! raises the access fault the modified core would raise (paper §IV-A1).
//!
//! Data moves through three width-generic accessors — [`Bus::read`],
//! [`Bus::write`], and [`Bus::fetch`] — parameterised over the RV64 transfer
//! widths via the sealed [`BusData`] trait.

use ptstore_core::{
    AccessContext, AccessError, AccessKind, Channel, PhysAddr, PhysPageNum, PmpUnit, SecureRegion,
};
use ptstore_trace::{SinkSlot, TraceEvent, TraceSink};

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

    /// Resets the access statistics.
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::new();
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

    /// Checked whole-page zero test (reads via `ld.pt`, so only meaningful
    /// for secure-region pages). Counts as a single read burst.
    ///
    /// # Errors
    /// PMP/PTStore denials or out-of-range access.
    pub fn secure_page_is_zero(
        &mut self,
        ppn: PhysPageNum,
        ctx: AccessContext,
    ) -> Result<bool, AccessError> {
        self.guard(ppn.base_addr(), AccessKind::Read, Channel::SecurePt, ctx)?;
        self.stats.record(Channel::SecurePt, AccessKind::Read);
        Ok(self.mem.page_is_zero(ppn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptstore_core::{MIB, PAGE_SIZE};

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
        assert_eq!(bus.stats().secure_total(), 2);
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
