//! Physical Memory Protection with the PTStore S-bit extension.
//!
//! RISC-V PMP lets M-mode code assign permissions to physical memory regions
//! (paper §II-A). PTStore adds one bit — **S**, for *secure* — to each
//! `pmpcfg` entry (paper §IV-A1). A region whose matching entry has S set:
//!
//! * **denies** every access from the [`Channel::Regular`] path,
//! * **grants** the dedicated `ld.pt`/`sd.pt` channel and the page-table
//!   walker, subject to the entry's R/W bits.
//!
//! Conversely, outside any S region the `ld.pt`/`sd.pt` channel is denied
//! (the new instructions *only* access the secure region) and, once `satp.S`
//! is enabled, so is the walker.
//!
//! The unit models the standard entry-priority matching of the RISC-V
//! privileged spec with `OFF`/`TOR`/`NA4`/`NAPOT` address modes; the secure
//! region is installed as a `TOR` pair so it can grow to non-power-of-two
//! sizes during dynamic adjustment (paper §IV-C1).
//!
//! One deliberate simplification: when *no* entry matches an S/U-mode access
//! the model allows it (real hardware with ≥1 implemented entry would deny).
//! The kernel model always runs with a full background mapping, so the
//! distinction never matters here; it is documented for fidelity.

use core::fmt;

use ptstore_trace::{SinkSlot, TraceEvent, TraceSink, Verdict};

use crate::addr::PhysAddr;
use crate::channel::{AccessKind, Channel};
use crate::error::{AccessError, RegionError};
use crate::privilege::PrivilegeMode;
use crate::region::SecureRegion;

/// Number of PMP entries implemented by the modelled core (BOOM default).
pub const PMP_ENTRY_COUNT: usize = 8;

/// The writable bits of an RV64 `pmpaddr` register: physical address bits
/// `[55:2]`. The register is WARL, so [`PmpUnit::set_entry`] drops the rest.
pub const PMPADDR_MASK: u64 = (1 << 54) - 1;

/// PMP address-matching mode (the `A` field of `pmpcfg`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PmpAddressMode {
    /// Entry disabled.
    #[default]
    Off,
    /// Top-of-range: matches `[pmpaddr[i-1], pmpaddr[i])`.
    Tor,
    /// Naturally aligned four-byte region.
    Na4,
    /// Naturally aligned power-of-two region, ≥ 8 bytes.
    Napot,
}

impl PmpAddressMode {
    /// The 2-bit `A`-field encoding.
    pub const fn encoding(self) -> u8 {
        match self {
            PmpAddressMode::Off => 0,
            PmpAddressMode::Tor => 1,
            PmpAddressMode::Na4 => 2,
            PmpAddressMode::Napot => 3,
        }
    }

    /// Decodes the 2-bit `A` field.
    pub const fn from_encoding(bits: u8) -> Self {
        match bits & 0b11 {
            0 => PmpAddressMode::Off,
            1 => PmpAddressMode::Tor,
            2 => PmpAddressMode::Na4,
            _ => PmpAddressMode::Napot,
        }
    }
}

/// One `pmpcfg` byte, including the PTStore S-bit.
///
/// Bit layout (PTStore uses the reserved bit 5 of the base ISA):
///
/// | bit | name | meaning                        |
/// |-----|------|--------------------------------|
/// | 0   | R    | read permission                |
/// | 1   | W    | write permission               |
/// | 2   | X    | execute permission             |
/// | 3–4 | A    | address-matching mode          |
/// | 5   | S    | **PTStore secure region** (new)|
/// | 7   | L    | locked (applies to M-mode too) |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PmpPermissions(u8);

impl PmpPermissions {
    const R: u8 = 1 << 0;
    const W: u8 = 1 << 1;
    const X: u8 = 1 << 2;
    const A_SHIFT: u8 = 3;
    const S: u8 = 1 << 5;
    const L: u8 = 1 << 7;

    /// An all-clear (disabled) configuration byte.
    pub const fn new() -> Self {
        Self(0)
    }

    /// Builds from a raw `pmpcfg` byte.
    pub const fn from_bits(bits: u8) -> Self {
        Self(bits)
    }

    /// Raw `pmpcfg` byte.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Read permission.
    pub const fn readable(self) -> bool {
        self.0 & Self::R != 0
    }

    /// Write permission.
    pub const fn writable(self) -> bool {
        self.0 & Self::W != 0
    }

    /// Execute permission.
    pub const fn executable(self) -> bool {
        self.0 & Self::X != 0
    }

    /// The PTStore secure bit.
    pub const fn secure(self) -> bool {
        self.0 & Self::S != 0
    }

    /// The lock bit.
    pub const fn locked(self) -> bool {
        self.0 & Self::L != 0
    }

    /// The address-matching mode.
    pub const fn address_mode(self) -> PmpAddressMode {
        PmpAddressMode::from_encoding(self.0 >> Self::A_SHIFT)
    }

    /// Returns a copy with read permission set.
    pub const fn with_read(self) -> Self {
        Self(self.0 | Self::R)
    }

    /// Returns a copy with write permission set.
    pub const fn with_write(self) -> Self {
        Self(self.0 | Self::W)
    }

    /// Returns a copy with the PTStore secure bit set.
    pub const fn with_secure(self) -> Self {
        Self(self.0 | Self::S)
    }

    /// Returns a copy with the given address mode.
    pub const fn with_mode(self, mode: PmpAddressMode) -> Self {
        Self((self.0 & !(0b11 << Self::A_SHIFT)) | (mode.encoding() << Self::A_SHIFT))
    }

    /// True when the access kind is permitted by the R/W/X bits.
    pub const fn permits(self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.readable(),
            AccessKind::Write => self.writable(),
            AccessKind::Execute => self.executable(),
        }
    }
}

impl fmt::Display for PmpPermissions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}{}{} {:?}",
            if self.readable() { 'r' } else { '-' },
            if self.writable() { 'w' } else { '-' },
            if self.executable() { 'x' } else { '-' },
            if self.secure() { 's' } else { '-' },
            if self.locked() { 'l' } else { '-' },
            self.address_mode()
        )
    }
}

/// One PMP entry: a configuration byte plus the raw `pmpaddr` register
/// (physical address bits `[55:2]`, i.e. the address shifted right by two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PmpEntry {
    /// The `pmpcfg` byte for this entry.
    pub cfg: PmpPermissions,
    /// The raw `pmpaddr` register value (`addr >> 2`).
    pub addr: u64,
}

impl PmpEntry {
    /// Builds the `pmpaddr` encoding of a byte address.
    pub const fn encode_addr(pa: PhysAddr) -> u64 {
        pa.as_u64() >> 2
    }

    /// Decodes a raw `pmpaddr` value back into a byte address.
    pub const fn decode_addr(raw: u64) -> PhysAddr {
        PhysAddr::new(raw << 2)
    }
}

/// Which decision the PMP reached for an access, with entry attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MatchResult {
    index: usize,
    cfg: PmpPermissions,
}

/// The decision [`PmpUnit::decide_run`] reaches for the run of addresses at
/// the start of a range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmpRun {
    /// Bytes in the run: at least 1, at most the range's length.
    pub len: u64,
    /// Index of the entry that matches every address of the run, or `None`
    /// when no entry matches any of them.
    pub entry: Option<usize>,
    /// The verdict [`PmpUnit::check`] gives the run's first address. Every
    /// other address of the run gets the same verdict, with its own address
    /// in the error.
    pub verdict: Result<(), AccessError>,
}

/// Context needed to evaluate an access: the hart's privilege mode and the
/// `satp.S` bit that arms the page-table-walker origin check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessContext {
    /// Current privilege mode of the hart.
    pub mode: PrivilegeMode,
    /// The new S-bit of the `satp` CSR (paper §IV-A1): when set, the walker
    /// may only fetch page tables from the secure region.
    pub satp_s: bool,
    /// Issuing hart. The PMP verdict is hart-independent (every hart holds
    /// an identical secure-region configuration), but the id attributes
    /// accesses and trace events on SMP machines.
    pub hart: usize,
}

impl AccessContext {
    /// A supervisor-mode access context on hart 0.
    pub const fn supervisor(satp_s: bool) -> Self {
        Self {
            mode: PrivilegeMode::Supervisor,
            satp_s,
            hart: 0,
        }
    }

    /// A user-mode access context on hart 0.
    pub const fn user(satp_s: bool) -> Self {
        Self {
            mode: PrivilegeMode::User,
            satp_s,
            hart: 0,
        }
    }

    /// A machine-mode access context (PTW check disabled at boot).
    pub const fn machine() -> Self {
        Self {
            mode: PrivilegeMode::Machine,
            satp_s: false,
            hart: 0,
        }
    }

    /// The same context attributed to `hart`.
    pub const fn on_hart(mut self, hart: usize) -> Self {
        self.hart = hart;
        self
    }
}

/// The PMP unit of the modelled core: [`PMP_ENTRY_COUNT`] prioritised entries
/// plus helpers to install and resize the PTStore secure region as a TOR pair.
#[derive(Debug, Clone)]
pub struct PmpUnit {
    entries: [PmpEntry; PMP_ENTRY_COUNT],
    /// Index of the TOR entry carrying the secure region's S-bit, when
    /// installed (its lower bound lives in the preceding entry).
    secure_tor_index: Option<usize>,
    /// Optional decision-trace sink; not part of the architectural state.
    trace: SinkSlot,
    /// Ablation switch (defaults to `true`): when `false`, the S-bit loses
    /// its channel semantics and regular accesses reach the secure region
    /// subject only to the entry's R/W permissions. The fault-injection
    /// campaign disables this to prove the invariant oracle catches landed
    /// page-table corruption; the full design never clears it.
    secure_enforcement: bool,
}

/// Equality covers the architectural state only; an attached trace sink is
/// an observer, not part of the unit.
impl PartialEq for PmpUnit {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries && self.secure_tor_index == other.secure_tor_index
    }
}

impl Eq for PmpUnit {}

impl Default for PmpUnit {
    fn default() -> Self {
        Self::new()
    }
}

impl PmpUnit {
    /// A PMP unit with every entry disabled.
    pub fn new() -> Self {
        Self {
            entries: [PmpEntry::default(); PMP_ENTRY_COUNT],
            secure_tor_index: None,
            trace: SinkSlot::default(),
            secure_enforcement: true,
        }
    }

    /// Enables or disables S-bit enforcement (the fault-campaign ablation
    /// hook). With enforcement off, [`check`](Self::check) treats secure
    /// entries as ordinary R/W entries for the regular channel; the
    /// dedicated-channel and walker rules are unchanged.
    pub fn set_secure_enforcement(&mut self, enabled: bool) {
        self.secure_enforcement = enabled;
    }

    /// Whether S-bit enforcement is active (true in the full design).
    pub fn secure_enforcement(&self) -> bool {
        self.secure_enforcement
    }

    /// Attaches (or detaches) a decision-trace sink. Every subsequent
    /// [`check`](Self::check) emits one [`TraceEvent::PmpCheck`] naming the
    /// matching entry and the verdict.
    pub fn set_trace_sink(&mut self, sink: Option<TraceSink>) {
        self.trace.set(sink);
    }

    /// The currently attached trace sink, if any.
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.get()
    }

    /// Read-only view of the raw entries.
    pub fn entries(&self) -> &[PmpEntry; PMP_ENTRY_COUNT] {
        &self.entries
    }

    /// Writes one raw entry (the M-mode CSR interface). `pmpaddr` keeps
    /// only its [`PMPADDR_MASK`] bits, as the WARL register does.
    ///
    /// # Panics
    /// Panics if `index >= PMP_ENTRY_COUNT`.
    pub fn set_entry(&mut self, index: usize, entry: PmpEntry) {
        self.entries[index] = PmpEntry {
            addr: entry.addr & PMPADDR_MASK,
            ..entry
        };
    }

    /// Reads one raw entry.
    ///
    /// # Panics
    /// Panics if `index >= PMP_ENTRY_COUNT`.
    pub fn entry(&self, index: usize) -> PmpEntry {
        self.entries[index]
    }

    /// Installs `region` as a TOR pair with the S-bit, using the first two
    /// free adjacent entries.
    ///
    /// # Errors
    /// Returns [`RegionError::NoPmpEntry`] when no adjacent pair of disabled
    /// entries exists.
    pub fn install_secure_region(&mut self, region: &SecureRegion) -> Result<(), RegionError> {
        let pair = (0..PMP_ENTRY_COUNT - 1).find(|&i| {
            self.entries[i].cfg.address_mode() == PmpAddressMode::Off
                && self.entries[i].cfg.bits() == 0
                && self.entries[i + 1].cfg.address_mode() == PmpAddressMode::Off
                && self.entries[i + 1].cfg.bits() == 0
        });
        let Some(i) = pair else {
            return Err(RegionError::NoPmpEntry);
        };
        // Lower bound: an OFF entry whose pmpaddr seeds the following TOR.
        self.entries[i] = PmpEntry {
            cfg: PmpPermissions::new(),
            addr: PmpEntry::encode_addr(region.base()),
        };
        self.entries[i + 1] = PmpEntry {
            cfg: PmpPermissions::new()
                .with_read()
                .with_write()
                .with_secure()
                .with_mode(PmpAddressMode::Tor),
            addr: PmpEntry::encode_addr(region.end()),
        };
        self.secure_tor_index = Some(i + 1);
        Ok(())
    }

    /// Rewrites the installed secure region's boundaries (the SBI `set`
    /// operation used during dynamic adjustment).
    ///
    /// # Errors
    /// Returns [`RegionError::NoPmpEntry`] when no region is installed.
    pub fn update_secure_region(&mut self, region: &SecureRegion) -> Result<(), RegionError> {
        let tor = self.secure_tor_index.ok_or(RegionError::NoPmpEntry)?;
        self.entries[tor - 1].addr = PmpEntry::encode_addr(region.base());
        self.entries[tor].addr = PmpEntry::encode_addr(region.end());
        Ok(())
    }

    /// The currently installed secure region, reconstructed from the TOR pair.
    pub fn secure_region(&self) -> Option<SecureRegion> {
        let tor = self.secure_tor_index?;
        let base = PmpEntry::decode_addr(self.entries[tor - 1].addr);
        let end = PmpEntry::decode_addr(self.entries[tor].addr);
        SecureRegion::new(base, end.offset_from(base)).ok()
    }

    /// The byte range `[lo, hi)` entry `i` matches: the one decode of an
    /// entry's address bits, shared by [`Self::check`] and
    /// [`Self::decide_run`]. Empty (`lo >= hi`) for an `Off` entry and for an
    /// inverted TOR pair. No sum overflows: `set_entry` keeps 54 address
    /// bits, and the secure-region helpers only write TOR bounds.
    #[inline]
    fn entry_range(&self, i: usize) -> (u64, u64) {
        let e = self.entries[i];
        match e.cfg.address_mode() {
            PmpAddressMode::Off => (0, 0),
            PmpAddressMode::Tor => {
                let lo = if i == 0 {
                    0
                } else {
                    self.entries[i - 1].addr << 2
                };
                (lo, e.addr << 2)
            }
            PmpAddressMode::Na4 => {
                let base = e.addr << 2;
                (base, base + 4)
            }
            PmpAddressMode::Napot => {
                // pmpaddr = base/4 | (size/8 - 1): trailing ones encode the size.
                let trailing = e.addr.trailing_ones();
                let base = (e.addr & !((1 << trailing) - 1)) << 2;
                (base, base + (8 << trailing))
            }
        }
    }

    /// Finds the highest-priority (lowest-index) entry matching `addr`.
    fn match_entry(&self, addr: PhysAddr) -> Option<MatchResult> {
        let a = addr.as_u64();
        for (i, e) in self.entries.iter().enumerate() {
            let (lo, hi) = self.entry_range(i);
            if lo <= a && a < hi {
                return Some(MatchResult {
                    index: i,
                    cfg: e.cfg,
                });
            }
        }
        None
    }

    /// Decides the longest prefix of `[addr, addr + len)` that one entry, or
    /// no entry, decides. PMP picks the lowest-numbered entry that matches
    /// an address, so the run ends where its entry's range ends or where a
    /// higher-priority entry's range begins; [`check`](Self::check) gives
    /// every address in it the returned entry and verdict. One pass over
    /// the entries and one call of the same decision function, however long
    /// the run. Nothing is traced. A `len` of 0 is taken as 1.
    pub fn decide_run(
        &self,
        addr: PhysAddr,
        len: u64,
        kind: AccessKind,
        channel: Channel,
        ctx: AccessContext,
    ) -> PmpRun {
        let a = addr.as_u64();
        let mut run = len.max(1);
        let mut matched = None;
        for i in 0..PMP_ENTRY_COUNT {
            let (lo, hi) = self.entry_range(i);
            if a < lo && lo < hi {
                run = run.min(lo - a);
            } else if lo <= a && a < hi {
                run = run.min(hi - a);
                matched = Some(MatchResult {
                    index: i,
                    cfg: self.entries[i].cfg,
                });
                break;
            }
        }
        PmpRun {
            len: run,
            entry: matched.map(|m| m.index),
            verdict: self.decide(addr, kind, channel, ctx, matched),
        }
    }

    /// Evaluates one physical access against the PMP, applying PTStore's
    /// channel rules.
    ///
    /// # Errors
    /// [`AccessError::SecureRegionDenied`] for regular accesses into an S
    /// region; [`AccessError::SecureInstructionOutsideRegion`] for
    /// `ld.pt`/`sd.pt` outside every S region;
    /// [`AccessError::PtwOutsideRegion`] for walker fetches outside the S
    /// region while `ctx.satp_s` is set; [`AccessError::PmpDenied`] for
    /// ordinary R/W/X violations.
    pub fn check(
        &self,
        addr: PhysAddr,
        kind: AccessKind,
        channel: Channel,
        ctx: AccessContext,
    ) -> Result<(), AccessError> {
        let matched = self.match_entry(addr);
        let result = self.decide(addr, kind, channel, ctx, matched);
        if let Some(sink) = self.trace.get() {
            sink.emit(TraceEvent::PmpCheck {
                addr: addr.as_u64(),
                kind: kind.into(),
                channel: channel.into(),
                entry: matched.map(|m| m.index as u8),
                verdict: match &result {
                    Ok(()) => Verdict::Allowed,
                    Err(e) => e.trace_verdict(),
                },
            });
        }
        result
    }

    /// The pure decision function behind [`check`](Self::check).
    fn decide(
        &self,
        addr: PhysAddr,
        kind: AccessKind,
        channel: Channel,
        ctx: AccessContext,
        matched: Option<MatchResult>,
    ) -> Result<(), AccessError> {
        let secure = matches!(matched, Some(m) if m.cfg.secure());
        // The matched entry's own R/W/X bits decide.
        let permits = |m: MatchResult| {
            if m.cfg.permits(kind) {
                Ok(())
            } else {
                Err(AccessError::PmpDenied {
                    addr,
                    kind,
                    channel,
                })
            }
        };

        if secure {
            // Inside the secure region: only the dedicated instructions and
            // the walker may proceed, and only within the entry's R/W bits.
            let m = matched.expect("secure implies a match");
            match channel {
                Channel::Regular if self.secure_enforcement => {
                    Err(AccessError::SecureRegionDenied { addr, kind })
                }
                // An ablated S-bit falls back to the entry's R/W bits.
                Channel::Regular | Channel::SecurePt | Channel::Ptw => permits(m),
            }
        } else {
            // Outside the secure region.
            if channel.is_secure_instruction() {
                return Err(AccessError::SecureInstructionOutsideRegion { addr, kind });
            }
            if channel.is_walker() && ctx.satp_s {
                return Err(AccessError::PtwOutsideRegion { addr });
            }
            match matched {
                None => Ok(()), // documented model simplification
                Some(m) => {
                    // M-mode ignores unlocked entries.
                    if ctx.mode == PrivilegeMode::Machine && !m.cfg.locked() {
                        return Ok(());
                    }
                    permits(m)
                }
            }
        }
    }
}

impl fmt::Display for PmpUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pmp unit ({PMP_ENTRY_COUNT} entries)")?;
        for (i, e) in self.entries.iter().enumerate() {
            if e.cfg.address_mode() != PmpAddressMode::Off || e.addr != 0 {
                writeln!(f, "  [{i}] {} pmpaddr={:#x}", e.cfg, e.addr)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{MIB, PAGE_SIZE};

    fn unit_with_region(base: u64, size: u64) -> (PmpUnit, SecureRegion) {
        let region = SecureRegion::new(PhysAddr::new(base), size).unwrap();
        let mut pmp = PmpUnit::new();
        pmp.install_secure_region(&region).unwrap();
        (pmp, region)
    }

    #[test]
    fn secure_region_round_trips_through_tor_pair() {
        let (pmp, region) = unit_with_region(0xFC00_0000, 64 * MIB);
        assert_eq!(pmp.secure_region(), Some(region));
        // An S region refuses a regular read; memory outside it does not.
        let secure = |addr| {
            let ctx = AccessContext::supervisor(false);
            let read = pmp.check(PhysAddr::new(addr), AccessKind::Read, Channel::Regular, ctx);
            matches!(read, Err(AccessError::SecureRegionDenied { .. }))
        };
        assert!(secure(0xFC00_0000));
        assert!(secure(0xFFFF_FFF8));
        assert!(!secure(0xFBFF_FFF8));
    }

    #[test]
    fn regular_access_denied_in_region() {
        let (pmp, _) = unit_with_region(0xFC00_0000, 64 * MIB);
        let ctx = AccessContext::supervisor(true);
        let err = pmp
            .check(
                PhysAddr::new(0xFC00_0100),
                AccessKind::Write,
                Channel::Regular,
                ctx,
            )
            .unwrap_err();
        assert!(matches!(err, AccessError::SecureRegionDenied { .. }));
        // Reads denied too — the region is invisible to regular code.
        assert!(pmp
            .check(
                PhysAddr::new(0xFC00_0100),
                AccessKind::Read,
                Channel::Regular,
                ctx
            )
            .is_err());
    }

    #[test]
    fn secure_channel_granted_in_region_only() {
        let (pmp, _) = unit_with_region(0xFC00_0000, 64 * MIB);
        let ctx = AccessContext::supervisor(true);
        pmp.check(
            PhysAddr::new(0xFC00_0100),
            AccessKind::Write,
            Channel::SecurePt,
            ctx,
        )
        .unwrap();
        let err = pmp
            .check(
                PhysAddr::new(0x8000_0000),
                AccessKind::Write,
                Channel::SecurePt,
                ctx,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            AccessError::SecureInstructionOutsideRegion { .. }
        ));
    }

    #[test]
    fn ptw_gated_by_satp_s() {
        let (pmp, _) = unit_with_region(0xFC00_0000, 64 * MIB);
        // Inside: always fine.
        pmp.check(
            PhysAddr::new(0xFC00_0000),
            AccessKind::Read,
            Channel::Ptw,
            AccessContext::supervisor(true),
        )
        .unwrap();
        // Outside with satp.S clear (before boot finishes): allowed.
        pmp.check(
            PhysAddr::new(0x8000_0000),
            AccessKind::Read,
            Channel::Ptw,
            AccessContext::supervisor(false),
        )
        .unwrap();
        // Outside with satp.S set: access fault.
        let err = pmp
            .check(
                PhysAddr::new(0x8000_0000),
                AccessKind::Read,
                Channel::Ptw,
                AccessContext::supervisor(true),
            )
            .unwrap_err();
        assert_eq!(
            err,
            AccessError::PtwOutsideRegion {
                addr: PhysAddr::new(0x8000_0000)
            }
        );
    }

    #[test]
    fn region_boundaries_are_exact() {
        let (pmp, region) = unit_with_region(0xFC00_0000, 64 * MIB);
        let ctx = AccessContext::supervisor(true);
        // One byte below the base is outside.
        assert!(pmp
            .check(region.base() - 1, AccessKind::Read, Channel::Regular, ctx)
            .is_ok());
        // The base itself is inside.
        assert!(pmp
            .check(region.base(), AccessKind::Read, Channel::Regular, ctx)
            .is_err());
        // The end is outside (half-open interval).
        assert!(pmp
            .check(region.end(), AccessKind::Read, Channel::Regular, ctx)
            .is_ok());
        assert!(pmp
            .check(region.end() - 1, AccessKind::Read, Channel::Regular, ctx)
            .is_err());
    }

    #[test]
    fn update_moves_boundary_atomically() {
        let (mut pmp, region) = unit_with_region(0xFC00_0000, 64 * MIB);
        let grown = region.grow_down(16 * MIB).unwrap();
        pmp.update_secure_region(&grown).unwrap();
        assert_eq!(pmp.secure_region(), Some(grown));
        let ctx = AccessContext::supervisor(true);
        // The newly absorbed pages are now secure.
        assert!(pmp
            .check(
                PhysAddr::new(0xFB00_0000),
                AccessKind::Write,
                Channel::Regular,
                ctx
            )
            .is_err());
        assert!(pmp
            .check(
                PhysAddr::new(0xFB00_0000),
                AccessKind::Write,
                Channel::SecurePt,
                ctx
            )
            .is_ok());
    }

    #[test]
    fn install_requires_free_pair() {
        let mut pmp = PmpUnit::new();
        // Fill every entry with NA4 so no pair is free.
        for i in 0..PMP_ENTRY_COUNT {
            pmp.set_entry(
                i,
                PmpEntry {
                    cfg: PmpPermissions::new()
                        .with_read()
                        .with_mode(PmpAddressMode::Na4),
                    addr: (0x1000 + 4 * i as u64) >> 2,
                },
            );
        }
        let region = SecureRegion::new(PhysAddr::new(0x10000), PAGE_SIZE).unwrap();
        assert_eq!(
            pmp.install_secure_region(&region),
            Err(RegionError::NoPmpEntry)
        );
    }

    #[test]
    fn napot_matching() {
        let mut pmp = PmpUnit::new();
        // NAPOT region: 0x2000..0x4000 (8 KiB) -> pmpaddr = 0x2000/4 | (8192/8 - 1)
        pmp.set_entry(
            0,
            PmpEntry {
                cfg: PmpPermissions::new()
                    .with_read()
                    .with_mode(PmpAddressMode::Napot),
                addr: (0x2000 >> 2) | ((8192 >> 3) - 1),
            },
        );
        let ctx = AccessContext::supervisor(false);
        // Read allowed, write denied by R-only perms.
        pmp.check(
            PhysAddr::new(0x2000),
            AccessKind::Read,
            Channel::Regular,
            ctx,
        )
        .unwrap();
        assert!(pmp
            .check(
                PhysAddr::new(0x3ffc),
                AccessKind::Write,
                Channel::Regular,
                ctx
            )
            .is_err());
        // Outside the NAPOT range: unmatched -> allowed.
        pmp.check(
            PhysAddr::new(0x4000),
            AccessKind::Write,
            Channel::Regular,
            ctx,
        )
        .unwrap();
    }

    #[test]
    fn machine_mode_bypasses_unlocked_entries_only() {
        let mut pmp = PmpUnit::new();
        pmp.set_entry(
            0,
            PmpEntry {
                cfg: PmpPermissions::new().with_mode(PmpAddressMode::Napot), // no perms
                addr: (0x2000 >> 2) | ((8192 >> 3) - 1),
            },
        );
        let addr = PhysAddr::new(0x2000);
        // M-mode sails through an unlocked entry.
        pmp.check(
            addr,
            AccessKind::Write,
            Channel::Regular,
            AccessContext::machine(),
        )
        .unwrap();
        // Lock it: now M-mode is constrained too.
        let locked = PmpEntry {
            cfg: PmpPermissions::from_bits(PmpPermissions::L).with_mode(PmpAddressMode::Napot),
            addr: (0x2000 >> 2) | ((8192 >> 3) - 1),
        };
        pmp.set_entry(0, locked);
        assert!(pmp
            .check(
                addr,
                AccessKind::Write,
                Channel::Regular,
                AccessContext::machine()
            )
            .is_err());
        // S-mode was always constrained.
        assert!(pmp
            .check(
                addr,
                AccessKind::Write,
                Channel::Regular,
                AccessContext::supervisor(false)
            )
            .is_err());
    }

    #[test]
    fn secure_region_rw_bits_still_apply_to_secure_channel() {
        // Install a read-only secure region manually: sd.pt must be denied.
        let mut pmp = PmpUnit::new();
        let region = SecureRegion::new(PhysAddr::new(0x10000), PAGE_SIZE).unwrap();
        pmp.install_secure_region(&region).unwrap();
        let tor = pmp.secure_region().unwrap();
        assert_eq!(tor, region);
        // Strip the W bit from the TOR entry.
        let e = pmp.entry(1);
        pmp.set_entry(
            1,
            PmpEntry {
                cfg: PmpPermissions::from_bits(e.cfg.bits() & !0b010),
                addr: e.addr,
            },
        );
        let ctx = AccessContext::supervisor(true);
        pmp.check(region.base(), AccessKind::Read, Channel::SecurePt, ctx)
            .unwrap();
        assert!(matches!(
            pmp.check(region.base(), AccessKind::Write, Channel::SecurePt, ctx),
            Err(AccessError::PmpDenied { .. })
        ));
    }

    #[test]
    fn napot_with_every_address_bit_set_covers_the_whole_space() {
        let mut pmp = PmpUnit::new();
        let cfg = PmpPermissions::new()
            .with_read()
            .with_mode(PmpAddressMode::Napot);
        pmp.set_entry(
            0,
            PmpEntry {
                cfg,
                addr: u64::MAX,
            },
        );
        assert_eq!(pmp.entry(0).addr, PMPADDR_MASK);
        let ctx = AccessContext::supervisor(false);
        for a in [0, (1 << 56) - 8] {
            let addr = PhysAddr::new(a);
            assert!(pmp
                .check(addr, AccessKind::Read, Channel::Regular, ctx)
                .is_ok());
            assert!(matches!(
                pmp.check(addr, AccessKind::Write, Channel::Regular, ctx),
                Err(AccessError::PmpDenied { .. })
            ));
            let run = pmp.decide_run(addr, PAGE_SIZE, AccessKind::Write, Channel::Regular, ctx);
            assert_eq!((run.len, run.entry), (PAGE_SIZE, Some(0)));
        }
    }

    #[test]
    fn a_run_ends_where_its_entry_ends_or_a_higher_priority_entry_begins() {
        let (mut pmp, region) = unit_with_region(0x10000, 4 * PAGE_SIZE);
        // A read-only NA4 at index 2, below the secure TOR pair (0, 1) in
        // priority, and one at index 3 inside the secure region: shadowed.
        let na4 = |a: u64| PmpEntry {
            cfg: PmpPermissions::new()
                .with_read()
                .with_mode(PmpAddressMode::Na4),
            addr: a >> 2,
        };
        pmp.set_entry(2, na4(0xf000 + 0x40));
        pmp.set_entry(3, na4(0x10000 + 0x40));
        let ctx = AccessContext::supervisor(true);
        let run = |a: u64, len: u64| {
            pmp.decide_run(
                PhysAddr::new(a),
                len,
                AccessKind::Write,
                Channel::Regular,
                ctx,
            )
        };
        // Unmatched up to the NA4, which decides exactly four bytes.
        assert_eq!(
            (run(0xf000, PAGE_SIZE).len, run(0xf000, PAGE_SIZE).entry),
            (0x40, None)
        );
        let denied = run(0xf040, PAGE_SIZE);
        assert_eq!((denied.len, denied.entry), (4, Some(2)));
        assert!(matches!(denied.verdict, Err(AccessError::PmpDenied { .. })));
        // From after the NA4 to the secure region's base.
        assert_eq!(run(0xf044, 2 * PAGE_SIZE).len, 0x10000 - 0xf044);
        // The secure TOR outranks the NA4 inside it, to its end.
        let secure = run(region.base().as_u64(), 8 * PAGE_SIZE);
        assert_eq!((secure.len, secure.entry), (4 * PAGE_SIZE, Some(1)));
        assert!(matches!(
            secure.verdict,
            Err(AccessError::SecureRegionDenied { .. })
        ));
        // A run never outgrows its range, and is never empty.
        assert_eq!(run(0x20000, 24).len, 24);
        assert_eq!(run(0x20000, 0).len, 1);
    }

    #[test]
    fn display_lists_active_entries() {
        let (pmp, _) = unit_with_region(0xFC00_0000, 64 * MIB);
        let s = pmp.to_string();
        assert!(s.contains("[1]"));
        assert!(s.contains('s'));
    }
}
