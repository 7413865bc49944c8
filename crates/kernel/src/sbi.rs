//! The PTStore SBI extension (paper §IV-B).
//!
//! In the RISC-V privilege model only M-mode may touch the `pmpcfg` CSRs, so
//! the S-mode kernel manages the secure region through three new SBI
//! functions: **initialize**, **get**, and **set** the region boundary. This
//! module is the M-mode firmware side: it owns the authority over the PMP
//! and validates every request before committing it — the kernel (even a
//! compromised one) cannot move the boundary arbitrarily, only grow the
//! region contiguously downward.

use core::fmt;

use ptstore_core::{PhysAddr, SecureRegion, PAGE_SIZE};
use ptstore_mem::Bus;

/// The PTStore SBI function set (extension-specific calls the kernel makes
/// with `ecall` from S-mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbiCall {
    /// `sbi_ptstore_init(base, size)` — one-shot installation at boot.
    SecureRegionInit {
        /// Region base (page-aligned).
        base: PhysAddr,
        /// Region size in bytes (page multiple).
        size: u64,
    },
    /// `sbi_ptstore_get()` — query the current boundary.
    SecureRegionGet,
    /// `sbi_ptstore_set(new_base)` — move the base boundary downward
    /// (dynamic adjustment; the end is immutable).
    SecureRegionSet {
        /// The new, lower base.
        new_base: PhysAddr,
    },
}

/// SBI return values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbiResult {
    /// Success with no payload.
    Ok,
    /// The current region boundary.
    Region {
        /// Region base.
        base: PhysAddr,
        /// Region size in bytes.
        size: u64,
    },
    /// The call was rejected.
    Err(SbiError),
}

/// Why the firmware rejected a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbiError {
    /// `init` called twice.
    AlreadyInitialised,
    /// `get`/`set` before `init`.
    NotInitialised,
    /// Bad alignment or geometry.
    InvalidParam,
    /// `set` tried to move the boundary upward (shrinking the region would
    /// expose page tables to regular instructions).
    WouldShrink,
    /// No PMP entry available.
    NoResources,
}

impl fmt::Display for SbiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SbiError::AlreadyInitialised => "secure region already initialised",
            SbiError::NotInitialised => "secure region not initialised",
            SbiError::InvalidParam => "invalid parameter",
            SbiError::WouldShrink => "boundary may only move downward",
            SbiError::NoResources => "no free pmp entry",
        })
    }
}

impl std::error::Error for SbiError {}

/// The M-mode firmware state backing the SBI extension.
#[derive(Debug, Clone, Default)]
pub struct SbiFirmware {
    region: Option<SecureRegion>,
}

impl SbiFirmware {
    /// Fresh firmware with no region installed.
    pub fn new() -> Self {
        Self::default()
    }

    /// The firmware's view of the region.
    pub fn region(&self) -> Option<SecureRegion> {
        self.region
    }

    /// Handles one SBI call against the machine's PMP.
    pub fn handle(&mut self, bus: &mut Bus, call: SbiCall) -> SbiResult {
        match call {
            SbiCall::SecureRegionInit { base, size } => {
                if self.region.is_some() {
                    return SbiResult::Err(SbiError::AlreadyInitialised);
                }
                let region = match SecureRegion::new(base, size) {
                    Ok(r) => r,
                    Err(_) => return SbiResult::Err(SbiError::InvalidParam),
                };
                #[expect(
                    clippy::disallowed_methods,
                    reason = "M-mode firmware programming the PMP at secure-region bring-up \
                              (§IV-B); the reference monitor sits below the S-mode channel \
                              discipline"
                )]
                let installed = bus.install_secure_region(&region);
                match installed {
                    Ok(()) => {
                        self.region = Some(region);
                        SbiResult::Ok
                    }
                    Err(_) => SbiResult::Err(SbiError::NoResources),
                }
            }
            SbiCall::SecureRegionGet => match self.region {
                Some(r) => SbiResult::Region {
                    base: r.base(),
                    size: r.size(),
                },
                None => SbiResult::Err(SbiError::NotInitialised),
            },
            SbiCall::SecureRegionSet { new_base } => {
                let Some(current) = self.region else {
                    return SbiResult::Err(SbiError::NotInitialised);
                };
                if !new_base.is_aligned(PAGE_SIZE) {
                    return SbiResult::Err(SbiError::InvalidParam);
                }
                if new_base > current.base() {
                    return SbiResult::Err(SbiError::WouldShrink);
                }
                let grown = match current.with_base(new_base) {
                    Ok(r) => r,
                    Err(_) => return SbiResult::Err(SbiError::InvalidParam),
                };
                #[expect(
                    clippy::disallowed_methods,
                    reason = "M-mode firmware moving the validated PMP boundary (§IV-C1 \
                              adjustment); only downward moves reach this arm"
                )]
                let updated = bus.update_secure_region(&grown);
                match updated {
                    Ok(()) => {
                        self.region = Some(grown);
                        SbiResult::Ok
                    }
                    Err(_) => SbiResult::Err(SbiError::NoResources),
                }
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "probes the PMP with a raw regular store, as an attacker would"
)]
mod tests {
    use super::*;
    use ptstore_core::{AccessContext, Channel, MIB};

    fn bus() -> Bus {
        Bus::new(256 * MIB)
    }

    #[test]
    fn init_get_set_lifecycle() {
        let mut bus = bus();
        let mut fw = SbiFirmware::new();
        // get before init fails.
        assert_eq!(
            fw.handle(&mut bus, SbiCall::SecureRegionGet),
            SbiResult::Err(SbiError::NotInitialised)
        );
        // init.
        assert_eq!(
            fw.handle(
                &mut bus,
                SbiCall::SecureRegionInit {
                    base: PhysAddr::new(192 * MIB),
                    size: 64 * MIB,
                }
            ),
            SbiResult::Ok
        );
        // get reflects it.
        assert_eq!(
            fw.handle(&mut bus, SbiCall::SecureRegionGet),
            SbiResult::Region {
                base: PhysAddr::new(192 * MIB),
                size: 64 * MIB
            }
        );
        // set grows downward.
        assert_eq!(
            fw.handle(
                &mut bus,
                SbiCall::SecureRegionSet {
                    new_base: PhysAddr::new(176 * MIB)
                }
            ),
            SbiResult::Ok
        );
        assert_eq!(
            bus.secure_region().expect("installed").base(),
            PhysAddr::new(176 * MIB)
        );
    }

    #[test]
    fn double_init_rejected() {
        let mut bus = bus();
        let mut fw = SbiFirmware::new();
        let init = SbiCall::SecureRegionInit {
            base: PhysAddr::new(192 * MIB),
            size: 64 * MIB,
        };
        assert_eq!(fw.handle(&mut bus, init), SbiResult::Ok);
        assert_eq!(
            fw.handle(&mut bus, init),
            SbiResult::Err(SbiError::AlreadyInitialised)
        );
    }

    #[test]
    fn firmware_refuses_to_shrink() {
        // Security property: even a compromised kernel cannot use the SBI to
        // *shrink* the region and expose page tables.
        let mut bus = bus();
        let mut fw = SbiFirmware::new();
        fw.handle(
            &mut bus,
            SbiCall::SecureRegionInit {
                base: PhysAddr::new(192 * MIB),
                size: 64 * MIB,
            },
        );
        assert_eq!(
            fw.handle(
                &mut bus,
                SbiCall::SecureRegionSet {
                    new_base: PhysAddr::new(200 * MIB)
                }
            ),
            SbiResult::Err(SbiError::WouldShrink)
        );
        // And the PMP still protects the original extent.
        let ctx = AccessContext::supervisor(true);
        assert!(bus
            .write::<u64>(PhysAddr::new(193 * MIB), 0, Channel::Regular, ctx)
            .is_err());
    }

    #[test]
    fn unaligned_set_rejected() {
        let mut bus = bus();
        let mut fw = SbiFirmware::new();
        fw.handle(
            &mut bus,
            SbiCall::SecureRegionInit {
                base: PhysAddr::new(192 * MIB),
                size: 64 * MIB,
            },
        );
        assert_eq!(
            fw.handle(
                &mut bus,
                SbiCall::SecureRegionSet {
                    new_base: PhysAddr::new(192 * MIB - 123)
                }
            ),
            SbiResult::Err(SbiError::InvalidParam)
        );
    }

    #[test]
    fn bad_geometry_rejected_at_init() {
        let mut bus = bus();
        let mut fw = SbiFirmware::new();
        assert_eq!(
            fw.handle(
                &mut bus,
                SbiCall::SecureRegionInit {
                    base: PhysAddr::new(192 * MIB + 7),
                    size: 64 * MIB,
                }
            ),
            SbiResult::Err(SbiError::InvalidParam)
        );
    }
}
