//! Process-wide default switch for the host-side fast paths.
//!
//! The simulator carries two purely-host-side memoizations — the per-page
//! PMP decision cache ([`crate::pmp::PmpUnit`]) and the MMU's direct-mapped
//! micro-TLB — that change wall-clock speed but, by construction, never the
//! modeled cycles, statistics, or verdicts. This module holds the process
//! default consulted when such a unit is constructed, so a harness (e.g.
//! `reproduce --no-fast-path`) can disable every fast path at startup and
//! differential tests can pin fast-on vs fast-off runs against each other.
//! Individual units can still be toggled after construction via their
//! `set_fast_path` methods.

use std::sync::atomic::{AtomicBool, Ordering};

static DEFAULT_ENABLED: AtomicBool = AtomicBool::new(true);

/// Sets the process-wide default for newly constructed fast-path units.
pub fn set_default(enabled: bool) {
    DEFAULT_ENABLED.store(enabled, Ordering::SeqCst);
}

/// Whether newly constructed fast-path units start enabled.
pub fn default_enabled() -> bool {
    DEFAULT_ENABLED.load(Ordering::SeqCst)
}
