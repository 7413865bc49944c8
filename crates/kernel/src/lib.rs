//! # ptstore-kernel
//!
//! A miniature Unix-like kernel — the software half of the PTStore co-design
//! (paper §IV-B, §IV-C) — running against the simulated machine from
//! `ptstore-mem`/`ptstore-mmu`:
//!
//! * **Zones & buddy allocator** ([`zones`]): a `Normal` zone plus the
//!   **PTStore zone** at high physical addresses, reached via the
//!   `GFP_PTSTORE` flag (§IV-C1).
//! * **Dynamic secure-region adjustment** ([`Kernel::adjust_secure_region`]):
//!   `alloc_contig_range` next to the boundary, migrate, release to the
//!   PTStore zone, move the PMP boundary through the SBI (§IV-C1).
//! * **Slab allocator** ([`slab`]): including the token cache whose
//!   constructor zero-initialises tokens (§IV-C3).
//! * **Page-table manipulation** through the defense-appropriate channel —
//!   `sd.pt`/`ld.pt` under PTStore (§IV-C2) — plus a zero-check on fresh
//!   page-table pages (§V-E3).
//! * **Process management & tokens** ([`proc_mgmt`], `token_*` on
//!   [`Kernel`]): tokens are issued at creation, copied on legitimate
//!   page-table-pointer copies, cleared at destruction, and validated before
//!   every `satp` update (§III-C3, §IV-C4).
//! * **Syscalls** ([`syscall`]) with Clang-CFI cost accounting, a tiny VFS
//!   ([`fs`]), demand paging with CoW, and a round-robin scheduler.
//! * **SMP harts** ([`hart`]): N-hart machines with per-hart MMU/TLBs, run
//!   queues with idle stealing, per-hart mailboxes of cross-hart messages
//!   in the order they were posted, and a modeled IPI/TLB-shootdown path
//!   (`Kernel::shootdown`) charged to the cycle model; `harts = 1`
//!   reproduces the single-hart prototype cycle-for-cycle.
//! * **Process table** ([`process::ProcessTable`]): one pid-indexed vector.
//!   Pids are never reused, so a pid is the process handle: lookup is one
//!   index, and a reaped pid resolves to nothing.
//! * **Baseline defenses** for comparison: PT-Rand-style randomisation and
//!   virtual isolation ([`config::DefenseMode`]).
//! * **An attacker API** ([`introspect`]) implementing the §III-A threat
//!   model: arbitrary kernel-VA read/write via regular instructions.
//!
//! ```
//! use ptstore_kernel::{Kernel, KernelConfig};
//! use ptstore_core::MIB;
//!
//! # fn main() -> Result<(), ptstore_kernel::KernelError> {
//! let mut k = Kernel::boot(
//!     KernelConfig::cfi_ptstore()
//!         .with_mem_size(256 * MIB)
//!         .with_initial_secure_size(16 * MIB),
//! )?;
//! let child = k.sys_fork()?;
//! assert!(child > 1);
//! # Ok(())
//! # }
//! ```

// A replaced page-table entry's `channel::Flush` may be neither dropped
// nor discarded with `let _ =`.
#![deny(unused_must_use, clippy::let_underscore_must_use)]
// Kernel code returns a `KernelError` instead of panicking; a site that
// must panic says why in an `#[expect(.., reason = "..")]`. Tests may
// unwrap (`crates/kernel/clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod channel;
pub mod config;
pub mod cycles;
pub mod drain;
pub mod error;
pub mod fs;
pub mod hart;
pub mod introspect;
pub mod kernel;
pub mod pagetable;
pub mod proc_mgmt;
pub mod process;
pub mod sbi;
pub mod slab;
pub mod stats;
pub mod syscall;
pub mod zones;

pub use config::{ConfigError, DefenseMode, KernelConfig, KernelConfigBuilder};
pub use cycles::{cost, CostKind, CycleCounter};
pub use drain::{DrainFault, DrainPolicy, DrainPolicyParseError, DEFAULT_WATERMARK_DEPTH};
pub use error::KernelError;
pub use hart::{Hart, HartMsg, HartMsgKind};
pub use introspect::AttackerFault;
pub use kernel::{IpiFault, Kernel};
pub use proc_mgmt::FaultResolution;
pub use process::{Pid, ProcHandle, ProcState, ProcessTable, TableError};
pub use ptstore_trace::Snapshot;
pub use sbi::{SbiCall, SbiError, SbiFirmware, SbiResult};
pub use stats::{KernelStats, SecurityEvent};
pub use syscall::{profile, SyscallProfile};
pub use zones::GfpFlags;
