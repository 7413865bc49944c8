//! # ptstore-core
//!
//! The primary contribution of *PTStore: Lightweight Architectural Support for
//! Page Table Isolation* (DAC 2023), as an executable Rust model.
//!
//! PTStore consists of four architectural pieces, all defined in this crate:
//!
//! 1. A hardware-enforced contiguous **secure region** of physical memory,
//!    identified by a new **S-bit** added to each PMP entry ([`pmp::PmpUnit`],
//!    [`region::SecureRegion`]).
//! 2. A pair of dedicated load/store instructions (`ld.pt` / `sd.pt`) that are
//!    the *only* instructions permitted to access the secure region. In the
//!    model every memory access carries a [`channel::Channel`] identifying
//!    which path issued it.
//! 3. A **page-table-walker origin check**: when enabled via the new S-bit in
//!    the `satp` CSR, the PTW only fetches page tables from the secure region
//!    ([`policy`]).
//! 4. A **token mechanism** binding each process's page-table pointer to its
//!    process control block, defeating page-table reuse attacks
//!    ([`token::Token`]).
//!
//! The central decision procedure is [`policy::check_access`]; the memory bus
//! in `ptstore-mem` routes every simulated access through it.
//!
//! ```
//! use ptstore_core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pmp = PmpUnit::new();
//! let region = SecureRegion::new(PhysAddr::new(0x8000_0000), 64 * MIB)?;
//! pmp.install_secure_region(&region)?;
//!
//! // A regular store into the secure region is denied...
//! let ctx = AccessContext::supervisor(true);
//! assert!(pmp
//!     .check(PhysAddr::new(0x8000_0100), AccessKind::Write, Channel::Regular, ctx)
//!     .is_err());
//! // ...while the dedicated `sd.pt` channel is granted.
//! pmp.check(PhysAddr::new(0x8000_0100), AccessKind::Write, Channel::SecurePt, ctx)?;
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod addr;
pub mod channel;
pub mod digest;
pub mod error;
pub mod fastpath;
pub mod paging;
pub mod pmp;
pub mod policy;
pub mod pool;
pub mod privilege;
pub mod region;
pub mod token;

pub use addr::{
    PhysAddr, PhysPageNum, VirtAddr, VirtPageNum, GIB, KIB, MIB, PAGE_SHIFT, PAGE_SIZE,
};
pub use channel::{AccessKind, Channel};
pub use digest::Fnv1a;
pub use error::{AccessError, RegionError, TokenError};
pub use paging::{PageSize, PagingMetaData, PagingScheme, Sv39, Sv48, Sv57};
pub use pmp::{AccessContext, PmpAddressMode, PmpEntry, PmpPermissions, PmpUnit, PMP_ENTRY_COUNT};
pub use policy::{check_access, AccessDecision};
pub use privilege::PrivilegeMode;
pub use region::SecureRegion;
pub use token::{Token, TOKEN_SIZE};

/// Convenient glob import of the types needed to assemble a PTStore machine.
pub mod prelude {
    pub use crate::addr::{PhysAddr, PhysPageNum, VirtAddr, VirtPageNum, GIB, KIB, MIB, PAGE_SIZE};
    pub use crate::channel::{AccessKind, Channel};
    pub use crate::error::{AccessError, RegionError, TokenError};
    pub use crate::paging::{PageSize, PagingMetaData, PagingScheme};
    pub use crate::pmp::{AccessContext, PmpPermissions, PmpUnit};
    pub use crate::privilege::PrivilegeMode;
    pub use crate::region::SecureRegion;
    pub use crate::token::Token;
}
