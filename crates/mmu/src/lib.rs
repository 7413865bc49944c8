//! # ptstore-mmu
//!
//! The memory-management unit of the PTStore machine model, for whichever
//! RV64 paging scheme (Sv39/Sv48/Sv57) the `satp` MODE field selects — see
//! [`ptstore_core::PagingScheme`]:
//!
//! * [`pte::Pte`] — RV64 page-table entries (one format across schemes);
//! * [`walker::walk`] — the one page-table descent: from a root toward a
//!   VA between a top and a floor level, stopping at the first entry that
//!   is not a table pointer. Its only parameter is the handler that reads
//!   an entry, so the hardware walker, the kernel's table lookups and the
//!   invariant oracle all walk the same way; [`walker::table_entries`] is
//!   the one raw scan over a table page, its non-zero entries read from
//!   DRAM at once;
//! * [`satp::Satp`] — the `satp` CSR extended with PTStore's **S-bit**
//!   (paper §IV-A1) that arms the walker's secure-region origin check;
//! * [`walker::PageTableWalker`] — the hardware page-table walker: [`walk`]
//!   with a handler that fetches every entry through the memory bus on the
//!   [`Channel::Ptw`](ptstore_core::Channel) channel, so when `satp.S` is
//!   set, a fetch outside the secure region raises an access fault — this is
//!   what defeats PT-Injection;
//! * [`tlb::Tlb`] — the I/D TLBs (32-/8-entry per paper Table II), caching
//!   superpage leaves as single span entries. TLB hits use *cached*
//!   permissions, faithfully reproducing the TLB-inconsistency
//!   attack surface of §V-E5; PTStore still blocks those attacks because the
//!   PMP check happens on the physical access itself.
//! * [`mmu::Mmu`] — TLBs + walker behind one `translate` entry point with
//!   hit/miss statistics.
//!
//! ```
//! use ptstore_mmu::Satp;
//! use ptstore_core::{PagingScheme, PhysPageNum};
//!
//! // The satp CSR round-trips with the mode and PTStore S-bit intact.
//! let satp = Satp::new(PagingScheme::Sv48, PhysPageNum::new(0x80000), 3, true);
//! let decoded = Satp::from_bits(satp.to_bits());
//! assert_eq!(decoded.scheme, Some(PagingScheme::Sv48));
//! assert!(decoded.s_bit);
//! ```

#![deny(missing_docs)]

pub mod mmu;
pub mod pte;
pub mod satp;
pub mod tlb;
pub mod walker;

pub use mmu::{Mmu, TranslationOutcome};
pub use pte::{Pte, PteFlags};
pub use ptstore_trace::Snapshot;
pub use satp::Satp;
pub use tlb::{Tlb, TlbEntry, TlbStats};
pub use walker::{table_entries, walk, PageTableWalker, TranslateError, WalkOutcome};
