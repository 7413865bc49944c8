//! # ptstore-mem
//!
//! The physical memory substrate of the PTStore machine model.
//!
//! * [`frame::Frame`] — one 4 KiB physical frame with an adaptive backing
//!   (zero / sparse listing of its non-zero words / dense bytes) so that
//!   simulating a 4 GiB DDR3 SO-DIMM (paper Table II) with tens of
//!   thousands of processes stays cheap.
//! * [`phys::PhysMem`] — the frame store with byte/word accessors.
//! * [`bus::Bus`] — the memory bus: every access carries a
//!   [`Channel`](ptstore_core::Channel) and is checked by the
//!   [`PmpUnit`](ptstore_core::PmpUnit) *before* it reaches memory, exactly as
//!   the modified BOOM core denies illegal accesses with an access fault
//!   (paper §IV-A1).
//! * [`stats::AccessStats`] — per-channel access counters used by the cycle
//!   model and by the evaluation harness.

#![deny(missing_docs)]

pub mod bus;
pub mod frame;
pub mod phys;
pub mod stats;

pub use bus::{Bus, BusData};
pub use frame::{Frame, PAGE_WORDS};
pub use phys::PhysMem;
pub use ptstore_trace::Snapshot;
pub use stats::AccessStats;
