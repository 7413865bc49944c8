//! # ptstore-trace — cross-layer decision tracing
//!
//! The paper's security argument rests on *where* each access was decided:
//! which PMP entry matched, which channel the access used, where a
//! page-table walk fetched from, and which check finally rejected an
//! attack. This crate is the forensic layer that keeps that provenance.
//!
//! It deliberately sits at the **bottom** of the workspace dependency
//! graph (it depends on nothing but the serde markers), so every other
//! layer — `ptstore-core`'s PMP, `ptstore-mem`'s bus, `ptstore-mmu`'s
//! walker and TLBs, and `ptstore-kernel`'s token/syscall/SBI paths — can
//! hold an optional [`TraceSink`] handle in a [`SinkSlot`] (which a
//! cloned layer does not inherit) and emit [`TraceEvent`]s through it.
//! Events therefore describe hardware facts in primitive terms (addresses
//! as `u64`, channels/kinds as local tags) rather than referencing
//! upper-layer types.
//!
//! ## Zero overhead when disabled
//!
//! A disabled sink is `Option::None` at every emit site; the only cost is
//! one branch and no allocation. Cycle accounting is never touched:
//! tracing observes the machine, it does not run on it.
//!
//! ## Reading a trace
//!
//! ```
//! use ptstore_trace::{Chan, TraceEvent, TraceSink, Verdict};
//!
//! let sink = TraceSink::new();
//! // (normally the kernel emits; this is what a denied PT write looks like)
//! sink.emit(TraceEvent::PmpCheck {
//!     addr: 0x8000_1000,
//!     kind: ptstore_trace::Access::Write,
//!     channel: Chan::Regular,
//!     entry: Some(1),
//!     verdict: Verdict::SecureRegionDenied,
//! });
//! let events = sink.events();
//! assert_eq!(
//!     events.last().unwrap().rejecting_layer(),
//!     Some(ptstore_trace::RejectingLayer::PmpSBit)
//! );
//! assert_eq!(sink.counters().pmp_denials, 1);
//! ```

#![deny(missing_docs)]

mod counters;
mod event;
pub mod json;
mod sink;
mod snapshot;

pub use counters::TraceCounters;
pub use event::{
    Access, Chan, FaultClass, FlushScope, Layer, RejectingLayer, TlbUnit, TokenOp, TraceEvent,
    Verdict,
};
pub use sink::{SinkSlot, TraceBuffer, TraceSink, DEFAULT_CAPACITY};
pub use snapshot::Snapshot;
