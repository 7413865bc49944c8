//! # ptstore-bench
//!
//! The drivers behind the `reproduce` binary: one function per table and
//! figure of the paper, each returning structured results so callers can
//! print or assert them.

pub mod experiments;
mod par;

pub use experiments::*;
pub use ptstore_workloads::{Measurement, OverheadSeries};
