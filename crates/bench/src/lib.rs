//! # ptstore-bench
//!
//! Shared drivers behind the `reproduce` binary and the Criterion benches:
//! one function per table/figure of the paper, each returning structured
//! results so callers can print, assert, or benchmark them.

pub mod experiments;
mod par;

pub use experiments::*;
pub use ptstore_workloads::{Measurement, OverheadSeries};
