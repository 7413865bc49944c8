//! # ptstore-modelcheck — exhaustive bounded model checking of the security core
//!
//! The fuzz campaign (`ptstore-fault::campaign`) samples the attack surface;
//! this crate *enumerates* it. A miniature machine — 64 MiB of physical
//! memory, 1–2 harts, one worker process per hart — is driven through every
//! interleaving of a small deterministic operation alphabet
//! ([`ModelOp`](ptstore_fault::ModelOp)): fork/exit churn,
//! mmap/munmap/mprotect, CoW breaks, secure-region adjustment, token
//! re-validation, deferred-drain flushes, and five attacker primitives
//! (PTE flips through the regular channel, rogue PMP requests, `satp`
//! corruption, token forging, dropped shootdown IPIs), each the same body
//! the campaign fires, with fixed choices in place of its rng draws.
//!
//! The search is a breadth-first enumeration with canonical state hashing:
//!
//! * [`canon`] walks a kernel's canonical fields — secure region, PMP
//!   entry file, allocation cursors, per-hart MMU/queue state with sorted
//!   TLB entries, the process table in pid order with the raw
//!   (attacker-writable) PCB credential words, the non-zero words of every
//!   reachable page-table page, and the buddy/slab free-structure — and
//!   feeds each field's derived `Hash` into a hasher that takes each
//!   integer as one 64-bit word. Two states with equal canonical fields
//!   behave identically under every future op, so BFS dedups on the
//!   digest.
//! * [`explore()`] replays each frontier state once from a fresh boot,
//!   applies each op of the alphabet to a clone of that machine, runs the
//!   machine-wide invariant oracle
//!   ([`Invariants::check`](ptstore_fault::Invariants)) on every
//!   successor, and dedups. Expansion fans out across host threads, one
//!   frontier state per work item, with results merged in submission
//!   order, so reports are byte-identical regardless of `--jobs`.
//!
//! With every defense enabled the search terminates with **zero violations
//! in every reachable state** — the bounded-exhaustive counterpart of the
//! paper's §V case analysis. Ablating a single check
//! ([`Ablation`]) instead produces a [`Counterexample`]: the shortest op
//! sequence reaching a violating state (BFS order guarantees minimal
//! length), re-validated op-drop by op-drop through
//! [`replay_trace`](ptstore_fault::replay_trace) so the printed trace is
//! replayable by construction.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use core::fmt;

pub mod canon;
pub mod explore;

pub use explore::{
    explore, parse_op_kinds, Ablation, Counterexample, ExploreReport, McConfig, OpKind,
};

/// The outcome of one bounded model-checking run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelVerdict {
    /// Every state reachable within the depth bound satisfies every
    /// invariant (bounded verification — the defended configuration).
    Verified,
    /// A reachable state violates an invariant; the report carries a
    /// minimal, replayable [`Counterexample`].
    Falsified,
    /// The state cap was hit before the depth bound was exhausted: no
    /// violation found, but coverage of the bound is incomplete.
    Truncated,
}

impl fmt::Display for ModelVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ModelVerdict::Verified => "VERIFIED",
            ModelVerdict::Falsified => "FALSIFIED",
            ModelVerdict::Truncated => "TRUNCATED",
        })
    }
}
