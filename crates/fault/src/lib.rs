//! # ptstore-fault — fault injection, invariant oracle, fuzz campaigns
//!
//! The paper's security argument (§V) is a case analysis: every way an
//! attacker can reach for the page tables is intercepted by a named layer
//! of the mechanism — the PMP S-bit, the dedicated `ld.pt`/`sd.pt`
//! channel, the PTW origin check, or token validation. This crate turns
//! that case analysis into an executable, adversarial test harness with
//! three parts:
//!
//! * **[`inject`]** — the fault primitives and the campaign's seeded
//!   [`FaultPlan`]s. Each [`FaultClass`] models one way the
//!   mechanism can be attacked or can mis-operate: PTE bit flips through
//!   the regular channel, rogue PMP CSR (SBI) requests, corrupted `satp`
//!   roots, dropped or reordered TLB-shootdown IPIs, PTStore-zone
//!   exhaustion mid-`fork`, forged tokens, and drain-machinery faults (a
//!   queued remote invalidation silently discarded before its batched
//!   drain, or a watermark-triggered early drain skipped whole). A plan
//!   fixes the site (hart, process) and trigger condition (cycle count,
//!   Nth bus access, trace-counter predicate); [`FaultPlan::fire`] draws
//!   the remaining choices (PTE slot and bit, forgery victim) from the
//!   run's rng. Faults are injected through the same architectural paths
//!   an attacker would use, so the modeled hardware gets to adjudicate
//!   them, and a denied fault restores what it set up itself.
//!
//! * **[`oracle`]** — a machine-wide invariant oracle
//!   ([`Invariants::check`]) verifying, from raw (DRAM's-eye) state: every
//!   reachable page-table page lives inside the secure region and is
//!   tracked by its owner; each hart's `satp` root matches the address
//!   space of the process it runs and its token binding holds; the PMP
//!   mirrors the kernel's view of the region; no TLB entry grants
//!   user access to page-table storage; and no user TLB entry caches a
//!   translation the live page tables no longer back (unless its
//!   invalidation is still queued for a deferred drain).
//!
//! * **[`campaign`]** — a seeded randomized campaign driver
//!   ([`run_campaign`]): N runs, each booting a fresh kernel, running a
//!   seeded syscall workload across H harts, injecting exactly one fault,
//!   and classifying the run as *detected-and-contained*, *benign*, or
//!   *invariant-violated*. With the full mechanism enabled the violated
//!   count is zero by construction; disabling any single check via the
//!   [`KernelConfig`](ptstore_kernel::KernelConfig) ablation switches
//!   flips its fault class to *invariant-violated*.
//!
//! * **[`mod@replay`]** — a deterministic op-sequence replay layer: the
//!   model checker's operation alphabet ([`ModelOp`]) pairing kernel ops
//!   with five of the attacker primitives above — the same bodies the
//!   campaign fires, with fixed choices in place of its rng draws — plus
//!   [`replay_trace`], which re-executes a printed counterexample on a
//!   fresh machine and re-asserts the oracle verdict. `ptstore-modelcheck`
//!   builds its bounded exhaustive search on top.
//!
//! ```
//! use ptstore_fault::{run_campaign, CampaignConfig, RunClass};
//!
//! let report = run_campaign(&CampaignConfig::quick(7, 7, 2));
//! assert_eq!(report.count(RunClass::InvariantViolated), 0);
//! ```

#![deny(missing_docs)]

pub mod campaign;
pub mod inject;
pub mod oracle;
pub mod replay;

pub use campaign::{run_campaign, run_one, CampaignConfig, CampaignReport, RunClass, RunResult};
pub use inject::{DetectedBy, FaultPlan, InjectOutcome, Trigger};
pub use oracle::{known_pt_pages, InvariantReport, Invariants, Violation};
pub use ptstore_trace::FaultClass;
pub use replay::{apply, boot_model, format_trace, replay, replay_trace, ModelOp, OpOutcome};
