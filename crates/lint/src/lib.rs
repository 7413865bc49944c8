//! # ptstore-lint — the paper's LLVM pass, at source level
//!
//! PTStore's software support (§IV-C2) modifies the compiler so that every
//! kernel page-table accessor *must* emit `ld.pt`/`sd.pt` — the secure
//! channel cannot be bypassed by construction. The Rust model used to
//! enforce that contract only by convention; this crate makes it a checked
//! property of the source tree.
//!
//! It is a self-contained static analyzer (a hand-rolled lexer plus a
//! per-crate call graph — the offline build vendors no `syn` and the
//! analyzer deliberately takes no compiler-internals dependency) enforcing
//! four rules:
//!
//! | Rule | Guards |
//! |------|--------|
//! | `channel-confinement` | raw `Bus`/`PhysMem` access in `ptstore-kernel` confined to `src/channel.rs` (§IV-C2 channel discipline) |
//! | `shootdown-pairing`   | downgrade/invalidate `pt_write`s must reach `tlb_flush_page`/`tlb_flush_asid` or the batched `queue_flush_page`/`drain_deferred_flushes` API (SMP TLB coherence) |
//! | `allow-justification` | every `#[allow(...)]` carries a justification comment |
//! | `test-exhaustiveness` | every injector fault class / attack verdict / reject reason / oracle violation / model-check verdict variant is exercised by a test |
//!
//! Suppressions are explicit and audited:
//! `// ptstore-lint: allow(<rule>) — <justification>` above (or on) the
//! offending line; `// ptstore-lint: hazard(shootdown-pairing) — <why>`
//! conversely *tags* a PT write as a stale-TLB hazard the lexical
//! heuristics cannot see.
//!
//! Run it with `cargo run -p ptstore-lint -- --format human|json`; output
//! is sorted and byte-deterministic, and the exit status is non-zero when
//! findings exist (wired into `scripts/check.sh` as a CI gate).

#![deny(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod model;
pub mod output;
pub mod rules;
pub mod workspace;

pub use graph::CallGraph;
pub use model::{ParsedFile, SourceFile};
pub use output::{render, Format};
pub use rules::{analyze, Config, Finding};
pub use workspace::{find_root, load_workspace};
