//! # ptstore-lint — the paper's LLVM pass, at source level
//!
//! PTStore's software support (§IV-C2) modifies the compiler so that every
//! kernel page-table accessor *must* emit `ld.pt`/`sd.pt` — the secure
//! channel cannot be bypassed by construction. The Rust model used to
//! enforce that contract only by convention; this crate makes it a checked
//! property of the source tree.
//!
//! It is a self-contained static analyzer (a hand-rolled lexer — the
//! offline build vendors no `syn` and the analyzer deliberately takes no
//! compiler-internals dependency) enforcing three rules:
//!
//! | Rule | Guards |
//! |------|--------|
//! | `channel-confinement` | raw `Bus`/`PhysMem` access in `ptstore-kernel` confined to `src/channel.rs` (§IV-C2 channel discipline) |
//! | `allow-justification` | every `#[allow(...)]` carries a justification comment |
//! | `test-exhaustiveness` | every injector fault class / attack verdict / reject reason / oracle violation / model-check verdict variant is exercised by a test |
//!
//! Suppressions are explicit and audited:
//! `// ptstore-lint: allow(<rule>) — <justification>` above (or on) the
//! offending line.
//!
//! TLB-shootdown pairing is not a lint rule: the compiler enforces it. A
//! kernel page-table store that replaces a live entry returns a
//! `#[must_use]` `ptstore_kernel::channel::Flush`, and the kernel crate
//! denies `unused_must_use` and `clippy::let_underscore_must_use`.
//!
//! Run it with `cargo run -p ptstore-lint -- --format human|json`; output
//! is sorted and byte-deterministic, and the exit status is non-zero when
//! findings exist (wired into `scripts/check.sh` as a CI gate).

#![deny(missing_docs)]

pub mod lexer;
pub mod model;
pub mod output;
pub mod rules;
pub mod workspace;

pub use model::{ParsedFile, SourceFile};
pub use output::{render, Format};
pub use rules::{analyze, Config, Finding};
pub use workspace::{find_root, load_workspace};
