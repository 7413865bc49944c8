//! # ptstore-attacks
//!
//! The security evaluation of the paper (§II-B, §V-E) as an executable attack
//! battery. Each attack is written from the attacker's point of view under
//! the §III-A threat model — a non-root process wielding a repeated
//! arbitrary-read/write kernel memory-corruption primitive issued through
//! regular instructions — and reports *how far it got* against the deployed
//! defense:
//!
//! | attack | defeated by (PTStore layer) |
//! |---|---|
//! | PT-Tampering (§II-B) | secure region S-bit: regular stores fault |
//! | PT-Injection (§II-B) | PTW origin check (`satp.S`); tokens also fire first |
//! | PT-Reuse (§II-B) | token mechanism |
//! | Allocator metadata (§V-E3) | zero-check on fresh page-table pages |
//! | VM metadata (§V-E4) | n/a — only user-space mappings affected |
//! | TLB inconsistency (§V-E5) | PMP checks physical addresses |
//! | Huge-page tampering | secure region S-bit — a level-1 superpage leaf is a secure PTE like any other |
//!
//! ```
//! use ptstore_attacks::{run_attack, AttackKind};
//! use ptstore_kernel::DefenseMode;
//!
//! let report = run_attack(AttackKind::PtTampering, DefenseMode::PtStore, true);
//! assert!(!report.outcome.attacker_won());
//! ```

pub mod battery;
pub mod outcome;
pub mod scenarios;

pub use battery::{
    run_attack, run_attack_traced, security_matrix, security_matrix_traced, security_matrix_with,
    AttackReport, TracedAttackReport,
};
pub use outcome::{AttackOutcome, BlockedBy};
pub use scenarios::AttackKind;
