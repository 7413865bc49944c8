//! The attack × defense matrix driver (paper §V-E).

use core::fmt;

use ptstore_core::{PagingScheme, MIB};
use ptstore_kernel::{DefenseMode, Kernel, KernelConfig};
use ptstore_trace::json::{array, JsonWriter};
use ptstore_trace::{RejectingLayer, TraceCounters, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};

use crate::outcome::AttackOutcome;
use crate::scenarios::{run, AttackKind};

/// One cell of the security matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackReport {
    /// Which attack ran.
    pub attack: AttackKind,
    /// Against which defense.
    pub defense: DefenseMode,
    /// Whether the token layer was enabled (ablation).
    pub tokens: bool,
    /// What happened.
    pub outcome: AttackOutcome,
}

impl fmt::Display for AttackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<20} vs {:<18} -> {}",
            self.attack.to_string(),
            self.defense.to_string(),
            self.outcome
        )
    }
}

/// One matrix cell plus the event chain captured while the scenario ran.
///
/// The sink is attached *after* boot, so `events` is exactly the forensic
/// record of the attack itself: the bus/PMP/walker/token decisions in
/// program order, ending (for a denied attack) with the event whose
/// [`rejecting_layer`](TraceEvent::rejecting_layer) names the check that
/// stopped it.
#[derive(Debug, Clone)]
pub struct TracedAttackReport {
    /// The cell verdict, identical to what [`run_attack`] returns.
    pub report: AttackReport,
    /// The scenario's event chain, oldest first.
    pub events: Vec<TraceEvent>,
    /// Per-layer totals over the whole scenario (survive ring eviction).
    pub counters: TraceCounters,
}

impl TracedAttackReport {
    /// The check that finally rejected the attack, per the trace: the last
    /// denial event's attribution. `None` for attacks that succeeded (or
    /// never tripped a check).
    pub fn rejecting_layer(&self) -> Option<RejectingLayer> {
        self.events
            .iter()
            .rev()
            .find_map(TraceEvent::rejecting_layer)
    }

    /// Serialises the cell (verdict + attribution + counters + events) as
    /// one JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.str_field("attack", &self.report.attack.to_string());
        w.str_field("defense", &self.report.defense.to_string());
        w.bool_field("tokens", self.report.tokens);
        w.str_field("outcome", &self.report.outcome.to_string());
        match self.rejecting_layer() {
            Some(layer) => w.str_field("rejecting_layer", &layer.to_string()),
            None => w.null_field("rejecting_layer"),
        }
        w.raw_field("counters", &self.counters.to_json());
        w.raw_field(
            "events",
            &array(self.events.iter().map(TraceEvent::to_json)),
        );
        w.finish()
    }
}

/// Boots a fresh kernel and runs one attack against one defense.
pub fn run_attack(kind: AttackKind, defense: DefenseMode, tokens: bool) -> AttackReport {
    run_cell(1, PagingScheme::Sv39, kind, defense, tokens, None)
}

/// Like [`run_attack`], but with a [`TraceSink`] attached for the duration
/// of the scenario, returning the captured event chain alongside the
/// verdict.
pub fn run_attack_traced(
    kind: AttackKind,
    defense: DefenseMode,
    tokens: bool,
) -> TracedAttackReport {
    let sink = TraceSink::new();
    TracedAttackReport {
        report: run_cell(1, PagingScheme::Sv39, kind, defense, tokens, Some(&sink)),
        events: sink.events(),
        counters: sink.counters(),
    }
}

/// Runs one matrix cell: boots a fresh `harts`-way kernel under `scheme`,
/// attaches `sink` (if any) after boot, and runs the attack. The
/// attacker runs on the boot hart while the remote harts participate in
/// every shootdown, and the verdict must depend on neither the hart count
/// nor the scheme: PTStore's checks fire on physical addresses and
/// credentials, not on how many levels the walk has.
fn run_cell(
    harts: usize,
    scheme: PagingScheme,
    kind: AttackKind,
    defense: DefenseMode,
    tokens: bool,
    sink: Option<&TraceSink>,
) -> AttackReport {
    let mut cfg = KernelConfig::baseline()
        .with_defense(defense)
        .with_mem_size(256 * MIB)
        .with_initial_secure_size(16 * MIB)
        .with_harts(harts)
        .with_scheme(scheme);
    cfg.cfi = true; // the threat model deploys CFI
    cfg.token_checks = tokens;
    let mut k = Kernel::boot(cfg).expect("kernel boots");
    k.set_trace_sink(sink.cloned());
    AttackReport {
        attack: kind,
        defense,
        tokens,
        outcome: run(kind, &mut k),
    }
}

/// The full §V-E matrix: every attack against every defense (fresh kernel
/// per cell), plus the tokens-off PTStore ablation rows.
pub fn security_matrix() -> Vec<AttackReport> {
    security_matrix_with(1, PagingScheme::Sv39)
}

/// The full matrix under an explicit paging scheme on an `harts`-way SMP
/// machine (every cell boots a fresh N-hart kernel). The
/// scheme-differential suite runs this for Sv39/Sv48/Sv57 and demands
/// byte-identical verdicts.
pub fn security_matrix_with(harts: usize, scheme: PagingScheme) -> Vec<AttackReport> {
    let mut out = Vec::new();
    for defense in [
        DefenseMode::None,
        DefenseMode::PtRand,
        DefenseMode::VirtualIsolation,
        DefenseMode::PtStore,
    ] {
        for kind in AttackKind::ALL {
            out.push(run_cell(harts, scheme, kind, defense, true, None));
        }
    }
    // Ablation: PTStore with the token layer disabled — shows which attacks
    // the secure region + PTW check alone cannot stop.
    for kind in AttackKind::ALL {
        let mut r = run_cell(harts, scheme, kind, DefenseMode::PtStore, false, None);
        r.tokens = false;
        out.push(r);
    }
    out
}

/// The PTStore rows of the matrix with a trace attached to every cell
/// (full design and tokens-off ablation). Tracing the defended rows is
/// what the forensic question needs: *which* check stopped each attack.
pub fn security_matrix_traced() -> Vec<TracedAttackReport> {
    let mut out = Vec::new();
    for tokens in [true, false] {
        for kind in AttackKind::ALL {
            out.push(run_attack_traced(kind, DefenseMode::PtStore, tokens));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::BlockedBy;

    #[test]
    fn ptstore_blocks_all_attacks_on_smp_machines() {
        for harts in [1, 2, 4] {
            for kind in AttackKind::ALL {
                let r = run_cell(
                    harts,
                    PagingScheme::Sv39,
                    kind,
                    DefenseMode::PtStore,
                    true,
                    None,
                );
                assert!(
                    !r.outcome.attacker_won(),
                    "PTStore must stop {kind} on {harts} harts, got {}",
                    r.outcome
                );
            }
        }
    }

    #[test]
    fn smp_verdicts_match_single_hart() {
        // The whole matrix, cell for cell, is hart-count independent.
        let base = security_matrix();
        for harts in [2, 4] {
            let smp = security_matrix_with(harts, PagingScheme::Sv39);
            assert_eq!(base.len(), smp.len());
            for (b, m) in base.iter().zip(&smp) {
                assert_eq!(
                    b.outcome, m.outcome,
                    "{} vs {} diverged at {harts} harts",
                    b.attack, b.defense
                );
            }
        }
    }

    #[test]
    fn undefended_kernel_falls_to_everything_harmful() {
        for kind in [
            AttackKind::PtTampering,
            AttackKind::PtInjection,
            AttackKind::PtReuse,
            AttackKind::AllocatorMetadata,
            AttackKind::TlbInconsistency,
            AttackKind::HugePageTampering,
        ] {
            let r = run_attack(kind, DefenseMode::None, true);
            assert!(
                r.outcome.attacker_won(),
                "{kind} should succeed without defenses, got {}",
                r.outcome
            );
        }
    }

    #[test]
    fn ptstore_blocks_all_attacks() {
        for kind in AttackKind::ALL {
            let r = run_attack(kind, DefenseMode::PtStore, true);
            assert!(
                !r.outcome.attacker_won(),
                "PTStore must stop {kind}, got {}",
                r.outcome
            );
        }
    }

    #[test]
    fn ptstore_layers_match_paper() {
        assert_eq!(
            run_attack(AttackKind::PtTampering, DefenseMode::PtStore, true).outcome,
            AttackOutcome::Blocked(BlockedBy::SecureRegionPmp)
        );
        // With tokens on, the credential check fires before the walker even
        // sees the fake table.
        assert_eq!(
            run_attack(AttackKind::PtInjection, DefenseMode::PtStore, true).outcome,
            AttackOutcome::Blocked(BlockedBy::TokenCheck)
        );
        // With tokens off, the PTW origin check is the backstop.
        assert_eq!(
            run_attack(AttackKind::PtInjection, DefenseMode::PtStore, false).outcome,
            AttackOutcome::Blocked(BlockedBy::PtwOriginCheck)
        );
        assert_eq!(
            run_attack(AttackKind::PtReuse, DefenseMode::PtStore, true).outcome,
            AttackOutcome::Blocked(BlockedBy::TokenCheck)
        );
        assert_eq!(
            run_attack(AttackKind::AllocatorMetadata, DefenseMode::PtStore, true).outcome,
            AttackOutcome::Blocked(BlockedBy::ZeroCheck)
        );
        assert_eq!(
            run_attack(AttackKind::TlbInconsistency, DefenseMode::PtStore, true).outcome,
            AttackOutcome::Blocked(BlockedBy::SecureRegionPmp)
        );
        // A level-1 superpage leaf lives in a secure-region table like any
        // other PTE — the S-bit fires regardless of the slot's level.
        assert_eq!(
            run_attack(AttackKind::HugePageTampering, DefenseMode::PtStore, true).outcome,
            AttackOutcome::Blocked(BlockedBy::SecureRegionPmp)
        );
    }

    #[test]
    fn reuse_defeats_ptstore_without_tokens() {
        // The ablation that justifies the token mechanism: secure region +
        // PTW check alone cannot stop PT-Reuse (the reused table is a real
        // secure-region page table).
        let r = run_attack(AttackKind::PtReuse, DefenseMode::PtStore, false);
        assert!(r.outcome.attacker_won());
    }

    #[test]
    fn pt_rand_falls_via_leak() {
        for kind in [AttackKind::PtTampering, AttackKind::HugePageTampering] {
            let r = run_attack(kind, DefenseMode::PtRand, true);
            assert_eq!(r.outcome, AttackOutcome::SucceededViaLeak, "{kind}");
        }
    }

    #[test]
    fn virtual_isolation_partial_coverage() {
        // Blocks direct tampering...
        assert_eq!(
            run_attack(AttackKind::PtTampering, DefenseMode::VirtualIsolation, true).outcome,
            AttackOutcome::Blocked(BlockedBy::PagePermissions)
        );
        // ...but not injection, reuse, or TLB-inconsistency.
        for kind in [
            AttackKind::PtInjection,
            AttackKind::PtReuse,
            AttackKind::TlbInconsistency,
        ] {
            let r = run_attack(kind, DefenseMode::VirtualIsolation, true);
            assert!(
                r.outcome.attacker_won(),
                "virtual isolation should fall to {kind}, got {}",
                r.outcome
            );
        }
    }

    #[test]
    fn vm_metadata_is_kernel_harmless_everywhere() {
        for defense in [DefenseMode::None, DefenseMode::PtStore] {
            let r = run_attack(AttackKind::VmMetadata, defense, true);
            assert_eq!(r.outcome, AttackOutcome::HarmlessToKernel);
        }
    }

    #[test]
    fn denied_pt_injection_trace_names_the_ptw_origin_check() {
        // The §V-E2 ablation: with tokens off, the walker's `satp.S` origin
        // check is the backstop — and the trace must say so. The final
        // denial in the event chain is the check that actually fired.
        let t = run_attack_traced(AttackKind::PtInjection, DefenseMode::PtStore, false);
        assert_eq!(
            t.report.outcome,
            AttackOutcome::Blocked(BlockedBy::PtwOriginCheck)
        );
        assert_eq!(t.rejecting_layer(), Some(RejectingLayer::PtwOriginCheck));
        assert!(t.counters.ptw_origin_rejections >= 1);
        let j = t.to_json();
        assert!(
            j.contains("\"rejecting_layer\":\"ptw-origin-check\""),
            "{j}"
        );
    }

    #[test]
    fn trace_attribution_matches_the_outcome_layer() {
        // Full design: the trace's final denial and the scenario's reported
        // blocking layer agree for the paper's three PTStore checks.
        for (kind, layer) in [
            (AttackKind::PtTampering, RejectingLayer::PmpSBit),
            (AttackKind::PtInjection, RejectingLayer::TokenValidation),
            (AttackKind::PtReuse, RejectingLayer::TokenValidation),
            (AttackKind::HugePageTampering, RejectingLayer::PmpSBit),
        ] {
            let t = run_attack_traced(kind, DefenseMode::PtStore, true);
            assert!(!t.report.outcome.attacker_won(), "{kind} must be blocked");
            assert_eq!(
                t.rejecting_layer(),
                Some(layer),
                "{kind}: trace should attribute the denial to {layer}"
            );
        }
    }

    #[test]
    fn traced_run_agrees_with_untraced_run() {
        // Attaching a sink observes the machine without perturbing it.
        for kind in AttackKind::ALL {
            let plain = run_attack(kind, DefenseMode::PtStore, true);
            let traced = run_attack_traced(kind, DefenseMode::PtStore, true);
            assert_eq!(plain.outcome, traced.report.outcome, "{kind}");
        }
    }

    #[test]
    fn matrix_covers_all_cells() {
        let m = security_matrix();
        // Every attack × (4 defenses + the tokens-off PTStore ablation row).
        assert_eq!(m.len(), AttackKind::ALL.len() * 5);
        // PTStore full-design rows never lose.
        assert!(m
            .iter()
            .filter(|r| r.defense == DefenseMode::PtStore && r.tokens)
            .all(|r| !r.outcome.attacker_won()));
    }
}
