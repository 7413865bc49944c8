//! Per-fault-class acceptance tests: the paper's §V case analysis, executed.
//!
//! On the **full mechanism**, every fault class is either refused by its
//! named layer (PMP S-bit, PTW origin check, token validation, SBI
//! firmware, PTStore-zone allocator) or provably benign — the campaign
//! never classifies a run as *invariant-violated*.
//!
//! With a **single ablation switch** flipped, the matching class lands and
//! the invariant oracle catches the corruption the mechanism would have
//! prevented — the violated count goes non-zero. This is the executable
//! version of the claim "each check is load-bearing".

use ptstore_fault::{run_campaign, CampaignConfig, DetectedBy, FaultClass, RunClass};
use ptstore_kernel::KernelConfig;
use ptstore_trace::RejectingLayer;

/// Runs a campaign restricted to one fault class.
fn campaign(
    class: FaultClass,
    kernel: Option<KernelConfig>,
    runs: u64,
) -> ptstore_fault::CampaignReport {
    let mut cfg = CampaignConfig::quick(0xF417 ^ class as u64, runs, 2);
    cfg.classes = vec![class];
    cfg.kernel = kernel;
    run_campaign(&cfg)
}

/// The layer expected to refuse each class on the full mechanism, or
/// `None` when the class is absorbed (benign / contained elsewhere).
fn expected_layer(class: FaultClass) -> Option<DetectedBy> {
    match class {
        FaultClass::PteBitFlip => Some(DetectedBy::Mechanism(RejectingLayer::PmpSBit)),
        FaultClass::PmpCsrCorrupt => Some(DetectedBy::Firmware),
        FaultClass::SatpCorrupt => Some(DetectedBy::Mechanism(RejectingLayer::PtwOriginCheck)),
        FaultClass::TokenForge => Some(DetectedBy::Mechanism(RejectingLayer::TokenValidation)),
        FaultClass::ZoneExhaust => Some(DetectedBy::Allocator),
        FaultClass::IpiDrop | FaultClass::IpiReorder => None,
        // Drain faults on the default campaign workload are absorbed: the
        // dropped/delayed remote invalidations target pages no remote hart
        // ever cached (each worker touches only its own hart's pages), so
        // nothing stale survives. The dedicated drain_faults tests build
        // the cross-hart warming that makes a drop a real violation.
        FaultClass::DrainDrop | FaultClass::WatermarkSkip => None,
    }
}

#[test]
fn full_mechanism_contains_every_class() {
    for &class in &FaultClass::ALL {
        let report = campaign(class, None, 3);
        assert_eq!(
            report.count(RunClass::InvariantViolated),
            0,
            "class {class} violated invariants on the full mechanism:\n{}",
            report.summary()
        );
        for run in &report.runs {
            if !run.injected {
                continue;
            }
            match expected_layer(class) {
                Some(layer) => assert_eq!(
                    run.detected_by,
                    Some(layer),
                    "class {class} run {} expected {layer}, got {:?}",
                    run.run,
                    run.detected_by
                ),
                None => assert_eq!(
                    run.outcome,
                    RunClass::Benign,
                    "class {class} run {} expected benign, got {}",
                    run.run,
                    run.outcome
                ),
            }
        }
    }
}

/// Base kernel config matching the campaign geometry, for ablations.
fn ablation_base() -> KernelConfig {
    let c = CampaignConfig::quick(0, 0, 2);
    c.kernel_config()
}

#[test]
fn disabling_pmp_s_bit_check_lets_pte_flips_violate() {
    let mut kcfg = ablation_base();
    kcfg.pmp_s_bit_check = false;
    let report = campaign(FaultClass::PteBitFlip, Some(kcfg), 3);
    assert!(
        report.count(RunClass::InvariantViolated) > 0,
        "pte-bit-flip should corrupt translation state without the S-bit check:\n{}",
        report.summary()
    );
}

#[test]
fn disabling_ptw_origin_check_lets_satp_corruption_violate() {
    let mut kcfg = ablation_base();
    kcfg.ptw_origin_check = false;
    let report = campaign(FaultClass::SatpCorrupt, Some(kcfg), 3);
    assert!(
        report.count(RunClass::InvariantViolated) > 0,
        "satp-corrupt should go live without the PTW origin check:\n{}",
        report.summary()
    );
}

#[test]
fn disabling_token_checks_lets_forged_tokens_violate() {
    let mut kcfg = ablation_base();
    kcfg.token_checks = false;
    let report = campaign(FaultClass::TokenForge, Some(kcfg), 3);
    assert!(
        report.count(RunClass::InvariantViolated) > 0,
        "token-forge should redirect satp without token validation:\n{}",
        report.summary()
    );
}

#[test]
fn ablations_leave_other_classes_contained() {
    // An ablated kernel is still safe against the classes *other* layers
    // cover — switches are independent, not load-bearing for everything.
    let mut kcfg = ablation_base();
    kcfg.token_checks = false;
    let report = campaign(FaultClass::PteBitFlip, Some(kcfg), 2);
    assert_eq!(
        report.count(RunClass::InvariantViolated),
        0,
        "pte-bit-flip is covered by the S-bit check, not tokens:\n{}",
        report.summary()
    );
}

#[test]
fn an_empty_class_list_runs_nothing() {
    // Classes are drawn round-robin over the runs, so with none to draw
    // from the campaign has no run to make — and must not panic.
    let mut cfg = CampaignConfig::quick(1, 3, 2);
    cfg.classes.clear();
    let report = run_campaign(&cfg);
    assert!(report.runs.is_empty(), "{}", report.summary());
}
