//! Cross-checks the ptstore-fault injector against the attack battery's
//! view of the mechanism: the layer that stops each injected fault class
//! must be the same layer §V credits for stopping the corresponding
//! hand-written attack. If the injector reported a different layer, one
//! of the two models of the mechanism would be wrong.

use ptstore_fault::{run_one, CampaignConfig, DetectedBy, FaultClass, RunClass};
use ptstore_trace::RejectingLayer;

/// One deterministic run of a single class on the full-mechanism kernel.
fn run(class: FaultClass, seed: u64) -> ptstore_fault::RunResult {
    let kcfg = CampaignConfig::quick(0, 0, 2).kernel;
    run_one(&kcfg, class, seed, 0, 16, true)
}

#[test]
fn pte_flip_is_stopped_where_pt_tampering_is() {
    // The battery's PT-Tampering attack dies at the PMP S-bit check; a
    // flipped PTE bit through the regular channel must die there too.
    let r = run(FaultClass::PteBitFlip, 11);
    assert_eq!(r.outcome, RunClass::DetectedAndContained);
    assert_eq!(
        r.detected_by,
        Some(DetectedBy::Mechanism(RejectingLayer::PmpSBit))
    );
}

#[test]
fn satp_corruption_is_stopped_where_pt_reuse_is() {
    // Pointing satp at attacker-controlled memory is the battery's
    // PT-Reuse shape; the PTW origin check refuses the first walk.
    let r = run(FaultClass::SatpCorrupt, 12);
    assert_eq!(r.outcome, RunClass::DetectedAndContained);
    assert_eq!(
        r.detected_by,
        Some(DetectedBy::Mechanism(RejectingLayer::PtwOriginCheck))
    );
}

#[test]
fn token_forgery_is_stopped_by_token_validation() {
    let r = run(FaultClass::TokenForge, 13);
    assert_eq!(r.outcome, RunClass::DetectedAndContained);
    assert_eq!(
        r.detected_by,
        Some(DetectedBy::Mechanism(RejectingLayer::TokenValidation))
    );
}

#[test]
fn pmp_reprogramming_is_refused_by_firmware() {
    // Raising the secure-region base would shrink it; the SBI refuses
    // (monotonic-growth rule), same as for the battery's CSR attack.
    let r = run(FaultClass::PmpCsrCorrupt, 14);
    assert_eq!(r.outcome, RunClass::DetectedAndContained);
    assert_eq!(r.detected_by, Some(DetectedBy::Firmware));
}

#[test]
fn zone_exhaustion_is_absorbed_by_the_allocator() {
    let r = run(FaultClass::ZoneExhaust, 15);
    assert_eq!(r.outcome, RunClass::DetectedAndContained);
    assert_eq!(r.detected_by, Some(DetectedBy::Allocator));
}

#[test]
fn ipi_faults_are_benign_for_invariants() {
    // A dropped or reordered shootdown can leave a *stale translation*
    // (a liveness hazard the SMP model measures) but never grants user
    // access to page-table storage — the oracle stays silent.
    for (class, seed) in [(FaultClass::IpiDrop, 16), (FaultClass::IpiReorder, 17)] {
        let r = run(class, seed);
        assert_eq!(r.outcome, RunClass::Benign, "{class}: {:?}", r);
        assert_eq!(r.violations, 0);
    }
}
