//! Activity-based dynamic power estimation.
//!
//! §III-C2 of the paper rejects hypervisor/NPT-based isolation partly on
//! power grounds ("this will increase the area and the power consumption of
//! the processor"). This module quantifies that argument with the standard
//! FPGA dynamic-power proxy: `P ∝ f · Σ(toggle_rate · capacitance)`, with
//! per-block capacitance taken from the LUT/FF counts and toggle rates from
//! block activity classes. Absolute watts are not the point — the *ratio*
//! between PTStore's always-parallel PMP match and an always-walking NPT
//! unit is.

use crate::boom::BoomConfig;
use crate::component::Component;
use crate::ptstore::ptstore_delta;

/// Average toggle activity of a block class (fraction of clocks its logic
/// switches).
fn activity(name: &str) -> f64 {
    match name {
        // Fetch/decode run every cycle.
        "frontend (fetch+bpred)" | "decode" => 0.45,
        // Backend structures toggle with issue rate.
        "rename (maptable+freelist)" | "rob" | "issue units" => 0.35,
        "int regfile + bypass" | "alu/mul/div" => 0.30,
        // Memory path.
        "lsu (ldq+stq)" | "l1d control" => 0.25,
        "l1i control" => 0.30,
        "itlb" | "dtlb" => 0.20,
        // The walker only runs on TLB misses.
        "ptw" => 0.04,
        "csr file" => 0.02,
        // PMP match is combinational on every access but tiny.
        "pmp (match+priority)" => 0.25,
        // PTStore delta blocks.
        "pmpcfg S-bits" => 0.01, // state bits rarely written
        "ld.pt/sd.pt decode" => 0.45,
        "lsu channel gating" => 0.25,
        "satp.S bit" => 0.01,
        "ptw origin check" => 0.04, // rides the walker's duty cycle
        "access-fault encode" => 0.02,
        // NPT comparison unit (see below).
        "npt walker + tags" => 0.30,
        _ => 0.10, // residual/uncore average
    }
}

/// Estimated dynamic power of a component set, in arbitrary units
/// normalised so the baseline SmallBoom core ≈ 1.0.
pub fn dynamic_power(components: &[Component]) -> f64 {
    let raw: f64 = components
        .iter()
        .map(|c| activity(c.name) * (c.lut as f64 + 0.6 * c.ff as f64))
        .sum();
    raw / BASELINE_RAW
}

/// Raw activity-weighted sum of the calibrated baseline core (computed once
/// from the SmallBoom block list; kept as a constant so the normalisation is
/// stable).
const BASELINE_RAW: f64 = 17_252.0;

/// Power summary for one build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEstimate {
    /// Baseline core (normalised 1.0 reference).
    pub baseline: f64,
    /// Core with PTStore.
    pub with_ptstore: f64,
    /// Core with a hypervisor/NPT unit instead (the §III-C2 alternative).
    pub with_npt: f64,
}

/// Compares PTStore against the NPT-based alternative the paper rejects.
/// The NPT unit is modelled as a second walker plus nested-tag storage
/// (~2,800 LUTs / 1,900 FFs — a conservative reading of published 2D-walker
/// area), active on every TLB miss *and* every guest page-table edit.
pub fn estimate(cfg: &BoomConfig) -> PowerEstimate {
    let base = cfg.components();
    let baseline = dynamic_power(&base);

    let mut ptstore = base.clone();
    ptstore.extend(ptstore_delta(cfg.pmp_entries));
    let with_ptstore = dynamic_power(&ptstore);

    let mut npt = base;
    npt.push(Component::new("npt walker + tags", 2_800, 1_900));
    let with_npt = dynamic_power(&npt);

    PowerEstimate {
        baseline,
        with_ptstore,
        with_npt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_normalised() {
        let e = estimate(&BoomConfig::small_boom());
        assert!(
            (e.baseline - 1.0).abs() < 0.02,
            "baseline {:.4}",
            e.baseline
        );
    }

    #[test]
    fn ptstore_power_is_fraction_of_a_percent() {
        let e = estimate(&BoomConfig::small_boom());
        let overhead = (e.with_ptstore - e.baseline) / e.baseline * 100.0;
        assert!(
            overhead > 0.0 && overhead < 0.5,
            "PTStore power overhead {overhead:.3}% should be well under 0.5%"
        );
    }

    #[test]
    fn npt_costs_an_order_of_magnitude_more_power_than_ptstore() {
        // The quantified §III-C2 argument.
        let e = estimate(&BoomConfig::small_boom());
        let ptstore = e.with_ptstore - e.baseline;
        let npt = e.with_npt - e.baseline;
        assert!(
            npt > 10.0 * ptstore,
            "npt delta {npt:.4} vs ptstore delta {ptstore:.4}"
        );
    }

    #[test]
    fn activity_model_covers_every_block() {
        // No modelled block should silently fall to the default class except
        // the residual/uncore ones.
        let cfg = BoomConfig::small_boom();
        let mut blocks = cfg.components();
        blocks.extend(ptstore_delta(cfg.pmp_entries));
        for b in blocks {
            if b.name != "calibration residual" {
                assert!(
                    activity(b.name) != 0.10 || b.name.contains("residual"),
                    "block {} uses the default activity class",
                    b.name
                );
            }
        }
    }
}
