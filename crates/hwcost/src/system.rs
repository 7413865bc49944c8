//! Whole-system aggregation: the core plus the Xilinx peripherals of paper
//! Table II.

use crate::boom::BoomConfig;
use crate::component::{total_ff, total_lut, Component};
use crate::ptstore::ptstore_delta;

/// The uncore blocks of the prototype (Table II): MIG DDR3 controller, AXI
/// Ethernet, interconnect, boot ROM, debug. Sized so the whole-system
/// baseline equals Table III (71,633 LUT / 57,151 FF).
pub fn peripherals() -> Vec<Component> {
    vec![
        Component::new("xilinx mig (ddr3)", 8_900, 10_500),
        Component::new("axi ethernet", 3_800, 5_200),
        Component::new("axi interconnect", 2_400, 2_900),
        Component::new("boot rom + uart", 700, 600),
        Component::new("debug module", 466, 624),
    ]
}

/// Aggregated resource cost of one build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemCost {
    /// Core LUTs.
    pub core_lut: u64,
    /// Core FFs.
    pub core_ff: u64,
    /// Whole-system LUTs.
    pub system_lut: u64,
    /// Whole-system FFs.
    pub system_ff: u64,
}

impl SystemCost {
    /// Synthesises (in the model) a build of `cfg`, with or without PTStore.
    pub fn synthesise(cfg: &BoomConfig, with_ptstore: bool) -> Self {
        let mut core = cfg.components();
        if with_ptstore {
            core.extend(ptstore_delta(cfg.pmp_entries));
        }
        let core_lut = total_lut(&core);
        let core_ff = total_ff(&core);
        let periph = peripherals();
        SystemCost {
            core_lut,
            core_ff,
            system_lut: core_lut + total_lut(&periph),
            system_ff: core_ff + total_ff(&periph),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Percentage increase of `with` over `base` in core LUTs.
    fn lut_overhead_pct(with: SystemCost, base: SystemCost) -> f64 {
        (with.core_lut as f64 - base.core_lut as f64) / base.core_lut as f64 * 100.0
    }

    #[test]
    fn baseline_system_matches_table3() {
        let cost = SystemCost::synthesise(&BoomConfig::small_boom(), false);
        assert_eq!(cost.core_lut, 55_367);
        assert_eq!(cost.core_ff, 37_327);
        assert_eq!(cost.system_lut, 71_633);
        assert_eq!(cost.system_ff, 57_151);
    }

    #[test]
    fn ptstore_system_close_to_table3() {
        // The paper's with-PTStore *system* numbers include place-and-route
        // variance (their core delta is +508/+96 but the system delta is
        // +448/+156); the model adds the synthesis delta verbatim, so allow
        // a small tolerance at system level and exactness at core level.
        let base = SystemCost::synthesise(&BoomConfig::small_boom(), false);
        let with = SystemCost::synthesise(&BoomConfig::small_boom(), true);
        assert_eq!(with.core_lut, 55_875);
        assert_eq!(with.core_ff, 37_423);
        assert!((with.system_lut as i64 - 72_081).unsigned_abs() < 100);
        assert!((with.system_ff as i64 - 57_307).unsigned_abs() < 100);
        assert!(lut_overhead_pct(with, base) < 0.92);
    }

    #[test]
    fn fpu_would_hide_the_overhead() {
        // §V-A: with the FPU enabled the relative cost shrinks.
        let mut cfg = BoomConfig::small_boom();
        let base_small = SystemCost::synthesise(&cfg, false);
        let with_small = SystemCost::synthesise(&cfg, true);
        cfg.fpu = true;
        let base_fpu = SystemCost::synthesise(&cfg, false);
        let with_fpu = SystemCost::synthesise(&cfg, true);
        assert!(lut_overhead_pct(with_fpu, base_fpu) < lut_overhead_pct(with_small, base_small));
    }
}
