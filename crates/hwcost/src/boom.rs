//! Parametric resource model of the RISC-V BOOM core (`SmallBooms`
//! configuration of paper Table II, FPU disabled).

use crate::component::{total_ff, total_lut, Component};

/// Paper Table III baseline core LUTs (calibration target).
pub const CORE_BASE_LUT: u64 = 55_367;
/// Paper Table III baseline core FFs (calibration target).
pub const CORE_BASE_FF: u64 = 37_327;

/// Microarchitectural parameters of the modelled core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoomConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u64,
    /// Decode/rename width.
    pub decode_width: u64,
    /// Reorder-buffer entries.
    pub rob_entries: u64,
    /// Load-queue entries.
    pub ldq_entries: u64,
    /// Store-queue entries.
    pub stq_entries: u64,
    /// Integer physical registers.
    pub int_phys_regs: u64,
    /// BTB entries.
    pub btb_entries: u64,
    /// I-TLB entries (Table II: 32).
    pub itlb_entries: u64,
    /// D-TLB entries (Table II: 8).
    pub dtlb_entries: u64,
    /// PMP entries.
    pub pmp_entries: u64,
    /// FPU present (disabled in the prototype to keep the overheads
    /// visible, §V-A).
    pub fpu: bool,
}

impl BoomConfig {
    /// The `SmallBooms` configuration of the prototype (Table II).
    pub fn small_boom() -> Self {
        Self {
            fetch_width: 4,
            decode_width: 1,
            rob_entries: 32,
            ldq_entries: 8,
            stq_entries: 8,
            int_phys_regs: 52,
            btb_entries: 16,
            itlb_entries: 32,
            dtlb_entries: 8,
            pmp_entries: 8,
            fpu: false,
        }
    }

    /// The baseline (pre-PTStore) component list. The final entry is the
    /// calibration residual that pins the totals to the paper's synthesis
    /// results; every other entry is a parametric estimate.
    pub fn components(&self) -> Vec<Component> {
        let mut cs = vec![
            Component::new(
                "frontend (fetch+bpred)",
                430 * self.fetch_width + 55 * self.btb_entries,
                360 * self.fetch_width + 52 * self.btb_entries,
            ),
            Component::new("decode", 1_850 * self.decode_width, 240 * self.decode_width),
            Component::new(
                "rename (maptable+freelist)",
                1_150 * self.decode_width + 15 * self.int_phys_regs,
                290 + 8 * self.int_phys_regs,
            ),
            Component::new("rob", 92 * self.rob_entries, 68 * self.rob_entries),
            Component::new("issue units", 2_650, 1_180),
            Component::new(
                "int regfile + bypass",
                52 * self.int_phys_regs,
                64 * self.decode_width,
            ),
            Component::new("alu/mul/div", 3_420, 1_240),
            Component::new(
                "lsu (ldq+stq)",
                410 * (self.ldq_entries + self.stq_entries),
                172 * (self.ldq_entries + self.stq_entries),
            ),
            Component::new("l1i control", 3_050, 2_410),
            Component::new("l1d control", 4_180, 3_360),
            Component::new("itlb", 88 * self.itlb_entries, 71 * self.itlb_entries),
            Component::new("dtlb", 88 * self.dtlb_entries, 71 * self.dtlb_entries),
            Component::new("ptw", 1_380, 760),
            Component::new("csr file", 2_150, 1_490),
            Component::new(
                "pmp (match+priority)",
                205 * self.pmp_entries,
                62 * self.pmp_entries, // pmpaddr[53:0] + pmpcfg[7:0] per entry
            ),
        ];
        if self.fpu {
            cs.push(Component::new("fpu", 18_500, 9_800));
        }
        // Calibration residual: routing/glue/replication the block formulas
        // cannot see. Computed so the *baseline* totals equal Table III.
        let (lut_sum, ff_sum) = (total_lut(&cs), total_ff(&cs));
        let fpu_extra_lut = if self.fpu { 18_500 } else { 0 };
        let fpu_extra_ff = if self.fpu { 9_800 } else { 0 };
        cs.push(Component::new(
            "calibration residual",
            (CORE_BASE_LUT + fpu_extra_lut).saturating_sub(lut_sum),
            (CORE_BASE_FF + fpu_extra_ff).saturating_sub(ff_sum),
        ));
        cs
    }
}

impl Default for BoomConfig {
    fn default() -> Self {
        Self::small_boom()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_boom_matches_table3_baseline() {
        let cs = BoomConfig::small_boom().components();
        let (lut, ff) = (total_lut(&cs), total_ff(&cs));
        assert_eq!(lut, CORE_BASE_LUT);
        assert_eq!(ff, CORE_BASE_FF);
    }

    #[test]
    fn residual_is_a_minor_fraction() {
        // The parametric blocks must explain most of the core; the residual
        // exists but cannot dominate.
        let cs = BoomConfig::small_boom().components();
        let residual = cs.last().expect("non-empty");
        assert_eq!(residual.name, "calibration residual");
        assert!(
            residual.lut * 2 < CORE_BASE_LUT,
            "residual {} explains too much",
            residual.lut
        );
        assert!(residual.ff * 2 < CORE_BASE_FF);
    }

    #[test]
    fn fpu_config_is_larger() {
        let mut cfg = BoomConfig::small_boom();
        cfg.fpu = true;
        let cs = cfg.components();
        let (lut, ff) = (total_lut(&cs), total_ff(&cs));
        assert!(lut > CORE_BASE_LUT + 10_000);
        assert!(ff > CORE_BASE_FF + 5_000);
    }

    #[test]
    fn tlb_sizes_flow_into_cost() {
        let small = BoomConfig::small_boom();
        let mut big = small;
        big.itlb_entries = 64;
        // The parametric part grows; the residual shrinks to keep calibration
        // only for the *calibrated* configuration. For others, totals move.
        let itlb_small = small
            .components()
            .into_iter()
            .find(|c| c.name == "itlb")
            .expect("itlb modelled");
        let itlb_big = big
            .components()
            .into_iter()
            .find(|c| c.name == "itlb")
            .expect("itlb modelled");
        assert!(itlb_big.lut > itlb_small.lut);
    }
}
