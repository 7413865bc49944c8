//! Table III regeneration.

use core::fmt;

use crate::boom::BoomConfig;
use crate::system::SystemCost;
use crate::timing::TimingModel;

/// One row of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// "without PTStore" / "with PTStore".
    pub label: &'static str,
    /// Core LUTs.
    pub core_lut: u64,
    /// Core LUT overhead (% over baseline; `None` for the baseline row).
    pub core_lut_pct: Option<f64>,
    /// Core FFs.
    pub core_ff: u64,
    /// Core FF overhead.
    pub core_ff_pct: Option<f64>,
    /// System LUTs.
    pub system_lut: u64,
    /// System LUT overhead.
    pub system_lut_pct: Option<f64>,
    /// System FFs.
    pub system_ff: u64,
    /// System FF overhead.
    pub system_ff_pct: Option<f64>,
    /// Worst setup slack (ns).
    pub wss_ns: f64,
    /// Fmax (MHz).
    pub fmax_mhz: f64,
}

impl fmt::Display for Table3Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pct = |p: Option<f64>| match p {
            Some(v) => format!("{v:+.3}%"),
            None => "-".to_string(),
        };
        write!(
            f,
            "{:<16} | {:>6} {:>8} | {:>6} {:>8} | {:>6} {:>8} | {:>6} {:>8} | {:>6.3} | {:>7.3}",
            self.label,
            self.core_lut,
            pct(self.core_lut_pct),
            self.core_ff,
            pct(self.core_ff_pct),
            self.system_lut,
            pct(self.system_lut_pct),
            self.system_ff,
            pct(self.system_ff_pct),
            self.wss_ns,
            self.fmax_mhz
        )
    }
}

/// Regenerates Table III for `cfg`.
pub fn table3(cfg: &BoomConfig) -> [Table3Row; 2] {
    let base = SystemCost::synthesise(cfg, false);
    let with = SystemCost::synthesise(cfg, true);
    let t_base = TimingModel::implement(cfg, false);
    let t_with = TimingModel::implement(cfg, true);
    let pct = |a: u64, b: u64| (a as f64 - b as f64) / b as f64 * 100.0;
    [
        Table3Row {
            label: "without PTStore",
            core_lut: base.core_lut,
            core_lut_pct: None,
            core_ff: base.core_ff,
            core_ff_pct: None,
            system_lut: base.system_lut,
            system_lut_pct: None,
            system_ff: base.system_ff,
            system_ff_pct: None,
            wss_ns: t_base.wss_ns,
            fmax_mhz: t_base.fmax_mhz,
        },
        Table3Row {
            label: "with PTStore",
            core_lut: with.core_lut,
            core_lut_pct: Some(pct(with.core_lut, base.core_lut)),
            core_ff: with.core_ff,
            core_ff_pct: Some(pct(with.core_ff, base.core_ff)),
            system_lut: with.system_lut,
            system_lut_pct: Some(pct(with.system_lut, base.system_lut)),
            system_ff: with.system_ff,
            system_ff_pct: Some(pct(with.system_ff, base.system_ff)),
            wss_ns: t_with.wss_ns,
            fmax_mhz: t_with.fmax_mhz,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_reproduces_paper_core_numbers() {
        let rows = table3(&BoomConfig::small_boom());
        assert_eq!(rows[0].core_lut, 55_367);
        assert_eq!(rows[0].core_ff, 37_327);
        assert_eq!(rows[1].core_lut, 55_875);
        assert_eq!(rows[1].core_ff, 37_423);
        let lut_pct = rows[1].core_lut_pct.expect("overhead row");
        assert!((lut_pct - 0.918).abs() < 0.01);
        assert!(rows[1].fmax_mhz >= 90.0);
    }

    #[test]
    fn rows_render() {
        for r in table3(&BoomConfig::small_boom()) {
            let s = r.to_string();
            assert!(s.contains("PTStore"));
        }
    }
}
