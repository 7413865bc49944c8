//! Static-timing model: worst setup slack and Fmax.
//!
//! PTStore's checks ride the existing PMP match logic, which evaluates in
//! parallel with the cache access — nothing lands on the critical path
//! (Table III shows Fmax even *improving* slightly, which is ordinary
//! place-and-route variance). The model reflects that: the critical path is
//! a function of the baseline microarchitecture; PTStore contributes only a
//! deterministic seed change to the P&R "jitter" term.

use crate::boom::BoomConfig;

/// The synthesis timing target of the prototype (90.000 MHz).
pub const F_TARGET_MHZ: f64 = 90.0;

/// A deterministic stand-in for place-and-route variance: hash the design
/// name into a small slack perturbation (0–0.15 ns).
fn pnr_jitter_ns(design: &str) -> f64 {
    (ptstore_core::Fnv1a::hash_bytes(design.as_bytes()) % 150) as f64 / 1000.0
}

/// Timing results of one implementation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Clock period target (ns).
    pub period_ns: f64,
    /// Worst setup slack (ns); positive = timing met.
    pub wss_ns: f64,
    /// Maximum achievable frequency (MHz).
    pub fmax_mhz: f64,
}

impl TimingModel {
    /// Runs the model for `cfg`, with or without PTStore.
    pub fn implement(cfg: &BoomConfig, with_ptstore: bool) -> Self {
        let period_ns = 1000.0 / F_TARGET_MHZ;
        // Critical path: D-cache data + tag compare + LSU select. PMP (and
        // PTStore's S-bit qualification) is evaluated in parallel and merges
        // after the shorter tag path, so it adds ~0 to the worst path.
        let dcache_path = 7.9;
        let lsu_select = 1.6 + 0.01 * (cfg.ldq_entries + cfg.stq_entries) as f64;
        let rob_wakeup = 6.4 + 0.02 * cfg.rob_entries as f64;
        let pmp_parallel =
            3.1 + 0.05 * cfg.pmp_entries as f64 + if with_ptstore { 0.12 } else { 0.0 };
        let critical = (dcache_path + lsu_select)
            .max(rob_wakeup)
            .max(pmp_parallel + 1.4 /* fault merge */);
        let design = if with_ptstore { "boom+ptstore" } else { "boom" };
        let wss_ns = period_ns - critical - 1.29 /* clock skew+setup margin */
            - pnr_jitter_ns(design);
        let fmax_mhz = 1000.0 / (period_ns - wss_ns);
        Self {
            period_ns,
            wss_ns,
            fmax_mhz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_builds_meet_90mhz() {
        for with in [false, true] {
            let t = TimingModel::implement(&BoomConfig::small_boom(), with);
            assert!(t.wss_ns > 0.0, "timing met (wss {})", t.wss_ns);
            assert!(t.fmax_mhz >= F_TARGET_MHZ);
        }
    }

    #[test]
    fn ptstore_does_not_change_the_critical_path_class() {
        let base = TimingModel::implement(&BoomConfig::small_boom(), false);
        let with = TimingModel::implement(&BoomConfig::small_boom(), true);
        // The PMP path (even with the S-bit) stays dominated by the D-cache
        // path: Fmax differences are jitter-scale, exactly as in Table III
        // (90.269 vs 91.116 MHz).
        assert!((with.fmax_mhz - base.fmax_mhz).abs() < 2.0);
    }

    #[test]
    fn jitter_is_deterministic() {
        let a = TimingModel::implement(&BoomConfig::small_boom(), true);
        let b = TimingModel::implement(&BoomConfig::small_boom(), true);
        assert_eq!(a, b);
    }

    #[test]
    fn huge_pmp_eventually_hits_timing() {
        // Sanity: the model is not insensitive to its parameters.
        let mut cfg = BoomConfig::small_boom();
        cfg.pmp_entries = 128;
        let t = TimingModel::implement(&cfg, true);
        let small = TimingModel::implement(&BoomConfig::small_boom(), true);
        assert!(t.wss_ns < small.wss_ns);
    }
}
