//! Golden digests of whole fuzz campaigns.
//!
//! `check.sh` pins only the per-class totals of one campaign, so it cannot
//! see a change that moves an rng draw and hands a run a different victim
//! slot, forgery victim or trigger while every total stays put. These
//! digests can: each folds the `Debug` text of every [`RunResult`] a
//! campaign returns (run seed, trigger, outcome, detecting layer, oracle
//! check count, first violation) through FNV-1a.

use ptstore_core::{Fnv1a, PagingScheme};
use ptstore_fault::{run_campaign, CampaignConfig, RunResult};

/// FNV-1a over the `Debug` text of each run, one run after another.
fn digest(runs: &[RunResult]) -> u64 {
    let mut h = Fnv1a::new();
    for r in runs {
        h.write(format!("{r:?}").as_bytes());
    }
    h.finish()
}

/// `quick(11, 36, 2)` with one of the mechanism's checks cleared.
fn ablated(clear: fn(&mut ptstore_kernel::KernelConfig)) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(11, 36, 2);
    let mut kernel = cfg.kernel_config();
    clear(&mut kernel);
    cfg.kernel = Some(kernel);
    cfg
}

/// Every pinned campaign with its name and expected digest.
fn campaigns() -> Vec<(&'static str, CampaignConfig, u64)> {
    let mut sv48 = CampaignConfig::quick(5, 45, 3);
    sv48.kernel = Some(sv48.kernel_config().with_scheme(PagingScheme::Sv48));
    vec![
        (
            "new(1, 200, 2)",
            CampaignConfig::new(1, 200, 2),
            0x55ae_d8af_a030_4c37,
        ),
        (
            "quick(7, 90, 2)",
            CampaignConfig::quick(7, 90, 2),
            0xe9d2_bbb9_73e9_2923,
        ),
        (
            "new(3, 45, 1)",
            CampaignConfig::new(3, 45, 1),
            0x68f5_3fc8_f93f_6eda,
        ),
        ("quick(5, 45, 3) sv48", sv48, 0x2b70_6f94_d1b5_bead),
        (
            "quick(11, 36, 2) without pmp_s_bit_check",
            ablated(|k| k.pmp_s_bit_check = false),
            0x6090_e045_1b40_ffca,
        ),
        (
            "quick(11, 36, 2) without ptw_origin_check",
            ablated(|k| k.ptw_origin_check = false),
            0xd861_fb69_eada_cafc,
        ),
        (
            "quick(11, 36, 2) without token_checks",
            ablated(|k| k.token_checks = false),
            0xf99f_301c_f497_e1d5,
        ),
    ]
}

#[test]
fn every_run_of_the_pinned_campaigns_is_unchanged() {
    let mut diverged = Vec::new();
    for (name, cfg, want) in campaigns() {
        let report = run_campaign(&cfg);
        assert_eq!(report.runs.len() as u64, cfg.faults, "{name}");
        let got = digest(&report.runs);
        if got != want {
            diverged.push(format!("{name}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(diverged.is_empty(), "{}", diverged.join("\n"));
}
