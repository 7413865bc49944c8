//! The paper's numeric claims, encoded as tests. These run the quick-scale
//! experiments and assert the measured overheads stay inside bands around
//! the published numbers — so any future change that silently breaks the
//! calibration (or the mechanisms behind it) fails CI.
//!
//! Bands are deliberately loose: the claim being guarded is the *shape*
//! (ordering and rough magnitude), not a curve fit.

use ptstore_bench::{
    average_overhead, run_fig4_jobs, run_fig5_jobs, run_fig6_jobs, run_fig7_jobs, run_ltp_jobs,
    run_stress_jobs, run_table3, Scale,
};
use ptstore_kernel::DefenseMode;

#[test]
fn table3_hardware_overhead_bounds() {
    // Abstract: "<0.92% hardware overheads".
    let rows = run_table3();
    let lut_pct = rows[1].core_lut_pct.expect("overhead");
    let ff_pct = rows[1].core_ff_pct.expect("overhead");
    assert!(lut_pct > 0.0 && lut_pct < 0.92, "core LUT {lut_pct:.3}%");
    assert!(ff_pct > 0.0 && ff_pct < 0.30, "core FF {ff_pct:.3}%");
    // Fmax unaffected (Table III: both ≥ 90 MHz).
    assert!(rows[0].fmax_mhz >= 90.0 && rows[1].fmax_mhz >= 90.0);
}

#[test]
fn ltp_has_zero_deviations() {
    // §V-C: "we compare the outputs of the two runs and do not find any
    // deviation".
    let r = run_ltp_jobs(&Scale::quick(), 1);
    assert!(r.cases >= 40, "suite size {}", r.cases);
    assert!(r.deviations.is_empty(), "{:#?}", r.deviations);
}

#[test]
fn fork_stress_matches_paper_bands() {
    // §V-D1: 2.84% / 6.83% / 3.77%.
    let rows = run_stress_jobs(&Scale::quick(), 1);
    let find = |label: &str| {
        rows.iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("{label} row"))
    };
    let cfi = find("CFI").overhead_pct;
    let ptstore = find("CFI+PTStore").overhead_pct;
    let adj = find("CFI+PTStore-Adj").overhead_pct;
    assert!((1.5..4.5).contains(&cfi), "CFI {cfi:.2}% vs paper 2.84%");
    assert!(
        (4.5..10.0).contains(&ptstore),
        "CFI+PTStore {ptstore:.2}% vs paper 6.83%"
    );
    assert!((2.5..6.0).contains(&adj), "-Adj {adj:.2}% vs paper 3.77%");
    // Ordering: adjusting > non-adjusting > CFI > 0.
    assert!(ptstore > adj && adj > cfi && cfi > 0.0);
    // Adjustment fired only where the paper says it does.
    assert!(find("CFI+PTStore").result.adjustments > 0);
    assert_eq!(find("CFI+PTStore-Adj").result.adjustments, 0);
    assert_eq!(find("CFI").result.adjustments, 0);
}

#[test]
fn lmbench_shape_holds() {
    // Figure 4: PTStore's cost confined to the fork family; elsewhere ~0.
    let series = run_fig4_jobs(&Scale::quick(), 1);
    for s in &series {
        let cfi = s.overhead_of("CFI").expect("cfi");
        let both = s.overhead_of("CFI+PTStore").expect("both");
        let ptstore_only = both - cfi;
        if s.benchmark.starts_with("fork") {
            assert!(
                (0.2..3.0).contains(&ptstore_only),
                "{}: fork-family PTStore extra {ptstore_only:.2}%",
                s.benchmark
            );
        } else if s.benchmark.starts_with("ctx switch") {
            // Token validation rides every satp switch — small but real.
            assert!(
                (0.0..2.0).contains(&ptstore_only),
                "{}: ctx-switch PTStore extra {ptstore_only:.2}%",
                s.benchmark
            );
        } else {
            assert!(
                ptstore_only.abs() < 0.6,
                "{}: non-fork PTStore extra {ptstore_only:.2}% should be ~0",
                s.benchmark
            );
        }
    }
}

#[test]
fn spec_is_cpu_bound_small() {
    // Figure 5: <0.91% with CFI, <0.29% PTStore alone.
    let series = run_fig5_jobs(&Scale::quick(), 1);
    let with_cfi = average_overhead(&series, "CFI+PTStore");
    let cfi_only = average_overhead(&series, "CFI");
    assert!(with_cfi < 0.91, "SPEC CFI+PTStore avg {with_cfi:.3}%");
    assert!(
        (with_cfi - cfi_only).abs() < 0.29,
        "SPEC PTStore-only {:.3}%",
        with_cfi - cfi_only
    );
}

#[test]
fn kernel_bound_macros_within_paper_bounds() {
    // Figures 6-7: <8.18% including CFI; PTStore alone <0.86%.
    for series in [
        run_fig6_jobs(&Scale::quick(), 1),
        run_fig7_jobs(&Scale::quick(), 1),
    ] {
        for s in &series {
            let both = s.overhead_of("CFI+PTStore").expect("both");
            let cfi = s.overhead_of("CFI").expect("cfi");
            assert!(
                both < 12.0,
                "{}: {both:.2}% way past the paper's band",
                s.benchmark
            );
            let ptstore_only = both - cfi;
            assert!(
                ptstore_only < 0.86,
                "{}: PTStore alone {ptstore_only:.3}% (paper <0.86%)",
                s.benchmark
            );
            assert!(
                cfi > 0.5,
                "{}: kernel-bound workloads must show CFI",
                s.benchmark
            );
        }
    }
}

#[test]
fn security_matrix_headline() {
    // §V-E: PTStore defeats everything; every baseline loses something.
    let matrix = ptstore_attacks::security_matrix();
    assert!(matrix
        .iter()
        .filter(|r| r.defense == DefenseMode::PtStore && r.tokens)
        .all(|r| !r.outcome.attacker_won()));
    for defense in [
        DefenseMode::None,
        DefenseMode::PtRand,
        DefenseMode::VirtualIsolation,
    ] {
        assert!(
            matrix
                .iter()
                .filter(|r| r.defense == defense)
                .any(|r| r.outcome.attacker_won()),
            "{defense} should lose at least one attack"
        );
    }
}
