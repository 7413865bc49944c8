//! Experiment drivers, one per paper table/figure.

use ptstore_core::pool::fan_out;
use ptstore_core::{GIB, MIB};
use ptstore_hwcost::{table3, BoomConfig, Table3Row};
use ptstore_kernel::{DefenseMode, DrainPolicy, Kernel, KernelConfig, DEFAULT_WATERMARK_DEPTH};
use ptstore_workloads::c1m::{run_c1m, C1mParams, C1mResult};
use ptstore_workloads::fork_stress::{run_fork_stress, stress_configs, ForkStressResult};
use ptstore_workloads::lmbench;
use ptstore_workloads::nginx::{run_nginx, NginxParams, RESPONSE_SIZES};
use ptstore_workloads::redis::{run_redis_test, RedisParams, REDIS_TESTS};
use ptstore_workloads::regression::{diff_outputs, run_suite, TestOutput};
use ptstore_workloads::report::{overhead_pct, standard_configs, OverheadSeries};
use ptstore_workloads::smp::{run_fork_stress_smp, run_nginx_smp, run_redis_smp, SmpRunReport};
use ptstore_workloads::spec::{run_spec, SPEC_CINT2006};

use crate::par::measure_grid;

/// Scale knobs: `paper()` matches the publication; `quick()` runs in
/// seconds, for CI and the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Physical memory of the modelled machine.
    pub mem_size: u64,
    /// Initial secure-region size (the paper's 64 MiB default).
    pub secure_size: u64,
    /// LMBench iterations per microbenchmark (paper: 1 000).
    pub lmbench_iters: u64,
    /// Fork-stress process count (paper: 30 000).
    pub stress_procs: u64,
    /// Large-region size for the `-Adj` configuration (paper: 1 GiB).
    pub stress_large_region: u64,
    /// NGINX request count (paper: 10 000).
    pub nginx_requests: u64,
    /// Redis requests per test (paper: 100 000).
    pub redis_requests: u64,
    /// C1M tenant slots across the machine (paper shape: 500).
    pub c1m_tenants: u64,
    /// C1M churn rounds per tenant slot (paper shape: 20).
    pub c1m_rounds: u64,
    /// C1M connections per tenant generation (paper shape: 100 — one
    /// million connections total).
    pub c1m_requests: u64,
}

impl Scale {
    /// The paper's evaluation scale.
    pub fn paper() -> Self {
        Self {
            mem_size: 4 * GIB,
            secure_size: 64 * MIB,
            lmbench_iters: 1_000,
            stress_procs: 30_000,
            stress_large_region: GIB,
            nginx_requests: 10_000,
            redis_requests: 100_000,
            c1m_tenants: 500,
            c1m_rounds: 20,
            c1m_requests: 100,
        }
    }

    /// A seconds-scale variant preserving every ratio that matters.
    pub fn quick() -> Self {
        Self {
            mem_size: 512 * MIB,
            secure_size: 8 * MIB,
            lmbench_iters: 100,
            stress_procs: 1_500,
            stress_large_region: 128 * MIB,
            nginx_requests: 1_000,
            redis_requests: 2_000,
            c1m_tenants: 30,
            c1m_rounds: 4,
            c1m_requests: 15,
        }
    }

    /// The CI-budgeted C1M trajectory shape (`reproduce c1m --medium`):
    /// 150 tenant slots × 8 churn rounds × 50 connections = 60 000
    /// connections per configuration — an order of magnitude past `quick`
    /// while staying minutes-scale, so `bench.sh` can track a
    /// connections-per-second trajectory toward the paper's one-million
    /// shape. Non-C1M knobs stay at the quick scale.
    pub fn medium() -> Self {
        Self {
            c1m_tenants: 150,
            c1m_rounds: 8,
            c1m_requests: 50,
            ..Self::quick()
        }
    }
}

// ---------------------------------------------------------------------
// Table I — lines of code
// ---------------------------------------------------------------------

/// One Table I row: a PTStore component and its size in this repository.
#[derive(Debug, Clone)]
pub struct LocRow {
    /// Component (paper wording).
    pub component: &'static str,
    /// Implementation language in the paper.
    pub paper_language: &'static str,
    /// The paper's total LoC for the component.
    pub paper_loc: u64,
    /// Crates/modules implementing the equivalent here.
    pub our_location: &'static str,
    /// Our measured non-blank LoC.
    pub our_loc: u64,
}

fn count_loc(paths: &[&str]) -> u64 {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut total = 0u64;
    for rel in paths {
        let p = root.join(rel);
        if let Ok(content) = std::fs::read_to_string(&p) {
            total += content.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        }
    }
    total
}

/// Regenerates Table I: the paper's per-component LoC next to this
/// reproduction's equivalents (whole files implementing the mechanism, so
/// the counts are naturally larger than a kernel patch).
pub fn table1() -> Vec<LocRow> {
    vec![
        LocRow {
            component: "RISC-V Processor",
            paper_language: "Chisel",
            paper_loc: 58,
            our_location: "ptstore-core (pmp/policy) + ptstore-mmu (walker) + ptstore-isa (cpu)",
            our_loc: count_loc(&[
                "crates/core/src/pmp.rs",
                "crates/core/src/policy.rs",
                "crates/mmu/src/walker.rs",
                "crates/isa/src/cpu.rs",
            ]),
        },
        LocRow {
            component: "LLVM Back-end",
            paper_language: "C++ and TableGen",
            paper_loc: 15,
            our_location: "ptstore-isa (encode/decode)",
            our_loc: count_loc(&["crates/isa/src/encode.rs", "crates/isa/src/decode.rs"]),
        },
        LocRow {
            component: "Linux Kernel",
            paper_language: "C",
            paper_loc: 1_405,
            our_location: "ptstore-kernel",
            our_loc: count_loc(&[
                "crates/kernel/src/kernel.rs",
                "crates/kernel/src/zones.rs",
                "crates/kernel/src/slab.rs",
                "crates/kernel/src/proc_mgmt.rs",
                "crates/kernel/src/syscall.rs",
            ]),
        },
    ]
}

// ---------------------------------------------------------------------
// Table II / Table III — configuration and hardware cost
// ---------------------------------------------------------------------

/// The prototype configuration rows of Table II.
pub fn table2() -> Vec<(&'static str, String)> {
    let boom = BoomConfig::small_boom();
    vec![
        (
            "ISA Extensions",
            "RV64IMAC with M, S, and U modes".to_string(),
        ),
        ("BOOM Config", "SmallBooms".to_string()),
        ("Caches", "16KiB 4-way L1I$, 16KiB 4-way L1D$".to_string()),
        (
            "TLBs",
            format!(
                "{}-entry I-TLB, {}-entry D-TLB",
                boom.itlb_entries, boom.dtlb_entries
            ),
        ),
        (
            "Peripherals",
            "Xilinx MIG (4GiB DDR3), AXI Ethernet, 64KiB Boot ROM".to_string(),
        ),
    ]
}

/// Regenerates Table III.
pub fn run_table3() -> [Table3Row; 2] {
    table3(&BoomConfig::small_boom())
}

// ---------------------------------------------------------------------
// §V-C — LTP regression
// ---------------------------------------------------------------------

/// Result of the LTP-style regression diff.
#[derive(Debug, Clone)]
pub struct LtpResult {
    /// Number of test cases run per kernel.
    pub cases: usize,
    /// Outputs from the original (CFI) kernel.
    pub original: Vec<TestOutput>,
    /// Deviations between original and PTStore kernels (empty = pass).
    pub deviations: Vec<String>,
}

/// Runs the regression suite on the original and modified kernels, on up
/// to `jobs` threads, and diffs the outputs (paper §V-C).
pub fn run_ltp_jobs(scale: &Scale, jobs: usize) -> LtpResult {
    let mk = |cfg: KernelConfig| {
        let scale = *scale;
        move || {
            let cfg = cfg
                .to_builder()
                .mem_size(scale.mem_size)
                .initial_secure_size(scale.secure_size.min(scale.mem_size / 4))
                .build()
                .expect("valid scale geometry");
            Kernel::boot(cfg).expect("boot")
        }
    };
    let configs = [KernelConfig::cfi(), KernelConfig::cfi_ptstore()];
    let mut suites = fan_out(jobs, &configs, |cfg| run_suite(mk(*cfg)));
    let modified = suites.pop().expect("two suites");
    let original = suites.pop().expect("two suites");
    let deviations = diff_outputs(&original, &modified);
    LtpResult {
        cases: original.len(),
        original,
        deviations,
    }
}

// ---------------------------------------------------------------------
// Figure 4 — LMBench
// ---------------------------------------------------------------------

/// Runs every Figure 4 microbenchmark across baseline/CFI/CFI+PTStore, with
/// up to `jobs` (benchmark × config) points in flight.
pub fn run_fig4_jobs(scale: &Scale, jobs: usize) -> Vec<OverheadSeries> {
    let configs = standard_configs(scale.mem_size, scale.secure_size.min(scale.mem_size / 4));
    measure_grid(
        jobs,
        &configs,
        &lmbench::MICROBENCHMARKS,
        |name: &&str| name.to_string(),
        |name, k| lmbench::run(name, k, scale.lmbench_iters),
    )
}

// ---------------------------------------------------------------------
// §V-D1 — fork stress
// ---------------------------------------------------------------------

/// One fork-stress configuration's results.
#[derive(Debug, Clone)]
pub struct StressRow {
    /// Configuration label.
    pub label: String,
    /// Raw results.
    pub result: ForkStressResult,
    /// Overhead versus the no-CFI baseline, percent.
    pub overhead_pct: f64,
}

/// Runs the §V-D1 stress at the given scale across the four
/// configurations, with up to `jobs` of them in flight. The baseline is the
/// first configuration's result; each point boots a fresh kernel, so the
/// rows are identical at any job count.
pub fn run_stress_jobs(scale: &Scale, jobs: usize) -> Vec<StressRow> {
    // The small-region configuration is sized so adjustments must fire, as
    // the paper's 64 MiB does for 30 000 processes.
    let small_region = (scale.stress_procs * 6 * ptstore_core::PAGE_SIZE / 10)
        .clamp(MIB, scale.mem_size / 8)
        .next_power_of_two()
        / 2;
    let configs = stress_configs(scale.mem_size, small_region, scale.stress_large_region);
    let results = fan_out(jobs, &configs, |cfg| {
        let mut k = Kernel::boot(*cfg).expect("boot");
        let result = run_fork_stress(&mut k, scale.stress_procs).expect("stress");
        (cfg.label(), result)
    });
    let baseline = results[0].1.cycles;
    results
        .into_iter()
        .map(|(label, result)| {
            let overhead_pct = overhead_pct(result.cycles, baseline);
            StressRow {
                label,
                result,
                overhead_pct,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 5 — SPEC CINT2006
// ---------------------------------------------------------------------

/// Runs every SPEC-shaped benchmark across the three configurations, with
/// up to `jobs` (benchmark × config) points in flight.
pub fn run_fig5_jobs(scale: &Scale, jobs: usize) -> Vec<OverheadSeries> {
    let configs = standard_configs(scale.mem_size, scale.secure_size.min(scale.mem_size / 4));
    measure_grid(
        jobs,
        &configs,
        &SPEC_CINT2006,
        |p: &ptstore_workloads::spec::SpecProfile| p.name.to_string(),
        |p, k| run_spec(k, p),
    )
}

// ---------------------------------------------------------------------
// Figure 6 — NGINX
// ---------------------------------------------------------------------

/// Runs the NGINX benchmark per response size across the configurations,
/// with up to `jobs` (benchmark × config) points in flight.
pub fn run_fig6_jobs(scale: &Scale, jobs: usize) -> Vec<OverheadSeries> {
    let configs = standard_configs(scale.mem_size, scale.secure_size.min(scale.mem_size / 4));
    measure_grid(
        jobs,
        &configs,
        &RESPONSE_SIZES,
        |size: &u64| format!("nginx {}KiB", size >> 10),
        |&size, k| {
            let params = NginxParams {
                requests: scale.nginx_requests,
                concurrency: 100,
                ..NginxParams::paper(size)
            };
            run_nginx(k, &params)
        },
    )
}

// ---------------------------------------------------------------------
// Figure 7 — Redis
// ---------------------------------------------------------------------

/// Runs the redis-benchmark command list across the configurations, with
/// up to `jobs` (benchmark × config) points in flight.
pub fn run_fig7_jobs(scale: &Scale, jobs: usize) -> Vec<OverheadSeries> {
    let configs = standard_configs(scale.mem_size, scale.secure_size.min(scale.mem_size / 4));
    let params = RedisParams {
        requests: scale.redis_requests,
        connections: 50,
    };
    measure_grid(
        jobs,
        &configs,
        &REDIS_TESTS,
        |t: &ptstore_workloads::redis::RedisTest| t.name.to_string(),
        |t, k| run_redis_test(k, t, &params),
    )
}

// ---------------------------------------------------------------------
// SMP scaling — hart-distributed macrobenchmarks
// ---------------------------------------------------------------------

/// One workload measured single-hart and `harts`-way on otherwise
/// identical machines.
#[derive(Debug, Clone)]
pub struct SmpComparison {
    /// Workload name.
    pub workload: String,
    /// The `--harts 1` run (the paper's original machine).
    pub single: SmpRunReport,
    /// The `--harts N` run.
    pub multi: SmpRunReport,
}

impl SmpComparison {
    /// Throughput gain of the SMP run: ops-per-wall-cycle ratio.
    pub fn speedup(&self) -> f64 {
        let base = self.single.ops_per_kilocycle();
        if base == 0.0 {
            0.0
        } else {
            self.multi.ops_per_kilocycle() / base
        }
    }
}

/// Runs the hart-distributed nginx, Redis (GET), and fork-stress drivers
/// on 1-hart and `harts`-hart CFI+PTStore machines, with up to `jobs`
/// (workload × hart-count) points in flight.
///
/// # Panics
/// Panics when `harts` is 0 or the kernel fails to boot.
pub fn run_smp_jobs(scale: &Scale, harts: usize, jobs: usize) -> Vec<SmpComparison> {
    assert!(harts >= 1, "need at least one hart");
    let boot = |h: usize| {
        Kernel::boot(
            KernelConfig::cfi_ptstore()
                .with_mem_size(scale.mem_size)
                .with_initial_secure_size(scale.secure_size.min(scale.mem_size / 4))
                .with_harts(h),
        )
        .expect("smp kernel boots")
    };
    let nginx_params = NginxParams {
        requests: scale.nginx_requests,
        ..NginxParams::paper(4 << 10)
    };
    let redis_params = RedisParams {
        requests: scale.redis_requests,
        connections: 50,
    };
    let redis_get = &REDIS_TESTS[3];
    let names = ["nginx 4k", "redis GET", "fork stress"];
    // One point per (workload, hart count); each boots a fresh machine.
    let points: Vec<(usize, usize)> = (0..names.len())
        .flat_map(|w| [(w, 1), (w, harts)])
        .collect();
    let reports: Vec<SmpRunReport> = fan_out(jobs, &points, |&(w, h)| {
        let mut k = boot(h);
        match w {
            0 => run_nginx_smp(&mut k, &nginx_params),
            1 => run_redis_smp(&mut k, redis_get, &redis_params),
            _ => run_fork_stress_smp(&mut k, scale.stress_procs.min(2_000)),
        }
    });
    names
        .iter()
        .enumerate()
        .map(|(w, name)| SmpComparison {
            workload: (*name).to_string(),
            single: reports[2 * w].clone(),
            multi: reports[2 * w + 1].clone(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// C1M — multi-tenant macro workload
// ---------------------------------------------------------------------

/// One C1M configuration row.
#[derive(Debug, Clone)]
pub struct C1mRow {
    /// Configuration label.
    pub label: String,
    /// The run's modeled results.
    pub result: C1mResult,
    /// Wall-cycle overhead versus the first (native) row, percent —
    /// negative when a row beats the baseline.
    pub overhead_pct: f64,
}

/// The batched-row drain policies the full C1M sweep walks, in display
/// order: the boundary-only default and a depth-capped watermark.
pub fn sweep_policies() -> [DrainPolicy; 2] {
    [
        DrainPolicy::Boundary,
        DrainPolicy::Watermark {
            depth: DEFAULT_WATERMARK_DEPTH,
        },
    ]
}

/// The C1M driver: a native row, an eager CFI+PTStore row, and one
/// batched (deferred shootdowns + allocation magazines) row per drain
/// policy — every [`sweep_policies`] policy when `policy` is `None`, or
/// exactly the requested one (`reproduce c1m --drain-policy …`). Up to
/// `jobs` rows run at once; each boots a fresh kernel, so rows are
/// identical at any job count. The
/// machine always has ≥ 2 harts: with one hart there is no remote TLB to
/// shoot down, batching is (by design) a no-op, and every policy is inert.
pub fn run_c1m_sweep_jobs(
    scale: &Scale,
    harts: usize,
    jobs: usize,
    policy: Option<DrainPolicy>,
) -> Vec<C1mRow> {
    let harts = harts.max(2);
    let p = C1mParams {
        tenants: scale.c1m_tenants,
        churn_rounds: scale.c1m_rounds,
        requests_per_tenant: scale.c1m_requests,
        ..C1mParams::paper()
    };
    let geometry = |cfg: KernelConfig| {
        cfg.to_builder()
            .mem_size(scale.mem_size)
            .initial_secure_size(scale.secure_size.min(scale.mem_size / 4))
            .harts(harts)
            .build()
            .expect("valid c1m geometry")
    };
    let batched: Vec<DrainPolicy> = match policy {
        Some(one) => vec![one],
        None => sweep_policies().to_vec(),
    };
    let mut configs = vec![
        ("Native".to_string(), geometry(KernelConfig::baseline())),
        (
            "CFI+PTStore eager".to_string(),
            geometry(KernelConfig::cfi_ptstore()),
        ),
    ];
    for pol in batched {
        configs.push((
            format!("CFI+PTStore batched/{pol}"),
            geometry(
                KernelConfig::cfi_ptstore()
                    .with_deferred_shootdowns(true)
                    .with_alloc_magazines(true)
                    .with_drain_policy(pol),
            ),
        ));
    }
    let results = fan_out(jobs, &configs, |(label, cfg)| {
        let mut k = Kernel::boot(*cfg).expect("c1m kernel boots");
        (label.clone(), run_c1m(&mut k, &p))
    });
    let baseline = results[0].1.report.wall_cycles;
    results
        .into_iter()
        .map(|(label, result)| {
            let overhead_pct = overhead_pct(result.report.wall_cycles, baseline);
            C1mRow {
                label,
                result,
                overhead_pct,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Ablations — the design choices DESIGN.md calls out
// ---------------------------------------------------------------------

/// Processes alive at once in each point of the region-size sweep.
pub const ABLATION_STRESS_PROCS: u64 = 300;

/// Fork+exit rounds per defense mode.
pub const ABLATION_FORKS: u64 = 100;

/// One point of the initial secure-region size sweep.
#[derive(Debug, Clone)]
pub struct RegionSizeRow {
    /// Initial secure-region size, MiB.
    pub initial_mib: u64,
    /// Fork-stress cycles over CFI alone, percent.
    pub overhead_pct: f64,
    /// Secure-region adjustments the run needed.
    pub adjustments: u64,
}

/// Runs the two modeled ablations with up to `jobs` points in flight:
///
/// * the initial secure-region size sweep — a fork stress of
///   [`ABLATION_STRESS_PROCS`] processes on a 512 MiB CFI+PTStore machine
///   per size, against the same stress under CFI alone;
/// * the fork+exit overhead of each [`DefenseMode`] on a 256 MiB CFI
///   machine ([`ABLATION_FORKS`] rounds), against no defense.
///
/// Both are fixed-size, so they ignore the scale.
pub fn run_ablation(jobs: usize) -> (Vec<RegionSizeRow>, Vec<(DefenseMode, f64)>) {
    const REGION_MIB: [u64; 6] = [1, 2, 4, 8, 16, 64];
    let mut configs = vec![KernelConfig::cfi().with_mem_size(512 * MIB)];
    configs.extend(REGION_MIB.map(|mib| {
        KernelConfig::cfi_ptstore()
            .with_mem_size(512 * MIB)
            .with_initial_secure_size(mib * MIB)
    }));
    let stress = fan_out(jobs, &configs, |cfg| {
        let mut k = Kernel::boot(*cfg).expect("boot");
        run_fork_stress(&mut k, ABLATION_STRESS_PROCS).expect("stress")
    });
    let sweep = REGION_MIB
        .iter()
        .zip(&stress[1..])
        .map(|(&initial_mib, r)| RegionSizeRow {
            initial_mib,
            overhead_pct: overhead_pct(r.cycles, stress[0].cycles),
            adjustments: r.adjustments,
        })
        .collect();

    let modes = [
        DefenseMode::None,
        DefenseMode::PtRand,
        DefenseMode::VirtualIsolation,
        DefenseMode::PtStore,
    ];
    let cycles = fan_out(jobs, &modes, |&defense| {
        let cfg = KernelConfig::cfi()
            .with_defense(defense)
            .with_mem_size(256 * MIB)
            .with_initial_secure_size(16 * MIB);
        let mut k = Kernel::boot(cfg).expect("boot");
        lmbench::lat_fork_exit(&mut k, ABLATION_FORKS)
    });
    let by_mode = modes
        .into_iter()
        .zip(&cycles)
        .map(|(defense, &c)| (defense, overhead_pct(c, cycles[0])))
        .collect();
    (sweep, by_mode)
}

// ---------------------------------------------------------------------
// Summary helpers
// ---------------------------------------------------------------------

/// Geometric-mean-ish summary used in the paper's prose: the average
/// overhead of `label` across a set of series.
pub fn average_overhead(series: &[OverheadSeries], label: &str) -> f64 {
    let values: Vec<f64> = series.iter().filter_map(|s| s.overhead_of(label)).collect();
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptstore_workloads::Measurement;

    #[test]
    fn table1_counts_real_code() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.our_loc > r.paper_loc,
                "{}: full reimplementation is larger",
                r.component
            );
        }
    }

    #[test]
    fn table3_rows_regenerate() {
        let rows = run_table3();
        assert_eq!(rows[1].core_lut - rows[0].core_lut, 508);
    }

    #[test]
    fn ltp_passes_at_quick_scale() {
        let r = run_ltp_jobs(&Scale::quick(), 1);
        assert!(r.cases >= 30);
        assert!(r.deviations.is_empty(), "{:#?}", r.deviations);
    }

    #[test]
    fn average_overhead_math() {
        let mk = |pct: f64| OverheadSeries {
            benchmark: "b".into(),
            entries: vec![Measurement {
                label: "CFI".into(),
                cycles: 100,
                overhead_pct: pct,
            }],
        };
        let series = vec![mk(2.0), mk(4.0)];
        assert_eq!(average_overhead(&series, "CFI"), 3.0);
        assert_eq!(average_overhead(&series, "missing"), 0.0);
    }
}
