//! Parallel measurement of (benchmark × configuration) grids.
//!
//! Figures 4–7 each time every benchmark under every kernel configuration.
//! Every such point boots a fresh kernel and is fully deterministic, so
//! [`measure_grid`] runs the points through the workspace's parallel map
//! ([`ptstore_core::pool::fan_out`]) and assembles the series from the
//! results in input order: the output is the same at any job count.

use ptstore_core::pool::fan_out;
use ptstore_kernel::{Kernel, KernelConfig};
use ptstore_workloads::report::{overhead_pct, OverheadSeries};
use ptstore_workloads::Measurement;

/// Measures a (benchmark × configuration) grid with up to `jobs` points in
/// flight. Every point boots a fresh kernel, so points are independent and
/// the assembled series are identical at any job count; the first
/// configuration of each series is its baseline, as in
/// [`measure`](ptstore_workloads::report::measure).
///
/// # Panics
/// Panics when `configs` is empty (there is no baseline) or a kernel fails
/// to boot.
pub(crate) fn measure_grid<B: Sync>(
    jobs: usize,
    configs: &[KernelConfig],
    benches: &[B],
    name: impl Fn(&B) -> String,
    run: impl Fn(&B, &mut Kernel) -> u64 + Sync,
) -> Vec<OverheadSeries> {
    assert!(!configs.is_empty(), "need at least a baseline config");
    let points: Vec<(usize, usize)> = (0..benches.len())
        .flat_map(|b| (0..configs.len()).map(move |c| (b, c)))
        .collect();
    let cycles = fan_out(jobs, &points, |&(b, c)| {
        let mut k = Kernel::boot(configs[c]).expect("kernel boots");
        run(&benches[b], &mut k)
    });
    benches
        .iter()
        .enumerate()
        .map(|(b, bench)| {
            let baseline = cycles[b * configs.len()];
            OverheadSeries {
                benchmark: name(bench),
                entries: configs
                    .iter()
                    .enumerate()
                    .map(|(c, cfg)| {
                        let cy = cycles[b * configs.len() + c];
                        Measurement {
                            label: cfg.label(),
                            cycles: cy,
                            overhead_pct: overhead_pct(cy, baseline),
                        }
                    })
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use ptstore_workloads::lmbench;
    use ptstore_workloads::report::standard_configs;

    const ITERS: u64 = 2;

    fn configs() -> [KernelConfig; 3] {
        let s = Scale::quick();
        standard_configs(s.mem_size, s.secure_size)
    }

    fn grid(jobs: usize, configs: &[KernelConfig], benches: &[&str]) -> Vec<OverheadSeries> {
        measure_grid(
            jobs,
            configs,
            benches,
            |name| name.to_string(),
            |name, k| lmbench::run(name, k, ITERS),
        )
    }

    /// The cycles of one point, measured on its own.
    fn point(cfg: KernelConfig, bench: &str) -> u64 {
        let mut k = Kernel::boot(cfg).expect("kernel boots");
        lmbench::run(bench, &mut k, ITERS)
    }

    #[test]
    fn preserves_order_at_any_job_count() {
        let configs = configs();
        let benches = ["null call", "read", "fork+exit", "mmap"];
        let serial = grid(1, &configs, &benches);
        assert_eq!(serial.len(), benches.len());
        for (series, bench) in serial.iter().zip(benches) {
            assert_eq!(series.benchmark, bench);
            let labels: Vec<String> = series.entries.iter().map(|m| m.label.clone()).collect();
            let expect: Vec<String> = configs.iter().map(KernelConfig::label).collect();
            assert_eq!(labels, expect, "{bench}: entries in config order");
            for (m, cfg) in series.entries.iter().zip(configs) {
                assert_eq!(m.cycles, point(cfg, bench), "{bench} under {}", m.label);
            }
            assert_eq!(
                series.entries[0].overhead_pct, 0.0,
                "{bench}: baseline first"
            );
        }
        for jobs in [2, 3, 8, 64] {
            assert_eq!(grid(jobs, &configs, &benches), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single() {
        let configs = configs();
        assert_eq!(grid(4, &configs, &[]), Vec::<OverheadSeries>::new());
        let single = grid(4, &configs[..1], &["null call"]);
        assert_eq!(
            single,
            vec![OverheadSeries {
                benchmark: "null call".into(),
                entries: vec![Measurement {
                    label: configs[0].label(),
                    cycles: point(configs[0], "null call"),
                    overhead_pct: 0.0,
                }],
            }]
        );
    }
}
