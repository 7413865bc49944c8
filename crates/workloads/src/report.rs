//! Measurement plumbing: run one workload across kernel configurations and
//! report relative overheads, as the paper's figures do.

use core::fmt;

use ptstore_core::pool::fan_out;
use ptstore_kernel::{Kernel, KernelConfig};

/// One (configuration, cycles) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Configuration label (`baseline`, `CFI`, `CFI+PTStore`, ...).
    pub label: String,
    /// Cycles the workload took under that configuration.
    pub cycles: u64,
    /// Relative overhead versus the series baseline, percent.
    pub overhead_pct: f64,
}

/// A benchmark's measurements across configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadSeries {
    /// Benchmark name (e.g. `lat_syscall null`).
    pub benchmark: String,
    /// Per-configuration results; the first entry is the baseline.
    pub entries: Vec<Measurement>,
}

impl OverheadSeries {
    /// The overhead of the labelled configuration, if present.
    pub fn overhead_of(&self, label: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|m| m.label == label)
            .map(|m| m.overhead_pct)
    }
}

impl fmt::Display for OverheadSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<24}", self.benchmark)?;
        for m in &self.entries {
            write!(f, " | {}: {:>7.2}%", m.label, m.overhead_pct)?;
        }
        Ok(())
    }
}

/// Relative overhead of `cycles` versus `baseline`, percent.
pub fn overhead_pct(cycles: u64, baseline: u64) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    (cycles as f64 - baseline as f64) / baseline as f64 * 100.0
}

/// Measures a (benchmark × configuration) grid with up to `jobs` points in
/// flight, and assembles one overhead series per benchmark; the first
/// configuration of each series is its baseline. Every point boots a fresh
/// kernel, so the points are independent: they run through the workspace's
/// parallel map ([`fan_out`]) and the series come out the same at any job
/// count.
///
/// # Panics
/// Panics when `configs` is empty (there is no baseline) or a kernel fails
/// to boot.
pub fn measure<B: Sync>(
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
        .zip(cycles.chunks(configs.len()))
        .map(|(bench, row)| OverheadSeries {
            benchmark: name(bench),
            entries: configs
                .iter()
                .zip(row)
                .map(|(cfg, &cycles)| Measurement {
                    label: cfg.label(),
                    cycles,
                    overhead_pct: overhead_pct(cycles, row[0]),
                })
                .collect(),
        })
        .collect()
}

/// The three-way comparison used throughout §V-D: no-CFI baseline, CFI, and
/// CFI+PTStore, at the given machine size.
pub fn standard_configs(mem_size: u64, secure_size: u64) -> [KernelConfig; 3] {
    [
        KernelConfig::baseline()
            .with_mem_size(mem_size)
            .with_initial_secure_size(secure_size),
        KernelConfig::cfi()
            .with_mem_size(mem_size)
            .with_initial_secure_size(secure_size),
        KernelConfig::cfi_ptstore()
            .with_mem_size(mem_size)
            .with_initial_secure_size(secure_size),
    ]
}

/// Runs a workload and returns the cycles it consumed (delta around the
/// closure).
pub fn timed(k: &mut Kernel, f: impl FnOnce(&mut Kernel)) -> u64 {
    let before = k.cycles.total();
    f(k);
    k.cycles.since(before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lmbench;
    use ptstore_core::MIB;

    #[test]
    fn overhead_math() {
        assert_eq!(overhead_pct(110, 100), 10.0);
        assert_eq!(overhead_pct(95, 100), -5.0);
        assert_eq!(overhead_pct(5, 0), 0.0);
    }

    #[test]
    fn measure_produces_labelled_series() {
        let configs = standard_configs(256 * MIB, 16 * MIB);
        let grid = measure(
            1,
            &configs,
            &["nulls"],
            |n| n.to_string(),
            |_, k| {
                timed(k, |k| {
                    for _ in 0..100 {
                        k.sys_null().expect("null");
                    }
                })
            },
        );
        assert_eq!(grid.len(), 1, "one series per benchmark");
        let series = &grid[0];
        assert_eq!(series.entries.len(), 3);
        assert_eq!(series.entries[0].label, "baseline");
        assert_eq!(series.entries[0].overhead_pct, 0.0);
        assert_eq!(series.entries[1].label, "CFI");
        assert!(series.entries[1].overhead_pct > 0.0, "CFI costs something");
        assert_eq!(series.entries[2].label, "CFI+PTStore");
        assert!(series.overhead_of("CFI").is_some());
        assert!(series.overhead_of("nope").is_none());
        let s = series.to_string();
        assert!(s.contains("CFI+PTStore"));
    }

    const ITERS: u64 = 2;

    fn grid(jobs: usize, configs: &[KernelConfig], benches: &[&str]) -> Vec<OverheadSeries> {
        measure(
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
        let configs = standard_configs(512 * MIB, 8 * MIB);
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
        let configs = standard_configs(512 * MIB, 8 * MIB);
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
