//! Measurement plumbing: run one workload across kernel configurations and
//! report relative overheads, as the paper's figures do.

use core::fmt;

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

/// Boots a kernel per configuration, runs `workload` on each, and assembles
/// the overhead series (first configuration is the baseline).
///
/// # Panics
/// Panics when a kernel fails to boot or `configs` is empty.
pub fn measure(
    benchmark: &str,
    configs: &[KernelConfig],
    mut workload: impl FnMut(&mut Kernel) -> u64,
) -> OverheadSeries {
    assert!(!configs.is_empty(), "need at least a baseline config");
    let mut entries = Vec::with_capacity(configs.len());
    let mut baseline = 0u64;
    for (i, cfg) in configs.iter().enumerate() {
        let mut k = Kernel::boot(*cfg).expect("kernel boots");
        let cycles = workload(&mut k);
        if i == 0 {
            baseline = cycles;
        }
        entries.push(Measurement {
            label: cfg.label(),
            cycles,
            overhead_pct: overhead_pct(cycles, baseline),
        });
    }
    OverheadSeries {
        benchmark: benchmark.to_string(),
        entries,
    }
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
        let series = measure("nulls", &configs, |k| {
            timed(k, |k| {
                for _ in 0..100 {
                    k.sys_null().expect("null");
                }
            })
        });
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
}
