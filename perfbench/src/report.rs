//! The metric vocabulary and the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::drive::Counts;
use crate::scan::BATCH;
use crate::stats::{tail_percentile, Hist};
use crate::trace::Tracer;

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("units_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("modeled_cycles_per_unit", "cycles/unit"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics, printed by a traced run. Every workload prints every
/// one; a metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 91] = [
    ("kernel.fork.p50_us", "us"),
    ("kernel.fork.tail_us", "us"),
    ("kernel.fork.tail_pct", "pct"),
    ("kernel.fork.n", "count"),
    ("kernel.fork_adjust.p50_us", "us"),
    ("kernel.fork_adjust.count", "count"),
    ("kernel.exit.p50_us", "us"),
    ("kernel.exit.tail_us", "us"),
    ("kernel.exit.tail_pct", "pct"),
    ("kernel.exit.n", "count"),
    ("kernel.wait.p50_us", "us"),
    ("kernel.wait.tail_us", "us"),
    ("kernel.wait.tail_pct", "pct"),
    ("kernel.wait.n", "count"),
    ("kernel.switch.p50_us", "us"),
    ("kernel.switch.n", "count"),
    ("kernel.fault.p50_us", "us"),
    ("kernel.fault.n", "count"),
    ("kernel.mmap.p50_us", "us"),
    ("kernel.munmap.p50_us", "us"),
    ("kernel.mprotect.p50_us", "us"),
    ("kernel.conn.p50_us", "us"),
    ("kernel.conn.tail_us", "us"),
    ("kernel.conn.tail_pct", "pct"),
    ("kernel.conn.n", "count"),
    ("kernel.touch.hot_ns", "ns"),
    ("kernel.touch.cold_ns", "ns"),
    ("kernel.share.fork", "ratio"),
    ("kernel.share.exit", "ratio"),
    ("kernel.share.wait", "ratio"),
    ("kernel.share.switch", "ratio"),
    ("kernel.share.fault", "ratio"),
    ("kernel.share.vm", "ratio"),
    ("kernel.share.conn", "ratio"),
    ("kernel.share.touch", "ratio"),
    ("kernel.syscalls", "count"),
    ("kernel.page_faults", "count"),
    ("kernel.context_switches", "count"),
    ("kernel.shootdown_ipis", "count"),
    ("kernel.deferred_drains", "count"),
    ("kernel.deferred_queue_peak", "count"),
    ("kernel.adjustments", "count"),
    ("kernel.migrated_pages", "count"),
    ("kernel.pt_pages_peak", "count"),
    ("kernel.coalesce_ratio", "pages/drain"),
    ("mmu.translate.hot_ns", "ns"),
    ("mmu.translate.cold_ns", "ns"),
    ("mmu.dtlb.hit_ratio", "ratio"),
    ("mmu.dtlb.lookups", "count"),
    ("mmu.walk.fetches_per_miss", "fetches/miss"),
    ("mem.read.ns", "ns"),
    ("mem.secure_writes", "count"),
    ("mem.ptw_reads", "count"),
    ("mem.regular_reads", "count"),
    ("mem.regular_writes", "count"),
    ("mem.faults", "count"),
    ("fault.boot_model.us", "us"),
    ("fault.apply.us", "us"),
    ("fault.oracle.us", "us"),
    ("modelcheck.digest.us", "us"),
    ("modelcheck.transition.us", "us"),
    ("fault.replay.share", "ratio"),
    ("fault.oracle.share", "ratio"),
    ("modelcheck.digest.share", "ratio"),
    ("modelcheck.states", "count"),
    ("modelcheck.transitions", "count"),
    ("modelcheck.dedup_ratio", "ratio"),
    ("modelcheck.replayed_ops_per_transition", "ops/transition"),
    ("cycles.user", "cycles/unit"),
    ("cycles.kernel", "cycles/unit"),
    ("cycles.mem_access", "cycles/unit"),
    ("cycles.tlb_miss", "cycles/unit"),
    ("cycles.cfi_check", "cycles/unit"),
    ("cycles.page_alloc", "cycles/unit"),
    ("cycles.pt_write", "cycles/unit"),
    ("cycles.token", "cycles/unit"),
    ("cycles.adjustment", "cycles/unit"),
    ("cycles.sbi", "cycles/unit"),
    ("cycles.virt_isolation_switch", "cycles/unit"),
    ("cycles.tlb_flush", "cycles/unit"),
    ("cycles.context_switch", "cycles/unit"),
    ("cycles.page_fault", "cycles/unit"),
    ("cycles.ipi", "cycles/unit"),
    ("cycles.io", "cycles/unit"),
    ("layer.kernel.self_share", "ratio"),
    ("layer.mmu.self_share", "ratio"),
    ("layer.mem.self_share", "ratio"),
    ("layer.fault.self_share", "ratio"),
    ("layer.modelcheck.self_share", "ratio"),
    ("layer.bench.self_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Layers whose self time is reported; time in no span is `bench`'s.
const LAYERS: [&str; 5] = ["kernel", "mmu", "mem", "fault", "modelcheck"];

/// Span names whose per-call latency distribution is reported in full.
const DISTRIBUTIONS: [(&str, &[&str]); 4] = [
    ("kernel.fork", &["kernel.fork", "kernel.fork+adjust"]),
    ("kernel.exit", &["kernel.exit"]),
    ("kernel.wait", &["kernel.wait"]),
    ("kernel.conn", &["kernel.conn"]),
];

/// Median-only latencies: metric name and the span it reads.
const MEDIANS: [(&str, &str); 11] = [
    ("kernel.fork_adjust.p50_us", "kernel.fork+adjust"),
    ("kernel.switch.p50_us", "kernel.switch"),
    ("kernel.fault.p50_us", "kernel.fault"),
    ("kernel.mmap.p50_us", "kernel.mmap"),
    ("kernel.munmap.p50_us", "kernel.munmap"),
    ("kernel.mprotect.p50_us", "kernel.mprotect"),
    ("fault.boot_model.us", "fault.boot_model"),
    ("fault.apply.us", "fault.apply"),
    ("fault.oracle.us", "fault.oracle"),
    ("modelcheck.digest.us", "modelcheck.digest"),
    ("modelcheck.transition.us", "modelcheck.transition"),
];

/// Per-call costs of batched spans: metric name and span name; each span
/// covers [`BATCH`] calls.
const PER_CALL_NS: [(&str, &str); 5] = [
    ("kernel.touch.hot_ns", "kernel.touch.hot"),
    ("kernel.touch.cold_ns", "kernel.touch.cold"),
    ("mmu.translate.hot_ns", "mmu.translate.hot"),
    ("mmu.translate.cold_ns", "mmu.translate.cold"),
    ("mem.read.ns", "mem.read"),
];

/// Shares of timed-phase time: metric name and the spans it sums.
const SHARES: [(&str, &[&str]); 11] = [
    ("kernel.share.fork", &["kernel.fork", "kernel.fork+adjust"]),
    ("kernel.share.exit", &["kernel.exit"]),
    ("kernel.share.wait", &["kernel.wait"]),
    ("kernel.share.switch", &["kernel.switch"]),
    ("kernel.share.fault", &["kernel.fault"]),
    (
        "kernel.share.vm",
        &[
            "kernel.mmap",
            "kernel.munmap",
            "kernel.mprotect",
            "kernel.brk",
        ],
    ),
    ("kernel.share.conn", &["kernel.conn"]),
    (
        "kernel.share.touch",
        &["kernel.touch", "kernel.touch.hot", "kernel.touch.cold"],
    ),
    ("fault.replay.share", &["fault.replay"]),
    ("fault.oracle.share", &["fault.oracle"]),
    ("modelcheck.digest.share", &["modelcheck.digest"]),
];

/// Per-layer values from a traced pass, its count metrics, and the trace
/// overhead.
pub fn per_layer(t: &Tracer, counts: &Counts, trace_overhead: f64) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|&(n, _)| (n.to_string(), 0.0))
        .collect();
    let mut set = |name: &str, v: f64| {
        let slot = m
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = if v.is_finite() { v } else { 0.0 };
    };
    let hist = |names: &[&str]| {
        let mut h = Hist::default();
        for n in names {
            if let Some(x) = t.durations.get(n) {
                h.merge(x);
            }
        }
        h
    };
    for (base, names) in DISTRIBUTIONS {
        let h = hist(names);
        let tail = tail_percentile(h.count());
        set(&format!("{base}.p50_us"), h.percentile(50.0) / 1e3);
        set(
            &format!("{base}.tail_us"),
            tail.map_or(0.0, |p| h.percentile(p) / 1e3),
        );
        set(&format!("{base}.tail_pct"), tail.unwrap_or(0.0));
        set(&format!("{base}.n"), h.count() as f64);
    }
    for (name, span) in MEDIANS {
        set(name, hist(&[span]).percentile(50.0) / 1e3);
    }
    for span in ["kernel.switch", "kernel.fault"] {
        set(&format!("{span}.n"), hist(&[span]).count() as f64);
    }
    for (name, span) in PER_CALL_NS {
        let h = hist(&[span]);
        set(
            name,
            h.sum() as f64 / (h.count() * BATCH as u64).max(1) as f64,
        );
    }
    let timed = t.timed_ns.max(1) as f64;
    for (name, spans) in SHARES {
        let total: u64 = spans.iter().filter_map(|s| t.timed_total.get(s)).sum();
        set(name, total as f64 / timed);
    }
    let mut covered = 0.0;
    for layer in LAYERS {
        let share = t.layer_self.get(layer).copied().unwrap_or(0) as f64 / timed;
        covered += share;
        set(&format!("layer.{layer}.self_share"), share);
    }
    set("layer.bench.self_share", 1.0 - covered);
    for (&name, &v) in counts {
        set(name, v);
    }
    set("bench.trace_overhead", trace_overhead);
    m
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .chain(END_TO_END.iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name repeats");
        for (name, unit) in PER_LAYER.iter().chain(END_TO_END.iter()) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit.len() <= 16);
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (section, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, list.len(), "{section} count");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = json_line(
            true,
            3,
            0,
            &[("setup_s", 0.5, "s"), ("units_per_s", 12.25, "1/s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"units_per_s\": {\"value\": 12.25, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn per_layer_fills_every_metric() {
        let m = per_layer(&Tracer::new(), &Counts::new(), 0.9);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["bench.trace_overhead"], 0.9);
        assert_eq!(m["layer.bench.self_share"], 1.0);
    }
}
