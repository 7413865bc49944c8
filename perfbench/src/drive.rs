//! Shared plumbing for the kernel workloads: a kernel behind a probe with
//! a count of attempted and failed calls, and the result of one round.

use std::collections::BTreeMap;
use std::time::Instant;

use ptstore_core::{AccessKind, PhysAddr, VirtAddr};
use ptstore_kernel::{CostKind, Kernel, KernelError, KernelStats, Pid, Snapshot};
use ptstore_mem::AccessStats;
use ptstore_mmu::TlbStats;

use crate::trace::Probe;

/// Count metrics of one round, by per-layer metric name. Every value is a
/// deterministic function of the inputs, so rounds compare exactly.
pub type Counts = BTreeMap<&'static str, f64>;

/// One set-up plus timed phase of a workload.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host seconds of each set-up.
    pub setups: Vec<f64>,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Workload units completed in the timed phase.
    pub units: u64,
    /// Calls into the simulator attempted in the timed phase.
    pub calls: u64,
    /// Of which returned an error.
    pub failed: u64,
    /// Failed output checks (empty when the round is correct).
    pub problems: Vec<String>,
    /// Modeled cycles of the timed phase per unit.
    pub cycles_per_unit: f64,
    /// Count metrics.
    pub counts: Counts,
}

impl Round {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Records the count metrics of `k` since `mark` over this round's
    /// units, and checks that the bus reported no fault.
    pub fn take_counts(&mut self, mark: &Mark, k: &Kernel) {
        self.counts = mark.counts(k, self.units);
        let faults = self.counts["mem.faults"];
        self.check(faults == 0.0, || {
            format!("{faults} bus faults in the timed phase")
        });
    }
}

/// Sets up `times` times (at least once), timing each in seconds, and
/// returns the last result: a cheap set-up is repeated so its median is
/// steady.
pub fn set_up<T>(times: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut setups = Vec::with_capacity(times);
    loop {
        let t0 = Instant::now();
        let made = f();
        setups.push(t0.elapsed().as_secs_f64());
        if setups.len() >= times {
            return (made, setups);
        }
    }
}

/// A kernel driven through a probe, counting every call.
pub struct Driver<'p, P: Probe> {
    /// The machine.
    pub k: Kernel,
    /// The probe spans go to.
    pub probe: &'p mut P,
    /// Calls attempted.
    pub calls: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Forks during which the secure region was adjusted.
    pub adjust_forks: u64,
}

impl<'p, P: Probe> Driver<'p, P> {
    /// Wraps a booted kernel.
    pub fn new(k: Kernel, probe: &'p mut P) -> Self {
        Self {
            k,
            probe,
            calls: 0,
            failed: 0,
            adjust_forks: 0,
        }
    }

    /// Runs one kernel call inside a span named `name`.
    #[inline(always)]
    pub fn call<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Kernel) -> Result<R, KernelError>,
    ) -> Result<R, KernelError> {
        self.call_as(f, |_, _| name)
    }

    /// Runs one kernel call and names its span from the kernel counters
    /// before and after it (only evaluated when tracing).
    #[inline(always)]
    pub fn call_as<R>(
        &mut self,
        f: impl FnOnce(&mut Kernel) -> Result<R, KernelError>,
        name: impl FnOnce(&KernelStats, &KernelStats) -> &'static str,
    ) -> Result<R, KernelError> {
        let before = P::TRACED.then_some(self.k.stats);
        let id = self.probe.enter();
        let r = f(&mut self.k);
        if let Some(before) = before {
            self.probe.leave(id, name(&before, &self.k.stats));
        }
        self.calls += 1;
        if r.is_err() {
            self.failed += 1;
        }
        r
    }

    /// `fork()`, spanned as `kernel.fork+adjust` when the secure region
    /// grew during it and `kernel.fork` otherwise.
    #[inline(always)]
    pub fn fork(&mut self) -> Result<Pid, KernelError> {
        let adjustments = self.k.stats.adjustments;
        let child = self.call_as(
            |k| k.sys_fork(),
            |b, a| {
                if a.adjustments > b.adjustments {
                    "kernel.fork+adjust"
                } else {
                    "kernel.fork"
                }
            },
        );
        self.adjust_forks += u64::from(self.k.stats.adjustments > adjustments);
        child
    }

    /// A user-mode data access at `va`, spanned as `kernel.fault` when it
    /// demand-faulted and `kernel.touch` otherwise. Returns the PA.
    #[inline(always)]
    pub fn touch(&mut self, va: VirtAddr, write: bool) -> Result<PhysAddr, KernelError> {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.call_as(
            |k| k.touch_user(va, kind),
            |b, a| {
                if a.page_faults > b.page_faults {
                    "kernel.fault"
                } else {
                    "kernel.touch"
                }
            },
        )
    }

    /// Opens a grouping span (e.g. one connection's syscalls).
    #[inline(always)]
    pub fn group<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.probe.enter();
        let r = f(self);
        self.probe.leave(id, name);
        r
    }
}

/// Counter snapshot of a machine at the start of a timed phase.
#[derive(Debug, Clone)]
pub struct Mark {
    pub(crate) stats: KernelStats,
    pub(crate) bus: AccessStats,
    dtlb: TlbStats,
    itlb: TlbStats,
    pub(crate) cycles: [u64; CostKind::ALL.len()],
    hart_cycles: Vec<u64>,
}

impl Mark {
    /// Snapshots `k`.
    pub fn take(k: &Kernel) -> Self {
        let sum = |f: fn(&ptstore_mmu::Mmu) -> TlbStats| {
            k.harts.iter().fold(TlbStats::default(), |acc, h| {
                let s = f(&h.mmu);
                TlbStats {
                    hits: acc.hits + s.hits,
                    misses: acc.misses + s.misses,
                    evictions: acc.evictions + s.evictions,
                    flushes: acc.flushes + s.flushes,
                }
            })
        };
        Self {
            stats: k.stats,
            bus: *k.bus.stats(),
            dtlb: sum(ptstore_mmu::Mmu::dtlb_stats),
            itlb: sum(ptstore_mmu::Mmu::itlb_stats),
            cycles: CostKind::ALL.map(|c| k.cycles.of(c)),
            hart_cycles: k.harts.iter().map(|h| h.cycles.total()).collect(),
        }
    }

    /// The slowest hart's cycle delta since this mark (the modeled wall
    /// time of a hart-distributed phase).
    pub fn wall_cycles(&self, k: &Kernel) -> u64 {
        k.harts
            .iter()
            .zip(&self.hart_cycles)
            .map(|(h, b)| h.cycles.total() - b)
            .max()
            .unwrap_or(0)
    }

    /// Every count metric of the kernel, mem and mmu layers plus modeled
    /// cycles per unit by [`CostKind`], as deltas since this mark.
    pub fn counts(&self, k: &Kernel, units: u64) -> Counts {
        let now = Mark::take(k);
        let s = now.stats.delta(&self.stats);
        let b = now.bus.delta(&self.bus);
        let d = now.dtlb.delta(&self.dtlb);
        let i = now.itlb.delta(&self.itlb);
        let mut c = Counts::new();
        c.insert("kernel.syscalls", s.syscalls as f64);
        c.insert("kernel.page_faults", s.page_faults as f64);
        c.insert("kernel.context_switches", s.context_switches as f64);
        c.insert("kernel.shootdown_ipis", s.shootdown_ipis as f64);
        c.insert("kernel.deferred_drains", s.deferred_drains as f64);
        c.insert("kernel.deferred_queue_peak", s.deferred_queue_peak as f64);
        c.insert("kernel.adjustments", s.adjustments as f64);
        c.insert("kernel.migrated_pages", s.migrated_pages as f64);
        c.insert("kernel.pt_pages_peak", s.pt_pages_peak as f64);
        c.insert(
            "kernel.coalesce_ratio",
            ratio(s.deferred_pages_coalesced, s.deferred_drains),
        );
        c.insert("mem.secure_writes", b.secure_writes as f64);
        c.insert("mem.ptw_reads", b.ptw_reads as f64);
        c.insert("mem.regular_reads", b.regular_reads as f64);
        c.insert("mem.regular_writes", b.regular_writes as f64);
        c.insert("mem.faults", b.faults as f64);
        c.insert("mmu.dtlb.lookups", (d.hits + d.misses) as f64);
        c.insert("mmu.dtlb.hit_ratio", ratio(d.hits, d.hits + d.misses));
        c.insert(
            "mmu.walk.fetches_per_miss",
            ratio(b.ptw_reads, d.misses + i.misses),
        );
        for (kind, (now, then)) in CostKind::ALL
            .iter()
            .zip(now.cycles.iter().zip(&self.cycles))
        {
            c.insert(cycle_metric(*kind), ratio(now - then, units));
        }
        c
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metric name of modeled cycles of `kind` per unit.
pub fn cycle_metric(kind: CostKind) -> &'static str {
    match kind {
        CostKind::User => "cycles.user",
        CostKind::Kernel => "cycles.kernel",
        CostKind::MemAccess => "cycles.mem_access",
        CostKind::TlbMiss => "cycles.tlb_miss",
        CostKind::CfiCheck => "cycles.cfi_check",
        CostKind::PageAlloc => "cycles.page_alloc",
        CostKind::PtWrite => "cycles.pt_write",
        CostKind::Token => "cycles.token",
        CostKind::Adjustment => "cycles.adjustment",
        CostKind::Sbi => "cycles.sbi",
        CostKind::VirtIsolationSwitch => "cycles.virt_isolation_switch",
        CostKind::TlbFlush => "cycles.tlb_flush",
        CostKind::ContextSwitch => "cycles.context_switch",
        CostKind::PageFault => "cycles.page_fault",
        CostKind::Ipi => "cycles.ipi",
        CostKind::Io => "cycles.io",
    }
}
