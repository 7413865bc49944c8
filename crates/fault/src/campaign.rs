//! The seeded randomized campaign driver.
//!
//! A campaign is N independent runs. Each run boots a **fresh** kernel,
//! spawns one worker process per hart, drives a seeded syscall workload
//! that rotates across the harts, injects exactly one planned fault when
//! its trigger condition fires, and classifies the result:
//!
//! * **detected-and-contained** — a mechanism layer (PMP S-bit, PTW
//!   origin check, token validation), the SBI firmware, or the allocator
//!   refused the fault, and once the fault has undone its own setup the
//!   invariant oracle finds the machine healthy;
//! * **benign** — the fault landed but changed nothing the mechanism
//!   promises about (e.g. a reordered shootdown ack);
//! * **invariant-violated** — the oracle found corrupted translation
//!   state the mechanism failed to stop.
//!
//! Everything derives from the campaign seed, so a run is reproducible
//! bit-for-bit: same seed, same faults, same classification.

use ptstore_core::{VirtAddr, MIB, PAGE_SIZE};
use ptstore_kernel::{DrainPolicy, Kernel, KernelConfig};
use ptstore_trace::{FaultClass, TraceCounters, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inject::{DetectedBy, FaultPlan, InjectOutcome, Trigger};
use crate::oracle::Invariants;

/// Campaign parameters (`reproduce fuzz` maps its flags onto this).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; every run seed derives from it.
    pub seed: u64,
    /// Number of runs (one fault each).
    pub faults: u64,
    /// Harts per machine.
    pub harts: usize,
    /// Physical memory per machine, bytes.
    pub mem_size: u64,
    /// Initial secure-region size, bytes.
    pub secure_size: u64,
    /// Workload operations per run (split around the injection point).
    pub ops_per_run: u64,
    /// Run the oracle after every operation, not just at the checkpoints.
    pub paranoid: bool,
    /// Fault classes to cycle through (round-robin over the runs).
    pub classes: Vec<FaultClass>,
    /// Kernel configuration override; `None` boots the full PTStore
    /// mechanism (`cfi_ptstore`) with the geometry above.
    pub kernel: Option<KernelConfig>,
}

impl CampaignConfig {
    /// The standard campaign: full mechanism, 128 MiB machines with an
    /// 8 MiB secure region, all fault classes.
    pub fn new(seed: u64, faults: u64, harts: usize) -> Self {
        Self {
            seed,
            faults,
            harts,
            mem_size: 128 * MIB,
            secure_size: 8 * MIB,
            ops_per_run: 32,
            paranoid: false,
            classes: FaultClass::ALL.to_vec(),
            kernel: None,
        }
    }

    /// A small paranoid campaign for tests and the CI smoke check.
    pub fn quick(seed: u64, faults: u64, harts: usize) -> Self {
        Self {
            ops_per_run: 16,
            paranoid: true,
            ..Self::new(seed, faults, harts)
        }
    }

    /// The kernel configuration each run boots.
    pub fn kernel_config(&self) -> KernelConfig {
        self.kernel.unwrap_or_else(|| {
            KernelConfig::cfi_ptstore()
                .with_mem_size(self.mem_size)
                .with_initial_secure_size(self.secure_size)
                .with_harts(self.harts)
        })
    }
}

/// Classification of one campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunClass {
    /// The fault was refused (or its pressure absorbed) and the machine
    /// is invariant-clean afterwards.
    DetectedAndContained,
    /// The fault landed without breaking any mechanism invariant.
    Benign,
    /// The oracle found corrupted translation state.
    InvariantViolated,
}

impl core::fmt::Display for RunClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            RunClass::DetectedAndContained => "detected-and-contained",
            RunClass::Benign => "benign",
            RunClass::InvariantViolated => "invariant-violated",
        })
    }
}

/// The record of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Run index within the campaign.
    pub run: u64,
    /// Derived seed the run used.
    pub seed: u64,
    /// Fault class injected.
    pub class: FaultClass,
    /// Trigger that released the fault.
    pub trigger: Trigger,
    /// True when the fault was actually injected (false = site
    /// unavailable, e.g. IPI faults on one hart).
    pub injected: bool,
    /// Classification.
    pub outcome: RunClass,
    /// Who refused the fault, when it was refused.
    pub detected_by: Option<DetectedBy>,
    /// Oracle checks evaluated over the run.
    pub checks: u64,
    /// Total invariant violations observed.
    pub violations: u64,
    /// Human-readable first violation, for debugging.
    pub first_violation: Option<String>,
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The master seed.
    pub seed: u64,
    /// Harts per machine.
    pub harts: usize,
    /// Every run, in order.
    pub runs: Vec<RunResult>,
}

impl CampaignReport {
    /// Number of runs classified as `class`.
    pub fn count(&self, class: RunClass) -> u64 {
        self.runs.iter().filter(|r| r.outcome == class).count() as u64
    }

    /// Runs of `fault` classified as `class`.
    pub fn count_class(&self, fault: FaultClass, class: RunClass) -> u64 {
        self.runs
            .iter()
            .filter(|r| r.class == fault && r.outcome == class)
            .count() as u64
    }

    /// A deterministic multi-line summary (what `reproduce fuzz` prints).
    pub fn summary(&self) -> String {
        use core::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz campaign: seed={} runs={} harts={}",
            self.seed,
            self.runs.len(),
            self.harts
        );
        let _ = writeln!(
            out,
            "  detected-and-contained : {}",
            self.count(RunClass::DetectedAndContained)
        );
        let _ = writeln!(
            out,
            "  benign                 : {}",
            self.count(RunClass::Benign)
        );
        let _ = writeln!(
            out,
            "  invariant-violated     : {}",
            self.count(RunClass::InvariantViolated)
        );
        let _ = writeln!(out, "  per fault class:");
        for &fc in &FaultClass::ALL {
            let d = self.count_class(fc, RunClass::DetectedAndContained);
            let b = self.count_class(fc, RunClass::Benign);
            let v = self.count_class(fc, RunClass::InvariantViolated);
            if d + b + v == 0 {
                continue;
            }
            let _ = writeln!(out, "    {fc:<16} detected={d} benign={b} violated={v}");
        }
        if let Some(r) = self
            .runs
            .iter()
            .find(|r| r.outcome == RunClass::InvariantViolated)
        {
            let _ = writeln!(
                out,
                "  first violation: run={} seed={} class={} ({})",
                r.run,
                r.seed,
                r.class,
                r.first_violation.as_deref().unwrap_or("?")
            );
        }
        out
    }
}

/// Runs a full campaign per `cfg`.
///
/// # Panics
/// Panics when the derived kernel configuration cannot boot — campaign
/// geometry is validated, so this indicates a bug, not a fault.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut master = StdRng::seed_from_u64(cfg.seed);
    let kcfg = cfg.kernel_config();
    // Grown run by run, not sized from `cfg.faults`: a huge count would
    // overflow the capacity before the first run.
    let mut runs = Vec::new();
    for (i, &class) in (0..cfg.faults).zip(cfg.classes.iter().cycle()) {
        let run_seed = master.random::<u64>();
        runs.push(run_one(
            &class_config(&kcfg, class),
            class,
            run_seed,
            i,
            cfg.ops_per_run,
            cfg.paranoid,
        ));
    }
    CampaignReport {
        seed: cfg.seed,
        harts: cfg.harts,
        runs,
    }
}

/// The kernel configuration a given fault class boots. Drain-machinery
/// faults need a site to exist — deferred shootdowns on, and (for the
/// watermark skip) a watermark drain policy — so those two classes turn
/// the relevant features on over the campaign's base configuration;
/// every other class boots it unchanged.
fn class_config(base: &KernelConfig, class: FaultClass) -> KernelConfig {
    match class {
        FaultClass::DrainDrop => base.with_deferred_shootdowns(true),
        FaultClass::WatermarkSkip => base
            .with_deferred_shootdowns(true)
            .with_drain_policy(DrainPolicy::Watermark { depth: 4 }),
        _ => *base,
    }
}

/// Executes one run: fresh kernel, seeded workload, one fault, verdict.
///
/// # Panics
/// Panics when `kcfg` cannot boot or its workers cannot spawn (see
/// [`run_campaign`]).
pub fn run_one(
    kcfg: &KernelConfig,
    class: FaultClass,
    run_seed: u64,
    run_index: u64,
    ops: u64,
    paranoid: bool,
) -> RunResult {
    let mut rng = StdRng::seed_from_u64(run_seed);
    let mut k = Kernel::boot(*kcfg).expect("campaign kernel boots");
    let sink = TraceSink::new();
    // Attached before the workers fork: `AfterSyscalls` triggers count
    // those forks.
    k.set_trace_sink(Some(sink.clone()));
    k.spawn_workers().expect("campaign workers spawn");

    let mut wl = Workload {
        mapped: vec![Vec::new(); k.harts.len()],
    };
    for _ in 0..4 {
        wl.step(&mut k, &mut rng);
    }

    let plan = FaultPlan::random(class, &k, &mut rng);
    let mut checks = 0u64;
    let mut violations: Vec<String> = Vec::new();

    // Pre-injection phase: run until the trigger fires (bounded by the
    // op budget so a far trigger still fires, just later).
    let mut steps = 0;
    while !plan.trigger.ready(&k) && steps < ops {
        wl.step(&mut k, &mut rng);
        steps += 1;
    }
    // A *denied* fault restores its own scaffolding (bogus satp, forged
    // PCB word, drained zone) before `fire` returns: the mechanism refused
    // it, so the scaffolding is debris, not live state the mechanism failed
    // to stop. A *landed* fault is left in place so the oracle judges it.
    let outcome = plan.fire(&mut k, &mut rng);
    let injected = outcome != InjectOutcome::Skipped;
    let mut detected_by = match outcome {
        InjectOutcome::Denied(by) => Some(by),
        _ => None,
    };

    // Oracle immediately after injection: a landed corruption must be
    // flagged here, before further execution compounds it.
    let rep = Invariants::check(&k);
    checks += rep.checks;
    record(&rep, &mut violations);

    if violations.is_empty() {
        let denials_at_injection = denials(&sink.counters());
        for _ in steps..ops {
            wl.step(&mut k, &mut rng);
            if paranoid {
                let rep = Invariants::check(&k);
                checks += rep.checks;
                record(&rep, &mut violations);
                if !violations.is_empty() {
                    break;
                }
            }
        }
        if violations.is_empty() {
            let rep = Invariants::check(&k);
            checks += rep.checks;
            record(&rep, &mut violations);
        }
        // Denials raised while post-injection state was still faulted
        // also count as detection (e.g. a stale corrupted path retried).
        if detected_by.is_none() && denials(&sink.counters()) > denials_at_injection {
            detected_by = Some(DetectedBy::Mechanism(
                ptstore_trace::RejectingLayer::PmpSBit,
            ));
        }
    }

    let outcome = if !violations.is_empty() {
        RunClass::InvariantViolated
    } else if detected_by.is_some() {
        RunClass::DetectedAndContained
    } else {
        RunClass::Benign
    };
    RunResult {
        run: run_index,
        seed: run_seed,
        class,
        trigger: plan.trigger,
        injected,
        outcome,
        detected_by,
        checks,
        violations: violations.len() as u64,
        first_violation: violations.into_iter().next(),
    }
}

fn record(rep: &crate::oracle::InvariantReport, out: &mut Vec<String>) {
    out.extend(rep.violations.iter().map(ToString::to_string));
}

fn denials(c: &TraceCounters) -> u64 {
    c.pmp_denials + c.ptw_origin_rejections + c.token_rejections
}

/// The seeded syscall workload: one worker process per hart, operations
/// drawn uniformly and rotated across the harts. Every kernel error is
/// tolerated (the workload probes, it does not assert).
struct Workload {
    /// Per-hart mapped-page lists (VAs owned by that hart's worker).
    mapped: Vec<Vec<VirtAddr>>,
}

impl Workload {
    /// One workload operation on a randomly chosen hart.
    fn step(&mut self, k: &mut Kernel, rng: &mut StdRng) {
        let h = (rng.random::<u64>() as usize) % k.harts.len();
        k.set_active_hart(h);
        match rng.random::<u64>() % 8 {
            0 => {
                // Process churn: fork, run, reap — the token/zone hot path.
                if let Ok(child) = k.sys_fork() {
                    let _ = k.do_switch_to(child);
                    let _ = k.sys_exit(0);
                    let _ = k.sys_wait();
                }
            }
            1 => {
                if let Ok(va) = k.sys_mmap(PAGE_SIZE) {
                    let _ = k.sys_touch(va, true);
                    self.mapped[h].push(va);
                }
            }
            2 => {
                if !self.mapped[h].is_empty() {
                    let idx = (rng.random::<u64>() as usize) % self.mapped[h].len();
                    let va = self.mapped[h].swap_remove(idx);
                    let _ = k.sys_munmap(va, PAGE_SIZE);
                }
            }
            3 => {
                if !self.mapped[h].is_empty() {
                    let idx = (rng.random::<u64>() as usize) % self.mapped[h].len();
                    let _ = k.sys_touch(self.mapped[h][idx], rng.random::<bool>());
                }
            }
            4 => {
                if let Some(p) = k.procs.get(k.current_pid()) {
                    let brk = p.brk;
                    let _ = k.sys_brk(brk + PAGE_SIZE);
                }
            }
            5 => {
                let _ = k.sys_null();
            }
            6 => {
                if let Ok((r, w)) = k.sys_pipe() {
                    let _ = k.sys_write(w, &[0xa5; 32]);
                    let _ = k.sys_read_discard(r, 32);
                    let _ = k.sys_close(r);
                    let _ = k.sys_close(w);
                }
            }
            _ => {
                let _ = k.sys_yield();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_is_deterministic_and_clean() {
        let cfg = CampaignConfig::quick(42, 18, 2);
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.count(RunClass::InvariantViolated), 0, "{}", a.summary());
        // Every class was exercised (18 runs over 9 classes).
        for &fc in &FaultClass::ALL {
            let total = a.count_class(fc, RunClass::DetectedAndContained)
                + a.count_class(fc, RunClass::Benign);
            assert_eq!(total, 2, "class {fc} ran twice");
        }
    }
}
