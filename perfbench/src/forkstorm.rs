//! `fork-storm`: the paper's §V-D1 experiment on one hart.
//!
//! Forks N processes that all stay alive, then switches to each, lets it
//! write to 0..=2 of its stack pages (copy-on-write breaks), exits it, and
//! finally reaps every child. The live set grows the secure region through
//! the SBI and `alloc_contig_range`. The seed shuffles the teardown order
//! and draws each child's touched pages; at the canonical plan (teardown
//! in fork order, no touches) the modeled output equals
//! `reproduce forkstress`'s `CFI+PTStore` row.

use std::time::Instant;

use ptstore_core::{VirtAddr, GIB, MIB, PAGE_SIZE};
use ptstore_kernel::pagetable::{USER_STACK_PAGES, USER_STACK_TOP};
use ptstore_kernel::{Kernel, KernelConfig, KernelError, Pid};

use crate::drive::{set_up, Driver, Mark, Round};
use crate::rng::Rng;
use crate::trace::Probe;

/// Initial secure-region size: the paper's 64 MiB default.
pub const SECURE: u64 = 64 * MIB;

/// Boots per round: one boot is well under a millisecond, so each round
/// times several.
const SETUPS: usize = 5;

/// The most stack pages a child writes to.
pub const MAX_TOUCHED: u64 = USER_STACK_PAGES;

/// The run's inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Teardown order: indices into the fork order.
    pub order: Vec<u32>,
    /// Stack pages child `i` (fork order) writes before exiting.
    pub touched: Vec<u8>,
}

impl Plan {
    /// `n` children torn down in fork order, touching nothing.
    pub fn canonical(n: u32) -> Self {
        Self {
            order: (0..n).collect(),
            touched: vec![0; n as usize],
        }
    }

    /// `n` children, teardown order shuffled, 0..=[`MAX_TOUCHED`] pages
    /// each, drawn without replacement (the range is cycled through, then
    /// shuffled) so every seed touches the same total.
    pub fn seeded(seed: u64, n: u32) -> Self {
        let mut rng = Rng::new(seed, 0xf0c4);
        let mut order: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut touched: Vec<u8> = (0..u64::from(n))
            .map(|i| (i % (MAX_TOUCHED + 1)) as u8)
            .collect();
        rng.shuffle(&mut touched);
        Self { order, touched }
    }

    /// Processes forked, exited and reaped.
    pub fn len(&self) -> u64 {
        self.order.len() as u64
    }
}

/// The machine: CFI+PTStore on the paper's 4 GiB / 64 MiB geometry.
pub fn config() -> KernelConfig {
    KernelConfig::cfi_ptstore()
        .with_mem_size(4 * GIB)
        .with_initial_secure_size(SECURE)
}

/// What an anchor run compares against `reproduce forkstress`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Modeled {
    /// Machine cycles over fork, exit and wait.
    pub cycles: u64,
    /// Secure-region adjustments.
    pub adjustments: u64,
}

/// Runs one round: boot (set-up), the storm (timed), and the output checks.
pub fn round<P: Probe>(plan: &Plan, probe: &mut P) -> (Round, Modeled) {
    let mut out = Round::default();
    let (booted, setups) = set_up(SETUPS, || Kernel::boot(config()));
    out.setups = setups;
    let k = match booted {
        Ok(k) => k,
        Err(e) => {
            out.problems.push(format!("boot failed: {e}"));
            return (
                out,
                Modeled {
                    cycles: 0,
                    adjustments: 0,
                },
            );
        }
    };
    let free_at_boot = k.normal_free_pages();
    let init = k.current_pid();
    let mark = Mark::take(&k);
    let mut d = Driver::new(k, probe);

    let t1 = Instant::now();
    d.probe.timed(true);
    let storm = storm(&mut d, plan, init);
    d.probe.timed(false);
    out.timed_s = t1.elapsed().as_secs_f64();

    out.calls = d.calls;
    out.failed = d.failed;
    out.units = plan.len();
    let k = &mut d.k;
    if let Err(e) = storm {
        out.problems.push(format!("kernel call failed: {e}"));
    }
    let modeled = Modeled {
        cycles: k.cycles.since(mark.cycles.iter().sum()),
        adjustments: k.stats.adjustments - mark.stats.adjustments,
    };
    out.cycles_per_unit = modeled.cycles as f64 / out.units as f64;
    out.take_counts(&mark, k);
    out.counts
        .insert("kernel.fork_adjust.count", d.adjust_forks as f64);
    check_leak_free(&mut out, k, free_at_boot);
    (out, modeled)
}

fn storm<P: Probe>(d: &mut Driver<'_, P>, plan: &Plan, init: Pid) -> Result<(), KernelError> {
    let mut children = Vec::with_capacity(plan.order.len());
    for _ in 0..plan.order.len() {
        children.push(d.fork()?);
    }
    for &i in &plan.order {
        let child = children[i as usize];
        d.call("kernel.switch", |k| k.do_switch_to(child))?;
        for page in 0..u64::from(plan.touched[i as usize]) {
            let va = VirtAddr::new(USER_STACK_TOP - (page + 1) * PAGE_SIZE);
            d.touch(va, true)?;
        }
        d.call("kernel.exit", |k| k.sys_exit(0))?;
    }
    if d.k.current_pid() != init {
        d.call("kernel.switch", |k| k.do_switch_to(init))?;
    }
    for _ in &children {
        d.call("kernel.wait", |k| k.sys_wait())?;
    }
    Ok(())
}

/// Only init remains, and once slab caches release their empty pages the
/// normal zone's free pages plus those ceded to the grown secure region
/// equal the count at boot.
fn check_leak_free(out: &mut Round, k: &mut Kernel, free_at_boot: u64) {
    let procs = k.procs.len();
    out.check(procs == 1, || {
        format!("{procs} processes remain, want only init")
    });
    if let Err(e) = k.reclaim_slabs() {
        out.problems.push(format!("reclaim_slabs failed: {e}"));
        return;
    }
    let region = k.secure_region().map_or(SECURE, |r| r.size());
    let ceded = region.saturating_sub(SECURE) / PAGE_SIZE;
    let free = k.normal_free_pages();
    out.check(free + ceded == free_at_boot, || {
        format!("{free} free + {ceded} ceded pages != {free_at_boot} at boot")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_repeat_and_share_shape_and_distribution() {
        let a = Plan::seeded(1, 3_000);
        assert_eq!(a, Plan::seeded(1, 3_000));
        let b = Plan::seeded(2, 3_000);
        assert_ne!(a, b);
        for p in [&a, &b] {
            let mut order = p.order.clone();
            order.sort_unstable();
            assert_eq!(order, (0..3_000).collect::<Vec<_>>(), "a permutation");
            assert!(p.touched.iter().all(|&t| u64::from(t) <= MAX_TOUCHED));
            let mean = p.touched.iter().map(|&t| f64::from(t)).sum::<f64>() / 3_000.0;
            assert_eq!(mean, 1.0, "mean touched pages");
        }
        let c = Plan::canonical(5);
        assert_eq!(c.order, vec![0, 1, 2, 3, 4]);
        assert_eq!(c.len(), 5);
    }
}
