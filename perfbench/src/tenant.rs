//! `tenant-churn`: C1M-shaped multi-tenant serving on two harts.
//!
//! The serving loop is the c1m workload's (`ptstore_workloads::c1m`) made
//! seedable: one supervisor per hart forks tenant generations; each tenant
//! faults in a heap, serves its connections with mmap/munmap pool churn
//! and mprotect flips, exits and is reaped. The seed draws each
//! generation's connection count and heap size; at the canonical plan
//! (every generation 50 connections and 16 heap pages) the modeled output
//! equals `reproduce --medium c1m`'s `CFI+PTStore batched/boundary` row.

use std::time::Instant;

use ptstore_core::{VirtAddr, MIB, PAGE_SIZE};
use ptstore_kernel::process::VmPerms;
use ptstore_kernel::{CostKind, DrainPolicy, Kernel, KernelConfig, KernelError, Pid};

use crate::drive::{set_up, Driver, Mark, Round};
use crate::rng::Rng;
use crate::trace::Probe;

/// Request bytes queued per accepted connection.
const REQUEST_BYTES: u64 = 420;
/// Event-loop readiness batch.
const BATCH: u64 = 16;
/// Response body per connection.
const RESPONSE_BYTES: u64 = 4 << 10;
/// Modeled user cycles per request.
const USER_CYCLES: u64 = 5_500;
/// Harts of the machine.
pub const HARTS: usize = 2;

/// Connections per generation drawn uniformly from this range (mean 50).
pub const CONNS: (u64, u64) = (25, 75);
/// Heap pages per generation drawn uniformly from this range (mean 16).
pub const HEAP_PAGES: (u64, u64) = (8, 24);

/// One tenant generation's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Generation {
    /// Connections it serves.
    pub conns: u64,
    /// Heap pages it faults in.
    pub heap_pages: u64,
}

/// The whole run's inputs: tenant slots per hart, churn rounds, and one
/// generation per (hart, round, slot) in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Tenant slots on each hart.
    pub slots: [u64; HARTS],
    /// Generations per slot.
    pub rounds: u64,
    /// Every generation, hart-major then round then slot.
    pub gens: Vec<Generation>,
}

impl Plan {
    fn shape(tenants: u64, rounds: u64) -> ([u64; HARTS], usize) {
        // Earlier harts absorb the remainder, as c1m's partition does.
        let base = tenants / HARTS as u64;
        let extra = tenants % HARTS as u64;
        let slots = std::array::from_fn(|h| base + u64::from((h as u64) < extra));
        (slots, (tenants * rounds) as usize)
    }

    /// The unseeded c1m shape: every generation serves `conns` with a
    /// 16-page heap.
    pub fn canonical(tenants: u64, rounds: u64, conns: u64) -> Self {
        let (slots, n) = Self::shape(tenants, rounds);
        Self {
            slots,
            rounds,
            gens: vec![
                Generation {
                    conns,
                    heap_pages: 16
                };
                n
            ],
        }
    }

    /// The benchmark shape: `tenants` slots × `rounds` generations whose
    /// connection counts and heap sizes are drawn from the uniform ranges
    /// [`CONNS`] and [`HEAP_PAGES`] without replacement (each range is
    /// cycled through, then shuffled), so every seed serves the same total
    /// and only the assignment to generations changes.
    pub fn seeded(seed: u64, tenants: u64, rounds: u64) -> Self {
        let (slots, n) = Self::shape(tenants, rounds);
        let mut rng = Rng::new(seed, 0x7e2a);
        let mut draw = |(lo, hi): (u64, u64)| {
            let mut v: Vec<u64> = (0..n as u64).map(|i| lo + i % (hi - lo + 1)).collect();
            rng.shuffle(&mut v);
            v
        };
        let conns = draw(CONNS);
        let heap = draw(HEAP_PAGES);
        let gens = conns
            .into_iter()
            .zip(heap)
            .map(|(conns, heap_pages)| Generation { conns, heap_pages })
            .collect();
        Self {
            slots,
            rounds,
            gens,
        }
    }

    /// Connections served over the run.
    pub fn connections(&self) -> u64 {
        self.gens.iter().map(|g| g.conns).sum()
    }
}

/// The benchmark's geometry: c1m's quick and medium shapes' 512 MiB
/// machine with an 8 MiB initial secure region.
pub const GEOMETRY: (u64, u64) = (512 * MIB, 8 * MIB);

/// The machine: CFI+PTStore with batched shootdowns, allocation magazines
/// and the boundary drain policy, on `(memory, initial secure region)`.
pub fn config((mem, secure): (u64, u64)) -> KernelConfig {
    KernelConfig::cfi_ptstore()
        .with_deferred_shootdowns(true)
        .with_alloc_magazines(true)
        .with_drain_policy(DrainPolicy::Boundary)
        .to_builder()
        .mem_size(mem)
        .initial_secure_size(secure)
        .harts(HARTS)
        .build()
        .expect("valid tenant-churn geometry")
}

/// What an anchor run compares against `reproduce c1m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Modeled {
    /// Slowest hart's cycle delta over the serving phase.
    pub wall_cycles: u64,
    /// Shootdown IPIs over the serving phase.
    pub ipis: u64,
}

/// Runs one round: boot and supervisor spawn (set-up), then every
/// generation of `plan` (timed), then the output checks.
pub fn round<P: Probe>(plan: &Plan, cfg: KernelConfig, probe: &mut P) -> (Round, Modeled) {
    let mut out = Round::default();
    let (setup, setups) = set_up(1, || setup(cfg));
    out.setups = setups;
    let (k, supervisors) = match setup {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(format!("set-up failed: {e}"));
            return (
                out,
                Modeled {
                    wall_cycles: 0,
                    ipis: 0,
                },
            );
        }
    };
    let mark = Mark::take(&k);
    let mut d = Driver::new(k, probe);

    let t1 = Instant::now();
    d.probe.timed(true);
    let served = serve(&mut d, plan, &supervisors);
    d.probe.timed(false);
    out.timed_s = t1.elapsed().as_secs_f64();

    out.calls = d.calls;
    out.failed = d.failed;
    let k = &mut d.k;
    let want = plan.connections();
    match served {
        Ok(n) => out.check(n == want, || format!("served {n} of {want} connections")),
        Err(e) => out.problems.push(format!("kernel call failed: {e}")),
    }
    out.units = want;
    let modeled = Modeled {
        wall_cycles: mark.wall_cycles(k),
        ipis: k.stats.shootdown_ipis - mark.stats.shootdown_ipis,
    };
    out.cycles_per_unit = modeled.wall_cycles as f64 / want as f64;
    out.take_counts(&mark, k);
    out.counts
        .insert("kernel.fork_adjust.count", d.adjust_forks as f64);
    out.check(k.security_log.is_empty(), || {
        format!("security log not empty: {:?}", k.security_log)
    });
    let gens = plan.gens.len() as u64;
    let tenant_forks = k.stats.forks - mark.stats.forks;
    out.check(tenant_forks == gens, || {
        format!("{tenant_forks} tenant forks for {gens} generations")
    });
    for &(pid, handle) in &supervisors {
        let live = k.resolve_handle(handle).is_some_and(|p| p.pid == pid);
        out.check(live, || format!("supervisor {pid} handle went stale"));
    }
    (out, modeled)
}

type Supervisors = Vec<(Pid, ptstore_kernel::ProcHandle)>;

/// Boots the machine, stages the served file and forks one supervisor per
/// hart, each switched onto its hart.
fn setup(cfg: KernelConfig) -> Result<(Kernel, Supervisors), KernelError> {
    let mut k = Kernel::boot(cfg)?;
    k.fs.create("/srv/tenant.bin", vec![0x42; RESPONSE_BYTES as usize]);
    k.set_active_hart(0);
    let pids: Vec<Pid> = (0..HARTS).map(|_| k.sys_fork()).collect::<Result<_, _>>()?;
    let mut supervisors = Vec::with_capacity(HARTS);
    for (h, &pid) in pids.iter().enumerate() {
        k.set_active_hart(h);
        k.do_switch_to(pid)?;
        let handle = k.proc_handle(pid).ok_or(KernelError::NoSuchProcess)?;
        supervisors.push((pid, handle));
    }
    k.set_active_hart(0);
    Ok((k, supervisors))
}

/// Serves every generation, hart by hart; returns connections served.
fn serve<P: Probe>(
    d: &mut Driver<'_, P>,
    plan: &Plan,
    supervisors: &Supervisors,
) -> Result<u64, KernelError> {
    let mut gens = plan.gens.iter();
    let mut served = 0;
    for (h, &slots) in plan.slots.iter().enumerate() {
        if slots == 0 {
            continue;
        }
        d.k.set_active_hart(h);
        let supervisor = supervisors[h].0;
        for _ in 0..plan.rounds {
            for _ in 0..slots {
                let g = *gens.next().expect("one generation per slot and round");
                let tenant = d.fork()?;
                d.call("kernel.switch", |k| k.do_switch_to(tenant))?;
                served += serve_tenant(d, g)?;
                d.call("kernel.exit", |k| k.sys_exit(0))?;
                if d.k.current_pid() != supervisor {
                    d.call("kernel.switch", |k| k.do_switch_to(supervisor))?;
                }
                d.call("kernel.wait", |k| k.sys_wait())?;
            }
        }
    }
    d.k.set_active_hart(0);
    Ok(served)
}

/// One tenant generation: fault in the session arena, then serve the
/// connection loop with pool churn and arena hardening every 32
/// connections.
fn serve_tenant<P: Probe>(d: &mut Driver<'_, P>, g: Generation) -> Result<u64, KernelError> {
    let heap_base =
        d.k.procs
            .get(d.k.current_pid())
            .ok_or(KernelError::NoSuchProcess)?
            .brk;
    d.call("kernel.brk", |k| {
        k.sys_brk(heap_base + g.heap_pages * PAGE_SIZE)
    })?;
    for i in 0..g.heap_pages {
        d.touch(VirtAddr::new(heap_base + i * PAGE_SIZE), true)?;
    }

    let mut served = 0;
    let mut since_pool_churn = 0;
    let mut hardened = false;
    while served < g.conns {
        let batch = BATCH.min(g.conns - served);
        d.call("kernel.select", |k| k.sys_select(batch))?;
        since_pool_churn += batch;
        if since_pool_churn >= 32 {
            since_pool_churn = 0;
            let arena = d.call("kernel.mmap", |k| k.sys_mmap(4 * PAGE_SIZE))?;
            for i in 0..4 {
                d.touch(VirtAddr::new(arena.as_u64() + i * PAGE_SIZE), true)?;
            }
            d.call("kernel.munmap", |k| k.sys_munmap(arena, 4 * PAGE_SIZE))?;
            let perms = if hardened { VmPerms::RW } else { VmPerms::RO };
            d.call("kernel.mprotect", |k| {
                k.sys_mprotect(VirtAddr::new(heap_base), 2 * PAGE_SIZE, perms)
            })?;
            hardened = !hardened;
        }
        for _ in 0..batch {
            d.group("kernel.conn", connection)?;
        }
        served += batch;
    }
    Ok(served)
}

/// One connection's syscall group.
fn connection<P: Probe>(d: &mut Driver<'_, P>) -> Result<(), KernelError> {
    let sock = d.call("kernel.accept", |k| k.sys_accept(REQUEST_BYTES))?;
    d.call("kernel.recv", |k| k.sys_recv(sock, REQUEST_BYTES))?;
    d.call("kernel.charge", |k| {
        k.charge(CostKind::User, USER_CYCLES);
        Ok(())
    })?;
    let fd = d.call("kernel.open", |k| k.sys_open("/srv/tenant.bin"))?;
    d.call("kernel.fstat", |k| k.sys_fstat(fd))?;
    let mut remaining = RESPONSE_BYTES;
    while remaining > 0 {
        let chunk = remaining.min(64 << 10);
        d.call("kernel.read", |k| k.sys_read_discard(fd, chunk))?;
        d.call("kernel.send", |k| k.sys_send(sock, chunk))?;
        remaining -= chunk;
    }
    d.call("kernel.close", |k| k.sys_close(fd))?;
    d.call("kernel.close", |k| k.sys_close(sock))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_repeat_and_share_shape_and_distribution() {
        let a = Plan::seeded(1, 150, 8);
        assert_eq!(a, Plan::seeded(1, 150, 8));
        let b = Plan::seeded(2, 150, 8);
        assert_ne!(a, b);
        for p in [&a, &b] {
            assert_eq!(p.gens.len(), 1_200);
            assert_eq!(p.slots, [75, 75]);
            assert!(p.gens.iter().all(|g| (CONNS.0..=CONNS.1).contains(&g.conns)
                && (HEAP_PAGES.0..=HEAP_PAGES.1).contains(&g.heap_pages)));
            let mean = p.connections() as f64 / p.gens.len() as f64;
            assert!((mean - 50.0).abs() < 1.0, "mean connections {mean}");
            let heap = p.gens.iter().map(|g| g.heap_pages).sum::<u64>() as f64 / 1_200.0;
            assert!((heap - 16.0).abs() < 0.5, "mean heap {heap}");
        }
        let sorted = |p: &Plan, f: fn(&Generation) -> u64| {
            let mut v: Vec<u64> = p.gens.iter().map(f).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&a, |g| g.conns), sorted(&b, |g| g.conns));
        assert_eq!(sorted(&a, |g| g.heap_pages), sorted(&b, |g| g.heap_pages));
        assert_eq!(Plan::canonical(150, 8, 50).connections(), 60_000);
        assert_eq!(Plan::canonical(3, 1, 1).slots, [2, 1]);
    }
}
