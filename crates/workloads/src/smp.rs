//! SMP workload drivers: distribute the paper's macrobenchmarks across the
//! machine's harts and report per-hart utilization plus shootdown traffic.
//!
//! Hart turns run one after another on the calling thread, in canonical
//! hart order, against the one shared kernel. "Parallel" throughput is
//! computed the way a hardware run would observe it: each hart serves its
//! partition of the request stream, per-hart busy cycles come from the
//! hart-private counters, and the wall-clock cycle count of the run is the
//! *maximum* per-hart delta — the harts overlap in time on real silicon.
//! Shootdown IPIs (the cost SMP adds to every mapping change) are charged
//! by the kernel along the way and surface in the report.
//!
//! Workers are referred to by pid. Pids are never reused, so a driver
//! that accidentally reaps its own worker is caught by the pid no longer
//! resolving, not by it silently resolving to a later process.

use ptstore_kernel::{Kernel, Pid};

use crate::fork_stress::fork_exit_reap;
use crate::nginx::{self, NginxParams};
use crate::redis::{self, RedisParams, RedisTest};

/// One hart's share of an SMP run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HartShare {
    /// Hart id.
    pub hart: usize,
    /// Operations (requests, forks, ...) this hart performed.
    pub ops: u64,
    /// Busy cycles on this hart during the run.
    pub cycles: u64,
    /// `cycles` as a fraction of the run's wall cycles (1.0 = never idle).
    pub utilization: f64,
}

/// The result of distributing one workload across all harts.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpRunReport {
    /// Workload name.
    pub workload: String,
    /// Hart count the kernel was booted with.
    pub harts: usize,
    /// Total operations completed across all harts.
    pub ops: u64,
    /// Modeled wall-clock cycles: the slowest hart's busy delta.
    pub wall_cycles: u64,
    /// Sum of all harts' busy cycles (wall × harts when perfectly balanced).
    pub busy_cycles: u64,
    /// Per-hart breakdown.
    pub per_hart: Vec<HartShare>,
    /// TLB shootdowns broadcast during the run.
    pub tlb_shootdowns: u64,
    /// Individual remote-hart IPIs those shootdowns sent.
    pub shootdown_ipis: u64,
}

impl SmpRunReport {
    /// Throughput in operations per thousand modeled wall cycles — the
    /// number that must *rise* with the hart count for SMP to pay off.
    pub fn ops_per_kilocycle(&self) -> f64 {
        if self.wall_cycles == 0 {
            0.0
        } else {
            self.ops as f64 * 1000.0 / self.wall_cycles as f64
        }
    }
}

/// Splits `total` into one share per hart; earlier harts absorb the
/// remainder so every op is served.
pub(crate) fn partition(total: u64, harts: usize) -> Vec<u64> {
    let base = total / harts as u64;
    let extra = total % harts as u64;
    (0..harts as u64)
        .map(|h| base + u64::from(h < extra))
        .collect()
}

/// Runs one hart-distributed workload of `total` operations: forks one
/// worker per hart ([`Kernel::spawn_workers`]), splits `total` into one
/// share per hart, and has `serve(k, worker, share)` perform each share on
/// its worker's hart, which is active. Harts with a non-zero share take
/// one turn each, in hart order. After the run every worker must still be
/// in the process table — a driver that reaped its own worker trips the
/// check here.
///
/// # Panics
/// Panics when the workers cannot be spawned.
pub(crate) fn run_distributed(
    k: &mut Kernel,
    workload: &str,
    total: u64,
    mut serve: impl FnMut(&mut Kernel, Pid, u64),
) -> SmpRunReport {
    let workers = k.spawn_workers().expect("workers spawn");
    let harts = k.harts.len();
    let shares = partition(total, harts);
    let shootdowns0 = k.stats.tlb_shootdowns;
    let ipis0 = k.stats.shootdown_ipis;
    let before: Vec<u64> = k.harts.iter().map(|h| h.cycles.total()).collect();
    for (hart, &share) in shares.iter().enumerate() {
        if share > 0 {
            k.set_active_hart(hart);
            serve(k, workers[hart], share);
        }
    }
    k.set_active_hart(0);
    for &pid in &workers {
        assert!(
            k.procs.get(pid).is_some(),
            "{workload}: worker pid {pid} was reaped during the run"
        );
    }
    let deltas: Vec<u64> = k
        .harts
        .iter()
        .zip(&before)
        .map(|(h, b)| h.cycles.total() - b)
        .collect();
    let wall_cycles = deltas.iter().copied().max().unwrap_or(0);
    let per_hart = (0..harts)
        .map(|h| HartShare {
            hart: h,
            ops: shares[h],
            cycles: deltas[h],
            utilization: if wall_cycles == 0 {
                0.0
            } else {
                deltas[h] as f64 / wall_cycles as f64
            },
        })
        .collect();
    SmpRunReport {
        workload: workload.to_string(),
        harts,
        ops: shares.iter().sum(),
        wall_cycles,
        busy_cycles: deltas.iter().sum(),
        per_hart,
        tlb_shootdowns: k.stats.tlb_shootdowns - shootdowns0,
        shootdown_ipis: k.stats.shootdown_ipis - ipis0,
    }
}

/// NGINX with one worker per hart (`worker_processes auto`): each worker
/// serves its partition of the request stream.
///
/// # Panics
/// Panics on kernel errors (the server must run cleanly).
pub fn run_nginx_smp(k: &mut Kernel, p: &NginxParams) -> SmpRunReport {
    nginx::stage_document(k, p);
    run_distributed(k, "nginx", p.requests, |k, _worker, share| {
        nginx::serve_requests(k, p, share);
    })
}

/// Redis in cluster mode: one single-threaded instance per hart, the
/// keyspace sharded so each instance serves its partition of the requests.
///
/// # Panics
/// Panics on kernel errors.
pub fn run_redis_smp(k: &mut Kernel, test: &RedisTest, p: &RedisParams) -> SmpRunReport {
    run_distributed(k, test.name, p.requests, |k, _worker, share| {
        redis::serve_requests(k, test, p, share);
    })
}

/// The fork stress distributed across harts: each hart's worker creates,
/// runs, and reaps its share of the processes.
///
/// # Panics
/// Panics on kernel errors (OOM means the configuration is too small).
pub fn run_fork_stress_smp(k: &mut Kernel, count: u64) -> SmpRunReport {
    run_distributed(k, "fork_stress", count, |k, _worker, share| {
        fork_exit_reap(k, share).expect("fork storm");
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptstore_core::MIB;
    use ptstore_kernel::{Kernel, KernelConfig};

    fn boot(harts: usize) -> Kernel {
        Kernel::boot(
            KernelConfig::cfi_ptstore()
                .with_mem_size(256 * MIB)
                .with_initial_secure_size(16 * MIB)
                .with_harts(harts),
        )
        .expect("boot")
    }

    #[test]
    fn spawn_workers_returns_live_handles() {
        let mut k = boot(2);
        let workers = k.spawn_workers().expect("spawn");
        assert_eq!(workers.len(), 2);
        for (h, &pid) in workers.iter().enumerate() {
            assert!(k.procs.get(pid).is_some(), "worker {pid} is live");
            assert_eq!(k.harts[h].current, pid, "worker {pid} runs on hart {h}");
        }
    }

    #[test]
    fn partition_covers_every_op() {
        assert_eq!(partition(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(partition(3, 4), vec![1, 1, 1, 0]);
        assert_eq!(partition(8, 1), vec![8]);
    }

    #[test]
    fn nginx_scales_ops_per_cycle_with_harts() {
        let p = NginxParams::quick(4 << 10);
        let mut k1 = boot(1);
        let r1 = run_nginx_smp(&mut k1, &p);
        let mut k4 = boot(4);
        let r4 = run_nginx_smp(&mut k4, &p);
        assert_eq!(r1.ops, r4.ops);
        assert!(
            r4.ops_per_kilocycle() > r1.ops_per_kilocycle() * 2.0,
            "4 harts must beat 1 by a wide margin: {:.3} vs {:.3}",
            r4.ops_per_kilocycle(),
            r1.ops_per_kilocycle()
        );
        // SMP is not free: the 4-hart run paid for real shootdowns.
        assert!(r4.tlb_shootdowns > 0);
        assert_eq!(r1.tlb_shootdowns, 0);
    }

    #[test]
    fn per_hart_shares_are_balanced() {
        let p = RedisParams::quick();
        let mut k = boot(2);
        let r = run_redis_smp(&mut k, &crate::redis::REDIS_TESTS[3], &p);
        assert_eq!(r.harts, 2);
        assert_eq!(r.per_hart.len(), 2);
        assert_eq!(r.ops, p.requests);
        for h in &r.per_hart {
            assert!(h.cycles > 0, "hart {} did real work", h.hart);
            assert!(h.utilization > 0.5, "balanced shares keep harts busy");
        }
        assert!(r.wall_cycles <= r.busy_cycles);
    }

    #[test]
    fn fork_stress_distributes_and_reaps() {
        let mut k = boot(2);
        let r = run_fork_stress_smp(&mut k, 32);
        assert_eq!(r.ops, 32);
        assert!(r.wall_cycles > 0);
        assert!(k.stats.forks >= 32);
    }
}
