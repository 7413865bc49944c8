//! The C1M multi-tenant macro workload: a server fleet churning through
//! on the order of a million connections while tenants come and go.
//!
//! Each hart hosts a slice of the tenant population. A tenant's lifetime
//! is one churn round: the hart's long-lived supervisor worker forks the
//! tenant, the tenant builds a heap, serves an epoll-style request loop
//! (select / accept / recv / open / fstat / sendfile / close) with
//! connection-pool paging churn and periodic `mprotect` hardening of its
//! session arena, then exits and is reaped — and the next round forks a
//! fresh tenant into the same slot. The aggregate is the page-table
//! stress the paper's §V-D cares about at datacenter shape: tens of
//! thousands of short-lived address spaces, fork/exit storms, demand
//! paging and CoW, secure-region growth, and (on SMP) a torrent of TLB
//! shootdowns — the traffic the deferred-shootdown and allocation-
//! magazine fast paths exist to collapse.
//!
//! Everything reported here is modeled (cycles, counters): the output is
//! byte-identical across reruns, so the harness can diff it. Host wall time is measured outside, by `scripts/bench.sh`.

use ptstore_core::{VirtAddr, PAGE_SIZE};
use ptstore_kernel::process::VmPerms;
use ptstore_kernel::{Kernel, Snapshot};

use crate::nginx;
use crate::smp::{self, SmpRunReport};

/// The file every tenant serves.
const DOCUMENT: &str = "/srv/tenant.bin";

/// Workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct C1mParams {
    /// Concurrent tenant slots across the whole machine.
    pub tenants: u64,
    /// Churn generations: each slot is torn down and re-forked this many
    /// times, so `tenants * churn_rounds` processes live and die.
    pub churn_rounds: u64,
    /// Connections each tenant serves per generation.
    pub requests_per_tenant: u64,
    /// Response body served per connection.
    pub response_bytes: u64,
    /// Tenant heap (session arena) size in pages.
    pub heap_pages: u64,
    /// User cycles per request (parsing, routing, templating).
    pub user_cycles_per_request: u64,
}

impl C1mParams {
    /// The full C1M shape: 10 000 tenant generations serving a million
    /// connections total.
    pub fn paper() -> Self {
        Self {
            tenants: 500,
            churn_rounds: 20,
            requests_per_tenant: 100,
            response_bytes: 4 << 10,
            heap_pages: 16,
            user_cycles_per_request: 5_500,
        }
    }

    /// A scaled-down variant for the quick suite and CI smoke.
    pub fn quick() -> Self {
        Self {
            tenants: 30,
            churn_rounds: 4,
            requests_per_tenant: 15,
            ..Self::paper()
        }
    }

    /// Total connections served over the run.
    pub fn connections(&self) -> u64 {
        self.tenants * self.churn_rounds * self.requests_per_tenant
    }

    /// Total processes forked over the run (excluding per-hart workers).
    pub fn processes(&self) -> u64 {
        self.tenants * self.churn_rounds
    }
}

/// Modeled results of one C1M run.
#[derive(Debug, Clone, PartialEq)]
pub struct C1mResult {
    /// The hart-distributed run report (wall cycles = slowest hart).
    pub report: SmpRunReport,
    /// Connections served.
    pub connections: u64,
    /// Tenant processes forked and reaped.
    pub processes: u64,
    /// Secure-region adjustments the tenant churn forced.
    pub adjustments: u64,
    /// Deferred-shootdown drains (0 when the knob is off).
    pub deferred_drains: u64,
    /// Page invalidations those drains coalesced.
    pub deferred_pages_coalesced: u64,
    /// Drains a `Watermark` policy triggered early (0 for other policies).
    pub watermark_drains: u64,
    /// High-water mark of any hart's deferred queue depth over the run —
    /// the statistic watermark policies exist to bound.
    pub deferred_queue_peak: u64,
}

impl C1mResult {
    /// Connections per thousand modeled wall cycles.
    pub fn connections_per_kilocycle(&self) -> f64 {
        if self.report.wall_cycles == 0 {
            0.0
        } else {
            self.connections as f64 * 1000.0 / self.report.wall_cycles as f64
        }
    }
}

/// Runs the workload distributed across all harts.
///
/// # Panics
/// Panics on kernel errors (the fleet must run cleanly; OOM means the
/// configuration is too small for the tenant count).
pub fn run_c1m(k: &mut Kernel, p: &C1mParams) -> C1mResult {
    let doc = vec![0x42u8; p.response_bytes as usize];
    k.fs.create(DOCUMENT, doc);
    let stats0 = k.stats;
    let report = smp::run_distributed(k, "c1m", p.tenants, |k, supervisor, slots| {
        for _ in 0..p.churn_rounds {
            for _ in 0..slots {
                // The supervisor forks the tenant; the exit path's
                // `pick_next` may land elsewhere (FIFO queue), so hop
                // back to the supervisor before reaping.
                let tenant = k.sys_fork().expect("tenant fork");
                k.do_switch_to(tenant).expect("switch to tenant");
                serve_tenant(k, p);
                k.sys_exit(0).expect("tenant exit");
                if k.current_pid() != supervisor {
                    k.do_switch_to(supervisor).expect("back to supervisor");
                }
                k.sys_wait().expect("reap tenant");
            }
        }
    });
    let d = k.stats.delta(&stats0);
    C1mResult {
        report,
        connections: p.connections(),
        processes: p.processes(),
        adjustments: d.adjustments,
        deferred_drains: d.deferred_drains,
        deferred_pages_coalesced: d.deferred_pages_coalesced,
        watermark_drains: d.watermark_drains,
        deferred_queue_peak: d.deferred_queue_peak,
    }
}

/// One tenant generation: build the session arena, serve the connection
/// loop, periodically harden and churn the paging path.
fn serve_tenant(k: &mut Kernel, p: &C1mParams) {
    const BATCH: u64 = 16; // event-loop readiness batch

    // Session arena: demand-faulted heap the request handlers write into.
    let heap_base = k.procs.get(k.current_pid()).expect("tenant").brk;
    k.sys_brk(heap_base + p.heap_pages * PAGE_SIZE)
        .expect("tenant brk");
    for i in 0..p.heap_pages {
        k.sys_touch(VirtAddr::new(heap_base + i * PAGE_SIZE), true)
            .expect("tenant heap touch");
    }

    let mut served = 0u64;
    let mut since_pool_churn = 0u64;
    let mut hardened = false;
    while served < p.requests_per_tenant {
        let batch = BATCH.min(p.requests_per_tenant - served);
        k.sys_select(batch).expect("select");
        // Connection-pool churn, as nginx's (batched, it also feeds the
        // deferred shootdown queue).
        since_pool_churn += batch;
        if since_pool_churn >= 32 {
            since_pool_churn = 0;
            nginx::churn_pool(k, 4);
            // Config hardening: flip the head of the session arena
            // read-only once warm (and back, so later generations of the
            // loop can rewrite it) — mprotect downgrades are a prime
            // coalescing target.
            let head = VirtAddr::new(heap_base);
            let perms = if hardened { VmPerms::RW } else { VmPerms::RO };
            k.sys_mprotect(head, 2 * PAGE_SIZE, perms)
                .expect("arena mprotect");
            hardened = !hardened;
        }
        for _ in 0..batch {
            nginx::serve_connection(k, DOCUMENT, p.response_bytes, p.user_cycles_per_request);
        }
        served += batch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptstore_core::MIB;
    use ptstore_kernel::{DrainPolicy, Kernel, KernelConfig};

    fn boot(harts: usize, batched: bool) -> Kernel {
        boot_policy(harts, batched, DrainPolicy::Boundary)
    }

    fn boot_policy(harts: usize, batched: bool, policy: DrainPolicy) -> Kernel {
        let cfg = KernelConfig::cfi_ptstore()
            .with_mem_size(256 * MIB)
            .with_initial_secure_size(8 * MIB)
            .with_harts(harts)
            .with_deferred_shootdowns(batched)
            .with_alloc_magazines(batched)
            .with_drain_policy(policy);
        Kernel::boot(cfg).expect("kernel boots")
    }

    #[test]
    fn quick_run_serves_everything() {
        let p = C1mParams::quick();
        let mut k = boot(2, false);
        let forks0 = k.stats.forks;
        let r = run_c1m(&mut k, &p);
        assert_eq!(r.connections, p.connections());
        // Every tenant generation forked (plus the two per-hart workers).
        assert_eq!(k.stats.forks - forks0, r.processes + 2);
        assert!(r.report.wall_cycles > 0);
        assert!(r.connections_per_kilocycle() > 0.0);
        assert!(k.security_log.is_empty(), "clean run");
    }

    #[test]
    fn batching_cuts_ipis_without_changing_the_work() {
        let p = C1mParams::quick();
        let mut eager = boot(2, false);
        let mut batched = boot(2, true);
        let re = run_c1m(&mut eager, &p);
        let rb = run_c1m(&mut batched, &p);
        // Identical functional story...
        assert_eq!(eager.stats.forks, batched.stats.forks);
        assert_eq!(eager.stats.exits, batched.stats.exits);
        assert_eq!(eager.stats.page_faults, batched.stats.page_faults);
        assert_eq!(re.connections, rb.connections);
        // ...with strictly less shootdown traffic and fewer wall cycles.
        assert!(
            rb.report.shootdown_ipis < re.report.shootdown_ipis,
            "batched {} !< eager {}",
            rb.report.shootdown_ipis,
            re.report.shootdown_ipis
        );
        assert!(rb.deferred_drains > 0);
        assert!(rb.deferred_pages_coalesced > rb.deferred_drains);
        assert!(
            rb.report.wall_cycles < re.report.wall_cycles,
            "batched {} !< eager {}",
            rb.report.wall_cycles,
            re.report.wall_cycles
        );
    }

    #[test]
    fn policy_sweep_is_state_identical_and_watermark_bounds_depth() {
        let p = C1mParams::quick();
        let mut boundary = boot_policy(2, true, DrainPolicy::Boundary);
        let mut watermark = boot_policy(2, true, DrainPolicy::Watermark { depth: 8 });
        let rb = run_c1m(&mut boundary, &p);
        let rw = run_c1m(&mut watermark, &p);
        // Policies move *when* drains happen, never what they deliver:
        // every queued page rides some drain, and the functional story
        // matches.
        assert_eq!(rb.deferred_pages_coalesced, rw.deferred_pages_coalesced);
        assert_eq!(rb.connections, rw.connections);
        assert_eq!(boundary.stats.page_faults, watermark.stats.page_faults);
        assert_eq!(boundary.stats.forks, watermark.stats.forks);
        // The watermark strictly bounds the queue-depth high-water mark...
        assert!(
            rw.deferred_queue_peak < rb.deferred_queue_peak,
            "watermark peak {} !< boundary peak {}",
            rw.deferred_queue_peak,
            rb.deferred_queue_peak
        );
        assert_eq!(rw.deferred_queue_peak, 8);
        assert!(rw.watermark_drains > 0);
        assert_eq!(rb.watermark_drains, 0);
        // ...at the price of more drain rounds — the documented trade-off.
        assert!(rw.deferred_drains > rb.deferred_drains);
    }
}
