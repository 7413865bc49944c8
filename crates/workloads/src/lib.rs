//! # ptstore-workloads
//!
//! Workload generators reproducing the paper's performance evaluation
//! (§V-D) against the kernel model:
//!
//! * [`lmbench`] — the LMBench 3.0-a9 microbenchmark suite of Figure 4
//!   (syscall/signal/process/VM latencies), 1 000 iterations each;
//! * [`fork_stress`] — the 30 000-process stress of §V-D1 that exercises the
//!   dynamic secure-region adjustment;
//! * [`spec`] — SPEC CINT2006-shaped workloads (Figure 5): compute-bound
//!   programs with per-benchmark kernel-interaction profiles;
//! * [`nginx`] — the NGINX 1.20.1 static-file benchmark of Figure 6
//!   (10 000 requests, 100 concurrent);
//! * [`redis`] — the Redis 6.2.6 `redis-benchmark` command mix of Figure 7
//!   (100 000 requests per test, 50 connections);
//! * [`regression`] — an LTP-style functional suite whose outputs are diffed
//!   between kernel configurations (§V-C);
//! * [`smp`] — hart-distributed variants of the macrobenchmarks: one
//!   worker per hart, per-hart utilization, and shootdown accounting;
//! * [`c1m`] — the C1M multi-tenant macro workload: tenant fleets
//!   fork/serve/exit across the harts, a million connections at paper
//!   scale, driving the batched-shootdown and magazine fast paths;
//! * [`report`] — measurement plumbing: run a workload across kernel
//!   configurations and compute relative overheads.
//!
//! ```
//! use ptstore_core::MIB;
//! use ptstore_workloads::{lmbench, measure};
//! use ptstore_workloads::report::standard_configs;
//!
//! let configs = standard_configs(256 * MIB, 16 * MIB);
//! let grid = measure(1, &configs, &["null call"], |n| n.to_string(), |_, k| {
//!     lmbench::lat_null(k, 50)
//! });
//! assert_eq!(grid[0].entries[0].overhead_pct, 0.0); // baseline
//! assert!(grid[0].overhead_of("CFI").unwrap() > 0.0);
//! ```

pub mod c1m;
pub mod fork_stress;
pub mod huge;
pub mod lmbench;
pub mod nginx;
pub mod redis;
pub mod regression;
pub mod report;
pub mod smp;
pub mod spec;

pub use c1m::{run_c1m, C1mParams, C1mResult};
pub use fork_stress::{run_fork_stress, ForkStressResult};
pub use huge::{run_huge_page, HugePageResult};
pub use report::{measure, overhead_pct, Measurement, OverheadSeries};
pub use smp::{run_fork_stress_smp, run_nginx_smp, run_redis_smp, HartShare, SmpRunReport};
