//! The Redis 6.2.6 benchmark of Figure 7: the standard `redis-benchmark`
//! test list, 100 000 requests per test, 50 parallel connections.
//!
//! The server is modelled as a single-threaded event loop (as Redis is):
//! each request costs a recv, command execution in user mode (with data
//! sizes per command), and a send. Kernel time dominates for the short
//! commands — exactly why the paper classes Redis as kernel-intensive.

use ptstore_kernel::{CostKind, Kernel};

use crate::nginx;
use crate::report::timed;

/// One redis-benchmark test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedisTest {
    /// Test name as `redis-benchmark` prints it.
    pub name: &'static str,
    /// Request payload bytes.
    pub request_bytes: u64,
    /// Response payload bytes.
    pub response_bytes: u64,
    /// User-mode cycles to execute the command.
    pub user_cycles: u64,
}

/// The standard test list (paper Figure 7).
pub const REDIS_TESTS: [RedisTest; 14] = [
    RedisTest {
        name: "PING_INLINE",
        request_bytes: 14,
        response_bytes: 7,
        user_cycles: 900,
    },
    RedisTest {
        name: "PING_MBULK",
        request_bytes: 14,
        response_bytes: 7,
        user_cycles: 850,
    },
    RedisTest {
        name: "SET",
        request_bytes: 46,
        response_bytes: 5,
        user_cycles: 1_700,
    },
    RedisTest {
        name: "GET",
        request_bytes: 31,
        response_bytes: 10,
        user_cycles: 1_350,
    },
    RedisTest {
        name: "INCR",
        request_bytes: 28,
        response_bytes: 6,
        user_cycles: 1_400,
    },
    RedisTest {
        name: "LPUSH",
        request_bytes: 42,
        response_bytes: 6,
        user_cycles: 1_900,
    },
    RedisTest {
        name: "RPUSH",
        request_bytes: 42,
        response_bytes: 6,
        user_cycles: 1_850,
    },
    RedisTest {
        name: "LPOP",
        request_bytes: 27,
        response_bytes: 10,
        user_cycles: 1_750,
    },
    RedisTest {
        name: "RPOP",
        request_bytes: 27,
        response_bytes: 10,
        user_cycles: 1_700,
    },
    RedisTest {
        name: "SADD",
        request_bytes: 40,
        response_bytes: 6,
        user_cycles: 1_800,
    },
    RedisTest {
        name: "HSET",
        request_bytes: 52,
        response_bytes: 6,
        user_cycles: 1_950,
    },
    RedisTest {
        name: "SPOP",
        request_bytes: 27,
        response_bytes: 10,
        user_cycles: 1_650,
    },
    RedisTest {
        name: "LRANGE_100",
        request_bytes: 36,
        response_bytes: 1_400,
        user_cycles: 9_500,
    },
    RedisTest {
        name: "MSET (10 keys)",
        request_bytes: 300,
        response_bytes: 5,
        user_cycles: 6_200,
    },
];

/// Benchmark parameters (paper: 100 000 requests, 50 connections).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedisParams {
    /// Requests per test.
    pub requests: u64,
    /// Parallel connections.
    pub connections: u64,
}

impl RedisParams {
    /// The paper's parameters.
    pub fn paper() -> Self {
        Self {
            requests: 100_000,
            connections: 50,
        }
    }

    /// A scaled-down variant for unit tests.
    pub fn quick() -> Self {
        Self {
            requests: 1_000,
            connections: 50,
        }
    }
}

/// Runs one test to completion, returning total cycles.
///
/// # Panics
/// Panics on kernel errors.
pub fn run_redis_test(k: &mut Kernel, test: &RedisTest, p: &RedisParams) -> u64 {
    timed(k, |k| serve_requests(k, test, p, p.requests))
}

/// One single-threaded Redis instance serving exactly `requests` requests
/// on the current process. The SMP driver shards the keyspace and runs one
/// instance per hart (Redis cluster mode).
pub(crate) fn serve_requests(k: &mut Kernel, test: &RedisTest, p: &RedisParams, requests: u64) {
    // Persistent connections: accept once per connection.
    let socks: Vec<i32> = (0..p.connections)
        .map(|_| k.sys_accept(0).expect("accept"))
        .collect();
    let mut done = 0u64;
    let mut since_rehash = 0u64;
    'outer: loop {
        // One event-loop turn over the connection set.
        k.sys_select(p.connections).expect("select");
        // Allocator/dict churn: redis recycles zmalloc arenas and
        // rehashes dicts, exercising map/fault/unmap — the page-table
        // path PTStore instruments. Bounded (steady-state heap).
        since_rehash += p.connections;
        if since_rehash >= 64 {
            since_rehash = 0;
            nginx::churn_pool(k, 2);
        }
        for &s in &socks {
            if done >= requests {
                break 'outer;
            }
            // Request arrives on the socket.
            let _ = k.sockets_feed(s, test.request_bytes);
            k.sys_recv(s, test.request_bytes).expect("recv");
            k.charge(CostKind::User, test.user_cycles);
            k.sys_send(s, test.response_bytes).expect("send");
            done += 1;
        }
    }
    for s in socks {
        k.sys_close(s).expect("close");
    }
}

/// Feeds `bytes` into an accepted socket's receive queue (the benchmark
/// client side). Lives here as an extension trait-style helper.
trait SocketFeed {
    fn sockets_feed(&mut self, fd: i32, bytes: u64) -> Option<()>;
}

impl SocketFeed for Kernel {
    fn sockets_feed(&mut self, fd: i32, bytes: u64) -> Option<()> {
        use ptstore_kernel::process::FdEntry;
        let id = match self.procs.get(self.current_pid())?.fds.get(fd)? {
            FdEntry::Socket { id } => *id,
            _ => return None,
        };
        self.socket_push_rx(id, bytes);
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{measure, standard_configs};
    use ptstore_core::MIB;

    #[test]
    fn suite_runs_and_costs_scale_with_payload() {
        let mut k = ptstore_kernel::Kernel::boot(
            ptstore_kernel::KernelConfig::cfi_ptstore()
                .with_mem_size(256 * MIB)
                .with_initial_secure_size(16 * MIB),
        )
        .expect("boot");
        let p = RedisParams {
            requests: 200,
            connections: 10,
        };
        let rows: Vec<(&str, u64)> = REDIS_TESTS
            .iter()
            .map(|t| (t.name, run_redis_test(&mut k, t, &p)))
            .collect();
        let ping = rows
            .iter()
            .find(|(n, _)| *n == "PING_INLINE")
            .expect("ping")
            .1;
        let lrange = rows
            .iter()
            .find(|(n, _)| *n == "LRANGE_100")
            .expect("lrange")
            .1;
        assert!(lrange > ping, "bulk replies cost more");
    }

    #[test]
    fn redis_overheads_match_figure7_shape() {
        let configs = standard_configs(256 * MIB, 16 * MIB);
        let test = &REDIS_TESTS[3]; // GET
        let p = RedisParams::quick();
        let series = &measure(
            1,
            &configs,
            &[test],
            |t| t.name.to_string(),
            |t, k| run_redis_test(k, t, &p),
        )[0];
        let cfi = series.overhead_of("CFI").expect("present");
        let both = series.overhead_of("CFI+PTStore").expect("present");
        assert!(cfi > 1.0, "redis is kernel-bound: CFI {cfi:.2}%");
        let extra = both - cfi;
        assert!(
            (-0.2..1.5).contains(&extra),
            "PTStore extra small: {extra:.3}%"
        );
    }
}
