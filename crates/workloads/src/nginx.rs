//! The NGINX 1.20.1 benchmark of Figure 6: 10 000 requests total, 100
//! concurrent, static files of varying size served from the ramfs.
//!
//! The model runs the server's event loop faithfully at the syscall level:
//! batches of `select` + per-connection accept/recv/open/fstat/read/send/
//! close. A small per-request user-mode cost stands in for parsing and
//! response assembly.

use ptstore_core::{VirtAddr, PAGE_SIZE};
use ptstore_kernel::{CostKind, Kernel};

use crate::report::timed;

/// Response sizes swept in the figure.
pub const RESPONSE_SIZES: [u64; 5] = [1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10];

/// Benchmark parameters (paper: 10 000 requests, 100 concurrent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NginxParams {
    /// Total requests.
    pub requests: u64,
    /// Concurrent connections per event-loop batch.
    pub concurrency: u64,
    /// Static file size served.
    pub response_bytes: u64,
    /// User cycles per request (parsing, headers).
    pub user_cycles_per_request: u64,
}

impl NginxParams {
    /// The paper's parameters at a given response size.
    pub fn paper(response_bytes: u64) -> Self {
        Self {
            requests: 10_000,
            concurrency: 100,
            response_bytes,
            user_cycles_per_request: 5_500,
        }
    }

    /// A scaled-down variant for unit tests.
    pub fn quick(response_bytes: u64) -> Self {
        Self {
            requests: 500,
            concurrency: 50,
            ..Self::paper(response_bytes)
        }
    }
}

/// Serves the whole benchmark, returning total cycles.
///
/// # Panics
/// Panics on kernel errors (the web server must run cleanly).
pub fn run_nginx(k: &mut Kernel, p: &NginxParams) -> u64 {
    stage_document(k, p);
    timed(k, |k| serve_requests(k, p, p.requests))
}

/// The static document the benchmark serves.
const DOCUMENT: &str = "/srv/index.html";

/// Creates the static document the benchmark serves.
pub(crate) fn stage_document(k: &mut Kernel, p: &NginxParams) {
    let doc = vec![0x41u8; p.response_bytes as usize];
    k.fs.create(DOCUMENT, doc);
}

/// The server's event loop: serves exactly `requests` requests on the
/// current process (one nginx worker). The SMP driver runs one of these
/// per hart.
pub(crate) fn serve_requests(k: &mut Kernel, p: &NginxParams, requests: u64) {
    let mut served = 0u64;
    let mut since_pool_growth = 0u64;
    while served < requests {
        let batch = p.concurrency.min(requests - served);
        // One event-loop turn: poll readiness over the live connections.
        k.sys_select(batch).expect("select");
        since_pool_growth += batch;
        if since_pool_growth >= 32 {
            since_pool_growth = 0;
            churn_pool(k, 4);
        }
        for _ in 0..batch {
            serve_connection(k, DOCUMENT, p.response_bytes, p.user_cycles_per_request);
        }
        served += batch;
    }
}

/// Pool churn: a server grows and releases a `pages`-page buffer arena
/// (mmap, a write touch of each page, munmap) as connections cycle,
/// touching the paging path; this is where PTStore's page-table work
/// shows up in a server.
pub(crate) fn churn_pool(k: &mut Kernel, pages: u64) {
    let arena = k.sys_mmap(pages * PAGE_SIZE).expect("pool mmap");
    for i in 0..pages {
        k.sys_touch(VirtAddr::new(arena.as_u64() + i * PAGE_SIZE), true)
            .expect("pool touch");
    }
    k.sys_munmap(arena, pages * PAGE_SIZE).expect("pool munmap");
}

/// One connection: accept and receive a request, charge `user_cycles` of
/// parsing, then open and fstat `path` and send `response_bytes` of it in
/// sendfile-style 64 KiB chunks before closing the file and the socket.
pub(crate) fn serve_connection(k: &mut Kernel, path: &str, response_bytes: u64, user_cycles: u64) {
    const REQUEST_BYTES: u64 = 420; // typical GET + headers
    let sock = k.sys_accept(REQUEST_BYTES).expect("accept");
    k.sys_recv(sock, REQUEST_BYTES).expect("recv");
    k.charge(CostKind::User, user_cycles);
    let fd = k.sys_open(path).expect("open");
    k.sys_fstat(fd).expect("fstat");
    let mut remaining = response_bytes;
    while remaining > 0 {
        let chunk = remaining.min(64 << 10);
        k.sys_read_discard(fd, chunk).expect("read");
        k.sys_send(sock, chunk).expect("send");
        remaining -= chunk;
    }
    k.sys_close(fd).expect("close file");
    k.sys_close(sock).expect("close sock");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{measure, standard_configs};
    use ptstore_core::MIB;

    #[test]
    fn serves_all_requests() {
        let mut k = ptstore_kernel::Kernel::boot(
            ptstore_kernel::KernelConfig::cfi_ptstore()
                .with_mem_size(256 * MIB)
                .with_initial_secure_size(16 * MIB),
        )
        .expect("boot");
        let p = NginxParams::quick(4 << 10);
        let syscalls_before = k.stats.syscalls;
        let cycles = run_nginx(&mut k, &p);
        assert!(cycles > 0);
        // ≥ 8 syscalls per request.
        assert!(k.stats.syscalls - syscalls_before >= p.requests * 8);
    }

    #[test]
    fn kernel_bound_overheads_match_figure6_shape() {
        // Figure 6: CFI dominates (kernel-bound), PTStore adds <0.86 %.
        let configs = standard_configs(256 * MIB, 16 * MIB);
        let p = NginxParams::quick(4 << 10);
        let series = &measure(
            1,
            &configs,
            &["nginx 4k"],
            |n| n.to_string(),
            |_, k| run_nginx(k, &p),
        )[0];
        let cfi = series.overhead_of("CFI").expect("present");
        let both = series.overhead_of("CFI+PTStore").expect("present");
        assert!(cfi > 1.0, "nginx is kernel-bound; CFI visible: {cfi:.2}%");
        let ptstore_extra = both - cfi;
        assert!(
            (-0.2..1.5).contains(&ptstore_extra),
            "PTStore extra on nginx should be small: {ptstore_extra:.3}%"
        );
    }

    #[test]
    fn larger_responses_amortise_per_request_costs() {
        let mut k = ptstore_kernel::Kernel::boot(
            ptstore_kernel::KernelConfig::baseline()
                .with_mem_size(256 * MIB)
                .with_initial_secure_size(16 * MIB),
        )
        .expect("boot");
        let small = run_nginx(&mut k, &NginxParams::quick(1 << 10));
        let big = run_nginx(&mut k, &NginxParams::quick(256 << 10));
        assert!(big > small, "more bytes cost more cycles");
    }
}
