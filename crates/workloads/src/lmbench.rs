//! The LMBench 3.0-a9 microbenchmarks of Figure 4.
//!
//! Each driver reproduces what the corresponding `lat_*` program does to the
//! kernel, and is run `iterations` times (the paper runs each 1 000 times
//! and reports average relative overheads).

use ptstore_core::{VirtAddr, PAGE_SIZE};

use ptstore_kernel::Kernel;

use crate::report::timed;

/// The microbenchmarks of Figure 4, in display order.
pub const MICROBENCHMARKS: [&str; 17] = [
    "null call",
    "read",
    "write",
    "stat",
    "fstat",
    "open/close",
    "select",
    "sig inst",
    "sig hndl",
    "pipe",
    "fork+exit",
    "fork+exec",
    "mmap",
    "page fault",
    "prot fault",
    "ctx switch 2p",
    "ctx switch 16p",
];

/// Runs one named microbenchmark for `iters` iterations, returning cycles.
///
/// # Panics
/// Panics on unknown names or kernel errors (the benchmarks run on healthy
/// kernels).
pub fn run(name: &str, k: &mut Kernel, iters: u64) -> u64 {
    match name {
        "null call" => lat_null(k, iters),
        "read" => lat_read(k, iters),
        "write" => lat_write(k, iters),
        "stat" => lat_stat(k, iters),
        "fstat" => lat_fstat(k, iters),
        "open/close" => lat_open_close(k, iters),
        "select" => lat_select(k, iters),
        "sig inst" => lat_sig_install(k, iters),
        "sig hndl" => lat_sig_catch(k, iters),
        "pipe" => lat_pipe(k, iters),
        "fork+exit" => lat_fork_exit(k, iters),
        "fork+exec" => lat_fork_exec(k, iters),
        "mmap" => lat_mmap(k, iters),
        "page fault" => lat_pagefault(k, iters),
        "prot fault" => lat_protfault(k, iters),
        "ctx switch 2p" => lat_ctx(k, 2, iters),
        "ctx switch 16p" => lat_ctx(k, 16, iters),
        other => panic!("unknown microbenchmark {other}"),
    }
}

/// `lat_syscall null`: getppid in a loop.
pub fn lat_null(k: &mut Kernel, iters: u64) -> u64 {
    timed(k, |k| {
        for _ in 0..iters {
            k.sys_null().expect("null");
        }
    })
}

/// `lat_syscall read`: 1-byte reads of /dev/zero (the byte is never
/// looked at — length-only on the host, identical modeled charges).
pub fn lat_read(k: &mut Kernel, iters: u64) -> u64 {
    let fd = k.sys_open("/dev/zero").expect("open");
    let c = timed(k, |k| {
        for _ in 0..iters {
            k.sys_read_discard(fd, 1).expect("read");
        }
    });
    k.sys_close(fd).expect("close");
    c
}

/// `lat_syscall write`: 1-byte writes to /dev/null (console).
pub fn lat_write(k: &mut Kernel, iters: u64) -> u64 {
    timed(k, |k| {
        for _ in 0..iters {
            k.sys_write_discard(1, 1).expect("write");
        }
    })
}

/// `lat_syscall stat`.
pub fn lat_stat(k: &mut Kernel, iters: u64) -> u64 {
    timed(k, |k| {
        for _ in 0..iters {
            k.sys_stat("/etc/passwd").expect("stat");
        }
    })
}

/// `lat_syscall fstat`.
pub fn lat_fstat(k: &mut Kernel, iters: u64) -> u64 {
    let fd = k.sys_open("/etc/passwd").expect("open");
    let c = timed(k, |k| {
        for _ in 0..iters {
            k.sys_fstat(fd).expect("fstat");
        }
    });
    k.sys_close(fd).expect("close");
    c
}

/// `lat_syscall open`: open+close /etc/passwd.
pub fn lat_open_close(k: &mut Kernel, iters: u64) -> u64 {
    timed(k, |k| {
        for _ in 0..iters {
            let fd = k.sys_open("/etc/passwd").expect("open");
            k.sys_close(fd).expect("close");
        }
    })
}

/// `lat_select` on 10 fds.
pub fn lat_select(k: &mut Kernel, iters: u64) -> u64 {
    timed(k, |k| {
        for _ in 0..iters {
            k.sys_select(10).expect("select");
        }
    })
}

/// `lat_sig install`.
pub fn lat_sig_install(k: &mut Kernel, iters: u64) -> u64 {
    timed(k, |k| {
        for _ in 0..iters {
            k.sys_signal_install(10).expect("install");
        }
    })
}

/// `lat_sig catch`.
pub fn lat_sig_catch(k: &mut Kernel, iters: u64) -> u64 {
    k.sys_signal_install(10).expect("install");
    timed(k, |k| {
        for _ in 0..iters {
            k.sys_signal_catch(10).expect("catch");
        }
    })
}

/// `lat_pipe`: token passed through a pipe (write+read per round trip;
/// the token is opaque, so both sides run length-only on the host).
pub fn lat_pipe(k: &mut Kernel, iters: u64) -> u64 {
    let (r, w) = k.sys_pipe().expect("pipe");
    let c = timed(k, |k| {
        for _ in 0..iters {
            k.sys_write_discard(w, 1).expect("pipe write");
            k.sys_read_discard(r, 1).expect("pipe read");
        }
    });
    k.sys_close(r).expect("close");
    k.sys_close(w).expect("close");
    c
}

/// `lat_proc fork`: fork + child exit + wait.
pub fn lat_fork_exit(k: &mut Kernel, iters: u64) -> u64 {
    timed(k, |k| {
        for _ in 0..iters {
            let child = k.sys_fork().expect("fork");
            k.do_switch_to(child).expect("switch");
            k.sys_exit(0).expect("exit");
            k.sys_wait().expect("wait");
        }
    })
}

/// `lat_proc exec`: fork + exec + exit + wait.
pub fn lat_fork_exec(k: &mut Kernel, iters: u64) -> u64 {
    timed(k, |k| {
        for _ in 0..iters {
            let child = k.sys_fork().expect("fork");
            k.do_switch_to(child).expect("switch");
            k.sys_exec().expect("exec");
            k.sys_exit(0).expect("exit");
            k.sys_wait().expect("wait");
        }
    })
}

/// `lat_mmap`: map, touch one page, unmap.
pub fn lat_mmap(k: &mut Kernel, iters: u64) -> u64 {
    timed(k, |k| {
        for _ in 0..iters {
            let a = k.sys_mmap(4 * PAGE_SIZE).expect("mmap");
            k.sys_touch(a, true).expect("touch");
            k.sys_munmap(a, 4 * PAGE_SIZE).expect("munmap");
        }
    })
}

/// `lat_pagefault`: demand-fault a fresh page per iteration (the mapping is
/// created before and released after the timed section, so only the fault
/// path is measured and repeated runs do not accumulate state).
pub fn lat_pagefault(k: &mut Kernel, iters: u64) -> u64 {
    let region = k.sys_mmap(iters * PAGE_SIZE).expect("mmap");
    let cycles = timed(k, |k| {
        for i in 0..iters {
            let va = VirtAddr::new(region.as_u64() + i * PAGE_SIZE);
            k.sys_touch(va, true).expect("fault");
        }
    });
    k.sys_munmap(region, iters * PAGE_SIZE).expect("munmap");
    cycles
}

/// `lat_sig prot` analogue: protection-fault latency — write a read-only
/// page, take the fault, flip the protection back and forth with mprotect.
pub fn lat_protfault(k: &mut Kernel, iters: u64) -> u64 {
    use ptstore_kernel::process::VmPerms;
    let addr = k.sys_mmap(PAGE_SIZE).expect("mmap");
    k.sys_touch(addr, true).expect("fault in");
    timed(k, |k| {
        for _ in 0..iters {
            k.sys_mprotect(addr, PAGE_SIZE, VmPerms::RO).expect("ro");
            // The faulting write: rejected by the (fresh) page protection.
            let err = k.sys_touch(addr, true);
            assert!(err.is_err(), "write must protection-fault");
            k.sys_mprotect(addr, PAGE_SIZE, VmPerms::RW).expect("rw");
        }
    })
}

/// Context-switch latency between `nprocs` processes (lat_ctx analogue).
/// The ring is created before and torn down after the timed section, as
/// `lat_ctx` itself does.
pub fn lat_ctx(k: &mut Kernel, nprocs: usize, rounds: u64) -> u64 {
    let parent = k.current_pid();
    let mut pids = vec![parent];
    for _ in 1..nprocs {
        pids.push(k.sys_fork().expect("fork"));
    }
    let cycles = timed(k, |k| {
        for r in 0..rounds {
            let next = pids[(r as usize) % pids.len()];
            if next != k.current_pid() {
                k.do_switch_to(next).expect("switch");
            }
        }
    });
    // Teardown outside the measurement.
    for &child in &pids[1..] {
        k.do_switch_to(child).expect("switch for teardown");
        k.sys_exit(0).expect("exit");
    }
    k.do_switch_to(parent).expect("back to parent");
    for _ in 1..nprocs {
        k.sys_wait().expect("reap");
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{measure, standard_configs};
    use ptstore_core::MIB;
    use ptstore_kernel::{Kernel, KernelConfig};

    fn small() -> Kernel {
        Kernel::boot(
            KernelConfig::cfi_ptstore()
                .with_mem_size(256 * MIB)
                .with_initial_secure_size(16 * MIB),
        )
        .expect("boot")
    }

    #[test]
    fn every_microbenchmark_runs() {
        let mut k = small();
        for name in MICROBENCHMARKS {
            let cycles = run(name, &mut k, 5);
            assert!(cycles > 0, "{name} must consume cycles");
        }
    }

    #[test]
    fn fork_benchmarks_do_not_leak_processes() {
        let mut k = small();
        let before = k.procs.len();
        lat_fork_exit(&mut k, 10);
        lat_fork_exec(&mut k, 10);
        assert_eq!(k.procs.len(), before);
    }

    #[test]
    fn cfi_overhead_is_positive_and_moderate() {
        let configs = standard_configs(256 * MIB, 16 * MIB);
        let series = &measure(
            1,
            &configs,
            &["null call"],
            |n| n.to_string(),
            |_, k| lat_null(k, 200),
        )[0];
        let cfi = series.overhead_of("CFI").expect("present");
        assert!(cfi > 0.0 && cfi < 20.0, "CFI on null call: {cfi:.2}%");
        // PTStore adds nearly nothing on the null path.
        let both = series.overhead_of("CFI+PTStore").expect("present");
        assert!(
            (both - cfi).abs() < 1.0,
            "PTStore extra on null call should be tiny: {both:.2}% vs {cfi:.2}%"
        );
    }

    #[test]
    fn ptstore_extra_on_fork_is_small() {
        let configs = standard_configs(256 * MIB, 16 * MIB);
        let series = &measure(
            1,
            &configs,
            &["fork+exit"],
            |n| n.to_string(),
            |_, k| lat_fork_exit(k, 50),
        )[0];
        let cfi = series.overhead_of("CFI").expect("present");
        let both = series.overhead_of("CFI+PTStore").expect("present");
        assert!(both > 0.0);
        let extra = both - cfi;
        assert!(
            extra > 0.0 && extra < 5.0,
            "PTStore fork extra {extra:.2}% (CFI {cfi:.2}%, both {both:.2}%)"
        );
    }

    #[test]
    fn ctx_switch_runs() {
        let mut k = small();
        let c = lat_ctx(&mut k, 4, 64);
        assert!(c > 0);
        assert!(k.stats.context_switches >= 48);
    }
}

/// `bw_pipe` analogue: stream `total_bytes` through a pipe in 4 KiB chunks,
/// returning cycles (bandwidth = bytes / cycles). The stream is all
/// zeros, so neither side materializes a host buffer.
pub fn bw_pipe(k: &mut Kernel, total_bytes: u64) -> u64 {
    let (r, w) = k.sys_pipe().expect("pipe");
    let c = timed(k, |k| {
        let mut moved = 0u64;
        while moved < total_bytes {
            let n = k.sys_write_discard(w, 4096).expect("write");
            k.sys_read_discard(r, n).expect("read");
            moved += n;
        }
    });
    k.sys_close(r).expect("close");
    k.sys_close(w).expect("close");
    c
}

/// `bw_file_rd` analogue: read a file start to finish in 64 KiB chunks.
pub fn bw_file_rd(k: &mut Kernel, file_bytes: u64) -> u64 {
    k.fs.create("/tmp/bwfile", vec![0x5au8; file_bytes as usize]);
    let fd = k.sys_open("/tmp/bwfile").expect("open");
    let c = timed(k, |k| {
        let mut read = 0u64;
        while read < file_bytes {
            let n = k.sys_read_discard(fd, 64 << 10).expect("read");
            if n == 0 {
                break;
            }
            read += n;
        }
    });
    k.sys_close(fd).expect("close");
    k.fs.unlink("/tmp/bwfile");
    c
}

#[cfg(test)]
mod bandwidth_tests {
    use super::*;
    use crate::report::{measure, overhead_pct, standard_configs};
    use ptstore_core::MIB;

    #[test]
    fn bandwidth_scales_with_volume() {
        let mut k = ptstore_kernel::Kernel::boot(
            ptstore_kernel::KernelConfig::cfi_ptstore()
                .with_mem_size(256 * MIB)
                .with_initial_secure_size(16 * MIB),
        )
        .expect("boot");
        let small = bw_pipe(&mut k, 64 << 10);
        let big = bw_pipe(&mut k, 512 << 10);
        assert!(big > 4 * small, "8x bytes ≈ 8x cycles: {small} -> {big}");
        let f = bw_file_rd(&mut k, 256 << 10);
        assert!(f > 0);
    }

    #[test]
    fn ptstore_does_not_tax_bandwidth() {
        // Bulk data movement never touches page tables: PTStore-only
        // overhead on bandwidth is ~zero (consistent with Fig. 4's I/O rows).
        let configs = standard_configs(256 * MIB, 16 * MIB);
        let series = &measure(
            1,
            &configs,
            &["bw_pipe"],
            |n| n.to_string(),
            |_, k| bw_pipe(k, 256 << 10),
        )[0];
        let cfi = series.overhead_of("CFI").expect("cfi");
        let both = series.overhead_of("CFI+PTStore").expect("both");
        assert!(
            (both - cfi).abs() < 0.2,
            "PTStore on bw: {:.3}%",
            both - cfi
        );
        let _ = overhead_pct(1, 1);
    }
}
