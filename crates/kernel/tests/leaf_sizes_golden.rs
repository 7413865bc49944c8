//! Modeled-cost golden for user leaves of both sizes.
//!
//! One mixed sequence of 2 MiB and 4 KiB mappings drives every kernel
//! path a user leaf has: map and touch, fork (CoW sharing), a whole-block
//! and a 4 KiB `mprotect`, CoW breaks of shared and sole-owner leaves, a
//! `munmap` that splits two blocks (one of them shared), a 1-page
//! `munmap`, exit and wait, and the final whole-range `munmap`s. It runs
//! on eight machines ({1, 2} harts × eager or batched shootdowns × Sv39
//! or Sv48), and each must reproduce its pinned cycles per `CostKind`,
//! `KernelStats`, `AccessStats`, `TraceCounters` and the digest of every
//! trace event's `Debug` text. A change to those paths that moves any
//! modeled access, flush, mailbox record or trace event fails here.

use ptstore_core::digest::Fnv1a;
use ptstore_core::{PagingScheme, VirtAddr, MIB, PAGE_SIZE};
use ptstore_kernel::process::VmPerms;
use ptstore_kernel::{CostKind, Kernel, KernelConfig};
use ptstore_trace::{Snapshot, TraceSink};

/// What one machine's run pins.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `harts/shootdowns/scheme`.
    config: &'static str,
    /// Cycles charged by the sequence, per `CostKind::ALL` entry.
    cycles: [u64; 16],
    /// FNV-1a of the `Debug` text of the `KernelStats` delta.
    stats: u64,
    /// FNV-1a of the `Debug` text of the `AccessStats` delta.
    access: u64,
    /// FNV-1a of the `Debug` text of the `TraceCounters`.
    counters: u64,
    /// FNV-1a over the `Debug` text of every trace event, in order.
    trace: u64,
    /// Trace events emitted.
    events: usize,
}

const GOLDEN: [Golden; 8] = [
    Golden {
        config: "1/eager/sv39",
        cycles: [
            0, 11560, 2370046, 810, 840, 64926, 2128, 64, 0, 0, 0, 31850, 4800, 5880, 0, 0,
        ],
        stats: 0x6fe9f45456bb7897,
        access: 0xaf6180efb42f1425,
        counters: 0x67207d34de90ad57,
        trace: 0xedbc9b525fc55955,
        events: 17855,
    },
    Golden {
        config: "1/eager/sv48",
        cycles: [
            0, 11560, 2371663, 1116, 840, 65080, 2129, 64, 0, 0, 0, 31850, 4800, 5880, 0, 0,
        ],
        stats: 0x5b388ef4686e1018,
        access: 0x460d2245c41be853,
        counters: 0x1953cda98eb6fa63,
        trace: 0xee7c7d081408ce39,
        events: 20147,
    },
    Golden {
        config: "1/batched/sv39",
        cycles: [
            0, 11560, 2370046, 810, 840, 64926, 2128, 64, 0, 0, 0, 31850, 4800, 5880, 0, 0,
        ],
        stats: 0x6fe9f45456bb7897,
        access: 0xaf6180efb42f1425,
        counters: 0x67207d34de90ad57,
        trace: 0xedbc9b525fc55955,
        events: 17855,
    },
    Golden {
        config: "1/batched/sv48",
        cycles: [
            0, 11560, 2371663, 1116, 840, 65080, 2129, 64, 0, 0, 0, 31850, 4800, 5880, 0, 0,
        ],
        stats: 0x5b388ef4686e1018,
        access: 0x460d2245c41be853,
        counters: 0x1953cda98eb6fa63,
        trace: 0xee7c7d081408ce39,
        events: 20147,
    },
    Golden {
        config: "2/eager/sv39",
        cycles: [
            0, 11560, 2370044, 810, 812, 64926, 2128, 42, 0, 0, 0, 63700, 2400, 5880, 1007000, 0,
        ],
        stats: 0x1937eac14d1a246d,
        access: 0x3c299fb58ed51b91,
        counters: 0xb910c1a9fa9aa76a,
        trace: 0x862bf994c8001af8,
        events: 21026,
    },
    Golden {
        config: "2/eager/sv48",
        cycles: [
            0, 11560, 2371661, 1116, 812, 65080, 2129, 42, 0, 0, 0, 63700, 2400, 5880, 1007000, 0,
        ],
        stats: 0xf0c542b1ee62c6cc,
        access: 0xe1762b4f42ca2837,
        counters: 0x189adbfd52c67867,
        trace: 0xd6da3d32c4649915,
        events: 23318,
    },
    Golden {
        config: "2/batched/sv39",
        cycles: [
            0, 11560, 2370044, 810, 812, 64926, 2128, 42, 0, 0, 0, 63670, 2400, 5880, 14250, 0,
        ],
        stats: 0xacc0633d4e22fd28,
        access: 0x3c299fb58ed51b91,
        counters: 0xce72481e97166127,
        trace: 0x75257df98df420f9,
        events: 19987,
    },
    Golden {
        config: "2/batched/sv48",
        cycles: [
            0, 11560, 2371661, 1116, 812, 65080, 2129, 42, 0, 0, 0, 63670, 2400, 5880, 14250, 0,
        ],
        stats: 0x1fd0480f757c7255,
        access: 0xe1762b4f42ca2837,
        counters: 0x01a81087928db8c6,
        trace: 0xcdfb379ffe35771d,
        events: 22279,
    },
];

fn run(harts: usize, batched: bool, scheme: PagingScheme, config: &'static str) -> Golden {
    let mut k = Kernel::boot(
        KernelConfig::cfi_ptstore()
            .with_mem_size(128 * MIB)
            .with_initial_secure_size(8 * MIB)
            .with_harts(harts)
            .with_deferred_shootdowns(batched)
            .with_scheme(scheme),
    )
    .expect("boot");
    let sink = TraceSink::with_capacity(1 << 22);
    k.set_trace_sink(Some(sink.clone()));
    let (cycles0, stats0, access0) = (k.cycles.clone(), k.stats, *k.bus.stats());
    let at = |base: VirtAddr, off: u64| VirtAddr::new(base.as_u64() + off);

    // Three 2 MiB blocks and eight 4 KiB pages, each written once.
    let huge = k.sys_mmap_huge(6 * MIB).expect("mmap_huge");
    let small = k.sys_mmap(8 * PAGE_SIZE).expect("mmap");
    for b in 0..3 {
        k.sys_touch(at(huge, b * 2 * MIB + 5 * PAGE_SIZE), true)
            .expect("touch block");
    }
    for p in 0..8 {
        k.sys_touch(at(small, p * PAGE_SIZE), true)
            .expect("touch page");
    }

    // Fork shares every leaf of both sizes copy-on-write.
    let child = k.sys_fork().expect("fork");

    // Block 0 read-only and back (a CoW leaf gets no W back), then two
    // 4 KiB pages read-only.
    k.sys_mprotect(huge, 2 * MIB, VmPerms::RO)
        .expect("block RO");
    k.sys_mprotect(huge, 2 * MIB, VmPerms::RW)
        .expect("block RW");
    k.sys_mprotect(at(small, 2 * PAGE_SIZE), 2 * PAGE_SIZE, VmPerms::RO)
        .expect("pages RO");

    // The parent's writes copy a shared block and a shared page.
    k.sys_touch(at(huge, 7 * PAGE_SIZE), true)
        .expect("CoW block 0");
    k.sys_touch(small, true).expect("CoW page 0");

    // A munmap across the boundary of blocks 0 (now private) and 1 (still
    // shared) splits both, then a 1-page munmap.
    k.sys_munmap(at(huge, MIB), 2 * MIB)
        .expect("straddling munmap");
    k.sys_munmap(at(small, 5 * PAGE_SIZE), PAGE_SIZE)
        .expect("1-page munmap");

    // The child, on the last hart, writes a block and a page it now owns
    // alone and a block and a page it still shares, then exits.
    k.set_active_hart(harts - 1);
    k.do_switch_to(child).expect("switch to child");
    k.sys_touch(at(huge, 2 * MIB + 9 * PAGE_SIZE), true)
        .expect("child: sole block 1");
    k.sys_touch(at(huge, 4 * MIB + 11 * PAGE_SIZE), true)
        .expect("child: CoW block 2");
    k.sys_touch(small, true).expect("child: sole page 0");
    k.sys_touch(at(small, PAGE_SIZE), true)
        .expect("child: CoW page 1");
    k.sys_exit(0).expect("child exit");
    k.set_active_hart(0);
    k.sys_wait().expect("wait");

    // Block 2 is still whole; everything else left is 4 KiB.
    k.sys_munmap(huge, 6 * MIB).expect("munmap blocks");
    k.sys_munmap(small, 8 * PAGE_SIZE).expect("munmap pages");

    assert_eq!(sink.dropped(), 0, "{config}: the trace ring wrapped");
    let digest = |text: String| Fnv1a::hash_bytes(text.as_bytes());
    let events = sink.events();
    let mut trace = Fnv1a::new();
    for e in &events {
        trace.write(format!("{e:?}").as_bytes());
        trace.write_u8(b'\n');
    }
    Golden {
        config,
        cycles: CostKind::ALL.map(|kind| k.cycles.of(kind) - cycles0.of(kind)),
        stats: digest(format!("{:?}", k.stats.delta(&stats0))),
        access: digest(format!("{:?}", k.bus.stats().delta(&access0))),
        counters: digest(format!("{:?}", sink.counters())),
        trace: trace.finish(),
        events: events.len(),
    }
}

#[test]
fn both_leaf_sizes_keep_their_modeled_cost() {
    let mut runs = Vec::new();
    for (harts, h) in [(1, "1"), (2, "2")] {
        for (batched, b) in [(false, "eager"), (true, "batched")] {
            for (scheme, s) in [(PagingScheme::Sv39, "sv39"), (PagingScheme::Sv48, "sv48")] {
                let config: &'static str = format!("{h}/{b}/{s}").leak();
                runs.push(run(harts, batched, scheme, config));
            }
        }
    }
    assert_eq!(runs, GOLDEN, "actual:\n{runs:#?}");
}
