//! Integration tests across the kernel's subsystems.

use ptstore_core::{VirtAddr, MIB, PAGE_SIZE};
use ptstore_kernel::config::MAX_HARTS;
use ptstore_kernel::pagetable::{USER_MMAP_BASE, USER_TEXT_BASE};
use ptstore_kernel::syscall::{FD_SETSIZE, MAX_RW_COUNT};
use ptstore_kernel::{ConfigError, DefenseMode, DrainPolicy, Kernel, KernelConfig, KernelError};
use ptstore_trace::{TraceEvent, TraceSink};

fn boot(cfg: KernelConfig) -> Kernel {
    Kernel::boot(
        cfg.with_mem_size(256 * MIB)
            .with_initial_secure_size(16 * MIB),
    )
    .expect("kernel boots")
}

fn boot_small_region(chunk: u64) -> Kernel {
    let mut cfg = KernelConfig::cfi_ptstore()
        .with_mem_size(256 * MIB)
        .with_initial_secure_size(MIB);
    cfg.adjust_chunk = chunk;
    Kernel::boot(cfg).expect("kernel boots")
}

/// `Kernel::boot` refuses every config the builder refuses, with the same
/// error and before it builds anything: none of these may panic, or boot a
/// machine that later spins (a zero `adjust_chunk` grew a full region by
/// nothing, forever).
#[test]
fn boot_rejects_what_the_builder_rejects() {
    let base = KernelConfig::cfi_ptstore()
        .with_mem_size(64 * MIB)
        .with_initial_secure_size(MIB);
    let chunk = |adjust_chunk| KernelConfig {
        adjust_chunk,
        ..base
    };
    let cases = [
        ("0 harts", base.with_harts(0), ConfigError::BadHartCount),
        (
            "65 harts",
            base.with_harts(MAX_HARTS + 1),
            ConfigError::BadHartCount,
        ),
        (
            "32 MiB",
            base.with_mem_size(32 * MIB),
            ConfigError::BadMemSize,
        ),
        (
            "secure = mem/2",
            base.with_initial_secure_size(32 * MIB),
            ConfigError::BadSecureSize,
        ),
        (
            "unaligned secure",
            base.with_initial_secure_size(MIB + 8),
            ConfigError::BadSecureSize,
        ),
        ("chunk 0", chunk(0), ConfigError::BadAdjustChunk),
        (
            "chunk page + 1",
            chunk(PAGE_SIZE + 1),
            ConfigError::BadAdjustChunk,
        ),
        (
            "watermark depth 0",
            base.with_deferred_shootdowns(true)
                .with_drain_policy(DrainPolicy::Watermark { depth: 0 }),
            ConfigError::BadDrainWatermark,
        ),
    ];
    assert_eq!(base.to_builder().build(), Ok(base));
    assert!(Kernel::boot(base).is_ok());
    for (name, cfg, want) in cases {
        assert_eq!(cfg.to_builder().build(), Err(want), "{name}");
        assert_eq!(
            Kernel::boot(cfg).err(),
            Some(KernelError::Config(want)),
            "{name}"
        );
    }
}

#[test]
fn boots_in_every_defense_mode() {
    for defense in [
        DefenseMode::None,
        DefenseMode::PtRand,
        DefenseMode::VirtualIsolation,
        DefenseMode::PtStore,
    ] {
        let k = boot(KernelConfig::baseline().with_defense(defense));
        assert_eq!(k.current_pid(), 1, "{defense}: init is current");
        assert_eq!(
            k.secure_region().is_some(),
            defense.is_ptstore(),
            "{defense}: secure region present iff ptstore"
        );
    }
}

#[test]
fn ptstore_kernel_issues_secure_channel_traffic() {
    let k = boot(KernelConfig::cfi_ptstore());
    let stats = k.bus.stats();
    assert!(
        stats.secure_writes > 100,
        "boot builds the direct map with sd.pt: {stats}"
    );
    assert_eq!(stats.faults, 0, "no PTStore faults during legitimate boot");
}

#[test]
fn baseline_kernel_never_touches_secure_channel() {
    let k = boot(KernelConfig::cfi());
    assert_eq!(k.bus.stats().secure_reads + k.bus.stats().secure_writes, 0);
}

#[test]
fn fork_wait_exit_lifecycle() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let child = k.sys_fork().expect("fork");
    assert_ne!(child, 1);
    // Switch to the child and have it exit; exit schedules back to init.
    k.do_switch_to(child).expect("switch to child");
    assert_eq!(k.current_pid(), child);
    k.sys_exit(42).expect("exit");
    assert_eq!(k.current_pid(), 1);
    let (reaped, code) = k.sys_wait().expect("wait");
    assert_eq!(reaped, child);
    assert_eq!(code, 42);
    assert!(k.procs.get(child).is_none(), "child fully reaped");
}

#[test]
fn a_childs_exit_leaves_the_parents_pipes_open() {
    // Forty pipes put the parent's descriptors at fds 3..=82.
    let mut k = boot(KernelConfig::cfi_ptstore());
    let pipes: Vec<(i32, i32)> = (0..40).map(|_| k.sys_pipe().expect("pipe")).collect();
    assert_eq!(pipes.last(), Some(&(81, 82)));
    let child = k.sys_fork().expect("fork");
    k.do_switch_to(child).expect("switch");
    k.sys_exit(0).expect("exit");
    k.sys_wait().expect("reap");
    for (r, w) in pipes {
        assert_eq!(k.sys_write(w, b"x"), Ok(1), "write end {w}");
        assert_eq!(k.sys_read(r, 1).as_deref(), Ok(&b"x"[..]), "read end {r}");
    }
}

#[test]
fn a_socket_outlives_a_forked_or_cloned_holder() {
    type Spawn = fn(&mut Kernel) -> Result<ptstore_kernel::Pid, KernelError>;
    for (what, spawn) in [
        ("fork", Kernel::sys_fork as Spawn),
        ("clone", Kernel::sys_clone_thread),
    ] {
        let mut k = boot(KernelConfig::cfi_ptstore());
        let fd = k.sys_accept(8).expect("accept");
        let child = spawn(&mut k).expect(what);
        k.do_switch_to(child).expect("switch");
        k.sys_exit(0).expect("exit");
        k.sys_wait().expect("reap");
        assert_eq!(k.sys_read(fd, 8).map(|d| d.len()), Ok(8), "after {what}");
    }
}

#[test]
fn fork_exit_cycle_leaks_nothing() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let free_before = k.pt_area_free_pages().unwrap();
    let normal_before = k.normal_free_pages();
    for _ in 0..50 {
        let child = k.sys_fork().expect("fork");
        k.do_switch_to(child).expect("switch");
        k.sys_exit(0).expect("exit");
        k.sys_wait().expect("wait");
    }
    assert_eq!(
        k.pt_area_free_pages().unwrap(),
        free_before,
        "secure pages all returned"
    );
    assert_eq!(
        k.normal_free_pages(),
        normal_before,
        "normal pages all returned"
    );
    assert_eq!(k.stats.forks, 50);
    assert_eq!(k.stats.exits, 50);
}

#[test]
fn cow_sharing_and_break() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    // Touch a heap page in init: demand map.
    k.sys_brk(ptstore_kernel::pagetable::USER_HEAP_BASE + PAGE_SIZE)
        .expect("brk");
    let heap_va = VirtAddr::new(ptstore_kernel::pagetable::USER_HEAP_BASE);
    k.sys_touch(heap_va, true).expect("demand map heap");
    let faults_before = k.stats.page_faults;

    let child = k.sys_fork().expect("fork");
    // Parent writes the shared heap page: CoW break.
    k.sys_touch(heap_va, true).expect("cow break");
    assert_eq!(k.stats.cow_faults, 1);
    assert!(k.stats.page_faults > faults_before);
    // Child's mapping is untouched and still read-only shared.
    k.do_switch_to(child).expect("switch");
    k.sys_touch(heap_va, false).expect("child reads fine");
}

#[test]
fn demand_paging_via_mmap() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let addr = k.sys_mmap(4 * PAGE_SIZE).expect("mmap");
    assert_eq!(addr.as_u64(), USER_MMAP_BASE);
    let faults_before = k.stats.demand_faults;
    for i in 0..4 {
        k.sys_touch(VirtAddr::new(addr.as_u64() + i * PAGE_SIZE), true)
            .expect("touch");
    }
    assert_eq!(k.stats.demand_faults, faults_before + 4);
    // Second touches hit the TLB / existing mappings: no new faults.
    for i in 0..4 {
        k.sys_touch(VirtAddr::new(addr.as_u64() + i * PAGE_SIZE), true)
            .expect("retouch");
    }
    assert_eq!(k.stats.demand_faults, faults_before + 4);
    k.sys_munmap(addr, 4 * PAGE_SIZE).expect("munmap");
    // After munmap the pages are gone; touching again demand-maps anew
    // only if a VMA still covers it — it does not.
    assert!(matches!(
        k.sys_touch(addr, true),
        Err(KernelError::SegFault)
    ));
}

#[test]
fn a_partial_munmap_trims_or_splits_its_vma() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let mapped = |k: &mut Kernel, pages: u64| {
        let base = k.sys_mmap(pages * PAGE_SIZE).expect("mmap");
        for i in 0..pages {
            k.sys_touch(base + i * PAGE_SIZE, true).expect("touch");
        }
        base
    };
    // The unmapped page must not demand-fault back in.
    let two = mapped(&mut k, 2);
    k.sys_munmap(two, PAGE_SIZE).expect("munmap the head");
    assert_eq!(k.sys_touch(two, true), Err(KernelError::SegFault));
    assert_eq!(k.sys_touch(two + PAGE_SIZE, true), Ok(()));

    let three = mapped(&mut k, 3);
    k.sys_munmap(three + PAGE_SIZE, PAGE_SIZE)
        .expect("munmap the middle");
    assert_eq!(
        k.sys_touch(three + PAGE_SIZE, true),
        Err(KernelError::SegFault)
    );
    assert_eq!(k.sys_touch(three, true), Ok(()));
    assert_eq!(k.sys_touch(three + 2 * PAGE_SIZE, true), Ok(()));
}

#[test]
fn secure_region_adjustment_triggers_and_grows() {
    let mut k = boot_small_region(MIB);
    let region0 = k.secure_region().unwrap();
    // Burn through the 1 MiB region with forks (each needs several PT pages).
    let mut children = Vec::new();
    for _ in 0..200 {
        children.push(k.sys_fork().expect("fork under adjustment"));
    }
    assert!(k.stats.adjustments > 0, "adjustment must have triggered");
    let region1 = k.secure_region().unwrap();
    assert!(region1.size() > region0.size());
    assert_eq!(region1.end(), region0.end(), "grows downward");
    // The PMP sees the same region the kernel does.
    assert_eq!(k.bus.secure_region(), Some(region1));
    // Everything still works: new PT pages in the grown range are usable.
    for c in children {
        k.do_switch_to(c).expect("switch");
        k.sys_exit(0).expect("exit");
    }
}

#[test]
fn adjustment_disabled_runs_out_of_memory() {
    let mut cfg = KernelConfig::cfi_ptstore_no_adjust()
        .with_mem_size(256 * MIB)
        .with_initial_secure_size(MIB);
    cfg.adjustment_enabled = false;
    let mut k = Kernel::boot(cfg).expect("boot");
    let mut result = Ok(0);
    for _ in 0..2000 {
        result = k.sys_fork();
        if result.is_err() {
            break;
        }
    }
    assert_eq!(result.unwrap_err(), KernelError::OutOfMemory);
}

#[test]
fn token_validation_passes_for_legitimate_switches() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let a = k.sys_fork().expect("fork");
    let b = k.sys_fork().expect("fork");
    for _ in 0..10 {
        k.do_switch_to(a).expect("switch a");
        k.do_switch_to(b).expect("switch b");
        k.do_switch_to(1).expect("switch init");
    }
    assert_eq!(k.stats.token_failures, 0);
    assert!(k.stats.token_validations >= 30);
}

#[test]
fn syscall_battery_behaves() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    // null
    assert_eq!(k.sys_null().expect("null"), 0);
    // open/read/close
    let fd = k.sys_open("/etc/passwd").expect("open");
    let data = k.sys_read(fd, 4).expect("read");
    assert_eq!(&data, b"root");
    k.sys_close(fd).expect("close");
    assert!(matches!(
        k.sys_open("/nonexistent"),
        Err(KernelError::NoSuchFile)
    ));
    // stat/fstat
    let st = k.sys_stat("/etc/passwd").expect("stat");
    assert_eq!(st.size, 30);
    // write to a file
    let fd = k.sys_open("/tmp/XXX").expect("open tmp");
    assert_eq!(k.sys_write(fd, b"hello").expect("write"), 5);
    k.sys_close(fd).expect("close");
    let ino = k.fs.lookup("/tmp/XXX").unwrap();
    assert_eq!(k.fs.read(ino, 0, 5).unwrap(), b"hello");
    // pipes
    let (r, w) = k.sys_pipe().expect("pipe");
    assert_eq!(k.sys_write(w, b"ping").expect("pipe write"), 4);
    assert_eq!(k.sys_read(r, 16).expect("pipe read"), b"ping");
    assert!(matches!(k.sys_read(r, 1), Err(KernelError::WouldBlock)));
    // signals
    k.sys_signal_install(10).expect("install");
    k.sys_signal_catch(10).expect("catch");
    assert_eq!(k.procs.get(1).unwrap().signals.caught, 1);
    // select
    assert_eq!(k.sys_select(10).expect("select"), 10);
    // sockets
    let sfd = k.sys_accept(128).expect("accept");
    assert_eq!(k.sys_recv(sfd, 128).expect("recv"), 128);
    assert_eq!(k.sys_send(sfd, 1024).expect("send"), 1024);
    k.sys_close(sfd).expect("close sock");
}

#[test]
fn exec_replaces_address_space() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let addr = k.sys_mmap(2 * PAGE_SIZE).expect("mmap");
    k.sys_touch(addr, true).expect("touch");
    let pages_before = k.procs.get(1).unwrap().aspace.user.len();
    assert!(pages_before >= 4); // text + 2 stack + mmap page
    k.sys_exec().expect("exec");
    let p = k.procs.get(1).unwrap();
    assert_eq!(p.aspace.user.len(), 3, "text + 2 stack only");
    assert!(p.vma_for(addr).is_none(), "mmap vma gone");
    // Text is mapped and executable again.
    k.sys_touch(VirtAddr::new(USER_TEXT_BASE), false)
        .expect("text readable");
}

#[test]
fn cfi_costs_are_visible() {
    let mut with = boot(KernelConfig::cfi());
    let mut without = boot(KernelConfig::baseline());
    for k in [&mut with, &mut without] {
        for _ in 0..100 {
            k.sys_null().expect("null");
        }
    }
    let cfi_cycles = with.cycles.of(ptstore_kernel::CostKind::CfiCheck);
    assert!(cfi_cycles > 0);
    assert_eq!(without.cycles.of(ptstore_kernel::CostKind::CfiCheck), 0);
    assert!(with.cycles.total() > without.cycles.total());
}

#[test]
fn user_read_write_round_trip() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let addr = k.sys_mmap(PAGE_SIZE).expect("mmap");
    k.user_write_u64(addr, 0xfeed_f00d).expect("write");
    assert_eq!(k.user_read_u64(addr).expect("read"), 0xfeed_f00d);
}

#[test]
fn touch_charges_tlb_misses() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let addr = k.sys_mmap(PAGE_SIZE).expect("mmap");
    k.sys_touch(addr, true).expect("fault in");
    let tlb_cycles = k.cycles.of(ptstore_kernel::CostKind::TlbMiss);
    assert!(tlb_cycles > 0, "walks charge TLB-miss cycles");
}

#[test]
fn secure_region_objects_are_physically_inside_region() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let region = k.secure_region().unwrap();
    // Every process root PT must be inside the region.
    let child = k.sys_fork().expect("fork");
    for pid in [1, child] {
        let root = k.process_root(pid).unwrap();
        assert!(
            region.contains(root.base_addr()),
            "pid {pid} root {root} inside secure region"
        );
    }
    // And a translated user access still works end to end.
    k.sys_touch(VirtAddr::new(USER_TEXT_BASE), false)
        .expect("PTW fetches from secure region succeed");
}

#[test]
fn page_fault_on_unmapped_address_is_segfault() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    assert!(matches!(
        k.sys_touch(VirtAddr::new(0x6000_0000), true),
        Err(KernelError::SegFault)
    ));
}

#[test]
fn threads_share_memory_with_copied_tokens() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    // Owner maps and stamps a page.
    let addr = k.sys_mmap(PAGE_SIZE).expect("mmap");
    k.user_write_u64(addr, 0xBEEF).expect("stamp");

    let t1 = k.sys_clone_thread().expect("clone");
    let t2 = k.sys_clone_thread().expect("clone");
    assert_ne!(t1, t2);

    // Each thread has its own PCB and its own token, but the same pt ptr.
    let owner_pt = k.pcb_pt_ptr_slot(1).unwrap();
    let t1_pt = k.pcb_pt_ptr_slot(t1).unwrap();
    let owner_root = k.mem_read_public(owner_pt).expect("read");
    let t1_root = k.mem_read_public(t1_pt).expect("read");
    assert_eq!(owner_root, t1_root, "shared page-table pointer");
    let owner_token = k
        .mem_read_public(k.pcb_token_slot(1).unwrap())
        .expect("read");
    let t1_token = k
        .mem_read_public(k.pcb_token_slot(t1).unwrap())
        .expect("read");
    assert_ne!(owner_token, t1_token, "distinct (copied) tokens");

    // Token validation passes when switching to threads (the copied token
    // binds the shared pt ptr to the thread's own PCB slot).
    k.do_switch_to(t1).expect("switch to t1");
    assert_eq!(k.stats.token_failures, 0);
    // The thread sees the owner's memory and can write it.
    assert_eq!(k.user_read_u64(addr).expect("read"), 0xBEEF);
    k.user_write_u64(addr, 0xCAFE).expect("write");
    // Visible from the other thread and the owner (no CoW between threads).
    k.do_switch_to(t2).expect("switch to t2");
    assert_eq!(k.user_read_u64(addr).expect("read"), 0xCAFE);
    k.do_switch_to(1).expect("switch to owner");
    assert_eq!(k.user_read_u64(addr).expect("read"), 0xCAFE);

    // Owner cannot exit while threads are alive.
    assert_eq!(k.sys_exit(0).unwrap_err(), KernelError::InvalidState);

    // Threads exit; their tokens are cleared, the mm survives.
    for t in [t1, t2] {
        k.do_switch_to(t).expect("switch");
        k.sys_exit(0).expect("thread exit");
    }
    k.do_switch_to(1).expect("switch owner");
    assert_eq!(k.user_read_u64(addr).expect("mm intact"), 0xCAFE);
    k.sys_wait().expect("reap t1");
    k.sys_wait().expect("reap t2");
    assert_eq!(k.stats.token_failures, 0);
}

#[test]
fn thread_token_is_not_transferable() {
    // A thread's copied token binds the shared pt pointer to THAT thread's
    // PCB: planting it in another PCB still fails validation.
    let mut k = boot(KernelConfig::cfi_ptstore());
    let t1 = k.sys_clone_thread().expect("clone");
    let victim = k.sys_fork().expect("fork victim");
    // Attacker copies the thread's pt_ptr AND token_ptr into the victim.
    let t1_pt = k
        .mem_read_public(k.pcb_pt_ptr_slot(t1).unwrap())
        .expect("read");
    let t1_token = k
        .mem_read_public(k.pcb_token_slot(t1).unwrap())
        .expect("read");
    let vic_pt_slot = k.pcb_pt_ptr_slot(victim).unwrap();
    let vic_token_slot = k.pcb_token_slot(victim).unwrap();
    let dm_pt = k.direct_map(vic_pt_slot);
    let dm_tok = k.direct_map(vic_token_slot);
    k.attacker_write_u64(dm_pt, t1_pt).expect("pcb writable");
    k.attacker_write_u64(dm_tok, t1_token)
        .expect("pcb writable");
    let err = k.do_switch_to(victim).unwrap_err();
    assert!(matches!(err, KernelError::TokenInvalid(_)));
    assert!(k.stats.token_failures >= 1);
}

#[test]
fn address_space_syscalls_from_a_thread_act_on_the_owners_mm() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let brk0 = k.procs.get(1).expect("init").brk;
    let page = k.sys_mmap(PAGE_SIZE).expect("mmap");
    k.user_write_u64(page, 0xBEEF).expect("stamp");
    let tid = k.sys_clone_thread().expect("clone");
    k.do_switch_to(tid).expect("switch to thread");

    // exec would map fresh text and stack over the owner's live leaves.
    assert_eq!(k.sys_exec(), Err(KernelError::InvalidState));
    // munmap and brk change the shared address space, not a thread copy.
    k.sys_munmap(page, PAGE_SIZE).expect("munmap");
    assert_eq!(k.user_read_u64(page), Err(KernelError::SegFault));
    k.sys_brk(brk0 + PAGE_SIZE).expect("brk");
    let heap = VirtAddr::new(brk0);
    k.user_write_u64(heap, 7).expect("grown heap faults in");

    k.do_switch_to(1).expect("switch to owner");
    assert_eq!(k.user_read_u64(page), Err(KernelError::SegFault));
    assert_eq!(k.user_read_u64(heap), Ok(7));
}

#[test]
fn mprotect_downgrades_and_restores() {
    use ptstore_kernel::process::VmPerms;
    let mut k = boot(KernelConfig::cfi_ptstore());
    let addr = k.sys_mmap(2 * PAGE_SIZE).expect("mmap");
    k.sys_touch(addr, true).expect("fault in rw");
    k.user_write_u64(addr, 7).expect("writable");

    // Downgrade to read-only: writes now fault as protection violations.
    k.sys_mprotect(addr, 2 * PAGE_SIZE, VmPerms::RO)
        .expect("mprotect ro");
    assert_eq!(k.user_read_u64(addr).expect("still readable"), 7);
    assert!(matches!(
        k.sys_touch(addr, true),
        Err(KernelError::SegFault)
    ));

    // Restore RW: writes work again (fresh PTE via the defense channel).
    k.sys_mprotect(addr, 2 * PAGE_SIZE, VmPerms::RW)
        .expect("mprotect rw");
    k.user_write_u64(addr, 9).expect("writable again");
    assert_eq!(k.user_read_u64(addr).expect("read"), 9);
}

#[test]
fn mprotect_inner_range_splits_vma() {
    use ptstore_kernel::process::VmPerms;
    let mut k = boot(KernelConfig::cfi_ptstore());
    let addr = k.sys_mmap(4 * PAGE_SIZE).expect("mmap");
    for i in 0..4 {
        k.sys_touch(VirtAddr::new(addr.as_u64() + i * PAGE_SIZE), true)
            .expect("touch");
    }
    // Protect only the middle two pages.
    let mid = VirtAddr::new(addr.as_u64() + PAGE_SIZE);
    k.sys_mprotect(mid, 2 * PAGE_SIZE, VmPerms::RO)
        .expect("mprotect");
    // Outer pages stay writable, inner pages do not.
    k.sys_touch(addr, true).expect("first page rw");
    k.sys_touch(VirtAddr::new(addr.as_u64() + 3 * PAGE_SIZE), true)
        .expect("last page rw");
    assert!(matches!(k.sys_touch(mid, true), Err(KernelError::SegFault)));
    assert!(matches!(
        k.sys_touch(VirtAddr::new(addr.as_u64() + 2 * PAGE_SIZE), true),
        Err(KernelError::SegFault)
    ));
    // VMA count grew by the split.
    let p = k.procs.get(1).unwrap();
    assert!(
        p.vmas.len() >= 5,
        "split produced extra vmas: {}",
        p.vmas.len()
    );
}

#[test]
fn mmap_churn_recycles_va_space() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    // Far more map/unmap cycles than the mmap window could hold without
    // recycling (window ~1 GiB; 20k × 16 MiB = 320 GiB of cumulative VA).
    for _ in 0..20_000 {
        let a = k.sys_mmap(4096 * PAGE_SIZE).expect("mmap keeps working");
        k.sys_munmap(a, 4096 * PAGE_SIZE).expect("munmap");
    }
    // And mapping while fragmented still works.
    let pinned = k.sys_mmap(PAGE_SIZE).expect("pin");
    for _ in 0..1_000 {
        let a = k.sys_mmap(64 * PAGE_SIZE).expect("mmap");
        k.sys_munmap(a, 64 * PAGE_SIZE).expect("munmap");
    }
    k.sys_touch(pinned, true).expect("pinned region intact");
}

#[test]
fn hostile_lengths_are_errors_not_panics() {
    use ptstore_kernel::process::VmPerms;
    let mut k = boot(KernelConfig::cfi_ptstore());
    let va = k.sys_mmap(2 * PAGE_SIZE).unwrap();
    k.sys_touch(va, true).unwrap();
    let sink = TraceSink::new();
    k.set_trace_sink(Some(sink.clone()));
    // Lengths whose page rounding or range end overflows 64 bits.
    assert_eq!(k.sys_mmap(u64::MAX), Err(KernelError::OutOfMemory));
    assert_eq!(k.sys_mmap_huge(u64::MAX), Err(KernelError::OutOfMemory));
    assert_eq!(k.sys_munmap(va, u64::MAX), Err(KernelError::BadAddress));
    assert_eq!(
        k.sys_munmap(VirtAddr::new(u64::MAX - 4095), 8192),
        Err(KernelError::BadAddress)
    );
    assert_eq!(
        k.sys_mprotect(va, u64::MAX, VmPerms::RW),
        Err(KernelError::BadAddress)
    );
    // Every call left through the syscall exit path.
    let events = sink.events();
    let count = |f: fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
    assert_eq!(count(|e| matches!(e, TraceEvent::SyscallEnter { .. })), 5);
    assert_eq!(count(|e| matches!(e, TraceEvent::SyscallExit { .. })), 5);
    // The refused calls changed nothing: the mapping is intact.
    k.sys_touch(va + PAGE_SIZE, true).unwrap();
    k.sys_munmap(va, 2 * PAGE_SIZE).unwrap();
}

#[test]
fn a_failed_huge_mmap_leaves_nothing_behind() {
    // 64 MiB of RAM holds fewer than the 32 blocks asked for.
    let mut k = Kernel::boot(
        KernelConfig::cfi_ptstore()
            .with_mem_size(64 * MIB)
            .with_initial_secure_size(4 * MIB),
    )
    .expect("kernel boots");
    let pid = k.current_pid();
    let state = |k: &Kernel| {
        let p = k.procs.get(pid).expect("init");
        let shadow = p.aspace.user.clone();
        (k.normal_free_pages(), p.vmas.clone(), p.mmap_cursor, shadow)
    };
    let before = state(&k);
    assert_eq!(k.sys_mmap_huge(64 * MIB), Err(KernelError::OutOfMemory));
    assert_eq!(state(&k), before);
    k.sys_mmap_huge(2 * MIB).expect("one block still fits");
}

#[test]
fn a_corrupted_table_above_a_huge_leaf_is_a_bad_address() {
    use ptstore_mmu::PteFlags;
    // With the S-bit check ablated, a regular store reaches page tables.
    let mut cfg = KernelConfig::cfi_ptstore();
    cfg.pmp_s_bit_check = false;
    let mut k = boot(cfg);
    let pid = k.current_pid();
    let va = k.sys_mmap_huge(2 * MIB).expect("mmap_huge");
    assert_eq!(k.leaf_pte_phys_addr(pid, va).expect("leaf").1, 1);
    // Under Sv39 the root is the level-2 table above the block's leaf.
    let root = k.process_root(pid).expect("root");
    let slot = root.base_addr() + va.vpn_slice(2) * 8;
    let leafy = k.read_pte_raw(slot).expect("read") | u64::from(PteFlags::R | PteFlags::W);
    k.attacker_write_u64(k.direct_map(slot), leafy)
        .expect("the ablated PMP lets the store land");
    assert_eq!(k.sys_munmap(va, 2 * MIB), Err(KernelError::BadAddress));
    // No store went to the slot the shadow entry does not describe.
    assert_eq!(k.read_pte_raw(slot), Ok(leafy));
    let p = k.procs.get(pid).expect("init");
    assert!(p.aspace.user[&(va.as_u64() >> 12)].huge);
}

/// Fills the process table to `PROC_TABLE_CAPACITY` live entries with
/// never-scheduled processes at pids no fork will reach.
fn fill_process_table(k: &mut Kernel) {
    use std::collections::VecDeque;

    use ptstore_core::PhysAddr;
    use ptstore_kernel::pagetable::AddressSpace;
    use ptstore_kernel::process::{FdTable, Process, SignalTable, PROC_TABLE_CAPACITY};
    use ptstore_kernel::ProcState;

    let first = 1_000_000;
    for pid in first..first + (PROC_TABLE_CAPACITY - k.procs.len()) as u32 {
        let filler = Process {
            pid,
            parent: None,
            state: ProcState::Blocked,
            pcb_addr: PhysAddr::new(0),
            aspace: AddressSpace::default(),
            vmas: Vec::new(),
            brk: 0,
            mmap_cursor: 0,
            fds: FdTable::default(),
            signals: SignalTable::default(),
            exit_code: 0,
            children: VecDeque::new(),
            mm_owner: None,
            threads: Vec::new(),
        };
        assert!(k.procs.insert(filler).is_ok(), "pid {pid} fits");
    }
    assert_eq!(k.procs.len(), PROC_TABLE_CAPACITY);
}

/// What a refused fork or clone must leave as it was: the PTStore zone's
/// free pages, the normal zone's, and the slab caches' occupancy.
fn allocator_state(k: &Kernel) -> (Option<u64>, u64, Vec<u64>) {
    (
        k.pt_area_free_pages(),
        k.normal_free_pages(),
        k.slab_canon_words(),
    )
}

#[test]
fn a_fork_the_full_table_refuses_allocates_nothing() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    fill_process_table(&mut k);
    let before = allocator_state(&k);
    assert_eq!(k.sys_fork(), Err(KernelError::ProcessTableFull));
    assert_eq!(allocator_state(&k), before, "no root table, no PCB");
}

#[test]
fn a_thread_clone_the_full_table_refuses_allocates_nothing() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    fill_process_table(&mut k);
    let before = allocator_state(&k);
    assert_eq!(k.sys_clone_thread(), Err(KernelError::ProcessTableFull));
    assert_eq!(allocator_state(&k), before, "no PCB");
}

/// Opens `/tmp/XXX` (1 KiB of zeros) and writes `hi` at its start.
fn open_scratch_file(k: &mut Kernel) -> i32 {
    let fd = k.sys_open("/tmp/XXX").expect("open");
    assert_eq!(k.sys_write(fd, b"hi"), Ok(2));
    fd
}

/// The file still holds 1 KiB starting `hi`, and the fd's offset is still
/// 2: the next write lands right after `hi`.
fn assert_scratch_file_unchanged(k: &mut Kernel, fd: i32) {
    let ino = k.fs.lookup("/tmp/XXX").expect("the file exists");
    assert_eq!(k.fs.stat(ino).map(|s| s.size), Some(1024));
    assert_eq!(k.sys_write(fd, b"!"), Ok(1));
    assert_eq!(k.fs.read(ino, 0, 4), Some(&b"hi!\0"[..]));
}

#[test]
fn a_huge_discarded_write_to_a_file_is_refused() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let fd = open_scratch_file(&mut k);
    assert_eq!(
        k.sys_write_discard(fd, u64::MAX),
        Err(KernelError::OutOfMemory)
    );
    assert_scratch_file_unchanged(&mut k, fd);
}

#[test]
fn a_huge_send_to_a_file_is_refused() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let fd = open_scratch_file(&mut k);
    assert_eq!(k.sys_send(fd, u64::MAX), Err(KernelError::OutOfMemory));
    assert_scratch_file_unchanged(&mut k, fd);
}

#[test]
fn a_huge_discarded_write_to_the_console_is_clamped() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let mut twin = k.clone();
    // Sixteen unclamped writes would charge 2^65 cycles.
    for _ in 0..16 {
        assert_eq!(k.sys_write_discard(1, u64::MAX), Ok(MAX_RW_COUNT));
        assert_eq!(twin.sys_write_discard(1, MAX_RW_COUNT), Ok(MAX_RW_COUNT));
    }
    assert_eq!(k.cycles, twin.cycles);
}

#[test]
fn a_huge_send_on_a_socket_is_clamped() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let fd = k.sys_accept(0).expect("accept");
    let mut twin = k.clone();
    for _ in 0..2 {
        assert_eq!(k.sys_send(fd, u64::MAX), Ok(MAX_RW_COUNT));
        assert_eq!(twin.sys_send(fd, MAX_RW_COUNT), Ok(MAX_RW_COUNT));
    }
    assert_eq!(k.cycles, twin.cycles);
}

#[test]
fn a_huge_recv_is_charged_as_a_clamped_one() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let fd = k.sys_accept(100).expect("accept");
    let mut twin = k.clone();
    assert_eq!(k.sys_recv(fd, u64::MAX), Ok(100));
    assert_eq!(twin.sys_recv(fd, MAX_RW_COUNT), Ok(100));
    assert_eq!(k.cycles, twin.cycles);
}

#[test]
fn a_huge_discarded_read_from_a_socket_is_clamped() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let fd = k.sys_accept(u64::MAX).expect("accept");
    let mut twin = k.clone();
    assert_eq!(k.sys_read_discard(fd, u64::MAX), Ok(MAX_RW_COUNT));
    assert_eq!(twin.sys_read_discard(fd, MAX_RW_COUNT), Ok(MAX_RW_COUNT));
    assert_eq!(k.cycles, twin.cycles);
}

#[test]
fn a_huge_read_from_a_file_returns_the_rest() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let fd = k.sys_open("/etc/passwd").expect("open");
    assert_eq!(k.sys_read(fd, 1), Ok(b"r".to_vec()));
    assert_eq!(
        k.sys_read(fd, u64::MAX),
        Ok(b"oot:x:0:0:root:/root:/bin/sh\n".to_vec())
    );
    assert_eq!(k.sys_read(fd, u64::MAX), Ok(Vec::new()), "at the end");
}

#[test]
fn a_huge_select_is_charged_as_a_clamped_one() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let mut twin = k.clone();
    assert_eq!(k.sys_select(u64::MAX), Ok(FD_SETSIZE));
    assert_eq!(twin.sys_select(FD_SETSIZE), Ok(FD_SETSIZE));
    assert_eq!(k.cycles, twin.cycles);
}

#[test]
fn unmapping_the_whole_user_range_costs_the_leaves_not_the_length() {
    let mut k = boot(KernelConfig::cfi_ptstore());
    let small = k.sys_mmap(4 * PAGE_SIZE).expect("mmap");
    k.sys_touch(small, true).expect("touch");
    let huge = k.sys_mmap_huge(2 * MIB).expect("mmap_huge");
    k.sys_touch(huge, true).expect("touch");
    // Everything from the first page to the top of the user half: 2^26
    // pages under Sv39.
    let user_top = 1 << (k.cfg().scheme.va_bits() - 1);
    let start = std::time::Instant::now();
    assert_eq!(
        k.sys_munmap(VirtAddr::new(0x1000), user_top - 0x1000),
        Ok(())
    );
    assert!(start.elapsed() < std::time::Duration::from_secs(1));
    let p = k.procs.get(k.current_pid()).expect("init");
    assert!(p.aspace.user.is_empty(), "no user leaf is left");
}

/// One length- or count-taking syscall, made with a hostile argument.
type HostileRow = (
    &'static str,
    fn(&mut Kernel, u64) -> Result<(), KernelError>,
);

/// One VM syscall on a range Linux checks at entry, given the address of a
/// resident mapping, and the result it must return.
type VmRangeRow = (
    &'static str,
    fn(&mut Kernel, VirtAddr) -> Result<(), KernelError>,
    Result<(), KernelError>,
);

/// Every length- or count-taking syscall, on a fresh 64 MiB machine, with
/// zero, one, one page, 2^63 (a non-canonical address) and values near
/// `u64::MAX`: each returns `Ok` or a `KernelError`, never panics or spins,
/// and the machine still serves a syscall afterwards.
#[test]
fn hostile_arguments_return_ok_or_an_error() {
    use std::panic::AssertUnwindSafe;

    use ptstore_kernel::process::VmPerms;

    let rows: [HostileRow; 17] = [
        ("read", |k, n| {
            let fd = k.sys_open("/etc/passwd")?;
            k.sys_read(fd, n).map(drop)
        }),
        ("read_discard", |k, n| {
            let fd = k.sys_accept(n)?;
            k.sys_read_discard(fd, n).map(drop)
        }),
        ("write_discard console", |k, n| {
            k.sys_write_discard(1, n).map(drop)
        }),
        ("write_discard file", |k, n| {
            let fd = k.sys_open("/tmp/XXX")?;
            k.sys_write_discard(fd, n).map(drop)
        }),
        ("send", |k, n| {
            let fd = k.sys_accept(0)?;
            k.sys_send(fd, n).map(drop)
        }),
        ("recv", |k, n| {
            let fd = k.sys_accept(n)?;
            k.sys_recv(fd, n).map(drop)
        }),
        ("select", |k, n| k.sys_select(n).map(drop)),
        ("mmap", |k, n| k.sys_mmap(n).map(drop)),
        ("mmap_huge", |k, n| k.sys_mmap_huge(n).map(drop)),
        ("munmap length", |k, n| {
            k.sys_munmap(VirtAddr::new(0x1000), n)
        }),
        ("munmap address", |k, n| {
            k.sys_munmap(VirtAddr::new(n), PAGE_SIZE)
        }),
        ("mprotect length", |k, n| {
            k.sys_mprotect(VirtAddr::new(0x1000), n, VmPerms::RW)
        }),
        ("mprotect address", |k, n| {
            k.sys_mprotect(VirtAddr::new(n), PAGE_SIZE, VmPerms::RW)
        }),
        ("brk", |k, n| k.sys_brk(n).map(drop)),
        ("signal_install", |k, n| k.sys_signal_install(n as usize)),
        ("signal_catch", |k, n| k.sys_signal_catch(n as usize)),
        ("touch", |k, n| k.sys_touch(VirtAddr::new(n), true)),
    ];
    let values = [0, 1, PAGE_SIZE, 1 << 63, u64::MAX - 0x2000, u64::MAX];
    let fresh = Kernel::boot(
        KernelConfig::cfi_ptstore()
            .with_mem_size(64 * MIB)
            .with_initial_secure_size(MIB),
    )
    .expect("kernel boots");
    for (name, call) in rows {
        for n in values {
            let mut k = fresh.clone();
            let returned = std::panic::catch_unwind(AssertUnwindSafe(|| call(&mut k, n)));
            assert!(returned.is_ok(), "{name}({n:#x}) panicked");
            assert_eq!(k.sys_null(), Ok(0), "{name}({n:#x}) left a broken machine");
        }
    }

    // The VM syscalls check their range at entry, as Linux does: an empty
    // mmap or munmap, an unaligned start, or a range ending above the user
    // half is refused, and an empty mprotect succeeds; either way no VMA
    // and no mapping moves.
    use KernelError::BadAddress;
    let vm_rows: [VmRangeRow; 9] = [
        ("mmap(0)", |k, _| k.sys_mmap(0).map(drop), Err(BadAddress)),
        (
            "mmap_huge(0)",
            |k, _| k.sys_mmap_huge(0).map(drop),
            Err(BadAddress),
        ),
        ("munmap(a, 0)", |k, a| k.sys_munmap(a, 0), Err(BadAddress)),
        (
            "munmap(text + 1, 4 KiB)",
            |k, _| k.sys_munmap(VirtAddr::new(USER_TEXT_BASE + 1), PAGE_SIZE),
            Err(BadAddress),
        ),
        (
            "munmap(a + 1, 4 KiB)",
            |k, a| k.sys_munmap(a + 1, PAGE_SIZE),
            Err(BadAddress),
        ),
        (
            "munmap(2^63, 4 KiB)",
            |k, _| k.sys_munmap(VirtAddr::new(1 << 63), PAGE_SIZE),
            Err(BadAddress),
        ),
        (
            "munmap(a, past the user half)",
            |k, a| k.sys_munmap(a, 1 << 62),
            Err(BadAddress),
        ),
        (
            "mprotect(a + 1, 4 KiB)",
            |k, a| k.sys_mprotect(a + 1, PAGE_SIZE, VmPerms::RO),
            Err(BadAddress),
        ),
        (
            "mprotect(a + 8 KiB, 0)",
            |k, a| k.sys_mprotect(a + 2 * PAGE_SIZE, 0, VmPerms::RO),
            Ok(()),
        ),
    ];
    let mut mapped = fresh.clone();
    let a = mapped.sys_mmap(4 * PAGE_SIZE).expect("mmap");
    for page in 0..4 {
        mapped.sys_touch(a + page * PAGE_SIZE, true).expect("touch");
    }
    let layout = |k: &Kernel| {
        let p = k.procs.get(k.current_pid()).expect("init");
        (p.vmas.clone(), p.aspace.user.clone())
    };
    for (name, call, expected) in vm_rows {
        let mut k = mapped.clone();
        let before = layout(&k);
        assert_eq!(call(&mut k, a), expected, "{name}");
        assert_eq!(layout(&k), before, "{name} moved a VMA or a mapping");
    }
}
