//! The syscall layer: dispatch costs, Clang-CFI indirect-call accounting,
//! and the syscalls the LMBench/NGINX/Redis workloads exercise.
//!
//! Each syscall carries a profile: a base kernel-work cost plus the number of
//! indirect calls on its hot path. When the kernel is built with Clang CFI
//! (the paper's threat-model prerequisite), every indirect call pays a check
//! — that is the `CFI` series of Figures 4–7.

use ptstore_core::{AccessKind, VirtAddr, MIB, PAGE_SHIFT, PAGE_SIZE};
use ptstore_mmu::PteFlags;

use crate::cycles::{cost, CostKind};
use crate::error::KernelError;
use crate::fs::FileStat;
use crate::kernel::{Kernel, Socket};
use crate::pagetable::{leaf_pages, UserMapping, HUGE_PAGE_SPAN};
use crate::process::{FdEntry, Pid, SigAction, VmArea, VmPerms};

/// The most bytes one `read`, `write`, `send` or `recv` moves: Linux's
/// `MAX_RW_COUNT`, `INT_MAX` rounded down to a page. As Linux's
/// `rw_verify_area` does, the length-taking calls clamp a longer count to
/// it at entry and report the clamped count, so a hostile length can
/// neither overflow the cycle counters nor a socket's byte count.
pub const MAX_RW_COUNT: u64 = 0x7fff_f000;

/// The most descriptors one `fd_set` names. As Linux's `core_sys_select`
/// does, `select` clamps a larger `nfds` to it at entry and reports the
/// clamped count, so a hostile count cannot overflow the cycle charge.
pub const FD_SETSIZE: u64 = 1024;

/// Static per-syscall cost profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallProfile {
    /// Syscall name as it appears in trace events.
    pub name: &'static str,
    /// Fixed kernel-path work (cycles) beyond entry/exit.
    pub base_cycles: u64,
    /// Indirect calls on the hot path (CFI-checked when CFI is on).
    pub indirect_calls: u64,
}

/// Profiles roughly shaped after Linux hot paths: VFS-heavy calls make more
/// indirect calls (file_operations dispatch), process-management calls make
/// many (security hooks, scheduler class methods).
pub mod profile {
    use super::SyscallProfile;

    /// `getppid` — LMBench's "null" syscall.
    pub const NULL: SyscallProfile = SyscallProfile {
        name: "getppid",
        base_cycles: 30,
        indirect_calls: 1,
    };
    /// `read` from /dev/zero (LMBench read).
    pub const READ: SyscallProfile = SyscallProfile {
        name: "read",
        base_cycles: 180,
        indirect_calls: 8,
    };
    /// `write` to /dev/null-ish console (LMBench write).
    pub const WRITE: SyscallProfile = SyscallProfile {
        name: "write",
        base_cycles: 170,
        indirect_calls: 8,
    };
    /// `stat`.
    pub const STAT: SyscallProfile = SyscallProfile {
        name: "stat",
        base_cycles: 420,
        indirect_calls: 6,
    };
    /// `fstat`.
    pub const FSTAT: SyscallProfile = SyscallProfile {
        name: "fstat",
        base_cycles: 230,
        indirect_calls: 4,
    };
    /// `open`+`close`.
    pub const OPEN_CLOSE: SyscallProfile = SyscallProfile {
        name: "open/close",
        base_cycles: 700,
        indirect_calls: 14,
    };
    /// `select` on 10 fds.
    pub const SELECT_10: SyscallProfile = SyscallProfile {
        name: "select",
        base_cycles: 520,
        indirect_calls: 18,
    };
    /// Signal handler installation.
    pub const SIG_INSTALL: SyscallProfile = SyscallProfile {
        name: "sigaction",
        base_cycles: 190,
        indirect_calls: 3,
    };
    /// Signal delivery/catch.
    pub const SIG_CATCH: SyscallProfile = SyscallProfile {
        name: "sigcatch",
        base_cycles: 680,
        indirect_calls: 5,
    };
    /// `pipe` round trip.
    pub const PIPE: SyscallProfile = SyscallProfile {
        name: "pipe",
        base_cycles: 520,
        indirect_calls: 6,
    };
    /// `fork`(+exit+wait measured by the driver).
    pub const FORK: SyscallProfile = SyscallProfile {
        name: "fork",
        base_cycles: 0,
        indirect_calls: 29,
    };
    /// `execve`.
    pub const EXEC: SyscallProfile = SyscallProfile {
        name: "execve",
        base_cycles: 0,
        indirect_calls: 28,
    };
    /// `exit`.
    pub const EXIT: SyscallProfile = SyscallProfile {
        name: "exit",
        base_cycles: 0,
        indirect_calls: 14,
    };
    /// `wait`.
    pub const WAIT: SyscallProfile = SyscallProfile {
        name: "wait",
        base_cycles: 240,
        indirect_calls: 6,
    };
    /// `mmap`/`munmap`.
    pub const MMAP: SyscallProfile = SyscallProfile {
        name: "mmap",
        base_cycles: 480,
        indirect_calls: 7,
    };
    /// `brk`.
    pub const BRK: SyscallProfile = SyscallProfile {
        name: "brk",
        base_cycles: 260,
        indirect_calls: 4,
    };
    /// `sched_yield` (context-switch driver).
    pub const YIELD: SyscallProfile = SyscallProfile {
        name: "sched_yield",
        base_cycles: 120,
        indirect_calls: 6,
    };
    /// Socket accept (NGINX/Redis model).
    pub const ACCEPT: SyscallProfile = SyscallProfile {
        name: "accept",
        base_cycles: 900,
        indirect_calls: 22,
    };
    /// Socket recv.
    pub const RECV: SyscallProfile = SyscallProfile {
        name: "recv",
        base_cycles: 420,
        indirect_calls: 16,
    };
    /// Socket send.
    pub const SEND: SyscallProfile = SyscallProfile {
        name: "send",
        base_cycles: 460,
        indirect_calls: 18,
    };
}

impl Kernel {
    /// Common syscall entry: trap cost + CFI checks for the path's indirect
    /// calls.
    pub(crate) fn syscall_enter(&mut self, p: SyscallProfile) {
        self.stats.syscalls += 1;
        if let Some(sink) = self.trace.get() {
            sink.emit(ptstore_trace::TraceEvent::SyscallEnter { name: p.name });
            self.syscall_mark = Some((p.name, self.cycles.total()));
        }
        self.charge(CostKind::Kernel, cost::SYSCALL_ENTRY + p.base_cycles);
        self.charge_indirect_calls(p.indirect_calls);
    }

    /// Common syscall exit.
    pub(crate) fn syscall_exit(&mut self) {
        self.charge(CostKind::Kernel, cost::SYSCALL_EXIT);
        if let Some((name, entry_total)) = self.syscall_mark.take() {
            if let Some(sink) = self.trace.get() {
                sink.emit(ptstore_trace::TraceEvent::SyscallExit {
                    name,
                    cycles: self.cycles.since(entry_total),
                });
            }
        }
    }

    /// Charges CFI checks when the kernel is CFI-instrumented.
    pub(crate) fn charge_indirect_calls(&mut self, n: u64) {
        if self.cfg.cfi {
            self.charge(CostKind::CfiCheck, n * cost::CFI_CHECK);
        }
    }

    /// Charges the user↔kernel copy cost for `bytes`.
    fn charge_copy(&mut self, bytes: u64) {
        self.charge(CostKind::MemAccess, bytes.div_ceil(8) * cost::COPY_BYTE_X8);
    }

    // ------------------------------------------------------------------
    // Trivial syscalls
    // ------------------------------------------------------------------

    /// `getppid` — the LMBench null syscall.
    pub fn sys_null(&mut self) -> Result<Pid, KernelError> {
        self.syscall_enter(profile::NULL);
        let r = self.procs.live(self.current_pid())?.parent.unwrap_or(0);
        self.syscall_exit();
        Ok(r)
    }

    // ------------------------------------------------------------------
    // Files
    // ------------------------------------------------------------------

    /// `open()`.
    pub fn sys_open(&mut self, name: &str) -> Result<i32, KernelError> {
        self.syscall_enter(profile::OPEN_CLOSE);
        let exists = self.fs.exists(name);
        let r = if exists {
            let p = self.procs.live_mut(self.current_pid())?;
            Ok(p.fds.insert(FdEntry::File {
                name: name.to_string(),
                offset: 0,
            }))
        } else {
            Err(KernelError::NoSuchFile)
        };
        self.syscall_exit();
        r
    }

    /// `close()`.
    pub fn sys_close(&mut self, fd: i32) -> Result<(), KernelError> {
        self.syscall_enter(profile::OPEN_CLOSE);
        let entry = {
            let p = self.procs.live_mut(self.current_pid())?;
            p.fds.remove(fd).ok_or(KernelError::BadFd)
        };
        let r = entry.map(|e| self.release_fd_entry(&e));
        self.syscall_exit();
        r
    }

    /// `read()` — files, pipes, and sockets.
    pub fn sys_read(&mut self, fd: i32, len: u64) -> Result<Vec<u8>, KernelError> {
        let len = len.min(MAX_RW_COUNT);
        self.syscall_enter(profile::READ);
        let mut data = Vec::new();
        let r = self.do_read(fd, len, &mut data);
        if let Ok(n) = r {
            self.charge_copy(n);
        }
        self.syscall_exit();
        r.map(|_| data)
    }

    /// `read()` for callers that discard the data: identical charges, fd
    /// bookkeeping, and result length as [`Self::sys_read`], without
    /// materializing the buffer on the host. The macro-workload drivers
    /// (nginx's sendfile loop, redis payloads) use this.
    pub fn sys_read_discard(&mut self, fd: i32, len: u64) -> Result<u64, KernelError> {
        let len = len.min(MAX_RW_COUNT);
        self.syscall_enter(profile::READ);
        let r = self.do_read(fd, len, &mut Discard);
        if let Ok(n) = r {
            self.charge_copy(n);
        }
        self.syscall_exit();
        r
    }

    /// The body of every read: takes up to `len` bytes from `fd` into `out`
    /// and returns how many it took. `out` is the caller's buffer, or
    /// [`Discard`] for the callers that only count.
    fn do_read(
        &mut self,
        fd: i32,
        len: u64,
        out: &mut impl Extend<u8>,
    ) -> Result<u64, KernelError> {
        let entry = {
            let p = self.procs.live(self.current_pid())?;
            p.fds.get(fd).cloned().ok_or(KernelError::BadFd)?
        };
        match entry {
            FdEntry::File { name, offset } => {
                let data = self
                    .fs
                    .read(&name, offset, len)
                    .ok_or(KernelError::NoSuchFile)?;
                let n = data.len() as u64;
                out.extend(data.iter().copied());
                let p = self.procs.live_mut(self.current_pid())?;
                if let Some(FdEntry::File { offset, .. }) = p.fds.get_mut(fd) {
                    *offset += n;
                }
                Ok(n)
            }
            FdEntry::PipeRead { id } => {
                let pipe = self.pipes.get_mut(id).ok_or(KernelError::BadFd)?;
                if pipe.is_empty() && !pipe.at_eof() {
                    return Err(KernelError::WouldBlock);
                }
                let taken = pipe.read(len as usize);
                let n = taken.len() as u64;
                out.extend(taken);
                Ok(n)
            }
            FdEntry::Socket { id } => {
                let s = self.sockets.get_mut(&id).ok_or(KernelError::BadFd)?;
                let n = s.rx.min(len);
                s.rx -= n;
                out.extend(std::iter::repeat_n(0, n as usize));
                Ok(n)
            }
            FdEntry::Console => Ok(0),
            FdEntry::PipeWrite { .. } => Err(KernelError::BadFd),
        }
    }

    /// `write()`.
    pub fn sys_write(&mut self, fd: i32, data: &[u8]) -> Result<u64, KernelError> {
        self.syscall_enter(profile::WRITE);
        self.charge_copy(data.len() as u64);
        let r = self.do_write(fd, data.iter().copied());
        self.syscall_exit();
        r
    }

    /// The body of every write: writes `data` to `fd` and returns how many
    /// bytes it took. `data` is the caller's buffer, or zeros for the
    /// callers that only count: those are never materialized, except into
    /// a regular file, whose contents stay observable (`regression` diffs
    /// them).
    fn do_write(
        &mut self,
        fd: i32,
        data: impl ExactSizeIterator<Item = u8>,
    ) -> Result<u64, KernelError> {
        let len = data.len() as u64;
        let entry = {
            let p = self.procs.live(self.current_pid())?;
            p.fds.get(fd).cloned().ok_or(KernelError::BadFd)?
        };
        match entry {
            FdEntry::File { name, offset } => {
                self.fs.write(&name, offset, data)?;
                let p = self.procs.live_mut(self.current_pid())?;
                if let Some(FdEntry::File { offset, .. }) = p.fds.get_mut(fd) {
                    *offset += len;
                }
                Ok(len)
            }
            FdEntry::PipeWrite { id } => {
                let pipe = self.pipes.get_mut(id).ok_or(KernelError::BadFd)?;
                match pipe.write(data) {
                    0 => Err(KernelError::WouldBlock),
                    n => Ok(n as u64),
                }
            }
            FdEntry::Socket { id } => {
                let s = self.sockets.get_mut(&id).ok_or(KernelError::BadFd)?;
                s.tx = s.tx.saturating_add(len);
                self.charge(CostKind::Io, len / 16);
                Ok(len)
            }
            FdEntry::Console => {
                self.charge(CostKind::Io, 200);
                Ok(len)
            }
            FdEntry::PipeRead { .. } => Err(KernelError::BadFd),
        }
    }

    /// `stat()`.
    pub fn sys_stat(&mut self, name: &str) -> Result<FileStat, KernelError> {
        self.syscall_enter(profile::STAT);
        let r = self.fs.stat(name).ok_or(KernelError::NoSuchFile);
        self.syscall_exit();
        r
    }

    /// `fstat()`.
    pub fn sys_fstat(&mut self, fd: i32) -> Result<FileStat, KernelError> {
        self.syscall_enter(profile::FSTAT);
        let r = {
            let p = self.procs.live(self.current_pid())?;
            match p.fds.get(fd) {
                Some(FdEntry::File { name, .. }) => {
                    let name = name.clone();
                    self.fs.stat(&name).ok_or(KernelError::NoSuchFile)
                }
                Some(_) => Ok(FileStat {
                    size: 0,
                    mode: 0o600,
                    ino: 0,
                }),
                None => Err(KernelError::BadFd),
            }
        };
        self.syscall_exit();
        r
    }

    /// `select()` over `nfds` descriptors (latency scales mildly with n).
    pub fn sys_select(&mut self, nfds: u64) -> Result<u64, KernelError> {
        let nfds = nfds.min(FD_SETSIZE);
        self.syscall_enter(profile::SELECT_10);
        self.charge(CostKind::Kernel, 14 * nfds);
        self.charge_indirect_calls(nfds / 4);
        self.syscall_exit();
        Ok(nfds)
    }

    /// `pipe()` — returns (read fd, write fd).
    pub fn sys_pipe(&mut self) -> Result<(i32, i32), KernelError> {
        self.syscall_enter(profile::PIPE);
        let id = self.pipes.create();
        let p = self.procs.live_mut(self.current_pid())?;
        let r = p.fds.insert(FdEntry::PipeRead { id });
        let w = p.fds.insert(FdEntry::PipeWrite { id });
        self.syscall_exit();
        Ok((r, w))
    }

    // ------------------------------------------------------------------
    // Signals
    // ------------------------------------------------------------------

    /// `sigaction()` — install a handler.
    pub fn sys_signal_install(&mut self, signum: usize) -> Result<(), KernelError> {
        self.syscall_enter(profile::SIG_INSTALL);
        let r = {
            let p = self.procs.live_mut(self.current_pid())?;
            if signum == 0 || signum >= 32 {
                Err(KernelError::BadAddress)
            } else {
                p.signals.actions[signum] = SigAction::Handler;
                Ok(())
            }
        };
        self.syscall_exit();
        r
    }

    /// `kill()` + immediate delivery to self (the LMBench catch test).
    pub fn sys_signal_catch(&mut self, signum: usize) -> Result<(), KernelError> {
        self.syscall_enter(profile::SIG_CATCH);
        let r = {
            let p = self.procs.live_mut(self.current_pid())?;
            if signum == 0 || signum >= 32 {
                Err(KernelError::BadAddress)
            } else if p.signals.actions[signum] == SigAction::Handler {
                p.signals.caught += 1;
                Ok(())
            } else {
                p.signals.pending |= 1 << signum;
                Ok(())
            }
        };
        self.syscall_exit();
        r
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /// `fork()`.
    pub fn sys_fork(&mut self) -> Result<Pid, KernelError> {
        self.syscall_enter(profile::FORK);
        let r = self.do_fork();
        self.syscall_exit();
        r
    }

    /// `clone(CLONE_VM)` — spawn a thread sharing the address space.
    pub fn sys_clone_thread(&mut self) -> Result<Pid, KernelError> {
        self.syscall_enter(profile::FORK);
        let r = self.do_clone_thread();
        self.syscall_exit();
        r
    }

    /// `execve()`.
    pub fn sys_exec(&mut self) -> Result<(), KernelError> {
        self.syscall_enter(profile::EXEC);
        let r = self.do_exec();
        self.syscall_exit();
        r
    }

    /// `exit()`.
    pub fn sys_exit(&mut self, code: i32) -> Result<(), KernelError> {
        self.syscall_enter(profile::EXIT);
        let r = self.do_exit(code);
        self.syscall_exit();
        r
    }

    /// `wait()`.
    pub fn sys_wait(&mut self) -> Result<(Pid, i32), KernelError> {
        self.syscall_enter(profile::WAIT);
        let r = self.do_wait();
        self.syscall_exit();
        r
    }

    /// `sched_yield()`.
    pub fn sys_yield(&mut self) -> Result<(), KernelError> {
        self.syscall_enter(profile::YIELD);
        let r = self.do_yield();
        self.syscall_exit();
        r
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// `mmap()` anonymous memory; returns the mapped address. Placement is
    /// bump-allocated from the mmap cursor and falls back to a first-fit
    /// search of the mmap window when the cursor reaches the stack guard —
    /// so unmap/remap churn can run indefinitely.
    pub fn sys_mmap(&mut self, len: u64) -> Result<VirtAddr, KernelError> {
        self.syscall_enter(profile::MMAP);
        let r = self.do_mmap(len);
        self.syscall_exit();
        r
    }

    fn do_mmap(&mut self, len: u64) -> Result<VirtAddr, KernelError> {
        let stack_guard = crate::pagetable::USER_STACK_TOP - 64 * PAGE_SIZE;
        // A length past the guard cannot fit; rejecting it up front keeps
        // every sum below in range.
        let len = len
            .checked_next_multiple_of(PAGE_SIZE)
            .filter(|&len| len <= stack_guard)
            .ok_or(KernelError::OutOfMemory)?;
        let mm = self.mm_owner_of(self.current_pid());
        let p = self.procs.live_mut(mm)?;
        let start = if p.mmap_cursor + len <= stack_guard {
            let s = p.mmap_cursor;
            p.mmap_cursor += len;
            Some(s)
        } else {
            // First-fit over the mmap window.
            let mut vmas: Vec<(u64, u64)> = p
                .vmas
                .iter()
                .filter(|v| v.end > crate::pagetable::USER_MMAP_BASE && v.start < stack_guard)
                .map(|v| (v.start, v.end))
                .collect();
            vmas.sort_unstable();
            let mut candidate = crate::pagetable::USER_MMAP_BASE;
            let mut found = None;
            for (vs, ve) in vmas {
                if candidate + len <= vs {
                    found = Some(candidate);
                    break;
                }
                candidate = candidate.max(ve);
            }
            if found.is_none() && candidate + len <= stack_guard {
                found = Some(candidate);
            }
            found
        };
        let start = start.ok_or(KernelError::OutOfMemory)?;
        p.vmas.push(VmArea {
            start,
            end: start + len,
            perms: VmPerms::RW,
        });
        Ok(VirtAddr::new(start))
    }

    /// `mmap(MAP_HUGETLB)`-style anonymous memory: 2 MiB-aligned, backed by
    /// pinned 2 MiB blocks mapped as level-1 leaf PTEs, eagerly populated at
    /// map time (hugetlb reserves up front; there is no demand-fault path
    /// for huge pages). Returns the mapped address.
    pub fn sys_mmap_huge(&mut self, len: u64) -> Result<VirtAddr, KernelError> {
        self.syscall_enter(profile::MMAP);
        let r = self.do_mmap_huge(len);
        self.syscall_exit();
        r
    }

    fn do_mmap_huge(&mut self, len: u64) -> Result<VirtAddr, KernelError> {
        let stack_guard = crate::pagetable::USER_STACK_TOP - 64 * PAGE_SIZE;
        let len = len
            .checked_next_multiple_of(2 * MIB)
            .filter(|&len| len <= stack_guard)
            .ok_or(KernelError::OutOfMemory)?;
        let mm = self.mm_owner_of(self.current_pid());
        let (start, cursor) = {
            let p = self.procs.live_mut(mm)?;
            let aligned = p.mmap_cursor.div_ceil(2 * MIB) * (2 * MIB);
            if aligned + len > stack_guard {
                return Err(KernelError::OutOfMemory);
            }
            let cursor = p.mmap_cursor;
            p.mmap_cursor = aligned + len;
            p.vmas.push(VmArea {
                start: aligned,
                end: aligned + len,
                perms: VmPerms::RW,
            });
            (aligned, cursor)
        };
        for off in (0..len).step_by(2 * MIB as usize) {
            let va = VirtAddr::new(start + off);
            let mapped = self.alloc_user_huge_block().and_then(|block| {
                self.page_refs.insert(block.as_u64(), 1);
                let leaf = UserMapping {
                    ppn: block,
                    flags: PteFlags::user_rw(),
                    cow: false,
                    huge: true,
                };
                self.map_user_leaf(mm, va, leaf).or_else(|e| {
                    // Not mapped: the block goes straight back.
                    self.put_user_leaf(block, true)?;
                    Err(e)
                })
            });
            if let Err(e) = mapped {
                // The caller gets no address to unmap, so nothing it asked
                // for may stay behind: the blocks mapped so far, the area
                // and the cursor.
                let base = VirtAddr::new(start);
                self.do_munmap(base, base + len)?;
                self.drain_deferred_flushes();
                let p = self.procs.live_mut(mm)?;
                p.mmap_cursor = cursor;
                return Err(e);
            }
        }
        Ok(VirtAddr::new(start))
    }

    /// `munmap()`: unmaps the area starting at `addr`. A huge mapping wholly
    /// inside the range is dropped block-at-a-time; one that straddles the
    /// range boundary is split first, then handled page-by-page.
    pub fn sys_munmap(&mut self, addr: VirtAddr, len: u64) -> Result<(), KernelError> {
        self.syscall_enter(profile::MMAP);
        let r = match page_range(addr, len) {
            Some((_, end)) => self.do_munmap(addr, end),
            None => Err(KernelError::BadAddress),
        };
        // End of the unmap: the whole range's queued invalidations leave in
        // one batched broadcast (forced even on the error path — partially
        // unmapped pages must not linger in remote TLBs).
        self.drain_deferred_flushes();
        self.syscall_exit();
        r
    }

    fn do_munmap(&mut self, addr: VirtAddr, end: VirtAddr) -> Result<(), KernelError> {
        let pid = self.mm_owner_of(self.current_pid());
        // Unmap any resident pages, jumping over unmapped ones to the next
        // shadow entry, so the cost follows the leaves and not the length.
        let mut va = addr;
        while va < end {
            let p = self.procs.live(pid)?;
            let Some(m) = p.aspace.mapping(va) else {
                let vpn = va.as_u64() >> PAGE_SHIFT;
                match p.aspace.user.range(vpn + 1..).next() {
                    Some((&next, _)) => va += (next - vpn) * PAGE_SIZE,
                    None => break,
                }
                continue;
            };
            let span = leaf_pages(m.huge) * PAGE_SIZE;
            if m.huge && !(va.as_u64().is_multiple_of(span) && va + span <= end) {
                // Partial overlap: split, then retry this page as 4 KiB.
                self.split_huge_mapping(pid, va)?;
                continue;
            }
            let m = self.unmap_user_leaf(pid, va)?;
            self.put_user_leaf(m.ppn, m.huge)?;
            va += span;
        }
        // Trim or split every VMA the range overlaps, keeping the rest in
        // their order; a VMA that starts below the range keeps its start,
        // so the heap VMA `brk` looks up stays where it was.
        let (lo, hi) = (addr.as_u64(), end.as_u64());
        let p = self.procs.live_mut(pid)?;
        let vmas = std::mem::take(&mut p.vmas);
        p.vmas.reserve(vmas.len() + 1);
        for v in vmas {
            if v.start.max(lo) >= v.end.min(hi) {
                p.vmas.push(v);
                continue;
            }
            if v.start < lo {
                p.vmas.push(VmArea { end: lo, ..v });
            }
            if hi < v.end {
                p.vmas.push(VmArea { start: hi, ..v });
            }
        }
        Ok(())
    }

    /// `brk()`: grows (or shrinks) the heap; returns the new break.
    pub fn sys_brk(&mut self, new_brk: u64) -> Result<u64, KernelError> {
        self.syscall_enter(profile::BRK);
        let r = {
            let p = self
                .procs
                .get_mut(self.mm_owner_of(self.current_pid()))
                .ok_or(KernelError::NoSuchProcess)?;
            if !(crate::pagetable::USER_HEAP_BASE..crate::pagetable::USER_MMAP_BASE)
                .contains(&new_brk)
            {
                Err(KernelError::BadAddress)
            } else {
                p.brk = new_brk;
                if let Some(heap) = p
                    .vmas
                    .iter_mut()
                    .find(|v| v.start == crate::pagetable::USER_HEAP_BASE)
                {
                    heap.end = new_brk.div_ceil(PAGE_SIZE) * PAGE_SIZE;
                }
                Ok(new_brk)
            }
        };
        self.syscall_exit();
        r
    }

    /// `mprotect()`: changes a VMA's permissions and downgrades any resident
    /// PTEs — the page-table update path W^X policies exercise. Resident
    /// pages are rewritten through the defense channel and the stale
    /// translations flushed.
    pub fn sys_mprotect(
        &mut self,
        addr: VirtAddr,
        len: u64,
        perms: VmPerms,
    ) -> Result<(), KernelError> {
        self.syscall_enter(profile::MMAP);
        let r = self.do_mprotect(addr, len, perms);
        // Security boundary: mprotect may have stripped W (or R) from the
        // range — no hart may keep executing against the old permissions,
        // so the queued downgrades drain before the syscall returns (error
        // paths included: a partial downgrade still owes its broadcast).
        self.drain_deferred_flushes();
        self.syscall_exit();
        r
    }

    fn do_mprotect(&mut self, addr: VirtAddr, len: u64, perms: VmPerms) -> Result<(), KernelError> {
        let (len, _) = page_range(addr, len).ok_or(KernelError::BadAddress)?;
        let mm = self.mm_owner_of(self.current_pid());
        // Update the VMA (split handling kept simple: exact or inner range
        // updates the whole containing VMA's overlap by splitting).
        {
            let p = self.procs.live_mut(mm)?;
            let vma = p
                .vmas
                .iter_mut()
                .find(|v| v.start <= addr.as_u64() && addr.as_u64() + len <= v.end)
                .ok_or(KernelError::BadAddress)?;
            if vma.start == addr.as_u64() && vma.end == addr.as_u64() + len {
                vma.perms = perms;
            } else {
                // Split: [start, addr) keeps old perms; [addr, addr+len) new;
                // [addr+len, end) keeps old.
                let old = *vma;
                vma.end = addr.as_u64();
                let mut tail = Vec::new();
                tail.push(VmArea {
                    start: addr.as_u64(),
                    end: addr.as_u64() + len,
                    perms,
                });
                if addr.as_u64() + len < old.end {
                    tail.push(VmArea {
                        start: addr.as_u64() + len,
                        end: old.end,
                        perms: old.perms,
                    });
                }
                if vma.start == vma.end {
                    // Fully replaced head.
                    *vma = tail.remove(0);
                }
                p.vmas.extend(tail);
            }
        }
        // Blocks first: one wholly inside the range has its level-1 leaf
        // rewritten in place; one that straddles the boundary is split so
        // the 4 KiB pass below can retouch just the overlap.
        let start_vpn = addr.as_u64() >> 12;
        let end_vpn = (addr.as_u64() + len) >> 12;
        let blocks: Vec<u64> = {
            let p = self.procs.live(mm)?;
            p.aspace
                .user
                .range(start_vpn.saturating_sub(HUGE_PAGE_SPAN - 1)..end_vpn)
                .filter(|(&base, m)| m.huge && base + HUGE_PAGE_SPAN > start_vpn)
                .map(|(&base, _)| base)
                .collect()
        };
        for base in blocks {
            if base >= start_vpn && base + HUGE_PAGE_SPAN <= end_vpn {
                self.protect_user_leaf(mm, base, perms)?;
            } else {
                self.split_huge_mapping(mm, VirtAddr::new(base << 12))?;
            }
        }
        let pages: Vec<u64> = {
            let p = self.procs.live(mm)?;
            p.aspace
                .user
                .range(start_vpn..end_vpn)
                .filter(|(_, m)| !m.huge)
                .map(|(&vpn, _)| vpn)
                .collect()
        };
        for vpn in pages {
            self.protect_user_leaf(mm, vpn, perms)?;
        }
        Ok(())
    }

    /// Rewrites the resident user leaf keyed at `vpn` to `perms` and queues
    /// the flush of its old translation.
    fn protect_user_leaf(&mut self, mm: Pid, vpn: u64, perms: VmPerms) -> Result<(), KernelError> {
        let va = VirtAddr::new(vpn << 12);
        let (root, asid, m) = {
            let p = self.procs.live(mm)?;
            let m = p.aspace.user.get(&vpn).ok_or(KernelError::BadAddress)?;
            (p.aspace.root, p.aspace.asid, *m)
        };
        let flags = mprotect_leaf_flags(perms, m.cow);
        let slot = self.user_leaf_slot(root, va, m.huge)?;
        self.pt_replace(slot, ptstore_mmu::Pte::leaf(m.ppn, flags).bits())?
            .queue(self, va, asid);
        if let Some(p) = self.procs.get_mut(mm) {
            if let Some(m) = p.aspace.user.get_mut(&vpn) {
                m.flags = flags;
            }
        }
        Ok(())
    }

    /// A user-space memory touch as a syscall-free event (page faults charge
    /// through the fault path). Exposed for the LMBench page-fault and mmap
    /// latency drivers.
    pub fn sys_touch(&mut self, va: VirtAddr, write: bool) -> Result<(), KernelError> {
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        self.touch_user(va, kind)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Sockets (NGINX/Redis workload model)
    // ------------------------------------------------------------------

    /// `accept()` a connection with `rx_bytes` of request data queued.
    pub fn sys_accept(&mut self, rx_bytes: u64) -> Result<i32, KernelError> {
        self.syscall_enter(profile::ACCEPT);
        let id = self.next_socket;
        self.next_socket += 1;
        self.sockets.insert(
            id,
            Socket {
                rx: rx_bytes,
                tx: 0,
                holders: 1,
            },
        );
        let r = {
            let p = self.procs.live_mut(self.current_pid())?;
            Ok(p.fds.insert(FdEntry::Socket { id }))
        };
        self.syscall_exit();
        r
    }

    /// `recv()` on a socket fd.
    pub fn sys_recv(&mut self, fd: i32, len: u64) -> Result<u64, KernelError> {
        let len = len.min(MAX_RW_COUNT);
        self.syscall_enter(profile::RECV);
        self.charge_copy(len);
        let r = self.do_read(fd, len, &mut Discard);
        self.syscall_exit();
        r
    }

    /// `send()` on a socket fd.
    pub fn sys_send(&mut self, fd: i32, bytes: u64) -> Result<u64, KernelError> {
        let bytes = bytes.min(MAX_RW_COUNT);
        self.syscall_enter(profile::SEND);
        self.charge_copy(bytes);
        let r = self.do_write(fd, std::iter::repeat_n(0, bytes as usize));
        self.syscall_exit();
        r
    }

    /// `write()` for payloads that are never inspected: identical charges,
    /// fd bookkeeping, and result as [`Self::sys_write`] with a zero
    /// buffer of `len` bytes, without materializing it on the host. The
    /// LMBench latency/bandwidth drivers and SPEC profiles use this.
    pub fn sys_write_discard(&mut self, fd: i32, len: u64) -> Result<u64, KernelError> {
        let len = len.min(MAX_RW_COUNT);
        self.syscall_enter(profile::WRITE);
        self.charge_copy(len);
        let r = self.do_write(fd, std::iter::repeat_n(0, len as usize));
        self.syscall_exit();
        r
    }
}

/// A read target that keeps only the count: the length-only reads take
/// their bytes through it without allocating.
struct Discard;

impl Extend<u8> for Discard {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, _: I) {}
}

/// Rounds `len` up to whole pages and pairs it with the end of the range
/// starting at `addr`; `None` when either overflows the address space.
fn page_range(addr: VirtAddr, len: u64) -> Option<(u64, VirtAddr)> {
    let len = len.checked_next_multiple_of(PAGE_SIZE)?;
    Some((len, addr.checked_add(len)?))
}

/// Leaf flags for an mprotect'ed resident page: CoW-shared pages never get
/// W back directly (the fault path restores it when sharing breaks).
fn mprotect_leaf_flags(perms: VmPerms, cow: bool) -> PteFlags {
    let mut bits = PteFlags::V | PteFlags::U | PteFlags::A;
    if perms.read {
        bits |= PteFlags::R;
    }
    if perms.write && !cow {
        bits |= PteFlags::W | PteFlags::D;
    }
    if perms.exec {
        bits |= PteFlags::X;
    }
    PteFlags::from_bits(bits)
}
