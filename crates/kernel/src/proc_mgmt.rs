//! Process lifecycle: creation, fork with copy-on-write, exec, exit/wait,
//! demand paging, and scheduling (`copy_mm`/`switch_mm` of paper §IV-C4).

use ptstore_core::{AccessKind, PhysPageNum, VirtAddr, PAGE_SHIFT, PAGE_SIZE};
use ptstore_mmu::{Pte, PteFlags, TranslateError};

use crate::cycles::{cost, CostKind};
use crate::error::KernelError;
use crate::kernel::Kernel;
use crate::pagetable::{
    AddressSpace, HUGE_PAGE_SPAN, USER_HEAP_BASE, USER_MMAP_BASE, USER_STACK_PAGES, USER_STACK_TOP,
    USER_TEXT_BASE,
};
use crate::process::{FdTable, Pid, ProcState, Process, SignalTable, VmArea, VmPerms, PCB_OFF_PID};
use crate::zones::GfpFlags;

/// How a page fault was resolved (returned to workload drivers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultResolution {
    /// Demand-mapped a fresh zero page.
    DemandMapped,
    /// Broke copy-on-write sharing.
    CowBroken,
}

impl Kernel {
    /// Creates the init process (pid 1): shared text page, stack, heap VMA.
    pub(crate) fn spawn_init(&mut self) -> Result<Pid, KernelError> {
        let pid = self.allocate_pid();
        let aspace = self.create_address_space()?;
        let pcb_addr = self.alloc_pcb()?;
        let proc = Process {
            pid,
            parent: None,
            state: ProcState::Running,
            pcb_addr,
            aspace,
            vmas: vec![
                VmArea {
                    start: USER_TEXT_BASE,
                    end: USER_TEXT_BASE + PAGE_SIZE,
                    perms: VmPerms::RX,
                },
                VmArea {
                    start: USER_HEAP_BASE,
                    end: USER_HEAP_BASE, // empty until brk grows it
                    perms: VmPerms::RW,
                },
                VmArea {
                    start: USER_STACK_TOP - USER_STACK_PAGES * PAGE_SIZE,
                    end: USER_STACK_TOP,
                    perms: VmPerms::RW,
                },
            ],
            brk: USER_HEAP_BASE,
            mmap_cursor: USER_MMAP_BASE,
            fds: FdTable::with_std(),
            signals: SignalTable::default(),
            exit_code: 0,
            children: Vec::new(),
            mm_owner: None,
            threads: Vec::new(),
        };
        self.procs.insert(proc)?;
        self.mem_write(pcb_addr + PCB_OFF_PID, pid as u64)?;
        // Map the shared text and eager stack pages.
        let text = self.shared_text_ppn;
        *self.page_refs.entry(text.as_u64()).or_insert(0) += 1;
        self.map_user_page(
            pid,
            VirtAddr::new(USER_TEXT_BASE),
            text,
            PteFlags::user_rx(),
            false,
        )?;
        for i in 0..USER_STACK_PAGES {
            let page = self.alloc_page(GfpFlags::MOVABLE | GfpFlags::ZERO)?;
            *self.page_refs.entry(page.as_u64()).or_insert(0) += 1;
            let va = VirtAddr::new(USER_STACK_TOP - (i + 1) * PAGE_SIZE);
            self.map_user_page(pid, va, page, PteFlags::user_rw(), false)?;
        }
        // PCB pt pointer + token.
        let pt_slot = self.procs.get(pid).expect("inserted").pt_ptr_slot();
        let root = self.procs.get(pid).expect("inserted").aspace.root;
        self.mem_write(pt_slot, root.base_addr().as_u64())?;
        self.token_issue(pid)?;
        Ok(pid)
    }

    fn allocate_pid(&mut self) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;
        pid
    }

    /// Allocates a PCB object and charges for it.
    fn alloc_pcb(&mut self) -> Result<ptstore_core::PhysAddr, KernelError> {
        if self.cfg.alloc_magazines {
            // Per-hart magazine fast path: the hottest PCB comes straight
            // back without touching the shared slab bookkeeping.
            if let Some(addr) = self.pcb_slab.magazine_get(self.active_hart) {
                return Ok(addr);
            }
        }
        let mut slab = std::mem::replace(
            &mut self.pcb_slab,
            crate::slab::SlabCache::new("x", crate::process::PCB_SIZE, GfpFlags::KERNEL),
        );
        let result = slab.alloc(|gfp| self.alloc_page(gfp | GfpFlags::ZERO));
        self.pcb_slab = slab;
        let (addr, _grew) = result?;
        Ok(addr)
    }

    /// Creates a fresh address space whose kernel half mirrors the kernel
    /// root (shared intermediate tables, as Linux shares the kernel PGD
    /// entries).
    pub(crate) fn create_address_space(&mut self) -> Result<AddressSpace, KernelError> {
        let root = self.alloc_pt_page()?;
        let asid = self.next_asid;
        if self.next_asid >= 0x7fff {
            self.next_asid = 1;
            self.asid_wrapped = true;
        } else {
            self.next_asid += 1;
        }
        self.drain_on_asid_recycle();
        // Copy the kernel-half root entries (upper 256 slots).
        let kroot = self.kernel_root;
        for slot_idx in 256..512u64 {
            let src = kroot.base_addr() + slot_idx * 8;
            let raw = self.pt_read(src)?;
            if Pte::from_bits(raw).is_valid() {
                let dst = root.base_addr() + slot_idx * 8;
                self.pt_write(dst, raw)?;
            }
        }
        Ok(AddressSpace {
            root,
            asid,
            pt_pages: vec![root],
            user: Default::default(),
        })
    }

    /// The ASID-lifecycle drain. After the 15-bit allocator has rolled
    /// over, every ASID handed out is a **reuse**: invalidations still
    /// queued under that ASID belong to the previous address-space
    /// generation, and the new space must not go live while they are
    /// pending — so the drain is mandatory under *every*
    /// [`DrainPolicy`](crate::drain::DrainPolicy). The
    /// [`AsidRecycle`](crate::drain::DrainPolicy::AsidRecycle) policy
    /// additionally refuses to rely on the rollover bookkeeping and drains
    /// at every allocation. A no-op when nothing is queued.
    pub(crate) fn drain_on_asid_recycle(&mut self) {
        if !(self.asid_wrapped || self.cfg.drain_policy.drains_on_asid_alloc()) {
            return;
        }
        if self.pending_deferred_flushes() > 0 {
            self.stats.asid_recycle_drains += 1;
            self.drain_deferred_flushes();
        }
    }

    // ------------------------------------------------------------------
    // fork / exec / exit / wait
    // ------------------------------------------------------------------

    /// `fork()`: duplicates the current process with copy-on-write user
    /// pages; issues a fresh token for the child (paper §IV-C4 `copy_mm`).
    pub fn do_fork(&mut self) -> Result<Pid, KernelError> {
        self.charge(CostKind::Kernel, cost::FORK_BASE);
        let parent_pid = self.current_pid();
        let child_pid = self.allocate_pid();
        let child_aspace = self.create_address_space()?;
        let pcb_addr = self.alloc_pcb()?;

        // Snapshot parent state.
        let (vmas, brk, mmap_cursor, fds, signals, parent_asid, user_mappings) = {
            let p = self
                .procs
                .get(parent_pid)
                .ok_or(KernelError::NoSuchProcess)?;
            (
                p.vmas.clone(),
                p.brk,
                p.mmap_cursor,
                p.fds.clone(),
                p.signals.clone(),
                p.aspace.asid,
                p.aspace.user.clone(),
            )
        };

        let child = Process {
            pid: child_pid,
            parent: Some(parent_pid),
            state: ProcState::Ready,
            pcb_addr,
            aspace: child_aspace,
            vmas,
            brk,
            mmap_cursor,
            fds,
            signals,
            exit_code: 0,
            children: Vec::new(),
            mm_owner: None,
            threads: Vec::new(),
        };
        self.procs.insert(child)?;
        self.mem_write(pcb_addr + PCB_OFF_PID, child_pid as u64)?;

        // Duplicate pipe/socket fd refcounts.
        self.dup_fd_resources(child_pid);

        // Copy user mappings with CoW.
        let mut made_parent_ro = false;
        for (&vpn, &mapping) in &user_mappings {
            let va = VirtAddr::new(vpn << PAGE_SHIFT);
            *self.page_refs.entry(mapping.ppn.as_u64()).or_insert(0) += 1;
            let (child_flags, share_cow) = if mapping.flags.writable() {
                (mapping.flags.without(PteFlags::W), true)
            } else {
                (mapping.flags, mapping.cow)
            };
            // Parent side: drop W for CoW. A huge mapping's leaf lives one
            // level up; the 4 KiB path keeps the cheaper slot computation
            // (leaf_slot never reads the leaf itself).
            if mapping.flags.writable() {
                let parent_root = self
                    .procs
                    .get(parent_pid)
                    .expect("parent exists")
                    .aspace
                    .root;
                let slot = if mapping.huge {
                    let (slot, level) = self
                        .find_leaf(parent_root, va)?
                        .ok_or(KernelError::BadAddress)?;
                    debug_assert_eq!(level, 1, "huge shadow entry over a non-huge leaf");
                    slot
                } else {
                    self.leaf_slot(parent_root, va)?
                        .ok_or(KernelError::BadAddress)?
                };
                self.pt_write(slot, Pte::leaf(mapping.ppn, child_flags).bits())?;
                let p = self.procs.get_mut(parent_pid).expect("parent exists");
                if let Some(m) = p.aspace.user.get_mut(&vpn) {
                    m.flags = child_flags;
                    m.cow = true;
                }
                made_parent_ro = true;
            }
            if mapping.huge {
                self.map_user_huge_page(child_pid, va, mapping.ppn, child_flags, share_cow)?;
            } else {
                self.map_user_page(child_pid, va, mapping.ppn, child_flags, share_cow)?;
            }
        }
        if made_parent_ro {
            self.tlb_flush_asid(parent_asid);
        }

        // PCB pt pointer + token for the child.
        let (pt_slot, root) = {
            let p = self.procs.get(child_pid).expect("inserted");
            (p.pt_ptr_slot(), p.aspace.root)
        };
        self.mem_write(pt_slot, root.base_addr().as_u64())?;
        self.token_issue_as(child_pid, ptstore_trace::TokenOp::Copy)?;

        self.procs
            .get_mut(parent_pid)
            .expect("parent exists")
            .children
            .push(child_pid);
        let hart = self.active_hart;
        self.harts[hart].run_queue.push_back(child_pid);
        // Publish the new process to the other harts (visibility record for
        // the deterministic mailbox merge; idle harts learn the pid exists).
        for h in 0..self.harts.len() {
            self.post_hart_msg(h, crate::hart::HartMsgKind::ProcSpawned { pid: child_pid });
        }
        self.stats.forks += 1;
        Ok(child_pid)
    }

    fn dup_fd_resources(&mut self, pid: Pid) {
        let entries: Vec<crate::process::FdEntry> = {
            let p = self.procs.get(pid).expect("exists");
            (0..64).filter_map(|fd| p.fds.get(fd).cloned()).collect()
        };
        for e in entries {
            match e {
                crate::process::FdEntry::PipeRead { id } => self.pipes.dup_end(id, false),
                crate::process::FdEntry::PipeWrite { id } => self.pipes.dup_end(id, true),
                _ => {}
            }
        }
    }

    /// `clone(CLONE_VM)`: creates a thread sharing the current process's
    /// address space. The new PCB carries the *same* page-table pointer,
    /// legitimised by its own **copied token** in the secure region — the
    /// paper's token-copy lifecycle event (§III-C3, §IV-C4).
    pub fn do_clone_thread(&mut self) -> Result<Pid, KernelError> {
        self.charge(CostKind::Kernel, cost::FORK_BASE / 2);
        self.charge(CostKind::Token, cost::TOKEN_COPY);
        let owner = self.mm_owner_of(self.current_pid());
        let tid = self.allocate_pid();
        let pcb_addr = self.alloc_pcb()?;
        let (fds, signals, vmas, brk, mmap_cursor) = {
            let p = self
                .procs
                .get(self.current_pid())
                .ok_or(KernelError::NoSuchProcess)?;
            (
                p.fds.clone(),
                p.signals.clone(),
                Vec::new(),
                p.brk,
                p.mmap_cursor,
            )
        };
        let thread = Process {
            pid: tid,
            parent: Some(self.current_pid()),
            state: ProcState::Ready,
            pcb_addr,
            aspace: AddressSpace::default(), // shared: resolved via mm_owner
            vmas,
            brk,
            mmap_cursor,
            fds,
            signals,
            exit_code: 0,
            children: Vec::new(),
            mm_owner: Some(owner),
            threads: Vec::new(),
        };
        self.procs.insert(thread)?;
        self.mem_write(pcb_addr + PCB_OFF_PID, tid as u64)?;
        self.dup_fd_resources(tid);
        // The shared page-table pointer, copied into the thread's PCB...
        let root = self
            .procs
            .get(owner)
            .ok_or(KernelError::NoSuchProcess)?
            .aspace
            .root;
        let pt_slot = self.procs.get(tid).expect("inserted").pt_ptr_slot();
        self.mem_write(pt_slot, root.base_addr().as_u64())?;
        // ...bound by the thread's own token (token copy).
        self.token_issue_as(tid, ptstore_trace::TokenOp::Copy)?;
        self.procs
            .get_mut(owner)
            .expect("owner exists")
            .threads
            .push(tid);
        let spawner = self.current_pid();
        self.procs
            .get_mut(spawner)
            .expect("spawner exists")
            .children
            .push(tid);
        let hart = self.active_hart;
        self.harts[hart].run_queue.push_back(tid);
        for h in 0..self.harts.len() {
            self.post_hart_msg(h, crate::hart::HartMsgKind::ProcSpawned { pid: tid });
        }
        Ok(tid)
    }

    /// `execve()`: replaces the user address space with a fresh text+stack.
    pub fn do_exec(&mut self) -> Result<(), KernelError> {
        self.charge(CostKind::Kernel, cost::EXEC_BASE);
        let pid = self.current_pid();
        self.teardown_user_mappings(pid)?;
        {
            let p = self.procs.get_mut(pid).ok_or(KernelError::NoSuchProcess)?;
            p.vmas = vec![
                VmArea {
                    start: USER_TEXT_BASE,
                    end: USER_TEXT_BASE + PAGE_SIZE,
                    perms: VmPerms::RX,
                },
                VmArea {
                    start: USER_HEAP_BASE,
                    end: USER_HEAP_BASE,
                    perms: VmPerms::RW,
                },
                VmArea {
                    start: USER_STACK_TOP - USER_STACK_PAGES * PAGE_SIZE,
                    end: USER_STACK_TOP,
                    perms: VmPerms::RW,
                },
            ];
            p.brk = USER_HEAP_BASE;
            p.mmap_cursor = USER_MMAP_BASE;
        }
        let text = self.shared_text_ppn;
        *self.page_refs.entry(text.as_u64()).or_insert(0) += 1;
        self.map_user_page(
            pid,
            VirtAddr::new(USER_TEXT_BASE),
            text,
            PteFlags::user_rx(),
            false,
        )?;
        for i in 0..USER_STACK_PAGES {
            let page = self.alloc_page(GfpFlags::MOVABLE | GfpFlags::ZERO)?;
            *self.page_refs.entry(page.as_u64()).or_insert(0) += 1;
            let va = VirtAddr::new(USER_STACK_TOP - (i + 1) * PAGE_SIZE);
            self.map_user_page(pid, va, page, PteFlags::user_rw(), false)?;
        }
        self.stats.execs += 1;
        Ok(())
    }

    fn teardown_user_mappings(&mut self, pid: Pid) -> Result<(), KernelError> {
        let entries: Vec<(u64, bool)> = {
            let p = self.procs.get(pid).ok_or(KernelError::NoSuchProcess)?;
            p.aspace.user.iter().map(|(&v, m)| (v, m.huge)).collect()
        };
        for (vpn, huge) in entries {
            let va = VirtAddr::new(vpn << PAGE_SHIFT);
            if huge {
                let block = self.unmap_user_huge_page(pid, va)?;
                self.put_user_huge_block(block)?;
            } else {
                let ppn = self.unmap_user_page(pid, va)?;
                self.put_user_page(ppn)?;
            }
        }
        // The whole address space left in one batched broadcast; its pages
        // are about to be reused, so nothing may linger in remote TLBs.
        self.drain_deferred_flushes();
        Ok(())
    }

    /// `exit()`: releases the user address space and page-table pages,
    /// clears the token, and zombifies the process.
    pub fn do_exit(&mut self, code: i32) -> Result<(), KernelError> {
        self.charge(CostKind::Kernel, cost::EXIT_BASE);
        let pid = self.current_pid();
        let mm_owner = {
            let p = self.procs.get(pid).ok_or(KernelError::NoSuchProcess)?;
            p.mm_owner
        };
        if let Some(owner) = mm_owner {
            // Thread exit: the shared address space stays with its owner;
            // only the thread's token and fds are released.
            self.close_all_fds(pid)?;
            self.token_clear(pid)?;
            if let Some(op) = self.procs.get_mut(owner) {
                op.threads.retain(|&t| t != pid);
            }
            {
                let p = self.procs.get_mut(pid).expect("exists");
                p.state = ProcState::Zombie;
                p.exit_code = code;
            }
            self.stats.exits += 1;
            if let Some(next) = self.pick_next() {
                self.do_switch_to(next)?;
            }
            return Ok(());
        }
        // An mm owner with live threads cannot release the address space.
        let has_threads = self.procs.get(pid).is_some_and(|p| !p.threads.is_empty());
        if has_threads {
            return Err(KernelError::InvalidState);
        }
        self.teardown_user_mappings(pid)?;
        self.close_all_fds(pid)?;
        self.token_clear(pid)?;
        // Free page-table pages (root last).
        let pt_pages: Vec<PhysPageNum> = {
            let p = self.procs.get_mut(pid).ok_or(KernelError::NoSuchProcess)?;
            std::mem::take(&mut p.aspace.pt_pages)
        };
        for ppn in pt_pages.into_iter().rev() {
            self.free_pt_page(ppn)?;
        }
        {
            let p = self.procs.get_mut(pid).expect("exists");
            p.state = ProcState::Zombie;
            p.exit_code = code;
        }
        self.stats.exits += 1;
        // Schedule away if anyone is runnable.
        if let Some(next) = self.pick_next() {
            self.do_switch_to(next)?;
        }
        Ok(())
    }

    pub(crate) fn close_all_fds(&mut self, pid: Pid) -> Result<(), KernelError> {
        let entries: Vec<(i32, crate::process::FdEntry)> = {
            let p = self.procs.get(pid).ok_or(KernelError::NoSuchProcess)?;
            (0..256)
                .filter_map(|fd| p.fds.get(fd).map(|e| (fd, e.clone())))
                .collect()
        };
        for (fd, e) in entries {
            match e {
                crate::process::FdEntry::PipeRead { id } => self.pipes.close_end(id, false),
                crate::process::FdEntry::PipeWrite { id } => self.pipes.close_end(id, true),
                crate::process::FdEntry::Socket { id } => {
                    self.sockets.remove(&id);
                }
                _ => {}
            }
            if let Some(p) = self.procs.get_mut(pid) {
                p.fds.remove(fd);
            }
        }
        Ok(())
    }

    /// `wait()`: reaps one zombie child, freeing its PCB; returns
    /// `(pid, exit_code)`.
    ///
    /// # Errors
    /// [`KernelError::InvalidState`] when no child is a zombie.
    pub fn do_wait(&mut self) -> Result<(Pid, i32), KernelError> {
        let parent = self.current_pid();
        let zombie = {
            let p = self.procs.get(parent).ok_or(KernelError::NoSuchProcess)?;
            p.children
                .iter()
                .copied()
                .find(|&c| matches!(self.procs.get(c), Some(cp) if cp.state == ProcState::Zombie))
        };
        let Some(child) = zombie else {
            return Err(KernelError::InvalidState);
        };
        let (pcb_addr, code) = {
            let cp = self.procs.get(child).expect("zombie exists");
            (cp.pcb_addr, cp.exit_code)
        };
        // Clear and release the PCB object (to this hart's magazine when
        // the fast-path knob is on and it has room).
        for off in (0..crate::process::PCB_SIZE).step_by(8) {
            self.mem_write(pcb_addr + off, 0)?;
        }
        if !(self.cfg.alloc_magazines && self.pcb_slab.magazine_put(self.active_hart, pcb_addr)) {
            self.pcb_slab.free(pcb_addr);
        }
        self.procs.remove(child);
        // Prune the reaping hart's queue now; remote harts learn of the reap
        // through their mailboxes and prune at their next activation (safe to
        // defer: pids are never recycled, and `pick_next` validates entries).
        let hart = self.active_hart;
        self.harts[hart].run_queue.retain(|&p| p != child);
        for h in 0..self.harts.len() {
            self.post_hart_msg(h, crate::hart::HartMsgKind::ProcReaped { pid: child });
        }
        let p = self.procs.get_mut(parent).expect("parent exists");
        p.children.retain(|&c| c != child);
        Ok((child, code))
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    pub(crate) fn pick_next(&mut self) -> Option<Pid> {
        // Drain the local queue first (stale entries are simply dropped).
        while let Some(pid) = self.harts[self.active_hart].run_queue.pop_front() {
            if matches!(self.procs.get(pid), Some(p) if p.state == ProcState::Ready) {
                return Some(pid);
            }
        }
        // Idle: steal from the other harts in deterministic id order so
        // runs stay reproducible.
        let n = self.harts.len();
        for off in 1..n {
            let victim = (self.active_hart + off) % n;
            while let Some(pid) = self.harts[victim].run_queue.pop_front() {
                if matches!(self.procs.get(pid), Some(p) if p.state == ProcState::Ready) {
                    // Tell the victim its queue shrank (merged, like every
                    // cross-hart effect, at its next activation).
                    self.post_hart_msg(victim, crate::hart::HartMsgKind::WorkStolen { pid });
                    return Some(pid);
                }
            }
        }
        None
    }

    /// Switches to `next`: context-switch cost + `switch_mm` with token
    /// validation under PTStore (paper §IV-C4).
    pub fn do_switch_to(&mut self, next: Pid) -> Result<(), KernelError> {
        let prev = self.current_pid();
        // Security boundary: deferred invalidations never cross a context
        // switch — `next` starts from a TLB state that owes nothing.
        self.drain_deferred_flushes();
        self.charge(CostKind::ContextSwitch, cost::CONTEXT_SWITCH);
        // Scheduler-class dispatch is indirect-call-heavy in Linux.
        self.charge_indirect_calls(4);
        self.activate_address_space(next)?;
        let mut requeue_prev = false;
        if let Some(p) = self.procs.get_mut(prev) {
            if p.state == ProcState::Running {
                p.state = ProcState::Ready;
                requeue_prev = true;
            }
        }
        if requeue_prev {
            let hart = self.active_hart;
            self.harts[hart].run_queue.push_back(prev);
        }
        if let Some(p) = self.procs.get_mut(next) {
            p.state = ProcState::Running;
        }
        self.harts[self.active_hart].current = next;
        self.stats.context_switches += 1;
        Ok(())
    }

    /// Voluntary yield to the next runnable process (LMBench
    /// context-switch latency driver).
    pub fn do_yield(&mut self) -> Result<(), KernelError> {
        if let Some(next) = self.pick_next() {
            self.do_switch_to(next)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Demand paging
    // ------------------------------------------------------------------

    /// Handles a user page fault at `va` for the *current* process.
    pub fn handle_user_fault(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<FaultResolution, KernelError> {
        self.charge(CostKind::PageFault, cost::PAGE_FAULT);
        self.stats.page_faults += 1;
        let pid = self.mm_owner_of(self.current_pid());
        let (perms, mapping) = {
            let p = self.procs.get(pid).ok_or(KernelError::NoSuchProcess)?;
            let vma = p.vma_for(va).ok_or(KernelError::SegFault)?;
            let allowed = match kind {
                AccessKind::Read => vma.perms.read,
                AccessKind::Write => vma.perms.write,
                AccessKind::Execute => vma.perms.exec,
            };
            if !allowed {
                return Err(KernelError::SegFault);
            }
            (vma.perms, p.aspace.mapping(va))
        };
        match mapping {
            Some(m) if kind == AccessKind::Write && m.cow => {
                if m.huge {
                    self.break_cow_huge(pid, va)?;
                } else {
                    self.break_cow(pid, va, m.ppn)?;
                }
                self.stats.cow_faults += 1;
                Ok(FaultResolution::CowBroken)
            }
            Some(_) => {
                // Spurious fault (e.g. stale TLB after repoint) — nothing to
                // do beyond the fence already issued.
                Ok(FaultResolution::DemandMapped)
            }
            None => {
                let page = self.alloc_page(GfpFlags::MOVABLE | GfpFlags::ZERO)?;
                *self.page_refs.entry(page.as_u64()).or_insert(0) += 1;
                let flags = perms_to_flags(perms);
                self.map_user_page(pid, va.page_align_down_va(), page, flags, false)?;
                self.stats.demand_faults += 1;
                Ok(FaultResolution::DemandMapped)
            }
        }
    }

    fn break_cow(&mut self, pid: Pid, va: VirtAddr, old: PhysPageNum) -> Result<(), KernelError> {
        let refs = self.page_refs.get(&old.as_u64()).copied().unwrap_or(1);
        let (root, asid, flags) = {
            let p = self.procs.get(pid).expect("exists");
            let m = p.aspace.mapping(va).expect("mapped");
            (p.aspace.root, p.aspace.asid, m.flags)
        };
        let new_flags = flags.with(PteFlags::W);
        let vpn = va.as_u64() >> PAGE_SHIFT;
        if refs > 1 {
            // Copy the page.
            let new = self.alloc_page(GfpFlags::MOVABLE)?;
            self.charge(CostKind::MemAccess, cost::ZERO_PAGE); // page copy
            self.raw_copy_page(old, new)?;
            *self.page_refs.entry(new.as_u64()).or_insert(0) += 1;
            let slot = self.leaf_slot(root, va)?.ok_or(KernelError::BadAddress)?;
            // ptstore-lint: hazard(shootdown-pairing) — COW break repoints the
            // leaf; the old read-only translation must not survive in any TLB.
            self.pt_write(slot, Pte::leaf(new, new_flags).bits())?;
            // Shadow + rmap rewire.
            if let Some(p) = self.procs.get_mut(pid) {
                if let Some(m) = p.aspace.user.get_mut(&vpn) {
                    m.ppn = new;
                    m.flags = new_flags;
                    m.cow = false;
                }
            }
            if let Some(users) = self.rmap.get_mut(&old.as_u64()) {
                users.retain(|&(up, uv)| !(up == pid && uv == vpn));
            }
            self.rmap.entry(new.as_u64()).or_default().push((pid, vpn));
            self.put_user_page(old)?;
        } else {
            // Sole owner: restore write permission in place.
            let slot = self.leaf_slot(root, va)?.ok_or(KernelError::BadAddress)?;
            self.pt_write(slot, Pte::leaf(old, new_flags).bits())?;
            if let Some(p) = self.procs.get_mut(pid) {
                if let Some(m) = p.aspace.user.get_mut(&vpn) {
                    m.flags = new_flags;
                    m.cow = false;
                }
            }
        }
        // The CoW break W-strips nothing, but it *repoints* the leaf: the
        // old read-only translation must leave every TLB before the fault
        // returns, so the queued flush drains immediately (a one-page
        // batch; deferral still wins when faults cluster before a drain).
        self.queue_flush_page(va, asid);
        self.drain_deferred_flushes();
        Ok(())
    }

    /// Breaks CoW on a huge mapping whole-block: a shared block is copied
    /// into a fresh private one and the level-1 leaf repointed; a sole owner
    /// just gets W restored. Either way the faulting process keeps its 2 MiB
    /// mapping — no split (Linux's `do_huge_pmd_wp_page` analogue).
    fn break_cow_huge(&mut self, pid: Pid, va: VirtAddr) -> Result<(), KernelError> {
        let base_vpn = (va.as_u64() >> PAGE_SHIFT) & !(HUGE_PAGE_SPAN - 1);
        let base_va = VirtAddr::new(base_vpn << PAGE_SHIFT);
        let (root, asid, m) = {
            let p = self.procs.get(pid).expect("exists");
            let m = *p.aspace.user.get(&base_vpn).expect("huge mapping present");
            (p.aspace.root, p.aspace.asid, m)
        };
        let new_flags = m.flags.with(PteFlags::W);
        let refs = self.page_refs.get(&m.ppn.as_u64()).copied().unwrap_or(1);
        let (slot, level) = self
            .find_leaf(root, base_va)?
            .ok_or(KernelError::BadAddress)?;
        debug_assert_eq!(level, 1, "huge CoW break on a non-huge leaf");
        if refs > 1 {
            let fresh = self.alloc_user_huge_block()?;
            for i in 0..HUGE_PAGE_SPAN {
                self.charge(CostKind::MemAccess, cost::ZERO_PAGE); // page copy
                self.raw_copy_page(
                    PhysPageNum::new(m.ppn.as_u64() + i),
                    PhysPageNum::new(fresh.as_u64() + i),
                )?;
            }
            self.page_refs.insert(fresh.as_u64(), 1);
            // ptstore-lint: hazard(shootdown-pairing) — COW break repoints the
            // leaf; the old read-only translation must not survive in any TLB.
            self.pt_write(slot, Pte::leaf(fresh, new_flags).bits())?;
            if let Some(p) = self.procs.get_mut(pid) {
                if let Some(sm) = p.aspace.user.get_mut(&base_vpn) {
                    sm.ppn = fresh;
                    sm.flags = new_flags;
                    sm.cow = false;
                }
            }
            self.put_user_huge_block(m.ppn)?;
        } else {
            self.pt_write(slot, Pte::leaf(m.ppn, new_flags).bits())?;
            if let Some(p) = self.procs.get_mut(pid) {
                if let Some(sm) = p.aspace.user.get_mut(&base_vpn) {
                    sm.flags = new_flags;
                    sm.cow = false;
                }
            }
        }
        // As in `break_cow`: the repointed span entry drains out of remote
        // TLBs before the faulting write retires.
        self.queue_flush_page(base_va, asid);
        self.drain_deferred_flushes();
        Ok(())
    }

    /// Simulates the current process touching `va`: translate through the
    /// real MMU (charging TLB misses), faulting and retrying as hardware
    /// would. Returns the translated physical address.
    pub fn touch_user(
        &mut self,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<ptstore_core::PhysAddr, KernelError> {
        for _attempt in 0..3 {
            let hart = self.active_hart;
            let satp = self.harts[hart].mmu.satp;
            let outcome = self.harts[hart].mmu.translate_data(
                &mut self.bus,
                va,
                kind,
                ptstore_core::PrivilegeMode::User,
            );
            match outcome {
                Ok(o) => {
                    if let ptstore_mmu::TranslationOutcome::Walk { fetches, .. } = o {
                        self.charge(CostKind::TlbMiss, cost::PTW_FETCH * fetches as u64);
                    }
                    let _ = satp;
                    return Ok(o.pa());
                }
                Err(TranslateError::PageFault { .. }) => {
                    self.handle_user_fault(va, kind)?;
                }
                Err(TranslateError::AccessFault(e)) => return Err(KernelError::Access(e)),
            }
        }
        Err(KernelError::SegFault)
    }

    /// Directly reads user memory as the kernel would for a syscall buffer
    /// (via the direct map; faults resolved like hardware).
    pub fn user_read_u64(&mut self, va: VirtAddr) -> Result<u64, KernelError> {
        let pa = self.touch_user(va, AccessKind::Read)?;
        let v = self.mem_read(pa)?;
        Ok(v)
    }

    /// Directly writes user memory (syscall copy-out path).
    pub fn user_write_u64(&mut self, va: VirtAddr, v: u64) -> Result<(), KernelError> {
        let pa = self.touch_user(va, AccessKind::Write)?;
        self.mem_write(pa, v)
    }
}

/// Converts VMA permissions to leaf PTE flags.
fn perms_to_flags(perms: VmPerms) -> PteFlags {
    let mut bits = PteFlags::V | PteFlags::U | PteFlags::A;
    if perms.read {
        bits |= PteFlags::R;
    }
    if perms.write {
        bits |= PteFlags::W | PteFlags::D;
    }
    if perms.exec {
        bits |= PteFlags::X;
    }
    PteFlags::from_bits(bits)
}

/// `VirtAddr::page_align_down` with the virt-addr return type (tiny helper
/// so the call site reads naturally).
trait PageAlignVa {
    fn page_align_down_va(self) -> VirtAddr;
}

impl PageAlignVa for VirtAddr {
    fn page_align_down_va(self) -> VirtAddr {
        VirtAddr::new(self.as_u64() & !(PAGE_SIZE - 1))
    }
}
