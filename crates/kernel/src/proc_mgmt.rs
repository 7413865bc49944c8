//! Process lifecycle: creation, fork with copy-on-write, exec, exit/wait,
//! demand paging, and scheduling (`copy_mm`/`switch_mm` of paper §IV-C4).

use std::collections::VecDeque;

use ptstore_core::{AccessKind, PhysAddr, PhysPageNum, VirtAddr, PAGE_SHIFT, PAGE_SIZE};
use ptstore_mmu::{Pte, PteFlags, TranslateError};

use crate::cycles::{cost, CostKind};
use crate::error::KernelError;
use crate::kernel::Kernel;
use crate::pagetable::{
    AddressSpace, UserMapping, USER_HEAP_BASE, USER_MMAP_BASE, USER_STACK_PAGES, USER_STACK_TOP,
    USER_TEXT_BASE,
};
use crate::process::{
    FdEntry, FdTable, Pid, ProcState, Process, SignalTable, VmArea, VmPerms, PCB_OFF_PID,
};
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
            vmas: program_vmas(),
            brk: USER_HEAP_BASE,
            mmap_cursor: USER_MMAP_BASE,
            fds: FdTable::with_std(),
            signals: SignalTable::default(),
            exit_code: 0,
            children: VecDeque::new(),
            mm_owner: None,
            threads: Vec::new(),
        };
        self.procs.insert(proc)?;
        self.mem_write(pcb_addr + PCB_OFF_PID, pid as u64)?;
        self.map_program_image(pid)?;
        // PCB pt pointer + token.
        let p = self.procs.live(pid)?;
        let (pt_slot, root) = (p.pt_ptr_slot(), p.aspace.root);
        self.mem_write(pt_slot, root.base_addr().as_u64())?;
        self.token_issue(pid)?;
        Ok(pid)
    }

    /// Maps the program image every `init` and `exec` starts from into
    /// `pid`'s empty user address space: the shared text page, then the
    /// eagerly populated stack pages.
    fn map_program_image(&mut self, pid: Pid) -> Result<(), KernelError> {
        let text = self.shared_text_ppn;
        *self.page_refs.entry(text.as_u64()).or_insert(0) += 1;
        self.map_user_leaf(
            pid,
            VirtAddr::new(USER_TEXT_BASE),
            small_leaf(text, PteFlags::user_rx()),
        )?;
        for i in 0..USER_STACK_PAGES {
            let page = self.alloc_page(GfpFlags::MOVABLE | GfpFlags::ZERO)?;
            *self.page_refs.entry(page.as_u64()).or_insert(0) += 1;
            let va = VirtAddr::new(USER_STACK_TOP - (i + 1) * PAGE_SIZE);
            self.map_user_leaf(pid, va, small_leaf(page, PteFlags::user_rw()))?;
        }
        Ok(())
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
        self.slab_alloc(GfpFlags::KERNEL, |k| Some(&mut k.pcb_slab))?
            .ok_or(KernelError::InvalidState)
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
        self.copy_kernel_half(root)?;
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
    /// [`DrainPolicy`](crate::drain::DrainPolicy). A no-op when nothing is
    /// queued.
    pub(crate) fn drain_on_asid_recycle(&mut self) {
        if self.asid_wrapped && self.pending_deferred_flushes() > 0 {
            self.stats.asid_recycle_drains += 1;
            self.drain_deferred_flushes();
        }
    }

    // ------------------------------------------------------------------
    // fork / exec / exit / wait
    // ------------------------------------------------------------------

    /// `fork()`: duplicates the current process with copy-on-write user
    /// pages; issues a fresh token for the child (paper §IV-C4 `copy_mm`).
    /// A fork the process table refuses allocates nothing, and a fork that
    /// fails later releases the half-built child as exit and wait would,
    /// so the process table and the zones are as they were.
    pub fn do_fork(&mut self) -> Result<Pid, KernelError> {
        self.charge(CostKind::Kernel, cost::FORK_BASE);
        let parent_pid = self.current_pid();
        let (vmas, brk, mmap_cursor, fds, signals) = {
            let p = self.procs.live(parent_pid)?;
            (
                p.vmas.clone(),
                p.brk,
                p.mmap_cursor,
                p.fds.clone(),
                p.signals.clone(),
            )
        };
        self.procs.admits(self.next_pid)?;
        let child_pid = self.allocate_pid();
        let child_aspace = self.create_address_space()?;
        let pcb_addr = self.alloc_pcb().or_else(|e| {
            self.free_pt_page(child_aspace.root)?;
            Err(e)
        })?;
        self.procs.insert(Process {
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
            children: VecDeque::new(),
            mm_owner: None,
            threads: Vec::new(),
        })?;
        if let Err(e) = self.fork_into(parent_pid, child_pid) {
            self.release_mm(child_pid)?;
            self.free_pcb(child_pid, pcb_addr)?;
            return Err(e);
        }
        if let Some(p) = self.procs.get_mut(parent_pid) {
            p.children.push_back(child_pid);
        }
        let hart = self.active_hart;
        self.harts[hart].run_queue.push_back(child_pid);
        // Publish the new process to the other harts (a visibility record;
        // idle harts learn the pid exists).
        for h in 0..self.harts.len() {
            self.post_hart_msg(h, crate::hart::HartMsgKind::ProcSpawned { pid: child_pid });
        }
        self.stats.forks += 1;
        Ok(child_pid)
    }

    /// Fills in the child `fork` has just entered into the process table:
    /// its share of the pipes and sockets its descriptors name, its PCB,
    /// every user leaf of the parent mapped copy-on-write, and its token.
    fn fork_into(&mut self, parent_pid: Pid, child_pid: Pid) -> Result<(), KernelError> {
        self.dup_fd_resources(child_pid)?;
        let (pcb_addr, pt_slot, root) = {
            let p = self.procs.live(child_pid)?;
            (p.pcb_addr, p.pt_ptr_slot(), p.aspace.root)
        };
        self.mem_write(pcb_addr + PCB_OFF_PID, child_pid as u64)?;
        let (parent_root, parent_asid, vpns) = {
            let p = self.procs.live(parent_pid)?;
            let vpns: Vec<u64> = p.aspace.user.keys().copied().collect();
            (p.aspace.root, p.aspace.asid, vpns)
        };
        let mut made_parent_ro = false;
        let copied = vpns.into_iter().try_for_each(|vpn| {
            self.fork_leaf(parent_pid, parent_root, child_pid, vpn, &mut made_parent_ro)
        });
        // Owed even when the copy failed partway: W is gone from the
        // parent's leaves up to that point.
        if made_parent_ro {
            self.tlb_flush_asid(parent_asid);
        }
        copied?;
        // PCB pt pointer + token for the child.
        self.mem_write(pt_slot, root.base_addr().as_u64())?;
        self.token_issue_as(child_pid, ptstore_trace::TokenOp::Copy)
    }

    /// Maps the parent's user leaf at `vpn` into the child copy-on-write,
    /// first stripping W from the parent's leaf (`made_parent_ro` records
    /// that a flush is owed).
    ///
    /// The parent's shadow entry is read afresh, and again once the child's
    /// slot exists: a table allocated for the child can grow the secure
    /// region, and the migration that makes room repoints the parent's
    /// shadow to the pages' new frames. The demand-fault and exec paths
    /// need no second read: they allocate the page before its table, the
    /// allocator hands out the lowest free page, and a migration needs free
    /// pages below the chunk it reserves, so no fresh page is ever in it.
    fn fork_leaf(
        &mut self,
        parent_pid: Pid,
        parent_root: PhysPageNum,
        child_pid: Pid,
        vpn: u64,
        made_parent_ro: &mut bool,
    ) -> Result<(), KernelError> {
        let parent_leaf = |k: &Self| {
            let p = k.procs.live(parent_pid)?;
            p.aspace
                .user
                .get(&vpn)
                .copied()
                .ok_or(KernelError::BadAddress)
        };
        let mapping = parent_leaf(self)?;
        let va = VirtAddr::new(vpn << PAGE_SHIFT);
        let (child_flags, share_cow) = if mapping.flags.writable() {
            (mapping.flags.without(PteFlags::W), true)
        } else {
            (mapping.flags, mapping.cow)
        };
        // Parent side: drop W for CoW.
        if mapping.flags.writable() {
            let slot = self.user_leaf_slot(parent_root, va, mapping.huge)?;
            self.pt_replace(slot, Pte::leaf(mapping.ppn, child_flags).bits())?
                .covered_by("tlb_flush_asid(parent_asid) after the loop");
            *made_parent_ro = true;
            let p = self.procs.live_mut(parent_pid)?;
            if let Some(m) = p.aspace.user.get_mut(&vpn) {
                m.flags = child_flags;
                m.cow = true;
            }
        }
        let slot = self.ensure_slot_at(child_pid, va, usize::from(mapping.huge))?;
        let ppn = parent_leaf(self)?.ppn;
        self.pt_install(slot, Pte::leaf(ppn, child_flags).bits())?;
        *self.page_refs.entry(ppn.as_u64()).or_insert(0) += 1;
        let p = self.procs.live_mut(child_pid)?;
        p.aspace.user.insert(
            vpn,
            UserMapping {
                ppn,
                flags: child_flags,
                cow: share_cow,
                ..mapping
            },
        );
        Ok(())
    }

    /// Adds `pid` as one more holder of every pipe end and socket its
    /// (inherited) descriptor table refers to.
    fn dup_fd_resources(&mut self, pid: Pid) -> Result<(), KernelError> {
        let entries: Vec<FdEntry> = {
            let p = self.procs.live(pid)?;
            p.fds.iter().copied().collect()
        };
        for e in entries {
            match e {
                FdEntry::PipeRead { id } => self.pipes.dup_end(id, false),
                FdEntry::PipeWrite { id } => self.pipes.dup_end(id, true),
                FdEntry::Socket { id } => {
                    if let Some(s) = self.sockets.get_mut(&id) {
                        s.holders += 1;
                    }
                }
                FdEntry::File { .. } | FdEntry::Console => {}
            }
        }
        Ok(())
    }

    /// `clone(CLONE_VM)`: creates a thread sharing the current process's
    /// address space. The new PCB carries the *same* page-table pointer,
    /// legitimised by its own **copied token** in the secure region — the
    /// paper's token-copy lifecycle event (§III-C3, §IV-C4).
    pub fn do_clone_thread(&mut self) -> Result<Pid, KernelError> {
        self.charge(CostKind::Kernel, cost::FORK_BASE / 2);
        self.charge(CostKind::Token, cost::TOKEN_COPY);
        let spawner = self.current_pid();
        let owner = self.mm_owner_of(spawner);
        let (fds, signals, brk, mmap_cursor) = {
            let p = self.procs.live(spawner)?;
            (p.fds.clone(), p.signals.clone(), p.brk, p.mmap_cursor)
        };
        self.procs.admits(self.next_pid)?;
        let tid = self.allocate_pid();
        let pcb_addr = self.alloc_pcb()?;
        let thread = Process {
            pid: tid,
            parent: Some(spawner),
            state: ProcState::Ready,
            pcb_addr,
            aspace: AddressSpace::default(), // shared: resolved via mm_owner
            vmas: Vec::new(),
            brk,
            mmap_cursor,
            fds,
            signals,
            exit_code: 0,
            children: VecDeque::new(),
            mm_owner: Some(owner),
            threads: Vec::new(),
        };
        let pt_slot = thread.pt_ptr_slot();
        self.procs.insert(thread)?;
        self.mem_write(pcb_addr + PCB_OFF_PID, tid as u64)?;
        self.dup_fd_resources(tid)?;
        // The shared page-table pointer, copied into the thread's PCB...
        let root = self.procs.live(owner)?.aspace.root;
        self.mem_write(pt_slot, root.base_addr().as_u64())?;
        // ...bound by the thread's own token (token copy).
        self.token_issue_as(tid, ptstore_trace::TokenOp::Copy)?;
        self.procs.live_mut(owner)?.threads.push(tid);
        self.procs.live_mut(spawner)?.children.push_back(tid);
        let hart = self.active_hart;
        self.harts[hart].run_queue.push_back(tid);
        for h in 0..self.harts.len() {
            self.post_hart_msg(h, crate::hart::HartMsgKind::ProcSpawned { pid: tid });
        }
        Ok(tid)
    }

    /// `execve()`: replaces the user address space with a fresh text+stack.
    ///
    /// # Errors
    /// [`KernelError::InvalidState`] from a thread: the model has no
    /// `de_thread`, so only an mm owner may replace its address space.
    pub fn do_exec(&mut self) -> Result<(), KernelError> {
        self.charge(CostKind::Kernel, cost::EXEC_BASE);
        let pid = self.current_pid();
        if self.mm_owner_of(pid) != pid {
            return Err(KernelError::InvalidState);
        }
        self.teardown_user_mappings(pid)?;
        {
            let p = self.procs.live_mut(pid)?;
            p.vmas = program_vmas();
            p.brk = USER_HEAP_BASE;
            p.mmap_cursor = USER_MMAP_BASE;
        }
        self.map_program_image(pid)?;
        self.stats.execs += 1;
        Ok(())
    }

    fn teardown_user_mappings(&mut self, pid: Pid) -> Result<(), KernelError> {
        let vpns: Vec<u64> = {
            let p = self.procs.live(pid)?;
            p.aspace.user.keys().copied().collect()
        };
        for vpn in vpns {
            let m = self.unmap_user_leaf(pid, VirtAddr::new(vpn << PAGE_SHIFT))?;
            self.put_user_leaf(m.ppn, m.huge)?;
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
            let p = self.procs.live(pid)?;
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
        } else {
            // An mm owner with live threads cannot release the address space.
            let has_threads = self.procs.get(pid).is_some_and(|p| !p.threads.is_empty());
            if has_threads {
                return Err(KernelError::InvalidState);
            }
            self.release_mm(pid)?;
        }
        {
            let p = self.procs.live_mut(pid)?;
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

    /// Releases everything an address-space owner holds but its PCB: its
    /// user leaves, descriptors, token and page-table pages (root last).
    fn release_mm(&mut self, pid: Pid) -> Result<(), KernelError> {
        self.teardown_user_mappings(pid)?;
        self.close_all_fds(pid)?;
        self.token_clear(pid)?;
        let pt_pages: Vec<PhysPageNum> = {
            let p = self.procs.live_mut(pid)?;
            std::mem::take(&mut p.aspace.pt_pages)
        };
        for ppn in pt_pages.into_iter().rev() {
            self.free_pt_page(ppn)?;
        }
        Ok(())
    }

    pub(crate) fn close_all_fds(&mut self, pid: Pid) -> Result<(), KernelError> {
        let fds = {
            let p = self.procs.live_mut(pid)?;
            std::mem::take(&mut p.fds)
        };
        for e in fds.iter() {
            self.release_fd_entry(e);
        }
        Ok(())
    }

    /// Drops one holder of the pipe end or socket behind a closed
    /// descriptor; the last holder's close removes it.
    pub(crate) fn release_fd_entry(&mut self, e: &FdEntry) {
        match *e {
            FdEntry::PipeRead { id } => self.pipes.close_end(id, false),
            FdEntry::PipeWrite { id } => self.pipes.close_end(id, true),
            FdEntry::Socket { id } => {
                if let Some(s) = self.sockets.get_mut(&id) {
                    s.holders = s.holders.saturating_sub(1);
                    if s.holders == 0 {
                        self.sockets.remove(&id);
                    }
                }
            }
            FdEntry::File { .. } | FdEntry::Console => {}
        }
    }

    /// `wait()`: reaps one zombie child, freeing its PCB; returns
    /// `(pid, exit_code)`.
    ///
    /// # Errors
    /// [`KernelError::InvalidState`] when no child is a zombie.
    pub fn do_wait(&mut self) -> Result<(Pid, i32), KernelError> {
        let parent = self.current_pid();
        let zombie = {
            let p = self.procs.live(parent)?;
            p.children.iter().enumerate().find_map(|(index, &c)| {
                let cp = self.procs.get(c)?;
                (cp.state == ProcState::Zombie).then_some((index, c, cp.pcb_addr, cp.exit_code))
            })
        };
        let Some((index, child, pcb_addr, code)) = zombie else {
            return Err(KernelError::InvalidState);
        };
        self.free_pcb(child, pcb_addr)?;
        // No run queue is pruned: `pick_next` drops the stale entry when it
        // reaches it (pids are never recycled). The other harts still learn
        // of the reap through their mailboxes.
        for h in 0..self.harts.len() {
            self.post_hart_msg(h, crate::hart::HartMsgKind::ProcReaped { pid: child });
        }
        let p = self.procs.live_mut(parent)?;
        p.children.remove(index);
        Ok((child, code))
    }

    /// Clears and releases `pid`'s PCB object (to this hart's magazine when
    /// the fast-path knob is on and it has room), then drops `pid` from the
    /// process table.
    fn free_pcb(&mut self, pid: Pid, pcb_addr: PhysAddr) -> Result<(), KernelError> {
        for off in (0..crate::process::PCB_SIZE).step_by(8) {
            self.mem_write(pcb_addr + off, 0)?;
        }
        if !(self.cfg.alloc_magazines && self.pcb_slab.magazine_put(self.active_hart, pcb_addr)) {
            self.pcb_slab.free(pcb_addr);
        }
        self.procs.remove(pid);
        Ok(())
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

    /// Forks one worker process per hart from hart 0, switches each hart
    /// to its worker and leaves hart 0 active: the prologue of the SMP
    /// drivers, the model machine and every fault-campaign run. Returns
    /// the workers' pids, worker `h` at index `h`.
    pub fn spawn_workers(&mut self) -> Result<Vec<Pid>, KernelError> {
        self.set_active_hart(0);
        let workers = (0..self.harts.len())
            .map(|_| self.sys_fork())
            .collect::<Result<Vec<_>, _>>()?;
        for (h, &w) in workers.iter().enumerate() {
            self.set_active_hart(h);
            self.do_switch_to(w)?;
        }
        self.set_active_hart(0);
        Ok(workers)
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
            let p = self.procs.live(pid)?;
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
                self.break_cow(pid, va)?;
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
                let leaf = small_leaf(page, perms_to_flags(perms));
                self.map_user_leaf(pid, va.page_align_down(), leaf)?;
                self.stats.demand_faults += 1;
                Ok(FaultResolution::DemandMapped)
            }
        }
    }

    /// Breaks copy-on-write on the user leaf covering `va`. A shared leaf
    /// is repointed at a private copy, and a sole owner just gets W back.
    /// Either way a 2 MiB block stays mapped whole: no split (Linux's
    /// `do_huge_pmd_wp_page` analogue).
    fn break_cow(&mut self, pid: Pid, va: VirtAddr) -> Result<(), KernelError> {
        let (root, asid, (vpn, m)) = {
            let p = self.procs.live(pid)?;
            let leaf = p.aspace.leaf(va).ok_or(KernelError::BadAddress)?;
            (p.aspace.root, p.aspace.asid, leaf)
        };
        let leaf_va = VirtAddr::new(vpn << PAGE_SHIFT);
        let shared = self.page_refs.get(&m.ppn.as_u64()).copied().unwrap_or(1) > 1;
        let slot = self.user_leaf_slot(root, leaf_va, m.huge)?;
        let ppn = if shared {
            self.copy_user_leaf(m.ppn, m.huge)?
        } else {
            m.ppn
        };
        let flags = m.flags.with(PteFlags::W);
        let flush = self.pt_replace(slot, Pte::leaf(ppn, flags).bits())?;
        if let Some(p) = self.procs.get_mut(pid) {
            if let Some(sm) = p.aspace.user.get_mut(&vpn) {
                sm.ppn = ppn;
                sm.flags = flags;
                sm.cow = false;
            }
        }
        if shared {
            self.put_user_leaf(m.ppn, m.huge)?;
        }
        // The break W-strips nothing, but it *repoints* the leaf: the old
        // read-only translation must leave every TLB before the fault
        // returns, so the queued flush drains immediately (a one-page
        // batch; deferral still wins when faults cluster before a drain).
        flush.queue(self, leaf_va, asid);
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

/// The areas of the program image `init` and `exec` start from: text,
/// an empty heap that `brk` grows, and the stack.
fn program_vmas() -> Vec<VmArea> {
    vec![
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
    ]
}

/// A private, non-CoW 4 KiB leaf of `ppn`.
fn small_leaf(ppn: PhysPageNum, flags: PteFlags) -> UserMapping {
    UserMapping {
        ppn,
        flags,
        cow: false,
        huge: false,
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

#[cfg(test)]
mod tests {
    use ptstore_core::{PhysAddr, MIB};
    use ptstore_mmu::Pte;
    use ptstore_trace::{Access, Chan, TraceEvent, TraceSink, Verdict};

    use crate::config::KernelConfig;
    use crate::kernel::Kernel;

    fn boot() -> Kernel {
        Kernel::boot(
            KernelConfig::cfi_ptstore()
                .with_mem_size(256 * MIB)
                .with_initial_secure_size(16 * MIB),
        )
        .expect("boot")
    }

    #[test]
    fn fork_reads_every_kernel_half_slot_and_installs_each_valid_one_after_its_read() {
        let mut k = boot();
        let sink = TraceSink::new();
        k.set_trace_sink(Some(sink.clone()));
        let child = k.sys_fork().expect("fork");
        let root = k.procs.get(child).expect("child").aspace.root;
        let slot_of = |table: ptstore_core::PhysPageNum, i: u64| table.base_addr().as_u64() + 8 * i;
        let src = |i| slot_of(k.kernel_root, i);
        let events = sink.events();
        let first = events
            .iter()
            .position(|e| matches!(e, TraceEvent::PmpCheck { addr, .. } if *addr == src(256)))
            .expect("fork reads slot 256");
        let mut next = events[first..].iter();
        let mut installed = 0;
        for i in 256..512 {
            assert_eq!(
                next.next(),
                Some(&TraceEvent::PmpCheck {
                    addr: src(i),
                    kind: Access::Read,
                    channel: Chan::SecurePt,
                    entry: Some(1),
                    verdict: Verdict::Allowed,
                }),
                "slot {i}"
            );
            assert_eq!(
                next.next(),
                Some(&TraceEvent::BusRead {
                    addr: src(i),
                    width: 8,
                    channel: Chan::SecurePt,
                }),
                "slot {i}"
            );
            let raw = k.bus.mem().read_u64(PhysAddr::new(src(i))).expect("slot");
            if Pte::from_bits(raw).is_valid() {
                let dst = slot_of(root, i);
                assert!(
                    matches!(next.next(), Some(TraceEvent::PmpCheck { addr, kind: Access::Write, .. }) if *addr == dst),
                    "slot {i}"
                );
                assert!(
                    matches!(next.next(), Some(TraceEvent::BusWrite { addr, .. }) if *addr == dst),
                    "slot {i}"
                );
                assert_eq!(k.bus.mem().read_u64(PhysAddr::new(dst)), Ok(raw));
                installed += 1;
            }
        }
        // A 256 MiB direct map is one GiB-level entry under Sv39.
        assert_eq!(installed, 1);
    }

    #[test]
    fn exit_closes_every_descriptor() {
        // 140 pipes put descriptors up to fd 282.
        let mut k = boot();
        let child = k.sys_fork().expect("fork");
        k.do_switch_to(child).expect("switch");
        let last = (0..140).map(|_| k.sys_pipe().expect("pipe")).last();
        assert_eq!(last, Some((281, 282)));
        k.sys_exit(0).expect("exit");
        k.sys_wait().expect("reap");
        assert_eq!(k.pipes.len(), 0, "pipes outlive their only holder");
    }

    #[test]
    fn the_last_holder_removes_a_socket() {
        let mut k = boot();
        let fd = k.sys_accept(8).expect("accept");
        let child = k.sys_fork().expect("fork");
        k.sys_close(fd).expect("parent closes");
        assert_eq!(k.sockets.len(), 1, "the child still holds it");
        k.do_switch_to(child).expect("switch");
        k.sys_exit(0).expect("exit");
        k.sys_wait().expect("reap");
        assert!(k.sockets.is_empty());
    }
}
