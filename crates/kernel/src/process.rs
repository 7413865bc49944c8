//! Processes, PCBs materialised in simulated memory, and VM areas — plus
//! the **process table**.
//!
//! The fields PTStore cares about — the **page-table pointer** and the
//! **token pointer** — live at fixed offsets inside a PCB object in *normal*
//! (attackable) physical memory, exactly as `task_struct`/`mm_struct` fields
//! do in Linux. The attacker's arbitrary-write primitive can corrupt them;
//! the token in the secure region is what catches it (paper §III-C3, Fig. 3).
//!
//! ## The table
//!
//! [`ProcessTable`] is one vector indexed by pid plus a live count. The
//! kernel hands out pids in sequence and never reuses one, so a pid is
//! already a handle that cannot alias a later process: a reaped pid's
//! entry stays empty for good, and lookup is one index. Walking the vector
//! visits processes in pid order, the order the oracle, the model
//! checker's canonical walk and the migration index depend on. The vector
//! grows with the largest pid inserted, one pointer per pid, so the many
//! short-lived kernels the test and bench harnesses boot pay for the pids
//! they use, not for the fork-stress capacity.

use std::collections::VecDeque;

use ptstore_core::{PhysAddr, VirtAddr};

use crate::error::KernelError;
use crate::pagetable::AddressSpace;

/// Process identifier.
pub type Pid = u32;

/// PCB object size in the PCB slab (bytes).
pub const PCB_SIZE: u64 = 256;

/// Byte offset of the page-table (root) pointer field in a PCB.
pub const PCB_OFF_PT_PTR: u64 = 0x08;

/// Byte offset of the token pointer field in a PCB.
pub const PCB_OFF_TOKEN_PTR: u64 = 0x10;

/// Byte offset of the pid field in a PCB.
pub const PCB_OFF_PID: u64 = 0x00;

/// Byte offset of the saved user program counter.
pub const PCB_OFF_UPC: u64 = 0x18;

/// Scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcState {
    /// Currently on the (single) hart.
    Running,
    /// Runnable, waiting in the queue.
    Ready,
    /// Blocked (pipe/select/wait).
    Blocked,
    /// Exited, awaiting `wait()` by the parent.
    Zombie,
}

/// Per-VMA permissions (the VM metadata the §V-E4 attack targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmPerms {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl VmPerms {
    /// Read/write data.
    pub const RW: VmPerms = VmPerms {
        read: true,
        write: true,
        exec: false,
    };
    /// Read/execute text.
    pub const RX: VmPerms = VmPerms {
        read: true,
        write: false,
        exec: true,
    };
    /// Read-only.
    pub const RO: VmPerms = VmPerms {
        read: true,
        write: false,
        exec: false,
    };
}

/// A user virtual memory area (demand-paged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmArea {
    /// Inclusive page-aligned start.
    pub start: u64,
    /// Exclusive end.
    pub end: u64,
    /// Area permissions.
    pub perms: VmPerms,
}

impl VmArea {
    /// True when `va` lies inside the area.
    pub fn contains(&self, va: VirtAddr) -> bool {
        (self.start..self.end).contains(&va.as_u64())
    }
}

/// An open file description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdEntry {
    /// Regular file in the ramfs.
    File {
        /// File name (ramfs key).
        name: String,
        /// Current offset.
        offset: u64,
    },
    /// Read end of a pipe.
    PipeRead {
        /// Pipe id.
        id: u32,
    },
    /// Write end of a pipe.
    PipeWrite {
        /// Pipe id.
        id: u32,
    },
    /// The console (stdout/stderr model).
    Console,
    /// A connected network socket (NGINX/Redis workload model).
    Socket {
        /// Socket id in the kernel socket table.
        id: u32,
    },
}

/// A per-process descriptor table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FdTable {
    entries: Vec<Option<FdEntry>>,
}

impl FdTable {
    /// An empty table with stdin/stdout/stderr wired to the console.
    pub fn with_std() -> Self {
        Self {
            entries: vec![
                Some(FdEntry::Console),
                Some(FdEntry::Console),
                Some(FdEntry::Console),
            ],
        }
    }

    /// Installs `entry` in the lowest free slot, returning the fd.
    pub fn insert(&mut self, entry: FdEntry) -> i32 {
        for (i, e) in self.entries.iter_mut().enumerate() {
            if e.is_none() {
                *e = Some(entry);
                return i as i32;
            }
        }
        self.entries.push(Some(entry));
        (self.entries.len() - 1) as i32
    }

    /// Looks up an fd.
    pub fn get(&self, fd: i32) -> Option<&FdEntry> {
        usize::try_from(fd)
            .ok()
            .and_then(|i| self.entries.get(i))
            .and_then(Option::as_ref)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, fd: i32) -> Option<&mut FdEntry> {
        usize::try_from(fd)
            .ok()
            .and_then(|i| self.entries.get_mut(i))
            .and_then(Option::as_mut)
    }

    /// Removes an fd, returning its entry.
    pub fn remove(&mut self, fd: i32) -> Option<FdEntry> {
        usize::try_from(fd)
            .ok()
            .and_then(|i| self.entries.get_mut(i))
            .and_then(Option::take)
    }

    /// The open descriptions, in fd order.
    pub fn iter(&self) -> impl Iterator<Item = &FdEntry> {
        self.entries.iter().flatten()
    }
}

/// Signal disposition (install/catch latency is what LMBench measures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SigAction {
    /// Default disposition.
    #[default]
    Default,
    /// Ignored.
    Ignore,
    /// A user handler is installed (the model stores only the fact).
    Handler,
}

/// Per-process signal state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SignalTable {
    /// Dispositions for signals 1–31.
    pub actions: [SigAction; 32],
    /// Pending signal bitmap.
    pub pending: u32,
    /// Number of signals delivered to handlers (catch-latency accounting).
    pub caught: u64,
}

/// One process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent pid (pid 1 has none).
    pub parent: Option<Pid>,
    /// Scheduling state.
    pub state: ProcState,
    /// Physical address of the PCB object in the PCB slab.
    pub pcb_addr: PhysAddr,
    /// The address space.
    pub aspace: AddressSpace,
    /// VM areas (text/heap/stack/mmap).
    pub vmas: Vec<VmArea>,
    /// Current `brk`.
    pub brk: u64,
    /// Next mmap allocation cursor.
    pub mmap_cursor: u64,
    /// Open files.
    pub fds: FdTable,
    /// Signal state.
    pub signals: SignalTable,
    /// Exit code once zombie.
    pub exit_code: i32,
    /// Children pids, oldest first.
    pub children: VecDeque<Pid>,
    /// For a thread: the pid owning the shared address space (`None` for
    /// the mm owner itself). The thread's PCB carries the *same* page-table
    /// pointer, bound by its own **copied token** (paper §III-C3: "copy the
    /// token whenever the page table pointer ... is legitimately copied").
    pub mm_owner: Option<Pid>,
    /// Threads sharing this process's address space.
    pub threads: Vec<Pid>,
}

impl Process {
    /// Physical address of this PCB's page-table-pointer field.
    pub fn pt_ptr_slot(&self) -> PhysAddr {
        self.pcb_addr + PCB_OFF_PT_PTR
    }

    /// Physical address of this PCB's token-pointer field — the address a
    /// valid token's user pointer must point back to (paper Fig. 3).
    pub fn token_slot(&self) -> PhysAddr {
        self.pcb_addr + PCB_OFF_TOKEN_PTR
    }

    /// Finds the VMA containing `va`.
    pub fn vma_for(&self, va: VirtAddr) -> Option<&VmArea> {
        self.vmas.iter().find(|v| v.contains(va))
    }

    /// Mutable VMA lookup (the §V-E4 attack mutates these).
    pub fn vma_for_mut(&mut self, va: VirtAddr) -> Option<&mut VmArea> {
        self.vmas.iter_mut().find(|v| v.contains(va))
    }
}

/// Live-entry capacity of the process table: the paper's 30 000-process
/// fork stress with headroom.
pub const PROC_TABLE_CAPACITY: usize = 65_536;

/// What a caller holds to refer to a process: its pid. Pids are never
/// reused, so a reaped process's pid resolves to nothing from then on.
/// The alias, [`crate::Kernel::proc_handle`] and
/// [`crate::Kernel::resolve_handle`] remain because perfbench's
/// tenant-churn workload still calls them.
pub type ProcHandle = Pid;

/// Why [`ProcessTable::insert`] refused a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// A live entry with this pid already exists.
    DuplicatePid(Pid),
    /// [`PROC_TABLE_CAPACITY`] entries are live.
    Full,
}

/// The process table: one pid-indexed vector (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ProcessTable {
    /// Entry `pid` holds that process while it is live. Boxed, so a pid
    /// that was reaped or never used costs one pointer.
    by_pid: Vec<Option<Box<Process>>>,
    /// Live entries.
    live: usize,
}

impl ProcessTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Refuses `pid` exactly when [`Self::insert`] would, so a caller can
    /// ask before it allocates what the new entry will own.
    ///
    /// # Errors
    /// [`TableError::DuplicatePid`] when a live entry with the same pid
    /// exists; [`TableError::Full`] when [`PROC_TABLE_CAPACITY`] entries
    /// are live.
    pub fn admits(&self, pid: Pid) -> Result<(), TableError> {
        if self.get(pid).is_some() {
            Err(TableError::DuplicatePid(pid))
        } else if self.live >= PROC_TABLE_CAPACITY {
            Err(TableError::Full)
        } else {
            Ok(())
        }
    }

    /// Inserts a process.
    ///
    /// # Errors
    /// As [`Self::admits`]; a refused process is dropped.
    pub fn insert(&mut self, p: Process) -> Result<(), TableError> {
        self.admits(p.pid)?;
        let i = p.pid as usize;
        if self.by_pid.len() <= i {
            self.by_pid.resize_with(i + 1, || None);
        }
        self.by_pid[i] = Some(Box::new(p));
        self.live += 1;
        Ok(())
    }

    /// Immutable pid lookup (O(1)).
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.by_pid.get(pid as usize)?.as_deref()
    }

    /// Mutable pid lookup.
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.by_pid.get_mut(pid as usize)?.as_deref_mut()
    }

    /// The live process `pid`.
    ///
    /// # Errors
    /// [`KernelError::NoSuchProcess`] when `pid` is not live.
    pub fn live(&self, pid: Pid) -> Result<&Process, KernelError> {
        self.get(pid).ok_or(KernelError::NoSuchProcess)
    }

    /// As [`Self::live`], mutably.
    ///
    /// # Errors
    /// [`KernelError::NoSuchProcess`] when `pid` is not live.
    pub fn live_mut(&mut self, pid: Pid) -> Result<&mut Process, KernelError> {
        self.get_mut(pid).ok_or(KernelError::NoSuchProcess)
    }

    /// Removes a process (final reap).
    pub fn remove(&mut self, pid: Pid) -> Option<Process> {
        let p = self.by_pid.get_mut(pid as usize)?.take()?;
        self.live -= 1;
        Some(*p)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates pids in ascending order (deterministic; the oracle and the
    /// stats walk depend on it).
    pub fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.iter().map(|p| p.pid)
    }

    /// Iterates processes in pid order.
    pub fn iter(&self) -> impl Iterator<Item = &Process> {
        self.by_pid.iter().filter_map(Option::as_deref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(
        clippy::assertions_on_constants,
        reason = "the layout *is* the constant under test"
    )]
    fn pcb_field_offsets_are_pointer_aligned() {
        // §V-E2 relies on PCB/token fields being 8-byte aligned.
        assert_eq!(PCB_OFF_PT_PTR % 8, 0);
        assert_eq!(PCB_OFF_TOKEN_PTR % 8, 0);
        assert!(PCB_OFF_TOKEN_PTR < PCB_SIZE);
    }

    #[test]
    fn fd_table_reuses_lowest_slot() {
        let mut t = FdTable::with_std();
        let a = t.insert(FdEntry::Console);
        assert_eq!(a, 3);
        let b = t.insert(FdEntry::Console);
        assert_eq!(b, 4);
        t.remove(a);
        let c = t.insert(FdEntry::Console);
        assert_eq!(c, 3, "lowest free slot is reused");
        assert_eq!(t.iter().count(), 5);
        assert!(t.get(99).is_none());
        assert!(t.get(-1).is_none());
    }

    #[test]
    fn vma_lookup() {
        let vma = VmArea {
            start: 0x1000,
            end: 0x3000,
            perms: VmPerms::RW,
        };
        assert!(vma.contains(VirtAddr::new(0x1000)));
        assert!(vma.contains(VirtAddr::new(0x2fff)));
        assert!(!vma.contains(VirtAddr::new(0x3000)));
    }

    fn proc(pid: Pid) -> Process {
        Process {
            pid,
            parent: None,
            state: ProcState::Running,
            pcb_addr: PhysAddr::new(0x1000),
            aspace: AddressSpace::default(),
            vmas: Vec::new(),
            brk: 0,
            mmap_cursor: 0,
            fds: FdTable::with_std(),
            signals: SignalTable::default(),
            exit_code: 0,
            children: VecDeque::new(),
            mm_owner: None,
            threads: Vec::new(),
        }
    }

    #[test]
    fn process_table_basics() {
        let mut t = ProcessTable::new();
        assert!(t.is_empty());
        t.insert(proc(1)).expect("fresh pid");
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(1).unwrap().pid, 1);
        let slot = t.get(1).unwrap().token_slot();
        assert_eq!(slot, PhysAddr::new(0x1000 + PCB_OFF_TOKEN_PTR));
        assert!(t.remove(1).is_some());
        assert!(t.is_empty());
    }

    #[test]
    fn duplicate_pid_is_an_error_not_a_panic() {
        let mut t = ProcessTable::new();
        t.insert(proc(7)).expect("fresh pid");
        assert_eq!(t.insert(proc(7)), Err(TableError::DuplicatePid(7)));
        assert_eq!(t.len(), 1, "the live entry is untouched");
    }

    #[test]
    fn stale_handle_mismatches_after_reap() {
        let mut t = ProcessTable::new();
        t.insert(proc(3)).expect("insert");
        t.insert(proc(4)).expect("insert");
        assert!(t.remove(3).is_some());
        assert!(t.get(3).is_none(), "a reaped pid resolves to nothing");
        assert!(t.remove(3).is_none());
        assert_eq!(t.get(4).map(|p| p.pid), Some(4), "its neighbour stays");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn full_at_capacity_live_entries() {
        let mut t = ProcessTable::new();
        for pid in 1..=PROC_TABLE_CAPACITY as Pid {
            t.insert(proc(pid)).expect("below capacity");
        }
        let next = PROC_TABLE_CAPACITY as Pid + 1;
        assert_eq!(t.admits(next), Err(TableError::Full));
        assert_eq!(t.insert(proc(next)), Err(TableError::Full));
        assert_eq!(t.admits(1), Err(TableError::DuplicatePid(1)));
        t.remove(1).expect("reap");
        t.insert(proc(next)).expect("a reap makes room");
        assert_eq!(t.len(), PROC_TABLE_CAPACITY);
    }

    #[test]
    fn iteration_stays_pid_ordered() {
        let mut t = ProcessTable::new();
        for pid in [5, 3, 8] {
            t.insert(proc(pid)).expect("insert");
        }
        t.remove(3).expect("reap");
        t.insert(proc(2)).expect("insert");
        let pids: Vec<Pid> = t.pids().collect();
        assert_eq!(pids, [2, 5, 8], "pid order, not insertion order");
        let via_iter: Vec<Pid> = t.iter().map(|p| p.pid).collect();
        assert_eq!(via_iter, [2, 5, 8]);
    }
}
