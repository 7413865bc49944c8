//! Processes, PCBs materialised in simulated memory, and VM areas — plus the
//! **generational slot-array process table**.
//!
//! The fields PTStore cares about — the **page-table pointer** and the
//! **token pointer** — live at fixed offsets inside a PCB object in *normal*
//! (attackable) physical memory, exactly as `task_struct`/`mm_struct` fields
//! do in Linux. The attacker's arbitrary-write primitive can corrupt them;
//! the token in the secure region is what catches it (paper §III-C3, Fig. 3).
//!
//! ## The table
//!
//! [`ProcessTable`] is a slot array. Each slot carries a monotonically
//! increasing **generation counter** (even = vacant, odd = occupied); a pid
//! lookup returns a [`ProcHandle`]`{ slot, gen }` instead of a raw map
//! reference, and resolving a handle is one index plus one compare. A
//! reaped slot's generation advances and never repeats, so a stale handle
//! can only *mismatch* — the ABA resolution a `BTreeMap<Pid, Process>`
//! cannot express — and the slot is free for reuse at once. The slot
//! vector grows with the peak number of live processes, so the many
//! short-lived kernels the test and bench harnesses boot pay for the
//! handful of slots they use, not for the fork-stress capacity.

use std::collections::{BTreeMap, VecDeque};

use ptstore_core::{PhysAddr, VirtAddr};
use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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

    /// Number of open descriptors.
    pub fn open_count(&self) -> usize {
        self.iter().count()
    }

    /// The open descriptions, in fd order.
    pub fn iter(&self) -> impl Iterator<Item = &FdEntry> {
        self.entries.iter().flatten()
    }
}

/// Signal disposition (install/catch latency is what LMBench measures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// Fixed slot capacity of the process table: the paper's 30 000-process
/// fork stress with headroom.
pub const PROC_TABLE_CAPACITY: usize = 65_536;

/// Sentinel in the dense pid index: "pid has no slot".
const SLOT_NONE: u32 = u32::MAX;

/// A generational reference to a process-table slot.
///
/// The handle stays valid exactly as long as the slot's generation counter
/// equals `gen`. Once the process is reaped the generation advances (and
/// never repeats for the slot), so a stale handle *detects* its staleness
/// instead of silently resolving to whatever process reused the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcHandle {
    /// Slot index in the table.
    pub slot: u32,
    /// Generation the slot had when the handle was issued (always odd).
    pub gen: u32,
}

/// Why [`ProcessTable::insert`] refused a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// A live entry with this pid already exists.
    DuplicatePid(Pid),
    /// Every slot up to [`PROC_TABLE_CAPACITY`] is live.
    Full,
}

/// One table slot: its generation and, while occupied, its process.
#[derive(Debug, Clone)]
struct Slot {
    /// Even = vacant, odd = occupied; advances on every insert and remove.
    gen: u32,
    /// Boxed so a vacant slot costs one pointer, not a whole `Process`.
    proc: Option<Box<Process>>,
}

/// The process table: a generational slot array (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ProcessTable {
    /// Slots ever used; the vector grows only when no freed slot is left.
    slots: Vec<Slot>,
    /// Dense pid → slot index (O(1) hot-path lookup; pids are small and
    /// allocated sequentially).
    pid_slots: Vec<u32>,
    /// Ordered pid → slot map, kept solely so `pids()`/`iter()` walk in
    /// deterministic pid order (oracle and stats depend on that order).
    by_pid: BTreeMap<Pid, u32>,
    /// Vacant slots ready for reuse.
    free: Vec<u32>,
}

impl ProcessTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Slot index for `pid`, if live.
    #[inline]
    fn slot_of(&self, pid: Pid) -> Option<u32> {
        match self.pid_slots.get(pid as usize) {
            Some(&s) if s != SLOT_NONE => Some(s),
            _ => None,
        }
    }

    /// Picks a slot for a new entry: freed slots first, then fresh ones.
    fn claim_slot(&mut self) -> Option<u32> {
        if let Some(s) = self.free.pop() {
            return Some(s);
        }
        if self.slots.len() < PROC_TABLE_CAPACITY {
            self.slots.push(Slot { gen: 0, proc: None });
            return Some((self.slots.len() - 1) as u32);
        }
        None
    }

    /// Inserts a process.
    ///
    /// # Errors
    /// [`TableError::DuplicatePid`] when a live entry with the same pid
    /// exists; [`TableError::Full`] when every slot is live.
    pub fn insert(&mut self, p: Process) -> Result<ProcHandle, TableError> {
        let pid = p.pid;
        if self.slot_of(pid).is_some() {
            return Err(TableError::DuplicatePid(pid));
        }
        let Some(slot) = self.claim_slot() else {
            return Err(TableError::Full);
        };
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.proc.is_none(), "claimed slot must be vacant");
        s.proc = Some(Box::new(p));
        s.gen += 1;
        debug_assert_eq!(s.gen % 2, 1, "occupied generation must be odd");
        let gen = s.gen;
        if self.pid_slots.len() <= pid as usize {
            self.pid_slots.resize(pid as usize + 1, SLOT_NONE);
        }
        self.pid_slots[pid as usize] = slot;
        self.by_pid.insert(pid, slot);
        Ok(ProcHandle { slot, gen })
    }

    /// The live handle for `pid`, if any (O(1)).
    pub fn lookup(&self, pid: Pid) -> Option<ProcHandle> {
        let slot = self.slot_of(pid)?;
        let gen = self.slots[slot as usize].gen;
        debug_assert_eq!(gen % 2, 1, "indexed slot must be occupied");
        Some(ProcHandle { slot, gen })
    }

    /// Resolves a handle, failing on generation mismatch (stale handle).
    pub fn resolve(&self, h: ProcHandle) -> Option<&Process> {
        self.slots
            .get(h.slot as usize)
            .filter(|s| s.gen == h.gen)?
            .proc
            .as_deref()
    }

    /// Mutable handle resolution.
    pub fn resolve_mut(&mut self, h: ProcHandle) -> Option<&mut Process> {
        self.slots
            .get_mut(h.slot as usize)
            .filter(|s| s.gen == h.gen)?
            .proc
            .as_deref_mut()
    }

    /// Immutable pid lookup (O(1) through the dense index).
    pub fn get(&self, pid: Pid) -> Option<&Process> {
        self.slot_of(pid)
            .and_then(|s| self.slots[s as usize].proc.as_deref())
    }

    /// Mutable pid lookup.
    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut Process> {
        self.slot_of(pid)
            .and_then(|s| self.slots[s as usize].proc.as_deref_mut())
    }

    /// Removes a process (final reap): the slot's generation advances (odd →
    /// even, invalidating every outstanding handle) and the slot goes
    /// straight onto the free list.
    pub fn remove(&mut self, pid: Pid) -> Option<Process> {
        let slot = self.slot_of(pid)?;
        let s = &mut self.slots[slot as usize];
        let p = s.proc.take().map(|b| *b)?;
        s.gen += 1;
        debug_assert_eq!(s.gen % 2, 0, "vacant generation must be even");
        self.pid_slots[pid as usize] = SLOT_NONE;
        self.by_pid.remove(&pid);
        self.free.push(slot);
        Some(p)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.by_pid.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.by_pid.is_empty()
    }

    /// Iterates pids in ascending order (deterministic; the oracle and the
    /// stats walk depend on it).
    pub fn pids(&self) -> impl Iterator<Item = Pid> + '_ {
        self.by_pid.keys().copied()
    }

    /// Iterates processes in pid order.
    pub fn iter(&self) -> impl Iterator<Item = &Process> {
        self.by_pid
            .values()
            .filter_map(|&s| self.slots[s as usize].proc.as_deref())
    }

    /// Iterates `(handle, process)` pairs in pid order — the slot-array walk
    /// the invariant oracle uses to re-derive the satp↔token↔PCB binding.
    pub fn handles(&self) -> impl Iterator<Item = (ProcHandle, &Process)> {
        self.by_pid.values().filter_map(|&slot| {
            let s = &self.slots[slot as usize];
            s.proc
                .as_deref()
                .map(|p| (ProcHandle { slot, gen: s.gen }, p))
        })
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
        assert_eq!(t.open_count(), 5);
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
        let h = t.insert(proc(3)).expect("insert");
        assert_eq!(t.resolve(h).unwrap().pid, 3);
        assert!(t.remove(3).is_some());
        assert!(t.resolve(h).is_none(), "gen advanced on reap");
        assert!(t.lookup(3).is_none());
        // Reuse the slot for a different pid: the old handle must still
        // mismatch (the ABA case).
        let h2 = t.insert(proc(4)).expect("insert after reap");
        assert_eq!(h.slot, h2.slot, "the freed slot is reused");
        assert_ne!(h.gen, h2.gen, "generation never repeats");
        assert!(t.resolve(h).is_none());
        assert_eq!(t.resolve(h2).unwrap().pid, 4);
    }

    #[test]
    fn reaped_slot_is_reused_before_the_table_grows() {
        let mut t = ProcessTable::new();
        let a = t.insert(proc(1)).expect("insert");
        let b = t.insert(proc(2)).expect("insert");
        // One-at-a-time churn next to a long-lived entry: every reap frees
        // its slot at once, so the table never needs a third slot.
        let mut prev = b;
        for pid in 3..50 {
            t.remove(pid - 1).expect("reap");
            let h = t.insert(proc(pid)).expect("insert");
            assert_eq!(h.slot, b.slot, "pid {pid} reuses the reaped slot");
            assert_eq!(h.gen, prev.gen + 2, "one vacant generation in between");
            prev = h;
        }
        assert_eq!(
            t.resolve(a).unwrap().pid,
            1,
            "the long-lived entry is untouched"
        );
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn iteration_stays_pid_ordered_across_slot_reuse() {
        let mut t = ProcessTable::new();
        for pid in [5, 3, 8] {
            t.insert(proc(pid)).expect("insert");
        }
        t.remove(3).expect("reap");
        t.insert(proc(2)).expect("reuses slot of pid 3");
        let pids: Vec<Pid> = t.pids().collect();
        assert_eq!(pids, [2, 5, 8], "pid order, not slot order");
        let via_handles: Vec<Pid> = t.handles().map(|(_, p)| p.pid).collect();
        assert_eq!(via_handles, [2, 5, 8]);
        for (h, p) in t.handles() {
            assert_eq!(t.resolve(h).unwrap().pid, p.pid);
        }
    }
}
