//! Property tests for the generational process table.
//!
//! The table's whole point is that a handle to a reaped process *detects*
//! its staleness instead of silently resolving to whatever reused the
//! slot. Random insert/reap schedules drive the table and check, after
//! every step, that per-slot generations only grow, that no retired handle
//! resolves again, that the pid index, handle resolution and the slot walk
//! agree, and that freed slots are reused before the table grows.

use std::collections::{HashMap, VecDeque};

use proptest::collection::vec;
use proptest::prelude::*;
use ptstore_core::PhysAddr;
use ptstore_kernel::pagetable::AddressSpace;
use ptstore_kernel::process::{FdTable, Process, SignalTable};
use ptstore_kernel::{Pid, ProcHandle, ProcState, ProcessTable};

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

/// One step of a random table schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(Pid),
    Remove(Pid),
}

fn schedule() -> impl Strategy<Value = Vec<Op>> {
    vec(
        prop_oneof![
            (1..24u32).prop_map(Op::Insert),
            (1..24u32).prop_map(Op::Remove),
        ],
        1..120,
    )
}

/// What one step did to the table.
enum Step {
    Inserted(ProcHandle),
    Retired(Pid, ProcHandle),
    Nothing,
}

fn step(t: &mut ProcessTable, op: Op) -> Step {
    match op {
        // Duplicate pids are a clean error, never a panic.
        Op::Insert(pid) => t.insert(proc(pid)).map_or(Step::Nothing, Step::Inserted),
        Op::Remove(pid) => match t.lookup(pid) {
            Some(h) => {
                assert!(t.remove(pid).is_some());
                Step::Retired(pid, h)
            }
            None => Step::Nothing,
        },
    }
}

proptest! {
    /// Every handle the table issues for a slot carries a larger (odd)
    /// generation than the one before it.
    #[test]
    fn generations_never_repeat_per_slot(ops in schedule()) {
        let mut t = ProcessTable::new();
        let mut last: HashMap<u32, u32> = HashMap::new();
        for op in ops {
            if let Step::Inserted(h) = step(&mut t, op) {
                prop_assert_eq!(h.gen % 2, 1, "issued generation must be odd");
                if let Some(&prev) = last.get(&h.slot) {
                    prop_assert!(h.gen > prev, "slot {} went from gen {} to {}", h.slot, prev, h.gen);
                }
                last.insert(h.slot, h.gen);
            }
        }
    }

    /// A reaped pid's handle never resolves again, however its slot is
    /// reused afterwards.
    #[test]
    fn retired_handles_never_resolve(ops in schedule()) {
        let mut t = ProcessTable::new();
        let mut retired: Vec<(Pid, ProcHandle)> = Vec::new();
        for op in ops {
            if let Step::Retired(pid, h) = step(&mut t, op) {
                retired.push((pid, h));
            }
            for &(pid, h) in &retired {
                prop_assert!(t.resolve(h).is_none(), "pid {} resolved after reap", pid);
            }
        }
    }

    /// The pid index (`lookup`), handle resolution (`resolve`) and the slot
    /// walk (`handles`) bind the same `(slot, gen, pid)` triples after
    /// every step.
    #[test]
    fn table_views_agree_after_every_op(ops in schedule()) {
        let mut t = ProcessTable::new();
        for op in ops {
            step(&mut t, op);
            let walked: Vec<Pid> = t.handles().map(|(_, p)| p.pid).collect();
            prop_assert_eq!(&walked, &t.pids().collect::<Vec<_>>());
            prop_assert_eq!(walked.len(), t.len());
            for (h, p) in t.handles() {
                prop_assert_eq!(t.lookup(p.pid), Some(h));
                prop_assert_eq!(t.resolve(h).map(|q| q.pid), Some(p.pid));
            }
        }
    }

    /// A reaped slot is reused before the table grows: no slot index
    /// `insert` hands out reaches the peak number of live processes.
    #[test]
    fn slot_indices_stay_below_peak_live_count(ops in schedule()) {
        let mut t = ProcessTable::new();
        let mut peak = 0;
        for op in ops {
            let s = step(&mut t, op);
            peak = peak.max(t.len());
            if let Step::Inserted(h) = s {
                prop_assert!((h.slot as usize) < peak, "slot {} with peak live count {}", h.slot, peak);
            }
        }
    }
}
