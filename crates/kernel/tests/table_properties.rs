//! Property tests for the pid-indexed process table.
//!
//! Random insert/reap schedules drive the table next to a `BTreeMap`
//! model and check, after every step, that both refuse the same inserts
//! and that lookup, the pid walk, the process walk and the live count
//! agree with the model; and that a reaped pid, which the kernel never
//! hands out again, stays unresolvable whatever comes and goes after it.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::collection::vec;
use proptest::prelude::*;
use ptstore_core::PhysAddr;
use ptstore_kernel::pagetable::AddressSpace;
use ptstore_kernel::process::{FdTable, Process, SignalTable};
use ptstore_kernel::{Pid, ProcState, ProcessTable, TableError};

fn proc(pid: Pid, brk: u64) -> Process {
    Process {
        pid,
        parent: None,
        state: ProcState::Running,
        pcb_addr: PhysAddr::new(0x1000),
        aspace: AddressSpace::default(),
        vmas: Vec::new(),
        brk,
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

proptest! {
    /// Lookup (`get`), the pid walk (`pids`), the process walk (`iter`)
    /// and `len` agree with a `BTreeMap` after every step, and an insert
    /// of a live pid is refused without touching the live entry.
    #[test]
    fn table_views_agree_after_every_op(ops in schedule()) {
        let mut t = ProcessTable::new();
        let mut model: BTreeMap<Pid, u64> = BTreeMap::new();
        for (i, op) in ops.into_iter().enumerate() {
            // `brk` tags each entry with the step that inserted it.
            let tag = i as u64;
            match op {
                Op::Insert(pid) => {
                    let want = match model.entry(pid) {
                        Entry::Occupied(_) => Err(TableError::DuplicatePid(pid)),
                        Entry::Vacant(v) => {
                            v.insert(tag);
                            Ok(())
                        }
                    };
                    prop_assert_eq!(t.insert(proc(pid, tag)), want);
                }
                Op::Remove(pid) => {
                    let got = t.remove(pid).map(|p| (p.pid, p.brk));
                    prop_assert_eq!(got, model.remove(&pid).map(|tag| (pid, tag)));
                }
            }
            let pids: Vec<Pid> = t.pids().collect();
            prop_assert_eq!(&pids, &model.keys().copied().collect::<Vec<_>>());
            let walked: Vec<(Pid, u64)> = t.iter().map(|p| (p.pid, p.brk)).collect();
            prop_assert_eq!(&walked, &model.iter().map(|(&p, &b)| (p, b)).collect::<Vec<_>>());
            prop_assert_eq!(t.len(), model.len());
            prop_assert_eq!(t.is_empty(), model.is_empty());
            for pid in 0..25 {
                prop_assert_eq!(t.get(pid).map(|p| p.brk), model.get(&pid).copied());
            }
        }
    }

    /// A reaped pid never resolves again. Inserts skip reaped pids, as
    /// the kernel's pid counter never reissues one.
    #[test]
    fn retired_handles_never_resolve(ops in schedule()) {
        let mut t = ProcessTable::new();
        let mut retired: BTreeSet<Pid> = BTreeSet::new();
        for op in ops {
            match op {
                Op::Insert(pid) if !retired.contains(&pid) => {
                    let _ = t.insert(proc(pid, 0));
                }
                Op::Insert(_) => {}
                Op::Remove(pid) => {
                    if t.remove(pid).is_some() {
                        retired.insert(pid);
                    }
                }
            }
            for &pid in &retired {
                prop_assert!(t.get(pid).is_none(), "pid {} resolved after reap", pid);
            }
        }
    }
}
