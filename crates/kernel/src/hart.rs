//! Per-hart state for the SMP machine model.
//!
//! The PTStore prototype began life single-hart; this module carries the
//! state that is genuinely per-hardware-thread once the machine grows to
//! N harts: the MMU (both TLBs and the page-table walker), the process
//! currently executing, a private run queue, a private cycle counter
//! used for utilization reporting, and a **mailbox** of cross-hart
//! messages. Everything else — the bus and PMP, the buddy zones, the
//! secure region, and the process table — is machine-wide and stays on
//! [`crate::Kernel`].
//!
//! ## Cross-hart messages
//!
//! Harts never reach into each other's private state directly. Cross-hart
//! effects — shootdown IPIs and their acks, fork/exit visibility, idle
//! stealing — are expressed as [`HartMsg`] values naming their sender. A
//! hart drains its mailbox when it becomes the active modeling context.
//! Harts take turns on the one shared [`crate::Kernel`] in one loop, so
//! the order messages are posted in is already a total order and the
//! mailbox keeps it. Applying the effects directly would leave every
//! experiment's output unchanged, but the pending mailboxes are part of
//! the model checker's canonical state, so removing them would change
//! which states it dedups (DESIGN.md, "Sequential hart turns").

use std::collections::VecDeque;

use ptstore_mmu::Mmu;

use crate::cycles::CycleCounter;
use crate::process::Pid;

/// What a cross-hart message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HartMsgKind {
    /// A TLB-shootdown IPI arrived from `HartMsg::from` (the flush itself
    /// is modeled synchronously at the barrier; this is the visibility
    /// record the receiving hart merges on its next activation).
    ShootdownIpi,
    /// The remote hart acknowledged our shootdown.
    ShootdownAck,
    /// A process became visible machine-wide (fork/clone published it).
    ProcSpawned {
        /// Its pid.
        pid: Pid,
    },
    /// A process was reaped (a visibility record only: no run queue is
    /// pruned, because `pick_next` drops an entry whose process is gone).
    ProcReaped {
        /// The reaped pid (never reused: pids are monotonic).
        pid: Pid,
    },
    /// Another hart stole a process from our run queue while we were busy.
    WorkStolen {
        /// The migrated pid.
        pid: Pid,
    },
}

/// One cross-hart message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HartMsg {
    /// Sending hart.
    pub from: usize,
    /// Payload.
    pub kind: HartMsgKind,
}

/// One hardware thread of the modeled machine.
///
/// Hart 0 is the boot hart; a machine configured with one hart reproduces
/// the original single-hart prototype cycle-for-cycle (no IPI or
/// shootdown costs are ever charged at `harts == 1`).
#[derive(Debug, Clone)]
pub struct Hart {
    /// Hart id (0-based).
    pub id: usize,
    /// This hart's MMU: iTLB, dTLB, and page-table walker.
    pub mmu: Mmu,
    /// The process currently running here (0 before init is spawned).
    pub current: Pid,
    /// This hart's private run queue; an idle hart steals from the others
    /// in deterministic id order.
    pub run_queue: VecDeque<Pid>,
    /// Cycles attributed to work performed on this hart.
    pub cycles: CycleCounter,
    /// Pending cross-hart messages in the order they were posted, drained
    /// when this hart next becomes the active modeling context.
    pub mailbox: Vec<HartMsg>,
    /// Deferred-shootdown queue: `(vpn, asid)` pairs whose *local* TLB
    /// invalidation already happened eagerly but whose remote broadcast is
    /// postponed until the next drain (operation end or security boundary).
    /// Empty unless `deferred_shootdowns` is configured and `harts > 1`.
    pub flush_queue: Vec<(u64, u16)>,
    /// LIFO magazine of zeroed page-table pages cached for this hart;
    /// populated only when `alloc_magazines` is configured.
    pub pt_magazine: Vec<ptstore_core::PhysPageNum>,
}

impl Hart {
    /// Creates an idle hart with the prototype's TLB geometry.
    pub fn new(id: usize) -> Self {
        let mut mmu = Mmu::new();
        mmu.set_hart_id(id);
        Self {
            id,
            mmu,
            current: 0,
            run_queue: VecDeque::new(),
            cycles: CycleCounter::new(),
            mailbox: Vec::new(),
            flush_queue: Vec::new(),
            pt_magazine: Vec::new(),
        }
    }
}
