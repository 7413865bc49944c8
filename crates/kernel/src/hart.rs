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
//! stealing — are expressed as [`HartMsg`] values stamped with the
//! **logical time** (the sender's machine-wide cycle total) at which they
//! were sent. A hart drains its mailbox when it becomes the active modeling
//! context, merging messages in `(time, from, seq)` order. Harts take
//! turns on the one shared [`crate::Kernel`], so that merge is a total
//! order. Applying the effects directly would leave every experiment's
//! output unchanged, but the pending mailboxes are part of the model
//! checker's canonical state, so removing them would change which states
//! it dedups (DESIGN.md, "Sequential hart turns").

use std::collections::VecDeque;

use ptstore_mmu::Mmu;

use crate::cycles::CycleCounter;
use crate::process::Pid;

/// What a cross-hart message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// A process was reaped; the receiving hart prunes any stale run-queue
    /// entry when it merges this message.
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

/// One cross-hart message, stamped for the deterministic logical-time merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HartMsg {
    /// Machine-wide cycle total when the sender posted the message.
    pub time: u64,
    /// Sending hart.
    pub from: usize,
    /// Sender-local sequence number, breaking ties between messages posted
    /// at the same logical time.
    pub seq: u64,
    /// Payload.
    pub kind: HartMsgKind,
}

/// One hardware thread of the modeled machine.
///
/// Hart 0 is the boot hart; a machine configured with one hart reproduces
/// the original single-hart prototype cycle-for-cycle (no IPI or
/// shootdown costs are ever charged at `harts == 1`).
#[derive(Debug)]
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
    /// Pending cross-hart messages, drained (in logical-time order) when
    /// this hart next becomes the active modeling context.
    pub mailbox: VecDeque<HartMsg>,
    /// Next sequence number for messages *sent* by this hart.
    pub msg_seq: u64,
    /// Messages this hart has merged over its lifetime.
    pub msgs_merged: u64,
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
    /// Creates an idle hart with the given TLB geometry.
    pub fn new(id: usize, itlb_entries: usize, dtlb_entries: usize) -> Self {
        let mut mmu = Mmu::with_tlb_sizes(itlb_entries, dtlb_entries);
        mmu.set_hart_id(id);
        Self {
            id,
            mmu,
            current: 0,
            run_queue: VecDeque::new(),
            cycles: CycleCounter::new(),
            mailbox: VecDeque::new(),
            msg_seq: 0,
            msgs_merged: 0,
            flush_queue: Vec::new(),
            pt_magazine: Vec::new(),
        }
    }

    /// Fraction of machine-wide `total` cycles spent on this hart.
    pub fn utilization(&self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.cycles.total() as f64 / total as f64
        }
    }

    /// Takes every pending message, sorted into the canonical
    /// `(time, from, seq)` merge order.
    pub fn drain_mailbox(&mut self) -> Vec<HartMsg> {
        let mut msgs: Vec<HartMsg> = self.mailbox.drain(..).collect();
        msgs.sort_by_key(|m| (m.time, m.from, m.seq));
        self.msgs_merged += msgs.len() as u64;
        msgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailbox_merges_on_logical_time() {
        let mut h = Hart::new(0, 4, 4);
        // Posted out of order: a later-time message from hart 1 first.
        h.mailbox.push_back(HartMsg {
            time: 200,
            from: 1,
            seq: 0,
            kind: HartMsgKind::ShootdownIpi,
        });
        h.mailbox.push_back(HartMsg {
            time: 100,
            from: 2,
            seq: 0,
            kind: HartMsgKind::ProcReaped { pid: 5 },
        });
        h.mailbox.push_back(HartMsg {
            time: 100,
            from: 1,
            seq: 1,
            kind: HartMsgKind::ShootdownAck,
        });
        h.mailbox.push_back(HartMsg {
            time: 100,
            from: 1,
            seq: 0,
            kind: HartMsgKind::ShootdownIpi,
        });
        let merged = h.drain_mailbox();
        let keys: Vec<(u64, usize, u64)> = merged.iter().map(|m| (m.time, m.from, m.seq)).collect();
        assert_eq!(keys, [(100, 1, 0), (100, 1, 1), (100, 2, 0), (200, 1, 0)]);
        assert_eq!(h.msgs_merged, 4);
        assert!(h.mailbox.is_empty());
    }
}
