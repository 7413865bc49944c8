//! Deterministic op-sequence replay: the model checker's transition relation.
//!
//! The bounded model checker (`ptstore-modelcheck`) represents every
//! frontier state as the op sequence that reaches it, because storing a
//! [`Kernel`] per state would cost too much host memory. It re-executes
//! that sequence from a fresh boot once per expansion and applies each op
//! to a clone of the result. This module owns the pieces that make such
//! replay meaningful:
//!
//! * [`ModelOp`] — a small, fully deterministic operation alphabet: the
//!   kernel ops the paper's mechanism must survive (fork/exit churn,
//!   mmap/munmap/mprotect, CoW breaks, secure-region adjustment, token
//!   re-validation, deferred-drain flushes) plus five attacker primitives
//!   of [`crate::inject`]: PTE bit flip, rogue region shrink, `satp`
//!   corruption, token forgery and a dropped IPI.
//! * [`apply`] — executes one op against a live kernel. An attacker op
//!   calls the same primitive body the fuzz campaign fires, with fixed
//!   choices where the campaign draws from its rng: the first eligible PTE
//!   slot, the first other process as forgery victim, the first probe page,
//!   the next hart over as the IPI victim. A *denied* attack restores its
//!   own scaffolding (`satp` put back, PCB word rewritten), so the machine
//!   state is exactly "the mechanism refused, nothing happened", while a
//!   *landed* attack leaves its corruption in place for the oracle to
//!   judge.
//! * [`replay`] / [`replay_trace`] — re-execute a whole trace on a fresh
//!   boot; `replay_trace` re-asserts the final oracle verdict, which is what
//!   makes a printed counterexample *replayable*: the shrinker uses it to
//!   validate every candidate shortening, and the regression tests use it to
//!   pin one counterexample per ablated defense. A differential test checks
//!   that applying an op to a clone of a replayed machine and to a fresh
//!   replay reach the same state.
//!
//! Determinism contract: `apply` consults no randomness and no ambient
//! state; two replays of the same trace from the same [`KernelConfig`]
//! produce byte-identical machines, and so does a clone of either. Every
//! op derives its concrete targets (which child, which VMA, which PTE
//! slot) from the kernel state at the moment it runs, so a trace is
//! self-contained.

use core::fmt;

use ptstore_core::{VirtAddr, PAGE_SIZE};
use ptstore_kernel::pagetable::{USER_MMAP_BASE, USER_STACK_PAGES, USER_STACK_TOP};
use ptstore_kernel::process::VmPerms;
use ptstore_kernel::{IpiFault, Kernel, KernelConfig, Pid, ProcState};

use crate::inject::{
    ipi_fault, pte_bit_flip, region_shrink, satp_corrupt, token_forge, InjectOutcome, SATP_PROBE_VA,
};
use crate::oracle::{InvariantReport, Invariants};

/// One deterministic operation of the model checker's alphabet.
///
/// Kernel ops keep the per-hart worker discipline of the fuzz campaign:
/// every op starts and ends with each hart running its own worker process,
/// and a hart's ops only ever touch that worker's address space — so TLBs
/// never cache another hart's pages and dropped-IPI ops stay benign by
/// construction, exactly as the campaign classifies them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelOp {
    /// `fork` a child of hart `hart`'s worker (the token/zone hot path).
    Fork {
        /// Originating hart.
        hart: usize,
    },
    /// Exit and reap the newest live child of hart `hart`'s worker.
    ExitChild {
        /// Originating hart.
        hart: usize,
    },
    /// `mmap` one page on hart `hart`'s worker and write-touch it.
    Mmap {
        /// Originating hart.
        hart: usize,
    },
    /// `munmap` the newest mmap VMA of hart `hart`'s worker.
    Munmap {
        /// Originating hart.
        hart: usize,
    },
    /// `mprotect` the newest mmap VMA of hart `hart`'s worker to read-only
    /// (a permission tightening whose shootdown must not be lost).
    MprotectRo {
        /// Originating hart.
        hart: usize,
    },
    /// Touch the newest mmap VMA of hart `hart`'s worker.
    Touch {
        /// Originating hart.
        hart: usize,
        /// Write access (may fault after [`ModelOp::MprotectRo`]).
        write: bool,
    },
    /// Break CoW: switch to the newest live child, write-touch the newest
    /// mmap VMA it CoW-shares with the worker, switch back.
    CowBreak {
        /// Originating hart.
        hart: usize,
    },
    /// Grow the secure region by one adjustment chunk (§IV-C1).
    AdjustSecure,
    /// Re-run `switch_mm` for the current process: token validation plus a
    /// fresh `satp` write (the token *check* half of the token life cycle;
    /// [`ModelOp::Fork`] exercises token *creation*).
    TokenRecheck {
        /// Originating hart.
        hart: usize,
    },
    /// Drain hart `hart`'s deferred-shootdown queue now (an explicit drain
    /// boundary on top of whatever the configured policy does).
    Drain {
        /// Originating hart.
        hart: usize,
    },
    /// Attacker: flip one high PPN bit of the first valid non-leaf PTE in
    /// the worker's root table, through the regular store channel (the
    /// arbitrary-write primitive of §III-A aimed at a page table).
    PteFlip {
        /// Originating hart.
        hart: usize,
        /// Absolute PTE bit to flip; bits 28..40 redirect the walk outside
        /// physical memory, making a landed flip an unambiguous
        /// containment break.
        bit: u8,
    },
    /// Attacker: a rogue SBI `SecureRegionSet` asking the firmware to
    /// shrink the secure region (which would expose page tables).
    RogueRegionShrink,
    /// Attacker: corrupt hart `hart`'s `satp` to root translation at a
    /// freshly allocated normal-zone page, then force one walk.
    SatpCorrupt {
        /// Originating hart.
        hart: usize,
    },
    /// Attacker: forge the worker's PCB page-table pointer to the first
    /// other process's root, then drive `switch_mm` (the PT-Reuse attack).
    TokenForge {
        /// Originating hart.
        hart: usize,
    },
    /// Attacker: drop the next TLB-shootdown IPI to the next hart over,
    /// then unmap a page so the lost broadcast actually happens.
    DropIpi {
        /// Originating hart.
        hart: usize,
    },
}

impl fmt::Display for ModelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ModelOp::Fork { hart } => write!(f, "fork(h{hart})"),
            ModelOp::ExitChild { hart } => write!(f, "exit-child(h{hart})"),
            ModelOp::Mmap { hart } => write!(f, "mmap(h{hart})"),
            ModelOp::Munmap { hart } => write!(f, "munmap(h{hart})"),
            ModelOp::MprotectRo { hart } => write!(f, "mprotect-ro(h{hart})"),
            ModelOp::Touch { hart, write } => {
                write!(f, "touch(h{hart},{})", if write { "w" } else { "r" })
            }
            ModelOp::CowBreak { hart } => write!(f, "cow-break(h{hart})"),
            ModelOp::AdjustSecure => f.write_str("adjust-secure"),
            ModelOp::TokenRecheck { hart } => write!(f, "token-recheck(h{hart})"),
            ModelOp::Drain { hart } => write!(f, "drain(h{hart})"),
            ModelOp::PteFlip { hart, bit } => write!(f, "attack:pte-flip(h{hart},bit{bit})"),
            ModelOp::RogueRegionShrink => f.write_str("attack:rogue-region-shrink"),
            ModelOp::SatpCorrupt { hart } => write!(f, "attack:satp-corrupt(h{hart})"),
            ModelOp::TokenForge { hart } => write!(f, "attack:token-forge(h{hart})"),
            ModelOp::DropIpi { hart } => write!(f, "attack:ipi-drop(h{hart})"),
        }
    }
}

impl ModelOp {
    /// The hart the op runs on (0 for machine-wide ops).
    pub fn hart(&self) -> usize {
        match *self {
            ModelOp::Fork { hart }
            | ModelOp::ExitChild { hart }
            | ModelOp::Mmap { hart }
            | ModelOp::Munmap { hart }
            | ModelOp::MprotectRo { hart }
            | ModelOp::Touch { hart, .. }
            | ModelOp::CowBreak { hart }
            | ModelOp::TokenRecheck { hart }
            | ModelOp::Drain { hart }
            | ModelOp::PteFlip { hart, .. }
            | ModelOp::SatpCorrupt { hart }
            | ModelOp::TokenForge { hart }
            | ModelOp::DropIpi { hart } => hart,
            ModelOp::AdjustSecure | ModelOp::RogueRegionShrink => 0,
        }
    }

    /// True for the attacker primitives (the ops ablation counterexamples
    /// must contain at least one of).
    pub fn is_attack(&self) -> bool {
        matches!(
            self,
            ModelOp::PteFlip { .. }
                | ModelOp::RogueRegionShrink
                | ModelOp::SatpCorrupt { .. }
                | ModelOp::TokenForge { .. }
                | ModelOp::DropIpi { .. }
        )
    }
}

/// What applying one [`ModelOp`] did to the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// A kernel op ran (successfully or with a tolerated kernel error).
    Mutated,
    /// An attacker op was refused by the mechanism/firmware and its
    /// scaffolding restored: the state is as if the attack never ran,
    /// except for refusal-side bookkeeping (cycles, security log).
    Denied,
    /// An attacker op took effect; its corruption is left in place.
    Landed,
    /// The op had no site (no child to exit, no VMA to unmap, one-hart
    /// machine for an IPI drop): state unchanged.
    Unavailable,
}

impl fmt::Display for OpOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpOutcome::Mutated => "mutated",
            OpOutcome::Denied => "denied",
            OpOutcome::Landed => "landed",
            OpOutcome::Unavailable => "unavailable",
        })
    }
}

/// Boots the model-checking machine: a fresh kernel per `cfg` with one
/// worker process forked per hart and each hart switched to its worker —
/// the prologue the fuzz campaign runs too, so oracle expectations carry
/// over.
///
/// # Panics
/// Panics when `cfg` cannot boot or the workers cannot spawn; model-checker
/// geometry is validated ahead of time, so this indicates a bug.
pub fn boot_model(cfg: &KernelConfig) -> Kernel {
    let mut k = Kernel::boot(*cfg).expect("model kernel boots");
    k.spawn_workers().expect("model workers spawn");
    k
}

/// The newest live (non-zombie) child of `pid`.
fn newest_live_child(k: &Kernel, pid: Pid) -> Option<Pid> {
    let p = k.procs.get(pid)?;
    p.children
        .iter()
        .rev()
        .copied()
        .find(|&c| k.procs.get(c).is_some_and(|q| q.state != ProcState::Zombie))
}

/// The newest mmap-region VMA of `pid` (text/heap/stack excluded).
fn newest_mmap_vma(k: &Kernel, pid: Pid) -> Option<(u64, u64)> {
    let stack_base = USER_STACK_TOP - USER_STACK_PAGES * PAGE_SIZE;
    let p = k.procs.get(pid)?;
    p.vmas
        .iter()
        .rev()
        .find(|v| v.start >= USER_MMAP_BASE && v.start < stack_base)
        .map(|v| (v.start, v.end))
}

/// Applies one op to `k`. Deterministic: equal `(state, op)` pairs always
/// produce equal successor states (see the module docs for the contract).
pub fn apply(k: &mut Kernel, op: ModelOp) -> OpOutcome {
    match op {
        ModelOp::Fork { hart } => {
            k.set_active_hart(hart);
            match k.sys_fork() {
                Ok(_) => OpOutcome::Mutated,
                Err(_) => OpOutcome::Unavailable,
            }
        }
        ModelOp::ExitChild { hart } => {
            k.set_active_hart(hart);
            let worker = k.current_pid();
            let Some(child) = newest_live_child(k, worker) else {
                return OpOutcome::Unavailable;
            };
            if k.do_switch_to(child).is_err() {
                return OpOutcome::Unavailable;
            }
            let _ = k.sys_exit(0);
            if k.current_pid() != worker {
                let _ = k.do_switch_to(worker);
            }
            let _ = k.sys_wait();
            OpOutcome::Mutated
        }
        ModelOp::Mmap { hart } => {
            k.set_active_hart(hart);
            match k.sys_mmap(PAGE_SIZE) {
                Ok(va) => {
                    let _ = k.sys_touch(va, true);
                    OpOutcome::Mutated
                }
                Err(_) => OpOutcome::Unavailable,
            }
        }
        ModelOp::Munmap { hart } => {
            k.set_active_hart(hart);
            let Some((start, end)) = newest_mmap_vma(k, k.current_pid()) else {
                return OpOutcome::Unavailable;
            };
            let _ = k.sys_munmap(VirtAddr::new(start), end - start);
            OpOutcome::Mutated
        }
        ModelOp::MprotectRo { hart } => {
            k.set_active_hart(hart);
            let Some((start, end)) = newest_mmap_vma(k, k.current_pid()) else {
                return OpOutcome::Unavailable;
            };
            let _ = k.sys_mprotect(VirtAddr::new(start), end - start, VmPerms::RO);
            OpOutcome::Mutated
        }
        ModelOp::Touch { hart, write } => {
            k.set_active_hart(hart);
            let Some((start, _)) = newest_mmap_vma(k, k.current_pid()) else {
                return OpOutcome::Unavailable;
            };
            let _ = k.sys_touch(VirtAddr::new(start), write);
            OpOutcome::Mutated
        }
        ModelOp::CowBreak { hart } => {
            k.set_active_hart(hart);
            let worker = k.current_pid();
            let Some(child) = newest_live_child(k, worker) else {
                return OpOutcome::Unavailable;
            };
            let Some((start, _)) = newest_mmap_vma(k, child) else {
                return OpOutcome::Unavailable;
            };
            if k.do_switch_to(child).is_err() {
                return OpOutcome::Unavailable;
            }
            let _ = k.sys_touch(VirtAddr::new(start), true);
            let _ = k.do_switch_to(worker);
            OpOutcome::Mutated
        }
        ModelOp::AdjustSecure => match k.adjust_secure_region() {
            Ok(()) => OpOutcome::Mutated,
            Err(_) => OpOutcome::Unavailable,
        },
        ModelOp::TokenRecheck { hart } => {
            k.set_active_hart(hart);
            let pid = k.current_pid();
            let _ = k.activate_address_space(pid);
            OpOutcome::Mutated
        }
        ModelOp::Drain { hart } => {
            k.set_active_hart(hart);
            k.drain_deferred_flushes();
            OpOutcome::Mutated
        }
        ModelOp::PteFlip { hart, bit } => {
            k.set_active_hart(hart);
            let owner = k.mm_owner_of(k.current_pid());
            attack(pte_bit_flip(k, hart, owner, |slots| {
                Some((*slots.first()?, u32::from(bit)))
            }))
        }
        ModelOp::RogueRegionShrink => attack(region_shrink(k)),
        ModelOp::SatpCorrupt { hart } => {
            attack(satp_corrupt(k, hart, VirtAddr::new(SATP_PROBE_VA)))
        }
        ModelOp::TokenForge { hart } => {
            attack(token_forge(k, hart, |victims| victims.first().copied()))
        }
        ModelOp::DropIpi { hart } => {
            let victim = (hart + 1) % k.harts.len();
            attack(ipi_fault(k, hart, IpiFault::DropNext { victim }))
        }
    }
}

/// An attack's outcome as a transition: which layer denied it does not
/// enter the state.
fn attack(outcome: InjectOutcome) -> OpOutcome {
    match outcome {
        InjectOutcome::Denied(_) => OpOutcome::Denied,
        InjectOutcome::Landed => OpOutcome::Landed,
        InjectOutcome::Skipped => OpOutcome::Unavailable,
    }
}

/// Re-executes `trace` on a fresh boot of `cfg` and returns the machine it
/// leaves behind.
pub fn replay(cfg: &KernelConfig, trace: &[ModelOp]) -> Kernel {
    let mut k = boot_model(cfg);
    for &op in trace {
        apply(&mut k, op);
    }
    k
}

/// Re-executes `trace` on a fresh boot of `cfg` and re-runs the invariant
/// oracle on the final state — the "replayable counterexample" primitive:
/// a trace the model checker prints violates an invariant iff this report
/// does.
pub fn replay_trace(cfg: &KernelConfig, trace: &[ModelOp]) -> InvariantReport {
    Invariants::check(&replay(cfg, trace))
}

/// Renders a trace the way the `reproduce modelcheck` counterexample
/// printer does: one numbered op per line.
pub fn format_trace(trace: &[ModelOp]) -> String {
    use core::fmt::Write;
    let mut out = String::new();
    for (i, op) in trace.iter().enumerate() {
        let _ = writeln!(out, "  {i:>3}: {op}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptstore_core::MIB;
    use ptstore_kernel::KernelConfig;

    fn model_cfg() -> KernelConfig {
        KernelConfig::cfi_ptstore()
            .with_mem_size(64 * MIB)
            .with_initial_secure_size(4 * MIB)
            .with_harts(2)
    }

    #[test]
    fn boot_model_is_oracle_clean() {
        let k = boot_model(&model_cfg());
        let rep = Invariants::check(&k);
        assert!(rep.ok(), "{:?}", rep.violations);
        // Every hart runs its own worker, no hart idles on the kernel root.
        for h in &k.harts {
            assert_ne!(h.current, 0);
        }
    }

    #[test]
    fn kernel_ops_stay_oracle_clean() {
        let cfg = model_cfg();
        let trace = [
            ModelOp::Mmap { hart: 0 },
            ModelOp::Fork { hart: 0 },
            ModelOp::CowBreak { hart: 0 },
            ModelOp::MprotectRo { hart: 0 },
            ModelOp::Touch {
                hart: 0,
                write: false,
            },
            ModelOp::Mmap { hart: 1 },
            ModelOp::Touch {
                hart: 1,
                write: true,
            },
            ModelOp::AdjustSecure,
            ModelOp::TokenRecheck { hart: 1 },
            ModelOp::Munmap { hart: 1 },
            ModelOp::Drain { hart: 0 },
            ModelOp::ExitChild { hart: 0 },
            ModelOp::Munmap { hart: 0 },
        ];
        let rep = replay_trace(&cfg, &trace);
        assert!(rep.ok(), "{:?}", rep.violations);
    }

    #[test]
    fn attacks_are_denied_and_leave_no_residue_when_defended() {
        let cfg = model_cfg();
        let mut k = boot_model(&cfg);
        assert_eq!(
            apply(&mut k, ModelOp::PteFlip { hart: 0, bit: 35 }),
            OpOutcome::Denied
        );
        assert_eq!(apply(&mut k, ModelOp::RogueRegionShrink), OpOutcome::Denied);
        assert_eq!(
            apply(&mut k, ModelOp::SatpCorrupt { hart: 1 }),
            OpOutcome::Denied
        );
        assert_eq!(
            apply(&mut k, ModelOp::TokenForge { hart: 0 }),
            OpOutcome::Denied
        );
        // Dropped IPIs land (nothing refuses them) but are benign under the
        // per-hart worker discipline.
        assert_eq!(
            apply(&mut k, ModelOp::DropIpi { hart: 0 }),
            OpOutcome::Landed
        );
        let rep = Invariants::check(&k);
        assert!(rep.ok(), "{:?}", rep.violations);
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = model_cfg();
        let trace = [
            ModelOp::Mmap { hart: 0 },
            ModelOp::Fork { hart: 1 },
            ModelOp::PteFlip { hart: 0, bit: 35 },
            ModelOp::DropIpi { hart: 1 },
            ModelOp::ExitChild { hart: 1 },
        ];
        let a = replay(&cfg, &trace);
        let b = replay(&cfg, &trace);
        assert_eq!(a.cycles.total(), b.cycles.total());
        assert_eq!(a.queued_flush_pairs(), b.queued_flush_pairs());
        for (ha, hb) in a.harts.iter().zip(b.harts.iter()) {
            assert_eq!(ha.mmu.satp, hb.mmu.satp);
        }
    }

    #[test]
    fn unavailable_ops_do_not_perturb_state() {
        let cfg = model_cfg();
        let mut k = boot_model(&cfg);
        // No child, no mmap VMA yet: these have no site.
        assert_eq!(
            apply(&mut k, ModelOp::ExitChild { hart: 0 }),
            OpOutcome::Unavailable
        );
        assert_eq!(
            apply(&mut k, ModelOp::Munmap { hart: 0 }),
            OpOutcome::Unavailable
        );
        assert_eq!(
            apply(&mut k, ModelOp::CowBreak { hart: 1 }),
            OpOutcome::Unavailable
        );
        assert!(Invariants::check(&k).ok());
    }

    #[test]
    fn a_cloned_machine_writes_to_no_sink() {
        let mut k = boot_model(&model_cfg());
        let sink = ptstore_trace::TraceSink::new();
        k.set_trace_sink(Some(sink.clone()));
        let mut clone = k.clone();
        assert!(clone.trace_sink().is_none());
        assert!(clone.bus.trace_sink().is_none());
        assert!(clone.bus.pmp().trace_sink().is_none());
        // Syscalls (kernel), translations (both TLBs of each hart), bus
        // transfers and PMP checks: every layer that can hold a sink.
        let ops = [
            ModelOp::Mmap { hart: 0 },
            ModelOp::Touch {
                hart: 1,
                write: false,
            },
            ModelOp::Fork { hart: 1 },
            ModelOp::PteFlip { hart: 0, bit: 35 },
        ];
        let counters = sink.counters();
        for op in ops {
            apply(&mut clone, op);
        }
        assert_eq!(sink.counters(), counters, "the clone emitted into the sink");
        assert!(sink.is_empty());
        // The original keeps its sink.
        for op in ops {
            apply(&mut k, op);
        }
        assert!(!sink.is_empty());
    }

    #[test]
    fn format_trace_is_replayable_shape() {
        let trace = [ModelOp::Mmap { hart: 0 }, ModelOp::TokenForge { hart: 1 }];
        let s = format_trace(&trace);
        assert!(s.contains("0: mmap(h0)"));
        assert!(s.contains("1: attack:token-forge(h1)"));
    }
}
