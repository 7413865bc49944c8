//! The deterministic fault injector.
//!
//! Faults are injected through the *architectural* surfaces an attacker or
//! a glitch would use — the regular store channel, the SBI, the `satp`
//! CSR, the IPI fabric, the allocator, the PCB — never by silently
//! patching simulator state. That way the modeled mechanism adjudicates
//! each fault exactly as the hardware would, and the injector can report
//! which layer (if any) refused it.

use ptstore_core::{AccessContext, AccessError, Channel, PhysAddr, PhysPageNum, PAGE_SIZE};
use ptstore_kernel::{
    DrainFault, GfpFlags, IpiFault, Kernel, KernelError, Pid, SbiCall, SbiResult,
};
use ptstore_mmu::{table_entries, Satp, TranslateError};
use ptstore_trace::{FaultClass, RejectingLayer, TraceEvent};
use rand::rngs::StdRng;
use rand::Rng;

/// When a planted fault goes off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire the moment the injector is polled.
    Immediate,
    /// Fire once the machine-wide cycle counter reaches this value.
    AtCycle(u64),
    /// Fire once the bus has served this many total accesses.
    AfterBusAccesses(u64),
    /// Fire once the trace counters have seen this many syscalls
    /// (a trace-event predicate; requires an attached sink).
    AfterSyscalls(u64),
}

impl Trigger {
    /// True once the trigger condition holds on `k`.
    pub fn ready(&self, k: &Kernel) -> bool {
        match *self {
            Trigger::Immediate => true,
            Trigger::AtCycle(c) => k.cycles.total() >= c,
            Trigger::AfterBusAccesses(n) => k.bus.stats().total() >= n,
            // Without a sink the predicate can never be observed; fall
            // through to ready so the campaign cannot stall.
            Trigger::AfterSyscalls(n) => k.trace_sink().is_none_or(|s| s.counters().syscalls >= n),
        }
    }
}

impl core::fmt::Display for Trigger {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Trigger::Immediate => f.write_str("immediate"),
            Trigger::AtCycle(c) => write!(f, "at-cycle {c}"),
            Trigger::AfterBusAccesses(n) => write!(f, "after-bus-accesses {n}"),
            Trigger::AfterSyscalls(n) => write!(f, "after-syscalls {n}"),
        }
    }
}

/// One planned fault: what, where, and when.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// The fault class to inject.
    pub class: FaultClass,
    /// When to fire.
    pub trigger: Trigger,
    /// The hart the fault originates on (or whose state it corrupts).
    pub hart: usize,
    /// Class-specific knob drawn at planning time (bit index, slot pick).
    pub param: u64,
}

impl FaultPlan {
    /// Draws a randomized plan for `class` against the current machine:
    /// the hart and class parameter come from `rng`, the trigger is set a
    /// short, random distance ahead of the machine's current counters so
    /// the workload keeps running before the fault lands.
    pub fn random(class: FaultClass, k: &Kernel, rng: &mut StdRng) -> Self {
        let hart = (rng.random::<u64>() as usize) % k.harts.len();
        let param = rng.random::<u64>();
        let trigger = match rng.random::<u64>() % 4 {
            0 => Trigger::Immediate,
            1 => Trigger::AtCycle(k.cycles.total() + 1 + rng.random::<u64>() % 200_000),
            2 => Trigger::AfterBusAccesses(k.bus.stats().total() + 1 + rng.random::<u64>() % 4_000),
            _ => {
                let now = k.trace_sink().map_or(0, |s| s.counters().syscalls);
                Trigger::AfterSyscalls(now + 1 + rng.random::<u64>() % 24)
            }
        };
        Self {
            class,
            trigger,
            hart,
            param,
        }
    }
}

/// Who stopped (or failed to stop) an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectedBy {
    /// A mechanism layer denied the faulted operation.
    Mechanism(RejectingLayer),
    /// The M-mode SBI firmware refused the request.
    Firmware,
    /// The kernel allocator contained the fault (clean `ENOMEM` or a
    /// dynamic secure-region adjustment absorbed the pressure).
    Allocator,
}

impl core::fmt::Display for DetectedBy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DetectedBy::Mechanism(layer) => write!(f, "{layer}"),
            DetectedBy::Firmware => f.write_str("sbi-firmware"),
            DetectedBy::Allocator => f.write_str("allocator"),
        }
    }
}

/// What happened when the fault fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectOutcome {
    /// The mechanism (or firmware/allocator) refused the faulted action;
    /// machine state is unchanged apart from the refusal itself.
    Denied(DetectedBy),
    /// The fault took effect: the architecture allowed the action.
    Landed,
    /// The fault site was unavailable (e.g. an IPI fault on a single-hart
    /// machine); nothing was injected.
    Skipped,
}

/// Undo information recorded by a landed fault so the campaign can restore
/// a detected-and-repaired machine before the final oracle sweep.
#[derive(Debug, Clone, Copy)]
enum Undo {
    None,
    BitFlip {
        addr: PhysAddr,
        old: u64,
    },
    Satp {
        hart: usize,
        old: Satp,
        probe_page: Option<PhysPageNum>,
    },
    TokenSlot {
        slot: PhysAddr,
        old: u64,
    },
    Zone,
}

/// A single-shot fault injector executing one [`FaultPlan`].
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    fired: bool,
    undo: Undo,
}

impl FaultInjector {
    /// An injector armed with `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            fired: false,
            undo: Undo::None,
        }
    }

    /// The armed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True once the plan's trigger condition holds (always false after
    /// the fault has fired).
    pub fn ready(&self, k: &Kernel) -> bool {
        !self.fired && self.plan.trigger.ready(k)
    }

    /// Fires the planned fault against `k`. Emits a
    /// [`TraceEvent::FaultInjected`] marker, performs the class-specific
    /// action through its architectural surface, and reports whether the
    /// mechanism denied it, it landed, or the site was unavailable.
    pub fn fire(&mut self, k: &mut Kernel, rng: &mut StdRng) -> InjectOutcome {
        self.fired = true;
        if let Some(sink) = k.trace_sink() {
            sink.emit(TraceEvent::FaultInjected {
                kind: self.plan.class,
                hart: self.plan.hart as u32,
            });
        }
        match self.plan.class {
            FaultClass::PteBitFlip => self.fire_pte_bit_flip(k, rng),
            FaultClass::PmpCsrCorrupt => self.fire_pmp_csr_corrupt(k),
            FaultClass::SatpCorrupt => self.fire_satp_corrupt(k),
            FaultClass::IpiDrop | FaultClass::IpiReorder => self.fire_ipi_fault(k),
            FaultClass::ZoneExhaust => self.fire_zone_exhaust(k),
            FaultClass::TokenForge => self.fire_token_forge(k, rng),
            FaultClass::DrainDrop | FaultClass::WatermarkSkip => self.fire_drain_fault(k),
        }
    }

    /// Restores the machine state a *landed* fault corrupted (bit flipped
    /// back, `satp` restored, PCB slot rewritten, PTStore zone refilled).
    /// A no-op for denied, skipped, or side-effect-free faults.
    pub fn repair(&mut self, k: &mut Kernel) {
        match core::mem::replace(&mut self.undo, Undo::None) {
            Undo::None => {}
            Undo::BitFlip { addr, old } => {
                // Infrastructure-level restore: the checked channels would
                // charge (and under PTStore, refuse) this write.
                let _ = k.bus.mem_unchecked().write_u64(addr, old);
            }
            Undo::Satp {
                hart,
                old,
                probe_page,
            } => {
                k.harts[hart].mmu.satp = old;
                if let Some(ppn) = probe_page {
                    let _ = k.free_page(ppn);
                }
            }
            Undo::TokenSlot { slot, old } => {
                let _ = k.bus.mem_unchecked().write_u64(slot, old);
            }
            Undo::Zone => {
                let _ = k.refill_pt_zone();
            }
        }
    }

    /// A regular-channel store flips one PPN bit of a live non-leaf PTE —
    /// the attacker's arbitrary-write primitive aimed at a page table. The
    /// flipped bit is chosen from the high PPN bits so a landed flip
    /// redirects the walk outside physical memory (an unambiguous
    /// containment violation for the oracle).
    fn fire_pte_bit_flip(&mut self, k: &mut Kernel, rng: &mut StdRng) -> InjectOutcome {
        let pids: Vec<Pid> = k.procs.pids().collect();
        if pids.is_empty() {
            return InjectOutcome::Skipped;
        }
        let pid = pids[(self.plan.param as usize) % pids.len()];
        let Some(root) = k.process_root(pid) else {
            return InjectOutcome::Skipped;
        };
        // Scan the root page raw for valid non-leaf slots (pointers at
        // next-level tables); pick one of them as the victim PTE. An
        // unreadable root offers none.
        let candidates: Vec<PhysAddr> = table_entries(root, k.bus.mem())
            .into_iter()
            .flatten()
            .filter(|(_, pte)| pte.is_table())
            .map(|(slot, _)| slot)
            .collect();
        let Some(&addr) = candidates.get((rng.random::<u64>() as usize) % candidates.len().max(1))
        else {
            return InjectOutcome::Skipped;
        };
        // PTE bits 28..40 are PPN bits mapping to physical address bits
        // 30..42 — beyond any configured memory size, so a landed flip is
        // always a containment break, never a lucky alias of another
        // page-table page.
        let bit = 28 + rng.random::<u64>() % 12;
        let old = match k.bus.mem().read_u64(addr) {
            Ok(v) => v,
            Err(_) => return InjectOutcome::Skipped,
        };
        let ctx = AccessContext::supervisor(k.satp_s_bit()).on_hart(self.plan.hart);
        match k
            .bus
            .inject_bit_flip(addr, bit as u32, Channel::Regular, ctx)
        {
            Err(e) => InjectOutcome::Denied(mechanism_of(&e)),
            Ok(_) => {
                self.undo = Undo::BitFlip { addr, old };
                InjectOutcome::Landed
            }
        }
    }

    /// A rogue SBI `SecureRegionSet` asking the firmware to *shrink* the
    /// secure region (raise its base), which would expose page tables to
    /// regular stores. The M-mode firmware owns the PMP and must refuse.
    fn fire_pmp_csr_corrupt(&mut self, k: &mut Kernel) -> InjectOutcome {
        let Some(region) = k.secure_region() else {
            return InjectOutcome::Skipped;
        };
        let rogue = SbiCall::SecureRegionSet {
            new_base: region.base() + PAGE_SIZE,
        };
        match k.sbi_call(rogue) {
            SbiResult::Err(_) => InjectOutcome::Denied(DetectedBy::Firmware),
            // Success would leave the PMP disagreeing with the kernel's
            // region bookkeeping — exactly what the oracle's PMP
            // consistency invariant exists to flag.
            SbiResult::Ok | SbiResult::Region { .. } => InjectOutcome::Landed,
        }
    }

    /// Corrupts the planned hart's `satp` to root translation at a freshly
    /// allocated normal-zone page (outside the secure region), then forces
    /// one walk. With the PTW origin check armed the walker refuses to
    /// fetch PTEs from outside the region; without it the bogus root is
    /// consumed silently and the oracle must catch the mismatch.
    fn fire_satp_corrupt(&mut self, k: &mut Kernel) -> InjectOutcome {
        let hart = self.plan.hart;
        let old = k.harts[hart].mmu.satp;
        let Some(scheme) = old.scheme else {
            return InjectOutcome::Skipped; // Bare mode: nothing to corrupt
        };
        let Ok(bogus) = k.alloc_page(GfpFlags::KERNEL.union(GfpFlags::ZERO)) else {
            return InjectOutcome::Skipped;
        };
        k.harts[hart].mmu.satp = Satp::new(scheme, bogus, old.asid, old.s_bit);
        self.undo = Undo::Satp {
            hart,
            old,
            probe_page: Some(bogus),
        };
        // Probe with a never-touched user VA so the D-TLB cannot satisfy
        // it and the walk must consult the (corrupted) root.
        let probe = ptstore_core::VirtAddr::new(0x7a00_0000 + (self.plan.param % 64) * PAGE_SIZE);
        let machine = &mut *k;
        let outcome = machine.harts[hart].mmu.translate_data(
            &mut machine.bus,
            probe,
            ptstore_core::AccessKind::Read,
            ptstore_core::PrivilegeMode::Supervisor,
        );
        match outcome {
            Err(TranslateError::AccessFault(e)) => InjectOutcome::Denied(mechanism_of(&e)),
            Err(TranslateError::PageFault { .. }) | Ok(_) => InjectOutcome::Landed,
        }
    }

    /// Plants an IPI fabric fault (drop or reorder), then performs one
    /// mapping change on the planned hart so the next TLB shootdown
    /// actually consumes it.
    fn fire_ipi_fault(&mut self, k: &mut Kernel) -> InjectOutcome {
        let harts = k.harts.len();
        if harts < 2 {
            return InjectOutcome::Skipped;
        }
        let hart = self.plan.hart;
        let fault = match self.plan.class {
            FaultClass::IpiDrop => IpiFault::DropNext {
                victim: (hart + 1 + (self.plan.param as usize) % (harts - 1)) % harts,
            },
            _ => IpiFault::ReorderNext,
        };
        k.inject_ipi_fault(fault);
        // Exercise: map, touch, and unmap one page — the unmap broadcasts
        // the shootdown the planted fault perturbs.
        k.set_active_hart(hart);
        if let Ok(va) = k.sys_mmap(PAGE_SIZE) {
            let _ = k.sys_touch(va, true);
            let _ = k.sys_munmap(va, PAGE_SIZE);
        }
        InjectOutcome::Landed
    }

    /// Plants a drain-machinery fault, then drives a paging-churn burst on
    /// the planned hart so the deferred-shootdown queue fills and the next
    /// drain (or watermark trigger) consumes it. `DrainDrop` discards one
    /// queued remote invalidation before the broadcast — the missed-drain
    /// kernel bug the oracle's TLB staleness sweep must flag whenever the
    /// lost page was cached remotely. `WatermarkSkip` suppresses one
    /// watermark-triggered early drain, which the next security boundary
    /// makes up for — benign by design. Both need batching on an SMP
    /// machine (and the skip needs a watermark policy) to have a site.
    fn fire_drain_fault(&mut self, k: &mut Kernel) -> InjectOutcome {
        if k.harts.len() < 2 || !k.cfg.deferred_shootdowns {
            return InjectOutcome::Skipped;
        }
        let depth = match (self.plan.class, k.cfg.drain_policy.watermark_depth()) {
            // The skip has no site without a watermark to trigger.
            (FaultClass::WatermarkSkip, None) => return InjectOutcome::Skipped,
            (_, Some(d)) => u64::from(d),
            (_, None) => 4,
        };
        let fault = if self.plan.class == FaultClass::DrainDrop {
            DrainFault::DropQueuedNext {
                index: self.plan.param,
            }
        } else {
            DrainFault::SkipWatermarkNext
        };
        k.inject_drain_fault(fault);
        // Exercise: map, touch, and unmap enough pages to cross any
        // watermark — the unmap queues the invalidations and its
        // end-of-operation boundary drain delivers (or loses) them.
        k.set_active_hart(self.plan.hart);
        if let Ok(va) = k.sys_mmap((depth + 1) * PAGE_SIZE) {
            for i in 0..=depth {
                let _ = k.sys_touch(
                    ptstore_core::VirtAddr::new(va.as_u64() + i * PAGE_SIZE),
                    true,
                );
            }
            let _ = k.sys_munmap(va, (depth + 1) * PAGE_SIZE);
        }
        if k.drain_fault_pending() {
            // No drain ran (the churn never queued — e.g. OOM): disarm so
            // the fault cannot leak into post-run steps, and report the
            // site as unavailable.
            let _ = k.take_drain_fault();
            return InjectOutcome::Skipped;
        }
        InjectOutcome::Landed
    }

    /// Drains every free page of the PTStore zone, then attempts a `fork`
    /// mid-exhaustion. Containment means either a clean `ENOMEM` or a
    /// dynamic secure-region adjustment absorbing the pressure.
    fn fire_zone_exhaust(&mut self, k: &mut Kernel) -> InjectOutcome {
        if k.pt_area_free_pages().is_none() {
            return InjectOutcome::Skipped;
        }
        let adjustments_before = k.stats.adjustments;
        k.drain_pt_zone();
        self.undo = Undo::Zone;
        k.set_active_hart(self.plan.hart);
        match k.sys_fork() {
            Err(KernelError::OutOfMemory) => InjectOutcome::Denied(DetectedBy::Allocator),
            Err(_) => InjectOutcome::Landed,
            Ok(child) => {
                // Reap the probe child to leave the process set balanced.
                let _ = k.do_switch_to(child);
                let _ = k.sys_exit(0);
                let _ = k.sys_wait();
                if k.stats.adjustments > adjustments_before {
                    InjectOutcome::Denied(DetectedBy::Allocator)
                } else {
                    InjectOutcome::Landed
                }
            }
        }
    }

    /// Forges the running process's PCB page-table pointer (an attacker
    /// regular-store into normal memory — always possible under the threat
    /// model), then drives the kernel through `switch_mm`. With token
    /// checks on, validation refuses the forged pointer; with them off,
    /// the bogus root reaches `satp`.
    fn fire_token_forge(&mut self, k: &mut Kernel, rng: &mut StdRng) -> InjectOutcome {
        let hart = self.plan.hart;
        let pid = k.harts[hart].current;
        if pid == 0 {
            return InjectOutcome::Skipped;
        }
        let owner = k.mm_owner_of(pid);
        let Some(slot) = k.pcb_pt_ptr_slot(owner) else {
            return InjectOutcome::Skipped;
        };
        let Ok(old) = k.bus.mem().read_u64(slot) else {
            return InjectOutcome::Skipped;
        };
        // Prefer the classic reuse attack — another process's root — and
        // fall back to a shifted pointer when this is the only process.
        let victims: Vec<Pid> = k.procs.pids().filter(|&p| p != owner).collect();
        let forged = victims
            .get((rng.random::<u64>() as usize) % victims.len().max(1))
            .and_then(|&v| k.process_root(v))
            .map(|r| r.base_addr().as_u64())
            .filter(|&v| v != old)
            .unwrap_or(old + PAGE_SIZE);
        let slot_va = k.direct_map(slot);
        if k.attacker_write_u64(slot_va, forged).is_err() {
            // The PCB itself was unreachable — nothing was injected.
            return InjectOutcome::Skipped;
        }
        self.undo = Undo::TokenSlot { slot, old };
        k.set_active_hart(hart);
        match k.activate_address_space(owner) {
            Err(KernelError::TokenInvalid(_)) => {
                InjectOutcome::Denied(DetectedBy::Mechanism(RejectingLayer::TokenValidation))
            }
            Err(KernelError::Access(e)) => InjectOutcome::Denied(mechanism_of(&e)),
            Err(_) => InjectOutcome::Landed,
            Ok(()) => InjectOutcome::Landed,
        }
    }
}

/// Maps a hardware access fault to the mechanism layer that raised it.
fn mechanism_of(e: &AccessError) -> DetectedBy {
    DetectedBy::Mechanism(match e {
        AccessError::SecureRegionDenied { .. } => RejectingLayer::PmpSBit,
        AccessError::PtwOutsideRegion { .. } => RejectingLayer::PtwOriginCheck,
        _ => RejectingLayer::PmpChannel,
    })
}
