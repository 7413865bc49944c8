//! The fault and attacker primitives, and the campaign's seeded plans.
//!
//! Faults are injected through the *architectural* surfaces an attacker or
//! a glitch would use — the regular store channel, the SBI, the `satp`
//! CSR, the IPI fabric, the allocator, the PCB — never by silently
//! patching simulator state. That way the modeled mechanism adjudicates
//! each fault exactly as the hardware would, and the primitive can report
//! which layer (if any) refused it.
//!
//! Each primitive has one body here, which takes its free choices as
//! arguments: the fuzz campaign ([`FaultPlan::fire`]) draws them from its
//! seeded rng, and the model checker ([`crate::apply`]) fixes them. A
//! choice that depends on the machine (which PTE slot, which forgery
//! victim) is a closure over the candidates, called at the moment the body
//! has them, so the campaign draws in a fixed order. A primitive the
//! mechanism denies restores what it set up itself (`satp` and the decoy
//! root, the forged PCB word, the drained zone), so a denied fault leaves
//! only the refusal behind; a landed fault leaves its corruption in place
//! for the oracle to judge.

use ptstore_core::{
    AccessContext, AccessError, AccessKind, Channel, PhysAddr, PrivilegeMode, VirtAddr, PAGE_SIZE,
};
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
    /// Fire the moment the trigger is polled.
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
    /// Class-specific knob drawn at planning time: it picks the flip's
    /// victim process, the `satp` probe page, the dropped IPI's victim
    /// hart and the dropped queued invalidation.
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

    /// Fires the plan against `k`: emits a [`TraceEvent::FaultInjected`]
    /// marker, then runs the class's primitive on the planned hart with
    /// its choices drawn from `rng` (or derived from `param`), and reports
    /// whether the mechanism denied it, it landed, or the site was
    /// unavailable.
    pub fn fire(&self, k: &mut Kernel, rng: &mut StdRng) -> InjectOutcome {
        if let Some(sink) = k.trace_sink() {
            sink.emit(TraceEvent::FaultInjected {
                kind: self.class,
                hart: self.hart as u32,
            });
        }
        let (hart, param) = (self.hart, self.param);
        match self.class {
            FaultClass::PteBitFlip => {
                let pids: Vec<Pid> = k.procs.pids().collect();
                let Some(&pid) = pids.get((param as usize) % pids.len().max(1)) else {
                    return InjectOutcome::Skipped;
                };
                pte_bit_flip(k, hart, pid, |slots| {
                    let &slot = slots.get(draw_index(rng, slots.len()))?;
                    // PTE bits 28..40 are PPN bits mapping to physical
                    // address bits 30..42 — beyond any configured memory
                    // size, so a landed flip is always a containment break,
                    // never a lucky alias of another page-table page.
                    Some((slot, 28 + (rng.random::<u64>() % 12) as u32))
                })
            }
            FaultClass::PmpCsrCorrupt => region_shrink(k),
            FaultClass::SatpCorrupt => {
                let probe = VirtAddr::new(SATP_PROBE_VA + (param % 64) * PAGE_SIZE);
                satp_corrupt(k, hart, probe)
            }
            FaultClass::IpiDrop => {
                // Some other hart; a one-hart machine has no site, and
                // `max(1)` only keeps the division defined there.
                let harts = k.harts.len();
                let victim = (hart + 1 + (param as usize) % (harts - 1).max(1)) % harts;
                ipi_fault(k, hart, IpiFault::DropNext { victim })
            }
            FaultClass::IpiReorder => ipi_fault(k, hart, IpiFault::ReorderNext),
            FaultClass::ZoneExhaust => zone_exhaust(k, hart),
            FaultClass::TokenForge => token_forge(k, hart, |victims| {
                victims.get(draw_index(rng, victims.len())).copied()
            }),
            FaultClass::DrainDrop | FaultClass::WatermarkSkip => {
                drain_fault(k, self.class, hart, param)
            }
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

/// The never-touched user VA a corrupted `satp` is probed at (the campaign
/// offsets it by up to 63 pages): no D-TLB entry can satisfy it, so the
/// walk must consult the corrupted root.
pub(crate) const SATP_PROBE_VA: u64 = 0x7a00_0000;

/// A regular-channel store flips one PPN bit of a live non-leaf PTE in
/// `pid`'s root table, issued from `hart`: the attacker's arbitrary-write
/// primitive aimed at a page table. `choose` gets the root's table-pointer
/// slots in slot order and picks the victim slot and the bit, or no site.
/// A denied store changed nothing, so there is nothing to restore.
pub(crate) fn pte_bit_flip(
    k: &mut Kernel,
    hart: usize,
    pid: Pid,
    choose: impl FnOnce(&[PhysAddr]) -> Option<(PhysAddr, u32)>,
) -> InjectOutcome {
    let Some(root) = k.process_root(pid) else {
        return InjectOutcome::Skipped;
    };
    // An unreadable root offers no slot.
    let slots: Vec<PhysAddr> = table_entries(root, k.bus.mem())
        .into_iter()
        .flatten()
        .filter(|(_, pte)| pte.is_table())
        .map(|(slot, _)| slot)
        .collect();
    let Some((slot, bit)) = choose(&slots) else {
        return InjectOutcome::Skipped;
    };
    let ctx = AccessContext::supervisor(k.satp_s_bit()).on_hart(hart);
    match k.bus.inject_bit_flip(slot, bit, Channel::Regular, ctx) {
        Err(e) => InjectOutcome::Denied(mechanism_of(&e)),
        Ok(_) => InjectOutcome::Landed,
    }
}

/// A rogue SBI `SecureRegionSet` asking the firmware to *shrink* the
/// secure region (raise its base), which would expose page tables to
/// regular stores. The M-mode firmware owns the PMP and must refuse.
pub(crate) fn region_shrink(k: &mut Kernel) -> InjectOutcome {
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

/// Corrupts `hart`'s `satp` to root translation at a freshly allocated
/// normal-zone decoy page (outside the secure region), then forces one
/// walk at `probe`. With the PTW origin check armed the walker refuses to
/// fetch PTEs from outside the region, and the denial puts `satp` back and
/// frees the decoy; without it the bogus root is consumed silently and the
/// oracle must catch the mismatch.
pub(crate) fn satp_corrupt(k: &mut Kernel, hart: usize, probe: VirtAddr) -> InjectOutcome {
    let old = k.harts[hart].mmu.satp;
    let Some(scheme) = old.scheme else {
        return InjectOutcome::Skipped; // Bare mode: nothing to corrupt
    };
    let Ok(decoy) = k.alloc_page(GfpFlags::KERNEL.union(GfpFlags::ZERO)) else {
        return InjectOutcome::Skipped;
    };
    k.harts[hart].mmu.satp = Satp::new(scheme, decoy, old.asid, old.s_bit);
    let machine = &mut *k;
    let outcome = machine.harts[hart].mmu.translate_data(
        &mut machine.bus,
        probe,
        AccessKind::Read,
        PrivilegeMode::Supervisor,
    );
    match outcome {
        Err(TranslateError::AccessFault(e)) => {
            k.harts[hart].mmu.satp = old;
            let _ = k.free_page(decoy);
            InjectOutcome::Denied(mechanism_of(&e))
        }
        Err(TranslateError::PageFault { .. }) | Ok(_) => InjectOutcome::Landed,
    }
}

/// Forges the page-table pointer in the PCB of the process `hart` runs (an
/// attacker regular store into normal memory — always possible under the
/// threat model), then drives the kernel through `switch_mm`. `choose`
/// gets the other processes in pid order and picks the one whose root the
/// forged pointer names (the PT-Reuse attack); with none, or one sharing
/// the current root, the pointer is shifted by a page instead. With token
/// checks on, validation refuses the forged pointer and the PCB word is
/// rewritten; with them off, the bogus root reaches `satp`.
pub(crate) fn token_forge(
    k: &mut Kernel,
    hart: usize,
    choose: impl FnOnce(&[Pid]) -> Option<Pid>,
) -> InjectOutcome {
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
    let victims: Vec<Pid> = k.procs.pids().filter(|&p| p != owner).collect();
    let forged = choose(&victims)
        .and_then(|v| k.process_root(v))
        .map(|r| r.base_addr().as_u64())
        .filter(|&v| v != old)
        .unwrap_or(old + PAGE_SIZE);
    let slot_va = k.direct_map(slot);
    if k.attacker_write_u64(slot_va, forged).is_err() {
        // The PCB itself was unreachable — nothing was injected.
        return InjectOutcome::Skipped;
    }
    k.set_active_hart(hart);
    let by = match k.activate_address_space(owner) {
        Err(KernelError::TokenInvalid(_)) => DetectedBy::Mechanism(RejectingLayer::TokenValidation),
        Err(KernelError::Access(e)) => mechanism_of(&e),
        Err(_) | Ok(()) => return InjectOutcome::Landed,
    };
    // Infrastructure-level restore: the checked channels would charge this
    // write.
    let _ = k.bus.mem_unchecked().write_u64(slot, old);
    InjectOutcome::Denied(by)
}

/// Plants an IPI fabric fault, then maps, touches and unmaps one page on
/// `hart` so the unmap's TLB shootdown actually consumes it. Nothing
/// refuses a lost or reordered IPI, so a planted fault always lands.
pub(crate) fn ipi_fault(k: &mut Kernel, hart: usize, fault: IpiFault) -> InjectOutcome {
    if k.harts.len() < 2 {
        return InjectOutcome::Skipped;
    }
    k.inject_ipi_fault(fault);
    k.set_active_hart(hart);
    if let Ok(va) = k.sys_mmap(PAGE_SIZE) {
        let _ = k.sys_touch(va, true);
        let _ = k.sys_munmap(va, PAGE_SIZE);
    }
    InjectOutcome::Landed
}

/// Drains every free page of the PTStore zone, then attempts a `fork` on
/// `hart` mid-exhaustion. Containment means either a clean `ENOMEM` or a
/// dynamic secure-region adjustment absorbing the pressure, after which
/// the zone is refilled.
fn zone_exhaust(k: &mut Kernel, hart: usize) -> InjectOutcome {
    if k.pt_area_free_pages().is_none() {
        return InjectOutcome::Skipped;
    }
    let adjustments_before = k.stats.adjustments;
    k.drain_pt_zone();
    k.set_active_hart(hart);
    let contained = match k.sys_fork() {
        Err(KernelError::OutOfMemory) => true,
        Err(_) => false,
        Ok(child) => {
            // Reap the probe child to leave the process set balanced.
            let _ = k.do_switch_to(child);
            let _ = k.sys_exit(0);
            let _ = k.sys_wait();
            k.stats.adjustments > adjustments_before
        }
    };
    if !contained {
        return InjectOutcome::Landed;
    }
    let _ = k.refill_pt_zone();
    InjectOutcome::Denied(DetectedBy::Allocator)
}

/// Plants a drain-machinery fault, then drives a paging-churn burst on
/// `hart` so the deferred-shootdown queue fills and the next drain (or
/// watermark trigger) consumes it. `DrainDrop` discards the queued remote
/// invalidation at `index` before the broadcast — the missed-drain kernel
/// bug the oracle's TLB staleness sweep must flag whenever the lost page
/// was cached remotely. `WatermarkSkip` suppresses one watermark-triggered
/// early drain, which the next security boundary makes up for — benign by
/// design. Both need batching on an SMP machine (and the skip needs a
/// watermark policy) to have a site.
fn drain_fault(k: &mut Kernel, class: FaultClass, hart: usize, index: u64) -> InjectOutcome {
    if k.harts.len() < 2 || !k.cfg().deferred_shootdowns {
        return InjectOutcome::Skipped;
    }
    let depth = match (class, k.cfg().drain_policy.watermark_depth()) {
        // The skip has no site without a watermark to trigger.
        (FaultClass::WatermarkSkip, None) => return InjectOutcome::Skipped,
        (_, Some(d)) => u64::from(d),
        (_, None) => 4,
    };
    let fault = if class == FaultClass::DrainDrop {
        DrainFault::DropQueuedNext { index }
    } else {
        DrainFault::SkipWatermarkNext
    };
    k.inject_drain_fault(fault);
    // Exercise: map, touch, and unmap enough pages to cross any
    // watermark — the unmap queues the invalidations and its
    // end-of-operation boundary drain delivers (or loses) them.
    k.set_active_hart(hart);
    if let Ok(va) = k.sys_mmap((depth + 1) * PAGE_SIZE) {
        for i in 0..=depth {
            let _ = k.sys_touch(VirtAddr::new(va.as_u64() + i * PAGE_SIZE), true);
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

/// A victim index drawn from `rng` among `n` candidates (0 when there are
/// none, which names no candidate).
fn draw_index(rng: &mut StdRng, n: usize) -> usize {
    (rng.random::<u64>() as usize) % n.max(1)
}

/// Maps a hardware access fault to the mechanism layer that raised it.
fn mechanism_of(e: &AccessError) -> DetectedBy {
    DetectedBy::Mechanism(match e {
        AccessError::SecureRegionDenied { .. } => RejectingLayer::PmpSBit,
        AccessError::PtwOutsideRegion { .. } => RejectingLayer::PtwOriginCheck,
        _ => RejectingLayer::PmpChannel,
    })
}
