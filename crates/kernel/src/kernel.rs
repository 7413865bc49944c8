//! The kernel model: boot, physical memory management, the PTStore secure
//! region with dynamic adjustment, page-table manipulation through the
//! defense-appropriate channel, and the token mechanism.
//!
//! This file is the software half of the co-design (paper §IV-B/§IV-C); the
//! hardware half lives in `ptstore-core`/`ptstore-mem`/`ptstore-mmu`.

use ptstore_core::digest::WordHashMap;
use ptstore_core::{
    AccessContext, Channel, PhysAddr, PhysPageNum, SecureRegion, Token, TokenError, VirtAddr, MIB,
    PAGE_SHIFT, PAGE_SIZE,
};
use ptstore_mem::Bus;
use ptstore_mmu::{walk, Mmu, Pte, PteFlags, Satp};
use ptstore_trace::{FaultClass, FlushScope, SinkSlot, TokenOp, TraceEvent, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{DefenseMode, KernelConfig};
use crate::cycles::{cost, CostKind, CycleCounter};
use crate::error::KernelError;
use crate::fs::{PipeTable, RamFs};
use crate::hart::{Hart, HartMsg, HartMsgKind};
use crate::pagetable::{
    direct_map_va, leaf_pages, pte_slot, UserMapping, DIRECT_MAP_BASE, HUGE_PAGE_SPAN,
};
use crate::process::{Pid, Process, ProcessTable};
use crate::sbi::{SbiCall, SbiFirmware, SbiResult};
use crate::slab::SlabCache;
use crate::stats::{KernelStats, SecurityEvent};
use crate::zones::{AllocError, BuddyZone, GfpFlags};

/// Physical bytes reserved at the bottom of memory for the kernel image
/// (text + static data; never enters the page allocator).
pub const KERNEL_IMAGE_SIZE: u64 = 2 * MIB;

/// A simple model of one connected network socket.
#[derive(Debug, Clone, Default)]
pub struct Socket {
    /// Bytes queued for the application to read.
    pub rx: u64,
    /// Bytes the application has sent.
    pub tx: u64,
    /// Descriptors, across every process, that refer to this socket; the
    /// last one to close removes it.
    pub holders: u32,
}

/// The kernel model.
///
/// See the crate docs for the subsystem map. All public experiment surfaces
/// (workloads, attacks, benchmarks) drive the kernel through syscalls and
/// the introspection API; nothing reaches around the access-checked paths.
///
/// A clone is an independent machine in the same state, with no trace sink
/// attached: the model checker expands each frontier state by cloning it
/// once per op.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Static configuration, fixed at boot (read it with [`Kernel::cfg`]).
    pub(crate) cfg: KernelConfig,
    /// The memory bus (physical memory behind the PMP).
    pub bus: Bus,
    /// The harts: each owns an MMU (both TLBs and the walker), the process
    /// it is running, a private run queue, and a private cycle counter.
    /// Hart 0 is the boot hart.
    pub harts: Vec<Hart>,
    /// The hart kernel entry points currently execute on.
    pub(crate) active_hart: usize,
    /// Machine-wide cycle accounting (the aggregate across all harts; the
    /// paper's overhead anchors are expressed against this counter).
    pub cycles: CycleCounter,
    /// Event counters.
    pub stats: KernelStats,
    /// The ramfs.
    pub fs: RamFs,

    pub(crate) normal_zone: BuddyZone,
    /// The PTStore zone (also used as the "pt area" by the PT-Rand and
    /// virtual-isolation baselines); `None` when page tables come from the
    /// normal zone.
    pub(crate) pt_zone: Option<BuddyZone>,
    pub(crate) secure_region: Option<SecureRegion>,
    /// The M-mode firmware backing the PTStore SBI extension (§IV-B).
    pub(crate) sbi: SbiFirmware,
    pub(crate) pcb_slab: SlabCache,
    pub(crate) token_slab: Option<SlabCache>,
    /// Process table.
    pub procs: ProcessTable,
    pub(crate) next_pid: Pid,
    pub(crate) next_asid: u16,
    pub(crate) kernel_root: PhysPageNum,
    pub(crate) kernel_pt_pages: Vec<PhysPageNum>,
    /// Shared user text page (all model programs run the same "binary").
    pub(crate) shared_text_ppn: PhysPageNum,
    /// Reference counts of user data pages.
    pub(crate) page_refs: WordHashMap<u64, u32>,
    pub(crate) pipes: PipeTable,
    pub(crate) sockets: WordHashMap<u32, Socket>,
    pub(crate) next_socket: u32,
    /// PT-Rand: the secret offset of the randomised page-table window, also
    /// materialised at a fixed kernel global address (leakable, §VI-1).
    pub(crate) pt_rand_offset: u64,
    /// Fault-injection hook for the allocator-metadata attack (§V-E3): the
    /// next page-table allocation returns this (in-use) page.
    pub(crate) injected_overlap: Option<PhysPageNum>,
    /// Fault-injection hook for the IPI fabric: the next shootdown broadcast
    /// is perturbed (an IPI dropped, or acks collected in reverse order).
    pub(crate) ipi_fault: Option<IpiFault>,
    /// Fault-injection hook for the drain machinery: the next drain loses a
    /// queued entry, or the next watermark-triggered early drain is skipped.
    pub(crate) drain_fault: Option<crate::drain::DrainFault>,
    /// True once the 15-bit ASID allocator has rolled over: every ASID
    /// handed out from here on is a reuse, and `create_address_space`
    /// force-drains deferred flushes under **every** drain policy.
    pub(crate) asid_wrapped: bool,
    /// Pages drained out of the PTStore zone by the zone-exhaustion fault
    /// (held here so they can be refilled after the run).
    pub(crate) drained_pt_pages: Vec<PhysPageNum>,
    /// Defense firings.
    pub security_log: Vec<SecurityEvent>,
    /// True once boot completed and the PTW origin check is armed.
    pub(crate) ptw_check_armed: bool,
    /// Attached trace sink for kernel-level events (tokens, syscalls,
    /// region moves). An empty slot keeps every emit site a no-op.
    pub(crate) trace: SinkSlot,
    /// `(name, cycle total at entry)` of the in-flight traced syscall.
    pub(crate) syscall_mark: Option<(&'static str, u64)>,
}

/// Kernel virtual address where the PT-Rand secret offset global lives
/// (inside the kernel image; readable with an arbitrary-read primitive).
pub const PT_RAND_GLOBAL_PA: u64 = 0x10_0000;

/// Base of the PT-Rand randomised mapping window (upper half, disjoint from
/// the direct map).
pub const PT_RAND_WINDOW_BASE: u64 = 0xFFFF_FFD0_0000_0000;

/// A planted perturbation of the next TLB-shootdown broadcast (the
/// `ptstore-fault` IPI tap; see [`Kernel::inject_ipi_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpiFault {
    /// The IPI to `victim` is silently lost: that hart neither flushes nor
    /// pays the receive cost, and its TLBs go stale.
    DropNext {
        /// Hart index whose IPI is dropped.
        victim: usize,
    },
    /// Acknowledgements are collected in reversed hart order. The shootdown
    /// is a barrier, so this must be (and is) behaviour-preserving — the
    /// fault campaign classifies it as benign by re-checking the oracle.
    ReorderNext,
}

impl Kernel {
    /// Boots a kernel with `cfg`. This performs the PTStore boot protocol of
    /// paper §IV: install the secure region via the SBI, move every page
    /// table into it using `sd.pt`, then arm the walker check (`satp.S`).
    ///
    /// # Errors
    /// [`KernelError::Config`] when [`KernelConfig::validate`] refuses
    /// `cfg`, before anything is built; otherwise propagates allocation and
    /// region errors.
    pub fn boot(cfg: KernelConfig) -> Result<Self, KernelError> {
        cfg.validate()?;
        let mut bus = Bus::new(cfg.mem_size);
        let mut cycles = CycleCounter::new();

        // Zone layout: [image | normal zone | pt area/PTStore zone].
        let uses_pt_area = cfg.defense != DefenseMode::None;
        let pt_area_size = if uses_pt_area {
            cfg.initial_secure_size
        } else {
            0
        };
        let normal_pages = (cfg.mem_size - KERNEL_IMAGE_SIZE - pt_area_size) / PAGE_SIZE;
        let normal_zone = BuddyZone::new(
            "normal",
            PhysPageNum::new(KERNEL_IMAGE_SIZE / PAGE_SIZE),
            normal_pages,
        );
        let pt_zone = uses_pt_area.then(|| {
            BuddyZone::new(
                "ptstore",
                PhysPageNum::new((cfg.mem_size - pt_area_size) / PAGE_SIZE),
                pt_area_size / PAGE_SIZE,
            )
        });

        // SBI: initialise the secure region and set the S-bit PMP entry
        // (paper §IV-B). Only in PTStore mode does the PMP know about it.
        let mut sbi = SbiFirmware::new();
        let secure_region = if cfg.defense.is_ptstore() {
            let base = PhysAddr::new(cfg.mem_size - cfg.initial_secure_size);
            match sbi.handle(
                &mut bus,
                SbiCall::SecureRegionInit {
                    base,
                    size: cfg.initial_secure_size,
                },
            ) {
                SbiResult::Ok => {}
                SbiResult::Err(e) => panic!("sbi init rejected: {e}"),
                SbiResult::Region { .. } => unreachable!("init returns Ok"),
            }
            cycles.charge(CostKind::Sbi, cost::SBI_CALL);
            Some(SecureRegion::new(base, cfg.initial_secure_size)?)
        } else {
            None
        };

        // Ablation: drop the S-bit's channel semantics so landed faults are
        // visible to the invariant oracle (never cleared in the full design).
        if cfg.defense.is_ptstore() && !cfg.pmp_s_bit_check {
            #[expect(
                clippy::disallowed_methods,
                reason = "boot-time ablation knob flipped before the kernel object (and with \
                          it the channel module's accessors) exists; never taken in the full \
                          design"
            )]
            bus.pmp_mut().set_secure_enforcement(false);
        }

        let mut rng = StdRng::seed_from_u64(0x7057_0e5e);
        let pt_rand_offset: u64 = if cfg.defense == DefenseMode::PtRand {
            (rng.random::<u64>() & 0x0000_000F_FFFF_F000) | 0x1000
        } else {
            0
        };

        let mut kernel = Self {
            cfg,
            bus,
            harts: (0..cfg.harts).map(Hart::new).collect(),
            active_hart: 0,
            cycles,
            stats: KernelStats::default(),
            fs: RamFs::new(),
            normal_zone,
            pt_zone,
            secure_region,
            sbi,
            pcb_slab: SlabCache::new(crate::process::PCB_SIZE),
            token_slab: cfg.defense.is_ptstore().then(|| SlabCache::new(16)),
            procs: ProcessTable::new(),
            next_pid: 1,
            next_asid: 1,
            kernel_root: PhysPageNum::new(0),
            kernel_pt_pages: Vec::new(),
            shared_text_ppn: PhysPageNum::new(0),
            page_refs: WordHashMap::default(),
            pipes: PipeTable::new(),
            sockets: WordHashMap::default(),
            next_socket: 1,
            pt_rand_offset,
            injected_overlap: None,
            ipi_fault: None,
            drain_fault: None,
            asid_wrapped: false,
            drained_pt_pages: Vec::new(),
            security_log: Vec::new(),
            ptw_check_armed: false,
            trace: SinkSlot::default(),
            syscall_mark: None,
        };

        // Materialise the PT-Rand secret in kernel memory (it must exist
        // somewhere for the kernel to use it — that is the §VI-1 weakness).
        kernel.image_write_u64(PhysAddr::new(PT_RAND_GLOBAL_PA), kernel.pt_rand_offset)?;

        kernel.build_kernel_address_space()?;
        kernel.ptw_check_armed = kernel.satp_s_bit();

        // Shared user text page.
        let text = kernel.alloc_page(GfpFlags::ZERO)?;
        kernel.shared_text_ppn = text;
        *kernel.page_refs.entry(text.as_u64()).or_insert(0) += 1;

        // Standard files the microbenchmarks use.
        kernel
            .fs
            .create("/etc/passwd", b"root:x:0:0:root:/root:/bin/sh\n".to_vec());
        kernel.fs.create("/dev/zero", vec![0u8; 4096]);
        kernel.fs.create("/tmp/XXX", vec![0u8; 1024]);

        // Init process.
        let init = kernel.spawn_init()?;
        kernel.harts[0].current = init;
        kernel.activate_address_space(init)?;
        Ok(kernel)
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// Attaches (or, with `None`, detaches) a trace sink across every layer:
    /// the bus (and through it the PMP), both TLBs, and the kernel's own
    /// token/syscall/region events all land in the same stream.
    pub fn set_trace_sink(&mut self, sink: Option<TraceSink>) {
        self.bus.set_trace_sink(sink.clone());
        for hart in &mut self.harts {
            hart.mmu.set_trace_sink(sink.clone());
        }
        self.trace.set(sink);
    }

    /// The attached trace sink, if any.
    pub fn trace_sink(&self) -> Option<&TraceSink> {
        self.trace.get()
    }

    // ------------------------------------------------------------------
    // Access-context helpers
    // ------------------------------------------------------------------

    /// The supervisor access context with the current `satp.S` state.
    pub(crate) fn kctx(&self) -> AccessContext {
        AccessContext::supervisor(self.ptw_check_armed).on_hart(self.active_hart)
    }

    /// Whether `satp.S` is set on this machine: PTStore with the PTW origin
    /// check enabled (the `ptw_origin_check` ablation clears it).
    pub fn satp_s_bit(&self) -> bool {
        self.cfg.defense.is_ptstore() && self.cfg.ptw_origin_check
    }

    /// The channel the kernel's page-table manipulation code uses — the
    /// `set_pXd()` augmentation of paper §IV-C2.
    pub(crate) fn pt_channel(&self) -> Channel {
        if self.cfg.defense.is_ptstore() {
            Channel::SecurePt
        } else {
            Channel::Regular
        }
    }

    // ------------------------------------------------------------------
    // Harts: accessors, cycle charging, TLB shootdown
    // ------------------------------------------------------------------

    /// The hart kernel entry points currently execute on.
    pub fn active_hart(&self) -> usize {
        self.active_hart
    }

    /// Selects the hart that subsequent kernel entry points (syscalls,
    /// faults, scheduling) model their work on. The incoming hart drains
    /// its mailbox before any of its kernel work runs.
    ///
    /// # Panics
    /// When `hart` is out of range for this machine.
    pub fn set_active_hart(&mut self, hart: usize) {
        assert!(
            hart < self.harts.len(),
            "hart {hart} out of range (machine has {})",
            self.harts.len()
        );
        if hart != self.active_hart {
            // Security boundary: the outgoing hart may not hand off with
            // remote TLBs still owing invalidations it queued.
            self.drain_deferred_flushes();
        }
        self.active_hart = hart;
        self.merge_hart_msgs(hart);
    }

    /// Drains `hart`'s mailbox. Every record only counts: a reaped pid
    /// stays in the run queue until `pick_next` reaches and drops it (pids
    /// never recycle).
    fn merge_hart_msgs(&mut self, hart: usize) {
        let mailbox = &mut self.harts[hart].mailbox;
        self.stats.hart_msgs_merged += mailbox.len() as u64;
        mailbox.clear();
    }

    /// Posts a cross-hart message from the active hart to `to`.
    pub(crate) fn post_hart_msg(&mut self, to: usize, kind: HartMsgKind) {
        if to == self.active_hart || to >= self.harts.len() {
            return;
        }
        let from = self.active_hart;
        self.harts[to].mailbox.push(HartMsg { from, kind });
    }

    /// The handle for `pid` while it is live: the pid itself.
    pub fn proc_handle(&self, pid: Pid) -> Option<crate::process::ProcHandle> {
        self.procs.get(pid).map(|p| p.pid)
    }

    /// Resolves a handle, counting a stale-handle rejection when its
    /// process has been reaped.
    pub fn resolve_handle(&mut self, h: crate::process::ProcHandle) -> Option<&Process> {
        if self.procs.get(h).is_none() {
            self.stats.stale_handle_rejects += 1;
        }
        self.procs.get(h)
    }

    /// The active hart's MMU.
    pub fn mmu(&self) -> &Mmu {
        &self.harts[self.active_hart].mmu
    }

    /// Charges `n` cycles of `kind` both machine-wide and to the active
    /// hart's private counter (which feeds per-hart utilization).
    pub fn charge(&mut self, kind: CostKind, n: u64) {
        self.cycles.charge(kind, n);
        self.harts[self.active_hart].cycles.charge(kind, n);
    }

    /// Flushes one page translation machine-wide: a local `sfence.vma` on
    /// the active hart plus, on SMP, an IPI shootdown that every remote
    /// hart acknowledges after flushing (the `flush_tlb_page` path).
    pub(crate) fn tlb_flush_page(&mut self, va: VirtAddr, asid: u16) {
        self.harts[self.active_hart].mmu.sfence_page(va, asid);
        self.stats.sfences += 1;
        self.charge(CostKind::TlbFlush, cost::SFENCE_PAGE);
        self.shootdown(FlushScope::Page {
            vpn: va.as_u64() >> PAGE_SHIFT,
            asid,
        });
    }

    /// Flushes one page translation, deferring the remote broadcast when
    /// batched shootdowns are configured: the *local* `sfence.vma` (and its
    /// cost) is always eager — the active hart never runs on a stale
    /// translation — but on SMP with `deferred_shootdowns` the cross-hart
    /// IPI is queued on the active hart and coalesced with its neighbours
    /// into one broadcast at the next [`Kernel::drain_deferred_flushes`]
    /// (the end of the mapping operation, or a security boundary, whichever
    /// comes first). With the knob off — or on a single hart, where there
    /// is nothing to broadcast — this is exactly `tlb_flush_page`.
    pub(crate) fn queue_flush_page(&mut self, va: VirtAddr, asid: u16) {
        if self.cfg.deferred_shootdowns && self.harts.len() > 1 {
            self.harts[self.active_hart].mmu.sfence_page(va, asid);
            self.stats.sfences += 1;
            self.charge(CostKind::TlbFlush, cost::SFENCE_PAGE);
            self.harts[self.active_hart]
                .flush_queue
                .push((va.as_u64() >> PAGE_SHIFT, asid));
            let depth = self.harts[self.active_hart].flush_queue.len() as u64;
            self.stats.deferred_queue_peak = self.stats.deferred_queue_peak.max(depth);
            self.maybe_watermark_drain(depth);
        } else {
            self.tlb_flush_page(va, asid);
        }
    }

    /// The [`DrainPolicy::Watermark`](crate::drain::DrainPolicy) early
    /// drain: fires when the active hart's queue has just reached the
    /// configured depth. Purely performance placement — entries it drains
    /// would otherwise ride the next mandatory boundary drain — so the
    /// `ptstore-fault` tap may skip it whole
    /// ([`DrainFault::SkipWatermarkNext`](crate::drain::DrainFault)) and
    /// the machine must stay invariant-clean.
    pub(crate) fn maybe_watermark_drain(&mut self, depth: u64) {
        let Some(limit) = self.cfg.drain_policy.watermark_depth() else {
            return;
        };
        if depth < u64::from(limit) {
            return;
        }
        if matches!(
            self.drain_fault,
            Some(crate::drain::DrainFault::SkipWatermarkNext)
        ) {
            self.drain_fault = None;
            if let Some(sink) = self.trace.get() {
                sink.emit(TraceEvent::IpiFault {
                    kind: FaultClass::WatermarkSkip,
                    victim: self.active_hart as u32,
                });
            }
            return;
        }
        self.stats.watermark_drains += 1;
        self.drain_deferred_flushes();
    }

    /// Drains the active hart's deferred-shootdown queue in **one** IPI
    /// round: the initiator pays a single send + ack-wait per remote hart
    /// for the whole batch, and each remote pays one IPI receive plus the
    /// per-page flushes. Remote TLB state afterwards is exactly what the
    /// eager per-page path would have produced (pages are invalidated
    /// individually, never promoted to an ASID-wide flush), so verdicts and
    /// the fault oracle's TLB-hygiene invariant are unchanged — only the
    /// IPI count drops.
    ///
    /// Forced at every security-relevant boundary: secure-region
    /// adjustment, context switch / hart handoff, and the end of a CoW
    /// break. A no-op when the queue is empty.
    pub fn drain_deferred_flushes(&mut self) {
        let from = self.active_hart;
        let mut queue = std::mem::take(&mut self.harts[from].flush_queue);
        if queue.is_empty() {
            return;
        }
        queue.sort_unstable_by_key(|&(vpn, asid)| (asid, vpn));
        queue.dedup();
        // The ptstore-fault drain tap: one queued entry is silently lost
        // before the broadcast. The local sfence already happened at queue
        // time, so only the *remote* invalidation goes missing — the
        // missed-drain bug the oracle's staleness sweep exists to catch.
        if let Some(crate::drain::DrainFault::DropQueuedNext { index }) = self.drain_fault {
            self.drain_fault = None;
            queue.remove((index % queue.len() as u64) as usize);
            if let Some(sink) = self.trace.get() {
                sink.emit(TraceEvent::IpiFault {
                    kind: FaultClass::DrainDrop,
                    victim: from as u32,
                });
            }
            if queue.is_empty() {
                // The whole batch was the one lost entry: no IPI round
                // happens at all, and the kernel believes it drained.
                return;
            }
        }
        let scopes: Vec<FlushScope> = queue
            .iter()
            .map(|&(vpn, asid)| FlushScope::Page { vpn, asid })
            .collect();
        let acks = self.ipi_round(&scopes);
        self.stats.deferred_drains += 1;
        self.stats.deferred_pages_coalesced += queue.len() as u64;
        if let Some(sink) = self.trace.get() {
            // One trace record per consecutive run; the whole batch rode a
            // single IPI round, so only the first run reports the acks.
            let mut runs: Vec<(u64, u64, u16)> = Vec::new();
            for &(vpn, asid) in &queue {
                match runs.last_mut() {
                    Some((start, pages, a)) if *a == asid && vpn == *start + *pages => *pages += 1,
                    _ => runs.push((vpn, 1, asid)),
                }
            }
            for (idx, &(vpn, pages, asid)) in runs.iter().enumerate() {
                sink.emit(TraceEvent::TlbShootdown {
                    scope: FlushScope::Range { vpn, pages, asid },
                    from_hart: from as u32,
                    acks: if idx == 0 { acks } else { 0 },
                });
            }
        }
    }

    /// Pages currently queued for a deferred shootdown on the active hart.
    pub fn pending_deferred_flushes(&self) -> usize {
        self.harts[self.active_hart].flush_queue.len()
    }

    /// Flushes every translation of `asid` machine-wide (local
    /// `sfence.vma x0, asid` plus the SMP shootdown).
    pub(crate) fn tlb_flush_asid(&mut self, asid: u16) {
        self.harts[self.active_hart].mmu.sfence_asid(asid);
        self.stats.sfences += 1;
        self.charge(CostKind::TlbFlush, cost::SFENCE_ALL);
        self.shootdown(FlushScope::Asid { asid });
    }

    /// Broadcasts a TLB shootdown to every remote hart and waits for the
    /// acks. A no-op on a single-hart machine, so `--harts 1` stays
    /// cycle-identical to the original prototype.
    pub(crate) fn shootdown(&mut self, scope: FlushScope) {
        if self.harts.len() <= 1 {
            return;
        }
        let acks = self.ipi_round(&[scope]);
        if let Some(sink) = self.trace.get() {
            sink.emit(TraceEvent::TlbShootdown {
                scope,
                from_hart: self.active_hart as u32,
                acks,
            });
        }
    }

    /// One IPI round from the active hart, the barrier that eager
    /// shootdowns and batched drains share; returns the acks collected.
    ///
    /// The initiator pays an IPI send plus an ack-wait per remote hart.
    /// Each remote hart that receives the IPI pays the receive and makes
    /// every flush in `scopes` on its own counter (all of it also lands in
    /// the machine-wide aggregate), then posts its ack.
    fn ipi_round(&mut self, scopes: &[FlushScope]) -> u32 {
        let n = self.harts.len();
        let from = self.active_hart;
        let remotes = (n - 1) as u64;
        let fault = self.ipi_fault.take();
        self.charge(
            CostKind::Ipi,
            (cost::IPI_SEND + cost::IPI_ACK_WAIT) * remotes,
        );
        // The IPI fault tap: drop one IPI, or visit remotes in reverse order
        // (the shootdown is a barrier, so ack order is behaviour-preserving).
        let dropped = match fault {
            Some(IpiFault::DropNext { victim }) if victim != from && victim < n => Some(victim),
            _ => None,
        };
        let order: Vec<usize> = if matches!(fault, Some(IpiFault::ReorderNext)) {
            (0..n).rev().collect()
        } else {
            (0..n).collect()
        };
        if let (Some(sink), Some(f)) = (self.trace.get(), fault) {
            let (kind, victim) = match f {
                IpiFault::DropNext { victim } => (FaultClass::IpiDrop, victim as u32),
                IpiFault::ReorderNext => (FaultClass::IpiReorder, from as u32),
            };
            sink.emit(TraceEvent::IpiFault { kind, victim });
        }
        for i in order {
            if i == from {
                continue;
            }
            if Some(i) == dropped {
                // The IPI is lost in the fabric: the victim flushes nothing
                // and pays nothing, and its TLBs go stale.
                continue;
            }
            self.harts[i].cycles.charge(CostKind::Ipi, cost::IPI_RECV);
            self.cycles.charge(CostKind::Ipi, cost::IPI_RECV);
            for &scope in scopes {
                let mmu = &mut self.harts[i].mmu;
                let flush_cost = match scope {
                    FlushScope::Page { vpn, asid } => {
                        mmu.sfence_page(VirtAddr::new(vpn << PAGE_SHIFT), asid);
                        cost::SFENCE_PAGE
                    }
                    FlushScope::Asid { asid } => {
                        mmu.sfence_asid(asid);
                        cost::SFENCE_ALL
                    }
                    FlushScope::All => {
                        mmu.sfence_all();
                        cost::SFENCE_ALL
                    }
                    // Ranges only exist as drain trace records.
                    FlushScope::Range { .. } => unreachable!("an IPI never carries a range"),
                };
                self.stats.sfences += 1;
                self.harts[i].cycles.charge(CostKind::TlbFlush, flush_cost);
                self.cycles.charge(CostKind::TlbFlush, flush_cost);
            }
            // Visibility records: the remote hart sees the IPI, the
            // initiator sees the ack. Costs were already charged
            // synchronously above (the round is a barrier), so these
            // messages carry no cycles.
            self.post_hart_msg(i, HartMsgKind::ShootdownIpi);
            self.harts[from].mailbox.push(HartMsg {
                from: i,
                kind: HartMsgKind::ShootdownAck,
            });
        }
        self.stats.tlb_shootdowns += 1;
        self.stats.shootdown_ipis += remotes;
        remotes as u32
    }

    // ------------------------------------------------------------------
    // Page allocation
    // ------------------------------------------------------------------

    /// Allocates one page per `gfp`, retrying through secure-region
    /// adjustment for `GFP_PTSTORE` requests (paper §IV-C1).
    ///
    /// # Errors
    /// [`KernelError::OutOfMemory`] when the zones (and adjustment) cannot
    /// satisfy the request.
    pub fn alloc_page(&mut self, gfp: GfpFlags) -> Result<PhysPageNum, KernelError> {
        self.charge(CostKind::PageAlloc, cost::PAGE_ALLOC);
        let ppn = if gfp.contains(GfpFlags::PTSTORE) {
            self.charge(CostKind::PageAlloc, cost::PTSTORE_ZONE_EXTRA);
            loop {
                let zone = self.pt_zone.as_mut().ok_or(KernelError::OutOfMemory)?;
                match zone.alloc(0, false) {
                    Ok(p) => break p,
                    Err(AllocError::OutOfMemory) => self.adjust_secure_region()?,
                    Err(e) => return Err(e.into()),
                }
            }
        } else {
            self.normal_zone.alloc(0, gfp.contains(GfpFlags::MOVABLE))?
        };
        if gfp.contains(GfpFlags::ZERO) {
            self.zero_page(ppn, gfp.contains(GfpFlags::PTSTORE))?;
        }
        Ok(ppn)
    }

    /// Frees a page back to its zone.
    ///
    /// # Errors
    /// Allocator errors on double frees.
    pub fn free_page(&mut self, ppn: PhysPageNum) -> Result<(), KernelError> {
        self.charge(CostKind::PageAlloc, cost::PAGE_FREE);
        if let Some(z) = self.pt_zone.as_mut() {
            if z.contains(ppn) {
                z.free(ppn)?;
                return Ok(());
            }
        }
        self.normal_zone.free(ppn)?;
        Ok(())
    }

    /// Allocates a page-table page: `GFP_PTSTORE` routing plus the zero-check
    /// defense (paper §V-E3). The fault-injection hook models a successful
    /// allocator-metadata corruption.
    pub(crate) fn alloc_pt_page(&mut self) -> Result<PhysPageNum, KernelError> {
        let from_pt_area = self.pt_zone.is_some();
        let magazine_hit = self.cfg.alloc_magazines && self.injected_overlap.is_none();
        let ppn = if let Some(injected) = self.injected_overlap.take() {
            injected
        } else if let Some(cached) = magazine_hit
            .then(|| self.harts[self.active_hart].pt_magazine.pop())
            .flatten()
        {
            // Magazine fast path: the page never left the zone's allocated
            // set, so no buddy work (or its cost) happens. It was zeroed at
            // free time; the zero-check below still verifies that.
            cached
        } else if from_pt_area {
            self.alloc_page(GfpFlags::PTSTORE)?
        } else {
            self.alloc_page(GfpFlags::KERNEL)?
        };
        if self.cfg.defense.is_ptstore() {
            // Pages in the secure region are zeroed on free, so a non-zero
            // "fresh" page means the allocator handed out an in-use page.
            self.stats.zero_checks += 1;
            self.charge(CostKind::MemAccess, cost::ZERO_CHECK_RESIDUAL);
            let clean = self.bus.secure_page_is_zero(ppn, self.kctx())?;
            if !clean {
                self.stats.zero_check_failures += 1;
                self.security_log.push(SecurityEvent::PtPageNotZero { ppn });
                return Err(KernelError::PageNotZero);
            }
        }
        self.stats.pt_pages_live += 1;
        self.stats.pt_pages_peak = self.stats.pt_pages_peak.max(self.stats.pt_pages_live);
        Ok(ppn)
    }

    /// Frees a page-table page. Every kernel configuration zeroes page-table
    /// pages at free time (an init-on-free policy — stale PTEs never linger
    /// in the allocator): under PTStore this is also what makes the
    /// alloc-side zero-check sound (pages are zero iff actually free,
    /// §V-E3). Keeping the policy uniform keeps the per-page lifecycle cost
    /// identical across configurations, so measured deltas isolate PTStore's
    /// own additions — as the paper's <1 % overheads require.
    pub(crate) fn free_pt_page(&mut self, ppn: PhysPageNum) -> Result<(), KernelError> {
        self.zero_page(ppn, self.cfg.defense.is_ptstore())?;
        self.stats.pt_pages_live = self.stats.pt_pages_live.saturating_sub(1);
        if self.cfg.alloc_magazines {
            let mag = &mut self.harts[self.active_hart].pt_magazine;
            if mag.len() < crate::slab::MAGAZINE_CAP {
                // Park the (zeroed) page for this hart's next table alloc;
                // it stays allocated in the zone until a magazine drain.
                mag.push(ppn);
                return Ok(());
            }
        }
        self.free_page(ppn)
    }

    /// Returns every magazine-cached allocation — per-hart page-table pages
    /// and PCB objects — to its backing store. Forced before slab reclaim
    /// and secure-region adjustment so both always see canonical allocator
    /// state. Returns how many cached objects were flushed.
    ///
    /// # Errors
    /// Propagates allocator errors.
    pub fn drain_magazines(&mut self) -> Result<u64, KernelError> {
        let mut n = 0u64;
        for h in 0..self.harts.len() {
            let pages = std::mem::take(&mut self.harts[h].pt_magazine);
            n += pages.len() as u64;
            for p in pages {
                self.free_page(p)?;
            }
        }
        n += self.pcb_slab.flush_magazines() as u64;
        Ok(n)
    }

    /// Releases empty slab backing pages (the kernel's memory-pressure
    /// shrinker). Returns how many pages went back to the zones.
    ///
    /// # Errors
    /// Propagates allocator errors.
    pub fn reclaim_slabs(&mut self) -> Result<u64, KernelError> {
        // Magazine-held objects look live to shrink(); flush them first.
        self.drain_magazines()?;
        let mut released: Vec<PhysPageNum> = Vec::new();
        self.pcb_slab.shrink(|p| released.push(p));
        let mut secure_released: Vec<PhysPageNum> = Vec::new();
        if let Some(slab) = self.token_slab.as_mut() {
            slab.shrink(|p| secure_released.push(p));
        }
        let total = (released.len() + secure_released.len()) as u64;
        for p in released {
            self.free_page(p)?;
        }
        for p in secure_released {
            // Keep the pages-are-zero-when-free invariant for the zone.
            self.zero_page(p, true)?;
            self.free_page(p)?;
        }
        Ok(total)
    }

    // ------------------------------------------------------------------
    // Secure-region dynamic adjustment (paper §IV-C1)
    // ------------------------------------------------------------------

    /// Grows the secure region by one chunk: reserve contiguous pages
    /// adjacent to the boundary from the normal zone, migrate movable
    /// occupants, hand the range to the PTStore zone, and move the PMP
    /// boundary via the SBI.
    ///
    /// # Errors
    /// [`KernelError::OutOfMemory`] when adjustment is disabled or blocked by
    /// pinned pages.
    pub fn adjust_secure_region(&mut self) -> Result<(), KernelError> {
        if !self.cfg.adjustment_enabled || !self.cfg.defense.is_ptstore() {
            return Err(KernelError::OutOfMemory);
        }
        let chunk_pages = self.cfg.adjust_chunk / PAGE_SIZE;
        let boundary = self
            .pt_zone
            .as_ref()
            .ok_or(KernelError::InvalidState)?
            .base();
        let start = PhysPageNum::new(boundary.as_u64() - chunk_pages);
        self.charge(
            CostKind::Adjustment,
            cost::ADJUST_BASE + cost::ADJUST_SCAN_PAGE * chunk_pages,
        );

        // Security boundary: settle any deferred page invalidations before
        // the region moves (the queue must never straddle a PMP boundary
        // change), then, on SMP, quiesce remote page-table walkers before
        // any page table moves: broadcast a full flush and wait for every
        // hart's ack so no remote walk observes a half-migrated table.
        // Free at `--harts 1`.
        self.drain_deferred_flushes();
        self.drain_magazines()?;
        self.shootdown(FlushScope::All);

        // alloc_contig_range on the normal zone.
        let reservation =
            self.normal_zone
                .reserve_range(start, chunk_pages)
                .map_err(|e| match e {
                    AllocError::Unmovable { .. } | AllocError::OutOfZone => {
                        KernelError::OutOfMemory
                    }
                    other => KernelError::from(other),
                })?;
        let to_migrate = reservation.to_migrate.clone();
        let mut sharers = self.user_mappings_in(start, chunk_pages);
        for (block, info) in to_migrate {
            self.migrate_block(block, info.order, &mut sharers)?;
        }

        // Release the contiguous pages to the PTStore zone.
        self.normal_zone.shrink_top(chunk_pages)?;
        self.pt_zone
            .as_mut()
            .ok_or(KernelError::InvalidState)?
            .grow_bottom(chunk_pages);

        // Update the secure region boundary via the SBI (the firmware
        // validates that the boundary only moves downward, §IV-B).
        self.charge(CostKind::Sbi, cost::SBI_CALL);
        let region = self.secure_region.ok_or(KernelError::InvalidState)?;
        let grown = region.grow_down(self.cfg.adjust_chunk)?;
        match self.sbi.handle(
            &mut self.bus,
            SbiCall::SecureRegionSet {
                new_base: grown.base(),
            },
        ) {
            SbiResult::Ok => {}
            SbiResult::Err(e) => panic!("sbi set rejected during adjustment: {e}"),
            SbiResult::Region { .. } => unreachable!("set returns Ok"),
        }
        self.secure_region = Some(grown);
        self.stats.adjustments += 1;
        if let Some(sink) = self.trace.get() {
            sink.emit(TraceEvent::RegionMove {
                old_base: region.base().as_u64(),
                new_base: grown.base().as_u64(),
                end: grown.end().as_u64(),
            });
        }
        Ok(())
    }

    /// Every 4 KiB user mapping of a page in `[start, start + pages)`,
    /// keyed by page: processes in pid order, each shadow in vpn order.
    /// For a movable page that is the order its mappings were made in —
    /// fork appends the newest pid, and every other mapping of a movable
    /// page is that page's only one. Huge blocks are pinned, so they are
    /// skipped.
    fn user_mappings_in(
        &self,
        start: PhysPageNum,
        pages: u64,
    ) -> WordHashMap<u64, Vec<(Pid, u64)>> {
        let range = start.as_u64()..start.as_u64() + pages;
        let mut index: WordHashMap<u64, Vec<(Pid, u64)>> = WordHashMap::default();
        for p in self.procs.iter() {
            for (&vpn, m) in &p.aspace.user {
                if !m.huge && range.contains(&m.ppn.as_u64()) {
                    index.entry(m.ppn.as_u64()).or_default().push((p.pid, vpn));
                }
            }
        }
        index
    }

    /// Migrates one movable block out of an adjustment range, re-pointing
    /// each page's mappings as `sharers` (from [`Self::user_mappings_in`])
    /// lists them.
    fn migrate_block(
        &mut self,
        block: PhysPageNum,
        order: u8,
        sharers: &mut WordHashMap<u64, Vec<(Pid, u64)>>,
    ) -> Result<(), KernelError> {
        let pages = 1u64 << order;
        for i in 0..pages {
            let old = block + i;
            let new = self.normal_zone.alloc(0, true)?;
            self.charge(CostKind::Adjustment, cost::ADJUST_MIGRATE_PAGE);
            self.raw_copy_page(old, new)?;
            // Re-point every mapping of the old page.
            for (pid, vpn) in sharers.remove(&old.as_u64()).unwrap_or_default() {
                self.repoint_mapping(pid, vpn, new)?;
            }
            if let Some(refs) = self.page_refs.remove(&old.as_u64()) {
                self.page_refs.insert(new.as_u64(), refs);
            }
            self.stats.migrated_pages += 1;
            self.raw_zero_page(old);
        }
        self.normal_zone.complete_migration(block)?;
        Ok(())
    }

    /// Rewrites the leaf PTE of (pid, vpn) to point at `new`, preserving
    /// flags, and flushes the stale translation.
    fn repoint_mapping(&mut self, pid: Pid, vpn: u64, new: PhysPageNum) -> Result<(), KernelError> {
        let va = VirtAddr::new(vpn << PAGE_SHIFT);
        let (root, asid, flags) = {
            let p = self.procs.live(pid)?;
            let m = p.aspace.mapping(va).ok_or(KernelError::BadAddress)?;
            (p.aspace.root, p.aspace.asid, m.flags)
        };
        let slot = self.user_leaf_slot(root, va, false)?;
        self.pt_replace(slot, Pte::leaf(new, flags).bits())?
            .page(self, va, asid);
        if let Some(p) = self.procs.get_mut(pid) {
            if let Some(m) = p.aspace.user.get_mut(&vpn) {
                m.ppn = new;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Page-table construction
    // ------------------------------------------------------------------

    /// Builds the kernel address space: a direct map of all physical memory
    /// with 2 MiB superpages, with the pt-area's mapping adjusted per
    /// defense (read-only under virtual isolation, absent under PT-Rand).
    fn build_kernel_address_space(&mut self) -> Result<(), KernelError> {
        let root = self.alloc_pt_page()?;
        self.kernel_root = root;
        self.kernel_pt_pages.push(root);
        // The direct map occupies the top 256 GiB of the address space, which
        // sits inside a single entry span at every level above the GiB-level
        // tables — so the upper chain needs exactly one table per extra
        // level. Under Sv39 the chain is empty (the root *is* the GiB-level
        // table) and the allocation/write sequence below is identical to the
        // three-level layout, byte-for-byte and cycle-for-cycle.
        let levels = self.cfg.scheme.levels();
        let va0 = VirtAddr::new(DIRECT_MAP_BASE);
        let mut gib_table = root;
        for level in (3..levels).rev() {
            let t = self.alloc_pt_page()?;
            self.kernel_pt_pages.push(t);
            self.pt_install(pte_slot(gib_table, va0, level), Pte::table(t).bits())?;
            gib_table = t;
        }
        let gib_count = self.cfg.mem_size.div_ceil(ptstore_core::GIB);
        for g in 0..gib_count {
            let l1 = self.alloc_pt_page()?;
            self.kernel_pt_pages.push(l1);
            let va = VirtAddr::new(DIRECT_MAP_BASE + g * ptstore_core::GIB);
            let gib_slot = pte_slot(gib_table, va, 2);
            self.pt_install(gib_slot, Pte::table(l1).bits())?;
            // 512 2-MiB leaves per GiB (bounded by mem_size).
            for i in 0..512u64 {
                let pa = g * ptstore_core::GIB + i * 2 * MIB;
                if pa >= self.cfg.mem_size {
                    break;
                }
                let leaf_ppn = PhysPageNum::new(pa >> PAGE_SHIFT);
                let flags = self.direct_map_flags(pa);
                let slot = PhysAddr::new(l1.base_addr().as_u64() + i * 8);
                match flags {
                    Some(f) => {
                        self.pt_install(slot, Pte::leaf(leaf_ppn, f.with(PteFlags::G)).bits())?
                    }
                    None => { /* PT-Rand: hole over the pt area */ }
                }
            }
        }
        Ok(())
    }

    /// Direct-map permissions for the 2 MiB page at `pa`, per defense mode.
    fn direct_map_flags(&self, pa: u64) -> Option<PteFlags> {
        let in_pt_area = self
            .pt_zone
            .as_ref()
            .is_some_and(|z| pa >= z.base().base_addr().as_u64());
        match (self.cfg.defense, in_pt_area) {
            (DefenseMode::PtRand, true) => None,
            (DefenseMode::VirtualIsolation, true) => Some(PteFlags::from_bits(
                PteFlags::V | PteFlags::R | PteFlags::A | PteFlags::D,
            )),
            _ => Some(PteFlags::kernel_rw()),
        }
    }

    /// The slot of the user leaf at `va` under `root`: for a 4 KiB page,
    /// the level-0 slot computed from the table pointer above it (the leaf
    /// itself is not read); for a 2 MiB block (`huge`), the level-1 leaf
    /// the walk ends at.
    ///
    /// # Errors
    /// [`KernelError::BadAddress`] when no table sits above a 4 KiB slot,
    /// or when a 2 MiB walk ends anywhere but a level-1 leaf: the tables
    /// then differ from what the shadow entry describes (the fault
    /// injector's corruption, say), and no store may go to that slot.
    pub(crate) fn user_leaf_slot(
        &mut self,
        root: PhysPageNum,
        va: VirtAddr,
        huge: bool,
    ) -> Result<PhysAddr, KernelError> {
        let top = self.cfg.scheme.root_level();
        let floor = usize::from(!huge);
        let (slot, level, pte) = walk(root, va, top, floor, |slot, _| self.pt_read(slot))?;
        match (huge, level) {
            (false, _) if pte.is_table() => Ok(pte_slot(pte.ppn(), va, 0)),
            (true, 1) if pte.is_leaf() => Ok(slot),
            _ => Err(KernelError::BadAddress),
        }
    }

    /// Ensures intermediate tables exist for `va` down to (but excluding)
    /// `leaf_level` in the address space of `pid`, allocating them as
    /// needed; returns the PTE slot address at `leaf_level` (0 for a 4 KiB
    /// leaf, 1 for a 2 MiB huge leaf).
    pub(crate) fn ensure_slot_at(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        leaf_level: usize,
    ) -> Result<PhysAddr, KernelError> {
        let pid = self.mm_owner_of(pid);
        let root = self.procs.live(pid)?.aspace.root;
        let top = self.cfg.scheme.root_level();
        let mut new_pages: Vec<PhysPageNum> = Vec::new();
        // Every entry that is not a table pointer is replaced by one to a
        // fresh table, so the walk always reaches the level above the leaf.
        let make_table = |slot: PhysAddr, _: usize| -> Result<u64, KernelError> {
            let pte = Pte::from_bits(self.pt_read(slot)?);
            if pte.is_table() {
                return Ok(pte.bits());
            }
            let fresh = self.alloc_pt_page()?;
            let table = Pte::table(fresh);
            self.pt_install(slot, table.bits())?;
            new_pages.push(fresh);
            Ok(table.bits())
        };
        let walked = walk(root, va, top, leaf_level + 1, make_table);
        // Recorded even when an allocation below them failed: the tables
        // are in the tree, and exit frees what `pt_pages` lists.
        if !new_pages.is_empty() {
            let p = self.procs.live_mut(pid)?;
            p.aspace.pt_pages.extend(new_pages);
        }
        let (_, _, pte) = walked?;
        Ok(pte_slot(pte.ppn(), va, leaf_level))
    }

    /// Maps one user leaf at `va` into `pid`'s address space (the
    /// `set_pte`/`set_pmd` path): a 4 KiB page, or a pinned 2 MiB block as
    /// one level-1 leaf when `m.huge` (both then 2 MiB-aligned). The shadow
    /// records `m` at `va`'s vpn.
    pub(crate) fn map_user_leaf(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        m: UserMapping,
    ) -> Result<(), KernelError> {
        let pid = self.mm_owner_of(pid);
        let slot = self.ensure_slot_at(pid, va, usize::from(m.huge))?;
        self.pt_install(slot, Pte::leaf(m.ppn, m.flags).bits())?;
        let p = self.procs.live_mut(pid)?;
        p.aspace.user.insert(va.as_u64() >> PAGE_SHIFT, m);
        Ok(())
    }

    /// Unmaps the user leaf whose shadow entry sits at `va`'s vpn and
    /// returns that entry. For a 2 MiB block, flushing the one page `va`
    /// drops the span entry from every TLB (span entries match any page
    /// they cover).
    pub(crate) fn unmap_user_leaf(
        &mut self,
        pid: Pid,
        va: VirtAddr,
    ) -> Result<UserMapping, KernelError> {
        let pid = self.mm_owner_of(pid);
        let vpn = va.as_u64() >> PAGE_SHIFT;
        let (root, asid, m) = {
            let p = self.procs.live(pid)?;
            let m = p.aspace.user.get(&vpn).ok_or(KernelError::BadAddress)?;
            (p.aspace.root, p.aspace.asid, *m)
        };
        let slot = self.user_leaf_slot(root, va, m.huge)?;
        self.pt_replace(slot, Pte::invalid().bits())?
            .queue(self, va, asid);
        if let Some(p) = self.procs.get_mut(pid) {
            p.aspace.user.remove(&vpn);
        }
        Ok(m)
    }

    /// Drops one reference to a user page, or to a 2 MiB block when `huge`
    /// (refcounted at its base, like a compound page's head); at zero the
    /// whole allocation is scrubbed and freed.
    ///
    /// # Errors
    /// [`KernelError::InvalidState`] when `ppn` holds no reference.
    pub(crate) fn put_user_leaf(
        &mut self,
        ppn: PhysPageNum,
        huge: bool,
    ) -> Result<(), KernelError> {
        let refs = self
            .page_refs
            .get_mut(&ppn.as_u64())
            .ok_or(KernelError::InvalidState)?;
        *refs -= 1;
        if *refs == 0 {
            self.page_refs.remove(&ppn.as_u64());
            for i in 0..leaf_pages(huge) {
                self.raw_zero_page(ppn + i);
            }
            self.free_page(ppn)?;
        }
        Ok(())
    }

    /// Copies a user page, or a whole 2 MiB block when `huge`, into a
    /// fresh private allocation that holds one reference; returns it.
    pub(crate) fn copy_user_leaf(
        &mut self,
        from: PhysPageNum,
        huge: bool,
    ) -> Result<PhysPageNum, KernelError> {
        let to = if huge {
            self.alloc_user_huge_block()?
        } else {
            self.alloc_page(GfpFlags::MOVABLE)?
        };
        for i in 0..leaf_pages(huge) {
            self.charge(CostKind::MemAccess, cost::ZERO_PAGE); // page copy
            self.raw_copy_page(from + i, to + i)?;
        }
        self.page_refs.insert(to.as_u64(), 1);
        Ok(to)
    }

    /// Resolves the pid owning `pid`'s address space (threads share their
    /// owner's mm; everyone else owns their own).
    pub fn mm_owner_of(&self, pid: Pid) -> Pid {
        self.procs.get(pid).and_then(|p| p.mm_owner).unwrap_or(pid)
    }

    /// Allocates and zeroes a naturally aligned 2 MiB block for a huge user
    /// mapping. The block is *pinned* (non-movable): like Linux hugetlb
    /// pages, it is invisible to compaction/migration, so secure-region
    /// adjustment treats it as an immovable obstacle.
    pub(crate) fn alloc_user_huge_block(&mut self) -> Result<PhysPageNum, KernelError> {
        self.charge(CostKind::PageAlloc, cost::PAGE_ALLOC);
        let block = self.normal_zone.alloc(9, false)?;
        for i in 0..HUGE_PAGE_SPAN {
            self.zero_page(block + i, false)?;
        }
        Ok(block)
    }

    /// Splits the huge mapping covering `va` into 512 4 KiB mappings (the
    /// `split_huge_pmd` + `split_page` analogue): a CoW-shared block is
    /// privatized first, then a fresh level-0 table of 4 KiB leaves replaces
    /// the level-1 leaf, the buddy allocation is split page-by-page, and the
    /// shadow/refcount bookkeeping is rewritten per page.
    pub(crate) fn split_huge_mapping(&mut self, pid: Pid, va: VirtAddr) -> Result<(), KernelError> {
        let pid = self.mm_owner_of(pid);
        let base_vpn = (va.as_u64() >> PAGE_SHIFT) & !(HUGE_PAGE_SPAN - 1);
        let base_va = VirtAddr::new(base_vpn << PAGE_SHIFT);
        let (root, asid, mut m) = {
            let p = self.procs.live(pid)?;
            let m = p
                .aspace
                .user
                .get(&base_vpn)
                .filter(|m| m.huge)
                .copied()
                .ok_or(KernelError::BadAddress)?;
            (p.aspace.root, p.aspace.asid, m)
        };
        // Un-share first (split never propagates to the sharers): copy the
        // whole block into a private one, then split the private copy.
        if self.page_refs.get(&m.ppn.as_u64()).copied().unwrap_or(1) > 1 {
            let fresh = self.copy_user_leaf(m.ppn, true)?;
            self.put_user_leaf(m.ppn, true)?;
            m.ppn = fresh;
            m.cow = false;
        }
        // Build the replacement level-0 table, then swap it in under the
        // level-1 slot. Writing the table pointer last keeps the walkable
        // state consistent at every step.
        let table = self.alloc_pt_page()?;
        for i in 0..HUGE_PAGE_SPAN {
            let slot = table.base_addr() + i * 8;
            self.pt_install(slot, Pte::leaf(m.ppn + i, m.flags).bits())?;
        }
        let l1_slot = self.user_leaf_slot(root, base_va, true)?;
        self.pt_replace(l1_slot, Pte::table(table).bits())?
            .queue(self, base_va, asid);
        // The buddy block becomes 512 order-0 pages; refcounts become
        // per-page (each inherits the block's single owner).
        self.normal_zone.split_allocation(m.ppn)?;
        self.page_refs.remove(&m.ppn.as_u64());
        for i in 0..HUGE_PAGE_SPAN {
            self.page_refs.insert(m.ppn.as_u64() + i, 1);
        }
        let p = self.procs.live_mut(pid)?;
        p.aspace.user.remove(&base_vpn);
        for i in 0..HUGE_PAGE_SPAN {
            p.aspace.user.insert(
                base_vpn + i,
                UserMapping {
                    ppn: m.ppn + i,
                    huge: false,
                    ..m
                },
            );
        }
        p.aspace.pt_pages.push(table);
        Ok(())
    }

    /// Allocates one object from the slab `cache` picks, or `None` when the
    /// kernel has no such slab: a free slot when the slab has one, else the
    /// first slot of a zeroed `gfp` page that the kernel allocates and
    /// lends the slab.
    pub(crate) fn slab_alloc(
        &mut self,
        gfp: GfpFlags,
        cache: fn(&mut Self) -> Option<&mut SlabCache>,
    ) -> Result<Option<PhysAddr>, KernelError> {
        let Some(slab) = cache(self) else {
            return Ok(None);
        };
        if let Some(addr) = slab.alloc() {
            return Ok(Some(addr));
        }
        let ppn = self.alloc_page(gfp | GfpFlags::ZERO)?;
        Ok(cache(self).map(|slab| slab.grow(ppn)))
    }

    // ------------------------------------------------------------------
    // Tokens (paper §III-C3, Fig. 3)
    // ------------------------------------------------------------------

    /// Issues a token binding `pid`'s page-table pointer to its PCB; writes
    /// the token into the secure region with `sd.pt` and the token pointer
    /// into the PCB with a regular store.
    pub(crate) fn token_issue(&mut self, pid: Pid) -> Result<(), KernelError> {
        self.token_issue_as(pid, TokenOp::Issue)
    }

    /// As [`Self::token_issue`], but tagged with `op` in the trace — fork and
    /// thread creation record their child token as a copy.
    pub(crate) fn token_issue_as(&mut self, pid: Pid, op: TokenOp) -> Result<(), KernelError> {
        let token = self.slab_alloc(GfpFlags::PTSTORE, |k| k.token_slab.as_mut())?;
        let Some(token_addr) = token else {
            return Ok(()); // tokens only exist under PTStore
        };

        let mm = self.mm_owner_of(pid);
        let (pt_ptr, token_slot_field) = {
            let root = self.procs.live(mm)?.aspace.root;
            let p = self.procs.live(pid)?;
            (root.base_addr(), p.token_slot())
        };
        let token = Token::new(pt_ptr, token_slot_field);
        self.charge(CostKind::Token, cost::TOKEN_ISSUE);
        self.secure_u64_write(token_addr, token.pt_ptr.as_u64())?;
        self.secure_u64_write(token_addr + 8, token.user_ptr.as_u64())?;
        // PCB fields (normal memory; regular stores).
        self.mem_write(token_slot_field, token_addr.as_u64())?;
        let pt_slot = {
            let p = self.procs.live(pid)?;
            p.pt_ptr_slot()
        };
        self.mem_write(pt_slot, pt_ptr.as_u64())?;
        self.emit_token(op, pid, true);
        Ok(())
    }

    /// Clears and frees `pid`'s token at process destruction.
    pub(crate) fn token_clear(&mut self, pid: Pid) -> Result<(), KernelError> {
        if self.token_slab.is_none() {
            return Ok(());
        }
        let token_slot = {
            let p = self.procs.live(pid)?;
            p.token_slot()
        };
        let token_addr = PhysAddr::new(self.mem_read(token_slot)?);
        self.charge(CostKind::Token, cost::TOKEN_CLEAR);
        if self
            .token_slab
            .as_ref()
            .is_some_and(|s| s.contains(token_addr))
        {
            self.secure_u64_write(token_addr, 0)?;
            self.secure_u64_write(token_addr + 8, 0)?;
            if let Some(slab) = self.token_slab.as_mut() {
                slab.free(token_addr);
            }
        }
        self.mem_write(token_slot, 0)?;
        self.emit_token(TokenOp::Clear, pid, true);
        Ok(())
    }

    /// Validates `pid`'s page-table pointer against its token before it is
    /// used (the `switch_mm`/`satp`-update check). Returns the *validated*
    /// page-table pointer read from the PCB.
    ///
    /// # Errors
    /// [`KernelError::TokenInvalid`] when the credential does not bind; the
    /// event is recorded in the security log.
    pub(crate) fn token_validate(&mut self, pid: Pid) -> Result<PhysAddr, KernelError> {
        let (pt_slot, token_slot) = {
            let p = self.procs.live(pid)?;
            (p.pt_ptr_slot(), p.token_slot())
        };
        // Both reads hit attacker-writable memory.
        let pcb_pt_ptr = PhysAddr::new(self.mem_read(pt_slot)?);
        let token_ptr = PhysAddr::new(self.mem_read(token_slot)?);
        self.stats.token_validations += 1;
        self.charge(CostKind::Token, cost::TOKEN_VALIDATE);
        let region = self.secure_region.ok_or(KernelError::InvalidState)?;
        if !region.contains_range(token_ptr, 16) {
            self.stats.token_failures += 1;
            self.security_log
                .push(SecurityEvent::TokenPointerOutsideRegion {
                    pid,
                    ptr: token_ptr,
                });
            self.emit_token(TokenOp::Validate, pid, false);
            return Err(TokenError::TokenOutsideSecureRegion.into());
        }
        // Token fields are read back with ld.pt — unforgeable by regular
        // stores.
        let t_pt = self.secure_u64_read(token_ptr)?;
        let t_user = self.secure_u64_read(token_ptr + 8)?;
        let token = Token::new(PhysAddr::new(t_pt), PhysAddr::new(t_user));
        match token.validate(pcb_pt_ptr, token_slot) {
            Ok(()) => {
                self.emit_token(TokenOp::Validate, pid, true);
                Ok(pcb_pt_ptr)
            }
            Err(e) => {
                self.stats.token_failures += 1;
                self.security_log
                    .push(SecurityEvent::TokenRejected { pid, err: e });
                self.emit_token(TokenOp::Validate, pid, false);
                Err(e.into())
            }
        }
    }

    /// Traces one token operation on `pid`'s token.
    fn emit_token(&self, op: TokenOp, pid: Pid, ok: bool) {
        if let Some(sink) = self.trace.get() {
            sink.emit(TraceEvent::Token {
                op,
                pid: u64::from(pid),
                ok,
            });
        }
    }

    /// Loads `pid`'s address space into the MMU (`switch_mm`): under PTStore
    /// this validates the token and then writes `satp` (with the S-bit).
    ///
    /// # Errors
    /// Token validation failures abort the switch — the PT-Reuse defense.
    pub fn activate_address_space(&mut self, pid: Pid) -> Result<(), KernelError> {
        let asid = self.procs.live(pid)?.aspace.asid;
        let pt_ptr = if self.cfg.defense.is_ptstore() && self.cfg.token_checks {
            self.token_validate(pid)?
        } else {
            // Baselines trust the PCB field as-is.
            let slot = self.procs.live(pid)?.pt_ptr_slot();
            PhysAddr::new(self.mem_read(slot)?)
        };
        self.harts[self.active_hart].mmu.satp = Satp::new(
            self.cfg.scheme,
            PhysPageNum::new(pt_ptr.as_u64() >> PAGE_SHIFT),
            asid,
            self.satp_s_bit(),
        );
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection used by experiments
    // ------------------------------------------------------------------

    /// The current secure region (PTStore mode only).
    pub fn secure_region(&self) -> Option<SecureRegion> {
        self.secure_region
    }

    /// Free pages in the normal zone.
    pub fn normal_free_pages(&self) -> u64 {
        self.normal_zone.free_pages()
    }

    /// Free pages in the PTStore zone / pt area.
    pub fn pt_area_free_pages(&self) -> Option<u64> {
        self.pt_zone.as_ref().map(BuddyZone::free_pages)
    }

    /// The configuration the kernel booted with. It is fixed at boot:
    /// [`Kernel::boot`] validates it once, and a knob changed afterwards
    /// (say, a zero `adjust_chunk`) would run a machine no check has seen.
    ///
    /// ```compile_fail
    /// use ptstore_kernel::{Kernel, KernelConfig};
    ///
    /// let mut k = Kernel::boot(KernelConfig::cfi_ptstore()).unwrap();
    /// assert_eq!(k.cfg().harts, 1);
    /// k.cfg.adjust_chunk = 0; // error[E0616]: field `cfg` is private
    /// ```
    pub fn cfg(&self) -> &KernelConfig {
        &self.cfg
    }

    /// The pid running on the active hart.
    pub fn current_pid(&self) -> Pid {
        self.harts[self.active_hart].current
    }

    /// The pid the next `fork` will hand out (canonical-state accessor: two
    /// machine states that differ only in the allocation cursor behave
    /// differently on the next fork, so state dedup must see it).
    pub fn next_pid(&self) -> Pid {
        self.next_pid
    }

    /// The ASID the next address-space creation will try (canonical-state
    /// accessor, same rationale as [`Self::next_pid`]).
    pub fn next_asid(&self) -> u16 {
        self.next_asid
    }

    /// The allocation-steering words of both slab caches (PCB, then the
    /// token cache when present), length-prefixed per
    /// [`SlabCache::canon_words`]. Canonical-state accessor: slab freelist
    /// shape and magazine order decide which addresses future PCB/token
    /// allocations return, so the model checker folds these into its state
    /// digest alongside [`Self::zone_free_blocks`].
    pub fn slab_canon_words(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.pcb_slab.canon_words(&mut out);
        match self.token_slab.as_ref() {
            Some(slab) => {
                out.push(1);
                slab.canon_words(&mut out);
            }
            None => out.push(0),
        }
        out
    }

    /// Every free buddy block of every zone as `(zone name, order, start)`,
    /// in deterministic order (normal zone first, then the PTStore zone;
    /// ascending order/address within each). Canonical-state accessor: op
    /// interleavings that leave different free-list shapes behind allocate
    /// differently afterwards, so the model checker folds this into its
    /// state digest.
    pub fn zone_free_blocks(&self) -> impl Iterator<Item = (&'static str, u8, PhysPageNum)> + '_ {
        std::iter::once(&self.normal_zone)
            .chain(self.pt_zone.as_ref())
            .flat_map(|z| z.free_blocks().map(|(o, p)| (z.name(), o, p)))
    }

    /// The kernel root page table (the template for process kernel halves).
    pub fn kernel_root(&self) -> PhysPageNum {
        self.kernel_root
    }

    /// Direct-map virtual address of `pa` (what kernel code would use).
    pub fn direct_map(&self, pa: PhysAddr) -> VirtAddr {
        direct_map_va(pa)
    }

    /// Fault-injection hook for the allocator-metadata attack of §V-E3: the
    /// next page-table allocation will return `ppn` (an in-use page),
    /// modelling corrupted allocator freelists.
    pub fn inject_allocator_overlap(&mut self, ppn: PhysPageNum) {
        self.injected_overlap = Some(ppn);
    }

    /// Fault-injection hook for the IPI fabric (`ptstore-fault`): perturbs
    /// the next TLB-shootdown broadcast per `fault`.
    pub fn inject_ipi_fault(&mut self, fault: IpiFault) {
        self.ipi_fault = Some(fault);
    }

    /// Fault-injection hook for the drain machinery (`ptstore-fault`):
    /// perturbs the next deferred-shootdown drain (or watermark trigger)
    /// per `fault`. See [`crate::drain::DrainFault`].
    pub fn inject_drain_fault(&mut self, fault: crate::drain::DrainFault) {
        self.drain_fault = Some(fault);
    }

    /// True while a planted drain fault has not yet been consumed by a
    /// drain (or watermark trigger) — the injector uses this to tell a
    /// fault that actually landed from one whose site never came up.
    pub fn drain_fault_pending(&self) -> bool {
        self.drain_fault.is_some()
    }

    /// Disarms any planted drain fault and returns it, so an injector whose
    /// exercise never reached a drain site can withdraw the fault instead
    /// of letting it leak into later, unrelated operations.
    pub fn take_drain_fault(&mut self) -> Option<crate::drain::DrainFault> {
        self.drain_fault.take()
    }

    /// Plants one `(va, asid)` page invalidation in the active hart's
    /// deferred queue, exactly as an unmap would (local sfence eager,
    /// remote broadcast deferred; falls through to the eager flush when
    /// batching is off or the machine has one hart). A `ptstore-fault` /
    /// regression-test surface: it manufactures the non-empty-queue states
    /// the drain-fault and ASID-rollover scenarios need without replaying
    /// a whole workload.
    pub fn inject_deferred_flush(&mut self, va: VirtAddr, asid: u16) {
        self.queue_flush_page(va, asid);
    }

    /// Every `(asid, vpn)` pair currently queued for a deferred shootdown,
    /// across **all** harts (invariant-oracle accessor: a stale TLB entry
    /// whose invalidation is still queued is pending, not lost).
    pub fn queued_flush_pairs(&self) -> Vec<(u16, u64)> {
        let mut v: Vec<(u16, u64)> = self
            .harts
            .iter()
            .flat_map(|h| h.flush_queue.iter().map(|&(vpn, asid)| (asid, vpn)))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// True once the 15-bit ASID allocator has wrapped: every ASID handed
    /// out from here on is a reuse, and allocation force-drains deferred
    /// flushes under every drain policy.
    pub fn asid_rollover_happened(&self) -> bool {
        self.asid_wrapped
    }

    /// Overrides the next ASID to allocate (test surface: the rollover
    /// regression tests fast-forward the 15-bit allocator to its wrap
    /// point instead of creating 32 766 address spaces).
    pub fn set_next_asid(&mut self, asid: u16) {
        self.next_asid = asid;
    }

    /// The page-table pages of the shared kernel address-space template,
    /// root included (invariant-oracle accessor).
    pub fn kernel_pt_pages(&self) -> &[PhysPageNum] {
        &self.kernel_pt_pages
    }

    /// Issues one SBI call against this machine's firmware and PMP, paying
    /// the modeled SBI transition cost. The fault campaign uses this to
    /// model rogue secure-region requests the firmware must refuse; the
    /// kernel's own paths go through dedicated wrappers.
    pub fn sbi_call(&mut self, call: SbiCall) -> SbiResult {
        self.charge(CostKind::Sbi, cost::SBI_CALL);
        self.sbi.handle(&mut self.bus, call)
    }

    /// Zone-exhaustion fault: drains every free page of the PTStore zone
    /// into a holding list, so the next page-table allocation faces an
    /// empty zone (mid-`fork` exhaustion). Returns the number of pages
    /// drained. Undo with [`Self::refill_pt_zone`].
    pub fn drain_pt_zone(&mut self) -> u64 {
        let Some(zone) = self.pt_zone.as_mut() else {
            return 0;
        };
        let mut drained = 0;
        while let Ok(ppn) = zone.alloc(0, false) {
            self.drained_pt_pages.push(ppn);
            drained += 1;
        }
        drained
    }

    /// Returns every page held by [`Self::drain_pt_zone`] to the PTStore
    /// zone. Pages the zone no longer covers (the region grew and the zone
    /// was re-based meanwhile) are dropped silently.
    ///
    /// # Errors
    /// The zone's refusal of a page, after which the rest are dropped.
    pub fn refill_pt_zone(&mut self) -> Result<(), KernelError> {
        let drained = std::mem::take(&mut self.drained_pt_pages);
        let Some(zone) = self.pt_zone.as_mut() else {
            return Ok(());
        };
        for ppn in drained {
            if zone.contains(ppn) {
                zone.free(ppn)?;
            }
        }
        Ok(())
    }

    /// Queues `bytes` of incoming data on socket `id` (the benchmark
    /// client / NIC side of the network model).
    pub fn socket_push_rx(&mut self, id: u32, bytes: u64) {
        if let Some(s) = self.sockets.get_mut(&id) {
            s.rx += bytes;
        }
    }
}
