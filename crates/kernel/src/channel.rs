//! The kernel's **only** gateway to raw physical memory.
//!
//! The paper's software support (§IV-C2) modifies LLVM so that every kernel
//! page-table accessor *must* compile to `ld.pt`/`sd.pt` — the secure channel
//! cannot be bypassed by construction. This module is the source-level twin
//! of that guarantee: every `Bus`/`PhysMem` access the kernel performs is
//! concentrated here. The crate's `clippy.toml` lists the raw `Bus` methods
//! under `disallowed-methods`, so `cargo clippy -D warnings` rejects a raw
//! bus call anywhere else in `ptstore-kernel`, whatever the receiver is
//! named. The few sites outside this module that must call the raw bus (the
//! M-mode firmware in [`crate::sbi`], the attacker API in
//! [`crate::introspect`], the boot-time ablation knob) each carry an
//! `#[expect(clippy::disallowed_methods, reason = "..")]`, which also fails
//! once the raw call it excuses is gone.
//!
//! Grouped by trust level:
//!
//! * **Checked, channel-tagged accessors** — `Kernel::pt_read`, the two
//!   page-table stores `Kernel::pt_install` / `Kernel::pt_replace` (the
//!   `ld.pt`/`sd.pt` path), `Kernel::mem_read` / `Kernel::mem_write`
//!   (regular kernel data), and the token-field accessors. These go
//!   through the PMP and pay modeled cycles.
//! * **Host-side bulk helpers** — `Kernel::raw_copy_page` /
//!   `Kernel::raw_zero_page` / `Kernel::image_write_u64`: unchecked
//!   `PhysMem` operations used only where the modeled machine would issue a
//!   long run of ordinary stores to *non-page-table* frames (page migration,
//!   user-page scrubbing, writing the kernel image at boot). They never
//!   touch secure-region state behind the PMP's back except via
//!   `Kernel::zero_page`, whose first store is checked precisely so the
//!   channel permission is validated before the bulk clear.
//!
//! Page-table stores come in two kinds. `pt_install` writes an invalid
//! slot, or any slot of a table page no root reaches yet: no TLB can hold
//! the old entry, so nothing is owed. `pt_replace` overwrites an entry a
//! TLB may hold and returns a [`Flush`] (the `MapperFlush` idiom of the
//! x86_64 crate). `Flush` is `#[must_use]` and only this crate can build
//! or consume it, so under the crate's `deny(unused_must_use,
//! clippy::let_underscore_must_use)` a replacing write whose stale
//! translation nobody invalidates — the TLB-inconsistency attack of §V-E —
//! does not compile.

#![expect(
    clippy::disallowed_methods,
    reason = "the channel module is the one place raw bus access is allowed"
)]

use ptstore_core::{Channel, PhysAddr, PhysPageNum, VirtAddr};

use crate::config::DefenseMode;
use crate::cycles::{cost, CostKind};
use crate::error::KernelError;
use crate::kernel::Kernel;

/// A TLB invalidation owed by a replaced page-table entry.
///
/// Only the kernel builds one (its page-table store that overwrites a live
/// entry returns it) and only the kernel consumes it: eagerly, deferred to
/// the batched shootdown, or by naming the wider flush that already covers
/// it. Dropping one unconsumed is a compile error inside the kernel:
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// fn replace() -> ptstore_kernel::channel::Flush {
///     unreachable!()
/// }
/// fn main() {
///     replace();
/// }
/// ```
///
/// and no other crate can forge one to hand back:
///
/// ```compile_fail
/// let _ = ptstore_kernel::channel::Flush(());
/// ```
#[must_use = "the replaced entry may still be cached in a TLB: flush it"]
pub struct Flush(());

impl Flush {
    /// Invalidates the page now, on every hart (`Kernel::tlb_flush_page`).
    pub(crate) fn page(self, k: &mut Kernel, va: VirtAddr, asid: u16) {
        k.tlb_flush_page(va, asid);
    }

    /// Invalidates the page locally now and queues the remote broadcast
    /// for the next drain (`Kernel::queue_flush_page`).
    pub(crate) fn queue(self, k: &mut Kernel, va: VirtAddr, asid: u16) {
        k.queue_flush_page(va, asid);
    }

    /// Discharges the obligation without a flush of its own: `why` names
    /// the wider flush that follows and covers this page.
    pub(crate) fn covered_by(self, _why: &'static str) {}
}

impl Kernel {
    /// A checked regular-channel 8-byte read (kernel data structures).
    pub(crate) fn mem_read(&mut self, pa: PhysAddr) -> Result<u64, KernelError> {
        self.charge(CostKind::MemAccess, cost::MEM_ACCESS);
        Ok(self.bus.read::<u64>(pa, Channel::Regular, self.kctx())?)
    }

    /// A checked regular-channel 8-byte write (kernel data structures).
    pub(crate) fn mem_write(&mut self, pa: PhysAddr, v: u64) -> Result<(), KernelError> {
        self.charge(CostKind::MemAccess, cost::MEM_ACCESS);
        Ok(self
            .bus
            .write::<u64>(pa, v, Channel::Regular, self.kctx())?)
    }

    /// A page-table read via the defense channel (`ld.pt` under PTStore).
    pub(crate) fn pt_read(&mut self, pa: PhysAddr) -> Result<u64, KernelError> {
        self.charge(CostKind::MemAccess, cost::MEM_ACCESS);
        let ch = self.pt_channel();
        Ok(self.bus.read::<u64>(pa, ch, self.kctx())?)
    }

    /// A page-table write via the defense channel (`sd.pt` under PTStore).
    /// The virtual-isolation baseline pays its write-window toll here.
    fn pt_write(&mut self, pa: PhysAddr, v: u64) -> Result<(), KernelError> {
        self.charge(CostKind::PtWrite, cost::MEM_ACCESS);
        if self.cfg.defense == DefenseMode::VirtualIsolation {
            self.charge(CostKind::VirtIsolationSwitch, cost::VIRT_ISO_WINDOW);
        }
        let ch = self.pt_channel();
        Ok(self.bus.write::<u64>(pa, v, ch, self.kctx())?)
    }

    /// Writes a page-table entry no TLB can hold: an invalid slot, or any
    /// slot of a table page no root reaches yet. Owes no flush.
    pub(crate) fn pt_install(&mut self, pa: PhysAddr, v: u64) -> Result<(), KernelError> {
        self.pt_write(pa, v)
    }

    /// Overwrites a page-table entry a TLB may hold; the returned [`Flush`]
    /// must invalidate the old translation.
    pub(crate) fn pt_replace(&mut self, pa: PhysAddr, v: u64) -> Result<Flush, KernelError> {
        self.pt_write(pa, v)?;
        Ok(Flush(()))
    }

    /// An 8-byte secure-channel read (`ld.pt`) of a token field. Cycle
    /// accounting is the caller's: token costs are charged per operation
    /// ([`cost::TOKEN_VALIDATE`] etc.), not per store.
    pub(crate) fn secure_u64_read(&mut self, pa: PhysAddr) -> Result<u64, KernelError> {
        Ok(self.bus.read::<u64>(pa, Channel::SecurePt, self.kctx())?)
    }

    /// An 8-byte secure-channel write (`sd.pt`) of a token field. See
    /// [`Self::secure_u64_read`] for the cycle-accounting convention.
    pub(crate) fn secure_u64_write(&mut self, pa: PhysAddr, v: u64) -> Result<(), KernelError> {
        Ok(self
            .bus
            .write::<u64>(pa, v, Channel::SecurePt, self.kctx())?)
    }

    /// Zeroes a page through the appropriate channel; `secure` selects the
    /// `sd.pt` path.
    pub(crate) fn zero_page(&mut self, ppn: PhysPageNum, secure: bool) -> Result<(), KernelError> {
        self.charge(CostKind::MemAccess, cost::ZERO_PAGE);
        // One checked store validates the channel is actually permitted...
        let ch = if secure {
            Channel::SecurePt
        } else {
            Channel::Regular
        };
        self.bus.write::<u64>(ppn.base_addr(), 0, ch, self.kctx())?;
        // ...then the rest of the page is cleared in bulk.
        self.bus.mem_unchecked().zero_page(ppn);
        Ok(())
    }

    /// Copies one whole *data* frame host-side (page migration, CoW break).
    /// Never used on page-table frames — those are written PTE-by-PTE via
    /// [`Self::pt_install`] / [`Self::pt_replace`] so the PMP adjudicates
    /// every store.
    pub(crate) fn raw_copy_page(
        &mut self,
        from: PhysPageNum,
        to: PhysPageNum,
    ) -> Result<(), KernelError> {
        Ok(self.bus.mem_unchecked().copy_page(from, to)?)
    }

    /// Scrubs one *data* frame host-side (freed user pages, vacated
    /// migration sources). Secure-region frames instead go through
    /// [`Self::zero_page`] with `secure = true` so the channel is checked.
    pub(crate) fn raw_zero_page(&mut self, ppn: PhysPageNum) {
        self.bus.mem_unchecked().zero_page(ppn);
    }

    /// Writes one word of the kernel image at boot (materialising the
    /// PT-Rand secret global). The image region predates the PMP program,
    /// so this is the loader's store, not a kernel runtime access.
    pub(crate) fn image_write_u64(&mut self, pa: PhysAddr, v: u64) -> Result<(), KernelError> {
        Ok(self.bus.mem_unchecked().write_u64(pa, v)?)
    }
}
