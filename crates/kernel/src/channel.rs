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
//!   (regular kernel data), the token-field accessors, and fork's
//!   `Kernel::copy_kernel_half`, which reads the kernel root's upper half
//!   through the bus's range read (`Bus::read_u64_run`): the words, checks,
//!   counts, trace and cycles of a `pt_read` per slot, with the PMP
//!   decided once per run of slots. These go through the PMP and pay
//!   modeled cycles. So does `Kernel::zero_page`, whose one check decides
//!   every word of the page before the bulk clear.
//! * **Host-side bulk helpers** — `Kernel::raw_copy_page` /
//!   `Kernel::raw_zero_page` / `Kernel::image_write_u64`: unchecked
//!   `PhysMem` operations used only where the modeled machine would issue a
//!   long run of ordinary stores to *non-page-table* frames (page migration,
//!   user-page scrubbing, writing the kernel image at boot). They never
//!   touch secure-region state: secure frames are cleared only through
//!   `Kernel::zero_page`.
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
use ptstore_mem::PAGE_WORDS;
use ptstore_mmu::Pte;

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

    /// Installs the kernel root's valid upper-half entries into the same
    /// slots of the fresh root `root`, as Linux shares the kernel PGD
    /// entries. The slots are read in order from 256 through the defense
    /// channel, and each valid one is installed before the next slot is
    /// read, so the bus sees a [`Self::pt_read`] per slot and a
    /// [`Self::pt_install`] right after each valid one. Every slot read,
    /// and a slot whose read fails, costs [`cost::MEM_ACCESS`], as each
    /// `pt_read` does.
    pub(crate) fn copy_kernel_half(&mut self, root: PhysPageNum) -> Result<(), KernelError> {
        let (src, ch, ctx) = (self.kernel_root.base_addr(), self.pt_channel(), self.kctx());
        let mut words = [0; PAGE_WORDS / 2];
        let mut slot = PAGE_WORDS / 2;
        while slot < PAGE_WORDS {
            let (read, found) = self.bus.read_u64_run(
                src + 8 * slot as u64,
                &mut words[..PAGE_WORDS - slot],
                ch,
                ctx,
                |raw| Pte::from_bits(raw).is_valid(),
            );
            let attempted = read + usize::from(found.is_err());
            self.charge(CostKind::MemAccess, cost::MEM_ACCESS * attempted as u64);
            slot += read;
            if found? {
                self.pt_install(root.base_addr() + 8 * (slot - 1) as u64, words[read - 1])?;
            }
        }
        Ok(())
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
    /// `sd.pt` path. The PMP must permit the store at every word of the
    /// page ([`ptstore_mem::Bus::zero_page`]).
    pub(crate) fn zero_page(&mut self, ppn: PhysPageNum, secure: bool) -> Result<(), KernelError> {
        self.charge(CostKind::MemAccess, cost::ZERO_PAGE);
        let ch = if secure {
            Channel::SecurePt
        } else {
            Channel::Regular
        };
        Ok(self.bus.zero_page(ppn, ch, self.kctx())?)
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

#[cfg(test)]
mod tests {
    use ptstore_core::{
        AccessError, AccessKind, Channel, PmpAddressMode, PmpEntry, PmpPermissions, MIB, PAGE_SIZE,
    };

    use crate::config::KernelConfig;
    use crate::error::KernelError;
    use crate::kernel::Kernel;
    use crate::zones::GfpFlags;

    #[test]
    fn zero_page_is_decided_at_every_word() {
        let mut k = Kernel::boot(
            KernelConfig::cfi_ptstore()
                .with_mem_size(256 * MIB)
                .with_initial_secure_size(16 * MIB),
        )
        .expect("boot");
        let ppn = k.alloc_page(GfpFlags::KERNEL).expect("page");
        let middle = ppn.base_addr() + PAGE_SIZE / 2;
        k.bus
            .mem_unchecked()
            .write_u64(ppn.base_addr(), 9)
            .expect("store");
        // The secure TOR pair holds entries 0 and 1; nothing else matches
        // this page, so a read-only NA4 at 2 decides its middle word.
        k.bus.pmp_mut().set_entry(
            2,
            PmpEntry {
                cfg: PmpPermissions::new()
                    .with_read()
                    .with_mode(PmpAddressMode::Na4),
                addr: PmpEntry::encode_addr(middle),
            },
        );
        assert_eq!(
            k.zero_page(ppn, false),
            Err(KernelError::Access(AccessError::PmpDenied {
                addr: middle,
                kind: AccessKind::Write,
                channel: Channel::Regular,
            }))
        );
        assert_eq!(k.bus.mem().read_u64(ppn.base_addr()), Ok(9));
    }
}
