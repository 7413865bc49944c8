//! The RV64 hart: fetch/decode/execute with the PTStore extension and the
//! standard trap architecture.

use core::fmt;

use ptstore_core::{AccessContext, AccessKind, Channel, PhysAddr, PrivilegeMode, VirtAddr};
use ptstore_mem::Bus;
use ptstore_mmu::{Mmu, Satp, TranslateError};

use crate::csr::{addr as csr_addr, status, CsrError, CsrFile};
use crate::decode::decode;
use crate::inst::{AluOp, AmoOp, BranchOp, CsrOp, Inst, LoadOp, StoreOp};

/// RISC-V exception causes raised by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapCause {
    /// Instruction access fault (1) — e.g. fetching from the secure region.
    InstructionAccessFault,
    /// Illegal instruction (2) — undecodable words, privilege violations.
    IllegalInstruction,
    /// Breakpoint (3).
    Breakpoint,
    /// Load address misaligned (4).
    LoadMisaligned,
    /// Load access fault (5) — **this is what a regular load into the secure
    /// region raises**, and what `ld.pt` outside the region raises.
    LoadAccessFault,
    /// Store address misaligned (6).
    StoreMisaligned,
    /// Store access fault (7) — the store-side PTStore denial.
    StoreAccessFault,
    /// Environment call from U (8), S (9) or M (11).
    EnvironmentCall(PrivilegeMode),
    /// Instruction page fault (12).
    InstructionPageFault,
    /// Load page fault (13).
    LoadPageFault,
    /// Store page fault (15).
    StorePageFault,
    /// Supervisor timer interrupt (Sstc; `scause` = interrupt-bit | 5).
    SupervisorTimerInterrupt,
}

impl TrapCause {
    /// The standard `mcause`/`scause` encoding.
    pub const fn code(self) -> u64 {
        match self {
            TrapCause::InstructionAccessFault => 1,
            TrapCause::IllegalInstruction => 2,
            TrapCause::Breakpoint => 3,
            TrapCause::LoadMisaligned => 4,
            TrapCause::LoadAccessFault => 5,
            TrapCause::StoreMisaligned => 6,
            TrapCause::StoreAccessFault => 7,
            TrapCause::EnvironmentCall(PrivilegeMode::User) => 8,
            TrapCause::EnvironmentCall(PrivilegeMode::Supervisor) => 9,
            TrapCause::EnvironmentCall(PrivilegeMode::Machine) => 11,
            TrapCause::InstructionPageFault => 12,
            TrapCause::LoadPageFault => 13,
            TrapCause::StorePageFault => 15,
            TrapCause::SupervisorTimerInterrupt => {
                crate::csr::interrupt::CAUSE_INTERRUPT | crate::csr::interrupt::CAUSE_S_TIMER
            }
        }
    }

    /// True for interrupt causes (the high bit of `scause`).
    pub const fn is_interrupt(self) -> bool {
        matches!(self, TrapCause::SupervisorTimerInterrupt)
    }

    /// The access fault an access of `kind` raises.
    const fn access_fault(kind: AccessKind) -> Self {
        match kind {
            AccessKind::Execute => TrapCause::InstructionAccessFault,
            AccessKind::Read => TrapCause::LoadAccessFault,
            AccessKind::Write => TrapCause::StoreAccessFault,
        }
    }

    /// The page fault an access of `kind` raises.
    const fn page_fault(kind: AccessKind) -> Self {
        match kind {
            AccessKind::Execute => TrapCause::InstructionPageFault,
            AccessKind::Read => TrapCause::LoadPageFault,
            AccessKind::Write => TrapCause::StorePageFault,
        }
    }
}

impl fmt::Display for TrapCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapCause::EnvironmentCall(m) => write!(f, "ecall-{m}"),
            other => write!(f, "cause {}", other.code()),
        }
    }
}

/// A delivered trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trap {
    /// Exception cause.
    pub cause: TrapCause,
    /// Trap value (faulting address or instruction word).
    pub tval: u64,
    /// PC of the trapping instruction.
    pub epc: u64,
    /// True when the trap was delegated to S-mode.
    pub delegated: bool,
}

/// What a single `step` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Instruction retired normally.
    Retired,
    /// A trap was taken (the CPU has already vectored to the handler).
    Trapped(Trap),
    /// `wfi` executed; the model has no interrupts, so the caller decides.
    WaitingForInterrupt,
}

/// Unrecoverable simulator errors (not architectural traps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuError {
    /// A trap occurred but the corresponding trap vector is zero — the
    /// machine would spin on address 0; surfaced as an error so tests and
    /// examples fail loudly.
    TrapVectorUnset(TrapCause),
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::TrapVectorUnset(c) => write!(f, "trap {c} with no trap vector installed"),
        }
    }
}

impl std::error::Error for CpuError {}

/// One RV64 hart with the PTStore extension.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// The integer register file (`x0` is hardwired to zero).
    pub regs: [u64; 32],
    /// Program counter.
    pub pc: u64,
    /// Current privilege mode.
    pub mode: PrivilegeMode,
    /// The CSR file.
    pub csrs: CsrFile,
    /// The MMU (TLBs + walker + live `satp`).
    pub mmu: Mmu,
    /// Retired instruction count.
    pub instret: u64,
    /// LR/SC reservation (physical address of the reserved word), RV64A.
    pub reservation: Option<u64>,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// A hart reset to M-mode at PC 0.
    pub fn new() -> Self {
        Self {
            regs: [0; 32],
            pc: 0,
            mode: PrivilegeMode::Machine,
            csrs: CsrFile::new(),
            mmu: Mmu::new(),
            instret: 0,
            reservation: None,
        }
    }

    /// Reads a register (`x0` reads zero).
    pub fn reg(&self, i: u8) -> u64 {
        if i == 0 {
            0
        } else {
            self.regs[i as usize]
        }
    }

    /// Writes a register (`x0` writes are discarded).
    pub fn set_reg(&mut self, i: u8, v: u64) {
        if i != 0 {
            self.regs[i as usize] = v;
        }
    }

    fn access_ctx(&self) -> AccessContext {
        AccessContext {
            mode: self.mode,
            satp_s: self.mmu.satp.s_bit,
            hart: 0,
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    /// [`CpuError::TrapVectorUnset`] when a trap must be taken but the
    /// relevant `mtvec`/`stvec` is zero.
    pub fn step(&mut self, bus: &mut Bus) -> Result<StepEvent, CpuError> {
        // Sstc: raise/clear STIP from the timer, then take the interrupt if
        // enabled — before fetching, as hardware samples interrupts at
        // instruction boundaries.
        self.update_timer_pending();
        if self.s_timer_interrupt_ready() {
            // `sepc` holds the instruction to resume: the current pc.
            let (cause, pc) = (TrapCause::SupervisorTimerInterrupt, self.pc);
            let trap = self.enter_trap(PrivilegeMode::Supervisor, cause, 0, pc);
            return trap.map(StepEvent::Trapped);
        }
        let pc = self.pc;
        // Fetch: 16-bit parcels (the C extension allows 2-byte alignment).
        let parcel = match self.fetch_parcel(bus, pc) {
            Ok(p) => p,
            Err((cause, tval)) => return self.trap(cause, tval, pc).map(StepEvent::Trapped),
        };
        // Decode: compressed or full-width.
        let (inst, len) = if crate::compressed::is_compressed(parcel) {
            match crate::compressed::decode_compressed(parcel) {
                Some(i) => (i, 2u64),
                None => {
                    return self
                        .trap(TrapCause::IllegalInstruction, parcel as u64, pc)
                        .map(StepEvent::Trapped)
                }
            }
        } else {
            let hi = match self.fetch_parcel(bus, pc.wrapping_add(2)) {
                Ok(p) => p,
                Err((cause, tval)) => return self.trap(cause, tval, pc).map(StepEvent::Trapped),
            };
            let word = parcel as u32 | ((hi as u32) << 16);
            match decode(word) {
                Some(i) => (i, 4u64),
                None => {
                    return self
                        .trap(TrapCause::IllegalInstruction, word as u64, pc)
                        .map(StepEvent::Trapped)
                }
            }
        };
        // Execute.
        match self.execute(bus, inst, pc, len) {
            Ok(next_pc) => {
                self.pc = next_pc;
                self.instret += 1;
                if matches!(inst, Inst::Wfi) {
                    Ok(StepEvent::WaitingForInterrupt)
                } else {
                    Ok(StepEvent::Retired)
                }
            }
            Err((cause, tval)) => self.trap(cause, tval, pc).map(StepEvent::Trapped),
        }
    }

    fn fetch_parcel(&mut self, bus: &mut Bus, pc: u64) -> Result<u16, (TrapCause, u64)> {
        let pa = self.translate(bus, pc, AccessKind::Execute)?;
        bus.fetch::<u16>(pa, self.access_ctx())
            .map_err(|_| (TrapCause::InstructionAccessFault, pc))
    }

    /// Translates `va` for an access of `kind`. A failed translation raises
    /// the page or access fault an access of that kind raises, with `va`
    /// as the trap value.
    fn translate(
        &mut self,
        bus: &mut Bus,
        va: u64,
        kind: AccessKind,
    ) -> Result<PhysAddr, (TrapCause, u64)> {
        let addr = VirtAddr::new(va);
        let outcome = if kind == AccessKind::Execute {
            self.mmu.translate_fetch(bus, addr, self.mode)
        } else {
            self.mmu.translate_data(bus, addr, kind, self.mode)
        };
        outcome.map(|o| o.pa()).map_err(|e| match e {
            TranslateError::PageFault { .. } => (TrapCause::page_fault(kind), va),
            TranslateError::AccessFault(_) => (TrapCause::access_fault(kind), va),
        })
    }

    /// Reads `width` bytes at `pa`, zero-extended: one access for a
    /// doubleword, byte accesses in ascending address order otherwise. A
    /// denied access raises `fault`.
    fn read_mem(
        &self,
        bus: &mut Bus,
        pa: PhysAddr,
        width: u64,
        channel: Channel,
        fault: (TrapCause, u64),
    ) -> Result<u64, (TrapCause, u64)> {
        let ctx = self.access_ctx();
        if width == 8 {
            return bus.read::<u64>(pa, channel, ctx).map_err(|_| fault);
        }
        let mut value = 0;
        for i in 0..width {
            let byte = bus.read::<u8>(pa + i, channel, ctx).map_err(|_| fault)?;
            value |= u64::from(byte) << (8 * i);
        }
        Ok(value)
    }

    /// Writes the low `width` bytes of `value` at `pa`, split as
    /// [`read_mem`](Self::read_mem) splits a read.
    fn write_mem(
        &self,
        bus: &mut Bus,
        pa: PhysAddr,
        value: u64,
        width: u64,
        channel: Channel,
        fault: (TrapCause, u64),
    ) -> Result<(), (TrapCause, u64)> {
        let ctx = self.access_ctx();
        if width == 8 {
            return bus.write::<u64>(pa, value, channel, ctx).map_err(|_| fault);
        }
        for i in 0..width {
            bus.write::<u8>(pa + i, (value >> (8 * i)) as u8, channel, ctx)
                .map_err(|_| fault)?;
        }
        Ok(())
    }

    fn execute(
        &mut self,
        bus: &mut Bus,
        inst: Inst,
        pc: u64,
        len: u64,
    ) -> Result<u64, (TrapCause, u64)> {
        let next = pc.wrapping_add(len);
        match inst {
            Inst::Lui { rd, imm } => {
                self.set_reg(rd, imm as u64);
                Ok(next)
            }
            Inst::Auipc { rd, imm } => {
                self.set_reg(rd, pc.wrapping_add(imm as u64));
                Ok(next)
            }
            Inst::Jal { rd, offset } => {
                self.set_reg(rd, next);
                Ok(pc.wrapping_add(offset as u64))
            }
            Inst::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u64) & !1;
                self.set_reg(rd, next);
                Ok(target)
            }
            Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.reg(rs1);
                let b = self.reg(rs2);
                let taken = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i64) < (b as i64),
                    BranchOp::Ge => (a as i64) >= (b as i64),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                Ok(if taken {
                    pc.wrapping_add(offset as u64)
                } else {
                    next
                })
            }
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let va = self.reg(rs1).wrapping_add(offset as u64);
                let v = self.load(bus, va, op, Channel::Regular)?;
                self.set_reg(rd, v);
                Ok(next)
            }
            Inst::Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let va = self.reg(rs1).wrapping_add(offset as u64);
                self.store(bus, va, self.reg(rs2), op, Channel::Regular)?;
                Ok(next)
            }
            Inst::Amo {
                op,
                rd,
                rs1,
                rs2,
                word,
            } => {
                let va = self.reg(rs1);
                let v = self.execute_amo(bus, op, va, self.reg(rs2), word)?;
                self.set_reg(rd, v);
                Ok(next)
            }
            Inst::LdPt { rd, rs1, offset } => {
                // Kernel-only instruction: U-mode use is illegal.
                if self.mode == PrivilegeMode::User {
                    return Err((TrapCause::IllegalInstruction, 0));
                }
                let va = self.reg(rs1).wrapping_add(offset as u64);
                let v = self.load(bus, va, LoadOp::D, Channel::SecurePt)?;
                self.set_reg(rd, v);
                Ok(next)
            }
            Inst::SdPt { rs1, rs2, offset } => {
                if self.mode == PrivilegeMode::User {
                    return Err((TrapCause::IllegalInstruction, 0));
                }
                let va = self.reg(rs1).wrapping_add(offset as u64);
                self.store(bus, va, self.reg(rs2), StoreOp::D, Channel::SecurePt)?;
                Ok(next)
            }
            Inst::OpImm {
                op,
                rd,
                rs1,
                imm,
                word,
            } => {
                let v = Self::alu(op, self.reg(rs1), imm as u64, word);
                self.set_reg(rd, v);
                Ok(next)
            }
            Inst::Op {
                op,
                rd,
                rs1,
                rs2,
                word,
            } => {
                let v = Self::alu(op, self.reg(rs1), self.reg(rs2), word);
                self.set_reg(rd, v);
                Ok(next)
            }
            Inst::Csr {
                op,
                rd,
                rs1,
                csr,
                imm_form,
            } => {
                let arg = if imm_form { rs1 as u64 } else { self.reg(rs1) };
                let old = match self.csrs.read(csr, self.mode) {
                    Ok(v) => self.shadow_counter(csr).unwrap_or(v),
                    Err(_) => return Err((TrapCause::IllegalInstruction, 0)),
                };
                let new = match op {
                    CsrOp::ReadWrite => Some(arg),
                    CsrOp::ReadSet => (rs1 != 0).then_some(old | arg),
                    CsrOp::ReadClear => (rs1 != 0).then_some(old & !arg),
                };
                if let Some(new) = new {
                    match self.csrs.write(csr, new, self.mode) {
                        Ok(()) => self.apply_csr_side_effects(bus, csr),
                        Err(CsrError::ReadOnly | CsrError::InsufficientPrivilege) => {
                            return Err((TrapCause::IllegalInstruction, 0))
                        }
                    }
                }
                self.set_reg(rd, old);
                Ok(next)
            }
            Inst::Ecall => Err((TrapCause::EnvironmentCall(self.mode), 0)),
            Inst::Ebreak => Err((TrapCause::Breakpoint, pc)),
            Inst::Mret => {
                if self.mode != PrivilegeMode::Machine {
                    return Err((TrapCause::IllegalInstruction, 0));
                }
                Ok(self.trap_return(PrivilegeMode::Machine))
            }
            Inst::Sret => {
                if self.mode == PrivilegeMode::User {
                    return Err((TrapCause::IllegalInstruction, 0));
                }
                Ok(self.trap_return(PrivilegeMode::Supervisor))
            }
            Inst::Wfi => Ok(next),
            Inst::Fence => Ok(next),
            Inst::SfenceVma { rs1, rs2 } => {
                if self.mode == PrivilegeMode::User {
                    return Err((TrapCause::IllegalInstruction, 0));
                }
                match (rs1, rs2) {
                    (0, 0) => self.mmu.sfence_all(),
                    (r, 0) => self
                        .mmu
                        .sfence_page(VirtAddr::new(self.reg(r)), self.mmu.satp.asid),
                    (0, a) => self.mmu.sfence_asid(self.reg(a) as u16),
                    (r, a) => {
                        let asid = self.reg(a) as u16;
                        self.mmu.sfence_page(VirtAddr::new(self.reg(r)), asid);
                    }
                }
                Ok(next)
            }
        }
    }

    /// RV64A semantics: LR takes a reservation on the physical word, SC
    /// succeeds (rd=0) only while it holds, and AMOs are read-modify-write
    /// with the old value returned. Misaligned AMOs raise store-misaligned.
    fn execute_amo(
        &mut self,
        bus: &mut Bus,
        op: AmoOp,
        va: u64,
        src: u64,
        word: bool,
    ) -> Result<u64, (TrapCause, u64)> {
        let width = if word { 4 } else { 8 };
        if !va.is_multiple_of(width) {
            return Err((TrapCause::StoreMisaligned, va));
        }
        // AMOs and SC need write permission and fault as stores; LR needs
        // read and faults as a load.
        let kind = if op == AmoOp::Lr {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        let pa = self.translate(bus, va, kind)?;
        let fault = (TrapCause::access_fault(kind), va);
        if op == AmoOp::Sc {
            let success = self.reservation == Some(pa.as_u64());
            self.reservation = None;
            if !success {
                return Ok(1);
            }
            self.write_mem(bus, pa, src, width, Channel::Regular, fault)?;
            return Ok(0);
        }
        let raw = self.read_mem(bus, pa, width, Channel::Regular, fault)?;
        // .w loads sign-extend
        let old = if word {
            raw as u32 as i32 as i64 as u64
        } else {
            raw
        };
        if op == AmoOp::Lr {
            self.reservation = Some(pa.as_u64());
            return Ok(old);
        }
        let (a, b) = (old, src);
        let new = match op {
            AmoOp::Swap => b,
            AmoOp::Add => a.wrapping_add(b),
            AmoOp::Xor => a ^ b,
            AmoOp::And => a & b,
            AmoOp::Or => a | b,
            AmoOp::Min if word => (a as i32).min(b as i32) as u32 as u64,
            AmoOp::Min => (a as i64).min(b as i64) as u64,
            AmoOp::Max if word => (a as i32).max(b as i32) as u32 as u64,
            AmoOp::Max => (a as i64).max(b as i64) as u64,
            AmoOp::Minu if word => u64::from((a as u32).min(b as u32)),
            AmoOp::Minu => a.min(b),
            AmoOp::Maxu if word => u64::from((a as u32).max(b as u32)),
            AmoOp::Maxu => a.max(b),
            AmoOp::Lr | AmoOp::Sc => unreachable!("handled above"),
        };
        self.write_mem(bus, pa, new, width, Channel::Regular, fault)?;
        // Another hart's AMO would break a reservation; on a single
        // hart, self-AMOs conservatively clear it too.
        self.reservation = None;
        Ok(old)
    }

    /// Samples the Sstc timer: `time >= stimecmp` (armed when non-zero)
    /// sets `sip.STIP`; re-arming `stimecmp` above `time` clears it.
    fn update_timer_pending(&mut self) {
        let stimecmp = self.csrs.read_raw(csr_addr::STIMECMP);
        let mut sip = self.csrs.read_raw(csr_addr::SIP);
        if stimecmp != 0 && self.instret >= stimecmp {
            sip |= crate::csr::interrupt::STI;
        } else {
            sip &= !crate::csr::interrupt::STI;
        }
        self.csrs.write_raw(csr_addr::SIP, sip);
    }

    /// An S-timer interrupt is deliverable when STIP & STIE and either the
    /// hart runs below S-mode or S-mode has `sstatus.SIE` set. (M-mode is
    /// never interrupted here: the model delegates all S-timer handling via
    /// the implicit `mideleg`.)
    fn s_timer_interrupt_ready(&self) -> bool {
        let sip = self.csrs.read_raw(csr_addr::SIP);
        let sie = self.csrs.read_raw(csr_addr::SIE);
        if sip & sie & crate::csr::interrupt::STI == 0 {
            return false;
        }
        match self.mode {
            PrivilegeMode::User => true,
            PrivilegeMode::Supervisor => self.csrs.read_raw(csr_addr::SSTATUS) & status::SIE != 0,
            PrivilegeMode::Machine => false,
        }
    }

    fn shadow_counter(&self, csr: u16) -> Option<u64> {
        match csr {
            csr_addr::CYCLE | csr_addr::TIME => Some(self.instret), // 1 IPC shadow
            csr_addr::INSTRET => Some(self.instret),
            _ => None,
        }
    }

    fn apply_csr_side_effects(&mut self, bus: &mut Bus, csr: u16) {
        match csr {
            csr_addr::SATP => {
                self.mmu.satp = Satp::from_bits(self.csrs.read_raw(csr_addr::SATP));
            }
            csr_addr::PMPCFG0 => self.sync_pmp(bus),
            c if (csr_addr::PMPADDR0..csr_addr::PMPADDR0 + 8).contains(&c) => self.sync_pmp(bus),
            _ => {}
        }
    }

    /// Pushes the raw `pmpcfg0`/`pmpaddr*` CSR values into the bus's PMP unit
    /// (the hardware shares these registers; the model synchronises them).
    fn sync_pmp(&mut self, bus: &mut Bus) {
        let cfg = self.csrs.read_raw(csr_addr::PMPCFG0);
        for i in 0..ptstore_core::PMP_ENTRY_COUNT {
            let byte = ((cfg >> (8 * i)) & 0xff) as u8;
            let addr = self.csrs.read_raw(csr_addr::PMPADDR0 + i as u16);
            bus.pmp_mut().set_entry(
                i,
                ptstore_core::PmpEntry {
                    cfg: ptstore_core::PmpPermissions::from_bits(byte),
                    addr,
                },
            );
        }
    }

    fn alu(op: AluOp, a: u64, b: u64, word: bool) -> u64 {
        let v = match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => {
                let sh = if word { b & 0x1f } else { b & 0x3f };
                if word {
                    ((a as u32) << sh) as u64
                } else {
                    a << sh
                }
            }
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Sltu => (a < b) as u64,
            AluOp::Xor => a ^ b,
            AluOp::Srl => {
                if word {
                    ((a as u32) >> (b & 0x1f)) as u64
                } else {
                    a >> (b & 0x3f)
                }
            }
            AluOp::Sra => {
                if word {
                    (((a as u32) as i32) >> (b & 0x1f)) as u64
                } else {
                    ((a as i64) >> (b & 0x3f)) as u64
                }
            }
            AluOp::Or => a | b,
            AluOp::And => a & b,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    u64::MAX
                } else {
                    (a as i64).wrapping_div(b as i64) as u64
                }
            }
            AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (a as i64).wrapping_rem(b as i64) as u64
                }
            }
            AluOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        };
        if word {
            (v as u32) as i32 as u64
        } else {
            v
        }
    }

    fn load(
        &mut self,
        bus: &mut Bus,
        va: u64,
        op: LoadOp,
        channel: Channel,
    ) -> Result<u64, (TrapCause, u64)> {
        if !va.is_multiple_of(op.width()) {
            return Err((TrapCause::LoadMisaligned, va));
        }
        let pa = self.translate(bus, va, AccessKind::Read)?;
        let fault = (TrapCause::LoadAccessFault, va);
        let value = self.read_mem(bus, pa, op.width(), channel, fault)?;
        Ok(match op {
            LoadOp::B => value as u8 as i8 as i64 as u64,
            LoadOp::H => value as u16 as i16 as i64 as u64,
            LoadOp::W => value as u32 as i32 as i64 as u64,
            LoadOp::D | LoadOp::Bu | LoadOp::Hu | LoadOp::Wu => value,
        })
    }

    fn store(
        &mut self,
        bus: &mut Bus,
        va: u64,
        value: u64,
        op: StoreOp,
        channel: Channel,
    ) -> Result<(), (TrapCause, u64)> {
        if !va.is_multiple_of(op.width()) {
            return Err((TrapCause::StoreMisaligned, va));
        }
        // Stores conservatively break any LR reservation (single-hart model).
        self.reservation = None;
        let pa = self.translate(bus, va, AccessKind::Write)?;
        let fault = (TrapCause::StoreAccessFault, va);
        self.write_mem(bus, pa, value, op.width(), channel, fault)
    }

    /// Takes a trap: updates cause/epc/tval and privilege, honouring
    /// `medeleg` delegation for traps from U/S mode.
    fn trap(&mut self, cause: TrapCause, tval: u64, epc: u64) -> Result<Trap, CpuError> {
        let medeleg = self.csrs.read_raw(csr_addr::MEDELEG);
        let delegate = self.mode != PrivilegeMode::Machine && (medeleg >> cause.code()) & 1 == 1;
        let level = if delegate {
            PrivilegeMode::Supervisor
        } else {
            PrivilegeMode::Machine
        };
        self.enter_trap(level, cause, tval, epc)
    }

    /// Takes a trap into `level`: M, or S for a delegated exception or an
    /// interrupt. Records the cause, `epc` and `tval` in that level's CSRs,
    /// sets xPIE <- xIE, xIE <- 0 and xPP <- the prior mode, and jumps to
    /// the level's vector.
    fn enter_trap(
        &mut self,
        level: PrivilegeMode,
        cause: TrapCause,
        tval: u64,
        epc: u64,
    ) -> Result<Trap, CpuError> {
        let ([tvec, xcause, xepc, xtval, xstatus], [ie, pie, pp]) = trap_level(level);
        let vector = self.csrs.read_raw(tvec);
        if vector == 0 {
            return Err(CpuError::TrapVectorUnset(cause));
        }
        self.csrs.write_raw(xcause, cause.code());
        self.csrs.write_raw(xepc, epc);
        self.csrs.write_raw(xtval, tval);
        let old = self.csrs.read_raw(xstatus);
        let stacked = if old & ie != 0 { pie } else { 0 };
        let prior = (self.mode.encoding() << pp.trailing_zeros()) & pp;
        self.csrs
            .write_raw(xstatus, (old & !(ie | pie | pp)) | stacked | prior);
        self.mode = level;
        self.pc = vector & !0b11;
        Ok(Trap {
            cause,
            tval,
            epc,
            delegated: level == PrivilegeMode::Supervisor,
        })
    }

    /// `mret`/`sret` from `level`: the mode <- xPP, xIE <- xPIE, xPIE <- 1
    /// and xPP <- U. Returns xepc, where execution resumes.
    fn trap_return(&mut self, level: PrivilegeMode) -> u64 {
        let ([_, _, xepc, _, xstatus], [ie, pie, pp]) = trap_level(level);
        let old = self.csrs.read_raw(xstatus);
        let prior = (old & pp) >> pp.trailing_zeros();
        self.mode = PrivilegeMode::from_encoding(prior).unwrap_or(PrivilegeMode::User);
        let restored = if old & pie != 0 { ie } else { 0 };
        self.csrs
            .write_raw(xstatus, (old & !(ie | pp)) | restored | pie);
        self.csrs.read_raw(xepc)
    }
}

/// The trap CSRs of `level` (M, or S for any other mode),
/// `[xtvec, xcause, xepc, xtval, xstatus]`, and its `xstatus` fields
/// `[xIE, xPIE, xPP]`.
fn trap_level(level: PrivilegeMode) -> ([u16; 5], [u64; 3]) {
    use csr_addr::*;
    if level == PrivilegeMode::Machine {
        (
            [MTVEC, MCAUSE, MEPC, MTVAL, MSTATUS],
            [status::MIE, status::MPIE, status::MPP_MASK],
        )
    } else {
        (
            [STVEC, SCAUSE, SEPC, STVAL, SSTATUS],
            [status::SIE, status::SPIE, status::SPP],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use ptstore_core::MIB;

    fn boot(program: &[Inst], base: u64) -> (Cpu, Bus) {
        let mut bus = Bus::new(64 * MIB);
        for (i, &inst) in program.iter().enumerate() {
            bus.mem_unchecked()
                .write_u32(
                    ptstore_core::PhysAddr::new(base + 4 * i as u64),
                    encode(inst),
                )
                .unwrap();
        }
        let mut cpu = Cpu::new();
        cpu.pc = base;
        cpu.csrs.write_raw(csr_addr::MTVEC, 0x100); // fail-loud vector
        (cpu, bus)
    }

    #[test]
    fn arithmetic_program() {
        // a0 = 6 * 7
        let prog = [
            Inst::OpImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 0,
                imm: 6,
                word: false,
            },
            Inst::OpImm {
                op: AluOp::Add,
                rd: 11,
                rs1: 0,
                imm: 7,
                word: false,
            },
            Inst::Op {
                op: AluOp::Mul,
                rd: 10,
                rs1: 10,
                rs2: 11,
                word: false,
            },
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        for _ in 0..3 {
            assert_eq!(cpu.step(&mut bus).unwrap(), StepEvent::Retired);
        }
        assert_eq!(cpu.reg(10), 42);
        assert_eq!(cpu.instret, 3);
    }

    #[test]
    fn loads_and_stores() {
        let prog = [
            Inst::Lui { rd: 5, imm: 0x2000 }, // t0 = 0x2000
            Inst::OpImm {
                op: AluOp::Add,
                rd: 6,
                rs1: 0,
                imm: -1,
                word: false,
            },
            Inst::Store {
                op: StoreOp::D,
                rs1: 5,
                rs2: 6,
                offset: 8,
            },
            Inst::Load {
                op: LoadOp::W,
                rd: 7,
                rs1: 5,
                offset: 8,
            },
            Inst::Load {
                op: LoadOp::Bu,
                rd: 8,
                rs1: 5,
                offset: 9,
            },
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        for _ in 0..prog.len() {
            assert_eq!(cpu.step(&mut bus).unwrap(), StepEvent::Retired);
        }
        assert_eq!(cpu.reg(7), u64::MAX); // lw sign-extends
        assert_eq!(cpu.reg(8), 0xff);
    }

    #[test]
    fn branches_and_jumps() {
        // Loop: a0 = 0; for 5 iterations a0 += 2.
        let prog = [
            Inst::OpImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 0,
                imm: 0,
                word: false,
            },
            Inst::OpImm {
                op: AluOp::Add,
                rd: 5,
                rs1: 0,
                imm: 5,
                word: false,
            },
            // loop:
            Inst::OpImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 10,
                imm: 2,
                word: false,
            },
            Inst::OpImm {
                op: AluOp::Add,
                rd: 5,
                rs1: 5,
                imm: -1,
                word: false,
            },
            Inst::Branch {
                op: BranchOp::Ne,
                rs1: 5,
                rs2: 0,
                offset: -8,
            },
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        for _ in 0..(2 + 3 * 5) {
            assert_eq!(cpu.step(&mut bus).unwrap(), StepEvent::Retired);
        }
        assert_eq!(cpu.reg(10), 10);
        assert_eq!(cpu.pc, 0x1000 + 4 * 5);
    }

    #[test]
    fn regular_store_to_secure_region_traps() {
        // M-mode program writes into the secure region with a plain sd.
        let region =
            ptstore_core::SecureRegion::new(ptstore_core::PhysAddr::new(32 * MIB), MIB).unwrap();
        let prog = [
            Inst::Lui {
                rd: 5,
                imm: (32 * MIB) as i64,
            },
            Inst::Store {
                op: StoreOp::D,
                rs1: 5,
                rs2: 6,
                offset: 0,
            },
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        bus.install_secure_region(&region).unwrap();
        assert_eq!(cpu.step(&mut bus).unwrap(), StepEvent::Retired);
        match cpu.step(&mut bus).unwrap() {
            StepEvent::Trapped(t) => {
                assert_eq!(t.cause, TrapCause::StoreAccessFault);
                assert_eq!(t.tval, 32 * MIB);
                assert_eq!(cpu.mode, PrivilegeMode::Machine);
                assert_eq!(cpu.pc, 0x100);
            }
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn sd_pt_reaches_secure_region() {
        let region =
            ptstore_core::SecureRegion::new(ptstore_core::PhysAddr::new(32 * MIB), MIB).unwrap();
        let prog = [
            Inst::Lui {
                rd: 5,
                imm: (32 * MIB) as i64,
            },
            Inst::OpImm {
                op: AluOp::Add,
                rd: 6,
                rs1: 0,
                imm: 0x77,
                word: false,
            },
            Inst::SdPt {
                rs1: 5,
                rs2: 6,
                offset: 0,
            },
            Inst::LdPt {
                rd: 7,
                rs1: 5,
                offset: 0,
            },
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        bus.install_secure_region(&region).unwrap();
        for _ in 0..prog.len() {
            assert_eq!(cpu.step(&mut bus).unwrap(), StepEvent::Retired);
        }
        assert_eq!(cpu.reg(7), 0x77);
        assert_eq!(bus.stats().secure_writes, 1);
        assert_eq!(bus.stats().secure_reads, 1);
    }

    #[test]
    fn ld_pt_outside_region_traps() {
        let region =
            ptstore_core::SecureRegion::new(ptstore_core::PhysAddr::new(32 * MIB), MIB).unwrap();
        let prog = [Inst::LdPt {
            rd: 7,
            rs1: 0,
            offset: 0x100,
        }];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        bus.install_secure_region(&region).unwrap();
        match cpu.step(&mut bus).unwrap() {
            StepEvent::Trapped(t) => assert_eq!(t.cause, TrapCause::LoadAccessFault),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn ld_pt_is_privileged() {
        let prog = [Inst::LdPt {
            rd: 7,
            rs1: 0,
            offset: 0,
        }];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        cpu.mode = PrivilegeMode::User;
        match cpu.step(&mut bus).unwrap() {
            StepEvent::Trapped(t) => assert_eq!(t.cause, TrapCause::IllegalInstruction),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn ecall_from_each_mode() {
        for (mode, code) in [
            (PrivilegeMode::User, 8),
            (PrivilegeMode::Supervisor, 9),
            (PrivilegeMode::Machine, 11),
        ] {
            let prog = [Inst::Ecall];
            let (mut cpu, mut bus) = boot(&prog, 0x1000);
            cpu.mode = mode;
            match cpu.step(&mut bus).unwrap() {
                StepEvent::Trapped(t) => assert_eq!(t.cause.code(), code),
                other => panic!("expected trap, got {other:?}"),
            }
        }
    }

    #[test]
    fn delegation_routes_to_smode() {
        let prog = [Inst::Ecall];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        cpu.mode = PrivilegeMode::User;
        cpu.csrs.write_raw(csr_addr::MEDELEG, 1 << 8); // delegate ecall-U
        cpu.csrs.write_raw(csr_addr::STVEC, 0x200);
        match cpu.step(&mut bus).unwrap() {
            StepEvent::Trapped(t) => {
                assert!(t.delegated);
                assert_eq!(cpu.mode, PrivilegeMode::Supervisor);
                assert_eq!(cpu.pc, 0x200);
                assert_eq!(cpu.csrs.read_raw(csr_addr::SCAUSE), 8);
                assert_eq!(cpu.csrs.read_raw(csr_addr::SEPC), 0x1000);
            }
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn mret_restores_mode() {
        let prog = [Inst::Mret];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        cpu.csrs.write_raw(csr_addr::MEPC, 0x4000);
        cpu.csrs.write_raw(
            csr_addr::MSTATUS,
            PrivilegeMode::Supervisor.encoding() << status::MPP_SHIFT,
        );
        assert_eq!(cpu.step(&mut bus).unwrap(), StepEvent::Retired);
        assert_eq!(cpu.mode, PrivilegeMode::Supervisor);
        assert_eq!(cpu.pc, 0x4000);
    }

    #[test]
    fn csr_write_to_satp_updates_mmu() {
        let satp = Satp::new(
            ptstore_core::PagingScheme::Sv39,
            ptstore_core::PhysPageNum::new(0x80),
            3,
            true,
        );
        let prog = [
            // csrrw x0, satp, t0
            Inst::Csr {
                op: CsrOp::ReadWrite,
                rd: 0,
                rs1: 5,
                csr: csr_addr::SATP,
                imm_form: false,
            },
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        cpu.mode = PrivilegeMode::Supervisor;
        // satp write from S-mode: allowed. Pre-load t0.
        cpu.set_reg(5, satp.to_bits());
        // Fetch happens in S-mode at identity... the S-mode fetch would need
        // translation; satp is Bare until the write retires, so fine.
        assert_eq!(cpu.step(&mut bus).unwrap(), StepEvent::Retired);
        assert_eq!(cpu.mmu.satp, satp);
        assert!(cpu.mmu.satp.s_bit);
    }

    #[test]
    fn pmp_csr_writes_configure_secure_region() {
        // M-mode installs a TOR secure region purely through CSR writes.
        let base = 32 * MIB;
        let end = 33 * MIB;
        let prog = [
            Inst::Csr {
                op: CsrOp::ReadWrite,
                rd: 0,
                rs1: 5,
                csr: csr_addr::PMPADDR0,
                imm_form: false,
            },
            Inst::Csr {
                op: CsrOp::ReadWrite,
                rd: 0,
                rs1: 6,
                csr: csr_addr::PMPADDR0 + 1,
                imm_form: false,
            },
            Inst::Csr {
                op: CsrOp::ReadWrite,
                rd: 0,
                rs1: 7,
                csr: csr_addr::PMPCFG0,
                imm_form: false,
            },
            // Regular store into the new region must now trap.
            Inst::Lui {
                rd: 5,
                imm: base as i64,
            },
            Inst::Store {
                op: StoreOp::D,
                rs1: 5,
                rs2: 0,
                offset: 0,
            },
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        cpu.set_reg(5, base >> 2);
        cpu.set_reg(6, end >> 2);
        // cfg byte for entry 1: TOR | R | W | S  = A=01 -> bits 3..4 = 01.
        let cfg1: u64 = 0b0010_1011; // S(5)|TOR(3)|W(1)|R(0)
        cpu.set_reg(7, cfg1 << 8);
        for _ in 0..4 {
            assert_eq!(cpu.step(&mut bus).unwrap(), StepEvent::Retired);
        }
        match cpu.step(&mut bus).unwrap() {
            StepEvent::Trapped(t) => assert_eq!(t.cause, TrapCause::StoreAccessFault),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn an_all_ones_pmpaddr_keeps_its_writable_bits() {
        // M-mode writes -1 to pmpaddr0 and makes entry 0 a readable NAPOT
        // region: the widest encoding, covering all of memory.
        let csrw = |rs1, csr| Inst::Csr {
            op: CsrOp::ReadWrite,
            rd: 0,
            rs1,
            csr,
            imm_form: false,
        };
        let li = |rd, imm| Inst::OpImm {
            op: AluOp::Add,
            rd,
            rs1: 0,
            imm,
            word: false,
        };
        let prog = [
            li(5, -1),
            csrw(5, csr_addr::PMPADDR0),
            li(6, 0b1_1001), // NAPOT | R
            csrw(6, csr_addr::PMPCFG0),
            Inst::Load {
                op: LoadOp::D,
                rd: 7,
                rs1: 0,
                offset: 0x200,
            },
            Inst::Store {
                op: StoreOp::D,
                rs1: 0,
                rs2: 5,
                offset: 0x200,
            },
            li(8, 1),
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        for _ in 0..prog.len() {
            assert_eq!(cpu.step(&mut bus).unwrap(), StepEvent::Retired);
        }
        let entry = bus.pmp().entry(0);
        assert_eq!(entry.addr, ptstore_core::PMPADDR_MASK);
        assert_eq!(
            entry.cfg.address_mode(),
            ptstore_core::PmpAddressMode::Napot
        );
        // The entry is unlocked, so M-mode's store went through.
        assert_eq!(cpu.reg(8), 1);
        assert_eq!(
            bus.mem().read_u64(ptstore_core::PhysAddr::new(0x200)),
            Ok(u64::MAX)
        );
    }

    #[test]
    fn trap_without_vector_is_loud() {
        let prog = [Inst::Ecall];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        cpu.csrs.write_raw(csr_addr::MTVEC, 0);
        assert!(matches!(
            cpu.step(&mut bus),
            Err(CpuError::TrapVectorUnset(TrapCause::EnvironmentCall(_)))
        ));
    }

    #[test]
    fn x0_is_hardwired() {
        let prog = [Inst::OpImm {
            op: AluOp::Add,
            rd: 0,
            rs1: 0,
            imm: 55,
            word: false,
        }];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        cpu.step(&mut bus).unwrap();
        assert_eq!(cpu.reg(0), 0);
    }

    #[test]
    fn word_ops_sign_extend() {
        let prog = [
            Inst::OpImm {
                op: AluOp::Add,
                rd: 5,
                rs1: 0,
                imm: -1,
                word: true,
            }, // addiw t0, x0, -1
            Inst::Op {
                op: AluOp::Add,
                rd: 6,
                rs1: 5,
                rs2: 5,
                word: true,
            }, // addw t1 = -2
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        cpu.step(&mut bus).unwrap();
        cpu.step(&mut bus).unwrap();
        assert_eq!(cpu.reg(5) as i64, -1);
        assert_eq!(cpu.reg(6) as i64, -2);
    }

    #[test]
    fn amo_add_and_swap() {
        let prog = [
            Inst::Lui { rd: 5, imm: 0x2000 },
            Inst::OpImm {
                op: AluOp::Add,
                rd: 6,
                rs1: 0,
                imm: 40,
                word: false,
            },
            Inst::Store {
                op: StoreOp::D,
                rs1: 5,
                rs2: 6,
                offset: 0,
            },
            Inst::OpImm {
                op: AluOp::Add,
                rd: 7,
                rs1: 0,
                imm: 2,
                word: false,
            },
            Inst::Amo {
                op: AmoOp::Add,
                rd: 10,
                rs1: 5,
                rs2: 7,
                word: false,
            }, // a0=40, mem=42
            Inst::Amo {
                op: AmoOp::Swap,
                rd: 11,
                rs1: 5,
                rs2: 0,
                word: false,
            }, // a1=42, mem=0
            Inst::Load {
                op: LoadOp::D,
                rd: 12,
                rs1: 5,
                offset: 0,
            },
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        for _ in 0..prog.len() {
            assert_eq!(cpu.step(&mut bus).unwrap(), StepEvent::Retired);
        }
        assert_eq!(cpu.reg(10), 40);
        assert_eq!(cpu.reg(11), 42);
        assert_eq!(cpu.reg(12), 0);
    }

    #[test]
    fn lr_sc_success_and_failure() {
        let prog = [
            Inst::Lui { rd: 5, imm: 0x2000 },
            Inst::Amo {
                op: AmoOp::Lr,
                rd: 10,
                rs1: 5,
                rs2: 0,
                word: false,
            },
            Inst::OpImm {
                op: AluOp::Add,
                rd: 6,
                rs1: 10,
                imm: 1,
                word: false,
            },
            Inst::Amo {
                op: AmoOp::Sc,
                rd: 11,
                rs1: 5,
                rs2: 6,
                word: false,
            }, // succeeds: a1=0
            Inst::Amo {
                op: AmoOp::Sc,
                rd: 12,
                rs1: 5,
                rs2: 6,
                word: false,
            }, // fails: a2=1
            Inst::Load {
                op: LoadOp::D,
                rd: 13,
                rs1: 5,
                offset: 0,
            },
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        for _ in 0..prog.len() {
            assert_eq!(cpu.step(&mut bus).unwrap(), StepEvent::Retired);
        }
        assert_eq!(cpu.reg(11), 0, "first sc succeeds");
        assert_eq!(cpu.reg(12), 1, "second sc fails (reservation consumed)");
        assert_eq!(cpu.reg(13), 1, "stored value = loaded + 1");
    }

    #[test]
    fn store_breaks_reservation() {
        let prog = [
            Inst::Lui { rd: 5, imm: 0x2000 },
            Inst::Amo {
                op: AmoOp::Lr,
                rd: 10,
                rs1: 5,
                rs2: 0,
                word: false,
            },
            Inst::Store {
                op: StoreOp::D,
                rs1: 5,
                rs2: 0,
                offset: 8,
            }, // any store
            Inst::Amo {
                op: AmoOp::Sc,
                rd: 11,
                rs1: 5,
                rs2: 6,
                word: false,
            },
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        for _ in 0..prog.len() {
            assert_eq!(cpu.step(&mut bus).unwrap(), StepEvent::Retired);
        }
        assert_eq!(cpu.reg(11), 1, "sc fails after intervening store");
    }

    #[test]
    fn amo_word_form_sign_extends_and_minmax() {
        let prog = [
            Inst::Lui { rd: 5, imm: 0x2000 },
            // mem.w = -5 (sign-extended into a0 later)
            Inst::OpImm {
                op: AluOp::Add,
                rd: 6,
                rs1: 0,
                imm: -5,
                word: false,
            },
            Inst::Store {
                op: StoreOp::W,
                rs1: 5,
                rs2: 6,
                offset: 0,
            },
            Inst::OpImm {
                op: AluOp::Add,
                rd: 7,
                rs1: 0,
                imm: 3,
                word: false,
            },
            Inst::Amo {
                op: AmoOp::Max,
                rd: 10,
                rs1: 5,
                rs2: 7,
                word: true,
            }, // a0=-5, mem=3
            Inst::Load {
                op: LoadOp::W,
                rd: 11,
                rs1: 5,
                offset: 0,
            },
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        for _ in 0..prog.len() {
            assert_eq!(cpu.step(&mut bus).unwrap(), StepEvent::Retired);
        }
        assert_eq!(cpu.reg(10) as i64, -5, "amo.w returns sign-extended old");
        assert_eq!(cpu.reg(11), 3, "signed max picked 3 over -5");
    }

    #[test]
    fn amo_into_secure_region_traps() {
        let region =
            ptstore_core::SecureRegion::new(ptstore_core::PhysAddr::new(32 * MIB), MIB).unwrap();
        let prog = [
            Inst::Lui {
                rd: 5,
                imm: (32 * MIB) as i64,
            },
            Inst::Amo {
                op: AmoOp::Add,
                rd: 10,
                rs1: 5,
                rs2: 6,
                word: false,
            },
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        bus.install_secure_region(&region).unwrap();
        cpu.step(&mut bus).unwrap();
        match cpu.step(&mut bus).unwrap() {
            StepEvent::Trapped(t) => assert_eq!(t.cause, TrapCause::StoreAccessFault),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn misaligned_amo_traps() {
        let prog = [
            Inst::Lui { rd: 5, imm: 0x2000 },
            Inst::OpImm {
                op: AluOp::Add,
                rd: 5,
                rs1: 5,
                imm: 4,
                word: false,
            },
            Inst::Amo {
                op: AmoOp::Add,
                rd: 10,
                rs1: 5,
                rs2: 6,
                word: false,
            }, // 8-byte op at +4
        ];
        let (mut cpu, mut bus) = boot(&prog, 0x1000);
        cpu.step(&mut bus).unwrap();
        cpu.step(&mut bus).unwrap();
        match cpu.step(&mut bus).unwrap() {
            StepEvent::Trapped(t) => assert_eq!(t.cause, TrapCause::StoreMisaligned),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn division_edge_cases() {
        assert_eq!(Cpu::alu(AluOp::Div, 5, 0, false), u64::MAX);
        assert_eq!(Cpu::alu(AluOp::Rem, 5, 0, false), 5);
        assert_eq!(Cpu::alu(AluOp::Divu, 5, 0, false), u64::MAX);
        assert_eq!(Cpu::alu(AluOp::Remu, 5, 0, false), 5);
        assert_eq!(
            Cpu::alu(AluOp::Div, (i64::MIN) as u64, u64::MAX, false),
            i64::MIN as u64
        );
    }
}
