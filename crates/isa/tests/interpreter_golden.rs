//! A golden run of the interpreter under Sv39 paging, with a trace sink.
//!
//! One S-mode program uses every load and store width, an LR/SC pair,
//! `amoadd.w`, `amoadd.d`, `ld.pt` and `sd.pt`, then faults on purpose:
//! page and access faults from the translation and from the bus, for
//! loads, stores, LR, AMOs and fetches, misaligned accesses and an `ecall`.
//! An S-timer interrupt fires part-way through. Every exception goes to an
//! S-mode handler, which sums `scause` into x18 and `stval` into x19 and
//! resumes. The test pins the traps, the registers, the trap CSRs, the
//! bus's access counters and an FNV-1a digest of the trace events, so a
//! change to any bus access, walker step, TLB event or trap shows here.

use ptstore_core::{Fnv1a, PagingScheme, PhysAddr, PhysPageNum, PrivilegeMode, MIB};
use ptstore_isa::csr::{addr, interrupt, status};
use ptstore_isa::inst::AmoOp::{Add, Lr, Sc};
use ptstore_isa::{AluOp, BranchOp, CsrOp, Inst, LoadOp, SimMachine, StoreOp};
use ptstore_mmu::{Pte, PteFlags, Satp};

/// A program, one instruction per line: `Variant { field: value, .. };`
/// builds `Inst::Variant { field: value, .. }`.
macro_rules! program {
    ($($variant:ident $({ $($field:ident: $value:expr),* })?;)*) => {
        vec![$(Inst::$variant $({ $($field: $value),* })?),*]
    };
}

/// The program at VA 0x1000. The host seeds the bases: x8 a RW page, x9 a
/// read-only page, x20 an unmapped page, x21 a page in the secure region,
/// x22 a page under a table outside the region, x25 an executable page in
/// the region; x23 and x24 are operands.
fn program() -> Vec<Inst> {
    use AluOp::Add as AddI;
    use LoadOp as L;
    use StoreOp as S;
    program! {
        Store { op: S::D, rs1: 8, rs2: 23, offset: 0 };
        Store { op: S::W, rs1: 8, rs2: 24, offset: 8 };
        Store { op: S::H, rs1: 8, rs2: 24, offset: 16 };
        Store { op: S::B, rs1: 8, rs2: 24, offset: 24 };
        Load { op: L::D, rd: 10, rs1: 8, offset: 0 };
        Load { op: L::W, rd: 11, rs1: 8, offset: 0 };
        Load { op: L::Wu, rd: 12, rs1: 8, offset: 4 };
        Load { op: L::W, rd: 13, rs1: 8, offset: 4 };
        Load { op: L::H, rd: 14, rs1: 8, offset: 6 };
        Load { op: L::Hu, rd: 15, rs1: 8, offset: 6 };
        Load { op: L::B, rd: 16, rs1: 8, offset: 7 };
        Load { op: L::Bu, rd: 17, rs1: 8, offset: 7 };
        // LR/SC (succeeds), the AMOs, SC without a reservation (fails).
        Amo { op: Lr, rd: 26, rs1: 8, rs2: 0, word: false };
        Amo { op: Sc, rd: 27, rs1: 8, rs2: 24, word: false };
        OpImm { op: AddI, rd: 29, rs1: 8, imm: 8, word: false };
        Amo { op: Add, rd: 26, rs1: 29, rs2: 24, word: true };
        Amo { op: Add, rd: 26, rs1: 8, rs2: 24, word: false };
        Amo { op: Sc, rd: 27, rs1: 8, rs2: 24, word: false };
        // Page faults from the translation.
        Load { op: L::D, rd: 30, rs1: 20, offset: 0 };
        Store { op: S::D, rs1: 9, rs2: 24, offset: 0 };
        Amo { op: Add, rd: 30, rs1: 9, rs2: 24, word: true };
        Amo { op: Lr, rd: 30, rs1: 20, rs2: 0, word: true };
        // Access faults from the bus: regular accesses into the region.
        Load { op: L::D, rd: 30, rs1: 21, offset: 0 };
        Store { op: S::W, rs1: 21, rs2: 24, offset: 0 };
        Amo { op: Lr, rd: 30, rs1: 21, rs2: 0, word: false };
        Amo { op: Add, rd: 30, rs1: 21, rs2: 24, word: false };
        // Access faults from the translation: the walker's origin check.
        Load { op: L::D, rd: 30, rs1: 22, offset: 0 };
        Store { op: S::D, rs1: 22, rs2: 24, offset: 0 };
        Amo { op: Add, rd: 30, rs1: 22, rs2: 24, word: true };
        // Misaligned load, store and AMO.
        Load { op: L::W, rd: 30, rs1: 8, offset: 1 };
        Store { op: S::H, rs1: 8, rs2: 24, offset: 1 };
        OpImm { op: AddI, rd: 31, rs1: 8, imm: 2, word: false };
        Amo { op: Add, rd: 30, rs1: 31, rs2: 24, word: true };
        // The secure channel works in the region and faults outside it.
        SdPt { rs1: 21, rs2: 24, offset: 8 };
        LdPt { rd: 30, rs1: 21, offset: 8 };
        LdPt { rd: 31, rs1: 8, offset: 0 };
        Ecall;
        // Fetch faults: unmapped, under the outside table, in the region.
        Jalr { rd: 1, rs1: 20, offset: 0 };
        Jalr { rd: 1, rs1: 22, offset: 0 };
        Jalr { rd: 1, rs1: 25, offset: 0 };
        Wfi;
    }
}

/// The handler at VA 0x1c00. An interrupt masks the timer and resumes at
/// `sepc`; a fetch fault resumes at `ra`; any other exception resumes at
/// the next instruction.
fn handler() -> Vec<Inst> {
    use addr::{SCAUSE, SEPC, SIE, STVAL};
    use AluOp::Add;
    use BranchOp::{Eq, Lt};
    use CsrOp::{ReadClear, ReadSet, ReadWrite};
    program! {
        Csr { op: ReadSet, rd: 5, rs1: 0, csr: SCAUSE, imm_form: false };
        Csr { op: ReadSet, rd: 6, rs1: 0, csr: STVAL, imm_form: false };
        Op { op: Add, rd: 18, rs1: 18, rs2: 5, word: false };
        Op { op: Add, rd: 19, rs1: 19, rs2: 6, word: false };
        Branch { op: Lt, rs1: 5, rs2: 0, offset: 44 }; // interrupt -> 15
        OpImm { op: Add, rd: 7, rs1: 0, imm: 12, word: false };
        Branch { op: Eq, rs1: 5, rs2: 7, offset: 28 }; // instruction page fault -> 13
        OpImm { op: Add, rd: 7, rs1: 0, imm: 1, word: false };
        Branch { op: Eq, rs1: 5, rs2: 7, offset: 20 }; // instruction access fault -> 13
        Csr { op: ReadSet, rd: 7, rs1: 0, csr: SEPC, imm_form: false };
        OpImm { op: Add, rd: 7, rs1: 7, imm: 4, word: false };
        Csr { op: ReadWrite, rd: 0, rs1: 7, csr: SEPC, imm_form: false };
        Sret;
        Csr { op: ReadWrite, rd: 0, rs1: 1, csr: SEPC, imm_form: false }; // 13
        Sret;
        Csr { op: ReadClear, rd: 0, rs1: 28, csr: SIE, imm_form: false }; // 15
        Sret;
    }
}

/// Builds the page tables in the region, loads the code, delegates every
/// exception, arms the timer and attaches one sink to the bus and MMU.
fn machine() -> SimMachine {
    let (mut m, region) = SimMachine::with_secure_region(128 * MIB);
    let root = region.base();
    let (l1, l0, outside_l0) = (root + 0x1000, root + 0x2000, PhysAddr::new(0x30_0000));
    let rw = PteFlags::kernel_rw();
    let rx = PteFlags::from_bits(PteFlags::V | PteFlags::R | PteFlags::X | PteFlags::A);
    let ro = PteFlags::from_bits(PteFlags::V | PteFlags::R | PteFlags::A);
    let leaf = |pa: u64, flags| Pte::leaf(PhysPageNum::from(PhysAddr::new(pa)), flags);
    let table = |pa: PhysAddr| Pte::table(PhysPageNum::from(pa));
    let region_page = |i: u64| root.as_u64() + i * 0x1000;
    for (table_pa, index, pte) in [
        (root, 0, table(l1)),
        (l1, 0, table(l0)),
        (l1, 1, table(outside_l0)),
        (l0, 1, leaf(0x1000, rx)),
        (l0, 4, leaf(0x10_0000, rw)),
        (l0, 5, leaf(0x10_1000, ro)),
        (l0, 7, leaf(region_page(16), rw)),
        (l0, 8, leaf(region_page(17), rx)),
        (outside_l0, 0, leaf(0x10_2000, rw)),
    ] {
        m.bus
            .mem_unchecked()
            .write_u64(table_pa + 8 * index, pte.bits())
            .expect("table in memory");
    }
    m.load_program(0x1000, &program());
    m.load_program(0x1c00, &handler());

    let satp = Satp::new(PagingScheme::Sv39, PhysPageNum::from(root), 1, true);
    m.cpu.mmu.satp = satp;
    for (csr, value) in [
        (addr::SATP, satp.to_bits()),
        (addr::MEDELEG, 0xffff),
        (addr::STVEC, 0x1c00),
        (addr::SIE, interrupt::STI),
        (addr::SSTATUS, status::SIE),
        (addr::STIMECMP, 10),
    ] {
        m.cpu.csrs.write_raw(csr, value);
    }
    m.cpu.mode = PrivilegeMode::Supervisor;
    m.cpu.pc = 0x1000;
    for (reg, value) in [
        (8, 0x4000),
        (9, 0x5000),
        (20, 0x6000),
        (21, 0x7000),
        (22, 0x20_0000),
        (23, 0x8877_6655_4433_2211),
        (24, 0x1234_5678),
        (25, 0x8000),
        (28, interrupt::STI),
    ] {
        m.cpu.set_reg(reg, value);
    }
    m.bus.set_trace_sink(Some(Default::default()));
    m.cpu.mmu.set_trace_sink(m.bus.trace_sink().cloned());
    m
}

#[test]
fn interpreter_run_is_pinned() {
    let mut m = machine();
    let traps = m.run_through_traps(500).expect("handler installed");
    assert!(traps.iter().all(|t| t.delegated));
    let traps: Vec<_> = traps
        .iter()
        .map(|t| (t.cause.code(), t.tval, t.epc))
        .collect();
    let timer = interrupt::CAUSE_INTERRUPT | interrupt::CAUSE_S_TIMER;
    assert_eq!(
        traps,
        [
            (timer, 0, 0x1028),
            (13, 0x6000, 0x1048),
            (15, 0x5000, 0x104c),
            (15, 0x5000, 0x1050),
            (13, 0x6000, 0x1054),
            (5, 0x7000, 0x1058),
            (7, 0x7000, 0x105c),
            (5, 0x7000, 0x1060),
            (7, 0x7000, 0x1064),
            (5, 0x20_0000, 0x1068),
            (7, 0x20_0000, 0x106c),
            (7, 0x20_0000, 0x1070),
            (4, 0x4001, 0x1074),
            (6, 0x4001, 0x1078),
            (6, 0x4002, 0x1080),
            (5, 0x4000, 0x108c),
            (9, 0, 0x1090),
            (12, 0x6000, 0x6000),
            (1, 0x20_0000, 0x20_0000),
            (1, 0x8000, 0x8000),
        ]
    );

    let regs: Vec<_> = (0..32u8)
        .map(|r| m.cpu.reg(r))
        .enumerate()
        .filter(|r| r.1 != 0)
        .collect();
    assert_eq!(
        format!("{regs:x?}"),
        "[(1, 10a0), (5, 1), (6, 8000), (7, 1), (8, 4000), (9, 5000), (a, 8877665544332211), (b, 44332211), (c, 88776655), (d, ffffffff88776655), (e, ffffffffffff8877), (f, 8877), (10, ffffffffffffff88), (11, 88), (12, 8000000000000094), (13, 850004), (14, 6000), (15, 7000), (16, 200000), (17, 8877665544332211), (18, 12345678), (19, 8000), (1a, 12345678), (1b, 1), (1c, 20), (1d, 4008), (1e, 12345678), (1f, 4002)]",
    );
    let trap_csrs =
        [addr::SCAUSE, addr::SEPC, addr::STVAL, addr::SSTATUS].map(|c| m.cpu.csrs.read_raw(c));
    assert_eq!(format!("{trap_csrs:x?}"), "[1, 10a0, 8000, 22]");
    assert_eq!(m.cpu.instret, 271);
    assert_eq!(format!("{:?}", m.bus.stats()), "AccessStats { regular_reads: 25, regular_writes: 14, fetches: 574, secure_reads: 1, secure_writes: 1, ptw_reads: 35, ptw_writes: 0, faults: 10 }");

    let events = m.bus.trace_sink().expect("attached").events();
    let mut h = Fnv1a::new();
    for e in &events {
        h.write(format!("{e:?}\n").as_bytes());
    }
    assert_eq!((events.len(), h.finish()), (1957, 0x5765_8bfc_484a_4f0e));
}
