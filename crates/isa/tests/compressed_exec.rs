//! Executing mixed compressed/full instruction streams: the fetch unit must
//! handle 2-byte alignment, variable lengths, and C↔I interleaving.

#![allow(
    clippy::unusual_byte_groupings,
    reason = "binary literals are grouped by instruction field, not even digit blocks"
)]

use ptstore_core::{PhysAddr, MIB};
use ptstore_isa::{encode, AluOp, Inst, SimMachine, TrapCause};

/// Writes a raw 16-bit parcel at `addr`.
fn put16(m: &mut SimMachine, addr: u64, parcel: u16) {
    m.bus
        .mem_unchecked()
        .write_u8(PhysAddr::new(addr), parcel as u8)
        .expect("in range");
    m.bus
        .mem_unchecked()
        .write_u8(PhysAddr::new(addr + 1), (parcel >> 8) as u8)
        .expect("in range");
}

/// Writes a full 32-bit instruction as two parcels.
fn put32(m: &mut SimMachine, addr: u64, word: u32) {
    put16(m, addr, word as u16);
    put16(m, addr + 2, (word >> 16) as u16);
}

#[test]
fn compressed_program_executes() {
    let mut m = SimMachine::new(16 * MIB);
    let mut pc = 0x1000u64;
    // c.li a0, 5        (0b010_0_01010_00101_01)
    put16(&mut m, pc, 0b010_0_01010_00101_01);
    pc += 2;
    // c.addi a0, 3      (imm=3)
    put16(&mut m, pc, 0b000_0_01010_00011_01);
    pc += 2;
    // c.slli a0, 4
    put16(&mut m, pc, 0b000_0_01010_00100_10);
    pc += 2;
    // wfi (full width)
    put32(&mut m, pc, encode(Inst::Wfi));
    m.cpu.pc = 0x1000;
    assert_eq!(m.run(10).expect("runs"), None);
    assert_eq!(m.cpu.reg(10), (5 + 3) << 4);
    assert_eq!(m.cpu.instret, 4);
}

#[test]
fn mixed_widths_and_two_byte_aligned_full_instruction() {
    let mut m = SimMachine::new(16 * MIB);
    // c.li a0, 1 at 0x1000 (2 bytes), then a FULL addi at 0x1002 — the
    // 4-byte instruction sits at 2-byte alignment, as RVC permits.
    put16(&mut m, 0x1000, 0b010_0_01010_00001_01);
    put32(
        &mut m,
        0x1002,
        encode(Inst::OpImm {
            op: AluOp::Add,
            rd: 10,
            rs1: 10,
            imm: 41,
            word: false,
        }),
    );
    put32(&mut m, 0x1006, encode(Inst::Wfi));
    m.cpu.pc = 0x1000;
    assert_eq!(m.run(10).expect("runs"), None);
    assert_eq!(m.cpu.reg(10), 42);
}

#[test]
fn compressed_jump_links_pc_plus_two() {
    let mut m = SimMachine::new(16 * MIB);
    // c.jalr a0 at 0x1000: jumps to a0, ra = 0x1002.
    m.cpu.set_reg(10, 0x2000);
    put16(&mut m, 0x1000, 0b100_1_01010_00000_10);
    put32(&mut m, 0x2000, encode(Inst::Wfi));
    m.cpu.pc = 0x1000;
    assert_eq!(m.run(10).expect("runs"), None);
    assert_eq!(m.cpu.reg(1), 0x1002, "c.jalr links pc+2");
    assert_eq!(m.cpu.pc, 0x2004);
}

#[test]
fn compressed_branch_taken_and_not() {
    let mut m = SimMachine::new(16 * MIB);
    // c.beqz a0, +6 at 0x1000 (a0 = 0 -> taken). offset 6: imm[2]=1 ->
    // bit4=1? mapping: bit4=imm[2], bit3=imm[1]. 6 = imm[2]|imm[1] = 110 ->
    // imm[2]=1 (bit4), imm[1]=1 (bit3).
    put16(&mut m, 0x1000, 0b110_0_00_010_00110_01);
    // Fall-through path: c.li a0, 9 ; wfi
    put16(&mut m, 0x1002, 0b010_0_01010_01001_01);
    put32(&mut m, 0x1004, encode(Inst::Wfi));
    // Taken path at 0x1006: wfi with a0 untouched.
    put32(&mut m, 0x1006, encode(Inst::Wfi));
    m.cpu.pc = 0x1000;
    assert_eq!(m.run(10).expect("runs"), None);
    assert_eq!(m.cpu.reg(10), 0, "branch taken, skip the li");
    assert_eq!(m.cpu.pc, 0x100a);

    // Not taken: a0 != 0.
    let mut m2 = SimMachine::new(16 * MIB);
    m2.cpu.set_reg(10, 1);
    put16(&mut m2, 0x1000, 0b110_0_00_010_00110_01);
    put16(&mut m2, 0x1002, 0b010_0_01010_01001_01); // c.li a0, 9
    put32(&mut m2, 0x1004, encode(Inst::Wfi));
    m2.cpu.pc = 0x1000;
    assert_eq!(m2.run(10).expect("runs"), None);
    assert_eq!(m2.cpu.reg(10), 9, "fall through executes the li");
}

#[test]
fn illegal_compressed_word_traps() {
    let mut m = SimMachine::new(16 * MIB);
    put16(&mut m, 0x1000, 0); // defined illegal
    m.cpu.pc = 0x1000;
    let trap = m.run(10).expect("runs").expect("trap");
    assert_eq!(trap.cause, TrapCause::IllegalInstruction);
}

#[test]
fn c_memory_ops_work() {
    let mut m = SimMachine::new(16 * MIB);
    // a0 (x10) = 0x2000 base; a1 (x11) = value.
    m.cpu.set_reg(10, 0x2000);
    m.cpu.set_reg(11, 0xfeed);
    // c.sd a1, 8(a0): funct3=111, uimm8 -> bit10, rs1'=a0=010, rs2'=a1=011
    put16(&mut m, 0x1000, 0b111_001_010_0_0_011_00);
    // c.ld a2, 8(a0): rd'=a2=100
    put16(&mut m, 0x1002, 0b011_001_010_0_0_100_00);
    put32(&mut m, 0x1004, encode(Inst::Wfi));
    m.cpu.pc = 0x1000;
    assert_eq!(m.run(10).expect("runs"), None);
    assert_eq!(m.cpu.reg(12), 0xfeed);
}
