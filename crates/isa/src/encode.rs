//! Instruction encoders — the model's assembler.
//!
//! This corresponds to the paper's LLVM back-end change (Table I: 15 lines of
//! C++/TableGen adding `ld.pt`/`sd.pt` to the RISC-V ISA description files).
//! `ld.pt` sits in the *custom-0* opcode space (`0001011`) and `sd.pt` in
//! *custom-1* (`0101011`), both with `funct3 = 011` like their regular
//! counterparts.

use crate::inst::{AluOp, AmoOp, BranchOp, CsrOp, Inst, LoadOp, StoreOp};

/// Opcode of `ld.pt` (custom-0).
pub const OPCODE_LD_PT: u32 = 0b000_1011;
/// Opcode of `sd.pt` (custom-1).
pub const OPCODE_SD_PT: u32 = 0b010_1011;

fn r_type(opcode: u32, rd: u8, funct3: u32, rs1: u8, rs2: u8, funct7: u32) -> u32 {
    opcode
        | ((rd as u32) << 7)
        | (funct3 << 12)
        | ((rs1 as u32) << 15)
        | ((rs2 as u32) << 20)
        | (funct7 << 25)
}

fn i_type(opcode: u32, rd: u8, funct3: u32, rs1: u8, imm: i64) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "i-imm out of range: {imm}");
    opcode
        | ((rd as u32) << 7)
        | (funct3 << 12)
        | ((rs1 as u32) << 15)
        | (((imm as u32) & 0xfff) << 20)
}

fn s_type(opcode: u32, funct3: u32, rs1: u8, rs2: u8, imm: i64) -> u32 {
    debug_assert!((-2048..=2047).contains(&imm), "s-imm out of range: {imm}");
    let imm = (imm as u32) & 0xfff;
    opcode
        | ((imm & 0x1f) << 7)
        | (funct3 << 12)
        | ((rs1 as u32) << 15)
        | ((rs2 as u32) << 20)
        | ((imm >> 5) << 25)
}

fn b_type(opcode: u32, funct3: u32, rs1: u8, rs2: u8, offset: i64) -> u32 {
    debug_assert!(offset % 2 == 0 && (-4096..=4094).contains(&offset));
    let imm = (offset as u32) & 0x1fff;
    opcode
        | (((imm >> 11) & 1) << 7)
        | (((imm >> 1) & 0xf) << 8)
        | (funct3 << 12)
        | ((rs1 as u32) << 15)
        | ((rs2 as u32) << 20)
        | (((imm >> 5) & 0x3f) << 25)
        | (((imm >> 12) & 1) << 31)
}

fn u_type(opcode: u32, rd: u8, imm: i64) -> u32 {
    opcode | ((rd as u32) << 7) | ((imm as u32) & 0xffff_f000)
}

fn j_type(opcode: u32, rd: u8, offset: i64) -> u32 {
    debug_assert!(offset % 2 == 0 && (-(1 << 20)..(1 << 20)).contains(&offset));
    let imm = (offset as u32) & 0x1f_ffff;
    opcode
        | ((rd as u32) << 7)
        | (((imm >> 12) & 0xff) << 12)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 1) & 0x3ff) << 21)
        | (((imm >> 20) & 1) << 31)
}

/// Encodes any supported instruction to its 32-bit machine code.
///
/// (Privileged-instruction literals below are grouped as `funct7_rs2`,
/// matching the ISA manual's field split rather than nibbles.)
///
/// # Panics
/// Panics (in debug builds) when an immediate is out of range for its
/// encoding, and on shift-immediate ALU ops outside 0–63.
#[allow(
    clippy::unusual_byte_groupings,
    reason = "opcode literals are grouped by instruction field (funct/op), not digits"
)]
pub fn encode(inst: Inst) -> u32 {
    match inst {
        Inst::Lui { rd, imm } => u_type(0b011_0111, rd, imm),
        Inst::Auipc { rd, imm } => u_type(0b001_0111, rd, imm),
        Inst::Jal { rd, offset } => j_type(0b110_1111, rd, offset),
        Inst::Jalr { rd, rs1, offset } => i_type(0b110_0111, rd, 0b000, rs1, offset),
        Inst::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => {
            let funct3 = match op {
                BranchOp::Eq => 0b000,
                BranchOp::Ne => 0b001,
                BranchOp::Lt => 0b100,
                BranchOp::Ge => 0b101,
                BranchOp::Ltu => 0b110,
                BranchOp::Geu => 0b111,
            };
            b_type(0b110_0011, funct3, rs1, rs2, offset)
        }
        Inst::Load {
            op,
            rd,
            rs1,
            offset,
        } => {
            let funct3 = match op {
                LoadOp::B => 0b000,
                LoadOp::H => 0b001,
                LoadOp::W => 0b010,
                LoadOp::D => 0b011,
                LoadOp::Bu => 0b100,
                LoadOp::Hu => 0b101,
                LoadOp::Wu => 0b110,
            };
            i_type(0b000_0011, rd, funct3, rs1, offset)
        }
        Inst::Store {
            op,
            rs1,
            rs2,
            offset,
        } => {
            let funct3 = match op {
                StoreOp::B => 0b000,
                StoreOp::H => 0b001,
                StoreOp::W => 0b010,
                StoreOp::D => 0b011,
            };
            s_type(0b010_0011, funct3, rs1, rs2, offset)
        }
        Inst::Amo {
            op,
            rd,
            rs1,
            rs2,
            word,
        } => {
            let funct3 = if word { 0b010 } else { 0b011 };
            debug_assert!(op != AmoOp::Lr || rs2 == 0, "lr has rs2=0");
            r_type(0b010_1111, rd, funct3, rs1, rs2, op.funct5() << 2)
        }
        Inst::LdPt { rd, rs1, offset } => i_type(OPCODE_LD_PT, rd, 0b011, rs1, offset),
        Inst::SdPt { rs1, rs2, offset } => s_type(OPCODE_SD_PT, 0b011, rs1, rs2, offset),
        Inst::OpImm {
            op,
            rd,
            rs1,
            imm,
            word,
        } => {
            let opcode = if word { 0b001_1011 } else { 0b001_0011 };
            match op {
                AluOp::Add => i_type(opcode, rd, 0b000, rs1, imm),
                AluOp::Slt => i_type(opcode, rd, 0b010, rs1, imm),
                AluOp::Sltu => i_type(opcode, rd, 0b011, rs1, imm),
                AluOp::Xor => i_type(opcode, rd, 0b100, rs1, imm),
                AluOp::Or => i_type(opcode, rd, 0b110, rs1, imm),
                AluOp::And => i_type(opcode, rd, 0b111, rs1, imm),
                AluOp::Sll => {
                    assert!((0..64).contains(&imm));
                    i_type(opcode, rd, 0b001, rs1, imm)
                }
                AluOp::Srl => {
                    assert!((0..64).contains(&imm));
                    i_type(opcode, rd, 0b101, rs1, imm)
                }
                AluOp::Sra => {
                    assert!((0..64).contains(&imm));
                    i_type(opcode, rd, 0b101, rs1, imm | 0x400)
                }
                other => panic!("{other:?} has no immediate form"),
            }
        }
        Inst::Op {
            op,
            rd,
            rs1,
            rs2,
            word,
        } => {
            let opcode = if word { 0b011_1011 } else { 0b011_0011 };
            let (funct3, funct7) = match op {
                AluOp::Add => (0b000, 0b000_0000),
                AluOp::Sub => (0b000, 0b010_0000),
                AluOp::Sll => (0b001, 0b000_0000),
                AluOp::Slt => (0b010, 0b000_0000),
                AluOp::Sltu => (0b011, 0b000_0000),
                AluOp::Xor => (0b100, 0b000_0000),
                AluOp::Srl => (0b101, 0b000_0000),
                AluOp::Sra => (0b101, 0b010_0000),
                AluOp::Or => (0b110, 0b000_0000),
                AluOp::And => (0b111, 0b000_0000),
                AluOp::Mul => (0b000, 0b000_0001),
                AluOp::Div => (0b100, 0b000_0001),
                AluOp::Divu => (0b101, 0b000_0001),
                AluOp::Rem => (0b110, 0b000_0001),
                AluOp::Remu => (0b111, 0b000_0001),
            };
            r_type(opcode, rd, funct3, rs1, rs2, funct7)
        }
        Inst::Csr {
            op,
            rd,
            rs1,
            csr,
            imm_form,
        } => {
            let funct3 = match (op, imm_form) {
                (CsrOp::ReadWrite, false) => 0b001,
                (CsrOp::ReadSet, false) => 0b010,
                (CsrOp::ReadClear, false) => 0b011,
                (CsrOp::ReadWrite, true) => 0b101,
                (CsrOp::ReadSet, true) => 0b110,
                (CsrOp::ReadClear, true) => 0b111,
            };
            0b111_0011
                | ((rd as u32) << 7)
                | (funct3 << 12)
                | ((rs1 as u32) << 15)
                | ((csr as u32) << 20)
        }
        Inst::Ecall => 0b111_0011,
        Inst::Ebreak => 0b111_0011 | (1 << 20),
        Inst::Sret => 0b111_0011 | (0b0001000_00010 << 20),
        Inst::Mret => 0b111_0011 | (0b0011000_00010 << 20),
        Inst::Wfi => 0b111_0011 | (0b0001000_00101 << 20),
        Inst::Fence => 0b000_1111,
        Inst::SfenceVma { rs1, rs2 } => r_type(0b111_0011, 0, 0b000, rs1, rs2, 0b000_1001),
    }
}

/// Convenience assembler: encodes a whole program.
pub fn assemble(program: &[Inst]) -> Vec<u32> {
    program.iter().map(|&i| encode(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;

    #[test]
    fn ld_pt_uses_custom_0() {
        let word = encode(Inst::LdPt {
            rd: 10,
            rs1: 11,
            offset: 8,
        });
        assert_eq!(word & 0x7f, OPCODE_LD_PT);
        assert_eq!((word >> 12) & 0b111, 0b011);
    }

    #[test]
    fn sd_pt_uses_custom_1() {
        let word = encode(Inst::SdPt {
            rs1: 11,
            rs2: 10,
            offset: -8,
        });
        assert_eq!(word & 0x7f, OPCODE_SD_PT);
    }

    #[test]
    fn well_known_encodings() {
        // addi x0, x0, 0 == nop == 0x00000013
        assert_eq!(
            encode(Inst::OpImm {
                op: AluOp::Add,
                rd: 0,
                rs1: 0,
                imm: 0,
                word: false
            }),
            0x0000_0013
        );
        // ecall == 0x00000073
        assert_eq!(encode(Inst::Ecall), 0x0000_0073);
        // mret == 0x30200073
        assert_eq!(encode(Inst::Mret), 0x3020_0073);
        // ret == jalr x0, 0(x1) == 0x00008067
        assert_eq!(
            encode(Inst::Jalr {
                rd: 0,
                rs1: 1,
                offset: 0
            }),
            0x0000_8067
        );
    }

    #[test]
    fn encode_decode_round_trip_sample() {
        let program = [
            Inst::Lui {
                rd: 5,
                imm: 0x12345 << 12,
            },
            Inst::Auipc { rd: 6, imm: -4096 },
            Inst::Jal {
                rd: 1,
                offset: -2048,
            },
            Inst::Jalr {
                rd: 1,
                rs1: 5,
                offset: 16,
            },
            Inst::Branch {
                op: BranchOp::Ltu,
                rs1: 5,
                rs2: 6,
                offset: -64,
            },
            Inst::Load {
                op: LoadOp::Wu,
                rd: 7,
                rs1: 2,
                offset: 2047,
            },
            Inst::Store {
                op: StoreOp::H,
                rs1: 2,
                rs2: 7,
                offset: -2048,
            },
            Inst::LdPt {
                rd: 10,
                rs1: 11,
                offset: 128,
            },
            Inst::SdPt {
                rs1: 11,
                rs2: 10,
                offset: -128,
            },
            Inst::OpImm {
                op: AluOp::Sra,
                rd: 8,
                rs1: 9,
                imm: 63,
                word: false,
            },
            Inst::OpImm {
                op: AluOp::Add,
                rd: 8,
                rs1: 9,
                imm: -1,
                word: true,
            },
            Inst::Op {
                op: AluOp::Mul,
                rd: 8,
                rs1: 9,
                rs2: 10,
                word: false,
            },
            Inst::Op {
                op: AluOp::Sub,
                rd: 8,
                rs1: 9,
                rs2: 10,
                word: true,
            },
            Inst::Csr {
                op: CsrOp::ReadWrite,
                rd: 1,
                rs1: 2,
                csr: 0x180,
                imm_form: false,
            },
            Inst::Csr {
                op: CsrOp::ReadSet,
                rd: 1,
                rs1: 5,
                csr: 0x300,
                imm_form: true,
            },
            Inst::Ecall,
            Inst::Ebreak,
            Inst::Mret,
            Inst::Sret,
            Inst::Wfi,
            Inst::Fence,
            Inst::SfenceVma { rs1: 0, rs2: 0 },
        ];
        for inst in program {
            let word = encode(inst);
            let back = decode(word).unwrap_or_else(|| panic!("decode failed for {inst}"));
            assert_eq!(back, inst, "round trip failed for {inst} ({word:#010x})");
        }
    }
}
