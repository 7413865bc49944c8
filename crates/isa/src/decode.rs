//! Instruction decoder — the model of the modified BOOM decode stage, which
//! recognises the two new opcodes (paper §IV-A1, Table I: 58 Chisel LoC).

use crate::encode::{OPCODE_LD_PT, OPCODE_SD_PT};
use crate::inst::{AluOp, AmoOp, BranchOp, CsrOp, Inst, LoadOp, StoreOp};

fn rd(word: u32) -> u8 {
    ((word >> 7) & 0x1f) as u8
}

fn rs1(word: u32) -> u8 {
    ((word >> 15) & 0x1f) as u8
}

fn rs2(word: u32) -> u8 {
    ((word >> 20) & 0x1f) as u8
}

fn funct3(word: u32) -> u32 {
    (word >> 12) & 0b111
}

fn funct7(word: u32) -> u32 {
    word >> 25
}

fn imm_i(word: u32) -> i64 {
    ((word as i32) >> 20) as i64
}

fn imm_s(word: u32) -> i64 {
    let hi = ((word as i32) >> 25) as i64; // sign-extended imm[11:5]
    let lo = ((word >> 7) & 0x1f) as i64;
    (hi << 5) | lo
}

fn imm_b(word: u32) -> i64 {
    let sign = ((word as i32) >> 31) as i64; // imm[12]
    let b11 = ((word >> 7) & 1) as i64;
    let b4_1 = ((word >> 8) & 0xf) as i64;
    let b10_5 = ((word >> 25) & 0x3f) as i64;
    (sign << 12) | (b11 << 11) | (b10_5 << 5) | (b4_1 << 1)
}

fn imm_u(word: u32) -> i64 {
    ((word & 0xffff_f000) as i32) as i64
}

fn imm_j(word: u32) -> i64 {
    let sign = ((word as i32) >> 31) as i64; // imm[20]
    let b19_12 = ((word >> 12) & 0xff) as i64;
    let b11 = ((word >> 20) & 1) as i64;
    let b10_1 = ((word >> 21) & 0x3ff) as i64;
    (sign << 20) | (b19_12 << 12) | (b11 << 11) | (b10_1 << 1)
}

/// Decodes a 32-bit instruction word. Returns `None` for anything the model
/// does not implement (the CPU raises an illegal-instruction trap).
pub fn decode(word: u32) -> Option<Inst> {
    let opcode = word & 0x7f;
    match opcode {
        0b011_0111 => Some(Inst::Lui {
            rd: rd(word),
            imm: imm_u(word),
        }),
        0b001_0111 => Some(Inst::Auipc {
            rd: rd(word),
            imm: imm_u(word),
        }),
        0b110_1111 => Some(Inst::Jal {
            rd: rd(word),
            offset: imm_j(word),
        }),
        0b110_0111 if funct3(word) == 0 => Some(Inst::Jalr {
            rd: rd(word),
            rs1: rs1(word),
            offset: imm_i(word),
        }),
        0b110_0011 => {
            let op = match funct3(word) {
                0b000 => BranchOp::Eq,
                0b001 => BranchOp::Ne,
                0b100 => BranchOp::Lt,
                0b101 => BranchOp::Ge,
                0b110 => BranchOp::Ltu,
                0b111 => BranchOp::Geu,
                _ => return None,
            };
            Some(Inst::Branch {
                op,
                rs1: rs1(word),
                rs2: rs2(word),
                offset: imm_b(word),
            })
        }
        0b000_0011 => {
            let op = match funct3(word) {
                0b000 => LoadOp::B,
                0b001 => LoadOp::H,
                0b010 => LoadOp::W,
                0b011 => LoadOp::D,
                0b100 => LoadOp::Bu,
                0b101 => LoadOp::Hu,
                0b110 => LoadOp::Wu,
                _ => return None,
            };
            Some(Inst::Load {
                op,
                rd: rd(word),
                rs1: rs1(word),
                offset: imm_i(word),
            })
        }
        0b010_0011 => {
            let op = match funct3(word) {
                0b000 => StoreOp::B,
                0b001 => StoreOp::H,
                0b010 => StoreOp::W,
                0b011 => StoreOp::D,
                _ => return None,
            };
            Some(Inst::Store {
                op,
                rs1: rs1(word),
                rs2: rs2(word),
                offset: imm_s(word),
            })
        }
        // RV64A: AMO/LR/SC (funct3 010 = .w, 011 = .d; aq/rl bits ignored by
        // the functional model).
        0b010_1111 => {
            let word_form = match funct3(word) {
                0b010 => true,
                0b011 => false,
                _ => return None,
            };
            let op = AmoOp::from_funct5(funct7(word) >> 2)?;
            if op == AmoOp::Lr && rs2(word) != 0 {
                return None;
            }
            Some(Inst::Amo {
                op,
                rd: rd(word),
                rs1: rs1(word),
                rs2: rs2(word),
                word: word_form,
            })
        }
        // PTStore custom-0: ld.pt
        op if op == OPCODE_LD_PT && funct3(word) == 0b011 => Some(Inst::LdPt {
            rd: rd(word),
            rs1: rs1(word),
            offset: imm_i(word),
        }),
        // PTStore custom-1: sd.pt
        op if op == OPCODE_SD_PT && funct3(word) == 0b011 => Some(Inst::SdPt {
            rs1: rs1(word),
            rs2: rs2(word),
            offset: imm_s(word),
        }),
        0b001_0011 | 0b001_1011 => {
            let word_form = opcode == 0b001_1011;
            let imm = imm_i(word);
            let (op, imm) = match funct3(word) {
                0b000 => (AluOp::Add, imm),
                0b010 => (AluOp::Slt, imm),
                0b011 => (AluOp::Sltu, imm),
                0b100 => (AluOp::Xor, imm),
                0b110 => (AluOp::Or, imm),
                0b111 => (AluOp::And, imm),
                0b001 => (AluOp::Sll, imm & 0x3f),
                0b101 => {
                    if imm & 0x400 != 0 {
                        (AluOp::Sra, imm & 0x3f)
                    } else {
                        (AluOp::Srl, imm & 0x3f)
                    }
                }
                _ => return None,
            };
            Some(Inst::OpImm {
                op,
                rd: rd(word),
                rs1: rs1(word),
                imm,
                word: word_form,
            })
        }
        0b011_0011 | 0b011_1011 => {
            let word_form = opcode == 0b011_1011;
            let op = match (funct3(word), funct7(word)) {
                (0b000, 0b000_0000) => AluOp::Add,
                (0b000, 0b010_0000) => AluOp::Sub,
                (0b001, 0b000_0000) => AluOp::Sll,
                (0b010, 0b000_0000) => AluOp::Slt,
                (0b011, 0b000_0000) => AluOp::Sltu,
                (0b100, 0b000_0000) => AluOp::Xor,
                (0b101, 0b000_0000) => AluOp::Srl,
                (0b101, 0b010_0000) => AluOp::Sra,
                (0b110, 0b000_0000) => AluOp::Or,
                (0b111, 0b000_0000) => AluOp::And,
                (0b000, 0b000_0001) => AluOp::Mul,
                (0b100, 0b000_0001) => AluOp::Div,
                (0b101, 0b000_0001) => AluOp::Divu,
                (0b110, 0b000_0001) => AluOp::Rem,
                (0b111, 0b000_0001) => AluOp::Remu,
                _ => return None,
            };
            Some(Inst::Op {
                op,
                rd: rd(word),
                rs1: rs1(word),
                rs2: rs2(word),
                word: word_form,
            })
        }
        0b000_1111 => Some(Inst::Fence),
        0b111_0011 => match funct3(word) {
            0b000 => match word >> 20 {
                0b0000_0000_0000 if rd(word) == 0 && rs1(word) == 0 => Some(Inst::Ecall),
                0b0000_0000_0001 if rd(word) == 0 && rs1(word) == 0 => Some(Inst::Ebreak),
                0b0001_0000_0010 if rd(word) == 0 && rs1(word) == 0 => Some(Inst::Sret),
                0b0011_0000_0010 if rd(word) == 0 && rs1(word) == 0 => Some(Inst::Mret),
                0b0001_0000_0101 if rd(word) == 0 && rs1(word) == 0 => Some(Inst::Wfi),
                _ if funct7(word) == 0b000_1001 && rd(word) == 0 => Some(Inst::SfenceVma {
                    rs1: rs1(word),
                    rs2: rs2(word),
                }),
                _ => None,
            },
            f3 @ (0b001 | 0b010 | 0b011 | 0b101 | 0b110 | 0b111) => {
                let (op, imm_form) = match f3 {
                    0b001 => (CsrOp::ReadWrite, false),
                    0b010 => (CsrOp::ReadSet, false),
                    0b011 => (CsrOp::ReadClear, false),
                    0b101 => (CsrOp::ReadWrite, true),
                    0b110 => (CsrOp::ReadSet, true),
                    _ => (CsrOp::ReadClear, true),
                };
                Some(Inst::Csr {
                    op,
                    rd: rd(word),
                    rs1: rs1(word),
                    csr: (word >> 20) as u16,
                    imm_form,
                })
            }
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_opcode_is_none() {
        assert_eq!(decode(0xffff_ffff), None);
        assert_eq!(decode(0), None);
    }

    #[test]
    #[allow(
        clippy::identity_op,
        reason = "funct3=000 spelled out for contrast with 011"
    )]
    fn custom_opcode_with_wrong_funct3_is_none() {
        // ld.pt requires funct3=011; anything else in custom-0 is illegal.
        let bad = OPCODE_LD_PT | (0b000 << 12);
        assert_eq!(decode(bad), None);
    }

    #[test]
    fn negative_immediates_sign_extend() {
        // addi a0, a0, -1
        let word = crate::encode::encode(Inst::OpImm {
            op: AluOp::Add,
            rd: 10,
            rs1: 10,
            imm: -1,
            word: false,
        });
        match decode(word).unwrap() {
            Inst::OpImm { imm, .. } => assert_eq!(imm, -1),
            other => panic!("wrong decode: {other}"),
        }
    }

    #[test]
    fn branch_offset_sign() {
        let word = crate::encode::encode(Inst::Branch {
            op: BranchOp::Eq,
            rs1: 1,
            rs2: 2,
            offset: -8,
        });
        match decode(word).unwrap() {
            Inst::Branch { offset, .. } => assert_eq!(offset, -8),
            other => panic!("wrong decode: {other}"),
        }
    }
}
