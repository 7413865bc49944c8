//! The RVC (compressed) instruction decoder — RV64C subset.
//!
//! The prototype ISA is RV64IMAC (paper Table II); the C extension halves
//! code size by encoding common instructions in 16 bits. Each compressed
//! instruction expands to exactly one full instruction, so the decoder here
//! returns the same [`Inst`] the 32-bit decoder would for the expansion —
//! the rest of the pipeline never knows the difference (as in hardware,
//! where the expander sits in fetch/decode).

#![allow(
    clippy::unusual_byte_groupings,
    reason = "binary literals are grouped by instruction field (funct3 / imm / rs / op), \
              not in even digit blocks"
)]

use crate::inst::{AluOp, BranchOp, Inst, LoadOp, StoreOp};

/// Stack pointer register number.
const SP: u8 = 2;

/// Compressed 3-bit register (maps to x8–x15).
fn rc(bits: u16) -> u8 {
    (bits & 0b111) as u8 + 8
}

fn bit(word: u16, i: u32) -> u64 {
    ((word >> i) & 1) as u64
}

fn sign_extend(value: u64, sign_bit: u32) -> i64 {
    let shift = 63 - sign_bit;
    ((value << shift) as i64) >> shift
}

/// Decodes one 16-bit RVC instruction; `None` for illegal/unsupported
/// encodings (including the all-zero pattern, which is defined illegal).
pub fn decode_compressed(word: u16) -> Option<Inst> {
    if word == 0 {
        return None; // defined illegal
    }
    let op = word & 0b11;
    let funct3 = (word >> 13) & 0b111;
    match (op, funct3) {
        // --- Quadrant 0 ---
        (0b00, 0b000) => {
            // c.addi4spn rd', nzuimm -> addi rd', sp, nzuimm
            let uimm = (bit(word, 12) << 5)
                | (bit(word, 11) << 4)
                | (bit(word, 10) << 9)
                | (bit(word, 9) << 8)
                | (bit(word, 8) << 7)
                | (bit(word, 7) << 6)
                | (bit(word, 6) << 2)
                | (bit(word, 5) << 3);
            if uimm == 0 {
                return None;
            }
            Some(Inst::OpImm {
                op: AluOp::Add,
                rd: rc(word >> 2),
                rs1: SP,
                imm: uimm as i64,
                word: false,
            })
        }
        (0b00, 0b010) => {
            // c.lw rd', offset(rs1')
            let uimm = (bit(word, 12) << 5)
                | (bit(word, 11) << 4)
                | (bit(word, 10) << 3)
                | (bit(word, 6) << 2)
                | (bit(word, 5) << 6);
            Some(Inst::Load {
                op: LoadOp::W,
                rd: rc(word >> 2),
                rs1: rc(word >> 7),
                offset: uimm as i64,
            })
        }
        (0b00, 0b011) => {
            // c.ld rd', offset(rs1')   (RV64)
            let uimm = (bit(word, 12) << 5)
                | (bit(word, 11) << 4)
                | (bit(word, 10) << 3)
                | (bit(word, 6) << 7)
                | (bit(word, 5) << 6);
            Some(Inst::Load {
                op: LoadOp::D,
                rd: rc(word >> 2),
                rs1: rc(word >> 7),
                offset: uimm as i64,
            })
        }
        (0b00, 0b110) => {
            // c.sw rs2', offset(rs1')
            let uimm = (bit(word, 12) << 5)
                | (bit(word, 11) << 4)
                | (bit(word, 10) << 3)
                | (bit(word, 6) << 2)
                | (bit(word, 5) << 6);
            Some(Inst::Store {
                op: StoreOp::W,
                rs1: rc(word >> 7),
                rs2: rc(word >> 2),
                offset: uimm as i64,
            })
        }
        (0b00, 0b111) => {
            // c.sd rs2', offset(rs1')  (RV64)
            let uimm = (bit(word, 12) << 5)
                | (bit(word, 11) << 4)
                | (bit(word, 10) << 3)
                | (bit(word, 6) << 7)
                | (bit(word, 5) << 6);
            Some(Inst::Store {
                op: StoreOp::D,
                rs1: rc(word >> 7),
                rs2: rc(word >> 2),
                offset: uimm as i64,
            })
        }
        // --- Quadrant 1 ---
        (0b01, 0b000) => {
            // c.addi rd, imm (rd=0 => c.nop)
            let rd = ((word >> 7) & 0x1f) as u8;
            let imm = sign_extend((bit(word, 12) << 5) | ((word >> 2) & 0x1f) as u64, 5);
            Some(Inst::OpImm {
                op: AluOp::Add,
                rd,
                rs1: rd,
                imm,
                word: false,
            })
        }
        (0b01, 0b001) => {
            // c.addiw rd, imm (RV64; rd != 0)
            let rd = ((word >> 7) & 0x1f) as u8;
            if rd == 0 {
                return None;
            }
            let imm = sign_extend((bit(word, 12) << 5) | ((word >> 2) & 0x1f) as u64, 5);
            Some(Inst::OpImm {
                op: AluOp::Add,
                rd,
                rs1: rd,
                imm,
                word: true,
            })
        }
        (0b01, 0b010) => {
            // c.li rd, imm -> addi rd, x0, imm
            let rd = ((word >> 7) & 0x1f) as u8;
            let imm = sign_extend((bit(word, 12) << 5) | ((word >> 2) & 0x1f) as u64, 5);
            Some(Inst::OpImm {
                op: AluOp::Add,
                rd,
                rs1: 0,
                imm,
                word: false,
            })
        }
        (0b01, 0b011) => {
            let rd = ((word >> 7) & 0x1f) as u8;
            if rd == SP {
                // c.addi16sp: addi sp, sp, nzimm
                let imm = sign_extend(
                    (bit(word, 12) << 9)
                        | (bit(word, 6) << 4)
                        | (bit(word, 5) << 6)
                        | (bit(word, 4) << 8)
                        | (bit(word, 3) << 7)
                        | (bit(word, 2) << 5),
                    9,
                );
                if imm == 0 {
                    return None;
                }
                Some(Inst::OpImm {
                    op: AluOp::Add,
                    rd: SP,
                    rs1: SP,
                    imm,
                    word: false,
                })
            } else {
                // c.lui rd, nzimm (rd != 0, 2)
                if rd == 0 {
                    return None;
                }
                let imm = sign_extend(
                    (bit(word, 12) << 17) | (((word >> 2) & 0x1f) as u64) << 12,
                    17,
                );
                if imm == 0 {
                    return None;
                }
                Some(Inst::Lui { rd, imm })
            }
        }
        (0b01, 0b100) => {
            let rd = rc(word >> 7);
            match (word >> 10) & 0b11 {
                0b00 => {
                    // c.srli
                    let shamt = ((bit(word, 12) << 5) | ((word >> 2) & 0x1f) as u64) as i64;
                    Some(Inst::OpImm {
                        op: AluOp::Srl,
                        rd,
                        rs1: rd,
                        imm: shamt,
                        word: false,
                    })
                }
                0b01 => {
                    // c.srai
                    let shamt = ((bit(word, 12) << 5) | ((word >> 2) & 0x1f) as u64) as i64;
                    Some(Inst::OpImm {
                        op: AluOp::Sra,
                        rd,
                        rs1: rd,
                        imm: shamt,
                        word: false,
                    })
                }
                0b10 => {
                    // c.andi
                    let imm = sign_extend((bit(word, 12) << 5) | ((word >> 2) & 0x1f) as u64, 5);
                    Some(Inst::OpImm {
                        op: AluOp::And,
                        rd,
                        rs1: rd,
                        imm,
                        word: false,
                    })
                }
                _ => {
                    let rs2 = rc(word >> 2);
                    let sel = (word >> 5) & 0b11;
                    if bit(word, 12) == 0 {
                        let op = match sel {
                            0b00 => AluOp::Sub,
                            0b01 => AluOp::Xor,
                            0b10 => AluOp::Or,
                            _ => AluOp::And,
                        };
                        Some(Inst::Op {
                            op,
                            rd,
                            rs1: rd,
                            rs2,
                            word: false,
                        })
                    } else {
                        // c.subw / c.addw (RV64)
                        let op = match sel {
                            0b00 => AluOp::Sub,
                            0b01 => AluOp::Add,
                            _ => return None,
                        };
                        Some(Inst::Op {
                            op,
                            rd,
                            rs1: rd,
                            rs2,
                            word: true,
                        })
                    }
                }
            }
        }
        (0b01, 0b101) => {
            // c.j
            let offset = sign_extend(
                (bit(word, 12) << 11)
                    | (bit(word, 11) << 4)
                    | (bit(word, 10) << 9)
                    | (bit(word, 9) << 8)
                    | (bit(word, 8) << 10)
                    | (bit(word, 7) << 6)
                    | (bit(word, 6) << 7)
                    | (bit(word, 5) << 3)
                    | (bit(word, 4) << 2)
                    | (bit(word, 3) << 1)
                    | (bit(word, 2) << 5),
                11,
            );
            Some(Inst::Jal { rd: 0, offset })
        }
        (0b01, 0b110) | (0b01, 0b111) => {
            // c.beqz / c.bnez rs1', offset
            let offset = sign_extend(
                (bit(word, 12) << 8)
                    | (bit(word, 11) << 4)
                    | (bit(word, 10) << 3)
                    | (bit(word, 6) << 7)
                    | (bit(word, 5) << 6)
                    | (bit(word, 4) << 2)
                    | (bit(word, 3) << 1)
                    | (bit(word, 2) << 5),
                8,
            );
            let op = if funct3 == 0b110 {
                BranchOp::Eq
            } else {
                BranchOp::Ne
            };
            Some(Inst::Branch {
                op,
                rs1: rc(word >> 7),
                rs2: 0,
                offset,
            })
        }
        // --- Quadrant 2 ---
        (0b10, 0b000) => {
            // c.slli rd, shamt
            let rd = ((word >> 7) & 0x1f) as u8;
            if rd == 0 {
                return None;
            }
            let shamt = ((bit(word, 12) << 5) | ((word >> 2) & 0x1f) as u64) as i64;
            Some(Inst::OpImm {
                op: AluOp::Sll,
                rd,
                rs1: rd,
                imm: shamt,
                word: false,
            })
        }
        (0b10, 0b010) => {
            // c.lwsp rd, offset(sp)
            let rd = ((word >> 7) & 0x1f) as u8;
            if rd == 0 {
                return None;
            }
            let uimm = (bit(word, 12) << 5)
                | (bit(word, 6) << 4)
                | (bit(word, 5) << 3)
                | (bit(word, 4) << 2)
                | (bit(word, 3) << 7)
                | (bit(word, 2) << 6);
            Some(Inst::Load {
                op: LoadOp::W,
                rd,
                rs1: SP,
                offset: uimm as i64,
            })
        }
        (0b10, 0b011) => {
            // c.ldsp rd, offset(sp)  (RV64)
            let rd = ((word >> 7) & 0x1f) as u8;
            if rd == 0 {
                return None;
            }
            let uimm = (bit(word, 12) << 5)
                | (bit(word, 6) << 4)
                | (bit(word, 5) << 3)
                | (bit(word, 4) << 8)
                | (bit(word, 3) << 7)
                | (bit(word, 2) << 6);
            Some(Inst::Load {
                op: LoadOp::D,
                rd,
                rs1: SP,
                offset: uimm as i64,
            })
        }
        (0b10, 0b100) => {
            let rd = ((word >> 7) & 0x1f) as u8;
            let rs2 = ((word >> 2) & 0x1f) as u8;
            if bit(word, 12) == 0 {
                if rs2 == 0 {
                    // c.jr rd (rd != 0)
                    if rd == 0 {
                        return None;
                    }
                    Some(Inst::Jalr {
                        rd: 0,
                        rs1: rd,
                        offset: 0,
                    })
                } else {
                    // c.mv rd, rs2 -> add rd, x0, rs2
                    Some(Inst::Op {
                        op: AluOp::Add,
                        rd,
                        rs1: 0,
                        rs2,
                        word: false,
                    })
                }
            } else if rs2 == 0 {
                if rd == 0 {
                    // c.ebreak
                    Some(Inst::Ebreak)
                } else {
                    // c.jalr rd -> jalr ra, 0(rd)
                    Some(Inst::Jalr {
                        rd: 1,
                        rs1: rd,
                        offset: 0,
                    })
                }
            } else {
                // c.add rd, rs2 -> add rd, rd, rs2
                Some(Inst::Op {
                    op: AluOp::Add,
                    rd,
                    rs1: rd,
                    rs2,
                    word: false,
                })
            }
        }
        (0b10, 0b110) => {
            // c.swsp rs2, offset(sp)
            let uimm = (bit(word, 12) << 5)
                | (bit(word, 11) << 4)
                | (bit(word, 10) << 3)
                | (bit(word, 9) << 2)
                | (bit(word, 8) << 7)
                | (bit(word, 7) << 6);
            Some(Inst::Store {
                op: StoreOp::W,
                rs1: SP,
                rs2: ((word >> 2) & 0x1f) as u8,
                offset: uimm as i64,
            })
        }
        (0b10, 0b111) => {
            // c.sdsp rs2, offset(sp)  (RV64)
            let uimm = (bit(word, 12) << 5)
                | (bit(word, 11) << 4)
                | (bit(word, 10) << 3)
                | (bit(word, 9) << 8)
                | (bit(word, 8) << 7)
                | (bit(word, 7) << 6);
            Some(Inst::Store {
                op: StoreOp::D,
                rs1: SP,
                rs2: ((word >> 2) & 0x1f) as u8,
                offset: uimm as i64,
            })
        }
        _ => None,
    }
}

/// True when the 16-bit parcel starts a *compressed* instruction (low two
/// bits are not `11`).
pub const fn is_compressed(parcel: u16) -> bool {
    parcel & 0b11 != 0b11
}

#[cfg(test)]
mod tests {
    use super::*;

    // Hand-assembled reference encodings (cross-checked against the RVC
    // spec tables).

    #[test]
    fn zero_word_is_illegal() {
        assert_eq!(decode_compressed(0), None);
    }

    #[test]
    fn c_addi4spn() {
        // c.addi4spn a0, sp, 16  => CIW: funct3=000, uimm=16 (bit 9..6=0, 5:4=01)
        // uimm[5:4]=bits 12:11, uimm[9:6]=bits 10:7, uimm[2]=bit6, uimm[3]=bit5
        // 16 = 0b1_0000 -> uimm[4]=1 -> bit11=1. rd'=a0=x10 -> 010.
        // funct3=000 | uimm[5:4]=01 (bit11) | uimm[9:6]=0000 | uimm[2]=0 |
        // uimm[3]=0 | rd'=010 | op=00  => 0x0808
        let word = 0x0808u16;
        assert_eq!(
            decode_compressed(word),
            Some(Inst::OpImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 2,
                imm: 16,
                word: false
            })
        );
    }

    #[test]
    fn c_ld_and_c_sd() {
        // c.ld a1, 8(a0): funct3=011, uimm=8 -> uimm[3]=1 -> bit10=1.
        // rs1'=a0=010 (bits 9:7), rd'=a1=011 (bits 4:2)
        let ld = 0b011_0_01_010_0_0_011_00u16;
        assert_eq!(
            decode_compressed(ld),
            Some(Inst::Load {
                op: LoadOp::D,
                rd: 11,
                rs1: 10,
                offset: 8
            })
        );
        // c.sd a1, 8(a0): funct3=111
        let sd = 0b111_0_01_010_0_0_011_00u16;
        assert_eq!(
            decode_compressed(sd),
            Some(Inst::Store {
                op: StoreOp::D,
                rs1: 10,
                rs2: 11,
                offset: 8
            })
        );
    }

    #[test]
    fn c_addi_and_nop() {
        // c.addi a0, -1: funct3=000 op=01, rd=10, imm=-1 (bit12=1, bits6:2=11111)
        let word = 0b000_1_01010_11111_01u16;
        assert_eq!(
            decode_compressed(word),
            Some(Inst::OpImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 10,
                imm: -1,
                word: false
            })
        );
        // c.nop = c.addi x0, 0
        let nop = 0b000_0_00000_00000_01u16;
        assert_eq!(
            decode_compressed(nop),
            Some(Inst::OpImm {
                op: AluOp::Add,
                rd: 0,
                rs1: 0,
                imm: 0,
                word: false
            })
        );
    }

    #[test]
    fn c_li_and_c_lui() {
        // c.li a0, 5
        let li = 0b010_0_01010_00101_01u16;
        assert_eq!(
            decode_compressed(li),
            Some(Inst::OpImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 0,
                imm: 5,
                word: false
            })
        );
        // c.lui a0, 1 -> lui a0, 0x1000
        let lui = 0b011_0_01010_00001_01u16;
        assert_eq!(
            decode_compressed(lui),
            Some(Inst::Lui {
                rd: 10,
                imm: 0x1000
            })
        );
        // c.lui with imm=0 is reserved.
        let bad = 0b011_0_01010_00000_01u16;
        assert_eq!(decode_compressed(bad), None);
    }

    #[test]
    fn c_addi16sp() {
        // c.addi16sp sp, 32: imm=32 -> imm[5]=1 -> bit2=1; rd=2
        let word = 0b011_0_00010_00001_01u16;
        assert_eq!(
            decode_compressed(word),
            Some(Inst::OpImm {
                op: AluOp::Add,
                rd: 2,
                rs1: 2,
                imm: 32,
                word: false
            })
        );
    }

    #[test]
    fn c_arith_group() {
        // c.sub a0, a1: funct3=100, bit12=0, bits11:10=11, rd'=a0(010), sel=00, rs2'=a1(011)
        let sub = 0b100_0_11_010_00_011_01u16;
        assert_eq!(
            decode_compressed(sub),
            Some(Inst::Op {
                op: AluOp::Sub,
                rd: 10,
                rs1: 10,
                rs2: 11,
                word: false
            })
        );
        // c.addw a0, a1: bit12=1, sel=01
        let addw = 0b100_1_11_010_01_011_01u16;
        assert_eq!(
            decode_compressed(addw),
            Some(Inst::Op {
                op: AluOp::Add,
                rd: 10,
                rs1: 10,
                rs2: 11,
                word: true
            })
        );
        // c.andi a0, 3: bits11:10=10
        let andi = 0b100_0_10_010_00011_01u16;
        assert_eq!(
            decode_compressed(andi),
            Some(Inst::OpImm {
                op: AluOp::And,
                rd: 10,
                rs1: 10,
                imm: 3,
                word: false
            })
        );
        // c.srli a0, 1: bits11:10=00
        let srli = 0b100_0_00_010_00001_01u16;
        assert_eq!(
            decode_compressed(srli),
            Some(Inst::OpImm {
                op: AluOp::Srl,
                rd: 10,
                rs1: 10,
                imm: 1,
                word: false
            })
        );
    }

    #[test]
    fn c_j_and_branches() {
        // c.j 0: all offset bits zero.
        let j = 0b101_00000000000_01u16;
        assert_eq!(decode_compressed(j), Some(Inst::Jal { rd: 0, offset: 0 }));
        // c.j -2: offset -2 -> bits: imm[1]=1 plus sign bits all 1.
        // imm = -2 = 0b111111111110 (12-bit). Mapping: bit12=imm11=1,
        // bit11=imm4=1, bit10=imm9=1, bit9=imm8=1, bit8=imm10=1, bit7=imm6=1,
        // bit6=imm7=1, bit5=imm3=1, bit4=imm2=1, bit3=imm1=1, bit2=imm5=1.
        let j_m2 = 0b101_11111111111_01u16;
        assert_eq!(
            decode_compressed(j_m2),
            Some(Inst::Jal { rd: 0, offset: -2 })
        );
        // c.beqz a0, 0
        let beqz = 0b110_0_00_010_00000_01u16;
        assert_eq!(
            decode_compressed(beqz),
            Some(Inst::Branch {
                op: BranchOp::Eq,
                rs1: 10,
                rs2: 0,
                offset: 0
            })
        );
    }

    #[test]
    fn c_quadrant2_moves_and_jumps() {
        // c.mv a0, a1: bit12=0, rd=10, rs2=11
        let mv = 0b100_0_01010_01011_10u16;
        assert_eq!(
            decode_compressed(mv),
            Some(Inst::Op {
                op: AluOp::Add,
                rd: 10,
                rs1: 0,
                rs2: 11,
                word: false
            })
        );
        // c.add a0, a1: bit12=1
        let add = 0b100_1_01010_01011_10u16;
        assert_eq!(
            decode_compressed(add),
            Some(Inst::Op {
                op: AluOp::Add,
                rd: 10,
                rs1: 10,
                rs2: 11,
                word: false
            })
        );
        // c.jr ra
        let jr = 0b100_0_00001_00000_10u16;
        assert_eq!(
            decode_compressed(jr),
            Some(Inst::Jalr {
                rd: 0,
                rs1: 1,
                offset: 0
            })
        );
        // c.jalr a0
        let jalr = 0b100_1_01010_00000_10u16;
        assert_eq!(
            decode_compressed(jalr),
            Some(Inst::Jalr {
                rd: 1,
                rs1: 10,
                offset: 0
            })
        );
        // c.ebreak
        let ebreak = 0b100_1_00000_00000_10u16;
        assert_eq!(decode_compressed(ebreak), Some(Inst::Ebreak));
    }

    #[test]
    fn c_sp_relative_loads_stores() {
        // c.ldsp a0, 0(sp)
        let ldsp = 0b011_0_01010_00000_10u16;
        assert_eq!(
            decode_compressed(ldsp),
            Some(Inst::Load {
                op: LoadOp::D,
                rd: 10,
                rs1: 2,
                offset: 0
            })
        );
        // c.sdsp a0, 8(sp): uimm[3]=1 -> bit10
        let sdsp = 0b111_001_000_01010_10u16;
        assert_eq!(
            decode_compressed(sdsp),
            Some(Inst::Store {
                op: StoreOp::D,
                rs1: 2,
                rs2: 10,
                offset: 8
            })
        );
        // c.slli a0, 4
        let slli = 0b000_0_01010_00100_10u16;
        assert_eq!(
            decode_compressed(slli),
            Some(Inst::OpImm {
                op: AluOp::Sll,
                rd: 10,
                rs1: 10,
                imm: 4,
                word: false
            })
        );
    }

    #[test]
    fn is_compressed_discriminates() {
        assert!(is_compressed(0b01));
        assert!(is_compressed(0b10));
        assert!(is_compressed(0b00));
        assert!(!is_compressed(0b11));
        assert!(!is_compressed(0x0013_u16)); // addi x0,x0,0 low parcel
    }

    #[test]
    fn reserved_encodings_are_none() {
        // c.addi4spn with nzuimm=0.
        assert_eq!(decode_compressed(0b000_00000000_010_00), None);
        // c.addiw with rd=0.
        assert_eq!(decode_compressed(0b001_0_00000_00001_01), None);
        // c.lwsp with rd=0.
        assert_eq!(decode_compressed(0b010_0_00000_00100_10), None);
        // c.jr with rd=0 and rs2=0 bit12=0.
        assert_eq!(decode_compressed(0b100_0_00000_00000_10), None);
    }
}
