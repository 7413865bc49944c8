//! # ptstore-isa
//!
//! A functional RV64 instruction-set simulator carrying the PTStore ISA
//! extension (paper §IV-A):
//!
//! * two new instructions, **`ld.pt`** and **`sd.pt`** — identical to `ld`/`sd`
//!   except for their opcodes (custom-0/custom-1 space) and that they access
//!   memory on the [`Channel::SecurePt`](ptstore_core::Channel) path, i.e.
//!   *only* the secure region;
//! * the new **S-bit** in each `pmpcfg` entry (modelled in
//!   [`ptstore_core::PmpUnit`], surfaced here through the CSR file);
//! * the new **S-bit** in `satp` arming the walker origin check.
//!
//! The interpreter covers RV64IM + Zicsr + privileged instructions
//! (`ecall`/`mret`/`sret`/`sfence.vma`/`wfi`), M/S/U privilege modes, and the
//! standard trap architecture with `medeleg`-based delegation — enough to run
//! the boot/attack/demo programs in `examples/` and the integration tests
//! against the same PMP + MMU the kernel model uses. The LLVM back-end change
//! of the paper (15 LoC of TableGen) corresponds to [`mod@encode`] +
//! [`mod@decode`] here.
//!
//! ```
//! use ptstore_isa::{decode, encode, Inst};
//!
//! // The new instruction exists, encodes into custom-0, and round-trips.
//! let ld_pt = Inst::LdPt { rd: 10, rs1: 11, offset: 16 };
//! let word = encode(ld_pt);
//! assert_eq!(word & 0x7f, 0b000_1011);
//! assert_eq!(decode(word), Some(ld_pt));
//! ```

pub mod compressed;
pub mod cpu;
pub mod csr;
pub mod decode;
pub mod encode;
pub mod inst;
pub mod machine;

pub use compressed::{decode_compressed, is_compressed};
pub use cpu::{Cpu, CpuError, StepEvent, Trap, TrapCause};
pub use csr::CsrFile;
pub use decode::decode;
pub use encode::{assemble, encode};
pub use inst::{AluOp, BranchOp, CsrOp, Inst, LoadOp, StoreOp};
pub use machine::SimMachine;
