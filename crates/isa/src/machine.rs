//! A convenience wrapper tying one hart to one bus — the "FPGA prototype
//! board" of the model.

use ptstore_core::{PhysAddr, SecureRegion, MIB};
use ptstore_mem::Bus;

use crate::cpu::{Cpu, CpuError, StepEvent, Trap};
use crate::encode::assemble;
use crate::inst::Inst;

/// One hart + memory + PMP, with program-loading helpers.
///
/// ```
/// use ptstore_isa::{SimMachine, Inst, AluOp};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut m = SimMachine::new(64 * ptstore_core::MIB);
/// m.load_program(0x1000, &[
///     Inst::OpImm { op: AluOp::Add, rd: 10, rs1: 0, imm: 21, word: false },
///     Inst::Op { op: AluOp::Add, rd: 10, rs1: 10, rs2: 10, word: false },
///     Inst::Wfi,
/// ]);
/// m.cpu.pc = 0x1000;
/// m.run(100)?;
/// assert_eq!(m.cpu.reg(10), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimMachine {
    /// The hart.
    pub cpu: Cpu,
    /// Memory + PMP.
    pub bus: Bus,
}

impl SimMachine {
    /// A machine with `mem_size` bytes of RAM, reset to M-mode at PC 0, with
    /// a fail-loud M-mode trap vector at `0xF000` (tests override it).
    ///
    /// # Panics
    /// Panics unless `mem_size` is a non-zero page multiple.
    pub fn new(mem_size: u64) -> Self {
        let mut cpu = Cpu::new();
        cpu.csrs.write_raw(crate::csr::addr::MTVEC, 0xF000);
        Self {
            cpu,
            bus: Bus::new(mem_size),
        }
    }

    /// A machine with the paper's default 64 MiB secure region at the top of
    /// memory already installed.
    ///
    /// # Panics
    /// Panics when `mem_size` is smaller than 64 MiB or not page-aligned.
    pub fn with_secure_region(mem_size: u64) -> (Self, SecureRegion) {
        let mut m = Self::new(mem_size);
        let region =
            SecureRegion::new(PhysAddr::new(mem_size - 64 * MIB), 64 * MIB).expect("aligned");
        m.bus.install_secure_region(&region).expect("free pmp pair");
        (m, region)
    }

    /// Assembles and loads `program` at physical address `base` (the raw
    /// boot-ROM path — bypasses the PMP like a JTAG loader).
    ///
    /// # Panics
    /// Panics if the program does not fit in memory.
    pub fn load_program(&mut self, base: u64, program: &[Inst]) {
        for (i, word) in assemble(program).into_iter().enumerate() {
            self.bus
                .mem_unchecked()
                .write_u32(PhysAddr::new(base + 4 * i as u64), word)
                .expect("program fits in memory");
        }
    }

    /// Steps until `wfi`, a trap, or `max_steps`. Returns the trap if one was
    /// taken, `None` on clean `wfi` stop.
    ///
    /// # Errors
    /// Propagates [`CpuError`] and reports exhaustion as an error too.
    pub fn run(&mut self, max_steps: u64) -> Result<Option<Trap>, CpuError> {
        for _ in 0..max_steps {
            match self.cpu.step(&mut self.bus)? {
                StepEvent::Retired => {}
                StepEvent::WaitingForInterrupt => return Ok(None),
                StepEvent::Trapped(t) => return Ok(Some(t)),
            }
        }
        Err(CpuError::TrapVectorUnset(crate::cpu::TrapCause::Breakpoint))
    }

    /// Steps through traps as well, until `wfi` or `max_steps`; returns every
    /// trap taken along the way (handlers must be installed for progress).
    ///
    /// # Errors
    /// Propagates [`CpuError`].
    pub fn run_through_traps(&mut self, max_steps: u64) -> Result<Vec<Trap>, CpuError> {
        let mut traps = Vec::new();
        for _ in 0..max_steps {
            match self.cpu.step(&mut self.bus)? {
                StepEvent::Retired => {}
                StepEvent::WaitingForInterrupt => break,
                StepEvent::Trapped(t) => traps.push(t),
            }
        }
        Ok(traps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, StoreOp};

    #[test]
    fn run_stops_at_wfi() {
        let mut m = SimMachine::new(16 * MIB);
        m.load_program(
            0x1000,
            &[
                Inst::OpImm {
                    op: AluOp::Add,
                    rd: 10,
                    rs1: 0,
                    imm: 7,
                    word: false,
                },
                Inst::Wfi,
            ],
        );
        m.cpu.pc = 0x1000;
        assert_eq!(m.run(10).unwrap(), None);
        assert_eq!(m.cpu.reg(10), 7);
    }

    #[test]
    fn with_secure_region_blocks_regular_stores() {
        let (mut m, region) = SimMachine::with_secure_region(128 * MIB);
        m.load_program(
            0x1000,
            &[
                Inst::Lui {
                    rd: 5,
                    imm: region.base().as_u64() as i64,
                },
                Inst::Store {
                    op: StoreOp::D,
                    rs1: 5,
                    rs2: 0,
                    offset: 0,
                },
            ],
        );
        m.cpu.pc = 0x1000;
        let trap = m.run(10).unwrap().expect("should trap");
        assert_eq!(trap.cause, crate::cpu::TrapCause::StoreAccessFault);
    }

    #[test]
    fn run_exhaustion_is_error() {
        let mut m = SimMachine::new(16 * MIB);
        // jal 0: an infinite self-loop.
        m.load_program(0x1000, &[Inst::Jal { rd: 0, offset: 0 }]);
        m.cpu.pc = 0x1000;
        assert!(m.run(100).is_err());
    }
}
