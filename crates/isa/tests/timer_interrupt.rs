//! Sstc supervisor-timer tests: arming, delivery, masking, re-arming, and a
//! small preemptive loop driven entirely by executed instructions.

use ptstore_core::{PrivilegeMode, MIB};
use ptstore_isa::csr::{addr, interrupt, status};
use ptstore_isa::{AluOp, CsrOp, Inst, SimMachine, TrapCause};

fn machine() -> SimMachine {
    SimMachine::new(32 * MIB)
}

#[test]
fn timer_fires_when_armed_and_enabled() {
    let mut m = machine();
    // S-mode code that just increments a0 forever.
    m.load_program(
        0x1000,
        &[
            Inst::OpImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 10,
                imm: 1,
                word: false,
            },
            Inst::Jal { rd: 0, offset: -4 },
        ],
    );
    // Handler at 0x4000: just wfi.
    m.load_program(0x4000, &[Inst::Wfi]);
    m.cpu.mode = PrivilegeMode::Supervisor;
    m.cpu.pc = 0x1000;
    m.cpu.csrs.write_raw(addr::STVEC, 0x4000);
    m.cpu.csrs.write_raw(addr::SIE, interrupt::STI);
    m.cpu.csrs.write_raw(addr::SSTATUS, status::SIE);
    m.cpu.csrs.write_raw(addr::STIMECMP, 10);

    let traps = m.run_through_traps(100).expect("runs");
    assert_eq!(traps.len(), 1);
    assert_eq!(traps[0].cause, TrapCause::SupervisorTimerInterrupt);
    // An interrupt: scause has the interrupt bit.
    assert_eq!(
        m.cpu.csrs.read_raw(addr::SCAUSE),
        interrupt::CAUSE_INTERRUPT | interrupt::CAUSE_S_TIMER
    );
    // The loop made progress before being interrupted (~10 instructions).
    assert!(
        m.cpu.reg(10) >= 4 && m.cpu.reg(10) <= 10,
        "a0 = {}",
        m.cpu.reg(10)
    );
    // sepc points back into the loop for resumption.
    let sepc = m.cpu.csrs.read_raw(addr::SEPC);
    assert!((0x1000..0x1008).contains(&sepc));
}

#[test]
fn masked_timer_does_not_fire() {
    for (sie_csr, sstatus) in [
        (0, status::SIE),    // STIE clear
        (interrupt::STI, 0), // global SIE clear in S-mode
    ] {
        let mut m = machine();
        m.load_program(
            0x1000,
            &[
                Inst::OpImm {
                    op: AluOp::Add,
                    rd: 10,
                    rs1: 10,
                    imm: 1,
                    word: false,
                },
                Inst::Wfi,
            ],
        );
        m.cpu.mode = PrivilegeMode::Supervisor;
        m.cpu.pc = 0x1000;
        m.cpu.csrs.write_raw(addr::STVEC, 0x4000);
        m.cpu.csrs.write_raw(addr::SIE, sie_csr);
        m.cpu.csrs.write_raw(addr::SSTATUS, sstatus);
        m.cpu.csrs.write_raw(addr::STIMECMP, 1);
        let traps = m.run_through_traps(10).expect("runs");
        assert!(traps.is_empty(), "masked interrupt fired: {traps:?}");
        // Pending bit is set even though delivery is masked.
        assert_ne!(m.cpu.csrs.read_raw(addr::SIP) & interrupt::STI, 0);
    }
}

#[test]
fn user_mode_is_always_interruptible() {
    // In U-mode, S-interrupts fire regardless of sstatus.SIE.
    let mut m = machine();
    m.load_program(
        0x1000,
        &[
            Inst::OpImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 10,
                imm: 1,
                word: false,
            },
            Inst::Jal { rd: 0, offset: -4 },
        ],
    );
    m.load_program(0x4000, &[Inst::Wfi]);
    m.cpu.mode = PrivilegeMode::User;
    m.cpu.pc = 0x1000;
    m.cpu.csrs.write_raw(addr::STVEC, 0x4000);
    m.cpu.csrs.write_raw(addr::SIE, interrupt::STI);
    m.cpu.csrs.write_raw(addr::SSTATUS, 0); // SIE clear — irrelevant from U
    m.cpu.csrs.write_raw(addr::STIMECMP, 5);
    let traps = m.run_through_traps(50).expect("runs");
    assert_eq!(traps.len(), 1);
    assert_eq!(m.cpu.mode, PrivilegeMode::Supervisor);
    // SPP recorded U.
    assert_eq!(m.cpu.csrs.read_raw(addr::SSTATUS) & status::SPP, 0);
}

#[test]
fn preemptive_tick_loop() {
    // A handler that re-arms stimecmp and srets — a miniature preemptive
    // kernel tick, fully guest-driven.
    let mut m = machine();
    // Main loop (S-mode): a0 += 1 forever.
    m.load_program(
        0x1000,
        &[
            Inst::OpImm {
                op: AluOp::Add,
                rd: 10,
                rs1: 10,
                imm: 1,
                word: false,
            },
            Inst::Jal { rd: 0, offset: -4 },
        ],
    );
    // Tick handler: a1 += 1; stimecmp = time + 20; sret.
    // (t0 = scratch; reads the time shadow CSR.)
    m.load_program(
        0x4000,
        &[
            Inst::OpImm {
                op: AluOp::Add,
                rd: 11,
                rs1: 11,
                imm: 1,
                word: false,
            },
            Inst::Csr {
                op: CsrOp::ReadSet,
                rd: 5,
                rs1: 0,
                csr: addr::TIME,
                imm_form: false,
            },
            Inst::OpImm {
                op: AluOp::Add,
                rd: 5,
                rs1: 5,
                imm: 20,
                word: false,
            },
            Inst::Csr {
                op: CsrOp::ReadWrite,
                rd: 0,
                rs1: 5,
                csr: addr::STIMECMP,
                imm_form: false,
            },
            Inst::Sret,
        ],
    );
    m.cpu.mode = PrivilegeMode::Supervisor;
    m.cpu.pc = 0x1000;
    m.cpu.csrs.write_raw(addr::STVEC, 0x4000);
    m.cpu.csrs.write_raw(addr::SIE, interrupt::STI);
    m.cpu.csrs.write_raw(addr::SSTATUS, status::SIE);
    m.cpu.csrs.write_raw(addr::STIMECMP, 10);

    let traps = m.run_through_traps(400).expect("runs");
    // Several ticks landed, and the main loop kept making progress between
    // them (sret restores SIE from SPIE).
    assert!(traps.len() >= 5, "ticks: {}", traps.len());
    assert!(traps
        .iter()
        .all(|t| t.cause == TrapCause::SupervisorTimerInterrupt));
    assert_eq!(m.cpu.reg(11), traps.len() as u64, "a1 counts ticks");
    assert!(
        m.cpu.reg(10) > 20,
        "main loop progressed: {}",
        m.cpu.reg(10)
    );
}

#[test]
fn rearming_above_time_clears_pending() {
    let mut m = machine();
    m.load_program(0x1000, &[Inst::Wfi]);
    m.cpu.mode = PrivilegeMode::Supervisor;
    m.cpu.pc = 0x1000;
    m.cpu.csrs.write_raw(addr::STIMECMP, 1);
    m.cpu.instret = 50;
    // No SIE: pending sets but nothing fires.
    m.run_through_traps(3).expect("runs");
    assert_ne!(m.cpu.csrs.read_raw(addr::SIP) & interrupt::STI, 0);
    // Re-arm far in the future: pending clears on the next step.
    m.cpu.csrs.write_raw(addr::STIMECMP, 1_000_000);
    m.cpu.pc = 0x1000;
    m.run_through_traps(3).expect("runs");
    assert_eq!(m.cpu.csrs.read_raw(addr::SIP) & interrupt::STI, 0);
}
