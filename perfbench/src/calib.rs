//! The host-speed reference: a fixed loop, independent of the simulator,
//! timed next to every round so a run can scale its host timings to the
//! host's undisturbed speed.
//!
//! The VM the benchmark runs on shares its cores with other tenants, which
//! slow it by up to 2× for seconds to minutes at a time. A run that falls in
//! such a period reads low whatever statistic it takes over its rounds. The
//! reference is a small register-machine interpreter: like the simulator it
//! dispatches on a byte per step through a `match` and takes data-dependent
//! branches, so it slows as the simulator does when the core is shared,
//! where cache-bound or dependent-chain loops slow much less. The benchmark
//! README gives how well each candidate tracked each workload.

use std::hint::black_box;
use std::time::Instant;

/// Steps the interpreter runs per timing.
const STEPS: u64 = 1_500_000;
/// Undisturbed time of one timing, in seconds, on the Intel Xeon 2-vCPU VM
/// the benchmark was built on; on it the slowdown of a quiet host is 1.
const NOMINAL_S: f64 = 0.002_3;

/// The interpreted program: 16 opcodes, walked with a data-dependent stride.
const PROGRAM: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 1, 3, 0, 6, 2, 5, 4, 7];

/// Times the interpreter once and returns the host's slowdown: its time
/// over its undisturbed time.
pub fn slowdown() -> f64 {
    let t0 = Instant::now();
    black_box(interpret(black_box(STEPS)));
    t0.elapsed().as_secs_f64() / NOMINAL_S
}

/// Runs [`PROGRAM`] for `steps` steps over eight registers and a 256-word
/// memory, and folds the final state into one word.
fn interpret(steps: u64) -> u64 {
    let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut mem = [0u64; 256];
    let mut pc = 0usize;
    for i in 0..steps {
        match black_box(PROGRAM[pc & 15]) {
            0 => r[0] = r[0].wrapping_add(r[1] ^ i),
            1 => r[1] = r[1].rotate_left(7) ^ r[2],
            2 => {
                let a = (r[2] & 255) as usize;
                mem[a] = mem[a].wrapping_add(r[3]);
                r[2] = r[2].wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            }
            3 => {
                r[3] = if r[0] & 1 == 0 {
                    r[3].wrapping_add(r[4])
                } else {
                    r[3] ^ r[5]
                }
            }
            4 => {
                let a = (r[4] >> 3 & 255) as usize;
                r[4] = r[4].wrapping_add(mem[a]) | 1;
            }
            5 => r[5] = r[5].wrapping_mul(r[6] | 1),
            6 => {
                if r[6] % 3 == 0 {
                    pc += 1;
                }
                r[6] = r[6].wrapping_add(r[7]);
            }
            _ => r[7] ^= r[0] >> 11,
        }
        pc = pc.wrapping_add(1 + (r[1] & 1) as usize);
    }
    r.iter().fold(mem[7], |a, b| a ^ b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_interpreter_is_deterministic_and_not_trivial() {
        assert_eq!(interpret(10_000), interpret(10_000));
        assert_ne!(interpret(10_000), interpret(10_001));
    }

    #[test]
    fn slowdown_is_positive_and_finite() {
        let s = slowdown();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
