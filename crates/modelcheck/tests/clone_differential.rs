//! Differential test: expanding a cloned machine equals expanding a replay.
//!
//! `explore()` replays each frontier state once and applies every op to a
//! clone of it, while counterexamples and the shrinker re-execute whole
//! traces from a fresh boot. Both must reach the same successor: the same
//! canonical state, the same oracle verdict, and the same modeled cycles.
//! Mutating the clone must leave the original untouched.

use proptest::collection::vec;
use proptest::prelude::*;
use ptstore_fault::{apply, replay, Invariants};
use ptstore_kernel::{CostKind, Kernel};
use ptstore_modelcheck::{canon, McConfig};

fn cycles(k: &Kernel) -> [u64; CostKind::ALL.len()] {
    CostKind::ALL.map(|c| k.cycles.of(c))
}

fn delta(after: [u64; CostKind::ALL.len()], before: [u64; CostKind::ALL.len()]) -> Vec<u64> {
    after.iter().zip(before).map(|(a, b)| a - b).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn applying_to_a_clone_equals_applying_to_a_replay(
        picks in vec(0usize..1000, 0..5),
        last in 0usize..1000,
    ) {
        let mc = McConfig::default();
        let kcfg = mc.kernel_config();
        let alphabet = mc.alphabet();
        let prefix: Vec<_> = picks.iter().map(|&i| alphabet[i % alphabet.len()]).collect();
        let op = alphabet[last % alphabet.len()];

        let original = replay(&kcfg, &prefix);
        let before = canon::encode(&original);
        let mut cloned = original.clone();
        let mut replayed = replay(&kcfg, &prefix);
        let (c0, r0) = (cycles(&cloned), cycles(&replayed));
        apply(&mut cloned, op);
        apply(&mut replayed, op);

        prop_assert_eq!(canon::encode(&cloned), canon::encode(&replayed));
        prop_assert_eq!(
            Invariants::check(&cloned).violations,
            Invariants::check(&replayed).violations
        );
        prop_assert_eq!(delta(cycles(&cloned), c0), delta(cycles(&replayed), r0));
        prop_assert_eq!(canon::encode(&original), before, "the clone shares state");
    }
}
