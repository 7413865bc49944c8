//! Property tests for the canonical state hash and the deterministic BFS.
//!
//! Two properties carry the dedup's soundness story:
//!
//! 1. **Injectivity on the explored corpus** — two sampled states have
//!    the same digest exactly when they have the same canonical text: no
//!    observed collision merges distinct states, and no field the text
//!    omits splits equal ones.
//! 2. **Jobs-independence** — the exploration digest (an order-sensitive
//!    fold of every discovered state) and the whole rendered report are
//!    identical whatever the host thread count, which is what lets
//!    `scripts/check.sh` compare two runs with a literal `cmp`.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;
use ptstore_fault::replay;
use ptstore_modelcheck::{canon, explore, McConfig, OpKind};

fn mc() -> McConfig {
    McConfig::default()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Equal digests and equal encodings imply each other over a corpus of
    /// sampled op sequences (with repeats *between* sequences made likely
    /// by including denied attacks and unavailable ops, which leave the
    /// state unchanged).
    #[test]
    fn digest_is_injective_on_sampled_traces(picks in vec(0usize..1000, 0..6)) {
        let mc = mc();
        let kcfg = mc.kernel_config();
        let alphabet = mc.alphabet();
        let trace: Vec<_> = picks.iter().map(|&i| alphabet[i % alphabet.len()]).collect();

        let mut by_digest: HashMap<u64, String> = HashMap::new();
        let mut by_encoding: HashMap<String, u64> = HashMap::new();
        // Hash every prefix of the trace, not just its endpoint: prefixes
        // are exactly the states BFS dedups against each other.
        for len in 0..=trace.len() {
            let k = replay(&kcfg, &trace[..len]);
            let enc = canon::encode(&k);
            let digest = canon::digest(&k);
            if let Some(prev) = by_digest.get(&digest) {
                prop_assert_eq!(
                    prev, &enc,
                    "digest collision between distinct canonical states"
                );
            }
            if let Some(&prev) = by_encoding.get(&enc) {
                prop_assert_eq!(prev, digest, "equal canonical states, distinct digests");
            }
            by_digest.insert(digest, enc.clone());
            by_encoding.insert(enc, digest);
        }
    }

    /// Replaying the same trace twice produces byte-identical canonical
    /// encodings — the determinism contract the whole replay-based search
    /// rests on.
    #[test]
    fn replay_encodings_are_deterministic(picks in vec(0usize..1000, 0..5)) {
        let mc = mc();
        let kcfg = mc.kernel_config();
        let alphabet = mc.alphabet();
        let trace: Vec<_> = picks.iter().map(|&i| alphabet[i % alphabet.len()]).collect();
        let a = canon::encode(&replay(&kcfg, &trace));
        let b = canon::encode(&replay(&kcfg, &trace));
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The BFS report — exploration digest included — is independent of the
    /// worker-thread count.
    #[test]
    fn exploration_is_jobs_independent(jobs in 2usize..6) {
        let base = McConfig {
            depth: 2,
            kinds: vec![OpKind::Mmap, OpKind::Fork, OpKind::Munmap, OpKind::PteFlip],
            ..McConfig::default()
        };
        let seq = explore(&McConfig { jobs: 1, ..base.clone() });
        let par = explore(&McConfig { jobs, ..base });
        prop_assert_eq!(seq.exploration_digest, par.exploration_digest);
        prop_assert_eq!(seq.summary(), par.summary());
    }
}
