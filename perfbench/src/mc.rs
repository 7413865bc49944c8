//! `modelcheck-bfs`: bounded BFS of the default 2-hart miniature machine.
//!
//! The timed phase is one `explore()` at a fixed depth with one job. The
//! seed permutes the op-kind order, which changes the exploration hash but
//! not the reachable-state count per depth. A second BFS, run from outside
//! over `boot_model`, `apply`, `Invariants::check` and `canon::digest`,
//! must reproduce `explore()`'s per-depth counts and hash; it measures the
//! modeled cost of every explored edge and, when tracing, is the timed
//! phase, with one span per call into the fault and modelcheck layers.

use std::collections::HashSet;
use std::time::Instant;

use ptstore_core::Fnv1a;
use ptstore_fault::{apply, boot_model, Invariants, ModelOp};
use ptstore_kernel::{CostKind, KernelConfig};
use ptstore_modelcheck::{canon, explore, McConfig, ModelVerdict, OpKind};

use crate::drive::{cycle_metric, ratio, set_up, Counts, Round};
use crate::rng::Rng;
use crate::trace::Probe;

/// The depth bound.
pub const DEPTH: u32 = 3;

/// Root boots per round: one takes about a tenth of a millisecond, so each
/// round times several.
const SETUPS: usize = 7;

/// New states per depth at [`DEPTH`] for every op order.
pub const STATES_PER_DEPTH: [u64; DEPTH as usize + 1] = [1, 7, 59, 522];

/// The search: the default configuration at `depth` with one job and
/// `kinds` in the given order.
pub fn search(kinds: Vec<OpKind>, depth: u32) -> McConfig {
    McConfig {
        depth,
        kinds,
        jobs: 1,
        ..McConfig::default()
    }
}

/// The op-kind order for `seed`.
pub fn seeded_kinds(seed: u64) -> Vec<OpKind> {
    let mut kinds = OpKind::ALL.to_vec();
    Rng::new(seed, 0x3c).shuffle(&mut kinds);
    kinds
}

/// What the outside BFS found.
#[derive(Debug, Clone, PartialEq)]
pub struct Bfs {
    /// New states per depth.
    pub states_per_depth: Vec<u64>,
    /// Edges explored.
    pub transitions: u64,
    /// FNV fold of discovered digests in discovery order.
    pub hash: u64,
    /// States whose oracle reported a violation.
    pub violating: u64,
    /// Ops re-applied to rebuild frontier states.
    pub replayed_ops: u64,
    /// Modeled cycles of the applied ops, by [`CostKind`] index.
    pub edge_cycles: [u64; CostKind::ALL.len()],
}

impl Bfs {
    /// States discovered.
    pub fn states(&self) -> u64 {
        self.states_per_depth.iter().sum()
    }
}

/// Breadth-first search mirroring `explore()`: every frontier state is
/// rebuilt by booting the root and re-applying its trace, then extended by
/// each op of the alphabet, checked by the oracle, and deduplicated on its
/// canonical digest.
///
/// This is a reference copy of `explore()`'s current strategy: the traced
/// figures describe it, not `explore()`, and only follow a change to
/// `explore()`'s strategy if this function changes in step.
pub fn bfs<P: Probe>(mc: &McConfig, probe: &mut P) -> Bfs {
    let cfg: KernelConfig = mc.kernel_config();
    let alphabet = mc.alphabet();
    let root = probe.call("fault.boot_model", || boot_model(&cfg));
    let root_ok = probe.call("fault.oracle", || Invariants::check(&root)).ok();
    let root_digest = probe.call("modelcheck.digest", || canon::digest(&root));
    drop(root);
    let mut hash = Fnv1a::new();
    hash.write_u64(root_digest);
    let mut out = Bfs {
        states_per_depth: vec![1],
        transitions: 0,
        hash: 0,
        violating: u64::from(!root_ok),
        replayed_ops: 0,
        edge_cycles: [0; CostKind::ALL.len()],
    };
    let mut seen = HashSet::from([root_digest]);
    let mut frontier: Vec<Vec<ModelOp>> = vec![Vec::new()];
    for _ in 1..=mc.depth {
        let mut next = Vec::new();
        let mut discovered = 0;
        for trace in &frontier {
            for &op in &alphabet {
                let id = probe.enter();
                let replay = probe.enter();
                let mut k = probe.call("fault.boot_model", || boot_model(&cfg));
                for &prev in trace {
                    probe.call("fault.apply", || apply(&mut k, prev));
                }
                probe.leave(replay, "fault.replay");
                out.replayed_ops += trace.len() as u64;
                let before = CostKind::ALL.map(|c| k.cycles.of(c));
                probe.call("fault.apply", || apply(&mut k, op));
                for (acc, (c, b)) in out
                    .edge_cycles
                    .iter_mut()
                    .zip(CostKind::ALL.iter().zip(before))
                {
                    *acc += k.cycles.of(*c) - b;
                }
                let ok = probe.call("fault.oracle", || Invariants::check(&k)).ok();
                let digest = probe.call("modelcheck.digest", || canon::digest(&k));
                probe.leave(id, "modelcheck.transition");
                out.transitions += 1;
                out.violating += u64::from(!ok);
                if seen.insert(digest) {
                    discovered += 1;
                    hash.write_u64(digest);
                    let mut t = trace.clone();
                    t.push(op);
                    next.push(t);
                }
            }
        }
        out.states_per_depth.push(discovered);
        frontier = next;
    }
    out.hash = hash.finish();
    out
}

/// Runs one round. Untraced: root boot (set-up), then `explore()` (timed),
/// plus on the first round the outside BFS for the modeled edge costs and
/// the cross-check. Traced: root boot, then the outside BFS (timed).
pub fn round<P: Probe>(kinds: &[OpKind], first: bool, probe: &mut P) -> Round {
    let mc = search(kinds.to_vec(), DEPTH);
    let mut out = Round::default();
    let (root_ok, setups) = set_up(SETUPS, || {
        let root = boot_model(&mc.kernel_config());
        std::hint::black_box(canon::digest(&root));
        Invariants::check(&root).ok()
    });
    out.setups = setups;
    out.check(root_ok, || "the root state violates an invariant".into());

    let t1 = Instant::now();
    probe.timed(true);
    let (explored, traced) = if P::TRACED {
        (None, Some(bfs(&mc, probe)))
    } else {
        (Some(explore(&mc)), None)
    };
    probe.timed(false);
    out.timed_s = t1.elapsed().as_secs_f64();

    let outside = match traced {
        Some(b) => Some(b),
        None if first => Some(bfs(&mc, &mut crate::trace::NoProbe)),
        None => None,
    };
    out.units = STATES_PER_DEPTH.iter().sum();
    if let Some(rep) = &explored {
        out.calls = rep.transitions;
        out.check(rep.verdict == ModelVerdict::Verified, || {
            format!("verdict {} not VERIFIED", rep.verdict)
        });
        out.check(rep.states_per_depth == STATES_PER_DEPTH, || {
            format!("explore() states per depth {:?}", rep.states_per_depth)
        });
        if let Some(b) = &outside {
            let same = (b.states_per_depth.as_slice(), b.transitions, b.hash)
                == (
                    rep.states_per_depth.as_slice(),
                    rep.transitions,
                    rep.exploration_digest,
                );
            out.check(same, || "the outside BFS disagrees with explore()".into());
        }
    }
    if let Some(b) = &outside {
        if explored.is_none() {
            out.calls = b.transitions;
        }
        out.check(b.violating == 0, || {
            format!("{} violating states", b.violating)
        });
        out.check(b.states_per_depth == STATES_PER_DEPTH, || {
            format!("outside BFS states per depth {:?}", b.states_per_depth)
        });
        let states = b.states();
        out.cycles_per_unit = ratio(b.edge_cycles.iter().sum(), states);
        out.counts = counts(b);
    }
    out
}

/// Count metrics of one search.
fn counts(b: &Bfs) -> Counts {
    let mut c = Counts::new();
    let states = b.states();
    c.insert("modelcheck.states", states as f64);
    c.insert("modelcheck.transitions", b.transitions as f64);
    c.insert("modelcheck.dedup_ratio", ratio(states - 1, b.transitions));
    c.insert(
        "modelcheck.replayed_ops_per_transition",
        ratio(b.replayed_ops, b.transitions),
    );
    for (kind, &cycles) in CostKind::ALL.iter().zip(&b.edge_cycles) {
        c.insert(cycle_metric(*kind), ratio(cycles, states));
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_orders_repeat_and_permute_the_whole_alphabet() {
        let a = seeded_kinds(1);
        assert_eq!(a, seeded_kinds(1));
        assert_ne!(a, seeded_kinds(2));
        for kinds in [a, seeded_kinds(2)] {
            assert_eq!(kinds.len(), OpKind::ALL.len());
            assert!(OpKind::ALL.iter().all(|k| kinds.contains(k)));
            assert_eq!(search(kinds, DEPTH).alphabet().len(), 30);
        }
    }
}
