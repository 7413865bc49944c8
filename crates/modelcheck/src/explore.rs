//! Bounded breadth-first exploration of the miniature machine.
//!
//! A frontier state is stored as the op sequence that reaches it, not as a
//! machine. Expanding a state replays its trace once from a fresh boot
//! ([`ptstore_fault::replay()`]), then applies each op of the alphabet to
//! its own clone of that machine. A clone shares the physical-memory
//! chunks of the machine it was cloned from, and the op's first write into
//! a chunk copies that chunk alone (`ptstore_mem::PhysMem`), so cloning
//! costs the kernel's own state, not the machine's memory. A successor
//! still holds ~39 KiB of its own once its op has run (~32 KiB of it the
//! kernel state a clone copies, the rest the chunks the op copied), so a
//! stored depth-5 frontier would take ~1.5 GB, where replay costs under
//! 1 µs per transition. Each successor is oracle-checked and
//! deduplicated on its canonical digest. BFS guarantees that the first
//! violating state found is reached by a *minimal-length* trace: any
//! shorter violating trace would have been expanded at an earlier level.
//! [`replay_trace`] then validates the shrinker's candidates and the
//! printed counterexample on fresh machines.
//!
//! ## Determinism
//!
//! Expansion of one level fans out, one frontier state per work item,
//! across host threads through the workspace's parallel map
//! ([`ptstore_core::pool::fan_out`]), and results are merged **in
//! submission order** — the same total order a single-threaded run
//! produces. Dedup inserts digests in that order, the exploration digest
//! folds them in that order, and the first violation in that order wins.
//! Reports are therefore byte-identical for every `--jobs` value, which
//! `scripts/check.sh` enforces with a literal `cmp` of two runs and the
//! property tests re-check in-process.

use core::fmt;
use std::collections::HashSet;
use std::str::FromStr;

use ptstore_core::pool::fan_out;
use ptstore_core::{Fnv1a, PagingScheme, MIB};
use ptstore_fault::{apply, boot_model, format_trace, replay, replay_trace, Invariants, ModelOp};
use ptstore_kernel::{DrainPolicy, KernelConfig};

use crate::{canon, ModelVerdict};

/// A single defense check to disable — the ablation axis of the search.
///
/// Each value names the [`KernelConfig`] switch it clears; with exactly one
/// cleared, the bounded search is expected to *find* a violation and emit a
/// minimal counterexample, mirroring the fault campaign's ablation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Clear `pmp_s_bit_check`: the PMP stops refusing regular-channel
    /// stores to the secure region, so PTE flips land.
    PmpSBitCheck,
    /// Clear `ptw_origin_check`: `satp` loses its S-bit, so walks rooted
    /// outside the secure region are no longer refused.
    PtwOriginCheck,
    /// Clear `token_checks`: `switch_mm` trusts the attacker-writable PCB
    /// page-table pointer, so forged credentials reach `satp`.
    TokenChecks,
}

impl Ablation {
    /// All ablation targets, in flag order.
    pub const ALL: [Ablation; 3] = [
        Ablation::PmpSBitCheck,
        Ablation::PtwOriginCheck,
        Ablation::TokenChecks,
    ];

    /// The config-flag name (also the `--ablate` vocabulary).
    pub fn name(&self) -> &'static str {
        match self {
            Ablation::PmpSBitCheck => "pmp_s_bit_check",
            Ablation::PtwOriginCheck => "ptw_origin_check",
            Ablation::TokenChecks => "token_checks",
        }
    }

    /// Returns `cfg` with this one check disabled.
    pub fn apply(&self, mut cfg: KernelConfig) -> KernelConfig {
        match self {
            Ablation::PmpSBitCheck => cfg.pmp_s_bit_check = false,
            Ablation::PtwOriginCheck => cfg.ptw_origin_check = false,
            Ablation::TokenChecks => cfg.token_checks = false,
        }
        cfg
    }
}

impl fmt::Display for Ablation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Ablation {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ablation::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| {
                format!("unknown ablation {s:?} (pmp_s_bit_check, ptw_origin_check, token_checks)")
            })
    }
}

/// One family of the op alphabet — the `--ops` filter vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `fork(hN)`.
    Fork,
    /// `exit-child(hN)`.
    Exit,
    /// `mmap(hN)`.
    Mmap,
    /// `munmap(hN)`.
    Munmap,
    /// `mprotect-ro(hN)`.
    Mprotect,
    /// `touch(hN,r|w)`.
    Touch,
    /// `cow-break(hN)`.
    Cow,
    /// `adjust-secure`.
    Adjust,
    /// `token-recheck(hN)`.
    Token,
    /// `drain(hN)`.
    Drain,
    /// `attack:pte-flip(hN,bitB)`.
    PteFlip,
    /// `attack:rogue-region-shrink`.
    RegionShrink,
    /// `attack:satp-corrupt(hN)`.
    Satp,
    /// `attack:token-forge(hN)`.
    Forge,
    /// `attack:ipi-drop(hN)`.
    Ipi,
}

impl OpKind {
    /// The whole alphabet, in canonical order.
    pub const ALL: [OpKind; 15] = [
        OpKind::Fork,
        OpKind::Exit,
        OpKind::Mmap,
        OpKind::Munmap,
        OpKind::Mprotect,
        OpKind::Touch,
        OpKind::Cow,
        OpKind::Adjust,
        OpKind::Token,
        OpKind::Drain,
        OpKind::PteFlip,
        OpKind::RegionShrink,
        OpKind::Satp,
        OpKind::Forge,
        OpKind::Ipi,
    ];

    /// The `--ops` flag name.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Fork => "fork",
            OpKind::Exit => "exit",
            OpKind::Mmap => "mmap",
            OpKind::Munmap => "munmap",
            OpKind::Mprotect => "mprotect",
            OpKind::Touch => "touch",
            OpKind::Cow => "cow",
            OpKind::Adjust => "adjust",
            OpKind::Token => "token",
            OpKind::Drain => "drain",
            OpKind::PteFlip => "pte-flip",
            OpKind::RegionShrink => "region-shrink",
            OpKind::Satp => "satp",
            OpKind::Forge => "forge",
            OpKind::Ipi => "ipi",
        }
    }

    /// The concrete ops this kind contributes on an `harts`-hart machine.
    fn instantiate(&self, harts: usize, out: &mut Vec<ModelOp>) {
        match self {
            OpKind::Fork => out.extend((0..harts).map(|hart| ModelOp::Fork { hart })),
            OpKind::Exit => out.extend((0..harts).map(|hart| ModelOp::ExitChild { hart })),
            OpKind::Mmap => out.extend((0..harts).map(|hart| ModelOp::Mmap { hart })),
            OpKind::Munmap => out.extend((0..harts).map(|hart| ModelOp::Munmap { hart })),
            OpKind::Mprotect => out.extend((0..harts).map(|hart| ModelOp::MprotectRo { hart })),
            OpKind::Touch => out.extend((0..harts).flat_map(|hart| {
                [
                    ModelOp::Touch { hart, write: false },
                    ModelOp::Touch { hart, write: true },
                ]
            })),
            OpKind::Cow => out.extend((0..harts).map(|hart| ModelOp::CowBreak { hart })),
            OpKind::Adjust => out.push(ModelOp::AdjustSecure),
            OpKind::Token => out.extend((0..harts).map(|hart| ModelOp::TokenRecheck { hart })),
            OpKind::Drain => out.extend((0..harts).map(|hart| ModelOp::Drain { hart })),
            OpKind::PteFlip => {
                out.extend((0..harts).map(|hart| ModelOp::PteFlip { hart, bit: 35 }))
            }
            OpKind::RegionShrink => out.push(ModelOp::RogueRegionShrink),
            OpKind::Satp => out.extend((0..harts).map(|hart| ModelOp::SatpCorrupt { hart })),
            OpKind::Forge => out.extend((0..harts).map(|hart| ModelOp::TokenForge { hart })),
            OpKind::Ipi => out.extend((0..harts).map(|hart| ModelOp::DropIpi { hart })),
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for OpKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        OpKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown op kind {s:?}"))
    }
}

/// Parses a comma-separated `--ops` list.
pub fn parse_op_kinds(s: &str) -> Result<Vec<OpKind>, String> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(OpKind::from_str)
        .collect()
}

/// Search configuration: machine geometry plus bound and filters.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Harts on the miniature machine (1 to 64; the default is 2).
    pub harts: usize,
    /// Paging scheme to boot under.
    pub scheme: PagingScheme,
    /// Deferred-shootdown drain policy; `None` runs eager shootdowns.
    pub drain_policy: Option<DrainPolicy>,
    /// The single defense check to disable, if any.
    pub ablate: Option<Ablation>,
    /// BFS depth bound (ops per trace).
    pub depth: u32,
    /// Op families to include.
    pub kinds: Vec<OpKind>,
    /// Host worker threads for frontier expansion (reports are identical
    /// for every value).
    pub jobs: usize,
    /// Stop growing the frontier beyond this many deduped states
    /// ([`ModelVerdict::Truncated`] when hit).
    pub max_states: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            harts: 2,
            scheme: PagingScheme::Sv39,
            drain_policy: Some(DrainPolicy::Boundary),
            ablate: None,
            depth: 5,
            kinds: OpKind::ALL.to_vec(),
            jobs: 1,
            max_states: 2_000_000,
        }
    }
}

impl McConfig {
    /// The kernel configuration of the miniature machine: full PTStore
    /// defenses on 64 MiB / 4 MiB secure, minus the one ablated check.
    pub fn kernel_config(&self) -> KernelConfig {
        let mut cfg = KernelConfig::cfi_ptstore()
            .with_mem_size(64 * MIB)
            .with_initial_secure_size(4 * MIB)
            .with_harts(self.harts)
            .with_scheme(self.scheme);
        if let Some(p) = self.drain_policy {
            cfg = cfg.with_deferred_shootdowns(true).with_drain_policy(p);
        }
        match self.ablate {
            Some(a) => a.apply(cfg),
            None => cfg,
        }
    }

    /// The concrete op alphabet, in canonical order.
    pub fn alphabet(&self) -> Vec<ModelOp> {
        let mut out = Vec::new();
        for k in &self.kinds {
            k.instantiate(self.harts, &mut out);
        }
        out
    }
}

/// A minimal violating trace plus the violations it reproduces.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The shrunk op sequence; replaying it on [`McConfig::kernel_config`]
    /// reproduces `violations` (the regression tests pin exactly this).
    pub trace: Vec<ModelOp>,
    /// Debug renderings of the oracle violations at the final state.
    pub violations: Vec<String>,
    /// Trace length before shrinking (BFS already guarantees minimal
    /// length, so this documents that the shrinker found nothing to drop —
    /// or caught a non-essential prefix op).
    pub shrunk_from: usize,
}

/// The result of one bounded exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The verdict.
    pub verdict: ModelVerdict,
    /// Deduped canonical states visited (initial state included).
    pub states: u64,
    /// Op applications performed (edges of the explored graph).
    pub transitions: u64,
    /// Invariant-oracle runs (one per visited or revisited state).
    pub oracle_checks: u64,
    /// Newly discovered states per BFS level, level 0 first.
    pub states_per_depth: Vec<u64>,
    /// FNV fold of every discovered digest in discovery order — equal
    /// across `--jobs` values iff exploration order is deterministic.
    pub exploration_digest: u64,
    /// Size of the op alphabet used.
    pub alphabet_len: usize,
    /// The counterexample, when [`ModelVerdict::Falsified`].
    pub counterexample: Option<Counterexample>,
    /// Echo of the searched configuration, for the report header.
    pub config_line: String,
}

impl ExploreReport {
    /// Renders the deterministic human-readable report. Contains no
    /// timing, host, or thread-count information: two runs of the same
    /// search compare byte-for-byte regardless of `--jobs`.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        use core::fmt::Write;
        let _ = writeln!(s, "modelcheck: {}", self.config_line);
        let depths: Vec<String> = self
            .states_per_depth
            .iter()
            .map(|n| n.to_string())
            .collect();
        let _ = writeln!(
            s,
            "  states explored  : {} (deduped; per depth: {})",
            self.states,
            depths.join(" ")
        );
        let _ = writeln!(s, "  transitions      : {}", self.transitions);
        let _ = writeln!(s, "  oracle checks    : {}", self.oracle_checks);
        let _ = writeln!(s, "  exploration hash : {:#018x}", self.exploration_digest);
        match (&self.verdict, &self.counterexample) {
            (ModelVerdict::Falsified, Some(cex)) => {
                let _ = writeln!(s, "  verdict          : FALSIFIED");
                let _ = writeln!(
                    s,
                    "  counterexample ({} ops, shrunk from {}):",
                    cex.trace.len(),
                    cex.shrunk_from
                );
                s.push_str(&format_trace(&cex.trace));
                let _ = writeln!(s, "  violations:");
                for v in &cex.violations {
                    let _ = writeln!(s, "    - {v}");
                }
            }
            (ModelVerdict::Truncated, _) => {
                let _ = writeln!(
                    s,
                    "  verdict          : TRUNCATED — state cap hit, no violation found"
                );
            }
            _ => {
                let _ = writeln!(
                    s,
                    "  verdict          : VERIFIED — 0 invariant violations in any reachable state"
                );
            }
        }
        s
    }
}

/// One successor of a frontier state: its digest plus oracle verdict.
struct Expansion {
    digest: u64,
    violations: Vec<String>,
}

/// Expands the frontier state `trace` reaches: replays the trace once,
/// then applies each op of `alphabet` to its own clone of that machine.
fn expand(kcfg: &KernelConfig, trace: &[ModelOp], alphabet: &[ModelOp]) -> Vec<Expansion> {
    let state = replay(kcfg, trace);
    alphabet
        .iter()
        .map(|&op| {
            let mut k = state.clone();
            apply(&mut k, op);
            let rep = Invariants::check(&k);
            Expansion {
                digest: canon::digest(&k),
                violations: rep.violations.iter().map(|v| format!("{v:?}")).collect(),
            }
        })
        .collect()
}

/// Runs the bounded breadth-first search described in the module docs.
pub fn explore(mc: &McConfig) -> ExploreReport {
    let kcfg = mc.kernel_config();
    let alphabet = mc.alphabet();
    let config_line = format!(
        "scheme={} harts={} drain={} ablate={} depth={} alphabet={}",
        mc.scheme.name(),
        mc.harts,
        match mc.drain_policy {
            Some(p) => p.to_string(),
            None => "eager".to_string(),
        },
        match mc.ablate {
            Some(a) => a.name(),
            None => "none",
        },
        mc.depth,
        alphabet.len(),
    );

    let root = boot_model(&kcfg);
    let root_rep = Invariants::check(&root);
    let root_digest = canon::digest(&root);
    let mut exploration = Fnv1a::new();
    exploration.write_u64(root_digest);

    let mut report = ExploreReport {
        verdict: ModelVerdict::Verified,
        states: 1,
        transitions: 0,
        oracle_checks: 1,
        states_per_depth: vec![1],
        exploration_digest: exploration.finish(),
        alphabet_len: alphabet.len(),
        counterexample: None,
        config_line,
    };
    if !root_rep.ok() {
        // The initial machine itself violates an invariant (never the case
        // for the shipped configurations, but the report stays honest).
        report.verdict = ModelVerdict::Falsified;
        report.counterexample = Some(Counterexample {
            trace: Vec::new(),
            violations: root_rep
                .violations
                .iter()
                .map(|v| format!("{v:?}"))
                .collect(),
            shrunk_from: 0,
        });
        return report;
    }

    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(root_digest);
    let mut frontier: Vec<Vec<ModelOp>> = vec![Vec::new()];
    let mut raw_counterexample: Option<(Vec<ModelOp>, Vec<String>)> = None;
    let mut truncated = false;

    'levels: for _ in 1..=mc.depth {
        if frontier.is_empty() || truncated {
            break;
        }
        let results = fan_out(mc.jobs, &frontier, |trace| expand(&kcfg, trace, &alphabet));

        let mut next: Vec<Vec<ModelOp>> = Vec::new();
        let mut discovered = 0u64;
        let transitions = frontier
            .iter()
            .zip(results)
            .flat_map(|(trace, successors)| {
                alphabet
                    .iter()
                    .zip(successors)
                    .map(move |(&op, ex)| (trace, op, ex))
            });
        for (prefix, op, ex) in transitions {
            report.transitions += 1;
            report.oracle_checks += 1;
            if !ex.violations.is_empty() {
                let mut trace = prefix.clone();
                trace.push(op);
                raw_counterexample = Some((trace, ex.violations));
                // First violation in submission order at the minimal BFS
                // level: deterministic, and minimal-length by BFS.
                if seen.insert(ex.digest) {
                    discovered += 1;
                    report.states += 1;
                    exploration.write_u64(ex.digest);
                }
                report.states_per_depth.push(discovered);
                break 'levels;
            }
            if seen.insert(ex.digest) {
                discovered += 1;
                report.states += 1;
                exploration.write_u64(ex.digest);
                if report.states >= mc.max_states {
                    truncated = true;
                } else {
                    let mut trace = prefix.clone();
                    trace.push(op);
                    next.push(trace);
                }
            }
        }
        if raw_counterexample.is_none() {
            report.states_per_depth.push(discovered);
        }
        frontier = next;
    }

    report.exploration_digest = exploration.finish();
    if let Some((trace, _)) = raw_counterexample {
        let (shrunk, from) = shrink(&kcfg, trace);
        let final_rep = replay_trace(&kcfg, &shrunk);
        report.verdict = ModelVerdict::Falsified;
        report.counterexample = Some(Counterexample {
            trace: shrunk,
            violations: final_rep
                .violations
                .iter()
                .map(|v| format!("{v:?}"))
                .collect(),
            shrunk_from: from,
        });
    } else if truncated {
        report.verdict = ModelVerdict::Truncated;
    }
    report
}

/// Greedy delta-debugging shrink: repeatedly drop any single op whose
/// removal keeps the trace violating (validated by a full [`replay_trace`]
/// re-execution), to a fixed point. BFS already guarantees minimal length,
/// so this usually confirms rather than shortens — but every candidate is
/// validated end-to-end, which is what makes the printed trace replayable.
fn shrink(kcfg: &KernelConfig, trace: Vec<ModelOp>) -> (Vec<ModelOp>, usize) {
    let from = trace.len();
    let mut cur = trace;
    loop {
        let mut dropped = false;
        let mut i = 0;
        while i < cur.len() && cur.len() > 1 {
            let mut cand = cur.clone();
            cand.remove(i);
            if !replay_trace(kcfg, &cand).ok() {
                cur = cand;
                dropped = true;
            } else {
                i += 1;
            }
        }
        if !dropped {
            break;
        }
    }
    (cur, from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(depth: u32, ablate: Option<Ablation>) -> McConfig {
        McConfig {
            depth,
            ablate,
            kinds: vec![OpKind::Mmap, OpKind::Fork, OpKind::PteFlip],
            ..McConfig::default()
        }
    }

    /// Runs the search each verdict is tested on and checks that it
    /// reaches that verdict and prints it. A search outcome nobody tests for
    /// is a security result nobody would notice regressing: the match has
    /// no wildcard arm, so a new verdict does not compile until a search
    /// that reaches it is written down here.
    fn reaching(verdict: ModelVerdict) -> ExploreReport {
        let mc = match verdict {
            ModelVerdict::Verified => quick(2, None),
            ModelVerdict::Falsified => quick(3, Some(Ablation::PmpSBitCheck)),
            ModelVerdict::Truncated => McConfig {
                max_states: 3,
                ..quick(3, None)
            },
        };
        let rep = explore(&mc);
        assert_eq!(rep.verdict, verdict, "{}", rep.summary());
        assert!(rep.summary().contains(&verdict.to_string()));
        rep
    }

    #[test]
    fn defended_small_bound_verifies() {
        let rep = reaching(ModelVerdict::Verified);
        assert!(rep.counterexample.is_none());
        assert!(rep.states > 1);
        assert_eq!(rep.states_per_depth.iter().sum::<u64>(), rep.states);
    }

    #[test]
    fn summary_is_deterministic() {
        let a = explore(&quick(2, None));
        let b = explore(&quick(2, None));
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.exploration_digest, b.exploration_digest);
    }

    #[test]
    fn jobs_do_not_change_the_report() {
        let mut one = quick(2, None);
        one.jobs = 1;
        let mut four = quick(2, None);
        four.jobs = 4;
        let a = explore(&one);
        let b = explore(&four);
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.exploration_digest, b.exploration_digest);
    }

    #[test]
    fn ablation_falsifies_with_minimal_trace() {
        let rep = reaching(ModelVerdict::Falsified);
        let cex = rep.counterexample.expect("counterexample");
        assert_eq!(cex.trace.len(), 1, "BFS + shrink must find the 1-op trace");
        assert!(cex.trace[0].is_attack());
        assert!(!cex.violations.is_empty());
    }

    #[test]
    fn state_cap_truncates_the_search() {
        let rep = reaching(ModelVerdict::Truncated);
        assert!(rep.counterexample.is_none());
    }

    #[test]
    fn op_kind_parsing_round_trips() {
        for k in OpKind::ALL {
            assert_eq!(k.name().parse::<OpKind>().unwrap(), k);
        }
        assert_eq!(
            parse_op_kinds("fork,mmap,pte-flip").unwrap(),
            vec![OpKind::Fork, OpKind::Mmap, OpKind::PteFlip]
        );
        assert!(parse_op_kinds("fork,bogus").is_err());
        for a in Ablation::ALL {
            assert_eq!(a.name().parse::<Ablation>().unwrap(), a);
        }
    }
}
