//! Canonical state encoding and hashing for BFS dedup.
//!
//! Two machine states deserve the same canonical digest exactly when no
//! future op sequence can distinguish them — dedup on anything coarser
//! would prune states the exhaustive claim must visit, anything finer
//! merely wastes replays. The encoding therefore covers every piece of
//! state that the op alphabet's behavior reads, directly or transitively:
//!
//! * the secure region and the raw PMP entry file (plus the S-bit
//!   enforcement ablation switch);
//! * the allocation cursors (`next_pid`, `next_asid`, ASID-wrap flag) —
//!   states differing only here diverge on the very next `fork`;
//! * per hart: the running pid, `satp`, the run queue (without pids that
//!   have left the process table), the deferred-flush queue (in order —
//!   drains pop in order), the page-table magazine, the mailbox payloads,
//!   and the TLB entry *sets* (sorted — see below);
//! * the process table in pid order: identity, state, VMAs, user-mapping
//!   metadata, address-space handles, **and the raw PCB credential words**
//!   (page-table pointer, token pointer, and the pointed-to token fields),
//!   which live in attacker-writable memory and are what the forging
//!   attacks corrupt;
//! * a per-page FNV digest of the *contents* of every reachable page-table
//!   page (kernel template plus every live address space), which is where
//!   PTE flips, CoW flag changes, and mapping changes land;
//! * the buddy zones' free-block sets and the slab caches'
//!   allocation-steering words — two states whose heaps differ hand out
//!   different addresses on the next allocation.
//!
//! Deliberately excluded (documented approximations): cycle counters,
//! statistics, the security log, trace sinks, message `time`/`seq` stamps,
//! fs/pipe state, and user frame contents — none are read by any op's
//! control flow. TLB entries are hashed as a sorted set: replacement-victim
//! rotation is host-private state, so two states merged here can diverge
//! only in *which* entry a future eviction drops; the invariant oracle's
//! verdict depends on the entry set alone, never on the victim choice.

use std::fmt::Write as _;

use ptstore_core::Fnv1a;
use ptstore_fault::{known_pt_pages, ModelOp};
use ptstore_kernel::Kernel;

/// Renders `k` into its canonical text encoding.
///
/// The encoding is injective on the state the model checker's op alphabet
/// can observe (see the module docs for the exact coverage); [`digest`] is
/// its FNV-1a fold. Line framing uses `\n`, so distinct field sequences
/// cannot collide by concatenation.
pub fn encode(k: &Kernel) -> String {
    let mut out = String::new();

    match k.secure_region() {
        Some(r) => {
            let _ = writeln!(
                out,
                "region base={:#x} size={:#x}",
                r.base().as_u64(),
                r.size()
            );
        }
        None => out.push_str("region none\n"),
    }
    let pmp = k.bus.pmp();
    let _ = writeln!(
        out,
        "pmp enforce={} {:?}",
        pmp.secure_enforcement(),
        pmp.entries()
    );
    let _ = writeln!(
        out,
        "alloc next_pid={} next_asid={} asid_wrapped={}",
        k.next_pid(),
        k.next_asid(),
        k.asid_rollover_happened()
    );

    for h in &k.harts {
        let mbox: Vec<(usize, String)> = h
            .mailbox
            .iter()
            .map(|m| (m.from, format!("{:?}", m.kind)))
            .collect();
        // A reaped pid's stale entry is invisible to every op (`pick_next`
        // drops it), so the queue is hashed without it.
        let rq: Vec<_> = h
            .run_queue
            .iter()
            .filter(|&&pid| k.procs.get(pid).is_some())
            .collect();
        let _ = writeln!(
            out,
            "hart {} current={} satp={:?} rq={:?} flushq={:?} mag={:?} mbox={:?}",
            h.id, h.current, h.mmu.satp, rq, h.flush_queue, h.pt_magazine, mbox
        );
        let mut tlb: Vec<String> = h
            .mmu
            .itlb()
            .entries()
            .map(|e| format!("hart{} itlb {e:?}", h.id))
            .chain(
                h.mmu
                    .dtlb()
                    .entries()
                    .map(|e| format!("hart{} dtlb {e:?}", h.id)),
            )
            .collect();
        tlb.sort();
        for line in tlb {
            out.push_str(&line);
            out.push('\n');
        }
    }

    let mem = k.bus.mem();
    for (_, p) in k.procs.handles() {
        let _ = writeln!(
            out,
            "proc {} parent={:?} state={:?} root={:?} asid={} ptpages={:?} brk={:#x} \
             cursor={:#x} mm_owner={:?} threads={:?} kids={:?} vmas={:?}",
            p.pid,
            p.parent,
            p.state,
            p.aspace.root,
            p.aspace.asid,
            p.aspace.pt_pages,
            p.brk,
            p.mmap_cursor,
            p.mm_owner,
            p.threads,
            p.children,
            p.vmas
        );
        let _ = writeln!(out, "  user={:?}", p.aspace.user);
        // The attacker-writable credential words, raw from DRAM: the PCB
        // page-table pointer, the token pointer, and — when the token
        // pointer is in-bounds — the two token fields it designates.
        let pt_raw = k.pcb_pt_ptr_slot(p.pid).and_then(|s| mem.read_u64(s).ok());
        let tok_ptr = k.pcb_token_slot(p.pid).and_then(|s| mem.read_u64(s).ok());
        let tok_words = tok_ptr.and_then(|t| {
            let a = ptstore_core::PhysAddr::new(t);
            Some((mem.read_u64(a).ok()?, mem.read_u64(a + 8).ok()?))
        });
        let _ = writeln!(
            out,
            "  pcbraw pt={pt_raw:?} tok={tok_ptr:?} tokwords={tok_words:?}"
        );
    }

    for ppn in known_pt_pages(k) {
        let _ = writeln!(
            out,
            "ptpage {:?} {:016x}",
            ppn,
            mem.page_digest(ppn).unwrap_or(u64::MAX)
        );
    }

    for (zone, order, ppn) in k.zone_free_blocks() {
        let _ = writeln!(out, "zone {zone} o={order} {ppn:?}");
    }
    let _ = writeln!(out, "slab {:x?}", k.slab_canon_words());

    out
}

/// FNV-1a digest of [`encode`]. BFS dedups on this; the injectivity
/// property test drives sampled op corpora through both and checks that
/// equal digests imply equal encodings.
pub fn digest(k: &Kernel) -> u64 {
    Fnv1a::hash_bytes(encode(k).as_bytes())
}

/// Digest of a state reached by replaying `trace` — convenience for tests.
pub fn trace_digest(cfg: &ptstore_kernel::KernelConfig, trace: &[ModelOp]) -> u64 {
    digest(&ptstore_fault::replay(cfg, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptstore_core::MIB;
    use ptstore_fault::{apply, boot_model, ModelOp};
    use ptstore_kernel::KernelConfig;

    fn cfg() -> KernelConfig {
        KernelConfig::cfi_ptstore()
            .with_mem_size(64 * MIB)
            .with_initial_secure_size(4 * MIB)
            .with_harts(2)
    }

    #[test]
    fn encode_is_deterministic() {
        let cfg = cfg();
        let a = encode(&boot_model(&cfg));
        let b = encode(&boot_model(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn kernel_ops_change_the_digest() {
        let cfg = cfg();
        let mut k = boot_model(&cfg);
        let d0 = digest(&k);
        apply(&mut k, ModelOp::Mmap { hart: 0 });
        let d1 = digest(&k);
        assert_ne!(d0, d1, "mmap must be visible to the canonical state");
        apply(&mut k, ModelOp::Fork { hart: 1 });
        assert_ne!(
            d1,
            digest(&k),
            "fork must be visible to the canonical state"
        );
    }

    #[test]
    fn denied_attack_leaves_digest_unchanged_modulo_bookkeeping() {
        // A refused attack restores its scaffolding; the canonical state
        // (which excludes cycles/stats/security-log) must not move.
        let cfg = cfg();
        let mut k = boot_model(&cfg);
        let d0 = digest(&k);
        apply(&mut k, ModelOp::PteFlip { hart: 0, bit: 35 });
        assert_eq!(d0, digest(&k), "denied PTE flip must be invisible");
        apply(&mut k, ModelOp::TokenForge { hart: 0 });
        assert_eq!(d0, digest(&k), "denied token forge must be invisible");
    }

    #[test]
    fn reaped_pids_left_in_a_run_queue_are_not_hashed() {
        let cfg = cfg();
        let mut k = boot_model(&cfg);
        apply(&mut k, ModelOp::Fork { hart: 0 });
        let child = k.next_pid() - 1;
        apply(&mut k, ModelOp::ExitChild { hart: 0 });
        assert!(k.procs.get(child).is_none(), "the child was reaped");
        assert!(k.harts[0].run_queue.contains(&child), "its entry is stale");
        let stale = digest(&k);
        k.harts[0].run_queue.retain(|&p| p != child);
        assert_eq!(stale, digest(&k), "a reaped pid's entry must not count");
        // An entry for a live pid is scheduling state.
        k.harts[0].run_queue.push_back(1);
        assert_ne!(stale, digest(&k), "a live pid's entry must count");
    }

    #[test]
    fn landed_corruption_is_visible() {
        let mut cfg = cfg();
        cfg.pmp_s_bit_check = false;
        let mut k = boot_model(&cfg);
        let d0 = digest(&k);
        apply(&mut k, ModelOp::PteFlip { hart: 0, bit: 35 });
        assert_ne!(
            d0,
            digest(&k),
            "landed PTE flip must change a hashed pt page"
        );
    }
}
