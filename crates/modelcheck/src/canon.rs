//! Canonical state hashing for BFS dedup.
//!
//! Two machine states deserve the same canonical digest exactly when no
//! future op sequence can distinguish them — dedup on anything coarser
//! would prune states the exhaustive claim must visit, anything finer
//! merely wastes expansions. The canonical state is one walk over the
//! kernel's fields, in a fixed order, and it covers every piece of state
//! that the op alphabet's behavior reads, directly or transitively:
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
//! * the *contents* of every reachable page-table page (kernel template
//!   plus every live address space) as its listing of non-zero words,
//!   which is where PTE flips, CoW flag changes, and mapping changes land;
//! * the buddy zones' free-block sets and the slab caches'
//!   allocation-steering words — two states whose heaps differ hand out
//!   different addresses on the next allocation.
//!
//! Deliberately excluded (documented approximations): cycle counters,
//! statistics, the security log, trace sinks, fs/pipe state, and user
//! frame contents — none are read by any op's control flow. TLB entries
//! are hashed as a sorted set: replacement-victim rotation is host-private
//! state, so two states merged here can diverge only in *which* entry a
//! future eviction drops; the invariant oracle's verdict depends on the
//! entry set alone, never on the victim choice. They are sorted by the
//! tuple of all their fields.
//!
//! The walk feeds one of two sinks. [`digest`] feeds each field's derived
//! `Hash` into [`WordHasher`], `ptstore-core`'s word hasher (the one every
//! kernel hash map uses), which takes each integer as one 64-bit step
//! (`usize` and `isize` widened), so an integer field digests the same on
//! every host. A derived `Hash` of an integer slice (`Vec<u64>`, say) hands
//! the hasher the slice's bytes in native byte order, which the hasher
//! reads as little-endian words, so the digest as a whole is the same only
//! across little-endian hosts. [`encode`] writes each field's derived
//! `Debug` as text; only tests use it, to check that two states have equal
//! digests exactly when they have equal texts.

use core::fmt::{self, Debug, Write as _};
use core::hash::{Hash, Hasher};

use ptstore_core::digest::WordHasher;
use ptstore_core::{PhysAddr, PhysPageNum};
use ptstore_fault::known_pt_pages;
use ptstore_kernel::{Kernel, Pid};

/// What the canonical walk feeds each record and field to.
trait Sink {
    /// Starts a record; `tag` names what its fields describe.
    fn record(&mut self, tag: &'static str);
    /// One field of the current record.
    fn field<T: Hash + Debug + ?Sized>(&mut self, name: &'static str, value: &T);
}

/// [`digest`]'s sink: each tag and each field's derived `Hash`, in walk
/// order. Tags are `str`s (terminated in the hash stream) and every field
/// has a fixed type per tag, so distinct walks feed distinct streams.
impl Sink for WordHasher {
    fn record(&mut self, tag: &'static str) {
        tag.hash(self);
    }

    fn field<T: Hash + Debug + ?Sized>(&mut self, _name: &'static str, value: &T) {
        value.hash(self);
    }
}

/// [`encode`]'s sink: a line with each record's tag, then an indented
/// `name=value` line per field, the value in its derived `Debug`.
impl Sink for String {
    fn record(&mut self, tag: &'static str) {
        self.push_str(tag);
        self.push('\n');
    }

    fn field<T: Hash + Debug + ?Sized>(&mut self, name: &'static str, value: &T) {
        let _ = writeln!(self, "  {name}={value:?}");
    }
}

/// The non-zero words of page-table page `ppn`, read straight from its
/// frame's listing. A page outside memory lists none; its `ppn`, hashed
/// just before, already tells it apart from an empty page.
struct PageWords<'a> {
    k: &'a Kernel,
    ppn: PhysPageNum,
}

impl PageWords<'_> {
    fn words(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.k
            .bus
            .mem()
            .nonzero_words(self.ppn)
            .into_iter()
            .flatten()
    }
}

/// Each `(index, word)` pair, then `u16::MAX`, which no word index
/// (0..512) equals, as the end marker.
impl Hash for PageWords<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        for (index, word) in self.words() {
            h.write_u16(index);
            h.write_u64(word);
        }
        h.write_u16(u16::MAX);
    }
}

impl Debug for PageWords<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.words()).finish()
    }
}

/// The canonical walk over `k` (see the module docs for its coverage).
fn walk(k: &Kernel, out: &mut impl Sink) {
    out.record("region");
    out.field(
        "base_size",
        &k.secure_region().map(|r| (r.base(), r.size())),
    );
    let pmp = k.bus.pmp();
    out.record("pmp");
    out.field("enforce", &pmp.secure_enforcement());
    out.field("entries", pmp.entries());
    out.record("alloc");
    out.field("next_pid", &k.next_pid());
    out.field("next_asid", &k.next_asid());
    out.field("asid_wrapped", &k.asid_rollover_happened());

    for h in &k.harts {
        // A reaped pid's stale entry is invisible to every op (`pick_next`
        // drops it), so the queue is hashed without it.
        let rq: Vec<Pid> = h
            .run_queue
            .iter()
            .copied()
            .filter(|&pid| k.procs.get(pid).is_some())
            .collect();
        let mbox: Vec<_> = h.mailbox.iter().map(|m| (m.from, m.kind)).collect();
        out.record("hart");
        out.field("id", &h.id);
        out.field("current", &h.current);
        out.field("satp", &h.mmu.satp);
        out.field("rq", &rq);
        out.field("flushq", &h.flush_queue);
        out.field("mag", &h.pt_magazine);
        out.field("mbox", &mbox);
        for (unit, tlb) in [("itlb", h.mmu.itlb()), ("dtlb", h.mmu.dtlb())] {
            let mut entries: Vec<_> = tlb
                .entries()
                .map(|e| (e.vpn, e.asid, e.ppn, e.flags.bits(), e.page_size))
                .collect();
            entries.sort_unstable();
            for e in &entries {
                out.record(unit);
                out.field("vpn_asid_ppn_flags_size", e);
            }
        }
    }

    let mem = k.bus.mem();
    for p in k.procs.iter() {
        out.record("proc");
        out.field("pid", &p.pid);
        out.field("parent", &p.parent);
        out.field("state", &p.state);
        out.field("root", &p.aspace.root);
        out.field("asid", &p.aspace.asid);
        out.field("ptpages", &p.aspace.pt_pages);
        out.field("brk", &p.brk);
        out.field("cursor", &p.mmap_cursor);
        out.field("mm_owner", &p.mm_owner);
        out.field("threads", &p.threads);
        out.field("kids", &p.children);
        out.field("vmas", &p.vmas);
        out.field("user", &p.aspace.user);
        // The attacker-writable credential words, raw from DRAM: the PCB
        // page-table pointer, the token pointer, and — when the token
        // pointer is in-bounds — the two token fields it designates.
        let pt_raw = k.pcb_pt_ptr_slot(p.pid).and_then(|s| mem.read_u64(s).ok());
        let tok_ptr = k.pcb_token_slot(p.pid).and_then(|s| mem.read_u64(s).ok());
        let tok_words = tok_ptr.and_then(|t| {
            let a = PhysAddr::new(t);
            Some((mem.read_u64(a).ok()?, mem.read_u64(a + 8).ok()?))
        });
        out.field("pcb_pt", &pt_raw);
        out.field("pcb_tok", &tok_ptr);
        out.field("tok_words", &tok_words);
    }

    for ppn in known_pt_pages(k) {
        out.record("ptpage");
        out.field("ppn", &ppn);
        out.field("words", &PageWords { k, ppn });
    }

    for (zone, order, ppn) in k.zone_free_blocks() {
        out.record("zone");
        out.field("name", zone);
        out.field("order", &order);
        out.field("ppn", &ppn);
    }
    out.record("slab");
    out.field("words", &k.slab_canon_words());
}

/// Renders `k` as text: the canonical walk with every field's derived
/// `Debug`, one line per record and per field. Tests compare states
/// through this; the search itself only needs [`digest`].
pub fn encode(k: &Kernel) -> String {
    let mut out = String::new();
    walk(k, &mut out);
    out
}

/// Digest of the canonical walk: every field's derived `Hash`, fed
/// straight into the word hasher. BFS dedups on this; the injectivity
/// property test checks that two sampled states' digests are equal exactly
/// when their [`encode`] texts are.
pub fn digest(k: &Kernel) -> u64 {
    let mut h = WordHasher::default();
    walk(k, &mut h);
    h.finish()
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
