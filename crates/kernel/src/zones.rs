//! The buddy allocator and memory zones.
//!
//! The Linux kernel manages physical pages per zone with a buddy system and
//! routes allocation requests via GFP flags. PTStore adds a **PTStore zone**
//! at the high physical addresses plus a **`GFP_PTSTORE`** flag requesting
//! pages from only that zone (paper §IV-C1). The zone is backed by the PMP
//! secure region, so both must stay contiguous; dynamic adjustment reserves
//! contiguous pages adjacent to the boundary from the normal zone
//! (`alloc_contig_range`), migrates any movable occupants, and hands the
//! range over.
//!
//! Free blocks are tracked per order in `BlockSet`s — hierarchical bitmaps
//! giving O(1) insert/remove/membership and O(1) lowest-address selection —
//! replacing the original `BTreeSet` free lists whose every hot-path
//! operation paid a logarithmic tree walk plus per-node allocation. A
//! property test (`block_set_matches_btree_set`) checks `BlockSet` against a
//! `BTreeSet` of the same indices with one, two and three bitmap levels, and
//! `tests/buddy_properties.rs` checks the zone's invariants under random
//! workloads.

use core::fmt;

use ptstore_core::digest::WordHashMap;
use ptstore_core::PhysPageNum;

/// Largest buddy order (2^10 pages = 4 MiB blocks, as in Linux).
pub const MAX_ORDER: u8 = 10;

/// GFP-style allocation flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct GfpFlags(u8);

impl GfpFlags {
    /// Plain kernel allocation from the normal zone.
    pub const KERNEL: GfpFlags = GfpFlags(0);
    /// Allocate from the PTStore zone only (paper §IV-C1).
    pub const PTSTORE: GfpFlags = GfpFlags(1 << 0);
    /// Zero the page before returning it.
    pub const ZERO: GfpFlags = GfpFlags(1 << 1);
    /// The allocation is movable (user data; migration candidates).
    pub const MOVABLE: GfpFlags = GfpFlags(1 << 2);

    /// Flag union.
    pub const fn union(self, other: GfpFlags) -> GfpFlags {
        GfpFlags(self.0 | other.0)
    }

    /// True when `other`'s bits are all set.
    pub const fn contains(self, other: GfpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl core::ops::BitOr for GfpFlags {
    type Output = GfpFlags;
    fn bitor(self, rhs: GfpFlags) -> GfpFlags {
        self.union(rhs)
    }
}

/// Bookkeeping for an allocated block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocInfo {
    /// Buddy order of the block.
    pub order: u8,
    /// True when the block may be migrated (user data pages).
    pub movable: bool,
}

/// Errors from the buddy allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No block of the requested order (after splitting) is available.
    OutOfMemory,
    /// `reserve_range` hit an immovable allocation.
    Unmovable {
        /// The pinned page.
        ppn: PhysPageNum,
    },
    /// Range arguments fall outside the zone.
    OutOfZone,
    /// Double free or free of an unallocated page.
    BadFree {
        /// The offending page.
        ppn: PhysPageNum,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory => f.write_str("zone out of memory"),
            AllocError::Unmovable { ppn } => write!(f, "unmovable page {ppn} in range"),
            AllocError::OutOfZone => f.write_str("range outside zone"),
            AllocError::BadFree { ppn } => write!(f, "bad free of page {ppn}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Result of `reserve_range`: the pages now held for the caller plus the
/// occupants that must be migrated before the range is truly empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeReservation {
    /// First page of the range.
    pub start: PhysPageNum,
    /// Page count.
    pub count: u64,
    /// Allocated blocks inside the range that need migration
    /// (block start page and its info).
    pub to_migrate: Vec<(PhysPageNum, AllocInfo)>,
    /// How many pages were free and claimed directly.
    pub claimed_free: u64,
}

/// The free "list" of one buddy order: a hierarchical bitmap over block
/// indices (`start >> order`). Set bits are free blocks; the bit itself is
/// the list node, so membership changes allocate nothing (the intrusive
/// property of Linux's `struct free_area` lists) while lowest-address
/// selection — which an intrusive list cannot answer in O(1) — descends one
/// word per summary level. Word counts shrink 64× per level and the top
/// level is at most 64 words, so every operation is constant-time for any
/// realistic zone.
#[derive(Debug, Clone, Default)]
struct BlockSet {
    /// `levels[0]` holds one bit per block index; `levels[k + 1]` holds one
    /// bit per *word* of `levels[k]` (set iff that word is non-zero).
    levels: Vec<Vec<u64>>,
    /// Number of set bits.
    len: u64,
}

impl BlockSet {
    /// An empty set able to hold indices `0..indices`.
    fn with_capacity(indices: u64) -> Self {
        let mut levels = Vec::new();
        let mut words = indices.div_ceil(64).max(1) as usize;
        levels.push(vec![0u64; words]);
        while words > 64 {
            words = words.div_ceil(64);
            levels.push(vec![0u64; words]);
        }
        Self { levels, len: 0 }
    }

    /// Inserts `idx`; false when it was already present.
    fn insert(&mut self, idx: u64) -> bool {
        let (w, b) = ((idx / 64) as usize, idx % 64);
        if self.levels[0][w] >> b & 1 == 1 {
            return false;
        }
        self.levels[0][w] |= 1 << b;
        self.len += 1;
        let mut bit = idx;
        for lvl in 1..self.levels.len() {
            bit /= 64;
            self.levels[lvl][(bit / 64) as usize] |= 1 << (bit % 64);
        }
        true
    }

    /// Removes `idx`; false when it was not present.
    fn remove(&mut self, idx: u64) -> bool {
        let (w, b) = ((idx / 64) as usize, idx % 64);
        match self.levels[0].get(w) {
            Some(word) if word >> b & 1 == 1 => {}
            _ => return false,
        }
        self.levels[0][w] &= !(1 << b);
        self.len -= 1;
        let mut bit = idx;
        for lvl in 1..self.levels.len() {
            // Summaries above an emptied word lose their bit; a still
            // non-empty word leaves every summary unchanged.
            if self.levels[lvl - 1][(bit / 64) as usize] != 0 {
                break;
            }
            bit /= 64;
            self.levels[lvl][(bit / 64) as usize] &= !(1 << (bit % 64));
        }
        true
    }

    /// True when `idx` is present.
    fn contains(&self, idx: u64) -> bool {
        let (w, b) = ((idx / 64) as usize, idx % 64);
        matches!(self.levels[0].get(w), Some(word) if word >> b & 1 == 1)
    }

    /// The lowest present index: scan the (≤ 64-word) top level, then
    /// descend one word per level via find-first-set.
    fn first(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let top = self.levels.len() - 1;
        let w = self.levels[top].iter().position(|&x| x != 0)?;
        let mut bit = w as u64 * 64 + self.levels[top][w].trailing_zeros() as u64;
        for lvl in (0..top).rev() {
            let word = self.levels[lvl][bit as usize];
            debug_assert_ne!(word, 0, "summary bit over an empty word");
            bit = bit * 64 + word.trailing_zeros() as u64;
        }
        Some(bit)
    }

    /// Every present index in ascending order (invariant checking and
    /// canonical-state digests). Zero words — the overwhelming majority in
    /// a mostly-coalesced zone — are skipped wholesale, and each other word
    /// gives up its set bits lowest first.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..)
            .step_by(64)
            .zip(&self.levels[0])
            .filter(|&(_, &word)| word != 0)
            .flat_map(|(base, &word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    let bit = u64::from(rest.trailing_zeros());
                    (rest != 0).then(|| {
                        rest &= rest - 1;
                        base + bit
                    })
                })
            })
    }
}

/// One buddy-managed zone covering the contiguous page interval
/// `[base_ppn, end_ppn)`.
#[derive(Debug, Clone)]
pub struct BuddyZone {
    name: &'static str,
    base_ppn: u64,
    end_ppn: u64,
    /// `free[order]` holds the free blocks of that order, indexed by
    /// `start >> order` (block starts are naturally aligned).
    free: Vec<BlockSet>,
    allocated: WordHashMap<u64, AllocInfo>,
    free_pages: u64,
}

impl BuddyZone {
    /// A zone over `pages` pages starting at `base`.
    ///
    /// The bitmap capacity is sized to the zone's initial end; the end only
    /// ever moves down ([`Self::shrink_top`]) and the base only ever moves
    /// down ([`Self::grow_bottom`]), so the initial end bounds every index
    /// for the zone's lifetime.
    ///
    /// # Panics
    /// Panics on an empty zone.
    pub fn new(name: &'static str, base: PhysPageNum, pages: u64) -> Self {
        assert!(pages > 0, "zone must be non-empty");
        let end = base.as_u64() + pages;
        let mut zone = Self {
            name,
            base_ppn: base.as_u64(),
            end_ppn: end,
            free: (0..=MAX_ORDER)
                .map(|o| BlockSet::with_capacity((end >> o) + 1))
                .collect(),
            allocated: WordHashMap::default(),
            free_pages: 0,
        };
        zone.insert_free_run(base.as_u64(), pages);
        zone
    }

    /// Zone name (diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// First page of the zone.
    pub fn base(&self) -> PhysPageNum {
        PhysPageNum::new(self.base_ppn)
    }

    /// One past the last page of the zone.
    pub fn end(&self) -> PhysPageNum {
        PhysPageNum::new(self.end_ppn)
    }

    /// Pages currently free.
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Total pages spanned.
    pub fn total_pages(&self) -> u64 {
        self.end_ppn - self.base_ppn
    }

    /// True when `ppn` lies inside the zone interval.
    pub fn contains(&self, ppn: PhysPageNum) -> bool {
        (self.base_ppn..self.end_ppn).contains(&ppn.as_u64())
    }

    fn insert_free_run(&mut self, mut start: u64, mut len: u64) {
        // Greedy decomposition into maximal naturally aligned buddy blocks.
        while len > 0 {
            let align_order = start.trailing_zeros().min(MAX_ORDER as u32) as u8;
            let len_order = (63 - len.leading_zeros()).min(MAX_ORDER as u32) as u8;
            let order = align_order.min(len_order);
            self.free[order as usize].insert(start >> order);
            let block = 1u64 << order;
            start += block;
            len -= block;
            self.free_pages += block;
        }
    }

    /// Allocates a block of `2^order` pages.
    ///
    /// # Errors
    /// [`AllocError::OutOfMemory`] when no block can satisfy the request.
    pub fn alloc(&mut self, order: u8, movable: bool) -> Result<PhysPageNum, AllocError> {
        assert!(order <= MAX_ORDER);
        // Prefer the lowest-address eligible block across all orders. This
        // keeps the top of the zone free, which is where secure-region
        // adjustment reserves its contiguous ranges (the Linux analogue is
        // steering unmovable allocations away from CMA/movable pageblocks).
        // One find-first-set per order replaces the old per-order BTree
        // walk; ties on start cannot occur (overlapping blocks are never
        // simultaneously free).
        let mut best: Option<(u8, u64)> = None;
        for o in order..=MAX_ORDER {
            if let Some(idx) = self.free[o as usize].first() {
                let s = idx << o;
                if best.is_none_or(|(_, bs)| s < bs) {
                    best = Some((o, s));
                }
            }
        }
        let Some((mut o, start)) = best else {
            return Err(AllocError::OutOfMemory);
        };
        self.free[o as usize].remove(start >> o);
        // Split down to the requested order.
        while o > order {
            o -= 1;
            let buddy = start + (1u64 << o);
            self.free[o as usize].insert(buddy >> o);
        }
        self.free_pages -= 1u64 << order;
        self.allocated.insert(start, AllocInfo { order, movable });
        Ok(PhysPageNum::new(start))
    }

    /// Frees a previously allocated block, coalescing with free buddies.
    ///
    /// # Errors
    /// [`AllocError::BadFree`] when `ppn` is not an allocated block start.
    pub fn free(&mut self, ppn: PhysPageNum) -> Result<(), AllocError> {
        let start = ppn.as_u64();
        let Some(info) = self.allocated.remove(&start) else {
            return Err(AllocError::BadFree { ppn });
        };
        self.free_pages += 1u64 << info.order;
        let mut start = start;
        let mut order = info.order;
        while order < MAX_ORDER {
            let buddy = start ^ (1u64 << order);
            // Buddy must be wholly inside the zone and free at this order.
            if buddy < self.base_ppn
                || buddy + (1u64 << order) > self.end_ppn
                || !self.free[order as usize].remove(buddy >> order)
            {
                break;
            }
            start = start.min(buddy);
            order += 1;
        }
        self.free[order as usize].insert(start >> order);
        Ok(())
    }

    /// The Linux `split_page()` model: converts one allocated block of
    /// `2^order` pages into `2^order` independently tracked order-0
    /// allocations (same movability), so the pages can afterwards be freed
    /// one at a time. The kernel uses this when a huge user mapping is
    /// split into 4 KiB mappings over the same physical pages. Returns the
    /// page count of the split block.
    ///
    /// # Errors
    /// [`AllocError::BadFree`] when `ppn` is not an allocated block start.
    pub fn split_allocation(&mut self, ppn: PhysPageNum) -> Result<u64, AllocError> {
        let start = ppn.as_u64();
        let Some(info) = self.allocated.remove(&start) else {
            return Err(AllocError::BadFree { ppn });
        };
        let pages = 1u64 << info.order;
        for i in 0..pages {
            self.allocated.insert(
                start + i,
                AllocInfo {
                    order: 0,
                    movable: info.movable,
                },
            );
        }
        Ok(pages)
    }

    /// The Linux `alloc_contig_range` model: reserves the exact page range
    /// `[start, start + count)`, claiming free pages and reporting allocated
    /// *movable* blocks for the caller to migrate (then
    /// [`Self::complete_migration`] each). Fails without side effects when an
    /// immovable block overlaps the range.
    ///
    /// # Errors
    /// [`AllocError::OutOfZone`] or [`AllocError::Unmovable`].
    pub fn reserve_range(
        &mut self,
        start: PhysPageNum,
        count: u64,
    ) -> Result<RangeReservation, AllocError> {
        let s = start.as_u64();
        let e = s + count;
        if s < self.base_ppn || e > self.end_ppn {
            return Err(AllocError::OutOfZone);
        }
        // Pass 1: every page must be free, or inside a movable allocated
        // block. Collect the overlapping allocated and free blocks.
        let mut to_migrate: Vec<(PhysPageNum, AllocInfo)> = Vec::new();
        let mut to_claim: Vec<(u64, u8)> = Vec::new();
        {
            let mut p = s;
            while p < e {
                if let Some((block, info)) = self.find_block_containing(p) {
                    if !info.movable {
                        return Err(AllocError::Unmovable {
                            ppn: PhysPageNum::new(p),
                        });
                    }
                    to_migrate.push((PhysPageNum::new(block), info));
                    p = block + (1u64 << info.order);
                } else if let Some((fstart, forder)) = self.find_free_block_containing(p) {
                    to_claim.push((fstart, forder));
                    p = fstart + (1u64 << forder);
                } else {
                    // Page belongs to neither a free nor an allocated block:
                    // inconsistent state.
                    unreachable!("page {p:#x} untracked in zone {}", self.name);
                }
            }
        }
        // Pass 2: claim the free blocks overlapping the range. Blocks that
        // straddle the boundary are split so the outside part stays free.
        let mut claimed_free = 0u64;
        for (fstart, forder) in to_claim {
            self.free[forder as usize].remove(fstart >> forder);
            let fend = fstart + (1u64 << forder);
            self.free_pages -= 1u64 << forder;
            // Give the parts outside [s, e) back.
            if fstart < s {
                self.insert_free_run(fstart, s - fstart);
            }
            if fend > e {
                self.insert_free_run(e, fend - e);
            }
            claimed_free += fend.min(e) - fstart.max(s);
        }
        Ok(RangeReservation {
            start,
            count,
            to_migrate,
            claimed_free,
        })
    }

    /// Marks a migrated block as vacated (its pages join the reservation).
    ///
    /// # Errors
    /// [`AllocError::BadFree`] when `block` was not an allocated block.
    pub fn complete_migration(&mut self, block: PhysPageNum) -> Result<AllocInfo, AllocError> {
        self.allocated
            .remove(&block.as_u64())
            .ok_or(AllocError::BadFree { ppn: block })
    }

    /// Shrinks the zone by removing `count` pages from its top edge. The
    /// pages must have been reserved (they are no longer tracked).
    ///
    /// # Errors
    /// [`AllocError::OutOfZone`] when the zone is smaller than `count`.
    pub fn shrink_top(&mut self, count: u64) -> Result<PhysPageNum, AllocError> {
        if self.total_pages() <= count {
            return Err(AllocError::OutOfZone);
        }
        self.end_ppn -= count;
        Ok(PhysPageNum::new(self.end_ppn))
    }

    /// Grows the zone downward by `count` pages (the PTStore zone absorbing
    /// an adjusted range) and marks them free.
    ///
    /// # Panics
    /// Panics if the new range is not adjacent below the current base.
    pub fn grow_bottom(&mut self, count: u64) {
        assert!(count <= self.base_ppn, "grow_bottom underflow");
        let new_base = self.base_ppn - count;
        self.base_ppn = new_base;
        self.insert_free_run(new_base, count);
    }

    fn find_block_containing(&self, p: u64) -> Option<(u64, AllocInfo)> {
        // Allocated block starts are aligned to their order; scan candidate
        // alignments (MAX_ORDER+1 lookups).
        for order in 0..=MAX_ORDER {
            let cand = p & !((1u64 << order) - 1);
            if let Some(info) = self.allocated.get(&cand) {
                if info.order >= order && p < cand + (1u64 << info.order) {
                    return Some((cand, *info));
                }
            }
        }
        None
    }

    fn find_free_block_containing(&self, p: u64) -> Option<(u64, u8)> {
        for order in 0..=MAX_ORDER {
            let cand = p & !((1u64 << order) - 1);
            if self.free[order as usize].contains(cand >> order) {
                return Some((cand, order));
            }
        }
        None
    }

    /// Every free block as `(order, start page)`, ascending by order then
    /// start. Deterministic (the bitmap iterates in address order), so
    /// callers may fold it into canonical state digests — the bounded model
    /// checker fingerprints allocator state this way to keep dedup sound
    /// when op interleavings leave different free-list shapes behind.
    pub fn free_blocks(&self) -> impl Iterator<Item = (u8, PhysPageNum)> + '_ {
        self.free.iter().enumerate().flat_map(|(o, set)| {
            set.iter()
                .map(move |idx| (o as u8, PhysPageNum::new(idx << o)))
        })
    }

    /// Verifies internal invariants (used by property tests): free + allocated
    /// page counts add up to the zone span, and no block overlaps another.
    pub fn check_invariants(&self) -> bool {
        let mut covered: Vec<(u64, u64)> = Vec::new();
        for (o, set) in self.free.iter().enumerate() {
            let mut seen = 0u64;
            for idx in set.iter() {
                let s = idx << o;
                covered.push((s, s + (1u64 << o)));
                seen += 1;
            }
            if seen != set.len {
                return false;
            }
        }
        let free_sum: u64 = covered.iter().map(|(a, b)| b - a).sum();
        if free_sum != self.free_pages {
            return false;
        }
        for (&s, info) in &self.allocated {
            covered.push((s, s + (1u64 << info.order)));
        }
        covered.sort_unstable();
        covered.windows(2).all(|w| w[0].1 <= w[1].0)
            && covered
                .iter()
                .all(|&(a, b)| a >= self.base_ppn && b <= self.end_ppn)
    }
}

impl fmt::Display for BuddyZone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "zone {} [{:#x}, {:#x}) free {}/{} pages",
            self.name,
            self.base_ppn,
            self.end_ppn,
            self.free_pages,
            self.total_pages()
        )
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    fn zone(pages: u64) -> BuddyZone {
        BuddyZone::new("test", PhysPageNum::new(0x100), pages)
    }

    #[test]
    fn alloc_free_round_trip() {
        let mut z = zone(64);
        assert_eq!(z.free_pages(), 64);
        let a = z.alloc(0, false).unwrap();
        let b = z.alloc(0, false).unwrap();
        assert_ne!(a, b);
        assert_eq!(z.free_pages(), 62);
        z.free(a).unwrap();
        z.free(b).unwrap();
        assert_eq!(z.free_pages(), 64);
        assert!(z.check_invariants());
    }

    #[test]
    fn coalescing_restores_large_blocks() {
        let mut z = zone(64);
        let pages: Vec<_> = (0..64).map(|_| z.alloc(0, false).unwrap()).collect();
        assert_eq!(z.free_pages(), 0);
        assert!(z.alloc(0, false).is_err());
        for p in pages {
            z.free(p).unwrap();
        }
        // After freeing everything, a max-order allocation must succeed.
        assert!(z.alloc(6, false).is_ok());
        assert!(z.check_invariants());
    }

    #[test]
    fn higher_order_allocations() {
        let mut z = zone(64);
        let big = z.alloc(4, false).unwrap(); // 16 pages
        assert_eq!(z.free_pages(), 48);
        assert!(
            big.as_u64().is_multiple_of(16),
            "buddy blocks are naturally aligned"
        );
        z.free(big).unwrap();
        assert_eq!(z.free_pages(), 64);
    }

    #[test]
    fn split_allocation_frees_page_by_page() {
        let mut z = zone(64);
        let big = z.alloc(4, false).unwrap(); // 16 pages
        assert_eq!(z.split_allocation(big), Ok(16));
        // Each page is now its own order-0 allocation.
        for i in 0..16 {
            z.free(big + i).unwrap();
        }
        assert_eq!(z.free_pages(), 64);
        // The freed pages coalesce back into a large block.
        assert!(z.alloc(4, false).is_ok());
        assert!(z.check_invariants());
        // Splitting an unallocated page is a bad free.
        assert!(matches!(
            z.split_allocation(PhysPageNum::new(0x130)),
            Err(AllocError::BadFree { .. })
        ));
    }

    #[test]
    fn double_free_is_error() {
        let mut z = zone(16);
        let a = z.alloc(0, false).unwrap();
        z.free(a).unwrap();
        assert!(matches!(z.free(a), Err(AllocError::BadFree { .. })));
    }

    #[test]
    fn reserve_range_on_free_zone() {
        let mut z = zone(64);
        let r = z.reserve_range(PhysPageNum::new(0x120), 16).unwrap();
        assert_eq!(r.claimed_free, 16);
        assert!(r.to_migrate.is_empty());
        assert_eq!(z.free_pages(), 48);
        // The reserved pages are gone from the free lists: allocating all
        // remaining pages gives exactly 48.
        let mut got = 0;
        while z.alloc(0, false).is_ok() {
            got += 1;
        }
        assert_eq!(got, 48);
    }

    #[test]
    fn reserve_range_reports_movable_occupants() {
        let mut z = zone(64);
        // Occupy some pages as movable.
        let m = z.alloc(0, true).unwrap();
        let r = z.reserve_range(m, 1).unwrap();
        assert_eq!(r.to_migrate.len(), 1);
        assert_eq!(r.to_migrate[0].0, m);
        assert_eq!(r.claimed_free, 0);
        z.complete_migration(m).unwrap();
        assert!(z.check_invariants());
    }

    #[test]
    fn reserve_range_rejects_pinned_pages() {
        let mut z = zone(64);
        let pinned = z.alloc(0, false).unwrap();
        let err = z.reserve_range(pinned, 1).unwrap_err();
        assert!(matches!(err, AllocError::Unmovable { .. }));
        // No side effects: free count unchanged.
        assert_eq!(z.free_pages(), 63);
    }

    #[test]
    fn reserve_range_out_of_zone() {
        let mut z = zone(16);
        assert!(matches!(
            z.reserve_range(PhysPageNum::new(0x100), 32),
            Err(AllocError::OutOfZone)
        ));
        assert!(matches!(
            z.reserve_range(PhysPageNum::new(0x0), 4),
            Err(AllocError::OutOfZone)
        ));
    }

    #[test]
    fn shrink_and_grow_move_the_boundary() {
        // Normal zone gives its top pages to the PTStore zone below it...
        // (modelling direction: ptstore zone sits above normal zone).
        let mut normal = BuddyZone::new("normal", PhysPageNum::new(0x100), 64);
        let mut secure = BuddyZone::new("ptstore", PhysPageNum::new(0x140), 16);
        let chunk = 8;
        let boundary = PhysPageNum::new(0x140 - chunk);
        let r = normal.reserve_range(boundary, chunk).unwrap();
        assert_eq!(r.claimed_free, chunk);
        normal.shrink_top(chunk).unwrap();
        secure.grow_bottom(chunk);
        assert_eq!(normal.end(), boundary);
        assert_eq!(secure.base(), boundary);
        assert_eq!(secure.free_pages(), 16 + chunk);
        assert!(normal.check_invariants());
        assert!(secure.check_invariants());
    }

    #[test]
    fn allocations_prefer_low_addresses() {
        let mut z = zone(64);
        let first = z.alloc(0, false).unwrap();
        assert_eq!(first, PhysPageNum::new(0x100));
    }

    #[test]
    fn gfp_flags_compose() {
        let f = GfpFlags::PTSTORE | GfpFlags::ZERO;
        assert!(f.contains(GfpFlags::PTSTORE));
        assert!(f.contains(GfpFlags::ZERO));
        assert!(!f.contains(GfpFlags::MOVABLE));
        assert!(GfpFlags::KERNEL.contains(GfpFlags::KERNEL));
    }

    #[test]
    fn unaligned_zone_base_still_works() {
        // A zone whose base is not max-order aligned.
        let mut z = BuddyZone::new("odd", PhysPageNum::new(0x103), 37);
        assert_eq!(z.free_pages(), 37);
        let mut got = 0;
        while z.alloc(0, false).is_ok() {
            got += 1;
        }
        assert_eq!(got, 37);
        assert!(z.check_invariants());
    }

    #[test]
    fn block_set_basics() {
        let mut s = BlockSet::with_capacity(100_000);
        assert_eq!(s.first(), None);
        assert!(s.insert(77_777));
        assert!(s.insert(3));
        assert!(!s.insert(3), "duplicate insert is rejected");
        assert!(s.contains(3) && s.contains(77_777) && !s.contains(4));
        assert_eq!(s.first(), Some(3));
        assert!(s.remove(3));
        assert!(!s.remove(3), "double remove is rejected");
        assert_eq!(s.first(), Some(77_777));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![77_777]);
        assert!(s.remove(77_777));
        assert_eq!(s.first(), None);
        assert_eq!(s.len, 0);
    }

    proptest! {
        /// `BlockSet` answers every insert, remove and contains as a
        /// `BTreeSet` of the same indices does, and agrees on `first()`,
        /// `len` and `iter()`, with one, two and three bitmap levels. The
        /// indices come from windows straddling a word edge, a level-1 word
        /// edge, a level-2 word edge and the last index, so the sets stay
        /// sparse and summary words empty and refill.
        #[test]
        fn block_set_matches_btree_set(
            ops in proptest::collection::vec((0u8..3, 0usize..4, 0u64..8), 1..400),
        ) {
            for (capacity, levels) in [(100u64, 1), (100_000, 2), (1_000_000, 3)] {
                let mut set = BlockSet::with_capacity(capacity);
                prop_assert_eq!(set.levels.len(), levels);
                let mut spec = BTreeSet::new();
                for &(kind, window, offset) in &ops {
                    let edge = [64, 4_096, 262_144, capacity][window];
                    let idx = (edge + capacity - 4 + offset) % capacity;
                    let (got, want) = match kind {
                        0 => (set.insert(idx), spec.insert(idx)),
                        1 => (set.remove(idx), spec.remove(&idx)),
                        _ => (set.contains(idx), spec.contains(&idx)),
                    };
                    prop_assert_eq!(got, want, "op {} on {} at capacity {}", kind, idx, capacity);
                    prop_assert_eq!(set.first(), spec.first().copied());
                    prop_assert_eq!(set.len, spec.len() as u64);
                }
                prop_assert!(set.iter().eq(spec.iter().copied()));
            }
        }
    }
}
