//! Slab caches for small kernel objects.
//!
//! The kernel allocates (usually small) objects from slab caches. PTStore
//! adds a token cache whose backing pages the kernel allocates with
//! `GFP_PTSTORE`, so the tokens themselves live in the secure region, and
//! zeroed, so every new token starts zero-initialised (paper §IV-C3).

use ptstore_core::digest::WordHashMap;
use ptstore_core::{PhysAddr, PhysPageNum, PAGE_SIZE};

/// Objects a per-hart magazine holds before overflowing to the shared
/// bookkeeping (a small LIFO keeps the hot-reuse window tight).
pub const MAGAZINE_CAP: usize = 16;

/// A slab page and its object-occupancy bitmap.
#[derive(Debug, Clone)]
struct SlabPage {
    ppn: PhysPageNum,
    /// One bit per object slot; set = allocated.
    used: Vec<bool>,
    used_count: usize,
}

/// A fixed-object-size slab cache.
///
/// The cache does not own a page allocator. Allocation has two phases:
/// [`alloc`](Self::alloc) takes a free slot or reports that there is none,
/// and then the kernel allocates a page through its zones (charging cycles
/// and choosing the zone) and hands it over with [`grow`](Self::grow).
#[derive(Debug, Clone)]
pub struct SlabCache {
    object_size: u64,
    objects_per_page: usize,
    pages: Vec<SlabPage>,
    /// Object physical address → (page index, slot).
    index: WordHashMap<u64, (usize, usize)>,
    /// Per-hart LIFO front-end magazines (the percpu-cache analogue):
    /// cached objects stay *marked used* in the shared bookkeeping, so a
    /// magazine hit touches no page bitmap at all. Grown on demand; empty
    /// unless the kernel's `alloc_magazines` knob routes frees here.
    magazines: Vec<Vec<u64>>,
}

impl SlabCache {
    /// A cache of `object_size`-byte objects.
    ///
    /// # Panics
    /// Panics unless `8 <= object_size <= PAGE_SIZE` and it divides the page
    /// size evenly.
    pub fn new(object_size: u64) -> Self {
        assert!(
            (8..=PAGE_SIZE).contains(&object_size) && PAGE_SIZE.is_multiple_of(object_size),
            "object size must divide the page size"
        );
        Self {
            object_size,
            objects_per_page: (PAGE_SIZE / object_size) as usize,
            pages: Vec::new(),
            index: WordHashMap::default(),
            magazines: Vec::new(),
        }
    }

    /// Allocates one object from the first backing page with a free slot,
    /// returning its physical address, or `None` when every backing page
    /// is full: the caller then allocates a page and hands it to
    /// [`Self::grow`].
    pub fn alloc(&mut self) -> Option<PhysAddr> {
        let (pi, slot) = self
            .pages
            .iter()
            .enumerate()
            .filter(|(_, p)| p.used_count < p.used.len())
            .find_map(|(pi, p)| Some((pi, p.used.iter().position(|&u| !u)?)))?;
        Some(self.take(pi, slot))
    }

    /// Adds `ppn` as a new backing page and allocates its first object.
    pub fn grow(&mut self, ppn: PhysPageNum) -> PhysAddr {
        self.pages.push(SlabPage {
            ppn,
            used: vec![false; self.objects_per_page],
            used_count: 0,
        });
        self.take(self.pages.len() - 1, 0)
    }

    fn take(&mut self, pi: usize, slot: usize) -> PhysAddr {
        let page = &mut self.pages[pi];
        page.used[slot] = true;
        page.used_count += 1;
        let addr = PhysAddr::new(page.ppn.base_addr().as_u64() + slot as u64 * self.object_size);
        self.index.insert(addr.as_u64(), (pi, slot));
        addr
    }

    /// Frees one object. Empty backing pages are *retained* (like a slab
    /// cache keeping partial slabs warm); [`Self::shrink`] releases them.
    ///
    /// # Panics
    /// Panics on a double free or an address not from this cache.
    #[expect(
        clippy::expect_used,
        reason = "a double free is a kernel bug; `double_free_panics` pins the panic"
    )]
    pub fn free(&mut self, addr: PhysAddr) {
        let (pi, slot) = self
            .index
            .remove(&addr.as_u64())
            .expect("free of object not allocated from this cache");
        let page = &mut self.pages[pi];
        assert!(page.used[slot], "double free in slab cache");
        page.used[slot] = false;
        page.used_count -= 1;
    }

    /// True when `addr` is a live object of this cache.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        self.index.contains_key(&addr.as_u64())
    }

    /// Caches a (still-allocated) object in `hart`'s magazine instead of
    /// freeing it. Returns `false` when the magazine is full — the caller
    /// must then perform the real [`Self::free`].
    ///
    /// # Panics
    /// Panics when `addr` is not a live object of this cache.
    pub fn magazine_put(&mut self, hart: usize, addr: PhysAddr) -> bool {
        assert!(
            self.contains(addr),
            "magazine put of object not allocated from this cache"
        );
        if hart >= self.magazines.len() {
            self.magazines.resize_with(hart + 1, Vec::new);
        }
        let mag = &mut self.magazines[hart];
        if mag.len() >= MAGAZINE_CAP {
            return false;
        }
        mag.push(addr.as_u64());
        true
    }

    /// Pops the most recently cached object from `hart`'s magazine, if any.
    /// The object never left the shared bookkeeping, so this touches no
    /// page bitmap — the O(1) fast path.
    pub fn magazine_get(&mut self, hart: usize) -> Option<PhysAddr> {
        self.magazines
            .get_mut(hart)
            .and_then(Vec::pop)
            .map(PhysAddr::new)
    }

    /// Appends the cache's full allocation-steering state to `out` in
    /// deterministic order: each backing page's ppn followed by its packed
    /// occupancy bitmap (slot order), then each hart magazine's cached
    /// addresses in LIFO order. Two caches that emit the same words hand
    /// out the same addresses for every future alloc/free sequence —
    /// the property the model checker's canonical state digest needs.
    pub fn canon_words(&self, out: &mut Vec<u64>) {
        // Length prefixes make the flat word stream unambiguous: equal
        // streams imply equal structure, not just equal concatenation.
        out.push(self.pages.len() as u64);
        for page in &self.pages {
            out.push(page.ppn.as_u64());
            let mut word = 0u64;
            for (slot, &used) in page.used.iter().enumerate() {
                if used {
                    word |= 1 << (slot % 64);
                }
                if slot % 64 == 63 {
                    out.push(word);
                    word = 0;
                }
            }
            if !page.used.len().is_multiple_of(64) {
                out.push(word);
            }
        }
        out.push(self.magazines.len() as u64);
        for mag in &self.magazines {
            out.push(mag.len() as u64);
            out.extend(mag.iter().copied());
        }
    }

    /// Returns every magazine-cached object to the shared bookkeeping (a
    /// real free each). Must run before [`Self::shrink`], which otherwise
    /// sees magazine-held objects as live and retains their pages.
    pub fn flush_magazines(&mut self) -> usize {
        let cached: Vec<u64> = self.magazines.iter_mut().flat_map(std::mem::take).collect();
        let n = cached.len();
        for addr in cached {
            self.free(PhysAddr::new(addr));
        }
        n
    }

    /// Releases completely empty backing pages back through `release_page`,
    /// returning how many were released.
    pub fn shrink(&mut self, mut release_page: impl FnMut(PhysPageNum)) -> usize {
        let mut released = 0;
        let mut i = 0;
        while i < self.pages.len() {
            if self.pages[i].used_count == 0 {
                let page = self.pages.swap_remove(i);
                release_page(page.ppn);
                released += 1;
                // swap_remove moved the last page into slot i: fix the index
                // entries referring to it.
                if i < self.pages.len() {
                    let moved_from = self.pages.len(); // old index of the moved page
                    for (_, loc) in self.index.iter_mut() {
                        if loc.0 == moved_from {
                            loc.0 = i;
                        }
                    }
                }
            } else {
                i += 1;
            }
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocates as the kernel does: a free slot, or else the next page
    /// of a pretend zone. Returns the object and whether a page was taken.
    fn alloc(cache: &mut SlabCache, next_page: &mut u64) -> (PhysAddr, bool) {
        match cache.alloc() {
            Some(addr) => (addr, false),
            None => {
                *next_page += 1;
                (cache.grow(PhysPageNum::new(0x200 + *next_page)), true)
            }
        }
    }

    #[test]
    fn token_sized_cache_packs_256_per_page() {
        let mut cache = SlabCache::new(16);
        let mut pages = 0;
        let (first, grew) = alloc(&mut cache, &mut pages);
        assert!(grew);
        // 255 more allocations fit in the same page.
        for _ in 0..255 {
            let (_, grew) = alloc(&mut cache, &mut pages);
            assert!(!grew);
        }
        assert_eq!(pages, 1);
        let (_, grew) = alloc(&mut cache, &mut pages);
        assert!(grew, "257th object needs a second page");
        assert_eq!(first.as_u64() % 16, 0);
    }

    #[test]
    fn objects_are_distinct_and_aligned() {
        let mut cache = SlabCache::new(256);
        let mut pages = 0;
        let mut addrs = Vec::new();
        for _ in 0..20 {
            addrs.push(alloc(&mut cache, &mut pages).0);
        }
        let mut dedup = addrs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), addrs.len());
        assert!(addrs.iter().all(|a| a.as_u64() % 256 == 0));
    }

    #[test]
    fn free_and_reuse() {
        let mut cache = SlabCache::new(512);
        let mut pages = 0;
        let (a, _) = alloc(&mut cache, &mut pages);
        assert!(cache.contains(a));
        cache.free(a);
        assert!(!cache.contains(a));
        let (b, grew) = alloc(&mut cache, &mut pages);
        assert!(!grew, "freed slot is reused");
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "not allocated from this cache")]
    fn double_free_panics() {
        let mut cache = SlabCache::new(512);
        let (a, _) = alloc(&mut cache, &mut 0);
        cache.free(a);
        cache.free(a);
    }

    #[test]
    fn magazines_cache_and_flush() {
        let mut cache = SlabCache::new(256);
        let mut pages = 0;
        let (a, _) = alloc(&mut cache, &mut pages);
        let (b, _) = alloc(&mut cache, &mut pages);
        // Cached objects stay "used" in the shared bookkeeping.
        assert!(cache.magazine_put(0, a));
        assert!(cache.magazine_put(1, b));
        assert!(cache.contains(a) && cache.contains(b));
        // LIFO hit returns the hart's own object without touching bitmaps.
        assert_eq!(cache.magazine_get(0), Some(a));
        assert_eq!(cache.magazine_get(0), None, "hart 0 magazine drained");
        // A full magazine rejects the put; the caller falls back to free().
        for _ in 0..MAGAZINE_CAP {
            let (x, _) = alloc(&mut cache, &mut pages);
            assert!(cache.magazine_put(2, x));
        }
        let (overflow, _) = alloc(&mut cache, &mut pages);
        assert!(!cache.magazine_put(2, overflow));
        cache.free(overflow);
        // Flush performs the real frees so shrink can release pages: hart
        // 1's `b` and hart 2's full magazine, leaving every magazine empty.
        assert_eq!(cache.flush_magazines(), MAGAZINE_CAP + 1);
        assert_eq!(cache.flush_magazines(), 0);
        cache.free(a);
        let mut released = Vec::new();
        cache.shrink(|p| released.push(p));
        assert_eq!(released.len(), pages as usize, "all empty pages released");
        assert_eq!(cache.alloc(), None, "no backing page left");
    }

    #[test]
    fn shrink_releases_empty_pages() {
        let mut cache = SlabCache::new(2048);
        let mut pages = 0;
        let (a, _) = alloc(&mut cache, &mut pages);
        let (b, _) = alloc(&mut cache, &mut pages);
        let (c, _) = alloc(&mut cache, &mut pages); // second page
        cache.free(a);
        cache.free(b);
        let mut released = Vec::new();
        let n = cache.shrink(|p| released.push(p));
        assert_eq!(n, 1);
        // The object on the second page is still tracked correctly, and
        // its page is the one left: its free slot serves the next alloc.
        assert!(cache.contains(c));
        assert_eq!(cache.alloc(), Some(c + 2048));
        cache.free(c);
    }
}
