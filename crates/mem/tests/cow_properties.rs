//! Property test: a `PhysMem` and its clone share frame chunks
//! copy-on-write, and after any interleaving of writes on both sides each
//! reads exactly like a fresh, never-cloned `PhysMem` that took its own
//! operations alone.

use proptest::prelude::*;
use ptstore_core::{PhysAddr, PhysPageNum, PAGE_SIZE};
use ptstore_mem::PhysMem;

/// The pages the operations touch: both sides of the boundaries between
/// three 512-frame chunks.
const PAGES: [u64; 6] = [0, 1, 511, 512, 513, 1024];

/// Three chunks, the last holding one page.
const MEM_SIZE: u64 = 1025 * PAGE_SIZE;

/// A page filled past the sparse-to-dense promotion before the clone, so
/// shared chunks carry every frame backing.
const DENSE_PAGE: u64 = 513;

#[derive(Debug, Clone, Copy)]
enum Op {
    Write {
        addr: PhysAddr,
        width: u64,
        value: u64,
    },
    ZeroPage(PhysPageNum),
    CopyPage {
        src: PhysPageNum,
        dst: PhysPageNum,
    },
}

fn arb_page() -> impl Strategy<Value = PhysPageNum> {
    (0..PAGES.len()).prop_map(|i| PhysPageNum::new(PAGES[i]))
}

fn arb_op() -> impl Strategy<Value = Op> {
    let width = prop_oneof![Just(1u64), Just(2u64), Just(4u64), Just(8u64)];
    let word = prop_oneof![0u64..4, 0u64..512];
    let value = prop_oneof![Just(0u64), 1u64..4, any::<u64>()];
    prop_oneof![
        8 => (arb_page(), word, 0u64..8, width, value).prop_map(|(page, word, lane, width, value)| {
            let offset = 8 * word + (lane * width) % 8;
            Op::Write { addr: page.base_addr() + offset, width, value }
        }),
        1 => arb_page().prop_map(Op::ZeroPage),
        1 => (arb_page(), arb_page()).prop_map(|(src, dst)| Op::CopyPage { src, dst }),
    ]
}

fn apply(m: &mut PhysMem, op: Op) {
    match op {
        Op::Write { addr, width, value } => match width {
            1 => m.write_u8(addr, value as u8),
            2 => m.write_u16(addr, value as u16),
            4 => m.write_u32(addr, value as u32),
            _ => m.write_u64(addr, value),
        }
        .expect("aligned and in range"),
        Op::ZeroPage(ppn) => m.zero_page(ppn),
        Op::CopyPage { src, dst } => m.copy_page(src, dst).expect("in range"),
    }
}

fn read(m: &PhysMem, addr: PhysAddr, width: u64) -> u64 {
    match width {
        1 => m.read_u8(addr).map(u64::from),
        2 => m.read_u16(addr).map(u64::from),
        4 => m.read_u32(addr).map(u64::from),
        _ => m.read_u64(addr),
    }
    .expect("aligned and in range")
}

/// `got` reads like `want` at every address any op wrote (at its width
/// and as its whole word), and page by page.
fn assert_reads_alike(got: &PhysMem, want: &PhysMem, ops: &[Op]) -> Result<(), TestCaseError> {
    for &op in ops {
        if let Op::Write { addr, width, .. } = op {
            let word = PhysAddr::new(addr.as_u64() & !7);
            prop_assert_eq!(read(got, addr, width), read(want, addr, width), "{:?}", op);
            prop_assert_eq!(got.read_u64(word), want.read_u64(word), "{:?}", op);
        }
    }
    for ppn in PAGES.map(PhysPageNum::new) {
        prop_assert_eq!(got.page_is_zero(ppn), want.page_is_zero(ppn), "{:?}", ppn);
        prop_assert_eq!(got.page_digest(ppn), want.page_digest(ppn), "{:?}", ppn);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `before` runs on one machine, which is then cloned; each step of
    /// `steps` runs on the original (`true`) or on the clone (`false`).
    /// Neither side may see the other's steps.
    #[test]
    fn a_clone_and_its_original_read_like_unshared_memories(
        before in proptest::collection::vec(arb_op(), 0..40),
        steps in proptest::collection::vec((any::<bool>(), arb_op()), 1..200),
    ) {
        let dense = PhysPageNum::new(DENSE_PAGE);
        let mut setup: Vec<Op> = (0..128)
            .map(|i| Op::Write { addr: dense.base_addr() + 8 * i, width: 8, value: i + 1 })
            .collect();
        setup.extend(before);
        let mut original = PhysMem::new(MEM_SIZE);
        for &op in &setup {
            apply(&mut original, op);
        }
        let mut clone = original.clone();
        let (mut want_original, mut want_clone) = (PhysMem::new(MEM_SIZE), PhysMem::new(MEM_SIZE));
        for &op in &setup {
            apply(&mut want_original, op);
            apply(&mut want_clone, op);
        }
        for &(on_original, op) in &steps {
            if on_original {
                apply(&mut original, op);
                apply(&mut want_original, op);
            } else {
                apply(&mut clone, op);
                apply(&mut want_clone, op);
            }
        }
        let mut every: Vec<Op> = setup;
        every.extend(steps.iter().map(|&(_, op)| op));
        assert_reads_alike(&original, &want_original, &every)?;
        assert_reads_alike(&clone, &want_clone, &every)?;
    }
}
