//! Property tests: the adaptive frame backing must be indistinguishable
//! from a plain 4 KiB byte array.

use proptest::prelude::*;
use ptstore_core::{AccessContext, Channel, PhysAddr, PhysPageNum, PAGE_SIZE};
use ptstore_mem::{Bus, PhysMem, PAGE_WORDS};

/// A write operation against one frame.
#[derive(Debug, Clone)]
enum FrameOp {
    WriteWord { index: u16, value: u64 },
    WriteByte { offset: u16, value: u8 },
}

/// About a third of the word writes store zero, so a frame's non-zero
/// words shrink as well as grow.
fn arb_frame_op() -> impl Strategy<Value = FrameOp> {
    let word = prop_oneof![1 => Just(0u64), 2 => any::<u64>()];
    prop_oneof![
        (0u16..512, word).prop_map(|(index, value)| FrameOp::WriteWord { index, value }),
        (0u16..4096, any::<u8>()).prop_map(|(offset, value)| FrameOp::WriteByte { offset, value }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The frame behind one page agrees with a reference byte array after
    /// any op sequence, across all backing promotions: word by word, byte
    /// by byte, as its listing of non-zero words, and through the bus's
    /// range read over `first..first + len`. Byte writes go through
    /// `PhysMem`, which merges them into their word.
    #[test]
    fn frame_matches_reference(
        ops in proptest::collection::vec(arb_frame_op(), 1..300),
        first in 0..PAGE_WORDS,
        len in 1..=PAGE_WORDS,
    ) {
        let mut bus = Bus::new(PAGE_SIZE);
        let mem = bus.mem_unchecked();
        let mut reference = [0u8; PAGE_SIZE as usize];
        for op in ops {
            match op {
                FrameOp::WriteWord { index, value } => {
                    mem.write_u64(PhysAddr::new(u64::from(index) * 8), value).expect("in range");
                    reference[index as usize * 8..index as usize * 8 + 8]
                        .copy_from_slice(&value.to_le_bytes());
                }
                FrameOp::WriteByte { offset, value } => {
                    mem.write_u8(PhysAddr::new(offset.into()), value).expect("in range");
                    reference[offset as usize] = value;
                }
            }
        }
        let words: Vec<u64> = reference
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
            .collect();
        // Full readback comparison, both word- and byte-granular.
        for (i, &want) in words.iter().enumerate() {
            let got = mem.read_u64(PhysAddr::new(i as u64 * 8)).expect("in range");
            prop_assert_eq!(got, want, "word {}", i);
        }
        for off in (0u16..4096).step_by(97) {
            let got = mem.read_u8(PhysAddr::new(off.into())).expect("in range");
            prop_assert_eq!(got, reference[off as usize], "byte {}", off);
        }
        let zero = reference.iter().all(|&b| b == 0);
        prop_assert_eq!(mem.page_is_zero(PhysPageNum::new(0)), zero);
        let listed: Vec<(u16, u64)> = mem
            .nonzero_words(PhysPageNum::new(0))
            .expect("in range")
            .collect();
        let nonzero: Vec<(u16, u64)> = (0..)
            .zip(words.iter().copied())
            .filter(|&(_, w)| w != 0)
            .collect();
        prop_assert_eq!(listed, nonzero);
        let range = first..(first + len).min(PAGE_WORDS);
        let mut buf = vec![0; range.len()];
        let ctx = AccessContext::supervisor(true);
        let at = PhysAddr::new(8 * range.start as u64);
        let (read, end) = bus.read_u64_run(at, &mut buf, Channel::Regular, ctx, |_| false);
        prop_assert_eq!((read, end), (range.len(), Ok(false)));
        prop_assert_eq!(&buf[..], &words[range]);
    }

    /// PhysMem u8/u32/u64 accessors are mutually consistent.
    #[test]
    fn physmem_width_consistency(
        word_addr in (0u64..(16 * PAGE_SIZE / 8)).prop_map(|w| w * 8),
        value in any::<u64>(),
    ) {
        let mut m = PhysMem::new(16 * PAGE_SIZE);
        let a = PhysAddr::new(word_addr);
        m.write_u64(a, value).expect("in range");
        // Byte view.
        for i in 0..8u64 {
            prop_assert_eq!(
                m.read_u8(a + i).expect("in range"),
                value.to_le_bytes()[i as usize]
            );
        }
        // u32 halves.
        prop_assert_eq!(m.read_u32(a).expect("in range"), value as u32);
        prop_assert_eq!(m.read_u32(a + 4).expect("in range"), (value >> 32) as u32);
        // Rewrite one byte, reread the word.
        m.write_u8(a + 3, 0xAB).expect("in range");
        let mut bytes = value.to_le_bytes();
        bytes[3] = 0xAB;
        prop_assert_eq!(m.read_u64(a).expect("in range"), u64::from_le_bytes(bytes));
    }

    /// copy_page produces bit-identical pages; zero_page fully clears.
    #[test]
    fn copy_and_zero(ops in proptest::collection::vec((0u16..512, any::<u64>()), 1..64)) {
        let mut m = PhysMem::new(16 * PAGE_SIZE);
        let src = ptstore_core::PhysPageNum::new(2);
        let dst = ptstore_core::PhysPageNum::new(7);
        for &(w, v) in &ops {
            m.write_u64(src.base_addr() + w as u64 * 8, v).expect("write");
        }
        m.copy_page(src, dst).expect("copy");
        for w in 0u64..512 {
            prop_assert_eq!(
                m.read_u64(src.base_addr() + w * 8).expect("read"),
                m.read_u64(dst.base_addr() + w * 8).expect("read")
            );
        }
        m.zero_page(dst);
        prop_assert!(m.page_is_zero(dst));
        prop_assert_eq!(m.read_u64(dst.base_addr()).expect("read"), 0);
    }
}
