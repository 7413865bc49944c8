//! `translate-scan`: the page-table read side.
//!
//! One long-lived process faults in a working set during set-up; the timed
//! phase is only user reads over a seeded stream of batches. Half the
//! batches stay inside a hot set smaller than the 8-entry dTLB, half
//! spread over a cold set of thousands of pages, so the stream mixes TLB
//! hits with walks whose fetches go out on `Channel::Ptw` through the bus
//! and the PMP check. The traced run then replays the same stream through
//! `Mmu::translate_data` and `Bus::read` to split the time by layer.

use std::time::Instant;

use ptstore_core::{AccessContext, AccessKind, Channel, PhysAddr, PrivilegeMode, VirtAddr};
use ptstore_core::{MIB, PAGE_SIZE};
use ptstore_kernel::{Kernel, KernelConfig, KernelError};

use crate::drive::{set_up, Driver, Mark, Round};
use crate::rng::Rng;
use crate::trace::Probe;

/// Touches per batch.
pub const BATCH: usize = 256;
/// Pages of the hot set (inside the 8-entry dTLB).
pub const HOT_PAGES: u64 = 6;
/// Pages of the cold set.
pub const COLD_PAGES: u64 = 4_096;

/// One batch: whether it is hot, and its virtual addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// True for a hot-set batch.
    pub hot: bool,
    /// Offsets into the working set, in bytes.
    pub offsets: Vec<u64>,
}

/// The stream: exactly half hot batches, in seeded order, each touching
/// seeded pages at seeded 8-byte offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The batches in stream order.
    pub batches: Vec<Batch>,
}

impl Plan {
    /// `batches` batches (rounded down to even) from `seed`.
    pub fn seeded(seed: u64, batches: usize) -> Self {
        let mut rng = Rng::new(seed, 0x5ca7);
        let mut hot: Vec<bool> = (0..batches / 2 * 2).map(|i| i % 2 == 0).collect();
        rng.shuffle(&mut hot);
        let batches = hot
            .into_iter()
            .map(|hot| {
                let (first, pages) = if hot {
                    (0, HOT_PAGES)
                } else {
                    (HOT_PAGES, COLD_PAGES)
                };
                let offsets = (0..BATCH)
                    .map(|_| {
                        let page = first + rng.below(pages);
                        page * PAGE_SIZE + rng.below(PAGE_SIZE / 8) * 8
                    })
                    .collect();
                Batch { hot, offsets }
            })
            .collect();
        Self { batches }
    }

    /// Touches in the stream.
    pub fn len(&self) -> u64 {
        (self.batches.len() * BATCH) as u64
    }
}

/// The machine: CFI+PTStore, one hart.
pub fn config() -> KernelConfig {
    KernelConfig::cfi_ptstore()
        .with_mem_size(256 * MIB)
        .with_initial_secure_size(8 * MIB)
}

/// Boots, maps the working set and faults every page in with a write;
/// returns the machine, the set's base and each page's PA.
fn setup() -> Result<(Kernel, VirtAddr, Vec<PhysAddr>), KernelError> {
    let mut k = Kernel::boot(config())?;
    let pages = HOT_PAGES + COLD_PAGES;
    let base = k.sys_mmap(pages * PAGE_SIZE)?;
    let pas = (0..pages)
        .map(|p| {
            k.touch_user(
                VirtAddr::new(base.as_u64() + p * PAGE_SIZE),
                AccessKind::Write,
            )
        })
        .collect::<Result<_, _>>()?;
    Ok((k, base, pas))
}

/// Runs one round: set-up, the timed touch pass, and the output checks;
/// when tracing, then the untimed MMU and bus replays.
pub fn round<P: Probe>(plan: &Plan, probe: &mut P) -> Round {
    let mut out = Round::default();
    let (setup, setups) = set_up(1, setup);
    out.setups = setups;
    let (k, base, pas) = match setup {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(format!("set-up failed: {e}"));
            return out;
        }
    };
    let expect =
        |off: u64| PhysAddr::new(pas[(off / PAGE_SIZE) as usize].as_u64() + off % PAGE_SIZE);
    let mark = Mark::take(&k);
    let mut d = Driver::new(k, probe);

    let t1 = Instant::now();
    d.probe.timed(true);
    let mut wrong = 0u64;
    let mut err = None;
    'stream: for b in &plan.batches {
        let id = d.probe.enter();
        for &off in &b.offsets {
            match d
                .k
                .touch_user(VirtAddr::new(base.as_u64() + off), AccessKind::Read)
            {
                Ok(pa) => wrong += u64::from(pa != expect(off)),
                Err(e) => {
                    d.failed += 1;
                    err = Some(e);
                    d.probe.leave(id, "kernel.touch");
                    break 'stream;
                }
            }
        }
        d.probe.leave(
            id,
            if b.hot {
                "kernel.touch.hot"
            } else {
                "kernel.touch.cold"
            },
        );
    }
    d.probe.timed(false);
    out.timed_s = t1.elapsed().as_secs_f64();

    out.units = plan.len();
    out.calls = out.units;
    out.failed = d.failed;
    if let Some(e) = err {
        out.problems.push(format!("touch failed: {e}"));
    }
    out.check(wrong == 0, || {
        format!("{wrong} touches returned the wrong PA")
    });
    let k = &mut d.k;
    out.cycles_per_unit =
        (k.cycles.total() - mark.cycles.iter().sum::<u64>()) as f64 / out.units as f64;
    out.take_counts(&mark, k);
    let faults = out.counts["kernel.page_faults"];
    out.check(faults == 0.0, || {
        format!("{faults} page faults in the timed phase")
    });
    let sdpt = out.counts["mem.secure_writes"];
    out.check(sdpt == 0.0, || {
        format!("{sdpt} sd.pt writes in the timed phase")
    });

    if P::TRACED && out.problems.is_empty() {
        replay(&mut out, &mut d, plan, base, &expect);
    }
    out
}

/// Replays the stream through the active hart's MMU, then reads every
/// translated PA through the bus on the regular channel (PMP check +
/// physical memory), each batch in its own span.
fn replay<P: Probe>(
    out: &mut Round,
    d: &mut Driver<'_, P>,
    plan: &Plan,
    base: VirtAddr,
    expect: &impl Fn(u64) -> PhysAddr,
) {
    let k = &mut d.k;
    let hart = k.active_hart();
    let mut wrong = 0u64;
    for b in &plan.batches {
        let id = d.probe.enter();
        for &off in &b.offsets {
            let va = VirtAddr::new(base.as_u64() + off);
            let t = k.harts[hart].mmu.translate_data(
                &mut k.bus,
                va,
                AccessKind::Read,
                PrivilegeMode::User,
            );
            wrong += u64::from(!matches!(t, Ok(t) if t.pa() == expect(off)));
        }
        d.probe.leave(
            id,
            if b.hot {
                "mmu.translate.hot"
            } else {
                "mmu.translate.cold"
            },
        );
    }
    let ctx = AccessContext::supervisor(k.satp_s_bit()).on_hart(hart);
    for b in &plan.batches {
        let id = d.probe.enter();
        for &off in &b.offsets {
            wrong += u64::from(
                k.bus
                    .read::<u64>(expect(off), Channel::Regular, ctx)
                    .is_err(),
            );
        }
        d.probe.leave(id, "mem.read");
    }
    out.check(wrong == 0, || {
        format!("{wrong} replayed accesses disagreed")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_repeat_and_share_shape_and_distribution() {
        let a = Plan::seeded(1, 512);
        assert_eq!(a, Plan::seeded(1, 512));
        let b = Plan::seeded(2, 512);
        assert_ne!(a, b);
        for p in [&a, &b] {
            assert_eq!(p.len(), 512 * BATCH as u64);
            assert_eq!(p.batches.iter().filter(|b| b.hot).count(), 256);
            for batch in &p.batches {
                assert_eq!(batch.offsets.len(), BATCH);
                let pages = batch.offsets.iter().map(|o| o / PAGE_SIZE);
                if batch.hot {
                    assert!(pages.clone().all(|pg| pg < HOT_PAGES));
                } else {
                    assert!(pages
                        .clone()
                        .all(|pg| (HOT_PAGES..HOT_PAGES + COLD_PAGES).contains(&pg)));
                }
                assert!(batch.offsets.iter().all(|o| o % 8 == 0));
            }
        }
    }
}
