//! Dynamic secure-region adjustment under a fork storm (paper §IV-C1,
//! §V-D1): watch the 64 MiB-style region grow on demand, contiguously,
//! while the PMP boundary follows.
//!
//! ```sh
//! cargo run -p ptstore --example fork_storm --release
//! ```

use ptstore::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = KernelConfig {
        adjust_chunk: 2 * MIB,
        ..KernelConfig::cfi_ptstore()
            .with_mem_size(512 * MIB)
            .with_initial_secure_size(2 * MIB)
    };
    let mut k = Kernel::boot(cfg)?;

    let region0 = k.secure_region().expect("region");
    println!("initial secure region: {region0}");
    println!("creating 2000 simultaneous processes...\n");

    let mut children = Vec::new();
    let mut last_adjustments = 0;
    for i in 0..2000u32 {
        children.push(k.sys_fork()?);
        if k.stats.adjustments != last_adjustments {
            last_adjustments = k.stats.adjustments;
            let r = k.secure_region().expect("region");
            println!(
                "after {:>5} forks: adjustment #{:<2} -> region {} ({} pt pages live)",
                i + 1,
                last_adjustments,
                r,
                k.stats.pt_pages_live
            );
        }
    }

    let grown = k.secure_region().expect("region");
    println!("\nfinal region: {grown}");
    println!(
        "  grew downward: end fixed at {}, base {} -> {}",
        grown.end(),
        region0.base(),
        grown.base()
    );
    println!(
        "  adjustments: {}, migrated pages: {}",
        k.stats.adjustments, k.stats.migrated_pages
    );
    assert_eq!(grown.end(), region0.end(), "region grows downward only");

    // The PMP agrees with the kernel at every step.
    assert_eq!(k.bus.secure_region(), Some(grown));
    println!("  PMP boundary matches the kernel's view ✓");

    // Tear down and show the region stays grown (Linux-like: zones don't
    // shrink back) but all pages return to the free lists.
    for child in children {
        k.do_switch_to(child)?;
        k.sys_exit(0)?;
    }
    while k.sys_wait().is_ok() {}
    println!(
        "\nafter teardown: {} free pages in the PTStore zone, {} token failures (0 = healthy)",
        k.pt_area_free_pages().expect("zone"),
        k.stats.token_failures
    );
    Ok(())
}
