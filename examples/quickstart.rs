//! Quickstart: boot a PTStore-protected kernel, watch the mechanism work.
//!
//! ```sh
//! cargo run -p ptstore --example quickstart
//! ```

use ptstore::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Boot the CFI+PTStore kernel on a 256 MiB machine with a 16 MiB
    //    secure region at the top of physical memory.
    let cfg = KernelConfig::cfi_ptstore()
        .with_mem_size(256 * MIB)
        .with_initial_secure_size(16 * MIB);
    let mut k = Kernel::boot(cfg)?;
    let region = k.secure_region().expect("ptstore kernel has a region");
    println!("booted: secure region {region}");
    println!(
        "boot issued {} sd.pt stores building page tables inside it",
        k.bus.stats().secure_writes
    );

    // 2. Normal life: spawn a process; its page tables land in the region.
    let child = k.sys_fork()?;
    let root = k.process_root(child).expect("root");
    println!(
        "forked pid {child}; its root page table lives at {}",
        root.base_addr()
    );
    assert!(region.contains(root.base_addr()));

    // 3. The attacker's turn: an arbitrary-write primitive aims at the PTE
    //    that maps the child's code page (the PT-Tampering attack, §II-B).
    let pte = k.pte_phys_addr(child, VirtAddr::new(0x1_0000))?;
    let via_direct_map = k.direct_map(pte);
    println!("\nattacker writes PTE at {pte} via direct map {via_direct_map} ...");
    match k.attacker_write_u64(via_direct_map, 0xdead_beef) {
        Err(fault) => println!("  -> DENIED: {fault:?} (the PMP S-bit fired)"),
        Ok(()) => unreachable!("PTStore must block regular stores into the secure region"),
    }

    // 4. The kernel's own page-table writes use the dedicated instructions,
    //    so legitimate work continues unharmed.
    let before = k.bus.stats().secure_writes;
    let grandchild = k.sys_fork()?;
    println!(
        "\nkernel forked pid {grandchild} afterwards, issuing {} more sd.pt stores",
        k.bus.stats().secure_writes - before
    );
    println!(
        "security log: {:?} (defense never needed to fire for legitimate work)",
        k.security_log
    );
    Ok(())
}
