//! GOOD twin of `channel_bad.rs`: the same operations either routed
//! through the channel accessors or carrying a justified marker. Must
//! produce zero `channel-confinement` findings.

impl Kernel {
    fn poke_pte(&mut self, pa: PhysAddr, v: u64) -> Result<(), KernelError> {
        self.pt_install(pa, v)
    }

    fn peek(&mut self, pa: PhysAddr) -> Result<u64, KernelError> {
        self.mem_read(pa)
    }

    fn sneaky_copy(&mut self, old: PhysPageNum, new: PhysPageNum) {
        self.raw_copy_page(old, new).unwrap();
    }

    fn reprogram(&mut self, region: &SecureRegion) {
        // ptstore-lint: allow(channel-confinement) — M-mode firmware path:
        // the ablation toggle models an SBI call, not a kernel store.
        self.bus.pmp_mut().set_secure_enforcement(true);
        // ptstore-lint: allow(channel-confinement) — firmware PMP programming
        // during the modeled boot handshake (paper §IV-A).
        Bus::install_secure_region(&mut self.bus, region);
    }

    fn fine_calls(&mut self) {
        // Non-raw bus methods are fine anywhere: stats, trace plumbing.
        let _ = self.bus.stats();
        self.bus.set_trace_sink(None);
    }
}
