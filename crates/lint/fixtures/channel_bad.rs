//! BAD: raw bus access sprinkled through kernel code outside the channel
//! module, with no justification markers. Every raw site below must fire
//! `channel-confinement`.

impl Kernel {
    fn poke_pte(&mut self, pa: PhysAddr, v: u64) -> Result<(), KernelError> {
        let ctx = self.kctx();
        // An ordinary comment is not an allow marker.
        self.bus
            .write::<u64>(pa, v, Channel::Regular, ctx)
            .map_err(KernelError::Access)
    }

    fn peek(&mut self, pa: PhysAddr) -> Result<u64, KernelError> {
        let ctx = self.kctx();
        self.bus.read::<u64>(pa, Channel::Regular, ctx).map_err(KernelError::Access)
    }

    fn sneaky_copy(&mut self, old: PhysPageNum, new: PhysPageNum) {
        self.bus.mem_unchecked().copy_page(old, new).unwrap();
    }

    fn reprogram(&mut self, region: &SecureRegion) {
        self.bus.pmp_mut().set_secure_enforcement(true);
        Bus::install_secure_region(&mut self.bus, region);
    }
}
