//! Kernel and machine configuration.

use core::fmt;

use ptstore_core::{PagingScheme, GIB, MIB, PAGE_SIZE};

use crate::drain::DrainPolicy;

/// Which page-table defense the kernel deploys. The paper's related-work
/// taxonomy (§VI) maps onto these baselines; PTStore is the contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DefenseMode {
    /// No page-table protection (the unmodified kernel).
    #[default]
    None,
    /// PT-Rand-style randomisation of page-table virtual addresses (§VI-1):
    /// page tables are reachable only through a randomised offset and the
    /// direct-map alias is removed.
    PtRand,
    /// Virtual isolation (§VI-3): page-table pages are mapped read-only in
    /// the kernel address space; legitimate writers briefly lift the
    /// protection through a trampoline.
    VirtualIsolation,
    /// PTStore: PMP secure region + `ld.pt`/`sd.pt` + PTW origin check +
    /// tokens.
    PtStore,
}

impl DefenseMode {
    /// True when the kernel stores page tables in the PMP secure region.
    pub const fn is_ptstore(self) -> bool {
        matches!(self, DefenseMode::PtStore)
    }
}

impl fmt::Display for DefenseMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DefenseMode::None => "none",
            DefenseMode::PtRand => "pt-rand",
            DefenseMode::VirtualIsolation => "virtual-isolation",
            DefenseMode::PtStore => "ptstore",
        })
    }
}

/// Upper bound on modelled harts (the IPI fabric is a full broadcast; the
/// paper's prototype is a single Rocket core, real SoCs stay far below).
pub const MAX_HARTS: usize = 64;

/// Full kernel configuration (the model's `defconfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Deployed page-table defense.
    pub defense: DefenseMode,
    /// Clang CFI instrumentation on the kernel (the paper's threat model
    /// requires it; benchmarks compare with and without).
    pub cfi: bool,
    /// Physical memory size in bytes (prototype: 4 GiB DDR3, Table II).
    pub mem_size: u64,
    /// Initial secure-region / PTStore-zone size (paper §IV-C1: 64 MiB).
    pub initial_secure_size: u64,
    /// Granule by which the secure region grows during dynamic adjustment.
    pub adjust_chunk: u64,
    /// Disable dynamic adjustment (the paper's `CFI+PTStore-Adj`
    /// configuration boots with a 1 GiB region instead).
    pub adjustment_enabled: bool,
    /// Ablation switch: disable the token mechanism while keeping the secure
    /// region and PTW origin check (isolates which layer stops which attack;
    /// always true in the paper's full design).
    pub token_checks: bool,
    /// Ablation switch: disable the PMP S-bit enforcement — regular loads and
    /// stores reach the secure region subject only to the entry's ordinary
    /// R/W permissions. Always true in the paper's full design; the fault
    /// campaign uses `false` to prove the invariant oracle catches landed
    /// page-table corruption.
    pub pmp_s_bit_check: bool,
    /// Ablation switch: disable the PTW origin check — `satp.S` is left
    /// clear, so the walker may fetch page tables from anywhere. Always true
    /// in the paper's full design.
    pub ptw_origin_check: bool,
    /// Number of harts (cores). Each hart owns its MMU/TLBs, current
    /// process, run queue, and cycle counter; everything else — bus, PMP,
    /// zones, process table — is machine-wide. `1` reproduces the paper's
    /// single-hart prototype cycle-for-cycle.
    pub harts: usize,
    /// Paging scheme the kernel programs into `satp.MODE` (Sv39/Sv48/Sv57).
    /// The walker reads the scheme back out of `satp` at translation time,
    /// so this single knob switches the whole machine. The paper's prototype
    /// (and every golden trace) uses Sv39.
    pub scheme: PagingScheme,
    /// Batch remote TLB shootdowns: per-page invalidations queue on the
    /// issuing hart (the local `sfence.vma` still happens eagerly) and a
    /// single IPI round drains the queue at the end of the unmap/protect
    /// operation — and, forced, at every security-relevant boundary
    /// (secure-region adjust, context switch, hart handoff). Off by
    /// default: the paper's prototype and every golden trace model the
    /// literal one-IPI-per-page kernel.
    pub deferred_shootdowns: bool,
    /// Front the slab caches and the PT-page allocator with per-hart
    /// magazines (LIFO caches of recently freed objects/pages), so fork/exit
    /// storms stop round-tripping the buddy allocator. Off by default:
    /// magazines reorder address reuse, which the golden traces pin.
    pub alloc_magazines: bool,
    /// When, beyond the mandatory security boundaries, deferred-shootdown
    /// queues drain early (see [`crate::drain`]). Irrelevant unless
    /// `deferred_shootdowns` is on; the default [`DrainPolicy::Boundary`]
    /// drains only at the mandatory points.
    pub drain_policy: DrainPolicy,
}

/// Why [`KernelConfig::validate`] refused a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `mem_size` below the 64 MiB floor or not page-aligned.
    BadMemSize,
    /// `initial_secure_size` empty, not page-aligned, or at least half of
    /// `mem_size` (the normal zone needs the rest).
    BadSecureSize,
    /// `adjust_chunk` empty or not page-aligned.
    BadAdjustChunk,
    /// A hart count of zero, or beyond the modelled IPI fabric (64).
    BadHartCount,
    /// A watermark drain policy with a depth of zero (it would drain on
    /// every queued page, i.e. be the eager path at deferred prices).
    BadDrainWatermark,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConfigError::BadMemSize => "mem_size must be a page-aligned size of at least 64 MiB",
            ConfigError::BadSecureSize => {
                "initial_secure_size must be page-aligned, non-empty, and below mem_size/2"
            }
            ConfigError::BadAdjustChunk => "adjust_chunk must be page-aligned and non-empty",
            ConfigError::BadHartCount => "harts must be between 1 and 64",
            ConfigError::BadDrainWatermark => "watermark drain depth must be non-zero",
        })
    }
}

impl std::error::Error for ConfigError {}

/// Checked builder for [`KernelConfig`], made by
/// [`KernelConfig::to_builder`] from a preset.
///
/// It sets the machine geometry and checks the result once in
/// [`build`](Self::build) with [`KernelConfig::validate`], the check
/// [`Kernel::boot`](crate::Kernel::boot) also makes. Other knobs are set
/// on the [`KernelConfig`] itself, through its `with_*` methods or its
/// public fields.
///
/// ```
/// use ptstore_core::MIB;
/// use ptstore_kernel::KernelConfig;
///
/// let cfg = KernelConfig::cfi_ptstore()
///     .to_builder()
///     .mem_size(256 * MIB)
///     .initial_secure_size(16 * MIB)
///     .harts(2)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.label(), "CFI+PTStore");
/// assert_eq!(cfg.harts, 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct KernelConfigBuilder {
    cfg: KernelConfig,
}

impl KernelConfigBuilder {
    /// Physical memory size in bytes.
    pub fn mem_size(mut self, bytes: u64) -> Self {
        self.cfg.mem_size = bytes;
        self
    }

    /// Initial secure-region / PTStore-zone size in bytes.
    pub fn initial_secure_size(mut self, bytes: u64) -> Self {
        self.cfg.initial_secure_size = bytes;
        self
    }

    /// Number of harts.
    pub fn harts(mut self, harts: usize) -> Self {
        self.cfg.harts = harts;
        self
    }

    /// Validates the configuration and produces it.
    ///
    /// # Errors
    /// The [`ConfigError`] of [`KernelConfig::validate`].
    pub fn build(self) -> Result<KernelConfig, ConfigError> {
        self.cfg.validate().map(|()| self.cfg)
    }
}

impl KernelConfig {
    /// A checked builder seeded with this configuration (tweak a preset).
    pub fn to_builder(self) -> KernelConfigBuilder {
        KernelConfigBuilder { cfg: self }
    }

    /// Checks the machine geometry and the knobs a boot relies on.
    ///
    /// # Errors
    /// A [`ConfigError`] naming the first invariant violated.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.mem_size < 64 * MIB || !self.mem_size.is_multiple_of(PAGE_SIZE) {
            return Err(ConfigError::BadMemSize);
        }
        if self.initial_secure_size == 0
            || !self.initial_secure_size.is_multiple_of(PAGE_SIZE)
            || self.initial_secure_size >= self.mem_size / 2
        {
            return Err(ConfigError::BadSecureSize);
        }
        if self.adjust_chunk == 0 || !self.adjust_chunk.is_multiple_of(PAGE_SIZE) {
            return Err(ConfigError::BadAdjustChunk);
        }
        if self.harts == 0 || self.harts > MAX_HARTS {
            return Err(ConfigError::BadHartCount);
        }
        if self.drain_policy.watermark_depth() == Some(0) {
            return Err(ConfigError::BadDrainWatermark);
        }
        Ok(())
    }

    /// The baseline kernel: no defense, no CFI.
    pub fn baseline() -> Self {
        Self {
            defense: DefenseMode::None,
            cfi: false,
            mem_size: 4 * GIB,
            initial_secure_size: 64 * MIB,
            adjust_chunk: 16 * MIB,
            adjustment_enabled: true,
            token_checks: true,
            pmp_s_bit_check: true,
            ptw_origin_check: true,
            harts: 1,
            scheme: PagingScheme::Sv39,
            deferred_shootdowns: false,
            alloc_magazines: false,
            drain_policy: DrainPolicy::Boundary,
        }
    }

    /// The paper's `CFI` configuration: original kernel + Clang CFI.
    pub fn cfi() -> Self {
        Self {
            cfi: true,
            ..Self::baseline()
        }
    }

    /// The paper's `CFI+PTStore` configuration.
    pub fn cfi_ptstore() -> Self {
        Self {
            defense: DefenseMode::PtStore,
            cfi: true,
            ..Self::baseline()
        }
    }

    /// The paper's `CFI+PTStore-Adj` configuration: a 1 GiB region so the
    /// dynamic adjustment never triggers.
    pub fn cfi_ptstore_no_adjust() -> Self {
        Self {
            defense: DefenseMode::PtStore,
            cfi: true,
            initial_secure_size: GIB,
            adjustment_enabled: false,
            ..Self::baseline()
        }
    }

    /// PTStore without CFI (used to isolate PTStore's own overhead).
    pub fn ptstore_only() -> Self {
        Self {
            defense: DefenseMode::PtStore,
            ..Self::baseline()
        }
    }

    /// Returns a copy with a different memory size (tests use small
    /// machines).
    pub fn with_mem_size(mut self, bytes: u64) -> Self {
        self.mem_size = bytes;
        self
    }

    /// Returns a copy with a different initial secure-region size.
    pub fn with_initial_secure_size(mut self, bytes: u64) -> Self {
        self.initial_secure_size = bytes;
        self
    }

    /// Returns a copy with a different defense mode.
    pub fn with_defense(mut self, defense: DefenseMode) -> Self {
        self.defense = defense;
        self
    }

    /// Returns a copy with a different hart count.
    pub fn with_harts(mut self, harts: usize) -> Self {
        self.harts = harts;
        self
    }

    /// Returns a copy with a different paging scheme.
    pub fn with_scheme(mut self, scheme: PagingScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Returns a copy with batched remote TLB shootdowns on or off.
    pub fn with_deferred_shootdowns(mut self, enabled: bool) -> Self {
        self.deferred_shootdowns = enabled;
        self
    }

    /// Returns a copy with per-hart allocation magazines on or off.
    pub fn with_alloc_magazines(mut self, enabled: bool) -> Self {
        self.alloc_magazines = enabled;
        self
    }

    /// Returns a copy with a different deferred-shootdown drain policy.
    pub fn with_drain_policy(mut self, policy: DrainPolicy) -> Self {
        self.drain_policy = policy;
        self
    }

    /// A human-readable tag matching the paper's figure legends.
    pub fn label(&self) -> String {
        let base = match (self.cfi, self.defense) {
            (false, DefenseMode::None) => "baseline".to_string(),
            (true, DefenseMode::None) => "CFI".to_string(),
            (true, DefenseMode::PtStore) => "CFI+PTStore".to_string(),
            (false, DefenseMode::PtStore) => "PTStore".to_string(),
            (cfi, d) => format!("{}{}", if cfi { "CFI+" } else { "" }, d),
        };
        if self.defense.is_ptstore() && !self.adjustment_enabled {
            format!("{base}-Adj")
        } else {
            base
        }
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        assert_eq!(KernelConfig::baseline().label(), "baseline");
        assert_eq!(KernelConfig::cfi().label(), "CFI");
        assert_eq!(KernelConfig::cfi_ptstore().label(), "CFI+PTStore");
        assert_eq!(
            KernelConfig::cfi_ptstore_no_adjust().label(),
            "CFI+PTStore-Adj"
        );
        assert_eq!(KernelConfig::cfi_ptstore().initial_secure_size, 64 * MIB);
        assert_eq!(
            KernelConfig::cfi_ptstore_no_adjust().initial_secure_size,
            GIB
        );
    }

    #[test]
    fn builder_validates_geometry() {
        let base = KernelConfig::baseline();
        // The baseline preset passes untouched.
        assert_eq!(base.to_builder().build(), Ok(base));
        assert_eq!(
            base.to_builder().mem_size(MIB).build(),
            Err(ConfigError::BadMemSize)
        );
        assert_eq!(
            base.to_builder().mem_size(64 * MIB + 1).build(),
            Err(ConfigError::BadMemSize)
        );
        // A secure region at (or above) half of memory starves the normal zone.
        assert_eq!(
            base.to_builder()
                .mem_size(128 * MIB)
                .initial_secure_size(64 * MIB)
                .build(),
            Err(ConfigError::BadSecureSize)
        );
        assert_eq!(
            base.to_builder().initial_secure_size(0).build(),
            Err(ConfigError::BadSecureSize)
        );
        let chunk = KernelConfig {
            adjust_chunk: PAGE_SIZE + 1,
            ..base
        };
        assert_eq!(chunk.validate(), Err(ConfigError::BadAdjustChunk));
        assert_eq!(
            base.to_builder().harts(0).build(),
            Err(ConfigError::BadHartCount)
        );
        assert_eq!(
            base.to_builder().harts(MAX_HARTS + 1).build(),
            Err(ConfigError::BadHartCount)
        );
        assert!(base.to_builder().harts(4).build().is_ok());
    }

    #[test]
    fn drain_policy_validates_and_composes() {
        let base = KernelConfig::baseline();
        assert_eq!(
            base.with_drain_policy(DrainPolicy::Watermark { depth: 0 })
                .validate(),
            Err(ConfigError::BadDrainWatermark)
        );
        assert_eq!(
            base.with_drain_policy(DrainPolicy::Watermark { depth: 8 })
                .to_builder()
                .build()
                .unwrap()
                .drain_policy,
            DrainPolicy::Watermark { depth: 8 }
        );
        // Every preset defaults to the PR 8 boundary-only behaviour.
        assert_eq!(base.drain_policy, DrainPolicy::Boundary);
        assert_eq!(
            KernelConfig::cfi_ptstore().drain_policy,
            DrainPolicy::Boundary
        );
        assert_eq!(
            KernelConfig::cfi_ptstore()
                .with_drain_policy(DrainPolicy::Watermark { depth: 2 })
                .drain_policy,
            DrainPolicy::Watermark { depth: 2 }
        );
    }

    #[test]
    fn builder_round_trips_presets() {
        for preset in [
            KernelConfig::baseline(),
            KernelConfig::cfi(),
            KernelConfig::cfi_ptstore(),
            KernelConfig::cfi_ptstore_no_adjust(),
        ] {
            assert_eq!(preset.to_builder().build(), Ok(preset));
        }
    }

    #[test]
    fn builders_compose() {
        let c = KernelConfig::baseline()
            .with_mem_size(256 * MIB)
            .with_initial_secure_size(16 * MIB)
            .with_defense(DefenseMode::VirtualIsolation)
            .with_scheme(PagingScheme::Sv48);
        assert_eq!(c.mem_size, 256 * MIB);
        assert_eq!(c.initial_secure_size, 16 * MIB);
        assert_eq!(c.defense, DefenseMode::VirtualIsolation);
        assert_eq!(c.scheme, PagingScheme::Sv48);
        // Every preset defaults to the paper's Sv39 prototype.
        assert_eq!(KernelConfig::baseline().scheme, PagingScheme::Sv39);
        // The builder keeps every knob it does not set.
        let built = c.to_builder().harts(2).build().unwrap();
        assert_eq!(built, KernelConfig { harts: 2, ..c });
    }
}
