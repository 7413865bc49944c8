//! Kernel-level error types.

use core::fmt;

use ptstore_core::{AccessError, RegionError, TokenError};

use crate::config::ConfigError;
use crate::zones::AllocError;

/// Errors surfaced by the kernel model's public operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// [`Kernel::boot`](crate::Kernel::boot) refused the configuration.
    Config(ConfigError),
    /// Physical memory exhausted (after any secure-region adjustment
    /// attempts).
    OutOfMemory,
    /// A page-table pointer failed token validation in `switch_mm` — the
    /// PT-Reuse defense firing (paper §III-C3).
    TokenInvalid(TokenError),
    /// A memory access was denied (usually PTStore intercepting an illegal
    /// access).
    Access(AccessError),
    /// Secure-region geometry error.
    Region(RegionError),
    /// Buddy allocator error that is not plain OOM.
    Alloc(AllocError),
    /// A fresh page-table page was not all-zero — the allocator-metadata
    /// defense firing (paper §V-E3).
    PageNotZero,
    /// Unknown process id.
    NoSuchProcess,
    /// Bad file descriptor.
    BadFd,
    /// No such file.
    NoSuchFile,
    /// Address range is invalid for the requested VM operation.
    BadAddress,
    /// A page fault could not be resolved (genuine segfault).
    SegFault,
    /// Pipe would block (reader/writer model is synchronous).
    WouldBlock,
    /// Operation invalid in the current state (e.g. wait with no children).
    InvalidState,
    /// A process with this pid already exists in the process table.
    DuplicatePid(crate::process::Pid),
    /// The process table already holds its capacity of live processes.
    ProcessTableFull,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Config(e) => write!(f, "bad configuration: {e}"),
            KernelError::OutOfMemory => f.write_str("out of memory"),
            KernelError::TokenInvalid(e) => write!(f, "token validation failed: {e}"),
            KernelError::Access(e) => write!(f, "access denied: {e}"),
            KernelError::Region(e) => write!(f, "secure region error: {e}"),
            KernelError::Alloc(e) => write!(f, "allocator error: {e}"),
            KernelError::PageNotZero => f.write_str("page-table page not zero (overlap attack?)"),
            KernelError::NoSuchProcess => f.write_str("no such process"),
            KernelError::BadFd => f.write_str("bad file descriptor"),
            KernelError::NoSuchFile => f.write_str("no such file"),
            KernelError::BadAddress => f.write_str("bad address"),
            KernelError::SegFault => f.write_str("segmentation fault"),
            KernelError::WouldBlock => f.write_str("operation would block"),
            KernelError::InvalidState => f.write_str("invalid state"),
            KernelError::DuplicatePid(pid) => write!(f, "duplicate pid {pid}"),
            KernelError::ProcessTableFull => f.write_str("process table full"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<crate::process::TableError> for KernelError {
    fn from(e: crate::process::TableError) -> Self {
        match e {
            crate::process::TableError::DuplicatePid(pid) => KernelError::DuplicatePid(pid),
            crate::process::TableError::Full => KernelError::ProcessTableFull,
        }
    }
}

impl From<ConfigError> for KernelError {
    fn from(e: ConfigError) -> Self {
        KernelError::Config(e)
    }
}

impl From<TokenError> for KernelError {
    fn from(e: TokenError) -> Self {
        KernelError::TokenInvalid(e)
    }
}

impl From<AccessError> for KernelError {
    fn from(e: AccessError) -> Self {
        KernelError::Access(e)
    }
}

impl From<RegionError> for KernelError {
    fn from(e: RegionError) -> Self {
        KernelError::Region(e)
    }
}

impl From<AllocError> for KernelError {
    fn from(e: AllocError) -> Self {
        match e {
            AllocError::OutOfMemory => KernelError::OutOfMemory,
            other => KernelError::Alloc(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: KernelError = TokenError::Cleared.into();
        assert_eq!(e, KernelError::TokenInvalid(TokenError::Cleared));
        let e: KernelError = AllocError::OutOfMemory.into();
        assert_eq!(e, KernelError::OutOfMemory);
        let e: KernelError = AllocError::BadFree {
            ppn: ptstore_core::PhysPageNum::new(3),
        }
        .into();
        assert!(matches!(e, KernelError::Alloc(_)));
        let e: KernelError = crate::process::TableError::DuplicatePid(9).into();
        assert_eq!(e, KernelError::DuplicatePid(9));
        let e: KernelError = crate::process::TableError::Full.into();
        assert_eq!(e, KernelError::ProcessTableFull);
    }

    #[test]
    fn display_nonempty() {
        assert!(!KernelError::PageNotZero.to_string().is_empty());
        assert!(!KernelError::OutOfMemory.to_string().is_empty());
    }
}
