//! RISC-V privilege modes used by the model.

use core::fmt;

/// RISC-V privilege modes (the prototype runs RV64 with M, S, and U modes;
/// paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PrivilegeMode {
    /// User mode: applications, including the attacker-controlled process.
    #[default]
    User,
    /// Supervisor mode: the kernel.
    Supervisor,
    /// Machine mode: the SBI firmware managing PMP entries.
    Machine,
}

impl PrivilegeMode {
    /// Encoding used in `mstatus.MPP` / trap handling.
    #[inline]
    pub const fn encoding(self) -> u64 {
        match self {
            PrivilegeMode::User => 0,
            PrivilegeMode::Supervisor => 1,
            PrivilegeMode::Machine => 3,
        }
    }

    /// Decodes the 2-bit privilege encoding.
    pub const fn from_encoding(bits: u64) -> Option<Self> {
        match bits {
            0 => Some(PrivilegeMode::User),
            1 => Some(PrivilegeMode::Supervisor),
            3 => Some(PrivilegeMode::Machine),
            _ => None,
        }
    }
}

impl fmt::Display for PrivilegeMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PrivilegeMode::User => "U",
            PrivilegeMode::Supervisor => "S",
            PrivilegeMode::Machine => "M",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_round_trip() {
        for m in [
            PrivilegeMode::User,
            PrivilegeMode::Supervisor,
            PrivilegeMode::Machine,
        ] {
            assert_eq!(PrivilegeMode::from_encoding(m.encoding()), Some(m));
        }
        assert_eq!(PrivilegeMode::from_encoding(2), None);
    }

    #[test]
    fn ordering_matches_privilege() {
        assert!(PrivilegeMode::User < PrivilegeMode::Supervisor);
        assert!(PrivilegeMode::Supervisor < PrivilegeMode::Machine);
    }
}
