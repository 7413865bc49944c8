//! The PTStore token mechanism (paper §III-C3, Fig. 3).
//!
//! A token lives in the secure region and binds a page-table pointer to its
//! *unique legitimate user*: `Token { pt_ptr, user_ptr }`, where `user_ptr`
//! points back at the token-pointer slot inside the owning PCB. The kernel
//! issues a token at process creation, copies it when the page-table pointer
//! is legitimately copied, clears it at process destruction, and validates it
//! every time the page-table pointer is about to be used (e.g. before writing
//! `satp` in `switch_mm`).
//!
//! Because tokens are 8-byte-aligned pointers, all their fields have zero low
//! bits — so even if the walker were pointed at a token, the V (present) bit
//! would be clear and the entry invalid, preventing secure-region data from
//! being reused as page tables (paper §V-E2).

use core::fmt;

use crate::addr::PhysAddr;
use crate::error::TokenError;

/// Size of a token in the secure region, in bytes.
pub const TOKEN_SIZE: u64 = 16;

/// A page-table-pointer credential stored in the secure region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Token {
    /// The protected page-table (root) pointer.
    pub pt_ptr: PhysAddr,
    /// Physical address of the token-pointer slot in the owning PCB.
    pub user_ptr: PhysAddr,
}

impl Token {
    /// Creates a token binding `pt_ptr` to the PCB slot at `user_ptr`.
    pub const fn new(pt_ptr: PhysAddr, user_ptr: PhysAddr) -> Self {
        Self { pt_ptr, user_ptr }
    }

    /// The cleared (all-zero) token written by the slab constructor and by
    /// process destruction.
    pub const fn cleared() -> Self {
        Self {
            pt_ptr: PhysAddr::new(0),
            user_ptr: PhysAddr::new(0),
        }
    }

    /// True for a cleared token.
    pub const fn is_cleared(&self) -> bool {
        self.pt_ptr.as_u64() == 0 && self.user_ptr.as_u64() == 0
    }

    /// Serialises to the 16-byte secure-region representation.
    pub fn to_bytes(&self) -> [u8; TOKEN_SIZE as usize] {
        let mut out = [0u8; TOKEN_SIZE as usize];
        out[..8].copy_from_slice(&self.pt_ptr.as_u64().to_le_bytes());
        out[8..].copy_from_slice(&self.user_ptr.as_u64().to_le_bytes());
        out
    }

    /// Deserialises from the 16-byte secure-region representation.
    pub fn from_bytes(bytes: &[u8; TOKEN_SIZE as usize]) -> Self {
        let pt = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let user = u64::from_le_bytes(bytes[8..].try_into().expect("8 bytes"));
        Self {
            pt_ptr: PhysAddr::new(pt),
            user_ptr: PhysAddr::new(user),
        }
    }

    /// Validates the token against the PCB that presented it.
    ///
    /// `pcb_pt_ptr` is the page-table pointer read from the PCB;
    /// `pcb_token_slot` is the physical address of the PCB field holding the
    /// token pointer. The token is valid iff its user pointer points back at
    /// that slot *and* the two page-table pointers match (paper §III-C3).
    ///
    /// # Errors
    /// [`TokenError::Cleared`] for an all-zero token,
    /// [`TokenError::UserPointerMismatch`] when the back-pointer disagrees,
    /// [`TokenError::PageTablePointerMismatch`] when the pt pointers differ.
    pub fn validate(
        &self,
        pcb_pt_ptr: PhysAddr,
        pcb_token_slot: PhysAddr,
    ) -> Result<(), TokenError> {
        if self.is_cleared() {
            return Err(TokenError::Cleared);
        }
        if self.user_ptr != pcb_token_slot {
            return Err(TokenError::UserPointerMismatch);
        }
        if self.pt_ptr != pcb_pt_ptr {
            return Err(TokenError::PageTablePointerMismatch);
        }
        Ok(())
    }

    /// Paper §V-E2: both fields are pointers to 8-byte-aligned objects, so
    /// their low three bits are zero and neither field forms a *valid* PTE
    /// (the V/present bit — bit 0 — is clear). Returns true when that holds.
    pub const fn fields_invalid_as_ptes(&self) -> bool {
        self.pt_ptr.as_u64() & 0b111 == 0 && self.user_ptr.as_u64() & 0b111 == 0
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "token{{pt={}, user={}}}", self.pt_ptr, self.user_ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip() {
        let t = Token::new(PhysAddr::new(0xFC12_3000), PhysAddr::new(0x8000_0040));
        assert_eq!(Token::from_bytes(&t.to_bytes()), t);
        assert_eq!(
            Token::from_bytes(&Token::cleared().to_bytes()),
            Token::cleared()
        );
    }

    #[test]
    fn valid_token_passes() {
        let pcb_slot = PhysAddr::new(0x8000_0040);
        let pt = PhysAddr::new(0xFC12_3000);
        let t = Token::new(pt, pcb_slot);
        t.validate(pt, pcb_slot).unwrap();
    }

    #[test]
    fn reuse_attack_is_caught_by_user_pointer() {
        // Attacker copies a *victim's* pt pointer into their own PCB. The
        // token still points back at the victim's slot, so validation fails.
        let victim_slot = PhysAddr::new(0x8000_0040);
        let attacker_slot = PhysAddr::new(0x8000_1040);
        let pt = PhysAddr::new(0xFC12_3000);
        let victim_token = Token::new(pt, victim_slot);
        assert_eq!(
            victim_token.validate(pt, attacker_slot),
            Err(TokenError::UserPointerMismatch)
        );
    }

    #[test]
    fn swapped_pt_pointer_is_caught() {
        let slot = PhysAddr::new(0x8000_0040);
        let t = Token::new(PhysAddr::new(0xFC12_3000), slot);
        assert_eq!(
            t.validate(PhysAddr::new(0xFC45_6000), slot),
            Err(TokenError::PageTablePointerMismatch)
        );
    }

    #[test]
    fn cleared_token_rejected() {
        let t = Token::cleared();
        assert!(t.is_cleared());
        assert_eq!(
            t.validate(PhysAddr::new(0), PhysAddr::new(0)),
            Err(TokenError::Cleared)
        );
    }

    #[test]
    fn aligned_fields_are_invalid_ptes() {
        let t = Token::new(PhysAddr::new(0xFC12_3000), PhysAddr::new(0x8000_0040));
        assert!(t.fields_invalid_as_ptes());
        // A hypothetical misaligned pointer would violate the property.
        let bad = Token::new(PhysAddr::new(0xFC12_3001), PhysAddr::new(0x8000_0040));
        assert!(!bad.fields_invalid_as_ptes());
    }

    #[test]
    fn display_mentions_both_fields() {
        let t = Token::new(PhysAddr::new(0x1000), PhysAddr::new(0x2000));
        let s = t.to_string();
        assert!(s.contains("0x1000") && s.contains("0x2000"));
    }
}
