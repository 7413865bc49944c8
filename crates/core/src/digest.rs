//! Deterministic FNV-1a hashing for machine-state fingerprints.
//!
//! Several layers of the model need a stable, platform-independent digest of
//! some canonical listing: the hwcost timing model derives deterministic
//! place-and-route jitter from the design name, the bounded model checker
//! folds the state digests it discovers into one exploration hash, and the
//! golden tests pin digests of whole runs. All of them use 64-bit FNV-1a
//! with the standard offset basis and prime so that digests are
//! reproducible across hosts, processes, and `--jobs` settings. (The
//! model checker's per-state canonical digest has its own word-at-a-time
//! hasher, in `ptstore-modelcheck`.)

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
///
/// ```
/// use ptstore_core::digest::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write(b"hart0 itlb ...");
/// h.write_u8(b'\n');
/// let digest = h.finish();
/// assert_eq!(digest, Fnv1a::hash_bytes(b"hart0 itlb ...\n"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET_BASIS)
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a byte slice.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest accumulated so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// One-shot digest of a byte slice.
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(Fnv1a::hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash_bytes(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Fnv1a::new();
        h.write(b"hello ");
        h.write(b"world");
        assert_eq!(h.finish(), Fnv1a::hash_bytes(b"hello world"));
    }
}
