//! Deterministic FNV-1a hashing for machine-state fingerprints.
//!
//! Several layers of the model need a stable, platform-independent digest of
//! some canonical state listing: the hwcost timing model derives
//! deterministic place-and-route jitter from the design name, the bounded
//! model checker dedups reachable machine states by canonical hash, and the
//! golden tests pin digests of whole runs. All of them use 64-bit FNV-1a
//! with the standard offset basis and prime so that digests are
//! reproducible across hosts, processes, and `--jobs` settings.
//! The model checker feeds derived `Hash` impls through [`Fnv1a`]'s
//! `Hasher` impl, which writes every integer little-endian for the same
//! reason.

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

/// Writes each listed integer type's little-endian bytes.
macro_rules! write_le {
    ($($method:ident: $int:ty),* $(,)?) => {$(
        fn $method(&mut self, i: $int) {
            Fnv1a::write(self, &i.to_le_bytes());
        }
    )*};
}

/// Feeds derived `Hash` impls into FNV-1a. The std defaults write integers
/// in native byte order, and `usize`/`isize` at native width; every integer
/// here is written little-endian, with `usize`/`isize` widened to 64 bits,
/// so a derived `Hash` digests the same on every host.
impl core::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        Fnv1a::write(self, bytes);
    }

    write_le!(
        write_u8: u8,
        write_i8: i8,
        write_u16: u16,
        write_i16: i16,
        write_u32: u32,
        write_i32: i32,
        write_u64: u64,
        write_i64: i64,
        write_u128: u128,
        write_i128: i128,
    );

    fn write_usize(&mut self, i: usize) {
        Fnv1a::write(self, &(i as u64).to_le_bytes());
    }

    fn write_isize(&mut self, i: isize) {
        Fnv1a::write(self, &(i as i64).to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use core::hash::Hash;

    use super::*;

    fn hashed<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = Fnv1a::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn hash_writes_integers_little_endian() {
        let le = Fnv1a::hash_bytes;
        assert_eq!(
            hashed(&0x0102_0304_0506_0708u64),
            le(&[8, 7, 6, 5, 4, 3, 2, 1])
        );
        // `usize` is widened to 64 bits, so its digest does not depend on
        // the host's pointer width.
        assert_eq!(hashed(&0x0a0busize), le(&0x0a0bu64.to_le_bytes()));
        assert_eq!(hashed(&0x0a0bu16), le(&[0x0b, 0x0a]));
        assert_eq!(hashed(&-2i32), le(&(-2i32).to_le_bytes()));
    }

    #[test]
    fn hash_writes_an_enum_discriminant_as_64_bits() {
        #[derive(Hash)]
        enum Tag {
            _First,
            Second,
        }
        assert_eq!(hashed(&Tag::Second), Fnv1a::hash_bytes(&1i64.to_le_bytes()));
    }

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
