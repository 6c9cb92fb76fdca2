//! FNV-1a 64: the one content hash of the workspace.
//!
//! Certificate digests, `.logrel-cache` checksums, subspec unit hashes
//! and the service's compilation-cache keys all hash with it, so their
//! bytes stay comparable across crates and releases.

use std::fmt::Write;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with FNV-1a 64.
#[inline]
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut w = FnvWriter::new();
    w.write_bytes(bytes);
    w.finish()
}

/// Streams formatted text straight into an FNV-1a 64 state: hashing a
/// canonical text without ever materialising it. Writing the same
/// characters yields the same hash as [`fnv1a`] over the collected
/// string.
#[derive(Debug)]
pub struct FnvWriter {
    hash: u64,
    len: usize,
}

impl FnvWriter {
    /// A writer over the empty string.
    #[must_use]
    pub fn new() -> Self {
        Self {
            hash: FNV_OFFSET,
            len: 0,
        }
    }

    /// The hash of everything written so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.hash
    }

    /// `true` if nothing has been written (hashed text is empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Folds raw bytes into the state — for hashing binary material
    /// (other hashes, separators) without formatting it as text.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.len += bytes.len();
        let mut h = self.hash;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.hash = h;
    }
}

impl Default for FnvWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl Write for FnvWriter {
    #[inline]
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}
