//! Runtime-selectable hash algorithm used throughout the provenance stack.
//!
//! The paper's implementation used `MessageDigest("SHA")` (SHA-1, 20-byte
//! digests). [`HashAlgorithm`] lets the whole stack switch between SHA-1
//! (paper fidelity) and SHA-256 (modern default for new deployments) with a
//! single configuration value.

use crate::sha1::{Sha1, SHA1_OUTPUT_LEN};
use crate::sha256::{Sha256, SHA256_OUTPUT_LEN};
use std::fmt;

/// A digest value stored inline (length + fixed buffer, no heap
/// allocation).
///
/// The provenance hash cache holds one digest per database node; storing
/// them as `Vec<u8>` costs an allocation and a pointer chase per node,
/// which dominates the economical-mode hot path. `Digest` is 33 bytes of
/// plain data and `Copy`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest {
    len: u8,
    bytes: [u8; SHA256_OUTPUT_LEN],
}

impl Digest {
    /// Wraps raw digest bytes.
    ///
    /// # Panics
    /// Panics if `bytes` is longer than 32 bytes.
    pub(crate) fn from_slice(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= SHA256_OUTPUT_LEN, "digest too long");
        let mut out = Digest {
            len: bytes.len() as u8,
            bytes: [0u8; SHA256_OUTPUT_LEN],
        };
        out.bytes[..bytes.len()].copy_from_slice(bytes);
        out
    }

    /// The digest bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Copies the digest into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Digest length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` for a zero-length digest (never produced by hashing).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<[u8; SHA1_OUTPUT_LEN]> for Digest {
    fn from(bytes: [u8; SHA1_OUTPUT_LEN]) -> Self {
        Digest::from_slice(&bytes)
    }
}

impl From<[u8; SHA256_OUTPUT_LEN]> for Digest {
    fn from(bytes: [u8; SHA256_OUTPUT_LEN]) -> Self {
        Digest {
            len: SHA256_OUTPUT_LEN as u8,
            bytes,
        }
    }
}

impl PartialEq<[u8]> for Digest {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", crate::hex::to_hex(self.as_slice()))
    }
}

/// Supported cryptographic hash functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum HashAlgorithm {
    /// SHA-1 — what the paper used; kept for reproduction fidelity.
    Sha1,
    /// SHA-256 — the recommended algorithm for new deployments.
    #[default]
    Sha256,
}

impl HashAlgorithm {
    /// Digest length in bytes.
    pub fn output_len(self) -> usize {
        match self {
            HashAlgorithm::Sha1 => SHA1_OUTPUT_LEN,
            HashAlgorithm::Sha256 => SHA256_OUTPUT_LEN,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(self, data: &[u8]) -> Vec<u8> {
        match self {
            HashAlgorithm::Sha1 => Sha1::digest(data).to_vec(),
            HashAlgorithm::Sha256 => Sha256::digest(data).to_vec(),
        }
    }

    /// One-shot digest of `data` as an inline [`Digest`] (no allocation).
    pub fn digest_fixed(self, data: &[u8]) -> Digest {
        match self {
            HashAlgorithm::Sha1 => Sha1::digest(data).into(),
            HashAlgorithm::Sha256 => Sha256::digest(data).into(),
        }
    }

    /// Starts an incremental hasher for this algorithm.
    pub fn hasher(self) -> Hasher {
        match self {
            HashAlgorithm::Sha1 => Hasher::Sha1(Sha1::new()),
            HashAlgorithm::Sha256 => Hasher::Sha256(Sha256::new()),
        }
    }

    /// Stable on-disk identifier (used in storage headers).
    pub fn wire_id(self) -> u8 {
        match self {
            HashAlgorithm::Sha1 => 1,
            HashAlgorithm::Sha256 => 2,
        }
    }

    /// Inverse of [`Self::wire_id`].
    pub fn from_wire_id(id: u8) -> Option<Self> {
        match id {
            1 => Some(HashAlgorithm::Sha1),
            2 => Some(HashAlgorithm::Sha256),
            _ => None,
        }
    }
}

/// Incremental hasher over a runtime-selected algorithm.
#[derive(Clone)]
pub enum Hasher {
    /// SHA-1 state.
    Sha1(Sha1),
    /// SHA-256 state.
    Sha256(Sha256),
}

impl Hasher {
    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        match self {
            Hasher::Sha1(h) => h.update(data),
            Hasher::Sha256(h) => h.update(data),
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(self) -> Vec<u8> {
        match self {
            Hasher::Sha1(h) => h.finalize().to_vec(),
            Hasher::Sha256(h) => h.finalize().to_vec(),
        }
    }

    /// Finishes and returns the digest inline (no allocation).
    pub fn finalize_fixed(self) -> Digest {
        match self {
            Hasher::Sha1(h) => h.finalize().into(),
            Hasher::Sha256(h) => h.finalize().into(),
        }
    }

    /// The algorithm this hasher runs.
    pub fn algorithm(&self) -> HashAlgorithm {
        match self {
            Hasher::Sha1(_) => HashAlgorithm::Sha1,
            Hasher::Sha256(_) => HashAlgorithm::Sha256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_lengths() {
        assert_eq!(HashAlgorithm::Sha1.output_len(), 20);
        assert_eq!(HashAlgorithm::Sha256.output_len(), 32);
        assert_eq!(HashAlgorithm::Sha1.digest(b"x").len(), 20);
        assert_eq!(HashAlgorithm::Sha256.digest(b"x").len(), 32);
    }

    #[test]
    fn incremental_matches_oneshot() {
        for alg in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            let mut h = alg.hasher();
            h.update(b"hello ");
            h.update(b"world");
            assert_eq!(h.finalize(), alg.digest(b"hello world"));
        }
    }

    #[test]
    fn wire_id_roundtrip() {
        for alg in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            assert_eq!(HashAlgorithm::from_wire_id(alg.wire_id()), Some(alg));
        }
        assert_eq!(HashAlgorithm::from_wire_id(0), None);
        assert_eq!(HashAlgorithm::from_wire_id(99), None);
    }

    #[test]
    fn fixed_digest_matches_vec() {
        for alg in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            let fixed = alg.digest_fixed(b"inline");
            assert_eq!(fixed.as_slice(), alg.digest(b"inline").as_slice());
            assert_eq!(fixed.len(), alg.output_len());
            assert!(!fixed.is_empty());
        }
        assert_ne!(
            HashAlgorithm::Sha256.digest_fixed(b"a"),
            HashAlgorithm::Sha256.digest_fixed(b"b")
        );
    }

    #[test]
    fn algorithm_accessor() {
        assert_eq!(
            HashAlgorithm::Sha1.hasher().algorithm(),
            HashAlgorithm::Sha1
        );
        assert_eq!(
            HashAlgorithm::Sha256.hasher().algorithm(),
            HashAlgorithm::Sha256
        );
    }
}
