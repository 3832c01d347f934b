//! # tep-crypto
//!
//! From-scratch cryptographic substrate for tamper-evident database
//! provenance: the primitives the paper assumes in §2.3 ("a suitable
//! public-key infrastructure", cryptographic hash functions, and public-key
//! signatures), implemented without external crypto dependencies.
//!
//! * [`bignum`] — arbitrary-precision unsigned integers with Montgomery
//!   modular exponentiation and Miller–Rabin prime generation.
//! * `sha1` / [`sha256`] — FIPS-180 hash functions; [`digest`] selects
//!   between them at runtime.
//! * [`rsa`] — PKCS#1 v1.5 signatures with CRT acceleration (the `S_SKp(·)`
//!   primitive of every provenance checksum).
//! * [`pki`] — simulated certificate authority, participant enrollment, and
//!   the recipient-side key directory.
//!
//! SHA-1 and 1024-bit RSA are supported for fidelity with the paper's 2009
//! evaluation (20-byte digests, 128-byte checksums); SHA-256 and 2048-bit
//! keys are the recommended defaults for anything real.

#![warn(unreachable_pub)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bignum;
pub mod digest;
pub mod hex;
pub mod pki;
pub mod rsa;
pub(crate) mod sha1;
pub mod sha256;

pub use bignum::BigUint;
pub use digest::{HashAlgorithm, Hasher};
pub use pki::{
    Certificate, CertificateAuthority, KeyDirectory, Keyring, Participant, ParticipantId, PkiError,
};
pub use rsa::{KeyPair, RsaError, RsaPublicKey};
