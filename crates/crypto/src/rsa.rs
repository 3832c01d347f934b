//! RSA signatures (PKCS#1 v1.5) built on [`crate::bignum`].
//!
//! This is the `S_SKp(·)` primitive of the paper: hash the message, encode
//! the digest with EMSA-PKCS1-v1_5, and apply the private-key operation.
//! Signing uses the Chinese Remainder Theorem for a ~4× speedup — the
//! signature cost dominates every checksum the provenance layer produces, so
//! this matters for the Figure 8/10 reproductions.
//!
//! Both directions are one [`MontgomeryCtx::modpow`] (two for CRT) plus a
//! fixed handful of allocations for the byte ↔ integer conversions: the
//! exponentiation itself runs in stack buffers at the width compiled for
//! the key size (8 / 16 limbs for an RSA-1024 prime / modulus), and the
//! contexts live on the keys, immutable, so keys shared by `Arc` across
//! verifier threads need no lock.
//!
//! A 1024-bit key yields 128-byte signatures, matching the paper's
//! `Checksum binary(128)` column byte-for-byte.

use crate::bignum::{gen_prime, BigUint, MontgomeryCtx};
use crate::digest::HashAlgorithm;
use rand::RngCore;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Widest signature whose verification runs in stack buffers (2048 bits).
const STACK_BYTES: usize = 256;

/// Errors from RSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// Message representative is too large for the modulus.
    MessageTooLong,
    /// Signature failed verification.
    BadSignature,
    /// Key parameters are unusable (e.g. modulus too small for the padding).
    InvalidKey(&'static str),
}

impl fmt::Display for RsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsaError::MessageTooLong => write!(f, "message representative exceeds modulus"),
            RsaError::BadSignature => write!(f, "signature verification failed"),
            RsaError::InvalidKey(why) => write!(f, "invalid RSA key: {why}"),
        }
    }
}

impl std::error::Error for RsaError {}

/// DER DigestInfo prefix for SHA-1 (RFC 8017 §9.2 note 1).
const SHA1_PREFIX: &[u8] = &[
    0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04, 0x14,
];

/// DER DigestInfo prefix for SHA-256.
const SHA256_PREFIX: &[u8] = &[
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

fn digest_info_prefix(alg: HashAlgorithm) -> &'static [u8] {
    match alg {
        HashAlgorithm::Sha1 => SHA1_PREFIX,
        HashAlgorithm::Sha256 => SHA256_PREFIX,
    }
}

/// An RSA public key `(n, e)`.
///
/// Carries a lazily built, `Arc`-shared Montgomery context for the modulus:
/// the first verification pays the context setup (one long division for
/// `R² mod n`) and every subsequent verification — including through clones,
/// e.g. a `KeyDirectory` fanned out across verifier threads — reuses it.
#[derive(Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    verify_ctx: Arc<OnceLock<MontgomeryCtx>>,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaPublicKey")
            .field("n", &self.n)
            .field("e", &self.e)
            .finish()
    }
}

impl RsaPublicKey {
    /// Constructs from raw components.
    pub fn new(n: BigUint, e: BigUint) -> Self {
        RsaPublicKey {
            n,
            e,
            verify_ctx: Arc::new(OnceLock::new()),
        }
    }

    /// Modulus size in bytes (also the signature length).
    pub(crate) fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// The modulus `n`.
    pub fn n(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn e(&self) -> &BigUint {
        &self.e
    }

    /// Verifies a PKCS#1 v1.5 signature over `message`.
    ///
    /// The expected EMSA-PKCS1-v1_5 block is built and compared with the
    /// recovered one over all `k` bytes; the recovered block is never
    /// parsed, because a lenient parse accepts forgeries. Both blocks live
    /// in stack buffers up to a 2048-bit modulus, so a verification
    /// allocates nothing.
    pub fn verify(
        &self,
        alg: HashAlgorithm,
        message: &[u8],
        signature: &[u8],
    ) -> Result<(), RsaError> {
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(RsaError::BadSignature);
        }
        let (mut stack, mut heap) = ([0u8; 2 * STACK_BYTES], Vec::new());
        let (em, expected) = if 2 * k <= stack.len() {
            &mut stack[..2 * k]
        } else {
            heap.resize(2 * k, 0);
            &mut heap[..]
        }
        .split_at_mut(k);
        // Well-formed RSA moduli are odd products of two primes; hostile or
        // corrupted key material (even / degenerate n) takes the total
        // fallback path instead of panicking in the Montgomery setup.
        if self.n.is_even() || self.n.is_one() {
            let s = BigUint::from_bytes_be(signature);
            if s >= self.n {
                return Err(RsaError::BadSignature);
            }
            let recovered = s.modpow(&self.e, &self.n).to_bytes_be_padded(k);
            em.copy_from_slice(&recovered.ok_or(RsaError::BadSignature)?);
        } else {
            let ctx = self.verify_ctx.get_or_init(|| MontgomeryCtx::new(&self.n));
            if !ctx.pow_be_bytes(signature, &self.e, em) {
                return Err(RsaError::BadSignature);
            }
        }
        emsa_pkcs1_v15_encode(alg, message, expected)?;
        if em == expected {
            Ok(())
        } else {
            Err(RsaError::BadSignature)
        }
    }

    /// Stable byte encoding: `len(n) || n || len(e) || e` (u32-BE lengths).
    pub fn to_bytes(&self) -> Vec<u8> {
        let nb = self.n.to_bytes_be();
        let eb = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(8 + nb.len() + eb.len());
        out.extend_from_slice(&(nb.len() as u32).to_be_bytes());
        out.extend_from_slice(&nb);
        out.extend_from_slice(&(eb.len() as u32).to_be_bytes());
        out.extend_from_slice(&eb);
        out
    }

    /// Inverse of [`Self::to_bytes`]. A component with a leading zero byte,
    /// which the encoding never writes, is refused: one key, one encoding.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (n, rest) = read_len_prefixed(bytes)?;
        let (e, rest) = read_len_prefixed(rest)?;
        if !rest.is_empty() || n.first() == Some(&0) || e.first() == Some(&0) {
            return None;
        }
        Some(RsaPublicKey::new(
            BigUint::from_bytes_be(n),
            BigUint::from_bytes_be(e),
        ))
    }
}

fn read_len_prefixed(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    if bytes.len() < 4 {
        return None;
    }
    let len = u32::from_be_bytes(bytes[..4].try_into().ok()?) as usize;
    let rest = &bytes[4..];
    if rest.len() < len {
        return None;
    }
    Some((&rest[..len], &rest[len..]))
}

/// An RSA private key with CRT parameters.
///
/// Wrapped in [`Arc`] by [`KeyPair`] so participants can share it cheaply
/// across threads.
#[derive(Clone)]
pub(crate) struct RsaPrivateKey {
    public: RsaPublicKey,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    /// Montgomery contexts for `p` and `q`, precomputed at key generation:
    /// every CRT signing operation reuses them instead of re-deriving
    /// `R² mod p` / `R² mod q` (a long division each) per signature.
    ctx_p: MontgomeryCtx,
    ctx_q: MontgomeryCtx,
}

impl fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print secret material.
        f.debug_struct("RsaPrivateKey")
            .field("modulus_bits", &self.public.n.bit_len())
            .finish_non_exhaustive()
    }
}

impl RsaPrivateKey {
    /// The corresponding public key.
    pub(crate) fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Signs `message` with PKCS#1 v1.5 over the given hash.
    pub(crate) fn sign(&self, alg: HashAlgorithm, message: &[u8]) -> Result<Vec<u8>, RsaError> {
        let k = self.public.modulus_len();
        let mut em = vec![0u8; k];
        emsa_pkcs1_v15_encode(alg, message, &mut em)?;
        let m = BigUint::from_bytes_be(&em);
        if m >= self.public.n {
            return Err(RsaError::MessageTooLong);
        }
        let s = self.private_op(&m);
        s.to_bytes_be_padded(k).ok_or(RsaError::MessageTooLong)
    }

    /// Raw private-key operation `m^d mod n` via CRT.
    fn private_op(&self, m: &BigUint) -> BigUint {
        let m1 = self.ctx_p.modpow(m, &self.dp);
        let m2 = self.ctx_q.modpow(m, &self.dq);
        // h = qinv·(m1 - m2) mod p, guarding the subtraction against underflow.
        let m2_mod_p = m2.rem_ref(&self.p);
        let diff = if m1 >= m2_mod_p {
            m1.sub_ref(&m2_mod_p)
        } else {
            m1.add_ref(&self.p).sub_ref(&m2_mod_p)
        };
        let h = self.qinv.mul_ref(&diff).rem_ref(&self.p);
        m2.add_ref(&h.mul_ref(&self.q))
    }
}

/// An RSA key pair; cloning shares the underlying key material.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use tep_crypto::{HashAlgorithm, KeyPair};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let kp = KeyPair::generate(512, &mut rng);
/// let sig = kp.sign(HashAlgorithm::Sha256, b"provenance record").unwrap();
/// assert!(kp.public().verify(HashAlgorithm::Sha256, b"provenance record", &sig).is_ok());
/// assert!(kp.public().verify(HashAlgorithm::Sha256, b"forged", &sig).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct KeyPair {
    secret: Arc<RsaPrivateKey>,
}

impl KeyPair {
    /// Generates a fresh key pair with a `bits`-bit modulus (e = 65537).
    ///
    /// # Panics
    /// Panics if `bits < 512` (the PKCS#1 v1.5 padding needs the room, and
    /// anything smaller is toy-sized even for tests).
    pub fn generate(bits: usize, rng: &mut dyn RngCore) -> Self {
        assert!(bits >= 512, "RSA modulus must be at least 512 bits");
        let e = BigUint::from_u64(65537);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul_ref(&q);
            if n.bit_len() != bits {
                continue;
            }
            let one = BigUint::one();
            let phi = p.sub_ref(&one).mul_ref(&q.sub_ref(&one));
            let Some(d) = e.modinv(&phi) else {
                continue; // gcd(e, phi) != 1; extremely rare — new primes.
            };
            let dp = d.rem_ref(&p.sub_ref(&one));
            let dq = d.rem_ref(&q.sub_ref(&one));
            let Some(qinv) = q.modinv(&p) else {
                continue;
            };
            let public = RsaPublicKey::new(n, e.clone());
            let ctx_p = MontgomeryCtx::new(&p);
            let ctx_q = MontgomeryCtx::new(&q);
            return KeyPair {
                secret: Arc::new(RsaPrivateKey {
                    public,
                    p,
                    q,
                    dp,
                    dq,
                    qinv,
                    ctx_p,
                    ctx_q,
                }),
            };
        }
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        self.secret.public()
    }

    /// Signs `message` with PKCS#1 v1.5 over the given hash.
    pub fn sign(&self, alg: HashAlgorithm, message: &[u8]) -> Result<Vec<u8>, RsaError> {
        self.secret.sign(alg, message)
    }
}

/// EMSA-PKCS1-v1_5 encoding (RFC 8017 §9.2) into `em`, whose length is
/// the block's: `EM = 0x00 || 0x01 || 0xFF…FF || 0x00 || DigestInfo`.
fn emsa_pkcs1_v15_encode(
    alg: HashAlgorithm,
    message: &[u8],
    em: &mut [u8],
) -> Result<(), RsaError> {
    let hash = alg.digest_fixed(message);
    let prefix = digest_info_prefix(alg);
    let t_len = prefix.len() + hash.len();
    if em.len() < t_len + 11 {
        return Err(RsaError::InvalidKey("modulus too small for digest info"));
    }
    let (padding, t) = em.split_at_mut(em.len() - t_len);
    padding.fill(0xff);
    padding[0] = 0x00;
    padding[1] = 0x01;
    padding[padding.len() - 1] = 0x00;
    let (p, h) = t.split_at_mut(prefix.len());
    p.copy_from_slice(prefix);
    h.copy_from_slice(hash.as_slice());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> KeyPair {
        let mut rng = StdRng::seed_from_u64(7);
        KeyPair::generate(512, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        for alg in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            let sig = kp.sign(alg, b"provenance record").unwrap();
            assert_eq!(sig.len(), kp.public().modulus_len());
            kp.public().verify(alg, b"provenance record", &sig).unwrap();
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = keypair();
        let sig = kp.sign(HashAlgorithm::Sha256, b"original").unwrap();
        assert_eq!(
            kp.public().verify(HashAlgorithm::Sha256, b"forged", &sig),
            Err(RsaError::BadSignature)
        );
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = keypair();
        let mut sig = kp.sign(HashAlgorithm::Sha256, b"msg").unwrap();
        sig[10] ^= 0x01;
        assert_eq!(
            kp.public().verify(HashAlgorithm::Sha256, b"msg", &sig),
            Err(RsaError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = keypair();
        let mut rng = StdRng::seed_from_u64(99);
        let kp2 = KeyPair::generate(512, &mut rng);
        let sig = kp1.sign(HashAlgorithm::Sha256, b"msg").unwrap();
        assert!(kp2
            .public()
            .verify(HashAlgorithm::Sha256, b"msg", &sig)
            .is_err());
    }

    #[test]
    fn wrong_hash_algorithm_rejected() {
        let kp = keypair();
        let sig = kp.sign(HashAlgorithm::Sha1, b"msg").unwrap();
        assert!(kp
            .public()
            .verify(HashAlgorithm::Sha256, b"msg", &sig)
            .is_err());
    }

    #[test]
    fn wrong_length_signature_rejected() {
        let kp = keypair();
        let sig = kp.sign(HashAlgorithm::Sha256, b"msg").unwrap();
        assert!(kp
            .public()
            .verify(HashAlgorithm::Sha256, b"msg", &sig[..sig.len() - 1])
            .is_err());
        let mut long = sig.clone();
        long.push(0);
        assert!(kp
            .public()
            .verify(HashAlgorithm::Sha256, b"msg", &long)
            .is_err());
    }

    /// The private exponent `d`, re-derived from `p` and `q`: the CRT path
    /// is checked against plain `m^d mod n`, which signing never needs.
    fn private_exponent(key: &RsaPrivateKey) -> BigUint {
        let one = BigUint::one();
        let phi = key.p.sub_ref(&one).mul_ref(&key.q.sub_ref(&one));
        key.public.e.modinv(&phi).expect("e is invertible mod phi")
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        // 512 bits: 4-limb primes, 8-limb modulus; 1024 bits: 8 and 16.
        for bits in [512, 1024] {
            let kp = KeyPair::generate(bits, &mut StdRng::seed_from_u64(7));
            let m = BigUint::from_hex("123456789abcdef00fedcba987654321").unwrap();
            let d = private_exponent(&kp.secret);
            let crt = kp.secret.private_op(&m);
            let plain = m.modpow(&d, kp.public().n());
            assert_eq!(crt, plain, "{bits}-bit key");
            assert_eq!(plain, m.modpow_naive(&d, kp.public().n()));
        }
    }

    #[test]
    fn known_answer_seeded_1024_bit_key() {
        // Key generation draws from the RNG in a fixed order and PKCS#1 v1.5
        // is deterministic, so a seeded key pins its signatures. The expected
        // digests are not this kernel's own output: they were produced by the
        // run-time-width one it replaced (commit aedf44b), so a bug at the
        // 8- or 16-limb width fails here, in this crate's own tests.
        let kp = KeyPair::generate(1024, &mut StdRng::seed_from_u64(2009));
        let sha256_hex = |bytes: &[u8]| crate::hex::to_hex(&crate::sha256::Sha256::digest(bytes));
        assert_eq!(
            sha256_hex(&kp.public().to_bytes()),
            "759ccdb74757f18969656ab90cac72edd7c4c58eeed178700d736bb9ad01fb48"
        );
        for (alg, expected) in [
            (
                HashAlgorithm::Sha1,
                "5c988421f836468b8a215a8c7ff4370dd7ea0bbefbc418fdbba9d6d819a1581e",
            ),
            (
                HashAlgorithm::Sha256,
                "8e6875f1754b3709d1e4e5e1c40bdeae0cfbad9e5d5f62cd0f079905336546d1",
            ),
        ] {
            let sig = kp.sign(alg, b"tamper-evident provenance").unwrap();
            assert_eq!(sha256_hex(&sig), expected, "{alg:?}");
            kp.public()
                .verify(alg, b"tamper-evident provenance", &sig)
                .unwrap();
        }
    }

    #[test]
    fn signature_length_tracks_modulus() {
        let mut rng = StdRng::seed_from_u64(3);
        let kp = KeyPair::generate(1024, &mut rng);
        let sig = kp.sign(HashAlgorithm::Sha1, b"x").unwrap();
        // 1024-bit key → 128-byte signature, matching the paper's binary(128).
        assert_eq!(sig.len(), 128);
    }

    #[test]
    fn emsa_layout() {
        let mut em = [0u8; 128];
        emsa_pkcs1_v15_encode(HashAlgorithm::Sha256, b"data", &mut em).unwrap();
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        let sep = em.iter().skip(2).position(|&b| b == 0x00).unwrap() + 2;
        assert!(em[2..sep].iter().all(|&b| b == 0xff));
        assert!(sep - 2 >= 8, "at least 8 bytes of 0xFF padding");
        assert_eq!(&em[sep + 1..sep + 1 + SHA256_PREFIX.len()], SHA256_PREFIX);
    }

    #[test]
    fn emsa_rejects_tiny_modulus() {
        assert!(matches!(
            emsa_pkcs1_v15_encode(HashAlgorithm::Sha256, b"data", &mut [0u8; 32]),
            Err(RsaError::InvalidKey(_))
        ));
    }

    /// A signature whose block differs from the expected one in any single
    /// byte is refused: the block is compared whole, never parsed. Each
    /// changed block is signed with the private key, so only the block
    /// check can refuse it.
    #[test]
    fn every_single_byte_change_of_the_block_is_refused() {
        for (bits, alg) in [(512, HashAlgorithm::Sha256), (1024, HashAlgorithm::Sha1)] {
            let kp = KeyPair::generate(bits, &mut StdRng::seed_from_u64(11));
            let (public, k) = (kp.public(), kp.public().modulus_len());
            let mut valid = vec![0u8; k];
            emsa_pkcs1_v15_encode(alg, b"msg", &mut valid).unwrap();
            let sign_block = |em: &[u8]| {
                let m = BigUint::from_bytes_be(em);
                (m < *public.n()).then(|| kp.secret.private_op(&m).to_bytes_be_padded(k).unwrap())
            };
            public
                .verify(alg, b"msg", &sign_block(&valid).unwrap())
                .unwrap();
            let mut refused = 0;
            for at in 0..k {
                for change in [0x01u8, 0x80, 0xff] {
                    let mut em = valid.clone();
                    em[at] ^= change;
                    let Some(sig) = sign_block(&em) else { continue };
                    assert_eq!(
                        public.verify(alg, b"msg", &sig),
                        Err(RsaError::BadSignature),
                        "{bits}-bit key, byte {at} ^ {change:#04x}"
                    );
                    refused += 1;
                }
            }
            // Only a changed leading byte can push the block past n.
            assert!(refused >= 3 * (k - 1), "{bits}-bit key: {refused} refused");
        }
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        let kp = keypair();
        let bytes = kp.public().to_bytes();
        let back = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&back, kp.public());
        assert!(RsaPublicKey::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(RsaPublicKey::from_bytes(&[0, 0]).is_none());
    }

    #[test]
    fn deterministic_signatures() {
        // PKCS#1 v1.5 signing is deterministic — same message, same signature.
        let kp = keypair();
        let s1 = kp.sign(HashAlgorithm::Sha256, b"m").unwrap();
        let s2 = kp.sign(HashAlgorithm::Sha256, b"m").unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn debug_does_not_leak_secrets() {
        let kp = keypair();
        let dbg = format!("{:?}", kp.secret);
        assert!(dbg.contains("modulus_bits"));
        assert!(!dbg.contains(&kp.secret.p.to_hex()));
    }
}
