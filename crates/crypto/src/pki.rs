//! A simulated public-key infrastructure.
//!
//! The paper assumes "a suitable public-key infrastructure, and that each
//! participant is authenticated by a certificate authority" (§2.3). This
//! module provides that substrate: a [`CertificateAuthority`] that issues
//! [`Certificate`]s binding participant identities to RSA public keys, a
//! [`KeyDirectory`] a data recipient uses to resolve and validate signer
//! keys, and a [`Participant`] handle bundling an identity with its signing
//! key.

use crate::digest::HashAlgorithm;
use crate::rsa::{KeyPair, RsaError, RsaPublicKey};
use rand::RngCore;
use std::collections::HashMap;
use std::fmt;
use tep_obs::{Counter, Histogram, Registry};

/// Signer-side instrumentation: `tep_crypto_sign_ns` latency,
/// `tep_crypto_sign_total`, and the shared `tep_crypto_modpow_total`
/// (one private-key modular exponentiation per signature).
#[derive(Clone)]
struct SignObs {
    sign_ns: Histogram,
    signs: Counter,
    modpow: Counter,
}

impl SignObs {
    fn new(registry: &Registry) -> Self {
        SignObs {
            sign_ns: registry.latency_histogram("tep_crypto_sign_ns"),
            signs: registry.counter("tep_crypto_sign_total"),
            modpow: registry.counter("tep_crypto_modpow_total"),
        }
    }
}

/// Recipient-side instrumentation: `tep_crypto_verify_ns` latency,
/// `tep_crypto_verify_total`, and the shared `tep_crypto_modpow_total`
/// (one public-key modular exponentiation per verification).
#[derive(Clone)]
struct VerifyObs {
    verify_ns: Histogram,
    verifies: Counter,
    modpow: Counter,
}

impl VerifyObs {
    fn new(registry: &Registry) -> Self {
        VerifyObs {
            verify_ns: registry.latency_histogram("tep_crypto_verify_ns"),
            verifies: registry.counter("tep_crypto_verify_total"),
            modpow: registry.counter("tep_crypto_modpow_total"),
        }
    }
}

/// Identity of a participant (user, process, transaction, …).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParticipantId(pub u64);

impl fmt::Display for ParticipantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Errors from PKI operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PkiError {
    /// The certificate's CA signature did not verify.
    BadCertificate(ParticipantId),
    /// No certificate registered for this participant.
    UnknownParticipant(ParticipantId),
    /// Underlying RSA failure.
    Rsa(RsaError),
}

impl fmt::Display for PkiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PkiError::BadCertificate(p) => write!(f, "certificate for {p} failed verification"),
            PkiError::UnknownParticipant(p) => write!(f, "no certificate for participant {p}"),
            PkiError::Rsa(e) => write!(f, "rsa error: {e}"),
        }
    }
}

impl std::error::Error for PkiError {}

impl From<RsaError> for PkiError {
    fn from(e: RsaError) -> Self {
        PkiError::Rsa(e)
    }
}

/// A certificate binding a [`ParticipantId`] to an RSA public key, signed by
/// the certificate authority.
#[derive(Clone, Debug)]
pub struct Certificate {
    subject: ParticipantId,
    public_key: RsaPublicKey,
    ca_signature: Vec<u8>,
}

impl Certificate {
    /// The participant this certificate vouches for.
    pub fn subject(&self) -> ParticipantId {
        self.subject
    }

    /// The certified public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public_key
    }

    /// Canonical signed payload: `subject || public_key`.
    fn payload(subject: ParticipantId, key: &RsaPublicKey) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"TEP-CERT\x01");
        out.extend_from_slice(&subject.0.to_be_bytes());
        out.extend_from_slice(&key.to_bytes());
        out
    }

    /// Verifies the CA signature against `ca_key`.
    pub fn verify(&self, alg: HashAlgorithm, ca_key: &RsaPublicKey) -> Result<(), PkiError> {
        let payload = Self::payload(self.subject, &self.public_key);
        ca_key
            .verify(alg, &payload, &self.ca_signature)
            .map_err(|_| PkiError::BadCertificate(self.subject))
    }

    /// Stable byte encoding: `subject || len(key) || key || len(sig) || sig`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let key = self.public_key.to_bytes();
        let mut out = Vec::with_capacity(16 + key.len() + self.ca_signature.len());
        out.extend_from_slice(&self.subject.0.to_be_bytes());
        out.extend_from_slice(&(key.len() as u32).to_be_bytes());
        out.extend_from_slice(&key);
        out.extend_from_slice(&(self.ca_signature.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.ca_signature);
        out
    }

    /// Inverse of [`Self::to_bytes`]; returns the certificate and the
    /// remaining input.
    pub fn from_bytes(bytes: &[u8]) -> Option<(Self, &[u8])> {
        if bytes.len() < 8 {
            return None;
        }
        let subject = ParticipantId(u64::from_be_bytes(bytes[..8].try_into().ok()?));
        let rest = &bytes[8..];
        let (key_bytes, rest) = read_u32_prefixed(rest)?;
        let public_key = RsaPublicKey::from_bytes(key_bytes)?;
        let (sig, rest) = read_u32_prefixed(rest)?;
        Some((
            Certificate {
                subject,
                public_key,
                ca_signature: sig.to_vec(),
            },
            rest,
        ))
    }
}

fn read_u32_prefixed(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
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

/// A serializable bundle of trust material: the CA public key plus a set of
/// participant certificates — what a data recipient needs to verify
/// provenance, packaged for distribution as a single blob/file.
#[derive(Clone, Debug)]
pub struct Keyring {
    ca_key: RsaPublicKey,
    alg: HashAlgorithm,
    certs: Vec<Certificate>,
}

impl Keyring {
    /// Creates a keyring trusting `ca_key`.
    pub fn new(ca_key: RsaPublicKey, alg: HashAlgorithm) -> Self {
        Keyring {
            ca_key,
            alg,
            certs: Vec::new(),
        }
    }

    /// Adds a certificate (validated against the CA on
    /// [`Self::into_directory`], not here).
    pub fn add(&mut self, cert: Certificate) {
        self.certs.push(cert);
    }

    /// Number of certificates.
    pub fn len(&self) -> usize {
        self.certs.len()
    }

    /// `true` when the keyring holds no certificates.
    pub fn is_empty(&self) -> bool {
        self.certs.is_empty()
    }

    /// Byte encoding: magic, algorithm, CA key, cert count, certs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let ca = self.ca_key.to_bytes();
        let mut out = Vec::new();
        out.extend_from_slice(b"TEPKEYS\x01");
        out.push(self.alg.wire_id());
        out.extend_from_slice(&(ca.len() as u32).to_be_bytes());
        out.extend_from_slice(&ca);
        out.extend_from_slice(&(self.certs.len() as u32).to_be_bytes());
        for cert in &self.certs {
            out.extend_from_slice(&cert.to_bytes());
        }
        out
    }

    /// Inverse of [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let rest = bytes.strip_prefix(b"TEPKEYS\x01")?;
        let (&alg_id, rest) = rest.split_first()?;
        let alg = HashAlgorithm::from_wire_id(alg_id)?;
        let (ca_bytes, rest) = read_u32_prefixed(rest)?;
        let ca_key = RsaPublicKey::from_bytes(ca_bytes)?;
        if rest.len() < 4 {
            return None;
        }
        let count = u32::from_be_bytes(rest[..4].try_into().ok()?) as usize;
        let mut rest = &rest[4..];
        // At least 16 bytes per certificate: the bytes left bound the reservation.
        let mut certs = Vec::with_capacity(count.min(rest.len() / 16));
        for _ in 0..count {
            let (cert, r) = Certificate::from_bytes(rest)?;
            certs.push(cert);
            rest = r;
        }
        if !rest.is_empty() {
            return None;
        }
        Some(Keyring { ca_key, alg, certs })
    }

    /// Validates every certificate and builds a [`KeyDirectory`].
    pub fn into_directory(self) -> Result<KeyDirectory, PkiError> {
        let mut dir = KeyDirectory::new(self.ca_key, self.alg);
        for cert in self.certs {
            dir.register(cert)?;
        }
        Ok(dir)
    }

    /// The hash algorithm the keyring's signatures use.
    pub fn algorithm(&self) -> HashAlgorithm {
        self.alg
    }
}

/// A certificate authority: generates its own key pair and signs
/// participant certificates.
pub struct CertificateAuthority {
    keypair: KeyPair,
    alg: HashAlgorithm,
}

impl CertificateAuthority {
    /// Creates a CA with a fresh `bits`-bit RSA key.
    pub fn new(bits: usize, alg: HashAlgorithm, rng: &mut dyn RngCore) -> Self {
        CertificateAuthority {
            keypair: KeyPair::generate(bits, rng),
            alg,
        }
    }

    /// The CA's public key, distributed out-of-band to recipients.
    pub fn public_key(&self) -> &RsaPublicKey {
        self.keypair.public()
    }

    /// The hash algorithm this CA signs with.
    pub fn algorithm(&self) -> HashAlgorithm {
        self.alg
    }

    /// Issues a certificate for `subject`'s `public_key`.
    pub fn issue(&self, subject: ParticipantId, public_key: &RsaPublicKey) -> Certificate {
        let payload = Certificate::payload(subject, public_key);
        let ca_signature = self
            .keypair
            .sign(self.alg, &payload)
            .expect("CA key is large enough for its own digest");
        Certificate {
            subject,
            public_key: public_key.clone(),
            ca_signature,
        }
    }

    /// Convenience: generates a key pair for `subject` and certifies it.
    pub fn enroll(
        &self,
        subject: ParticipantId,
        key_bits: usize,
        rng: &mut dyn RngCore,
    ) -> Participant {
        let keypair = KeyPair::generate(key_bits, rng);
        let certificate = self.issue(subject, keypair.public());
        Participant {
            id: subject,
            keypair,
            certificate,
            obs: None,
        }
    }
}

/// A participant: identity, signing key, and CA-issued certificate.
#[derive(Clone)]
pub struct Participant {
    id: ParticipantId,
    keypair: KeyPair,
    certificate: Certificate,
    obs: Option<SignObs>,
}

impl Participant {
    /// The participant's identity.
    pub fn id(&self) -> ParticipantId {
        self.id
    }

    /// The participant's key pair.
    pub fn keypair(&self) -> &KeyPair {
        &self.keypair
    }

    /// The CA-issued certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.certificate
    }

    /// Signs `message` with the participant's key.
    pub fn sign(&self, alg: HashAlgorithm, message: &[u8]) -> Result<Vec<u8>, RsaError> {
        let timer = self.obs.as_ref().map(|o| o.sign_ns.start_timer());
        let sig = self.keypair.sign(alg, message)?;
        drop(timer);
        if let Some(o) = &self.obs {
            o.signs.inc();
            o.modpow.inc();
        }
        Ok(sig)
    }

    /// Attaches metric instrumentation; subsequent [`Participant::sign`]
    /// calls record `tep_crypto_sign_*` into `registry`.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = Some(SignObs::new(registry));
    }
}

impl fmt::Debug for Participant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Participant")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

/// The recipient-side key directory: validates certificates against the CA
/// key and resolves participant → public key for checksum verification.
#[derive(Clone)]
pub struct KeyDirectory {
    ca_key: RsaPublicKey,
    alg: HashAlgorithm,
    certs: HashMap<ParticipantId, Certificate>,
    obs: Option<VerifyObs>,
}

impl KeyDirectory {
    /// Creates a directory trusting `ca_key`.
    pub fn new(ca_key: RsaPublicKey, alg: HashAlgorithm) -> Self {
        KeyDirectory {
            ca_key,
            alg,
            certs: HashMap::new(),
            obs: None,
        }
    }

    /// Attaches metric instrumentation; subsequent
    /// [`KeyDirectory::verify_signature`] calls record `tep_crypto_verify_*`
    /// into `registry`.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = Some(VerifyObs::new(registry));
    }

    /// Resolves `p`'s public key and checks `signature` over `message`,
    /// recording verification latency when instrumentation is attached.
    pub fn verify_signature(
        &self,
        p: ParticipantId,
        alg: HashAlgorithm,
        message: &[u8],
        signature: &[u8],
    ) -> Result<(), PkiError> {
        let key = self.public_key(p)?;
        let timer = self.obs.as_ref().map(|o| o.verify_ns.start_timer());
        let outcome = key.verify(alg, message, signature);
        drop(timer);
        if let Some(o) = &self.obs {
            o.verifies.inc();
            o.modpow.inc();
        }
        outcome.map_err(PkiError::from)
    }

    /// Registers a certificate after verifying the CA signature.
    pub fn register(&mut self, cert: Certificate) -> Result<(), PkiError> {
        cert.verify(self.alg, &self.ca_key)?;
        self.certs.insert(cert.subject(), cert);
        Ok(())
    }

    /// Resolves a participant's verified public key.
    pub fn public_key(&self, p: ParticipantId) -> Result<&RsaPublicKey, PkiError> {
        self.certs
            .get(&p)
            .map(Certificate::public_key)
            .ok_or(PkiError::UnknownParticipant(p))
    }

    /// Number of registered participants.
    pub fn len(&self) -> usize {
        self.certs.len()
    }

    /// `true` when no certificates are registered.
    pub fn is_empty(&self) -> bool {
        self.certs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    fn setup() -> (CertificateAuthority, StdRng) {
        let mut rng = StdRng::seed_from_u64(11);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        (ca, rng)
    }

    #[test]
    fn enroll_and_verify_certificate() {
        let (ca, mut rng) = setup();
        let p = ca.enroll(ParticipantId(1), 512, &mut rng);
        p.certificate().verify(ALG, ca.public_key()).unwrap();
        assert_eq!(p.certificate().subject(), ParticipantId(1));
    }

    #[test]
    fn forged_certificate_rejected() {
        let (ca, mut rng) = setup();
        let rogue_ca = CertificateAuthority::new(512, ALG, &mut rng);
        let p = rogue_ca.enroll(ParticipantId(2), 512, &mut rng);
        assert_eq!(
            p.certificate().verify(ALG, ca.public_key()),
            Err(PkiError::BadCertificate(ParticipantId(2)))
        );
    }

    #[test]
    fn certificate_subject_swap_rejected() {
        let (ca, mut rng) = setup();
        let p = ca.enroll(ParticipantId(3), 512, &mut rng);
        let mut cert = p.certificate().clone();
        cert.subject = ParticipantId(4); // claim someone else's key binding
        assert!(cert.verify(ALG, ca.public_key()).is_err());
    }

    #[test]
    fn directory_register_and_lookup() {
        let (ca, mut rng) = setup();
        let p1 = ca.enroll(ParticipantId(1), 512, &mut rng);
        let p2 = ca.enroll(ParticipantId(2), 512, &mut rng);
        let mut dir = KeyDirectory::new(ca.public_key().clone(), ALG);
        assert!(dir.is_empty());
        dir.register(p1.certificate().clone()).unwrap();
        dir.register(p2.certificate().clone()).unwrap();
        assert_eq!(dir.len(), 2);
        assert_eq!(
            dir.public_key(ParticipantId(1)).unwrap(),
            p1.keypair().public()
        );
        assert_eq!(
            dir.public_key(ParticipantId(9)),
            Err(PkiError::UnknownParticipant(ParticipantId(9)))
        );
    }

    #[test]
    fn directory_rejects_untrusted_cert() {
        let (ca, mut rng) = setup();
        let rogue = CertificateAuthority::new(512, ALG, &mut rng);
        let p = rogue.enroll(ParticipantId(5), 512, &mut rng);
        let mut dir = KeyDirectory::new(ca.public_key().clone(), ALG);
        assert!(dir.register(p.certificate().clone()).is_err());
        assert!(dir.is_empty());
    }

    #[test]
    fn certificate_bytes_roundtrip() {
        let (ca, mut rng) = setup();
        let p = ca.enroll(ParticipantId(9), 512, &mut rng);
        let bytes = p.certificate().to_bytes();
        let (cert, rest) = Certificate::from_bytes(&bytes).unwrap();
        assert!(rest.is_empty());
        assert_eq!(cert.subject(), ParticipantId(9));
        assert_eq!(cert.public_key(), p.keypair().public());
        cert.verify(ALG, ca.public_key()).unwrap();
        // Truncation fails cleanly.
        assert!(Certificate::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn keyring_roundtrip_and_validation() {
        let (ca, mut rng) = setup();
        let p1 = ca.enroll(ParticipantId(1), 512, &mut rng);
        let p2 = ca.enroll(ParticipantId(2), 512, &mut rng);
        let mut ring = Keyring::new(ca.public_key().clone(), ALG);
        assert!(ring.is_empty());
        ring.add(p1.certificate().clone());
        ring.add(p2.certificate().clone());
        let bytes = ring.to_bytes();
        let back = Keyring::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.algorithm(), ALG);
        let dir = back.into_directory().unwrap();
        assert_eq!(dir.len(), 2);
        assert_eq!(
            dir.public_key(ParticipantId(1)).unwrap(),
            p1.keypair().public()
        );
        // Corrupt bytes rejected.
        assert!(Keyring::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(Keyring::from_bytes(b"not a keyring").is_none());
    }

    #[test]
    fn keyring_with_a_padded_ca_modulus_is_refused() {
        let (ca, mut rng) = setup();
        let p = ca.enroll(ParticipantId(1), 512, &mut rng);
        let mut ring = Keyring::new(ca.public_key().clone(), ALG);
        ring.add(p.certificate().clone());
        let bytes = ring.to_bytes();
        // The CA modulus behind a leading zero byte, its length raised by
        // one: the same key under a second encoding.
        let key = ca.public_key().to_bytes();
        let n_len = u32::from_be_bytes(key[..4].try_into().unwrap());
        let mut padded = (n_len + 1).to_be_bytes().to_vec();
        padded.push(0);
        padded.extend_from_slice(&key[4..]);
        assert!(RsaPublicKey::from_bytes(&padded).is_none());
        let mut forged = bytes[..9].to_vec();
        forged.extend_from_slice(&(padded.len() as u32).to_be_bytes());
        forged.extend_from_slice(&padded);
        forged.extend_from_slice(&bytes[13 + key.len()..]);
        assert!(Keyring::from_bytes(&forged).is_none());
    }

    #[test]
    fn keyring_with_rogue_cert_fails_directory_build() {
        let (ca, mut rng) = setup();
        let rogue = CertificateAuthority::new(512, ALG, &mut rng);
        let eve = rogue.enroll(ParticipantId(6), 512, &mut rng);
        let mut ring = Keyring::new(ca.public_key().clone(), ALG);
        ring.add(eve.certificate().clone());
        assert!(ring.into_directory().is_err());
    }

    #[test]
    fn participant_signature_verifies_via_directory() {
        let (ca, mut rng) = setup();
        let p = ca.enroll(ParticipantId(1), 512, &mut rng);
        let mut dir = KeyDirectory::new(ca.public_key().clone(), ALG);
        dir.register(p.certificate().clone()).unwrap();
        let sig = p.sign(ALG, b"record").unwrap();
        dir.public_key(p.id())
            .unwrap()
            .verify(ALG, b"record", &sig)
            .unwrap();
    }
}
