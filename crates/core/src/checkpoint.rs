//! Trust anchors: closing the chain-tail rollback boundary.
//!
//! Pure checksum chaining (this paper's scheme, like Hasan et al.'s) has a
//! documented boundary: an attacker who controls the chain **tail** can
//! truncate the most recent records *and* roll the data object back to the
//! older matching state — to a first-time recipient the shortened history
//! is indistinguishable from one where the later operations never happened.
//!
//! A [`TrustAnchor`] closes that gap for any recipient who has seen the
//! object before (or receives an anchor out-of-band): it pins the
//! `(object, seqID, checksum)` of a record known to be genuine. At the next
//! verification, the provenance must still *contain* that exact record —
//! truncation or splicing across the anchor becomes detectable
//! ([`TamperEvidence::AnchorViolation`](crate::verify::TamperEvidence::AnchorViolation)).
//! This is the natural "remember-the-head" extension the paper leaves as
//! engineering.
//!
//! ## Sealed compaction checkpoints
//!
//! A [`Checkpoint`] turns the same idea into a *server-side* commitment
//! that makes log compaction safe: it captures the shard-tree root over
//! the whole object space plus a [`TrustAnchor`] per object (its chain
//! head), stamped with the cumulative record count. Once
//! [sealed](Checkpoint::seal) by the serving participant, records at or
//! before the checkpoint can be truncated into a cold archive — a later
//! recipient verifies the surviving chain *through* the checkpoint: a
//! chain-start whose predecessor was excised resolves structurally and
//! cryptographically against the anchored checksum, so R2/R3 continuity is
//! attested across the compaction boundary instead of silently waived. A
//! checkpoint that conflicts with the presented records (or whose seal
//! fails) is `CheckpointMismatch`.
//!
//! This module holds the types and their encodings only. Both checks are
//! inputs to the one verifier fold in [`crate::verify`]
//! ([`Verifier::verify_with_anchors`](crate::verify::Verifier::verify_with_anchors),
//! [`Verifier::verify_through_checkpoint`](crate::verify::Verifier::verify_through_checkpoint)).

use crate::merkle::shard_tree_of;
use crate::provenance::ProvenanceObject;
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{KeyDirectory, Participant, ParticipantId};
use tep_model::codec_structs;
use tep_model::encode::{Framed, List};
use tep_model::ObjectId;
use tep_storage::ProvenanceDb;

/// Magic prefix of the [`TrustAnchor`] encoding.
const ANCHOR_MAGIC: &[u8] = b"TEPANCH\x01";
/// Magic prefix of the [`Checkpoint`] encoding. The sealed verifier
/// checkpoint (`crate::streaming`) opens with the same bytes.
const CKPT_MAGIC: &[u8] = b"TEPCKPT\x01";

codec_structs! {
    /// A remembered chain position for one object. Its bytes are how a
    /// recipient persists anchors client-side.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct TrustAnchor magic ANCHOR_MAGIC impl to_bytes, from_bytes {
        /// The anchored object.
        pub oid: ObjectId,
        /// `seqID` of the trusted record.
        pub seq: u64,
        /// Exact checksum bytes of the trusted record.
        pub checksum: Vec<u8>,
    }

    /// A compaction checkpoint: the forest-wide shard root plus one
    /// [`TrustAnchor`] per object (its chain head at capture time), stamped
    /// with the cumulative record count the checkpoint covers.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Checkpoint magic CKPT_MAGIC impl to_bytes, from_bytes {
        /// Hash algorithm of the tree and anchors.
        pub alg: HashAlgorithm,
        /// Cumulative records covered: every record appended before this
        /// checkpoint, across all prior compaction generations. Monotonic —
        /// the high-water mark compaction truncates up to.
        pub log_records: u64,
        /// Leaves under `tree_root`.
        pub leaf_count: u64,
        /// Root of the [`ShardTree`](crate::merkle::ShardTree) over the whole
        /// object space at capture time.
        pub tree_root: Vec<u8>,
        /// Chain head of every object, sorted by object id.
        pub anchors: Vec<TrustAnchor> as List<4, Framed<TrustAnchor>>,
    }

    /// A [`Checkpoint`] signed by the compacting participant — the artifact
    /// persisted beside the log (and referenced by digest from the compaction
    /// stamp) that makes truncation attributable.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SealedCheckpoint impl to_bytes, from_bytes {
        /// The sealed checkpoint.
        pub checkpoint: Checkpoint as Framed<Checkpoint>,
        /// Who sealed it.
        pub signer: ParticipantId,
        /// Signature over the domain-tagged checkpoint digest.
        pub sig: Vec<u8>,
    }
}

impl TrustAnchor {
    /// Captures an anchor at the most recent record of a (just verified)
    /// provenance object. Returns `None` if there are no records.
    pub fn capture(prov: &ProvenanceObject) -> Option<TrustAnchor> {
        prov.latest().map(|r| TrustAnchor {
            oid: r.output_oid,
            seq: r.seq_id,
            checksum: r.checksum.clone(),
        })
    }
}

/// Domain separator for checkpoint seals.
const CKPT_SIGN_TAG: &[u8] = b"tep-ckpt-sign\x01";

impl Checkpoint {
    /// Captures a checkpoint over `db`'s current state. `prior_records`
    /// is the cumulative record count excised by earlier compactions
    /// (`0` for a never-compacted log); the checkpoint covers
    /// `prior_records + db.len()` records.
    pub fn capture(alg: HashAlgorithm, db: &ProvenanceDb, prior_records: u64) -> Checkpoint {
        let tree = shard_tree_of(alg, db);
        let anchors = db
            .object_ids()
            .into_iter()
            .filter_map(|oid| {
                db.latest_for(oid).map(|r| TrustAnchor {
                    oid,
                    seq: r.seq_id,
                    checksum: r.checksum,
                })
            })
            .collect();
        Checkpoint {
            alg,
            log_records: prior_records + db.len() as u64,
            tree_root: tree.root(),
            leaf_count: tree.leaf_count(),
            anchors,
        }
    }

    /// Digest of the canonical encoding — what the seal signs and what
    /// compaction stamps into the archive/log headers, binding both to
    /// this exact checkpoint.
    pub fn digest(&self) -> Vec<u8> {
        self.alg.digest(&self.to_bytes())
    }

    /// Seals the checkpoint under `signer`'s key.
    pub fn seal(self, signer: &Participant) -> Result<SealedCheckpoint, crate::error::CoreError> {
        let msg = seal_message(&self.digest());
        let sig = signer
            .sign(self.alg, &msg)
            .map_err(crate::error::CoreError::Rsa)?;
        Ok(SealedCheckpoint {
            signer: signer.id(),
            sig,
            checkpoint: self,
        })
    }
}

fn seal_message(digest: &[u8]) -> Vec<u8> {
    let mut m = Vec::with_capacity(CKPT_SIGN_TAG.len() + digest.len());
    m.extend_from_slice(CKPT_SIGN_TAG);
    m.extend_from_slice(digest);
    m
}

impl SealedCheckpoint {
    /// Verifies the seal against the key directory.
    pub fn verify(&self, keys: &KeyDirectory) -> bool {
        let msg = seal_message(&self.checkpoint.digest());
        keys.verify_signature(self.signer, self.checkpoint.alg, &msg, &self.sig)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicLedger;
    use crate::hashing::hash_atom;
    use crate::verify::{TamperEvidence, Verifier};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use tep_crypto::digest::HashAlgorithm;
    use tep_crypto::pki::{CertificateAuthority, KeyDirectory, Participant, ParticipantId};
    use tep_model::Value;
    use tep_storage::ProvenanceDb;

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    fn world() -> (AtomicLedger, KeyDirectory, Participant, Participant) {
        let mut rng = StdRng::seed_from_u64(3);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
        let bob = ca.enroll(ParticipantId(2), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        keys.register(alice.certificate().clone()).unwrap();
        keys.register(bob.certificate().clone()).unwrap();
        let ledger = AtomicLedger::new(ALG, Arc::new(ProvenanceDb::in_memory()));
        (ledger, keys, alice, bob)
    }

    #[test]
    fn anchor_roundtrips() {
        let anchor = TrustAnchor {
            oid: ObjectId(7),
            seq: 42,
            checksum: vec![1, 2, 3, 4],
        };
        let bytes = anchor.to_bytes();
        assert_eq!(TrustAnchor::from_bytes(&bytes).unwrap(), anchor);
        assert!(TrustAnchor::from_bytes(&bytes[..10]).is_err());
        assert!(TrustAnchor::from_bytes(b"garbage-").is_err());
    }

    #[test]
    fn honest_growth_past_anchor_verifies() {
        let (mut ledger, keys, alice, bob) = world();
        let doc = ledger.insert(&alice, Value::Int(0)).unwrap();
        ledger.update(&bob, doc, Value::Int(1)).unwrap();

        // Recipient verifies at seq 1 and captures an anchor.
        let prov = ledger.provenance_of(doc).unwrap();
        let hash = ledger.object_hash(doc).unwrap();
        let verifier = Verifier::new(&keys, ALG);
        assert!(verifier.verify(&hash, &prov).verified());
        let anchor = TrustAnchor::capture(&prov).unwrap();
        assert_eq!(anchor.seq, 1);

        // The history continues; later verification with the anchor passes.
        ledger.update(&alice, doc, Value::Int(2)).unwrap();
        let prov2 = ledger.provenance_of(doc).unwrap();
        let hash2 = ledger.object_hash(doc).unwrap();
        let v = verifier.verify_with_anchors(&hash2, &prov2, &[anchor]);
        assert!(v.verified(), "issues: {:?}", v.issues);
    }

    #[test]
    fn tail_truncation_rollback_now_detected() {
        // The boundary case that plain verification cannot catch: truncate
        // the newest records AND roll the data back to match.
        let (mut ledger, keys, alice, bob) = world();
        let doc = ledger.insert(&alice, Value::Int(0)).unwrap();
        ledger.update(&bob, doc, Value::Int(1)).unwrap();

        // Recipient anchors at seq 1.
        let prov = ledger.provenance_of(doc).unwrap();
        let anchor = TrustAnchor::capture(&prov).unwrap();

        // More history happens…
        ledger.update(&alice, doc, Value::Int(2)).unwrap();
        ledger.update(&bob, doc, Value::Int(3)).unwrap();

        // …then the attacker truncates back to seq 0 and rolls the data
        // back to value 0.
        let mut truncated = ledger.provenance_of(doc).unwrap();
        truncated.records.retain(|r| r.seq_id == 0);
        let rolled_back_hash = hash_atom(ALG, doc, &Value::Int(0));

        let verifier = Verifier::new(&keys, ALG);
        // WITHOUT the anchor this verifies — the documented boundary.
        assert!(verifier.verify(&rolled_back_hash, &truncated).verified());
        // WITH the anchor it is caught.
        let v = verifier.verify_with_anchors(&rolled_back_hash, &truncated, &[anchor]);
        assert!(v
            .issues
            .iter()
            .any(|i| matches!(i, TamperEvidence::AnchorViolation { seq: 1, .. })));
    }

    #[test]
    fn resigned_anchor_record_detected() {
        // A colluder re-signs the anchored record itself: the checksum bytes
        // change, so the anchor no longer matches.
        let (mut ledger, keys, alice, _bob) = world();
        let doc = ledger.insert(&alice, Value::Int(0)).unwrap();
        ledger.update(&alice, doc, Value::Int(1)).unwrap();
        let prov = ledger.provenance_of(doc).unwrap();
        let anchor = TrustAnchor::capture(&prov).unwrap();

        ledger.update(&alice, doc, Value::Int(2)).unwrap();
        let mut tampered = ledger.provenance_of(doc).unwrap();
        // Simulate a splice that replaced the anchored record's checksum.
        crate::attack::collusion_splice(&mut tampered, ALG, doc, 0, 2, &alice).unwrap();
        // (splice removed seq 1, re-signed seq 2 → anchor at seq 1 is gone)
        let hash = ledger.object_hash(doc).unwrap();
        let verifier = Verifier::new(&keys, ALG);
        let v = verifier.verify_with_anchors(&hash, &tampered, &[anchor]);
        assert!(v
            .issues
            .iter()
            .any(|i| matches!(i, TamperEvidence::AnchorViolation { .. })));
    }

    #[test]
    fn anchor_for_unrelated_object_is_checked_independently() {
        let (mut ledger, keys, alice, _bob) = world();
        let a = ledger.insert(&alice, Value::Int(0)).unwrap();
        let b = ledger.insert(&alice, Value::Int(9)).unwrap();
        let prov_b = ledger.provenance_of(b).unwrap();
        let anchor_b = TrustAnchor::capture(&prov_b).unwrap();

        // Verifying A's provenance with B's anchor: B's record is not in
        // A's provenance object → anchor violation (the caller should pass
        // only anchors relevant to the delivered object).
        let prov_a = ledger.provenance_of(a).unwrap();
        let hash_a = ledger.object_hash(a).unwrap();
        let v = Verifier::new(&keys, ALG).verify_with_anchors(&hash_a, &prov_a, &[anchor_b]);
        assert!(!v.verified());
    }
}
