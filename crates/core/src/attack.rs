//! Attack toolkit: the tamper operations of the threat model (§2.2),
//! packaged so tests and examples can *demonstrate* that each attack is
//! detected (or document the scheme's known boundaries).
//!
//! Nothing here is required in production — it exists to exercise
//! guarantees **R1–R8** end-to-end. Each [`Tamper`] mutates a
//! [`ProvenanceObject`] the way an attacker with write access to the
//! provenance store (or the wire) could.

use crate::provenance::ProvenanceObject;
use crate::record::{checksum_message, ChecksumFormat, InputRef, ProvenanceRecord, RecordKind};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{Participant, ParticipantId};
use tep_crypto::rsa::RsaError;
use tep_model::ObjectId;

/// A tampering action against a provenance object.
#[derive(Clone, Debug)]
pub enum Tamper {
    /// Flip a bit of a record's claimed output hash (falsify what the
    /// operation produced) — targets R1.
    FlipOutputHash {
        /// Record's object.
        oid: ObjectId,
        /// Record's seq.
        seq: u64,
    },
    /// Flip a bit of a record's claimed input hash (falsify what the
    /// operation consumed) — targets R1.
    FlipInputHash {
        /// Record's object.
        oid: ObjectId,
        /// Record's seq.
        seq: u64,
        /// Which input.
        input: usize,
    },
    /// Corrupt the stored checksum itself.
    FlipChecksum {
        /// Record's object.
        oid: ObjectId,
        /// Record's seq.
        seq: u64,
    },
    /// Remove a record entirely — targets R2/R7.
    Remove {
        /// Record's object.
        oid: ObjectId,
        /// Record's seq.
        seq: u64,
    },
    /// Re-attribute a record to a different participant — targets R8.
    Reattribute {
        /// Record's object.
        oid: ObjectId,
        /// Record's seq.
        seq: u64,
        /// New claimed author.
        to: ParticipantId,
    },
}

/// Applies a tamper. Returns `false` if the targeted record was not found
/// (nothing was changed).
pub fn apply_tamper(prov: &mut ProvenanceObject, tamper: &Tamper) -> bool {
    let find = |records: &mut Vec<ProvenanceRecord>, oid: ObjectId, seq: u64| {
        records
            .iter_mut()
            .position(|r| r.output_oid == oid && r.seq_id == seq)
    };
    match *tamper {
        Tamper::FlipOutputHash { oid, seq } => {
            let Some(i) = find(&mut prov.records, oid, seq) else {
                return false;
            };
            prov.records[i].output_hash[0] ^= 0x01;
            true
        }
        Tamper::FlipInputHash { oid, seq, input } => {
            let Some(i) = find(&mut prov.records, oid, seq) else {
                return false;
            };
            let Some(inp) = prov.records[i].inputs.get_mut(input) else {
                return false;
            };
            inp.hash[0] ^= 0x01;
            true
        }
        Tamper::FlipChecksum { oid, seq } => {
            let Some(i) = find(&mut prov.records, oid, seq) else {
                return false;
            };
            prov.records[i].checksum[0] ^= 0x01;
            true
        }
        Tamper::Remove { oid, seq } => {
            let before = prov.records.len();
            prov.records
                .retain(|r| !(r.output_oid == oid && r.seq_id == seq));
            prov.records.len() != before
        }
        Tamper::Reattribute { oid, seq, to } => {
            let Some(i) = find(&mut prov.records, oid, seq) else {
                return false;
            };
            prov.records[i].participant = to;
            true
        }
    }
}

/// Every single-record tamper applicable to `prov` — used by exhaustive
/// "any mutation is detected" tests.
pub fn all_single_record_tampers(
    prov: &ProvenanceObject,
    reattribute_to: ParticipantId,
) -> Vec<Tamper> {
    let mut out = Vec::new();
    for r in &prov.records {
        let (oid, seq) = (r.output_oid, r.seq_id);
        out.push(Tamper::FlipOutputHash { oid, seq });
        out.push(Tamper::FlipChecksum { oid, seq });
        for input in 0..r.inputs.len() {
            out.push(Tamper::FlipInputHash { oid, seq, input });
        }
        out.push(Tamper::Remove { oid, seq });
        if r.participant != reattribute_to {
            out.push(Tamper::Reattribute {
                oid,
                seq,
                to: reattribute_to,
            });
        }
    }
    out
}

/// The **collusion splice** of R7: two colluding participants remove every
/// record strictly between `keep_seq` and `resign_seq` on `oid`'s chain,
/// and the later colluder re-signs their record so it chains directly to
/// the earlier colluder's.
///
/// If any *non-colluding* participant's record follows `resign_seq`, its
/// signed predecessor checksum no longer matches and verification fails —
/// that is guarantee R7. If the re-signed record is the chain tail, the
/// splice verifies, but the re-signed record is attributable to the
/// colluder (R8's non-repudiation boundary) — the same boundary as in
/// Hasan et al.'s chain scheme.
pub fn collusion_splice(
    prov: &mut ProvenanceObject,
    alg: HashAlgorithm,
    oid: ObjectId,
    keep_seq: u64,
    resign_seq: u64,
    late_colluder: &Participant,
) -> Result<(), RsaError> {
    // Remove victims between the colluders.
    prov.records
        .retain(|r| r.output_oid != oid || r.seq_id <= keep_seq || r.seq_id >= resign_seq);
    // The earlier colluder's checksum to chain from.
    let prev_checksum = prov
        .record(oid, keep_seq)
        .expect("keep_seq record must exist")
        .checksum
        .clone();
    let idx = prov
        .records
        .iter()
        .position(|r| r.output_oid == oid && r.seq_id == resign_seq)
        .expect("resign_seq record must exist");

    // Rewrite the later colluder's record: it now claims the earlier
    // colluder's output as its input and re-signs accordingly.
    let input_hash = prov
        .record(oid, keep_seq)
        .expect("checked above")
        .output_hash
        .clone();
    let rec = &mut prov.records[idx];
    rec.participant = late_colluder.id();
    rec.inputs = vec![InputRef {
        oid,
        hash: input_hash,
        prev_seq: Some(keep_seq),
    }];
    let msg = checksum_message(
        alg,
        rec.kind,
        rec.seq_id,
        &rec.inputs,
        rec.output_oid,
        &rec.output_hash,
        &rec.annotation,
        &[&prev_checksum],
    );
    rec.checksum = late_colluder.sign(alg, &msg)?;
    rec.checksum_format = ChecksumFormat::PerRecord;
    Ok(())
}

/// A forged insertion (R3/R6): the attacker crafts a record claiming an
/// operation at `(oid, seq)` and signs it with *their own* key (they cannot
/// forge anyone else's). The verifier catches it as a fork/dangling record
/// — or as a bad signature if the attacker re-attributes it.
pub fn forge_insertion(
    prov: &mut ProvenanceObject,
    alg: HashAlgorithm,
    attacker: &Participant,
    oid: ObjectId,
    seq: u64,
    fake_output_hash: Vec<u8>,
) -> Result<(), RsaError> {
    // Chain from whatever record precedes the insertion point, if any.
    let prev = prov
        .records
        .iter()
        .filter(|r| r.output_oid == oid && r.seq_id < seq)
        .max_by_key(|r| r.seq_id)
        .map(|r| (r.seq_id, r.checksum.clone(), r.output_hash.clone()));
    let (inputs, prev_checksums): (Vec<InputRef>, Vec<Vec<u8>>) = match &prev {
        Some((pseq, pchk, phash)) => (
            vec![InputRef {
                oid,
                hash: phash.clone(),
                prev_seq: Some(*pseq),
            }],
            vec![pchk.clone()],
        ),
        None => (Vec::new(), Vec::new()),
    };
    let kind = if inputs.is_empty() {
        RecordKind::Insert
    } else {
        RecordKind::Update
    };
    let prev_refs: Vec<&[u8]> = prev_checksums.iter().map(Vec::as_slice).collect();
    let msg = checksum_message(
        alg,
        kind,
        seq,
        &inputs,
        oid,
        &fake_output_hash,
        &[],
        &prev_refs,
    );
    let checksum = attacker.sign(alg, &msg)?;
    prov.records.push(ProvenanceRecord {
        seq_id: seq,
        participant: attacker.id(),
        kind,
        inputs,
        output_oid: oid,
        output_hash: fake_output_hash,
        annotation: Vec::new(),
        checksum,
        checksum_format: ChecksumFormat::PerRecord,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicLedger;
    use crate::verify::{TamperEvidence, Verifier};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use tep_crypto::pki::{CertificateAuthority, KeyDirectory};
    use tep_model::Value;
    use tep_storage::ProvenanceDb;

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    struct World {
        ledger: AtomicLedger,
        keys: KeyDirectory,
        alice: Participant,
        bob: Participant,
        mallory: Participant,
    }

    fn world() -> World {
        let mut rng = StdRng::seed_from_u64(666);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
        let bob = ca.enroll(ParticipantId(2), 512, &mut rng);
        let mallory = ca.enroll(ParticipantId(3), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        for p in [&alice, &bob, &mallory] {
            keys.register(p.certificate().clone()).unwrap();
        }
        World {
            ledger: AtomicLedger::new(ALG, Arc::new(ProvenanceDb::in_memory())),
            keys,
            alice,
            bob,
            mallory,
        }
    }

    /// A five-step history: alice inserts, bob/alice/bob update, alice updates.
    fn history(w: &mut World) -> ObjectId {
        let a = w.ledger.insert(&w.alice, Value::Int(0)).unwrap();
        w.ledger.update(&w.bob, a, Value::Int(1)).unwrap();
        w.ledger.update(&w.alice, a, Value::Int(2)).unwrap();
        w.ledger.update(&w.bob, a, Value::Int(3)).unwrap();
        w.ledger.update(&w.alice, a, Value::Int(4)).unwrap();
        a
    }

    #[test]
    fn every_single_record_tamper_is_detected() {
        let mut w = world();
        let a = history(&mut w);
        let clean = w.ledger.provenance_of(a).unwrap();
        let hash = w.ledger.object_hash(a).unwrap();
        let verifier = Verifier::new(&w.keys, ALG);
        assert!(verifier.verify(&hash, &clean).verified());

        for tamper in all_single_record_tampers(&clean, w.mallory.id()) {
            let mut tampered = clean.clone();
            assert!(apply_tamper(&mut tampered, &tamper), "{tamper:?} applied");
            let v = verifier.verify(&hash, &tampered);
            assert!(!v.verified(), "tamper {tamper:?} went undetected");
        }
    }

    #[test]
    fn r7_collusion_splice_detected_with_honest_successor() {
        let mut w = world();
        // alice(0) bob(1) alice(2) bob(3) alice(4):
        // colluders alice(seq 0) and alice(seq 2) splice out bob's seq 1...
        let a = history(&mut w);
        let mut prov = w.ledger.provenance_of(a).unwrap();
        collusion_splice(&mut prov, ALG, a, 0, 2, &w.alice).unwrap();
        // ...but bob's honest record at seq 3 still chains to alice's
        // ORIGINAL seq-2 checksum → detected.
        let hash = w.ledger.object_hash(a).unwrap();
        let v = Verifier::new(&w.keys, ALG).verify(&hash, &prov);
        assert!(!v.verified());
        assert!(v
            .issues
            .iter()
            .any(|i| matches!(i, TamperEvidence::BadSignature { seq: 3, .. })));
    }

    #[test]
    fn r7_boundary_tail_splice_verifies_but_is_attributable() {
        // Known boundary (same as Hasan et al.): if the re-signing colluder
        // owns the chain TAIL and the data matches their claimed output,
        // the splice verifies — but the record is signed by the colluder,
        // so responsibility is non-repudiable (R8).
        let mut w = world();
        let a = history(&mut w); // tail is alice's seq 4
        let mut prov = w.ledger.provenance_of(a).unwrap();
        collusion_splice(&mut prov, ALG, a, 2, 4, &w.alice).unwrap();
        let hash = w.ledger.object_hash(a).unwrap();
        let v = Verifier::new(&w.keys, ALG).verify(&hash, &prov);
        assert!(v.verified(), "tail splice is the documented boundary");
        // The spliced record is attributable to alice — she signed it.
        let spliced = prov.record(a, 4).unwrap();
        assert_eq!(spliced.participant, w.alice.id());
    }

    #[test]
    fn r3_forged_insertion_detected_as_fork_or_dangling() {
        let mut w = world();
        let a = history(&mut w);
        let hash = w.ledger.object_hash(a).unwrap();
        let verifier = Verifier::new(&w.keys, ALG);

        // Forge a record at an OCCUPIED slot → fork (duplicate).
        let mut prov = w.ledger.provenance_of(a).unwrap();
        forge_insertion(&mut prov, ALG, &w.mallory, a, 2, vec![0xAB; 32]).unwrap();
        let v = verifier.verify(&hash, &prov);
        assert!(v
            .issues
            .iter()
            .any(|i| matches!(i, TamperEvidence::DuplicateRecord { seq: 2, .. })));

        // Forge a record BEYOND the tail → it becomes the latest record and
        // the data object no longer matches it.
        let mut prov = w.ledger.provenance_of(a).unwrap();
        forge_insertion(&mut prov, ALG, &w.mallory, a, 9, vec![0xAB; 32]).unwrap();
        let v = verifier.verify(&hash, &prov);
        assert!(!v.verified());
        assert!(v
            .issues
            .iter()
            .any(|i| matches!(i, TamperEvidence::OutputMismatch { .. })));
    }

    #[test]
    fn r6_colluders_cannot_insert_for_noncolluders() {
        // Mallory forges a record and re-attributes it to Bob: Bob's key
        // can't have signed it.
        let mut w = world();
        let a = history(&mut w);
        let mut prov = w.ledger.provenance_of(a).unwrap();
        forge_insertion(&mut prov, ALG, &w.mallory, a, 9, vec![0xAB; 32]).unwrap();
        apply_tamper(
            &mut prov,
            &Tamper::Reattribute {
                oid: a,
                seq: 9,
                to: w.bob.id(),
            },
        );
        let hash = w.ledger.object_hash(a).unwrap();
        let v = Verifier::new(&w.keys, ALG).verify(&hash, &prov);
        assert!(v
            .issues
            .iter()
            .any(|i| matches!(i, TamperEvidence::BadSignature { seq: 9, .. })));
    }

    #[test]
    fn tamper_on_missing_record_reports_not_found() {
        let mut w = world();
        let a = history(&mut w);
        let mut prov = w.ledger.provenance_of(a).unwrap();
        assert!(!apply_tamper(
            &mut prov,
            &Tamper::FlipOutputHash { oid: a, seq: 99 }
        ));
        assert!(!apply_tamper(
            &mut prov,
            &Tamper::Remove {
                oid: ObjectId(12345),
                seq: 0
            }
        ));
        // Input index out of range.
        assert!(!apply_tamper(
            &mut prov,
            &Tamper::FlipInputHash {
                oid: a,
                seq: 0,
                input: 5
            }
        ));
    }
}
