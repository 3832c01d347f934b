//! Provenance records and integrity checksums (§3 of the paper).
//!
//! Each database operation is documented by a [`ProvenanceRecord`]
//! `(seqID, p, {(A₁,v₁)…}, (A,v))` carrying a **checksum**: the acting
//! participant's signature over the record's input hash(es), output hash,
//! and the checksum(s) of the predecessor record(s):
//!
//! ```text
//! insert     C₀ = S_SKp( 0 ‖ h(A,val) ‖ 0 )
//! update     Cᵢ = S_SKp( h(A,val) ‖ h(A,val′) ‖ Cᵢ₋₁ )
//! aggregate  C  = S_SKp( h(h(A₁,v₁)‖…‖h(Aₙ,vₙ)) ‖ h(B,val) ‖ C₁‖…‖Cₙ )
//! ```
//!
//! Rather than raw `‖` concatenation (which is ambiguous when components
//! vary in length), every component of the signed message is
//! length-prefixed under a domain-separation tag — the same binding with
//! none of the splicing ambiguity.
//!
//! **Amortized signing.** The records one operation emits are mutually
//! independent (one per touched object, each chaining onto that object's
//! pre-operation head), so an operation that emits two or more signs
//! **once**: the messages above become the leaves of a Merkle tree, the
//! participant signs its root, and each record's checksum is a
//! [`BatchChecksum`] — its leaf position, sibling path and the root
//! signature — that verifies alone ([`ChecksumFormat::Batched`]).

use crate::merkle::{leaf_hash, ShardTree};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{Participant, ParticipantId};
use tep_crypto::rsa::RsaError;
use tep_model::encode::{DecodeError, Reader};
use tep_model::ObjectId;
use tep_storage::StoredRecord;

/// Wire version of the record body encoding whose checksum is the
/// participant's signature over the record's own [`checksum_message`].
const RECORD_VERSION: u8 = 2;

/// Same body, but the checksum is an encoded [`BatchChecksum`].
const RECORD_VERSION_BATCHED: u8 = 3;

/// Version byte leading every encoded [`BatchChecksum`].
const BATCH_CHECKSUM_VERSION: u8 = 1;

/// Domain tag of every signed checksum message.
const MSG_TAG: &[u8] = b"TEP-CHECKSUM\x01";

/// Domain tag of a batch leaf: the digest of one member's checksum message.
const BATCH_LEAF_TAG: &[u8] = b"TEP-BATCH-LEAF\x01";

/// Domain tag of the one message a batch's signature covers.
const BATCH_ROOT_TAG: &[u8] = b"TEP-BATCH-ROOT\x01";

/// How a record's `checksum` bytes are to be read. Carried explicitly (as
/// the record body's version byte), never inferred from the checksum's
/// length.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChecksumFormat {
    /// The participant's signature over the record's [`checksum_message`]
    /// — the paper's scheme, one signature per record.
    #[default]
    PerRecord,
    /// An encoded [`BatchChecksum`]: the record is one leaf of a Merkle
    /// tree whose root the participant signed once for the whole operation.
    Batched,
}

/// The kind of operation a record documents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A new object came into existence with no inputs.
    Insert,
    /// An existing object's (sub)tree changed — includes *inherited*
    /// records on ancestors (§4.2) and first-touch updates of objects
    /// created inside an aggregation.
    Update,
    /// A new object was produced by combining existing objects (§3) —
    /// the source of non-linear (DAG) provenance.
    Aggregate,
}

impl RecordKind {
    fn wire_id(self) -> u8 {
        match self {
            RecordKind::Insert => 0,
            RecordKind::Update => 1,
            RecordKind::Aggregate => 2,
        }
    }

    fn from_wire_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(RecordKind::Insert),
            1 => Some(RecordKind::Update),
            2 => Some(RecordKind::Aggregate),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::Insert => "insert",
            RecordKind::Update => "update",
            RecordKind::Aggregate => "aggregate",
        }
    }
}

/// One input of a provenance record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InputRef {
    /// The input object.
    pub oid: ObjectId,
    /// `h(A, val)` (atomic) or `h(subtree(A))` (compound) of the input at
    /// operation time.
    pub hash: Vec<u8>,
    /// `seqID` of the input object's then-latest provenance record, whose
    /// checksum is chained into this record's signature. `None` for objects
    /// with no prior record (e.g. nodes materialized inside an aggregation).
    pub prev_seq: Option<u64>,
}

/// A provenance record with its integrity checksum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvenanceRecord {
    /// Position in the output object's chain (§2.1 numbering rules).
    pub seq_id: u64,
    /// Who performed the operation.
    pub participant: ParticipantId,
    /// What kind of operation.
    pub kind: RecordKind,
    /// Inputs in global `ObjectId` order (empty for inserts).
    pub inputs: Vec<InputRef>,
    /// The output object.
    pub output_oid: ObjectId,
    /// Hash of the output object/subtree after the operation.
    pub output_hash: Vec<u8>,
    /// Application-supplied operation annotation, integrity-protected by
    /// the checksum. The paper's footnote 4 observes the scheme "is easily
    /// translated to a provenance model that simply logs the white-box
    /// operations that have been performed" — this is that translation:
    /// put the operation description (SQL text, workflow step, UDF name…)
    /// here and it becomes as tamper-evident as the value hashes. Empty
    /// means no annotation.
    pub annotation: Vec<u8>,
    /// `S_SKp(…)` — the signed integrity checksum.
    pub checksum: Vec<u8>,
    /// How `checksum` is to be read.
    pub checksum_format: ChecksumFormat,
}

/// The checksum of one member of an amortized batch: where its leaf sits
/// in the batch's Merkle tree, the siblings that fold it up to the root,
/// and the participant's one signature over that root.
///
/// Encoding (integers big-endian), self-contained and canonical:
///
/// ```text
/// version(u8 = 1) index(u32) count(u32) sibling* signature
/// ```
///
/// One `sibling` digest per tree level at which the leaf's ancestor has
/// one — which levels those are follows from `(index, count)` alone, so
/// the path needs no length field and cannot exceed ⌈log₂ count⌉ entries.
/// The signature is the remainder, last, so a store can hold the bytes
/// every member of a batch shares once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchChecksum {
    /// Position of this record's leaf.
    pub index: u32,
    /// Leaves in the batch.
    pub count: u32,
    /// Sibling path in [`ShardTree::leaf_path`] form.
    pub path: Vec<Option<Vec<u8>>>,
    /// The participant's signature over the batch's one signed message
    /// (`TEP-BATCH-ROOT`, alg, count, root).
    pub signature: Vec<u8>,
}

/// Domain-separated digest of one member's [`checksum_message`]; the
/// member's leaf is [`leaf_hash`] of its output object and this digest.
fn batch_leaf_digest(alg: HashAlgorithm, message: &[u8]) -> Vec<u8> {
    let mut h = alg.hasher();
    h.update(BATCH_LEAF_TAG);
    h.update(message);
    h.finalize()
}

/// The one message a batch's signature covers.
fn batch_root_message(alg: HashAlgorithm, count: u32, root: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(BATCH_ROOT_TAG.len() + 13 + root.len());
    msg.extend_from_slice(BATCH_ROOT_TAG);
    msg.push(alg.wire_id());
    msg.extend_from_slice(&count.to_be_bytes());
    msg.extend_from_slice(&(root.len() as u64).to_be_bytes());
    msg.extend_from_slice(root);
    msg
}

impl BatchChecksum {
    /// Canonical encoding (see the type docs).
    pub fn encode(&self) -> Vec<u8> {
        let digests: usize = self.path.iter().flatten().map(Vec::len).sum();
        let mut out = Vec::with_capacity(9 + digests + self.signature.len());
        out.push(BATCH_CHECKSUM_VERSION);
        out.extend_from_slice(&self.index.to_be_bytes());
        out.extend_from_slice(&self.count.to_be_bytes());
        for sibling in self.path.iter().flatten() {
            out.extend_from_slice(sibling);
        }
        out.extend_from_slice(&self.signature);
        out
    }

    /// Decodes a checksum whose path digests are `alg`'s. Total on
    /// arbitrary bytes.
    pub fn decode(alg: HashAlgorithm, buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let version = r.u8()?;
        if version != BATCH_CHECKSUM_VERSION {
            return Err(DecodeError::BadTag(version));
        }
        let index = r.u32()?;
        let count = r.u32()?;
        if index >= count {
            return Err(DecodeError::BadTag(0xFD));
        }
        // At most 32 levels: the shape, not the input, sizes the path.
        let mut path = Vec::new();
        let (mut idx, mut width) = (index, count);
        while width > 1 {
            path.push(if idx ^ 1 < width {
                Some(r.bytes(alg.output_len())?.to_vec())
            } else {
                None
            });
            idx >>= 1;
            width = width.div_ceil(2);
        }
        let signature = r.bytes(r.remaining())?.to_vec();
        if signature.is_empty() {
            return Err(DecodeError::UnexpectedEof);
        }
        Ok(BatchChecksum {
            index,
            count,
            path,
            signature,
        })
    }

    /// The message `signature` must verify over if the record with output
    /// object `oid` and checksum message `message` is the member this
    /// checksum claims it is; `None` when the path does not fit the shape.
    pub fn signed_message(
        &self,
        alg: HashAlgorithm,
        oid: ObjectId,
        message: &[u8],
    ) -> Option<Vec<u8>> {
        let root = ShardTree::fold_leaf_path(
            alg,
            self.count.into(),
            self.index.into(),
            &leaf_hash(alg, oid, &batch_leaf_digest(alg, message)),
            &self.path,
        )?;
        Some(batch_root_message(alg, self.count, &root))
    }
}

/// Assembles the canonical byte string the checksum signs.
///
/// `prev_checksums` must be in the same order as `inputs` (and exactly one
/// entry per input that has `prev_seq = Some(_)`).
///
/// Hardening beyond the paper's literal formula: the signed message also
/// binds the record's `seqID` and output object id. The paper secures chain
/// *structure* purely through checksum chaining, which leaves the numeric
/// `seqID` label of a chain's newest record malleable; signing it removes
/// that (harmless but untidy) degree of freedom.
#[allow(clippy::too_many_arguments)] // mirrors the record's field list
pub fn checksum_message(
    alg: HashAlgorithm,
    kind: RecordKind,
    seq_id: u64,
    inputs: &[InputRef],
    output_oid: ObjectId,
    output_hash: &[u8],
    annotation: &[u8],
    prev_checksums: &[&[u8]],
) -> Vec<u8> {
    let mut msg = Vec::with_capacity(128);
    msg.extend_from_slice(MSG_TAG);
    msg.push(alg.wire_id());
    msg.push(kind.wire_id());
    msg.extend_from_slice(&seq_id.to_be_bytes());

    // Input part: 0 for inserts, h(input) for updates, the digest of the
    // concatenated input hashes for aggregates (the paper's inner hash).
    let input_part: Vec<u8> = match kind {
        RecordKind::Insert => Vec::new(),
        RecordKind::Update => inputs.first().map(|i| i.hash.clone()).unwrap_or_default(),
        RecordKind::Aggregate => {
            let mut concat = Vec::new();
            for input in inputs {
                concat.extend_from_slice(&(input.hash.len() as u64).to_be_bytes());
                concat.extend_from_slice(&input.hash);
            }
            alg.digest(&concat)
        }
    };
    msg.extend_from_slice(&(input_part.len() as u64).to_be_bytes());
    msg.extend_from_slice(&input_part);

    msg.extend_from_slice(&output_oid.raw().to_be_bytes());
    msg.extend_from_slice(&(output_hash.len() as u64).to_be_bytes());
    msg.extend_from_slice(output_hash);

    msg.extend_from_slice(&(annotation.len() as u64).to_be_bytes());
    msg.extend_from_slice(annotation);

    msg.extend_from_slice(&(prev_checksums.len() as u64).to_be_bytes());
    for prev in prev_checksums {
        msg.extend_from_slice(&(prev.len() as u64).to_be_bytes());
        msg.extend_from_slice(prev);
    }
    msg
}

impl ProvenanceRecord {
    /// Builds and signs a record.
    ///
    /// `prev_checksums` are the checksums of the records named by each
    /// input's `prev_seq`, in input order (skipping `None`s).
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        alg: HashAlgorithm,
        signer: &Participant,
        kind: RecordKind,
        seq_id: u64,
        inputs: Vec<InputRef>,
        output_oid: ObjectId,
        output_hash: Vec<u8>,
        prev_checksums: &[&[u8]],
    ) -> Result<Self, RsaError> {
        Self::create_annotated(
            alg,
            signer,
            kind,
            seq_id,
            inputs,
            output_oid,
            output_hash,
            Vec::new(),
            prev_checksums,
        )
    }

    /// Like [`Self::create`], additionally binding an application-supplied
    /// operation annotation into the signed checksum (footnote 4's
    /// white-box operation log).
    #[allow(clippy::too_many_arguments)]
    pub fn create_annotated(
        alg: HashAlgorithm,
        signer: &Participant,
        kind: RecordKind,
        seq_id: u64,
        mut inputs: Vec<InputRef>,
        output_oid: ObjectId,
        output_hash: Vec<u8>,
        annotation: Vec<u8>,
        prev_checksums: &[&[u8]],
    ) -> Result<Self, RsaError> {
        inputs.sort_by_key(|i| i.oid);
        let mut record = ProvenanceRecord {
            seq_id,
            participant: signer.id(),
            kind,
            inputs,
            output_oid,
            output_hash,
            annotation,
            checksum: Vec::new(),
            checksum_format: ChecksumFormat::PerRecord,
        };
        record.checksum = signer.sign(alg, &record.message(alg, prev_checksums))?;
        Ok(record)
    }

    /// This record's [`checksum_message`] over the given predecessor
    /// checksums.
    pub fn message(&self, alg: HashAlgorithm, prev_checksums: &[&[u8]]) -> Vec<u8> {
        checksum_message(
            alg,
            self.kind,
            self.seq_id,
            &self.inputs,
            self.output_oid,
            &self.output_hash,
            &self.annotation,
            prev_checksums,
        )
    }

    /// Signs a batch of unsigned records **once**: `messages[i]` is
    /// `records[i]`'s [`Self::message`], the output objects are distinct
    /// and number at most `u32::MAX`, and every record leaves with `signer`
    /// as its participant and a [`BatchChecksum`]. Returns the length of
    /// the signature all those checksums end with.
    pub fn sign_batch(
        alg: HashAlgorithm,
        signer: &Participant,
        records: &mut [ProvenanceRecord],
        messages: &[Vec<u8>],
    ) -> Result<usize, RsaError> {
        let count = u32::try_from(records.len()).expect("batch size fits the u32 leaf count");
        let leaves = records
            .iter()
            .zip(messages)
            .map(|(r, m)| (r.output_oid, batch_leaf_digest(alg, m)))
            .collect();
        let tree = ShardTree::build(alg, leaves);
        let signature = signer.sign(alg, &batch_root_message(alg, count, &tree.root()))?;
        for r in records {
            let index = tree
                .oid_position(r.output_oid)
                .expect("every member is a leaf");
            r.participant = signer.id();
            r.checksum_format = ChecksumFormat::Batched;
            r.checksum = BatchChecksum {
                index: u32::try_from(index).expect("a leaf index is below the u32 count"),
                count,
                path: tree.leaf_path(index).expect("index is in range"),
                signature: signature.clone(),
            }
            .encode();
        }
        Ok(signature.len())
    }

    /// The annotation as UTF-8 text, if it is text.
    pub fn annotation_text(&self) -> Option<&str> {
        if self.annotation.is_empty() {
            None
        } else {
            std::str::from_utf8(&self.annotation).ok()
        }
    }

    /// Serializes for storage as a [`StoredRecord`].
    pub fn to_stored(&self) -> StoredRecord {
        StoredRecord {
            seq_id: self.seq_id,
            participant: self.participant,
            oid: self.output_oid,
            checksum: self.checksum.clone(),
            payload: self.encode_body(),
        }
    }

    /// Reconstructs a record from storage.
    pub fn from_stored(stored: &StoredRecord) -> Result<Self, DecodeError> {
        let mut rec = Self::decode_body(&stored.payload)?;
        rec.checksum = stored.checksum.clone();
        // The storage columns are denormalized copies; trust the payload but
        // keep them consistent for queries.
        rec.seq_id = stored.seq_id;
        rec.participant = stored.participant;
        rec.output_oid = stored.oid;
        Ok(rec)
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.output_hash.len());
        out.push(match self.checksum_format {
            ChecksumFormat::PerRecord => RECORD_VERSION,
            ChecksumFormat::Batched => RECORD_VERSION_BATCHED,
        });
        out.push(self.kind.wire_id());
        out.extend_from_slice(&self.seq_id.to_be_bytes());
        out.extend_from_slice(&self.participant.0.to_be_bytes());
        out.extend_from_slice(&self.output_oid.raw().to_be_bytes());
        out.extend_from_slice(&(self.output_hash.len() as u64).to_be_bytes());
        out.extend_from_slice(&self.output_hash);
        out.extend_from_slice(&(self.annotation.len() as u64).to_be_bytes());
        out.extend_from_slice(&self.annotation);
        out.extend_from_slice(&(self.inputs.len() as u64).to_be_bytes());
        for input in &self.inputs {
            out.extend_from_slice(&input.oid.raw().to_be_bytes());
            out.extend_from_slice(&(input.hash.len() as u64).to_be_bytes());
            out.extend_from_slice(&input.hash);
            match input.prev_seq {
                Some(s) => {
                    out.push(1);
                    out.extend_from_slice(&s.to_be_bytes());
                }
                None => out.push(0),
            }
        }
        out
    }

    fn decode_body(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let checksum_format = match r.u8()? {
            RECORD_VERSION => ChecksumFormat::PerRecord,
            RECORD_VERSION_BATCHED => ChecksumFormat::Batched,
            version => return Err(DecodeError::BadTag(version)),
        };
        let kind = RecordKind::from_wire_id(r.u8()?).ok_or(DecodeError::BadTag(0xFE))?;
        let seq_id = r.u64()?;
        let participant = ParticipantId(r.u64()?);
        let output_oid = ObjectId(r.u64()?);
        let output_hash = r.len_prefixed()?.to_vec();
        let annotation = r.len_prefixed()?.to_vec();
        let input_count = r.u64()? as usize;
        let mut inputs = Vec::with_capacity(input_count.min(1024));
        for _ in 0..input_count {
            let oid = ObjectId(r.u64()?);
            let hash = r.len_prefixed()?.to_vec();
            let prev_seq = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                t => return Err(DecodeError::BadTag(t)),
            };
            inputs.push(InputRef {
                oid,
                hash,
                prev_seq,
            });
        }
        r.expect_end()?;
        Ok(ProvenanceRecord {
            seq_id,
            participant,
            kind,
            inputs,
            output_oid,
            output_hash,
            annotation,
            checksum: Vec::new(),
            checksum_format,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tep_crypto::pki::CertificateAuthority;

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    fn participant(seed: u64, id: u64) -> Participant {
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        ca.enroll(ParticipantId(id), 512, &mut rng)
    }

    fn sample_record(p: &Participant) -> ProvenanceRecord {
        ProvenanceRecord::create(
            ALG,
            p,
            RecordKind::Update,
            3,
            vec![InputRef {
                oid: ObjectId(7),
                hash: vec![0xAA; 32],
                prev_seq: Some(2),
            }],
            ObjectId(7),
            vec![0xBB; 32],
            &[&[0xC0; 64]],
        )
        .unwrap()
    }

    #[test]
    fn create_signs_verifiably() {
        let p = participant(1, 42);
        let rec = sample_record(&p);
        let msg = checksum_message(
            ALG,
            rec.kind,
            rec.seq_id,
            &rec.inputs,
            rec.output_oid,
            &rec.output_hash,
            &[],
            &[&[0xC0; 64]],
        );
        p.keypair()
            .public()
            .verify(ALG, &msg, &rec.checksum)
            .unwrap();
    }

    #[test]
    fn message_differs_per_component() {
        let base_inputs = vec![InputRef {
            oid: ObjectId(7),
            hash: vec![0xAA; 32],
            prev_seq: Some(2),
        }];
        let base = checksum_message(
            ALG,
            RecordKind::Update,
            3,
            &base_inputs,
            ObjectId(7),
            &[0xBB; 32],
            &[],
            &[&[0xC0; 4]],
        );

        // Different input hash.
        let other_inputs = vec![InputRef {
            oid: ObjectId(7),
            hash: vec![0xAC; 32],
            prev_seq: Some(2),
        }];
        assert_ne!(
            checksum_message(
                ALG,
                RecordKind::Update,
                3,
                &other_inputs,
                ObjectId(7),
                &[0xBB; 32],
                &[],
                &[&[0xC0; 4]]
            ),
            base
        );
        // Different output hash.
        assert_ne!(
            checksum_message(
                ALG,
                RecordKind::Update,
                3,
                &base_inputs,
                ObjectId(7),
                &[0xBC; 32],
                &[],
                &[&[0xC0; 4]]
            ),
            base
        );
        // Different output oid.
        assert_ne!(
            checksum_message(
                ALG,
                RecordKind::Update,
                3,
                &base_inputs,
                ObjectId(8),
                &[0xBB; 32],
                &[],
                &[&[0xC0; 4]]
            ),
            base
        );
        // Different previous checksum.
        assert_ne!(
            checksum_message(
                ALG,
                RecordKind::Update,
                3,
                &base_inputs,
                ObjectId(7),
                &[0xBB; 32],
                &[],
                &[&[0xC1; 4]]
            ),
            base
        );
        // Different kind.
        assert_ne!(
            checksum_message(
                ALG,
                RecordKind::Aggregate,
                3,
                &base_inputs,
                ObjectId(7),
                &[0xBB; 32],
                &[],
                &[&[0xC0; 4]]
            ),
            base
        );
    }

    #[test]
    fn insert_message_has_zero_parts() {
        let m = checksum_message(
            ALG,
            RecordKind::Insert,
            3,
            &[],
            ObjectId(1),
            &[0xDD; 32],
            &[],
            &[],
        );
        // Must still bind the output.
        let m2 = checksum_message(
            ALG,
            RecordKind::Insert,
            3,
            &[],
            ObjectId(2),
            &[0xDD; 32],
            &[],
            &[],
        );
        assert_ne!(m, m2);
    }

    #[test]
    fn aggregate_message_depends_on_input_order_canonically() {
        // Inputs are sorted by the constructor, so logically-equal aggregates
        // sign identical messages regardless of caller order.
        let p = participant(2, 1);
        let mk = |order: [u64; 2]| {
            ProvenanceRecord::create(
                ALG,
                &p,
                RecordKind::Aggregate,
                1,
                order
                    .iter()
                    .map(|&o| InputRef {
                        oid: ObjectId(o),
                        hash: vec![o as u8; 32],
                        prev_seq: Some(0),
                    })
                    .collect(),
                ObjectId(99),
                vec![0xEE; 32],
                &[&[1u8; 4], &[2u8; 4]],
            )
            .unwrap()
        };
        let a = mk([1, 2]);
        let b = mk([2, 1]);
        assert_eq!(a.inputs, b.inputs);
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn stored_roundtrip() {
        let p = participant(3, 5);
        let rec = sample_record(&p);
        let stored = rec.to_stored();
        assert_eq!(stored.oid, ObjectId(7));
        assert_eq!(stored.seq_id, 3);
        let back = ProvenanceRecord::from_stored(&stored).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn decode_rejects_corruption() {
        let p = participant(4, 5);
        let rec = sample_record(&p);
        let stored = rec.to_stored();
        // Truncated payload.
        let mut bad = stored.clone();
        bad.payload.truncate(bad.payload.len() - 1);
        assert!(ProvenanceRecord::from_stored(&bad).is_err());
        // Bad version byte.
        let mut bad = stored.clone();
        bad.payload[0] = 0xFF;
        assert!(ProvenanceRecord::from_stored(&bad).is_err());
        // Bad kind byte.
        let mut bad = stored;
        bad.payload[1] = 0x7F;
        assert!(ProvenanceRecord::from_stored(&bad).is_err());
    }

    #[test]
    fn record_kind_roundtrip() {
        for k in [
            RecordKind::Insert,
            RecordKind::Update,
            RecordKind::Aggregate,
        ] {
            assert_eq!(RecordKind::from_wire_id(k.wire_id()), Some(k));
        }
        assert_eq!(RecordKind::from_wire_id(9), None);
    }
}
