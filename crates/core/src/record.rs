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
use std::borrow::Cow;
use tep_crypto::digest::{Digest, HashAlgorithm};
use tep_crypto::pki::{Participant, ParticipantId};
use tep_crypto::rsa::RsaError;
use tep_model::encode::{decode_exact_into, Codec, DecodeError, List, Reader, Skip};
use tep_model::{codec_structs, codecs, ObjectId};
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecordKind {
    /// A new object came into existence with no inputs.
    #[default]
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

codecs! {
    /// The record body's version byte: 2 for a per-record signature, 3
    /// for a [`BatchChecksum`]; any other version is refused as itself.
    [] ChecksumFormat => ChecksumFormat, 1, |v, out| out.push(match v {
        ChecksumFormat::PerRecord => RECORD_VERSION,
        ChecksumFormat::Batched => RECORD_VERSION_BATCHED,
    }), |r| match r.u8()? {
        RECORD_VERSION => ChecksumFormat::PerRecord,
        RECORD_VERSION_BATCHED => ChecksumFormat::Batched,
        version => return Err(DecodeError::BadTag(version)),
    };
    /// The kind's wire id; an unknown id is refused as `BadTag(0xFE)`.
    [] RecordKind => RecordKind, 1, |v, out| out.push(v.wire_id()), |r| {
        RecordKind::from_wire_id(r.u8()?).ok_or(DecodeError::BadTag(0xFE))?
    };
}

codec_structs! {
    /// One input of a provenance record.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
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

    /// A provenance record with its integrity checksum. Its encoding is the
    /// v2/v3 record body a [`StoredRecord`] carries as its payload: these
    /// fields in this order, without the checksum, which the row holds.
    /// The default is an empty record to decode rows into.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct ProvenanceRecord {
        /// How `checksum` is to be read.
        pub checksum_format: ChecksumFormat,
        /// What kind of operation.
        pub kind: RecordKind,
        /// Position in the output object's chain (§2.1 numbering rules).
        pub seq_id: u64,
        /// Who performed the operation.
        pub participant: ParticipantId,
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
        /// Inputs in global `ObjectId` order (empty for inserts).
        pub inputs: Vec<InputRef> as List<8, InputRef>,
        /// `S_SKp(…)` — the signed integrity checksum.
        pub checksum: Vec<u8> as Skip<Vec<u8>>,
    }
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
fn batch_leaf_digest(alg: HashAlgorithm, message: &[u8]) -> Digest {
    let mut h = alg.hasher();
    h.update(BATCH_LEAF_TAG);
    h.update(message);
    h.finalize_fixed()
}

/// Appends the one message a batch's signature covers to `out`.
fn batch_root_message_into(alg: HashAlgorithm, count: u32, root: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(BATCH_ROOT_TAG);
    out.push(alg.wire_id());
    out.extend_from_slice(&count.to_be_bytes());
    out.extend_from_slice(&(root.len() as u64).to_be_bytes());
    out.extend_from_slice(root);
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
        let view = BatchChecksumView::decode(alg, buf)?;
        Ok(BatchChecksum {
            index: view.index,
            count: view.count,
            path: view.path().map(|s| s.map(<[u8]>::to_vec)).collect(),
            signature: view.signature.to_vec(),
        })
    }
}

/// An encoded [`BatchChecksum`] read in place: what the verifier checks,
/// allocating nothing. It is the one decoder of the encoding;
/// [`BatchChecksum::decode`] copies a view out.
#[derive(Clone, Copy)]
pub(crate) struct BatchChecksumView<'a> {
    index: u32,
    count: u32,
    /// The siblings that exist, concatenated, one digest each.
    siblings: &'a [u8],
    digest_len: usize,
    pub(crate) signature: &'a [u8],
}

impl<'a> BatchChecksumView<'a> {
    /// Reads a checksum whose path digests are `alg`'s. Total on arbitrary
    /// bytes.
    pub(crate) fn decode(alg: HashAlgorithm, buf: &'a [u8]) -> Result<Self, DecodeError> {
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
        let digest_len = alg.output_len();
        let present = path_shape(index, count).filter(|&sibling| sibling).count();
        let siblings = r.bytes(present * digest_len)?;
        let signature = r.bytes(r.remaining())?;
        if signature.is_empty() {
            return Err(DecodeError::UnexpectedEof);
        }
        Ok(BatchChecksumView {
            index,
            count,
            siblings,
            digest_len,
            signature,
        })
    }

    /// The sibling path in [`ShardTree::leaf_path`] form.
    fn path(&self) -> impl ExactSizeIterator<Item = Option<&'a [u8]>> {
        let mut siblings = self.siblings.chunks_exact(self.digest_len);
        let mut levels = [None; 32];
        let mut depth = 0;
        for sibling in path_shape(self.index, self.count) {
            levels[depth] = sibling.then(|| siblings.next().expect("decode sized the path"));
            depth += 1;
        }
        levels.into_iter().take(depth)
    }

    /// Replaces `message`, the checksum message of the record with output
    /// object `oid`, by the message `signature` must verify over if that
    /// record is the member this checksum claims it is. The leaf, every
    /// node of the path and the root stay on the stack.
    pub(crate) fn signed_message_into(
        &self,
        alg: HashAlgorithm,
        oid: ObjectId,
        message: &mut Vec<u8>,
    ) {
        let leaf = leaf_hash(alg, oid, batch_leaf_digest(alg, message).as_slice());
        let root =
            ShardTree::fold_leaf_path(alg, self.count.into(), self.index.into(), leaf, self.path())
                .expect("a decoded path fits its shape");
        message.clear();
        batch_root_message_into(alg, self.count, root.as_slice(), message);
    }
}

/// For each level of a batch tree of `count` leaves below its root,
/// whether leaf `index`'s ancestor there has a sibling.
fn path_shape(index: u32, count: u32) -> impl Iterator<Item = bool> {
    let (mut idx, mut width) = (index, count);
    std::iter::from_fn(move || {
        (width > 1).then(|| {
            let sibling = idx ^ 1 < width;
            idx >>= 1;
            width = width.div_ceil(2);
            sibling
        })
    })
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
    let mut msg = Vec::new();
    checksum_message_into(
        alg,
        kind,
        seq_id,
        inputs,
        output_oid,
        output_hash,
        annotation,
        prev_checksums.iter().copied(),
        &mut msg,
    );
    msg
}

/// Appends [`checksum_message`] to `out`, taking the predecessor
/// checksums from an iterator, so a verifier builds every message in one
/// reused buffer.
#[allow(clippy::too_many_arguments)] // mirrors the record's field list
fn checksum_message_into<'p>(
    alg: HashAlgorithm,
    kind: RecordKind,
    seq_id: u64,
    inputs: &[InputRef],
    output_oid: ObjectId,
    output_hash: &[u8],
    annotation: &[u8],
    prev_checksums: impl IntoIterator<Item = &'p [u8], IntoIter: Clone>,
    out: &mut Vec<u8>,
) {
    let prev_checksums = prev_checksums.into_iter();
    let (count, prev_len) = prev_checksums
        .clone()
        .fold((0u64, 0), |(n, len), p| (n + 1, len + 8 + p.len()));
    // Input part: 0 for inserts, h(input) for updates, the digest of the
    // concatenated input hashes for aggregates (the paper's inner hash).
    let aggregate;
    let input_part: &[u8] = match kind {
        RecordKind::Insert => &[],
        RecordKind::Update => inputs.first().map_or(&[], |i| &i.hash),
        RecordKind::Aggregate => {
            let mut h = alg.hasher();
            for input in inputs {
                h.update(&(input.hash.len() as u64).to_be_bytes());
                h.update(&input.hash);
            }
            aggregate = h.finalize_fixed();
            aggregate.as_slice()
        }
    };
    // Tag, alg, kind, seq, oid and the prev count are fixed; every
    // variable-length field carries an 8-byte length prefix.
    out.reserve(
        MSG_TAG.len()
            + 2
            + 8
            + (8 + input_part.len())
            + 8
            + (8 + output_hash.len())
            + (8 + annotation.len())
            + 8
            + prev_len,
    );
    out.extend_from_slice(MSG_TAG);
    out.push(alg.wire_id());
    out.push(kind.wire_id());
    out.extend_from_slice(&seq_id.to_be_bytes());
    out.extend_from_slice(&(input_part.len() as u64).to_be_bytes());
    out.extend_from_slice(input_part);

    out.extend_from_slice(&output_oid.raw().to_be_bytes());
    out.extend_from_slice(&(output_hash.len() as u64).to_be_bytes());
    out.extend_from_slice(output_hash);

    out.extend_from_slice(&(annotation.len() as u64).to_be_bytes());
    out.extend_from_slice(annotation);

    out.extend_from_slice(&count.to_be_bytes());
    for prev in prev_checksums {
        out.extend_from_slice(&(prev.len() as u64).to_be_bytes());
        out.extend_from_slice(prev);
    }
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
    pub(crate) fn create_annotated(
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

    /// Appends [`Self::message`] to `out`.
    pub(crate) fn message_into<'p>(
        &self,
        alg: HashAlgorithm,
        prev_checksums: impl IntoIterator<Item = &'p [u8], IntoIter: Clone>,
        out: &mut Vec<u8>,
    ) {
        checksum_message_into(
            alg,
            self.kind,
            self.seq_id,
            &self.inputs,
            self.output_oid,
            &self.output_hash,
            &self.annotation,
            prev_checksums,
            out,
        )
    }

    /// Signs a batch of unsigned records **once**: `messages[i]` is
    /// `records[i]`'s [`Self::message`], the output objects are distinct
    /// and number at most `u32::MAX`, and every record leaves with `signer`
    /// as its participant and a [`BatchChecksum`]. Returns the length of
    /// the signature all those checksums end with.
    pub(crate) fn sign_batch(
        alg: HashAlgorithm,
        signer: &Participant,
        records: &mut [ProvenanceRecord],
        messages: &[Vec<u8>],
    ) -> Result<usize, RsaError> {
        let count = u32::try_from(records.len()).expect("batch size fits the u32 leaf count");
        let leaves = records
            .iter()
            .zip(messages)
            .map(|(r, m)| (r.output_oid, batch_leaf_digest(alg, m).to_vec()))
            .collect();
        let tree = ShardTree::build(alg, leaves);
        let mut root_message = Vec::new();
        batch_root_message_into(alg, count, &tree.root(), &mut root_message);
        let signature = signer.sign(alg, &root_message)?;
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
        let mut payload = Vec::with_capacity(64 + self.output_hash.len());
        Self::put(self, &mut payload);
        StoredRecord {
            seq_id: self.seq_id,
            participant: self.participant,
            oid: self.output_oid,
            checksum: self.checksum.clone(),
            payload,
        }
    }

    /// Reconstructs a record from storage: [`Self::read_stored`] into a
    /// fresh record.
    pub fn from_stored(stored: &StoredRecord) -> Result<Self, DecodeError> {
        let mut record = Self::default();
        record.read_stored(stored)?;
        Ok(record)
    }

    /// Decodes a stored row into this record, reusing its buffers, so a
    /// reader that keeps one record per stream allocates nothing per row.
    /// The row's seq, participant and oid columns are copies of fields the
    /// payload also encodes; a row whose columns disagree with its payload
    /// is refused with `BadTag(0xFD)`, so every accepted row has one
    /// encoding: `from_stored(s)?.to_stored() == s`. After an error the
    /// record holds a partly read row.
    pub fn read_stored(&mut self, stored: &StoredRecord) -> Result<(), DecodeError> {
        decode_exact_into::<Self>(&stored.payload, self)?;
        if (self.seq_id, self.participant, self.output_oid)
            != (stored.seq_id, stored.participant, stored.oid)
        {
            return Err(DecodeError::BadTag(0xFD));
        }
        self.checksum.clear();
        self.checksum.extend_from_slice(&stored.checksum);
        Ok(())
    }
}

/// A record and the store row it was decoded from: what the verifier
/// fold takes, so that its stream digest hashes the row as it arrived
/// instead of an encoding of the record. A transport hands the pair
/// (`(&record, &row)`, the record being `from_stored(&row)`); a record
/// pushed bare — from a collected history, or built in process — has its
/// canonical row encoded once here, which is the same row because every
/// accepted row has one encoding.
pub struct RecordRow<'r> {
    pub(crate) record: &'r ProvenanceRecord,
    pub(crate) row: Cow<'r, StoredRecord>,
}

impl<'r> From<&'r ProvenanceRecord> for RecordRow<'r> {
    fn from(record: &'r ProvenanceRecord) -> Self {
        RecordRow {
            record,
            row: Cow::Owned(record.to_stored()),
        }
    }
}

impl<'r> From<(&'r ProvenanceRecord, &'r StoredRecord)> for RecordRow<'r> {
    fn from((record, row): (&'r ProvenanceRecord, &'r StoredRecord)) -> Self {
        RecordRow {
            record,
            row: Cow::Borrowed(row),
        }
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
