//! The tamper-evidence vocabulary, written once (§3.1, R1–R8).
//!
//! Each row of the `evidence!` table below is one kind: its doc, its
//! variant, its snake_case name and, for every kind a verifier can point at
//! a record or proof with, the [`TamperEvidence`] fields and the message.
//! The table generates [`EvidenceKind`] (with [`EvidenceKind::ALL`] and
//! [`EvidenceKind::name`]) and [`TamperEvidence`] (with
//! [`TamperEvidence::kind`] and its `Display`). A row's position is its
//! counter index and its `Ord` rank; `tests/evidence_vocabulary.rs` pins
//! the order, every name and every message.

use std::fmt;
use tep_crypto::pki::ParticipantId;
use tep_model::ObjectId;

macro_rules! evidence {
    ($(
        $(#[doc = $doc:literal])*
        $v:ident = $name:literal $({
            $($(#[doc = $fdoc:literal])* $f:ident: $t:ty,)*
        } => $msg:literal)?,
    )*) => {
        /// The kind of a piece of tamper evidence, independent of the offending
        /// record's identity — the unit both verify paths (batch/recovered and the
        /// tep-net streaming client) report through, and the key of the
        /// `tep_core_evidence_<kind>_total` counters.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum EvidenceKind {
            $($(#[doc = $doc])* $v,)*
        }

        impl EvidenceKind {
            /// Every kind, in counter/display order.
            pub const ALL: [EvidenceKind; [$(EvidenceKind::$v),*].len()] =
                [$(EvidenceKind::$v),*];

            /// Stable snake_case name, used as the counter-name suffix.
            pub fn name(self) -> &'static str {
                match self {
                    $(EvidenceKind::$v => $name,)*
                }
            }
        }

        /// A specific piece of evidence that provenance was tampered with.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub enum TamperEvidence {
            $($(
                #[doc = concat!("Evidence of kind [`EvidenceKind::", stringify!($v), "`].")]
                $v { $($(#[doc = $fdoc])* $f: $t,)* },
            )?)*
        }

        impl TamperEvidence {
            /// The kind of this evidence, for counting and cross-path comparison.
            pub fn kind(&self) -> EvidenceKind {
                match self {
                    $($(TamperEvidence::$v { $($f: _,)* } => EvidenceKind::$v,)?)*
                }
            }
        }

        impl fmt::Display for TamperEvidence {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $($(TamperEvidence::$v { $($f,)* } => write!(f, $msg),)?)*
                }
            }
        }
    };
}

evidence! {
    /// The delivered object does not match the most recent record's output
    /// (violates R4: undocumented data modification, or R5: provenance
    /// reassigned from another object).
    OutputMismatch = "output_mismatch" {
        /// The object under verification.
        oid: ObjectId,
    } => "object {oid} does not match its most recent provenance record (R4/R5)",

    /// A record's checksum fails signature verification (R1: contents
    /// modified, or R8: forged attribution).
    BadSignature = "bad_signature" {
        /// Output object of the offending record.
        oid: ObjectId,
        /// Its sequence id.
        seq: u64,
    } => "checksum of record ({oid}, seq {seq}) fails verification (R1/R8)",

    /// A record referenced as predecessor is absent (R2/R7: records were
    /// removed).
    MissingRecord = "missing_record" {
        /// The missing record's object.
        oid: ObjectId,
        /// The missing record's sequence id.
        seq: u64,
    } => "referenced record ({oid}, seq {seq}) is missing (R2/R7)",

    /// Successive records of one object's chain do not link (insertion,
    /// reordering, or splicing — R3/R6).
    BrokenChain = "broken_chain" {
        /// The object whose chain is inconsistent.
        oid: ObjectId,
        /// Sequence id of the record that fails to link.
        seq: u64,
    } => "record ({oid}, seq {seq}) does not link to its predecessor (R3/R6)",

    /// A presented record is not reachable from the target's most recent
    /// record (R3/R6: inserted records).
    ExtraneousRecord = "extraneous_record" {
        /// The unreachable record's object.
        oid: ObjectId,
        /// Its sequence id.
        seq: u64,
    } => "record ({oid}, seq {seq}) is not part of the target's history (R3/R6)",

    /// Two records claim the same `(object, seqID)` slot — a forked chain.
    DuplicateRecord = "duplicate_record" {
        /// The contested object.
        oid: ObjectId,
        /// The contested sequence id.
        seq: u64,
    } => "multiple records claim ({oid}, seq {seq}) — forked chain",

    /// The record names a participant with no certified key.
    UnknownParticipant = "unknown_participant" {
        /// The unknown participant.
        participant: ParticipantId,
    } => "no certified key for participant {participant}",

    /// A record's structure violates its kind's invariants.
    MalformedRecord = "malformed_record" {
        /// The offending record's object.
        oid: ObjectId,
        /// Its sequence id.
        seq: u64,
        /// What is wrong.
        why: &'static str,
    } => "record ({oid}, seq {seq}) is malformed: {why}",

    /// No records were presented for the target object.
    NoRecords = "no_records" {
        /// The target object.
        oid: ObjectId,
    } => "no provenance records for object {oid}",

    /// A previously trusted record (a [`crate::checkpoint::TrustAnchor`])
    /// is no longer present with its original checksum — the chain was
    /// truncated, rolled back, or re-signed across the anchor.
    AnchorViolation = "anchor_violation" {
        /// The anchored object.
        oid: ObjectId,
        /// The anchored sequence id.
        seq: u64,
    } => "trusted record ({oid}, seq {seq}) is missing or altered — history truncated or rolled back",

    /// The durable store recovered in degraded mode: interior log
    /// corruption was excised into the quarantine sidecar (or CRC-valid
    /// frames failed to decode), so records are missing for a
    /// storage-layer reason. Whatever chains the damage touched also
    /// surface as [`TamperEvidence::MissingRecord`] /
    /// [`TamperEvidence::BrokenChain`] (R2/R3); this evidence attributes
    /// them to quarantined storage rather than an unexplained absence.
    StorageQuarantine = "storage_quarantine" {
        /// Number of quarantined ranges plus undecodable records.
        gaps: u64,
        /// Corrupt bytes moved to the quarantine sidecar.
        bytes: u64,
    } => "provenance store recovered in degraded mode: {gaps} corrupt range(s), {bytes} byte(s) quarantined (R2/R3 continuity not attestable)",

    /// A stream the tep-net client received through a valid frame CRC but
    /// could not decode: a PROV body that is not one record in one
    /// encoding, a DATA stream whose depth-tagged nodes do not form one
    /// tree, or a QRESULT whose slice proof does not decode. It has no
    /// [`TamperEvidence`] counterpart (no record exists to point at) but
    /// shares this enum so transport-layer tamper shows up in the same
    /// counter family.
    MalformedStream = "malformed_stream",

    /// A resumable transfer's RESUME handshake failed: the server's record
    /// stream up to the claimed resume point is **not** byte-identical to
    /// the records the client already verified (its rolling
    /// [`RecordStreamDigest`](crate::streaming::RecordStreamDigest)
    /// disagrees), or the server claims a different resume offset than the
    /// checkpoint proves. Either the server's history changed between
    /// connections or the peer is lying about where the transfer stopped —
    /// both are R2/R3-grade discontinuities, so the transfer is rejected
    /// and never retried.
    ResumeMismatch = "resume_mismatch" {
        /// The object being transferred.
        oid: ObjectId,
        /// Records the client's checkpoint covers.
        claimed: u64,
        /// Records the peer confirmed (its echoed resume offset, or
        /// `claimed` when the offsets agree but the digests do not).
        confirmed: u64,
    } => "resume point for object {oid} does not verify: checkpoint proves {claimed} record(s), peer confirmed {confirmed} — history diverged or peer is lying (R2/R3)",

    /// Anti-entropy located an object whose record history differs between
    /// a replica and its primary: the per-shard Merkle trees disagree at a
    /// leaf, and re-fetching that object did not produce a stream that
    /// both verifies *and* extends the replica's verified local prefix.
    /// One of the two histories was tampered with (a bit-flipped replica
    /// log, a lying primary, or a fork where both sides verify but
    /// diverge) — an R2/R3-grade discontinuity attributed to replication,
    /// never silently "repaired" by overwriting verified local state.
    ReplicaDivergence = "replica_divergence" {
        /// The divergent object.
        oid: ObjectId,
        /// Merkle levels descended to locate the leaf (the anti-entropy
        /// round-trip count for this divergence).
        depth: u32,
    } => "replica and primary histories diverge at object {oid} (located in {depth} anti-entropy round(s)) — replicated history altered or forked (R2/R3)",

    /// An anti-entropy response failed structural self-authentication:
    /// the child hashes a peer presented do not recombine to the parent
    /// hash the same peer claimed one round earlier. No valid tree can do
    /// this regardless of which side's data is correct, so the root (or an
    /// interior node) was forged in flight or by the peer itself.
    ForgedRoot = "forged_root" {
        /// Tree level of the node whose children fail to authenticate
        /// (leaves are level 0).
        level: u32,
        /// Index of that node within its level.
        index: u64,
    } => "anti-entropy node (level {level}, index {index}) fails self-authentication: presented children do not hash to the claimed parent — forged root or tree (R1/R8)",

    /// A NOT_FOUND answer's non-membership proof
    /// ([`crate::denial::SignedDenial`]) failed verification: the root
    /// signature is bad, a witness path does not authenticate, the
    /// witnesses are not adjacent, or the target is in fact covered by a
    /// leaf. Either the server denied an object it *does* hold, or the
    /// proof was forged/mutated in flight — an attributable omission
    /// attack (R2/R7-grade: records withheld rather than removed).
    ForgedDenial = "forged_denial" {
        /// The object whose absence was (falsely) claimed. For a range
        /// completeness proof that fails verification, the range's lower
        /// bound.
        oid: ObjectId,
    } => "non-membership proof for object {oid} fails verification — denial forged or the object is held and withheld (R2/R7)",

    /// A range answer omitted a member its own completeness proof
    /// ([`crate::denial::SignedRange`]) shows to exist: the proof verifies
    /// — so the leaf run is authentic and gap-free — but the served
    /// answer is missing at least one proven member. The server withheld a
    /// match it provably holds (R2/R7-grade omission).
    IncompleteResponse = "incomplete_response" {
        /// Inclusive lower bound of the range queried.
        lo: ObjectId,
        /// Inclusive upper bound of the range queried.
        hi: ObjectId,
    } => "range answer [{lo}, {hi}] omits a member its own completeness proof covers — match withheld (R2/R7)",

    /// A sealed compaction checkpoint
    /// ([`crate::checkpoint::SealedCheckpoint`]) conflicts with the
    /// presented provenance: the seal itself fails signature verification,
    /// or a record at an anchored `(object, seqID)` slot carries a
    /// different checksum than the checkpoint attests — the excised
    /// history was swapped out from under the checkpoint (R2/R3 across
    /// the compaction boundary).
    CheckpointMismatch = "checkpoint_mismatch" {
        /// The anchored object (the verification target when the seal
        /// itself fails).
        oid: ObjectId,
        /// The anchored sequence id (0 when the seal itself fails).
        seq: u64,
    } => "sealed checkpoint conflicts with presented provenance at ({oid}, seq {seq}) — excised history swapped across the compaction boundary (R2/R3)",
}

impl EvidenceKind {
    /// Name of the tep-obs counter this kind increments
    /// (`tep_core_evidence_<kind>_total`).
    pub fn counter_name(self) -> String {
        format!("tep_core_evidence_{}_total", self.name())
    }
}

impl fmt::Display for EvidenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}
