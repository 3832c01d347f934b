//! Recipient-side verification (§3, verification conditions 1–2; §3.1
//! security analysis).
//!
//! Given a data object (its current hash), its claimed [`ProvenanceObject`]
//! and a [`KeyDirectory`] of CA-certified participant keys, the
//! [`Verifier`] checks:
//!
//! 1. the most recent record's output matches the delivered object
//!    (guarantees **R4**/**R5** — no undocumented modification, no
//!    provenance reassignment);
//! 2. every checksum verifies under its participant's public key over the
//!    record's own fields and the *stored* predecessor checksums
//!    (**R1**/**R8** — record contents and attribution);
//! 3. every chain is structurally sound — predecessors present
//!    (**R2**/**R7** removal detection), no forks or dangling records
//!    (**R3**/**R6** insertion detection), kinds well-formed.
//!
//! All violations found are reported, not just the first, so attack
//! forensics can see the full blast radius.

use crate::provenance::ProvenanceObject;
use crate::record::{BatchChecksum, ChecksumFormat, ProvenanceRecord, RecordKind};
use crate::slice::{
    backward_closure, forward_closure, polynomial_over, AggEdge, QueryAnswer, QueryOp, SliceProof,
};
use crate::streaming::{CheckpointError, RecordSlot, RecordStreamDigest, VerifierCheckpoint};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{KeyDirectory, ParticipantId};
use tep_model::ObjectId;
use tep_obs::{Counter, Histogram, Registry};

/// The kind of a piece of tamper evidence, independent of the offending
/// record's identity — the unit both verify paths (batch/recovered and the
/// tep-net streaming client) report through, and the key of the
/// `tep_core_evidence_<kind>_total` counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EvidenceKind {
    /// [`TamperEvidence::OutputMismatch`].
    OutputMismatch,
    /// [`TamperEvidence::BadSignature`].
    BadSignature,
    /// [`TamperEvidence::MissingRecord`].
    MissingRecord,
    /// [`TamperEvidence::BrokenChain`].
    BrokenChain,
    /// [`TamperEvidence::ExtraneousRecord`].
    ExtraneousRecord,
    /// [`TamperEvidence::DuplicateRecord`].
    DuplicateRecord,
    /// [`TamperEvidence::UnknownParticipant`].
    UnknownParticipant,
    /// [`TamperEvidence::MalformedRecord`].
    MalformedRecord,
    /// [`TamperEvidence::NoRecords`].
    NoRecords,
    /// [`TamperEvidence::AnchorViolation`].
    AnchorViolation,
    /// [`TamperEvidence::StorageQuarantine`].
    StorageQuarantine,
    /// A provenance stream aborted with undecodable bytes — reported by
    /// the tep-net client when a PROV/DATA frame fails structural
    /// decoding. Has no [`TamperEvidence`] counterpart (the record never
    /// existed to point at) but shares this enum so transport-layer
    /// tamper shows up in the same counter family.
    MalformedStream,
    /// [`TamperEvidence::ResumeMismatch`].
    ResumeMismatch,
    /// [`TamperEvidence::ReplicaDivergence`].
    ReplicaDivergence,
    /// [`TamperEvidence::ForgedRoot`].
    ForgedRoot,
    /// [`TamperEvidence::ForgedDenial`].
    ForgedDenial,
    /// [`TamperEvidence::IncompleteResponse`].
    IncompleteResponse,
    /// [`TamperEvidence::CheckpointMismatch`].
    CheckpointMismatch,
}

impl EvidenceKind {
    /// Every kind, in counter/display order.
    pub const ALL: [EvidenceKind; 18] = [
        EvidenceKind::OutputMismatch,
        EvidenceKind::BadSignature,
        EvidenceKind::MissingRecord,
        EvidenceKind::BrokenChain,
        EvidenceKind::ExtraneousRecord,
        EvidenceKind::DuplicateRecord,
        EvidenceKind::UnknownParticipant,
        EvidenceKind::MalformedRecord,
        EvidenceKind::NoRecords,
        EvidenceKind::AnchorViolation,
        EvidenceKind::StorageQuarantine,
        EvidenceKind::MalformedStream,
        EvidenceKind::ResumeMismatch,
        EvidenceKind::ReplicaDivergence,
        EvidenceKind::ForgedRoot,
        EvidenceKind::ForgedDenial,
        EvidenceKind::IncompleteResponse,
        EvidenceKind::CheckpointMismatch,
    ];

    /// Stable snake_case name, used as the counter-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            EvidenceKind::OutputMismatch => "output_mismatch",
            EvidenceKind::BadSignature => "bad_signature",
            EvidenceKind::MissingRecord => "missing_record",
            EvidenceKind::BrokenChain => "broken_chain",
            EvidenceKind::ExtraneousRecord => "extraneous_record",
            EvidenceKind::DuplicateRecord => "duplicate_record",
            EvidenceKind::UnknownParticipant => "unknown_participant",
            EvidenceKind::MalformedRecord => "malformed_record",
            EvidenceKind::NoRecords => "no_records",
            EvidenceKind::AnchorViolation => "anchor_violation",
            EvidenceKind::StorageQuarantine => "storage_quarantine",
            EvidenceKind::MalformedStream => "malformed_stream",
            EvidenceKind::ResumeMismatch => "resume_mismatch",
            EvidenceKind::ReplicaDivergence => "replica_divergence",
            EvidenceKind::ForgedRoot => "forged_root",
            EvidenceKind::ForgedDenial => "forged_denial",
            EvidenceKind::IncompleteResponse => "incomplete_response",
            EvidenceKind::CheckpointMismatch => "checkpoint_mismatch",
        }
    }

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

/// One [`Counter`] per [`EvidenceKind`], registered as
/// `tep_core_evidence_<kind>_total`. Cheap to clone; every verify surface
/// (batch, recovered, streaming, tep-net client) attached to the same
/// [`Registry`] shares the same counters.
#[derive(Clone)]
pub struct EvidenceCounters {
    counters: Vec<Counter>,
}

impl EvidenceCounters {
    /// Registers (or re-resolves) the per-kind counters in `registry`.
    pub fn new(registry: &Registry) -> Self {
        EvidenceCounters {
            counters: EvidenceKind::ALL
                .iter()
                .map(|k| registry.counter(&k.counter_name()))
                .collect(),
        }
    }

    /// Counts one piece of evidence of `kind`.
    pub fn record(&self, kind: EvidenceKind) {
        self.counters[kind as usize].inc();
    }

    /// Counts every issue in `issues` by kind.
    pub fn record_issues(&self, issues: &[TamperEvidence]) {
        for issue in issues {
            self.record(issue.kind());
        }
    }
}

/// Verifier-side metrics bundle: run/record/tamper counters, verify
/// latency, and the per-kind [`EvidenceCounters`].
#[derive(Clone)]
struct VerifyObs {
    runs: Counter,
    records: Counter,
    tampered_runs: Counter,
    latency_ns: Histogram,
    evidence: EvidenceCounters,
}

impl VerifyObs {
    fn new(registry: &Registry) -> Self {
        VerifyObs {
            runs: registry.counter("tep_core_verify_runs_total"),
            records: registry.counter("tep_core_verify_records_total"),
            tampered_runs: registry.counter("tep_core_verify_tampered_total"),
            latency_ns: registry.latency_histogram("tep_core_verify_ns"),
            evidence: EvidenceCounters::new(registry),
        }
    }

    fn record_outcome(&self, v: &Verification) {
        self.runs.inc();
        self.records.add(v.records_checked as u64);
        if !v.verified() {
            self.tampered_runs.inc();
        }
        self.evidence.record_issues(&v.issues);
    }
}

/// A specific piece of evidence that provenance was tampered with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TamperEvidence {
    /// The delivered object does not match the most recent record's output
    /// (violates R4: undocumented data modification, or R5: provenance
    /// reassigned from another object).
    OutputMismatch {
        /// The object under verification.
        oid: ObjectId,
    },
    /// A record's checksum fails signature verification (R1: contents
    /// modified, or R8: forged attribution).
    BadSignature {
        /// Output object of the offending record.
        oid: ObjectId,
        /// Its sequence id.
        seq: u64,
    },
    /// A record referenced as predecessor is absent (R2/R7: records were
    /// removed).
    MissingRecord {
        /// The missing record's object.
        oid: ObjectId,
        /// The missing record's sequence id.
        seq: u64,
    },
    /// Successive records of one object's chain do not link (insertion,
    /// reordering, or splicing — R3/R6).
    BrokenChain {
        /// The object whose chain is inconsistent.
        oid: ObjectId,
        /// Sequence id of the record that fails to link.
        seq: u64,
    },
    /// A presented record is not reachable from the target's most recent
    /// record (R3/R6: inserted records).
    ExtraneousRecord {
        /// The unreachable record's object.
        oid: ObjectId,
        /// Its sequence id.
        seq: u64,
    },
    /// Two records claim the same `(object, seqID)` slot — a forked chain.
    DuplicateRecord {
        /// The contested object.
        oid: ObjectId,
        /// The contested sequence id.
        seq: u64,
    },
    /// The record names a participant with no certified key.
    UnknownParticipant {
        /// The unknown participant.
        participant: ParticipantId,
    },
    /// A record's structure violates its kind's invariants.
    MalformedRecord {
        /// The offending record's object.
        oid: ObjectId,
        /// Its sequence id.
        seq: u64,
        /// What is wrong.
        why: &'static str,
    },
    /// No records were presented for the target object.
    NoRecords {
        /// The target object.
        oid: ObjectId,
    },
    /// A previously trusted record (a [`crate::checkpoint::TrustAnchor`])
    /// is no longer present with its original checksum — the chain was
    /// truncated, rolled back, or re-signed across the anchor.
    AnchorViolation {
        /// The anchored object.
        oid: ObjectId,
        /// The anchored sequence id.
        seq: u64,
    },
    /// The durable store recovered in degraded mode: interior log
    /// corruption was excised into the quarantine sidecar (or CRC-valid
    /// frames failed to decode), so records are missing for a
    /// storage-layer reason. Whatever chains the damage touched also
    /// surface as [`TamperEvidence::MissingRecord`] /
    /// [`TamperEvidence::BrokenChain`] (R2/R3); this evidence attributes
    /// them to quarantined storage rather than an unexplained absence.
    StorageQuarantine {
        /// Number of quarantined ranges plus undecodable records.
        gaps: u64,
        /// Corrupt bytes moved to the quarantine sidecar.
        bytes: u64,
    },
    /// A resumable transfer's RESUME handshake failed: the server's record
    /// stream up to the claimed resume point is **not** byte-identical to
    /// the records the client already verified (its rolling
    /// [`RecordStreamDigest`](crate::streaming::RecordStreamDigest)
    /// disagrees), or the server claims a different resume offset than the
    /// checkpoint proves. Either the server's history changed between
    /// connections or the peer is lying about where the transfer stopped —
    /// both are R2/R3-grade discontinuities, so the transfer is rejected
    /// and never retried.
    ResumeMismatch {
        /// The object being transferred.
        oid: ObjectId,
        /// Records the client's checkpoint covers.
        claimed: u64,
        /// Records the peer confirmed (its echoed resume offset, or
        /// `claimed` when the offsets agree but the digests do not).
        confirmed: u64,
    },
    /// Anti-entropy located an object whose record history differs between
    /// a replica and its primary: the per-shard Merkle trees disagree at a
    /// leaf, and re-fetching that object did not produce a stream that
    /// both verifies *and* extends the replica's verified local prefix.
    /// One of the two histories was tampered with (a bit-flipped replica
    /// log, a lying primary, or a fork where both sides verify but
    /// diverge) — an R2/R3-grade discontinuity attributed to replication,
    /// never silently "repaired" by overwriting verified local state.
    ReplicaDivergence {
        /// The divergent object.
        oid: ObjectId,
        /// Merkle levels descended to locate the leaf (the anti-entropy
        /// round-trip count for this divergence).
        depth: u32,
    },
    /// An anti-entropy response failed structural self-authentication:
    /// the child hashes a peer presented do not recombine to the parent
    /// hash the same peer claimed one round earlier. No valid tree can do
    /// this regardless of which side's data is correct, so the root (or an
    /// interior node) was forged in flight or by the peer itself.
    ForgedRoot {
        /// Tree level of the node whose children fail to authenticate
        /// (leaves are level 0).
        level: u32,
        /// Index of that node within its level.
        index: u64,
    },
    /// A NOT_FOUND answer's non-membership proof
    /// ([`crate::denial::SignedDenial`]) failed verification: the root
    /// signature is bad, a witness path does not authenticate, the
    /// witnesses are not adjacent, or the target is in fact covered by a
    /// leaf. Either the server denied an object it *does* hold, or the
    /// proof was forged/mutated in flight — an attributable omission
    /// attack (R2/R7-grade: records withheld rather than removed).
    ForgedDenial {
        /// The object whose absence was (falsely) claimed. For a range
        /// completeness proof that fails verification, the range's lower
        /// bound.
        oid: ObjectId,
    },
    /// A range answer omitted a member its own completeness proof
    /// ([`crate::denial::SignedRange`]) shows to exist: the proof verifies
    /// — so the leaf run is authentic and gap-free — but the served
    /// answer is missing at least one proven member. The server withheld a
    /// match it provably holds (R2/R7-grade omission).
    IncompleteResponse {
        /// Inclusive lower bound of the range queried.
        lo: ObjectId,
        /// Inclusive upper bound of the range queried.
        hi: ObjectId,
    },
    /// A sealed compaction checkpoint
    /// ([`crate::checkpoint::SealedCheckpoint`]) conflicts with the
    /// presented provenance: the seal itself fails signature verification,
    /// or a record at an anchored `(object, seqID)` slot carries a
    /// different checksum than the checkpoint attests — the excised
    /// history was swapped out from under the checkpoint (R2/R3 across
    /// the compaction boundary).
    CheckpointMismatch {
        /// The anchored object (the verification target when the seal
        /// itself fails).
        oid: ObjectId,
        /// The anchored sequence id (0 when the seal itself fails).
        seq: u64,
    },
}

impl TamperEvidence {
    /// The kind of this evidence, for counting and cross-path comparison.
    pub fn kind(&self) -> EvidenceKind {
        match self {
            TamperEvidence::OutputMismatch { .. } => EvidenceKind::OutputMismatch,
            TamperEvidence::BadSignature { .. } => EvidenceKind::BadSignature,
            TamperEvidence::MissingRecord { .. } => EvidenceKind::MissingRecord,
            TamperEvidence::BrokenChain { .. } => EvidenceKind::BrokenChain,
            TamperEvidence::ExtraneousRecord { .. } => EvidenceKind::ExtraneousRecord,
            TamperEvidence::DuplicateRecord { .. } => EvidenceKind::DuplicateRecord,
            TamperEvidence::UnknownParticipant { .. } => EvidenceKind::UnknownParticipant,
            TamperEvidence::MalformedRecord { .. } => EvidenceKind::MalformedRecord,
            TamperEvidence::NoRecords { .. } => EvidenceKind::NoRecords,
            TamperEvidence::AnchorViolation { .. } => EvidenceKind::AnchorViolation,
            TamperEvidence::StorageQuarantine { .. } => EvidenceKind::StorageQuarantine,
            TamperEvidence::ResumeMismatch { .. } => EvidenceKind::ResumeMismatch,
            TamperEvidence::ReplicaDivergence { .. } => EvidenceKind::ReplicaDivergence,
            TamperEvidence::ForgedRoot { .. } => EvidenceKind::ForgedRoot,
            TamperEvidence::ForgedDenial { .. } => EvidenceKind::ForgedDenial,
            TamperEvidence::IncompleteResponse { .. } => EvidenceKind::IncompleteResponse,
            TamperEvidence::CheckpointMismatch { .. } => EvidenceKind::CheckpointMismatch,
        }
    }
}

impl fmt::Display for TamperEvidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TamperEvidence::OutputMismatch { oid } => {
                write!(
                    f,
                    "object {oid} does not match its most recent provenance record (R4/R5)"
                )
            }
            TamperEvidence::BadSignature { oid, seq } => {
                write!(
                    f,
                    "checksum of record ({oid}, seq {seq}) fails verification (R1/R8)"
                )
            }
            TamperEvidence::MissingRecord { oid, seq } => {
                write!(f, "referenced record ({oid}, seq {seq}) is missing (R2/R7)")
            }
            TamperEvidence::BrokenChain { oid, seq } => {
                write!(
                    f,
                    "record ({oid}, seq {seq}) does not link to its predecessor (R3/R6)"
                )
            }
            TamperEvidence::ExtraneousRecord { oid, seq } => {
                write!(
                    f,
                    "record ({oid}, seq {seq}) is not part of the target's history (R3/R6)"
                )
            }
            TamperEvidence::DuplicateRecord { oid, seq } => {
                write!(
                    f,
                    "multiple records claim ({oid}, seq {seq}) — forked chain"
                )
            }
            TamperEvidence::UnknownParticipant { participant } => {
                write!(f, "no certified key for participant {participant}")
            }
            TamperEvidence::MalformedRecord { oid, seq, why } => {
                write!(f, "record ({oid}, seq {seq}) is malformed: {why}")
            }
            TamperEvidence::NoRecords { oid } => {
                write!(f, "no provenance records for object {oid}")
            }
            TamperEvidence::AnchorViolation { oid, seq } => {
                write!(
                    f,
                    "trusted record ({oid}, seq {seq}) is missing or altered — history truncated or rolled back"
                )
            }
            TamperEvidence::StorageQuarantine { gaps, bytes } => {
                write!(
                    f,
                    "provenance store recovered in degraded mode: {gaps} corrupt range(s), {bytes} byte(s) quarantined (R2/R3 continuity not attestable)"
                )
            }
            TamperEvidence::ResumeMismatch {
                oid,
                claimed,
                confirmed,
            } => {
                write!(
                    f,
                    "resume point for object {oid} does not verify: checkpoint proves {claimed} record(s), peer confirmed {confirmed} — history diverged or peer is lying (R2/R3)"
                )
            }
            TamperEvidence::ReplicaDivergence { oid, depth } => {
                write!(
                    f,
                    "replica and primary histories diverge at object {oid} (located in {depth} anti-entropy round(s)) — replicated history altered or forked (R2/R3)"
                )
            }
            TamperEvidence::ForgedRoot { level, index } => {
                write!(
                    f,
                    "anti-entropy node (level {level}, index {index}) fails self-authentication: presented children do not hash to the claimed parent — forged root or tree (R1/R8)"
                )
            }
            TamperEvidence::ForgedDenial { oid } => {
                write!(
                    f,
                    "non-membership proof for object {oid} fails verification — denial forged or the object is held and withheld (R2/R7)"
                )
            }
            TamperEvidence::IncompleteResponse { lo, hi } => {
                write!(
                    f,
                    "range answer [{lo}, {hi}] omits a member its own completeness proof covers — match withheld (R2/R7)"
                )
            }
            TamperEvidence::CheckpointMismatch { oid, seq } => {
                write!(
                    f,
                    "sealed checkpoint conflicts with presented provenance at ({oid}, seq {seq}) — excised history swapped across the compaction boundary (R2/R3)"
                )
            }
        }
    }
}

/// The outcome of verifying one provenance object.
#[derive(Clone, Debug, Default)]
pub struct Verification {
    /// All evidence of tampering found (empty ⇒ verified).
    pub issues: Vec<TamperEvidence>,
    /// Number of records whose signatures were checked.
    pub records_checked: usize,
    /// Participants appearing in the provenance.
    pub participants: BTreeSet<ParticipantId>,
}

impl Verification {
    /// `true` iff no tampering evidence was found.
    pub fn verified(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Recipient-side provenance verifier.
pub struct Verifier<'a> {
    keys: &'a KeyDirectory,
    alg: HashAlgorithm,
    obs: Option<VerifyObs>,
}

impl<'a> Verifier<'a> {
    /// Creates a verifier resolving participants through `keys`.
    pub fn new(keys: &'a KeyDirectory, alg: HashAlgorithm) -> Self {
        Verifier {
            keys,
            alg,
            obs: None,
        }
    }

    /// Attaches tep-obs instrumentation: per-run/record counters, verify
    /// latency, and `tep_core_evidence_<kind>_total` counters.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = Some(VerifyObs::new(registry));
    }

    /// Verifies that `prov` is an untampered history of the object whose
    /// current hash is `object_hash`.
    pub fn verify(&self, object_hash: &[u8], prov: &ProvenanceObject) -> Verification {
        let timer = self.obs.as_ref().map(|o| o.latency_ns.start_timer());
        let v = self.verify_inner(object_hash, prov);
        if let Some(obs) = &self.obs {
            obs.record_outcome(&v);
        }
        drop(timer);
        v
    }

    fn verify_inner(&self, object_hash: &[u8], prov: &ProvenanceObject) -> Verification {
        self.verify_inner_with_prior(object_hash, prov, &HashMap::new())
    }

    /// Like [`Self::verify_inner`], but with a map of *attested prior
    /// records*: `oid → (seq, checksum)` slots a sealed compaction
    /// checkpoint vouches for. A chain-start record whose predecessor was
    /// compacted away resolves through this map — both structurally and
    /// for signature verification (the anchor checksum substitutes for the
    /// excised record's) — instead of surfacing as `MissingRecord`.
    pub(crate) fn verify_inner_with_prior(
        &self,
        object_hash: &[u8],
        prov: &ProvenanceObject,
        prior: &HashMap<ObjectId, (u64, Vec<u8>)>,
    ) -> Verification {
        let mut v = Verification::default();
        let target = prov.target;

        // Index records; detect forks.
        let mut index: HashMap<(ObjectId, u64), &ProvenanceRecord> = HashMap::new();
        for r in &prov.records {
            let key = (r.output_oid, r.seq_id);
            if index.insert(key, r).is_some() {
                v.issues.push(TamperEvidence::DuplicateRecord {
                    oid: key.0,
                    seq: key.1,
                });
            }
        }

        // Condition 1: the delivered object matches the newest record.
        let latest = match prov.latest() {
            Some(r) => r,
            None => {
                v.issues.push(TamperEvidence::NoRecords { oid: target });
                return v;
            }
        };
        if latest.output_hash != object_hash {
            v.issues
                .push(TamperEvidence::OutputMismatch { oid: target });
        }

        // Structural checks per object chain.
        let mut by_object: HashMap<ObjectId, Vec<&ProvenanceRecord>> = HashMap::new();
        for r in &prov.records {
            by_object.entry(r.output_oid).or_default().push(r);
        }
        for (oid, mut chain) in by_object {
            chain.sort_by_key(|r| r.seq_id);
            for (i, r) in chain.iter().enumerate() {
                self.check_shape(r, &mut v);
                let links_to_prior = match r.kind {
                    RecordKind::Insert | RecordKind::Aggregate => None,
                    RecordKind::Update => r.inputs.first().and_then(|inp| inp.prev_seq),
                };
                if i == 0 {
                    // Chain start: must not claim a predecessor we can't see
                    // ... unless it's an aggregate (whose "predecessors" are
                    // the input objects, checked below), a first-touch
                    // update (prev None), or the predecessor is an attested
                    // prior slot (compacted away behind a sealed
                    // checkpoint).
                    if let Some(prev) = links_to_prior {
                        let attested = prior.get(&oid).is_some_and(|(seq, _)| *seq == prev);
                        if !attested {
                            v.issues
                                .push(TamperEvidence::MissingRecord { oid, seq: prev });
                        }
                    }
                } else {
                    let prior = chain[i - 1];
                    match (r.kind, links_to_prior) {
                        (RecordKind::Update, Some(prev)) if prev == prior.seq_id => {}
                        _ => {
                            v.issues
                                .push(TamperEvidence::BrokenChain { oid, seq: r.seq_id });
                        }
                    }
                }
            }
        }

        // Condition 2: every checksum verifies over the record's fields and
        // the stored predecessor checksums (attested prior checksums
        // substitute for compacted-away predecessors).
        for r in &prov.records {
            self.check_signature(r, &index, prior, &mut v);
            v.records_checked += 1;
            v.participants.insert(r.participant);
        }

        // Reachability: everything presented must be part of the target's
        // history (dangling records indicate insertion).
        let mut reachable: HashSet<(ObjectId, u64)> = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back((target, latest.seq_id));
        while let Some(key) = queue.pop_front() {
            if !reachable.insert(key) {
                continue;
            }
            let Some(r) = index.get(&key) else { continue };
            for input in &r.inputs {
                if let Some(prev) = input.prev_seq {
                    queue.push_back((input.oid, prev));
                }
            }
        }
        for r in &prov.records {
            if !reachable.contains(&(r.output_oid, r.seq_id)) {
                v.issues.push(TamperEvidence::ExtraneousRecord {
                    oid: r.output_oid,
                    seq: r.seq_id,
                });
            }
        }

        v
    }

    /// Like [`Self::verify`], but for provenance collected from a durable
    /// store that went through crash recovery: `report` is what
    /// [`tep_storage::ProvenanceDb::recovery`] found at open. A degraded
    /// recovery (quarantined ranges or undecodable records) adds
    /// [`TamperEvidence::StorageQuarantine`], so damaged chains never
    /// verify clean and the `MissingRecord`/`BrokenChain` findings the
    /// gaps cause are attributed to quarantined storage. A benign torn
    /// tail (unacknowledged final append) adds nothing.
    pub fn verify_recovered(
        &self,
        object_hash: &[u8],
        prov: &ProvenanceObject,
        report: &tep_storage::RecoveryReport,
    ) -> Verification {
        let mut v = self.verify(object_hash, prov);
        if report.is_degraded() {
            // Count only *corruption* gaps: compaction-excised ranges are
            // intentional holes (attested by the compaction stamp), not
            // quarantined damage.
            let evidence = TamperEvidence::StorageQuarantine {
                gaps: report.corruption_gaps() as u64 + report.decode_failures,
                bytes: report.quarantined_bytes,
            };
            if let Some(obs) = &self.obs {
                obs.evidence.record(evidence.kind());
                if v.verified() {
                    // The quarantine finding flips this run to tampered.
                    obs.tampered_runs.inc();
                }
            }
            v.issues.push(evidence);
        }
        v
    }

    /// Re-verifies a query [`SliceProof`] without trusting the server that
    /// produced it: re-runs the R1–R8 checks over just the slice and
    /// re-computes the answer from the records.
    ///
    /// Checks, in order:
    ///
    /// 1. algorithm agreement and canonical `(oid, seq)` ordering of
    ///    records and boundary links (reordered slices are
    ///    `MalformedRecord`, forks `DuplicateRecord`);
    /// 2. every record's structural shape and checksum signature, with
    ///    predecessor checksums resolving through the slice first and the
    ///    boundary links second — an unresolvable predecessor is
    ///    `MissingRecord`, a forged record `BadSignature`;
    /// 3. **coverage**: the operator's own traversal is re-run over the
    ///    slice. In-bounds nodes the traversal demands must be present as
    ///    records (`MissingRecord`), out-of-bounds crossings must carry a
    ///    boundary checksum (`MissingRecord`), and records or boundary
    ///    links the traversal never touches are `ExtraneousRecord`;
    /// 4. the shipped answer must equal the answer recomputed from the
    ///    slice, else `OutputMismatch`.
    ///
    /// Soundness caveat (also in the `slice` module docs): backward
    /// queries are complete relative to the signed records; for
    /// descendants/audit slices a server can omit qualifying records
    /// undetectably until authenticated denial lands — every record it
    /// *does* return is still fully verified.
    pub fn verify_slice(&self, proof: &SliceProof) -> Verification {
        let timer = self.obs.as_ref().map(|o| o.latency_ns.start_timer());
        let v = self.verify_slice_inner(proof);
        if let Some(obs) = &self.obs {
            obs.record_outcome(&v);
        }
        drop(timer);
        v
    }

    fn verify_slice_inner(&self, proof: &SliceProof) -> Verification {
        let mut v = Verification::default();
        let spec = &proof.spec;

        if proof.alg != self.alg {
            v.issues.push(TamperEvidence::MalformedRecord {
                oid: spec.target,
                seq: proof.target_seq,
                why: "slice hash algorithm mismatch",
            });
            return v;
        }

        // Canonical ordering: the encoding is bijective, so enforcing
        // sorted order here means a reordered slice can never verify.
        for w in proof.records.windows(2) {
            if (w[0].output_oid, w[0].seq_id) >= (w[1].output_oid, w[1].seq_id) {
                v.issues.push(TamperEvidence::MalformedRecord {
                    oid: w[1].output_oid,
                    seq: w[1].seq_id,
                    why: "slice records out of canonical order",
                });
            }
        }
        for w in proof.boundary.windows(2) {
            if (w[0].oid, w[0].seq) >= (w[1].oid, w[1].seq) {
                v.issues.push(TamperEvidence::MalformedRecord {
                    oid: w[1].oid,
                    seq: w[1].seq,
                    why: "boundary links out of canonical order",
                });
            }
        }

        // Index the slice; forks inside it are duplicates, and a boundary
        // link shadowing an in-slice record is a fork too.
        let mut index: HashMap<(ObjectId, u64), &ProvenanceRecord> = HashMap::new();
        for r in &proof.records {
            if index.insert((r.output_oid, r.seq_id), r).is_some() {
                v.issues.push(TamperEvidence::DuplicateRecord {
                    oid: r.output_oid,
                    seq: r.seq_id,
                });
            }
        }
        let mut boundary: HashMap<(ObjectId, u64), &[u8]> = HashMap::new();
        for b in &proof.boundary {
            let key = (b.oid, b.seq);
            if index.contains_key(&key) || boundary.insert(key, &b.checksum).is_some() {
                v.issues.push(TamperEvidence::DuplicateRecord {
                    oid: b.oid,
                    seq: b.seq,
                });
            }
        }

        // Shape + signature of every record, predecessor checksums
        // resolving slice-first, boundary-second. The boundary checksums
        // are covered by the in-slice signatures that chain to them, so a
        // flipped boundary link surfaces as BadSignature.
        for r in &proof.records {
            check_record_shape(r, &mut v.issues);
            check_record_signature(
                self.keys,
                self.alg,
                r,
                |oid, seq| {
                    index
                        .get(&(oid, seq))
                        .map(|p| p.checksum.as_slice())
                        .or_else(|| boundary.get(&(oid, seq)).copied())
                },
                &mut v.issues,
            );
            v.records_checked += 1;
            v.participants.insert(r.participant);
        }

        // Coverage + answer recomputation, per operator. `allowed_boundary`
        // accumulates every (oid, seq) a boundary link may legitimately
        // stand for; anything else shipped in the boundary is extraneous.
        let mut allowed_boundary: HashSet<(ObjectId, u64)> = proof
            .records
            .iter()
            .flat_map(|r| {
                r.inputs
                    .iter()
                    .filter_map(|i| i.prev_seq.map(|p| (i.oid, p)))
            })
            .collect();

        let expected = match spec.op {
            QueryOp::Ancestors | QueryOp::LineageSlice | QueryOp::Polynomial => {
                let closure = backward_closure(
                    &spec.bounds,
                    (spec.target, proof.target_seq),
                    usize::MAX,
                    |oid, seq| index.get(&(oid, seq)).map(|r| (*r).clone()),
                );
                for &(oid, seq) in &closure.missing {
                    v.issues.push(TamperEvidence::MissingRecord { oid, seq });
                }
                let kept: HashSet<(ObjectId, u64)> = closure.kept.iter().copied().collect();
                for r in &proof.records {
                    if !kept.contains(&(r.output_oid, r.seq_id)) {
                        v.issues.push(TamperEvidence::ExtraneousRecord {
                            oid: r.output_oid,
                            seq: r.seq_id,
                        });
                    }
                }
                // Every clipped crossing must ship its checksum so the
                // recipient can keep auditing past the bounds.
                for &(oid, seq) in &closure.clipped {
                    allowed_boundary.insert((oid, seq));
                    if !boundary.contains_key(&(oid, seq)) {
                        v.issues.push(TamperEvidence::MissingRecord { oid, seq });
                    }
                }
                if spec.op == QueryOp::Polynomial {
                    QueryAnswer::Polynomial(polynomial_over(
                        &proof.records,
                        (spec.target, proof.target_seq),
                    ))
                } else {
                    let mut oids: Vec<ObjectId> = closure
                        .kept
                        .iter()
                        .map(|&(o, _)| o)
                        .filter(|&o| o != spec.target)
                        .collect();
                    oids.sort();
                    oids.dedup();
                    QueryAnswer::Objects(oids)
                }
            }
            QueryOp::Descendants => {
                // Anchor: the target's record at target_seq proves the
                // subject exists and pins the traversal root.
                let anchor = (spec.target, proof.target_seq);
                if !index.contains_key(&anchor) {
                    v.issues.push(TamperEvidence::MissingRecord {
                        oid: anchor.0,
                        seq: anchor.1,
                    });
                }
                let aggs: Vec<AggEdge> = proof
                    .records
                    .iter()
                    .filter(|r| r.kind == RecordKind::Aggregate)
                    .map(|r| {
                        (
                            r.output_oid,
                            r.seq_id,
                            r.inputs.iter().map(|i| i.oid).collect(),
                        )
                    })
                    .collect();
                let (kept_idx, depth) = forward_closure(&spec.bounds, spec.target, &aggs);
                let kept: HashSet<(ObjectId, u64)> =
                    kept_idx.iter().map(|&i| (aggs[i].0, aggs[i].1)).collect();
                for r in &proof.records {
                    let key = (r.output_oid, r.seq_id);
                    if key != anchor && !kept.contains(&key) {
                        v.issues.push(TamperEvidence::ExtraneousRecord {
                            oid: key.0,
                            seq: key.1,
                        });
                    }
                }
                QueryAnswer::Objects(
                    depth
                        .keys()
                        .copied()
                        .filter(|&o| o != spec.target)
                        .collect(),
                )
            }
            QueryOp::AuditSlice => {
                let Some(who) = spec.participant else {
                    v.issues.push(TamperEvidence::MalformedRecord {
                        oid: spec.target,
                        seq: proof.target_seq,
                        why: "audit slice without a participant",
                    });
                    return v;
                };
                for r in &proof.records {
                    if r.participant != who || !spec.bounds.seq_in_range(r.seq_id) {
                        v.issues.push(TamperEvidence::ExtraneousRecord {
                            oid: r.output_oid,
                            seq: r.seq_id,
                        });
                    }
                }
                let mut oids: Vec<ObjectId> = proof.records.iter().map(|r| r.output_oid).collect();
                oids.sort();
                oids.dedup();
                QueryAnswer::Objects(oids)
            }
        };

        for b in &proof.boundary {
            if !allowed_boundary.contains(&(b.oid, b.seq)) && !index.contains_key(&(b.oid, b.seq)) {
                v.issues.push(TamperEvidence::ExtraneousRecord {
                    oid: b.oid,
                    seq: b.seq,
                });
            }
        }

        if expected != proof.answer {
            v.issues
                .push(TamperEvidence::OutputMismatch { oid: spec.target });
        }

        v
    }

    fn check_shape(&self, r: &ProvenanceRecord, v: &mut Verification) {
        check_record_shape(r, &mut v.issues);
    }

    fn check_signature(
        &self,
        r: &ProvenanceRecord,
        index: &HashMap<(ObjectId, u64), &ProvenanceRecord>,
        prior: &HashMap<ObjectId, (u64, Vec<u8>)>,
        v: &mut Verification,
    ) {
        check_record_signature(
            self.keys,
            self.alg,
            r,
            |oid, seq| {
                index
                    .get(&(oid, seq))
                    .map(|p| p.checksum.as_slice())
                    .or_else(|| {
                        prior
                            .get(&oid)
                            .filter(|(s, _)| *s == seq)
                            .map(|(_, c)| c.as_slice())
                    })
            },
            &mut v.issues,
        );
    }

    /// Resolves the key directory for crate-internal verify surfaces
    /// (checkpoint-attested verification lives in `checkpoint.rs`).
    pub(crate) fn keys(&self) -> &KeyDirectory {
        self.keys
    }

    /// Records a finished verification in the attached observability (if
    /// any) — for crate-internal verify surfaces built outside this
    /// module.
    pub(crate) fn record_outcome(&self, v: &Verification) {
        if let Some(obs) = &self.obs {
            obs.record_outcome(v);
        }
    }

    /// Verifies a signed non-membership proof. A proof that fails — bad
    /// root signature, non-authenticating witness path, non-adjacent
    /// witnesses, or a target the witnesses do not straddle — yields
    /// [`TamperEvidence::ForgedDenial`], attributed to the signing (or
    /// claimed) server. An empty issue list means the denial is honest:
    /// the object provably has no leaf under the signed root.
    pub fn verify_denial(&self, denial: &crate::denial::SignedDenial) -> Verification {
        let timer = self.obs.as_ref().map(|o| o.latency_ns.start_timer());
        let mut v = Verification::default();
        if denial.check(self.keys).is_err() {
            v.issues.push(TamperEvidence::ForgedDenial {
                oid: denial.proof.absent,
            });
        }
        if let Some(obs) = &self.obs {
            obs.record_outcome(&v);
        }
        drop(timer);
        v
    }

    /// Verifies a range answer against its signed completeness proof.
    /// `answered` is the member set the server actually served. A proof
    /// that fails verification is [`TamperEvidence::ForgedDenial`] (forged
    /// proof material, anchored at the range's lower bound); a proof that
    /// *verifies* while `answered` omits one of its proven members is
    /// [`TamperEvidence::IncompleteResponse`] (the server withheld a match
    /// it provably holds). Members in `answered` that the proof does not
    /// cover are also `ForgedDenial` — the proof denies them.
    pub fn verify_range(
        &self,
        range: &crate::denial::SignedRange,
        answered: &[ObjectId],
    ) -> Verification {
        let timer = self.obs.as_ref().map(|o| o.latency_ns.start_timer());
        let mut v = Verification::default();
        match range.check(self.keys) {
            Err(_) => {
                v.issues.push(TamperEvidence::ForgedDenial {
                    oid: range.proof.lo,
                });
            }
            Ok(proven) => {
                let proven_set: HashSet<ObjectId> = proven.iter().copied().collect();
                let answered_set: HashSet<ObjectId> = answered.iter().copied().collect();
                if proven.iter().any(|m| !answered_set.contains(m)) {
                    v.issues.push(TamperEvidence::IncompleteResponse {
                        lo: range.proof.lo,
                        hi: range.proof.hi,
                    });
                }
                for &extra in answered {
                    if !proven_set.contains(&extra) {
                        v.issues.push(TamperEvidence::ForgedDenial { oid: extra });
                    }
                }
            }
        }
        if let Some(obs) = &self.obs {
            obs.record_outcome(&v);
        }
        drop(timer);
        v
    }
}

/// Checks one record's structural invariants for its kind; shared by the
/// batch [`Verifier`] and the [`StreamingVerifier`].
fn check_record_shape(r: &ProvenanceRecord, issues: &mut Vec<TamperEvidence>) {
    let flag = |issues: &mut Vec<TamperEvidence>, why| {
        issues.push(TamperEvidence::MalformedRecord {
            oid: r.output_oid,
            seq: r.seq_id,
            why,
        })
    };
    match r.kind {
        RecordKind::Insert => {
            if !r.inputs.is_empty() {
                flag(issues, "insert records must have no inputs");
            }
        }
        RecordKind::Update => {
            if r.inputs.len() != 1 {
                flag(issues, "update records must have exactly one input");
            } else if r.inputs[0].oid != r.output_oid {
                flag(issues, "update input must be the output object itself");
            }
        }
        RecordKind::Aggregate => {
            if r.inputs.is_empty() {
                flag(issues, "aggregate records must have at least one input");
            }
            if r.inputs.windows(2).any(|w| w[0].oid >= w[1].oid) {
                flag(issues, "aggregate inputs must be sorted and distinct");
            }
            if r.inputs.iter().any(|i| i.oid == r.output_oid) {
                flag(issues, "aggregate output must be a fresh object");
            }
        }
    }
}

/// Checks one record's checksum signature, resolving predecessor checksums
/// through `lookup_prev`; missing predecessors are R2/R7 evidence and skip
/// the signature check (it could not possibly pass).
fn check_record_signature<'a>(
    keys: &KeyDirectory,
    alg: HashAlgorithm,
    r: &ProvenanceRecord,
    lookup_prev: impl Fn(ObjectId, u64) -> Option<&'a [u8]>,
    issues: &mut Vec<TamperEvidence>,
) {
    let mut prev_checksums: Vec<&[u8]> = Vec::new();
    let mut resolvable = true;
    for input in &r.inputs {
        let Some(prev) = input.prev_seq else { continue };
        match lookup_prev(input.oid, prev) {
            Some(c) => prev_checksums.push(c),
            None => {
                issues.push(TamperEvidence::MissingRecord {
                    oid: input.oid,
                    seq: prev,
                });
                resolvable = false;
            }
        }
    }
    if !resolvable {
        return;
    }

    if keys.public_key(r.participant).is_err() {
        issues.push(TamperEvidence::UnknownParticipant {
            participant: r.participant,
        });
        return;
    }
    let msg = r.message(alg, &prev_checksums);
    // A batch member proves itself: its path folds its own leaf up to the
    // root the participant signed, so a bad index, path, leaf or signature
    // fails this record and no other.
    let genuine = match r.checksum_format {
        ChecksumFormat::PerRecord => keys
            .verify_signature(r.participant, alg, &msg, &r.checksum)
            .is_ok(),
        ChecksumFormat::Batched => BatchChecksum::decode(alg, &r.checksum).is_ok_and(|c| {
            c.signed_message(alg, r.output_oid, &msg)
                .is_some_and(|signed| {
                    keys.verify_signature(r.participant, alg, &signed, &c.signature)
                        .is_ok()
                })
        }),
    };
    if !genuine {
        issues.push(TamperEvidence::BadSignature {
            oid: r.output_oid,
            seq: r.seq_id,
        });
    }
}

/// Incremental verifier for provenance that arrives **one record at a
/// time** — e.g. over `tep-net` PROV frames — so a recipient can reject a
/// transfer at the first bad record instead of buffering the whole history.
///
/// Records must arrive sorted by `(output_oid, seq_id)`. That order is
/// topological for the provenance DAG (an aggregate's inputs always carry
/// smaller object ids than its freshly allocated output; a chain's earlier
/// records carry smaller sequence ids), so every predecessor checksum a
/// record's signature covers has already been seen. A sender that deviates
/// from the order surfaces as `MissingRecord`/`BrokenChain` evidence —
/// deviation is itself suspicious.
///
/// On the same sorted input, [`finish`](Self::finish) reports the same
/// issue multiset as [`Verifier::verify`] (ordering within the list may
/// differ; both report *all* evidence found). One intentional difference:
/// when the stream carried records but none for the target object, the
/// batch verifier stops at `NoRecords` while the streaming verifier also
/// retains the per-record evidence it already emitted.
pub struct StreamingVerifier<'a> {
    keys: &'a KeyDirectory,
    alg: HashAlgorithm,
    target: ObjectId,
    issues: Vec<TamperEvidence>,
    records_checked: usize,
    participants: BTreeSet<ParticipantId>,
    /// Checksums of every accepted record, for predecessor resolution.
    checksums: HashMap<(ObjectId, u64), Vec<u8>>,
    /// Push order (including duplicate slots), for reachability reporting.
    order: Vec<(ObjectId, u64)>,
    /// Predecessor edges for the final reachability sweep.
    edges: HashMap<(ObjectId, u64), Vec<(ObjectId, u64)>>,
    /// Highest sequence id seen so far per object chain.
    chain_tail: HashMap<ObjectId, u64>,
    /// `(seq_id, output_hash)` of the newest target record.
    latest_target: Option<(u64, Vec<u8>)>,
    /// Rolling digest of the accepted records' canonical bytes, for
    /// proving a resume point to a sender ([`Self::stream_digest`]).
    digest: RecordStreamDigest,
    /// Optional tep-obs instrumentation (shared counter names with the
    /// batch [`Verifier`]).
    obs: Option<VerifyObs>,
}

impl<'a> StreamingVerifier<'a> {
    /// Starts verifying the history of `target`.
    pub fn new(keys: &'a KeyDirectory, alg: HashAlgorithm, target: ObjectId) -> Self {
        StreamingVerifier {
            keys,
            alg,
            target,
            issues: Vec::new(),
            records_checked: 0,
            participants: BTreeSet::new(),
            checksums: HashMap::new(),
            order: Vec::new(),
            edges: HashMap::new(),
            chain_tail: HashMap::new(),
            latest_target: None,
            digest: RecordStreamDigest::new(alg, target),
            obs: None,
        }
    }

    /// Attaches tep-obs instrumentation; evidence found at push/finish time
    /// increments the same `tep_core_evidence_<kind>_total` counters the
    /// batch [`Verifier`] uses.
    pub fn attach_obs(&mut self, registry: &Registry) {
        self.obs = Some(VerifyObs::new(registry));
    }

    /// The object whose history is being verified.
    pub fn target(&self) -> ObjectId {
        self.target
    }

    /// All evidence accumulated so far.
    pub fn issues(&self) -> &[TamperEvidence] {
        &self.issues
    }

    /// Records pushed so far.
    pub fn records_checked(&self) -> usize {
        self.records_checked
    }

    /// Feeds the next record; returns how many **new** pieces of evidence
    /// this record produced (0 ⇒ clean so far), letting a transport abort
    /// mid-transfer and attribute the failure to this record's frame.
    pub fn push_record(&mut self, r: &ProvenanceRecord) -> usize {
        let before = self.issues.len();
        let key = (r.output_oid, r.seq_id);

        if self.checksums.contains_key(&key) {
            self.issues.push(TamperEvidence::DuplicateRecord {
                oid: key.0,
                seq: key.1,
            });
        }

        check_record_shape(r, &mut self.issues);

        // Chain structure against the tail seen so far.
        let links_to_prior = match r.kind {
            RecordKind::Insert | RecordKind::Aggregate => None,
            RecordKind::Update => r.inputs.first().and_then(|inp| inp.prev_seq),
        };
        match self.chain_tail.get(&r.output_oid) {
            None => {
                if let Some(prev) = links_to_prior {
                    self.issues.push(TamperEvidence::MissingRecord {
                        oid: r.output_oid,
                        seq: prev,
                    });
                }
            }
            Some(&prior) => match (r.kind, links_to_prior) {
                (RecordKind::Update, Some(prev)) if prev == prior => {}
                _ => {
                    self.issues.push(TamperEvidence::BrokenChain {
                        oid: r.output_oid,
                        seq: r.seq_id,
                    });
                }
            },
        }
        self.chain_tail.insert(r.output_oid, r.seq_id);

        // Signature over the record's fields and already-seen predecessor
        // checksums (topological order guarantees they have arrived).
        let checksums = &self.checksums;
        check_record_signature(
            self.keys,
            self.alg,
            r,
            |oid, seq| checksums.get(&(oid, seq)).map(Vec::as_slice),
            &mut self.issues,
        );

        self.checksums.insert(key, r.checksum.clone());
        self.order.push(key);
        let preds: Vec<(ObjectId, u64)> = r
            .inputs
            .iter()
            .filter_map(|i| i.prev_seq.map(|p| (i.oid, p)))
            .collect();
        self.edges.insert(key, preds);

        if r.output_oid == self.target {
            let newer = self
                .latest_target
                .as_ref()
                .is_none_or(|(seq, _)| r.seq_id >= *seq);
            if newer {
                self.latest_target = Some((r.seq_id, r.output_hash.clone()));
            }
        }

        self.records_checked += 1;
        self.participants.insert(r.participant);
        self.digest.push(&r.to_stored().to_bytes());
        let new_evidence = self.issues.len() - before;
        if let Some(obs) = &self.obs {
            obs.records.inc();
            obs.evidence.record_issues(&self.issues[before..]);
        }
        new_evidence
    }

    /// The rolling digest over the canonical bytes of every record pushed
    /// so far — the proof-of-position a resumable transfer sends in its
    /// RESUME frame.
    pub fn stream_digest(&self) -> &[u8] {
        self.digest.current()
    }

    /// Serializes the verifier's full state into a sealed, self-
    /// authenticating blob (see
    /// [`VerifierCheckpoint`](crate::streaming::VerifierCheckpoint)), or
    /// `None` if any tamper evidence has been found — evidence is
    /// terminal, never suspended and resumed past.
    pub fn checkpoint(&self) -> Option<Vec<u8>> {
        if !self.issues.is_empty() {
            return None;
        }
        let mut participants: Vec<ParticipantId> = self.participants.iter().copied().collect();
        participants.sort();
        let mut chain_tail: Vec<RecordSlot> =
            self.chain_tail.iter().map(|(&o, &s)| (o, s)).collect();
        chain_tail.sort();
        let mut checksums: Vec<(RecordSlot, Vec<u8>)> = self
            .checksums
            .iter()
            .map(|(&k, c)| (k, c.clone()))
            .collect();
        checksums.sort_by_key(|(k, _)| *k);
        let mut edges: Vec<(RecordSlot, Vec<RecordSlot>)> =
            self.edges.iter().map(|(&k, p)| (k, p.clone())).collect();
        edges.sort_by_key(|(k, _)| *k);
        Some(
            VerifierCheckpoint {
                alg: self.alg,
                target: self.target,
                records: self.records_checked as u64,
                stream_digest: self.digest.current().to_vec(),
                latest_target: self.latest_target.clone(),
                participants,
                chain_tail,
                order: self.order.clone(),
                checksums,
                edges,
            }
            .seal(),
        )
    }

    /// Rebuilds a verifier from a sealed checkpoint blob. The blob is
    /// authenticated before anything is trusted; corruption anywhere
    /// yields a [`CheckpointError`], never a silently different verifier.
    /// The restored verifier continues exactly where [`Self::checkpoint`]
    /// stopped: pushing the remaining records and finishing produces the
    /// same verdict as an uninterrupted run.
    pub fn restore(keys: &'a KeyDirectory, blob: &[u8]) -> Result<Self, CheckpointError> {
        let cp = VerifierCheckpoint::open(blob)?;
        Ok(StreamingVerifier {
            keys,
            alg: cp.alg,
            target: cp.target,
            issues: Vec::new(),
            records_checked: cp.records as usize,
            participants: cp.participants.into_iter().collect(),
            checksums: cp.checksums.into_iter().collect(),
            order: cp.order,
            edges: cp.edges.into_iter().collect(),
            chain_tail: cp.chain_tail.into_iter().collect(),
            latest_target: cp.latest_target,
            digest: RecordStreamDigest::resume(cp.alg, cp.stream_digest),
            obs: None,
        })
    }

    /// Finishes: checks the delivered object hash against the newest target
    /// record and sweeps for records unreachable from it.
    pub fn finish(mut self, object_hash: &[u8]) -> Verification {
        let before_finish = self.issues.len();
        let Some((latest_seq, latest_hash)) = self.latest_target.take() else {
            self.issues
                .push(TamperEvidence::NoRecords { oid: self.target });
            return self.conclude(before_finish);
        };
        if latest_hash != object_hash {
            self.issues
                .push(TamperEvidence::OutputMismatch { oid: self.target });
        }

        let mut reachable: HashSet<(ObjectId, u64)> = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back((self.target, latest_seq));
        while let Some(key) = queue.pop_front() {
            if !reachable.insert(key) {
                continue;
            }
            let Some(preds) = self.edges.get(&key) else {
                continue;
            };
            for &p in preds {
                queue.push_back(p);
            }
        }
        for &(oid, seq) in &self.order {
            if !reachable.contains(&(oid, seq)) {
                self.issues
                    .push(TamperEvidence::ExtraneousRecord { oid, seq });
            }
        }

        self.conclude(before_finish)
    }

    /// Records obs for the finish-time evidence and the run as a whole,
    /// then assembles the final [`Verification`].
    fn conclude(mut self, before_finish: usize) -> Verification {
        if let Some(obs) = self.obs.take() {
            obs.evidence.record_issues(&self.issues[before_finish..]);
            obs.runs.inc();
            if !self.issues.is_empty() {
                obs.tampered_runs.inc();
            }
        }
        Verification {
            issues: self.issues,
            records_checked: self.records_checked,
            participants: self.participants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::HashingStrategy;
    use crate::provenance::collect;
    use crate::tracker::{ProvenanceTracker, TrackerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use tep_crypto::pki::{CertificateAuthority, Participant};
    use tep_model::{AggregateMode, Value};
    use tep_storage::ProvenanceDb;

    const ALG: HashAlgorithm = HashAlgorithm::Sha256;

    struct World {
        tracker: ProvenanceTracker,
        keys: KeyDirectory,
        alice: Participant,
        bob: Participant,
    }

    fn world() -> World {
        let mut rng = StdRng::seed_from_u64(55);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
        let bob = ca.enroll(ParticipantId(2), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        keys.register(alice.certificate().clone()).unwrap();
        keys.register(bob.certificate().clone()).unwrap();
        let tracker = ProvenanceTracker::new(
            TrackerConfig {
                alg: ALG,
                strategy: HashingStrategy::Economical,
            },
            Arc::new(ProvenanceDb::in_memory()),
        );
        World {
            tracker,
            keys,
            alice,
            bob,
        }
    }

    #[test]
    fn honest_linear_history_verifies() {
        let mut w = world();
        let (a, _) = w.tracker.insert(&w.alice, Value::Int(1), None).unwrap();
        w.tracker.update(&w.bob, a, Value::Int(2)).unwrap();
        w.tracker.update(&w.alice, a, Value::Int(3)).unwrap();
        let prov = collect(w.tracker.db(), a).unwrap();
        let hash = w.tracker.object_hash(a).unwrap();
        let v = Verifier::new(&w.keys, ALG).verify(&hash, &prov);
        assert!(v.verified(), "issues: {:?}", v.issues);
        assert_eq!(v.records_checked, 3);
        assert_eq!(v.participants.len(), 2);
    }

    #[test]
    fn honest_nonlinear_history_verifies() {
        let mut w = world();
        let (a, _) = w.tracker.insert(&w.alice, Value::text("a1"), None).unwrap();
        let (b, _) = w.tracker.insert(&w.alice, Value::text("b1"), None).unwrap();
        w.tracker.update(&w.bob, b, Value::text("b2")).unwrap();
        let (c, _) = w
            .tracker
            .aggregate(&w.bob, &[a, b], Value::text("c1"), AggregateMode::Atomic)
            .unwrap();
        w.tracker.update(&w.alice, a, Value::text("a2")).unwrap();
        let (d, _) = w
            .tracker
            .aggregate(&w.alice, &[a, c], Value::text("d1"), AggregateMode::Atomic)
            .unwrap();
        let prov = collect(w.tracker.db(), d).unwrap();
        let hash = w.tracker.object_hash(d).unwrap();
        let v = Verifier::new(&w.keys, ALG).verify(&hash, &prov);
        assert!(v.verified(), "issues: {:?}", v.issues);
        assert_eq!(v.records_checked, 6);
    }

    #[test]
    fn honest_compound_history_verifies() {
        let mut w = world();
        let (root, _) = w.tracker.insert(&w.alice, Value::text("db"), None).unwrap();
        let (table, _) = w
            .tracker
            .insert(&w.alice, Value::text("t"), Some(root))
            .unwrap();
        let (row, _) = w.tracker.insert(&w.bob, Value::Null, Some(table)).unwrap();
        let (cell, _) = w.tracker.insert(&w.bob, Value::Int(1), Some(row)).unwrap();
        w.tracker.update(&w.alice, cell, Value::Int(2)).unwrap();
        w.tracker.delete(&w.bob, cell).unwrap();
        // Verify the root's (inherited) chain.
        let prov = collect(w.tracker.db(), root).unwrap();
        let hash = w.tracker.object_hash(root).unwrap();
        let v = Verifier::new(&w.keys, ALG).verify(&hash, &prov);
        assert!(v.verified(), "issues: {:?}", v.issues);
    }

    #[test]
    fn degraded_recovery_adds_storage_quarantine_evidence() {
        use tep_storage::{GapKind, LogGap, RecoveryReport};
        let mut w = world();
        let (a, _) = w.tracker.insert(&w.alice, Value::Int(1), None).unwrap();
        w.tracker.update(&w.bob, a, Value::Int(2)).unwrap();
        let prov = collect(w.tracker.db(), a).unwrap();
        let hash = w.tracker.object_hash(a).unwrap();
        let verifier = Verifier::new(&w.keys, ALG);

        // Clean recovery (even with a benign torn tail) changes nothing.
        let clean = RecoveryReport {
            truncated_bytes: 17,
            ..RecoveryReport::default()
        };
        assert!(verifier.verify_recovered(&hash, &prov, &clean).verified());

        // A quarantined gap must surface even when the surviving chain is
        // internally consistent.
        let degraded = RecoveryReport {
            truncated_bytes: 0,
            gaps: vec![LogGap {
                kind: GapKind::Corruption,
                preceding_frames: 1,
                offset: 40,
                bytes: 64,
            }],
            quarantined_bytes: 64,
            decode_failures: 1,
            compaction: None,
        };
        let v = verifier.verify_recovered(&hash, &prov, &degraded);
        assert!(!v.verified());
        assert!(v
            .issues
            .contains(&TamperEvidence::StorageQuarantine { gaps: 2, bytes: 64 }));
    }

    /// Regression: a compaction-excised gap is an *intentional* hole — it
    /// must never inflate `StorageQuarantine` counts or flip a clean
    /// history to degraded, even alongside a real corruption gap.
    #[test]
    fn compaction_gap_is_not_storage_quarantine() {
        use tep_storage::{GapKind, LogGap, RecoveryReport};
        let mut w = world();
        let (a, _) = w.tracker.insert(&w.alice, Value::Int(1), None).unwrap();
        let prov = collect(w.tracker.db(), a).unwrap();
        let hash = w.tracker.object_hash(a).unwrap();
        let verifier = Verifier::new(&w.keys, ALG);

        // Compaction-only recovery stays clean.
        let compacted = RecoveryReport {
            gaps: vec![LogGap {
                kind: GapKind::Compacted,
                preceding_frames: 0,
                offset: 12,
                bytes: 4096,
            }],
            ..RecoveryReport::default()
        };
        assert!(
            verifier
                .verify_recovered(&hash, &prov, &compacted)
                .verified(),
            "compaction gap must not degrade recovery"
        );

        // Mixed compaction + corruption: only the corruption gap counts.
        let mixed = RecoveryReport {
            gaps: vec![
                LogGap {
                    kind: GapKind::Compacted,
                    preceding_frames: 0,
                    offset: 12,
                    bytes: 4096,
                },
                LogGap {
                    kind: GapKind::Corruption,
                    preceding_frames: 3,
                    offset: 512,
                    bytes: 64,
                },
            ],
            quarantined_bytes: 64,
            ..RecoveryReport::default()
        };
        let v = verifier.verify_recovered(&hash, &prov, &mixed);
        assert!(v
            .issues
            .contains(&TamperEvidence::StorageQuarantine { gaps: 1, bytes: 64 }));
    }

    #[test]
    fn r1_modified_record_detected() {
        let mut w = world();
        let (a, _) = w.tracker.insert(&w.alice, Value::Int(1), None).unwrap();
        w.tracker.update(&w.bob, a, Value::Int(2)).unwrap();
        let mut prov = collect(w.tracker.db(), a).unwrap();
        // Bob's record claims a different input value.
        let idx = prov.records.iter().position(|r| r.seq_id == 1).unwrap();
        prov.records[idx].inputs[0].hash[0] ^= 0xFF;
        let hash = w.tracker.object_hash(a).unwrap();
        let v = Verifier::new(&w.keys, ALG).verify(&hash, &prov);
        assert!(v
            .issues
            .contains(&TamperEvidence::BadSignature { oid: a, seq: 1 }));
    }

    #[test]
    fn r2_removed_record_detected() {
        let mut w = world();
        let (a, _) = w.tracker.insert(&w.alice, Value::Int(1), None).unwrap();
        w.tracker.update(&w.bob, a, Value::Int(2)).unwrap();
        w.tracker.update(&w.alice, a, Value::Int(3)).unwrap();
        let mut prov = collect(w.tracker.db(), a).unwrap();
        // Remove Bob's middle record (seq 1).
        prov.records.retain(|r| r.seq_id != 1);
        let hash = w.tracker.object_hash(a).unwrap();
        let v = Verifier::new(&w.keys, ALG).verify(&hash, &prov);
        assert!(!v.verified());
        assert!(v.issues.iter().any(|i| matches!(
            i,
            TamperEvidence::MissingRecord { .. } | TamperEvidence::BrokenChain { .. }
        )));
    }

    #[test]
    fn r4_unrecorded_data_change_detected() {
        let mut w = world();
        let (a, _) = w.tracker.insert(&w.alice, Value::Int(1), None).unwrap();
        let prov = collect(w.tracker.db(), a).unwrap();
        // Attacker changes the data out-of-band: hash no longer matches.
        let fake_hash = crate::hashing::hash_atom(ALG, a, &Value::Int(999));
        let v = Verifier::new(&w.keys, ALG).verify(&fake_hash, &prov);
        assert!(v
            .issues
            .contains(&TamperEvidence::OutputMismatch { oid: a }));
    }

    #[test]
    fn r5_reassigned_provenance_detected() {
        let mut w = world();
        let (a, _) = w.tracker.insert(&w.alice, Value::Int(1), None).unwrap();
        let (b, _) = w.tracker.insert(&w.bob, Value::Int(1), None).unwrap();
        // Present B's data with A's provenance.
        let prov_a = collect(w.tracker.db(), a).unwrap();
        let hash_b = w.tracker.object_hash(b).unwrap();
        let v = Verifier::new(&w.keys, ALG).verify(&hash_b, &prov_a);
        assert!(v
            .issues
            .contains(&TamperEvidence::OutputMismatch { oid: a }));
    }

    #[test]
    fn unknown_participant_detected() {
        let mut w = world();
        let mut rng = StdRng::seed_from_u64(99);
        let rogue_ca = CertificateAuthority::new(512, ALG, &mut rng);
        let mallory = rogue_ca.enroll(ParticipantId(66), 512, &mut rng);
        let (a, _) = w.tracker.insert(&mallory, Value::Int(1), None).unwrap();
        let prov = collect(w.tracker.db(), a).unwrap();
        let hash = w.tracker.object_hash(a).unwrap();
        let v = Verifier::new(&w.keys, ALG).verify(&hash, &prov);
        assert!(v.issues.contains(&TamperEvidence::UnknownParticipant {
            participant: ParticipantId(66)
        }));
    }

    #[test]
    fn duplicate_seq_detected() {
        let mut w = world();
        let (a, _) = w.tracker.insert(&w.alice, Value::Int(1), None).unwrap();
        w.tracker.update(&w.bob, a, Value::Int(2)).unwrap();
        let mut prov = collect(w.tracker.db(), a).unwrap();
        let dup = prov.records[1].clone();
        prov.records.push(dup);
        let hash = w.tracker.object_hash(a).unwrap();
        let v = Verifier::new(&w.keys, ALG).verify(&hash, &prov);
        assert!(v
            .issues
            .contains(&TamperEvidence::DuplicateRecord { oid: a, seq: 1 }));
    }

    /// Issue lists as order-independent multisets (batch iterates HashMaps,
    /// so intra-list order is not meaningful).
    fn multiset(issues: &[TamperEvidence]) -> Vec<String> {
        let mut v: Vec<String> = issues.iter().map(|i| format!("{i:?}")).collect();
        v.sort();
        v
    }

    /// Records in the wire order `tep-net` sends them: sorted by
    /// `(output_oid, seq_id)`, which is topological for the DAG.
    fn wire_order(prov: &ProvenanceObject) -> Vec<ProvenanceRecord> {
        let mut recs = prov.records.clone();
        recs.sort_by_key(|r| (r.output_oid, r.seq_id));
        recs
    }

    fn dag_world() -> (World, ObjectId) {
        let mut w = world();
        let (a, _) = w.tracker.insert(&w.alice, Value::text("a1"), None).unwrap();
        let (b, _) = w.tracker.insert(&w.alice, Value::text("b1"), None).unwrap();
        w.tracker.update(&w.bob, b, Value::text("b2")).unwrap();
        let (c, _) = w
            .tracker
            .aggregate(&w.bob, &[a, b], Value::text("c1"), AggregateMode::Atomic)
            .unwrap();
        w.tracker.update(&w.alice, a, Value::text("a2")).unwrap();
        let (d, _) = w
            .tracker
            .aggregate(&w.alice, &[a, c], Value::text("d1"), AggregateMode::Atomic)
            .unwrap();
        (w, d)
    }

    #[test]
    fn streaming_verifier_accepts_honest_history() {
        let (mut w, d) = dag_world();
        let prov = collect(w.tracker.db(), d).unwrap();
        let hash = w.tracker.object_hash(d).unwrap();

        let mut sv = StreamingVerifier::new(&w.keys, ALG, d);
        for r in &wire_order(&prov) {
            assert_eq!(sv.push_record(r), 0, "clean record flagged: {r:?}");
        }
        let stream = sv.finish(&hash);
        assert!(stream.verified(), "issues: {:?}", stream.issues);

        let batch = Verifier::new(&w.keys, ALG).verify(&hash, &prov);
        assert_eq!(stream.records_checked, batch.records_checked);
        assert_eq!(stream.participants, batch.participants);
    }

    #[test]
    fn streaming_verifier_matches_batch_under_every_tamper() {
        let (mut w, d) = dag_world();
        let prov = collect(w.tracker.db(), d).unwrap();
        let hash = w.tracker.object_hash(d).unwrap();

        for tamper in crate::attack::all_single_record_tampers(&prov, w.bob.id()) {
            let mut tampered = prov.clone();
            assert!(
                crate::attack::apply_tamper(&mut tampered, &tamper),
                "tamper did not apply: {tamper:?}"
            );
            let batch = Verifier::new(&w.keys, ALG).verify(&hash, &tampered);

            let mut sv = StreamingVerifier::new(&w.keys, ALG, d);
            for r in &wire_order(&tampered) {
                sv.push_record(r);
            }
            let stream = sv.finish(&hash);

            assert!(!stream.verified(), "tamper undetected: {tamper:?}");
            assert_eq!(
                multiset(&stream.issues),
                multiset(&batch.issues),
                "verdicts diverge for {tamper:?}"
            );
        }
    }

    #[test]
    fn streaming_verifier_attributes_bad_record_at_push_time() {
        let mut w = world();
        let (a, _) = w.tracker.insert(&w.alice, Value::Int(1), None).unwrap();
        w.tracker.update(&w.bob, a, Value::Int(2)).unwrap();
        w.tracker.update(&w.alice, a, Value::Int(3)).unwrap();
        let prov = collect(w.tracker.db(), a).unwrap();
        let hash = w.tracker.object_hash(a).unwrap();

        let mut recs = wire_order(&prov);
        // Corrupt the middle record's checksum: a signature failure a
        // transport must be able to pin on that exact frame.
        let bad_idx = recs.iter().position(|r| r.seq_id == 1).unwrap();
        recs[bad_idx].checksum[5] ^= 0x20;

        let mut sv = StreamingVerifier::new(&w.keys, ALG, a);
        let mut first_bad = None;
        for (i, r) in recs.iter().enumerate() {
            if sv.push_record(r) > 0 && first_bad.is_none() {
                first_bad = Some(i);
            }
        }
        assert_eq!(first_bad, Some(bad_idx), "failure not pinned to the frame");
        assert!(sv
            .issues()
            .contains(&TamperEvidence::BadSignature { oid: a, seq: 1 }));
        assert!(!sv.finish(&hash).verified());
    }

    #[test]
    fn checkpoint_restore_continues_identically_at_every_cut() {
        let (mut w, d) = dag_world();
        let prov = collect(w.tracker.db(), d).unwrap();
        let hash = w.tracker.object_hash(d).unwrap();
        let recs = wire_order(&prov);

        // Uncut baseline.
        let mut sv = StreamingVerifier::new(&w.keys, ALG, d);
        for r in &recs {
            sv.push_record(r);
        }
        let full_digest = sv.stream_digest().to_vec();
        let baseline = sv.finish(&hash);
        assert!(baseline.verified());

        for cut in 0..=recs.len() {
            let mut first = StreamingVerifier::new(&w.keys, ALG, d);
            for r in &recs[..cut] {
                first.push_record(r);
            }
            let blob = first.checkpoint().expect("clean verifier checkpoints");
            let mut resumed = StreamingVerifier::restore(&w.keys, &blob).unwrap();
            assert_eq!(resumed.records_checked(), cut);
            assert_eq!(resumed.stream_digest(), first.stream_digest());
            for r in &recs[cut..] {
                assert_eq!(resumed.push_record(r), 0, "cut {cut} flagged clean record");
            }
            assert_eq!(resumed.stream_digest(), full_digest.as_slice());
            let v = resumed.finish(&hash);
            assert!(v.verified(), "cut {cut}: {:?}", v.issues);
            assert_eq!(v.records_checked, baseline.records_checked);
            assert_eq!(v.participants, baseline.participants);
        }
    }

    #[test]
    fn checkpoint_restore_preserves_tamper_verdict() {
        let (mut w, d) = dag_world();
        let prov = collect(w.tracker.db(), d).unwrap();
        let hash = w.tracker.object_hash(d).unwrap();
        let mut recs = wire_order(&prov);
        let bad_idx = recs.len() - 2;
        recs[bad_idx].checksum[7] ^= 0x40;

        // Uncut tampered run.
        let mut sv = StreamingVerifier::new(&w.keys, ALG, d);
        for r in &recs {
            sv.push_record(r);
        }
        let uncut = sv.finish(&hash);
        assert!(!uncut.verified());

        // Cut before the tampered record, resume, continue: same verdict,
        // same evidence kinds.
        let cut = bad_idx; // tampered record arrives after the resume
        let mut first = StreamingVerifier::new(&w.keys, ALG, d);
        for r in &recs[..cut] {
            first.push_record(r);
        }
        let blob = first.checkpoint().unwrap();
        let mut resumed = StreamingVerifier::restore(&w.keys, &blob).unwrap();
        for r in &recs[cut..] {
            resumed.push_record(r);
        }
        let v = resumed.finish(&hash);
        assert_eq!(multiset(&v.issues), multiset(&uncut.issues));
    }

    #[test]
    fn tampered_verifier_refuses_to_checkpoint() {
        let mut w = world();
        let (a, _) = w.tracker.insert(&w.alice, Value::Int(1), None).unwrap();
        let prov = collect(w.tracker.db(), a).unwrap();
        let mut rec = wire_order(&prov)[0].clone();
        rec.checksum[0] ^= 0xFF;
        let mut sv = StreamingVerifier::new(&w.keys, ALG, a);
        assert!(sv.push_record(&rec) > 0);
        assert!(
            sv.checkpoint().is_none(),
            "evidence must never be suspended into a checkpoint"
        );
    }

    #[test]
    fn streaming_verifier_flags_empty_stream() {
        let w = world();
        let sv = StreamingVerifier::new(&w.keys, ALG, ObjectId(9));
        let v = sv.finish(&[0u8; 32]);
        assert_eq!(
            v.issues,
            vec![TamperEvidence::NoRecords { oid: ObjectId(9) }]
        );
    }

    #[test]
    fn empty_provenance_flagged() {
        let w = world();
        let prov = ProvenanceObject {
            target: ObjectId(5),
            records: vec![],
        };
        let v = Verifier::new(&w.keys, ALG).verify(&[0u8; 32], &prov);
        assert_eq!(
            v.issues,
            vec![TamperEvidence::NoRecords { oid: ObjectId(5) }]
        );
    }
}
