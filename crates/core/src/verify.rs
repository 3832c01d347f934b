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
//!
//! ## One fold, one reference
//!
//! Every production history check is the [`StreamingVerifier`] fold. A
//! transport pushes records as frames arrive; `verify_recovered`,
//! `verify_with_anchors` and `verify_through_checkpoint` push a collected
//! [`ProvenanceObject`] and add what they attest beyond its records.
//! Batch [`Verifier::verify`] is the naive reference the fold is tested
//! against. The fold's per-record step, admission, is the only other
//! place a record's shape and signature are checked:
//! [`Verifier::verify_slice`] admits a slice's records through it, with
//! the boundary links as attested slots, and keeps only its coverage walk.
//! Every path requires a record's predecessors to sort before it.

use crate::checkpoint::{SealedCheckpoint, TrustAnchor};
use crate::denial::{SignedDenial, SignedRange};
use crate::provenance::ProvenanceObject;
use crate::record::{BatchChecksumView, ChecksumFormat, ProvenanceRecord, RecordKind, RecordRow};
use crate::slice::{
    backward_closure, forward_closure, polynomial_over, AggEdge, QueryAnswer, QueryOp, SliceProof,
};
use crate::streaming::{CheckpointError, RecordSlot, RecordStreamDigest, VerifierCheckpoint};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::ops::Range;
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::{KeyDirectory, ParticipantId};
use tep_model::{ObjectId, TenantId};
use tep_obs::{names, Counter, Histogram, Registry};

pub use crate::evidence::{EvidenceKind, TamperEvidence};

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
        Self::named(registry, |name| name)
    }

    /// `tenant`'s copy of the same family, labelled through
    /// [`names::with_tenant`], so damage shows up both in the unlabelled
    /// aggregate (recorded by the verify paths) and attributed to the tenant
    /// it hit.
    pub(crate) fn for_tenant(registry: &Registry, tenant: TenantId) -> Self {
        Self::named(registry, |name| names::with_tenant(&name, tenant.raw()))
    }

    fn named(registry: &Registry, name: impl Fn(String) -> String) -> Self {
        EvidenceCounters {
            counters: EvidenceKind::ALL
                .iter()
                .map(|k| registry.counter(&name(k.counter_name())))
                .collect(),
        }
    }

    /// Counts one piece of evidence of `kind`.
    pub fn record(&self, kind: EvidenceKind) {
        self.counters[kind as usize].inc();
    }

    /// Counts every issue in `issues` by kind.
    pub(crate) fn record_issues(&self, issues: &[TamperEvidence]) {
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
    ///
    /// This is the **reference**: a naive, order-independent reading of §3's
    /// two verification conditions over the whole record set, with no
    /// streaming state. The production fold ([`StreamingVerifier`], and
    /// every driver below) is tested against it for an identical evidence
    /// multiset.
    pub fn verify(&self, object_hash: &[u8], prov: &ProvenanceObject) -> Verification {
        self.observed(|| self.reference(object_hash, prov))
    }

    /// The one exit every entry point leaves through: times the run and
    /// records its outcome in the attached obs.
    fn observed(&self, run: impl FnOnce() -> Verification) -> Verification {
        let timer = self.obs.as_ref().map(|o| o.latency_ns.start_timer());
        let v = run();
        if let Some(obs) = &self.obs {
            obs.runs.inc();
            obs.records.add(v.records_checked as u64);
            if !v.verified() {
                obs.tampered_runs.inc();
            }
            obs.evidence.record_issues(&v.issues);
        }
        drop(timer);
        v
    }

    fn reference(&self, object_hash: &[u8], prov: &ProvenanceObject) -> Verification {
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
        // Without one, the other records are still checked.
        let latest = prov.latest();
        match latest {
            None => v.issues.push(TamperEvidence::NoRecords { oid: target }),
            Some(r) if r.output_hash != object_hash => v
                .issues
                .push(TamperEvidence::OutputMismatch { oid: target }),
            Some(_) => {}
        }

        // Structural checks per object chain.
        let mut by_object: HashMap<ObjectId, Vec<&ProvenanceRecord>> = HashMap::new();
        for r in &prov.records {
            by_object.entry(r.output_oid).or_default().push(r);
        }
        for (oid, mut chain) in by_object {
            chain.sort_by_key(|r| r.seq_id);
            for (i, r) in chain.iter().enumerate() {
                check_record_shape(r, &mut v.issues);
                let links_to_prior = match r.kind {
                    RecordKind::Insert | RecordKind::Aggregate => None,
                    RecordKind::Update => r.inputs.first().and_then(|inp| inp.prev_seq),
                };
                if i == 0 {
                    // Chain start: must not claim a predecessor we can't see
                    // ... unless it's an aggregate (whose "predecessors" are
                    // the input objects, checked below) or a first-touch
                    // update (prev None).
                    if let Some(prev) = links_to_prior {
                        v.issues
                            .push(TamperEvidence::MissingRecord { oid, seq: prev });
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
        // the stored predecessor checksums.
        let mut msg = Vec::new();
        for r in &prov.records {
            check_record_signature(
                self.keys,
                self.alg,
                r,
                |oid, seq| index.get(&(oid, seq)).map(|p| p.checksum.as_slice()),
                &mut msg,
                &mut v.issues,
            );
            v.records_checked += 1;
            v.participants.insert(r.participant);
        }

        // Reachability: everything presented must be part of the target's
        // history (dangling records indicate insertion). Without a newest
        // target record there is nothing to reach from.
        let Some(latest) = latest else { return v };
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

    /// Runs the fold over `prov`'s records in `(oid, seq)` order, with what
    /// `attest` says the caller vouches for beyond them, and leaves through
    /// the one exit.
    fn drive(
        &self,
        object_hash: &[u8],
        prov: &ProvenanceObject,
        attest: impl FnOnce(&mut Attested),
    ) -> Verification {
        self.observed(|| {
            let mut fold = StreamingVerifier::new(self.keys, self.alg, prov.target);
            attest(&mut fold.attested);
            let mut records: Vec<&ProvenanceRecord> = prov.records.iter().collect();
            records.sort_by_key(|r| (r.output_oid, r.seq_id));
            for r in records {
                fold.push_record(r);
            }
            fold.finish(object_hash)
        })
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
        self.drive(object_hash, prov, |a| {
            a.finding = storage_quarantine(report)
        })
    }

    /// Like [`Verifier::verify`], additionally requiring that the
    /// provenance still contains each anchored record with its exact
    /// checksum — so the chain was neither truncated nor rolled back past
    /// an anchor, nor re-signed across it.
    pub fn verify_with_anchors(
        &self,
        object_hash: &[u8],
        prov: &ProvenanceObject,
        anchors: &[TrustAnchor],
    ) -> Verification {
        self.drive(object_hash, prov, |a| a.heads = anchors.to_vec())
    }

    /// Verifies provenance whose oldest records were compacted away behind
    /// `sealed` — R2/R3 continuity attested *through* the checkpoint.
    ///
    /// Differences from [`Verifier::verify`]:
    ///
    /// * a chain-start record whose claimed predecessor is exactly its
    ///   object's anchored `(seq, checksum)` slot resolves cleanly — the
    ///   record's signature is verified over the *anchored* checksum, so a
    ///   forged splice at the compaction boundary is still
    ///   `BadSignature`;
    /// * a failing seal signature is
    ///   [`TamperEvidence::CheckpointMismatch`] (and the attested slots
    ///   are not honored — the verdict falls back to plain verification);
    /// * a presented record that *occupies* an anchored slot with a
    ///   different checksum is `CheckpointMismatch` for that slot: the
    ///   server rewrote history it had already sealed.
    pub fn verify_through_checkpoint(
        &self,
        object_hash: &[u8],
        prov: &ProvenanceObject,
        sealed: &SealedCheckpoint,
    ) -> Verification {
        let seal_ok = sealed.verify(self.keys);
        let (oid, seq) = (prov.target, 0);
        self.drive(object_hash, prov, |a| {
            let anchors = sealed.checkpoint.anchors.iter().filter(|_| seal_ok);
            a.slots
                .extend(anchors.map(|s| ((s.oid, s.seq), s.checksum.clone())));
            a.finding = (!seal_ok).then_some(TamperEvidence::CheckpointMismatch { oid, seq });
        })
    }

    /// Re-verifies a query [`SliceProof`] without trusting the server that
    /// produced it: re-runs the R1–R8 checks over just the slice and
    /// re-computes the answer from the records.
    ///
    /// Checks, in order:
    ///
    /// 1. algorithm agreement and canonical `(oid, seq)` ordering of
    ///    records and boundary links (reordered slices are
    ///    `MalformedRecord`);
    /// 2. every record passes the fold's admission step, with each
    ///    boundary link an attested slot: forks are `DuplicateRecord` (a
    ///    link shadowing an in-slice record too), an unresolvable
    ///    predecessor is `MissingRecord`, a forged record `BadSignature`;
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
        self.observed(|| self.verify_slice_inner(proof))
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

        // Every record passes the fold's admission step, in canonical order,
        // with each boundary link an attested slot. A link shadowing an
        // in-slice record is a fork, not a slot; a flipped link is
        // BadSignature of the records that chain to it.
        let mut records: Vec<&ProvenanceRecord> = proof.records.iter().collect();
        records.sort_by_key(|r| (r.output_oid, r.seq_id));
        // The slice's record at `slot`, the last one presented if forked.
        let at = |slot: RecordSlot| {
            let end = records.partition_point(|r| (r.output_oid, r.seq_id) <= slot);
            records[..end]
                .last()
                .filter(|r| (r.output_oid, r.seq_id) == slot)
        };
        let mut fold = StreamingVerifier::new(self.keys, self.alg, spec.target);
        let slots = &mut fold.attested.slots;
        for b in &proof.boundary {
            let key = (b.oid, b.seq);
            if at(key).is_some() || slots.insert(key, b.checksum.clone()).is_some() {
                v.issues.push(TamperEvidence::DuplicateRecord {
                    oid: b.oid,
                    seq: b.seq,
                });
            }
        }
        for r in &records {
            fold.admit(r);
        }
        v.issues.append(&mut fold.issues);
        v.records_checked = fold.records_checked();
        v.participants = std::mem::take(&mut fold.participants);

        // Coverage + answer recomputation, per operator. `allowed_boundary`
        // holds every (oid, seq) a boundary link may stand for: an admitted
        // record (a shadowing link, already a fork), a predecessor one links
        // to, or a clipped crossing. Any other link is extraneous.
        let admitted = &fold.admitted;
        let links = admitted.newest.values().flat_map(|&i| admitted.get(i).1);
        let mut allowed_boundary: BTreeSet<RecordSlot> =
            admitted.newest.keys().chain(links).copied().collect();

        let expected = match spec.op {
            QueryOp::Ancestors | QueryOp::LineageSlice | QueryOp::Polynomial => {
                let closure = backward_closure(
                    &spec.bounds,
                    (spec.target, proof.target_seq),
                    usize::MAX,
                    |oid, seq| at((oid, seq)).map(|r| (*r).clone()),
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
                    if !fold.attested.slots.contains_key(&(oid, seq)) {
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
                if !fold.admitted.newest.contains_key(&anchor) {
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
                // An audit has no target, so both fields are 0; a non-zero
                // one is bytes no other check reads.
                if spec.target != ObjectId(0) || proof.target_seq != 0 {
                    v.issues.push(TamperEvidence::MalformedRecord {
                        oid: spec.target,
                        seq: proof.target_seq,
                        why: "audit slice names a target",
                    });
                }
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
            if !allowed_boundary.contains(&(b.oid, b.seq)) {
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

    /// Verifies a signed non-membership proof. A proof that fails — bad
    /// root signature, non-authenticating witness path, non-adjacent
    /// witnesses, or a target the witnesses do not straddle — yields
    /// [`TamperEvidence::ForgedDenial`], attributed to the signing (or
    /// claimed) server. An empty issue list means the denial is honest:
    /// the object provably has no leaf under the signed root.
    ///
    /// A gap is the completeness proof of `[absent, absent]` with no
    /// members, so this is [`Self::verify_range`] with nothing answered.
    pub fn verify_denial(&self, denial: &SignedDenial) -> Verification {
        let gap = SignedRange {
            root: denial.root.clone(),
            proof: denial.proof.gap(),
        };
        self.verify_range(&gap, &[])
    }

    /// Verifies a range answer against its signed completeness proof.
    /// `answered` is the member set the server actually served. A proof
    /// that fails verification is [`TamperEvidence::ForgedDenial`] (forged
    /// proof material, anchored at the range's lower bound); a proof that
    /// *verifies* while `answered` omits one of its proven members is
    /// [`TamperEvidence::IncompleteResponse`] (the server withheld a match
    /// it provably holds). Members in `answered` that the proof does not
    /// cover are also `ForgedDenial` — the proof denies them.
    pub fn verify_range(&self, range: &SignedRange, answered: &[ObjectId]) -> Verification {
        self.observed(|| {
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
            v
        })
    }
}

/// The evidence a crash recovery leaves: a degraded recovery (quarantined
/// ranges or undecodable records) is [`TamperEvidence::StorageQuarantine`];
/// a clean one, or a benign torn tail, is nothing. Only *corruption* gaps
/// count — compaction-excised ranges are intentional holes, attested by the
/// compaction stamp.
pub(crate) fn storage_quarantine(report: &tep_storage::RecoveryReport) -> Option<TamperEvidence> {
    report
        .is_degraded()
        .then(|| TamperEvidence::StorageQuarantine {
            gaps: report.corruption_gaps() as u64 + report.decode_failures,
            bytes: report.quarantined_bytes,
        })
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
    if !preds_sort_before(r) {
        flag(issues, "a predecessor must sort before its record");
    }
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

/// Whether every predecessor `r` names sorts before it in `(oid, seq)`
/// order, as it does for every honest record: object ids are allocated
/// monotonically and sequence ids grow along a chain. The fold,
/// [`polynomial_over`] and [`forward_closure`] rely on this order.
fn preds_sort_before(r: &ProvenanceRecord) -> bool {
    let own = (r.output_oid, r.seq_id);
    r.inputs
        .iter()
        .all(|i| i.prev_seq.is_none_or(|p| (i.oid, p) < own))
}

/// Checks one record's checksum signature, resolving predecessor checksums
/// through `lookup_prev`; missing predecessors are R2/R7 evidence and skip
/// the signature check (it could not possibly pass). A predecessor that does
/// not sort before its record is [`check_record_shape`]'s finding: it is not
/// resolved, and the signature is not checked. The signed message is built
/// in `msg`, a buffer the caller reuses, and a batch checksum is read in
/// place, so the check allocates nothing.
fn check_record_signature<'a>(
    keys: &KeyDirectory,
    alg: HashAlgorithm,
    r: &ProvenanceRecord,
    lookup_prev: impl Fn(ObjectId, u64) -> Option<&'a [u8]>,
    msg: &mut Vec<u8>,
    issues: &mut Vec<TamperEvidence>,
) {
    if !preds_sort_before(r) {
        return;
    }
    let prevs = || {
        r.inputs
            .iter()
            .filter_map(|i| i.prev_seq.map(|prev| (i.oid, prev)))
    };
    let mut resolvable = true;
    for (oid, seq) in prevs() {
        if lookup_prev(oid, seq).is_none() {
            issues.push(TamperEvidence::MissingRecord { oid, seq });
            resolvable = false;
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
    msg.clear();
    r.message_into(
        alg,
        prevs().map(|(oid, seq)| lookup_prev(oid, seq).expect("resolved above")),
        msg,
    );
    // A batch member proves itself: its path folds its own leaf up to the
    // root the participant signed, so a bad index, path, leaf or signature
    // fails this record and no other.
    let genuine = match r.checksum_format {
        ChecksumFormat::PerRecord => keys
            .verify_signature(r.participant, alg, msg, &r.checksum)
            .is_ok(),
        ChecksumFormat::Batched => BatchChecksumView::decode(alg, &r.checksum).is_ok_and(|c| {
            c.signed_message_into(alg, r.output_oid, msg);
            keys.verify_signature(r.participant, alg, msg, c.signature)
                .is_ok()
        }),
    };
    if !genuine {
        issues.push(TamperEvidence::BadSignature {
            oid: r.output_oid,
            seq: r.seq_id,
        });
    }
}

/// What a [`Verifier`] driver hands the fold beyond the record stream; a
/// public constructor attests nothing.
#[derive(Default)]
struct Attested {
    /// Attested slots, each a checksum standing in for a predecessor the
    /// records do not carry: a sealed checkpoint's (compaction excised it)
    /// or a slice's boundary link (the query's bounds clipped it). A record
    /// may link to one, and a record presented at one must carry its
    /// checksum.
    slots: HashMap<RecordSlot, Vec<u8>>,
    /// Remembered chain heads, each required intact at finish.
    heads: Vec<TrustAnchor>,
    /// Evidence against the driver's input itself (a degraded recovery, a
    /// failing seal), reported at finish.
    finding: Option<TamperEvidence>,
}

/// The fold's admitted records, flat: each admission appends its checksum
/// to one byte arena and its predecessor slots to one slot list, so
/// admitting a record allocates only the amortized growth of those lists
/// and of the slot index.
#[derive(Default)]
struct Admitted {
    /// Every admission in push order (duplicate slots included): its slot
    /// and where its checksum sits in `arena` and its predecessors in
    /// `preds`.
    log: Vec<(RecordSlot, Range<usize>, Range<usize>)>,
    arena: Vec<u8>,
    preds: Vec<RecordSlot>,
    /// Each slot's newest admission, sorted as a checkpoint encodes it.
    newest: BTreeMap<RecordSlot, usize>,
}

impl Admitted {
    fn push(&mut self, slot: RecordSlot, checksum: &[u8], preds: impl Iterator<Item = RecordSlot>) {
        let (at, from) = (self.arena.len(), self.preds.len());
        self.arena.extend_from_slice(checksum);
        self.preds.extend(preds);
        self.newest.insert(slot, self.log.len());
        self.log
            .push((slot, at..self.arena.len(), from..self.preds.len()));
    }

    /// Admission `i`'s checksum and predecessors.
    fn get(&self, i: usize) -> (&[u8], &[RecordSlot]) {
        let (_, checksum, preds) = &self.log[i];
        (&self.arena[checksum.clone()], &self.preds[preds.clone()])
    }

    /// The checksum and predecessors `slot` was last admitted with.
    fn of(&self, slot: &RecordSlot) -> Option<(&[u8], &[RecordSlot])> {
        self.newest.get(slot).map(|&i| self.get(i))
    }
}

/// The verifier fold: provenance that arrives **one record at a time** —
/// over `tep-net` PROV frames, or pushed from a collected history by the
/// [`Verifier`] drivers — so a recipient can reject a transfer at the first
/// bad record instead of buffering the whole history.
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
/// issue multiset as the reference, [`Verifier::verify`] (ordering within
/// the list may differ; both report *all* evidence found).
pub struct StreamingVerifier<'a> {
    keys: &'a KeyDirectory,
    alg: HashAlgorithm,
    target: ObjectId,
    issues: Vec<TamperEvidence>,
    participants: BTreeSet<ParticipantId>,
    /// Every admitted record's checksum, for predecessor resolution, and
    /// its predecessor edges, for the final reachability sweep.
    admitted: Admitted,
    /// Highest sequence id seen so far per object chain.
    chain_tail: BTreeMap<ObjectId, u64>,
    /// `(seq_id, output_hash)` of the newest target record.
    latest_target: Option<(u64, Vec<u8>)>,
    /// Rolling digest of the accepted records' rows, for proving a resume
    /// point to a sender ([`Self::stream_digest`]).
    digest: RecordStreamDigest,
    /// One buffer every record's signed message and row bytes are built
    /// in, in turn.
    scratch: Vec<u8>,
    /// Optional tep-obs instrumentation (shared counter names with the
    /// batch [`Verifier`]).
    obs: Option<VerifyObs>,
    /// What the driving [`Verifier`] entry point attests beyond the stream.
    attested: Attested,
}

impl<'a> StreamingVerifier<'a> {
    /// Starts verifying the history of `target`.
    pub fn new(keys: &'a KeyDirectory, alg: HashAlgorithm, target: ObjectId) -> Self {
        StreamingVerifier {
            keys,
            alg,
            target,
            issues: Vec::new(),
            participants: BTreeSet::new(),
            admitted: Admitted::default(),
            chain_tail: BTreeMap::new(),
            latest_target: None,
            digest: RecordStreamDigest::new(alg, target),
            scratch: Vec::new(),
            obs: None,
            attested: Attested::default(),
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
        self.admitted.log.len()
    }

    /// The `(object, seqID)` slots pushed so far, in push order: the
    /// prefix a checkpoint of this verifier has verified.
    pub fn pushed(&self) -> impl Iterator<Item = (ObjectId, u64)> + '_ {
        self.admitted.log.iter().map(|&(slot, ..)| slot)
    }

    /// Feeds the next record; returns how many **new** pieces of evidence
    /// this record produced (0 ⇒ clean so far), letting a transport abort
    /// mid-transfer and attribute the failure to this record's frame.
    ///
    /// The stream digest hashes the record's row: a transport passes the
    /// row it received with the record decoded from it, so the digest
    /// covers the bytes as they arrived (see [`RecordRow`]).
    pub fn push_record<'r>(&mut self, pushed: impl Into<RecordRow<'r>>) -> usize {
        let pushed = pushed.into();
        let r = pushed.record;
        let before = self.issues.len();
        self.admit(r);

        // Chain structure against the tail seen so far.
        let links_to_prior = match r.kind {
            RecordKind::Insert | RecordKind::Aggregate => None,
            RecordKind::Update => r.inputs.first().and_then(|inp| inp.prev_seq),
        };
        match self.chain_tail.get(&r.output_oid) {
            None => {
                // A chain start may link only to a sealed-checkpoint slot.
                if let Some(prev) = links_to_prior {
                    if !self.attested.slots.contains_key(&(r.output_oid, prev)) {
                        self.issues.push(TamperEvidence::MissingRecord {
                            oid: r.output_oid,
                            seq: prev,
                        });
                    }
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

        if r.output_oid == self.target {
            match &mut self.latest_target {
                Some((seq, hash)) if r.seq_id >= *seq => {
                    *seq = r.seq_id;
                    hash.clear();
                    hash.extend_from_slice(&r.output_hash);
                }
                Some(_) => {}
                None => self.latest_target = Some((r.seq_id, r.output_hash.clone())),
            }
        }

        self.digest.push_row(&pushed.row, &mut self.scratch);
        let new_evidence = self.issues.len() - before;
        if let Some(obs) = &self.obs {
            obs.records.inc();
            obs.evidence.record_issues(&self.issues[before..]);
        }
        new_evidence
    }

    /// Admits one record: the per-record check of every path, histories
    /// and slices alike. Its slot must be taken once, its shape must hold,
    /// a record at an attested slot must carry the attested checksum, and
    /// its signature must verify over the predecessors already admitted or
    /// attested (in `(oid, seq)` order an honest record's come first).
    /// Keeps its checksum and predecessor edges.
    fn admit(&mut self, r: &ProvenanceRecord) {
        let key = (r.output_oid, r.seq_id);
        if self.admitted.newest.contains_key(&key) {
            self.issues.push(TamperEvidence::DuplicateRecord {
                oid: key.0,
                seq: key.1,
            });
        }
        check_record_shape(r, &mut self.issues);
        if self
            .attested
            .slots
            .get(&key)
            .is_some_and(|sealed| *sealed != r.checksum)
        {
            self.issues.push(TamperEvidence::CheckpointMismatch {
                oid: r.output_oid,
                seq: r.seq_id,
            });
        }
        let (admitted, slots) = (&self.admitted, &self.attested.slots);
        check_record_signature(
            self.keys,
            self.alg,
            r,
            |oid, seq| {
                let slot = (oid, seq);
                admitted
                    .of(&slot)
                    .map(|(checksum, _)| checksum)
                    .or_else(|| slots.get(&slot).map(Vec::as_slice))
            },
            &mut self.scratch,
            &mut self.issues,
        );

        let preds = r
            .inputs
            .iter()
            .filter_map(|i| i.prev_seq.map(|p| (i.oid, p)));
        self.admitted.push(key, &r.checksum, preds);
        self.participants.insert(r.participant);
    }

    /// The rolling digest over the rows of every record pushed so far —
    /// the proof-of-position a resumable transfer sends in its RESUME
    /// frame.
    pub fn stream_digest(&self) -> &[u8] {
        self.digest.current()
    }

    /// Serializes the verifier's full state into a sealed, self-
    /// authenticating blob (see `VerifierCheckpoint`), or `None` if any
    /// tamper evidence has been found — evidence is terminal, never
    /// suspended and resumed past. The blob is what a replica keeps in its
    /// durable checkpoint store to resume catch-up across a power cycle; a
    /// process that merely retries keeps the verifier itself.
    pub fn checkpoint(&self) -> Option<Vec<u8>> {
        if !self.issues.is_empty() {
            return None;
        }
        let admitted = &self.admitted;
        let newest = admitted.newest.iter().map(|(&s, &i)| (s, admitted.get(i)));
        Some(
            VerifierCheckpoint {
                alg: self.alg,
                target: self.target,
                records: self.records_checked() as u64,
                stream_digest: self.digest.current().to_vec(),
                latest_target: self.latest_target.clone(),
                participants: self.participants.iter().copied().collect(),
                chain_tail: self.chain_tail.iter().map(|(&o, &s)| (o, s)).collect(),
                order: self.pushed().collect(),
                checksums: newest.clone().map(|(s, (c, _))| (s, c.to_vec())).collect(),
                edges: newest.map(|(s, (_, p))| (s, p.to_vec())).collect(),
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
        // The tables are sorted by slot and hold each pushed slot once.
        let mut admitted = Admitted::default();
        for slot in cp.order {
            let at = cp.checksums.binary_search_by_key(&slot, |&(s, _)| s);
            let fresh = |&k: &usize| cp.edges[k].0 == slot && !admitted.newest.contains_key(&slot);
            let Some(k) = at.ok().filter(fresh) else {
                return Err(CheckpointError::Inconsistent(
                    "push order must name each table slot once",
                ));
            };
            admitted.push(slot, &cp.checksums[k].1, cp.edges[k].1.iter().copied());
        }
        Ok(StreamingVerifier {
            participants: cp.participants.into_iter().collect(),
            admitted,
            chain_tail: cp.chain_tail.into_iter().collect(),
            latest_target: cp.latest_target,
            digest: RecordStreamDigest::resume(cp.alg, cp.stream_digest),
            ..StreamingVerifier::new(keys, cp.alg, cp.target)
        })
    }

    /// Finishes: checks the delivered object hash against the newest target
    /// record, sweeps for records unreachable from it, checks every
    /// remembered head and adds the driver's finding.
    pub fn finish(mut self, object_hash: &[u8]) -> Verification {
        let before_finish = self.issues.len();
        match self.latest_target.take() {
            None => self
                .issues
                .push(TamperEvidence::NoRecords { oid: self.target }),
            Some((latest_seq, latest_hash)) => {
                if latest_hash != object_hash {
                    self.issues
                        .push(TamperEvidence::OutputMismatch { oid: self.target });
                }
                self.sweep_unreachable(latest_seq);
            }
        }
        let attested = std::mem::take(&mut self.attested);
        for head in attested.heads {
            let admitted = self.admitted.of(&(head.oid, head.seq));
            if admitted.map(|(checksum, _)| checksum) != Some(&head.checksum[..]) {
                self.issues.push(TamperEvidence::AnchorViolation {
                    oid: head.oid,
                    seq: head.seq,
                });
            }
        }
        self.issues.extend(attested.finding);

        // Obs for the finish-time evidence and the run as a whole.
        if let Some(obs) = self.obs.take() {
            obs.evidence.record_issues(&self.issues[before_finish..]);
            obs.runs.inc();
            if !self.issues.is_empty() {
                obs.tampered_runs.inc();
            }
        }
        Verification {
            records_checked: self.records_checked(),
            issues: self.issues,
            participants: self.participants,
        }
    }

    /// Reports every pushed record the newest target record at
    /// `latest_seq` does not reach (dangling records indicate insertion).
    fn sweep_unreachable(&mut self, latest_seq: u64) {
        let mut reachable: HashSet<(ObjectId, u64)> = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back((self.target, latest_seq));
        while let Some(key) = queue.pop_front() {
            if !reachable.insert(key) {
                continue;
            }
            if let Some((_, preds)) = self.admitted.of(&key) {
                queue.extend(preds);
            }
        }
        for &((oid, seq), ..) in &self.admitted.log {
            if !reachable.contains(&(oid, seq)) {
                self.issues
                    .push(TamperEvidence::ExtraneousRecord { oid, seq });
            }
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

    /// A sealed checkpoint whose push order does not name each table slot
    /// exactly once — a slot pushed twice, or one the tables lack — is
    /// refused, never restored as some other verifier.
    #[test]
    fn restore_refuses_a_push_order_the_tables_do_not_match() {
        let (w, d) = dag_world();
        let mut sv = StreamingVerifier::new(&w.keys, ALG, d);
        for r in &wire_order(&collect(w.tracker.db(), d).unwrap()) {
            sv.push_record(r);
        }
        let cp = VerifierCheckpoint::open(&sv.checkpoint().unwrap()).unwrap();
        let mut twice = cp.clone();
        twice.order[1] = twice.order[0];
        let mut unknown = cp;
        unknown.order[0].1 += 1_000;
        for bad in [twice, unknown] {
            assert!(matches!(
                StreamingVerifier::restore(&w.keys, &bad.seal()),
                Err(CheckpointError::Inconsistent(_))
            ));
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
