//! Pins the tamper-evidence vocabulary. Each kind's name is a metric name
//! (`tep_core_evidence_<kind>_total`), its position is its counter's index,
//! and each message is what `tep verify` prints, so any change here is a
//! visible change: the SHA-256 over all of them must not move.

use tep_core::verify::{EvidenceKind, TamperEvidence};
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::ParticipantId;
use tep_model::ObjectId;

/// One value of every `TamperEvidence` variant, in `EvidenceKind::ALL` order.
fn samples() -> Vec<TamperEvidence> {
    let (oid, seq) = (ObjectId(7), 3);
    vec![
        TamperEvidence::OutputMismatch { oid },
        TamperEvidence::BadSignature { oid, seq },
        TamperEvidence::MissingRecord { oid, seq },
        TamperEvidence::BrokenChain { oid, seq },
        TamperEvidence::ExtraneousRecord { oid, seq },
        TamperEvidence::DuplicateRecord { oid, seq },
        TamperEvidence::UnknownParticipant {
            participant: ParticipantId(9),
        },
        TamperEvidence::MalformedRecord {
            oid,
            seq,
            why: "predecessor does not sort before its record",
        },
        TamperEvidence::NoRecords { oid },
        TamperEvidence::AnchorViolation { oid, seq },
        TamperEvidence::StorageQuarantine {
            gaps: 2,
            bytes: 4096,
        },
        TamperEvidence::ResumeMismatch {
            oid,
            claimed: 5,
            confirmed: 4,
        },
        TamperEvidence::ReplicaDivergence { oid, depth: 6 },
        TamperEvidence::ForgedRoot {
            level: 1,
            index: 12,
        },
        TamperEvidence::ForgedDenial { oid },
        TamperEvidence::IncompleteResponse {
            lo: ObjectId(2),
            hi: ObjectId(40),
        },
        TamperEvidence::CheckpointMismatch { oid, seq },
    ]
}

#[test]
fn evidence_vocabulary_is_byte_stable() {
    let mut text = String::new();
    for (index, kind) in EvidenceKind::ALL.into_iter().enumerate() {
        assert_eq!(kind as usize, index, "{kind:?} is not at its counter index");
        text += &format!(
            "{index} {} {} {kind} {kind:?}\n",
            kind.name(),
            kind.counter_name()
        );
    }
    let samples = samples();
    let sampled: Vec<EvidenceKind> = samples.iter().map(TamperEvidence::kind).collect();
    let expected: Vec<EvidenceKind> = EvidenceKind::ALL
        .into_iter()
        .filter(|k| *k != EvidenceKind::MalformedStream)
        .collect();
    assert_eq!(sampled, expected, "a TamperEvidence variant lacks a sample");
    for evidence in &samples {
        text += &format!("{} | {evidence} | {evidence:?}\n", evidence.kind().name());
    }
    let hex: String = HashAlgorithm::Sha256
        .digest(text.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        (text.len(), hex.as_str()),
        (
            4274,
            "d30b88a31bafb74c8c8c723c2e4faa7468bf4e8afde1aa92fe1f50151332b27c"
        ),
        "evidence vocabulary changed; it now reads:\n{text}"
    );
}
