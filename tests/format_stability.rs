//! Format-stability pins: the signed-message layout and record wire format
//! define what *existing* checksums mean. Any change to them silently
//! invalidates previously stored provenance, so this test freezes a golden
//! digest of a fully deterministic history. If it fails, you changed
//! checksum semantics — bump the record version and document the deviation
//! in DESIGN.md §5a (and regenerate the constant only then, knowingly).
//!
//! There are two pins. The history built through the per-record entry point
//! must still hash to the constant captured before amortized signing
//! existed — that is the proof the v2 format did not move. The same
//! history built through `complex` pins the v3 batch-member format.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tepdb::crypto::hex::to_hex;
use tepdb::crypto::sha256::Sha256;
use tepdb::prelude::*;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

/// Which entry point multi-record operations go through.
#[derive(Clone, Copy)]
enum Scheme {
    PerRecord,
    Amortized,
}

/// One tracked primitive through the chosen entry point; the created id.
fn apply(
    tracker: &mut ProvenanceTracker,
    scheme: Scheme,
    who: &Participant,
    op: PrimitiveOp,
    annotation: &[u8],
) -> Option<ObjectId> {
    let ops = [op];
    let report = match scheme {
        Scheme::PerRecord => tracker.complex_per_record(who, &ops, annotation, 1),
        Scheme::Amortized => tracker.complex_annotated(who, &ops, annotation),
    }
    .unwrap();
    report.created.first().copied()
}

/// Builds a deterministic history touching every record kind and feature:
/// inserts, inherited updates, delete, annotated complex op, aggregation.
fn golden_history(scheme: Scheme) -> Arc<ProvenanceDb> {
    let mut rng = StdRng::seed_from_u64(0x601D);
    let ca = CertificateAuthority::new(512, ALG, &mut rng);
    let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
    let bob = ca.enroll(ParticipantId(2), 512, &mut rng);

    let db = Arc::new(ProvenanceDb::in_memory());
    let mut tracker = ProvenanceTracker::new(
        TrackerConfig {
            alg: ALG,
            ..Default::default()
        },
        Arc::clone(&db),
    );
    let t = &mut tracker;
    let insert = |value, parent| PrimitiveOp::Insert {
        id: None,
        value,
        parent,
    };
    let root = apply(t, scheme, &alice, insert(Value::text("db"), None), b"").unwrap();
    let row = apply(t, scheme, &alice, insert(Value::Null, Some(root)), b"").unwrap();
    let cell = apply(t, scheme, &bob, insert(Value::Int(1), Some(row)), b"").unwrap();
    let update = PrimitiveOp::Update {
        id: cell,
        value: Value::Int(2),
    };
    apply(t, scheme, &bob, update, b"golden annotation");
    let other = apply(t, scheme, &alice, insert(Value::real(2.5), None), b"").unwrap();
    t.aggregate(
        &alice,
        &[root, other],
        Value::text("agg"),
        AggregateMode::CopySubtrees,
    )
    .unwrap();
    apply(t, scheme, &bob, PrimitiveOp::Delete { id: cell }, b"");
    db
}

/// Digest of every stored record (columns + payload + checksum), in order.
fn history_digest(db: &ProvenanceDb) -> String {
    let mut h = Sha256::new();
    for r in db.all_records() {
        h.update(&r.seq_id.to_be_bytes());
        h.update(&r.participant.0.to_be_bytes());
        h.update(&r.oid.raw().to_be_bytes());
        h.update(&(r.checksum.len() as u64).to_be_bytes());
        h.update(&r.checksum);
        h.update(&(r.payload.len() as u64).to_be_bytes());
        h.update(&r.payload);
    }
    to_hex(&h.finalize())
}

#[test]
fn deterministic_history_is_reproducible() {
    // PKCS#1 v1.5 signatures and seeded keygen make whole histories
    // bit-reproducible; two runs must agree exactly.
    for scheme in [Scheme::PerRecord, Scheme::Amortized] {
        assert_eq!(
            history_digest(&golden_history(scheme)),
            history_digest(&golden_history(scheme))
        );
    }
}

#[test]
fn checksum_semantics_golden_pin() {
    let digest = history_digest(&golden_history(Scheme::PerRecord));
    // Captured from the v2 record format (annotations + signed seqID),
    // before amortized signing existed, and unchanged since.
    // See the module docs before touching this constant.
    const GOLDEN: &str = "b691fc962114b1d6a912c64dd70f1e9840f5d301e77ef78d3d5e16f154b10c42";
    assert_eq!(digest, GOLDEN, "checksum/wire semantics changed");
}

#[test]
fn batch_checksum_semantics_golden_pin() {
    let digest = history_digest(&golden_history(Scheme::Amortized));
    // Captured from the v3 batch-member format (DESIGN.md §5a): leaf and
    // root messages, tree shape, checksum layout. Single-record operations
    // and the aggregate in this history are still v2.
    const GOLDEN: &str = "7a1718a4f626d403287a8d94e08c8ca8af88021adffcf4c0e7ed81f7d5e3d000";
    assert_eq!(digest, GOLDEN, "batch checksum/wire semantics changed");
}
