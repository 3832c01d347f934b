//! Engine → proof → verifier roundtrips: every operator's proof must
//! verify clean at the recipient, survive a byte roundtrip, and answer
//! exactly what the DAG implies.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tep_core::prelude::*;
use tep_model::encode::DecodeError;
use tep_model::{AggregateMode, ObjectId, Value};
use tep_query::{
    Polynomial, QueryAnswer, QueryBounds, QueryEngine, QueryError, QueryIndex, QueryOp, QuerySpec,
    SliceProof,
};
use tep_storage::{ProvenanceDb, StoredRecord};

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

struct World {
    engine: QueryEngine,
    keys: KeyDirectory,
    alice: ParticipantId,
    bob: ParticipantId,
    a: ObjectId,
    b: ObjectId,
    c: ObjectId,
    d: ObjectId,
    e: ObjectId,
}

/// A small diamond DAG:
///
/// ```text
/// a (insert+update, alice)   b (insert, bob)
///        \                  /
///         c = agg[a, b] (alice)
///        /                  \
/// d = agg[c] (bob)           e = agg[a, c] (alice)   <- diamond on a
/// ```
fn world() -> World {
    let mut rng = StdRng::seed_from_u64(42);
    let ca = CertificateAuthority::new(512, ALG, &mut rng);
    let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
    let bob = ca.enroll(ParticipantId(2), 512, &mut rng);
    let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
    keys.register(alice.certificate().clone()).unwrap();
    keys.register(bob.certificate().clone()).unwrap();

    let db = Arc::new(ProvenanceDb::in_memory());
    let mut t = ProvenanceTracker::new(TrackerConfig::default(), db.clone());
    let (a, _) = t.insert(&alice, Value::Int(1), None).unwrap();
    t.update(&alice, a, Value::Int(2)).unwrap();
    let (b, _) = t.insert(&bob, Value::Int(3), None).unwrap();
    let (c, _) = t
        .aggregate(&alice, &[a, b], Value::Int(4), AggregateMode::Atomic)
        .unwrap();
    let (d, _) = t
        .aggregate(&bob, &[c], Value::Int(5), AggregateMode::Atomic)
        .unwrap();
    let (e, _) = t
        .aggregate(&alice, &[a, c], Value::Int(6), AggregateMode::Atomic)
        .unwrap();

    World {
        engine: QueryEngine::new(db, ALG),
        keys,
        alice: alice.id(),
        bob: bob.id(),
        a,
        b,
        c,
        d,
        e,
    }
}

fn verify_clean(w: &World, proof: &SliceProof) {
    let v = Verifier::new(&w.keys, ALG).verify_slice(proof);
    assert!(v.verified(), "slice should verify clean: {:?}", v.issues);
    // Byte roundtrip is lossless and canonical.
    let back = SliceProof::from_bytes(&proof.to_bytes()).unwrap();
    assert_eq!(&back, proof);
}

fn objects(answer: &QueryAnswer) -> Vec<ObjectId> {
    match answer {
        QueryAnswer::Objects(o) => o.clone(),
        other => panic!("expected object answer, got {other:?}"),
    }
}

#[test]
fn ancestors_roundtrip() {
    let w = world();
    let proof = w
        .engine
        .execute(&QuerySpec::new(QueryOp::Ancestors, w.d))
        .unwrap();
    verify_clean(&w, &proof);
    assert_eq!(objects(&proof.answer), vec![w.a, w.b, w.c]);
    // Unbounded backward closure reaches the inserts; no boundary needed.
    assert!(proof.boundary.is_empty());
}

#[test]
fn ancestors_depth_bound_clips_to_boundary() {
    let w = world();
    let spec = QuerySpec {
        op: QueryOp::Ancestors,
        target: w.d,
        participant: None,
        bounds: QueryBounds {
            max_depth: Some(1),
            seq_range: None,
        },
    };
    let proof = w.engine.execute(&spec).unwrap();
    verify_clean(&w, &proof);
    // One aggregate hop reaches c; a and b are clipped behind the bound
    // but their chain checksums ride along as boundary links.
    assert_eq!(objects(&proof.answer), vec![w.c]);
    assert_eq!(proof.records.len(), 2); // d, c
    let clipped: Vec<ObjectId> = proof.boundary.iter().map(|l| l.oid).collect();
    assert_eq!(clipped, vec![w.a, w.b]);
}

#[test]
fn descendants_roundtrip() {
    let w = world();
    let proof = w
        .engine
        .execute(&QuerySpec::new(QueryOp::Descendants, w.a))
        .unwrap();
    verify_clean(&w, &proof);
    assert_eq!(objects(&proof.answer), vec![w.c, w.d, w.e]);

    // Depth 1: only direct consumers.
    let spec = QuerySpec {
        op: QueryOp::Descendants,
        target: w.a,
        participant: None,
        bounds: QueryBounds {
            max_depth: Some(1),
            seq_range: None,
        },
    };
    let proof = w.engine.execute(&spec).unwrap();
    verify_clean(&w, &proof);
    assert_eq!(objects(&proof.answer), vec![w.c, w.e]);
}

#[test]
fn lineage_slice_carries_the_records() {
    let w = world();
    let proof = w
        .engine
        .execute(&QuerySpec::new(QueryOp::LineageSlice, w.e))
        .unwrap();
    verify_clean(&w, &proof);
    assert_eq!(objects(&proof.answer), vec![w.a, w.b, w.c]);
    // The slice is the full derivation closure: e, c, b, and a's chain.
    assert_eq!(proof.records.len(), 5);
}

#[test]
fn audit_slice_per_participant() {
    let w = world();
    let proof = w.engine.execute(&QuerySpec::audit(w.alice)).unwrap();
    verify_clean(&w, &proof);
    assert_eq!(objects(&proof.answer), vec![w.a, w.c, w.e]);

    let proof = w.engine.execute(&QuerySpec::audit(w.bob)).unwrap();
    verify_clean(&w, &proof);
    assert_eq!(objects(&proof.answer), vec![w.b, w.d]);
}

#[test]
fn polynomial_diamond_squares_the_shared_source() {
    let w = world();
    let proof = w
        .engine
        .execute(&QuerySpec::new(QueryOp::Polynomial, w.e))
        .unwrap();
    verify_clean(&w, &proof);
    // e = a · (a · b) — the diamond on a shows up as a².
    let expected = Polynomial {
        terms: vec![(vec![(w.a, 2), (w.b, 1)], 1)],
    };
    assert_eq!(proof.answer, QueryAnswer::Polynomial(expected.clone()));
    assert_eq!(expected.eval(|_| 3), 27);
}

#[test]
fn query_errors_are_not_evidence() {
    let w = world();
    assert_eq!(
        w.engine
            .execute(&QuerySpec::new(QueryOp::Ancestors, ObjectId(9999)))
            .unwrap_err(),
        QueryError::UnknownObject(ObjectId(9999))
    );
    let bad_audit = QuerySpec {
        op: QueryOp::AuditSlice,
        target: ObjectId(0),
        participant: None,
        bounds: QueryBounds::default(),
    };
    assert_eq!(
        w.engine.execute(&bad_audit).unwrap_err(),
        QueryError::MissingParticipant
    );
}

/// A stored record that does not decode never vanishes from an answer:
/// every request that needs it fails naming its `(oid, seq)`, and one that
/// does not need it is still answered.
#[test]
fn an_undecodable_record_fails_the_requests_that_need_it() {
    let w = world();
    let db = w.engine.db();
    let latest = db.latest_for(w.e).unwrap();
    // The columns claim the next slot; the payload still says the old one.
    let seq = latest.seq_id + 1;
    db.append(StoredRecord {
        seq_id: seq,
        ..latest
    })
    .unwrap();
    let undecodable = QueryError::UndecodableRecord {
        oid: w.e,
        seq,
        error: DecodeError::BadTag(0xFD),
    };
    for spec in [
        QuerySpec::audit(w.bob),
        QuerySpec::new(QueryOp::Descendants, w.a),
        QuerySpec::new(QueryOp::Ancestors, w.e),
    ] {
        assert_eq!(
            w.engine.execute(&spec).unwrap_err(),
            undecodable,
            "{spec:?}"
        );
    }
    match collect(db, w.e) {
        Err(CoreError::UndecodableRecord { oid, seq: s, .. }) => assert_eq!((oid, s), (w.e, seq)),
        other => panic!("collect must name the record, got {other:?}"),
    }
    let proof = w
        .engine
        .execute(&QuerySpec::new(QueryOp::Ancestors, w.d))
        .unwrap();
    verify_clean(&w, &proof);
}

#[test]
fn seq_bounds_scope_the_slice() {
    let w = world();
    // Audit alice but only her first two operations (seqs 0 and 1 on a).
    let spec = QuerySpec {
        op: QueryOp::AuditSlice,
        target: ObjectId(0),
        participant: Some(w.alice),
        bounds: QueryBounds {
            max_depth: None,
            seq_range: Some((0, 1)),
        },
    };
    let proof = w.engine.execute(&spec).unwrap();
    verify_clean(&w, &proof);
    assert_eq!(objects(&proof.answer), vec![w.a]);
}

#[test]
fn sidecar_roundtrip_and_staleness() {
    let w = world();
    let db = w.engine.db();
    let mut ix = QueryIndex::new();
    ix.sync(db);
    assert_eq!(ix.synced(), db.len());

    let bytes = ix.to_bytes();
    let back = QueryIndex::from_bytes(&bytes).expect("sidecar bytes roundtrip");
    assert_eq!(back.synced(), ix.synced());
    assert!(back.binds_to(db));
    assert_eq!(back.by_participant(w.alice), ix.by_participant(w.alice));
    // Reverse edges included: the parsed index re-encodes to the same bytes.
    assert_eq!(back.to_bytes(), bytes);

    // Any corrupted byte is rejected, never trusted.
    for i in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        if let Some(parsed) = QueryIndex::from_bytes(&bad) {
            // The CRC only guards the body; a flip in the magic/header
            // can't produce a parse, so anything that parses must still
            // bind (it doesn't: flipped bytes change the CRC).
            assert!(!parsed.binds_to(db), "corrupt sidecar bound at byte {i}");
        }
    }

    // A sidecar from a *different* log must not bind.
    let other = ProvenanceDb::in_memory();
    assert!(!back.binds_to(&other));
}

#[test]
fn sidecar_file_lifecycle() {
    let w = world();
    let db = w.engine.db().clone();
    let dir = std::env::temp_dir().join(format!("tep-query-sidecar-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("log.tepidx");

    let engine = QueryEngine::with_sidecar(db.clone(), ALG, &path);
    engine.sync();
    engine.save_index().unwrap();
    assert!(path.exists());

    // A fresh engine resumes from the sidecar without a rebuild.
    let resumed = QueryEngine::with_sidecar(db, ALG, &path);
    let proof = resumed
        .execute(&QuerySpec::new(QueryOp::Ancestors, w.d))
        .unwrap();
    let v = Verifier::new(&w.keys, ALG).verify_slice(&proof);
    assert!(v.verified(), "{:?}", v.issues);
    std::fs::remove_dir_all(&dir).ok();
}
