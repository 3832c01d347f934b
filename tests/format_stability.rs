//! Format-stability pins: the signed-message layout and record wire format
//! define what *existing* checksums mean. Any change to them silently
//! invalidates previously stored provenance, so this test freezes a golden
//! digest of a fully deterministic history. If it fails, you changed
//! checksum semantics — bump the record version and document the deviation
//! in DESIGN.md §5a (and regenerate the constant only then, knowingly).
//!
//! Two pins cover the records. The history built through the per-record entry point
//! must still hash to the constant captured before amortized signing
//! existed — that is the proof the v2 format did not move. The same
//! history built through `complex` pins the v3 batch-member format. A third
//! pin freezes the bytes of the query-index sidecar (`TEPIDX`) over both,
//! a fourth the proof, checkpoint and archive formats, and a fifth the
//! storage files: a forest snapshot, a checkpoint-store file and a durable
//! log holding signature-elided batch frames.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use tepdb::core::{
    prove, Checkpoint, DenialProof, HashCache, QueryBounds, RangeProof, ShardTree, SignedDenial,
    SignedRange, SignedRoot,
};
use tepdb::crypto::hex::to_hex;
use tepdb::crypto::sha256::Sha256;
use tepdb::net::wire::{encode_message, Message};
use tepdb::prelude::*;
use tepdb::query::{QueryEngine, QueryIndex};
use tepdb::storage::vfs::{FaultConfig, FaultVfs, Vfs};
use tepdb::storage::{
    compact_durable_log, save_forest_with, AppendLog, CheckpointStore, CompactionStamp,
};

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

#[test]
fn query_index_sidecar_golden_pin() {
    // The TEPIDX sidecar is an on-disk format too: a restarted process
    // loads what an older build saved. Captured before the reverse-edge
    // index moved into `QueryIndex`, so that refactor provably wrote the
    // same bytes.
    for (scheme, golden) in [
        (
            Scheme::PerRecord,
            "10ad4880810960f1891c5c0ba03cbceeab58cd2b24025f56ccf3d9bce205111c",
        ),
        (
            Scheme::Amortized,
            "dffbc42a5650e06abca254cd5e087cb41ff1b82bc2516ec4eefdc4b28bf1420d",
        ),
    ] {
        let db = golden_history(scheme);
        let mut ix = QueryIndex::new();
        ix.sync(&db);
        let mut h = Sha256::new();
        h.update(&ix.to_bytes());
        assert_eq!(
            to_hex(&h.finalize()),
            golden,
            "TEPIDX sidecar bytes changed"
        );
    }
}

/// One deterministic sample of every proof, checkpoint and archive format,
/// as `(name, canonical bytes)`.
fn proof_and_checkpoint_samples() -> Vec<(&'static str, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(0xF0A7);
    let ca = CertificateAuthority::new(512, ALG, &mut rng);
    let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
    let bob = ca.enroll(ParticipantId(2), 512, &mut rng);
    let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
    keys.register(alice.certificate().clone()).unwrap();
    keys.register(bob.certificate().clone()).unwrap();

    let db = Arc::new(ProvenanceDb::in_memory());
    let config = TrackerConfig {
        alg: ALG,
        ..Default::default()
    };
    let mut t = ProvenanceTracker::new(config, Arc::clone(&db));
    let (root, _) = t.insert(&alice, Value::text("db"), None).unwrap();
    let (row, _) = t.insert(&alice, Value::Null, Some(root)).unwrap();
    let (cell, _) = t.insert(&bob, Value::Int(1), Some(row)).unwrap();
    t.insert(&bob, Value::Int(2), Some(row)).unwrap();
    t.update(&bob, cell, Value::Int(3)).unwrap();
    let (other, _) = t.insert(&alice, Value::real(2.5), None).unwrap();
    let (agg, _) = t
        .aggregate(&alice, &[cell, other], Value::Int(4), AggregateMode::Atomic)
        .unwrap();

    let spec = QuerySpec {
        op: QueryOp::Ancestors,
        target: agg,
        participant: Some(ParticipantId(2)),
        bounds: QueryBounds {
            max_depth: Some(0),
            seq_range: Some((0, 9)),
        },
    };
    let engine = QueryEngine::new(Arc::clone(&db), ALG);
    let bounded = engine
        .execute(&QuerySpec {
            participant: None,
            ..spec
        })
        .unwrap();
    let poly = engine
        .execute(&QuerySpec::new(QueryOp::Polynomial, agg))
        .unwrap();
    assert!(!bounded.boundary.is_empty());

    let leaves = [2u64, 4, 8, 16, 32].map(|i| (ObjectId(i), ALG.digest(&i.to_be_bytes())));
    let tree = ShardTree::build(ALG, leaves.to_vec());
    let signed_root = SignedRoot::sign(&tree, 7, &alice).unwrap();
    let denial = DenialProof::prove(&tree, ObjectId(5)).unwrap();
    let range = RangeProof::prove(&tree, ObjectId(3), ObjectId(9));

    let history = tepdb::core::collect(&db, agg).unwrap();
    let anchor = TrustAnchor::capture(&history).unwrap();
    let checkpoint = Checkpoint::capture(ALG, &db, 3);
    let sealed = checkpoint.clone().seal(&alice).unwrap();
    let mut verifier = StreamingVerifier::new(&keys, ALG, agg);
    for r in &history.records {
        verifier.push_record(r);
    }
    let verifier_checkpoint = verifier.checkpoint().expect("a clean history checkpoints");

    let subtree = prove(t.forest(), &mut HashCache::new(ALG), root, cell).unwrap();

    let vfs: Arc<dyn Vfs> = FaultVfs::new(FaultConfig::default());
    let path = Path::new("/pin.teplog");
    let mut log = AppendLog::create_with(Arc::clone(&vfs), path).unwrap();
    for i in 0..4u8 {
        log.append(&[i; 24]).unwrap();
    }
    log.sync().unwrap();
    drop(log);
    let report = compact_durable_log(
        Arc::clone(&vfs),
        path,
        |i, _| i >= 3,
        3,
        &sealed.checkpoint.digest(),
    )
    .unwrap();
    let archive = AppendLog::open_with(vfs, report.archive_path.as_deref().unwrap()).unwrap();
    let stamp = CompactionStamp {
        generation: 2,
        excised_frames: 11,
        excised_bytes: 4096,
        watermark: 13,
        checkpoint_digest: vec![0x5C; 32],
    };

    vec![
        ("bounded SliceProof", bounded.to_bytes()),
        ("polynomial SliceProof", poly.to_bytes()),
        ("QuerySpec", encode_message(&Message::Query { spec })),
        ("SignedRoot", signed_root.to_bytes()),
        ("DenialProof", denial.to_bytes()),
        ("RangeProof", range.to_bytes()),
        (
            "SignedDenial",
            SignedDenial {
                root: signed_root.clone(),
                proof: denial,
            }
            .to_bytes(),
        ),
        (
            "SignedRange",
            SignedRange {
                root: signed_root,
                proof: range,
            }
            .to_bytes(),
        ),
        ("TrustAnchor", anchor.to_bytes()),
        ("Checkpoint", checkpoint.to_bytes()),
        ("SealedCheckpoint", sealed.to_bytes()),
        ("SubtreeProof", subtree.to_bytes()),
        ("verifier checkpoint", verifier_checkpoint),
        ("CompactionStamp", stamp.to_bytes()),
        ("compacted log stamp", report.stamp.to_bytes()),
        ("archive header", archive.payloads[0].clone()),
    ]
}

#[test]
fn proof_and_checkpoint_formats_golden_pin() {
    // Proofs, checkpoints and archive frames are stored and shipped: a
    // peer or a restarted process reads what an older build wrote. One
    // SHA-256 over every sample's name, length and bytes; a failure lists
    // each sample's own digest so the format that moved is named.
    const GOLDEN: &str = "86e6e09b500d054c13c9edc0671cd5726d7f85830ca34d49ac95196e185ba43d";
    let samples = proof_and_checkpoint_samples();
    let mut h = Sha256::new();
    let mut table = String::new();
    for (name, bytes) in &samples {
        h.update(name.as_bytes());
        h.update(&(bytes.len() as u64).to_be_bytes());
        h.update(bytes);
        let mut one = Sha256::new();
        one.update(bytes);
        table.push_str(&format!(
            "{name}: {} bytes, {}\n",
            bytes.len(),
            &to_hex(&one.finalize())[..16]
        ));
    }
    assert_eq!(
        to_hex(&h.finalize()),
        GOLDEN,
        "proof/checkpoint bytes changed:\n{table}"
    );
}

#[test]
fn storage_file_formats_golden_pin() {
    // Snapshots, checkpoint-store files and the record log are read back
    // by later builds. Each file is written through a `FaultVfs` and read
    // back whole; one SHA-256 covers every file's name, length and bytes.
    let fault = FaultVfs::new(FaultConfig::default());
    let vfs: Arc<dyn Vfs> = fault.clone();
    let log_path = Path::new("/pin/provenance.teplog");
    let db = Arc::new(ProvenanceDb::durable_with(Arc::clone(&vfs), log_path).unwrap());
    let mut t = ProvenanceTracker::new(
        TrackerConfig {
            alg: ALG,
            ..Default::default()
        },
        Arc::clone(&db),
    );
    let mut rng = StdRng::seed_from_u64(0x5707);
    let ca = CertificateAuthority::new(512, ALG, &mut rng);
    let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
    // Every insert under a parent also updates the parent: two records
    // signed once, the second written signature-elided.
    let insert = |value, parent| PrimitiveOp::Insert {
        id: None,
        value,
        parent,
    };
    let root = apply(
        &mut t,
        Scheme::Amortized,
        &alice,
        insert(Value::text("db"), None),
        b"",
    )
    .unwrap();
    let row = apply(
        &mut t,
        Scheme::Amortized,
        &alice,
        insert(Value::Null, Some(root)),
        b"",
    )
    .unwrap();
    for i in 0..3 {
        apply(
            &mut t,
            Scheme::Amortized,
            &alice,
            insert(Value::Int(i), Some(row)),
            b"cell",
        );
    }
    db.sync().unwrap();
    let log = fault.file_bytes(log_path).unwrap();
    let self_contained: usize = db
        .all_records()
        .iter()
        .map(|r| 8 + r.to_bytes().len())
        .sum();
    assert!(
        12 + self_contained > log.len(),
        "no frame was written signature-elided"
    );

    let snap_path = Path::new("/pin/forest.snap");
    save_forest_with(Arc::clone(&vfs), t.forest(), snap_path).unwrap();
    let ckpt_path = Path::new("/pin/ckpt-2");
    CheckpointStore::new(Arc::clone(&vfs), ckpt_path)
        .save(b"an opaque sealed checkpoint")
        .unwrap();

    // Captured while the snapshot, checkpoint-store and frame-header codecs
    // were still written by hand, so their move onto the one codec
    // provably wrote the same bytes.
    const GOLDEN: &str = "5257e73abe17a5db624736b699a1d91041348b820bb6757d8cede90ff346b6da";
    let mut h = Sha256::new();
    let mut table = String::new();
    for path in [snap_path, ckpt_path, log_path] {
        let bytes = fault.file_bytes(path).unwrap();
        let name = path.to_str().unwrap();
        h.update(name.as_bytes());
        h.update(&(bytes.len() as u64).to_be_bytes());
        h.update(&bytes);
        let mut one = Sha256::new();
        one.update(&bytes);
        table.push_str(&format!(
            "{name}: {} bytes, {}\n",
            bytes.len(),
            &to_hex(&one.finalize())[..16]
        ));
    }
    assert_eq!(
        to_hex(&h.finalize()),
        GOLDEN,
        "storage file bytes changed:\n{table}"
    );
}
