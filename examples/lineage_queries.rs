//! Lineage and audit queries over tamper-evident provenance, plus
//! maintenance: trust anchors for repeat recipients and GC of retired
//! history.
//!
//! Models a small data-curation pipeline: raw measurements are ingested,
//! cleaned, and aggregated into a published dataset; the curator then asks
//! "where did this number come from?" questions, captures a trust anchor,
//! and prunes provenance for objects that no longer matter.
//!
//! Run with: `cargo run --example lineage_queries`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tepdb::core::checkpoint::TrustAnchor;
use tepdb::core::gc;
use tepdb::prelude::*;
use tepdb::query::{QueryAnswer, QueryBounds, QueryEngine};

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let ca = CertificateAuthority::new(1024, ALG, &mut rng);
    let ingest = ca.enroll(ParticipantId(1), 1024, &mut rng);
    let cleaner = ca.enroll(ParticipantId(2), 1024, &mut rng);
    let curator = ca.enroll(ParticipantId(3), 1024, &mut rng);
    let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
    for p in [&ingest, &cleaner, &curator] {
        keys.register(p.certificate().clone()).unwrap();
    }

    // --- The pipeline -------------------------------------------------------
    let db = Arc::new(ProvenanceDb::in_memory());
    let mut ledger = AtomicLedger::new(ALG, Arc::clone(&db));
    // Three raw sensor readings.
    let raw: Vec<_> = (0..3)
        .map(|i| {
            ledger
                .insert(&ingest, Value::real(20.0 + i as f64))
                .unwrap()
        })
        .collect();
    // The cleaner fixes an outlier in reading 1.
    ledger.update(&cleaner, raw[1], Value::real(21.2)).unwrap();
    // The curator aggregates the cleaned readings into a published mean.
    let published = ledger
        .aggregate(&curator, &raw, Value::real(21.07))
        .unwrap();
    // A scratch object that later gets retired.
    let scratch = ledger.insert(&cleaner, Value::text("notes")).unwrap();

    // --- Audit queries -------------------------------------------------------
    // Every answer arrives as a slice proof, and is believed only once it
    // re-verifies against the checksum chain.
    let engine = QueryEngine::new(Arc::clone(&db), ALG);
    let verifier = Verifier::new(&keys, ALG);
    let one_hop = |op: QueryOp, target: ObjectId| -> Vec<ObjectId> {
        let spec = QuerySpec {
            bounds: QueryBounds {
                max_depth: Some(1),
                ..QueryBounds::default()
            },
            ..QuerySpec::new(op, target)
        };
        let proof = engine.execute(&spec).unwrap();
        assert!(verifier.verify_slice(&proof).verified());
        match proof.answer {
            QueryAnswer::Objects(oids) => oids,
            other => unreachable!("{op} answers objects, got {other:?}"),
        }
    };
    println!("== audit queries ==");
    let latest = db.latest_for(published).unwrap();
    println!(
        "published value {published} last touched by {} (seq {})",
        latest.participant, latest.seq_id
    );
    let sources = one_hop(QueryOp::Ancestors, published);
    println!("where did it come from: {sources:?}");
    assert!(sources.contains(&raw[1]));
    println!(
        "who consumed raw[0]: {:?}",
        one_hop(QueryOp::Descendants, raw[0])
    );

    // --- Repeat-recipient anchoring ------------------------------------------
    println!("\n== trust anchor ==");
    let prov = ledger.provenance_of(published).unwrap();
    let hash = ledger.object_hash(published).unwrap();
    assert!(verifier.verify(&hash, &prov).verified());
    let anchor = TrustAnchor::capture(&prov).unwrap();
    println!(
        "anchored ({}, seq {}) — future deliveries must still contain this record",
        anchor.oid, anchor.seq
    );

    // History continues; later verification checks the anchor too.
    ledger
        .update(&curator, published, Value::real(21.08))
        .unwrap();
    let prov2 = ledger.provenance_of(published).unwrap();
    let hash2 = ledger.object_hash(published).unwrap();
    let v = verifier.verify_with_anchors(&hash2, &prov2, std::slice::from_ref(&anchor));
    println!("verified with anchor after more history: {}", v.verified());
    assert!(v.verified());

    // The recipient re-anchors at the newest record they have verified;
    // a later rollback attack (truncate past that anchor + revert the
    // data) is then caught.
    let fresh_anchor = TrustAnchor::capture(&prov2).unwrap();
    let mut rolled = prov2.clone();
    rolled
        .records
        .retain(|r| r.output_oid != published || r.seq_id < fresh_anchor.seq);
    let old_hash = rolled
        .records
        .iter()
        .filter(|r| r.output_oid == published)
        .max_by_key(|r| r.seq_id)
        .map(|r| r.output_hash.clone())
        .expect("aggregate record remains");
    // Without the anchor the rolled-back history looks fine…
    assert!(verifier.verify(&old_hash, &rolled).verified());
    // …with it, the truncation is evident.
    let v = verifier.verify_with_anchors(&old_hash, &rolled, &[fresh_anchor]);
    println!("rollback attempt detected: {}", !v.verified());
    assert!(!v.verified());

    // --- Retiring history -----------------------------------------------------
    println!("\n== provenance GC ==");
    ledger.delete(scratch).unwrap();
    let before = ledger.db().len();
    let report = gc::prune(ledger.db(), &[published]).unwrap();
    println!(
        "pruned to published object's lineage: {} → {} records ({} dropped)",
        before, report.kept, report.dropped
    );
    // Everything the published object needs is still verifiable.
    let prov3 = ledger.provenance_of(published).unwrap();
    let v = verifier.verify(&ledger.object_hash(published).unwrap(), &prov3);
    assert!(v.verified());
    println!("post-GC verification: {}", v.verified());
}
