//! Amortized signing against its reference: the paper's one-signature-per-
//! record scheme (`complex_per_record`) and the one-signature-per-operation
//! scheme (`complex`) must differ in nothing but the checksum bytes.
//!
//! * **Differential**: generated operation sequences driven through both
//!   give identical forests, object hashes, record bodies and verdicts.
//! * **Tamper equivalence**: every `attack::Tamper` applied to both gives
//!   the same evidence from `Verifier::verify`, `StreamingVerifier` and
//!   `Verifier::verify_slice`.
//! * **One fold against its reference**: batch `Verifier::verify` is the
//!   naive reference. Every driver of the streaming fold —
//!   `StreamingVerifier` uncut and checkpointed halfway, `verify_recovered`,
//!   `verify_with_anchors`, `verify_through_checkpoint` — reports exactly
//!   its evidence multiset, honest and under every tamper, for both
//!   signing schemes.
//! * **Attribution**: in a batch of *n* records, flipping one bit of one
//!   member's index, count, path or copy of the signature flags that
//!   member (and the record that chains onto it) and leaves the other
//!   *n* − 1 verified — including the odd-tail tree shapes.
//! * **Counters**: a multi-record operation costs exactly one signature.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};
use tepdb::core::attack::{all_single_record_tampers, apply_tamper};
use tepdb::core::slice::{QueryOp, QuerySpec};
use tepdb::core::verify::StreamingVerifier;
use tepdb::core::{
    collect, BatchChecksum, Checkpoint, ChecksumFormat, ProvenanceObject, ProvenanceRecord,
    SealedCheckpoint, TamperEvidence, Verifier,
};
use tepdb::obs::Registry;
use tepdb::prelude::*;
use tepdb::query::QueryEngine;
use tepdb::storage::RecoveryReport;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

struct World {
    signer: Participant,
    other: Participant,
    keys: KeyDirectory,
    /// A checkpoint over an empty store, sealed by `signer`: it attests no
    /// slot, so verifying through it must change nothing.
    empty_seal: SealedCheckpoint,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xA3107);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let signer = ca.enroll(ParticipantId(1), 512, &mut rng);
        let other = ca.enroll(ParticipantId(2), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        keys.register(signer.certificate().clone()).unwrap();
        keys.register(other.certificate().clone()).unwrap();
        let empty_seal = Checkpoint::capture(ALG, &ProvenanceDb::in_memory(), 0)
            .seal(&signer)
            .unwrap();
        World {
            signer,
            other,
            keys,
            empty_seal,
        }
    })
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Scheme {
    PerRecord,
    Amortized,
}

fn tracker() -> ProvenanceTracker {
    ProvenanceTracker::new(
        TrackerConfig {
            alg: ALG,
            ..Default::default()
        },
        Arc::new(ProvenanceDb::in_memory()),
    )
}

fn run(t: &mut ProvenanceTracker, scheme: Scheme, who: &Participant, ops: &[PrimitiveOp]) {
    match scheme {
        Scheme::PerRecord => t.complex_per_record(who, ops, b"", 1),
        Scheme::Amortized => t.complex(who, ops),
    }
    .unwrap();
}

/// One generated step; choices index into the live object list.
#[derive(Clone, Debug)]
enum Step {
    /// A node with `cells` children under a chosen parent (or as a root),
    /// in one complex operation.
    InsertRow {
        parent: Option<usize>,
        cells: Vec<i64>,
    },
    /// One complex operation updating several objects.
    Update {
        targets: Vec<usize>,
        value: i64,
    },
    DeleteLeaf {
        target: usize,
    },
    Aggregate {
        a: usize,
        b: usize,
    },
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (any::<usize>(), prop::collection::vec(any::<i64>(), 0..5)).prop_map(|(p, cells)| {
            Step::InsertRow { parent: (p % 3 != 0).then_some(p), cells }
        }),
        4 => (prop::collection::vec(any::<usize>(), 1..5), any::<i64>())
            .prop_map(|(targets, value)| Step::Update { targets, value }),
        1 => any::<usize>().prop_map(|target| Step::DeleteLeaf { target }),
        1 => (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Step::Aggregate { a, b }),
    ]
}

/// Drives one tracker through `steps`. Object ids are allocated
/// deterministically, so both schemes see the same ids.
fn drive(scheme: Scheme, steps: &[Step]) -> ProvenanceTracker {
    let w = world();
    let mut t = tracker();
    let (seed, _) = t.insert(&w.signer, Value::Int(0), None).unwrap();
    let mut live = vec![seed];
    for (i, step) in steps.iter().enumerate() {
        let who = if i % 2 == 0 { &w.signer } else { &w.other };
        match step {
            Step::InsertRow { parent, cells } => {
                let parent = parent.map(|p| live[p % live.len()]);
                let row = t.forest().next_id_hint();
                let mut ops = vec![PrimitiveOp::Insert {
                    id: Some(row),
                    value: Value::Null,
                    parent,
                }];
                ops.extend(cells.iter().enumerate().map(|(k, &v)| PrimitiveOp::Insert {
                    id: Some(ObjectId(row.raw() + 1 + k as u64)),
                    value: Value::Int(v),
                    parent: Some(row),
                }));
                run(&mut t, scheme, who, &ops);
                live.extend((0..=cells.len() as u64).map(|k| ObjectId(row.raw() + k)));
            }
            Step::Update { targets, value } => {
                let ops: Vec<PrimitiveOp> = targets
                    .iter()
                    .map(|&c| PrimitiveOp::Update {
                        id: live[c % live.len()],
                        value: Value::Int(*value),
                    })
                    .collect();
                run(&mut t, scheme, who, &ops);
            }
            Step::DeleteLeaf { target } => {
                let target = live[target % live.len()];
                let leaf = t.forest().node(target).is_some_and(|n| n.is_leaf());
                if target != seed && leaf {
                    run(&mut t, scheme, who, &[PrimitiveOp::Delete { id: target }]);
                    live.retain(|&id| id != target);
                }
            }
            Step::Aggregate { a, b } => {
                let (a, b) = (live[a % live.len()], live[b % live.len()]);
                let nested =
                    t.forest().ancestors(a).contains(&b) || t.forest().ancestors(b).contains(&a);
                if a != b && !nested {
                    let (id, _) = t
                        .aggregate(who, &[a, b], Value::Int(-1), AggregateMode::Atomic)
                        .unwrap();
                    live.push(id);
                }
            }
        }
    }
    t
}

/// Evidence as an order-independent multiset (the batch verifier iterates
/// hash maps). The rendering names kind, object and sequence id.
fn multiset(issues: &[TamperEvidence]) -> Vec<String> {
    let mut v: Vec<String> = issues.iter().map(|i| format!("{i:?}")).collect();
    v.sort();
    v
}

fn wire_order(prov: &ProvenanceObject) -> Vec<ProvenanceRecord> {
    let mut recs = prov.records.clone();
    recs.sort_by_key(|r| (r.output_oid, r.seq_id));
    recs
}

/// Entries `1..=DRIVERS` of [`verdicts`]: the drivers of the streaming
/// fold, each of which must report exactly the reference's evidence.
const DRIVERS: usize = 5;

/// Every verdict on `prov` as an evidence multiset. Entry 0 is the
/// reference, batch `Verifier::verify`. Entries `1..=DRIVERS` are the
/// fold's drivers: a `StreamingVerifier`, `verify_recovered` with a clean
/// report, `verify_with_anchors` with no anchors, `verify_through_checkpoint`
/// under a checkpoint that attests no slot, and a `StreamingVerifier`
/// checkpointed and restored halfway through. The last entry is
/// `verify_slice` of the lineage proof `db` answers for the target with
/// `prov`'s records transplanted in — a different question, so it is
/// compared across schemes only.
fn verdicts(db: &Arc<ProvenanceDb>, hash: &[u8], prov: &ProvenanceObject) -> [Vec<String>; 7] {
    let w = world();
    let verifier = Verifier::new(&w.keys, ALG);
    let batch = verifier.verify(hash, prov);
    let recs = wire_order(prov);

    let mut sv = StreamingVerifier::new(&w.keys, ALG, prov.target);
    for r in &recs {
        sv.push_record(r);
    }
    let stream = sv.finish(hash);

    let recovered = verifier.verify_recovered(hash, prov, &RecoveryReport::default());
    let anchored = verifier.verify_with_anchors(hash, prov, &[]);
    let checkpointed = verifier.verify_through_checkpoint(hash, prov, &w.empty_seal);

    let half = recs.len() / 2;
    let mut first = StreamingVerifier::new(&w.keys, ALG, prov.target);
    for r in &recs[..half] {
        first.push_record(r);
    }
    // Evidence is never sealed into a checkpoint: a tainted verifier runs on.
    let mut resumed = match first.checkpoint() {
        Some(blob) => StreamingVerifier::restore(&w.keys, &blob).unwrap(),
        None => first,
    };
    for r in &recs[half..] {
        resumed.push_record(r);
    }
    let resumed = resumed.finish(hash);

    let mut proof = QueryEngine::new(Arc::clone(db), ALG)
        .execute(&QuerySpec::new(QueryOp::LineageSlice, prov.target))
        .unwrap();
    proof.records = recs;
    let slice = verifier.verify_slice(&proof);

    [
        multiset(&batch.issues),
        multiset(&stream.issues),
        multiset(&recovered.issues),
        multiset(&anchored.issues),
        multiset(&checkpointed.issues),
        multiset(&resumed.issues),
        multiset(&slice.issues),
    ]
}

/// Every driver of the fold reports the reference's evidence multiset.
fn drivers_match_reference(v: &[Vec<String>; 7]) -> bool {
    v[1..=DRIVERS].iter().all(|d| *d == v[0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn both_schemes_agree_on_everything_but_checksum_bytes(
        steps in prop::collection::vec(step(), 1..14),
    ) {
        let w = world();
        let mut per = drive(Scheme::PerRecord, &steps);
        let mut amo = drive(Scheme::Amortized, &steps);

        // Identical forests and object hashes.
        let ids: Vec<ObjectId> = per.forest().ids().collect();
        prop_assert_eq!(&ids, &amo.forest().ids().collect::<Vec<_>>());
        let roots: Vec<ObjectId> = per.forest().roots().collect();
        for &id in &ids {
            prop_assert_eq!(per.object_hash(id).unwrap(), amo.object_hash(id).unwrap());
        }

        // Identical records up to the checksum (a per-record checksum in the
        // amortized history may still differ: it signs over predecessor
        // checksums, and those may be batch checksums).
        let (a, b) = (per.db().all_records(), amo.db().all_records());
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            let mut x = ProvenanceRecord::from_stored(x).unwrap();
            let mut y = ProvenanceRecord::from_stored(y).unwrap();
            prop_assert_eq!(x.checksum_format, ChecksumFormat::PerRecord);
            for r in [&mut x, &mut y] {
                r.checksum.clear();
                r.checksum_format = ChecksumFormat::PerRecord;
            }
            prop_assert_eq!(x, y);
        }

        // Identical verdicts, honest and under every tamper, on every
        // verification surface; within a scheme, every driver of the fold
        // agrees with the batch reference.
        for &root in &roots {
            let hash = per.object_hash(root).unwrap();
            let pa = collect(per.db(), root).unwrap();
            let pb = collect(amo.db(), root).unwrap();
            let clean = verdicts(per.db(), &hash, &pa);
            prop_assert!(clean.iter().all(Vec::is_empty), "root {}: {:?}", root, clean);
            prop_assert_eq!(&clean, &verdicts(amo.db(), &hash, &pb));

            for tamper in all_single_record_tampers(&pa, w.other.id()) {
                let (mut ta, mut tb) = (pa.clone(), pb.clone());
                prop_assert!(apply_tamper(&mut ta, &tamper) && apply_tamper(&mut tb, &tamper));
                let (va, vb) = (verdicts(per.db(), &hash, &ta), verdicts(amo.db(), &hash, &tb));
                prop_assert!(va.iter().all(|v| !v.is_empty()), "{:?} undetected", tamper);
                prop_assert!(drivers_match_reference(&va), "{:?}: {:?}", tamper, va);
                prop_assert!(drivers_match_reference(&vb), "{:?}: {:?}", tamper, vb);
                prop_assert_eq!(&va, &vb, "{:?}", tamper);
            }
        }
    }
}

/// One operation updating `n` root objects is one batch of `n` records;
/// aggregating the roots afterwards puts all `n` members into a single
/// provenance object. Returns (aggregate oid, its hash, its provenance,
/// the batch members as `(oid, seq)`).
fn batch_of(n: usize) -> (ObjectId, Vec<u8>, ProvenanceObject, Vec<(ObjectId, u64)>) {
    let w = world();
    let mut t = tracker();
    let roots: Vec<ObjectId> = (0..n)
        .map(|i| t.insert(&w.signer, Value::Int(i as i64), None).unwrap().0)
        .collect();
    let ops: Vec<PrimitiveOp> = roots
        .iter()
        .map(|&id| PrimitiveOp::Update {
            id,
            value: Value::Int(-7),
        })
        .collect();
    let report = t.complex(&w.other, &ops).unwrap();
    assert_eq!(report.metrics.records, n as u64);
    let (agg, _) = t
        .aggregate(&w.signer, &roots, Value::Int(1), AggregateMode::Atomic)
        .unwrap();
    let hash = t.object_hash(agg).unwrap();
    let prov = collect(t.db(), agg).unwrap();
    (agg, hash, prov, roots.into_iter().map(|o| (o, 1)).collect())
}

#[test]
fn one_flipped_bit_flags_one_member_whatever_the_tree_shape() {
    let w = world();
    let verifier = Verifier::new(&w.keys, ALG);
    for n in [2usize, 3, 5, 9, 11] {
        let (agg, hash, prov, members) = batch_of(n);
        assert!(verifier.verify(&hash, &prov).verified(), "n={n}");

        let mut signatures = Vec::new();
        for (m, &(oid, seq)) in members.iter().enumerate() {
            let at = prov
                .records
                .iter()
                .position(|r| r.output_oid == oid && r.seq_id == seq)
                .unwrap();
            let honest = &prov.records[at];
            assert_eq!(honest.checksum_format, ChecksumFormat::Batched);
            let decoded = BatchChecksum::decode(ALG, &honest.checksum).unwrap();
            assert_eq!((decoded.index, decoded.count), (m as u32, n as u32));
            let siblings = decoded.path.iter().flatten().count();
            assert!(decoded.path.len() <= n.next_power_of_two().trailing_zeros() as usize);
            signatures.push(decoded.signature.clone());

            // Every bit of index and count; one bit (rotating) of every
            // byte of every path digest and of the signature copy.
            let header = (8..72).map(|bit| (bit / 8, bit % 8));
            let rest = (9..honest.checksum.len()).map(|byte| (byte, byte % 8));
            assert_eq!(
                honest.checksum.len(),
                9 + siblings * ALG.output_len() + decoded.signature.len()
            );
            for (byte, bit) in header.chain(rest) {
                let mut forged = prov.clone();
                forged.records[at].checksum[byte] ^= 1 << bit;
                let v = verifier.verify(&hash, &forged);
                // The member, and the aggregate record that signed over the
                // member's checksum — nothing else, so the other n − 1
                // members verified off the same signature.
                let expect = vec![
                    TamperEvidence::BadSignature { oid, seq },
                    TamperEvidence::BadSignature { oid: agg, seq: 2 },
                ];
                assert_eq!(
                    multiset(&v.issues),
                    multiset(&expect),
                    "n={n} member={m} byte={byte} bit={bit}"
                );
            }
        }
        assert!(signatures.windows(2).all(|p| p[0] == p[1]), "n={n}");
    }
}

#[test]
fn a_member_does_not_verify_as_another_member_or_under_another_scheme() {
    let w = world();
    let verifier = Verifier::new(&w.keys, ALG);
    let (_, hash, prov, members) = batch_of(5);
    let slot = |(oid, seq): (ObjectId, u64)| {
        prov.records
            .iter()
            .position(|r| r.output_oid == oid && r.seq_id == seq)
            .unwrap()
    };
    let (a, b) = (slot(members[0]), slot(members[3]));

    // A genuine checksum of the same batch, on the wrong record.
    let mut forged = prov.clone();
    forged.records[a].checksum = prov.records[b].checksum.clone();
    let v = verifier.verify(&hash, &forged);
    assert!(v.issues.contains(&TamperEvidence::BadSignature {
        oid: members[0].0,
        seq: 1
    }));

    // Relabelling the format: a batch checksum is not a signature over the
    // record, and a signature is not a batch checksum.
    let mut forged = prov.clone();
    forged.records[a].checksum_format = ChecksumFormat::PerRecord;
    assert!(!verifier.verify(&hash, &forged).verified());
    let insert = prov
        .records
        .iter()
        .position(|r| r.checksum_format == ChecksumFormat::PerRecord)
        .unwrap();
    let mut forged = prov.clone();
    forged.records[insert].checksum_format = ChecksumFormat::Batched;
    assert!(!verifier.verify(&hash, &forged).verified());
}

#[test]
fn a_multi_record_operation_costs_one_signature() {
    let mut rng = StdRng::seed_from_u64(0x51);
    let ca = CertificateAuthority::new(512, ALG, &mut rng);
    let mut p = ca.enroll(ParticipantId(1), 512, &mut rng);
    let reg = Registry::new();
    p.attach_obs(&reg);
    let signs = || {
        (
            reg.counter_value("tep_crypto_sign_total"),
            reg.counter_value("tep_crypto_modpow_total"),
        )
    };

    let mut t = tracker();
    t.attach_obs(&reg);
    let (root, _) = t.insert(&p, Value::text("db"), None).unwrap();
    let (table, _) = t.insert(&p, Value::Null, Some(root)).unwrap();
    let (row, _) = t.insert(&p, Value::Null, Some(table)).unwrap();
    let before = signs();
    let (_, m) = t.insert(&p, Value::Int(7), Some(row)).unwrap();
    assert_eq!(m.records, 4);
    assert_eq!(signs(), (before.0 + 1, before.1 + 1));

    // The paper's scheme on the same shape: one signature per record.
    let before = signs();
    let cell = [PrimitiveOp::Insert {
        id: None,
        value: Value::Int(8),
        parent: Some(row),
    }];
    let m = t.complex_per_record(&p, &cell, b"", 1).unwrap().metrics;
    assert_eq!(m.records, 4);
    assert_eq!(signs(), (before.0 + 4, before.1 + 4));
}
