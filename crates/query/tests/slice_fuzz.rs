//! Adversarial slice-proof fuzzing: no truncation, bit flip, record
//! omission, reordering, boundary tamper, or answer rewrite of a valid
//! QRESULT may ever verify clean — and each structured tamper must carry
//! the *right* `EvidenceKind`, so a recipient always learns what kind of
//! lie it was told.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use tep_core::prelude::*;
use tep_core::verify::EvidenceKind;
use tep_core::ProvenanceRecord;
use tep_model::{AggregateMode, ObjectId, Value};
use tep_query::{
    BoundaryLink, QueryAnswer, QueryBounds, QueryEngine, QueryOp, QuerySpec, SliceProof,
};
use tep_storage::ProvenanceDb;

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

struct World {
    keys: KeyDirectory,
    /// Unbounded lineage proof (no boundary links).
    lineage: SliceProof,
    /// Depth-bounded ancestors proof (has boundary links).
    bounded: SliceProof,
    /// Polynomial proof over a diamond DAG.
    poly: SliceProof,
    /// Depth-bounded ancestors proof of a second target.
    bounded_e: SliceProof,
    /// Descendants proof of a root object.
    descendants: SliceProof,
    /// Audit proof of one participant's records.
    audit: SliceProof,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x51C3);
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
        let _ = (d, e);

        let engine = QueryEngine::new(db, ALG);
        let lineage = engine
            .execute(&QuerySpec::new(QueryOp::LineageSlice, d))
            .unwrap();
        let depth_1 = |target| QuerySpec {
            op: QueryOp::Ancestors,
            target,
            participant: None,
            bounds: QueryBounds {
                max_depth: Some(1),
                seq_range: None,
            },
        };
        let bounded = engine.execute(&depth_1(d)).unwrap();
        let poly = engine
            .execute(&QuerySpec::new(QueryOp::Polynomial, e))
            .unwrap();
        assert!(!bounded.boundary.is_empty(), "bounded proof needs boundary");
        World {
            keys,
            lineage,
            bounded,
            poly,
            bounded_e: engine.execute(&depth_1(e)).unwrap(),
            descendants: engine
                .execute(&QuerySpec::new(QueryOp::Descendants, a))
                .unwrap(),
            audit: engine.execute(&QuerySpec::audit(alice.id())).unwrap(),
        }
    })
}

fn verify(proof: &SliceProof) -> Verification {
    Verifier::new(&world().keys, ALG).verify_slice(proof)
}

fn has_kind(v: &Verification, kind: EvidenceKind) -> bool {
    v.issues.iter().any(|i| i.kind() == kind)
}

fn proofs() -> Vec<&'static SliceProof> {
    let w = world();
    vec![&w.lineage, &w.bounded, &w.poly]
}

#[test]
fn baseline_proofs_verify_clean() {
    for proof in proofs() {
        let v = verify(proof);
        assert!(v.verified(), "{:?}", v.issues);
        assert_eq!(
            &SliceProof::from_bytes(&proof.to_bytes()).unwrap(),
            proof,
            "roundtrip must be lossless"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict prefix of the encoding fails to decode — a truncated
    /// QRESULT can never be mistaken for a complete one.
    #[test]
    fn truncation_never_decodes(which in 0usize..3, cut_sel in any::<usize>()) {
        let bytes = proofs()[which].to_bytes();
        let cut = cut_sel % bytes.len();
        prop_assert!(SliceProof::from_bytes(&bytes[..cut]).is_err());
    }

    /// Omitting any record from the slice is detected — backward slices
    /// are complete relative to the signed records, so a hole is always
    /// either a missing demanded record or a broken signature chain.
    #[test]
    fn record_omission_never_verifies(which in 0usize..3, pick in any::<usize>()) {
        let base = proofs()[which];
        let mut proof = base.clone();
        let i = pick % proof.records.len();
        proof.records.remove(i);
        let v = verify(&proof);
        prop_assert!(!v.verified(), "omitting record {i} verified clean");
        prop_assert!(
            has_kind(&v, EvidenceKind::MissingRecord) || has_kind(&v, EvidenceKind::OutputMismatch),
            "omission evidence should name the hole: {:?}",
            v.issues
        );
    }

    /// Reordering the slice breaks the canonical encoding and is flagged
    /// as a malformed slice.
    #[test]
    fn reordering_never_verifies(which in 0usize..3, x in any::<usize>(), y in any::<usize>()) {
        let base = proofs()[which];
        let mut proof = base.clone();
        let n = proof.records.len();
        let (i, j) = (x % n, y % n);
        prop_assume!(i != j);
        proof.records.swap(i, j);
        let v = verify(&proof);
        prop_assert!(!v.verified());
        prop_assert!(has_kind(&v, EvidenceKind::MalformedRecord), "{:?}", v.issues);
    }

    /// Flipping a boundary checksum breaks the signatures chaining to it.
    #[test]
    fn boundary_tamper_never_verifies(pick in any::<usize>(), byte in any::<usize>()) {
        let base = &world().bounded;
        let mut proof = base.clone();
        let i = pick % proof.boundary.len();
        let n = proof.boundary[i].checksum.len();
        proof.boundary[i].checksum[byte % n] ^= 0x01;
        let v = verify(&proof);
        prop_assert!(!v.verified());
        prop_assert!(has_kind(&v, EvidenceKind::BadSignature), "{:?}", v.issues);
    }

    /// Rewriting the shipped answer (adding, dropping, or renaming an
    /// object) is an output mismatch.
    #[test]
    fn answer_tamper_never_verifies(which in 0usize..2, oid in 0u64..64) {
        let base = proofs()[which];
        let mut proof = base.clone();
        let QueryAnswer::Objects(oids) = &mut proof.answer else {
            unreachable!("lineage/ancestors answers are object lists")
        };
        let fake = ObjectId(oid);
        match oids.iter().position(|&o| o == fake) {
            Some(i) => { oids.remove(i); }
            None => {
                oids.push(fake);
                oids.sort();
            }
        }
        let v = verify(&proof);
        prop_assert!(!v.verified());
        prop_assert!(has_kind(&v, EvidenceKind::OutputMismatch), "{:?}", v.issues);
    }
}

/// Every single bit flip of the three proofs either fails to decode or
/// yields attributed evidence, with exactly two exceptions: bit 1 of byte
/// 10, the op byte, turns the lineage proof into an ancestors proof and
/// the depth-bounded ancestors proof into a lineage proof. Each still
/// verifies clean, because its records do answer the question it now
/// states; only a recipient that compares the stated question with the one
/// it asked can catch them, which `Client::query` does (see
/// `crates/net/tests/query.rs`).
#[test]
fn bit_flips_never_verify() {
    let mut clean = Vec::new();
    for (which, proof) in proofs().into_iter().enumerate() {
        let bytes = proof.to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                if let Ok(flipped) = SliceProof::from_bytes(&bad) {
                    if verify(&flipped).verified() {
                        clean.push((which, i, bit));
                    }
                }
            }
        }
    }
    assert_eq!(
        clean,
        [(0, 10, 1), (1, 10, 1)],
        "(proof, byte, bit) flips that verify clean"
    );
}

#[test]
fn extraneous_record_is_attributed() {
    let w = world();
    // Graft a record from the polynomial slice (e's closure) into d's
    // bounded ancestors slice: signed, genuine, but not part of the
    // answer's coverage — planted evidence is still evidence.
    let mut proof = w.bounded.clone();
    let foreign = w
        .poly
        .records
        .iter()
        .find(|r| {
            !proof
                .records
                .iter()
                .any(|p| (p.output_oid, p.seq_id) == (r.output_oid, r.seq_id))
        })
        .expect("poly slice has a record outside the bounded slice")
        .clone();
    proof.records.push(foreign);
    proof.records.sort_by_key(|r| (r.output_oid, r.seq_id));
    let v = verify(&proof);
    assert!(!v.verified());
    assert!(
        v.issues
            .iter()
            .any(|i| i.kind() == EvidenceKind::ExtraneousRecord),
        "{:?}",
        v.issues
    );
}

#[test]
fn duplicate_record_is_attributed() {
    let w = world();
    let mut proof = w.lineage.clone();
    let dup = proof.records[0].clone();
    proof.records.insert(0, dup);
    let v = verify(&proof);
    assert!(!v.verified());
    assert!(
        v.issues
            .iter()
            .any(|i| i.kind() == EvidenceKind::DuplicateRecord),
        "{:?}",
        v.issues
    );
}

#[test]
fn wrong_question_wrong_algorithm_are_flagged() {
    let w = world();
    // Same records, different claimed operator: the recomputed answer
    // diverges (ancestors vs lineage share shape; flip to descendants).
    let mut proof = w.lineage.clone();
    proof.spec.op = QueryOp::Descendants;
    let v = verify(&proof);
    assert!(!v.verified(), "operator swap must not verify");

    let mut proof = w.lineage.clone();
    proof.alg = HashAlgorithm::Sha1;
    let v = Verifier::new(&w.keys, ALG).verify_slice(&proof);
    assert!(!v.verified());
    assert!(
        v.issues
            .iter()
            .any(|i| i.kind() == EvidenceKind::MalformedRecord),
        "{:?}",
        v.issues
    );
}

/// The pinned corpus: a name and the evidence multiset `verify_slice`
/// reports, for every mutation of six slices. Each name starts with its
/// family, the slice and the mutation class.
fn pin_cases() -> Vec<(String, Vec<String>)> {
    let w = world();
    let slices = [
        ("lineage", &w.lineage),
        ("bounded", &w.bounded),
        ("bounded_e", &w.bounded_e),
        ("poly", &w.poly),
        ("descendants", &w.descendants),
        ("audit", &w.audit),
    ];
    let mut cases = Vec::new();
    for (slice, base) in slices {
        let mut case = |class: &str, detail: String, proof: &SliceProof| {
            let mut evidence: Vec<String> = verify(proof)
                .issues
                .iter()
                .map(|i| format!("{i:?}"))
                .collect();
            evidence.sort();
            cases.push((format!("{slice}/{class} {detail}"), evidence));
        };
        let link = |r: &ProvenanceRecord| BoundaryLink {
            oid: r.output_oid,
            seq: r.seq_id,
            checksum: r.checksum.clone(),
        };
        // Inserts a link where canonical order puts it.
        let with_link = |mut proof: SliceProof, b: BoundaryLink| {
            let at = proof
                .boundary
                .partition_point(|x| (x.oid, x.seq) < (b.oid, b.seq));
            proof.boundary.insert(at, b);
            proof
        };

        let n = base.records.len();
        for i in 0..n {
            let r = &base.records[i];
            let mut flipped = r.clone();
            flipped.checksum[0] ^= 0x01;

            let mut p = base.clone();
            p.records.remove(i);
            case("remove-record", format!("{i}"), &p);
            case("record-to-link", format!("{i}"), &with_link(p, link(r)));

            let mut p = base.clone();
            p.records.insert(i + 1, r.clone());
            case("duplicate-record", format!("{i}"), &p);

            let mut p = base.clone();
            p.records.insert(i + 1, flipped.clone());
            case("duplicate-flipped-record", format!("{i}"), &p);

            let mut p = base.clone();
            p.records[i] = flipped.clone();
            case("flip-record", format!("{i}"), &p);

            case(
                "shadow-link",
                format!("{i}"),
                &with_link(base.clone(), link(r)),
            );
            let shadow = with_link(base.clone(), link(&flipped));
            case("shadow-flipped-link", format!("{i}"), &shadow);

            for j in i + 1..n {
                let mut p = base.clone();
                p.records.swap(i, j);
                case("swap-records", format!("{i} {j}"), &p);
            }
        }

        let m = base.boundary.len();
        for k in 0..m {
            let mut p = base.clone();
            p.boundary.remove(k);
            case("remove-link", format!("{k}"), &p);

            let mut p = base.clone();
            p.boundary[k].checksum[0] ^= 0x01;
            case("flip-link", format!("{k}"), &p);

            let mut p = base.clone();
            p.boundary.insert(k + 1, base.boundary[k].clone());
            case("duplicate-link", format!("{k}"), &p);

            for l in k + 1..m {
                let mut p = base.clone();
                p.boundary.swap(k, l);
                case("swap-links", format!("{k} {l}"), &p);
            }
        }

        let bytes = base.to_bytes();
        for i in 0..bytes.len() {
            for bit in [0, 7] {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                if let Ok(p) = SliceProof::from_bytes(&bad) {
                    case("bit-flip", format!("{i}.{bit}"), &p);
                }
            }
        }
    }
    cases
}

fn sha256_hex(text: &str) -> String {
    HashAlgorithm::Sha256
        .digest(text.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// `verify_slice`'s exact evidence, not just some evidence kind, under every
/// record, boundary and encoding mutation of six slices. The pin is a
/// SHA-256 over every case's sorted evidence multiset, and one digest per
/// family, so a change names the first family whose evidence moved.
#[test]
fn slice_evidence_is_pinned_exactly() {
    const ALL: &str = "16271db199c0422547c99fcb0d7e35d4536e7ffc6f3c67dd898330c58be31f88";
    const FAMILIES: &[(&str, &str)] = &[
        ("audit/bit-flip", "ea31bdbe46ca8b69"),
        ("audit/duplicate-flipped-record", "6af83ede02aeacfe"),
        ("audit/duplicate-link", "80e2385d1e48e069"),
        ("audit/duplicate-record", "b399a23f902e8e53"),
        ("audit/flip-link", "33d0ebb5e4512f32"),
        ("audit/flip-record", "e01cc6572af18c45"),
        ("audit/record-to-link", "cd55b629a3ebdf28"),
        ("audit/remove-link", "6b709c2155ba7810"),
        ("audit/remove-record", "0881995e0a77a58e"),
        ("audit/shadow-flipped-link", "8d18450b58c13650"),
        ("audit/shadow-link", "555a80f77289222c"),
        ("audit/swap-records", "d25109579ede9307"),
        ("bounded/bit-flip", "6482b5ec0fab9d00"),
        ("bounded/duplicate-flipped-record", "e4e532b3d5f495dc"),
        ("bounded/duplicate-link", "290729bda4eec5d6"),
        ("bounded/duplicate-record", "954356e09dac8b1f"),
        ("bounded/flip-link", "9a09e69f94a71c63"),
        ("bounded/flip-record", "f29ee65d12596750"),
        ("bounded/record-to-link", "2c5006cbda1cc16d"),
        ("bounded/remove-link", "2dec337c9159bbeb"),
        ("bounded/remove-record", "fab3c448c57f24a0"),
        ("bounded/shadow-flipped-link", "0f8517c6e5844c54"),
        ("bounded/shadow-link", "8bbed07be5ca323b"),
        ("bounded/swap-links", "4681f88dc4060e6c"),
        ("bounded/swap-records", "680b913bfd7a0a66"),
        ("bounded_e/bit-flip", "410dfbd13c03ca9c"),
        ("bounded_e/duplicate-flipped-record", "87cb1cda86612c81"),
        ("bounded_e/duplicate-link", "c631205e8aa68b95"),
        ("bounded_e/duplicate-record", "7ba4c5101a6ab2ad"),
        ("bounded_e/flip-link", "21f725f44bfbe20d"),
        ("bounded_e/flip-record", "33d027aa41f30cc6"),
        ("bounded_e/record-to-link", "dc2998ed1b152d33"),
        ("bounded_e/remove-link", "3228e6848b8f7aa6"),
        ("bounded_e/remove-record", "3f8ac4693f99ff5e"),
        ("bounded_e/shadow-flipped-link", "bf7ecabcb88f2b0d"),
        ("bounded_e/shadow-link", "e49f3c2a262f9127"),
        ("bounded_e/swap-records", "432b9f5cd949e851"),
        ("descendants/bit-flip", "6d36c4620cc8644e"),
        ("descendants/duplicate-flipped-record", "1ddffac35d17d6f4"),
        ("descendants/duplicate-link", "106af7e688bb5147"),
        ("descendants/duplicate-record", "b24a3603d22417d1"),
        ("descendants/flip-link", "9bf3c3b4af0f525a"),
        ("descendants/flip-record", "14cb0751d265c846"),
        ("descendants/record-to-link", "0bf9d8d8d2915b8b"),
        ("descendants/remove-link", "a37af48245f742c8"),
        ("descendants/remove-record", "d7fa5861bebb92b2"),
        ("descendants/shadow-flipped-link", "4f4d81f9e9fe1fa0"),
        ("descendants/shadow-link", "6eeea257b99aa2d2"),
        ("descendants/swap-links", "468e7db0f50abd40"),
        ("descendants/swap-records", "1b93f8d561008741"),
        ("lineage/bit-flip", "fd4b2d2833026104"),
        ("lineage/duplicate-flipped-record", "7ae1d36d7a5a48c3"),
        ("lineage/duplicate-record", "79f9e4bfee859d96"),
        ("lineage/flip-record", "dcbfef3247ebed27"),
        ("lineage/record-to-link", "4552cff5c8bb7401"),
        ("lineage/remove-record", "7152ebb76c0b1064"),
        ("lineage/shadow-flipped-link", "b5ab0bb444924585"),
        ("lineage/shadow-link", "13319f8869541b59"),
        ("lineage/swap-records", "86892bf45829dd34"),
        ("poly/bit-flip", "b819518a1168b001"),
        ("poly/duplicate-flipped-record", "4511c33bff1781d5"),
        ("poly/duplicate-record", "300edde349001dd9"),
        ("poly/flip-record", "3b98aad8d4a16165"),
        ("poly/record-to-link", "8e7eda840bd2091c"),
        ("poly/remove-record", "7a50b9bfe8671a29"),
        ("poly/shadow-flipped-link", "df71b91647131d27"),
        ("poly/shadow-link", "26d96e579a785d67"),
        ("poly/swap-records", "e02c7e0982c068c7"),
    ];

    let cases = pin_cases();
    let mut all = String::new();
    let mut families: BTreeMap<&str, String> = BTreeMap::new();
    for (name, evidence) in &cases {
        let line = format!("{name}: {evidence:?}\n");
        all.push_str(&line);
        let family = name.split(' ').next().unwrap_or_default();
        families.entry(family).or_default().push_str(&line);
    }
    let digests: Vec<(&str, String)> = families
        .iter()
        .map(|(&f, text)| (f, sha256_hex(text)[..16].to_string()))
        .collect();
    let moved = digests
        .iter()
        .find(|(f, d)| !FAMILIES.contains(&(*f, d.as_str())))
        .map_or(String::new(), |(f, _)| {
            let text = &families[f];
            format!(
                "first moved family {f}:\n{}",
                text.lines().take(40).collect::<Vec<_>>().join("\n")
            )
        });
    let table: String = digests
        .iter()
        .map(|(f, d)| format!("(\"{f}\", \"{d}\"),\n"))
        .collect();
    assert_eq!(
        (cases.len(), sha256_hex(&all).as_str()),
        (9019, ALL),
        "slice evidence moved; {moved}\nfamily digests now:\n{table}"
    );
}
