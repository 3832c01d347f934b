//! Decoder robustness: every decoder in the stack must reject arbitrary
//! or corrupted bytes with an error — never panic, never loop.
//!
//! Databases read what disks give them; the storage guides' first rule of
//! deserializers is that hostile bytes are a matter of *when*, not *if*.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use tepdb::core::checkpoint::TrustAnchor;
use tepdb::core::{
    collect, prove, BatchChecksum, Checkpoint, ChecksumFormat, DenialProof, HashCache,
    ProvenanceRecord, ProvenanceTracker, QueryAnswer, QueryBounds, QueryOp, QuerySpec, RangeProof,
    SealedCheckpoint, ShardTree, SignedDenial, SignedRange, SignedRoot, SliceProof,
    StreamingVerifier, SubtreeProof, TrackerConfig,
};
use tepdb::crypto::{
    Certificate, CertificateAuthority, HashAlgorithm, KeyDirectory, Keyring, RsaPublicKey,
};
use tepdb::model::encode::{value_bytes, value_from_bytes};
use tepdb::model::ParticipantId;
use tepdb::model::{AggregateMode, ObjectId, Value};
use tepdb::query::{QueryEngine, QueryIndex};
use tepdb::storage::vfs::{FaultConfig, FaultVfs, Vfs};
use tepdb::storage::{AppendLog, CompactionStamp, ProvenanceDb, StoredRecord};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn value_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = value_from_bytes(&bytes);
    }

    /// A value has one encoding: whatever bytes decode re-encode to
    /// themselves. Beside arbitrary bytes behind every tag, each case
    /// tries a bool byte and a NaN (or infinite) real, the two places a
    /// lenient decoder would accept bytes the encoder never writes.
    #[test]
    fn value_decoder_accepts_only_canonical_bytes(
        tag in 0u8..6,
        body in prop::collection::vec(any::<u8>(), 0..12),
        bool_byte in any::<u8>(),
        nan_payload in any::<u64>(),
    ) {
        let nan = 0x7FF0_0000_0000_0000 | (nan_payload & 0x800F_FFFF_FFFF_FFFF);
        let mut candidates = vec![[&[tag][..], &body].concat(), vec![1, bool_byte]];
        for bits in [nan, (-0.0f64).to_bits()] {
            candidates.push([&[3u8][..], &bits.to_be_bytes()].concat());
        }
        for bytes in candidates {
            if let Ok(v) = value_from_bytes(&bytes) {
                prop_assert_eq!(value_bytes(&v), bytes, "{:?} has a second encoding", v);
            }
        }
    }

    #[test]
    fn record_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let stored = StoredRecord {
            seq_id: 0,
            participant: ParticipantId(0),
            oid: ObjectId(0),
            checksum: vec![],
            payload: bytes,
        };
        let _ = ProvenanceRecord::from_stored(&stored);
    }

    /// The batch-checksum decoder is total: Ok or a typed error. Whatever
    /// leaf count the bytes claim, the path it builds is bounded by the
    /// tree shape (at most 32 levels), and a decoded value re-encodes to the
    /// same bytes.
    #[test]
    fn batch_checksum_decoder_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        index in any::<u32>(),
        count in any::<u32>(),
    ) {
        for alg in [HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            // Arbitrary bytes, and arbitrary bytes behind a well-formed
            // header claiming an arbitrary (possibly enormous) batch.
            let mut headed = vec![1u8];
            headed.extend_from_slice(&index.to_be_bytes());
            headed.extend_from_slice(&count.to_be_bytes());
            headed.extend_from_slice(&bytes);
            for buf in [&bytes, &headed] {
                if let Ok(c) = BatchChecksum::decode(alg, buf) {
                    prop_assert!(c.index < c.count);
                    prop_assert!(c.path.len() <= 32);
                    prop_assert!(!c.signature.is_empty());
                    prop_assert_eq!(&c.encode(), buf);
                }
            }
        }
    }

    /// Whatever frames a log holds — garbage, rows, rows with garbage
    /// where a signature-elided frame keeps its trailer — the store opens,
    /// every frame is either a record or a counted decode failure, and every
    /// record reads back.
    #[test]
    fn elided_frame_decoder_never_panics(
        frames in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(any::<u8>(), 0..96), 0usize..12),
            1..8,
        ),
    ) {
        let vfs: Arc<dyn Vfs> = FaultVfs::new(FaultConfig::default());
        let path = Path::new("/fuzz.teplog");
        let mut log = AppendLog::create_with(Arc::clone(&vfs), path).unwrap();
        for (i, (as_row, bytes, trailer)) in frames.iter().enumerate() {
            let frame = if *as_row {
                // A well-formed row followed by `trailer` arbitrary bytes
                // (7 is the real trailer's length; byte 0 picks its kind).
                let mut f = StoredRecord {
                    seq_id: i as u64,
                    participant: ParticipantId(1),
                    oid: ObjectId(7),
                    checksum: bytes.clone(),
                    payload: vec![0x5A; 8],
                }
                .to_bytes();
                f.extend(bytes.iter().cycle().map(|b| b % 3).take(*trailer));
                f
            } else {
                bytes.clone()
            };
            log.append(&frame).unwrap();
        }
        log.sync().unwrap();
        drop(log);

        let db = ProvenanceDb::durable_with(vfs, path).unwrap();
        let report = db.recovery();
        prop_assert_eq!(db.len() as u64 + report.decode_failures, frames.len() as u64);
        prop_assert_eq!(db.all_records().len(), db.len());
    }

    #[test]
    fn keyring_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Keyring::from_bytes(&bytes);
    }

    #[test]
    fn anchor_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = TrustAnchor::from_bytes(&bytes);
    }

    /// The bodies the wire carries opaquely and the proofs and checkpoints
    /// kept on disk take arbitrary bytes, alone and behind the first bytes
    /// of a valid encoding, and return Ok or a typed error.
    #[test]
    fn opaque_body_decoders_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        keep in any::<usize>(),
    ) {
        for body in opaque_bodies() {
            let prefix = &body.bytes[..keep % body.bytes.len()];
            (body.reencode)(&bytes);
            (body.reencode)(&[prefix, &bytes].concat());
        }
    }

    /// Flipping any bit of a valid row, its columns included, either fails
    /// to decode or yields a record that re-encodes to the flipped bytes:
    /// an accepted row has one encoding. It never panics.
    #[test]
    fn record_decoder_survives_mutation(
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let rec = ProvenanceRecord {
            seq_id: 3,
            participant: ParticipantId(1),
            kind: tepdb::core::RecordKind::Update,
            inputs: vec![tepdb::core::InputRef {
                oid: ObjectId(7),
                hash: vec![0xAA; 32],
                prev_seq: Some(2),
            }],
            output_oid: ObjectId(7),
            output_hash: vec![0xBB; 32],
            annotation: b"UPDATE t SET x = 5".to_vec(),
            checksum: vec![0xCC; 64],
            checksum_format: tepdb::core::ChecksumFormat::PerRecord,
        };
        let mut bytes = rec.to_stored().to_bytes();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        if let Ok(stored) = StoredRecord::from_bytes(&bytes) {
            if let Ok(back) = ProvenanceRecord::from_stored(&stored) {
                prop_assert_eq!(back.to_stored().to_bytes(), bytes);
            }
        }
    }

    /// A log file corrupted at an arbitrary position either recovers an
    /// ordered subsequence of the original frames (the damaged frame is
    /// truncated at the tail or quarantined in the interior) or reports an
    /// error — it never panics and never fabricates frames.
    #[test]
    fn log_recovery_survives_corruption(
        corrupt_at in any::<usize>(),
        corrupt_byte in any::<u8>(),
        payload_sizes in prop::collection::vec(0usize..200, 1..6),
    ) {
        let path = std::env::temp_dir().join(format!(
            "tep-fuzz-{}-{}.log",
            std::process::id(),
            corrupt_at,
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tepdb::storage::quarantine_path(&path));
        let originals: Vec<Vec<u8>> = payload_sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| vec![i as u8; n])
            .collect();
        {
            let mut log = AppendLog::create(&path).unwrap();
            for p in &originals {
                log.append(p).unwrap();
            }
            log.sync().unwrap();
        }
        let mut data = std::fs::read(&path).unwrap();
        let idx = corrupt_at % data.len();
        data[idx] ^= corrupt_byte | 1; // guarantee a change
        std::fs::write(&path, &data).unwrap();

        if let Ok(rec) = AppendLog::open(&path) {
            // Every recovered payload must be one of the originals, in
            // order — a single corrupt byte hits one frame, which is lost
            // (tail → truncated, interior → quarantined), never altered.
            prop_assert!(rec.payloads.len() <= originals.len());
            let mut next = 0usize;
            for got in &rec.payloads {
                let found = originals[next..].iter().position(|want| want == got);
                prop_assert!(found.is_some(), "recovered a fabricated frame");
                next += found.unwrap() + 1;
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tepdb::storage::quarantine_path(&path));
    }
}

/// One body the wire carries without interpreting it (QRESULT's slice
/// proof, DENIAL's signed denial, RANGE_RESP's signed range, AE_RESP's
/// signed root) or a proof inside one, or a proof, checkpoint, stamp,
/// sidecar or keyring kept on disk, with a valid encoding.
struct OpaqueBody {
    name: &'static str,
    bytes: Vec<u8>,
    /// Runs the decoder; if it returned Ok, the value's encoding.
    reencode: Reencode,
}

type Reencode = Box<dyn Fn(&[u8]) -> Option<Vec<u8>> + Send + Sync>;

fn opaque_bodies() -> &'static [OpaqueBody] {
    static BODIES: OnceLock<Vec<OpaqueBody>> = OnceLock::new();
    BODIES.get_or_init(|| {
        const ALG: HashAlgorithm = HashAlgorithm::Sha256;
        let mut rng = StdRng::seed_from_u64(0x0B0D);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
        let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
        keys.register(alice.certificate().clone()).unwrap();
        let db = Arc::new(ProvenanceDb::in_memory());
        let mut t = ProvenanceTracker::new(TrackerConfig::default(), db.clone());
        let (a, _) = t.insert(&alice, Value::Int(1), None).unwrap();
        t.update(&alice, a, Value::Int(2)).unwrap();
        let (b, _) = t.insert(&alice, Value::Int(3), None).unwrap();
        let (c, _) = t
            .aggregate(&alice, &[a, b], Value::Int(4), AggregateMode::Atomic)
            .unwrap();
        let (d, _) = t
            .aggregate(&alice, &[a, c], Value::Int(5), AggregateMode::Atomic)
            .unwrap();
        let (leaf, _) = t.insert(&alice, Value::Int(6), Some(d)).unwrap();
        let engine = QueryEngine::new(db.clone(), ALG);
        let bounded = engine
            .execute(&QuerySpec {
                op: QueryOp::Ancestors,
                target: d,
                participant: None,
                bounds: QueryBounds {
                    max_depth: Some(1),
                    seq_range: Some((0, 9)),
                },
            })
            .unwrap();
        let poly = engine
            .execute(&QuerySpec::new(QueryOp::Polynomial, d))
            .unwrap();
        assert!(!bounded.boundary.is_empty());
        assert!(matches!(poly.answer, QueryAnswer::Polynomial(_)));

        let leaves = [2u64, 4, 8, 16, 32].map(|i| (ObjectId(i), ALG.digest(&i.to_be_bytes())));
        let tree = ShardTree::build(ALG, leaves.to_vec());
        let root = SignedRoot::sign(&tree, 5, &alice).unwrap();
        let denial = DenialProof::prove(&tree, ObjectId(5)).unwrap();
        let range = RangeProof::prove(&tree, ObjectId(3), ObjectId(9));
        let checkpoint = Checkpoint::capture(ALG, &db, 0);
        let sealed = checkpoint.clone().seal(&alice).unwrap();
        let subtree = prove(t.forest(), &mut HashCache::new(ALG), d, leaf).unwrap();
        let mut verifier = StreamingVerifier::new(&keys, ALG, d);
        for r in &collect(&db, d).unwrap().records {
            verifier.push_record(r);
        }
        let verifier_checkpoint = verifier.checkpoint().unwrap();
        let stamp = CompactionStamp {
            generation: 2,
            excised_frames: 11,
            excised_bytes: 4096,
            watermark: 13,
            checkpoint_digest: checkpoint.digest(),
        };
        let mut index = QueryIndex::new();
        index.sync(&db);
        let mut keyring = Keyring::new(ca.public_key().clone(), ALG);
        keyring.add(alice.certificate().clone());

        fn body<F>(name: &'static str, bytes: Vec<u8>, reencode: F) -> OpaqueBody
        where
            F: Fn(&[u8]) -> Option<Vec<u8>> + Send + Sync + 'static,
        {
            OpaqueBody {
                name,
                bytes,
                reencode: Box::new(reencode),
            }
        }
        vec![
            body("bounded SliceProof", bounded.to_bytes(), |b| {
                SliceProof::from_bytes(b).ok().map(|v| v.to_bytes())
            }),
            body("polynomial SliceProof", poly.to_bytes(), |b| {
                SliceProof::from_bytes(b).ok().map(|v| v.to_bytes())
            }),
            body("SignedRoot", root.to_bytes(), |b| {
                SignedRoot::from_bytes(b).ok().map(|v| v.to_bytes())
            }),
            body("DenialProof", denial.to_bytes(), |b| {
                DenialProof::from_bytes(b).ok().map(|v| v.to_bytes())
            }),
            body("RangeProof", range.to_bytes(), |b| {
                RangeProof::from_bytes(b).ok().map(|v| v.to_bytes())
            }),
            body(
                "SignedDenial",
                SignedDenial {
                    root: root.clone(),
                    proof: denial,
                }
                .to_bytes(),
                |b| SignedDenial::from_bytes(b).ok().map(|v| v.to_bytes()),
            ),
            body(
                "SignedRange",
                SignedRange { root, proof: range }.to_bytes(),
                |b| SignedRange::from_bytes(b).ok().map(|v| v.to_bytes()),
            ),
            body("Checkpoint", checkpoint.to_bytes(), |b| {
                Checkpoint::from_bytes(b).ok().map(|v| v.to_bytes())
            }),
            body("SealedCheckpoint", sealed.to_bytes(), |b| {
                SealedCheckpoint::from_bytes(b).ok().map(|v| v.to_bytes())
            }),
            body("SubtreeProof", subtree.to_bytes(), |b| {
                SubtreeProof::from_bytes(b).ok().map(|v| v.to_bytes())
            }),
            body("CompactionStamp", stamp.to_bytes(), |b| {
                CompactionStamp::from_bytes(b).ok().map(|v| v.to_bytes())
            }),
            body("verifier checkpoint", verifier_checkpoint, move |b| {
                StreamingVerifier::restore(&keys, b)
                    .ok()
                    .map(|v| v.checkpoint().expect("a restored verifier is clean"))
            }),
            body("QueryIndex sidecar", index.to_bytes(), |b| {
                QueryIndex::from_bytes(b).map(|v| v.to_bytes())
            }),
            body("Keyring", keyring.to_bytes(), |b| {
                Keyring::from_bytes(b).map(|v| v.to_bytes())
            }),
            body("Certificate", alice.certificate().to_bytes(), |b| {
                Certificate::from_bytes(b)
                    .filter(|(_, rest)| rest.is_empty())
                    .map(|(v, _)| v.to_bytes())
            }),
            body("RsaPublicKey", ca.public_key().to_bytes(), |b| {
                RsaPublicKey::from_bytes(b).map(|v| v.to_bytes())
            }),
        ]
    })
}

/// Decoding a row into a record that last held another row — one with
/// more inputs and a longer annotation — gives what decoding it into a
/// fresh record gives: the same record or the same error. Checked on
/// generated histories that mix per-record (v2) and batched (v3) bodies
/// and aggregates, for every row and for every single-bit flip of its
/// payload and of its columns.
#[test]
fn decoding_into_a_used_record_equals_a_fresh_decode() {
    const ALG: HashAlgorithm = HashAlgorithm::Sha256;
    for seed in 1..=3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = CertificateAuthority::new(512, ALG, &mut rng);
        let alice = ca.enroll(ParticipantId(1), 512, &mut rng);
        let db = Arc::new(ProvenanceDb::in_memory());
        let mut t = ProvenanceTracker::new(TrackerConfig::default(), db.clone());
        let (table, _) = t.insert(&alice, Value::text("t"), None).unwrap();
        let (a, _) = t.insert(&alice, Value::Int(0), None).unwrap();
        let mut cells = Vec::new();
        for step in 0..6 + seed as i64 {
            let (row, _) = t.insert(&alice, Value::Null, Some(table)).unwrap();
            let (cell, _) = t.insert(&alice, Value::Int(step), Some(row)).unwrap();
            cells.push(cell);
            t.update(&alice, cells[step as usize / 2], Value::Int(-step))
                .unwrap();
            t.update(&alice, a, Value::Int(step)).unwrap();
        }
        let (agg, _) = t
            .aggregate(&alice, &[table, a], Value::Int(-1), AggregateMode::Atomic)
            .unwrap();
        t.aggregate(&alice, &[a, agg], Value::Int(-2), AggregateMode::Atomic)
            .unwrap();

        let rows = db.all_records();
        let records: Vec<ProvenanceRecord> = rows
            .iter()
            .map(|row| ProvenanceRecord::from_stored(row).unwrap())
            .collect();
        let formats = records.iter().map(|r| r.checksum_format);
        assert!(formats.clone().any(|f| f == ChecksumFormat::PerRecord));
        assert!(formats.clone().any(|f| f == ChecksumFormat::Batched));
        let widest = records.iter().map(|r| r.inputs.len()).max().unwrap();
        let larger = ProvenanceRecord {
            inputs: vec![records.last().unwrap().inputs[0].clone(); widest + 1],
            annotation: vec![b'x'; 256],
            ..records.last().unwrap().clone()
        }
        .to_stored();

        let mut record = ProvenanceRecord::default();
        for row in &rows {
            let mut cases = vec![row.clone()];
            for bit in 0..row.payload.len() * 8 {
                let mut flipped = row.clone();
                flipped.payload[bit / 8] ^= 1 << (bit % 8);
                cases.push(flipped);
            }
            for bit in 0..64 {
                let mut flipped = row.clone();
                flipped.seq_id ^= 1 << bit;
                cases.push(flipped);
                let mut flipped = row.clone();
                flipped.participant.0 ^= 1 << bit;
                cases.push(flipped);
                let mut flipped = row.clone();
                flipped.oid.0 ^= 1 << bit;
                cases.push(flipped);
            }
            for bit in 0..row.checksum.len() * 8 {
                let mut flipped = row.clone();
                flipped.checksum[bit / 8] ^= 1 << (bit % 8);
                cases.push(flipped);
            }
            for case in &cases {
                record.read_stored(&larger).unwrap();
                let into = record.read_stored(case).map(|()| record.clone());
                assert_eq!(into, ProvenanceRecord::from_stored(case), "{case:?}");
            }
        }
    }
}

/// Every single-byte change of every opaque body's valid encoding — a
/// flipped bit, and the byte forced to 0xFF so each count and length
/// field in turn claims billions of entries — returns Ok or a typed error,
/// and whatever decodes re-encodes to exactly the changed bytes: an
/// accepted body has one encoding. No decoder sizes an allocation by such
/// a claim: capacity is capped by the bytes left, so a short input cannot
/// make it reserve more.
#[test]
fn opaque_body_decoders_survive_every_byte_change() {
    for body in opaque_bodies() {
        assert_eq!(
            (body.reencode)(&body.bytes).as_deref(),
            Some(&body.bytes[..]),
            "{} does not roundtrip",
            body.name
        );
        for i in 0..body.bytes.len() {
            for change in [body.bytes[i] ^ 0x01, 0xFF] {
                let mut bad = body.bytes.clone();
                bad[i] = change;
                if let Some(again) = (body.reencode)(&bad) {
                    assert_eq!(
                        again, bad,
                        "{} byte {i} = {change:#04x} has a second encoding",
                        body.name
                    );
                }
            }
        }
    }
}
