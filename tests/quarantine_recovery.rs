//! End-to-end corruption quarantine: a damaged interior frame in the
//! durable provenance log must NOT fail the open (the pre-quarantine
//! behaviour was a hard `InteriorCorruption` error). Instead the store
//! opens degraded, the damaged range is excised into the `.quarantine`
//! sidecar, the surviving records load, and the Verifier reports the gap
//! as chain-continuity tamper evidence (R2/R3) attributed to quarantined
//! storage.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tepdb::core::{collect, TamperEvidence, Verifier};
use tepdb::prelude::*;
use tepdb::storage::{quarantine_path, AppendLog, ProvenanceDb};

const ALG: HashAlgorithm = HashAlgorithm::Sha256;

fn signer_and_keys() -> (Participant, KeyDirectory) {
    let mut rng = StdRng::seed_from_u64(41);
    let ca = CertificateAuthority::new(512, ALG, &mut rng);
    let p = ca.enroll(ParticipantId(1), 512, &mut rng);
    let mut keys = KeyDirectory::new(ca.public_key().clone(), ALG);
    keys.register(p.certificate().clone()).unwrap();
    (p, keys)
}

struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
        let _ = fs::remove_file(quarantine_path(&self.0));
    }
}

/// Byte ranges `(start, end)` of each CRC frame in a log file, walked
/// from the 12-byte header using the length prefixes.
fn frame_ranges(path: &Path) -> Vec<(usize, usize)> {
    let bytes = fs::read(path).unwrap();
    let mut ranges = Vec::new();
    let mut at = 12usize;
    while at + 8 <= bytes.len() {
        let len = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let end = at + 8 + len;
        assert!(end <= bytes.len(), "walked past EOF: log malformed?");
        ranges.push((at, end));
        at = end;
    }
    ranges
}

fn flip_byte(path: &Path, offset: usize) {
    let mut bytes = fs::read(path).unwrap();
    bytes[offset] ^= 0xFF;
    fs::write(path, &bytes).unwrap();
}

#[test]
fn interior_corruption_quarantines_and_verifier_reports_the_gap() {
    let (signer, keys) = signer_and_keys();
    let path = std::env::temp_dir().join(format!(
        "tepdb-quarantine-{}-{}.teplog",
        std::process::id(),
        line!()
    ));
    let _ = fs::remove_file(&path);
    let _cleanup = Cleanup(path.clone());

    // Session 1: one object, three records (insert + two updates), synced.
    let obj;
    {
        let db = Arc::new(ProvenanceDb::durable(&path).unwrap());
        let mut tracker = ProvenanceTracker::new(
            TrackerConfig {
                alg: ALG,
                ..Default::default()
            },
            Arc::clone(&db),
        );
        let (o, _) = tracker.insert(&signer, Value::Int(1), None).unwrap();
        tracker.update(&signer, o, Value::Int(2)).unwrap();
        tracker.update(&signer, o, Value::Int(3)).unwrap();
        db.sync().unwrap();
        obj = o;
    }

    // The medium damages the MIDDLE record (seq 1) — interior corruption,
    // not a torn tail.
    let ranges = frame_ranges(&path);
    assert_eq!(ranges.len(), 3);
    let (start, end) = ranges[1];
    flip_byte(&path, start + 8 + (end - start - 8) / 2);

    // Session 2: the open SUCCEEDS — degraded, not dead.
    let db = ProvenanceDb::durable(&path).unwrap();
    let report = db.recovery();
    assert!(report.is_degraded(), "report: {report:?}");
    assert_eq!(report.gaps.len(), 1);
    assert_eq!(report.quarantined_bytes, (end - start) as u64);
    assert!(
        quarantine_path(&path).exists(),
        "corrupt bytes must be preserved in the sidecar"
    );

    // Surviving records load: seq 0 and seq 2, byte-identical.
    let seqs: Vec<u64> = db.all_records().iter().map(|r| r.seq_id).collect();
    assert_eq!(seqs, vec![0, 2]);

    // The Verifier turns the gap into chain-continuity tamper evidence.
    let prov = collect(&db, obj).unwrap();
    let hash = prov.latest().unwrap().output_hash.clone();
    let v = Verifier::new(&keys, ALG).verify_recovered(&hash, &prov, &report);
    assert!(!v.verified(), "a damaged history must never verify clean");
    assert!(
        v.issues
            .iter()
            .any(|i| matches!(i, TamperEvidence::BrokenChain { .. })
                || matches!(i, TamperEvidence::MissingRecord { .. })),
        "the missing record must surface as R2/R3 evidence: {:?}",
        v.issues
    );
    assert!(
        v.issues
            .iter()
            .any(|i| matches!(i, TamperEvidence::StorageQuarantine { gaps: 1, .. })),
        "the gap must be attributed to quarantined storage: {:?}",
        v.issues
    );

    // Recovery is terminal: a third open is clean (the damage now lives in
    // the sidecar), and the surviving history still shows the break.
    drop(db);
    let db = ProvenanceDb::durable(&path).unwrap();
    assert!(!db.recovery().is_degraded());
    assert_eq!(db.len(), 2);
}

/// A batch's signature is written once, in the batch's first frame. If
/// the medium takes that frame, the other members are still on disk but
/// have lost what vouched for them: each must surface as evidence against
/// exactly that record — never a panic, never a silent "verified" — while
/// batches written before and after are untouched.
#[test]
fn losing_the_frame_that_carries_a_batch_signature_is_attributed() {
    let (signer, keys) = signer_and_keys();
    let path = std::env::temp_dir().join(format!(
        "tepdb-quarantine-{}-{}.teplog",
        std::process::id(),
        line!()
    ));
    let _ = fs::remove_file(&path);
    let _cleanup = Cleanup(path.clone());

    let (root, row, cell, cell2);
    {
        let db = Arc::new(ProvenanceDb::durable(&path).unwrap());
        let mut tracker = ProvenanceTracker::new(
            TrackerConfig {
                alg: ALG,
                ..Default::default()
            },
            Arc::clone(&db),
        );
        // Frames: [root] [root row] [root row cell] [root row cell2].
        root = tracker.insert(&signer, Value::text("db"), None).unwrap().0;
        row = tracker.insert(&signer, Value::Null, Some(root)).unwrap().0;
        cell = tracker.insert(&signer, Value::Int(1), Some(row)).unwrap().0;
        cell2 = tracker.insert(&signer, Value::Int(2), Some(row)).unwrap().0;
        db.sync().unwrap();
    }

    // The third operation's first frame (root, seq 2) carries the signature
    // that its row (seq 1) and cell (seq 0) frames elide.
    let ranges = frame_ranges(&path);
    assert_eq!(ranges.len(), 9);
    let (start, end) = ranges[3];
    assert!(
        ranges[4].1 - ranges[4].0 < end - start,
        "later members of a batch do not repeat the signature"
    );
    flip_byte(&path, start + 8 + (end - start - 8) / 2);

    let verifier = Verifier::new(&keys, ALG);
    let bad = |oid, seq| TamperEvidence::BadSignature { oid, seq };
    for reopen in 0..2 {
        let db = ProvenanceDb::durable(&path).unwrap();
        let report = db.recovery();
        // Degraded on the open that quarantines, clean afterwards; the
        // evidence below is the same either way.
        assert_eq!(report.is_degraded(), reopen == 0, "report: {report:?}");
        assert_eq!(db.len(), 8, "one frame lost, its dependants kept");
        let verdict = |oid| {
            let prov = collect(&db, oid).unwrap();
            let hash = prov.latest().unwrap().output_hash.clone();
            verifier.verify_recovered(&hash, &prov, &report)
        };

        // The cell's only record is a member of the damaged batch.
        let v = verdict(cell);
        assert!(!v.verified());
        assert!(v.issues.contains(&bad(cell, 0)), "{:?}", v.issues);
        // The row: seq 0 (an earlier batch) stands, seq 1 lost its
        // signature, and seq 2 chains onto seq 1's checksum.
        let v = verdict(row);
        assert!(!v.verified());
        assert!(v.issues.contains(&bad(row, 1)), "{:?}", v.issues);
        assert!(!v.issues.contains(&bad(row, 0)), "{:?}", v.issues);
        // The root lost the record itself.
        let v = verdict(root);
        assert!(!v.verified());
        assert!(
            v.issues.iter().any(|i| matches!(
                i,
                TamperEvidence::BrokenChain { .. } | TamperEvidence::MissingRecord { .. }
            )),
            "{:?}",
            v.issues
        );
        // The batch written afterwards is whole: its new cell verifies
        // but for the store-wide quarantine notice of the first open.
        let v = verdict(cell2);
        assert!(
            v.issues
                .iter()
                .all(|i| matches!(i, TamperEvidence::StorageQuarantine { .. })),
            "{:?}",
            v.issues
        );
        assert_eq!(v.verified(), reopen == 1);
    }
}

#[test]
fn append_log_open_no_longer_errors_on_interior_corruption() {
    // Regression guard for the old behaviour: `AppendLog::open` used to
    // fail hard (`InteriorCorruption`) when a valid frame followed a
    // corrupt one. It must now quarantine and succeed.
    let path = std::env::temp_dir().join(format!(
        "tepdb-quarantine-{}-{}.teplog",
        std::process::id(),
        line!()
    ));
    let _ = fs::remove_file(&path);
    let _cleanup = Cleanup(path.clone());

    let mut log = AppendLog::create(&path).unwrap();
    log.append(b"kept-one").unwrap();
    log.append(b"damaged-by-the-medium").unwrap();
    log.append(b"kept-two").unwrap();
    log.sync().unwrap();
    drop(log);

    let ranges = frame_ranges(&path);
    flip_byte(&path, ranges[1].0 + 8);

    let rec = AppendLog::open(&path).expect("interior corruption is quarantined, not an error");
    assert_eq!(
        rec.payloads,
        vec![b"kept-one".to_vec(), b"kept-two".to_vec()]
    );
    assert_eq!(rec.gaps.len(), 1);
    assert!(rec.quarantined_bytes > 0);
}
