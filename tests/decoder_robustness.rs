//! Decoder robustness: every decoder in the stack must reject arbitrary
//! or corrupted bytes with an error — never panic, never loop.
//!
//! Databases read what disks give them; the storage guides' first rule of
//! deserializers is that hostile bytes are a matter of *when*, not *if*.

use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;
use tepdb::core::checkpoint::TrustAnchor;
use tepdb::core::{BatchChecksum, ProvenanceRecord};
use tepdb::crypto::{HashAlgorithm, Keyring};
use tepdb::model::encode::value_from_bytes;
use tepdb::model::ObjectId;
use tepdb::model::ParticipantId;
use tepdb::storage::vfs::{FaultConfig, FaultVfs, Vfs};
use tepdb::storage::{AppendLog, ProvenanceDb, StoredRecord};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn value_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = value_from_bytes(&bytes);
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

    /// Mutating a valid record payload either round-trips to different
    /// contents or fails to decode — it never panics.
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
        let mut stored = rec.to_stored();
        let idx = flip_at % stored.payload.len();
        stored.payload[idx] ^= 1 << flip_bit;
        let _ = ProvenanceRecord::from_stored(&stored);
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
