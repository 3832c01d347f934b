//! Compaction crash harness: run checkpoint-anchored log compaction
//! against the fault-injected VFS, simulate a power cut at EVERY
//! mutating-operation boundary, reopen, and assert the compaction
//! contract from `archive.rs`:
//!
//! 1. **No acknowledged record is ever lost**: after any cut, every
//!    synced record is readable from the live log ∪ committed archive
//!    segments — the archive is fsynced before the live log shrinks, and
//!    the rename is the single commit point.
//! 2. **A half-finished compaction is recovered, never misread as
//!    tampering**: reopen always succeeds with a non-degraded recovery
//!    report (no corruption gaps, no quarantine) — the original log is
//!    byte-intact before the commit point, and a committed log is simply
//!    a compacted log.
//! 3. **Reopen is idempotent** (byte-identical second open) and **retry
//!    converges**: re-running the interrupted compaction completes,
//!    rewrites any orphan archive, and the log keeps accepting appends.
//!
//! The sweep also runs over a log written in signature-sharing batches
//! whose watermark lands **inside** a batch: the frame that carries the
//! batch's signature is excised while frames that elide it are kept, so
//! compaction must hand every record it moves — kept or archived — its own
//! copy of the signature.
//!
//! The sweep seed comes from `TEP_CRASH_SEED` (default 2009) so CI can
//! run a seed matrix.

use std::path::Path;
use std::sync::Arc;
use tep_model::{ObjectId, ParticipantId};
use tep_storage::vfs::{FaultConfig, FaultVfs, Vfs};
use tep_storage::{
    archive_path_for, compact_durable_log, read_archive, AppendLog, ProvenanceDb, StoredRecord,
};

const RECORDS: u64 = 24;
const WATERMARK: u64 = 16;
const DIGEST: &[u8] = b"sealed-checkpoint-digest";

fn sweep_seed() -> u64 {
    std::env::var("TEP_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2009)
}

/// Records per signature-sharing batch in the batched sweep: batch 3 is
/// records 15..20, so `WATERMARK` cuts it after its first member.
const BATCH: u64 = 5;
const SHARED_TAIL: usize = 32;

/// Record `seq`: 16 bytes of its own, then 32 bytes every member of its
/// batch of `BATCH` shares.
fn record(seq: u64) -> StoredRecord {
    let mut checksum = vec![seq as u8; 16];
    checksum.extend_from_slice(&[0xB0 + (seq / BATCH) as u8; SHARED_TAIL]);
    StoredRecord {
        seq_id: seq,
        participant: ParticipantId(1),
        oid: ObjectId(seq % 7),
        checksum,
        payload: vec![0x7E; 32],
    }
}

/// Seeds the log with `RECORDS` acknowledged (synced) records, appended
/// one by one or in signature-sharing batches.
fn seed_log(vfs: &Arc<FaultVfs>, path: &Path, batched: bool) {
    let dyn_vfs: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
    let db = ProvenanceDb::durable_with(dyn_vfs, path).unwrap();
    let all: Vec<StoredRecord> = (0..RECORDS).map(record).collect();
    for batch in all.chunks(BATCH as usize) {
        if batched {
            db.append_batch(batch.to_vec(), SHARED_TAIL).unwrap();
        } else {
            batch.iter().for_each(|r| db.append(r.clone()).unwrap());
        }
    }
    db.sync().unwrap();
}

fn compact(vfs: &Arc<FaultVfs>, path: &Path) -> Result<(), String> {
    let dyn_vfs: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
    // `keep` sees indices relative to the current live log; fold in the
    // prior stamp's excised count so a retry over an already-compacted
    // log keeps the survivors (mirrors `tep_core::gc::compact_log`).
    let prior = {
        let db =
            ProvenanceDb::durable_with(Arc::clone(&dyn_vfs), path).map_err(|e| e.to_string())?;
        db.recovery()
            .compaction
            .map(|s| s.excised_frames)
            .unwrap_or(0)
    };
    compact_durable_log(
        dyn_vfs,
        path,
        |i, _| prior + i as u64 >= WATERMARK,
        WATERMARK,
        DIGEST,
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

/// Reads back every record the store acknowledges across the live log and
/// all *committed* archive generations (an orphan archive from a crashed
/// attempt is uncommitted and deliberately not counted).
fn union_of_archives_and_live(vfs: &Arc<FaultVfs>, path: &Path) -> (Vec<Vec<u8>>, bool) {
    let dyn_vfs: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
    let db = ProvenanceDb::durable_with(Arc::clone(&dyn_vfs), path)
        .unwrap_or_else(|e| panic!("reopen after a compaction crash must not fail: {e}"));
    let report = db.recovery();
    assert!(
        !report.is_degraded(),
        "a compaction crash must never look like tampering: {report:?}"
    );
    assert_eq!(
        report.quarantined_bytes, 0,
        "a compaction crash must not quarantine anything"
    );
    let stamp = report.compaction.clone();
    let mut all: Vec<Vec<u8>> = Vec::new();
    if let Some(stamp) = &stamp {
        for generation in 1..=stamp.generation {
            let seg = read_archive(Arc::clone(&dyn_vfs), &archive_path_for(path, generation))
                .unwrap_or_else(|e| panic!("committed archive {generation} unreadable: {e}"));
            assert_eq!(seg.checkpoint_digest, DIGEST);
            all.extend(seg.payloads);
        }
    }
    all.extend(db.all_records().iter().map(|r| r.to_bytes()));
    drop(db);
    // Whatever compaction wrote stands alone: behind a stamp, every live
    // frame decodes as a whole row with no help from a frame before it.
    if stamp.is_some() {
        let live = AppendLog::open_with(dyn_vfs, path).unwrap();
        for (i, frame) in live.payloads[1..].iter().enumerate() {
            let own = StoredRecord::from_bytes(frame)
                .unwrap_or_else(|e| panic!("kept frame {i} is not self-contained: {e}"));
            assert_eq!(
                own.to_bytes(),
                all[all.len() - (live.payloads.len() - 1) + i]
            );
        }
    }
    (all, stamp.is_some())
}

#[test]
fn compaction_survives_a_crash_at_every_operation() {
    crash_sweep(false);
}

#[test]
fn compaction_with_a_watermark_inside_a_batch_survives_crashes() {
    crash_sweep(true);
}

fn crash_sweep(batched: bool) {
    let seed = sweep_seed();
    let path = Path::new("/compact.teplog");
    let expected: Vec<Vec<u8>> = (0..RECORDS).map(|s| record(s).to_bytes()).collect();

    // Dry run to measure the compaction's mutating-operation space.
    let vfs = FaultVfs::new(FaultConfig {
        seed,
        ..FaultConfig::default()
    });
    seed_log(&vfs, path, batched);
    let setup_ops = vfs.ops();
    compact(&vfs, path).expect("dry run must succeed");
    let compact_ops = vfs.ops() - setup_ops;
    assert!(
        compact_ops > 8,
        "compaction op space too small to be interesting ({compact_ops})"
    );

    for crash_offset in 1..=compact_ops {
        let ctx = format!(
            "seed {seed}, batched {batched}, crash at compaction op {crash_offset}/{compact_ops}"
        );
        let vfs = FaultVfs::new(FaultConfig {
            seed: seed ^ (crash_offset << 3),
            ..FaultConfig::default()
        });
        seed_log(&vfs, path, batched);
        vfs.set_crash_at(Some(vfs.ops() + crash_offset));
        let result = compact(&vfs, path);

        if result.is_ok() {
            // The cut landed on a post-commit op (e.g. the final parent
            // dir sync): the compaction already reported success, so it
            // must be fully effective after the power cycle.
            assert!(vfs.crashed(), "{ctx}: crash never fired");
            vfs.power_cycle();
            let (all, committed) = union_of_archives_and_live(&vfs, path);
            assert!(committed, "{ctx}: reported success but stamp missing");
            assert_eq!(all, expected, "{ctx}: records lost after committed run");
            continue;
        }
        assert!(vfs.crashed(), "{ctx}: compaction failed without a crash");
        vfs.power_cycle();

        // 1+2: reopen succeeds, nothing acknowledged is lost, and the
        // half-finished state is never mistaken for tampering.
        let (all, _committed) = union_of_archives_and_live(&vfs, path);
        assert_eq!(
            all, expected,
            "{ctx}: acknowledged records lost across live log ∪ archives"
        );

        // 3a: reopen is idempotent, byte for byte.
        let bytes_first = vfs.file_bytes(path).expect("live log exists");
        let (all2, _) = union_of_archives_and_live(&vfs, path);
        assert_eq!(all2, expected, "{ctx}: second reopen changed the records");
        assert_eq!(
            vfs.file_bytes(path).expect("live log exists"),
            bytes_first,
            "{ctx}: reopen is not idempotent"
        );

        // 3b: retrying the interrupted compaction converges — the orphan
        // archive (if any) is rewritten and the commit completes.
        compact(&vfs, path).unwrap_or_else(|e| panic!("{ctx}: retry must complete: {e}"));
        let (all, committed) = union_of_archives_and_live(&vfs, path);
        assert!(committed, "{ctx}: retry did not commit");
        assert_eq!(all, expected, "{ctx}: records lost after retry");
        let seg =
            read_archive(Arc::clone(&vfs) as Arc<dyn Vfs>, &archive_path_for(path, 1)).unwrap();
        assert_eq!(
            seg.payloads,
            expected[..WATERMARK as usize].to_vec(),
            "{ctx}: archive does not hold exactly the excised prefix"
        );

        // 3c: the compacted log keeps accepting acknowledged appends.
        let dyn_vfs: Arc<dyn Vfs> = Arc::clone(&vfs) as Arc<dyn Vfs>;
        let db = ProvenanceDb::durable_with(Arc::clone(&dyn_vfs), path).unwrap();
        let live_before = db.len();
        db.append(record(RECORDS)).unwrap();
        db.sync().unwrap();
        drop(db);
        let db = ProvenanceDb::durable_with(dyn_vfs, path).unwrap();
        assert_eq!(
            db.len(),
            live_before + 1,
            "{ctx}: tail append after compaction did not survive reopen"
        );
        assert_eq!(
            db.recovery().compaction.as_ref().map(|s| s.excised_frames),
            Some(WATERMARK),
            "{ctx}: stamp lost after tail append"
        );
    }
}

/// A compaction whose watermark covers the whole log must still keep the
/// (empty) live log openable after a crash at any point — the degenerate
/// shape replicas hit when no records were appended since the seal.
#[test]
fn full_truncation_survives_crashes_too() {
    let seed = sweep_seed();
    let path = Path::new("/compact-all.teplog");
    let expected: Vec<Vec<u8>> = (0..RECORDS).map(|s| record(s).to_bytes()).collect();

    let full = |vfs: &Arc<FaultVfs>| -> Result<(), String> {
        let dyn_vfs: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
        compact_durable_log(dyn_vfs, path, |_, _| false, RECORDS, DIGEST)
            .map(|_| ())
            .map_err(|e| e.to_string())
    };

    let vfs = FaultVfs::new(FaultConfig {
        seed,
        ..FaultConfig::default()
    });
    seed_log(&vfs, path, false);
    let setup_ops = vfs.ops();
    full(&vfs).expect("dry run must succeed");
    let compact_ops = vfs.ops() - setup_ops;

    for crash_offset in 1..=compact_ops {
        let ctx = format!("seed {seed}, full-truncation crash at {crash_offset}/{compact_ops}");
        let vfs = FaultVfs::new(FaultConfig {
            seed: seed ^ (crash_offset << 4),
            ..FaultConfig::default()
        });
        seed_log(&vfs, path, false);
        vfs.set_crash_at(Some(vfs.ops() + crash_offset));
        let result = full(&vfs);
        assert!(vfs.crashed(), "{ctx}: crash never fired");
        vfs.power_cycle();
        let (all, committed) = union_of_archives_and_live(&vfs, path);
        assert_eq!(all, expected, "{ctx}: records lost");
        if result.is_ok() {
            assert!(committed, "{ctx}: reported success but stamp missing");
        }
        if !committed {
            full(&vfs).unwrap_or_else(|e| panic!("{ctx}: retry must complete: {e}"));
            let (all, _) = union_of_archives_and_live(&vfs, path);
            assert_eq!(all, expected, "{ctx}: records lost after retry");
        }
    }
}
