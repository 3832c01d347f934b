//! Crash-consistency harness: replay a recorded workload against the
//! fault-injected VFS, simulate a power cut at EVERY mutating-operation
//! boundary, reopen, and assert the durability contract:
//!
//! 1. every record acknowledged by a completed `sync()` is recovered;
//! 2. what is recovered is an ordered prefix of what was attempted — a
//!    torn tail is truncated, never misread as interior tampering;
//! 3. recovery is idempotent: a second reopen is byte-identical and
//!    returns the same records.
//!
//! The sweep seed comes from `TEP_CRASH_SEED` (default 2009, the paper's
//! year) so CI can run a seed matrix.

use std::path::Path;
use std::sync::Arc;
use tep_storage::vfs::{FaultConfig, FaultVfs, Vfs};
use tep_storage::{load_forest_with, save_forest_with, AppendLog, LogError, ProvenanceDb};
use tep_workloads::{CrashOp, CrashWorkload};

fn sweep_seed() -> u64 {
    std::env::var("TEP_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2009)
}

type Payloads = Vec<Vec<u8>>;

/// Replays `workload` against a log at `path`, returning
/// `(acked, attempted)`: payloads acknowledged by a completed sync, and
/// payloads whose append call was issued (successfully or not). Stops at
/// the first error (the simulated power cut).
fn replay_log(
    vfs: &Arc<FaultVfs>,
    path: &Path,
    workload: &CrashWorkload,
) -> (Payloads, Payloads, Result<(), LogError>) {
    let mut acked: Vec<Vec<u8>> = Vec::new();
    let mut attempted: Vec<Vec<u8>> = Vec::new();
    let dyn_vfs: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
    let mut log = match AppendLog::create_with(dyn_vfs, path) {
        Ok(l) => l,
        Err(e) => return (acked, attempted, Err(e)),
    };
    let mut appended: Vec<Vec<u8>> = Vec::new();
    for op in &workload.ops {
        let step = match op {
            CrashOp::Append(payload) => {
                attempted.push(payload.clone());
                match log.append(payload) {
                    Ok(_) => {
                        appended.push(payload.clone());
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            CrashOp::Sync => log.sync().map(|()| {
                acked = appended.clone();
            }),
        };
        if let Err(e) = step {
            return (acked, attempted, Err(e));
        }
    }
    (acked, attempted, Ok(()))
}

/// Asserts the durability contract after a power cut + reopen.
fn assert_recovered_contract(
    vfs: &Arc<FaultVfs>,
    path: &Path,
    acked: &[Vec<u8>],
    attempted: &[Vec<u8>],
    ctx: &str,
) {
    let dyn_vfs: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
    let rec = AppendLog::open_or_create_with(Arc::clone(&dyn_vfs), path)
        .unwrap_or_else(|e| panic!("{ctx}: recovery must never fail, got {e}"));
    assert!(
        rec.gaps.is_empty(),
        "{ctx}: a crash tears the tail; it must never be reported as interior corruption"
    );
    assert_eq!(rec.quarantined_bytes, 0, "{ctx}: nothing to quarantine");
    // 1. Synced-prefix durability.
    assert!(
        rec.payloads.len() >= acked.len() && rec.payloads[..acked.len()] == *acked,
        "{ctx}: lost acknowledged records: acked {} recovered {}",
        acked.len(),
        rec.payloads.len()
    );
    // 2. Recovered is an ordered prefix of what was attempted.
    assert!(
        rec.payloads.len() <= attempted.len()
            && attempted[..rec.payloads.len()] == rec.payloads[..],
        "{ctx}: recovered frames are not a prefix of the attempted appends"
    );
    drop(rec);

    // 3. Idempotence: reopening again changes nothing, byte for byte.
    let bytes_after_first = vfs.file_bytes(path).expect("log exists after recovery");
    let rec2 = AppendLog::open_or_create_with(dyn_vfs, path)
        .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
    drop(rec2);
    let bytes_after_second = vfs
        .file_bytes(path)
        .expect("log exists after second recovery");
    assert_eq!(
        bytes_after_first, bytes_after_second,
        "{ctx}: recovery is not idempotent"
    );
}

#[test]
fn append_log_survives_a_crash_at_every_operation() {
    let seed = sweep_seed();
    let workload = CrashWorkload::frames(seed, 40);
    let path = Path::new("/wal.teplog");

    // Dry run (no fault) to measure the operation space.
    let vfs = FaultVfs::new(FaultConfig {
        seed,
        ..FaultConfig::default()
    });
    let (_, _, result) = replay_log(&vfs, path, &workload);
    result.expect("dry run must succeed");
    let total_ops = vfs.ops();
    // BufWriter coalesces appends, so mutating ops ≪ workload steps; just
    // make sure the sweep covers a non-trivial operation space.
    assert!(total_ops > 15, "workload too small to be interesting");

    for crash_at in 1..=total_ops {
        let vfs = FaultVfs::new(FaultConfig {
            seed: seed ^ crash_at,
            crash_at_op: Some(crash_at),
            ..FaultConfig::default()
        });
        let (acked, attempted, result) = replay_log(&vfs, path, &workload);
        assert!(
            result.is_err(),
            "crash at op {crash_at}/{total_ops} never fired"
        );
        assert!(vfs.crashed(), "disk must be frozen after the cut");
        vfs.power_cycle();
        assert_recovered_contract(
            &vfs,
            path,
            &acked,
            &attempted,
            &format!("seed {seed}, crash at op {crash_at}/{total_ops}"),
        );
    }
}

#[test]
fn provenance_db_survives_a_crash_at_every_operation() {
    let seed = sweep_seed();
    let workload = CrashWorkload::records(seed, 30);
    let path = Path::new("/prov.teplog");

    let replay = |vfs: &Arc<FaultVfs>| -> (usize, usize, bool) {
        // Returns (acked, attempted, crashed).
        let dyn_vfs: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
        let db = match ProvenanceDb::durable_with(dyn_vfs, path) {
            Ok(db) => db,
            Err(_) => return (0, 0, true),
        };
        let mut acked = 0usize;
        let mut attempted = 0usize;
        for op in &workload.ops {
            let step = match op {
                CrashOp::Append(bytes) => {
                    let rec = tep_storage::StoredRecord::from_bytes(bytes)
                        .expect("workload payloads are records");
                    attempted += 1;
                    db.append(rec)
                }
                CrashOp::Sync => db.sync().map(|()| acked = attempted),
            };
            if step.is_err() {
                return (acked, attempted, true);
            }
        }
        (acked, attempted, false)
    };

    let vfs = FaultVfs::new(FaultConfig {
        seed,
        ..FaultConfig::default()
    });
    let (_, _, crashed) = replay(&vfs);
    assert!(!crashed, "dry run must succeed");
    let total_ops = vfs.ops();

    let expected: Vec<Vec<u8>> = workload
        .ops
        .iter()
        .filter_map(|op| match op {
            CrashOp::Append(b) => Some(b.clone()),
            CrashOp::Sync => None,
        })
        .collect();

    for crash_at in 1..=total_ops {
        let vfs = FaultVfs::new(FaultConfig {
            seed: seed ^ (crash_at << 1),
            crash_at_op: Some(crash_at),
            ..FaultConfig::default()
        });
        let (acked, _attempted, crashed) = replay(&vfs);
        assert!(crashed, "crash at op {crash_at}/{total_ops} never fired");
        vfs.power_cycle();

        let ctx = format!("provdb seed {seed}, crash at {crash_at}/{total_ops}");
        let dyn_vfs: Arc<dyn Vfs> = Arc::clone(&vfs) as Arc<dyn Vfs>;
        let db = ProvenanceDb::durable_with(Arc::clone(&dyn_vfs), path)
            .unwrap_or_else(|e| panic!("{ctx}: reopen must not fail: {e}"));
        let report = db.recovery();
        assert!(
            !report.is_degraded(),
            "{ctx}: a crash must never look like interior corruption: {report:?}"
        );
        let recovered = db.all_records();
        assert!(
            recovered.len() >= acked,
            "{ctx}: lost acknowledged records ({} < {acked})",
            recovered.len()
        );
        for (i, rec) in recovered.iter().enumerate() {
            assert_eq!(
                rec.to_bytes(),
                expected[i],
                "{ctx}: recovered record {i} differs from the appended one"
            );
        }
        drop(db);

        // Idempotent: reopen again, same records, byte-identical file.
        let bytes_first = vfs.file_bytes(path).expect("store exists");
        let db2 = ProvenanceDb::durable_with(dyn_vfs, path)
            .unwrap_or_else(|e| panic!("{ctx}: second reopen failed: {e}"));
        assert_eq!(db2.len(), recovered.len(), "{ctx}: reopen changed records");
        drop(db2);
        assert_eq!(
            vfs.file_bytes(path).expect("store exists"),
            bytes_first,
            "{ctx}: reopen changed bytes"
        );
    }
}

/// A power cut inside a batch append. The batch's signature is written once,
/// with the batch's first frame, and every later frame elides it — so a
/// torn batch must come back as a prefix whose every member still carries
/// the whole signature, from a store that does not look tampered with.
#[test]
fn batch_append_survives_a_crash_at_every_operation() {
    use tep_model::{ObjectId, ParticipantId};
    use tep_storage::StoredRecord;

    let seed = sweep_seed();
    let path = Path::new("/batch.teplog");
    const SIGNATURE: usize = 128;
    let batches: Vec<Vec<StoredRecord>> = [2u64, 7, 3, 11, 5]
        .iter()
        .enumerate()
        .map(|(b, &n)| {
            let signature = vec![0xA0 + b as u8; SIGNATURE];
            (0..n)
                .map(|i| {
                    let mut checksum = vec![i as u8; 9 + 20 * (i as usize % 4)];
                    checksum.extend_from_slice(&signature);
                    StoredRecord {
                        seq_id: b as u64,
                        participant: ParticipantId(1),
                        oid: ObjectId(100 * b as u64 + i),
                        checksum,
                        payload: vec![0x7E; 60],
                    }
                })
                .collect()
        })
        .collect();
    let expected: Vec<&StoredRecord> = batches.iter().flatten().collect();

    // Returns (records acknowledged by a completed sync, crashed).
    let replay = |vfs: &Arc<FaultVfs>| -> (usize, bool) {
        let dyn_vfs: Arc<dyn Vfs> = Arc::clone(vfs) as Arc<dyn Vfs>;
        let Ok(db) = ProvenanceDb::durable_with(dyn_vfs, path) else {
            return (0, true);
        };
        let mut acked = 0;
        for batch in &batches {
            if db.append_batch(batch.clone(), SIGNATURE).is_err() || db.sync().is_err() {
                return (acked, true);
            }
            acked += batch.len();
        }
        (acked, false)
    };

    let vfs = FaultVfs::new(FaultConfig {
        seed,
        ..FaultConfig::default()
    });
    assert_eq!(replay(&vfs), (expected.len(), false), "dry run");
    let total_ops = vfs.ops();
    // The elided frames really are smaller: 23 of the 28 frames drop a
    // 128-byte signature for a 7-byte trailer.
    let full: usize = expected.iter().map(|r| 8 + r.to_bytes().len()).sum();
    assert_eq!(
        vfs.file_bytes(path).unwrap().len(),
        12 + full - 23 * (SIGNATURE - 7)
    );

    let mut mid_batch_cuts = 0;
    for crash_at in 1..=total_ops {
        // Where an unsynced write tears is seeded: try several per cut.
        for tear in 0..8u64 {
            let vfs = FaultVfs::new(FaultConfig {
                seed: seed ^ (crash_at << 8) ^ tear,
                crash_at_op: Some(crash_at),
                ..FaultConfig::default()
            });
            let (acked, crashed) = replay(&vfs);
            assert!(crashed, "crash at op {crash_at}/{total_ops} never fired");
            vfs.power_cycle();

            let ctx = format!("batch seed {seed}, crash at {crash_at}/{total_ops}, tear {tear}");
            let dyn_vfs: Arc<dyn Vfs> = Arc::clone(&vfs) as Arc<dyn Vfs>;
            let db = ProvenanceDb::durable_with(Arc::clone(&dyn_vfs), path)
                .unwrap_or_else(|e| panic!("{ctx}: reopen must not fail: {e}"));
            let report = db.recovery();
            assert!(
                !report.is_degraded(),
                "{ctx}: a torn batch is a torn tail, not corruption: {report:?}"
            );
            let recovered = db.all_records();
            assert!(recovered.len() >= acked, "{ctx}: lost acknowledged records");
            for (i, rec) in recovered.iter().enumerate() {
                assert_eq!(rec, expected[i], "{ctx}: record {i} is not self-contained");
            }
            let boundaries = [0, 2, 9, 12, 23, 28];
            if !boundaries.contains(&recovered.len()) {
                mid_batch_cuts += 1;
            }
            drop(db);

            // Idempotent, and the survivors of a torn batch keep sharing
            // the signature their first frame carries.
            let bytes_first = vfs.file_bytes(path).expect("store exists");
            let db2 = ProvenanceDb::durable_with(dyn_vfs, path)
                .unwrap_or_else(|e| panic!("{ctx}: second reopen failed: {e}"));
            assert_eq!(
                db2.all_records(),
                recovered,
                "{ctx}: reopen changed records"
            );
            drop(db2);
            assert_eq!(
                vfs.file_bytes(path).expect("store exists"),
                bytes_first,
                "{ctx}: reopen changed bytes"
            );
        }
    }
    assert!(mid_batch_cuts > 0, "no cut landed inside a batch");
}

#[test]
fn snapshot_save_is_atomic_under_crash_at_every_operation() {
    use tep_model::{Forest, Value};
    let seed = sweep_seed();
    let path = Path::new("/forest.snap");

    let forest_a = {
        let mut f = Forest::new();
        let root = f.insert(Value::text("a"), None).unwrap();
        for i in 0..6i64 {
            f.insert(Value::Int(i), Some(root)).unwrap();
        }
        f
    };
    let forest_b = {
        let mut f = Forest::new();
        let root = f.insert(Value::text("b"), None).unwrap();
        for i in 0..9i64 {
            f.insert(Value::Int(100 + i), Some(root)).unwrap();
        }
        f
    };

    // Measure save B's operation count on a disk that already holds A.
    let probe = FaultVfs::new(FaultConfig {
        seed,
        ..FaultConfig::default()
    });
    {
        let v: Arc<dyn Vfs> = Arc::clone(&probe) as Arc<dyn Vfs>;
        save_forest_with(Arc::clone(&v), &forest_a, path).unwrap();
        let before = probe.ops();
        save_forest_with(v, &forest_b, path).unwrap();
        assert!(probe.ops() > before);
    }
    let save_a_ops;
    let save_b_ops;
    {
        let vfs = FaultVfs::new(FaultConfig {
            seed,
            ..FaultConfig::default()
        });
        let v: Arc<dyn Vfs> = Arc::clone(&vfs) as Arc<dyn Vfs>;
        save_forest_with(Arc::clone(&v), &forest_a, path).unwrap();
        save_a_ops = vfs.ops();
        save_forest_with(v, &forest_b, path).unwrap();
        save_b_ops = vfs.ops() - save_a_ops;
    }

    for crash_offset in 1..=save_b_ops {
        let vfs = FaultVfs::new(FaultConfig {
            seed: seed ^ (crash_offset << 2),
            ..FaultConfig::default()
        });
        let v: Arc<dyn Vfs> = Arc::clone(&vfs) as Arc<dyn Vfs>;
        save_forest_with(Arc::clone(&v), &forest_a, path).unwrap();
        vfs.set_crash_at(Some(vfs.ops() + crash_offset));
        let crashed = save_forest_with(Arc::clone(&v), &forest_b, path).is_err();
        let ctx = format!("snapshot seed {seed}, crash at save-B op {crash_offset}/{save_b_ops}");
        if crashed {
            vfs.power_cycle();
        }
        let loaded = load_forest_with(v, path)
            .unwrap_or_else(|e| panic!("{ctx}: snapshot must load after crash: {e}"));
        let n = loaded.len();
        assert!(
            n == forest_a.len() || n == forest_b.len(),
            "{ctx}: loaded a half-written snapshot ({n} nodes)"
        );
        if !crashed {
            assert_eq!(n, forest_b.len(), "{ctx}: completed save must win");
        }
    }
}

#[test]
fn lying_fsync_loses_data_but_never_corrupts() {
    let seed = sweep_seed();
    let workload = CrashWorkload::frames(seed, 25);
    let path = Path::new("/lie.teplog");
    // Lie on each sync position in turn.
    let sync_count = workload
        .ops
        .iter()
        .filter(|op| matches!(op, CrashOp::Sync))
        .count() as u64;
    for lie_at in 1..=(sync_count + 1) {
        // +1 covers the header sync inside create().
        let vfs = FaultVfs::new(FaultConfig {
            seed: seed ^ lie_at,
            lie_sync_at: Some(lie_at),
            ..FaultConfig::default()
        });
        let (_, attempted, result) = replay_log(&vfs, path, &workload);
        result.expect("a lying fsync reports success");
        vfs.power_cycle();
        // Acked records CAN be lost (that is the point of the lie), but
        // recovery must still be a clean, uncorrupted prefix.
        assert_recovered_contract(
            &vfs,
            path,
            &[],
            &attempted,
            &format!("lie at sync {lie_at}"),
        );
    }
}

#[test]
fn enospc_is_a_clean_error_and_synced_prefix_survives() {
    let seed = sweep_seed();
    let workload = CrashWorkload::frames(seed, 40);
    let path = Path::new("/full.teplog");
    let vfs = FaultVfs::new(FaultConfig {
        seed,
        disk_capacity: Some(16 * 1024),
        ..FaultConfig::default()
    });
    let (acked, attempted, result) = replay_log(&vfs, path, &workload);
    let err = result.expect_err("the workload must overflow a 16 KiB disk");
    assert!(
        err.to_string().contains("space"),
        "out-of-space must surface as ENOSPC, got: {err}"
    );
    // The disk did not crash — but even if the machine dies now, the
    // synced prefix must be intact.
    vfs.power_cycle();
    assert_recovered_contract(&vfs, path, &acked, &attempted, "enospc");
}

#[test]
fn short_writes_are_transparent_to_the_log() {
    let seed = sweep_seed();
    let workload = CrashWorkload::frames(seed, 30);
    let path = Path::new("/short.teplog");
    let vfs = FaultVfs::new(FaultConfig {
        seed,
        short_writes: true,
        ..FaultConfig::default()
    });
    let (acked, attempted, result) = replay_log(&vfs, path, &workload);
    result.expect("short writes must be absorbed by write_all");
    assert_eq!(acked.len(), attempted.len(), "workload ends with a sync");
    vfs.power_cycle();
    assert_recovered_contract(&vfs, path, &acked, &attempted, "short-writes");
}

#[test]
fn failed_fsync_keeps_the_log_usable() {
    let seed = sweep_seed();
    let workload = CrashWorkload::frames(seed, 20);
    let path = Path::new("/failsync.teplog");
    let vfs = FaultVfs::new(FaultConfig {
        seed,
        fail_sync_at: Some(2),
        ..FaultConfig::default()
    });
    let (acked, attempted, result) = replay_log(&vfs, path, &workload);
    // The workload aborts at the failed sync (fsync errors are not
    // retryable in general — see fsyncgate); acked reflects only syncs
    // that completed.
    assert!(result.is_err(), "the failing fsync must surface");
    vfs.power_cycle();
    assert_recovered_contract(&vfs, path, &acked, &attempted, "failed-fsync");
}
